"""Acceptance checks, one per pinned criterion, each printing a single
PASS/FAIL line (run with ``pytest -s`` to see them on passing runs).

Two pinned references were wrong and have been replaced, not loosened;
test_c2_c4_references_certified re-derives both with mpmath alone:

* C2 pinned a junction of the fold curve (beta0) with the NS curve
  (beta2) at r_max.  On beta0, E1 coincides with E0, whose determinant
  is 2 - r, so det = 1 cannot hold there; the curve that meets beta2 at
  the 1:2 point r_max is the flip curve beta1, and that is checked now.
* C4 pinned period-6 and period-7 birth lists that miss most true
  births: eight period-6 births would make at least 15 orbits at r = 4,
  not 9, and 7 of the 9 period-7 values lie more than 1e-4 from any
  birth.  The lists are now the 40-digit solutions of the saddle-node
  and period-doubling systems, and the number found must match.
"""

import math
import time
from functools import cmp_to_key

import numpy as np
import pytest

from sirmap import (
    ModelParams,
    applicable_region,
    beta0_threshold,
    beta2_threshold,
    detect_period,
    disease_free,
    endemic,
    find_cycle_births,
    flip_coefficient,
    invariance_probe,
    iterate,
    lyapunov,
    ns_coefficient,
    period2_branch,
    reproduction_candidates,
    sharkovskii_precedes,
    shifted_forms,
    step,
    thresholds,
)
from sirmap.core import State
from sirmap.equilibria import beta1_formula
from sirmap.normal_forms import ResonanceError

from oracles import finite_difference_forms, primitive_orbits


def _report(name: str, ok: bool, detail: str = "") -> None:
    line = f"[ACCEPT] {name}: {'PASS' if ok else 'FAIL'}"
    if detail:
        line += f" ({detail})"
    print(line)
    if not ok:
        pytest.fail(line, pytrace=False)


def test_c1_flip_coefficient_goldens():
    t0 = time.perf_counter()
    bad = []
    for a in (0.0, 0.5, 1.0, 2.0, 3.0):
        for K in (0.25, 0.5, 0.8, 0.9):
            beta = 0.8 * beta0_threshold(3.0, a, K)
            p = ModelParams(r=3.0, beta=beta, a=a, K=K)
            c = flip_coefficient(p, disease_free(p)).coefficient
            if abs(c - 9.0) > 1.0e-9:
                bad.append((a, K, c))

    r26 = 1.0 + math.sqrt(6.0)
    c_low = -10.0 * (math.sqrt(2.0) - 2.0) * (2.0 * math.sqrt(6.0) + 7.0)
    c_high = 10.0 * (math.sqrt(2.0) + 2.0) * (2.0 * math.sqrt(6.0) + 7.0)
    p = ModelParams(r=r26, beta=0.5, a=1.0, K=0.5)
    lo, hi = period2_branch(p)
    got_low = flip_coefficient(p, lo).coefficient
    got_high = flip_coefficient(p, hi).coefficient
    if abs(got_low - c_low) > 1.0e-6:
        bad.append(("p2-low", got_low, c_low))
    if abs(got_high - c_high) > 1.0e-6:
        bad.append(("p2-high", got_high, c_high))

    dt = time.perf_counter() - t0
    _report(
        "C1 flip coefficient goldens",
        not bad and dt < 1.0,
        f"20 combos c=9, 2-cycle pair, {dt:.2f}s" if not bad else f"failures: {bad}",
    )


def test_c2_threshold_goldens():
    checks = []
    checks.append(("beta0(1.25)", abs(beta0_threshold(1.25, 1.0, 0.5) - 3.0) < 1.0e-12))
    checks.append(("beta1(3.6)", abs(beta1_formula(3.6, 1.0, 0.5) - 1.31478) < 1.0e-4))
    checks.append(("beta2(35/16)", abs(beta2_threshold(35.0 / 16.0, 1.0, 0.5) - 3.0) < 1.0e-9))
    gap3 = abs(beta1_formula(3.0, 1.0, 0.5) - beta0_threshold(3.0, 1.0, 0.5))
    checks.append(("beta0(3)=beta1(3+)", gap3 < 1.0e-6))

    # the flip and NS curves end together at the 1:2 resonance r_max
    r_max = thresholds(2.0, 1.0, 0.5).r_max
    gap_b1 = abs(beta1_formula(r_max, 1.0, 0.5) - beta2_threshold(r_max, 1.0, 0.5))
    checks.append(("beta1(r_max)=beta2(r_max)", gap_b1 < 1.0e-6))

    passed = sum(ok for _, ok in checks)
    ok = passed == len(checks)
    failed = [name for name, good in checks if not good]
    detail = f"{passed}/{len(checks)} sub-checks, |beta1-beta2|(r_max)={gap_b1:.1e}"
    if failed:
        detail += f"; failed: {', '.join(failed)}"
    _report("C2 threshold goldens", ok, detail)


def test_c3_ns_boundary_identities():
    t0 = time.perf_counter()
    n_checked, bad = 0, []
    for a in (0.5, 1.0, 2.0):
        for K in (0.3, 0.5, 0.9):
            th = thresholds(2.0, a, K)
            stars = (th.r_bar, th.r_tilde, th.r_max)
            for r in np.linspace(1.10, th.r_max - 0.05, 10):
                if min(abs(r - s) for s in stars) < 1.0e-4:
                    r += 1.0e-3
                p = ModelParams(r=float(r), beta=beta2_threshold(float(r), a, K), a=a, K=K)
                det = endemic(p).eigen.det
                try:
                    d = ns_coefficient(p).coefficient
                except ResonanceError:
                    continue
                n_checked += 1
                if abs(det - 1.0) > 1.0e-9 or d >= 0.0:
                    bad.append((a, K, float(r), det, d))
    dt = time.perf_counter() - t0
    _report(
        "C3 NS boundary identities",
        n_checked >= 85 and not bad and dt < 10.0,
        f"det=1 and d<0 at {n_checked} grid points, {dt:.2f}s"
        if not bad
        else f"failures: {bad[:4]}",
    )


# Reference birth values of the period-n axis orbits, r in (3, 4], with the
# tolerance each list is checked to.  The n = 6 and n = 7 lists are the
# 40-digit solutions certified by test_c2_c4_references_certified.
C4_LISTED = {
    3: [1.0 + 2.0 * math.sqrt(2.0)],
    5: [3.73817, 3.90557, 3.99026],
    6: [
        3.626553161695,
        3.841499007544,  # period-doubling of the 3-cycle, (f^3)' = -1
        3.937516418983,
        3.977760440937,
        3.997582523905,
    ],
    7: [
        3.701640764160,
        3.774133385585,
        3.886028805003,
        3.922185905463,
        3.951027355415,
        3.968974213356,
        3.984746617118,
        3.994537466821,
        3.999397024084,
    ],
}
C4_TOL = {3: 1.0e-9, 5: 1.0e-4, 6: 1.0e-8, 7: 1.0e-8}
# entries that are period-doublings of the n/2-cycle; all others are
# saddle-node tangencies
C4_PERIOD_DOUBLING = {6: [3.841499007544]}


def test_c4_cycle_birth_lists():
    t0 = time.perf_counter()
    parts, ok = [], True
    for n, vals in C4_LISTED.items():
        births = find_cycle_births(n)
        found = births.r_values
        hits = sum(1 for v in vals if np.min(np.abs(found - v)) <= C4_TOL[n])
        # the births labelled period-doubling are exactly the listed ones
        doublings = [r for r, k in zip(found, births.kinds) if k == "period-doubling"]
        listed = C4_PERIOD_DOUBLING.get(n, [])
        kinds_ok = len(doublings) == len(listed) and all(
            abs(r - v) <= C4_TOL[n] for r, v in zip(doublings, listed)
        )
        parts.append(
            f"n={n}: {hits}/{len(vals)} listed values matched ({len(found)} found), "
            f"{len(doublings)} period-doubling"
        )
        if hits < len(vals) or len(found) != len(vals) or not kinds_ok:
            ok = False
    dt = time.perf_counter() - t0
    _report("C4 cycle birth lists", ok and dt < 60.0, "; ".join(parts) + f", {dt:.1f}s")


def test_c2_c4_references_certified():
    """Certify the C2 and C4 reference values with mpmath, independently of
    the routines they check: the map, its endemic point E1 and the logistic
    iterates are written out here and solved at 40 digits.  sirmap is only
    consulted for the quantities the references are compared against."""
    mp = pytest.importorskip("mpmath")
    bad = []

    def logistic(x, r, n):
        """f^n(x) and (f^n)'(x) for f(x) = r x (1 - x)."""
        dx = 1
        for _ in range(n):
            dx *= r * (1 - 2 * x)
            x = r * x * (1 - x)
        return x, dx

    def x_seed(r, n, slope):
        """Grid point nearest to f^n(x) = x with (f^n)'(x) = slope."""
        x = np.linspace(1.0e-4, 1.0 - 1.0e-4, 200_001)
        y, dy = logistic(x, r, n)
        return float(x[np.argmin(np.abs(y - x) + np.abs(dy - slope))])

    # a listed birth agrees with the certified one to its printed digits
    digits = {3: 1.0e-12, 5: 5.0e-6, 6: 1.0e-12, 7: 1.0e-12}
    with mp.workdps(40):
        for n, vals in C4_LISTED.items():
            doublings = C4_PERIOD_DOUBLING.get(n, [])
            if any(b - a <= 1.0e-6 for a, b in zip(vals, vals[1:])):
                bad.append(f"n={n} list not strictly increasing")
            for v in vals:
                # a saddle-node solves f^n(x) = x, (f^n)'(x) = 1; a doubling of
                # the m-cycle, m = n/2, solves f^m(x) = x, (f^m)'(x) = -1
                m, slope = (n // 2, -1) if v in doublings else (n, 1)

                def system(x, r):
                    y, dy = logistic(x, r, m)
                    return y - x, dy - slope

                try:
                    root = mp.findroot(system, (mp.mpf(x_seed(v, m, slope)), mp.mpf(v)))
                except ValueError:  # Newton did not converge: no birth near v
                    bad.append((n, v, "no root"))
                    continue
                x, r = root[0], root[1]
                residual = max(abs(g) for g in system(x, r))
                drift = min(abs(logistic(x, r, d)[0] - x) for d in range(1, m) if m % d == 0)
                if residual > 1.0e-30 or abs(r - v) > digits[n] or drift < 1.0e-3:
                    bad.append((n, v, float(r), float(residual), float(drift)))
            # orbits persist as r grows (Milnor-Thurston), so every period-n
            # orbit at r = 4 was born at a listed value: two per saddle-node,
            # one per period-doubling
            orbits = 2 * (len(vals) - len(doublings)) + len(doublings)
            if orbits != primitive_orbits(n):
                bad.append(f"n={n}: births give {orbits} orbits, r=4 has {primitive_orbits(n)}")

        a, K = mp.mpf(1), mp.mpf("0.5")

        def at_e1(r, beta):
            """I of E1 and the trace and determinant of the map's Jacobian there."""
            r, beta = mp.mpf(r), mp.mpf(beta)
            S = K / (beta - a * K)
            I = (r * S * (1 - S) - S) / K
            comps = (
                lambda s, i: r * s * (1 - s) - beta * s * i / (1 + a * s),
                lambda s, i: (1 - K) * i + beta * s * i / (1 + a * s),
            )
            (j11, j12), (j21, j22) = (
                [mp.diff(g, (S, I), order) for order in ((1, 0), (0, 1))] for g in comps
            )
            return I, j11 + j22, j11 * j22 - j12 * j21

        tiny = mp.mpf(10) ** -25
        I, _, _ = at_e1(1.25, 3)  # beta0(1.25) = 3: E1 meets E0
        if abs(I) > tiny:
            bad.append("beta0(1.25) != 3")
        beta = mp.findroot(lambda b: 1 + sum(at_e1(3.6, b)[1:]), mp.mpf("1.31478"))
        if abs(beta - mp.mpf("1.31478")) > 5.0e-6:  # beta1(3.6): eigenvalue -1
            bad.append(f"beta1(3.6) = {float(beta)}")
        _, _, det = at_e1(mp.mpf(35) / 16, 3)  # beta2(35/16) = 3: det = 1
        if abs(det - 1) > tiny:
            bad.append("beta2(35/16) != 3")
        I, tr, det = at_e1(3, 1.25)  # fold and flip meet at r = 3
        if abs(I) > tiny or abs(1 + tr + det) > tiny:
            bad.append("beta0(3) != beta1(3)")

        # 1:2 resonance: eigenvalues -1, -1, so det = 1 and tr = -2
        def resonance(r, b):
            _, tr, det = at_e1(r, b)
            return det - 1, tr + 2

        root = mp.findroot(resonance, (mp.mpf(19), mp.mpf("1.9")))
        r12, b12 = root[0], root[1]
        r_max = thresholds(2.0, 1.0, 0.5).r_max
        gaps = (
            abs(r12 - r_max),
            abs(b12 - beta1_formula(r_max, 1.0, 0.5)),
            abs(b12 - beta2_threshold(r_max, 1.0, 0.5)),
        )
        if max(gaps) > 1.0e-9 or at_e1(r12, b12)[0] < 0.1:  # E1 far from E0
            bad.append(f"1:2 point ({float(r12)}, {float(b12)}) gaps {[float(g) for g in gaps]}")

    _report(
        "C2/C4 references certified",
        not bad,
        "C4 births solve their systems at 40 digits and match the r=4 orbit counts; "
        f"C2 values and the 1:2 point r={mp.nstr(r12, 15)} agree"
        if not bad
        else f"failures: {bad[:8]}",
    )


def test_c5_dynamics_regimes():
    t0 = time.perf_counter()
    msgs, ok = [], True

    p = ModelParams(r=1.15, beta=3.0, a=1.0, K=0.5)
    orb = iterate(p, (0.6, 0.2), n_transient=20_000, n_keep=8)
    target = disease_free(p).location
    dist = float(np.max(np.abs(orb.states - [target.S, target.I])))
    if dist > 1.0e-8:
        ok, _ = False, msgs.append(f"r=1.15 not at E0 (dist {dist:.1e})")

    p = ModelParams(r=1.8, beta=3.0, a=1.0, K=0.5)
    orb = iterate(p, (0.6, 0.2), n_transient=20_000, n_keep=8)
    target = endemic(p).location
    dist = float(np.max(np.abs(orb.states - [target.S, target.I])))
    if dist > 1.0e-8:
        ok, _ = False, msgs.append(f"r=1.8 not at E1 (dist {dist:.1e})")

    p = ModelParams(r=2.5, beta=3.0, a=1.0, K=0.5)
    orb = iterate(p, (0.6, 0.2), n_transient=20_000, n_keep=4 * 64)
    period = detect_period(orb, max_period=64)
    l1, _ = lyapunov(p, (0.6, 0.2), n=100_000)
    if period is not None:
        ok, _ = False, msgs.append(f"r=2.5 locked to period {period}")
    if abs(l1) > 0.01:
        ok, _ = False, msgs.append(f"r=2.5 lambda_max {l1:.4f} not within 0.01 of 0")

    p = ModelParams(r=3.3, beta=3.0, a=1.0, K=0.5)
    orb = iterate(p, (0.6, 0.2), n_transient=20_000, n_keep=4 * 64)
    period = detect_period(orb, max_period=64)
    if period != 10:
        ok, _ = False, msgs.append(f"r=3.3 period {period} != 10")

    dt = time.perf_counter() - t0
    _report(
        "C5 dynamics regimes",
        ok and dt < 30.0,
        f"E0 sink, E1 focus, invariant curve, locked 10-cycle, {dt:.1f}s"
        if ok
        else "; ".join(msgs),
    )


def test_c6_logistic_limit_exponent():
    t0 = time.perf_counter()
    p = ModelParams(r=4.0, beta=0.5, a=1.0, K=0.5)
    l1, _ = lyapunov(p, (0.3, 0.0), n=1_000_000)
    dt = time.perf_counter() - t0
    err = abs(l1 - math.log(2.0))
    _report(
        "C6 logistic-limit exponent",
        err < 0.02,
        f"lambda_max={l1:.6f}, |err|={err:.1e} over 1e6 iterates, {dt:.1f}s",
    )


# five parameter sets per region case; the case-3 sets were chosen with a
# boundary-image certificate so the curved region genuinely traps orbits
C7_SETS = {
    1: [
        (2.0, 1.5, 1.0, 0.25),
        (2.0, 2.2, 1.0, 0.25),
        (1.8, 1.0, 0.0, 0.40),
        (2.2, 2.5, 2.0, 0.36),
        (1.5, 1.2, 0.5, 0.20),
    ],
    2: [
        (2.9, 0.8, 0.5, 0.25),
        (4.0, 0.5, 0.0, 0.30),
        (3.5, 1.0, 1.0, 0.50),
        (3.0, 0.6, 2.0, 0.20),
        (2.9, 0.8, 0.0, 0.25),
    ],
    3: [
        (3.0, 2.05, 1.0, 0.30),
        (3.6, 2.80, 1.0, 0.50),
        (3.98, 2.65, 1.0, 0.50),
        (4.0, 2.45, 1.0, 0.45),
        (2.5, 1.75, 1.0, 0.20),
    ],
}


def test_c7_positivity_invariance():
    t0 = time.perf_counter()
    bad = []
    for case, sets in C7_SETS.items():
        for r, beta, a, K in sets:
            p = ModelParams(r=r, beta=beta, a=a, K=K)
            region = applicable_region(p)
            if region is None or region.case != case:
                bad.append((case, (r, beta, a, K), "wrong case"))
                continue
            rep = invariance_probe(p, samples=1000, steps=1000, seed=0)
            if rep.escape_count != 0:
                bad.append((case, (r, beta, a, K), f"{rep.escape_count} escapes"))
    dt = time.perf_counter() - t0
    _report(
        "C7 positivity invariance",
        not bad and dt < 60.0,
        f"15 parameter sets, 1000 starts x 1000 steps each, zero escapes, {dt:.1f}s"
        if not bad
        else f"failures: {bad}",
    )


def test_c8_property_suites():
    rng = np.random.default_rng(20260822)
    msgs = []

    # Jacobian and higher tensors vs finite differences
    for r, beta, a, K in [(1.8, 3.0, 1.0, 0.5), (2.6, 2.1, 0.7, 0.4), (3.4, 1.9, 1.5, 0.6)]:
        p = ModelParams(r=r, beta=beta, a=a, K=K)
        loc = endemic(p).location
        forms = shifted_forms(p, loc)
        fd = finite_difference_forms(p, loc)
        if not np.allclose(forms.A, fd.A, rtol=1.0e-6, atol=1.0e-10):
            msgs.append(f"A vs FD at {(r, beta, a, K)}")
        if not np.allclose(forms.B, fd.B, rtol=1.0e-5, atol=1.0e-9):
            msgs.append(f"B vs FD at {(r, beta, a, K)}")
        if not np.allclose(forms.C, fd.C, rtol=1.0e-5, atol=1.0e-6):
            msgs.append(f"C vs FD at {(r, beta, a, K)}")
        if not np.allclose(forms.B, np.transpose(forms.B, (0, 2, 1)), atol=1.0e-12):
            msgs.append("B symmetry")
        for perm in [(0, 1, 3, 2), (0, 2, 1, 3), (0, 3, 2, 1)]:
            if not np.allclose(forms.C, np.transpose(forms.C, perm), atol=1.0e-12):
                msgs.append("C symmetry")

    # normalisation of the critical eigenpairs
    p = ModelParams(r=3.0, beta=0.5, a=1.0, K=0.5)
    nf = flip_coefficient(p, disease_free(p))
    if abs(float(nf.p @ nf.q) - 1.0) > 1.0e-12:
        msgs.append("flip <p,q> != 1")
    nf = ns_coefficient(ModelParams(r=35.0 / 16.0, beta=3.0, a=1.0, K=0.5))
    if abs(np.vdot(nf.p, nf.q) - 1.0) > 1.0e-12:
        msgs.append("ns <p,q> != 1")

    # fixed-point residuals
    for _ in range(50):
        r = float(rng.uniform(1.1, 4.0))
        a = float(rng.uniform(0.0, 3.0))
        K = float(rng.uniform(0.05, 0.95))
        beta = float(rng.uniform(1.05, 4.0)) * beta0_threshold(r, a, K)
        p = ModelParams(r=r, beta=beta, a=a, K=K)
        if disease_free(p).residual > 1.0e-12:
            msgs.append("E0 residual")
        en = endemic(p)
        if en is None or en.residual > 1.0e-12:
            msgs.append("E1 residual")

    # Sharkovskii ordering is a strict total order on 1..128
    def cmp(m, n):
        if m == n:
            return 0
        return -1 if sharkovskii_precedes(m, n) else 1

    ks = list(range(1, 129))
    rank = {k: i for i, k in enumerate(sorted(ks, key=cmp_to_key(cmp)))}
    for m in ks:
        if sharkovskii_precedes(m, m):
            msgs.append("irreflexivity")
        for n in ks:
            if m != n and sharkovskii_precedes(m, n) != (rank[m] < rank[n]):
                msgs.append(f"order inconsistency at ({m}, {n})")

    # one-step mass bound: S'+I' <= (r-1+K)^2/(4r) + (1-K)(S+I)
    for _ in range(200):
        r = float(rng.uniform(0.5, 4.0))
        a = float(rng.uniform(0.0, 3.0))
        K = float(rng.uniform(0.05, 0.95))
        beta = float(rng.uniform(0.05, 4.0))
        p = ModelParams(r=r, beta=beta, a=a, K=K)
        S, I = float(rng.uniform(0.0, 1.2)), float(rng.uniform(0.0, 1.5))
        nxt = step(p, State(S, I))
        bound = (r - 1.0 + K) ** 2 / (4.0 * r) + (1.0 - K) * (S + I)
        if nxt.S + nxt.I > bound + 1.0e-12:
            msgs.append(f"mass bound at {(r, beta, a, K, S, I)}")

    # the first reproduction candidate crosses 1 exactly at the fold curve
    for _ in range(200):
        r = float(rng.uniform(1.05, 5.0))
        a = float(rng.uniform(0.0, 3.0))
        K = float(rng.uniform(0.05, 0.95))
        beta = float(rng.uniform(0.02, 6.0))
        p = ModelParams(r=r, beta=beta, a=a, K=K)
        ra, _ = reproduction_candidates(p)
        if (ra < 1.0) != (beta < beta0_threshold(r, a, K)):
            msgs.append(f"R_a threshold at {(r, beta, a, K)}")
        if (ra > 1.0) != (endemic(p) is not None):
            msgs.append(f"endemic existence at {(r, beta, a, K)}")

    _report(
        "C8 property suites",
        not msgs,
        "tensors, eigenpairs, residuals, ordering axioms, mass bound, thresholds"
        if not msgs
        else "; ".join(msgs[:6]),
    )


def test_c9_coefficient_trend_and_sensitivity():
    ds = []
    for r in (1.5, 1.4, 1.3, 1.2, 1.1, 1.05, 1.02):
        b2 = beta2_threshold(r, 1.0, 0.5)
        ds.append(ns_coefficient(ModelParams(r=r, beta=b2, a=1.0, K=0.5)).coefficient)
    monotone = all(d2 < d1 for d1, d2 in zip(ds, ds[1:]))

    p = ModelParams(r=4.0, beta=1.1, a=1.0, K=0.5)
    o1 = iterate(p, (1.0 / 3.0, 0.1), n_transient=0, n_keep=61)
    o2 = iterate(p, (0.3333, 0.1), n_transient=0, n_keep=61)
    sep = np.max(np.abs(o1.states - o2.states), axis=1)
    k = int(np.argmax(sep > 0.5)) if bool((sep > 0.5).any()) else None
    _report(
        "C9 coefficient trend and sensitive dependence",
        monotone and k is not None and k <= 60,
        f"d falls {ds[0]:.2f} -> {ds[-1]:.2f} toward r=1; "
        f"orbit separation passes 0.5 at step {k}",
    )
