"""Tests for orbit diagnostics: Lyapunov exponents, period detection,
parameter scans, cycle births on the invariant axis, and the decay
envelope of the infected mass."""

import itertools
import math
import warnings
from dataclasses import replace
from functools import cmp_to_key

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from oracles import (
    decay_envelope_holds,
    full_grid_cycle_births,
    kneading_admissible,
    mpmath_birth,
    mpmath_tangent_sums,
    plain_tangent,
    primitive_orbits,
)
from sirmap import dynamics
from sirmap.cli import PRESETS
from sirmap import (
    DivergenceError,
    ModelParams,
    beta0_threshold,
    detect_period,
    endemic,
    find_cycle_births,
    iterate,
    lyapunov,
    reproduction_candidates,
    scan,
    sharkovskii_precedes,
)

# Tangency values for the axis restriction x -> r x (1 - x), frozen from
# a high-resolution Newton solve and cross-checked against closed forms
# where they exist (n = 3 is 1 + 2*sqrt(2)).
BIRTHS = {
    3: [3.8284271247461903],
    5: [3.7381723752726311, 3.9055718702111751, 3.9902573073963766],
    6: [
        3.6265531616622540,
        3.8414990075734431,
        3.9375164189663800,
        3.9777604409481716,
        3.9975825239011450,
    ],
    7: [
        3.7016407641611344,
        3.7741333856125919,
        3.8860288049846177,
        3.9221859055028413,
        3.9510273554297085,
        3.9689742133376630,
        3.9847466170870928,
        3.9945374668617321,
        3.9993970240785211,
    ],
}


def _min_abs_multiplier(r, n, seeds=1200):
    """Smallest |(f^n)'| over minimal-period-n orbits of the axis map.

    Dense damped Newton on f^n(x) - x; returns None when no orbit of
    minimal period n exists at this r.  Used to check that each tangency
    actually hands over an attracting cycle just past the birth value.
    """
    x = np.linspace(0.001, 0.999, seeds)
    for _ in range(80):
        v = x.copy()
        dv = np.ones_like(x)
        for _ in range(n):
            dv *= r * (1.0 - 2.0 * v)
            v = r * v * (1.0 - v)
        g = v - x
        dg = dv - 1.0
        safe = np.where(np.abs(dg) > 1e-14, dg, 1.0)
        step = np.where(np.abs(dg) > 1e-14, g / safe, 0.0)
        np.clip(step, -0.05, 0.05, out=step)
        x = np.clip(x - step, 1e-9, 1.0 - 1e-9)

    v = x.copy()
    dv = np.ones_like(x)
    traj = [x.copy()]
    for _ in range(n):
        dv *= r * (1.0 - 2.0 * v)
        v = r * v * (1.0 - v)
        traj.append(v.copy())
    converged = np.abs(v - x) < 1e-9
    minimal = converged.copy()
    for d in range(1, n):
        if n % d == 0:
            minimal &= np.abs(traj[d] - x) > 1e-6
    if not minimal.any():
        return None
    return float(np.min(np.abs(dv[minimal])))


def _seed_qr(p, x0, transient, warm, n, keep=0):
    """Reference tangent path: a plain-float copy of the original loops.

    Runs ``transient`` guarded map steps, then ``warm + n`` steps of the
    map fused with its Jacobian and a two-column Gram-Schmidt QR of the
    tangent frame (started from the identity), summing ``log r11`` and
    ``log r22`` over the last ``n``.  The first ``keep`` states of the QR
    stretch are recorded.  Returns ``(state, samples, s1, s2, escaped_at)``
    with ``escaped_at`` counted from ``x0``.

    The library carries only the first column, which never reads the
    second, so the orbit, the samples and ``s1`` match bit for bit; it
    takes ``r22`` as ``|det J| / r11``, so ``s2`` matches to rounding.
    Once the first column is mapped to zero, the library's vector carries
    the second one from the perpendicular.
    """
    S, I = float(x0[0]), float(x0[1])
    r, beta, a, K = p.r, p.beta, p.a, p.K
    samples = []
    for k in range(transient):
        if not (abs(S) + abs(I) <= 1.0e6):
            return (S, I), samples, 0.0, 0.0, k
        force = beta * S * I / (1.0 + a * S)
        S, I = r * S * (1.0 - S) - force, (1.0 - K) * I + force
    q11, q21, q12, q22 = 1.0, 0.0, 0.0, 1.0
    s1 = s2 = 0.0
    for k in range(warm + n):
        if not (abs(S) + abs(I) <= 1.0e6):
            return (S, I), samples, s1, s2, transient + k
        if k < keep:
            samples.append((S, I))
        den = 1.0 + a * S
        phi = beta * S / den
        dphi = beta / (den * den)
        j11 = r - 2.0 * r * S - I * dphi
        j12 = -phi
        j21 = I * dphi
        j22 = 1.0 - K + phi
        force = phi * I
        S, I = r * S * (1.0 - S) - force, (1.0 - K) * I + force
        m11 = j11 * q11 + j12 * q21
        m21 = j21 * q11 + j22 * q21
        m12 = j11 * q12 + j12 * q22
        m22 = j21 * q12 + j22 * q22
        r11 = max(math.hypot(m11, m21), 1.0e-300)
        q11, q21 = m11 / r11, m21 / r11
        r12 = q11 * m12 + q21 * m22
        v1 = m12 - r12 * q11
        v2 = m22 - r12 * q21
        r22 = max(math.hypot(v1, v2), 1.0e-300)
        q12, q22 = v1 / r22, v2 / r22
        if k >= warm:
            s1 += math.log(r11)
            s2 += math.log(r22)
    return (S, I), samples, s1, s2, None


def _preset(name):
    spec = PRESETS[name]
    p = ModelParams(r=spec["r"], beta=spec["beta"], a=spec["a"], K=spec["K"])
    return p, (spec["s0"], spec["i0"])


class TestTangentPathOracle:
    """lyapunov and scan follow the reference QR loop's orbit and first column."""

    @pytest.mark.parametrize("preset", ["axis-chaos", "invariant-curve"])
    def test_lyapunov_exact(self, preset):
        p, x0 = _preset(preset)
        n, transient = 20_000, 1_000
        _, _, s1, s2, escaped_at = _seed_qr(p, x0, transient, 2000, n)
        assert escaped_at is None
        l1, l2 = s1 / n, s2 / n
        got = lyapunov(p, x0, n=n, transient=transient)
        assert got[0] >= got[1]
        first, other = (0, 1) if l1 >= l2 else (1, 0)
        assert got[first] == l1
        # |det J| / r11 rounds differently from the Gram-Schmidt r22
        assert abs(got[other] - l2) <= 1.0e-12

    @pytest.mark.parametrize("preset", ["axis-chaos", "endemic-focus", "locked-ten"])
    def test_lyapunov_certified_at_40_digits(self, preset):
        pytest.importorskip("mpmath")
        p, x0 = _preset(preset)
        n, transient, warm = 20_000, 1_000, 2000
        _, states, _, _, escaped_at = _seed_qr(p, x0, transient, warm, n, keep=warm + n)
        assert escaped_at is None
        s1, s_det = mpmath_tangent_sums(p, states, warm)
        l1, l2 = s1 / n, (s_det - s1) / n
        got = lyapunov(p, x0, n=n, transient=transient)
        assert abs(got[0] - max(l1, l2)) <= 1.0e-13, (got, l1, l2)
        assert abs(got[1] - min(l1, l2)) <= 1.0e-13, (got, l1, l2)

    def test_first_column_lost_in_kernel(self):
        # At r = 2 the axis orbit of S = 1/2 sits where J = [[0, -1], [0, 1.5]]:
        # the first column dies at once and only the second one survives.
        p, x0, n = ModelParams(r=2.0, beta=3.0, a=1.0, K=0.5), (0.5, 0.0), 20_000
        _, _, s1, s2, _ = _seed_qr(p, x0, 1_000, 2000, n)
        assert lyapunov(p, x0, n=n, transient=1_000) == (s2 / n, s1 / n)
        _, _, s1, _, _ = _seed_qr(p, x0, 50, 0, 1000)
        assert scan(p, "r", (2.0, 2.0), 1, x0=x0, transient=50, keep=4).lyap_max[0] == s1 / 1000

    @pytest.mark.parametrize("s0", [0.3, 0.34])
    def test_lyapunov_escape_step_exact(self, s0):
        # Just past r = 4 the axis orbit leaks out late: s0 = 0.3 during
        # the frame warm-up, s0 = 0.34 during the averaging stretch.
        p = ModelParams(r=4.0 + 1.0e-6, beta=0.5, a=1.0, K=0.5)
        *_, escaped_at = _seed_qr(p, (s0, 0.0), 0, 2000, 5000)
        assert escaped_at is not None
        with pytest.raises(DivergenceError) as exc:
            lyapunov(p, (s0, 0.0), n=5000, transient=0)
        assert exc.value.step == escaped_at

    @pytest.mark.parametrize(
        "p, prange, steps, x0, transient, keep",
        [
            # rows 0-5 escape in the transient, row 6 restarts cold
            (ModelParams(r=3.9, beta=1.1, a=1.0, K=0.5), (4.3, 3.9), 9, (0.5, 0.1), 40, 6),
            # row 0 escapes in the QR stretch, row 1 restarts cold
            (ModelParams(r=3.9, beta=0.5, a=1.0, K=0.5), (4.002, 3.95), 8, (0.3, 0.0), 50, 5),
        ],
    )
    def test_scan_exact_through_escape_and_cold_restart(
        self, p, prange, steps, x0, transient, keep
    ):
        values = np.linspace(prange[0], prange[1], steps)
        want = np.full((steps, keep, 2), np.nan)
        want_lyap = np.full(steps, np.nan)
        want_escapes = []
        state = x0
        for row, val in enumerate(values):
            q = replace(p, r=float(val))
            end, samples, s1, _, escaped_at = _seed_qr(q, state, transient, 0, 1000, keep)
            if escaped_at is None:
                want[row] = samples
                want_lyap[row] = s1 / 1000
                state = end
            else:
                want_escapes.append((row, escaped_at))
                state = x0
        last_escaped = want_escapes[-1][0]
        assert not np.isnan(want_lyap[last_escaped + 1])  # the cold restart runs clean

        res = scan(p, "r", prange, steps, x0=x0, transient=transient, keep=keep)
        assert res.escapes == want_escapes
        np.testing.assert_array_equal(res.s_samples, want[:, :, 0])
        np.testing.assert_array_equal(res.i_samples, want[:, :, 1])
        np.testing.assert_array_equal(res.lyap_max, want_lyap)


def _tangent_bits(result):
    """A tangent run's result with every float as its bit pattern."""
    S, I, (q1, q2), s1, s2, escaped_at = result
    return tuple(v.hex() for v in (S, I, q1, q2, s1, s2)) + (escaped_at,)


def _same_tangent(p, x0, frame, n, rows=0):
    """``_tangent`` and the every-step loop agree bit for bit, ``out`` rows included."""
    got_out, want_out = np.full((rows, 2), np.nan), np.full((rows, 2), np.nan)
    got = _tangent_bits(dynamics._tangent(p, x0, frame, n, got_out if rows else None))
    assert got == _tangent_bits(plain_tangent(p, x0, frame, n, want_out if rows else None))
    assert got_out.tobytes() == want_out.tobytes()
    return got


def _first_tangent_repeat(p, x0, rows, limit):
    """``(k, L)``: the first step whose tangent state repeats the state kept
    ``L`` steps before, on the doubling schedule past ``rows``; None if no
    repeat comes within ``limit`` steps.  The state after ``k`` steps is
    taken from a fresh every-step run of ``k`` steps, so the cases below
    keep their ``lost`` flag from step 1 on.
    """
    kept, next_keep, kept_state = 0, 0 if rows else 1, None
    for k in range(limit):
        state = _tangent_bits(plain_tangent(p, x0, dynamics._START, k))[:4]
        if state == kept_state:
            return k, k - kept
        if k >= next_keep and k >= rows:
            kept, next_keep, kept_state = k, 2 * k, state
    return None


_AXIS_TWO_CYCLE = ModelParams(r=3.2, beta=0.5, a=1.0, K=0.5), (0.3, 0.0)
_ENDEMIC_NODE = ModelParams(r=1.8, beta=1.8, a=1.0, K=0.5), (0.6, 0.2)
# J = [[0, -1], [0, 1.5]] at S = 1/2 on the axis: the start vector is lost
_LOST_VECTOR = ModelParams(r=2.0, beta=3.0, a=1.0, K=0.5), (0.5, 0.0)
# S = 1/2 sits bit-fixed at r = 2 while I decays to the axis
_AXIS_APPROACH = ModelParams(r=2.0, beta=0.5, a=1.0, K=0.5), (0.5, 1.0e-20)


class TestTangentCycleReplay:
    """``_tangent`` replays a bit-exact cycle of its whole state and returns
    what running every step would."""

    @settings(max_examples=200, deadline=None)
    @given(
        r=st.floats(0.1, 4.2),
        beta=st.floats(0.05, 4.0),
        a=st.floats(0.0, 3.0),
        K=st.floats(0.01, 0.99),
        S0=st.one_of(st.floats(-0.2, 1.3), st.sampled_from([0.0, -0.0])),
        I0=st.one_of(st.floats(-0.1, 1.0), st.sampled_from([0.0, -0.0])),
        frame=st.sampled_from([(1.0, 0.0), (-0.0, 1.0), (0.6, -0.8), (0.0, -1.0)]),
        n=st.integers(0, 3000),
        rows=st.integers(0, 60),
    )
    def test_matches_every_step_loop(self, r, beta, a, K, S0, I0, frame, n, rows):
        _same_tangent(ModelParams(r=r, beta=beta, a=a, K=K), (S0, I0), frame, n, rows)

    @pytest.mark.parametrize("rows", [0, 3])
    @pytest.mark.parametrize(
        "case, period",
        [(_AXIS_TWO_CYCLE, 2), (_ENDEMIC_NODE, 1), (_LOST_VECTOR, 2)],
        ids=["axis-two-cycle", "endemic-node", "lost-vector"],
    )
    def test_settled_orbits(self, case, period, rows):
        p, x0 = case
        k, lam = _first_tangent_repeat(p, x0, rows, limit=1200)
        assert lam % period == 0
        for n in (k - 1, k, k + 1, k + lam, k + lam + 1, 2 * k + 3, 5000, 5001, 5003):
            _same_tangent(p, x0, dynamics._START, n, rows)

    @pytest.mark.parametrize("I0", [0.0, -0.0])
    @pytest.mark.parametrize("frame", [(1.0, 0.0), (-1.0, -0.0)])
    def test_signed_zeros_are_part_of_the_state(self, frame, I0):
        p, (S0, _) = _AXIS_TWO_CYCLE
        for n in (100, 1001, 10_000):
            _, I, *_ = _same_tangent(p, (S0, I0), frame, n)
            assert math.copysign(1.0, float.fromhex(I)) == math.copysign(1.0, I0)

    def test_lost_vector_replays_with_r11_at_its_clamp(self):
        p, x0 = _LOST_VECTOR
        _, _, _, s1, s2, _ = dynamics._tangent(p, x0, dynamics._START, 10_001)
        assert s1 == plain_tangent(p, x0, dynamics._START, 10_001)[3]
        assert s1 < -690.0 * 10_000  # log(1e-300) every step
        assert abs(s2 / 10_001 - math.log(1.5)) < 1.0e-3

    def test_subnormal_stretch_is_clamped_not_lost(self):
        # at S = 1/2, r = 2 the entries j11 = -j21 are subnormal with I: the
        # start vector's stretch is below the clamp but not zero
        p, _ = _LOST_VECTOR
        x0 = (0.5, 1.0e-310)
        _, _, q1, q2, s1, _, _ = _same_tangent(p, x0, dynamics._START, 1)
        assert float.fromhex(s1) == math.log(1.0e-300)
        assert float.fromhex(q1) == -float.fromhex(q2) != 0.0  # not restarted on (0, 1)
        for n in (2, 10, 100, 1000, 5000):
            _same_tangent(p, x0, dynamics._START, n, rows=3)

    @pytest.mark.parametrize("frame", [(0.0, 0.0), (-0.0, 0.0), (5.0e-324, 0.0)])
    @pytest.mark.parametrize(
        "case", [_AXIS_TWO_CYCLE, _ENDEMIC_NODE, _LOST_VECTOR],
        ids=["axis-two-cycle", "endemic-node", "lost-vector"],
    )
    def test_zero_or_subnormal_stretch_after_the_loss(self, case, frame):
        # a zero frame is lost at step 1 and maps to zero every step after;
        # a subnormal one at the lost-vector point restarts subnormal
        p, x0 = case
        for n in (1, 2, 3, 50, 1001, 5000):
            for rows in (0, 3):
                _same_tangent(p, x0, frame, n, rows)

    def test_axis_approach_packs_only_at_kept_states(self, monkeypatch):
        # S and the vector settle long before I reaches its last value
        p, x0 = _AXIS_APPROACH
        for n in (1, 100, 1000, 1800, 2100, 5000):
            for rows in (0, 3):
                _same_tangent(p, x0, dynamics._START, n, rows)
        packs = []
        pack = dynamics._tangent_bits

        def counting_pack(*state):
            packs.append(None)
            return pack(*state)

        monkeypatch.setattr(dynamics, "_tangent_bits", counting_pack)
        want = _tangent_bits(plain_tangent(p, x0, dynamics._START, 10**5))
        assert _tangent_bits(dynamics._tangent(p, x0, dynamics._START, 10**5)) == want
        assert len(packs) < 40  # one per kept state and one at the repeat, not one per step

    def test_endemic_focus_never_repeats(self):
        # the vector turns by the eigenvalues' angle: no state comes round
        p = ModelParams(r=1.8, beta=3.0, a=1.0, K=0.5)
        assert _first_tangent_repeat(p, (0.6, 0.2), 0, limit=300) is None
        _same_tangent(p, (0.6, 0.2), dynamics._START, 5000, 7)

    def test_replayed_steps_are_not_run(self, monkeypatch):
        p, x0 = _AXIS_TWO_CYCLE
        n = 10**5
        want = _tangent_bits(plain_tangent(p, x0, dynamics._START, n))
        calls = []
        hypot = math.hypot

        def counting_hypot(x, y):
            calls.append(None)
            return hypot(x, y)

        monkeypatch.setattr(math, "hypot", counting_hypot)
        got = _tangent_bits(dynamics._tangent(p, x0, dynamics._START, n))
        assert got == want
        assert 0 < len(calls) < 200  # detection at step 66, one 2-step turn recorded


class TestLyapunov:
    def test_pole_is_an_escape(self):
        # the orbit of (2, 0) at r = 1/2 reaches the pole S = -1/a at step 1
        p = ModelParams(r=0.5, beta=1.0, a=1.0, K=0.5)
        for transient, step in ((0, 1), (1, 1), (5, 1)):
            with pytest.raises(DivergenceError) as exc:
                lyapunov(p, (2.0, 0.0), n=1000, transient=transient)
            assert exc.value.step == step
        with pytest.raises(DivergenceError) as exc:
            lyapunov(p, (-1.0, 0.1), n=1000, transient=0)
        assert exc.value.step == 0

    def test_axis_chaos_log_two(self):
        # At r = 4 with the infection extinct the axis dynamics is the
        # full logistic map, whose exponent is log 2 exactly.
        p = ModelParams(r=4.0, beta=0.5, a=1.0, K=0.5)
        l1, l2 = lyapunov(p, (0.3, 0.0), n=100_000)
        assert abs(l1 - math.log(2.0)) < 1.0e-4
        assert l2 < -0.4

    def test_sink_exponents_match_eigenvalues(self):
        # Below the fold threshold the disease-free point is a stable
        # node with eigenvalues 2 - r and 1 - K + beta S*/(1 + a S*).
        p = ModelParams(r=2.5, beta=1.1, a=1.0, K=0.5)
        l1, l2 = lyapunov(p, (0.5, 0.1), n=50_000)
        s_star = (p.r - 1.0) / p.r
        mu_in = 1.0 - p.K + p.beta * s_star / (1.0 + p.a * s_star)
        assert abs(l1 - math.log(mu_in)) < 1.0e-8
        assert abs(l2 - math.log(p.r - 2.0)) < 1.0e-8

    def test_focus_exponents_split_log_det(self):
        # A stable focus has a complex pair, so both exponents equal
        # half the log of the Jacobian determinant.
        p = ModelParams(r=1.8, beta=3.0, a=1.0, K=0.5)
        rep = endemic(p)
        assert rep.stability.name == "STABLE_FOCUS"
        half = 0.5 * math.log(rep.eigen.det)
        l1, l2 = lyapunov(p, (0.5, 0.1), n=50_000)
        assert l1 < 0.0
        assert abs(l1 - half) < 1.0e-3
        assert abs(l2 - half) < 1.0e-3
        assert abs(l1 - l2) < 1.0e-3

    def test_periodic_regime_negative_exponent(self):
        p = ModelParams(r=3.3, beta=3.0, a=1.0, K=0.5)
        l1, _ = lyapunov(p, (0.5, 0.1), n=50_000)
        assert l1 < -0.01
        orb = iterate(p, (0.5, 0.1), n_transient=20_000, n_keep=400)
        assert detect_period(orb) == 10

    def test_quasiperiodic_regime_near_zero_exponent(self):
        # Past the invariant-circle birth the top exponent hugs zero and
        # no period below the detector ceiling fits the samples.
        p = ModelParams(r=2.5, beta=3.0, a=1.0, K=0.5)
        l1, l2 = lyapunov(p, (0.5, 0.1), n=100_000)
        assert abs(l1) < 1.0e-3
        assert l2 < -0.05
        orb = iterate(p, (0.5, 0.1), n_transient=20_000, n_keep=512)
        assert detect_period(orb) is None

    def test_extinct_eight_cycle(self):
        # beta below the fold threshold: infection dies out and the axis
        # attractor at r = 3.55 is the 8-cycle of the logistic cascade.
        p = ModelParams(r=3.55, beta=1.1, a=1.0, K=0.5)
        l1, _ = lyapunov(p, (0.5, 0.1), n=50_000)
        assert l1 < 0.0
        orb = iterate(p, (0.5, 0.1), n_transient=50_000, n_keep=400)
        assert detect_period(orb) == 8

    def test_vector_in_jacobian_kernel_keeps_transverse_exponent(self):
        # At r = 2 the axis fixed point is S = 1/2, where dS'/dS = 0 and
        # dI'/dS = 0: the start vector along S maps to zero.  The kernel
        # steps onto the perpendicular and finds the transverse
        # eigenvalue 1 - K + beta S/(1 + a S) = 1.5, so infection invades.
        p = ModelParams(r=2.0, beta=3.0, a=1.0, K=0.5)
        l1, l2 = lyapunov(p, (0.5, 0.0))
        assert abs(l1 - math.log(1.5)) < 1.0e-3
        assert l2 < -600.0  # det J = 0 along the whole orbit

    def test_divergence_reported_with_step(self):
        p = ModelParams(r=40.0, beta=1.0, a=1.0, K=0.5)
        with pytest.raises(DivergenceError) as exc:
            lyapunov(p, (0.5, 0.1), n=2_000, transient=0)
        assert exc.value.step >= 0

    def test_rejects_tiny_sample_count(self):
        p = ModelParams(r=2.0, beta=1.0, a=1.0, K=0.5)
        with pytest.raises(ValueError, match="n >= 1000"):
            lyapunov(p, (0.5, 0.1), n=500)

    def test_rejects_negative_transient(self):
        p = ModelParams(r=2.0, beta=1.0, a=1.0, K=0.5)
        with pytest.raises(ValueError, match="transient"):
            lyapunov(p, (0.5, 0.1), n=2_000, transient=-1)


class TestDetectPeriod:
    def test_fixed_point_is_period_one(self):
        p = ModelParams(r=1.8, beta=3.0, a=1.0, K=0.5)
        orb = iterate(p, (0.5, 0.1), n_transient=10_000, n_keep=300)
        assert detect_period(orb) == 1

    def test_axis_two_cycle(self):
        p = ModelParams(r=3.2, beta=0.5, a=1.0, K=0.5)
        orb = iterate(p, (0.5, 0.0), n_transient=5_000, n_keep=300)
        assert detect_period(orb) == 2

    def test_ceiling_respected(self):
        p = ModelParams(r=3.3, beta=3.0, a=1.0, K=0.5)
        orb = iterate(p, (0.5, 0.1), n_transient=20_000, n_keep=400)
        assert detect_period(orb, max_period=8) is None

    def test_plain_array_accepted(self):
        pts = np.tile([[0.25, 0.1], [0.7, 0.3]], (150, 1))
        assert detect_period(pts, max_period=16) == 2

    def test_rejects_wrong_shape(self):
        with pytest.raises(ValueError, match=r"\(n, 2\)"):
            detect_period(np.zeros(64))

    def test_rejects_short_window(self):
        with pytest.raises(ValueError, match="samples"):
            detect_period(np.zeros((10, 2)), max_period=16)


class TestScan:
    def test_rejects_unknown_parameter(self):
        p = ModelParams(r=2.0, beta=1.0, a=1.0, K=0.5)
        with pytest.raises(ValueError, match="parameter_name"):
            scan(p, "kappa", (0.1, 0.2), steps=3)

    def test_rejects_bad_counts(self):
        p = ModelParams(r=2.0, beta=1.0, a=1.0, K=0.5)
        with pytest.raises(ValueError, match="steps"):
            scan(p, "r", (2.0, 3.0), steps=0)
        with pytest.raises(ValueError, match="keep"):
            scan(p, "r", (2.0, 3.0), steps=3, keep=0)

    @pytest.mark.parametrize(
        "prange, steps",
        [
            ((2.0, math.inf), 3),
            ((math.nan, 3.0), 3),
            ((2.0, math.inf), 1),  # a one-row grid never reaches hi
            ((1.0e308, math.inf), 2),
            ((-1.7e308, 1.7e308), 3),  # finite ends, but hi - lo overflows
        ],
    )
    def test_rejects_non_finite_range(self, prange, steps):
        p = ModelParams(r=2.0, beta=1.0, a=1.0, K=0.5)
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            with pytest.raises(ValueError, match=r"scan range .*prange=\("):
                scan(p, "r", prange, steps, transient=10, keep=1)

    def test_stable_sweep_shapes_and_signs(self):
        p = ModelParams(r=2.0, beta=1.1, a=1.0, K=0.5)
        res = scan(p, "r", (2.8, 3.05), steps=6, transient=2_000, keep=50)
        assert res.parameter == "r"
        assert res.values.shape == (6,)
        assert np.all(np.diff(res.values) > 0)
        assert res.s_samples.shape == (6, 50)
        assert res.i_samples.shape == (6, 50)
        assert np.all(np.isfinite(res.s_samples))
        assert np.all(res.lyap_max < 0.0)
        assert res.escapes == []

    def test_beta_sweep_below_fold_threshold(self):
        p = ModelParams(r=2.5, beta=0.5, a=1.0, K=0.5)
        res = scan(p, "beta", (0.5, 1.3), steps=5, transient=2_000, keep=50)
        assert res.parameter == "beta"
        assert np.all(res.lyap_max < 0.0)
        # infection dies out everywhere below the threshold
        assert np.all(res.i_samples < 1.0e-6)

    def test_rejects_negative_transient(self):
        # a negative transient would run none and shift every escape step
        p = ModelParams(r=3.9, beta=1.1, a=1.0, K=0.5)
        with pytest.raises(ValueError, match="transient"):
            scan(p, "r", (4.3, 3.9), 3, transient=-5, keep=2)

    def test_escape_rows_marked_and_restarted(self):
        # Sweeping r past 4 pushes axis orbits out of [0, 1]; escaped
        # rows must carry NaN samples and land in the escapes list, and
        # the following row restarts from the cold start.
        p = ModelParams(r=3.9, beta=1.1, a=1.0, K=0.5)
        res = scan(p, "r", (3.9, 4.26), steps=4, transient=2_000, keep=50)
        rows = [row for row, _ in res.escapes]
        assert 0 not in rows
        assert 3 in rows
        assert np.isfinite(res.lyap_max[0])
        assert res.lyap_max[0] > 0.0
        for row in rows:
            assert np.isnan(res.lyap_max[row])
            assert np.all(np.isnan(res.s_samples[row]))
            assert np.all(np.isnan(res.i_samples[row]))
        for row, step in res.escapes:
            assert step >= 0

    @pytest.mark.parametrize("transient", [0, 1, 5])
    def test_pole_rows_escape(self, transient):
        # every row restarts from (2, 0), whose next state (-1, 0) sits on
        # the pole 1 + a*S = 0, in the transient or in the sampled window
        p = ModelParams(r=0.5, beta=1.0, a=1.0, K=0.5)
        res = scan(p, "K", (0.2, 0.8), steps=3, x0=(2.0, 0.0), transient=transient, keep=2)
        assert res.escapes == [(0, 1), (1, 1), (2, 1)]
        assert np.all(np.isnan(res.s_samples)) and np.all(np.isnan(res.lyap_max))


class TestCycleBirths:
    def test_three_cycle_closed_form(self):
        res = find_cycle_births(3)
        assert res.n == 3
        assert res.r_values.shape == (1,)
        assert abs(res.r_values[0] - (1.0 + 2.0 * math.sqrt(2.0))) < 1.0e-9

    def test_five_cycle_births(self):
        res = find_cycle_births(5)
        assert res.r_values.shape == (3,)
        assert np.allclose(res.r_values, BIRTHS[5], rtol=0, atol=1.0e-8)

    def test_six_cycle_births(self):
        # Five values: four saddle-node tangencies plus the flip of the
        # 3-cycle at the end of its stable window.
        res = find_cycle_births(6)
        assert res.r_values.shape == (5,)
        assert np.allclose(res.r_values, BIRTHS[6], rtol=0, atol=1.0e-8)

    def test_minimal_period_filter(self):
        # the n = 3 tangency must not leak into the n = 6 list
        res = find_cycle_births(6)
        assert np.min(np.abs(res.r_values - BIRTHS[3][0])) > 1.0e-3
        assert np.all(np.diff(res.r_values) > 1.0e-6)

    def test_window_restriction(self):
        res = find_cycle_births(5, r_window=(3.7, 3.8))
        assert res.r_values.shape == (1,)
        assert abs(res.r_values[0] - BIRTHS[5][0]) < 1.0e-8

    def test_rejects_bad_n(self):
        with pytest.raises(ValueError, match="3..12"):
            find_cycle_births(2)
        with pytest.raises(ValueError, match="3..12"):
            find_cycle_births(13)
        with pytest.raises(ValueError, match="3..12"):
            find_cycle_births(5.0)

    def test_rejects_bad_window(self):
        with pytest.raises(ValueError, match="window"):
            find_cycle_births(5, r_window=(2.9, 4.0))
        with pytest.raises(ValueError, match="window"):
            find_cycle_births(5, r_window=(3.5, 3.2))

    def test_no_five_orbit_before_first_birth(self):
        assert _min_abs_multiplier(3.70, 5) is None

    @pytest.mark.parametrize("r_star", BIRTHS[5])
    def test_attracting_five_cycle_just_past_birth(self, r_star):
        m = _min_abs_multiplier(r_star + 1.0e-6, 5)
        assert m is not None
        assert m < 1.0

    @pytest.mark.parametrize(
        "n, r_star",
        [
            (3, BIRTHS[3][0]),
            (5, BIRTHS[5][0]),
            (6, BIRTHS[6][0]),
            (7, BIRTHS[7][0]),
            (7, BIRTHS[7][1]),
        ],
    )
    def test_detectable_in_wide_windows(self, n, r_star):
        # Just past each of these tangencies the stable window is wide
        # enough that an axis orbit settles onto the new cycle.  (Some
        # later windows are narrower than 1e-4 and are not probed here.)
        p = ModelParams(r=r_star + 1.0e-4, beta=1.1, a=1.0, K=0.5)
        orb = iterate(p, (0.5, 0.0), n_transient=200_000, n_keep=4 * 64)
        assert detect_period(orb) == n

    def test_three_cycle_attracts_off_axis(self):
        # with beta below the fold threshold the planar orbit collapses
        # onto the axis and finds the same 3-cycle
        p = ModelParams(r=BIRTHS[3][0] + 1.0e-4, beta=1.1, a=1.0, K=0.5)
        orb = iterate(p, (0.8, 0.2), n_transient=200_000, n_keep=4 * 64)
        assert detect_period(orb) == 3


class TestCycleBirthOracle:
    """Every birth is certified by an independent solve, and none is missing."""

    # superstable period-n orbits of the logistic family (OEIS A000048);
    # each is born at exactly one saddle-node or period-doubling
    SUPERSTABLE = {2: 1, 3: 1, 4: 2, 5: 3, 6: 5, 7: 9, 8: 16, 9: 28, 10: 51, 11: 93, 12: 170}

    @pytest.mark.parametrize("n", range(3, 11))
    def test_each_birth_solves_its_system_at_40_digits(self, n):
        pytest.importorskip("mpmath")
        res = find_cycle_births(n)
        for r, kind in zip(res.r_values, res.kinds):
            # a saddle-node solves the period-n system with multiplier +1, a
            # period-doubling the n/2 system with multiplier -1
            m, multiplier = (n, 1) if kind == "saddle-node" else (n // 2, -1)
            exact, residual, drift = mpmath_birth(m, multiplier, r)
            assert residual < 1.0e-30, (n, r, kind)
            assert abs(exact - r) <= 1.0e-13, (n, r, kind, float(exact))
            # the orbit solved has minimal period m, so the orbit born has period n
            assert drift > 1.0e-3, (n, r, kind)

    @pytest.mark.parametrize("n", range(3, 13))
    def test_counts_and_orbit_identity(self, n):
        res = find_cycle_births(n)
        saddle_nodes = res.kinds.count("saddle-node")
        doublings = res.kinds.count("period-doubling")
        assert len(res.kinds) == len(res.r_values) == saddle_nodes + doublings
        assert len(res.r_values) == self.SUPERSTABLE[n]
        assert doublings == (self.SUPERSTABLE[n // 2] if n % 2 == 0 else 0)
        assert np.all(np.diff(res.r_values) > 0.0)
        # every period-n orbit of 4x(1-x) was born at one of these values:
        # two per saddle-node, one per period-doubling
        assert 2 * saddle_nodes + doublings == primitive_orbits(n)

    @pytest.mark.parametrize("m", range(2, 13))
    def test_words_are_exactly_the_admissible_ones(self, m):
        # product order, as the enumeration walks the words
        words = ["".join(w) for w in itertools.product("LR", repeat=m - 1)]
        admissible = [w for w in words if kneading_admissible(w)]
        assert len(admissible) == self.SUPERSTABLE[m]
        assert [w for w, _ in dynamics._superstable_words(m)] == admissible

    def test_default_grid(self):
        # the seed-grid solve this enumeration replaced, on its default grid
        expected = full_grid_cycle_births(8)
        got = find_cycle_births(8).r_values
        assert got.shape == expected.shape
        assert np.max(np.abs(got - expected)) <= 1.0e-10

    def test_period_doubling_closed_form(self):
        # the 2-cycle of the logistic map doubles at r = 1 + sqrt(6)
        res = find_cycle_births(4)
        assert res.kinds == ("period-doubling", "saddle-node")
        assert abs(res.r_values[0] - (1.0 + math.sqrt(6.0))) <= 1.0e-14

    def test_window_applies_after_solving(self):
        full = find_cycle_births(8)
        part = find_cycle_births(8, r_window=(3.9, 4.0))
        inside = full.r_values >= 3.9
        assert np.array_equal(part.r_values, full.r_values[inside])
        assert part.kinds == tuple(np.array(full.kinds)[inside])

    def test_failed_solve_raises(self, monkeypatch):
        monkeypatch.setattr(dynamics, "_tangency_residual", lambda n, x, r: (math.nan,) * 5)
        with pytest.raises(ArithmeticError, match="period-3"):
            find_cycle_births(3)


class TestSharkovskii:
    ORDER_1_TO_10 = [3, 5, 7, 9, 6, 10, 8, 4, 2, 1]

    def test_order_on_small_range(self):
        def cmp(m, n):
            if m == n:
                return 0
            return -1 if sharkovskii_precedes(m, n) else 1

        assert sorted(range(1, 11), key=cmp_to_key(cmp)) == self.ORDER_1_TO_10

    def test_three_comes_first(self):
        assert all(sharkovskii_precedes(3, n) for n in range(1, 61) if n != 3)

    def test_one_comes_last(self):
        assert all(sharkovskii_precedes(n, 1) for n in range(2, 61))
        assert not any(sharkovskii_precedes(1, n) for n in range(1, 61))

    def test_powers_of_two_descend(self):
        assert sharkovskii_precedes(16, 8)
        assert sharkovskii_precedes(8, 4)
        assert sharkovskii_precedes(4, 2)
        assert sharkovskii_precedes(2, 1)
        assert not sharkovskii_precedes(2, 16)

    def test_strict_total_order(self):
        ks = range(1, 41)
        for m in ks:
            assert not sharkovskii_precedes(m, m)
            for n in ks:
                if m != n:
                    fwd = sharkovskii_precedes(m, n)
                    bwd = sharkovskii_precedes(n, m)
                    assert fwd != bwd

    @given(
        m=st.integers(min_value=1, max_value=4096),
        n=st.integers(min_value=1, max_value=4096),
        k=st.integers(min_value=1, max_value=4096),
    )
    @settings(max_examples=150, deadline=None)
    def test_transitive(self, m, n, k):
        if len({m, n, k}) == 3:
            if sharkovskii_precedes(m, n) and sharkovskii_precedes(n, k):
                assert sharkovskii_precedes(m, k)

    def test_rejects_nonpositive(self):
        with pytest.raises(ValueError):
            sharkovskii_precedes(0, 3)
        with pytest.raises(ValueError):
            sharkovskii_precedes(3, -1)


class TestReproductionCandidates:
    def test_golden_values(self):
        ra, rb = reproduction_candidates(ModelParams(r=2.0, beta=3.0, a=1.0, K=0.5))
        assert abs(ra - 2.0) < 1.0e-12
        assert abs(rb - 3.0) < 1.0e-12
        ra, rb = reproduction_candidates(ModelParams(r=2.5, beta=1.1, a=1.0, K=0.5))
        assert abs(ra - 0.825) < 1.0e-12
        assert abs(rb - 1.1) < 1.0e-12

    def test_first_crosses_one_with_endemic_point(self):
        for r, a, K in [(2.0, 1.0, 0.5), (3.5, 0.0, 0.3), (1.5, 2.0, 0.7)]:
            b0 = beta0_threshold(r, a, K)
            below = ModelParams(r=r, beta=0.9 * b0, a=a, K=K)
            above = ModelParams(r=r, beta=1.1 * b0, a=a, K=K)
            assert reproduction_candidates(below)[0] < 1.0
            assert endemic(below) is None
            assert reproduction_candidates(above)[0] > 1.0
            assert endemic(above) is not None

    @given(
        r=st.floats(min_value=1.01, max_value=6.0),
        beta=st.floats(min_value=0.05, max_value=8.0),
        a=st.floats(min_value=0.0, max_value=4.0),
        K=st.floats(min_value=0.05, max_value=0.95),
    )
    @settings(max_examples=150, deadline=None)
    def test_first_bounded_by_second(self, r, beta, a, K):
        ra, rb = reproduction_candidates(ModelParams(r=r, beta=beta, a=a, K=K))
        assert ra < rb

    def test_rejects_small_growth(self):
        with pytest.raises(ValueError, match="r > 1"):
            reproduction_candidates(ModelParams(r=1.0, beta=1.0, a=1.0, K=0.5))


class TestDecayEnvelope:
    @pytest.mark.parametrize(
        "params, x0",
        [
            ((2.5, 0.7, 1.0, 0.5), (0.5, 0.3)),
            ((3.2, 0.18, 0.0, 0.2), (0.4, 0.5)),
            ((1.5, 0.4, 0.5, 0.3), (0.6, 0.2)),
            ((2.0, 0.5, 1.0, 0.6), (0.3, 0.8)),
        ],
    )
    def test_decay_holds_below_threshold(self, params, x0):
        r, beta, a, K = params
        assert beta < (1.0 + a) * K
        assert decay_envelope_holds(ModelParams(r=r, beta=beta, a=a, K=K), x0, n=300)

    def test_trivial_when_extinct(self):
        # with I0 = 0 the envelope pins every I_k to 0
        p = ModelParams(r=2.5, beta=0.7, a=1.0, K=0.5)
        orbit = iterate(p, (0.5, 0.0), 0, 201)
        assert not orbit.escaped
        assert np.all(orbit.states[:, 1] == 0.0)

    def test_envelope_breaks_when_susceptibles_go_negative(self):
        # heavy infection load drives S below zero here and the orbit
        # leaves the envelope, which the check must report honestly
        p = ModelParams(r=1.2, beta=0.55, a=0.0, K=0.6)
        assert p.beta < (1.0 + p.a) * p.K
        assert decay_envelope_holds(p, (0.9, 0.5), n=200) is False
