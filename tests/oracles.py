"""Test-only reference implementations.

``finite_difference_forms`` differentiates the exact orbit Jacobian
numerically, independent of the closed-form tensors, and
``chain_rule_forms`` composes the one-step tensors from the identity, the
way ``sirmap.normal_forms.iterate_forms`` did before it started from the
first step's tensors.  ``full_grid_cycle_births`` is the damped Newton
tangency solve over a 400 x 400 seed grid that ``sirmap.find_cycle_births``
ran before it enumerated kneading words; ``mpmath_birth`` solves one
birth's defining system at 40 digits, ``mpmath_tangent_sums`` replays a
float orbit's tangent vector and ``log|det J|`` at 40 digits, and
``primitive_orbits`` counts the orbits of minimal period n of
x -> 4x(1-x).  ``kneading_admissible`` decides a superstable word's
admissibility by exact symbol comparison.  ``plain_advance`` is
``sirmap.core._advance`` without its exact-cycle short-circuit, every step
run, and ``exact_cycle`` finds an orbit's first bit-exact repeat by
remembering every state.
``plain_tangent`` is ``sirmap.dynamics._tangent`` without its exact-cycle
replay.  ``numpy_jacobian`` is the map's Jacobian as a (2, 2) numpy array,
from the library's entry formulas (the library keeps only the float
entries of ``sirmap.core._jacobian_entries``), and ``mpmath_normal_form``
recomputes a fixed point, its derivative tensors and its flip or
Neimark-Sacker coefficient at 40 digits.  ``report_modulus_slope`` is
``sirmap.rho_prime_at_ns``'s value read from a full ``sirmap.endemic``
report, as it was before the E1 determinant came straight from the
Jacobian entries, and ``mpmath_modulus_slope`` is the 50-digit
``mpmath.diff`` of sqrt(det J(E1)) in beta that certifies that closed form.
``numpy_period2_eigen`` is ``sirmap.period2_branch``'s eigen data from the
numpy product of its two Jacobian arrays, as they were before the product
became plain floats.  ``UnscaledParams``, ``scale_params`` and
``step_full`` are the three-compartment model the planar map is scaled
from: a step of it, divided by the scale factor, is a step of
``sirmap.step``.  ``decay_envelope_holds`` checks the geometric decay of
the infected mass along a ``sirmap.iterate`` orbit below
``beta = (1 + a)*K``, and ``iv_trap_holds`` re-proves the invariance
probe's trapping ellipse in ``mpmath.iv`` interval boxes.  ``nullcline``
is the height ``v*(1 - x)*(1 + a*x)`` of a region's S' >= 0 frontier, in
the operation order of ``sirmap.positivity._holds``.  Tests compare the
library against all of them.
"""
import math
import struct
from dataclasses import dataclass

import numpy as np

from sirmap import DIVERGENCE_BOUND, EigenData, ModelParams, endemic, iterate, step
from sirmap.equilibria import _eigen_quadratic
from sirmap.normal_forms import MultilinearForms, _point_tensors


def chain_rule_forms(p: ModelParams, x, k: int) -> MultilinearForms:
    """Tensors of the k-th iterate, composed from identity and zeros."""
    A = np.eye(2)
    B = np.zeros((2, 2, 2))
    C = np.zeros((2, 2, 2, 2))
    z = (float(x[0]), float(x[1]))
    for _ in range(k):
        f = _point_tensors(p, z)
        C = (
            np.einsum("im,mjkl->ijkl", f.A, C)
            + np.einsum("imn,mj,nkl->ijkl", f.B, A, B)
            + np.einsum("imn,mk,njl->ijkl", f.B, A, B)
            + np.einsum("imn,ml,njk->ijkl", f.B, A, B)
            + np.einsum("imnp,mj,nk,pl->ijkl", f.C, A, A, A)
        )
        B = np.einsum("im,mjk->ijk", f.A, B) + np.einsum(
            "imn,mj,nk->ijk", f.B, A, A
        )
        A = f.A @ A
        z = step(p, z)
    return MultilinearForms(A=A, B=B, C=C)


def numpy_jacobian(p: ModelParams, x) -> np.ndarray:
    """The Jacobian of the map built and checked as a numpy array, entry formulas as in the library."""
    S, I = x
    den = 1.0 + p.a * S
    try:
        phi = p.beta * S / den
        dphi = p.beta / (den * den)
    except ZeroDivisionError:
        phi = dphi = math.inf
    J = np.array(
        [
            [p.r - 2.0 * p.r * S - I * dphi, -phi],
            [I * dphi, 1.0 - p.K + phi],
        ],
        dtype=np.float64,
    )
    if not np.all(np.isfinite(J)):
        raise ValueError(f"Jacobian is not finite at (S, I) = ({S}, {I})")
    return J


def nullcline(region, x):
    """Height of the S' >= 0 frontier of ``region`` at ``x``: ``v * (1 - x) * (1 + a*x)``."""
    x = np.asarray(x)
    return region.v * (1.0 - x) * (1.0 + region.params.a * x)


def _iterate_jacobian(p: ModelParams, x, k: int) -> np.ndarray:
    J = np.eye(2)
    z = (float(x[0]), float(x[1]))
    for _ in range(k):
        J = numpy_jacobian(p, z) @ J
        z = step(p, z)
    return J


def finite_difference_forms(
    p: ModelParams, x, k: int = 1, base_step: float = 1.0e-4
) -> MultilinearForms:
    """Derivative tensors of the k-th iterate by finite differences.

    Differentiates the exact orbit Jacobian with central differences
    plus one Richardson extrapolation level; the step in each direction
    is ``base_step`` scaled by the coordinate magnitude.  An independent
    oracle for the closed-form and composed tensors.
    """
    x = np.asarray(x, dtype=np.float64)
    A = _iterate_jacobian(p, x, k)

    def dJ(h_vec: np.ndarray) -> np.ndarray:
        return _iterate_jacobian(p, x + h_vec, k) - _iterate_jacobian(p, x - h_vec, k)

    def d2J(h_vec: np.ndarray) -> np.ndarray:
        return (
            _iterate_jacobian(p, x + h_vec, k)
            - 2.0 * A
            + _iterate_jacobian(p, x - h_vec, k)
        )

    B = np.zeros((2, 2, 2))
    C = np.zeros((2, 2, 2, 2))
    steps = [base_step * max(1.0, abs(x[j])) for j in range(2)]
    for j in range(2):
        h = steps[j]
        e = np.zeros(2)
        e[j] = h
        coarse = dJ(e) / (2.0 * h)
        fine = dJ(e / 2.0) / h
        B[:, :, j] = (4.0 * fine - coarse) / 3.0
        coarse2 = d2J(e) / (h * h)
        fine2 = d2J(e / 2.0) / (h * h / 4.0)
        C[:, :, j, j] = (4.0 * fine2 - coarse2) / 3.0

    # mixed third partials from cross differences of the Jacobian
    h0, h1 = steps
    e0 = np.array([h0, 0.0])
    e1 = np.array([0.0, h1])

    def cross(scale: float) -> np.ndarray:
        a, b = e0 * scale, e1 * scale
        return (
            _iterate_jacobian(p, x + a + b, k)
            - _iterate_jacobian(p, x + a - b, k)
            - _iterate_jacobian(p, x - a + b, k)
            + _iterate_jacobian(p, x - a - b, k)
        ) / (4.0 * (h0 * scale) * (h1 * scale))

    coarse_x = cross(1.0)
    fine_x = cross(0.5)
    C[:, :, 0, 1] = C[:, :, 1, 0] = (4.0 * fine_x - coarse_x) / 3.0

    # symmetrise to remove finite-difference noise
    B = 0.5 * (B + B.transpose(0, 2, 1))
    C = (
        C
        + C.transpose(0, 1, 3, 2)
        + C.transpose(0, 2, 1, 3)
        + C.transpose(0, 2, 3, 1)
        + C.transpose(0, 3, 1, 2)
        + C.transpose(0, 3, 2, 1)
    ) / 6.0
    return MultilinearForms(A=A, B=B, C=C)


def full_grid_cycle_births(
    n: int,
    r_window: tuple[float, float] = (3.0, 4.0),
    n_r_seeds: int = 400,
    n_x_seeds: int = 400,
    newton_iters: int = 60,
) -> np.ndarray:
    """Birth parameters of period-n axis orbits, solved over the whole grid.

    Returns the merged ``r_values``: the saddle-node tangencies and, where
    Newton stalls at a pitchfork, the period-doublings of the n/2-cycle
    (the latter only to about 4e-11).
    """
    lo, hi = float(r_window[0]), float(r_window[1])
    r_seeds = np.linspace(lo + 1.0e-4, hi, n_r_seeds)
    x_seeds = np.linspace(0.005, 0.995, n_x_seeds)
    R, X = np.meshgrid(r_seeds, x_seeds)
    R = R.ravel().copy()
    X = X.ravel().copy()

    def tangency_residual(xx, rr):
        x = xx.copy()
        u = np.ones_like(x)      # d x_n / d x_0
        s = np.zeros_like(x)     # d x_n / d r
        v = np.zeros_like(x)     # d u / d x_0
        m = np.zeros_like(x)     # d u / d r
        for _ in range(n):
            fx = rr * (1.0 - 2.0 * x)
            fxx = -2.0 * rr
            fr = x * (1.0 - x)
            fxr = 1.0 - 2.0 * x
            v = fxx * u * u + fx * v
            m = fxx * u * s + fxr * u + fx * m
            s = fx * s + fr
            u = fx * u
            x = rr * x * (1.0 - x)
        return x - xx, u - 1.0, s, v, m

    with np.errstate(all="ignore"):
        for _ in range(newton_iters):
            g1, g2, s_, v_, m_ = tangency_residual(X, R)
            j11, j12, j21, j22 = g2, s_, v_, m_
            det = j11 * j22 - j12 * j21
            det = np.where(np.abs(det) < 1.0e-14, np.nan, det)
            dx = -(j22 * g1 - j12 * g2) / det
            dr = -(-j21 * g1 + j11 * g2) / det
            np.clip(dx, -0.05, 0.05, out=dx)
            np.clip(dr, -0.05, 0.05, out=dr)
            X += dx
            R += dr
            np.clip(X, 1.0e-6, 1.0 - 1.0e-6, out=X)
            np.clip(R, lo - 0.05, hi + 0.05, out=R)

        g1, g2, _, _, _ = tangency_residual(X, R)
        ok = (
            np.isfinite(g1)
            & np.isfinite(g2)
            & (np.abs(g1) <= 1.0e-12)
            & (np.abs(g2) <= 1.0e-10)
            & (R >= lo)
            & (R <= hi)
            & (X > 0.0)
            & (X < 1.0)
        )

    roots_x = X[ok]
    roots_r = R[ok]

    # keep only orbits whose minimal period is exactly n
    keep = np.ones(roots_x.shape[0], dtype=bool)
    for d in (d for d in range(1, n) if n % d == 0):
        y = roots_x.copy()
        for _ in range(d):
            y = roots_r * y * (1.0 - y)
        keep &= np.abs(y - roots_x) > 1.0e-9
    roots_r = roots_r[keep]

    roots_r.sort()
    merged: list[float] = []
    cluster: list[float] = []
    for rv in roots_r:
        if cluster and rv - cluster[-1] > 1.0e-6:
            merged.append(float(np.mean(cluster)))
            cluster = []
        cluster.append(float(rv))
    if cluster:
        merged.append(float(np.mean(cluster)))
    return np.array(merged)


def mpmath_birth(m: int, multiplier: int, r: float):
    """Solve ``f^m(x) = x, (f^m)'(x) = multiplier`` at 40 digits, f = r x (1 - x).

    Newton (``mpmath.findroot``) starts from (1/2, r): the orbit born at a
    saddle-node or period-doubling passes near the critical point.
    Returns ``(r, residual, drift)`` as mpmath numbers, ``drift`` being the
    smallest ``|f^d(x) - x|`` over the proper divisors d of m >= 2.
    """
    import mpmath as mp

    def orbit(x, r, k):
        dx = 1
        for _ in range(k):
            dx *= r * (1 - 2 * x)
            x = r * x * (1 - x)
        return x, dx

    def system(x, r):
        y, dy = orbit(x, r, m)
        return y - x, dy - multiplier

    with mp.workdps(40):
        root = mp.findroot(system, (mp.mpf(0.5), mp.mpf(r)))
        x, r = root[0], root[1]
        residual = max(abs(g) for g in system(x, r))
        drift = min(abs(orbit(x, r, d)[0] - x) for d in range(1, m) if m % d == 0)
        return r, residual, drift


def mpmath_tangent_sums(p: ModelParams, states, warm: int):
    """``(sum log r11, sum log|det J|)`` at 40 digits along the given float states.

    A unit vector starts along S at ``states[0]`` and is pushed through the
    Jacobian at each state, its stretch ``r11`` normalised away; both sums
    skip the first ``warm`` states.  Returned as floats.
    """
    import mpmath as mp

    with mp.workdps(40):
        r, beta, a, K = (mp.mpf(v) for v in (p.r, p.beta, p.a, p.K))
        q1, q2 = mp.mpf(1), mp.mpf(0)
        s1 = s_det = mp.mpf(0)
        for k, (S, I) in enumerate(states):
            S, I = mp.mpf(S), mp.mpf(I)
            den = 1 + a * S
            phi = beta * S / den
            j21 = I * beta / (den * den)
            j11 = r - 2 * r * S - j21
            j22 = 1 - K + phi
            m1, m2 = j11 * q1 - phi * q2, j21 * q1 + j22 * q2
            r11 = mp.sqrt(m1 * m1 + m2 * m2)
            q1, q2 = m1 / r11, m2 / r11
            if k >= warm:
                s1 += mp.log(r11)
                s_det += mp.log(abs(j11 * j22 + phi * j21))
        return float(s1), float(s_det)


def primitive_orbits(n: int) -> int:
    """Number of orbits of minimal period n of x -> 4x(1-x) (Moebius count)."""

    def mobius(k: int) -> int:
        sign, q = 1, 2
        while q * q <= k:
            if k % q == 0:
                k //= q
                if k % q == 0:
                    return 0
                sign = -sign
            q += 1
        return -sign if k > 1 else sign

    return sum(mobius(n // d) * 2**d for d in range(1, n + 1) if n % d == 0) // n


#: The kneading symbols in their order on the line: left of 1/2, 1/2, right.
_SYMBOL_RANK = {"L": 0, "C": 1, "R": 2}


def _parity_less(u: str, v: str) -> bool:
    """Whether kneading sequence ``u`` precedes ``v`` in the parity-lexicographic order.

    At the first difference L < C < R, reversed when the common prefix holds
    an odd number of R's: the map reverses order right of 1/2.
    """
    odd = False
    for x, y in zip(u, v):
        if x != y:
            return (_SYMBOL_RANK[x] < _SYMBOL_RANK[y]) != odd
        odd ^= x == "R"
    return False


def kneading_admissible(word: str) -> bool:
    """Whether the sides ``word`` (L/R of 1/2) spell a superstable orbit of the logistic family.

    Metropolis, Stein & Stein: exactly when the kneading sequence (word C)^inf
    is shift-maximal in the parity-lexicographic order.  Shifts of a period-m
    sequence differ within m symbols, so each is compared over one period.
    No floating point.
    """
    a = word + "C"
    return not any(_parity_less(a, a[k:] + a[:k]) for k in range(1, len(a)))


def plain_advance(p: ModelParams, x0, n: int, out=None):
    """``(S, I, escaped_at)`` after ``n`` guarded steps, each one run.

    The loop ``sirmap.core._advance`` had before it learned to stop at an
    exact cycle: the guard before each step, row ``k < len(out)`` of
    ``out`` set to the state before step ``k``, the last state unchecked.
    A state on the pole ``1 + a*S = 0`` escapes at its step, as in
    :func:`plain_tangent`.
    """
    S, I = float(x0[0]), float(x0[1])
    m = 0 if out is None else out.shape[0]
    for k in range(n):
        if not abs(S) + abs(I) <= DIVERGENCE_BOUND:
            return S, I, k
        if k < m:
            out[k] = S, I
        try:
            force = p.beta * S * I / (1.0 + p.a * S)
        except ZeroDivisionError:  # state k sits on the pole 1 + a*S = 0
            return S, I, k
        S, I = p.r * S * (1.0 - S) - force, (1.0 - p.K) * I + force
    return S, I, None


def exact_cycle(p: ModelParams, x0, limit: int = 100_000):
    """``(states, mu, lam)``: the orbit of ``x0`` up to its first repeat.

    ``states[k]`` is the state after ``k`` plain steps, all in bounds; the
    state after ``mu + lam`` steps has the bit pattern of ``states[mu]``, so
    the state after ``n >= mu`` steps is ``states[mu + (n - mu) % lam]``.
    """
    index: dict[bytes, int] = {}
    states = []
    x = (float(x0[0]), float(x0[1]))
    while (key := struct.pack("<2d", *x)) not in index:
        if len(states) == limit:
            raise ValueError(f"no exact repeat within {limit} steps")
        index[key] = len(states)
        states.append(x)
        S, I, escaped_at = plain_advance(p, x, 1)
        if escaped_at is not None:
            raise ValueError(f"orbit escapes at step {len(states) - 1}")
        x = (S, I)
    mu = index[key]
    return states, mu, len(states) - mu


def plain_tangent(p: ModelParams, x0, frame, n: int, out=None):
    """``sirmap.dynamics._tangent`` before it learned to replay an exact cycle.

    The same ``(S, I, frame, log_r11, log_r22, escaped_at)`` from every
    step run: the guard, row ``k < len(out)`` of ``out``, the fused map
    and Jacobian step, the vector's stretch and the lost-vector restart.
    """
    S, I = x0
    r, beta, a, K = p.r, p.beta, p.a, p.K
    q1, q2 = frame
    m = 0 if out is None else out.shape[0]
    bound, tiny, hypot, log = DIVERGENCE_BOUND, 1.0e-300, math.hypot, math.log
    two_r, retain = 2.0 * r, 1.0 - K
    s1 = s2 = 0.0
    lost = False
    try:
        for k in range(n):
            if not (abs(S) + abs(I) <= bound):
                return S, I, (q1, q2), s1, s2, k
            if k < m:
                out[k, 0] = S
                out[k, 1] = I
            # Jacobian [[j11, -phi], [j21, j22]] at (S, I)
            den = 1.0 + a * S
            phi = beta * S / den
            j21 = I * (beta / (den * den))
            j11 = r - two_r * S - j21
            j22 = retain + phi
            force = phi * I
            S, I = r * S * (1.0 - S) - force, (1.0 - K) * I + force
            m1 = j11 * q1 - phi * q2
            m2 = j21 * q1 + j22 * q2
            stretch = hypot(m1, m2)
            if stretch == 0.0 and not lost:
                # the vector fell into the kernel of J, as the first QR column
                # would; from here on its perpendicular carries the second
                lost, m1, m2, stretch = True, -q2, q1, 1.0
            if stretch < tiny:
                stretch = tiny
            q1, q2 = m1 / stretch, m2 / stretch
            if lost:  # r11 stays at its clamp; the stretch is r22
                s1 += log(tiny)
                s2 += log(stretch)
                continue
            r22 = abs(j11 * j22 + phi * j21) / stretch
            if r22 < tiny:
                r22 = tiny
            s1 += log(stretch)
            s2 += log(r22)
    except ZeroDivisionError:  # state k sits on the pole 1 + a*S = 0
        return S, I, (q1, q2), s1, s2, k
    return S, I, (q1, q2), s1, s2, None


def mpmath_normal_form(p: ModelParams, kind: str, at: str = "endemic", dps: int = 40):
    """A fixed point, its tensors and its flip ``c`` or NS ``d`` at ``dps`` digits.

    Shares nothing with the library but the model and the conventions: the
    point is E1 = (K/(beta - a K), ...) (or E0 = ((r-1)/r, 0) when ``at`` is
    ``"disease_free"``), certified by a residual below 1e-30; A, B and C are
    ``mpmath.diff`` partials of the map itself.  The critical eigenvalue is
    -1 exactly for ``kind="flip"``, the value ``flip_coefficient`` takes
    (a float curve point is off the curve by the rounding of its beta, so
    the nearest eigenvalue of A is -1 only to about 1e-12), and for
    ``"ns"`` the root of the trace/determinant quadratic with positive
    imaginary part.  ``q`` is the null vector of A - mu from the row of
    larger norm, with first component 1; ``p`` is the adjoint with
    <p, q> = 1 (conjugate-linear in p); the resolvents are solved by
    ``mpmath.lu_solve``.
    Returns ``(S, I, A, B, C, coefficient)``, the tensors as nested lists.
    """
    import mpmath as mp

    with mp.workdps(dps):
        r, beta, a, K = (mp.mpf(v) for v in (p.r, p.beta, p.a, p.K))

        def f(i):
            def component(S, I):
                force = beta * S * I / (1 + a * S)
                return r * S * (1 - S) - force if i == 0 else (1 - K) * I + force

            return component

        if at == "disease_free":
            S, I = (r - 1) / r, mp.mpf(0)
        else:
            den = beta - a * K
            S, I = K / den, (r - 1) / den - r * K / den**2
        assert max(abs(f(0)(S, I) - S), abs(f(1)(S, I) - I)) < mp.mpf(10) ** -30

        def partials(*idx):
            return [mp.diff(f(i), (S, I), (idx.count(0), idx.count(1))) for i in (0, 1)]

        A = [[partials(j)[i] for j in (0, 1)] for i in (0, 1)]
        B = [[[partials(j, k)[i] for k in (0, 1)] for j in (0, 1)] for i in (0, 1)]
        C = [
            [[[partials(j, k, l)[i] for l in (0, 1)] for k in (0, 1)] for j in (0, 1)]
            for i in (0, 1)
        ]

        def apply_B(x, y):
            return mp.matrix(
                [sum(B[i][j][k] * x[j] * y[k] for j in (0, 1) for k in (0, 1)) for i in (0, 1)]
            )

        def apply_C(x, y, z):
            return mp.matrix(
                [
                    sum(
                        C[i][j][k][l] * x[j] * y[k] * z[l]
                        for j in (0, 1)
                        for k in (0, 1)
                        for l in (0, 1)
                    )
                    for i in (0, 1)
                ]
            )

        def pair(u, v):
            return mp.conj(u[0]) * v[0] + mp.conj(u[1]) * v[1]

        def null_vector(M):
            rows = [(M[0, 1], -M[0, 0]), (M[1, 1], -M[1, 0])]
            v = max(rows, key=lambda row: abs(row[0]) ** 2 + abs(row[1]) ** 2)
            return mp.matrix([v[0], v[1]])

        if kind == "flip":
            mu = mp.mpf(-1)
        else:
            T = A[0][0] + A[1][1]
            disc = T * T / 4 - (A[0][0] * A[1][1] - A[0][1] * A[1][0])
            assert disc < 0
            mu = mp.mpc(T / 2, mp.sqrt(-disc))
        Am = mp.matrix(A)
        I2 = mp.eye(2)
        q = null_vector(Am - mu * I2)
        q = q / (q[0] if abs(q[0]) > mp.mpf(10) ** -8 else q[1])
        pv = null_vector(Am.T - mp.conj(mu) * I2)
        pv = pv / mp.conj(pair(pv, q))
        if kind == "flip":
            w = mp.lu_solve(Am - I2, apply_B(q, q))
            coefficient = pair(pv, apply_C(q, q, q)) / 6 - pair(pv, apply_B(q, w)) / 2
        else:
            theta = mp.arg(mu)
            qbar = mp.matrix([mp.conj(q[0]), mp.conj(q[1])])
            t1 = pair(pv, apply_C(q, q, qbar))
            w1 = mp.lu_solve(I2 - Am, apply_B(q, qbar))
            t2 = 2 * pair(pv, apply_B(q, w1))
            w2 = mp.lu_solve(mp.expj(2 * theta) * I2 - Am, apply_B(q, q))
            t3 = pair(pv, apply_B(qbar, w2))
            coefficient = mp.re(mp.expj(-theta) * (t1 + t2 + t3)) / 2
        return S, I, A, B, C, coefficient


def report_modulus_slope(p: ModelParams) -> float:
    """d|mu|/d(beta) at E1, with det J(E1) read from the ``endemic`` report."""
    r, beta, a, K = p.r, p.beta, p.a, p.K
    da11 = 2.0 * K * r / (a * K - beta) ** 2 - K * (a * (r - 1.0) + r) / beta**2
    da21 = -K * (a - (a + 1.0) * r) / beta**2
    return (da11 + K * da21) / (2.0 * math.sqrt(endemic(p).eigen.det))


def mpmath_modulus_slope(p: ModelParams, dps: int = 50):
    """d|mu|/d(beta) at E1: the ``mpmath.diff`` of sqrt(det J(E1)) in beta, at ``dps`` digits.

    E1 = (K/(beta - a K), (r-1)/(beta - a K) - r K/(beta - a K)^2) and the
    four entries of its Jacobian are written out for every beta, so only
    the model is shared with ``sirmap.rho_prime_at_ns``'s closed form.  The
    central difference steps ``beta * 2**-prec`` (mpmath's own ``relative``
    step shrinks as beta grows) and runs at twice the working precision;
    the value is an mpmath number.
    """
    import mpmath as mp

    with mp.workdps(dps):
        r, a, K = (mp.mpf(v) for v in (p.r, p.a, p.K))

        def modulus(beta):
            den = beta - a * K
            S, I = K / den, (r - 1) / den - r * K / den**2
            g = 1 + a * S
            a11 = r - 2 * r * S - beta * I / g**2
            a12 = -beta * S / g
            a21 = beta * I / g**2
            a22 = 1 - K + beta * S / g
            return mp.sqrt(a11 * a22 - a12 * a21)

        beta = mp.mpf(p.beta)
        return mp.diff(modulus, beta, h=mp.ldexp(beta, -mp.mp.prec))


def numpy_period2_eigen(p: ModelParams) -> EigenData:
    """Eigen data of the axis 2-cycle from the numpy product of its two Jacobians (r >= 3)."""
    r = p.r
    root = math.sqrt(max((r - 3.0) * (r + 1.0), 0.0))
    x_minus = ((1.0 + r - root) / (2.0 * r), 0.0)
    x_plus = ((1.0 + r + root) / (2.0 * r), 0.0)
    M = numpy_jacobian(p, x_plus) @ numpy_jacobian(p, x_minus)
    return _eigen_quadratic(*M.ravel().tolist())


@dataclass(frozen=True)
class UnscaledParams:
    """Parameters of the three-compartment model, in original units; nothing is validated.

    ``rho`` is the intrinsic growth rate, ``c`` the carrying capacity,
    ``beta``/``a`` the transmission and saturation coefficients, ``mu`` and
    ``gamma`` the death and recovery rates of the infected class.  The
    removed class feeds back into neither S nor I, so it is left out.
    """

    rho: float
    c: float
    beta: float
    a: float
    mu: float
    gamma: float


def scale_params(u: UnscaledParams) -> tuple[ModelParams, float]:
    """The planar map's parameters and the common scale factor ``alpha`` of S and I.

    ``r = 1 + rho``, ``K = mu + gamma``, and beta and a are multiplied by
    ``alpha = c*(1 + rho)/rho``.
    """
    alpha = u.c * (1.0 + u.rho) / u.rho
    p = ModelParams(r=1.0 + u.rho, beta=alpha * u.beta, a=alpha * u.a, K=u.mu + u.gamma)
    return p, alpha


def step_full(u: UnscaledParams, x) -> tuple[float, float]:
    """One step of S and I in the three-compartment model.

    ``S' = S + rho*S*(1 - S/c) - incidence``: retention plus net logistic
    growth, the form whose rescaling gives the planar map with r = 1 + rho.
    The infected mass decays by ``mu + gamma`` and gains the incidence.
    """
    S, I = x
    force = u.beta * S * I / (1.0 + u.a * S)
    return S + u.rho * S * (1.0 - S / u.c) - force, (1.0 - (u.mu + u.gamma)) * I + force


def decay_envelope_holds(p: ModelParams, x0, n: int) -> bool:
    """Whether I decays inside its geometric envelope for ``n`` steps from ``x0``.

    The claim, for ``beta < (1 + a)*K``, ``0 < S0 < 1`` and ``I0 > 0``: I
    decreases strictly, stays positive, and

        (1-K)^k * I0  <=  I_k  <=  (beta/(1+a) + 1 - K)^k * I0,

    with a relative slack of 1e-12 for rounding.  False if any of the
    ``n + 1`` states leaves the divergence guard.
    """
    I0 = float(x0[1])
    orbit = iterate(p, x0, 0, n + 1)
    if orbit.escaped:
        return False
    g1 = 1.0 - p.K
    g2 = p.beta / (1.0 + p.a) + 1.0 - p.K
    env_lo = env_hi = 1.0
    I = I0
    slack = 1.0 + 1.0e-12
    for I_next in orbit.states[1:, 1].tolist():
        env_lo *= g1
        env_hi *= g2
        if not (0.0 < I_next < I):
            return False
        if I_next * slack < env_lo * I0 or I_next > env_hi * I0 * slack:
            return False
        I = I_next
    return True


def iv_trap_holds(p: ModelParams, region, trap, depth: int = 40) -> bool:
    """Whether the trap's ellipse lies in ``region`` and every float step maps it into itself.

    ``trap`` is ``(x*, Q, rho)`` for the ellipse ``|Q(x - x*)| <= rho``, that
    is ``x* + P y`` with ``|y| <= rho`` and ``P = Q^-1``; everything is taken
    in 106-bit ``mpmath.iv`` arithmetic.  The ellipse reaches
    ``n.x* + rho |P^T n|`` along the gradient n of each linear inequality
    (S >= 0, I >= 0, S + I <= u*, and S <= 1 for cases 2 and 3), which must
    stay within it.  Its bounding box is cut into sub-boxes, each halved
    across its wider side (at most ``depth`` times in all) until it is
    decided: a box wholly outside the ellipse is skipped; any other must lie
    under the nullcline (cases 2 and 3), and its interval image under the
    map, widened by the rounding of one float step (4 eps of
    ``|r*S*(1 - S)| + force`` and of ``(1 - K)*I + force``: six roundings of
    half an ulp each, to first order), must lie within the ellipse.  False
    if a box is still undecided at the depth limit.
    """
    from mpmath import iv

    iv.prec = 106
    (S0, I0), Q, rho = trap
    q00, q01, q10, q11 = (iv.mpf(c) for c in Q)
    r, beta, a, K = (iv.mpf(c) for c in (p.r, p.beta, p.a, p.K))
    v, ra, rho = iv.mpf(region.v), iv.mpf(region.params.a), iv.mpf(rho)
    eps = iv.mpf(2.0**-52)
    det = q00 * q11 - q01 * q10
    p00, p01, p10, p11 = q11 / det, -q01 / det, -q10 / det, q00 / det

    def reach(n0, n1):
        return rho * ((p00 * n0 + p10 * n1) ** 2 + (p01 * n0 + p11 * n1) ** 2) ** 0.5

    walls = [(-S0, reach(-1, 0), 0.0), (-I0, reach(0, -1), 0.0), (S0 + I0, reach(1, 1), region.u_star)]
    if region.case != 1:
        walls.append((S0, reach(1, 0), 1.0))
    if not all((at + far).b <= bound for at, far, bound in walls):
        return False

    def norm2(S, I):
        dS, dI = S - S0, I - I0
        return (q00 * dS + q01 * dI) ** 2 + (q10 * dS + q11 * dI) ** 2

    wS, wI = float(reach(1, 0).b), float(reach(0, 1).b)
    boxes = [(iv.mpf([S0 - wS, S0 + wS]), iv.mpf([I0 - wI, I0 + wI]), depth)]
    while boxes:
        S, I, left = boxes.pop()
        if norm2(S, I).a > (rho**2).b:
            continue
        under = region.case == 1 or I.b <= (v * (1 - S) * (1 + ra * S)).a
        force = beta * S * I / (1 + a * S)
        grow, decay = r * S * (1 - S), (1 - K) * I
        slack_S = (4 * eps * (abs(grow) + abs(force))).b
        slack_I = (4 * eps * (abs(decay) + abs(force))).b
        S1 = grow - force + iv.mpf([-slack_S, slack_S])
        I1 = decay + force + iv.mpf([-slack_I, slack_I])
        if under and norm2(S1, I1).b <= (rho**2).a:
            continue
        if left == 0:
            return False
        if S.delta >= I.delta * (wS / wI):
            halves = [(iv.mpf([S.a, S.mid]), I), (iv.mpf([S.mid, S.b]), I)]
        else:
            halves = [(S, iv.mpf([I.a, I.mid])), (S, iv.mpf([I.mid, I.b]))]
        boxes += [(hS, hI, left - 1) for hS, hI in halves]
    return True
