"""Forward-invariant positivity regions of the planar map.

One step of the map preserves the identity

    S' + I' = S*(r - 1 + K - r*S) + (1 - K)*(S + I),

whose quadratic part is maximised at S = (r-1+K)/(2r).  That gives the
ceiling ``u* = (r-1+K)^2 / (4*K*r)``: once ``S + I <= u*`` the sum can
never exceed ``u*`` again.  Combining the ceiling with the S-nullcline
``y = (r/beta)*(1-x)*(1+a*x)`` (the exact frontier of ``S' >= 0``)
yields three candidate trapping regions:

* case 1, ``u* <= 1``: the closed triangle ``x, y >= 0, x + y <= u*``;
* case 2, ``u* > 1``: the ceiling line is capped by the nullcline on
  a sub-interval of [0, 1]; the region is ``0 <= x <= 1, 0 <= y <=
  min(u* - x, nullcline(x))`` and the two caps cross once;
* case 3 (a = 1 only): as case 2 but with both crossings of the line
  and the parabola interior to (0, 1).

Both take the crossings from one cancellation-free solve, ``_crossings``:
case 2 keeps the larger root, case 3 both.

``applicable_region`` hands out the region whose sufficient parameter
conditions hold; ``invariance_probe`` bombards a region with uniform
starts and reports any escape (these are findings about the region, not
errors).  The probe allocates its buffers once per call: it steps the
ensemble in place with ``core._step_into`` and writes every inequality
into one membership table (``_holds``, also behind the sampler), one
row per constraint; a column's first False names an orbit's exit.
Exited orbits are dropped by moving the survivors, with their original
indices, to the front of each buffer.  numpy is imported only inside the
functions that make or step arrays (the probe, its sampler and table,
and ``_holds``).

Orbits that settle are dropped the same way.  Once per call,
``_trap`` proves, in closed form with explicit rounding bounds (validated
numerics in the sense of W. Tucker, *Validated Numerics*, Princeton
2011), that an ellipse ``|Q(x - x*)| <= rho`` around E1 is mapped into
itself by every float map step and clears every inequality of the probed
region; it exists where E1 is a stable node or focus with a
diagonalisable Jacobian.  The proof is the inequality

    |Q| (res + 2 delta) + q rho + |Q| (M2/2) |P|^2 rho^2  <=  rho,

with P = Q^-1 the real Jordan basis of E1's Jacobian J, ``q`` a bound on
``|Q J P|`` that includes the rounding of J's entries, ``M2`` one on the
map's second derivatives over the ellipse's box, ``res`` the float
residual of x* and ``delta`` the rounding of one float step.  Every
``_SETTLE_EVERY``-th step the probe then drops each orbit whose state x
passes ``|Q(x - x*)|^2 <= (rho/2)^2`` (``_trapped``, three array
expressions over the live orbits).  Such an orbit stays inside the
ellipse, and so inside the region, for good: it would add no record, and
the count, the records and their order are those of the full run.  The
constants are ``_ROUNDING`` (8 eps, the rounding bound of every
expression the proof evaluates or relies on) and ``_DROP`` (1/2, which
leaves the drop test's own rounding far inside the ellipse); :func:`_trap`
derives the bound.  Where there is no certificate (E1 absent, unstable,
non-hyperbolic or defective, or its Jacobian's digits lost) no orbit is
dropped.

The module imports only from :mod:`sirmap.core` (the map, the in-place
step and the second partials ``_curvature_entries``) and
:mod:`sirmap.equilibria` (E1, the float residual and the flat 2x2
product ``_mul``).
"""
from __future__ import annotations

import math
import sys
from typing import NamedTuple

from .core import ModelParams, _curvature_entries, _step_into
from .equilibria import _endemic_point, _mul, _residual

__all__ = [
    "RegionSpec",
    "EscapeRecord",
    "ProbeReport",
    "u_star",
    "applicable_region",
    "invariance_probe",
]

#: Outward slack applied to every membership inequality.
MEMBERSHIP_TOL = 1.0e-12
#: Constraints in checking order; the last two bound cases 2 and 3 only.
_CONSTRAINTS = ("S<0", "I<0", "S+I>u*", "S>1", "I>nullcline")
#: Steps between the probe's checks for orbits inside the trapping ellipse.
_SETTLE_EVERY = 16
#: Rounding bound of every float expression :func:`_trap` evaluates or relies
#: on, relative to the sum of the magnitudes of the expression's terms.  With
#: u = eps/2 and the standard model of each operation, none of them takes
#: more than 3*eps of those magnitudes to first order (a map step: 6u on
#: ``r*S*|1 - S| + force`` and on ``(1 - K)*I + force``; a Jacobian entry:
#: at most 8u on the magnitudes of its terms; a 2x2 product: 2u per factor);
#: 8*eps leaves room for the second-order terms and for rounding the bounds.
_ROUNDING = 8.0 * sys.float_info.epsilon
#: The probe drops an orbit within this fraction of the certified radius,
#: which leaves the drop test's own rounding far inside the ellipse.
_DROP = 0.5


def u_star(p: ModelParams) -> float:
    """Ceiling of S + I under one map step: ``(r-1+K)^2 / (4*K*r)``.

    Taken in that form wherever the square stays finite and ``4*K*r`` is a
    normal float; elsewhere (r past about 1e154, or a subnormal ``4*K*r``)
    as the square of ``(r-1+K) / (2*sqrt(K)*sqrt(r))``, which overflows
    or underflows only where u* does: within 6 ulp where r - 1 + K does
    not cancel (11 roundings of half an ulp each, to first order).
    """
    t = p.r - 1.0 + p.K
    den = 4.0 * p.K * p.r
    if abs(t) < 1.0e154 and den >= sys.float_info.min:
        return t**2 / den
    h = t / (2.0 * math.sqrt(p.K) * math.sqrt(p.r))
    return h * h


class RegionSpec(NamedTuple):
    """A candidate forward-invariant region.

    ``case`` is 1 (triangle under the ceiling line), 2 (ceiling capped
    by the nullcline with one interior crossing) or 3 (both crossings
    interior, a = 1).  ``crossings`` holds the x-coordinates where the
    ceiling line meets the nullcline, in increasing order; empty for
    the triangle.  ``v`` is the nullcline height at x = 0, i.e.
    ``r / beta``.
    """

    case: int
    params: ModelParams
    u_star: float
    v: float
    crossings: tuple[float, ...] = ()


def applicable_region(p: ModelParams) -> RegionSpec | None:
    """The invariance region whose sufficient conditions hold, if any.

    Case 1 requires ``sqrt(K)+1 <= r <= (sqrt(K)+1)^2`` together with
    ``beta < r`` or ``r < beta < r/u*``.  Case 2 requires
    ``(sqrt(K)+1)^2 < r <= 4`` and ``beta < r/(2u* - 1)``.  Case 3
    requires ``a = 1``, ``1 < r <= 4``, ``u* > 5/4`` and
    ``r/u* < beta < r/v_plus`` with ``v_plus = (u* + sqrt(u*^2-1))/2``,
    which is exactly the condition for the ceiling line and the
    nullcline parabola to cross twice inside (0, 1).

    The case-3 window guarantees the region's shape, not its
    invariance: for beta large relative to K the image of the upper
    boundary can poke above the nullcline near x = 0 (a point on the
    parabola arc lands exactly on x = 0 at height
    ``(r/beta)*(1-x^2)*((1-K)+beta*x/(1+x))``, which can exceed the
    wall height ``r/beta``).
    :func:`invariance_probe` is the authority on whether a returned
    region actually traps orbits at given parameters.
    """
    r, beta, a, K = p.r, p.beta, p.a, p.K
    u = u_star(p)
    v = r / beta
    sq = math.sqrt(K)

    if sq + 1.0 <= r <= (sq + 1.0) ** 2:
        if beta < r or (r < beta < r / u):
            return RegionSpec(case=1, params=p, u_star=u, v=v)
        return None

    if a == 1.0 and 1.0 < r <= 4.0 and u > 1.25:
        v_plus = (u + math.sqrt(u * u - 1.0)) / 2.0
        if r / u < beta < r / v_plus:
            return RegionSpec(case=3, params=p, u_star=u, v=v, crossings=_crossings(u, v, a))

    if (sq + 1.0) ** 2 < r <= 4.0 and u > 1.0 and beta < r / (2.0 * u - 1.0):
        return RegionSpec(case=2, params=p, u_star=u, v=v, crossings=_crossings(u, v, a)[1:])

    return None


def _crossings(u: float, v: float, a: float) -> tuple[float, float]:
    """Both x where the ceiling line meets the nullcline, smaller first.

    ``v*a*x^2 - (v*a - v + 1)*x + (u - v) = 0`` divided by v is
    ``a*x^2 - b*x - c = 0``: b = a - 1 + w summed exactly and c = (v - u)*w,
    with w = 1/v (c = 1 - u*w past v = 2u, where v - u is no longer exact).
    Its roots ``h/a`` and ``-c/h``, h = (b + copysign(sqrt(b^2 + 4ac), b))/2,
    cancel nowhere and overflow for no v and no finite a; at a = 0 the first
    is infinite.  Past a ~ 1e154, where b^2 overflows, the root is taken as
    ``|b|*sqrt(1 + 4c(a/b)/b)``, and h is summed from halves.
    """
    w = 1.0 / v
    b = math.fsum((a, w, -1.0))
    c = (v - u) * w if v <= 2.0 * u else 1.0 - u * w
    disc = b * b + 4.0 * a * c
    if math.isfinite(disc):
        # at the case-3 window's v_plus edge it may round below 0
        root = math.sqrt(max(disc, 0.0))
    else:
        root = abs(b) * math.sqrt(1.0 + 4.0 * c * (a / b) / b)
    # halving is exact: h/a and -c/h have the bits of q/(2a) and -2c/q
    h = 0.5 * b + math.copysign(0.5 * root, b)
    far = h / a if a else math.copysign(math.inf, h)
    return tuple(sorted((-c / h, far)))


class EscapeRecord(NamedTuple):
    """First exit of one probe orbit: where, when, and which constraint."""

    index: int
    step: int
    point: tuple[float, float]
    constraint: str


class ProbeReport(NamedTuple):
    region: RegionSpec
    samples: int
    steps: int
    seed: int
    escape_count: int
    escapes: list[EscapeRecord]


def _table(region: RegionSpec, shape: tuple) -> np.ndarray:
    """An unfilled membership table: a bool row per constraint the region has."""
    import numpy as np

    return np.empty((3 if region.case == 1 else len(_CONSTRAINTS),) + shape, dtype=bool)


def _holds(region: RegionSpec, S, I, tol, table=None, work=None):
    """Which region inequalities each point meets: one row per _CONSTRAINTS entry.

    Each inequality gets outward slack ``tol``; a NaN coordinate fails
    every inequality it enters.  The first False in a column names the
    point's first violation.  The rows are written into ``table`` (see
    :func:`_table`) and the sum and the nullcline height go through
    ``work``, two float rows shaped like ``S``; either is allocated when
    not given.
    """
    import numpy as np

    if table is None:
        table = _table(region, np.shape(S))
    if work is None:
        work = np.empty((2,) + np.shape(S))
    t, w = work[0, ...], work[1, ...]
    np.greater_equal(S, -tol, out=table[0, ...])
    np.greater_equal(I, -tol, out=table[1, ...])
    np.add(S, I, out=t)
    np.less_equal(t, region.u_star + tol, out=table[2, ...])
    if region.case != 1:
        np.less_equal(S, 1.0 + tol, out=table[3, ...])
        # the nullcline as (v*(1 - x))*(1 + a*x), then the slack
        with np.errstate(invalid="ignore"):
            np.subtract(1.0, S, out=t)
            np.multiply(region.v, t, out=t)
            np.multiply(region.params.a, S, out=w)
            np.add(1.0, w, out=w)
            np.multiply(t, w, out=t)
            np.add(t, tol, out=t)
        np.less_equal(I, t, out=table[4, ...])
    return table


def _norm2(m00: float, m01: float, m10: float, m11: float) -> float:
    """An upper bound on the spectral norm of ``((m00, m01), (m10, m11))``.

    The singular values are ``(sqrt(f + d) +/- sqrt(f - d))/2``, with f the
    squared Frobenius norm and d twice the absolute determinant; f - d may
    cancel, so it gets its rounding bound ``_ROUNDING*f`` added.
    """
    f = m00 * m00 + m01 * m01 + m10 * m10 + m11 * m11
    d = 2.0 * abs(m00 * m11 - m01 * m10)
    root = math.sqrt(f + d) + math.sqrt(max(f - d, 0.0) + _ROUNDING * f)
    return (1.0 + _ROUNDING) * 0.5 * root


def _length(*c: float) -> float:
    """The 2-norm of a vector, or the Frobenius norm of a flat matrix."""
    return math.sqrt(sum(x * x for x in c))


def _clearance(region: RegionSpec, x, hi, P) -> float:
    """The largest radius rho at which the ellipse ``x + P y``, ``|y| <= rho``, stays in ``region``.

    Each inequality's value at ``x``, less its rounding over the box that
    reaches up to ``hi`` = (S, I) and the rounding of the probe's own check
    there, over the ellipse's reach across it per unit of rho: ``|P^T n|``
    for a linear inequality with gradient n, and the Lipschitz constant on
    the box times ``|P|`` for the nullcline.  ``P`` is a flat 2x2 matrix; 0
    where any of them is not positive (or NaN).
    """
    S, I = x
    S_hi, I_hi = hi
    p00, p01, p10, p11 = P
    u, v, a = region.u_star, region.v, region.params.a
    reach = (1.0 + _ROUNDING) * _length(p00 + p10, p01 + p11)
    rows = [
        (S, _length(p00, p01), _ROUNDING * S),
        (I, _length(p10, p11), _ROUNDING * I),
        (u - S - I, reach, _ROUNDING * (u + S_hi + I_hi)),
    ]
    if region.case != 1:
        slope = v * (abs(a - 1.0) + 2.0 * a * S_hi)  # |d nullcline / dS| on the box
        rows += [
            (1.0 - S, _length(p00, p01), _ROUNDING * (1.0 + S_hi)),
            (
                v * (1.0 - S) * (1.0 + a * S) - I,
                _length(1.0, slope) * _norm2(*P),
                _ROUNDING * (v * (1.0 + S_hi) * (1.0 + a * S_hi) + I_hi),
            ),
        ]
    room = [(g - err) / ((1.0 + _ROUNDING) * span) for g, span, err in rows]
    return min(room) if all(r > 0.0 for r in room) else 0.0


def _trap(p: ModelParams, region: RegionSpec):
    """A certified trapping ellipse around a stable E1 inside ``region``, or ``None``.

    Returns ``(x, Q, rho)``: the centre x* = E1 as floats, a flat 2x2 ``Q``
    that is the inverse of the real Jordan basis P of E1's Jacobian J up
    to scale (the rows are unit left eigenvectors for real eigenvalues, and
    ``adj(P)`` for a complex pair, P holding an eigenvector's real and
    imaginary parts), and a radius rho.  With ``|.|`` the 2-norm, two facts
    hold for the ellipse ``E = {x : |Q(x - x*)| <= rho}``:

    1. every float x in E has its float image ``fl(F(x))`` under
       ``core.step`` (bit-identical to ``core._step_into``) in E again;
    2. every point of E meets each inequality of ``region`` with room for
       the rounding of the probe's membership check.

    For (1), write ``F(x) - x* = (F(x*) - x*) + J h + R(h)`` with
    ``h = x - x*``, ``|h| <= |P| rho``.  Then ``|Q(fl(F(x)) - x*)|`` is at most

        |Q| (res + 2 delta) + q rho + |Q| (M2/2) |P|^2 rho^2,

    which must not exceed rho, where

    * ``q >= |Q J P|``: the norm of the float ``Q J adj(Q)`` over
      ``|det Q|``, plus the product's rounding and ``|Q| |dJ| |P|``, dJ the
      rounding of J's float entries (a11 = r - 2rS - I*dphi nearly cancels
      r at E1; where its digits are gone, q >= 1 and there is no
      certificate);
    * ``M2`` bounds the 2-norm of the two components' Hessians
      (Frobenius norms of entrywise bounds) over the ellipse's box:
      with a >= 0 and S >= 0 there, ``|d1| = beta/den^2`` and
      ``|I*d2| = 2*a*beta*I/den^3`` are largest at the corner (S_lo, I_hi),
      where ``core._curvature_entries`` gives them;
    * ``res`` is the float residual ``|fl(F(x*)) - x*|`` of the centre, and
      ``delta = _ROUNDING * |(r*S*|1 - S| + force, (1 - K)*I + force)|``
      over the box bounds the rounding of one float step (twice: at x* and
      at x).

    The quadratic ``A rho^2 - (1 - q) rho + c0 <= 0`` holds between two
    roots; rho is their midpoint, or less where (2) needs it: each
    inequality's value at x*, less its rounding, over the ellipse's reach
    across it per unit of rho (see :func:`_clearance`).  The constants are
    those of the box of the ellipse at a radius no smaller than the final
    one, so they bound those of its own box.  The last test also checks
    that a state the probe finds within ``_DROP * rho`` through its own
    rounded ``Q(x - x*)`` lies within rho.

    ``None`` where E1 is absent (or r <= 1), where its Jacobian is
    defective (a repeated eigenvalue: a12 = -K is never 0 at E1), where q
    is not below 1 (E1 unstable or non-hyperbolic, or J's entries lost to
    rounding), and wherever a bound leaves the float range or the two facts
    fail.
    """
    try:
        point = _endemic_point(p)
        return None if point is None else _ellipse(p, region, *point)
    except (ValueError, ArithmeticError):  # r <= 1, or a value out of float range
        return None


def _ellipse(p: ModelParams, region: RegionSpec, x, J, e):
    """:func:`_trap` around the E1 ``x`` with Jacobian entries ``J`` and eigen data ``e``."""
    S0, I0 = x
    a11, a12, a21, a22 = J
    if e.omega > 0.0:
        Q = (e.omega, 0.0, a11 - e.sigma, a12)
    elif e.mu1 != e.mu2:
        Q = tuple(
            c / _length(mu.real - a11, a12) for mu in (e.mu2, e.mu1) for c in (mu.real - a11, -a12)
        )
    else:
        return None
    q00, q01, q10, q11 = Q
    # P = Q^-1 = adj(Q)/det(Q), over det Q rounded down: no entry too small
    det_lo = abs(q00 * q11 - q01 * q10) - _ROUNDING * (abs(q00 * q11) + abs(q01 * q10))
    if not det_lo > 0.0:
        return None
    P = (q11 / det_lo, -q01 / det_lo, -q10 / det_lo, q00 / det_lo)
    nQ, nP = _norm2(*Q), _norm2(*P)
    dJ = _ROUNDING * _length(p.r * (1.0 + 2.0 * S0) + abs(a21), a12, a21, 1.0 + abs(a12))
    rounded = _ROUNDING * _length(*Q) * _length(*J) * _length(*P)
    q = _norm2(*_mul(_mul(Q, J), P)) + rounded + nQ * dJ * nP
    if not q < 1.0:
        return None

    # the 2-norm of the float residual, from its sup norm
    res = (1.0 + _ROUNDING) * math.sqrt(2.0) * _residual(p, x)
    gap = 1.0 - q
    # a radius (2) allows by the constants at x*, then twice the radius both
    # allow by the constants over the box of the ellipse at the last radius
    rho = _clearance(region, x, x, P)
    for _ in range(2):
        dS, dI = ((1.0 + _ROUNDING) * rho * _length(*row) for row in (P[:2], P[2:]))
        S_lo, S_hi, I_hi = S0 - dS, S0 + dS, I0 + dI
        i_d2, d1 = _curvature_entries(p, S_lo, I_hi)[0][1][:2]
        M2 = (1.0 + _ROUNDING) * _length(2.0 * p.r + abs(i_d2), i_d2, 2.0 * d1)
        force = p.beta * S_hi * I_hi / (1.0 + p.a * S_lo)
        delta = _ROUNDING * _length(
            p.r * S_hi * max(1.0 - S_lo, S_hi - 1.0) + force, force + (1.0 - p.K) * I_hi
        )
        A = 0.5 * nQ * M2 * nP * nP
        c0 = nQ * (res + 2.0 * delta)
        disc = gap * gap - 4.0 * A * c0
        if not disc > 0.0:
            return None
        hi = (gap + math.sqrt(disc)) / (2.0 * A)
        rho = min(rho, _clearance(region, x, (S_hi, I_hi), P), 0.5 * (c0 / (A * hi) + hi))
    invariant = c0 + q * rho + A * rho * rho <= (1.0 - _ROUNDING) * rho
    if not (invariant and (1.0 + _ROUNDING) * _DROP <= 1.0 - _ROUNDING * nQ * nP):
        return None
    return x, Q, rho


def _trapped(trap, s, i):
    """Which states lie within ``_DROP`` of the trap's radius, as a new bool array."""
    (S0, I0), (q00, q01, q10, q11), rho = trap
    d0, d1 = s - S0, i - I0
    y0, y1 = d0 * q00 + d1 * q01, d0 * q10 + d1 * q11
    return y0 * y0 + y1 * y1 <= (_DROP * rho) ** 2


def _sample_region(region: RegionSpec, n: int, rng) -> tuple[np.ndarray, np.ndarray]:
    """Uniform points of the region by rejection from its bounding box."""
    import numpy as np

    u = region.u_star
    if region.case == 1:
        x_hi, y_hi = u, u
    else:
        x_hi, y_hi = 1.0, min(u, region.v)
    S = np.empty(n)
    I = np.empty(n)
    got = 0
    for _ in range(10_000):
        need = n - got
        if need <= 0:
            break
        cand_S = rng.uniform(0.0, x_hi, size=2 * need + 16)
        cand_I = rng.uniform(0.0, y_hi, size=2 * need + 16)
        # no slack: starts lie in the region itself
        good = _holds(region, cand_S, cand_I, 0.0).all(axis=0)
        take = min(int(good.sum()), need)
        idx = np.nonzero(good)[0][:take]
        S[got : got + take] = cand_S[idx]
        I[got : got + take] = cand_I[idx]
        got += take
    if got < n:
        raise RuntimeError("rejection sampling failed to fill the region")
    return S, I


def _check_probe_input(samples: int, steps: int, seed: int) -> None:
    """Refuse a probe size or seed that :func:`invariance_probe` cannot run."""
    if samples < 1 or steps < 1:
        raise ValueError("samples and steps must be positive")
    if seed < 0:
        raise ValueError(f"seed must be non-negative, got seed={seed}")


def invariance_probe(
    p: ModelParams,
    samples: int = 1000,
    steps: int = 1000,
    seed: int = 0,
    region: RegionSpec | None = None,
    max_records: int = 50,
) -> ProbeReport:
    """Iterate uniform region starts and report every first escape.

    Escapes are findings, not errors: each is recorded with the sample
    index, step number, exiting point, and the violated constraint (at
    most ``max_records`` detailed records are kept; the count is exact).
    The ``region`` override lets a caller probe a hand-built region.

    An orbit is dropped at a settle step (every ``_SETTLE_EVERY``-th) once
    its state x meets ``|Q(x - x*)|^2 <= (rho/2)^2``, the ellipse
    ``|Q(x - x*)| <= rho`` around E1 being one that ``_trap`` certifies:
    every float step maps it into itself, and it clears each inequality of
    ``region`` by more than the rounding of the membership check.  The orbit
    can never leave, so the report is that of all ``steps`` steps.  The
    loop ends once every orbit has left or been dropped.
    """
    _check_probe_input(samples, steps, seed)
    if region is None:
        region = applicable_region(p)
        if region is None:
            raise ValueError(
                "no invariance region applies at these parameters; "
                "pass an explicit region to probe one anyway"
            )
    import numpy as np

    trap = _trap(p, region)
    rng = np.random.default_rng(seed)
    # the starts are drawn under the same errstate as the steps: their
    # membership test can overflow too
    with np.errstate(all="ignore"):
        S, I = _sample_region(region, samples, rng)
        index = np.arange(samples)
        escapes: list[EscapeRecord] = []
        escape_count = 0
        # allocated once; once orbits exit or settle, the live ones fill a
        # prefix of each.  The two rows of `work` are the step's and the
        # table's scratch
        work = np.empty((2, samples))
        table = _table(region, (samples,))
        inside = np.empty(samples, dtype=bool)
        s, i, w, ok, ins = S, I, work, table, inside

        for k in range(1, steps + 1):
            _step_into(p, s, i, w)
            _holds(region, s, i, MEMBERSHIP_TOL, ok, w)
            ok.all(axis=0, out=ins)
            keep = ins
            if trap is not None and k % _SETTLE_EVERY == 0:
                # an orbit inside the certified ellipse never leaves it
                keep = ins & ~_trapped(trap, s, i)
            if not keep.all():
                hits = np.flatnonzero(~ins)
                escape_count += hits.size
                for j in hits[: max(0, max_records - len(escapes))]:
                    point = (float(s[j]), float(i[j]))
                    constraint = _CONSTRAINTS[ok[:, j].argmin()]
                    escapes.append(EscapeRecord(int(index[j]), k, point, constraint))
                live = np.flatnonzero(keep)
                n = live.size
                if n == 0:
                    break
                S[:n], I[:n], index[:n] = s[live], i[live], index[live]
                s, i, w, ok, ins = S[:n], I[:n], work[:, :n], table[:, :n], inside[:n]

    return ProbeReport(
        region=region,
        samples=samples,
        steps=steps,
        seed=seed,
        escape_count=escape_count,
        escapes=escapes,
    )
