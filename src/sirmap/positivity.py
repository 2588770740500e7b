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
errors).  The probe allocates its buffers once per call, every row on a
64-byte boundary (``_rows``): it steps the ensemble in place with
``core._step_into`` and writes every inequality into one membership
table (``_holds``, also behind the sampler), one row per constraint; a
column's first False names an orbit's exit.  One step is one hand-off
between the two: ``_holds`` also leaves ``1 - S`` and ``1 + a*S`` of the
states it tested in two rows, formed as ``core.step`` forms them, and
the next ``_step_into`` reads them there.  A step that is not a settle
step (below) reduces the whole table once; only where some orbit failed
does the probe look for which.  Exited orbits are dropped by moving the
survivors, with their original indices and their two hand-off values, to
the front of each row.  numpy is imported only inside the functions that
make or step arrays (the probe, its sampler and rows, and ``_holds``).

Orbits that settle are dropped the same way.  Once per call,
``_trap`` proves, in closed form with explicit rounding bounds (validated
numerics in the sense of W. Tucker, *Validated Numerics*, Princeton
2011), that a chain of ellipses ``|Q_j(x - c_j)| <= rho`` around an
attracting float cycle ``c_0 ... c_{q-1}`` is mapped link by link into
itself by every float map step, ``E_j`` into ``E_{j+1}`` and ``E_{q-1}``
into ``E_0``, and that each ellipse clears every inequality of the probed
region.  The cycle is E1 (q = 1) where E1 is a stable node or focus with a
diagonalisable Jacobian; elsewhere it is a float cycle, of period at most
``_CYCLE_CAP``, that one of a few of the probe's own starts ends on
(``_float_cycle``, within a fixed share of the probe's steps).  Each link
is the inequality

    |Q'| (res + 2 delta) + q rho + |Q'| (M2/2) |P|^2 rho^2  <=  rho,

with P = Q_j^-1, Q' = Q_{j+1}, ``q`` a bound on ``|Q' J P|`` that
includes the rounding of the Jacobian J's entries at c_j, ``M2`` one on
the map's second derivatives over the ellipse's box, ``res`` the float
residual of the cycle and ``delta`` the rounding of one float step.  Every
``_SETTLE_EVERY``-th step k the probe then drops each orbit whose state x
passes ``|Q_j(x - c_j)|^2 <= (rho/2)^2`` (``_trapped``, in place over the
live orbits), for one j that rotates with k so that an orbit near the
cycle meets the ellipse of its own phase within q settle steps.  Such an
orbit stays inside the chain, and so inside the region, for good: it
would add no record, and the count, the records and their order are those
of the full run.  The constants are ``_ROUNDING`` (8 eps, the rounding
bound of every expression the proof evaluates or relies on) and ``_DROP``
(1/2, which leaves the drop test's own rounding far inside the ellipse);
:func:`_trap` derives the bound.  Where there is no certificate (no such
cycle, an unstable, non-hyperbolic or defective one, or its Jacobians'
digits lost) no orbit is dropped.

The module imports only from :mod:`sirmap.core` (the map, the in-place
step, the guarded scalar run ``_advance``, the Jacobian entries and the
second partials ``_curvature_entries``) and :mod:`sirmap.equilibria` (E1,
the eigen data of a flat 2x2 matrix, the float residual and the flat 2x2
product ``_mul``).
"""
from __future__ import annotations

import math
import sys
from typing import NamedTuple

from .core import (
    ModelParams, State, _advance, _curvature_entries, _jacobian_entries, _step_into, step
)
from .equilibria import _eigen_quadratic, _endemic_point, _mul, _residual

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
#: Steps between the probe's checks for orbits inside the trapping ellipses.
_SETTLE_EVERY = 16
#: Longest float cycle the probe looks for where E1 gives no trapping ellipse,
#: the most starts it tries, and the share of ``samples*steps`` (one over this)
#: it may spend on them in scalar steps.
_CYCLE_CAP = 32
_SEARCH_STARTS = 8
_SEARCH_SHARE = 256
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


def _rows(count: int, n: int, dtype=float) -> np.ndarray:
    """``count`` unfilled rows of length ``n`` in one block, each starting on a 64-byte boundary.

    numpy's loops store into a row that starts elsewhere up to twice as
    slowly (measured on 3,000 to 30,000 entries: a float product 1.8-2.1x,
    a comparison into bools 1.7x), so the probe's speed would follow where
    the allocator happened to put its arrays.
    """
    import numpy as np

    per = 64 // np.dtype(dtype).itemsize
    stride = -(-n // per) * per
    block = np.empty(count * stride + per, dtype)
    skip = (-block.ctypes.data % 64) // block.itemsize
    return block[skip : skip + count * stride].reshape(count, stride)[:, :n]


def _table(region: RegionSpec, n: int, extra: int = 0) -> np.ndarray:
    """An unfilled membership table: a bool row per constraint the region has, then ``extra`` more."""
    return _rows((3 if region.case == 1 else len(_CONSTRAINTS)) + extra, n, bool)


def _holds(region: RegionSpec, S, I, tol, table=None, work=None):
    """Which region inequalities each point meets: one row per _CONSTRAINTS entry.

    Each inequality gets outward slack ``tol``; a NaN coordinate fails
    every inequality it enters.  The first False in a column names the
    point's first violation.  The rows are written into ``table``, one
    bool row view per constraint the region has, and ``work`` holds three
    float row views shaped like ``S``.  The last of them is scratch for
    the sum and the nullcline height; the first two are left holding
    ``1 - S`` and ``1 + a*S`` (also for case 1), formed with the
    operations of ``core.step``, for ``core._step_into`` to read at the
    next step.  Without ``table`` a table (see :func:`_table`) is
    allocated and returned, and without ``work`` its rows are.  Overflow
    and invalid operations are the caller's to silence: both callers, the
    sampler and the probe, run under ``np.errstate(all="ignore")``.
    """
    import numpy as np

    full = None
    if table is None:
        full = _table(region, np.size(S))
        table = list(full)
    if work is None:
        work = list(_rows(3, np.size(S)))
    m, d, t = work
    np.greater_equal(S, -tol, out=table[0])
    np.greater_equal(I, -tol, out=table[1])
    np.add(S, I, out=t)
    np.less_equal(t, region.u_star + tol, out=table[2])
    np.subtract(1.0, S, out=m)
    np.multiply(region.params.a, S, out=d)
    np.add(1.0, d, out=d)
    if region.case != 1:
        np.less_equal(S, 1.0 + tol, out=table[3])
        # the nullcline as (v*(1 - x))*(1 + a*x), then the slack
        np.multiply(region.v, m, out=t)
        np.multiply(t, d, out=t)
        np.add(t, tol, out=t)
        np.less_equal(I, t, out=table[4])
    return full


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


def _trap(p: ModelParams, region: RegionSpec, starts=((), ()), steps: int = 0):
    """A certified chain of trapping ellipses around an attracting float cycle in ``region``, or ``None``.

    The cycle is E1 where that gives a chain; elsewhere a float cycle on
    which one of the probe's ``starts`` ends after ``steps`` steps (see
    :func:`_float_cycle`).  Returns a tuple of ellipses ``(c_j, Q_j, rho)``
    for ``E_j = {x : |Q_j(x - c_j)| <= rho}``, j = 0 ... q-1, around the
    cycle points ``c_j``, with ``c_{j+1} = fl(F(c_j))`` bit for bit (E1 alone
    is the chain with q = 1); ``|.|`` is the 2-norm and E_q is E_0.  Two
    facts hold:

    1. every float x in ``E_j`` has its float image ``fl(F(x))`` under
       ``core.step`` (bit-identical to ``core._step_into``) in ``E_{j+1}``;
    2. every point of each ``E_j`` meets each inequality of ``region`` with
       room for the rounding of the probe's membership check.

    ``Q_0`` is the inverse of the real Jordan basis of the cycle's
    multiplier matrix ``M = J_{q-1} ... J_0`` up to scale (the rows are unit
    left eigenvectors for real eigenvalues, and ``adj(P)`` for a complex
    pair, P holding an eigenvector's real and imaginary parts), with J_j the
    Jacobian at c_j, and ``Q_{j+1} = D Q_j J_j^-1`` for j < q-1, where D
    scales the row of each multiplier mu_i by ``|mu_i|^(1/q)``.  So
    ``Q_{j+1} J_j Q_j^-1`` is about D for every link, the last included
    (there it is ``Q_0 M Q_0^-1 D^(1-q)``), and each link contracts by about
    the largest ``|mu_i|^(1/q)``: one radius serves the whole chain.

    For (1), write ``F(x) - c_{j+1} = (F(c_j) - c_{j+1}) + J_j h + R(h)`` with
    ``h = x - c_j``, ``|h| <= |P_j| rho`` and ``P_j = Q_j^-1``.  Then
    ``|Q_{j+1}(fl(F(x)) - c_{j+1})|`` is at most

        |Q_{j+1}| (res_j + 2 delta_j) + q_j rho + |Q_{j+1}| (M2_j/2) |P_j|^2 rho^2,

    which must not exceed rho, where

    * ``q_j >= |Q_{j+1} J_j P_j|``: the norm of the float product, plus its
      rounding and ``|Q_{j+1}| |dJ| |P_j|``, dJ the rounding of J_j's float
      entries (a11 = r - 2rS - I*dphi nearly cancels r at E1; where its
      digits are gone, q_j >= 1 and there is no certificate);
    * ``M2_j`` bounds the 2-norm of the two components' Hessians
      (Frobenius norms of entrywise bounds) over the box of ``E_j``: with
      a >= 0 and S >= 0 there, ``|d1| = beta/den^2`` and
      ``|I*d2| = 2*a*beta*I/den^3`` are largest at the corner (S_lo, I_hi),
      where ``core._curvature_entries`` gives them;
    * ``res_j`` is the float residual ``|fl(F(c_j)) - c_{j+1}|``: 0 for
      j < q-1, and ``|fl(F^q(c_0)) - c_0|`` for the closing link (the
      residual of E1, 0 on a float cycle), and
      ``delta_j = _ROUNDING * |(r*S*|1 - S| + force, (1 - K)*I + force)|``
      over the box bounds the rounding of one float step (twice: at c_j
      and at x).

    Each link's quadratic ``A_j rho^2 - (1 - q_j) rho + c0_j <= 0`` holds
    between two roots; rho is the midpoint of the range all links allow, or
    less where (2) needs it: each inequality's value at c_j, less its
    rounding, over the ellipse's reach across it per unit of rho (see
    :func:`_clearance`).  The constants are those of the boxes of the
    ellipses at a radius no smaller than the final one, so they bound those
    of their own boxes.  The last test checks every link at the final
    radius, and that a state the probe finds within ``_DROP * rho`` through
    its own rounded ``Q_j(x - c_j)`` lies within rho.

    ``None`` where E1 is absent (or r <= 1) or gives no chain and no start
    ends on a float cycle of period at most ``_CYCLE_CAP`` within the
    search budget; where the multiplier matrix is defective (a repeated
    eigenvalue: at E1, a12 = -K is never 0); where a q_j is not below 1
    (the cycle unstable or non-hyperbolic, or J's entries lost to
    rounding); and wherever a bound leaves the float range or the two facts
    fail.
    """
    try:
        point = _endemic_point(p)
        chain = None if point is None else _ellipses(p, region, point[:1])
        if chain is None:
            cycle = _float_cycle(p, *starts, steps)
            chain = None if cycle is None else _ellipses(p, region, cycle)
        return chain
    except (ValueError, ArithmeticError):  # r <= 1, or a value out of float range
        return None


def _float_cycle(p: ModelParams, S, I, steps: int):
    """A float cycle that one of the starts ``S, I`` ends on after ``steps`` steps, or ``None``.

    Each start runs ``steps`` guarded steps through ``core._advance``, which
    cuts the run short once it meets an exact float cycle; ``core.step``
    then iterates the end state until it returns to it, at most
    ``_CYCLE_CAP`` times.  Returns the first cycle found, its points ``c_j``
    with ``c_{j+1} = fl(F(c_j))`` in order.  At most ``_SEARCH_STARTS`` starts are tried, and only as
    many as keep the scalar steps, each start charged ``steps + _CYCLE_CAP``,
    within a ``1/_SEARCH_SHARE`` share of ``samples * steps``.
    """
    cost = steps + _CYCLE_CAP
    tries = min(_SEARCH_STARTS, len(S) * steps // (_SEARCH_SHARE * cost))
    for x0 in zip(S[:tries], I[:tries]):
        S_end, I_end, escaped_at = _advance(p, x0, steps)
        if escaped_at is not None:
            continue
        cycle = [State(S_end, I_end)]
        y = step(p, cycle[0])
        while y != cycle[0] and len(cycle) < _CYCLE_CAP:
            cycle.append(y)
            y = step(p, y)
        if y == cycle[0]:
            return cycle
    return None


def _ellipses(p: ModelParams, region: RegionSpec, cycle):
    """:func:`_trap` around the float cycle ``cycle`` (E1 alone where q = 1)."""
    q = len(cycle)
    Js = [_jacobian_entries(p, *c) for c in cycle]
    M = Js[0]
    for J in Js[1:]:
        M = _mul(J, M)
    e = _eigen_quadratic(*M)
    a11, a12 = M[:2]
    if e.omega > 0.0:
        Q = (e.omega, 0.0, a11 - e.sigma, a12)
    elif e.mu1 != e.mu2:
        Q = tuple(
            c / _length(mu.real - a11, a12) for mu in (e.mu2, e.mu1) for c in (mu.real - a11, -a12)
        )
    else:
        return None
    # each link shrinks the row of Q that belongs to mu_i by |mu_i|^(1/q)
    g1, g2 = (abs(mu) ** (1.0 / q) for mu in (e.mu1, e.mu2))
    Qs = [Q]
    for j00, j01, j10, j11 in Js[:-1]:
        det = j00 * j11 - j01 * j10
        m00, m01, m10, m11 = _mul(Qs[-1], (j11 / det, -j01 / det, -j10 / det, j00 / det))
        Qs.append((g1 * m00, g1 * m01, g2 * m10, g2 * m11))
    Ps = []
    for q00, q01, q10, q11 in Qs:
        # P = Q^-1 = adj(Q)/det(Q), over det Q rounded down: no entry too small
        det_lo = abs(q00 * q11 - q01 * q10) - _ROUNDING * (abs(q00 * q11) + abs(q01 * q10))
        if not det_lo > 0.0:
            return None
        Ps.append((q11 / det_lo, -q01 / det_lo, -q10 / det_lo, q00 / det_lo))
    nQs, nPs = [_norm2(*Q) for Q in Qs], [_norm2(*P) for P in Ps]
    links = []  # (q_j, res_j), link j mapping E_j into E_{j+1}
    for j, ((S0, _), J) in enumerate(zip(cycle, Js)):
        a11, a12, a21, _ = J
        n, P = (j + 1) % q, Ps[j]
        dJ = _ROUNDING * _length(p.r * (1.0 + 2.0 * abs(S0)) + abs(a21), a12, a21, 1.0 + abs(a12))
        rounded = _ROUNDING * _length(*Qs[n]) * _length(*J) * _length(*P)
        q_j = _norm2(*_mul(_mul(Qs[n], J), P)) + rounded + nQs[n] * dJ * nPs[j]
        if not q_j < 1.0:
            return None
        # the 2-norm of the float residual, from its sup norm
        res = (1.0 + _ROUNDING) * math.sqrt(2.0) * _residual(p, cycle[0], q) if n == 0 else 0.0
        links.append((q_j, res))

    # a radius (2) allows by the constants at each c_j, then twice the radius
    # all allow by the constants over the boxes of the ellipses at the last one
    rho = min(_clearance(region, c, c, P) for c, P in zip(cycle, Ps))
    for _ in range(2):
        lo, hi, bounds, clear = 0.0, math.inf, [], []
        for j, (q_j, res) in enumerate(links):
            (S0, I0), P, nQ = cycle[j], Ps[j], nQs[(j + 1) % q]
            dS, dI = ((1.0 + _ROUNDING) * rho * _length(*row) for row in (P[:2], P[2:]))
            S_lo, S_hi, I_hi = S0 - dS, S0 + dS, I0 + dI
            i_d2, d1 = _curvature_entries(p, S_lo, I_hi)[0][1][:2]
            M2 = (1.0 + _ROUNDING) * _length(2.0 * p.r + abs(i_d2), i_d2, 2.0 * d1)
            force = p.beta * S_hi * I_hi / (1.0 + p.a * S_lo)
            delta = _ROUNDING * _length(
                p.r * S_hi * max(1.0 - S_lo, S_hi - 1.0) + force, force + (1.0 - p.K) * I_hi
            )
            A = 0.5 * nQ * M2 * nPs[j] * nPs[j]
            c0 = nQ * (res + 2.0 * delta)
            gap = 1.0 - q_j
            disc = gap * gap - 4.0 * A * c0
            if not disc > 0.0:
                return None
            top = (gap + math.sqrt(disc)) / (2.0 * A)
            lo, hi = max(lo, c0 / (A * top)), min(hi, top)
            bounds.append((c0, A))
            clear.append(_clearance(region, cycle[j], (S_hi, I_hi), P))
        rho = min(rho, *clear, 0.5 * (lo + hi))
    for j, (q_j, _) in enumerate(links):
        c0, A = bounds[j]
        invariant = 0.0 < rho and c0 + q_j * rho + A * rho * rho <= (1.0 - _ROUNDING) * rho
        if not (invariant and (1.0 + _ROUNDING) * _DROP <= 1.0 - _ROUNDING * nQs[j] * nPs[j]):
            return None
    return tuple((c, Q, rho) for c, Q in zip(cycle, Qs))


def _trapped(ellipse, s, i, rows, out):
    """Which states lie within ``_DROP`` of the ellipse's radius, written into the bool row ``out``.

    ``rows`` holds four float scratch rows shaped like ``s``.  The ufuncs
    are those of ``y0*y0 + y1*y1 <= (_DROP*rho)**2`` with ``y = Q(x - c)``,
    on the same operands in the same order, so every decision keeps its
    bits, and nothing is allocated.
    """
    import numpy as np

    (S0, I0), (q00, q01, q10, q11), rho = ellipse
    d0, d1, y0, y1 = rows
    np.subtract(s, S0, out=d0)
    np.subtract(i, I0, out=d1)
    np.multiply(d0, q00, out=y0)
    np.multiply(d1, q01, out=y1)
    np.add(y0, y1, out=y0)
    # y1 = d0*q10 + d1*q11, with d0 and d1 read for the last time
    np.multiply(d0, q10, out=d0)
    np.multiply(d1, q11, out=d1)
    np.add(d0, d1, out=y1)
    np.multiply(y0, y0, out=y0)
    np.multiply(y1, y1, out=y1)
    np.add(y0, y1, out=y0)
    return np.less_equal(y0, (_DROP * rho) ** 2, out=out)


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
    its state x meets ``|Q_j(x - c_j)|^2 <= (rho/2)^2`` for the ellipse
    ``E_j`` tested at that step, one of a chain around an attracting cycle
    (E1, or a float cycle some starts end on) that ``_trap`` certifies:
    every float step maps ``E_j`` into ``E_{j+1}``, and each ellipse clears
    each inequality of ``region`` by more than the rounding of the
    membership check.  The orbit can never leave, so the report is that of
    all ``steps`` steps.  The loop ends once every orbit has left or been
    dropped.

    Each step is ``core._step_into`` followed by ``_holds``, which leaves
    ``1 - S`` and ``1 + a*S`` for the next step (seeded once for the
    starts), so the two rows are carried along when the live orbits are
    compacted.  Since ``_holds`` forms them with ``region.params.a`` and
    the step reads them as its own, an override ``region`` built for
    parameters other than ``p`` is refused with ``ValueError``.  Row views
    are made only at compaction, and a step that is not a settle step
    tests the whole membership table with one reduction.
    """
    _check_probe_input(samples, steps, seed)
    if region is None:
        region = applicable_region(p)
        if region is None:
            raise ValueError(
                "no invariance region applies at these parameters; "
                "pass an explicit region to probe one anyway"
            )
    elif region.params != p:
        # the membership test forms 1 + a*S with the region's a, and the
        # step reads it as its own
        raise ValueError("the region was built for other parameters than the probe's")
    import numpy as np

    rng = np.random.default_rng(seed)
    # the starts are drawn under the same errstate as the steps: their
    # membership test can overflow too
    with np.errstate(all="ignore"):
        # allocated once (see _rows); once orbits exit or settle, the live
        # ones fill a prefix of each row.  Float rows: S and I; 1 - S and
        # 1 + a*S, which the membership test leaves for the next step; then
        # scratch (rows 4-5 the step's, 4 the table's, 4-7 the ellipse
        # test's).  Bool rows: the table, which orbits are inside and which
        # settled
        x = _rows(8, samples)
        x[0], x[1] = _sample_region(region, samples, rng)
        chain = _trap(p, region, (x[0], x[1]), steps)
        flags = _table(region, samples, extra=2)
        index = np.arange(samples)
        escapes: list[EscapeRecord] = []
        escape_count = 0
        # row views are made here and where the live orbits are compacted
        rows, ok, (*ok_rows, ins, st) = tuple(x), flags[:-2], flags
        s, i = rows[:2]
        # 1 - S and 1 + a*S of the starts, for the first step
        _holds(region, s, i, MEMBERSHIP_TOL, ok_rows, rows[2:5])

        for k in range(1, steps + 1):
            _step_into(p, s, i, rows[2:6])
            _holds(region, s, i, MEMBERSHIP_TOL, ok_rows, rows[2:5])
            settle = chain is not None and k % _SETTLE_EVERY == 0
            # a quiet step costs one reduction of the whole table
            if not settle and ok.all():
                continue
            ok.all(axis=0, out=ins)
            keep = ins
            if settle:
                # an orbit inside E_j stays in the chain.  The tested index
                # less k gains one per settle step, so within q settle steps
                # an orbit near the cycle meets the ellipse of its own phase
                ellipse = chain[(k + k // _SETTLE_EVERY) % len(chain)]
                keep = ins & ~_trapped(ellipse, s, i, rows[4:], st)
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
                # S, I and the two rows the next step reads, row by row: a
                # gather of several rows at once, x[:4, live], takes 5x longer
                index[:n] = index[live]
                for j in range(4):
                    x[j, :n] = rows[j][live]
                rows, ok, (*ok_rows, ins, st) = tuple(x[:, :n]), flags[:-2, :n], flags[:, :n]
                s, i = rows[:2]

    return ProbeReport(
        region=region,
        samples=samples,
        steps=steps,
        seed=seed,
        escape_count=escape_count,
        escapes=escapes,
    )
