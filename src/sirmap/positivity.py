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
indices, to the front of each buffer.

Orbits that settle are dropped the same way.  Every ``_SETTLE_EVERY``-th
step the probe keeps the states before the step and drops each orbit
whose new state has the same bits (signed zeros included).  That state is
its own image, and it passed the membership check one step earlier, so
the orbit can never leave and would add no record: the count, the
records and their order are those of the full run.  Sealed regions whose
orbits land on a fixed point in float (E1 of the triangle-region and
capped-region presets) stop within a few hundred steps.
"""
from __future__ import annotations

import math
from dataclasses import dataclass
from typing import NamedTuple

import numpy as np

from .core import ModelParams, _step_into

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
#: Steps between the probe's checks for orbits sitting on an exact fixed point.
_SETTLE_EVERY = 16


def u_star(p: ModelParams) -> float:
    """Ceiling of S + I under one map step: ``(r-1+K)^2 / (4*K*r)``."""
    return (p.r - 1.0 + p.K) ** 2 / (4.0 * p.K * p.r)


@dataclass(frozen=True)
class RegionSpec:
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

    def nullcline(self, x):
        """Height of the S' >= 0 frontier: ``v * (1 - x) * (1 + a*x)``."""
        return self.v * (1.0 - np.asarray(x)) * (1.0 + self.params.a * np.asarray(x))


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
    Its roots ``q/(2a)`` and ``-2c/q``, q = b + copysign(sqrt(b^2 + 4ac), b),
    cancel nowhere and overflow for no v; at a = 0 the first is infinite.
    """
    w = 1.0 / v
    b = math.fsum((a, w, -1.0))
    c = (v - u) * w if v <= 2.0 * u else 1.0 - u * w
    # at the case-3 window's v_plus edge the discriminant may round below 0
    q = b + math.copysign(math.sqrt(max(b * b + 4.0 * a * c, 0.0)), b)
    far = q / (2.0 * a) if a else math.copysign(math.inf, q)
    return tuple(sorted((-2.0 * c / q, far)))


class EscapeRecord(NamedTuple):
    """First exit of one probe orbit: where, when, and which constraint."""

    index: int
    step: int
    point: tuple[float, float]
    constraint: str


@dataclass(frozen=True)
class ProbeReport:
    region: RegionSpec
    samples: int
    steps: int
    seed: int
    escape_count: int
    escapes: list[EscapeRecord]


def _table(region: RegionSpec, shape: tuple) -> np.ndarray:
    """An unfilled membership table: a bool row per constraint the region has."""
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
        # RegionSpec.nullcline's order: (v*(1 - x))*(1 + a*x), then the slack
        with np.errstate(invalid="ignore"):
            np.subtract(1.0, S, out=t)
            np.multiply(region.v, t, out=t)
            np.multiply(region.params.a, S, out=w)
            np.add(1.0, w, out=w)
            np.multiply(t, w, out=t)
            np.add(t, tol, out=t)
        np.less_equal(I, t, out=table[4, ...])
    return table


def _sample_region(region: RegionSpec, n: int, rng) -> tuple[np.ndarray, np.ndarray]:
    """Uniform points of the region by rejection from its bounding box."""
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

    An orbit whose state is bit-equal to its own image at a settle step
    (every ``_SETTLE_EVERY``-th) is dropped: the map is deterministic and
    the state met the membership check one step earlier, so the orbit
    stays put for good, and the report is that of all ``steps`` steps.
    The loop ends once every orbit has left or settled.
    """
    _check_probe_input(samples, steps, seed)
    if region is None:
        region = applicable_region(p)
        if region is None:
            raise ValueError(
                "no invariance region applies at these parameters; "
                "pass an explicit region to probe one anyway"
            )
    rng = np.random.default_rng(seed)
    S, I = _sample_region(region, samples, rng)
    index = np.arange(samples)
    escapes: list[EscapeRecord] = []
    escape_count = 0
    # allocated once; once orbits exit or settle, the live ones fill a
    # prefix of each.  Rows 0-1 of `work` are scratch, rows 2-3 the states
    # before a settle step
    work = np.empty((4, samples))
    table = _table(region, (samples,))
    inside = np.empty(samples, dtype=bool)
    s, i, w, last, ok, ins = S, I, work[:2], work[2:], table, inside

    with np.errstate(all="ignore"):
        for k in range(1, steps + 1):
            settle = k % _SETTLE_EVERY == 0
            if settle:
                last[0] = s
                last[1] = i
            _step_into(p, s, i, w)
            _holds(region, s, i, MEMBERSHIP_TOL, ok, w)
            ok.all(axis=0, out=ins)
            keep = ins
            if settle:
                # an orbit whose state is its own image bit for bit never leaves
                moved = s.view(np.int64) != last[0].view(np.int64)
                moved |= i.view(np.int64) != last[1].view(np.int64)
                keep = ins & moved
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
                s, i, ok, ins = S[:n], I[:n], table[:, :n], inside[:n]
                w, last = work[:2, :n], work[2:, :n]

    return ProbeReport(
        region=region,
        samples=samples,
        steps=steps,
        seed=seed,
        escape_count=escape_count,
        escapes=escapes,
    )
