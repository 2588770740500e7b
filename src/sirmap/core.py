"""Planar SIR map with saturated incidence.

The working object is the two-dimensional map

    S' = r*S*(1 - S) - beta*S*I/(1 + a*S)
    I' = (1 - K)*I + beta*S*I/(1 + a*S)

acting on scaled susceptible/infected pairs ``(S, I)``.  Logistic growth
drives the susceptible pool, a saturating incidence term moves mass from
S to I, and a fixed fraction ``K`` of the infected pool is removed each
step.

All arithmetic is double precision.  Orbits are guarded against
divergence: once ``|S| + |I|`` exceeds :data:`DIVERGENCE_BOUND` the
iteration stops and the escape step is reported.  A state on the pole
``1 + a*S = 0`` of the incidence term counts as an escape at that state.

:func:`step` is the single-step map (on floats, and elementwise on numpy
arrays) and :func:`_advance` the one guarded plain-map loop, behind
:func:`iterate` and the plain stretches of ``dynamics``.  The invariance
probe steps its ensemble with :func:`_step_into`, which overwrites the
state arrays in place with :func:`step`'s operations in :func:`step`'s
order (bit-identical states, no allocation per step); it reads ``1 - S``
and ``1 + a*S`` from the rows that the probe's membership test
(``positivity._holds``) left at the end of the previous step.  Only the
tangent kernel ``dynamics._tangent`` keeps its own fused step.  numpy is
imported only inside :func:`iterate` and :func:`_step_into`.

The map's derivatives live here too, as floats in one matrix format, the
flat 2x2 tuple ``(m00, m01, m10, m11)``: :func:`_jacobian_entries` gives
the Jacobian J and :func:`_curvature_entries` the second and third
partials B (one flat 2x2 per component) and C (one per component and
first index).  ``equilibria``, ``normal_forms`` and the trapping
certificate of ``positivity`` read them from here.

A transient that settles on an exact floating-point cycle is cut short.
The map is deterministic, so once ``_advance`` meets a state bit-equal to
an earlier one, the rest of the run goes round a cycle whose states have
all passed the guard; it runs only the steps that reach the same phase
and returns the bits the full loop would.  Its step loop holds only the
guard, the step and the comparison of the new state with the kept one;
states are kept between stretches of that loop.  Neither state is packed
to bits before its S and I compare equal, as floats, to the kept
state's, so a row of :func:`iterate`'s window packs nothing.
``_advance`` keeps no rows: :func:`iterate` records its window itself,
one row and one guarded step at a time, so recorded windows run every
step.  The tangent kernel ``dynamics._tangent`` stops the same way
at a repeat of its whole state, then replays one recorded turn's log
stretches.  The invariance probe drops each ensemble orbit once it lies
inside a chain of ellipses around an attracting cycle, a stable E1 or a
float cycle that some of its own starts end on, which every float step
provably maps link by link into itself (``positivity._trap``).
"""
from __future__ import annotations

import math
import struct
from dataclasses import dataclass
from typing import NamedTuple

__all__ = [
    "DIVERGENCE_BOUND",
    "TOL_HYP",
    "TOL_BOUNDARY",
    "DivergenceError",
    "ModelParams",
    "State",
    "Orbit",
    "step",
    "iterate",
]

#: Orbit is declared escaped once |S| + |I| exceeds this.
DIVERGENCE_BOUND = 1.0e6
#: Half-width of the band around |mu| = 1 treated as non-hyperbolic.
TOL_HYP = 1.0e-9
#: Absolute tolerance for matching a point to a bifurcation boundary.
TOL_BOUNDARY = 1.0e-9
#: Recurrence tolerance (sup norm) for period detection.
_TOL_CYCLE = 1.0e-7
#: Default number of discarded warm-up iterations.
_DEFAULT_TRANSIENT = 10_000
#: Default number of retained post-transient samples.
_DEFAULT_WINDOW = 1_000
#: Default largest period that detection will report.
_DEFAULT_MAX_PERIOD = 64


class DivergenceError(RuntimeError):
    """Raised when an orbit leaves the guard region.

    Attributes
    ----------
    step : int
        Global iteration index (0-based, counted from the initial state)
        at which the guard triggered.
    """

    def __init__(self, step: int):
        self.step = step
        super().__init__(f"orbit escaped the guard region at step {step}")


class State(NamedTuple):
    """A point of the planar map: scaled susceptible and infected mass."""

    S: float
    I: float


@dataclass(frozen=True)
class ModelParams:
    """Parameters of the planar map.

    Parameters
    ----------
    r : float
        Intrinsic growth factor of the susceptible pool, ``r > 0``.
        The fixed-point analysis is only meaningful for ``r > 1``.
    beta : float
        Transmission strength, ``beta > 0``.
    a : float
        Incidence saturation (inhibition) coefficient, ``a >= 0``.
    K : float
        Removed fraction of the infected pool per step, ``0 < K < 1``.
    """

    r: float
    beta: float
    a: float
    K: float

    def __post_init__(self) -> None:
        if not 0 < self.r < math.inf:
            raise ValueError(f"require finite r > 0, got r={self.r}")
        if not 0 < self.beta < math.inf:
            raise ValueError(f"require finite beta > 0, got beta={self.beta}")
        if not 0 <= self.a < math.inf:
            raise ValueError(f"require finite a >= 0, got a={self.a}")
        if not 0 < self.K < 1:
            raise ValueError(f"require 0 < K < 1, got K={self.K}")


def step(p: ModelParams, x: tuple[float, float]) -> State:
    """One iteration of the planar map."""
    S, I = x
    force = p.beta * S * I / (1.0 + p.a * S)
    return State(p.r * S * (1.0 - S) - force, (1.0 - p.K) * I + force)


def _step_into(p: ModelParams, S: np.ndarray, I: np.ndarray, work) -> None:
    """Overwrite the float arrays ``S`` and ``I`` with their image under :func:`step`.

    ``work`` holds four rows of the same length: ``1 - S`` and ``1 + a*S``
    of the states, as ``positivity._holds`` leaves them with :func:`step`'s
    operations, then two scratch rows.  Every ufunc runs in :func:`step`'s
    operation order with the same operands, so each state is bit-identical
    to ``step(p, (S, I))``, and nothing is allocated.  The first two rows
    are read, not updated: they describe the old states once this returns.
    """
    import numpy as np

    m, d, t, w = work
    # t = (1 - K)*I, kept for the last line
    np.multiply(1.0 - p.K, I, out=t)
    # I <- force = ((beta*S)*I) / (1 + a*S)
    np.multiply(p.beta, S, out=w)
    np.multiply(w, I, out=I)
    np.divide(I, d, out=I)
    # S' = (r*S)*(1 - S) - force
    np.multiply(p.r, S, out=S)
    np.multiply(S, m, out=S)
    np.subtract(S, I, out=S)
    # I' = (1 - K)*I + force, written over its second operand: on a
    # length-1 array numpy's add written over its first operand may return
    # the second operand's NaN, where step's fresh output keeps the first's;
    # a sum into a third row would keep it too, but slowed the probe by ~10%
    np.add(t, I, out=I)


def _jacobian_entries(p: ModelParams, S: float, I: float) -> tuple[float, float, float, float]:
    """The Jacobian entries ``(a11, a12, a21, a22)`` of :func:`step` at ``(S, I)``, as floats.

    Uses the closed-form partial derivatives; the saturating term
    contributes ``beta*I/(1 + a*S)**2`` to the S-row and its negative
    image to the I-row.  Raises ``ValueError`` if any entry fails to be
    finite, as on the pole ``1 + a*S = 0``, where both incidence terms are
    taken as infinite.
    """
    den = 1.0 + p.a * S
    try:
        phi = p.beta * S / den
        dphi = p.beta / (den * den)
    except ZeroDivisionError:
        phi = dphi = math.inf
    J = (p.r - 2.0 * p.r * S - I * dphi, -phi, I * dphi, 1.0 - p.K + phi)
    if not all(map(math.isfinite, J)):
        raise ValueError(f"Jacobian is not finite at (S, I) = ({S}, {I})")
    return J


def _curvature_entries(p: ModelParams, S: float, I: float) -> tuple:
    """Exact B and C of :func:`step` at ``(S, I)``: its second and third partials.

    ``B[i]`` is the Hessian of component i and ``C[i][j]`` the Hessian of
    ``d/dx_j`` of component i, each a flat 2x2 ``(m00, m01, m10, m11)``
    like :func:`_jacobian_entries`.
    """
    den = 1.0 + p.a * S
    d1 = p.beta / den**2
    d2 = -2.0 * p.a * p.beta / den**3
    d3 = 6.0 * p.a * p.a * p.beta / den**4
    B = ((-2.0 * p.r - I * d2, -d1, -d1, 0.0), (I * d2, d1, d1, 0.0))
    C = (
        ((-I * d3, -d2, -d2, 0.0), (-d2, 0.0, 0.0, 0.0)),
        ((I * d3, d2, d2, 0.0), (d2, 0.0, 0.0, 0.0)),
    )
    return B, C


@dataclass(frozen=True)
class Orbit:
    """Post-transient orbit samples.

    ``states`` holds the retained samples as an (m, 2) array.  If the
    divergence guard triggered, ``escaped_at`` is the global iteration
    index of the offending step and the sample array is truncated at the
    last in-bounds state; otherwise ``escaped_at`` is ``None``.
    """

    states: np.ndarray
    escaped_at: int | None = None

    @property
    def escaped(self) -> bool:
        return self.escaped_at is not None


#: The bit pattern of a state: equal floats that differ in the sign of a
#: zero are different states.
_bits = struct.Struct("<2d").pack


def _advance(p: ModelParams, x0, n: int):
    """Run ``n`` guarded map steps from ``x0``; return ``(S, I, escaped_at)``.

    The guard is checked before each step, so the last state is returned
    unchecked; ``escaped_at`` is the index of the out-of-bounds state (or
    of a state on the pole ``1 + a*S = 0``), or None.

    The loop keeps the state at step 0 and at each doubling of that step
    (1 after 0: Brent's cycle-finding schedule, BIT 20 (1980) 176-184), and
    stops at the first later state bit-equal to the kept one, signed zeros
    included.  The map is deterministic, so the orbit then goes round that
    cycle for good, and every state of the cycle has passed the guard:
    whole turns can neither escape nor change the result, and only the
    steps left over after them are run.

    The step loop runs guard, step and comparison from one step of that
    schedule to the next.  The state after each step is compared with the
    kept one, so a repeat after step ``k`` has period ``k + 1 - kept``; a
    kept state passes the guard before the first step leaves it.
    """
    S, I = float(x0[0]), float(x0[1])
    r, beta, a, K = p.r, p.beta, p.a, p.K
    bound = DIVERGENCE_BOUND
    # the box |S|, |I| <= bound/2 lies inside the guard region (the rounded
    # sum of two such terms stays <= bound): only a state outside it pays
    # for the exact test
    low, high = -0.5 * bound, 0.5 * bound
    k = 0
    try:
        while k < n:
            kept, S_kept, I_kept = k, S, I
            for k in range(k, min(2 * k or 1, n)):
                # `not (total <= bound)` also catches NaN
                if not (low <= S <= high and low <= I <= high) and not (abs(S) + abs(I) <= bound):
                    return S, I, k
                force = beta * S * I / (1.0 + a * S)
                S, I = r * S * (1.0 - S) - force, (1.0 - K) * I + force
                # S can sit still while I moves on, as when I decays to the
                # axis: compare I too before packing the bits of either state
                if S == S_kept and I == I_kept and _bits(S, I) == _bits(S_kept, I_kept):
                    return _advance(p, (S, I), (n - k - 1) % (k + 1 - kept))
            k += 1
    except ZeroDivisionError:  # state k sits on the pole 1 + a*S = 0
        return S, I, k
    return S, I, None


def iterate(
    p: ModelParams,
    x0: tuple[float, float],
    n_transient: int = _DEFAULT_TRANSIENT,
    n_keep: int = _DEFAULT_WINDOW,
) -> Orbit:
    """Iterate the planar map and keep the last ``n_keep`` states.

    The first ``n_transient`` iterations are discarded; the window is then
    recorded one row and one guarded step at a time.  Escape is a
    distinguished outcome, not an error: the orbit carries the escape step
    and the samples before it.
    """
    if n_transient < 0 or n_keep < 0:
        raise ValueError("n_transient and n_keep must be non-negative")
    import numpy as np

    S, I, k = _advance(p, x0, n_transient)
    if k is not None:
        return Orbit(states=np.empty((0, 2)), escaped_at=k)
    out = np.empty((n_keep, 2), dtype=np.float64)
    for k in range(n_keep):
        out[k] = S, I
        S, I, escaped_at = _advance(p, (S, I), 1)
        if escaped_at is not None:
            return Orbit(states=out[:k].copy(), escaped_at=n_transient + k)
    return Orbit(states=out, escaped_at=None)
