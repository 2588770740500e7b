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
order (bit-identical states, no allocation per step).  Only the tangent
kernel ``dynamics._tangent`` keeps its own fused step.

A transient that settles on an exact floating-point cycle is cut short.
The map is deterministic, so once ``_advance`` meets a state bit-equal to
an earlier one, the rest of the run goes round a cycle whose states have
all passed the guard; it runs only the steps that reach the same phase
and returns the bits the full loop would.  A state is packed to bits only
after its S and I compare equal, as floats, to the kept state's.
Recorded windows still run every step.  The tangent kernel
``dynamics._tangent`` stops the same way at a repeat of its whole state,
then replays one recorded turn's log stretches.  The invariance probe
drops each ensemble orbit whose state is bit-equal to its image under
:func:`_step_into` (an exact fixed point); it does not look for longer
cycles.
"""
from __future__ import annotations

import math
import struct
from dataclasses import dataclass
from typing import NamedTuple

import numpy as np

__all__ = [
    "DIVERGENCE_BOUND",
    "TOL_HYP",
    "TOL_BOUNDARY",
    "TOL_CYCLE",
    "DEFAULT_TRANSIENT",
    "DEFAULT_WINDOW",
    "DEFAULT_MAX_PERIOD",
    "DivergenceError",
    "ModelParams",
    "State",
    "Orbit",
    "step",
    "jacobian",
    "iterate",
]

#: Orbit is declared escaped once |S| + |I| exceeds this.
DIVERGENCE_BOUND = 1.0e6
#: Half-width of the band around |mu| = 1 treated as non-hyperbolic.
TOL_HYP = 1.0e-9
#: Absolute tolerance for matching a point to a bifurcation boundary.
TOL_BOUNDARY = 1.0e-9
#: Recurrence tolerance (sup norm) for period detection.
TOL_CYCLE = 1.0e-7
#: Default number of discarded warm-up iterations.
DEFAULT_TRANSIENT = 10_000
#: Default number of retained post-transient samples.
DEFAULT_WINDOW = 1_000
#: Default largest period that detection will report.
DEFAULT_MAX_PERIOD = 64


class DivergenceError(RuntimeError):
    """Raised when an orbit leaves the guard region.

    Attributes
    ----------
    step : int
        Global iteration index (0-based, counted from the initial state)
        at which the guard triggered.
    """

    def __init__(self, step: int, message: str | None = None):
        self.step = step
        super().__init__(message or f"orbit escaped the guard region at step {step}")


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
    return State(
        S=p.r * S * (1.0 - S) - force,
        I=(1.0 - p.K) * I + force,
    )


def _step_into(p: ModelParams, S: np.ndarray, I: np.ndarray, work: np.ndarray) -> None:
    """Overwrite the float arrays ``S`` and ``I`` with their image under :func:`step`.

    ``work`` holds two scratch rows of the same length.  Every ufunc runs
    in :func:`step`'s operation order with the same operands, so each
    state is bit-identical to ``step(p, (S, I))``, and nothing is allocated.
    """
    t, w = work
    # t = (1 - K)*I, kept for the last line
    np.multiply(1.0 - p.K, I, out=t)
    # I <- force = ((beta*S)*I) / (1 + a*S)
    np.multiply(p.beta, S, out=w)
    np.multiply(w, I, out=I)
    np.multiply(p.a, S, out=w)
    np.add(1.0, w, out=w)
    np.divide(I, w, out=I)
    # S' = (r*S)*(1 - S) - force
    np.subtract(1.0, S, out=w)
    np.multiply(p.r, S, out=S)
    np.multiply(S, w, out=S)
    np.subtract(S, I, out=S)
    # I' = (1 - K)*I + force, written over its second operand: on a
    # length-1 array numpy's add written over its first operand may return
    # the second operand's NaN, where step's fresh output keeps the first's;
    # a sum into a third row would keep it too, but slowed the probe by ~10%
    np.add(t, I, out=I)


def _jacobian_entries(p: ModelParams, S: float, I: float) -> tuple[float, float, float, float]:
    """The entries ``(a11, a12, a21, a22)`` of :func:`jacobian` at ``(S, I)``, as floats.

    Raises ``ValueError`` if any entry fails to be finite, as on the pole
    ``1 + a*S = 0``, where both incidence terms are taken as infinite.
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


def jacobian(p: ModelParams, x: tuple[float, float]) -> np.ndarray:
    """Jacobian matrix of :func:`step` at ``x``, as a (2, 2) float array.

    Uses the closed-form partial derivatives; the saturating term
    contributes ``beta*I/(1 + a*S)**2`` to the S-row and its negative
    image to the I-row.  The entries come from :func:`_jacobian_entries`,
    which raises ``ValueError`` on the pole ``1 + a*S = 0`` and wherever an
    entry fails to be finite.
    """
    a11, a12, a21, a22 = _jacobian_entries(p, float(x[0]), float(x[1]))
    return np.array(((a11, a12), (a21, a22)), dtype=np.float64)


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


def _advance(p: ModelParams, x0, n: int, out: np.ndarray | None = None):
    """Run ``n`` guarded map steps from ``x0``; return ``(S, I, escaped_at)``.

    The guard is checked before each step, so the last state is returned
    unchecked; ``escaped_at`` is the index of the out-of-bounds state (or
    of a state on the pole ``1 + a*S = 0``), or None.  Row ``k < len(out)``
    of ``out``, if given, receives the checked state before step ``k``.

    Past the rows of ``out`` the loop keeps the state at step
    ``max(len(out), 1)`` and at each doubling of that step (Brent's
    cycle-finding schedule, BIT 20 (1980) 176-184), and stops at the first
    later state bit-equal to the kept one, signed zeros included.  The map
    is deterministic, so the orbit then goes round that cycle for good, and
    every state of the cycle has passed the guard: whole turns can neither
    escape nor change the result, and only the steps left over after them
    are run.
    """
    S, I = float(x0[0]), float(x0[1])
    r, beta, a, K = p.r, p.beta, p.a, p.K
    m = 0 if out is None else out.shape[0]
    bound = DIVERGENCE_BOUND
    # the box |S|, |I| <= bound/2 lies inside the guard region (the rounded
    # sum of two such terms stays <= bound): only a state outside it pays
    # for the exact test
    low, high = -0.5 * bound, 0.5 * bound
    # the kept state (none yet: NaN equals nothing) and the next step to
    # keep; until then every step with a row of `out` is due
    kept, next_keep, bits_kept = 0, 0 if m else 1, b""
    S_kept = I_kept = math.nan
    try:
        # `not (total <= bound)` also catches NaN
        for k in range(n):
            if not (low <= S <= high and low <= I <= high) and not (abs(S) + abs(I) <= bound):
                return S, I, k
            # S can sit still while I moves on, as when I decays to the
            # axis: compare I too before packing the bits
            if S == S_kept and I == I_kept and _bits(S, I) == bits_kept:
                return _advance(p, (S, I), (n - k) % (k - kept))
            if k >= next_keep:
                if k < m:
                    out[k, 0] = S
                    out[k, 1] = I
                else:
                    kept, next_keep, S_kept, I_kept = k, 2 * k, S, I
                    bits_kept = _bits(S, I)
            force = beta * S * I / (1.0 + a * S)
            S, I = r * S * (1.0 - S) - force, (1.0 - K) * I + force
    except ZeroDivisionError:  # state k sits on the pole 1 + a*S = 0
        return S, I, k
    return S, I, None


def iterate(
    p: ModelParams,
    x0: tuple[float, float],
    n_transient: int = DEFAULT_TRANSIENT,
    n_keep: int = DEFAULT_WINDOW,
) -> Orbit:
    """Iterate the planar map and keep the last ``n_keep`` states.

    The first ``n_transient`` iterations are discarded; one more guarded
    run records the window.  Escape is a distinguished outcome, not an
    error: the orbit carries the escape step and the samples before it.
    """
    if n_transient < 0 or n_keep < 0:
        raise ValueError("n_transient and n_keep must be non-negative")
    S, I, k = _advance(p, x0, n_transient)
    if k is not None:
        return Orbit(states=np.empty((0, 2)), escaped_at=k)
    out = np.empty((n_keep, 2), dtype=np.float64)
    _, _, k = _advance(p, (S, I), n_keep, out)
    if k is not None:
        return Orbit(states=out[:k].copy(), escaped_at=n_transient + k)
    return Orbit(states=out, escaped_at=None)
