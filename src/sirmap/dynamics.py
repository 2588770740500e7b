"""Orbit-level machinery: Lyapunov exponents, periods, scans, cycle births.

Heavy loops are plain-float Python: the work runs one orbit at a time
(one per scan row, per Lyapunov estimate, per cycle birth), where numpy
array overhead would dominate.  numpy is imported only inside
:func:`detect_period`, :func:`scan` and :func:`find_cycle_births`.

Plain-map stretches run through ``core._advance``.  :func:`_tangent`
fuses the map step, its Jacobian, one normalised tangent vector and
``|det J|`` for ``lyapunov`` and ``scan``.  The ``|det J|`` part (the log
sum of ``r22``) runs only for the caller that reads it, the main
``lyapunov`` run; ``scan`` and the frame warm-up pass ``det=False``.  Its
step forms the incidence as ``phi * I``, which rounds differently from
``core.step``, and the scan and Lyapunov outputs follow that orbit bit
for bit.  Like ``_advance``, it stops at the first bit-exact repeat of
its state (the orbit point, the vector and its lost flag) and replays one
turn's log stretches one step at a time, so the sums are those of the
every-step loop.  It packs a state to bits only after S, the vector's q2
and I compare equal, as floats, to the kept state's.
"""
from __future__ import annotations

import itertools
import math
import struct
from dataclasses import dataclass, field, replace

from .core import (
    DIVERGENCE_BOUND,
    DivergenceError,
    ModelParams,
    Orbit,
    _DEFAULT_MAX_PERIOD,
    _DEFAULT_TRANSIENT,
    _TOL_CYCLE,
    _advance,
)

__all__ = [
    "lyapunov",
    "detect_period",
    "ScanResult",
    "scan",
    "CycleBirth",
    "find_cycle_births",
    "sharkovskii_precedes",
]


_START = (1.0, 0.0)  # tangent vector (q1, q2)
_FRAME_WARMUP = 2000

#: The bit pattern of a tangent state ``(S, I, q1, q2, lost)``, signed zeros
#: included, as ``core._bits`` is of a map state.
_tangent_bits = struct.Struct("<4d?").pack


def _tangent(p: ModelParams, x0, frame, n: int, out: np.ndarray | None = None, *, det=True):
    """Run ``n`` guarded steps of the map and its normalised tangent vector.

    Returns ``(S, I, frame, log_r11, log_r22, escaped_at)``: log sums over the
    steps run of the vector's stretch ``r11`` and of ``|det J| / r11``, the
    ``r22`` of a two-column QR; ``escaped_at`` is as in ``core._advance``,
    a state on the pole ``1 + a*S = 0`` included.  With ``det=False`` no
    step forms, clamps, logs or sums ``r22``, and ``log_r22`` is ``None``;
    every other result has the bits of the ``det=True`` run.
    Row ``k < len(out)`` of ``out``, if given, receives the state before step ``k``.

    A vector mapped exactly to zero is lost in the kernel of ``J``, as the
    first QR column would be: ``r11`` stays at its clamp for the rest of
    the call, and the vector, restarted on its perpendicular, carries the
    second column, whose stretch is ``r22``.

    Past the rows of ``out`` the whole tangent state ``(S, I, q1, q2,
    lost)`` is kept at step ``max(len(out), 1)`` and at each doubling of
    that step, Brent's schedule as in ``core._advance``.  At its first
    bit-equal repeat, signed zeros included, the state goes round a cycle of
    length ``L`` for good, every state of it past the guard.  If more than
    ``L`` steps remain, one more turn runs and records each step's log
    increments (the ``r22`` one is ``None`` with ``det=False``) and the state
    after it (O(L) memory); the steps left then add the recorded increments
    to the sums one at a time, in order, as the full loop would (a turn is
    never summed ahead: float addition is not associative), and end on the
    recorded state of their phase.
    """
    S, I = x0
    r, beta, a, K = p.r, p.beta, p.a, p.K
    q1, q2 = frame
    m = 0 if out is None else out.shape[0]
    bound, tiny, hypot, log = DIVERGENCE_BOUND, 1.0e-300, math.hypot, math.log
    two_r, retain = 2.0 * r, 1.0 - K
    low, high = -0.5 * bound, 0.5 * bound  # the guard's fast box, as in core._advance
    s1, s2, d2 = 0.0, 0.0 if det else None, None
    lost = False
    # the kept state and the next step to keep, as in core._advance; `turn`
    # records (d1, d2, state) per step once the kept state comes round
    kept, next_keep, bits_kept = 0, 0 if m else 1, b""
    S_kept = I_kept = q2_kept = math.nan
    turn = None
    try:
        for k in range(n):
            if not (low <= S <= high and low <= I <= high) and not (abs(S) + abs(I) <= bound):
                return S, I, (q1, q2), s1, s2, k
            # S can sit still while the vector turns or I decays to the
            # axis: compare q2 and I too before packing the bits
            if (
                S == S_kept
                and q2 == q2_kept
                and I == I_kept
                and _tangent_bits(S, I, q1, q2, lost) == bits_kept
            ):
                if turn:  # round once more: replay the recorded turn
                    rest = n - k
                    for d1, d2, _ in itertools.islice(itertools.cycle(turn), rest):
                        s1 += d1
                        if det:
                            s2 += d2
                    S, I, q1, q2 = turn[(rest - 1) % len(turn)][2]
                    return S, I, (q1, q2), s1, s2, None
                if n - k > k - kept:
                    turn = []
                next_keep = n
            if k >= next_keep:
                if k < m:
                    out[k, 0] = S
                    out[k, 1] = I
                else:
                    kept, next_keep, S_kept, I_kept, q2_kept = k, 2 * k, S, I, q2
                    bits_kept = _tangent_bits(S, I, q1, q2, lost)
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
            if stretch < tiny:
                if stretch == 0.0 and not lost:
                    # the vector fell into the kernel of J, as the first QR
                    # column would; from here on its perpendicular carries
                    # the second
                    lost, m1, m2, stretch = True, -q2, q1, 1.0
                else:
                    stretch = tiny
            q1, q2 = m1 / stretch, m2 / stretch
            if lost:  # r11 stays at its clamp; the stretch is r22
                d1, r22 = log(tiny), stretch
            else:
                d1 = log(stretch)
                if det:
                    r22 = abs(j11 * j22 + phi * j21) / stretch
                    if r22 < tiny:
                        r22 = tiny
            s1 += d1
            if det:
                d2 = log(r22)
                s2 += d2
            if turn is not None:
                turn.append((d1, d2, (S, I, q1, q2)))
    except ZeroDivisionError:  # state k sits on the pole 1 + a*S = 0
        return S, I, (q1, q2), s1, s2, k
    return S, I, (q1, q2), s1, s2, None


def lyapunov(
    p: ModelParams,
    x0,
    n: int = 100_000,
    transient: int = _DEFAULT_TRANSIENT,
) -> tuple[float, float]:
    """Both Lyapunov exponents along the orbit of ``x0``.

    After ``transient`` iterations one tangent vector runs ``n`` steps; the
    exponents are its mean log stretch and the mean ``log|det J|`` (their sum,
    in a planar map) minus that.  Returns them in descending order.  Requires
    ``n >= 1000``; raises :class:`DivergenceError` (carrying the step index)
    if the orbit escapes.
    """
    if n < 1000:
        raise ValueError(f"need n >= 1000 for a meaningful estimate, got n={n}")
    if transient < 0:
        raise ValueError("transient must be non-negative")
    S, I, k = _advance(p, x0, transient)
    if k is not None:
        raise DivergenceError(k)
    # Warm up the tangent vector before averaging.  Starting along S next
    # to an invariant coordinate direction, it can need O(10^3) steps to
    # swing onto the dominant direction (the misalignment may start at
    # denormal size), which would otherwise leak a 1/n bias into both
    # exponents.  On the axis it stays on the axis direction: hence the sort.
    S, I, frame, _, _, k = _tangent(p, (S, I), _START, _FRAME_WARMUP, det=False)
    if k is not None:
        raise DivergenceError(transient + k)
    _, _, _, s1, s2, k = _tangent(p, (S, I), frame, n)
    if k is not None:
        raise DivergenceError(transient + _FRAME_WARMUP + k)
    l1, l2 = s1 / n, s2 / n
    return (l1, l2) if l1 >= l2 else (l2, l1)


def detect_period(orbit, max_period: int = _DEFAULT_MAX_PERIOD) -> int | None:
    """Smallest period ``<= max_period`` the samples settle on, else None.

    A period ``q`` is accepted when ``|x[i+q] - x[i]|`` stays below
    ``_TOL_CYCLE`` in the sup norm across the whole sample window.  The window
    must hold at least ``4 * max_period`` samples.
    """
    import numpy as np

    pts = orbit.states if isinstance(orbit, Orbit) else np.asarray(orbit, dtype=np.float64)
    if pts.ndim != 2 or pts.shape[1] != 2:
        raise ValueError("orbit must be an (n, 2) array of samples")
    if pts.shape[0] < 4 * max_period:
        raise ValueError(
            f"need at least {4 * max_period} samples to resolve periods up to "
            f"{max_period}, got {pts.shape[0]}"
        )
    for q in range(1, max_period + 1):
        if float(np.max(np.abs(pts[q:] - pts[:-q]))) <= _TOL_CYCLE:
            return q
    return None


@dataclass(frozen=True)
class ScanResult:
    """Output of a one-parameter attractor scan.

    Rows are ordered by parameter value.  Escaped rows carry NaN samples
    and a ``(row, step)`` entry in ``escapes``, where ``step`` counts
    iterations from that row's starting state.
    """

    parameter: str
    values: np.ndarray
    s_samples: np.ndarray
    i_samples: np.ndarray
    lyap_max: np.ndarray
    escapes: list[tuple[int, int]] = field(default_factory=list)


_SCANNABLE = ("r", "beta", "a", "K")


def scan(
    p: ModelParams,
    parameter_name: str,
    prange: tuple[float, float],
    steps: int,
    x0=(0.5, 0.1),
    transient: int = _DEFAULT_TRANSIENT,
    keep: int = 100,
) -> ScanResult:
    """Sweep one parameter, recording attractor samples and lyap_max.

    Each row warm-starts from the previous row's final state so that
    attractor branches are followed continuously; after an escape the
    next row falls back to the cold start ``x0``.  A grid value outside
    the model's domain raises ``ValueError`` (the first such value's
    :class:`ModelParams` message) before any row runs.
    """
    if parameter_name not in _SCANNABLE:
        raise ValueError(f"parameter_name must be one of {_SCANNABLE}, got {parameter_name!r}")
    if steps < 1:
        raise ValueError("steps must be >= 1")
    if keep < 1:
        raise ValueError("keep must be >= 1")
    if transient < 0:
        raise ValueError("transient must be non-negative")
    import numpy as np

    lo, hi = prange
    with np.errstate(over="ignore", invalid="ignore"):
        values = np.linspace(lo, hi, steps)
    if not (math.isfinite(lo) and math.isfinite(hi) and np.isfinite(values).all()):
        raise ValueError(f"require a finite scan range and grid, got prange=({lo}, {hi})")
    # every row's parameters first: a grid that leaves the model's domain
    # is refused before any row runs
    row_params = [replace(p, **{parameter_name: val}) for val in values.tolist()]
    samples = np.full((steps, keep, 2), np.nan)
    lyap_max = np.full(steps, np.nan)
    escapes: list[tuple[int, int]] = []

    cold = (float(x0[0]), float(x0[1]))
    state = cold
    n_lyap = max(keep, 1000)
    for row, q in enumerate(row_params):
        S, I, escaped_at = _advance(q, state, transient)
        if escaped_at is None:
            S, I, _, log_r11, _, k = _tangent(q, (S, I), _START, n_lyap, samples[row], det=False)
            if k is None:
                lyap_max[row] = log_r11 / n_lyap
            else:
                escaped_at = transient + k
        if escaped_at is not None:
            escapes.append((row, escaped_at))
            samples[row] = np.nan
            state = cold
        else:
            state = (S, I)

    return ScanResult(
        parameter=parameter_name,
        values=values,
        s_samples=np.ascontiguousarray(samples[:, :, 0]),
        i_samples=np.ascontiguousarray(samples[:, :, 1]),
        lyap_max=lyap_max,
        escapes=escapes,
    )


@dataclass(frozen=True)
class CycleBirth:
    """Parameter values where period-n orbits of the axis map are born.

    ``r_values`` is sorted and ``kinds`` is aligned with it: a
    ``"saddle-node"`` birth creates a pair of period-n orbits, where
    ``f^n(x) = x`` and ``(f^n)'(x) = 1``; a ``"period-doubling"`` birth
    (even n only) sheds one from the n/2-cycle, where ``f^(n/2)(x) = x``
    and ``(f^(n/2))'(x) = -1``.
    """

    n: int
    r_values: np.ndarray
    kinds: tuple[str, ...]


def _tangency_residual(n: int, x0: float, r: float):
    """``(f^n(x0) - x0, u, s, v, m)`` for ``f(x) = r x (1 - x)``.

    ``u = (f^n)'(x0)``, ``s = d f^n / dr``, ``v = du/dx0`` and
    ``m = du/dr``, carried forward along the orbit.
    """
    x, u, s, v, m = x0, 1.0, 0.0, 0.0, 0.0
    fxx = -2.0 * r
    for _ in range(n):
        fxr = 1.0 - 2.0 * x
        fx = r * fxr
        v = fxx * u * u + fx * v
        m = fxx * u * s + fxr * u + fx * m
        s = fx * s + x * (1.0 - x)
        u = fx * u
        x = r * x * (1.0 - x)
    return x - x0, u, s, v, m


def _superstable(word: str) -> float | None:
    """The r at which 1/2 visits the sides ``word`` (L/R of 1/2) and returns.

    Metropolis-Stein-Stein inverse iteration from r = 4: pull 1/2 back
    along the word to the critical value r/4 and take 4 times it as the
    next r, until the change stops shrinking.  A word that is not
    admissible meets a negative square root, which gives None.
    """
    r, last = 4.0, math.inf
    while True:
        x = 0.5
        for side in reversed(word):
            d = 0.25 - x / r
            if d < 0.0:
                return None
            x = 0.5 + math.sqrt(d) if side == "R" else 0.5 - math.sqrt(d)
        change = abs(4.0 * x - r)
        r = 4.0 * x
        if change >= last:
            return r
        last = change


def _superstable_words(m: int) -> list[tuple[str, float]]:
    """Every admissible period-m word with its superstable r."""
    found = []
    for letters in itertools.product("LR", repeat=m - 1):
        word = "".join(letters)
        r = _superstable(word)
        if r is not None:
            found.append((word, r))
    return found


def _birth(n: int, r: float, multiplier: float) -> float:
    """Solve ``f^n(x) = x, (f^n)'(x) = multiplier`` by Newton from (1/2, r).

    ``r`` is superstable for period n, so the start solves the system
    with multiplier 0.  Raises if the iteration does not converge.
    """
    x = 0.5
    # every word up to n = 14 converges in at most 6 steps; after a step
    # below 1e-14 the quadratic error is below rounding
    for _ in range(50):
        g, u, s, v, m = _tangency_residual(n, x, r)
        h = u - multiplier
        det = (u - 1.0) * m - s * v
        dx = (m * g - s * h) / det
        dr = ((u - 1.0) * h - v * g) / det
        x -= dx
        r -= dr
        if abs(dx) <= 1.0e-14 and abs(dr) <= 1.0e-14:
            return r
    raise ArithmeticError(f"no period-{n} orbit with multiplier {multiplier} near r = {r}")


def find_cycle_births(
    n: int,
    r_window: tuple[float, float] = (3.0, 4.0),
    n_r_seeds: int = 400,
    n_x_seeds: int = 400,
    newton_iters: int = 60,
) -> CycleBirth:
    """Every birth of a period-n orbit of the axis (logistic) map in ``r_window``.

    On the invariant axis I = 0 the map reduces to ``f(x) = r x (1 - x)``.
    Each birth makes an orbit that is stable for a while and superstable
    (passing through 1/2) at one r, and the sides of 1/2 that its other
    points visit spell an admissible word (Metropolis, Stein & Stein,
    J. Combin. Theory A 15 (1973) 25-44).  So the births are enumerated
    from the words: every period-n word that is not the harmonic
    ``V mu V`` of a period-n/2 word ``V`` (``mu`` is L when ``V`` holds an
    odd number of R's, else R) gives a saddle-node, and every period-n/2
    word gives a period-doubling.  One Newton solve per birth takes the
    multiplier of the word's orbit from 0 at its superstable point to +1
    or -1; both are regular roots.  The window filters the solved births;
    a solve that does not converge raises.

    ``n`` must lie in 3..12 and the window inside (3, 4].  ``n_r_seeds``,
    ``n_x_seeds`` and ``newton_iters`` are ignored.  They stay because the
    benchmark tracer (``bench/tracer.py``) reads them from each call's
    bound arguments to count a traced run's work; without them every
    traced ``births`` run would raise ``KeyError``.
    """
    if not isinstance(n, int) or not 3 <= n <= 12:
        raise ValueError(f"n must be an integer in 3..12, got {n}")
    lo, hi = float(r_window[0]), float(r_window[1])
    if not (3.0 <= lo < hi <= 4.0):
        raise ValueError(f"r_window must sit inside (3, 4], got {r_window}")
    import numpy as np

    births, harmonics = [], set()
    for v, r in _superstable_words(n // 2) if n % 2 == 0 else []:
        births.append((_birth(n // 2, r, -1.0), "period-doubling"))
        harmonics.add(v + ("L" if v.count("R") % 2 else "R") + v)
    for w, r in _superstable_words(n):
        if w not in harmonics:
            births.append((_birth(n, r, 1.0), "saddle-node"))
    births = sorted(b for b in births if lo <= b[0] <= hi)
    return CycleBirth(
        n=n, r_values=np.array([r for r, _ in births]), kinds=tuple(k for _, k in births)
    )


def _sharkovskii_key(k: int) -> tuple:
    """The place of k in the Sharkovskii order, as a sort key.

    ``(0, s, q)`` for ``k = 2^s * q`` with odd ``q > 1``, and ``(1, -s)``
    for ``k = 2^s``: the odd multiples first, by power of two and then by
    odd part, and the powers of two last, in descending order.
    """
    s = 0
    while k % 2 == 0:
        k //= 2
        s += 1
    return (0, s, k) if k > 1 else (1, -s)


def sharkovskii_precedes(m: int, n: int) -> bool:
    """Whether m comes strictly before n in the Sharkovskii order.

    The order runs through the odd numbers, then 2x the odds, then 4x
    the odds, and so on, finishing with the powers of two in descending
    order (..., 8, 4, 2, 1).  Irreflexive: k never precedes itself.
    """
    if not (isinstance(m, int) and isinstance(n, int)) or m < 1 or n < 1:
        raise ValueError("m and n must be positive integers")
    return _sharkovskii_key(m) < _sharkovskii_key(n)
