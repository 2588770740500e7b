"""Fixed points, stability thresholds, and bifurcation boundary labels.

The map has the disease-free fixed point E0 = ((r-1)/r, 0) and, once the
transmission strength crosses the fold threshold ``beta0``, the endemic
point E1 with both coordinates positive; the ratio ``beta/beta0`` is the
first of the two :func:`reproduction_candidates`.  Three threshold curves
in the (r, beta) plane organise the local bifurcations of E1:

* ``beta0``  -- E1 collides with E0 (eigenvalue +1),
* ``beta1``  -- E1 loses stability through eigenvalue -1 (3 < r < r_max),
* ``beta2``  -- a complex pair of eigenvalues crosses the unit circle.

On the ``beta2`` curve the crossing angle degenerates into strong
resonances at three special growth values ``r_bar < r_tilde < r_max``
(eigenvalue angle pi/2, 2*pi/3 and pi respectively).

Everything here is closed-form 2x2 work in plain floats: the four
Jacobian entries come from ``core._jacobian_entries`` and the eigenvalues
from the trace/determinant quadratic :func:`_eigen_quadratic`, never from
a general eigensolver or a numpy array; :func:`_mul` is the one product of
two flat 2x2 matrices, behind the period-2 cycle matrix and the probe's
trapping certificate.  E1 and its linearisation come from one site,
:func:`_endemic_point`, which :func:`endemic` and the E1 work of
:mod:`sirmap.normal_forms` read.  The records handed out
(:class:`EigenData`, :class:`FixedPointReport`, :class:`Thresholds`) are
NamedTuples, like ``core.State``: immutable, cheap to build on every
analysed point, and equal to plain tuples holding the same values.
"""
from __future__ import annotations

import math
import sys
from enum import Enum
from typing import Literal, NamedTuple

from .core import ModelParams, State, TOL_BOUNDARY, TOL_HYP, _jacobian_entries, step

__all__ = [
    "StabilityClass",
    "BoundaryTag",
    "EigenData",
    "FixedPointReport",
    "Thresholds",
    "disease_free",
    "endemic",
    "beta0_threshold",
    "reproduction_candidates",
    "beta1_formula",
    "beta2_threshold",
    "thresholds",
    "classify_boundary",
    "period2_branch",
]


class StabilityClass(Enum):
    STABLE_NODE = "stable node"
    STABLE_FOCUS = "stable focus"
    SADDLE = "saddle"
    UNSTABLE_NODE = "unstable node"
    UNSTABLE_FOCUS = "unstable focus"
    NON_HYPERBOLIC = "non-hyperbolic"


class BoundaryTag(Enum):
    FOLD = "fold"
    FLIP = "flip"
    NEIMARK_SACKER = "neimark-sacker"
    FOLD_FLIP = "fold-flip"
    RESONANCE_12 = "1:2 resonance"
    RESONANCE_13 = "1:3 resonance"
    RESONANCE_14 = "1:4 resonance"


#: The E1 tags of points on the Neimark-Sacker curve: the curve itself and
#: its three strong resonances.
_NS_CURVE_TAGS = (
    BoundaryTag.NEIMARK_SACKER,
    BoundaryTag.RESONANCE_12,
    BoundaryTag.RESONANCE_13,
    BoundaryTag.RESONANCE_14,
)
#: The strong resonances of the NS curve as (x, tag), in the order
#: :func:`classify_boundary` tests them; each sits at r = _resonance_growth(x).
_RESONANCES = (
    (4.0, BoundaryTag.RESONANCE_12),
    (3.0, BoundaryTag.RESONANCE_13),
    (2.0, BoundaryTag.RESONANCE_14),
)


class EigenData(NamedTuple):
    """Eigenvalues of a real 2x2 matrix via its trace and determinant.

    ``sigma`` is half the trace; ``omega`` the non-negative imaginary
    part of the pair (zero for real eigenvalues).
    """

    trace: float
    det: float
    mu1: complex
    mu2: complex
    sigma: float
    omega: float


def _eigen_quadratic(a11: float, a12: float, a21: float, a22: float) -> EigenData:
    """Eigen data of the real 2x2 matrix ((a11, a12), (a21, a22)) from its quadratic."""
    T = a11 + a22
    D = a11 * a22 - a12 * a21
    disc = T * T / 4.0 - D
    sigma = T / 2.0
    if disc >= 0.0:
        root = math.sqrt(disc)
        mu1 = complex(sigma + root, 0.0)
        mu2 = complex(sigma - root, 0.0)
        omega = 0.0
    else:
        omega = math.sqrt(-disc)
        mu1 = complex(sigma, omega)
        mu2 = complex(sigma, -omega)
    return EigenData(T, D, mu1, mu2, sigma, omega)


def _classify(e: EigenData) -> StabilityClass:
    m1, m2 = abs(e.mu1), abs(e.mu2)
    if abs(m1 - 1.0) <= TOL_HYP or abs(m2 - 1.0) <= TOL_HYP:
        return StabilityClass.NON_HYPERBOLIC
    if e.omega > 0.0:
        return StabilityClass.STABLE_FOCUS if m1 < 1.0 else StabilityClass.UNSTABLE_FOCUS
    if m1 < 1.0 and m2 < 1.0:
        return StabilityClass.STABLE_NODE
    if m1 > 1.0 and m2 > 1.0:
        return StabilityClass.UNSTABLE_NODE
    return StabilityClass.SADDLE


FixedPointKind = Literal["disease_free", "endemic", "period2"]


class FixedPointReport(NamedTuple):
    """A located fixed (or periodic) point with its local linearisation.

    ``boundary`` is the :func:`classify_boundary` tag of E0 or E1 (None for
    the period-2 points).  A tagged point is non-hyperbolic whatever its
    eigenvalue band says, so the stability class and the tag cannot disagree.
    """

    kind: FixedPointKind
    location: State
    eigen: EigenData
    stability: StabilityClass
    residual: float
    boundary: BoundaryTag | None = None


def _residual(p: ModelParams, x: State, k: int = 1) -> float:
    """Sup-norm distance between ``x`` and its image under ``k`` map steps."""
    y = x
    for _ in range(k):
        y = step(p, y)
    return max(abs(y.S - x.S), abs(y.I - x.I))


def _report(
    p: ModelParams,
    kind: FixedPointKind,
    x: State,
    e: EigenData,
    k: int = 1,
    tag: BoundaryTag | None = None,
) -> FixedPointReport:
    """Report on a point fixed by the k-th iterate, classified from ``e`` and ``tag``."""
    stability = StabilityClass.NON_HYPERBOLIC if tag is not None else _classify(e)
    return FixedPointReport(kind, x, e, stability, _residual(p, x, k), tag)


def disease_free(p: ModelParams) -> FixedPointReport:
    """Report on the disease-free fixed point E0 = ((r-1)/r, 0).

    Its eigenvalues are available exactly: ``2 - r`` along the
    susceptible axis and ``1 - K + beta*(r-1)/(r + a*(r-1))`` transverse
    to it.  Raises ``ValueError`` when E0 sits on the pole ``1 + a*S = 0``
    of the incidence term, that is where ``r + a*(r-1) = 0`` (only for
    ``r < 1``).
    """
    r = p.r
    S0 = (r - 1.0) / r
    loc = State(S0, 0.0)
    lam1 = 2.0 - r
    try:
        lam2 = 1.0 - p.K + p.beta * (r - 1.0) / (r + p.a * (r - 1.0))
        e = EigenData(
            lam1 + lam2, lam1 * lam2, complex(lam1), complex(lam2), (lam1 + lam2) / 2.0, 0.0
        )
        # the residual steps E0 through the incidence term too
        return _report(p, "disease_free", loc, e, tag=classify_boundary(p, "E0"))
    except ZeroDivisionError:
        raise ValueError(
            f"E0 = ({S0!r}, 0) sits on the pole 1 + a*S = 0 of the incidence term "
            f"(r + a*(r - 1) = 0 at r={r}, a={p.a})"
        ) from None


def _endemic_point(p: ModelParams) -> tuple[State, tuple, EigenData] | None:
    """E1, its Jacobian entries ``(a11, a12, a21, a22)`` and their eigen data, or ``None``.

    E1 = ``(K/(beta - a*K), (r-1)/(beta - a*K) - r*K/(beta - a*K)^2)``.
    Requires ``r > 1``; ``None`` at or below the fold ``beta <= beta0``.
    The one site that locates and linearises E1.
    """
    if not p.r > 1.0:
        raise ValueError(f"endemic analysis requires r > 1, got r={p.r}")
    if not p.beta > beta0_threshold(p.r, p.a, p.K):
        return None
    den = p.beta - p.a * p.K
    x = State(p.K / den, (p.r - 1.0) / den - p.r * p.K / (den * den))
    entries = _jacobian_entries(p, *x)
    return x, entries, _eigen_quadratic(*entries)


def endemic(p: ModelParams) -> FixedPointReport | None:
    """Report on the endemic fixed point E1, or ``None`` below the fold.

    Requires ``r > 1``.  E1 exists (with both coordinates positive)
    exactly when ``beta > beta0``; at or below the threshold ``None`` is
    returned.
    """
    point = _endemic_point(p)
    if point is None:
        return None
    x, _, e = point
    return _report(p, "endemic", x, e, tag=classify_boundary(p, "E1"))


# ---------------------------------------------------------------------------
# threshold curves


def beta0_threshold(r: float, a: float, K: float) -> float:
    """Fold threshold: E1 branches off E0 as beta crosses this value."""
    return K * (r + a * (r - 1.0)) / (r - 1.0)


def reproduction_candidates(p: ModelParams) -> tuple[float, float]:
    """Two candidate reproduction numbers, requires r > 1.

    The first is ``beta * (r-1) / (K * (r + a*(r-1)))``, i.e. the ratio
    of beta to the fold threshold, so it crosses 1 exactly when the
    endemic point appears.  The second, ``beta / ((a+1)*K)``, bounds the
    first from above and is 1-homogeneous in beta.
    """
    if not p.r > 1.0:
        raise ValueError(f"reproduction candidates require r > 1, got r={p.r}")
    ra = p.beta / beta0_threshold(p.r, p.a, p.K)
    rb = p.beta / ((p.a + 1.0) * p.K)
    return float(ra), float(rb)


def beta1_formula(r: float, a: float, K: float) -> float:
    """Raw flip-threshold expression, evaluated without the r-gate.

    The curve is meaningful for 3 < r < r_max, but the closed form is
    defined on a wider range; keeping it separate lets the junctions
    with the other curves be checked directly (it meets ``beta0`` at
    r = 3 and ``beta2`` at r = r_max).
    """
    g = 4.0 + K * (r - 1.0)
    first = K * (2.0 * a * (3.0 + K * (r - 1.0) - r) + (K + 2.0) * r) / g
    inner = (
        (K + 2.0) ** 2 * r * r
        + 4.0 * a * a * (r + 1.0) ** 2
        + 4.0 * a * r * (14.0 - 5.0 * K - 2.0 * r + 3.0 * K * r)
    )
    # below the normal range K*K has lost bits, or is 0: take K out of the root
    root = math.sqrt(K * K * inner) if K * K >= sys.float_info.min else K * math.sqrt(inner)
    return 0.5 * (first + root / g)


def beta2_threshold(r: float, a: float, K: float) -> float:
    """Neimark-Sacker threshold: det of the E1 Jacobian equals one here.

    The radicand ``a^2 + 2aq(3K - 1) + q^2 (K + 1)^2`` cancels near
    ``a = q(1 - 3K)`` for small K; where it keeps less than a quarter of
    its square terms, it is taken in the equal form
    ``(a - q(1 - 3K))^2 + 8K(1 - K)q^2``, whose terms are both positive.
    """
    q = r / (r - 1.0)
    aa, qq = a * a, q * q * (K + 1.0) ** 2
    inner = aa + 2.0 * a * q * (3.0 * K - 1.0) + qq
    if inner < 0.25 * (aa + qq):
        inner = (a - q * (1.0 - 3.0 * K)) ** 2 + 8.0 * K * (1.0 - K) * q * q
    return 0.5 * (a * (2.0 * K - 1.0) + q * (K + 1.0) + math.sqrt(inner))


def _resonance_growth(x: float, a: float, K: float) -> float:
    """Growth value on the NS curve where ``1 + trace = 2 - x/2``.

    ``x = 2, 3, 4`` give the 1:4, 1:3 and 1:2 resonance loci (eigenvalue
    angles pi/2, 2*pi/3, pi); the last one, ``_resonance_growth(4)``, is
    the endpoint r_max of the flip and NS curves.
    """
    lin = (a * x + K * (x + 1.0) + x) / (2.0 * K)
    inner = (
        a * a * x * x
        + 2.0 * a * x * (K * (3.0 * x - 1.0) - x)
        + (K * (x + 1.0) + x) ** 2
    )
    KK = K * K
    # below the normal range K*K has lost bits, or is 0: divide the root by K
    root = math.sqrt(inner / KK) if KK >= sys.float_info.min else math.sqrt(inner) / K
    return lin + 0.5 * root


class Thresholds(NamedTuple):
    """Threshold curves of E1 at fixed (r, a, K).

    ``beta1`` is populated only on the flip branch 3 < r < r_max; the
    raw expression remains available as :func:`beta1_formula`.
    """

    beta0: float
    beta1: float | None
    beta2: float
    r_bar: float
    r_tilde: float
    r_max: float


def thresholds(r: float, a: float, K: float) -> Thresholds:
    """Evaluate all threshold data at a growth value ``r > 1``."""
    if not r > 1.0:
        raise ValueError(f"thresholds require r > 1, got r={r}")
    if r == math.inf:
        raise ValueError(f"require finite r, got r={r}")
    if a < 0:
        raise ValueError(f"require a >= 0, got a={a}")
    if not a < math.inf:
        raise ValueError(f"require finite a, got a={a}")
    if not 0 < K < 1:
        raise ValueError(f"require 0 < K < 1, got K={K}")
    r_max = _resonance_growth(4.0, a, K)
    b1 = beta1_formula(r, a, K) if 3.0 < r < r_max else None
    return Thresholds(
        beta0_threshold(r, a, K),
        b1,
        beta2_threshold(r, a, K),
        _resonance_growth(2.0, a, K),  # r_bar
        _resonance_growth(3.0, a, K),  # r_tilde
        r_max,
    )


def classify_boundary(p: ModelParams, which: Literal["E0", "E1"]) -> BoundaryTag | None:
    """Label the codimension-1/2 boundary passing through ``p``, if any.

    Matching is absolute within ``TOL_BOUNDARY`` on both r and beta.  A
    point can lie within that band of more than one curve (next to the 1:2
    point the flip and NS curves come within 1e-9 of each other), so the
    first match in this order wins:

    1. codim-2 points: the fold-flip corner at (r, beta) = (3, beta0), and
       the 1:2 / 1:3 / 1:4 resonances on the NS curve at r_max, r_tilde
       and r_bar;
    2. the NS curve ``beta2`` for 1 < r < r_max;
    3. the fold ``beta0`` for 1 < r < 3;
    4. the flip curve ``beta1`` for 3 < r < r_max.

    The tag places ``p`` in the (r, beta) plane; it does not look at the
    eigenvalues, which within the band may sit on either side of the
    real/complex split.  For E0 the order is the fold at r = 1, the
    fold-flip corner, the flip along r = 3 below beta0, then the fold
    along beta0.
    """
    r, beta, a, K, tol = p.r, p.beta, p.a, p.K, TOL_BOUNDARY
    if which == "E0":
        if abs(r - 1.0) <= tol:
            return BoundaryTag.FOLD
        if r <= 1.0:
            return None
        b0 = beta0_threshold(r, a, K)
        if abs(r - 3.0) <= tol and abs(beta - b0) <= tol:
            return BoundaryTag.FOLD_FLIP
        if abs(r - 3.0) <= tol and beta < b0:
            return BoundaryTag.FLIP
        if abs(beta - b0) <= tol and 1.0 < r < 3.0:
            return BoundaryTag.FOLD
        return None
    if which == "E1":
        return _endemic_boundary(p)[0]
    raise ValueError(f"which must be 'E0' or 'E1', got {which!r}")


def _endemic_boundary(p: ModelParams) -> tuple[BoundaryTag | None, tuple[float, ...]]:
    """The E1 tag of :func:`classify_boundary`, and the resonance growths it evaluated.

    The growths follow :data:`_RESONANCES` up to the first that matched r,
    so on the NS curve they run to the tag's own resonance or through all
    three; off it they are empty.  Each is evaluated once.
    """
    r, beta, a, K, tol = p.r, p.beta, p.a, p.K, TOL_BOUNDARY
    if r <= 1.0 + tol:
        return None, ()
    # the curves of ``thresholds``, each evaluated only where the decision
    # reaches it: every endemic() report runs this
    b0 = beta0_threshold(r, a, K)
    if abs(r - 3.0) <= tol and abs(beta - b0) <= tol:
        return BoundaryTag.FOLD_FLIP, ()
    r_max = _resonance_growth(4.0, a, K)
    if abs(beta - beta2_threshold(r, a, K)) <= tol:
        r_stars = ()
        for x, tag in _RESONANCES:
            # the 1:2 point is the r_max just evaluated
            r_stars += (r_max if x == 4.0 else _resonance_growth(x, a, K),)
            if abs(r - r_stars[-1]) <= tol:
                return tag, r_stars
        if 1.0 < r < r_max:
            return BoundaryTag.NEIMARK_SACKER, r_stars
    if abs(beta - b0) <= tol and 1.0 < r < 3.0:
        return BoundaryTag.FOLD, ()
    if 3.0 < r < r_max and abs(beta - beta1_formula(r, a, K)) <= tol:
        return BoundaryTag.FLIP, ()
    return None, ()


def _mul(m, n) -> tuple:
    """The product of two flat 2x2 matrices ``(m00, m01, m10, m11)``."""
    m00, m01, m10, m11 = m
    n00, n01, n10, n11 = n
    return (
        m00 * n00 + m01 * n10, m00 * n01 + m01 * n11,
        m10 * n00 + m11 * n10, m10 * n01 + m11 * n11,
    )


def period2_branch(p: ModelParams) -> tuple[FixedPointReport, FixedPointReport]:
    """The axis 2-cycle born at r = 3, as two period-2 reports.

    Requires ``r >= 3``.  The two points sit on the invariant axis
    I = 0 at ``S = (1 + r -/+ sqrt((r-3)*(r+1)))/(2r)``; the first
    report is the smaller-S point.  Eigen data comes from the product
    of the map's Jacobians around the cycle, so one eigenvalue is the
    logistic multiplier ``4 - r*(r-2)`` and the other is transverse.

    Up to r = 4.5 the points are taken in that form, where the smaller
    one loses at most a bit to the difference.  Past it, where that
    difference cancels (to 0 by r = 1e150) and ``(r-3)*(r+1)`` overflows
    past r ~ 1.3e154, they are taken with w = 1/r as
    ``S+ = (1 + w + sqrt((1 - 3w)(1 + w)))/2`` and, from the product of
    the roots ``(r + 1)/r^2``, ``S- = w*(1 + w)/S+``; nothing there
    cancels (1 - 3w > 1/3) or leaves the float range.
    """
    r = p.r
    if r < 3.0:
        raise ValueError(f"the 2-cycle branch requires r >= 3, got r={r}")
    if r <= 4.5:
        root = math.sqrt(max((r - 3.0) * (r + 1.0), 0.0))
        s_minus = (1.0 + r - root) / (2.0 * r)
        s_plus = (1.0 + r + root) / (2.0 * r)
    else:
        w = 1.0 / r
        s_plus = 0.5 * (1.0 + w + math.sqrt((1.0 - 3.0 * w) * (1.0 + w)))
        s_minus = w * (1.0 + w) / s_plus
    x_minus = State(s_minus, 0.0)
    x_plus = State(s_plus, 0.0)
    J_plus, J_minus = _jacobian_entries(p, s_plus, 0.0), _jacobian_entries(p, s_minus, 0.0)
    e = _eigen_quadratic(*_mul(J_plus, J_minus))
    return _report(p, "period2", x_minus, e, 2), _report(p, "period2", x_plus, e, 2)
