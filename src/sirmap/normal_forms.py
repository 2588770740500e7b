"""Normal-form coefficients at flip and Neimark-Sacker boundaries.

The map is polynomial apart from the saturating incidence factor, so the
second- and third-order terms of its Taylor expansion at any point are
available in closed form.  This module assembles them into the standard
critical coefficients:

* the cubic coefficient ``c`` at an eigenvalue -1 (flip) boundary,
  ``c = <p, C(q,q,q)>/6 - <p, B(q, (A-I)^{-1} B(q,q))>/2``,
  where a positive value means the emerging 2-cycle is stable;
* the first Lyapunov-type coefficient ``d`` at a Neimark-Sacker
  boundary, whose negative sign means the bifurcation is supercritical
  (a stable closed invariant curve branches off).

Flip coefficients are also available for the axis 2-cycle: there the
expansion is taken for the second iterate of the map, with the chain
rule applied exactly to the composed derivative tensors.

The per-point work is plain-float 2x2 algebra in one matrix format, the
flat tuple ``(m00, m01, m10, m11)`` of :mod:`sirmap.core`: the Jacobian
comes from ``core._jacobian_entries`` and the second and third partials
from ``core._curvature_entries`` (B a pair of flat 2x2s, C a pair of
pairs of them), contracted by the sums of :func:`_apply_B` and
:func:`_apply_C`; the one linear solve is Cramer's rule in
:func:`_solve2`, and :func:`_eigenpair` returns its eigenvectors as pairs
of scalars.  At the 2-cycle the flip coefficient reads
:func:`iterate_forms`' arrays with their last two axes merged into one
of length 4.  E1 with a complex eigenvalue pair, the one point both NS
functions read, comes from :func:`_complex_pair`.  numpy arrays remain
only in the public return types, the three tensors of
:class:`MultilinearForms` (reshaped from the flat tuples in
:func:`_point_tensors`) and ``NormalFormData.q`` and ``.p`` (built in
:func:`_normal_form`, the one place either coefficient's record is made),
and in :func:`iterate_forms`' chain-rule composition for k >= 2, where
they pay off.  numpy is imported only inside the functions that build
them.  Both records are NamedTuples, like those of
:mod:`sirmap.equilibria`.

Conventions, the same on the float and the array path: for real (flip)
data the pairing <p, x> is the plain dot product; for complex (NS) data it
is conjugate-linear in p, and the adjoint eigenvector satisfies
A^T p = conj(mu) p with <p, q> = 1.
"""
from __future__ import annotations

import cmath
import math
import sys
from typing import Literal, NamedTuple

from .core import ModelParams, State, TOL_HYP, _curvature_entries, _jacobian_entries, step
from .equilibria import (
    _NS_CURVE_TAGS,
    _RESONANCES,
    BoundaryTag,
    FixedPointReport,
    _eigen_quadratic,
    _endemic_boundary,
    _endemic_point,
    _residual,
)

__all__ = [
    "ResonanceError",
    "MultilinearForms",
    "NormalFormData",
    "shifted_forms",
    "iterate_forms",
    "flip_coefficient",
    "ns_coefficient",
    "rho_prime_at_ns",
    "RESONANCE_EXCLUSION",
]

#: Radius (in r) around the strong resonances where the NS coefficient
#: is refused rather than computed.
RESONANCE_EXCLUSION = 1.0e-6
#: Relative fixed-point residual bound for normal-form work: a residual
#: (sup norm) above ``TOL_RESIDUAL * max(1, |S|, |I|)`` is refused.
TOL_RESIDUAL = 1.0e-10


class ResonanceError(ValueError):
    """NS coefficient requested at (or too close to) a strong resonance."""

    def __init__(self, tag: BoundaryTag, r: float, r_star: float):
        self.tag = tag
        super().__init__(
            f"{tag.value} at r = {r_star:.12g}: the Neimark-Sacker coefficient "
            f"is undefined there (requested r = {r:.12g})"
        )


class MultilinearForms(NamedTuple):
    """Derivative tensors of a map at a point.

    ``A`` is the Jacobian, ``B`` the array of second partials indexed
    ``[component, j, k]``, and ``C`` the third partials
    ``[component, j, k, l]``.  ``B`` and ``C`` are symmetric in their
    trailing indices.
    """

    A: np.ndarray
    B: np.ndarray
    C: np.ndarray


def _form(M, x, y):
    """``sum_jk M[j][k] x_j y_k`` for a flat 2x2 ``M``; real or complex."""
    m00, m01, m10, m11 = M
    x0, x1 = x
    y0, y1 = y
    return (m00 * y0 + m01 * y1) * x0 + (m10 * y0 + m11 * y1) * x1


def _apply_B(B, x, y) -> tuple:
    """B(x, y) for ``B[i]`` a flat 2x2 over ``(j, k)``, as a pair."""
    return _form(B[0], x, y), _form(B[1], x, y)


def _apply_C(C, x, y, z) -> tuple:
    """C(x, y, z) for ``C[i][j]`` a flat 2x2 over ``(k, l)``, as a pair."""
    x0, x1 = x
    return tuple(_form(Ci[0], y, z) * x0 + _form(Ci[1], y, z) * x1 for Ci in C)


def _pair(u, v):
    """<u, v>, conjugate-linear in ``u`` (the plain dot product for real ``u``)."""
    return u[0].conjugate() * v[0] + u[1].conjugate() * v[1]


def _solve2(M, v) -> tuple:
    """The solution of M x = v for a flat 2x2 ``M``, by Cramer's rule."""
    m00, m01, m10, m11 = M
    v0, v1 = v
    det = m00 * m11 - m01 * m10
    return (v0 * m11 - m01 * v1) / det, (m00 * v1 - m10 * v0) / det


def _point_tensors(p: ModelParams, x) -> MultilinearForms:
    """Exact A, B, C of one map step at a point of floats, as arrays."""
    import numpy as np

    A, (B, C) = _jacobian_entries(p, *x), _curvature_entries(p, *x)
    return MultilinearForms(
        np.reshape(A, (2, 2)), np.reshape(B, (2, 2, 2)), np.reshape(C, (2, 2, 2, 2))
    )


def _fixed(p: ModelParams, x, k: int, residual: float = 0.0) -> State:
    """``x`` as a State of floats, once it passes as a point the k-th iterate fixes.

    The larger of ``residual`` (one the caller already holds) and the
    recomputed k-step residual must not exceed :data:`TOL_RESIDUAL` times
    ``max(1, |S|, |I|)``: a few ulp of a large coordinate pass.  The one
    residual check of normal-form work.
    """
    x = State(float(x[0]), float(x[1]))
    res = max(residual, _residual(p, x, k))
    bound = TOL_RESIDUAL * max(1.0, abs(x.S), abs(x.I))
    if res > bound:
        raise ValueError(
            f"normal-form work requires a fixed point: residual {res:.3e} "
            f"exceeds {bound:.1e} at {tuple(x)}"
        )
    return x


def shifted_forms(p: ModelParams, fp) -> MultilinearForms:
    """Derivative tensors of the map at a fixed point.

    ``fp`` must actually be fixed: a one-step residual above
    :data:`TOL_RESIDUAL` times ``max(1, |S|, |I|)`` raises ``ValueError``.
    These are the forms of the map shifted so the fixed point sits at the
    origin (shifting does not change derivatives).
    """
    return iterate_forms(p, _fixed(p, fp, 1), 1)


def iterate_forms(p: ModelParams, x, k: int) -> MultilinearForms:
    """Exact derivative tensors of the k-th iterate of the map at ``x``.

    Starts from the one-step tensors at ``x`` and composes those of each
    later orbit point with the chain rule for second and third
    derivatives.
    """
    if k < 1:
        raise ValueError("k must be >= 1")
    import numpy as np

    z = (float(x[0]), float(x[1]))
    forms = _point_tensors(p, z)
    A, B, C = forms.A, forms.B, forms.C
    for _ in range(k - 1):
        z = step(p, z)
        f = _point_tensors(p, z)
        # chain rule: the mixed term pairs the outer B with the inner B on
        # each of the three argument slots, keeping the tensor symmetric
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
    return MultilinearForms(A=A, B=B, C=C)


class NormalFormData(NamedTuple):
    """Critical eigendata and normal-form coefficient at a boundary.

    ``coefficient`` is the flip cubic coefficient ``c`` or the NS
    coefficient ``d`` depending on ``kind``.  ``q`` and ``p`` are the
    right and adjoint eigenvectors normalised so <p, q> = 1 (plain dot
    for flip, conjugate-linear in p for NS).  ``theta0`` is the crossing
    angle on the unit circle (NS only).
    """

    kind: Literal["flip", "ns"]
    coefficient: float
    eigenvalue: complex
    q: np.ndarray
    p: np.ndarray
    theta0: float | None

    @property
    def branch_stable(self) -> bool:
        """Whether the bifurcating object is stable.

        Flip: positive ``c`` gives a stable 2-cycle.  NS: negative
        ``d`` gives a stable closed invariant curve.
        """
        if self.kind == "flip":
            return self.coefficient > 0.0
        return self.coefficient < 0.0


def _normal_form(kind, coefficient, mu, q, pv, theta0=None) -> NormalFormData:
    """The record of a flip or NS ``coefficient`` at ``mu``, with ``q`` and ``pv`` as arrays."""
    import numpy as np

    return NormalFormData(kind, coefficient, mu, np.array(q), np.array(pv), theta0)


def _null_vector(M) -> tuple:
    """A unit solution of M v = 0 for a rank-1 flat 2x2 ``M``, real or complex."""
    m00, m01, m10, m11 = M
    n1 = math.sqrt((m01 * m01.conjugate() + m00 * m00.conjugate()).real)
    n2 = math.sqrt((m11 * m11.conjugate() + m10 * m10.conjugate()).real)
    (v0, v1), n = ((m01, -m00), n1) if n1 >= n2 else ((m11, -m10), n2)
    if n == 0.0:
        raise ValueError("matrix is zero; eigenvector not unique")
    return v0 / n, v1 / n


def _eigenpair(A, mu) -> tuple[tuple, tuple]:
    """Eigenvector ``q`` of a 2x2 ``A`` at ``mu`` and adjoint ``p``, <p, q> = 1.

    ``q`` has first component 1 (the second when the first vanishes), which
    fixes ``c`` and ``d``: both scale with |q|^2.  A^T p = conj(mu) p.  ``A``
    is a flat 2x2; ``q`` and ``p`` come back as pairs of scalars.
    """
    a11, a12, a21, a22 = A
    q0, q1 = _null_vector((a11 - mu, a12, a21, a22 - mu))
    s = q0 if abs(q0) > 1.0e-8 else q1
    q = (q0 / s, q1 / s)
    mu_bar = mu.conjugate()
    pv = _null_vector((a11 - mu_bar, a21, a12, a22 - mu_bar))
    s = _pair(pv, q)
    if abs(s) < 1.0e-12:
        raise ValueError("eigenvector pairing degenerate; normal-form coefficient undefined")
    s = s.conjugate()
    return q, (pv[0] / s, pv[1] / s)


def flip_coefficient(p: ModelParams, fp: FixedPointReport) -> NormalFormData:
    """Cubic normal-form coefficient at an eigenvalue -1 boundary.

    Accepts a report for the disease-free point, the endemic point, or
    one point of the axis 2-cycle; in the latter case the expansion is
    taken for the second iterate at that point.  Requires the report's
    residual and the recomputed one to stay within :data:`TOL_RESIDUAL`
    times ``max(1, |S|, |I|)``, the relevant Jacobian to have an eigenvalue
    -1 and ``A - I`` to be invertible; the eigenvectors are
    :func:`_eigenpair`'s at exactly -1.
    The eigenvalue test is ``|det(A + I)| <= TOL_HYP * max(1, |1 + mu_far|)``
    with ``mu_far`` the eigenvalue farther from -1: while ``mu_far`` is O(1)
    from -1 that puts the nearer one within about ``TOL_HYP`` of -1, and
    next to the 1:2 point, where both are near -1 and the nearer one's
    distance is ill-conditioned, it tests the well-conditioned ``det(A + I)``.
    ``cmd_analyze`` passes the endemic curve point: a flip tag allows beta
    ``TOL_BOUNDARY`` off, past ``TOL_HYP`` in the eigenvalue.
    """
    k = 2 if fp.kind == "period2" else 1
    x = _fixed(p, fp.location, k, fp.residual)
    if k == 1:
        A, (B, C) = _jacobian_entries(p, *x), _curvature_entries(p, *x)
    else:
        A, B, C = (f.reshape(*f.shape[:-2], 4).tolist() for f in iterate_forms(p, x, k))
    a11, a12, a21, a22 = A
    e = _eigen_quadratic(a11, a12, a21, a22)
    mu, far = sorted((e.mu1, e.mu2), key=lambda m: abs(m + 1.0))
    char = 1.0 + e.trace + e.det  # det(A + I) = (1 + mu)*(1 + far)
    if abs(char) > TOL_HYP * max(1.0, abs(1.0 + far)):
        raise ValueError(
            f"flip coefficient needs an eigenvalue -1: det(A + I) = {char:.3e} exceeds "
            f"{TOL_HYP:.1e} * max(1, |1 + far root|); closest is {mu:.12g}"
        )
    # det(A - I) = 1 - trace + det
    if abs(1.0 - e.trace + e.det) < 1.0e-10:
        raise ValueError("A - I is singular (fold degeneracy); flip coefficient undefined")

    q, pv = _eigenpair(A, -1.0)
    w = _solve2((a11 - 1.0, a12, a21, a22 - 1.0), _apply_B(B, q, q))
    c = _pair(pv, _apply_C(C, q, q, q)) / 6.0 - _pair(pv, _apply_B(B, q, w)) / 2.0
    return _normal_form("flip", c, mu, q, pv)


def _complex_pair(p: ModelParams) -> tuple:
    """``equilibria._endemic_point``'s E1, Jacobian entries and eigen data, at a complex pair.

    Raises ``ValueError`` where E1 is absent or its eigenvalues are real.
    """
    point = _endemic_point(p)
    if point is None:
        raise ValueError("endemic point absent at these parameters")
    if point[2].omega <= 0.0:
        raise ValueError("eigenvalues are real here; no Neimark-Sacker crossing")
    return point


def ns_coefficient(p: ModelParams) -> NormalFormData:
    """First coefficient ``d`` at the Neimark-Sacker boundary of E1.

    Accepts exactly the points that :func:`classify_boundary` tags as on
    the NS curve (the curve or one of its three strong resonances) and
    makes no on-curve test of its own; ``d`` is evaluated at ``p`` itself
    (``cmd_analyze`` passes the curve point).  The growth value must stay
    clear (by :data:`RESONANCE_EXCLUSION` in r) of the strong resonances at
    r_bar, r_tilde and r_max, where the coefficient is undefined; those are
    refused with :class:`ResonanceError` naming the resonance.  E1, its
    Jacobian and its eigenvalues come from :func:`_complex_pair`, which
    refuses real eigenvalues, and only the second and third derivatives
    from ``core._curvature_entries``, once E1 passes :func:`_fixed`, so no
    fixed-point report and no second Jacobian is built; the eigenvectors
    are :func:`_eigenpair`'s.
    """
    tag1, r_stars = _endemic_boundary(p)
    if tag1 not in _NS_CURVE_TAGS:
        found = f"tagged {tag1.value}" if tag1 else "untagged"
        raise ValueError(f"ns_coefficient requires E1 on the NS curve; it is {found} at {p}")
    # a resonance tag ends r_stars at its own growth, which lies within
    # TOL_BOUNDARY < RESONANCE_EXCLUSION of r: the screen stops there anyway
    for (_, tag), r_star in zip(_RESONANCES, r_stars):
        if abs(p.r - r_star) < RESONANCE_EXCLUSION:
            raise ResonanceError(tag, p.r, r_star)

    x, J, e = _complex_pair(p)
    B, C = _curvature_entries(p, *_fixed(p, x, 1))
    theta0 = math.atan2(e.omega, e.sigma)
    mu = complex(e.sigma, e.omega)

    a11, a12, a21, a22 = J
    q, pv = _eigenpair(J, mu)
    qbar = (q[0].conjugate(), q[1].conjugate())
    t1 = _pair(pv, _apply_C(C, q, q, qbar))
    # The middle resolvent must be (I - A), not (A - I): only that branch
    # agrees with the scalar Poincare normal-form coefficient
    #   Re(e^{-i theta} g21/2) - Re((1-2L)e^{-2i theta}/(2(1-L)) g20 g11)
    #   - |g11|^2/2 - |g02|^2/4,  L = e^{i theta},
    # and with simulated orbits near the boundary (attracting closed
    # curve on the unstable side exactly when d < 0).
    w1 = _solve2((1.0 - a11, -a12, -a21, 1.0 - a22), _apply_B(B, q, qbar))
    t2 = 2.0 * _pair(pv, _apply_B(B, q, w1))
    z = cmath.exp(2.0j * theta0)
    w2 = _solve2((z - a11, -a12, -a21, z - a22), _apply_B(B, q, q))
    t3 = _pair(pv, _apply_B(B, qbar, w2))
    d = 0.5 * (cmath.exp(-1.0j * theta0) * (t1 + t2 + t3)).real
    return _normal_form("ns", d, mu, q, pv, theta0)


def rho_prime_at_ns(p: ModelParams) -> float:
    """d|mu|/d(beta) for the complex eigenvalue pair at E1, in closed form.

    At E1 the Jacobian has ``a22 = 1`` and ``a12 = -K``, so ``det J =
    a11 + K*a21`` and, while the pair is complex, ``|mu| = sqrt(det J)``.
    Its beta-derivative is ``(t1 - t2 + t3) / (2*sqrt(det J))`` with

        t1 = 2*K*r/(a*K - beta)**2,   t2 = K*(a*(r - 1) + r)/beta**2,
        t3 = K*da21 = K*K*(a*(r - 1) + r)/beta**2,

    ``t1 - t2`` being ``d a11/d beta``; all three are non-negative for
    r > 1.  The one E1 evaluation, :func:`_complex_pair`, gives the
    determinant and refuses real eigenvalues; no fixed-point report is built.  A non-zero value on the NS
    curve certifies the transversal unit-circle crossing.  The tests check
    the value against a 50-digit ``mpmath`` derivative of ``sqrt(det J(E1))``
    (``tests/oracles.mpmath_modulus_slope``).

    The slope is refused as vanishing when ``|t1 - t2 + t3|`` lies within
    the rounding error of its own evaluation.  With ``u = eps/2`` and the
    standard model of each operation, to first order t1 carries
    ``(5 + 2*k1)*u`` relative error, with ``k1 = a*K/(beta - a*K)`` the
    condition of the difference it squares; t2 carries ``6u``; t3 carries
    ``(5 + 2*k2)*u``, with ``k2 = (a + 1)*r/(a*(r - 1) + r)`` the condition
    of ``a - (a + 1)*r``.  The two sums add ``u*(t1 + t2)`` and
    ``u*(t1 + t2 + t3)``.  So the error is at most ``u*((7 + 2*k1)*t1 +
    8*t2 + (6 + 2*k2)*t3)``, below ``eps*(4*(t1 + t2 + t3) + k1*t1 +
    k2*t3)``.  The test takes twice that, for the second-order terms and a
    ``pow`` rounded within one ulp rather than half of one; at a = 0 it is
    ``8*eps*(t1 + t2 + t3)`` plus ``2*eps*t3``.  Being relative to the
    terms, it refuses at any scale of the parameters only what rounding
    cannot tell from zero.
    """
    e = _complex_pair(p)[2]

    r, beta, a, K = p.r, p.beta, p.a, p.K
    t1 = 2.0 * K * r / (a * K - beta) ** 2
    t2 = K * (a * (r - 1.0) + r) / beta**2
    da21 = -K * (a - (a + 1.0) * r) / beta**2
    t3 = K * da21
    slope = t1 - t2 + t3
    k1 = a * K / (beta - a * K)
    k2 = (a + 1.0) * r / (a * (r - 1.0) + r)
    if abs(slope) <= 2.0 * sys.float_info.epsilon * (4.0 * (t1 + t2 + t3) + k1 * t1 + k2 * t3):
        raise ValueError("modulus derivative vanishes; crossing is not transversal")
    return slope / (2.0 * math.sqrt(e.det))
