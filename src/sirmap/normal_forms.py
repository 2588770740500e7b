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

Conventions: for real (flip) data the pairing <p, x> is the plain dot
product; for complex (NS) data it is conjugate-linear in p, and the
adjoint eigenvector satisfies A^T p = conj(mu) p with <p, q> = 1.
"""
from __future__ import annotations

import cmath
import math
from dataclasses import dataclass
from typing import Literal

import numpy as np

from .core import ModelParams, State, TOL_BOUNDARY, TOL_HYP, jacobian, step
from .equilibria import (
    BoundaryTag,
    FixedPointReport,
    _residual,
    eigen_from_matrix,
    endemic,
    thresholds,
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
#: Largest fixed-point residual (sup norm) accepted for normal-form work.
TOL_RESIDUAL = 1.0e-10


class ResonanceError(ValueError):
    """NS coefficient requested at (or too close to) a strong resonance."""

    def __init__(self, tag: BoundaryTag, r: float, r_star: float):
        self.tag = tag
        super().__init__(
            f"{tag.value} at r = {r_star:.12g}: the Neimark-Sacker coefficient "
            f"is undefined there (requested r = {r:.12g})"
        )


@dataclass(frozen=True)
class MultilinearForms:
    """Derivative tensors of a map at a point.

    ``A`` is the Jacobian, ``B`` the array of second partials indexed
    ``[component, j, k]``, and ``C`` the third partials
    ``[component, j, k, l]``.  ``B`` and ``C`` are symmetric in their
    trailing indices.
    """

    A: np.ndarray
    B: np.ndarray
    C: np.ndarray

    def apply_B(self, x, y) -> np.ndarray:
        return np.einsum("ijk,j,k->i", self.B, x, y)

    def apply_C(self, x, y, z) -> np.ndarray:
        return np.einsum("ijkl,j,k,l->i", self.C, x, y, z)


def _point_tensors(p: ModelParams, x) -> MultilinearForms:
    """Exact A, B, C of one map step at an arbitrary point."""
    S, I = float(x[0]), float(x[1])
    den = 1.0 + p.a * S
    d1 = p.beta / den**2
    d2 = -2.0 * p.a * p.beta / den**3
    d3 = 6.0 * p.a * p.a * p.beta / den**4

    A = jacobian(p, (S, I))

    B = np.zeros((2, 2, 2))
    B[0, 0, 0] = -2.0 * p.r - I * d2
    B[0, 0, 1] = B[0, 1, 0] = -d1
    B[1, 0, 0] = I * d2
    B[1, 0, 1] = B[1, 1, 0] = d1

    C = np.zeros((2, 2, 2, 2))
    C[0, 0, 0, 0] = -I * d3
    C[1, 0, 0, 0] = I * d3
    for idx in ((0, 0, 1), (0, 1, 0), (1, 0, 0)):
        C[(0,) + idx] = -d2
        C[(1,) + idx] = d2
    return MultilinearForms(A=A, B=B, C=C)


def _cycle_forms(p: ModelParams, x, k: int, residual: float = 0.0) -> MultilinearForms:
    """Forms of the k-th iterate at a point that the k-th iterate fixes.

    The larger of ``residual`` (one the caller already holds) and the
    recomputed k-step residual must not exceed :data:`TOL_RESIDUAL`.
    """
    x = State(float(x[0]), float(x[1]))
    res = max(residual, _residual(p, x, k))
    if res > TOL_RESIDUAL:
        raise ValueError(
            f"normal-form work requires a fixed point: residual {res:.3e} "
            f"exceeds {TOL_RESIDUAL:.1e} at {tuple(x)}"
        )
    return iterate_forms(p, x, k)


def shifted_forms(p: ModelParams, fp) -> MultilinearForms:
    """Derivative tensors of the map at a fixed point.

    ``fp`` must actually be fixed: a one-step residual above
    :data:`TOL_RESIDUAL` raises ``ValueError``.  These are the forms of
    the map shifted so the fixed point sits at the origin (shifting does
    not change derivatives).
    """
    return _cycle_forms(p, fp, 1)


def iterate_forms(p: ModelParams, x, k: int) -> MultilinearForms:
    """Exact derivative tensors of the k-th iterate of the map at ``x``.

    Starts from the one-step tensors at ``x`` and composes those of each
    later orbit point with the chain rule for second and third
    derivatives.
    """
    if k < 1:
        raise ValueError("k must be >= 1")
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


@dataclass(frozen=True)
class NormalFormData:
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


def _null_vector(M: np.ndarray) -> np.ndarray:
    """A unit solution of M v = 0 for a rank-1 2x2 matrix, real or complex."""
    c1 = np.array([M[0, 1], -M[0, 0]])
    c2 = np.array([M[1, 1], -M[1, 0]])
    # for real data the bits of np.linalg.norm (sqrt of a dot), without its overhead
    n1, n2 = (math.sqrt(np.vdot(c, c).real) for c in (c1, c2))
    v, n = (c1, n1) if n1 >= n2 else (c2, n2)
    if n == 0.0:
        raise ValueError("matrix is zero; eigenvector not unique")
    return v / n


def _eigenpair(A: np.ndarray, mu) -> tuple[np.ndarray, np.ndarray]:
    """Eigenvector ``q`` of a 2x2 ``A`` at ``mu`` and adjoint ``p``, <p, q> = 1.

    ``q`` has first component 1 (the second when the first vanishes), which
    fixes ``c`` and ``d``: both scale with |q|^2.  A^T p = conj(mu) p.
    """
    I2 = np.eye(2)
    q = _null_vector(A - mu * I2)
    q = q / (q[0] if abs(q[0]) > 1.0e-8 else q[1])
    p = _null_vector(A.T - np.conj(mu) * I2)
    s = np.vdot(p, q)
    if abs(s) < 1.0e-12:
        raise ValueError("eigenvector pairing degenerate; normal-form coefficient undefined")
    return q, p / np.conj(s)


def flip_coefficient(p: ModelParams, fp: FixedPointReport) -> NormalFormData:
    """Cubic normal-form coefficient at an eigenvalue -1 boundary.

    Accepts a report for the disease-free point, the endemic point, or
    one point of the axis 2-cycle; in the latter case the expansion is
    taken for the second iterate at that point.  Requires the report's
    residual and the recomputed one to stay within :data:`TOL_RESIDUAL`,
    the relevant Jacobian to have an eigenvalue within ``TOL_HYP`` of -1
    and ``A - I`` to be invertible; the eigenvectors are :func:`_eigenpair`'s
    at exactly -1.  ``cmd_analyze`` passes the endemic curve point: a flip tag
    allows beta ``TOL_BOUNDARY`` off, past ``TOL_HYP`` in the eigenvalue.
    """
    k = 2 if fp.kind == "period2" else 1
    forms = _cycle_forms(p, fp.location, k, fp.residual)
    A = forms.A
    e = eigen_from_matrix(A)
    candidates = [e.mu1, e.mu2]
    mu = min(candidates, key=lambda m: abs(m + 1.0))
    if abs(mu + 1.0) > TOL_HYP:
        raise ValueError(
            f"flip coefficient needs an eigenvalue -1 within {TOL_HYP:.1e}; "
            f"closest is {mu:.12g}"
        )
    I2 = np.eye(2)
    detAmI = float(np.linalg.det(A - I2))
    if abs(detAmI) < 1.0e-10:
        raise ValueError("A - I is singular (fold degeneracy); flip coefficient undefined")

    q, pv = _eigenpair(A, -1.0)
    w = np.linalg.solve(A - I2, forms.apply_B(q, q))
    c = float(pv @ forms.apply_C(q, q, q)) / 6.0 - float(pv @ forms.apply_B(q, w)) / 2.0
    return NormalFormData(
        kind="flip",
        coefficient=c,
        eigenvalue=mu,
        q=q,
        p=pv,
        theta0=None,
    )


def ns_coefficient(p: ModelParams) -> NormalFormData:
    """First coefficient ``d`` at the Neimark-Sacker boundary of E1.

    Requires ``beta`` within ``TOL_BOUNDARY`` of beta2, the test
    ``classify_boundary`` makes, and evaluates ``d`` at ``p`` itself
    (``cmd_analyze`` passes the curve point); the eigenvectors are
    :func:`_eigenpair`'s.  The growth value must stay clear (by
    :data:`RESONANCE_EXCLUSION` in r) of the strong resonances at r_bar,
    r_tilde and r_max, where the coefficient is undefined; those are
    refused with :class:`ResonanceError` naming the resonance.
    """
    th = thresholds(p.r, p.a, p.K)
    if abs(p.beta - th.beta2) > TOL_BOUNDARY:
        raise ValueError(
            f"ns_coefficient requires beta on the NS curve: "
            f"|beta - beta2| = {abs(p.beta - th.beta2):.3e} exceeds {TOL_BOUNDARY:.1e}"
        )
    for r_star, tag in (
        (th.r_max, BoundaryTag.RESONANCE_12),
        (th.r_tilde, BoundaryTag.RESONANCE_13),
        (th.r_bar, BoundaryTag.RESONANCE_14),
    ):
        if abs(p.r - r_star) < RESONANCE_EXCLUSION:
            raise ResonanceError(tag, p.r, r_star)
    if not p.r < th.r_max:
        raise ValueError(f"NS boundary needs 1 < r < r_max = {th.r_max:.6g}, got r={p.r}")

    rep = endemic(p)
    if rep is None:
        raise ValueError("endemic point absent at these parameters")
    forms = shifted_forms(p, rep.location)
    A = forms.A
    e = rep.eigen
    if e.omega <= 0.0:
        raise ValueError("eigenvalues are real here; no Neimark-Sacker crossing")
    theta0 = math.atan2(e.omega, e.sigma)
    mu = complex(e.sigma, e.omega)

    q, pv = _eigenpair(A, mu)
    qbar = q.conjugate()
    I2 = np.eye(2)
    t1 = np.vdot(pv, forms.apply_C(q, q, qbar))
    # The middle resolvent must be (I - A), not (A - I): only that branch
    # agrees with the scalar Poincare normal-form coefficient
    #   Re(e^{-i theta} g21/2) - Re((1-2L)e^{-2i theta}/(2(1-L)) g20 g11)
    #   - |g11|^2/2 - |g02|^2/4,  L = e^{i theta},
    # and with simulated orbits near the boundary (attracting closed
    # curve on the unstable side exactly when d < 0).
    w1 = np.linalg.solve(I2 - A, forms.apply_B(q, qbar).astype(complex))
    t2 = 2.0 * np.vdot(pv, forms.apply_B(q, w1))
    w2 = np.linalg.solve(cmath.exp(2.0j * theta0) * I2 - A, forms.apply_B(q, q))
    t3 = np.vdot(pv, forms.apply_B(qbar, w2))
    d = 0.5 * (cmath.exp(-1.0j * theta0) * (t1 + t2 + t3)).real
    return NormalFormData(
        kind="ns",
        coefficient=float(d),
        eigenvalue=mu,
        q=q,
        p=pv,
        theta0=theta0,
    )


def rho_prime_at_ns(p: ModelParams) -> float:
    """d|mu|/d(beta) for the complex eigenvalue pair at E1.

    The modulus is ``sqrt(det)`` while the pair is complex, and the two
    determinant entries that move with beta are differentiated in
    closed form.  The result is cross-validated internally against a
    central finite difference (relative 1e-5) and must be non-zero,
    so on the NS curve it certifies transversal unit-circle crossing.
    """
    r, beta, a, K = p.r, p.beta, p.a, p.K
    rep = endemic(p)
    if rep is None:
        raise ValueError("endemic point absent; no eigenvalue pair to track")
    e = rep.eigen
    if e.omega <= 0.0:
        raise ValueError("eigenvalues are real here; modulus derivative not defined this way")

    da11 = 2.0 * K * r / (a * K - beta) ** 2 - K * (a * (r - 1.0) + r) / beta**2
    da21 = -K * (a - (a + 1.0) * r) / beta**2
    m = e.det
    analytic = (da11 + K * da21) / (2.0 * math.sqrt(m))

    def modulus(b: float) -> float:
        q = ModelParams(r=r, beta=b, a=a, K=K)
        rr = endemic(q)
        if rr is None:
            raise ValueError("finite-difference probe left the endemic region")
        return math.sqrt(rr.eigen.det)

    h = 1.0e-6 * max(1.0, abs(beta))
    fd = (modulus(beta + h) - modulus(beta - h)) / (2.0 * h)
    if abs(analytic - fd) > 1.0e-5 * max(abs(analytic), 1.0e-12):
        raise RuntimeError(
            f"modulus derivative cross-check failed: analytic {analytic:.12g} "
            f"vs finite difference {fd:.12g}"
        )
    if abs(analytic) < 1.0e-12:
        raise ValueError("modulus derivative vanishes; crossing is not transversal")
    return float(analytic)
