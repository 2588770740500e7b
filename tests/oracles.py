"""Test-only reference implementations for the normal-form tensors.

``finite_difference_forms`` differentiates the exact orbit Jacobian
numerically, independent of the closed-form tensors, and
``chain_rule_forms`` composes the one-step tensors from the identity, the
way ``sirmap.normal_forms.iterate_forms`` did before it started from the
first step's tensors.  Tests compare the library against both.
"""
import numpy as np

from sirmap import ModelParams, jacobian, step
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


def _iterate_jacobian(p: ModelParams, x, k: int) -> np.ndarray:
    J = np.eye(2)
    z = (float(x[0]), float(x[1]))
    for _ in range(k):
        J = jacobian(p, z) @ J
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
