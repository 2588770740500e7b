"""Tests for the flip and Neimark-Sacker normal-form machinery."""

import json
import math

import mpmath
import numpy as np
import pytest
from hypothesis import assume, example, given, settings
from hypothesis import strategies as st

from sirmap import (
    BoundaryTag,
    ModelParams,
    beta2_threshold,
    classify_boundary,
    disease_free,
    endemic,
    flip_coefficient,
    ns_coefficient,
    period2_branch,
    rho_prime_at_ns,
    shifted_forms,
    step,
    thresholds,
)
from sirmap.cli import main
from sirmap.core import TOL_BOUNDARY, TOL_HYP
from sirmap import equilibria, normal_forms
from sirmap.normal_forms import (
    ResonanceError,
    _apply_B,
    _apply_C,
    _eigenpair,
    _point_tensors,
    _second_iterate,
)

from oracles import (
    chain_rule_forms,
    finite_difference_forms,
    mpmath_modulus_slope,
    mpmath_normal_form,
    report_modulus_slope,
)

R26 = 1.0 + math.sqrt(6.0)
# closed forms for the two flip coefficients on the axis 2-cycle at r = 1+sqrt(6)
C2_LOW = 10.0 * (7.0 + 2.0 * math.sqrt(6.0)) * (2.0 - math.sqrt(2.0))
C2_HIGH = 10.0 * (7.0 + 2.0 * math.sqrt(6.0)) * (2.0 + math.sqrt(2.0))

# frozen from this implementation and pinned; d is dimensionless and its
# sign is the meaningful part, the digits guard against regressions
D_AT_35_16 = -6.145222981770832
D_AT_R2 = -5.690598923241494
THETA0_AT_35_16 = 0.566564330621078


class TestFlipAtDiseaseFree:
    @pytest.mark.parametrize(
        "beta, a, K",
        [
            (0.5, 1.0, 0.5),
            (1.2, 0.0, 0.3),
            (2.0, 2.0, 0.7),
            (0.8, 0.5, 0.25),
            (0.1, 3.0, 0.9),
        ],
    )
    def test_cubic_coefficient_is_nine(self, beta, a, K):
        # the axis dynamics at r = 3 is pure logistic, so the flip
        # coefficient must come out 9 whatever the infection parameters
        p = ModelParams(r=3.0, beta=beta, a=a, K=K)
        nf = flip_coefficient(p, disease_free(p))
        assert nf.kind == "flip"
        assert abs(nf.coefficient - 9.0) < 1.0e-9
        assert abs(nf.eigenvalue + 1.0) < 1.0e-12
        assert nf.theta0 is None
        assert nf.branch_stable  # positive c: stable 2-cycle

    def test_away_from_flip_rejected(self):
        p = ModelParams(r=2.5, beta=0.5, a=1.0, K=0.5)
        with pytest.raises(ValueError, match="eigenvalue -1"):
            flip_coefficient(p, disease_free(p))

    def test_sloppy_fixed_point_rejected(self):
        p = ModelParams(r=3.0, beta=0.5, a=1.0, K=0.5)
        fp = disease_free(p)._replace(residual=1.0e-3)
        with pytest.raises(ValueError, match="residual"):
            flip_coefficient(p, fp)


class TestFlipOnPeriodTwoBranch:
    @pytest.mark.parametrize("beta, a, K", [(0.5, 1.0, 0.5), (1.0, 0.0, 0.3)])
    def test_closed_form_values(self, beta, a, K):
        p = ModelParams(r=R26, beta=beta, a=a, K=K)
        lo, hi = period2_branch(p)
        nf_lo = flip_coefficient(p, lo)
        nf_hi = flip_coefficient(p, hi)
        assert abs(nf_lo.coefficient - C2_LOW) < 1.0e-6
        assert abs(nf_hi.coefficient - C2_HIGH) < 1.0e-6
        assert abs(nf_lo.eigenvalue + 1.0) < 1.0e-9
        assert abs(nf_hi.eigenvalue + 1.0) < 1.0e-9

    def test_wandering_point_rejected(self):
        # a report whose location the second iterate does not fix is
        # refused even when its recorded residual claims otherwise
        p = ModelParams(r=R26, beta=0.5, a=1.0, K=0.5)
        lo, _ = period2_branch(p)
        fp = lo._replace(location=lo.location._replace(S=lo.location.S + 1.0e-3))
        with pytest.raises(ValueError, match="residual"):
            flip_coefficient(p, fp)

    def test_midbranch_rejected(self):
        # at r = 3.3 the 2-cycle exists but its multiplier is not -1 yet
        p = ModelParams(r=3.3, beta=0.5, a=1.0, K=0.5)
        lo, _ = period2_branch(p)
        with pytest.raises(ValueError, match="eigenvalue -1"):
            flip_coefficient(p, lo)


class TestNSCoefficient:
    def test_golden_at_rational_point(self):
        # beta2(35/16) = 3 exactly, a convenient exact curve point
        nf = ns_coefficient(ModelParams(r=35.0 / 16.0, beta=3.0, a=1.0, K=0.5))
        assert nf.kind == "ns"
        assert abs(nf.coefficient - D_AT_35_16) < 1.0e-9
        assert abs(nf.theta0 - THETA0_AT_35_16) < 1.0e-9
        assert abs(abs(nf.eigenvalue) - 1.0) < 1.0e-12
        assert nf.branch_stable  # negative d: stable invariant curve

    def test_builds_no_second_jacobian(self, monkeypatch):
        # E1's Jacobian comes from equilibria._endemic_point; the forms add
        # only the second and third partials
        calls = []
        monkeypatch.setattr(normal_forms, "_jacobian_entries", lambda *a: calls.append(a))
        nf = ns_coefficient(ModelParams(r=35.0 / 16.0, beta=3.0, a=1.0, K=0.5))
        assert abs(nf.coefficient - D_AT_35_16) < 1.0e-9
        assert calls == []

    def test_golden_at_pi_over_six(self):
        b2 = beta2_threshold(2.0, 1.0, 0.5)
        nf = ns_coefficient(ModelParams(r=2.0, beta=b2, a=1.0, K=0.5))
        assert abs(nf.coefficient - D_AT_R2) < 1.0e-9
        assert abs(nf.theta0 - math.pi / 6.0) < 1.0e-12

    @pytest.mark.parametrize("offset", [-0.999, -0.5, 0.5, 0.999])
    @pytest.mark.parametrize(
        "r, a, K",
        [
            (2.0, 1.0, 0.5),
            (1.3, 2.0, 0.9),
            (9.290673529956868, 0.40309273233720366, 0.7779469895497861),
        ],
    )
    def test_accepts_every_beta_the_classifier_tags(self, r, a, K, offset):
        # the beta test is the one on-curve decision, as in classify_boundary
        b2 = beta2_threshold(r, a, K)
        p = ModelParams(r=r, beta=b2 + offset * TOL_BOUNDARY, a=a, K=K)
        assert classify_boundary(p, "E1") is BoundaryTag.NEIMARK_SACKER
        d_on = ns_coefficient(ModelParams(r=r, beta=b2, a=a, K=K)).coefficient
        assert abs(ns_coefficient(p).coefficient - d_on) < 1.0e-6 * abs(d_on)

    def test_requires_point_on_curve(self):
        with pytest.raises(ValueError, match="NS curve"):
            ns_coefficient(ModelParams(r=2.0, beta=3.0, a=1.0, K=0.5))

    def test_beta2_formula_past_r_max_refused(self):
        # the closed form of beta2 goes on past the 1:2 point, the NS curve does not
        a, K = 1.0, 0.5
        r = thresholds(2.0, a, K).r_max + 1.0e-3
        p = ModelParams(r=r, beta=beta2_threshold(r, a, K), a=a, K=K)
        assert classify_boundary(p, "E1") is None
        with pytest.raises(ValueError, match="NS curve"):
            ns_coefficient(p)

    def test_real_pair_on_both_curves_refused(self):
        # 1e-5 below r_max this flip point lies 8.4e-10 below beta2: it is
        # tagged NS, but its eigenvalues are real
        a, K = 3.0, 0.1015625
        r = thresholds(2.0, a, K).r_max - 1.0e-5
        p = ModelParams(r=r, beta=thresholds(r, a, K).beta1, a=a, K=K)
        assert classify_boundary(p, "E1") is BoundaryTag.NEIMARK_SACKER
        with pytest.raises(ValueError, match="eigenvalues are real"):
            ns_coefficient(p)

    @pytest.mark.parametrize(
        "which, tag",
        [
            ("r_max", BoundaryTag.RESONANCE_12),
            ("r_tilde", BoundaryTag.RESONANCE_13),
            ("r_bar", BoundaryTag.RESONANCE_14),
        ],
    )
    def test_strong_resonances_refused(self, which, tag):
        th = thresholds(2.0, 1.0, 0.5)
        r_star = getattr(th, which)
        b2 = beta2_threshold(r_star, 1.0, 0.5)
        with pytest.raises(ResonanceError) as exc:
            ns_coefficient(ModelParams(r=r_star, beta=b2, a=1.0, K=0.5))
        assert exc.value.tag is tag

    def test_eigenpair_contracts(self):
        p = ModelParams(r=35.0 / 16.0, beta=3.0, a=1.0, K=0.5)
        nf = ns_coefficient(p)
        assert abs(np.vdot(nf.p, nf.q) - 1.0) < 1.0e-12
        A = shifted_forms(p, endemic(p).location).A
        assert np.linalg.norm(A @ nf.q - nf.eigenvalue * nf.q) < 1.0e-10

    @pytest.mark.parametrize("a", [0.5, 2.0])
    @pytest.mark.parametrize("K", [0.3, 0.9])
    @pytest.mark.parametrize("r", [1.3, 2.0, 3.0])
    def test_d_negative_across_parameters(self, a, K, r):
        b2 = beta2_threshold(r, a, K)
        nf = ns_coefficient(ModelParams(r=r, beta=b2, a=a, K=K))
        assert nf.coefficient < 0.0

    def test_d_decreases_toward_small_growth(self):
        # the coefficient keeps dropping as r comes down to 1, where the
        # endemic point degenerates
        rs = [1.5, 1.4, 1.3, 1.2, 1.1, 1.05, 1.02]
        ds = []
        for r in rs:
            b2 = beta2_threshold(r, 1.0, 0.5)
            ds.append(ns_coefficient(ModelParams(r=r, beta=b2, a=1.0, K=0.5)).coefficient)
        assert all(d2 < d1 for d1, d2 in zip(ds, ds[1:]))
        assert ds[-1] < -35.0

    def test_modulus_derivative_golden(self):
        rho = rho_prime_at_ns(ModelParams(r=35.0 / 16.0, beta=3.0, a=1.0, K=0.5))
        assert abs(rho - 0.128125) < 1.0e-9

    @pytest.mark.parametrize("r", [1.5, 2.0, 3.0])
    def test_crossing_is_transversal(self, r):
        b2 = beta2_threshold(r, 1.0, 0.5)
        assert rho_prime_at_ns(ModelParams(r=r, beta=b2, a=1.0, K=0.5)) > 0.0

    @given(a=st.floats(0.0, 3.0), K=st.floats(0.1, 0.9), t=st.floats(0.0, 1.0))
    @settings(max_examples=100, deadline=None)
    def test_modulus_derivative_equals_the_report_based_value(self, a, K, t):
        r_max = thresholds(2.0, a, K).r_max
        r = 1.05 + t * (r_max - 1.05)
        p = ModelParams(r=r, beta=beta2_threshold(r, a, K), a=a, K=K)
        try:
            rho = rho_prime_at_ns(p)
        except ValueError:  # real pair or vanishing slope, off the NS segment's interior
            assume(False)
        assert rho == report_modulus_slope(p)

    @pytest.mark.parametrize("beta,message", [
        (1.2, "endemic point absent"),  # below the fold beta0 = 1.5
        (1.6, "eigenvalues are real here"),  # E1 a node just past the fold
    ])
    def test_modulus_derivative_refuses_without_a_complex_pair(self, beta, message):
        with pytest.raises(ValueError, match=message):
            rho_prime_at_ns(ModelParams(r=2.0, beta=beta, a=1.0, K=0.5))

    def test_modulus_derivative_builds_no_report(self, monkeypatch):
        # the slope needs only det J(E1), from one E1 evaluation and no new
        # parameter set, and the coefficient reads E1's eigenvalues from its
        # own forms
        def refuse(*args, **kwargs):
            raise AssertionError("full fixed-point report built")

        def no_params(self):
            raise AssertionError("ModelParams validated")

        located = []

        def locate(q):
            located.append(q)
            return equilibria._endemic_point(q)

        p = ModelParams(r=35.0 / 16.0, beta=3.0, a=1.0, K=0.5)
        monkeypatch.setattr(equilibria, "_report", refuse)
        monkeypatch.setattr(normal_forms, "_endemic_point", locate)
        monkeypatch.setattr(ModelParams, "__post_init__", no_params)
        rho = rho_prime_at_ns(p)
        assert located == [p]
        assert abs(rho - 0.128125) < 1.0e-9
        assert abs(ns_coefficient(p).coefficient - D_AT_35_16) < 1.0e-9

    @given(a=st.floats(0.0, 3.0), K=st.floats(0.1, 0.9), t=st.floats(0.0, 1.0))
    @settings(max_examples=60, deadline=None)
    def test_modulus_derivative_matches_the_50_digit_slope(self, a, K, t):
        # the paper range 1.05 <= r < r_max and the tail 1 + 1e-9 <= r <= 1.1
        # below it, on the NS curve
        r_max = thresholds(2.0, a, K).r_max
        for r in (1.05 + t * (r_max - 1.05), 1.0 + 10.0 ** (-9.0 + 8.0 * t)):
            p = ModelParams(r=r, beta=beta2_threshold(r, a, K), a=a, K=K)
            try:
                rho = rho_prime_at_ns(p)
            except ValueError as exc:  # past r_max the pair turns real
                assert "eigenvalues are real" in str(exc)
                continue
            exact = mpmath_modulus_slope(p)
            assert abs(rho - exact) <= 1.0e-13 * abs(exact), (p, rho, exact)

    def test_vanishing_slope_is_refused_within_rounding_only(self):
        # t1 = (1 - K)*t2 at this beta: |mu| has a minimum in beta there
        r, a, K = 2.0, 10.0, 0.1
        c = math.sqrt((1.0 - K) * (a * (r - 1.0) + r))
        beta = c * a * K / (c - math.sqrt(2.0 * r))
        for b in (math.nextafter(beta, 0.0), beta, math.nextafter(beta, 3.0)):
            with pytest.raises(ValueError, match="modulus derivative vanishes"):
                rho_prime_at_ns(ModelParams(r=r, beta=b, a=a, K=K))
        # a relative step of 1e-12 already leaves a slope that rounding can tell
        for b in (beta * (1.0 - 1.0e-12), beta * (1.0 + 1.0e-12)):
            p = ModelParams(r=r, beta=b, a=a, K=K)
            exact = mpmath_modulus_slope(p)
            assert abs(rho_prime_at_ns(p) - exact) <= 1.0e-3 * abs(exact)


class TestEigenpair:
    @pytest.mark.parametrize(
        "A, mu",
        [
            # real: eigenvalue -1, first component of q nonzero
            (np.array([[0.5, 1.5], [0.5, -0.5]]), -1.0),
            # real: q = (0, 1), so the second component is the unit one
            (np.array([[0.3, 0.0], [2.0, -1.0]]), -1.0),
            # complex pair on the unit circle at angle pi/3
            (np.array([[0.5, -math.sqrt(3.0) / 2.0], [math.sqrt(3.0) / 2.0, 0.5]]),
             complex(0.5, math.sqrt(3.0) / 2.0)),
        ],
    )
    def test_contracts(self, A, mu):
        q, p = map(np.array, _eigenpair(A.ravel(), mu))
        assert np.linalg.norm(A @ q - mu * q) < 1.0e-12
        assert np.linalg.norm(A.T @ p - np.conj(mu) * p) < 1.0e-12
        assert abs(np.vdot(p, q) - 1.0) < 1.0e-12
        assert 1.0 in (q[0], q[1])

    def test_flip_vectors_come_from_it(self):
        p = ModelParams(r=3.0, beta=0.5, a=1.0, K=0.5)
        nf = flip_coefficient(p, disease_free(p))
        q, pv = _eigenpair(shifted_forms(p, disease_free(p).location).A.ravel(), -1.0)
        assert np.array_equal(nf.q, q) and np.array_equal(nf.p, pv)


class TestFormsConsistency:
    def test_fixed_point_forms_match_finite_differences(self):
        p = ModelParams(r=1.8, beta=3.0, a=1.0, K=0.5)
        loc = endemic(p).location
        forms = shifted_forms(p, loc)
        fd = finite_difference_forms(p, loc, k=1)
        assert np.allclose(forms.A, fd.A, rtol=1.0e-6, atol=1.0e-9)
        assert np.allclose(forms.B, fd.B, rtol=1.0e-5, atol=1.0e-9)
        assert np.allclose(forms.C, fd.C, rtol=1.0e-5, atol=1.0e-6)

    def test_tensors_are_symmetric(self):
        p = ModelParams(r=2.7, beta=1.7, a=0.8, K=0.45)
        forms = _point_tensors(p, (0.37, 0.21))
        assert np.array_equal(forms.B, np.transpose(forms.B, (0, 2, 1)))
        for perm in [(0, 1, 3, 2), (0, 2, 1, 3), (0, 3, 2, 1)]:
            assert np.array_equal(forms.C, np.transpose(forms.C, perm))

    def test_apply_helpers_contract_tensors(self):
        p = ModelParams(r=2.7, beta=1.7, a=0.8, K=0.45)
        forms = shifted_forms(p, disease_free(p).location)
        u = np.array([0.3, -1.1])
        v = np.array([2.0, 0.7])
        w = np.array([-0.4, 0.9])
        # flat 2x2 slices over the last two indices
        B, C = forms.B.reshape(2, 4).tolist(), forms.C.reshape(2, 2, 4).tolist()
        assert np.allclose(_apply_B(B, u, v), np.einsum("ijk,j,k->i", forms.B, u, v))
        assert np.allclose(
            _apply_C(C, u, v, w), np.einsum("ijkl,j,k,l->i", forms.C, u, v, w)
        )

    def test_shifted_forms_rejects_wandering_point(self):
        p = ModelParams(r=2.7, beta=1.7, a=0.8, K=0.45)
        with pytest.raises(ValueError, match="fixed point"):
            shifted_forms(p, (0.4, 0.2))


class TestPointTensorsOracle:
    def test_equals_identity_seeded_chain_rule(self):
        # one chain-rule step from the identity and zeros must not change a bit
        rng = np.random.default_rng(1)
        for _ in range(200):
            r, beta, a, K = rng.uniform([0.5, 0.1, 0.0, 0.05], [4.0, 4.0, 3.0, 0.95])
            p = ModelParams(r=r, beta=beta, a=a, K=K)
            x = tuple(rng.uniform(0.0, 1.0, size=2))
            got, want = _point_tensors(p, x), chain_rule_forms(p, x, 1)
            for name in ("A", "B", "C"):
                assert np.array_equal(getattr(got, name), getattr(want, name)), (name, p, x)


#: The second iterate's chain rule on vectors may differ from the composed
#: tensors contracted on the same vectors by this multiple of eps times that
#: contraction taken in absolute values (|B|(|u|, |v|) and so on), so a sum
#: that cancels is not held to its own small size; the largest gap seen over
#: 4,000 cycle points is under 7 eps of it.
SECOND_ITERATE_REL = 64.0 * np.finfo(float).eps


def _cycle_points(seed, n):
    """Both points of the axis 2-cycle, with the model, at ``n`` seeded draws."""
    rng = np.random.default_rng(seed)
    for _ in range(n):
        r, beta, a, K = rng.uniform([3.05, 0.1, 0.0, 0.05], [3.95, 4.0, 3.0, 0.95])
        p = ModelParams(r=r, beta=beta, a=a, K=K)
        for report in period2_branch(p):
            yield p, report.location


class TestSecondIterate:
    """``_second_iterate`` against the composed tensors of the second iterate."""

    def test_matches_chain_rule_oracle_on_vectors(self):
        rng = np.random.default_rng(2)
        for p, x in _cycle_points(3, 100):
            A, B2, C2 = _second_iterate(p, x)
            want = chain_rule_forms(p, x, 2)
            # the product J_y J_x, against numpy's, within the rounding of its two-term sums
            Jx, Jy = _point_tensors(p, x).A, _point_tensors(p, step(p, x)).A
            bound = 4.0 * np.finfo(float).eps * abs(Jy) @ abs(Jx)
            assert np.all(abs(np.reshape(A, (2, 2)) - want.A) <= bound), (p, x)
            u, v, w = rng.standard_normal((3, 2))
            gap = np.subtract(B2(u, v), np.einsum("ijk,j,k->i", want.B, u, v))
            bound = SECOND_ITERATE_REL * np.einsum("ijk,j,k->i", abs(want.B), abs(u), abs(v))
            assert np.all(abs(gap) <= bound), (p, x)
            gap = np.subtract(C2(u, v, w), np.einsum("ijkl,j,k,l->i", want.C, u, v, w))
            bound = SECOND_ITERATE_REL * np.einsum(
                "ijkl,j,k,l->i", abs(want.C), abs(u), abs(v), abs(w)
            )
            assert np.all(abs(gap) <= bound), (p, x)

    @pytest.mark.parametrize("point", [0, 1])
    def test_matches_finite_differences(self, point):
        p = ModelParams(r=R26, beta=0.5, a=1.0, K=0.5)
        loc = period2_branch(p)[point].location
        A, B2, C2 = _second_iterate(p, loc)
        e = np.eye(2)
        # the full tensors, read off the forms on the basis vectors
        B = np.array([[B2(e[j], e[k]) for k in (0, 1)] for j in (0, 1)]).transpose(2, 0, 1)
        C = np.array(
            [[[C2(e[j], e[k], e[l]) for l in (0, 1)] for k in (0, 1)] for j in (0, 1)]
        ).transpose(3, 0, 1, 2)
        fd = finite_difference_forms(p, loc, k=2)
        assert np.allclose(np.reshape(A, (2, 2)), fd.A, rtol=1.0e-6, atol=1.0e-9)
        assert np.allclose(B, fd.B, rtol=1.0e-5, atol=1.0e-9)
        assert np.allclose(C, fd.C, rtol=1.0e-5, atol=1.0e-6)


#: The float path's coefficient is held to this relative bound against the
#: 40-digit oracle on sampled curve points; the golden points allow 1e-14.
ORACLE_REL = 1.0e-10
#: Where the coefficient itself is ill-conditioned (next to the 1:3
#: resonance, or where it changes sign), the bound widens to this multiple
#: of its sensitivity to a relative change of beta: a float rounding of the
#: inputs alone moves the exact value that much.
ORACLE_COND = 1.0e-14


def _oracle_gap(p, kind, at="endemic"):
    """Compare the float path with :func:`mpmath_normal_form` at ``p``.

    Checks the fixed point to 1e-14 of its sup norm and A, B, C to 1e-13 of
    their largest entry; returns ``(coefficient error, exact
    coefficient)``.
    """
    S, I, A, B, C, exact = mpmath_normal_form(p, kind, at)
    rep = endemic(p) if at == "endemic" else disease_free(p)
    scale = max(abs(float(S)), abs(float(I)))
    assert abs(rep.location.S - float(S)) <= 1.0e-14 * scale
    assert abs(rep.location.I - float(I)) <= 1.0e-14 * scale
    forms = shifted_forms(p, rep.location)
    exact_tensors = [np.array(t, dtype=float) for t in (A, B, C)]
    # one scale for all three: a tiny ``a`` leaves C far below the accuracy
    # of numerical differentiation, which is absolute
    scale = max(np.max(np.abs(t)) for t in exact_tensors)
    for got, want in zip((forms.A, forms.B, forms.C), exact_tensors):
        assert np.max(np.abs(got - want)) <= 1.0e-13 * scale, (p, got, want)
    nf = flip_coefficient(p, rep) if kind == "flip" else ns_coefficient(p)
    return abs(nf.coefficient - float(exact)), float(exact)


class TestMpmathOracle:
    @pytest.mark.parametrize(
        "p",
        [
            ModelParams(r=35.0 / 16.0, beta=3.0, a=1.0, K=0.5),
            ModelParams(r=2.0, beta=beta2_threshold(2.0, 1.0, 0.5), a=1.0, K=0.5),
        ],
    )
    def test_ns_goldens(self, p):
        gap, exact = _oracle_gap(p, "ns")
        assert gap <= 1.0e-14 * abs(exact)

    @pytest.mark.parametrize(
        "beta, a, K",
        [(0.5, 1.0, 0.5), (1.2, 0.0, 0.3), (2.0, 2.0, 0.7), (0.8, 0.5, 0.25), (0.1, 3.0, 0.9)],
    )
    def test_disease_free_flip_goldens(self, beta, a, K):
        gap, exact = _oracle_gap(ModelParams(r=3.0, beta=beta, a=a, K=K), "flip", "disease_free")
        assert exact == 9.0
        assert gap <= 1.0e-14 * 9.0

    def test_flip_next_to_the_one_to_two_point(self):
        # 1e-3 below r_max on the flip curve the far eigenvalue lies 2e-5
        # from -1, so the near one's distance (4.5e-9, past TOL_HYP) is
        # ill-conditioned while det(A + I) = 8.9e-14 is not
        r, a, K = 106.97430111067736, 3.0, 0.125
        p = ModelParams(r=r, beta=thresholds(r, a, K).beta1, a=a, K=K)
        rep = endemic(p)
        assert rep.boundary is BoundaryTag.FLIP
        assert min(abs(rep.eigen.mu1 + 1.0), abs(rep.eigen.mu2 + 1.0)) > TOL_HYP
        gap, exact = _oracle_gap(p, "flip")
        assert gap <= ORACLE_REL * abs(exact)

    @given(a=st.floats(0.0, 3.0), K=st.floats(0.1, 0.9), log_gap=st.floats(-5.0, -3.0))
    # a corner where the flip point lies 8.4e-10 below beta2
    @example(a=3.0, K=0.1015625, log_gap=-5.0)
    @settings(max_examples=15, deadline=None)
    def test_flip_points_next_to_the_one_to_two_point(self, a, K, log_gap):
        # 1e-5 to 1e-3 below r_max every flip curve point gets a c.  It is
        # tagged flip unless it also lies within TOL_BOUNDARY of the NS
        # curve, which classify_boundary matches first
        r = thresholds(2.0, a, K).r_max - 10.0**log_gap
        th = thresholds(r, a, K)
        beta = th.beta1
        p = ModelParams(r=r, beta=beta, a=a, K=K)
        on_ns = abs(th.beta1 - th.beta2) <= TOL_BOUNDARY
        assert endemic(p).boundary is (BoundaryTag.NEIMARK_SACKER if on_ns else BoundaryTag.FLIP)
        gap, exact = _oracle_gap(p, "flip")
        if gap <= ORACLE_REL * abs(exact):
            return
        # c grows like 1/(r_max - r) here; bound it by its sensitivity to beta
        h = 1.0e-10
        up, down = (
            float(mpmath_normal_form(ModelParams(r=r, beta=beta * (1.0 + s), a=a, K=K), "flip")[-1])
            for s in (h, -h)
        )
        assert gap <= ORACLE_COND * abs(up - down) / (2.0 * h), (p, gap, exact)

    @given(
        kind=st.sampled_from(["flip", "ns"]),
        a=st.floats(0.0, 3.0),
        K=st.floats(0.1, 0.9),
        t=st.floats(0.0, 1.0),
    )
    @settings(max_examples=60, deadline=None)
    def test_curve_points(self, kind, a, K, t):
        # curve points at least 1e-3 in r from r = 3, r_bar, r_tilde and r_max
        th = thresholds(2.0, a, K)
        lo, hi = (3.0 if kind == "flip" else 1.05) + 1.0e-3, th.r_max - 1.0e-3
        assume(lo < hi)
        r = lo + t * (hi - lo)
        assume(min(abs(r - th.r_bar), abs(r - th.r_tilde)) >= 1.0e-3)
        at_r = thresholds(r, a, K)
        beta = at_r.beta1 if kind == "flip" else at_r.beta2
        p = ModelParams(r=r, beta=beta, a=a, K=K)
        if kind == "flip":
            # next to r_max, where -1 is nearly a double eigenvalue, the
            # rounding of beta1 alone can move it past TOL_HYP, and
            # flip_coefficient refuses the point
            e = endemic(p).eigen
            assume(min(abs(e.mu1 + 1.0), abs(e.mu2 + 1.0)) <= TOL_HYP)
        gap, exact = _oracle_gap(p, kind)
        if gap <= ORACLE_REL * abs(exact):
            return
        # d(coefficient)/d(log beta), by central differences of the oracle
        h = 1.0e-10
        up, down = (
            float(mpmath_normal_form(ModelParams(r=r, beta=beta * (1.0 + s), a=a, K=K), kind)[-1])
            for s in (h, -h)
        )
        sensitivity = abs(up - down) / (2.0 * h)
        assert gap <= ORACLE_COND * sensitivity, (p, gap, exact, sensitivity)

    def test_ns_form_at_a_fixed_point_with_large_coordinates(self, capsys):
        # E1 sits at I ~ 5.9e5, where its one-step residual of 1.16e-10 is a
        # few ulp of I: the residual bound scales with the coordinates.  beta
        # is the code's NS threshold at r, 0.66 ulp from its 80-digit value.
        # r sits 6 ulp below the first version's 37035.60750267616: there the
        # threshold, now taken without cancellation (a > q), moved by 16 ulp
        # and its residual fell to 1.3e-12
        argv = ["--r", "37035.60750267612", "--beta", "4.543153267741685",
                "--a", "288.2651573648773", "--K", "0.0156513624059114"]
        assert main(["analyze", *argv]) == 0
        doc = json.loads(capsys.readouterr().out)
        assert doc["endemic"]["location"][1] > 5.0e5
        assert doc["endemic"]["residual"] > 1.0e-10
        nf = doc["normal_form"]
        assert (nf["at"], nf["kind"]) == ("endemic", "ns")
        r, beta, a, K = (float(v) for v in argv[1::2])
        assert beta == beta2_threshold(r, a, K)

        def exact(beta):
            """The oracle's d and theta0, the angle of its critical eigenvalue."""
            A, d = (mpmath_normal_form(ModelParams(r=r, beta=beta, a=a, K=K), "ns")[i]
                    for i in (2, -1))
            half_trace = (A[0][0] + A[1][1]) / 2
            det = A[0][0] * A[1][1] - A[0][1] * A[1][0]
            return float(d), float(mpmath.atan2(mpmath.sqrt(det - half_trace**2), half_trace))

        # both are ill-conditioned here; bound each by its sensitivity to beta
        h = 1.0e-10
        (d, theta0), up, down = (exact(beta * (1.0 + s)) for s in (0.0, h, -h))
        for got, want, plus, minus in zip((nf["coefficient"], nf["theta0"]), (d, theta0), up, down):
            assert abs(got - want) <= ORACLE_COND * abs(plus - minus) / (2.0 * h), (got, want)
        assert d < 0.0 and nf["branch_stable"]
