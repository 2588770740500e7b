"""Fixed points, thresholds, boundary classification, period-2 branch."""
import math
import struct
import sys

import mpmath
import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from sirmap import (
    BoundaryTag,
    ModelParams,
    StabilityClass,
    beta0_threshold,
    beta1_formula,
    beta2_threshold,
    classify_boundary,
    disease_free,
    endemic,
    period2_branch,
    step,
    thresholds,
)
from sirmap.core import TOL_BOUNDARY, _jacobian_entries
from sirmap.equilibria import _eigen_quadratic, _resonance_growth

from oracles import numpy_jacobian, numpy_period2_eigen

A_K_GRID = [(0.0, 0.3), (0.5, 0.2), (1.0, 0.5), (2.0, 0.7), (5.0, 0.9)]


class TestDiseaseFree:
    def test_location(self):
        p = ModelParams(r=2, beta=3, a=1, K=0.5)
        rep = disease_free(p)
        assert rep.location == (0.5, 0.0)
        assert rep.residual < 1e-15

    def test_exact_eigenvalues(self):
        # mu_1 = 2 - r, mu_2 = 1 - K + beta(r-1)/(r + a(r-1))
        p = ModelParams(r=2, beta=3, a=1, K=0.5)
        rep = disease_free(p)
        mus = sorted([rep.eigen.mu1.real, rep.eigen.mu2.real])
        assert math.isclose(mus[0], 0.0, abs_tol=1e-15)
        assert math.isclose(mus[1], 1.5, abs_tol=1e-14)
        assert rep.stability is StabilityClass.SADDLE

    def test_stable_when_infection_dies(self):
        p = ModelParams(r=2.5, beta=1.1, a=1, K=0.5)
        rep = disease_free(p)
        assert rep.stability is StabilityClass.STABLE_NODE

    def test_pole_found_whichever_denominator_rounds_to_zero(self):
        # on r = a/(1 + a) the eigenvalue's denominator r + a*(r - 1) and the
        # residual step's 1 + a*S0 each round to zero alone at some a
        for i in range(1, 400):
            a = i / 40.0
            r = a / (1.0 + a)
            p = ModelParams(r=r, beta=1.0, a=a, K=0.5)
            if r + a * (r - 1.0) == 0.0 or 1.0 + a * ((r - 1.0) / r) == 0.0:
                with pytest.raises(ValueError, match="pole"):
                    disease_free(p)
            else:
                assert math.isfinite(disease_free(p).eigen.mu2.real)


class TestEndemic:
    def test_golden_location(self):
        p = ModelParams(r=2, beta=3, a=1, K=0.5)
        rep = endemic(p)
        assert math.isclose(rep.location.S, 0.2, abs_tol=1e-15)
        assert math.isclose(rep.location.I, 0.24, abs_tol=1e-15)
        assert rep.stability is StabilityClass.STABLE_FOCUS

    def test_absent_below_onset(self):
        # beta0(2,1,0.5) = 0.5*(2+1)/1 = 1.5
        p = ModelParams(r=2, beta=1.4, a=1, K=0.5)
        assert endemic(p) is None

    def test_needs_growth_above_one(self):
        p = ModelParams(r=0.9, beta=3, a=1, K=0.5)
        with pytest.raises(ValueError, match="r > 1"):
            endemic(p)

    @given(
        r=st.floats(1.2, 4.0),
        a=st.floats(0.0, 3.0),
        K=st.floats(0.1, 0.9),
        excess=st.floats(1.05, 4.0),
    )
    @settings(max_examples=80, deadline=None)
    def test_fixed_point_residual(self, r, a, K, excess):
        beta = excess * beta0_threshold(r, a, K)
        p = ModelParams(r=r, beta=beta, a=a, K=K)
        rep = endemic(p)
        assert rep is not None
        out = step(p, rep.location)
        assert abs(out.S - rep.location.S) < 1e-12
        assert abs(out.I - rep.location.I) < 1e-12

    def test_row_identities(self):
        # at E1 the infection row of the Jacobian is (a21, 1) and a12 = -K
        p = ModelParams(r=3.1, beta=2.4, a=0.7, K=0.43)
        rep = endemic(p)
        _, a12, _, a22 = _jacobian_entries(p, *rep.location)
        assert math.isclose(a12, -p.K, abs_tol=1e-12)
        assert math.isclose(a22, 1.0, abs_tol=1e-12)


class TestThresholds:
    def test_beta0_golden(self):
        assert math.isclose(beta0_threshold(1.25, 1, 0.5), 3.0, abs_tol=1e-12)

    def test_beta1_golden(self):
        assert math.isclose(beta1_formula(3.6, 1, 0.5), 1.3147834135917997, abs_tol=1e-12)

    def test_beta2_golden(self):
        assert math.isclose(beta2_threshold(35 / 16, 1, 0.5), 3.0, abs_tol=1e-12)

    def test_resonance_radii_at_default_params(self):
        th = thresholds(2.0, 1.0, 0.5)
        assert math.isclose(th.r_max, 18.881527307120106, abs_tol=1e-9)
        assert math.isclose(th.r_bar, 9.772001872658766, abs_tol=1e-9)
        assert math.isclose(th.r_tilde, 14.32455532033676, abs_tol=1e-9)

    def test_beta1_only_inside_its_band(self):
        assert thresholds(2.0, 1.0, 0.5).beta1 is None
        assert thresholds(3.6, 1.0, 0.5).beta1 is not None

    @pytest.mark.parametrize("r,a,K,message", [
        (1.0, 1.0, 0.5, "thresholds require r > 1, got r=1.0"),
        (math.nan, 1.0, 0.5, "thresholds require r > 1, got r=nan"),
        (3.0, -0.5, 0.5, "require a >= 0, got a=-0.5"),
        (3.0, 1.0, 0.0, "require 0 < K < 1, got K=0.0"),
        (3.0, 1.0, math.nan, "require 0 < K < 1, got K=nan"),
        # non-finite values that used to come back as nan or inf thresholds
        (math.inf, 1.0, 0.5, "require finite r, got r=inf"),
        (3.0, math.inf, 0.5, "require finite a, got a=inf"),
        (3.0, math.nan, 0.5, "require finite a, got a=nan"),
    ])
    def test_refuses_out_of_domain_input(self, r, a, K, message):
        with pytest.raises(ValueError) as err:
            thresholds(r, a, K)
        assert str(err.value) == message

    @pytest.mark.parametrize("a,K", A_K_GRID)
    def test_junctions(self, a, K):
        # the flip curve meets the transcritical curve at r=3 and the
        # NS curve at r_max
        assert math.isclose(
            beta1_formula(3.0, a, K), beta0_threshold(3.0, a, K), rel_tol=1e-12
        )
        rmax = _resonance_growth(4.0, a, K)
        assert math.isclose(
            beta1_formula(rmax, a, K), beta2_threshold(rmax, a, K), rel_tol=1e-9
        )

    @pytest.mark.parametrize("x,sigma_expect", [(4.0, -1.0), (3.0, -0.5), (2.0, 0.0)])
    def test_resonance_growth_defining_property(self, x, sigma_expect):
        # at r = R(x) with beta on the NS curve, the eigenvalue pair has
        # det 1 and real part sigma = 1 - x/2
        r = _resonance_growth(x, 1.0, 0.5)
        beta = beta2_threshold(r, 1.0, 0.5)
        rep = endemic(ModelParams(r=r, beta=beta, a=1.0, K=0.5))
        assert math.isclose(rep.eigen.det, 1.0, abs_tol=1e-10)
        assert math.isclose(rep.eigen.sigma, sigma_expect, abs_tol=1e-10)

    @given(r=st.floats(1.1, 15.0), a=st.floats(0.0, 3.0), K=st.floats(0.1, 0.9))
    @settings(max_examples=100, deadline=None)
    def test_det_is_one_on_ns_curve(self, r, a, K):
        rmax = _resonance_growth(4.0, a, K)
        if r >= rmax - 1e-6:
            return
        beta = beta2_threshold(r, a, K)
        if beta <= beta0_threshold(r, a, K):
            return
        rep = endemic(ModelParams(r=r, beta=beta, a=a, K=K))
        assert math.isclose(rep.eigen.det, 1.0, abs_tol=1e-9)



def _mp_closed_forms(r, a, K):
    """``(beta0, beta2, r_bar, r_tilde, r_max)`` at 50 digits, at the float inputs."""
    import mpmath as mp

    with mp.workdps(50):
        r, a, K = mp.mpf(r), mp.mpf(a), mp.mpf(K)
        q = r / (r - 1)
        beta2 = (a * (2 * K - 1) + q * (K + 1)
                 + mp.sqrt(a * a + 2 * a * q * (3 * K - 1) + q * q * (K + 1) ** 2)) / 2

        def growth(x):
            inner = a * a * x * x + 2 * a * x * (K * (3 * x - 1) - x) + (K * (x + 1) + x) ** 2
            return (a * x + K * (x + 1) + x) / (2 * K) + mp.sqrt(inner) / (2 * K)

        return K * (r + a * (r - 1)) / (r - 1), beta2, growth(2), growth(3), growth(4)


class TestTinyK:
    """Closed forms at removal fractions K far below the paper's range."""

    @given(
        r=st.floats(1.05, 10.0),
        log_K=st.floats(-30.0, -8.0),
        offset=st.floats(-1.0e-15, 1.0e-15),
    )
    @settings(max_examples=200, deadline=None)
    def test_beta2_where_its_radicand_cancels(self, r, log_K, offset):
        # near a = q(1 - 3K) the expanded radicand cancels to O(K q^2) and
        # used to round below zero ("math domain error")
        K = 10.0 ** log_K
        q = r / (r - 1.0)
        a = q * (1.0 - 3.0 * K) * (1.0 + offset)
        want = _mp_closed_forms(r, a, K)[1]
        assert abs(beta2_threshold(r, a, K) - want) <= 2.0 * sys.float_info.epsilon * max(a, q)

    def test_beta2_repro(self):
        r, a, K = 3.196970438572481, 1.4551722601464623, 7.487848446512169e-19
        q = r / (r - 1.0)
        want = _mp_closed_forms(r, a, K)[1]
        # the result, about 1.8e-9, is what is left of terms of size q
        assert abs(thresholds(r, a, K).beta2 - want) <= 2.0 * sys.float_info.epsilon * q

    def test_thresholds_where_K_squared_underflows(self):
        th = thresholds(3.0, 1.0, 1.0e-170)
        assert th.beta1 is None  # r = 3 is the flip curve's lower end
        want = _mp_closed_forms(3.0, 1.0, 1.0e-170)
        got = (th.beta0, th.beta2, th.r_bar, th.r_tilde, th.r_max)
        for value, exact in zip(got, want):
            assert math.isclose(value, exact, rel_tol=4.0 * sys.float_info.epsilon)

    def test_endemic_where_K_squared_underflows(self):
        import mpmath as mp

        p = ModelParams(r=3.0, beta=1.0, a=1.0, K=1.0e-200)
        rep = endemic(p)
        assert rep.boundary is None
        with mp.workdps(50):
            r, beta, a, K = (mp.mpf(v) for v in (p.r, p.beta, p.a, p.K))
            den = beta - a * K
            S, I = K / den, (r - 1) / den - r * K / den ** 2
            a11 = r - 2 * r * S - I * beta / (1 + a * S) ** 2
            a12 = -beta * S / (1 + a * S)
            a21 = I * beta / (1 + a * S) ** 2
            a22 = 1 - K + beta * S / (1 + a * S)
            want = (S, I, a11 + a22, a11 * a22 - a12 * a21)
        got = (*rep.location, rep.eigen.trace, rep.eigen.det)
        for value, exact in zip(got, want):
            assert math.isclose(value, exact, rel_tol=4.0 * sys.float_info.epsilon)

class TestEigenQuadratic:
    @pytest.mark.parametrize(
        "entries, mu1, mu2, sigma, omega",
        [
            ((0.0, -1.0, 1.0, 0.0), 1j, -1j, 0.0, 1.0),  # rotation by pi/2: a complex pair
            ((3.0, 0.0, 0.0, -0.5), 3.0, -0.5, 1.25, 0.0),  # diagonal: a real pair
        ],
        ids=["rotation", "diagonal"],
    )
    def test_roots(self, entries, mu1, mu2, sigma, omega):
        e = _eigen_quadratic(*entries)
        assert (e.mu1, e.mu2, e.sigma, e.omega) == (mu1, mu2, sigma, omega)
        assert abs(e.mu1) >= abs(e.mu2)


def _bits(e):
    """The bit patterns of every float an EigenData holds, signed zeros included."""
    floats = [e.trace, e.det, e.mu1.real, e.mu1.imag, e.mu2.real, e.mu2.imag, e.sigma, e.omega]
    return struct.pack("<8d", *floats)


class TestFloatJacobianPath:
    """The plain-float entries and eigen quadratic against the array path."""

    @given(
        r=st.floats(0.1, 6.0),
        beta=st.floats(0.05, 8.0),
        a=st.floats(0.0, 5.0),
        K=st.floats(0.01, 0.99),
        S=st.floats(-2.0, 2.0),
        I=st.floats(-1.0, 2.0),
    )
    @settings(max_examples=300, deadline=None)
    def test_entries_and_eigen_data_bit_for_bit(self, r, beta, a, K, S, I):
        p = ModelParams(r=r, beta=beta, a=a, K=K)
        try:
            J = numpy_jacobian(p, (S, I))
        except ValueError:
            with pytest.raises(ValueError, match="not finite"):
                _jacobian_entries(p, S, I)
            return
        entries = _jacobian_entries(p, S, I)
        assert struct.pack("<4d", *entries) == J.tobytes()
        assert _bits(_eigen_quadratic(*entries)) == _bits(_eigen_quadratic(*J.ravel().tolist()))

    @given(
        r=st.floats(1.05, 6.0),
        a=st.floats(0.0, 3.0),
        K=st.floats(0.1, 0.9),
        excess=st.floats(1.0e-3, 3.0),
    )
    @settings(max_examples=150, deadline=None)
    def test_endemic_eigen_data_is_that_of_its_jacobian(self, r, a, K, excess):
        p = ModelParams(r=r, beta=beta0_threshold(r, a, K) * (1.0 + excess), a=a, K=K)
        rep = endemic(p)
        assert _bits(rep.eigen) == _bits(_eigen_quadratic(*numpy_jacobian(p, rep.location).ravel().tolist()))

    @pytest.mark.parametrize(
        "x",
        [
            (-1.0, 0.1),  # the pole 1 + a*S = 0, with a = 1
            (1.0e308, 0.0),  # r*S*(1 - S) overflows
            (math.nan, 0.2),
            (0.5, math.inf),
        ],
    )
    def test_pole_and_non_finite_entries_are_value_errors(self, x):
        p = ModelParams(r=2.0, beta=1.0, a=1.0, K=0.5)
        with pytest.raises(ValueError, match="not finite"):
            _jacobian_entries(p, *x)


class TestClassifyBoundary:
    def test_E0_fold_at_r_one(self):
        p = ModelParams(r=1.0, beta=0.5, a=1, K=0.5)
        assert classify_boundary(p, "E0") is BoundaryTag.FOLD

    def test_E0_flip_at_r_three(self):
        beta = 0.8 * beta0_threshold(3.0, 1.0, 0.5)
        p = ModelParams(r=3.0, beta=beta, a=1, K=0.5)
        assert classify_boundary(p, "E0") is BoundaryTag.FLIP

    def test_E0_fold_flip_corner(self):
        p = ModelParams(r=3.0, beta=beta0_threshold(3.0, 1.0, 0.5), a=1, K=0.5)
        assert classify_boundary(p, "E0") is BoundaryTag.FOLD_FLIP

    def test_E0_transcritical_exchange_line(self):
        p = ModelParams(r=2.0, beta=beta0_threshold(2.0, 1.0, 0.5), a=1, K=0.5)
        assert classify_boundary(p, "E0") is BoundaryTag.FOLD

    def test_E0_interior_is_unlabeled(self):
        p = ModelParams(r=2.0, beta=1.0, a=1, K=0.5)
        assert classify_boundary(p, "E0") is None

    def test_E1_ns_at_beta2(self):
        p = ModelParams(r=35 / 16, beta=3.0, a=1, K=0.5)
        assert classify_boundary(p, "E1") is BoundaryTag.NEIMARK_SACKER

    def test_E1_flip_at_beta1(self):
        b1 = beta1_formula(3.6, 1.0, 0.5)
        p = ModelParams(r=3.6, beta=b1, a=1, K=0.5)
        assert classify_boundary(p, "E1") is BoundaryTag.FLIP

    def test_E1_strong_resonances(self):
        for x, tag in [
            (4.0, BoundaryTag.RESONANCE_12),
            (3.0, BoundaryTag.RESONANCE_13),
            (2.0, BoundaryTag.RESONANCE_14),
        ]:
            r = _resonance_growth(x, 1.0, 0.5)
            p = ModelParams(r=r, beta=beta2_threshold(r, 1.0, 0.5), a=1, K=0.5)
            assert classify_boundary(p, "E1") is tag

    @pytest.mark.parametrize("r", [0.5, 1.0, 1.0 + 1.0e-9])
    def test_E1_unlabeled_up_to_the_fold_band(self, r):
        # E1 meets E0 at r = 1: its boundaries start past 1 + TOL_BOUNDARY
        assert r <= 1.0 + TOL_BOUNDARY
        p = ModelParams(r=r, beta=beta0_threshold(2.0, 1.0, 0.5), a=1, K=0.5)
        assert classify_boundary(p, "E1") is None

    def test_rejects_unknown_point(self):
        p = ModelParams(r=2.0, beta=1.0, a=1, K=0.5)
        with pytest.raises(ValueError):
            classify_boundary(p, "E2")

    def test_E1_matches_the_threshold_table(self):
        # the tag evaluates each curve only where its decision reaches it;
        # it must agree with the full ``thresholds`` table on and off the curves
        def from_table(p):
            th = thresholds(p.r, p.a, p.K)
            tol, r, beta = 1e-9, p.r, p.beta
            if abs(r - 3.0) <= tol and abs(beta - th.beta0) <= tol:
                return BoundaryTag.FOLD_FLIP
            if abs(beta - th.beta2) <= tol:
                for r_star, tag in ((th.r_max, BoundaryTag.RESONANCE_12),
                                    (th.r_tilde, BoundaryTag.RESONANCE_13),
                                    (th.r_bar, BoundaryTag.RESONANCE_14)):
                    if abs(r - r_star) <= tol:
                        return tag
                if 1.0 < r < th.r_max:
                    return BoundaryTag.NEIMARK_SACKER
            if abs(beta - th.beta0) <= tol and 1.0 < r < 3.0:
                return BoundaryTag.FOLD
            if th.beta1 is not None and abs(beta - th.beta1) <= tol:
                return BoundaryTag.FLIP
            return None

        rng = np.random.default_rng(11)
        seen = set()
        for _ in range(300):
            a, K = rng.uniform(0.0, 3.0), rng.uniform(0.1, 0.9)
            r_max = _resonance_growth(4.0, a, K)
            for r in (rng.uniform(1.05, 2.95), rng.uniform(3.0, r_max), 3.0,
                      _resonance_growth(rng.choice([2.0, 3.0, 4.0]), a, K)):
                th = thresholds(r, a, K)
                for beta in (th.beta0, th.beta1, th.beta2):
                    for db in (0.0, 5e-10, -2e-9, 1e-3):
                        if beta is None or beta + db <= 0.0:
                            continue
                        p = ModelParams(r=r, beta=beta + db, a=a, K=K)
                        tag = classify_boundary(p, "E1")
                        assert tag is from_table(p), (r, beta + db, a, K)
                        seen.add(tag)
        assert seen == set(BoundaryTag) | {None}


class TestReportedStability:
    """A tagged fixed point is non-hyperbolic; elsewhere the eigenvalue band decides."""

    def test_tag_travels_with_the_report(self):
        b1 = beta1_formula(3.6, 1.0, 0.5)
        p = ModelParams(r=3.6, beta=b1, a=1, K=0.5)
        assert endemic(p).boundary is classify_boundary(p, "E1") is BoundaryTag.FLIP
        q = ModelParams(r=3.0, beta=0.5, a=1, K=0.5)
        assert disease_free(q).boundary is classify_boundary(q, "E0") is BoundaryTag.FLIP
        assert endemic(ModelParams(r=2, beta=3, a=1, K=0.5)).boundary is None
        assert all(rep.boundary is None for rep in period2_branch(ModelParams(3.4, 1.0, 1, 0.5)))

    def test_flip_tag_outside_the_eigenvalue_band(self):
        # beta1(r) + 9e-10: the eigenvalue -0.9999999971 lies 2.9e-9 from -1,
        # outside TOL_HYP, but the point is tagged flip
        p = ModelParams(r=4.075581455820886, beta=3.8747108775713635,
                        a=2.868102815667748, K=0.8582619896474796)
        rep = endemic(p)
        assert rep.boundary is BoundaryTag.FLIP
        assert abs(rep.eigen.mu2.real + 1.0) > 1e-9
        assert rep.stability is StabilityClass.NON_HYPERBOLIC

    def test_every_tagged_point_is_non_hyperbolic(self):
        rng = np.random.default_rng(12)
        for _ in range(100):
            a, K = rng.uniform(0.0, 3.0), rng.uniform(0.1, 0.9)
            r = rng.uniform(3.0, _resonance_growth(4.0, a, K))
            th = thresholds(r, a, K)
            for beta in (th.beta1, th.beta2):
                p = ModelParams(r=r, beta=beta + rng.uniform(-1e-9, 1e-9), a=a, K=K)
                rep = endemic(p)
                assert rep.boundary is not None
                assert rep.stability is StabilityClass.NON_HYPERBOLIC

    def test_untagged_unit_eigenvalue_keeps_the_band(self):
        # E0 at r = 3 above beta0 has the eigenvalue 2 - r = -1 but no tag
        p = ModelParams(r=3.0, beta=2.0 * beta0_threshold(3.0, 1.0, 0.5), a=1, K=0.5)
        rep = disease_free(p)
        assert rep.boundary is None
        assert rep.stability is StabilityClass.NON_HYPERBOLIC


class TestPeriod2Branch:
    def test_exists_only_past_flip(self):
        with pytest.raises(ValueError):
            period2_branch(ModelParams(r=2.9, beta=1.0, a=1, K=0.5))

    def test_points_swap_under_map(self):
        p = ModelParams(r=3.4, beta=1.0, a=1, K=0.5)
        lo, hi = period2_branch(p)
        assert lo.location.S < hi.location.S
        fwd = step(p, lo.location)
        assert abs(fwd.S - hi.location.S) < 1e-12
        assert fwd.I == 0.0
        assert lo.residual < 1e-12

    def test_branch_locations_closed_form(self):
        r = 3.4
        p = ModelParams(r=r, beta=1.0, a=1, K=0.5)
        lo, hi = period2_branch(p)
        root = math.sqrt((r - 3) * (r + 1))
        assert math.isclose(lo.location.S, (1 + r - root) / (2 * r), abs_tol=1e-14)
        assert math.isclose(hi.location.S, (1 + r + root) / (2 * r), abs_tol=1e-14)

    def test_tangential_multiplier_hits_minus_one_at_second_flip(self):
        r = 1.0 + math.sqrt(6.0)
        p = ModelParams(r=r, beta=1.1, a=1, K=0.5)
        lo, _ = period2_branch(p)
        mus = sorted([lo.eigen.mu1.real, lo.eigen.mu2.real])
        assert math.isclose(mus[0], -1.0, abs_tol=1e-12)

    def test_locations_within_2_ulp_of_50_digits_up_to_1e300(self):
        # past r = 4.5 the textbook smaller root cancels (to 0.0 at r = 1e150,
        # where it is about 1/r) and (r - 3)(r + 1) overflows past 1.3e154
        off = []
        for r in np.logspace(math.log10(3.0), 300, 200).tolist():
            lo, hi = period2_branch(ModelParams(r=r, beta=1.0, a=1, K=0.5))
            with mpmath.workdps(50):
                R = mpmath.mpf(r)
                s_plus = (1 + R + mpmath.sqrt((R - 3) * (R + 1))) / (2 * R)
                # the product of the roots is (r + 1)/r^2
                want = ((R + 1) / (R * R * s_plus), s_plus)
            for got, w in zip((lo.location.S, hi.location.S), want):
                ulps = float(abs(mpmath.mpf(got) - w) / math.ulp(float(w)))
                if not ulps <= 2.0:
                    off.append((r, got, ulps))
        assert off == []

    # the flip at r = 3 and just past it, the second flip at 1 + sqrt(6), r = 4
    @pytest.mark.parametrize(
        "r", [3.0, math.nextafter(3.0, 4.0), 3.0 + 1.0e-9, 3.2, 1.0 + math.sqrt(6.0), 3.7, 4.0, 4.5]
    )
    @pytest.mark.parametrize(
        "beta, a, K", [(0.01, 0.0, 0.5), (1.0, 1.0, 0.5), (3.0, 0.0, 0.01), (8.0, 5.0, 0.99)]
    )
    def test_eigen_data_are_those_of_the_numpy_product(self, r, beta, a, K):
        p = ModelParams(r=r, beta=beta, a=a, K=K)
        want = _bits(numpy_period2_eigen(p))
        assert [_bits(rep.eigen) for rep in period2_branch(p)] == [want, want]

    @given(
        r=st.one_of(st.just(3.0), st.floats(3.0, 4.5)),
        beta=st.floats(0.01, 8.0),
        a=st.one_of(st.just(0.0), st.floats(0.0, 5.0)),
        K=st.floats(0.01, 0.99),
    )
    @settings(max_examples=200, deadline=None)
    def test_eigen_data_match_the_numpy_product_at_random(self, r, beta, a, K):
        p = ModelParams(r=r, beta=beta, a=a, K=K)
        want = _bits(numpy_period2_eigen(p))
        assert [_bits(rep.eigen) for rep in period2_branch(p)] == [want, want]
