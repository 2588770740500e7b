"""Region geometry, case selection, and invariance probes."""
import math

import mpmath
import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from sirmap import (
    EscapeRecord,
    ModelParams,
    RegionSpec,
    State,
    applicable_region,
    invariance_probe,
    step,
    u_star,
)
from sirmap import positivity
from sirmap.positivity import _CONSTRAINTS, MEMBERSHIP_TOL, _holds, _sample_region


def contains(region, x) -> bool:
    """Whether the point meets every region inequality, through the probe's membership table."""
    return bool(_holds(region, np.float64(x[0]), np.float64(x[1]), MEMBERSHIP_TOL).all())


# five sets per region case, each verified escape-free at depth
CASE1_SETS = [
    (2.0, 1.5, 1.0, 0.25),
    (2.0, 2.2, 1.0, 0.25),
    (1.8, 1.0, 0.0, 0.40),
    (2.2, 2.5, 2.0, 0.36),
    (1.5, 1.2, 0.5, 0.20),
]
CASE2_SETS = [
    (2.9, 0.8, 0.5, 0.25),
    (4.0, 0.5, 0.0, 0.30),
    (3.5, 1.0, 1.0, 0.50),
    (3.0, 0.6, 2.0, 0.20),
    (2.9, 0.8, 0.0, 0.25),
]
CASE3_SETS = [
    (3.0, 2.05, 1.0, 0.30),
    (3.6, 2.80, 1.0, 0.50),
    (3.98, 2.65, 1.0, 0.50),
    (4.0, 2.45, 1.0, 0.45),
    (2.5, 1.75, 1.0, 0.20),
]
ALL_SETS = [(s, 1) for s in CASE1_SETS] + [(s, 2) for s in CASE2_SETS] + [
    (s, 3) for s in CASE3_SETS
]


def _u_star(r, K):
    return (r - 1.0 + K) ** 2 / (4.0 * K * r)


def _v_plus(u):
    return (u + math.sqrt(u * u - 1.0)) / 2.0


# crossing grids: case 2 over (r, K) x a x beta, down to beta = 1e-320 where
# v = r/beta is inf; case 3 along the window r/u* < beta < r/v_plus at the
# fractions t (t -> 1, the double root, is ill-conditioned)
GRID_R_K = [
    (r, K)
    for r in (2.3, 3.3, 3.9, 4.0)
    for K in (0.01, 0.1, 0.5, 0.9)
    if (math.sqrt(K) + 1.0) ** 2 < r  # case 2 needs it
]
GRID_A = [0.0, 1e-300, 1e-16, 1e-12, 1e-8, 1e-4, 0.01, 0.1, 0.5, 1.0, 2.0, 3.0, 1e6]
GRID_BETA = [1e-320, 1e-300, 1e-200, 1e-100, 1e-16, 1e-8, 1e-4, 0.01, 0.1, 0.3, 0.5, 0.8]
WINDOW_T = [1e-9, 1e-3, 0.1, 0.5, 0.9]
WINDOW_R_K = [
    (r, K)
    for r in (3.0, 3.6, 3.98, 4.0)
    for K in (0.5, 0.3, 0.1, 1e-3)
    if _u_star(r, K) > 1.25  # case 3 needs u* > 5/4
]


def _in_case2(r, beta, a, K):
    """The documented case-2 conditions, case 3's window taking precedence."""
    u = _u_star(r, K)
    if not ((math.sqrt(K) + 1.0) ** 2 < r <= 4.0 and u > 1.0 and beta < r / (2.0 * u - 1.0)):
        return False
    return not (a == 1.0 and u > 1.25 and r / u < beta < r / _v_plus(u))


def _crossing_roots(u, v, a):
    """Both 50-digit roots of ``v*a*x^2 - (v*a - v + 1)*x + (u - v) = 0``.

    Taken without cancellation from the float (u, v, a): divided by v the
    quadratic is ``a*x^2 - b*x - c = 0``, and the textbook form of its
    larger root loses every digit at a = 1e-300, even at 50 digits.  At
    a = 0 the only root is returned.
    """
    with mpmath.workdps(50):
        u, v, a = mpmath.mpf(u), mpmath.mpf(v), mpmath.mpf(a)
        b = a - 1 + 1 / v
        c = 1 - u / v
        root = mpmath.sqrt(b * b + 4 * a * c)
        q = b + root if b >= 0 else b - root
        return sorted([-2 * c / q] + ([q / (2 * a)] if a else []))


def _ulps_off(x, want) -> float:
    """|x - want| in units of the last place of the float nearest ``want``."""
    return float(abs(x - want) / math.ulp(float(want)))


def test_u_star_golden():
    p = ModelParams(r=2, beta=1.5, a=1, K=0.25)
    assert u_star(p) == 0.78125


class TestApplicableRegion:
    @pytest.mark.parametrize("params,case", ALL_SETS)
    def test_case_selection(self, params, case):
        r, beta, a, K = params
        reg = applicable_region(ModelParams(r=r, beta=beta, a=a, K=K))
        assert reg is not None
        assert reg.case == case

    def test_triangle_has_no_crossings(self):
        reg = applicable_region(ModelParams(r=2, beta=1.5, a=1, K=0.25))
        assert reg.crossings == ()
        assert reg.u_star <= 1.0

    def test_no_case_applies(self):
        assert applicable_region(ModelParams(r=1.1, beta=5, a=1, K=0.5)) is None

    def test_case1_band_excludes_beta_equal_r(self):
        # the triangle case needs beta < r strictly or r < beta strictly
        assert applicable_region(ModelParams(r=2, beta=2, a=1, K=0.25)) is None

    @pytest.mark.parametrize("params", CASE2_SETS)
    def test_case2_crossing_solves_line_meets_nullcline(self, params):
        r, beta, a, K = params
        reg = applicable_region(ModelParams(r=r, beta=beta, a=a, K=K))
        (xbar,) = reg.crossings
        assert 0.5 < xbar < 1.0
        assert abs((reg.u_star - xbar) - float(reg.nullcline(xbar))) < 1e-12

    @pytest.mark.parametrize("beta", [1e-100, 1e-150, 1e-154, 1e-160, 1e-200, 1e-300])
    @pytest.mark.parametrize("a", [0.5, 1.0, 2.0])
    def test_case2_crossing_solves_line_meets_nullcline_for_tiny_beta(self, beta, a):
        # v = r/beta up to 3.9e300: the crossing is the 50-digit root of
        # v*a*x^2 - (v*a - v + 1)*x + (u - v) = 0, to within 2 ulp of 1
        reg = applicable_region(ModelParams(r=3.9, beta=beta, a=a, K=0.5))
        assert reg.case == 2
        (xbar,) = reg.crossings
        assert 0.0 < xbar <= 1.0
        assert abs(xbar - _crossing_roots(reg.u_star, reg.v, a)[-1]) <= 2.0 * 2.0**-53

    @pytest.mark.parametrize("r,K", GRID_R_K)
    def test_case2_crossing_within_2_ulp_on_grid(self, r, K):
        # the larger root, in (0, 1], for a from 0 to 1e6 and beta down to
        # 1e-320 (v = inf); the textbook root put 204 of these points
        # outside (0, 1]
        off, checked = [], 0
        for a in GRID_A:
            for beta in GRID_BETA:
                if not _in_case2(r, beta, a, K):
                    continue
                reg = applicable_region(ModelParams(r=r, beta=beta, a=a, K=K))
                assert reg.case == 2, (a, beta)
                (x,) = reg.crossings
                ulps = _ulps_off(x, _crossing_roots(reg.u_star, reg.v, a)[-1])
                if not (0.0 < x <= 1.0 and ulps <= 2.0):
                    off.append((a, beta, x, ulps))
                checked += 1
        assert checked > 0
        assert off == []

    @pytest.mark.parametrize("params", CASE3_SETS)
    def test_case3_crossings_interior_and_ordered(self, params):
        r, beta, a, K = params
        reg = applicable_region(ModelParams(r=r, beta=beta, a=a, K=K))
        x1, x2 = reg.crossings
        assert 0.0 < x1 < 0.5 < x2 < 1.0
        for x in (x1, x2):
            assert abs((reg.u_star - x) - float(reg.nullcline(x))) < 1e-12

    @pytest.mark.parametrize("r,K", WINDOW_R_K)
    def test_case3_crossings_within_2_ulp_along_window(self, r, K):
        # beta = r/u* + t*(r/v_plus - r/u*): near t = 0 the smaller root
        # tends to 0 and the textbook form lost its digits
        u = _u_star(r, K)
        off = []
        for t in WINDOW_T:
            beta = r / u + t * (r / _v_plus(u) - r / u)
            reg = applicable_region(ModelParams(r=r, beta=beta, a=1.0, K=K))
            assert reg.case == 3, t
            for x, want in zip(reg.crossings, _crossing_roots(reg.u_star, reg.v, 1.0)):
                ulps = _ulps_off(x, want)
                if not (0.0 < x <= 1.0 and ulps <= 2.0):
                    off.append((t, x, ulps))
        assert off == []

    @pytest.mark.parametrize("r,K", [(3.9, 0.53), (3.27, 0.05), (3.94, 0.62)])
    def test_case3_window_edge_gives_the_double_root(self, r, K):
        # one float below r/v_plus the discriminant rounds below zero; the
        # crossings are then the double root, not a math domain error
        u = _u_star(r, K)
        beta = math.nextafter(r / _v_plus(u), 0.0)
        reg = applicable_region(ModelParams(r=r, beta=beta, a=1.0, K=K))
        assert reg.case == 3
        x1, x2 = reg.crossings
        assert 0.0 < x1 <= x2 < 1.0
        assert x2 - x1 < 1e-7
        for x in (x1, x2):
            assert abs((reg.u_star - x) - float(reg.nullcline(x))) < 1e-12

    def test_case3_needs_unit_a(self):
        # same window otherwise, but a != 1 falls through to no region
        assert applicable_region(ModelParams(r=3.6, beta=2.8, a=1.2, K=0.5)) is None


class TestContains:
    def test_origin_in_every_region(self):
        for (r, beta, a, K), _ in ALL_SETS:
            reg = applicable_region(ModelParams(r=r, beta=beta, a=a, K=K))
            assert contains(reg, (0.0, 0.0))

    def test_triangle_sum_constraint(self):
        reg = applicable_region(ModelParams(r=2, beta=1.5, a=1, K=0.25))
        assert not contains(reg, (0.5, 0.3))   # 0.8 > 0.78125
        assert contains(reg, (0.5, 0.28))

    def test_boundary_counts_as_inside(self):
        reg = applicable_region(ModelParams(r=2, beta=1.5, a=1, K=0.25))
        assert contains(reg, (reg.u_star, 0.0))

    def test_point_above_nullcline_rejected(self):
        r, beta, a, K = CASE2_SETS[0]
        reg = applicable_region(ModelParams(r=r, beta=beta, a=a, K=K))
        (xbar,) = reg.crossings
        x = (xbar + 1.0) / 2.0
        y = float(reg.nullcline(x))
        assert contains(reg, (x, y))
        assert not contains(reg, (x, y + 1e-9))

    def test_every_inequality_has_the_slack(self):
        # half the slack past each boundary meets that inequality, twice the
        # slack does not
        r, beta, a, K = CASE2_SETS[0]
        reg = applicable_region(ModelParams(r=r, beta=beta, a=a, K=K))
        x = (reg.crossings[0] + 1.0) / 2.0
        top = float(reg.nullcline(x))
        for row, (point, outward) in enumerate((
            ((0.0, 0.5), (-1.0, 0.0)),
            ((0.5, 0.0), (0.0, -1.0)),
            ((0.5, reg.u_star - 0.5), (0.0, 1.0)),
            ((1.0, 0.0), (1.0, 0.0)),
            ((x, top), (0.0, 1.0)),
        )):
            S, I = (
                np.array([c + f * MEMBERSHIP_TOL * d for f in (0.5, 2.0)])
                for c, d in zip(point, outward)
            )
            table = _holds(reg, S, I, MEMBERSHIP_TOL)
            assert table[row].tolist() == [True, False], _CONSTRAINTS[row]

    def test_case3_left_wall_tops_at_nullcline(self):
        r, beta, a, K = CASE3_SETS[1]
        reg = applicable_region(ModelParams(r=r, beta=beta, a=a, K=K))
        v = r / beta
        assert contains(reg, (0.0, v))
        assert not contains(reg, (0.0, v + 1e-9))

    @pytest.mark.parametrize("params", [CASE1_SETS[0], CASE2_SETS[0], CASE3_SETS[0]])
    def test_nan_coordinate_is_outside(self, params):
        # the first two are the triangle-region and capped-region presets
        reg = applicable_region(ModelParams(*params))
        for point in ((math.nan, 0.0), (0.0, math.nan), (math.nan, math.nan)):
            assert not contains(reg, point), point


class TestInvarianceProbe:
    @pytest.mark.parametrize("params,case", ALL_SETS)
    def test_zero_escapes(self, params, case):
        r, beta, a, K = params
        p = ModelParams(r=r, beta=beta, a=a, K=K)
        rep = invariance_probe(p, samples=400, steps=400, seed=0)
        assert rep.region.case == case
        assert rep.escape_count == 0
        assert rep.escapes == []

    def test_leaky_window_is_reported_not_raised(self):
        # inside the case-3 window but past the invariance margin: the
        # upper boundary maps above the nullcline near x=0
        p = ModelParams(r=3.98, beta=2.8, a=1.0, K=0.5)
        rep = invariance_probe(p, samples=1000, steps=1000, seed=0)
        assert rep.escape_count > 0
        assert all(e.constraint == "I>nullcline" for e in rep.escapes)
        assert all(e.point[0] < 0.15 for e in rep.escapes)

    def test_hand_built_region_probe(self):
        # a case-3 shaped region at parameters outside every case leaks
        # in the very first step
        p = ModelParams(r=3.0, beta=2.0, a=1.0, K=0.1)
        assert applicable_region(p) is None
        reg = RegionSpec(case=3, params=p, u_star=u_star(p), v=1.5)
        assert contains(reg, (0.5, 1.12))
        after = step(p, State(0.5, 1.12))
        assert not contains(reg, after)
        rep = invariance_probe(p, samples=200, steps=50, seed=0, region=reg)
        assert rep.escape_count > 0

    def test_no_region_and_no_override_raises(self):
        p = ModelParams(r=1.1, beta=5, a=1, K=0.5)
        with pytest.raises(ValueError, match="no invariance region"):
            invariance_probe(p, samples=10, steps=10)

    def test_deterministic_for_fixed_seed(self):
        p = ModelParams(r=3.98, beta=2.8, a=1.0, K=0.5)
        a1 = invariance_probe(p, samples=300, steps=200, seed=7)
        a2 = invariance_probe(p, samples=300, steps=200, seed=7)
        assert a1.escape_count == a2.escape_count
        assert a1.escapes == a2.escapes

    def test_rejects_nonpositive_counts(self):
        p = ModelParams(r=2, beta=1.5, a=1, K=0.25)
        with pytest.raises(ValueError):
            invariance_probe(p, samples=0, steps=10)

    def test_rejects_negative_seed(self):
        p = ModelParams(r=2, beta=1.5, a=1, K=0.25)
        with pytest.raises(ValueError, match="seed=-3"):
            invariance_probe(p, samples=10, steps=10, seed=-3)


def _scalar_probe(p, region, samples, steps, seed, starts=None):
    """Reference for invariance_probe: one orbit at a time with core.step.

    Each start (the region's seeded sample, or the ``(S0, I0)`` arrays
    ``starts``) is stepped as a plain-float State for all ``steps`` steps
    or up to its first exit, labelled by the first violated constraint in
    the documented order.  Records come back ordered by step, then sample
    index.
    """
    S0, I0 = starts or _sample_region(region, samples, np.random.default_rng(seed))
    tol = MEMBERSHIP_TOL
    records = []
    for index in range(samples):
        x = State(float(S0[index]), float(I0[index]))
        for k in range(1, steps + 1):
            x = step(p, x)
            S, I = x
            checks = [
                ("S<0", S < -tol),
                ("I<0", I < -tol),
                ("S+I>u*", S + I > region.u_star + tol),
            ]
            if region.case != 1:
                checks += [
                    ("S>1", S > 1.0 + tol),
                    ("I>nullcline", I > region.nullcline(S) + tol),
                ]
            failed = [name for name, bad in checks if bad]
            if failed:
                records.append(EscapeRecord(index, k, (S, I), failed[0]))
                break
    return sorted(records, key=lambda e: (e.step, e.index))


def _hand_built(case, r, beta, a, K, v, u=None):
    p = ModelParams(r=r, beta=beta, a=a, K=K)
    return p, RegionSpec(case=case, params=p, u_star=u_star(p) if u is None else u, v=v)


def _count_kernel_calls(monkeypatch):
    """The list that gains one entry per ``positivity._step_into`` call."""
    calls = []
    kernel = positivity._step_into
    monkeypatch.setattr(positivity, "_step_into", lambda *a: calls.append(kernel(*a)))
    return calls


class TestProbeOracle:
    @pytest.mark.parametrize(
        "p, region, want",
        [
            # the hand-built case-3 region of TestInvarianceProbe
            (*_hand_built(3, 3.0, 2.0, 1.0, 0.1, v=1.5), {"I>nullcline"}),
            # the leaking curved-region preset
            (ModelParams(r=3.98, beta=2.8, a=1.0, K=0.5), None, {"I>nullcline"}),
            # a capped region with r > 4, where S overshoots 1
            (*_hand_built(2, 4.5, 0.3, 1.0, 0.5, v=15.0, u=1.5), {"S>1", "S+I>u*", "I>nullcline"}),
            # a triangle under too high a ceiling: exits over many steps
            (*_hand_built(1, 3.5, 1.0, 0.2, 0.3, v=3.5, u=1.2), {"S+I>u*", "S<0"}),
        ],
    )
    def test_records_match_scalar_orbits(self, p, region, want):
        region = region or applicable_region(p)
        samples, steps, seed = 300, 80, 0
        expected = _scalar_probe(p, region, samples, steps, seed)
        assert {e.constraint for e in expected} == want
        rep = invariance_probe(
            p, samples=samples, steps=steps, seed=seed, region=region, max_records=samples
        )
        assert rep.escape_count == len(expected)
        assert rep.escapes == expected
        capped = invariance_probe(p, samples=samples, steps=steps, seed=seed, region=region)
        assert capped.escape_count == len(expected)
        assert capped.escapes == expected[:50]

    def test_ensemble_empties_within_two_steps(self, monkeypatch):
        # a ceiling far too low for r = 100: every orbit exits at step 1 or
        # 2, and the loop stops once the ensemble is empty
        p, region = _hand_built(1, 100.0, 0.5, 1.0, 0.5, v=200.0, u=1.0)
        samples, steps, seed = 300, 80, 0
        expected = _scalar_probe(p, region, samples, steps, seed)
        assert len(expected) == samples
        assert {e.step for e in expected} == {1, 2}
        calls = _count_kernel_calls(monkeypatch)
        rep = invariance_probe(
            p, samples=samples, steps=steps, seed=seed, region=region, max_records=samples
        )
        assert len(calls) == 2
        assert rep.escape_count == samples
        assert rep.escapes == expected

    def test_no_records_kept(self):
        p = ModelParams(r=3.98, beta=2.8, a=1.0, K=0.5)  # the leaking curved-region preset
        samples, steps, seed = 300, 80, 0
        expected = _scalar_probe(p, applicable_region(p), samples, steps, seed)
        rep = invariance_probe(p, samples=samples, steps=steps, seed=seed, max_records=0)
        assert rep.escape_count == len(expected) > 0
        assert rep.escapes == []


class TestProbeSettledOrbits:
    """The probe drops an orbit once its state is its own image bit for bit."""

    @pytest.mark.parametrize("params, steps", [(CASE1_SETS[0], 450), (CASE2_SETS[0], 250)])
    def test_sealed_presets_match_scalar_orbits_past_the_settle_step(
        self, monkeypatch, params, steps
    ):
        # the triangle-region and capped-region presets: every orbit lands
        # on E1 within the run, and none leaves
        p = ModelParams(*params)
        samples, seed = 60, 3
        expected = _scalar_probe(p, applicable_region(p), samples, steps, seed)
        calls = _count_kernel_calls(monkeypatch)
        rep = invariance_probe(p, samples=samples, steps=steps, seed=seed, max_records=samples)
        assert rep.escape_count == len(expected) == 0
        assert rep.escapes == []
        assert len(calls) < steps

    @pytest.mark.parametrize("params", [CASE1_SETS[0], CASE2_SETS[0]])
    def test_sealed_presets_stop_early(self, monkeypatch, params):
        p = ModelParams(*params)
        steps = 1000
        calls = _count_kernel_calls(monkeypatch)
        rep = invariance_probe(p, samples=1000, steps=steps, seed=0)
        assert rep.escape_count == 0
        assert len(calls) < steps / 2

    def test_kernel_runs_every_step_while_no_orbit_settles(self, monkeypatch):
        # the leaking curved-region preset: its orbits escape at step 1 or
        # never settle on a fixed point
        p = ModelParams(r=3.98, beta=2.8, a=1.0, K=0.5)
        samples, steps, seed = 1000, 200, 0
        expected = _scalar_probe(p, applicable_region(p), samples, steps, seed)
        calls = _count_kernel_calls(monkeypatch)
        rep = invariance_probe(p, samples=samples, steps=steps, seed=seed, max_records=samples)
        assert rep.escapes == expected
        assert len(calls) == steps

    def test_lowered_ceiling_mixes_escapes_and_settled_orbits(self, monkeypatch):
        # the triangle-region preset under a ceiling 5% lower: orbits leave
        # at many steps on the way round the focus E1, the rest settle on it
        p = ModelParams(*CASE1_SETS[0])
        region = RegionSpec(case=1, params=p, u_star=0.95 * u_star(p), v=p.r / p.beta)
        samples, steps, seed = 40, 450, 0
        expected = _scalar_probe(p, region, samples, steps, seed)
        assert 0 < len(expected) < samples
        assert len({e.step for e in expected}) > 10
        calls = _count_kernel_calls(monkeypatch)
        rep = invariance_probe(
            p, samples=samples, steps=steps, seed=seed, region=region, max_records=samples
        )
        assert rep.escapes == expected
        assert len(calls) < steps

    @given(factor=st.floats(0.9, 1.0), seed=st.integers(0, 3))
    @settings(max_examples=20, deadline=None)
    def test_lowered_ceiling_matches_scalar_orbits(self, factor, seed):
        p = ModelParams(*CASE1_SETS[0])
        region = RegionSpec(case=1, params=p, u_star=factor * u_star(p), v=p.r / p.beta)
        samples, steps = 40, 450
        expected = _scalar_probe(p, region, samples, steps, seed)
        rep = invariance_probe(
            p, samples=samples, steps=steps, seed=seed, region=region, max_records=samples
        )
        assert rep.escape_count == len(expected)
        assert rep.escapes == expected

    @given(exponents=st.lists(st.integers(24, 60), min_size=1, max_size=6))
    @settings(max_examples=20, deadline=None)
    def test_orbit_whose_infected_still_move_is_kept(self, exponents):
        # at r = 2 the susceptibles S = 1/2 are bit-fixed while I < 1e-17
        # grows by 1.75 a step from 1e-24..1e-60; the orbits pass settle
        # steps with S unchanged and leave over the ceiling 0.6 later
        p = ModelParams(r=2.0, beta=3.0, a=1.0, K=0.25)
        region = RegionSpec(case=1, params=p, u_star=0.6, v=p.r / p.beta)
        S0 = np.full(len(exponents), 0.5)
        I0 = 10.0 ** -np.array(exponents, dtype=float)
        samples, steps = len(exponents), 400
        expected = _scalar_probe(p, region, samples, steps, 0, starts=(S0, I0))
        assert len(expected) == samples
        assert min(e.step for e in expected) > 2 * positivity._SETTLE_EVERY
        with pytest.MonkeyPatch.context() as mp:
            mp.setattr(positivity, "_sample_region", lambda *_: (S0.copy(), I0.copy()))
            rep = invariance_probe(
                p, samples=samples, steps=steps, seed=0, region=region, max_records=samples
            )
        assert rep.escapes == expected

    def test_orbit_whose_susceptibles_still_move_is_kept(self, monkeypatch):
        # on the axis I = 0 the infected stay bit-fixed while S runs the
        # chaotic logistic map at r = 3.9, up to 0.975; the orbits leave
        # over the ceiling 0.9745 at steps 7 to 374
        p = ModelParams(r=3.9, beta=1.0, a=1.0, K=0.5)
        region = RegionSpec(case=1, params=p, u_star=0.9745, v=p.r / p.beta)
        S0 = np.linspace(0.05, 0.95, 20)
        I0 = np.zeros_like(S0)
        samples, steps = S0.size, 400
        expected = _scalar_probe(p, region, samples, steps, 0, starts=(S0, I0))
        assert len(expected) == samples
        assert max(e.step for e in expected) > 2 * positivity._SETTLE_EVERY
        monkeypatch.setattr(positivity, "_sample_region", lambda *_: (S0.copy(), I0.copy()))
        rep = invariance_probe(
            p, samples=samples, steps=steps, seed=0, region=region, max_records=samples
        )
        assert rep.escapes == expected


class TestCeilingLemma:
    @given(
        r=st.floats(1.2, 4.0),
        beta=st.floats(0.1, 4.0),
        a=st.floats(0.0, 3.0),
        K=st.floats(0.05, 0.95),
        fs=st.floats(0.0, 1.0),
        fi=st.floats(0.0, 1.0),
    )
    @settings(max_examples=150, deadline=None)
    def test_sum_stays_below_ceiling(self, r, beta, a, K, fs, fi):
        # S+I <= u* is preserved by one step whenever S in [0, 1]
        p = ModelParams(r=r, beta=beta, a=a, K=K)
        u = u_star(p)
        S = fs * min(u, 1.0)
        I = fi * (u - S)
        out = step(p, State(S, I))
        assert out.S + out.I <= u + 1e-12

    @given(
        r=st.floats(0.5, 4.0),
        beta=st.floats(0.1, 5.0),
        a=st.floats(0.0, 3.0),
        K=st.floats(0.05, 0.95),
        S=st.floats(0.0, 50.0),
        I=st.floats(0.0, 50.0),
    )
    @settings(max_examples=150, deadline=None)
    def test_new_susceptible_below_one(self, r, beta, a, K, S, I):
        # S' <= 1 for every non-negative start when r <= 4; equality
        # only at the corner r=4, S=1/2, I=0
        p = ModelParams(r=r, beta=beta, a=a, K=K)
        assert step(p, State(S, I)).S <= 1.0

    def test_conservation_identity(self):
        # S' + I' = S*(r-1+K-r*S) + (1-K)*(S+I), exactly as rearranged
        rng = np.random.default_rng(3)
        for _ in range(200):
            r, beta, a, K = rng.uniform([1.1, 0.2, 0.0, 0.1], [4.0, 4.0, 3.0, 0.9])
            S, I = rng.uniform(0.0, 1.0, size=2)
            p = ModelParams(r=r, beta=beta, a=a, K=K)
            out = step(p, State(S, I))
            rhs = S * (r - 1.0 + K - r * S) + (1.0 - K) * (S + I)
            assert abs((out.S + out.I) - rhs) < 1e-12

    def test_u_star_crosses_one_at_band_edge(self):
        # u* = 1 exactly at r = (1 ± sqrt(K))^2; for growth past the
        # upper edge the ceiling exceeds 1, between the edges it stays
        # below 1
        for K in (0.1, 0.3, 0.5, 0.7, 0.9):
            edge = (1.0 + math.sqrt(K)) ** 2
            assert abs(u_star(ModelParams(r=edge, beta=1.0, a=1.0, K=K)) - 1.0) < 1e-12
            for r in np.linspace(1.05, 4.0, 41):
                if abs(r - edge) < 1e-9:
                    continue
                p = ModelParams(r=float(r), beta=1.0, a=1.0, K=K)
                assert (u_star(p) > 1.0) == (r > edge)
