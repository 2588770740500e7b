"""Map evaluation, scaling from the three-compartment model, parameter validation, orbit iteration."""
import math
import time

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from sirmap import (
    DivergenceError,
    ModelParams,
    Orbit,
    State,
    iterate,
    jacobian,
    step,
)
from sirmap import core
from sirmap.cli import PRESETS
from sirmap.core import _advance, _step_into

from oracles import UnscaledParams, exact_cycle, plain_advance, scale_params, step_full


def test_step_golden():
    # hand arithmetic: S' = 2*.25 - .5*.5/1.5 = 1/3, I' = .25 + 1/6 = 5/12
    p = ModelParams(r=2, beta=1, a=1, K=0.5)
    x1 = step(p, (0.5, 0.5))
    assert math.isclose(x1.S, 1.0 / 3.0, rel_tol=0, abs_tol=1e-15)
    assert math.isclose(x1.I, 5.0 / 12.0, rel_tol=0, abs_tol=1e-15)


def test_step_returns_state():
    p = ModelParams(r=2, beta=1, a=1, K=0.5)
    out = step(p, (0.5, 0.5))
    assert isinstance(out, State)


class TestModelParams:
    def test_rejects_bad_r(self):
        with pytest.raises(ValueError, match="r > 0"):
            ModelParams(r=0.0, beta=1, a=1, K=0.5)
        with pytest.raises(ValueError, match="finite r"):
            ModelParams(r=math.inf, beta=1, a=1, K=0.5)

    def test_rejects_bad_beta(self):
        with pytest.raises(ValueError, match="beta > 0"):
            ModelParams(r=2, beta=-1, a=1, K=0.5)
        with pytest.raises(ValueError, match="finite beta"):
            ModelParams(r=2, beta=math.inf, a=1, K=0.5)

    def test_rejects_negative_a(self):
        with pytest.raises(ValueError, match="a >= 0"):
            ModelParams(r=2, beta=1, a=-0.1, K=0.5)
        with pytest.raises(ValueError, match="finite a"):
            ModelParams(r=2, beta=1, a=math.nan, K=0.5)

    def test_rejects_K_out_of_range(self):
        with pytest.raises(ValueError, match="0 < K < 1"):
            ModelParams(r=2, beta=1, a=1, K=1.18)
        with pytest.raises(ValueError):
            ModelParams(r=2, beta=1, a=1, K=0.0)

    def test_frozen(self):
        p = ModelParams(r=2, beta=1, a=1, K=0.5)
        with pytest.raises(AttributeError):
            p.r = 3.0


class TestScaling:
    """The planar map against the three-compartment model it is scaled from."""

    def test_golden_one(self):
        u = UnscaledParams(rho=1, c=1, beta=1, a=0.5, mu=0.2, gamma=0.3)
        p, alpha = scale_params(u)
        assert alpha == 2.0
        assert p == ModelParams(r=2.0, beta=2.0, a=1.0, K=0.5)

    def test_golden_two(self):
        u = UnscaledParams(rho=2, c=3, beta=1, a=0, mu=0.1, gamma=0.1)
        p, alpha = scale_params(u)
        assert alpha == 4.5
        assert p == ModelParams(r=3.0, beta=4.5, a=0.0, K=0.2)

    @given(
        rho=st.floats(0.2, 3.0),
        c=st.floats(0.5, 4.0),
        bt=st.floats(0.1, 3.0),
        at=st.floats(0.0, 2.0),
        mu=st.floats(0.01, 0.45),
        gamma=st.floats(0.01, 0.45),
        S=st.floats(0.01, 0.5),
        I=st.floats(0.01, 0.5),
    )
    @settings(max_examples=60, deadline=None)
    def test_one_step_commutes_with_scaling(self, rho, c, bt, at, mu, gamma, S, I):
        # stepping the three-compartment system then scaling equals
        # scaling then stepping the planar map
        u = UnscaledParams(rho=rho, c=c, beta=bt, a=at, mu=mu, gamma=gamma)
        p, alpha = scale_params(u)
        full_S, full_I = step_full(u, (S * c, I * c))
        reduced = step(p, (S * c / alpha, I * c / alpha))
        assert math.isclose(full_S / alpha, reduced.S, rel_tol=1e-12, abs_tol=1e-12)
        assert math.isclose(full_I / alpha, reduced.I, rel_tol=1e-12, abs_tol=1e-12)


class TestJacobian:
    def test_shape_and_values_at_origin_row(self):
        p = ModelParams(r=2, beta=3, a=1, K=0.5)
        J = jacobian(p, (0.5, 0.0))
        assert J.shape == (2, 2)
        # on the I=0 axis: dS'/dS = r - 2 r S, dI'/dI = 1 - K + phi(S)
        assert math.isclose(J[0, 0], 2 - 2 * 2 * 0.5, abs_tol=1e-15)
        assert J[1, 0] == 0.0
        assert math.isclose(J[1, 1], 0.5 + 3 * 0.5 / 1.5, abs_tol=1e-15)

    @given(
        r=st.floats(1.1, 4.0),
        beta=st.floats(0.2, 4.0),
        a=st.floats(0.0, 3.0),
        K=st.floats(0.05, 0.95),
        S=st.floats(0.01, 0.95),
        I=st.floats(0.0, 0.8),
    )
    @settings(max_examples=80, deadline=None)
    def test_matches_finite_differences(self, r, beta, a, K, S, I):
        p = ModelParams(r=r, beta=beta, a=a, K=K)
        J = jacobian(p, (S, I))
        h = 1e-6
        fd = np.empty((2, 2))
        for j, e in enumerate(((h, 0.0), (0.0, h))):
            plus = step(p, (S + e[0], I + e[1]))
            minus = step(p, (S - e[0], I - e[1]))
            fd[0, j] = (plus.S - minus.S) / (2 * h)
            fd[1, j] = (plus.I - minus.I) / (2 * h)
        assert np.allclose(J, fd, rtol=1e-6, atol=1e-6)

    @pytest.mark.parametrize("a", [1.0, 2.0, 0.5])
    def test_pole_is_value_error(self, a):
        p = ModelParams(r=2, beta=1, a=a, K=0.5)
        with pytest.raises(ValueError, match="not finite"):
            jacobian(p, (-1.0 / a, 0.1))


class TestIterate:
    def test_returns_orbit_with_requested_window(self):
        p = ModelParams(r=2, beta=3, a=1, K=0.5)
        orb = iterate(p, (0.5, 0.1), n_transient=100, n_keep=50)
        assert isinstance(orb, Orbit)
        assert len(orb.states) == 50
        assert orb.states.shape == (50, 2)
        assert not orb.escaped

    def test_rows_are_consecutive_states(self):
        # row k + 1 is the step of row k; the columns are S and I
        p = ModelParams(r=2, beta=3, a=1, K=0.5)
        orb = iterate(p, (0.5, 0.1), n_transient=10, n_keep=5)
        assert orb.states.dtype == np.float64
        rows = orb.states.tolist()
        for row, following in zip(rows, rows[1:]):
            assert step(p, row) == State(*following)

    def test_settles_on_endemic_point(self):
        p = ModelParams(r=1.8, beta=3, a=1, K=0.5)
        orb = iterate(p, (0.6, 0.2))
        assert abs(orb.states[-1, 0] - 0.2) < 1e-9
        assert abs(orb.states[-1, 1] - 0.176) < 1e-9

    def test_axis_is_invariant(self):
        p = ModelParams(r=3.7, beta=1.1, a=1, K=0.5)
        orb = iterate(p, (0.4, 0.0), n_transient=500, n_keep=200)
        assert np.all(orb.states[:, 1] == 0.0)

    def test_escape_is_recorded_not_raised(self):
        # r far above 4 throws the logistic branch out of [0,1] immediately
        p = ModelParams(r=40.0, beta=1.0, a=1.0, K=0.5)
        orb = iterate(p, (0.9, 0.0), n_transient=0, n_keep=50)
        assert orb.escaped
        assert orb.escaped_at is not None
        assert len(orb.states) <= 50

    @pytest.mark.parametrize(
        "p, x0, n_transient, n_keep",
        [
            (ModelParams(r=3.6, beta=2.85, a=1.0, K=0.5), (0.6, 0.2), 100, 300),
            # escapes inside the window: at step 3, and at step 2750
            (ModelParams(r=40.0, beta=1.0, a=1.0, K=0.5), (0.9, 0.0), 0, 50),
            (ModelParams(r=4.0 + 1.0e-6, beta=0.5, a=1.0, K=0.5), (0.34, 0.0), 2000, 2000),
            # escapes in the transient; an empty window
            (ModelParams(r=40.0, beta=1.0, a=1.0, K=0.5), (0.9, 0.0), 10, 5),
            (ModelParams(r=2.0, beta=3.0, a=1.0, K=0.5), (0.5, 0.1), 10, 0),
        ],
    )
    def test_matches_plain_step_loop(self, p, x0, n_transient, n_keep):
        x, kept, want_escape = x0, [], None
        for k in range(n_transient + n_keep):
            if not abs(x[0]) + abs(x[1]) <= 1.0e6:
                want_escape = k
                break
            if k >= n_transient:
                kept.append(x)
            x = step(p, x)
        orb = iterate(p, x0, n_transient=n_transient, n_keep=n_keep)
        assert orb.escaped_at == want_escape
        np.testing.assert_array_equal(orb.states, np.array(kept, dtype=float).reshape(-1, 2))

    def test_pole_is_an_escape(self):
        # from (2, 0) at r = 1/2 the next state is (-1, 0), where 1 + a*S = 0
        p = ModelParams(r=0.5, beta=1.0, a=1.0, K=0.5)
        orb = iterate(p, (2.0, 0.0), n_transient=0, n_keep=5)
        assert orb.escaped_at == 1
        np.testing.assert_array_equal(orb.states, [[2.0, 0.0]])
        assert iterate(p, (2.0, 0.0), n_transient=3, n_keep=5).escaped_at == 1
        assert iterate(p, (-1.0, 0.1), n_transient=0, n_keep=5).escaped_at == 0
        assert _advance(p, (2.0, 0.0), 4) == (-1.0, 0.0, 1)

    def test_first_row_follows_the_transient(self):
        p = ModelParams(r=2, beta=3, a=1, K=0.5)
        orb = iterate(p, (0.5, 0.1), n_transient=10, n_keep=5)
        x = (0.5, 0.1)
        for _ in range(10):
            x = step(p, x)
        assert State(*orb.states[0].tolist()) == x
        assert len(orb.states.tolist()) == 5


def _bits(result):
    """A run's result with every float as its bit pattern (signed zeros differ)."""
    return tuple(v.hex() if isinstance(v, float) else v for v in result)


def _same_run(p, x0, n, rows=0):
    """``_advance`` and the plain loop agree bit for bit, ``out`` rows included."""
    got_out, want_out = np.full((rows, 2), np.nan), np.full((rows, 2), np.nan)
    got = _bits(_advance(p, x0, n, got_out if rows else None))
    assert got == _bits(plain_advance(p, x0, n, want_out if rows else None))
    assert got_out.tobytes() == want_out.tobytes()
    return got


_LOCKED_TEN = ModelParams(**{k: PRESETS["locked-ten"][k] for k in ("r", "beta", "a", "K")})
_LOCKED_TEN_X0 = (PRESETS["locked-ten"]["s0"], PRESETS["locked-ten"]["i0"])


class TestExactCycleShortCircuit:
    """``_advance`` stops at a bit-exact repeat and returns what every step would."""

    @settings(max_examples=200, deadline=None)
    @given(
        r=st.floats(0.1, 4.2),
        beta=st.floats(0.05, 4.0),
        a=st.floats(0.0, 3.0),
        K=st.floats(0.01, 0.99),
        S0=st.one_of(st.floats(-0.2, 1.3), st.sampled_from([0.0, -0.0])),
        I0=st.one_of(st.floats(-0.1, 1.0), st.sampled_from([0.0, -0.0])),
        n=st.integers(0, 3000),
        rows=st.integers(0, 60),
    )
    def test_matches_plain_loop(self, r, beta, a, K, S0, I0, n, rows):
        _same_run(ModelParams(r=r, beta=beta, a=a, K=K), (S0, I0), n, rows)

    @pytest.mark.parametrize(
        "p, x0, lam",
        [
            (ModelParams(r=1.8, beta=3.0, a=1.0, K=0.5), (0.6, 0.2), 1),  # endemic sink
            (ModelParams(r=3.2, beta=0.5, a=1.0, K=0.5), (0.3, 0.0), 2),  # axis 2-cycle
            (_LOCKED_TEN, _LOCKED_TEN_X0, 20),  # the 10-cycle, twice round in floats
        ],
    )
    def test_settled_orbits(self, p, x0, lam):
        states, mu, cycle = exact_cycle(p, x0)
        assert cycle == lam
        for n in (0, 1, 2, mu, mu + 1, mu + lam, 2 * mu + 3, 5000, 5001):
            result = _same_run(p, x0, n, rows=3)
            want = states[mu + (n - mu) % lam] if n >= mu else states[n]
            assert result == _bits((*want, None))

    def test_escaping_orbits(self):
        p = ModelParams(r=40.0, beta=1.0, a=1.0, K=0.5)
        assert _same_run(p, (0.9, 0.0), 100)[2] == 3
        assert _same_run(p, (0.9, 0.0), 3)[2] is None
        p = ModelParams(r=4.0 + 1.0e-6, beta=0.5, a=1.0, K=0.5)
        assert _same_run(p, (0.34, 0.0), 5000, rows=50)[2] == 2750

    def test_axis_approach_packs_only_at_kept_states(self, monkeypatch):
        # S = 1/2 sits bit-fixed at r = 2 while I decays to its last value
        p, x0 = ModelParams(r=2.0, beta=0.5, a=1.0, K=0.5), (0.5, 1.0e-20)
        for n in (1, 100, 1000, 1800, 2100, 5000):
            for rows in (0, 3):
                assert _same_run(p, x0, n, rows)[0] == (0.5).hex()
        packs = []
        pack = core._bits

        def counting_pack(S, I):
            packs.append(None)
            return pack(S, I)

        monkeypatch.setattr(core, "_bits", counting_pack)
        assert _bits(_advance(p, x0, 10**5)) == _bits(plain_advance(p, x0, 10**5))
        assert len(packs) < 40  # one per kept state and one at the repeat, not one per step

    def test_billion_steps_take_the_cycle_phase(self):
        states, mu, lam = exact_cycle(_LOCKED_TEN, _LOCKED_TEN_X0)
        n = 10**9
        start = time.perf_counter()
        result = _advance(_LOCKED_TEN, _LOCKED_TEN_X0, n)
        assert time.perf_counter() - start < 5.0  # every step would take minutes
        assert _bits(result) == _bits((*states[mu + (n - mu) % lam], None))
        orbit = iterate(_LOCKED_TEN, _LOCKED_TEN_X0, n_transient=n, n_keep=lam + 1)
        want = [states[mu + (n + j - mu) % lam] for j in range(lam + 1)]
        np.testing.assert_array_equal(orbit.states, np.array(want))

    @pytest.mark.parametrize("I0", [0.0, -0.0])
    @pytest.mark.parametrize("r", [2.5, 3.2, 3.83])
    def test_signed_zero_is_part_of_the_state(self, r, I0):
        p = ModelParams(r=r, beta=0.5, a=1.0, K=0.5)
        for n in (1, 2, 3, 100, 1001, 10_000):
            S, I, escaped_at = _same_run(p, (0.3, I0), n)
            assert escaped_at is None
            assert math.copysign(1.0, float.fromhex(I)) == math.copysign(1.0, I0)


_PARAMS = st.builds(
    ModelParams,
    r=st.floats(0.1, 10.0),
    beta=st.floats(0.05, 10.0),
    a=st.floats(0.0, 5.0),
    K=st.floats(0.01, 0.99),
)
_SPECIAL = [math.nan, -math.nan, math.inf, -math.inf, 0.0, -0.0]
_COORD = st.one_of(st.floats(), st.sampled_from(_SPECIAL))


def _step_bits(p, S, I):
    """``core.step``'s image of the arrays ``S`` and ``I``, as bytes."""
    with np.errstate(all="ignore"):
        want = step(p, (S, I))
    return want.S.tobytes(), want.I.tobytes()


def _step_into_bits(p, S, I):
    """``core._step_into``'s image of copies of ``S`` and ``I``, as bytes."""
    s, i = S.copy(), I.copy()
    with np.errstate(all="ignore"):
        _step_into(p, s, i, np.empty((2, s.size)))
    return s.tobytes(), i.tobytes()


class TestStepInto:
    """The in-place ensemble kernel writes ``core.step``'s image, bit for bit."""

    @settings(max_examples=300, deadline=None)
    @given(p=_PARAMS, pts=st.lists(st.tuples(_COORD, _COORD), min_size=1, max_size=40))
    # a NaN of each sign meets in the last add: on a length-1 array an add
    # written over its first operand returns the second operand's NaN
    @example(p=ModelParams(r=1, beta=1, a=0, K=0.5), pts=[(math.nan, -math.nan)])
    def test_bit_identical_to_step(self, p, pts):
        S = np.array([x for x, _ in pts], dtype=np.float64)
        I = np.array([y for _, y in pts], dtype=np.float64)
        assert _step_into_bits(p, S, I) == _step_bits(p, S, I)

    @pytest.mark.parametrize("a", [0.5, 2.0, 4.0])
    def test_state_on_the_pole(self, a):
        # S = -1/a exactly, so 1 + a*S is zero and the incidence term is
        # +-inf or NaN, whatever I is
        p = ModelParams(r=3.0, beta=1.5, a=a, K=0.5)
        I = np.array([1.0, -1.0, 0.0, -0.0, math.inf, math.nan])
        S = np.full(I.size, -1.0 / a)
        assert (1.0 + a * S == 0.0).all()
        assert _step_into_bits(p, S, I) == _step_bits(p, S, I)

    @settings(max_examples=100, deadline=None)
    @given(
        p=_PARAMS,
        half=st.integers(0, 20),
        tail=st.integers(1, 5),
        seed=st.integers(0, 2**32 - 1),
    )
    def test_odd_length_prefix_views(self, p, half, tail, seed):
        # the probe steps the live prefix of buffers sized for every sample
        n = 2 * half + 1
        rng = np.random.default_rng(seed)
        S, I = rng.uniform(-1.0, 2.0, size=(2, n + tail))
        S0, I0 = S.copy(), I.copy()
        work = np.empty((2, n + tail))
        with np.errstate(all="ignore"):
            _step_into(p, S[:n], I[:n], work[:, :n])
        assert (S[:n].tobytes(), I[:n].tobytes()) == _step_bits(p, S0[:n], I0[:n])
        assert S[n:].tobytes() == S0[n:].tobytes()
        assert I[n:].tobytes() == I0[n:].tobytes()
