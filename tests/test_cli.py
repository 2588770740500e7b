"""End-to-end tests for the command-line front end.

Everything goes through ``main(argv)`` so the tests exercise the same
path as the installed ``sirmap`` script without spawning processes; two
parser-reuse tests compare against a fresh interpreter, and one runs the
scalar subcommands in a fresh interpreter to see that numpy stays unloaded.
"""

import contextlib
import csv
import hashlib
import io
import json
import math
import os
import random
import re
import shlex
import subprocess
import sys
import warnings
from pathlib import Path

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from sirmap import ModelParams, applicable_region, cli, dynamics, equilibria, normal_forms
from sirmap.cli import PRESETS, main
from sirmap.core import TOL_BOUNDARY
from sirmap.dynamics import ScanResult
from sirmap.equilibria import beta2_threshold, thresholds

from oracles import mpmath_modulus_slope


def run_cli(capsys, *argv):
    code = main(list(argv))
    captured = capsys.readouterr()
    return code, captured.out, captured.err


def run_json(capsys, *argv):
    code, out, err = run_cli(capsys, *argv)
    assert code == 0, err
    return json.loads(out)


#: The output digests the benchmark records for its sweep workload (read only).
_SWEEP_REFERENCE = Path(__file__).resolve().parents[1] / "bench" / "reference" / "sweep.json"

nan, inf = math.nan, math.inf


class TestDispatchAndErrors:
    def test_no_command_is_usage_error(self, capsys):
        with pytest.raises(SystemExit) as exc:
            main([])
        assert exc.value.code == 2

    def test_unknown_preset_is_config_error(self, capsys):
        code, _, err = run_cli(capsys, "analyze", "--preset", "nope")
        assert code == 2
        assert "unknown preset" in err

    def test_bad_model_parameter_is_config_error(self, capsys):
        code, _, err = run_cli(capsys, "analyze", "--K", "1.5")
        assert code == 2
        assert "error:" in err
        for flag, value in (("--a", "nan"), ("--r", "inf"), ("--beta", "inf")):
            code, out, err = run_cli(capsys, "analyze", flag, value)
            assert code == 2, (flag, value)
            assert out == ""
            assert f"finite {flag[2:]}" in err

    def test_disease_free_on_the_pole_is_config_error(self, capsys):
        # r + a*(r - 1) = 0 at r = 0.5 with the default a = 1
        code, out, err = run_cli(capsys, "analyze", "--r", "0.5", "--beta", "1")
        assert code == 2
        assert out == ""
        assert err.startswith("error:") and "pole 1 + a*S = 0" in err

    def test_scan_without_range_is_config_error(self, capsys):
        code, _, err = run_cli(capsys, "scan", "--param", "r")
        assert code == 2
        assert "--lo" in err

    def test_cycles_bad_n_is_config_error(self, capsys):
        code, _, err = run_cli(capsys, "cycles", "--n", "2")
        assert code == 2

    def test_missing_config_file_is_config_error(self, capsys):
        code, _, err = run_cli(capsys, "analyze", "--config", "/nonexistent/opts.cfg")
        assert code == 2

    def test_simulate_divergence_exits_three(self, capsys):
        code, _, err = run_cli(capsys, "simulate", "--r", "40", "--steps", "10")
        assert code == 3
        assert "escaped" in err

    def test_lyapunov_divergence_exits_three(self, capsys):
        code, _, err = run_cli(
            capsys, "lyapunov", "--r", "40", "--steps", "2000", "--transient", "0"
        )
        assert code == 3

    @pytest.mark.parametrize("command", ["simulate", "lyapunov"])
    def test_start_on_pole_exits_three(self, capsys, command):
        # S = -1 puts 1 + a*S = 0 at the default a = 1
        argv = [command, "--s0", "-1", "--i0", "0.1", "--transient", "0"]
        code, _, err = run_cli(capsys, *argv, "--steps", "3" if command == "simulate" else "1000")
        assert code == 3
        assert "escaped" in err and "step 0" in err

    def test_scan_from_pole_escapes_every_row(self, capsys):
        argv = ["scan", "--param", "r", "--lo", "2", "--hi", "3", "--steps", "3", "--keep", "2",
                "--s0", "-1", "--i0", "0.1", "--transient", "0"]
        code, out, _ = run_cli(capsys, *argv)
        assert code == 0
        rows = out.splitlines()[1:]
        assert len(rows) == 3
        assert all(row.split(",")[1:3] == ["nan", "0"] for row in rows)

    @pytest.mark.parametrize(
        "argv",
        [
            ["scan", "--param", "r", "--lo", "2.8", "--hi", "3.0", "--steps", "3"],
            ["simulate", "--steps", "3"],
            ["lyapunov", "--steps", "1000"],
        ],
    )
    def test_negative_transient_is_config_error(self, capsys, argv):
        code, out, err = run_cli(capsys, *argv, "--transient", "-5")
        assert code == 2
        assert out == ""
        assert "non-negative" in err

    @pytest.mark.parametrize(
        "argv",
        [
            # beta2, r_bar, r_tilde and r_max come out infinite
            ["--r", "2", "--a", "1.7e308", "--K", "0.5", "--beta", "1"],
            # beta0 = K*(r + a*(r - 1))/(r - 1) overflows (u* no longer does)
            ["--r", "1e308", "--beta", "1", "--a", "1", "--K", "0.5"],
            # the flip tensors overflow
            ["--r", "3", "--a", "1.7e308", "--K", "0.5", "--beta", "1"],
        ],
    )
    def test_out_of_range_analysis_is_config_error(self, capsys, argv):
        code, out, err = run_cli(capsys, "analyze", *argv)
        assert code == 2
        assert out == ""
        assert err.startswith("error:")

    def test_zero_divisor_is_config_error(self, capsys):
        # den*den underflows to 0 in the endemic point's I coordinate
        code, out, err = run_cli(capsys, "analyze", "--r", "3", "--beta", "3e-200", "--a", "1",
                                 "--K", "1e-200")
        assert code == 2
        assert out == ""
        assert err.startswith("error: arithmetic out of range")
        assert "Traceback" not in err

    @pytest.mark.parametrize(
        "argv",
        [
            ["scan", "--param", "r", "--lo", "2", "--hi", "3", "--steps", "2",
             "--keep", "1000000000000000"],
            ["regions", "--preset", "triangle-region", "--samples", "1000000000000000"],
            ["simulate", "--steps", "1000000000000000"],
        ],
    )
    def test_oversized_request_refused_before_allocating(self, capsys, argv):
        code, out, err = run_cli(capsys, *argv)
        assert code == 2
        assert out == ""
        assert "limit" in err

    @pytest.mark.parametrize(
        "argv",
        [
            ["simulate", "--preset", "locked-ten", "--s0", "nan", "--steps", "3"],
            ["lyapunov", "--preset", "axis-chaos", "--s0", "inf"],
            # "--i0 -inf" would stop in argparse, which reads "-inf" as a flag
            ["scan", "--preset", "flip-cascade-scan", "--i0=-inf"],
        ],
    )
    def test_non_finite_initial_state_is_config_error(self, capsys, argv):
        code, out, err = run_cli(capsys, *argv)
        assert code == 2
        assert out == ""
        assert err.startswith("error:") and "finite initial state" in err

    def test_non_finite_scan_range_is_config_error(self, capsys):
        argv = ["scan", "--preset", "ns-branch-scan", "--lo", "1e308", "--hi", "inf",
                "--steps", "2", "--keep", "1"]
        with warnings.catch_warnings():
            warnings.simplefilter("error")  # a numpy RuntimeWarning would raise
            code, out, err = run_cli(capsys, *argv)
        assert (code, out) == (2, "")
        assert err == "error: require a finite scan range and grid, got prange=(1e+308, inf)\n"

    def test_out_of_domain_scan_grid_refused_before_any_row(self, capsys, monkeypatch):
        calls = []
        advance = dynamics._advance

        def counting_advance(*args, **kwargs):
            calls.append(None)
            return advance(*args, **kwargs)

        monkeypatch.setattr(dynamics, "_advance", counting_advance)
        argv = ["scan", "--param", "K", "--lo", "0.5", "--hi", "1.5", "--steps", "400",
                "--r", "3.6", "--beta", "2", "--keep", "2"]
        code, out, err = run_cli(capsys, *argv)
        first_bad = next(K for K in np.linspace(0.5, 1.5, 400).tolist() if K >= 1.0)
        assert (code, out, len(calls)) == (2, "", 0)
        assert err == f"error: require 0 < K < 1, got K={first_bad}\n"

    def test_negative_exponent_value_after_space(self, capsys):
        argv = ["simulate", "--s0", "0.5", "--transient", "5", "--steps", "3"]
        code, joined, _ = run_cli(capsys, *argv, "--i0=-1e-3")
        assert code == 0
        code, spaced, _ = run_cli(capsys, *argv, "--i0", "-1e-3")
        assert code == 0
        assert spaced.encode() == joined.encode()
        # "-inf" still reads as a flag, so the value is missing
        with pytest.raises(SystemExit) as exc:
            main([*argv, "--i0", "-inf"])
        assert exc.value.code == 2
        assert "error:" in capsys.readouterr().err

    def test_size_limit_counts_scan_samples(self, capsys, monkeypatch):
        monkeypatch.setattr(cli, "MAX_STORED_FLOATS", 20)
        argv = ["scan", "--param", "r", "--lo", "2.8", "--hi", "3.0", "--steps", "2",
                "--transient", "10"]
        assert run_cli(capsys, *argv, "--keep", "5")[0] == 0
        assert run_cli(capsys, *argv, "--keep", "6")[0] == 2


class TestConfigPrecedence:
    def test_flags_beat_config_beat_preset(self, capsys, tmp_path):
        cfg = tmp_path / "opts.cfg"
        cfg.write_text("# comment line\nr = 2.2\n\ni0 = 0.05\n")
        base = ["analyze", "--preset", "endemic-focus", "--config", str(cfg)]

        doc = run_json(capsys, *base)
        assert doc["params"]["r"] == 2.2  # config overrides the preset's 1.8

        doc = run_json(capsys, *base, "--r", "2.5")
        assert doc["params"]["r"] == 2.5  # flag overrides the config

        doc = run_json(capsys, "analyze", "--preset", "endemic-focus")
        assert doc["params"]["r"] == 1.8

    def test_config_rejects_unknown_key(self, capsys, tmp_path):
        cfg = tmp_path / "opts.cfg"
        cfg.write_text("growth = 2.0\n")
        code, _, err = run_cli(capsys, "analyze", "--config", str(cfg))
        assert code == 2
        assert "unknown option" in err

    def test_config_rejects_non_finite_parameter(self, capsys, tmp_path):
        cfg = tmp_path / "opts.cfg"
        for key, value in (("a", "nan"), ("r", "inf"), ("beta", "inf")):
            cfg.write_text(f"{key} = {value}\n")
            code, out, err = run_cli(capsys, "analyze", "--config", str(cfg))
            assert code == 2, (key, value)
            assert out == ""
            assert f"finite {key}" in err

    def test_config_rejects_bare_line(self, capsys, tmp_path):
        cfg = tmp_path / "opts.cfg"
        cfg.write_text("just-a-word\n")
        code, _, err = run_cli(capsys, "analyze", "--config", str(cfg))
        assert code == 2
        assert "key=value" in err

    @pytest.mark.parametrize(
        "command, line, message",
        [
            ("analyze", "seed = 1.5", "seed expects int, got '1.5'"),
            ("cycles", "n = 3.0", "n expects int, got '3.0'"),
            ("scan", "lo = x", "lo expects float, got 'x'"),
        ],
    )
    def test_config_type_error_names_file_line_and_key(
        self, capsys, tmp_path, command, line, message
    ):
        cfg = tmp_path / "opts.cfg"
        cfg.write_text(f"# comment line\n{line}\n")
        code, out, err = run_cli(capsys, command, "--config", str(cfg))
        assert code == 2
        assert out == ""
        assert err == f"error: {cfg}:2: {message}\n"

    def test_config_choice_error_names_file_line_and_key(self, capsys, tmp_path):
        cfg = tmp_path / "opts.cfg"
        cfg.write_text("lo = 1\nhi = 2\nparam = S\n")
        code, out, err = run_cli(capsys, "scan", "--config", str(cfg))
        assert code == 2
        assert out == ""
        assert err == f"error: {cfg}:3: param expects one of r, beta, a, K, got 'S'\n"

    def test_config_out_writes_file(self, capsys, tmp_path):
        argv = ["simulate", "--preset", "three-cycle", "--transient", "50", "--steps", "6"]
        _, out, _ = run_cli(capsys, *argv)
        path = tmp_path / "orbit.csv"
        cfg = tmp_path / "opts.cfg"
        cfg.write_text(f"out = {path}\n")
        code, silent, _ = run_cli(capsys, *argv, "--config", str(cfg))
        assert code == 0
        assert silent == ""
        assert path.read_text() == out

    def test_out_flag_beats_config_out(self, capsys, tmp_path):
        cfg = tmp_path / "opts.cfg"
        cfg.write_text(f"out = {tmp_path / 'from-config.json'}\n")
        flag = tmp_path / "from-flag.json"
        code, silent, _ = run_cli(capsys, "cycles", "--config", str(cfg), "--out", str(flag))
        assert code == 0
        assert silent == ""
        assert json.loads(flag.read_text())["n"] == 3
        assert not (tmp_path / "from-config.json").exists()


class TestSimulate:
    def test_csv_shape_and_index(self, capsys):
        code, out, _ = run_cli(
            capsys, "simulate", "--preset", "endemic-focus",
            "--transient", "5", "--steps", "4",
        )
        assert code == 0
        lines = out.strip().splitlines()
        assert lines[0] == "n,S,I"
        assert len(lines) == 5
        first = lines[1].split(",")
        assert first[0] == "5"
        assert all(math.isfinite(float(c)) for c in first[1:])

    def test_deterministic_bytes(self, capsys):
        argv = ["simulate", "--preset", "locked-ten", "--transient", "100", "--steps", "20"]
        _, out1, _ = run_cli(capsys, *argv)
        _, out2, _ = run_cli(capsys, *argv)
        assert out1 == out2

    def test_out_file_matches_stdout(self, capsys, tmp_path):
        argv = ["simulate", "--preset", "three-cycle", "--transient", "50", "--steps", "6"]
        _, out, _ = run_cli(capsys, *argv)
        path = tmp_path / "orbit.csv"
        code, silent, _ = run_cli(capsys, *argv, "--out", str(path))
        assert code == 0
        assert silent == ""
        assert path.read_text() == out


    def test_locked_ten_matches_sweep_reference(self, capsys, tmp_path):
        # the benchmark's simulate call at its default seed, pinned to the
        # bytes recorded in its reference digests; --out writes the same bytes
        argv = ["simulate", "--preset", "locked-ten", "--s0", "0.6", "--i0", "0.2",
                "--transient", "1000000", "--steps", "2000"]
        code, out, err = run_cli(capsys, *argv)
        assert code == 0, err
        ref = json.loads(_SWEEP_REFERENCE.read_text(encoding="utf-8"))["simulate locked-ten"]
        data = out.encode("utf-8")
        assert (len(data), hashlib.sha256(data).hexdigest()) == (ref["bytes"], ref["sha256"])
        path = tmp_path / "orbit.csv"
        assert run_cli(capsys, *argv, "--out", str(path))[:2] == (0, "")
        assert path.read_bytes() == data


class TestAnalyze:
    @pytest.mark.parametrize("model", [
        # beta2's expanded radicand rounds below zero ("math domain error")
        ("3.196970438572481", "1", "1.4551722601464623", "7.487848446512169e-19"),
        # K*K underflows to 0 in the resonance growth values
        ("3", "1", "1", "1e-200"),
    ], ids=["beta2-radicand-cancels", "K-squared-underflows"])
    def test_tiny_K_gives_a_report(self, capsys, model):
        argv = [item for flag, value in zip(_MODEL_FLAGS, model) for item in (flag, value)]
        code, out, err = run_cli(capsys, "analyze", *argv)
        assert code == 0, err
        doc = json.loads(out, parse_constant=_refuse_constant)
        assert doc["thresholds"]["beta2"] > 0.0

    def test_endemic_focus_report(self, capsys):
        doc = run_json(capsys, "analyze", "--preset", "endemic-focus")
        assert doc["disease_free"]["stability"] == "saddle"
        en = doc["endemic"]
        assert en["stability"] == "stable focus"
        assert abs(en["location"][0] - 0.2) < 1.0e-12
        assert abs(en["location"][1] - 0.176) < 1.0e-12
        assert doc["thresholds"]["beta0"] < 3.0
        ra, rb = doc["reproduction_candidates"]
        assert ra > 1.0
        assert ra < rb
        assert doc["normal_form"] is None

    def test_flip_boundary_reports_coefficient(self, capsys):
        doc = run_json(capsys, "analyze", "--r", "3.0", "--beta", "0.5")
        nf = doc["normal_form"]
        assert nf["at"] == "disease_free"
        assert nf["kind"] == "flip"
        assert abs(nf["coefficient"] - 9.0) < 1.0e-9
        assert nf["branch_stable"] is True

    def test_ns_boundary_reports_coefficient(self, capsys):
        doc = run_json(capsys, "analyze", "--r", str(35.0 / 16.0), "--beta", "3.0")
        nf = doc["normal_form"]
        assert nf["at"] == "endemic"
        assert nf["kind"] == "ns"
        assert abs(nf["coefficient"] + 6.145222981770832) < 1.0e-9
        assert nf["branch_stable"] is True
        assert abs(nf["modulus_slope"] - 0.128125) < 1.0e-9

    def test_strong_resonance_reported_not_crashed(self, capsys):
        th = thresholds(2.0, 1.0, 0.5)
        b2 = beta2_threshold(th.r_max, 1.0, 0.5)
        doc = run_json(capsys, "analyze", "--r", str(th.r_max), "--beta", str(b2))
        nf = doc["normal_form"]
        assert nf["kind"] == "resonance"
        assert nf["tag"] == "1:2 resonance"
        # inside the exclusion band but off the point itself: the point
        # classifies as Neimark-Sacker, and the report has the same shape
        r = th.r_bar + 5.0e-7
        b2 = beta2_threshold(r, 1.0, 0.5)
        doc = run_json(capsys, "analyze", "--r", str(r), "--beta", str(b2))
        assert doc["endemic"]["boundary"] == "neimark-sacker"
        near = doc["normal_form"]
        assert near.keys() == nf.keys() == {"at", "kind", "tag", "note"}
        assert near["kind"] == "resonance"
        assert near["tag"] == "1:4 resonance"

    @pytest.mark.parametrize(
        "argv, tag, kind",
        [
            # beta1(r) + 9e-10: the eigenvalue sits 2.9e-9 from -1
            (["--r", "4.075581455820886", "--beta", "3.8747108775713635",
              "--a", "2.868102815667748", "--K", "0.8582619896474796"], "flip", "flip"),
            # beta2(r) + 5e-10: det J(E1) is 1 + 1.7e-9
            (["--r", "9.290673529956868", "--beta", "2.263352483171098",
              "--a", "0.40309273233720366", "--K", "0.7779469895497861"],
             "neimark-sacker", "ns"),
        ],
    )
    def test_tagged_point_near_curve_gets_normal_form(self, capsys, argv, tag, kind):
        doc = run_json(capsys, "analyze", *argv)
        assert doc["endemic"]["boundary"] == tag
        assert doc["normal_form"]["kind"] == kind

    def test_tagged_point_is_non_hyperbolic(self, capsys):
        # the eigenvalue -0.9999999971 lies outside the TOL_HYP band around -1
        doc = run_json(capsys, "analyze", "--r", "4.075581455820886",
                       "--beta", "3.8747108775713635", "--a", "2.868102815667748",
                       "--K", "0.8582619896474796")
        assert doc["endemic"]["boundary"] == "flip"
        assert doc["endemic"]["stability"] == "non-hyperbolic"
        assert doc["endemic"]["eigenvalues"][1] == [-0.9999999970890866, 0.0]

    def test_flip_next_to_the_one_to_two_point(self, capsys):
        # beta1(r) 1e-3 below r_max: both eigenvalues are near -1
        doc = run_json(capsys, "analyze", "--r", "106.97430111067736",
                       "--beta", "0.7179780561979057", "--a", "3", "--K", "0.125")
        assert doc["endemic"]["boundary"] == "flip"
        assert doc["normal_form"]["kind"] == "flip"
        # within 1e-10 relative of the 40-digit value (see test_normal_forms)
        exact = -17916508.992125757
        assert abs(doc["normal_form"]["coefficient"] - exact) <= 1.0e-10 * abs(exact)

    def test_normal_form_is_that_of_the_curve_point(self, capsys):
        # a point tagged within TOL_BOUNDARY of beta1 or beta2 reports the
        # normal form of (r, beta_k(r)) itself
        rng = random.Random(10)
        for _ in range(6):
            a, K = rng.uniform(0.0, 3.0), rng.uniform(0.1, 0.9)
            r_max = thresholds(1.5, a, K).r_max
            for r, curve, tag, kind in (
                (rng.uniform(3.0, r_max), "beta1", "flip", "flip"),
                (rng.uniform(1.05, r_max), "beta2", "neimark-sacker", "ns"),
            ):
                beta = getattr(thresholds(r, a, K), curve)
                docs = [
                    run_json(capsys, "analyze", "--r", repr(r), "--beta", repr(b),
                             "--a", repr(a), "--K", repr(K))
                    for b in (beta, beta - 0.5 * TOL_BOUNDARY, beta + 0.5 * TOL_BOUNDARY)
                ]
                for doc in docs:
                    assert doc["endemic"]["boundary"] == tag, (r, a, K)
                    assert doc["normal_form"] == docs[0]["normal_form"], (r, a, K)
                assert docs[0]["normal_form"]["kind"] == kind

    def test_region_has_the_regions_shape(self, capsys):
        for preset in ("triangle-region", "capped-region", "curved-region"):
            region = run_json(capsys, "analyze", "--preset", preset)["region"]
            probed = run_json(
                capsys, "regions", "--preset", preset, "--samples", "5", "--steps", "5"
            )["region"]
            assert region == probed
            assert region.keys() == {"case", "u_star", "v", "crossings"}

    def test_capped_region_for_tiny_beta(self, capsys):
        # v = r/beta = 3.9e160 overflows the plain form of the crossing's
        # quadratic; a non-finite crossing would fail the strict-JSON check
        doc = run_json(
            capsys, "analyze", "--r", "3.9", "--beta", "1e-160", "--a", "1", "--K", "0.5"
        )
        assert doc["region"]["case"] == 2
        assert doc["region"]["crossings"] == [1.0]

    @pytest.mark.parametrize(
        "argv, nbytes, sha256",
        [
            # the disease-free flip
            (["--r", "3", "--beta", "0.5"], 877,
             "bba02bdf85cce199e80e22c1c31f92dcfa10c51d50c7eff1dc71a10dc4571921"),
            # an endemic flip, beta1(r) + 9e-10
            (["--r", "4.075581455820886", "--beta", "3.8747108775713635",
              "--a", "2.868102815667748", "--K", "0.8582619896474796"], 1247,
             "06d080bd678f5ad70fa45c5c52ce1e4a72e57f45e927cb6c5a77c621a6a3144f"),
            # the Neimark-Sacker point r = 35/16
            (["--r", "2.1875", "--beta", "3"], 1344,
             "aee4a9c45db58d919471f65fec3a0cef34d065f5fb08405b31b092ee8b8eb8c7"),
            # the 1:2 resonance at r_max(a = 1, K = 0.5), refused
            (["--r", "18.881527307120106", "--beta", "1.8601909133900127"], 1313,
             "c70c6f93860a9eafc91a93020419d71f4f9dfe2800c87aef5bf166b48ec5db13"),
            (["--preset", "endemic-focus"], 1077,
             "cc93107f9ffe81d4c54a57214defaca74d3c21cf6321546875f3765a361b2caa"),
            (["--preset", "capped-region"], 1165,
             "039501dd6af436320a0d47129effcafcb97f0deaa4b122e243e3ac3b4a3500ce"),
            (["--preset", "curved-region"], 1236,
             "4a2bc08281524f1545da50b51ff4713c27d248fdd5062b3de4eda3004f072e4b"),
        ],
    )
    def test_report_bytes_are_pinned(self, capsys, argv, nbytes, sha256):
        # every record behind the report (fixed points, thresholds, normal
        # form, region) reaches these bytes; any change to one shows here
        code, out, err = run_cli(capsys, "analyze", *argv)
        assert code == 0, err
        data = out.encode("utf-8")
        assert (len(data), hashlib.sha256(data).hexdigest()) == (nbytes, sha256)

    def test_subcritical_growth_has_no_thresholds(self, capsys):
        doc = run_json(capsys, "analyze", "--r", "0.8")
        assert doc["thresholds"] is None
        assert doc["endemic"] is None
        assert doc["reproduction_candidates"] is None

    def test_ns_point_evaluates_e1_three_times(self, capsys, monkeypatch):
        # the report's E1, the NS coefficient's and the modulus slope's
        located, original = [], equilibria._endemic_point

        def locate(p):
            located.append(p)
            return original(p)

        monkeypatch.setattr(equilibria, "_endemic_point", locate)
        monkeypatch.setattr(normal_forms, "_endemic_point", locate)
        doc = run_json(capsys, "analyze", "--r", "2.1875", "--beta", "3")
        assert doc["normal_form"]["kind"] == "ns"
        assert len(located) == 3

    @pytest.mark.parametrize("argv", [
        # the finite-difference cross-check of the slope once ended in a traceback here
        ["--r", "1.0000136705818676", "--beta", "89775.7338063329",
         "--a", "0.014008852061774147", "--K", "0.22726981828990278"],
        # an absolute 1e-12 vanishing test once refused this slope of 1.5e-17
        ["--r", "1.0000000309050967", "--beta", "33403129.777641818",
         "--a", "0.002325462685221495", "--K", "0.03232692415528521"],
    ])
    def test_small_transversal_slope_is_reported(self, capsys, argv):
        doc = run_json(capsys, "analyze", *argv)
        nf = doc["normal_form"]
        assert nf["kind"] == "ns"
        r, beta, a, K = (float(v) for v in argv[1::2])
        exact = mpmath_modulus_slope(ModelParams(r=r, beta=beta2_threshold(r, a, K), a=a, K=K))
        assert abs(nf["modulus_slope"] - exact) <= 1.0e-13 * abs(exact)


def _log_uniform(lo: float, hi: float):
    return st.floats(lo, hi).map(lambda e: 10.0**e)


#: Any valid model parameters, each log-uniform over its domain (a = 0 too).
_ANY_MODEL = st.tuples(
    _log_uniform(-300.0, 300.0),
    _log_uniform(-300.0, 300.0),
    st.one_of(st.just(0.0), _log_uniform(-300.0, 300.0)),
    _log_uniform(-300.0, 0.0).filter(lambda K: K < 1.0),
)


@st.composite
def _on_ns_curve(draw):
    """A point (r, beta2(r), a, K) of the NS curve with r = 1 + 10^U(-9, -1)."""
    r = 1.0 + draw(_log_uniform(-9.0, -1.0))
    a = draw(st.one_of(st.just(0.0), _log_uniform(-4.0, 2.0)))
    K = draw(_log_uniform(-4.0, 0.0).filter(lambda K: K < 1.0))
    return r, beta2_threshold(r, a, K), a, K


def _refuse_constant(token):
    raise AssertionError(f"non-strict JSON token {token}")


_MODEL_FLAGS = ("--r", "--beta", "--a", "--K")


def _exit_code_is_clean(argv):
    """Run ``main``: exit 0 with strict JSON or a CSV header, 2 with a message, or 3."""
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        code = main(argv)
    out, err = out.getvalue(), err.getvalue()
    assert code in (0, 2, 3), (code, err)
    if code == 0 and argv[0] in ("simulate", "scan"):
        assert out.startswith(("n,S,I\n", "a,lyap_max,escaped_at,")), out
    elif code == 0:
        json.loads(out, parse_constant=_refuse_constant)
    elif code == 2:
        assert out == "" and err.startswith("error: ") and err.strip() != "error:"


class TestValidInputExitCodes:
    """A valid input exits 0 with strict JSON or CSV, 2 with a message, or 3; never 1."""

    @pytest.mark.parametrize("command", [
        ["analyze"], ["regions", "--samples", "3", "--steps", "3"],
    ])
    @given(model=st.one_of(_ANY_MODEL, _on_ns_curve()))
    @example(model=(1.0000136705818676, 89775.7338063329, 0.014008852061774147,
                    0.22726981828990278))
    @example(model=(1.0000000309050967, 33403129.777641818, 0.002325462685221495,
                    0.03232692415528521))
    # tagged flip by the absolute TOL_BOUNDARY at K this small; beta1 lies above
    # the fold, so the normal form at the curve point is taken or refused (exit 2)
    @example(model=(3.1622776601683795, 1.0e-9, 0.0, 1.0e-162))
    @example(model=(3.3379007236793607, 6.7957259493987875e-130, 1.6892712588434353e-227,
                    1.6101628948214277e-184))
    @settings(max_examples=150, deadline=None)
    def test_no_traceback(self, command, model):
        flags = [item for key, value in zip(_MODEL_FLAGS, model) for item in (key, repr(value))]
        _exit_code_is_clean([*command, *flags])

    # scan sweeps a over three rows in place of the drawn one
    @pytest.mark.parametrize("command", [
        ["simulate", "--transient", "10", "--steps", "5"],
        ["scan", "--param", "a", "--lo", "0", "--hi", "1", "--steps", "3", "--keep", "2",
         "--transient", "10"],
        ["lyapunov", "--transient", "10", "--steps", "1000"],
    ], ids=["simulate", "scan", "lyapunov"])
    @given(model=st.one_of(_ANY_MODEL, _on_ns_curve()))
    @settings(max_examples=150, deadline=None)
    def test_orbit_commands_no_traceback(self, command, model):
        flags = [item for key, value in zip(_MODEL_FLAGS, model) for item in (key, repr(value))]
        _exit_code_is_clean([*command, *flags])

    # windows inside [3, 4], so the birth search runs; the examples take the
    # refusals of an empty window and of one outside (3, 4]
    @given(
        n=st.integers(3, 12),
        window=st.lists(st.floats(3.0, 4.0), min_size=2, max_size=2, unique=True).map(sorted),
    )
    @example(n=3, window=(3.5, 3.5))
    @example(n=5, window=(1.0e-300, 1.0e300))
    @settings(max_examples=150, deadline=None)
    def test_cycles_no_traceback(self, n, window):
        _exit_code_is_clean(["cycles", "--n", str(n), "--lo", repr(window[0]),
                             "--hi", repr(window[1])])


class TestScan:
    def test_csv_layout(self, capsys):
        code, out, _ = run_cli(
            capsys, "scan", "--param", "r", "--lo", "2.8", "--hi", "3.0",
            "--steps", "3", "--keep", "5", "--transient", "500",
            "--beta", "1.1",
        )
        assert code == 0
        lines = out.strip().splitlines()
        header = lines[0].split(",")
        assert header[:3] == ["r", "lyap_max", "escaped_at"]
        assert header[3:8] == ["S_1", "S_2", "S_3", "S_4", "S_5"]
        assert header[8:] == ["I_1", "I_2", "I_3", "I_4", "I_5"]
        assert len(lines) == 4
        for line in lines[1:]:
            cells = line.split(",")
            assert cells[2] == ""  # nothing escapes down here
            assert float(cells[1]) < 0.0

    def test_escaped_rows_flagged(self, capsys):
        code, out, _ = run_cli(
            capsys, "scan", "--param", "r", "--lo", "3.9", "--hi", "4.26",
            "--steps", "4", "--keep", "4", "--transient", "2000",
            "--beta", "1.1",
        )
        assert code == 0
        lines = out.strip().splitlines()
        last = lines[-1].split(",")
        assert last[2] != ""  # escape step recorded
        assert last[1] == "nan"
        first = lines[1].split(",")
        assert first[2] == ""
        assert float(first[1]) > 0.0

    def test_preset_supplies_range(self, capsys):
        code, out, _ = run_cli(
            capsys, "scan", "--preset", "flip-cascade-scan",
            "--steps", "3", "--keep", "3", "--transient", "200",
        )
        assert code == 0
        lines = out.strip().splitlines()
        assert len(lines) == 4
        assert float(lines[1].split(",")[0]) == 2.8

    def test_deterministic_bytes(self, capsys):
        argv = [
            "scan", "--param", "beta", "--lo", "1.2", "--hi", "3.2",
            "--steps", "4", "--keep", "4", "--transient", "300",
        ]
        _, out1, _ = run_cli(capsys, *argv)
        _, out2, _ = run_cli(capsys, *argv)
        assert out1 == out2

    @pytest.mark.parametrize("preset", [n for n, bundle in PRESETS.items() if "param" in bundle])
    def test_preset_csv_matches_sweep_reference(self, capsys, preset):
        # the call the benchmark's sweep workload issues at its default seed,
        # pinned to the bytes recorded in its reference digests
        spec = PRESETS[preset]
        code, out, err = run_cli(
            capsys, "scan", "--preset", preset, "--s0", repr(spec["s0"]), "--i0", repr(spec["i0"])
        )
        assert code == 0, err
        ref = json.loads(_SWEEP_REFERENCE.read_text(encoding="utf-8"))[f"scan {preset}"]
        data = out.encode("utf-8")
        assert (len(data), hashlib.sha256(data).hexdigest()) == (ref["bytes"], ref["sha256"])


    @pytest.mark.parametrize(
        "samples",
        [
            # keep = 1: one row holds both signed zeros, one a repeat, one is escaped
            [[[0.0], [-0.0]], [[-0.0], [0.0]], [[0.25], [0.25]], [[nan], [nan]],
             [[inf], [-inf]]],
            # keep = 4: signed zeros among repeats, a period-2 row, an infinity
            [[[0.5, -0.0, 0.5, 0.0], [-0.0, 0.0, 0.0, -0.0]],
             [[0.1, 0.7, 0.1, 0.7], [0.7, 0.1, 0.7, 0.1]],
             [[nan] * 4, [nan] * 4],
             [[1e-310, -1e-310, 1e-310, 5e-324], [inf, 1.0, inf, -1.0]],
             [[0.3, 0.3, 0.3, 0.3], [-0.0, -0.0, -0.0, -0.0]]],
        ],
        ids=["keep-1", "keep-4"],
    )
    def test_rows_match_csv_module_oracle(self, capsys, monkeypatch, tmp_path, samples):
        rows = len(samples)
        result = ScanResult(
            parameter="beta",
            values=np.linspace(1.0, 2.0, rows),
            s_samples=np.array([s for s, _ in samples]),
            i_samples=np.array([i for _, i in samples]),
            lyap_max=np.array([0.5, -0.0, 0.0, nan, -inf][:rows]),
            escapes=[(3, 17)] if rows > 3 else [],
        )
        monkeypatch.setattr(cli, "scan", lambda *args, **kwargs: result)
        argv = ["scan", "--param", "beta", "--lo", "1", "--hi", "2", "--steps", str(rows),
                "--keep", str(result.s_samples.shape[1])]
        code, out, err = run_cli(capsys, *argv)
        assert code == 0, err
        assert out == _csv_oracle(result)
        path = tmp_path / "scan.csv"
        assert run_cli(capsys, *argv, "--out", str(path))[:2] == (0, "")
        assert path.read_bytes() == out.encode("utf-8")


def _csv_oracle(result) -> str:
    """A scan CSV as csv.writer writes it, every cell formatted on its own."""
    buf = io.StringIO()
    writer = csv.writer(buf, lineterminator="\n")
    keep = result.s_samples.shape[1]
    writer.writerow(
        [result.parameter, "lyap_max", "escaped_at"]
        + [f"S_{j + 1}" for j in range(keep)]
        + [f"I_{j + 1}" for j in range(keep)]
    )
    escaped_at = dict(result.escapes)
    for row, val in enumerate(result.values):
        cells = [f"{float(val):.17g}", f"{float(result.lyap_max[row]):.17g}"]
        cells.append(escaped_at.get(row, ""))
        cells += [f"{float(x):.17g}" for x in result.s_samples[row]]
        cells += [f"{float(x):.17g}" for x in result.i_samples[row]]
        writer.writerow(cells)
    return buf.getvalue()


class TestCycles:
    def test_three_cycle_json(self, capsys):
        doc = run_json(capsys, "cycles", "--n", "3")
        assert doc["n"] == 3
        assert len(doc["r_values"]) == 1
        assert abs(doc["r_values"][0] - (1.0 + 2.0 * math.sqrt(2.0))) < 1.0e-9

    def test_window_forwarded(self, capsys):
        doc = run_json(capsys, "cycles", "--n", "5", "--lo", "3.7", "--hi", "3.8")
        assert len(doc["r_values"]) == 1
        assert abs(doc["r_values"][0] - 3.7381723752726311) < 1.0e-8


class TestRegions:
    def test_triangle_probe_clean(self, capsys):
        doc = run_json(
            capsys, "regions", "--preset", "triangle-region",
            "--samples", "200", "--steps", "200",
        )
        assert doc["region"]["case"] == 1
        assert doc["escape_count"] == 0
        assert doc["escapes"] == []

    def test_leaky_region_reported_not_fatal(self, capsys):
        # this parameter set passes the shape conditions but the region
        # is not actually invariant; the CLI must report, not crash
        doc = run_json(
            capsys, "regions", "--preset", "curved-region",
            "--samples", "400", "--steps", "400",
        )
        assert doc["region"]["case"] == 3
        assert doc["escape_count"] > 0
        assert all(e["constraint"] == "I>nullcline" for e in doc["escapes"])

    def test_no_region_note(self, capsys):
        doc = run_json(capsys, "regions", "--r", "1.1", "--beta", "5.0", "--steps", "50")
        assert doc["region"] is None
        assert "note" in doc

    def test_seed_changes_starts_but_stays_deterministic(self, capsys):
        argv = ["regions", "--preset", "capped-region", "--samples", "100", "--steps", "100"]
        doc_a = run_json(capsys, *argv, "--seed", "7")
        doc_b = run_json(capsys, *argv, "--seed", "7")
        assert doc_a == doc_b
        assert doc_a["seed"] == 7

    def test_overflowing_starts_print_no_warning(self):
        # the starts' nullcline height v*(1 - x)*(1 + a*x) overflows here;
        # the sampler tests them under the probe's errstate, so stderr stays empty
        proc = _python("-m", "sirmap.cli", "regions", "--r", "3.9", "--beta", "1e-300",
                       "--a", "1e10", "--K", "0.5", "--samples", "3", "--steps", "3")
        assert (proc.returncode, proc.stderr) == (0, b"")
        assert json.loads(proc.stdout)["samples"] == 3

    def test_negative_seed_is_config_error(self, capsys):
        code, out, err = run_cli(
            capsys, "regions", "--preset", "triangle-region", "--seed", "-1", "--samples", "5"
        )
        assert (code, out) == (2, "")
        assert err == "error: seed must be non-negative, got seed=-1\n"

    @pytest.mark.parametrize(
        "flag, err",
        [
            (["--samples", "-5"], "error: samples and steps must be positive\n"),
            (["--steps", "0"], "error: samples and steps must be positive\n"),
            (["--seed", "-1"], "error: seed must be non-negative, got seed=-1\n"),
        ],
        ids=["samples", "steps", "seed"],
    )
    def test_bad_probe_input_refused_where_no_region_applies(self, capsys, flag, err):
        # checked before the region lookup, as where a region applies
        assert applicable_region(ModelParams(r=0.5, beta=3.0, a=1.0, K=0.5)) is None
        assert run_cli(capsys, "regions", "--r", "0.5", *flag) == (2, "", err)


class TestLyapunov:
    @pytest.mark.parametrize("argv, size, sha256", [
        (["--preset", "axis-chaos", "--s0", "0.3"], 113,
         "886e52bd3a7eeed72c744ae16e0938a9de9fcb27407bcba5ebe611a24e562929"),
        (["--preset", "invariant-curve", "--s0", "0.6", "--i0", "0.2"], 120,
         "7f356b9aeb1fc58332056f78d0059eda3d1a1a4d55dc62968bc3d20e21a2a489"),
    ], ids=["axis-chaos", "invariant-curve"])
    def test_sweep_calls_keep_their_bytes(self, capsys, argv, size, sha256):
        # the two lyapunov calls of the benchmark's sweep workload at its
        # default seed; the benchmark's reference for the second predates
        # the one-vector frame, so the bytes are pinned here
        code, out, err = run_cli(capsys, "lyapunov", *argv)
        assert code == 0, err
        data = out.encode("utf-8")
        assert (len(data), hashlib.sha256(data).hexdigest()) == (size, sha256)

    def test_sink_exponents_json(self, capsys):
        doc = run_json(
            capsys, "lyapunov", "--preset", "endemic-focus",
            "--steps", "5000", "--transient", "2000",
        )
        assert doc["n"] == 5000
        assert doc["lambda_max"] < 0.0
        assert doc["lambda_min"] <= doc["lambda_max"]

    def test_axis_chaos_positive_exponent(self, capsys):
        doc = run_json(
            capsys, "lyapunov", "--preset", "axis-chaos",
            "--steps", "20000", "--transient", "1000",
        )
        assert abs(doc["lambda_max"] - math.log(2.0)) < 0.01

    def test_disease_free_default_reports_invasion(self, capsys):
        # the defaults sit on the superstable axis point S = 1/2, where
        # the Jacobian is singular; the transverse exponent is log 1.5
        doc = run_json(capsys, "lyapunov", "--i0", "0")
        assert abs(doc["lambda_max"] - math.log(1.5)) < 1.0e-3


class TestPresetTable:
    def test_every_preset_resolves(self, capsys):
        # smoke: analyze accepts every orbit/region preset; scan presets
        # carry a sweep and go through scan instead
        for name, bundle in PRESETS.items():
            if "param" in bundle:
                code, _, err = run_cli(
                    capsys, "scan", "--preset", name,
                    "--steps", "2", "--keep", "2", "--transient", "50",
                )
            else:
                code, _, err = run_cli(capsys, "analyze", "--preset", name)
            assert code == 0, (name, err)

    @pytest.mark.parametrize("name", [n for n, bundle in PRESETS.items() if "param" in bundle])
    def test_scan_preset_brings_its_sweep(self, name):
        opts = cli._resolve(cli.build_parser().parse_args(["scan", "--preset", name]))
        sweep = {k: PRESETS[name][k] for k in ("param", "lo", "hi", "steps")}
        assert {k: opts[k] for k in sweep} == sweep

    @pytest.mark.parametrize(
        "with_preset, without",
        [
            # a leaked r-range (1.05, 4.18) would be the birth window: exit 2
            (["cycles", "--preset", "ns-branch-scan", "--n", "3"], ["cycles", "--n", "3"]),
            # a leaked steps would probe for 241 steps, the scan's row count
            (["regions", "--preset", "flip-cascade-scan", "--samples", "10"],
             ["regions", "--beta", "1.1", "--a", "1.0", "--K", "0.5", "--samples", "10"]),
            # a leaked steps would print 241 rows
            (["simulate", "--preset", "flip-cascade-scan"],
             ["simulate", "--beta", "1.1", "--a", "1.0", "--K", "0.5", "--s0", "0.5",
              "--i0", "0.1"]),
            # a leaked steps would ask for n = 314 steps: exit 2
            (["lyapunov", "--preset", "ns-branch-scan"],
             ["lyapunov", "--beta", "3.0", "--a", "1.0", "--K", "0.5", "--s0", "0.6",
              "--i0", "0.2"]),
        ],
        ids=["cycles", "regions", "simulate", "lyapunov"],
    )
    def test_sweep_range_reaches_scan_only(self, capsys, with_preset, without):
        code, out, err = run_cli(capsys, *with_preset)
        assert code == 0, err
        assert (code, out, err) == run_cli(capsys, *without)

    @pytest.mark.parametrize(
        "command, name, nbytes, sha256",
        [
        ("regions", "disease-free-sink", 83,
         "22537aabba216f28ad0bff89c604a2a44dbebc395df1aac4e66c28f699ca1156"),
        ("regions", "endemic-focus", 192,
         "7cfa1bd550aa8f252b803ce8a6f6a7ee0e5784f44fbf66f0d273cd4701f7a833"),
        ("regions", "invariant-curve", 207,
         "374f1ce159e0458ae283ecacc133b40a6976de466b495b0af4c77d4de4c00000"),
        ("regions", "invariant-curve-wide", 192,
         "bc85a3cf7f946bfc10d534397660197df0be380a54fc24fa2a6c9e7688552f18"),
        ("regions", "locked-ten", 83,
         "22537aabba216f28ad0bff89c604a2a44dbebc395df1aac4e66c28f699ca1156"),
        ("regions", "ten-on-curve", 263,
         "2d21d346286bd355b9ca3ed5ffae7ceefd519a04f709e9ea13924e874bce1ebe"),
        ("regions", "endemic-return", 83,
         "22537aabba216f28ad0bff89c604a2a44dbebc395df1aac4e66c28f699ca1156"),
        ("regions", "three-cycle", 234,
         "f8c8259d605b4f91fdfef0f48b0d3689b2ad57da4b8ceb97fca941da3a1e0522"),
        ("regions", "axis-chaos", 211,
         "59451c73072f078711fad0cea4aa0792184c6cf78ed865dda5ae07c071571722"),
        ("regions", "flip-cascade-scan", 195,
         "0d76f82ed107a42131f8dd576e6ade04d8fe18e045d5c75069967074e2f886d5"),
        ("regions", "ns-branch-scan", 195,
         "2009ed91b2cde84310b11d12c689b7edb5378752b6a6f0bfbf29b07c3492a62a"),
        ("regions", "force-sweep-scan", 2736,
         "9c66e675cd2898173a195ab154816cbfdca3bc83d25212341f980393563a42af"),
        ("regions", "inhibition-sweep-scan", 83,
         "22537aabba216f28ad0bff89c604a2a44dbebc395df1aac4e66c28f699ca1156"),
        ("regions", "triangle-region", 196,
         "e5b40d50fb8b197ad99e13dd679ea879f9d33e30a138d7fb3d36a8ad14d355e9"),
        ("regions", "capped-region", 237,
         "d98c284976e8fabaeae5529d1f7f22771fe1bd87ed48abe4b5bc96a53e772d17"),
        ("regions", "curved-region", 1264,
         "0bfb79a04978464a9e5837d852e9ce6a2702b1e6b7a39eaf1a82554b48e4fc9f"),
        ("analyze", "disease-free-sink", 713,
         "ed5a1dbbb364495f2c918b7188106d6e796dc84b6396b12ee0b0cadde8f2470e"),
        ("analyze", "invariant-curve", 1160,
         "6ae38c6cdb6a878203999a75d998e4cc48c59dab4166d73d5af36b90021a76c0"),
        ("analyze", "invariant-curve-wide", 1085,
         "e6a6c9e224732d7d1cedab9ae3031f2c3688a45d5f1498db19008ad0a9df3033"),
        ("analyze", "locked-ten", 1059,
         "ac6326bb4ac3738e99062f4e6bee1f0c889a1aadd891df6e59cfe5f2995b4953"),
        ("analyze", "ten-on-curve", 1236,
         "fd3f26f0c2b5374f3e1a1055bd2b588873d147fec374cbd57e83b2dbfc79d198"),
        ("analyze", "endemic-return", 1079,
         "29a479fb781e2715840a0e63c42d0c0ba8dd347bbf54f6246405e9ea69b6ec79"),
        ("analyze", "three-cycle", 864,
         "0ff3b2d553073149a186366ca2d609725c1da7dc0d899e1398f0bb7876262d95"),
        ("analyze", "axis-chaos", 800,
         "c51e777d56f37b084d636dceb3eab646f6edc59f666f82ac8bbe1ca02d0cc4ea"),
        ("analyze", "flip-cascade-scan", 756,
         "6061aee17c42685dafaba0fb696eb050d057576b83433eb3723b9e67a606ff61"),
        ("analyze", "ns-branch-scan", 1048,
         "962146c650a464e88fde42f0ef9701f34c62955480bd95ee9b407c690b63549d"),
        ("analyze", "force-sweep-scan", 1173,
         "a7cb0d1af01bbc755ef0179e949a9aa1f53791eaf6643ad83caee4c954970c71"),
        ("analyze", "inhibition-sweep-scan", 995,
         "227245ced772feb1bcf6d2e9ef093356081d543f53178c4bfe77aa3988c9691b"),
        ("analyze", "triangle-region", 1044,
         "e82ed681ad98dfec5772c72c79c2c32a7ba9942465686ec6fbe13fb0fe2c07a5"),
        ],
    )
    def test_preset_bytes_are_pinned(self, capsys, command, name, nbytes, sha256):
        # every preset under regions, and under analyze where
        # TestAnalyze.test_report_bytes_are_pinned does not pin it already:
        # a change of any record, probe or formatter shows here
        code, out, err = run_cli(capsys, command, "--preset", name)
        assert (code, err) == (0, "")
        data = out.encode("utf-8")
        assert (len(data), hashlib.sha256(data).hexdigest()) == (nbytes, sha256)


_MODEL_DEFAULTS = {"r": 2.0, "beta": 3.0, "a": 1.0, "K": 0.5}
_ORBIT_DEFAULTS = {**_MODEL_DEFAULTS, "s0": 0.5, "i0": 0.1, "transient": 10_000, "steps": 1000}
_BUNDLE_FLAGS = {"--help", "--preset", "--config"}
#: A small run of each subcommand that reaches every option its handler reads.
_SMALL_RUNS = {
    "simulate": ["--steps", "3", "--transient", "0"],
    "analyze": [],
    "scan": ["--param", "r", "--lo", "2.8", "--hi", "3", "--steps", "2", "--keep", "2",
             "--transient", "10"],
    "cycles": [],
    "regions": ["--preset", "triangle-region", "--samples", "5", "--steps", "5"],
    "lyapunov": ["--steps", "1000", "--transient", "0"],
}


class _Recording(dict):
    """An options mapping that records the keys read from it."""

    def __init__(self, *args):
        super().__init__(*args)
        self.read = set()

    def __getitem__(self, key):
        self.read.add(key)
        return super().__getitem__(key)


class TestOptionTable:
    @pytest.mark.parametrize(
        "command, own_flags",
        [
            ("simulate", ["--r", "--beta", "--a", "--K", "--s0", "--i0", "--transient", "--steps",
                          "--out"]),
            ("analyze", ["--r", "--beta", "--a", "--K", "--out"]),
            ("scan", ["--r", "--beta", "--a", "--K", "--s0", "--i0", "--transient", "--steps",
                      "--param", "--lo", "--hi", "--keep", "--out"]),
            ("cycles", ["--n", "--lo", "--hi", "--out"]),
            ("regions", ["--r", "--beta", "--a", "--K", "--steps", "--seed", "--samples",
                         "--out"]),
            ("lyapunov", ["--r", "--beta", "--a", "--K", "--s0", "--i0", "--transient", "--steps",
                          "--out"]),
        ],
    )
    def test_help_lists_exactly_the_table_options(self, capsys, command, own_flags):
        with pytest.raises(SystemExit) as exc:
            main([command, "--help"])
        assert exc.value.code == 0
        listed = set(re.findall(r"--[A-Za-z0-9_]+", capsys.readouterr().out))
        assert listed == {*_BUNDLE_FLAGS, *own_flags}
        table = cli._SUBCOMMANDS[command].keys
        assert listed == {*_BUNDLE_FLAGS, *(f"--{k}" for k in table)}

    def test_sixty_settable_flags(self):
        rows = cli._SUBCOMMANDS.values()
        assert sum(len(row.keys) + 2 for row in rows) == 60  # + --preset --config

    @pytest.mark.parametrize(
        "command, resolved",
        [
            ("simulate", {**_ORBIT_DEFAULTS, "out": None}),
            ("analyze", {**_MODEL_DEFAULTS, "out": None}),
            ("scan", {**_ORBIT_DEFAULTS, "param": None, "lo": None, "hi": None, "keep": 100,
                      "out": None}),
            ("cycles", {"n": 3, "lo": 3.0, "hi": 4.0, "out": None}),
            ("regions", {**_MODEL_DEFAULTS, "steps": 1000, "seed": 0, "samples": 1000,
                         "out": None}),
            ("lyapunov", {**_ORBIT_DEFAULTS, "steps": 100_000, "out": None}),
        ],
    )
    def test_bare_command_resolves_to_defaults(self, command, resolved):
        opts = cli._resolve(cli.build_parser().parse_args([command]))
        assert opts == resolved
        assert {k: type(v) for k, v in opts.items()} == {k: type(v) for k, v in resolved.items()}

    @pytest.mark.parametrize("command", list(cli._SUBCOMMANDS))
    def test_handler_reads_exactly_its_row(self, capsys, tmp_path, command):
        # a dead flag in a row, or a handler reading a key its row does not
        # list (a KeyError), fails here
        row = cli._SUBCOMMANDS[command]
        assert set(row.defaults) <= set(row.keys)
        args = cli.build_parser().parse_args([command, *_SMALL_RUNS[command]])
        opts = _Recording(cli._resolve(args))
        assert set(opts) == set(row.keys)
        opts["out"] = str(tmp_path / "report")
        opts.read.clear()
        assert row.handler(opts) == 0
        assert opts.read == set(row.keys)
        assert capsys.readouterr().out == ""

    def test_dead_flag_is_usage_error(self, capsys):
        with pytest.raises(SystemExit) as exc:
            main(["cycles", "--n", "3", "--r", "100", "--seed", "5"])
        assert exc.value.code == 2
        out, err = capsys.readouterr()
        assert out == ""
        assert "--r" in err

    @pytest.mark.parametrize("command", list(cli._SUBCOMMANDS))
    def test_every_option_outside_the_row_is_refused(self, capsys, command):
        for key in set(cli._OPTIONS) - set(cli._SUBCOMMANDS[command].keys):
            with pytest.raises(SystemExit) as exc:
                main([command, f"--{key}", "1"])
            assert exc.value.code == 2, key
            out, err = capsys.readouterr()
            assert out == "" and f"--{key}" in err, key

    def test_preset_keys_outside_the_row_are_ignored(self, capsys):
        # flip-cascade-scan also sets param, lo, hi, steps, s0 and i0
        code, out, _ = run_cli(capsys, "analyze", "--preset", "flip-cascade-scan")
        assert code == 0
        digest = hashlib.sha256(out.encode()).hexdigest()
        assert digest == "6061aee17c42685dafaba0fb696eb050d057576b83433eb3723b9e67a606ff61"
        assert run_cli(capsys, "analyze", "--beta", "1.1", "--a", "1.0", "--K", "0.5")[1] == out

    def test_config_keys_outside_the_row_are_ignored(self, capsys, tmp_path):
        cfg = tmp_path / "opts.cfg"
        cfg.write_text("r = 2\n")
        assert run_json(capsys, "cycles", "--config", str(cfg)) == run_json(capsys, "cycles")

    def test_every_preset_key_is_an_option(self):
        for name, bundle in PRESETS.items():
            assert set(bundle) <= set(cli._OPTIONS), name


def _outcome(capsys, argv):
    """``main``'s exit code, stdout and stderr, usage errors and help included."""
    try:
        code = main(list(argv))
    except SystemExit as exc:
        code = exc.code
    out, err = capsys.readouterr()
    return code, out, err


def _python(*args):
    path = [str(Path(cli.__file__).resolve().parents[1]), os.environ.get("PYTHONPATH")]
    env = {**os.environ, "PYTHONPATH": os.pathsep.join(filter(None, path))}
    return subprocess.run([sys.executable, *args], capture_output=True, env=env, check=False)


#: A usage error, a good call, two help pages and the good call again.
_REUSE_SEQUENCE = (
    ["cycles", "--r", "2"],
    ["cycles", "--n", "3"],
    ["--help"],
    ["scan", "--help"],
    ["cycles", "--n", "3"],
)


class TestParserReuse:
    def test_reused_parser_answers_like_a_fresh_one(self, capsys, monkeypatch):
        cli.build_parser.cache_clear()
        reused = [_outcome(capsys, argv) for argv in _REUSE_SEQUENCE]
        # the undecorated builder makes a fresh parser for every call
        monkeypatch.setattr(cli, "build_parser", cli.build_parser.__wrapped__)
        fresh = [_outcome(capsys, argv) for argv in _REUSE_SEQUENCE]
        assert reused == fresh
        assert [code for code, _, _ in reused] == [2, 0, 0, 0, 0]
        assert reused[1] == reused[4]
        assert "--r" in reused[0][2] and reused[2][1].startswith("usage: sirmap")

    def test_parser_built_once_per_process(self, capsys, monkeypatch):
        built = []
        init = cli._Parser.__init__

        def counting_init(self, *args, **kwargs):
            built.append(kwargs.get("prog"))
            init(self, *args, **kwargs)

        monkeypatch.setattr(cli._Parser, "__init__", counting_init)
        cli.build_parser.cache_clear()
        for argv in (*_REUSE_SEQUENCE, ["analyze"], ["cycles", "--n", "4"]):
            _outcome(capsys, argv)
        # one build: the top-level parser and one per subcommand
        assert built.count("sirmap") == 1
        assert len(built) == 1 + len(cli._SUBCOMMANDS)

    def test_parser_not_built_at_import(self):
        proc = _python("-c", "import sirmap.cli as c; print(c.build_parser.cache_info().currsize)")
        assert (proc.returncode, proc.stdout) == (0, b"0\n"), proc.stderr

    def test_module_entry_point_prints_the_same_bytes(self, capsys):
        proc = _python("-m", "sirmap.cli", "cycles", "--n", "3")
        code, out, err = run_cli(capsys, "cycles", "--n", "3")
        assert (proc.returncode, proc.stdout, proc.stderr) == (code, out.encode(), err.encode())


#: Runs ``main`` on each argv of the JSON list in argv[1] and writes, as
#: JSON, whether numpy was loaded after the imports and after each call,
#: with each call's exit code.
_NUMPY_PROBE = """
import json, sys
import sirmap, sirmap.cli
seen = [("import", "numpy" in sys.modules)]
for argv in json.loads(sys.argv[1]):
    try:
        code = sirmap.cli.main(argv)
    except SystemExit as exc:
        code = exc.code
    seen.append((code, "numpy" in sys.modules))
sys.stderr.write("\\n" + json.dumps(seen))
"""


class TestNumpyFreePath:
    def test_scalar_subcommands_never_load_numpy(self, tmp_path):
        spec = PRESETS["ns-branch-scan"]
        out = tmp_path / "scan.csv"
        calls = [
            ["analyze", "--r", "1.8", "--beta", "3"],
            ["lyapunov", "--preset", "axis-chaos", "--steps", "1000"],
            ["--help"],
            ["analyze", "--preset", "nope"],
            ["scan", "--preset", "ns-branch-scan", "--s0", repr(spec["s0"]),
             "--i0", repr(spec["i0"]), "--out", str(out)],
        ]
        proc = _python("-c", _NUMPY_PROBE, json.dumps(calls))
        assert proc.returncode == 0, proc.stderr
        assert json.loads(proc.stderr.splitlines()[-1]) == [
            ["import", False], [0, False], [0, False], [0, False], [2, False], [0, True]
        ]
        # the first array loads it, and the bytes are the benchmark's reference
        ref = json.loads(_SWEEP_REFERENCE.read_text(encoding="utf-8"))["scan ns-branch-scan"]
        data = out.read_bytes()
        assert (len(data), hashlib.sha256(data).hexdigest()) == (ref["bytes"], ref["sha256"])


def _readme_commands():
    text = (Path(__file__).resolve().parents[1] / "README.md").read_text(encoding="utf-8")
    blocks = re.findall(r"```sh\n(.*?)```", text, flags=re.S)
    return [shlex.split(line)[1:] for block in blocks for line in block.splitlines()
            if line.startswith("sirmap ")]


class TestReadme:
    def test_readme_has_every_subcommand(self):
        assert {argv[0] for argv in _readme_commands()} == set(cli._SUBCOMMANDS)

    @pytest.mark.parametrize("argv", _readme_commands(), ids=lambda argv: " ".join(argv))
    def test_readme_command_runs(self, capsys, tmp_path, argv):
        if "--out" in argv:
            argv = argv[: argv.index("--out")] + argv[argv.index("--out") + 2:]
        code, out, err = run_cli(capsys, *argv, "--out", str(tmp_path / "out"))
        assert code == 0, err
        assert out == ""
        assert (tmp_path / "out").stat().st_size > 0
