"""The benchmark's four workloads: the calls one pass issues, and the checks
on every output.

Each workload is a fixed list of calls built from the benchmark seed.  A pass
issues them one after another (a closed loop with one client, like a
researcher's script), so each call starts only after the previous one
returned.

* ``sweep``: ``scan`` presets, ``lyapunov`` and one long-transient
  ``simulate`` through ``sirmap.cli.main``.  This is the pure-Python scalar
  path (map step, QR tangent step, CSV formatting).  The seed jitters the
  starting state ``s0``/``i0``.
* ``probe``: ``regions`` through ``sirmap.cli.main`` on three ensembles
  (large sealed, small sealed, leaking), probe seed = benchmark seed.  This
  is numpy ensemble work only.
* ``births``: ``cycles --n k`` for k = 3..8 through ``sirmap.cli.main``.
  This is the vectorised Newton tangency solve; it has no free input.
* ``boundaries``: direct library calls, ``cmd_analyze``-style, on seeded
  (r, a, K) points placed on and near the fold, flip and Neimark-Sacker
  curves.  This is the only workload where ``equilibria`` and
  ``normal_forms`` do the work.  It skips ``cli.main`` because in-process
  argument parsing would dominate each call.

Checks run outside the timed region; ``digest.py`` adds the comparison
with the recorded reference.
"""
from __future__ import annotations

import contextlib
import io
import json
import math
import random
from dataclasses import dataclass
from typing import Any, Callable

import sirmap.cli as cli
from sirmap.core import ModelParams
from sirmap.equilibria import (
    BoundaryTag,
    classify_boundary,
    disease_free,
    endemic,
    thresholds,
)
from sirmap.normal_forms import (
    ResonanceError,
    flip_coefficient,
    ns_coefficient,
    rho_prime_at_ns,
)
from sirmap.positivity import applicable_region

from digest import DEFAULT_SEED

#: Axis period-n orbit counts for n = 3..8 (Metropolis-Stein-Stein).
BIRTH_TOTALS = {3: 1, 4: 2, 5: 3, 6: 5, 7: 9, 8: 16}

SCAN_PRESETS = ("flip-cascade-scan", "ns-branch-scan", "force-sweep-scan", "inhibition-sweep-scan")
SIMULATE_TRANSIENT = 1_000_000
SIMULATE_STEPS = 2000
# (preset, samples, sealed): the large sealed ensemble's live arrays exceed
# a 2 MB L2, the small one is bound by per-step call overhead, the curved
# region leaks.
PROBE_ENSEMBLES = (
    ("triangle-region", 30_000, True),
    ("capped-region", 1_000, True),
    ("curved-region", 10_000, False),
)
BOUNDARY_POINTS = 2000
# Every RESONANCE_EVERY-th point also adds cases at the strong resonances
# and at the disease-free flip line r = 3.
RESONANCE_EVERY = 20
NEAR = 1e-3
RESONANCE_OFFSET = 5e-7


@dataclass
class Outcome:
    """What one call returned: exit code, captured output, parsed values."""

    code: int
    out: str = ""
    err: str = ""
    values: Any = None

    @property
    def canonical(self) -> bytes:
        """The bytes the reference digest hashes."""
        return self.out.encode()

    @property
    def summable(self) -> dict | None:
        """Numbers a digest adds up over the calls sharing a label."""
        return None


class BoundaryOutcome(Outcome):
    """``values`` is ``(E0 tag, E1 tag, numbers)`` from :func:`analyze`."""

    @property
    def canonical(self) -> bytes:
        return repr(self.values).encode()

    @property
    def summable(self) -> dict:
        tag0, tag1, vals = self.values
        return {f"tag0={tag0 and tag0.value}": 1, f"tag1={tag1 and tag1.value}": 1} | vals


@dataclass
class Call:
    label: str
    run: Callable[[], Outcome]
    check: Callable[[Outcome], list]
    kind: str  # CLI subcommand or "boundaries"; selects the tolerance


def _cli(label: str, argv: list, check: Callable[[Outcome], list]) -> Call:
    def run() -> Outcome:
        out, err = io.StringIO(), io.StringIO()
        with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
            try:
                code = cli.main(argv)
            except SystemExit as exc:
                code = exc.code if isinstance(exc.code, int) else 1
        return Outcome(code, out.getvalue(), err.getvalue())

    return Call(label, run, check, argv[0])


def _json(o: Outcome) -> dict:
    o.values = json.loads(o.out)
    return o.values


# ---------------------------------------------------------------------------
# sweep


def _check_scan(steps: int):
    def check(o: Outcome) -> list:
        if o.code != 0:
            return [f"exit code {o.code}: {o.err.strip()}"]
        lines = o.out.splitlines()
        if len(lines) != steps + 1:
            return [f"{len(lines) - 1} rows, expected {steps}"]
        for line in lines[1:]:
            _, lyap, esc = line.split(",", 3)[:3]
            if esc == "" and not math.isfinite(float(lyap)):
                return [f"non-finite lyap_max on a kept row: {line[:60]}"]
            if esc != "" and lyap != "nan":
                return [f"escaped row carries lyap_max {lyap}"]
        return []

    return check


def _check_lyapunov(lam_max: float, tol: float):
    def check(o: Outcome) -> list:
        if o.code != 0:
            return [f"exit code {o.code}: {o.err.strip()}"]
        doc = _json(o)
        l1, l2 = doc["lambda_max"], doc["lambda_min"]
        if not (math.isfinite(l1) and math.isfinite(l2) and l1 >= l2):
            return [f"bad exponents {l1}, {l2}"]
        if abs(l1 - lam_max) > tol:
            return [f"lambda_max {l1} not within {tol} of {lam_max}"]
        return []

    return check


def _check_simulate(o: Outcome) -> list:
    if o.code != 0:
        return [f"exit code {o.code}: {o.err.strip()}"]
    lines = o.out.splitlines()
    if lines[0] != "n,S,I" or len(lines) != SIMULATE_STEPS + 1:
        return [f"unexpected CSV shape ({len(lines)} lines)"]
    _, s, i = lines[-1].split(",")
    if not (math.isfinite(float(s)) and math.isfinite(float(i))):
        return ["non-finite final state"]
    return []


def _sweep(seed: int) -> list:
    rng = random.Random(seed)

    def jit(x: float) -> str:
        return repr(x + rng.uniform(-0.02, 0.02) if seed != DEFAULT_SEED else x)

    calls = []
    for preset in SCAN_PRESETS:
        spec = cli.PRESETS[preset]
        argv = ["scan", "--preset", preset, "--s0", jit(spec["s0"]), "--i0", jit(spec["i0"])]
        calls.append(_cli(f"scan {preset}", argv, _check_scan(spec["steps"])))
    # On the axis (i0 = 0) axis-chaos is the logistic map at r = 4, whose
    # exponent is ln 2; the invariant curve is quasi-periodic, exponent 0.
    calls.append(_cli(
        "lyapunov axis-chaos",
        ["lyapunov", "--preset", "axis-chaos", "--s0", jit(0.3)],
        _check_lyapunov(math.log(2.0), 1e-3),
    ))
    calls.append(_cli(
        "lyapunov invariant-curve",
        ["lyapunov", "--preset", "invariant-curve", "--s0", jit(0.6), "--i0", jit(0.2)],
        _check_lyapunov(0.0, 1e-3),
    ))
    calls.append(_cli(
        "simulate locked-ten",
        ["simulate", "--preset", "locked-ten", "--s0", jit(0.6), "--i0", jit(0.2),
         "--transient", str(SIMULATE_TRANSIENT), "--steps", str(SIMULATE_STEPS)],
        _check_simulate,
    ))
    return calls


# ---------------------------------------------------------------------------
# probe


def _check_regions(samples: int, seed: int, sealed: bool):
    def check(o: Outcome) -> list:
        if o.code != 0:
            return [f"exit code {o.code}: {o.err.strip()}"]
        doc = _json(o)
        if (doc["samples"], doc["steps"], doc["seed"]) != (samples, 1000, seed):
            return ["report does not echo samples/steps/seed"]
        count = doc["escape_count"]
        if sealed and count != 0:
            return [f"sealed region reported {count} escapes"]
        if not sealed and count == 0:
            return ["leaking region reported no escapes"]
        if len(doc["escapes"]) != min(count, 50):
            return ["escape records do not match escape_count"]
        return []

    return check


def _probe(seed: int) -> list:
    probe_seed = seed % 2**32  # numpy's generator takes non-negative seeds
    return [
        _cli(
            f"regions {preset}",
            ["regions", "--preset", preset, "--samples", str(n), "--seed", str(probe_seed)],
            _check_regions(n, probe_seed, sealed),
        )
        for preset, n, sealed in PROBE_ENSEMBLES
    ]


# ---------------------------------------------------------------------------
# births


def _check_cycles(n: int):
    def check(o: Outcome) -> list:
        if o.code != 0:
            return [f"exit code {o.code}: {o.err.strip()}"]
        doc = _json(o)
        rv = doc["r_values"]
        if doc["n"] != n or len(rv) != BIRTH_TOTALS[n]:
            return [f"n={n}: {len(rv)} births, expected {BIRTH_TOTALS[n]}"]
        if rv != sorted(rv) or not all(3.0 < r <= 4.0 for r in rv):
            return [f"n={n}: r_values not sorted inside (3, 4]"]
        return []

    return check


def _births(seed: int) -> list:
    return [_cli(f"cycles n={n}", ["cycles", "--n", str(n)], _check_cycles(n)) for n in BIRTH_TOTALS]


# ---------------------------------------------------------------------------
# boundaries


def analyze(p: ModelParams) -> tuple:
    """The library calls ``cmd_analyze`` makes at ``p``, without the JSON.

    Returns the E0 and E1 boundary tags and a dict of the numbers computed.
    """
    vals = {}
    df = disease_free(p)
    vals["df_mu2"] = df.eigen.mu2.real
    tag0 = classify_boundary(p, "E0")
    tag1 = None
    en = None
    if p.r > 1.0:
        th = thresholds(p.r, p.a, p.K)
        vals["beta0"], vals["beta2"], vals["r_max"] = th.beta0, th.beta2, th.r_max
        en = endemic(p)
        if en is not None:
            vals["E1_S"], vals["E1_I"] = en.location
            vals["E1_det"] = en.eigen.det
            tag1 = classify_boundary(p, "E1")
    try:
        if tag0 == BoundaryTag.FLIP:
            vals["c"] = flip_coefficient(p, df).coefficient
        elif tag1 == BoundaryTag.FLIP:
            vals["c"] = flip_coefficient(p, endemic(p)).coefficient
        elif tag1 == BoundaryTag.NEIMARK_SACKER:
            nf = ns_coefficient(p)
            vals["d"], vals["theta0"] = nf.coefficient, nf.theta0
            vals["modulus_slope"] = rho_prime_at_ns(p)
    except ResonanceError:
        vals["refused"] = 1
    region = applicable_region(p)
    vals["region_case"] = region.case if region else 0
    return tag0, tag1, vals


def _check_boundary(expect0, expect1, refused: bool):
    def check(o: Outcome) -> list:
        tag0, tag1, vals = o.values
        if (tag0, tag1) != (expect0, expect1):
            return [f"tags {tag0}, {tag1}; expected {expect0}, {expect1}"]
        if ("refused" in vals) != refused:
            return [f"ResonanceError {'missing' if refused else 'unexpected'}"]
        bad = [k for k, v in vals.items() if not math.isfinite(v)]
        if bad:
            return [f"non-finite {bad}"]
        if expect1 == BoundaryTag.NEIMARK_SACKER and not refused:
            if abs(vals["E1_det"] - 1.0) > 1e-9 or vals["modulus_slope"] == 0.0:
                return ["NS point is not a transversal unit-circle crossing"]
        return []

    return check


def _boundary_call(kind: str, p: ModelParams, expect0, expect1, refused=False) -> Call:
    def run() -> Outcome:
        return BoundaryOutcome(0, values=analyze(p))

    return Call(kind, run, _check_boundary(expect0, expect1, refused), "boundaries")


def boundary_cases(seed: int) -> list:
    """(label, params, expected E0 tag, expected E1 tag, refused) per case."""
    rng = random.Random(seed)
    T = BoundaryTag
    cases = []
    for i in range(BOUNDARY_POINTS):
        a, K = rng.uniform(0.0, 3.0), rng.uniform(0.1, 0.9)
        r_max = thresholds(1.5, a, K).r_max
        r_fold = rng.uniform(1.05, 2.95)
        r_flip = rng.uniform(3.0, r_max)
        r_ns = rng.uniform(1.05, r_max)
        on = [
            ("fold", r_fold, thresholds(r_fold, a, K).beta0, (T.FOLD, None)),
            ("flip", r_flip, thresholds(r_flip, a, K).beta1, (None, T.FLIP)),
            ("ns", r_ns, thresholds(r_ns, a, K).beta2, (None, T.NEIMARK_SACKER)),
        ]
        for label, r, beta, (t0, t1) in on:
            cases.append((label, ModelParams(r, beta, a, K), t0, t1, False))
            cases.append((f"{label}-near", ModelParams(r, beta * (1.0 + NEAR), a, K), None, None, False))
        if i % RESONANCE_EVERY == 0:
            th = thresholds(2.0, a, K)
            for r_star in (th.r_bar, th.r_tilde, th.r_max):
                # just inside the NS exclusion radius: classified NS, refused
                r = r_star - RESONANCE_OFFSET
                beta = thresholds(r, a, K).beta2
                cases.append(("resonance", ModelParams(r, beta, a, K), None, T.NEIMARK_SACKER, True))
            beta = rng.uniform(0.1, 0.9) * thresholds(3.0, a, K).beta0
            cases.append(("e0-flip", ModelParams(3.0, beta, a, K), T.FLIP, None, False))
    return cases


def _boundaries(seed: int) -> list:
    return [_boundary_call(*case) for case in boundary_cases(seed)]


CALL_LISTS = {"sweep": _sweep, "probe": _probe, "births": _births, "boundaries": _boundaries}


def build(workload: str, seed: int) -> list:
    return CALL_LISTS[workload](seed)
