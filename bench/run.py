"""Layered benchmark for sirmap: four workloads, timed end to end and per layer.

Run from the repository root (the benchmark imports ``src/sirmap``)::

    python3 bench/run.py --workload sweep --seed 0 --seconds 30 --trace 0
    python3 bench/run.py --suite --runs 3           # every workload, summary table
    python3 bench/run.py --compare OLD.json NEW.json
    python3 bench/run.py --record-reference         # rewrite reference/ at seed 0

One run (``--workload``) first launches ``SETUP_LAUNCHES`` fresh interpreters
that import ``sirmap.cli`` (and with it numpy) and times each until it is
ready for its first call.  It then starts one workload process
(``worker.py``), which issues the workload's calls pass after pass for
``--seconds`` and checks every output.  Only one workload process runs at a
time, with OMP/OpenBLAS/MKL capped at one thread.  The last stdout line is
one JSON object: ``correct``, ``attempted``, ``failed`` and ``metrics``.

End-to-end metrics (``--trace 0``), each a median within the run:
``setup_s`` (fresh-interpreter import time), ``wall_s`` (time in the calls
of one pass, interpreter warm) and ``peak_rss_mb`` (peak resident memory of
the workload process).  ``setup_s`` and ``wall_s`` are in reference-speed
seconds: each launch or pass is scaled by the calibration kernel timed
next to it (``calibrate.py``), because the shared host's speed drifts by
more than the bounds; the raw times are kept in the result file.  The
error rate is ``failed / attempted``; a call fails on an unexpected exit
code or exception, or when its output fails the workload's checks.

Per-layer metrics (``--trace 1``) come from a separate run in which untraced
and traced passes alternate; see ``tracer.py``.  The full result, with
provenance, goes to ``bench/out/``.
"""
from __future__ import annotations

import argparse
import hashlib
import json
import os
import platform
import statistics
import subprocess
import sys
import time
from pathlib import Path

BENCH = Path(__file__).resolve().parent
ROOT = BENCH.parent
OUT = BENCH / "out"
sys.path.insert(0, str(BENCH))

import calibrate  # noqa: E402
from digest import digest_matches  # noqa: E402
from tracer import unit_of  # noqa: E402

WORKLOADS = ("sweep", "probe", "births", "boundaries")
SETUP_LAUNCHES = 11
WORKER_TIMEOUT_S = 170
THREAD_CAPS = {"OMP_NUM_THREADS": "1", "OPENBLAS_NUM_THREADS": "1", "MKL_NUM_THREADS": "1"}
SETUP_CODE = "import sys, sirmap.cli; sys.stdout.write('ready\\n'); sys.stdout.flush()"

# Computed from the workload definitions (array shapes x 8-byte floats),
# not measured; compare with the cache sizes in the provenance.  No
# workload reaches 4x the last-level cache, a shared 300 MB L3 on the host
# the benchmark was built on.
WORKING_SET = {
    "sweep": (2 * 314 * 100 * 8, "scalar loops; largest arrays are one scan's S/I sample tables, 2 x 314 rows x 100 x 8 B (the CSV text is counted in cli.bytes_out)"),
    "probe": (9 * 30_000 * 8, "about 9 live float64-sized arrays (S, I, the step temporaries, np.where copies, labels) x 30,000 samples x 8 B on the triangle ensemble"),
    "births": (12 * 160_000 * 8, "about 12 live float64 arrays x 160,000 Newton seeds x 8 B"),
    "boundaries": (2 * 2 * 2 * 2 * 8, "2x2 matrices and 2x2x2x2 tensors per call; the live data is the list of boundary cases"),
}


class BenchError(RuntimeError):
    pass


def _env() -> dict:
    env = dict(os.environ)
    env.update(THREAD_CAPS)
    env["PYTHONPATH"] = str(ROOT / "src")
    return env


def _require_sources() -> None:
    if not (ROOT / "src" / "sirmap" / "__init__.py").is_file():
        raise BenchError(f"no sirmap sources under {ROOT / 'src'}; run from a full checkout")


def setup_once(env: dict) -> float:
    """Seconds from launching a fresh interpreter until sirmap.cli is imported."""
    t0 = time.perf_counter()
    proc = subprocess.Popen(
        [sys.executable, "-c", SETUP_CODE],
        stdout=subprocess.PIPE, stderr=subprocess.PIPE, env=env, cwd=ROOT, text=True,
    )
    line = proc.stdout.readline()
    elapsed = time.perf_counter() - t0
    _, err = proc.communicate(timeout=60)
    if line != "ready\n" or proc.returncode != 0:
        raise BenchError(f"import of sirmap failed: {err.strip()}")
    return elapsed


# ---------------------------------------------------------------------------
# provenance


def _read(path: Path) -> str:
    try:
        return path.read_text().strip()
    except OSError:
        return ""


def _git_commit() -> str | None:
    git = ROOT / ".git"
    head = _read(git / "HEAD")
    if not head.startswith("ref: "):
        return head or None
    ref = head[5:]
    sha = _read(git / ref)
    if sha:
        return sha
    for line in _read(git / "packed-refs").splitlines():
        if line.endswith(" " + ref):
            return line.split()[0]
    return None


def _source_sha256() -> str:
    h = hashlib.sha256()
    for path in sorted((ROOT / "src" / "sirmap").glob("*.py")):
        h.update(path.name.encode() + b"\0" + path.read_bytes())
    return h.hexdigest()


def _caches() -> list:
    caches = []
    for d in sorted(Path("/sys/devices/system/cpu/cpu0/cache").glob("index*")):
        caches.append({
            "level": _read(d / "level"),
            "type": _read(d / "type"),
            "size": _read(d / "size"),
            "shared_cpu_list": _read(d / "shared_cpu_list"),
        })
    return caches


def provenance(seed: int) -> dict:
    model = ""
    for line in _read(Path("/proc/cpuinfo")).splitlines():
        if line.startswith("model name"):
            model = line.split(":", 1)[1].strip()
            break
    return {
        "nproc": os.cpu_count(),
        "affinity": len(os.sched_getaffinity(0)),
        "cpu_model": model,
        "caches": _caches(),
        "python": platform.python_version(),
        "git_commit": _git_commit(),
        "source_sha256": _source_sha256(),
        "seed": seed,
        "thread_caps": THREAD_CAPS,
    }


# ---------------------------------------------------------------------------
# one run


def run_workload(workload: str, seed: int, seconds: float, trace: int) -> dict:
    """Set-up launches, then one workload process; returns its full result."""
    _require_sources()
    env = _env()
    setups, setup_cal = [], []
    for _ in range(SETUP_LAUNCHES):
        setup_cal.append(calibrate.kernel())
        setups.append(setup_once(env))
    OUT.mkdir(exist_ok=True)
    cmd = [
        sys.executable, str(BENCH / "worker.py"), "--workload", workload,
        "--seed", str(seed), "--seconds", str(seconds), "--trace", str(trace),
    ]
    if trace:
        cmd += ["--spans", str(OUT / f"spans-{workload}-seed{seed}.json.gz")]
    try:
        proc = subprocess.run(
            cmd, stdout=subprocess.PIPE, env=env, cwd=ROOT, text=True, timeout=WORKER_TIMEOUT_S
        )
    except subprocess.TimeoutExpired as exc:
        raise BenchError(f"{workload} worker did not finish in {WORKER_TIMEOUT_S} s") from exc
    if proc.returncode != 0 or not proc.stdout.strip():
        raise BenchError(f"{workload} worker exited with code {proc.returncode}")
    res = json.loads(proc.stdout.strip().splitlines()[-1])
    res["setup_s"] = setups
    res["setup_cal_s"] = setup_cal
    res["provenance"] = provenance(seed) | {"numpy": res.pop("numpy")}
    ws, what = WORKING_SET[workload]
    caches = {c["level"]: c["size"] for c in res["provenance"]["caches"] if c["type"] != "Instruction"}
    res["working_set"] = {"bytes": ws, "computed_from": what, "L2": caches.get("2"), "L3": caches.get("3")}
    res["setup_ref_s"] = [t * calibrate.speed_factor([c], "setup") for t, c in zip(setups, setup_cal)]
    res["e2e"] = {
        "setup_s": statistics.median(res["setup_ref_s"]),
        "wall_s": statistics.median(res["wall_ref_s"]),
        "peak_rss_mb": res["peak_rss_mb"],
        "error_rate": res["failed"] / res["attempted"],
    }
    return res


E2E_UNITS = {"setup_s": "s", "wall_s": "s", "peak_rss_mb": "MB", "error_rate": "ratio"}


def _benchmark_spec() -> dict:
    return json.loads((ROOT / "BENCHMARK.json").read_text())


def single_run(args) -> int:
    res = run_workload(args.workload, args.seed, args.seconds, args.trace)
    path = OUT / f"result-{args.workload}-seed{args.seed}-trace{args.trace}.json"
    path.write_text(json.dumps(res, indent=1) + "\n")
    for msg in res["failures"]:
        print(f"FAILED {msg}")
    spec = _benchmark_spec()
    if args.trace:
        layer, samples = res["per_layer"], res["per_layer_samples"]
        for name in sorted(layer):
            print(f"{name:48s} {layer[name]:>16.6g} {unit_of(name):6s} samples={samples[name]}")
        wanted = [m["name"] for m in spec["per_layer"]]
        metrics = {name: {"value": layer[name], "unit": unit_of(name)} for name in wanted}
    else:
        e2e = res["e2e"]
        print(f"setup_s     {e2e['setup_s']:.6g} s   median of {len(res['setup_s'])} launches "
              f"(raw median {statistics.median(res['setup_s']):.6g} s)")
        print(f"wall_s      {e2e['wall_s']:.6g} s   median of {len(res['wall_s'])} passes "
              f"(raw median {statistics.median(res['wall_s']):.6g} s)")
        print(f"peak_rss_mb {e2e['peak_rss_mb']:.6g} MB")
        ws = res["working_set"]
        print(f"working set {ws['bytes'] / 1e6:.3g} MB computed, next to L2 {ws['L2']} and L3 {ws['L3']}")
        print(f"error_rate  {e2e['error_rate']:.6g} ratio   {res['failed']} of {res['attempted']} calls failed")
        wanted = [m["name"] for m in spec["end_to_end"]]
        metrics = {name: {"value": e2e[name], "unit": E2E_UNITS[name]} for name in wanted}
    print(f"result: {path.relative_to(ROOT)}")
    print(json.dumps({
        "correct": res["failed"] == 0,
        "attempted": res["attempted"],
        "failed": res["failed"],
        "metrics": metrics,
    }))
    return 0


# ---------------------------------------------------------------------------
# suite and comparison


def _quartiles(values: list) -> tuple:
    if len(values) == 1:
        return values[0], values[0], values[0]
    q1, q2, q3 = statistics.quantiles(values, n=4)
    return q1, statistics.median(values), q3


def _high_percentile(values: list) -> tuple:
    """The highest whole percentile with at least ten samples beyond it.

    Returns (None, None) unless that percentile lies above the median.
    """
    n = len(values)
    pct = (100 * (n - 10)) // n
    if pct <= 50:
        return None, None
    return pct, statistics.quantiles(values, n=100)[pct - 1]


def suite(args) -> int:
    seeds = range(args.runs)
    chosen = list(WORKLOADS)
    doc = {"provenance": provenance(0), "seconds": args.seconds, "workloads": {}}
    for w in chosen:
        doc["workloads"][w] = {"runs": [], "trace": None}
    for r in seeds:
        # rotate the order so no workload always runs first
        for w in chosen[r % len(chosen):] + chosen[: r % len(chosen)]:
            res = run_workload(w, r, args.seconds, 0)
            doc["workloads"][w]["runs"].append({
                k: res[k] for k in ("seed", "e2e", "setup_ref_s", "wall_ref_s", "attempted", "failed", "failures", "digests")
            })
            print(f"run {r} {w}: " + " ".join(f"{k}={v:.4g}" for k, v in res["e2e"].items()), file=sys.stderr)
    for w in chosen:
        res = run_workload(w, 0, args.seconds, 1)
        doc["workloads"][w]["trace"] = {
            k: res[k] for k in ("per_layer", "per_layer_samples", "rate_bases", "traced_wall_s", "wall_s")
        }
        doc["workloads"][w]["working_set"] = res["working_set"]
    out = Path(args.out) if args.out else OUT / f"suite-{time.strftime('%Y%m%d-%H%M%S')}.json"
    OUT.mkdir(exist_ok=True)
    out.write_text(json.dumps(doc, indent=1) + "\n")
    print_suite(doc)
    print(f"\nwrote {out}")
    return 0


def _run_values(w: dict, metric: str) -> list:
    """One value per run of the workload."""
    return [run["e2e"][metric] for run in w["runs"]]


def print_suite(doc: dict) -> None:
    prov = doc["provenance"]
    print(f"{prov['cpu_model']}, nproc={prov['nproc']}, python {prov['python']}, "
          f"commit {prov['git_commit']}, caches " + ", ".join(f"L{c['level']} {c['type']} {c['size']}" for c in prov["caches"]))
    print(f"\n{'workload':11s} {'metric':12s} {'median':>10s} {'p-high':>16s} {'n':>4s}  unit   (runs={len(next(iter(doc['workloads'].values()))['runs'])})")
    for name, w in doc["workloads"].items():
        for metric in ("setup_s", "wall_s", "peak_rss_mb", "error_rate"):
            if metric in ("setup_s", "wall_s"):
                pooled = [v for run in w["runs"] for v in run[metric.replace("_s", "_ref_s")]]
            else:
                pooled = _run_values(w, metric)
            pct, high = _high_percentile(pooled)
            hi = f"p{pct}={high:.4g}" if pct else "-"
            print(f"{name:11s} {metric:12s} {statistics.median(pooled):>10.4g} {hi:>16s} {len(pooled):>4d}  {E2E_UNITS[metric]}")
        failures = [f for run in w["runs"] for f in run["failures"]]
        for f in failures[:5]:
            print(f"  FAILED {f}")
        if w.get("trace"):
            ws = w["working_set"]
            print(f"  working set {ws['bytes'] / 1e6:.3g} MB computed ({ws['computed_from']}); L2 {ws['L2']}, L3 {ws['L3']}")
            layer, samples = w["trace"]["per_layer"], w["trace"]["per_layer_samples"]
            selfs = {k: v for k, v in layer.items() if k.count(".") == 1 and k.endswith(".self_s")}
            top = max(selfs, key=selfs.get)
            print(f"  largest self time: {top.split('.')[0]} ({selfs[top]:.4g} s of the traced pass)")
            for key in sorted(layer):
                if layer[key]:
                    print(f"  {key:46s} {layer[key]:>14.6g} {unit_of(key):6s} samples={samples[key]}")


def _verdict(a: list, b: list, bound: float) -> str:
    """Verdict on B against A for a lower-is-better metric with ``bound``."""
    qa1, ma, qa3 = _quartiles(a)
    qb1, mb, qb3 = _quartiles(b)
    spread = max((qa3 - qa1) / ma, (qb3 - qb1) / mb)
    all_better = max(b) < min(a)
    if spread > bound and not all_better:
        return "unresolved: spread exceeds the bound"
    if (mb - ma) / ma > bound:
        return "worse beyond the bound"
    if all_better or ma - mb > qa3 - qa1:
        return "better"
    return "within the bound"


def compare(path_a: str, path_b: str) -> int:
    a = json.loads(Path(path_a).read_text())
    b = json.loads(Path(path_b).read_text())
    bounds = {m["name"]: m["bound"] for m in _benchmark_spec()["end_to_end"]}
    print(f"A = {path_a} (commit {a['provenance']['git_commit']})")
    print(f"B = {path_b} (commit {b['provenance']['git_commit']})")
    print(f"\n{'workload':11s} {'metric':12s} {'A q1/med/q3':>30s} {'B q1/med/q3':>30s} {'B/A':>7s}  verdict")
    for name in a["workloads"]:
        if name not in b["workloads"]:
            continue
        wa, wb = a["workloads"][name], b["workloads"][name]
        for metric in ("setup_s", "wall_s", "peak_rss_mb", "error_rate"):
            va, vb = _run_values(wa, metric), _run_values(wb, metric)
            qa, qb = _quartiles(va), _quartiles(vb)
            ratio = f"{qb[1] / qa[1]:.3f}" if qa[1] else "-"
            if metric == "error_rate":
                verdict = "worse" if qb[1] > qa[1] else "no worse"
            else:
                verdict = _verdict(va, vb, bounds.get(metric, 0.25))
            fa = "/".join(f"{x:.4g}" for x in qa)
            fb = "/".join(f"{x:.4g}" for x in qb)
            print(f"{name:11s} {metric:12s} {fa:>30s} {fb:>30s} {ratio:>7s}  {verdict}")
        ta, tb = wa.get("trace"), wb.get("trace")
        if ta and tb:
            for key in sorted(ta["per_layer"]):
                x, y = ta["per_layer"][key], tb["per_layer"].get(key)
                if x and y is not None:
                    print(f"  {key:46s} {x:>12.6g} {y:>12.6g}  B/A {y / x:.3f}")
        da, db = _digests_at(wa, 0), _digests_at(wb, 0)
        for label in sorted(da or {}):
            if label not in (db or {}):
                state = "not in B"
            else:
                state = digest_matches(da[label], db[label]) or "DIFFERENT"
            print(f"  output at seed 0: {label:36s} {state}")
    return 0


def _digests_at(w: dict, seed: int) -> dict | None:
    for run in w["runs"]:
        if run["seed"] == seed:
            return run["digests"]
    return None


def record_reference() -> int:
    _require_sources()
    ref_dir = BENCH / "reference"
    ref_dir.mkdir(exist_ok=True)
    for w in WORKLOADS:
        cmd = [sys.executable, str(BENCH / "worker.py"), "--workload", w, "--seed", "0",
               "--seconds", "0", "--record", str(ref_dir / f"{w}.json")]
        subprocess.run(cmd, env=_env(), cwd=ROOT, check=True, timeout=WORKER_TIMEOUT_S)
        print(f"recorded {w}")
    return 0


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__, formatter_class=argparse.RawDescriptionHelpFormatter)
    mode = ap.add_mutually_exclusive_group(required=True)
    mode.add_argument("--workload", choices=WORKLOADS)
    mode.add_argument("--suite", action="store_true", help="run every workload --runs times, then a traced run of each")
    mode.add_argument("--compare", nargs=2, metavar=("A", "B"), help="compare two suite result files")
    mode.add_argument("--record-reference", action="store_true")
    ap.add_argument("--seed", type=int, default=0)
    ap.add_argument("--seconds", type=float, default=28.0)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    ap.add_argument("--runs", type=int, default=3, help="suite: runs per workload (seeds 0..runs-1)")
    ap.add_argument("--out", help="suite: result file (default bench/out/suite-<time>.json)")
    args = ap.parse_args(argv)
    try:
        if args.compare:
            return compare(*args.compare)
        if args.record_reference:
            return record_reference()
        if args.suite:
            return suite(args)
        return single_run(args)
    except BenchError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())
