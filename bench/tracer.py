"""Spans around the calls into each sirmap layer, recorded from outside.

The tracer replaces the names that ``sirmap.cli`` and the benchmark's
workload module bound at import time with wrappers that record one span per
call: call id, parent call id, request id (the workload call it belongs to),
function, start and end.  Nothing inside ``src/sirmap`` is modified, so calls
a library function makes to another one internally are part of the caller's
span.

Spans are kept in memory in flat arrays and written out once, when the run
ends.  Work counts are computed exactly from each call's arguments and
returned object.
"""
from __future__ import annotations

import array
import gzip
import inspect
import json
import statistics
import time
from collections import defaultdict

#: The layers are sirmap's modules; these are their public functions that
#: the CLI or the workloads call.
LAYERS = {
    "core": ("iterate",),
    "dynamics": ("scan", "lyapunov", "find_cycle_births"),
    "positivity": ("invariance_probe", "applicable_region"),
    "equilibria": ("thresholds", "disease_free", "endemic", "classify_boundary"),
    "normal_forms": ("flip_coefficient", "ns_coefficient", "rho_prime_at_ns"),
    "cli": ("main",),
}

# Steps the lyapunov routine runs to warm up its frame before averaging.
LYAPUNOV_WARMUP = 2000


def _iterate_counts(a, orbit) -> dict:
    steps = orbit.escaped_at if orbit.escaped else a["n_transient"] + a["n_keep"]
    return {"map_steps": steps}


def _scan_counts(a, res) -> dict:
    rows, transient = len(res.values), a["transient"]
    n_lyap = max(a["keep"], 1000)
    map_steps, tangent_steps = rows * transient, rows * n_lyap
    for _, step in res.escapes:
        if step < transient:
            map_steps -= transient - step
            tangent_steps -= n_lyap
        else:
            tangent_steps -= n_lyap - (step - transient)
    return {
        "rows": rows,
        "map_steps": map_steps,
        "tangent_steps": tangent_steps,
        "escaped_rows": len(res.escapes),
    }


def _lyapunov_counts(a, _res) -> dict:
    return {"tangent_steps": LYAPUNOV_WARMUP + a["n"]}


def _births_counts(a, res) -> dict:
    seeds = a["n_r_seeds"] * a["n_x_seeds"]
    # newton_iters updates plus the final residual pass, each over all seeds
    return {
        "seeds": seeds,
        "seed_iters": seeds * (a["newton_iters"] + 1),
        "births_found": len(res.r_values),
    }


def _probe_counts(a, rep) -> dict:
    return {
        "samples": rep.samples,
        "orbit_steps": rep.samples * rep.steps,
        "escapes": rep.escape_count,
    }


COUNTERS = {
    "core.iterate": _iterate_counts,
    "dynamics.scan": _scan_counts,
    "dynamics.lyapunov": _lyapunov_counts,
    "dynamics.find_cycle_births": _births_counts,
    "positivity.invariance_probe": _probe_counts,
}


class Tracer:
    """Patches call sites, records spans, and derives per-layer metrics."""

    def __init__(self, sirmap_modules: dict, call_sites: list):
        self.parent = array.array("q")
        self.request = array.array("q")
        self.fn = array.array("H")
        self.t0 = array.array("d")
        self.t1 = array.array("d")
        self.error = array.array("H")  # 0, or 1 + index into self.errors
        self.errors: list = []
        self.counts: dict = defaultdict(lambda: defaultdict(int))
        self._stack: list = []
        self.current_request = -1
        self.names: list = []
        self._targets = []  # (namespace module, attribute, original, wrapper)
        for layer, fns in LAYERS.items():
            home = sirmap_modules[layer]
            for fn in fns:
                original = getattr(home, fn)
                name = f"{layer}.{fn}"
                wrapper = self._wrap(len(self.names), name, original)
                self.names.append(name)
                for site in call_sites:
                    if getattr(site, fn, None) is original:
                        self._targets.append((site, fn, original, wrapper))

    def _wrap(self, idx: int, name: str, original):
        counter = COUNTERS.get(name)
        sig = inspect.signature(original) if counter else None
        stack = self._stack

        def traced(*args, **kwargs):
            cid = len(self.t0)
            self.parent.append(stack[-1] if stack else -1)
            self.request.append(self.current_request)
            self.fn.append(idx)
            self.t0.append(0.0)
            self.t1.append(0.0)
            self.error.append(0)
            stack.append(cid)
            t0 = time.perf_counter()
            try:
                result = original(*args, **kwargs)
            except BaseException as exc:
                self.error[cid] = self._error_code(type(exc).__name__)
                raise
            finally:
                t1 = time.perf_counter()
                stack.pop()
                self.t0[cid] = t0
                self.t1[cid] = t1
            if counter:
                bound = sig.bind(*args, **kwargs)
                bound.apply_defaults()
                for key, v in counter(bound.arguments, result).items():
                    self.counts[name][key] += v
            return result

        traced.__wrapped__ = original
        return traced

    def _error_code(self, name: str) -> int:
        if name not in self.errors:
            self.errors.append(name)
        return 1 + self.errors.index(name)

    def install(self) -> None:
        for site, attr, _, wrapper in self._targets:
            setattr(site, attr, wrapper)

    def uninstall(self) -> None:
        for site, attr, original, _ in self._targets:
            setattr(site, attr, original)

    # -----------------------------------------------------------------
    # analysis

    def pass_metrics(self, first: int, last: int) -> dict:
        """Busy, self and call totals over spans ``first..last-1`` (one pass)."""
        child = defaultdict(float)
        for cid in range(first, last):
            par = self.parent[cid]
            if par >= 0:
                child[par] += self.t1[cid] - self.t0[cid]
        busy = defaultdict(float)
        own = defaultdict(float)
        calls = defaultdict(int)
        refused = defaultdict(int)
        layer_of = [n.split(".")[0] for n in self.names]
        for cid in range(first, last):
            name = self.names[self.fn[cid]]
            layer = layer_of[self.fn[cid]]
            dur = self.t1[cid] - self.t0[cid]
            busy[name] += dur
            calls[name] += 1
            own[layer] += dur - child[cid]
            par = self.parent[cid]
            if par < 0 or layer_of[self.fn[par]] != layer:
                busy[layer] += dur
                calls[layer] += 1
            if self.error[cid] and self.errors[self.error[cid] - 1] == "ResonanceError":
                refused[layer] += 1
        return {"busy": dict(busy), "self": dict(own), "calls": dict(calls), "refused": dict(refused)}

    def write(self, path) -> None:
        """All spans as gzipped JSON, one column per field.

        A span's call id is its index in the columns; ``parent`` is the
        enclosing span's call id (-1 at top level), ``request`` the index of
        the workload call, ``name`` an index into ``names``, ``error`` 0 or
        1 + an index into ``errors``; times are ``perf_counter`` seconds.
        """
        doc = {
            "names": self.names,
            "errors": self.errors,
            "parent": self.parent.tolist(),
            "request": self.request.tolist(),
            "name": self.fn.tolist(),
            "start": self.t0.tolist(),
            "end": self.t1.tolist(),
            "error": self.error.tolist(),
        }
        with gzip.open(path, "wt", compresslevel=1) as fh:
            json.dump(doc, fh)


def unit_of(name: str) -> str:
    if name.endswith("bytes_out_per_s"):
        return "B/s"
    if name.endswith("_per_s"):
        return "1/s"
    if name.endswith("_s"):
        return "s"
    if name.endswith(("_ratio", "_per_seed")):
        return "ratio"
    if name.endswith("bytes_out"):
        return "B"
    return "count"


def _rate(num: float, den: float) -> float:
    return num / den if den > 0 else 0.0


def layer_metrics(passes: list, counts: dict, cli_io: dict) -> tuple:
    """Per-layer metrics from the traced passes.

    ``passes`` holds one ``Tracer.pass_metrics`` dict per traced pass.  Times
    are medians over those passes; counts are per pass (every pass issues the
    same calls).  Returns (metrics, sample counts, rate bases).
    """
    n = len(passes)

    def med(kind: str, key: str) -> float:
        return statistics.median(p[kind].get(key, 0.0) for p in passes)

    def cnt(name: str, key: str) -> float:
        return counts.get(name, {}).get(key, 0) / n

    spans = _sum_calls(passes)
    calls = {k: v / n for k, v in spans.items()}
    m = {}
    samples = {}

    def put(name, value, nsamples):
        m[name] = value
        samples[name] = nsamples

    it = "core.iterate"
    put(f"{it}.busy_s", med("busy", it), n)
    put(f"{it}.map_steps", cnt(it, "map_steps"), spans.get(it, 0))
    put(f"{it}.map_steps_per_s", _rate(m[f"{it}.map_steps"], m[f"{it}.busy_s"]), n)

    sc = "dynamics.scan"
    put(f"{sc}.busy_s", med("busy", sc), n)
    for key in ("rows", "map_steps", "tangent_steps", "escaped_rows"):
        put(f"{sc}.{key}", cnt(sc, key), spans.get(sc, 0))
    put(f"{sc}.row_steps_per_s",
        _rate(m[f"{sc}.map_steps"] + m[f"{sc}.tangent_steps"], m[f"{sc}.busy_s"]), n)

    ly = "dynamics.lyapunov"
    put(f"{ly}.busy_s", med("busy", ly), n)
    put(f"{ly}.tangent_steps", cnt(ly, "tangent_steps"), spans.get(ly, 0))
    put(f"{ly}.tangent_steps_per_s", _rate(m[f"{ly}.tangent_steps"], m[f"{ly}.busy_s"]), n)

    cb = "dynamics.find_cycle_births"
    put(f"{cb}.busy_s", med("busy", cb), n)
    put(f"{cb}.seed_iters", cnt(cb, "seed_iters"), spans.get(cb, 0))
    put(f"{cb}.seed_iters_per_s", _rate(m[f"{cb}.seed_iters"], m[f"{cb}.busy_s"]), n)
    put(f"{cb}.births_found", cnt(cb, "births_found"), spans.get(cb, 0))
    put(f"{cb}.births_per_seed", _rate(m[f"{cb}.births_found"], cnt(cb, "seeds")), spans.get(cb, 0))

    ip = "positivity.invariance_probe"
    put(f"{ip}.busy_s", med("busy", ip), n)
    put(f"{ip}.orbit_steps", cnt(ip, "orbit_steps"), spans.get(ip, 0))
    put(f"{ip}.orbit_steps_per_s", _rate(m[f"{ip}.orbit_steps"], m[f"{ip}.busy_s"]), n)
    put(f"{ip}.escapes", cnt(ip, "escapes"), spans.get(ip, 0))
    put(f"{ip}.escape_ratio", _rate(m[f"{ip}.escapes"], cnt(ip, "samples")), spans.get(ip, 0))
    put("positivity.applicable_region.busy_s", med("busy", "positivity.applicable_region"), n)

    for layer in ("equilibria", "normal_forms"):
        put(f"{layer}.calls", calls.get(layer, 0), n)
        put(f"{layer}.busy_s", med("busy", layer), n)
        put(f"{layer}.calls_per_s", _rate(m[f"{layer}.calls"], m[f"{layer}.busy_s"]), n)
    put("normal_forms.refusals", statistics.median(p["refused"].get("normal_forms", 0) for p in passes), n)

    put("cli.calls", calls.get("cli", 0), n)
    put("cli.busy_s", med("busy", "cli"), n)
    put("cli.self_s", med("self", "cli"), n)
    put("cli.bytes_out", cli_io["bytes_out"] / n, spans.get("cli", 0))
    put("cli.nonzero_exits", cli_io["nonzero_exits"] / n, spans.get("cli", 0))
    put("cli.bytes_out_per_s", _rate(m["cli.bytes_out"], m["cli.self_s"]), n)

    for layer in LAYERS:
        if layer != "cli":
            put(f"{layer}.self_s", med("self", layer), n)
    return m, samples, RATE_BASES


def _sum_calls(passes: list) -> dict:
    total = defaultdict(int)
    for p in passes:
        for k, v in p["calls"].items():
            total[k] += v
    return total


RATE_BASES = {
    "core.iterate.map_steps_per_s": "map steps (transient + kept, or up to the escape) per second of core.iterate busy time",
    "dynamics.scan.row_steps_per_s": "scan map steps plus tangent steps per second of dynamics.scan busy time",
    "dynamics.lyapunov.tangent_steps_per_s": "tangent steps (2000 frame warm-up + n) per second of dynamics.lyapunov busy time",
    "dynamics.find_cycle_births.seed_iters_per_s": "Newton seeds x (newton_iters + 1) residual passes per second of find_cycle_births busy time",
    "dynamics.find_cycle_births.births_per_seed": "births returned per Newton seed started (useful / attempted)",
    "positivity.invariance_probe.orbit_steps_per_s": "samples x steps per second of invariance_probe busy time",
    "positivity.invariance_probe.escape_ratio": "escapes per probe sample",
    "equilibria.calls_per_s": "equilibria calls per second of equilibria busy time",
    "normal_forms.calls_per_s": "normal_forms calls per second of normal_forms busy time",
    "cli.bytes_out_per_s": "stdout bytes per second of cli self time (cli.main minus child layer spans)",
}
