"""Command-line front end.

Subcommands: simulate, analyze, scan, cycles, regions, lyapunov.
Tabular results go out as CSV (single header row, floats with 17
significant digits, deterministic bytes for a fixed configuration and
seed); structured reports as JSON.  No CSV cell needs quoting, so rows
are plain comma joins (``_csv``), the bytes ``csv.writer`` would write;
``_fmt`` is the one float-to-text site, and a scan row calls it once per
distinct sample value (a row on an exact cycle holds a handful).

Each option is declared once, in ``_OPTIONS``; each subcommand's row in
``_SUBCOMMANDS`` lists every option it reads, its only flags but --preset
and --config.  Every option, ``out`` included, takes its value by one
precedence: built-in defaults < --preset < --config file (flat key=value
lines, any option key; keys outside the row are ignored) < explicit flags.
A scan preset's sweep (``_SWEEP_KEYS``) reaches scan only.

JSON output is strict: a report holding a non-finite number is refused
as a configuration error.  Inputs that would make a subcommand store more
than ``MAX_STORED_FLOATS`` numbers are refused before any allocation.

Exit codes: 0 success, 2 configuration error (including a non-finite
initial state or scan range, and arithmetic overflow or a zero divisor on
out-of-range input), 3 divergence.
"""
from __future__ import annotations

import argparse
import functools
import json
import math
import re
import sys
from collections import namedtuple
from dataclasses import replace

from .core import DivergenceError, ModelParams, iterate
from .dynamics import find_cycle_births, lyapunov, reproduction_candidates, scan
from .equilibria import _NS_CURVE_TAGS, BoundaryTag, disease_free, endemic, thresholds
from .normal_forms import ResonanceError, flip_coefficient, ns_coefficient, rho_prime_at_ns
from .positivity import _check_probe_input, applicable_region, invariance_probe

_SQRT2 = math.sqrt(2.0)
#: Most floats one subcommand may hold in its sample arrays (80 MB); the
#: peak memory of scan, regions and simulate runs 4-10x their stored floats.
MAX_STORED_FLOATS = 10**7

PRESETS: dict[str, dict] = {
    # single-orbit parameter sets
    "disease-free-sink": {"r": 1.15, "beta": 3.0, "a": 1.0, "K": 0.5, "s0": 0.6, "i0": 0.2},
    "endemic-focus": {"r": 1.8, "beta": 3.0, "a": 1.0, "K": 0.5, "s0": 0.6, "i0": 0.2},
    "invariant-curve": {"r": 2.2, "beta": 3.0, "a": 1.0, "K": 0.5, "s0": 0.6, "i0": 0.2},
    "invariant-curve-wide": {"r": 2.5, "beta": 3.0, "a": 1.0, "K": 0.5, "s0": 0.6, "i0": 0.2},
    "locked-ten": {"r": 3.3, "beta": 3.0, "a": 1.0, "K": 0.5, "s0": 0.6, "i0": 0.2},
    "ten-on-curve": {"r": 3.6, "beta": 2.85, "a": 1.0, "K": 0.5, "s0": 0.6, "i0": 0.2},
    "endemic-return": {"r": 3.6, "beta": 2.33, "a": 1.0, "K": 0.5, "s0": 0.6, "i0": 0.2},
    "three-cycle": {
        "r": 1.0 + 2.0 * _SQRT2, "beta": 1.1, "a": 1.0, "K": 0.5, "s0": 0.8, "i0": 0.2,
    },
    "axis-chaos": {"r": 4.0, "beta": 0.5, "a": 1.0, "K": 0.5, "s0": 0.3, "i0": 0.0},
    # one-parameter sweeps
    "flip-cascade-scan": {
        "param": "r", "lo": 2.8, "hi": 4.0, "steps": 241,
        "beta": 1.1, "a": 1.0, "K": 0.5, "s0": 0.5, "i0": 0.1,
    },
    "ns-branch-scan": {
        "param": "r", "lo": 1.05, "hi": 4.18, "steps": 314,
        "beta": 3.0, "a": 1.0, "K": 0.5, "s0": 0.6, "i0": 0.2,
    },
    "force-sweep-scan": {
        "param": "beta", "lo": 1.05, "hi": 3.4, "steps": 236,
        "r": 3.6, "a": 1.0, "K": 0.5, "s0": 0.5, "i0": 0.1,
    },
    "inhibition-sweep-scan": {
        "param": "a", "lo": 0.0, "hi": 12.0, "steps": 241,
        "r": 2.7, "beta": 3.0, "K": 0.3, "s0": 0.5, "i0": 0.1,
    },
    # positivity-region parameter sets
    "triangle-region": {"r": 2.0, "beta": 1.5, "a": 1.0, "K": 0.25},
    "capped-region": {"r": 2.9, "beta": 0.8, "a": 0.5, "K": 0.25},
    "curved-region": {"r": 3.98, "beta": 2.8, "a": 1.0, "K": 0.5},
}
#: A scan preset's sweep: the range and its row count.  Elsewhere lo and hi
#: are a birth window and steps an orbit length, so these keys reach scan only.
_SWEEP_KEYS = ("param", "lo", "hi", "steps")


#: Every option as (type, default, help, choices), under the key that is both
#: its flag ``--<key>`` and its config line ``<key> = <value>``.  A default
#: of None means unset: the subcommand that needs the value says so.
_Option = namedtuple("_Option", "type default help choices", defaults=(None,))
_OPTIONS: dict[str, _Option] = {
    "r": _Option(float, 2.0, "growth factor"),
    "beta": _Option(float, 3.0, "transmission strength"),
    "a": _Option(float, 1.0, "saturation coefficient"),
    "K": _Option(float, 0.5, "removed fraction per step"),
    "s0": _Option(float, 0.5, "initial susceptible mass"),
    "i0": _Option(float, 0.1, "initial infected mass"),
    "transient": _Option(int, 10_000, "discarded warm-up steps"),
    "steps": _Option(int, 1000, "step / row count"),
    "seed": _Option(int, 0, "RNG seed"),
    "out": _Option(str, None, "output file (default stdout)"),
    "param": _Option(str, None, "swept parameter", ("r", "beta", "a", "K")),
    "lo": _Option(float, None, "range start"),
    "hi": _Option(float, None, "range end"),
    "keep": _Option(int, 100, "attractor samples per row"),
    "n": _Option(int, 3, "cycle length (3..12)"),
    "samples": _Option(int, 1000, "number of probe starts"),
}


def _parse_config(path: str) -> dict:
    opts: dict = {}
    with open(path, "r", encoding="utf-8") as fh:
        for lineno, raw in enumerate(fh, 1):
            line = raw.strip()
            if not line or line.startswith("#"):
                continue
            if "=" not in line:
                raise ValueError(f"{path}:{lineno}: expected key=value, got {line!r}")
            key, _, value = line.partition("=")
            key = key.strip()
            value = value.strip()
            opt = _OPTIONS.get(key)
            if opt is None:
                raise ValueError(f"{path}:{lineno}: unknown option {key!r}")
            expects = f"{path}:{lineno}: {key} expects"
            try:
                opts[key] = opt.type(value)
            except ValueError:
                raise ValueError(f"{expects} {opt.type.__name__}, got {value!r}") from None
            if opt.choices is not None and opts[key] not in opt.choices:
                raise ValueError(f"{expects} one of {', '.join(opt.choices)}, got {value!r}")
    return opts


def _resolve(args: argparse.Namespace) -> dict:
    command = _SUBCOMMANDS[args.command]
    merged = {key: _OPTIONS[key].default for key in command.keys} | command.defaults
    if args.preset is not None:
        if args.preset not in PRESETS:
            known = ", ".join(sorted(PRESETS))
            raise ValueError(f"unknown preset {args.preset!r}; available: {known}")
        preset = PRESETS[args.preset]
        if "param" in preset and args.command != "scan":
            preset = {k: v for k, v in preset.items() if k not in _SWEEP_KEYS}
        merged.update(preset)
    if args.config is not None:
        merged.update(_parse_config(args.config))
    # presets and config files are shared bundles: keys outside the row drop out
    flags = vars(args)
    opts = {key: merged[key] if flags[key] is None else flags[key] for key in command.keys}
    for key in ("s0", "i0"):
        if key in opts and not math.isfinite(opts[key]):
            raise ValueError(f"require a finite initial state, got {key}={opts[key]}")
    return opts


def _params(opts: dict) -> ModelParams:
    return ModelParams(r=opts["r"], beta=opts["beta"], a=opts["a"], K=opts["K"])


def _fmt(x: float) -> str:
    return f"{x:.17g}"


def _csv(header: list[str], rows) -> str:
    """CSV text of ``header`` and then each list of cell texts in ``rows``.

    Cells are joined with ``,`` and each line ends in ``\n``.  No cell holds
    a comma, a quote or a newline, and every line has several cells, so
    these are the bytes ``csv.writer(lineterminator="\n")`` would write.
    """
    lines = [",".join(header)]
    lines += map(",".join, rows)
    lines.append("")
    return "\n".join(lines)


def _emit(text: str, out: str | None) -> None:
    if out is None:
        sys.stdout.write(text)
        if not text.endswith("\n"):
            sys.stdout.write("\n")
    else:
        with open(out, "w", encoding="utf-8", newline="") as fh:
            fh.write(text)


def _emit_json(doc: dict, out: str | None) -> None:
    try:
        text = json.dumps(doc, indent=2, allow_nan=False)
    except ValueError as exc:
        raise ValueError(f"the report holds a non-finite number ({exc})") from None
    _emit(text, out)


def _check_size(what: str, floats: int) -> None:
    if floats > MAX_STORED_FLOATS:
        raise ValueError(
            f"{what} would store {floats} floats, more than the limit of {MAX_STORED_FLOATS}"
        )


def _eig_json(mu: complex) -> list[float]:
    return [float(mu.real), float(mu.imag)]


def _normal_form_json(at: str, nf, **extra) -> dict:
    return {
        "at": at,
        "kind": nf.kind,
        "coefficient": nf.coefficient,
        "branch_stable": nf.branch_stable,
        **extra,
    }


def _region_json(region) -> dict | None:
    if region is None:
        return None
    return {
        "case": region.case,
        "u_star": region.u_star,
        "v": region.v,
        "crossings": list(region.crossings),
    }


def _report_json(rep) -> dict:
    return {
        "location": [float(rep.location.S), float(rep.location.I)],
        "eigenvalues": [_eig_json(rep.eigen.mu1), _eig_json(rep.eigen.mu2)],
        "stability": rep.stability.value,
        "residual": float(rep.residual),
        "boundary": rep.boundary.value if rep.boundary else None,
    }


def cmd_simulate(opts: dict) -> int:
    _check_size("simulate --steps", 2 * opts["steps"])
    p = _params(opts)
    orbit = iterate(p, (opts["s0"], opts["i0"]), opts["transient"], opts["steps"])
    start = opts["transient"]
    rows = ([str(start + k), _fmt(S), _fmt(I)] for k, (S, I) in enumerate(orbit.states.tolist()))
    _emit(_csv(["n", "S", "I"], rows), opts["out"])
    if orbit.escaped:
        print(f"orbit escaped at step {orbit.escaped_at}", file=sys.stderr)
        return 3
    return 0


def cmd_analyze(opts: dict) -> int:
    """JSON report of fixed points, thresholds, tags, normal form and region.

    Tags come from the fixed-point reports alone; an endemic flip or NS normal
    form is taken at the curve point (r, beta_k(r)) its tag matched.
    """
    p = _params(opts)
    df = disease_free(p)
    tag0 = df.boundary
    doc: dict = {
        "params": {"r": p.r, "beta": p.beta, "a": p.a, "K": p.K},
        "disease_free": _report_json(df),
        "thresholds": None,
        "endemic": None,
        "reproduction_candidates": None,
        "normal_form": None,
    }

    tag1 = None
    if p.r > 1.0:
        th = thresholds(p.r, p.a, p.K)
        doc["thresholds"] = {
            "beta0": th.beta0,
            "beta1": th.beta1,
            "beta2": th.beta2,
            "r_bar": th.r_bar,
            "r_tilde": th.r_tilde,
            "r_max": th.r_max,
        }
        en = endemic(p)
        if en is not None:
            tag1 = en.boundary
            doc["endemic"] = _report_json(en)
        doc["reproduction_candidates"] = list(reproduction_candidates(p))

    try:
        if tag0 == BoundaryTag.FLIP:
            doc["normal_form"] = _normal_form_json("disease_free", flip_coefficient(p, df))
        elif tag1 == BoundaryTag.FLIP:
            q = replace(p, beta=th.beta1)
            doc["normal_form"] = _normal_form_json("endemic", flip_coefficient(q, endemic(q)))
        elif tag1 in _NS_CURVE_TAGS:
            # ns_coefficient refuses points on or near a strong resonance
            q = replace(p, beta=th.beta2)
            nf = ns_coefficient(q)
            doc["normal_form"] = _normal_form_json(
                "endemic",
                nf,
                theta0=nf.theta0,
                eigenvalue=_eig_json(nf.eigenvalue),
                modulus_slope=rho_prime_at_ns(q),
            )
    except ResonanceError as exc:
        doc["normal_form"] = {
            "at": "endemic", "kind": "resonance", "tag": exc.tag.value, "note": str(exc)
        }

    doc["region"] = _region_json(applicable_region(p))

    _emit_json(doc, opts["out"])
    return 0


def cmd_scan(opts: dict) -> int:
    if opts["param"] is None or opts["lo"] is None or opts["hi"] is None:
        raise ValueError("scan needs --param, --lo and --hi (or a preset providing them)")
    _check_size("scan --steps x --keep", 2 * opts["steps"] * opts["keep"])
    p = _params(opts)
    result = scan(
        p,
        opts["param"],
        (opts["lo"], opts["hi"]),
        opts["steps"],
        x0=(opts["s0"], opts["i0"]),
        transient=opts["transient"],
        keep=opts["keep"],
    )
    keep = result.s_samples.shape[1]
    header = [result.parameter, "lyap_max", "escaped_at"]
    header += [f"S_{j + 1}" for j in range(keep)] + [f"I_{j + 1}" for j in range(keep)]
    _emit(_csv(header, _scan_rows(result)), opts["out"])
    return 0


def _scan_rows(result):
    """Each scan row's cell texts, formatting each distinct sample once.

    A row that settled on an exact cycle holds only a few distinct values.
    Zeros are always formatted, since ``0.0 == -0.0`` would hand ``-0`` the
    text ``0``; a NaN equals no key, so an escaped row formats every cell.
    """
    escaped_at = dict(result.escapes)
    # one row's samples as floats at a time: the whole tables would add
    # about 1.5 MB per preset scan to the peak memory
    columns = (
        result.values.tolist(), result.lyap_max.tolist(), result.s_samples, result.i_samples
    )
    for row, (val, lyap, s_row, i_row) in enumerate(zip(*columns)):
        cells = [_fmt(val), _fmt(lyap), str(escaped_at[row]) if row in escaped_at else ""]
        seen: dict[float, str] = {}
        for x in s_row.tolist() + i_row.tolist():
            text = seen.get(x) if x else None
            if text is None:
                text = seen[x] = _fmt(x)
            cells.append(text)
        yield cells


def cmd_cycles(opts: dict) -> int:
    births = find_cycle_births(opts["n"], (opts["lo"], opts["hi"]))
    doc = {"n": births.n, "r_values": [float(r) for r in births.r_values]}
    _emit_json(doc, opts["out"])
    return 0


def cmd_regions(opts: dict) -> int:
    _check_size("regions --samples", 2 * opts["samples"])
    _check_probe_input(opts["samples"], opts["steps"], opts["seed"])
    p = _params(opts)
    region = applicable_region(p)
    if region is None:
        doc = {"region": None, "note": "no invariance region applies at these parameters"}
        _emit_json(doc, opts["out"])
        return 0
    report = invariance_probe(
        p, samples=opts["samples"], steps=opts["steps"], seed=opts["seed"], region=region
    )
    doc = {
        "region": _region_json(region),
        "samples": report.samples,
        "steps": report.steps,
        "seed": report.seed,
        "escape_count": report.escape_count,
        "escapes": [e._asdict() for e in report.escapes],
    }
    _emit_json(doc, opts["out"])
    return 0


def cmd_lyapunov(opts: dict) -> int:
    p = _params(opts)
    l1, l2 = lyapunov(p, (opts["s0"], opts["i0"]), n=opts["steps"], transient=opts["transient"])
    doc = {
        "lambda_max": l1,
        "lambda_min": l2,
        "n": opts["steps"],
        "transient": opts["transient"],
    }
    _emit_json(doc, opts["out"])
    return 0


#: Every subcommand as (handler, help, keys, defaults): ``keys`` are every
#: option it reads, ``defaults`` (read only) its overrides of their defaults.
_Subcommand = namedtuple("_Subcommand", "handler help keys defaults", defaults=({},))
_MODEL = ("r", "beta", "a", "K")
_ORBIT = (*_MODEL, "s0", "i0", "transient", "steps")
_SUBCOMMANDS: dict[str, _Subcommand] = {
    "simulate": _Subcommand(cmd_simulate, "iterate one orbit to CSV", (*_ORBIT, "out")),
    "analyze": _Subcommand(cmd_analyze, "fixed points, thresholds, normal forms", (*_MODEL, "out")),
    "scan": _Subcommand(
        cmd_scan, "one-parameter attractor sweep to CSV",
        (*_ORBIT, "param", "lo", "hi", "keep", "out"),
    ),
    "cycles": _Subcommand(
        cmd_cycles, "axis period-n birth parameters", ("n", "lo", "hi", "out"),
        {"lo": 3.0, "hi": 4.0},
    ),
    "regions": _Subcommand(
        cmd_regions, "positivity region + invariance probe",
        (*_MODEL, "steps", "seed", "samples", "out"),
    ),
    "lyapunov": _Subcommand(
        cmd_lyapunov, "Lyapunov exponents of one orbit", (*_ORBIT, "out"), {"steps": 100_000}
    ),
}


class _Parser(argparse.ArgumentParser):
    """Reads ``-1e-3`` as a value, as argparse already reads ``-0.001``.

    ``-inf`` and ``-nan`` still read as flags.
    """

    def __init__(self, *args, **kwargs):
        super().__init__(*args, **kwargs)
        self._negative_number_matcher = re.compile(r"^-(\d+\.?\d*|\.\d+)([eE][-+]?\d+)?$")


def _add_option(parser: argparse.ArgumentParser, key: str) -> None:
    opt = _OPTIONS[key]
    parser.add_argument(f"--{key}", type=opt.type, choices=opt.choices, help=opt.help)


@functools.cache
def build_parser() -> argparse.ArgumentParser:
    """The ``sirmap`` parser, built on the first call and shared after it.

    Each subcommand gets one flag per key of its ``_SUBCOMMANDS`` row, then
    --preset and --config.  Building the parser costs more than a ``cycles``
    solve, so ``main`` reuses one parser per process.  Reuse is safe:
    ``parse_args`` does not change the parser, ``prog`` is fixed, and
    argparse looks up ``sys.stdout`` and ``sys.stderr`` (and the terminal
    width) only when it prints.
    """
    parser = _Parser(
        prog="sirmap",
        description="Numerical laboratory for a planar SIR map with saturated incidence",
    )
    sub = parser.add_subparsers(dest="command", required=True)
    for name, command in _SUBCOMMANDS.items():
        ps = sub.add_parser(name, help=command.help)
        for key in command.keys:
            _add_option(ps, key)
        ps.add_argument("--preset", help="named parameter bundle")
        ps.add_argument("--config", help="flat key=value option file")
    return parser


def main(argv=None) -> int:
    """Run one subcommand; return its exit code.

    Usage errors and ``--help`` raise ``SystemExit`` from argparse.  The
    parser is built at the first call, not at import, and reused by every
    later call in the process (see :func:`build_parser`).
    """
    args = build_parser().parse_args(argv)
    try:
        opts = _resolve(args)
        return _SUBCOMMANDS[args.command].handler(opts)
    except (ValueError, OSError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    except OverflowError:
        print("error: arithmetic overflow; an input is out of range", file=sys.stderr)
        return 2
    except ZeroDivisionError:
        # not ArithmeticError: a Newton failure in dynamics raises that
        print("error: arithmetic out of range (division by zero); an input is out of range",
              file=sys.stderr)
        return 2
    except DivergenceError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 3


if __name__ == "__main__":
    sys.exit(main())
