"""Output digests, and the recorded reference they are checked against.

A digest summarises the outputs of all calls with one label in one pass:
the SHA-256 of their bytes plus their values.  At ``DEFAULT_SEED`` a pass
must reproduce the reference digests in ``reference/``: the same bytes, or,
for outputs with a tolerance below, the same values within it.  CSV output
has no tolerance, so it must be byte-identical.
"""
from __future__ import annotations

import hashlib
import json
import math
from pathlib import Path

DEFAULT_SEED = 0
REFERENCE_DIR = Path(__file__).resolve().parent / "reference"

#: Tolerance per call kind, applied as |got - ref| <= tol * max(1, |ref|).
#: Integers, strings, booleans and nulls must match exactly.
TOLERANCE = {"lyapunov": 1e-12, "cycles": 1e-10, "regions": 1e-12, "boundaries": 1e-9}


class Digest:
    """Digest of the calls sharing one label in one pass.

    A label with one call keeps that call's values.  A label shared by many
    calls (the boundary cases) keeps the per-key fsum of their ``summable``
    numbers, so the reference stays small.
    """

    def __init__(self, kind: str):
        self.kind = kind
        self.sha = hashlib.sha256()
        self.nbytes = 0
        self.calls = 0
        self.values = None
        self.sums: dict = {}

    def add(self, data: bytes, values=None, summable: dict | None = None) -> None:
        self.sha.update(data)
        self.nbytes += len(data)
        self.calls += 1
        if summable is None:
            self.values = values
        else:
            for key, v in summable.items():
                self.sums.setdefault(key, []).append(v)

    def result(self) -> dict:
        values = self.values
        if self.sums:
            values = {k: math.fsum(v) for k, v in sorted(self.sums.items())}
        return {
            "kind": self.kind,
            "sha256": self.sha.hexdigest(),
            "bytes": self.nbytes,
            "calls": self.calls,
            "values": values,
        }


def values_match(ref, got, tol: float) -> bool:
    """Floats within ``tol * max(1, |ref|)``; everything else exactly equal."""
    if isinstance(ref, bool) or isinstance(got, bool):
        return ref is got
    if isinstance(ref, float) or isinstance(got, float):
        if not isinstance(ref, (int, float)) or not isinstance(got, (int, float)):
            return False
        return abs(got - ref) <= tol * max(1.0, abs(ref))
    if isinstance(ref, dict) and isinstance(got, dict):
        return ref.keys() == got.keys() and all(values_match(ref[k], got[k], tol) for k in ref)
    if isinstance(ref, list) and isinstance(got, list):
        return len(ref) == len(got) and all(values_match(a, b, tol) for a, b in zip(ref, got))
    return type(ref) is type(got) and ref == got


def digest_matches(ref: dict, got: dict) -> str | None:
    """How ``got`` matches ``ref``: "identical", "within tolerance", or None."""
    if ref["sha256"] == got["sha256"]:
        return "identical"
    tol = TOLERANCE.get(got["kind"])
    if tol is None or ref["kind"] != got["kind"] or ref["calls"] != got["calls"]:
        return None
    if ref["values"] is None or not values_match(ref["values"], got["values"], tol):
        return None
    return "within tolerance"


def load_reference(workload: str, seed: int) -> dict | None:
    """The recorded reference digests that apply at ``seed``, if any.

    ``births`` has no seeded input, so its reference applies at every seed.
    """
    if seed != DEFAULT_SEED and workload != "births":
        return None
    return json.loads((REFERENCE_DIR / f"{workload}.json").read_text())


def reference_failures(ref: dict, digests: dict) -> list:
    """Labels whose digest does not match the reference ``ref``."""
    return [label for label, d in digests.items() if label not in ref or not digest_matches(ref[label], d)]
