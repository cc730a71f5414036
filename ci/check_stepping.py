"""Check which vector loop each protocol's batches ran, from a telemetry file.

Usage: ``python ci/check_stepping.py TELEMETRY.jsonl``

Each vector batch's ``simulate`` span names its loop in the ``stepping``
attribute.  The send-only kernels (binary exponential, polynomial, fixed
probability) step by row; LOW-SENSING, full-sensing MW and Sawtooth step
in lockstep.  Collected outputs (trace, potential, dynamics) must not
change this, so a batch that silently falls back to lockstep fails here.
Exits 1 when the per-protocol map differs from the expected one.
"""

from __future__ import annotations

import json
import sys

EXPECTED = {
    "binary-exponential": {"rows"},
    "polynomial": {"rows"},
    "fixed-probability": {"rows"},
    "low-sensing": {"lockstep"},
    "full-sensing-mw": {"lockstep"},
    "sawtooth": {"lockstep"},
}


def stepping_by_protocol(path: str) -> dict[str, set[str]]:
    """The set of loops each protocol's vector ``simulate`` spans report."""
    stepping: dict[str, set[str]] = {}
    with open(path, encoding="utf-8") as handle:
        for line in handle:
            record = json.loads(line)
            if record.get("ev") == "span" and record.get("name") == "simulate":
                attrs = record["attrs"]
                if attrs.get("backend") == "vector":
                    stepping.setdefault(attrs["protocol"], set()).add(attrs["stepping"])
    return stepping


def main(argv: list[str]) -> int:
    if len(argv) != 1:
        print(__doc__, file=sys.stderr)
        return 2
    stepping = stepping_by_protocol(argv[0])
    if stepping != EXPECTED:
        print(f"simulate spans stepped {stepping}, not {EXPECTED}", file=sys.stderr)
        return 1
    print(f"stepping per protocol: {stepping}")
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
