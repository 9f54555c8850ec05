"""Run one benchmark workload and print its metrics.

Usage, from the repository root::

    python3 perfbench/run.py --workload fold_ota3_smoke --seed 1 \\
        --seconds 50 --trace 0

Prints each metric by name with its unit, a provenance line, and as the
last line one JSON object ``{"correct", "attempted", "failed",
"metrics"}``: the end-to-end metrics with ``--trace 0``, the per-layer
metrics with ``--trace 1``.  Run files (provenance, spans, per-layer
report) go to ``perfbench/out/``.  Exits 2 without a result when the
program's sources are missing or an argument is invalid.
"""

from __future__ import annotations

import os

# One process, no extra threads: pinned before numpy is first imported.
for _var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
    os.environ[_var] = "1"

import argparse
import ctypes
import json
import sys
from pathlib import Path

#: glibc mallopt parameters and the value each is pinned to.
_M_TRIM_THRESHOLD, _M_MMAP_THRESHOLD = -1, -3
ALLOCATOR_PIN = {"M_TRIM_THRESHOLD": 1 << 30, "M_MMAP_THRESHOLD": 1 << 30}


def pin_allocator() -> dict:
    """Keep freed memory in the heap instead of returning it to the OS.

    By default glibc serves large arrays from fresh ``mmap`` pages and
    returns them on free, so every forward pays page faults, and how
    many depends on what ran earlier in the process: scoring on OTA3 ran
    about 1.5 times slower before the first ``AnalogFold.run`` than
    after it.  With both thresholds pinned, scoring and the fold run in
    the same allocator state whatever their order.  Returns the pinned
    values, or why none were pinned.
    """
    try:
        mallopt = ctypes.CDLL(None).mallopt
    except (OSError, AttributeError) as exc:
        return {"pinned": False, "reason": f"no mallopt: {exc}"}
    params = {"M_TRIM_THRESHOLD": _M_TRIM_THRESHOLD,
              "M_MMAP_THRESHOLD": _M_MMAP_THRESHOLD}
    refused = [name for name, value in ALLOCATOR_PIN.items()
               if mallopt(params[name], value) != 1]
    if refused:
        return {"pinned": False, "reason": f"mallopt refused {refused}"}
    return {"pinned": True, **ALLOCATOR_PIN}


ALLOCATOR = pin_allocator()

ROOT = Path(__file__).resolve().parent.parent
OUT_DIR = ROOT / "perfbench" / "out"


def parse_args(argv=None) -> argparse.Namespace:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=int, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    return parser.parse_args(argv)


def result_line(result) -> dict:
    """The final JSON object of a run."""
    from perfbench.spec import UNITS

    return {
        "correct": result.correct,
        "attempted": result.attempted,
        "failed": result.failed,
        "metrics": {name: {"value": value, "unit": UNITS[name]}
                    for name, value in result.metrics.items()},
    }


def main(argv=None) -> int:
    args = parse_args(argv)
    if not (ROOT / "src" / "repro" / "__init__.py").is_file():
        print(f"error: no program sources at {ROOT / 'src' / 'repro'}",
              file=sys.stderr)
        return 2
    sys.path[:0] = [str(ROOT / "src"), str(ROOT)]
    from perfbench import session
    from perfbench.spec import UNITS

    if args.workload not in session.WORKLOADS:
        print(f"error: unknown workload {args.workload!r} (known: "
              f"{sorted(session.WORKLOADS)})", file=sys.stderr)
        return 2
    if args.seconds < 1:
        print("error: --seconds must be at least 1", file=sys.stderr)
        return 2

    # numpy seeds must be non-negative; any integer names a workload input.
    seed = args.seed % 2**63
    result = session.run(args.workload, seed, args.seconds,
                         bool(args.trace), OUT_DIR)
    result.provenance["allocator"] = ALLOCATOR
    stem = f"{args.workload}-seed{seed}-trace{args.trace}"
    (OUT_DIR / f"{stem}.json").write_text(json.dumps({
        "provenance": result.provenance, "metrics": result.metrics,
        "correct": result.correct, "errors": result.errors,
    }, indent=2) + "\n", encoding="utf-8")

    if result.report:
        print(result.report)
    for name, value in result.metrics.items():
        print(f"{name:<32} {value:>16.6g} {UNITS[name]}")
    for error in result.errors:
        print(f"check failed: {error}", file=sys.stderr)
    print("provenance: " + json.dumps(result.provenance))
    print(json.dumps(result_line(result)))
    return 0


if __name__ == "__main__":
    sys.exit(main())
