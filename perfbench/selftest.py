"""Self-test of the benchmark: every workload at a tiny size.

Run from the repository root::

    python3 perfbench/selftest.py

Checks that

1. the metrics declared in ``perfbench/spec.py`` match ``BENCHMARK.json``
   (name, unit, direction), and each run emits every declared metric as
   a finite number with its unit: the end-to-end ones untraced, the
   per-layer ones traced;
2. the traced run exercises every layer, its layer self times plus
   "unattributed" sum to its traced wall time, and every wrapper is
   restored afterwards (each call site holds its original object);
3. the untraced run contains no wrapper: it refuses to start while one
   is installed.

Exits 0 when every check passes, 1 otherwise.
"""

from __future__ import annotations

import json
import math
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
sys.path[:0] = [str(ROOT / "src"), str(ROOT)]

from perfbench import run as runner  # noqa: E402  (pins BLAS threads)
from perfbench import session, spec, tracing  # noqa: E402

OUT_DIR = runner.OUT_DIR / "selftest"


def _declared(section: str) -> list[tuple[str, str, str]]:
    bench = json.loads((ROOT / "BENCHMARK.json").read_text(encoding="utf-8"))
    return [(m["name"], m["unit"], m["better"]) for m in bench[section]]


def _check_emitted(result, declared, failures: list[str], label: str):
    line = runner.result_line(result)
    names = [name for name, _, _ in declared]
    if sorted(line["metrics"]) != sorted(names):
        failures.append(f"{label}: emitted {sorted(line['metrics'])}, "
                        f"declared {sorted(names)}")
    for name, unit, _ in declared:
        entry = line["metrics"].get(name)
        if entry is None:
            continue
        if entry["unit"] != unit:
            failures.append(f"{label}: {name} unit {entry['unit']} != {unit}")
        if not math.isfinite(entry["value"]):
            failures.append(f"{label}: {name} = {entry['value']}")
    if not result.correct:
        failures.append(f"{label}: checks failed: {result.errors}")
    if line["attempted"] < 1:
        failures.append(f"{label}: attempted {line['attempted']}")


def main() -> int:
    failures: list[str] = []
    for section, ours in (("end_to_end", spec.END_TO_END),
                          ("per_layer", spec.PER_LAYER)):
        if _declared(section) != list(ours):
            failures.append(f"BENCHMARK.json {section} differs from "
                            "perfbench/spec.py")
    bench = json.loads((ROOT / "BENCHMARK.json").read_text(encoding="utf-8"))
    if [w["name"] for w in bench["workloads"]] != list(session.WORKLOADS):
        failures.append("BENCHMARK.json workloads differ from "
                        "perfbench/session.py")

    originals = {(id(owner), attr): vars(owner)[attr]
                 for owner, attr, _ in tracing.call_sites()}
    for name in session.WORKLOADS:
        untraced = session.run(name, 0, 2, False, OUT_DIR, tiny=True)
        _check_emitted(untraced, spec.END_TO_END, failures,
                       f"{name} untraced")

        traced = session.run(name, 0, 2, True, OUT_DIR, tiny=True)
        _check_emitted(traced, spec.PER_LAYER, failures, f"{name} traced")
        layers = {layer: traced.metrics[f"layer.{layer}.self_s"]
                  for layer in spec.LAYERS}
        idle = [layer for layer, seconds in layers.items()
                if layer != "unattributed" and not seconds > 0]
        if idle:
            failures.append(f"{name}: no traced time in layers {idle}")
        wall = traced.metrics["trace.wall_s"]
        if not math.isclose(sum(layers.values()), wall, rel_tol=1e-9):
            failures.append(f"{name}: layer self times sum to "
                            f"{sum(layers.values())}, traced wall {wall}")
        moved = [f"{getattr(owner, '__name__', owner)}.{attr}"
                 for owner, attr, _ in tracing.call_sites()
                 if vars(owner)[attr] is not originals[(id(owner), attr)]]
        if moved:
            failures.append(f"{name}: not restored after tracing: {moved}")

    tracer = tracing.Tracer()
    tracer.install()
    try:
        session.run(next(iter(session.WORKLOADS)), 0, 2, False, OUT_DIR,
                    tiny=True)
        failures.append("the untraced run started with wrappers installed")
    except RuntimeError:
        pass
    finally:
        tracer.uninstall()

    for failure in failures:
        print(f"FAIL {failure}")
    print("selftest: " + ("ok" if not failures
                          else f"{len(failures)} failure(s)"))
    return 1 if failures else 0


if __name__ == "__main__":
    sys.exit(main())
