"""Performance benchmark harness: stage timings -> BENCH_perf.json.

Runs the AnalogFold pipeline on OTA1 at the selected ``REPRO_SCALE`` (or
``--scale``) with the pipeline's own :class:`repro.perf.timing.StageTimer`
instrumentation, then records per-stage wall time (route / extract /
simulate / train / relax, plus calls) and a forward-scaling sweep
(tape-free float64 per-candidate ``forward_batch`` time vs batch size,
with the batched-vs-per-candidate parity number) into
``BENCH_perf.json`` at the repo root.

Expected shape: the route stage dominates database construction and
train dominates total time at representative scales.

Standalone usage (no pytest required)::

    PYTHONPATH=src python benchmarks/bench_perf.py --scale smoke --check

``--check`` compares against the committed ``BENCH_perf.json`` before
overwriting it and exits non-zero when any stage regressed more than
3x (CI's gate; slower-than-baseline runners get headroom via the noise
floor in :func:`repro.perf.timing.compare_to_baseline`).
"""

from __future__ import annotations

import argparse
import ctypes
import os
import sys
import time
from pathlib import Path

REPO_ROOT = Path(__file__).resolve().parent.parent
sys.path.insert(0, str(REPO_ROOT / "src"))
# The seed router lives in tests/ as the bit-identity oracle; it is also
# the in-run speed baseline of the ``route`` section.
sys.path.insert(0, str(REPO_ROOT))

import numpy as np

from repro import AnalogFold, build_benchmark, generic_40nm, place_benchmark
from repro.eval.compare import SCALES
from repro.graph import build_hetero_graph
from repro.model.gnn3d import Gnn3d
from repro.nn import Tensor, no_grad
from repro.perf.timing import (
    bench_payload,
    compare_to_baseline,
    load_bench_json,
    write_bench_json,
)
from repro.router import IterativeRouter, RoutingGrid
from repro.router.guidance import RoutingGuidance, random_guidance
from tests.router_oracle import (
    ReferenceRouter,
    connection_parity,
    record_connections,
)

DEFAULT_OUT = REPO_ROOT / "BENCH_perf.json"

#: Circuits of the router benchmark (every built-in OTA).
ROUTE_CIRCUITS = ("OTA1", "OTA2", "OTA3")

#: Timed repetitions per router scenario (best-of, interleaved).
ROUTE_REPEATS = 3

#: Gate for the ``route`` section under ``--check``: the A* router must
#: beat the in-run seed router (``tests/router_oracle.py``) by this
#: factor on both the neutral and the guided aggregate.  It is an in-run
#: comparison, so the gate does not depend on runner speed.
ROUTE_MIN_SPEEDUP = 1.5

#: Batch sizes of the forward-scaling sweep (``forward`` section).
FORWARD_BATCHES = (1, 2, 4, 8, 16)

#: Timed rounds of the forward sweep; each round times every batch size
#: once (interleaved), and each point records the median round.  A
#: best-of-5 of a few-ms call read 0.69-1.11 for the ratio below across
#: runs of the same code on a shared 2-core container.
FORWARD_REPEATS = 25

#: Gate: per-candidate time at the largest swept batch must amortize to
#: at most this fraction of the single-candidate (B=1) time.  0.9 only
#: asserts that batching keeps paying off at all past one chunk.
FORWARD_MAX_AMORTIZED_RATIO = 0.9


def _route_once(placement, tech, guidance_seed, oracle: bool):
    """One timed ``route_all`` on a fresh grid; returns (dt, paths, calls).

    With ``oracle`` the router searches with the seed engine instead.
    ``calls`` logs every ``route_connection`` call (see
    ``tests/router_oracle.py``); both sides pay the same small logging
    cost.
    """
    grid = RoutingGrid(placement, tech)
    if guidance_seed is None:
        guidance = RoutingGuidance()
    else:
        rng = np.random.default_rng(guidance_seed)
        keys = [ap.key for aps in grid.access_points.values() for ap in aps]
        guidance = random_guidance(keys, rng)
    router = IterativeRouter(grid, guidance)
    if oracle:
        router.astar = ReferenceRouter(grid, router.config.cost)
    calls = record_connections(router.astar)
    start = time.perf_counter()
    result = router.route_all()
    elapsed = time.perf_counter() - start
    paths = {name: tuple(tuple(path) for path in route.paths)
             for name, route in result.routes.items()}
    return elapsed, paths, calls


def measure_route() -> dict:
    """Router benchmark: in-run seed router vs. A* router on every OTA.

    Each scenario routes the same placement with the seed (reference)
    router and with the A* router, on neutral and on random guidance.
    Per-connection parity with the reference is part of the record (and
    the CI gate): the same calls, paths and failures, and the same
    expansion count on every call the A* router searched.  Hard-mode
    calls it proved unreachable without a search are counted in
    ``unreachable_skipped``.
    """
    tech = generic_40nm()
    scenarios: dict[str, dict] = {}
    totals = {"neutral": [0.0, 0.0], "guided": [0.0, 0.0]}
    identical = True
    for circuit_name in ROUTE_CIRCUITS:
        circuit = build_benchmark(circuit_name)
        placement = place_benchmark(circuit, variant="A", seed=0,
                                    iterations=200)
        for label, seed in (("neutral", None), ("guided", 7)):
            # Interleave reference/A* trials so slow drift on the runner
            # (thermal, background load) biases neither side.
            ref_t, ref_paths, ref_calls = _route_once(
                placement, tech, seed, oracle=True)
            new_t, new_paths, new_calls = _route_once(
                placement, tech, seed, oracle=False)
            for _ in range(ROUTE_REPEATS - 1):
                ref_t = min(ref_t, _route_once(
                    placement, tech, seed, oracle=True)[0])
                new_t = min(new_t, _route_once(
                    placement, tech, seed, oracle=False)[0])
            nets = max(len(ref_paths), 1)
            same = (new_paths == ref_paths
                    and not connection_parity(new_calls, ref_calls))
            identical = identical and same
            new_exp = sum(call.expansions for call in new_calls)
            totals[label][0] += ref_t
            totals[label][1] += new_t
            scenarios[f"{circuit_name}.{label}"] = {
                "reference_seconds": round(ref_t, 4),
                "seconds": round(new_t, 4),
                "speedup": round(ref_t / new_t, 2),
                "expansions": new_exp,
                "reference_expansions": sum(
                    call.expansions for call in ref_calls),
                "unreachable_skipped": sum(
                    call.skipped for call in new_calls),
                "expansions_per_sec": round(new_exp / new_t),
                "per_net_route_seconds": round(new_t / nets, 5),
                "oracle_parity": same,
            }
    return {
        "scenarios": scenarios,
        "speedup": {
            "neutral": round(totals["neutral"][0] / totals["neutral"][1], 2),
            "guided": round(totals["guided"][0] / totals["guided"][1], 2),
        },
        "oracle_parity": identical,
        "repeats": ROUTE_REPEATS,
    }


def check_route(route: dict, baseline: dict | None) -> list[str]:
    """Route-section gates: in-run speedups and per-connection parity."""
    problems: list[str] = []
    speedup = route.get("speedup", {})
    neutral = float(speedup.get("neutral", 0.0))
    guided = float(speedup.get("guided", 0.0))
    for label, value in (("neutral", neutral), ("guided", guided)):
        if value < ROUTE_MIN_SPEEDUP:
            problems.append(
                f"route speedup ({label}) {value:.2f}x below the "
                f"{ROUTE_MIN_SPEEDUP:.1f}x gate")
    if not route.get("oracle_parity", False):
        bad = [name for name, s in route.get("scenarios", {}).items()
               if not s.get("oracle_parity", False)]
        problems.append(f"routing differs from the reference router "
                        f"call by call in: {', '.join(bad) or 'unknown'}")
    if baseline is not None and "route" in baseline:
        base_route = float(
            baseline["route"].get("speedup", {}).get("neutral", 0.0))
        if base_route and neutral < base_route / 1.5:
            problems.append(
                f"route speedup (neutral) fell {base_route:.2f}x -> "
                f"{neutral:.2f}x vs committed baseline")
    return problems


def measure_forward() -> dict:
    """Forward-scaling benchmark: per-candidate time vs batch size.

    Times ``Gnn3d.forward_batch`` on OTA1 across :data:`FORWARD_BATCHES`
    tape-free in float64 (how the scoring service runs it), as the
    median of :data:`FORWARD_REPEATS` interleaved rounds, and records
    the largest batch's deviation from per-candidate forwards (contract:
    < 1e-10).
    """
    circuit = build_benchmark("OTA1")
    placement = place_benchmark(circuit, variant="A", seed=0, iterations=150)
    graph = build_hetero_graph(RoutingGrid(placement, generic_40nm()))
    model = Gnn3d(graph.ap_features.shape[1], graph.module_features.shape[1])

    rng = np.random.default_rng(0)
    batch_max = max(FORWARD_BATCHES)
    pool = rng.uniform(0.5, 2.0, size=(batch_max, graph.num_aps, 3))

    samples: dict[int, list[float]] = {b: [] for b in FORWARD_BATCHES}
    with no_grad():
        model.forward_batch(graph, Tensor(pool))  # build the statics
        for _ in range(FORWARD_REPEATS):
            for batch in FORWARD_BATCHES:
                guidance = Tensor(pool[:batch])
                start = time.perf_counter()
                model.forward_batch(graph, guidance)
                samples[batch].append(
                    (time.perf_counter() - start) / batch)
        batched = model.forward_batch(graph, Tensor(pool)).numpy()
        singles = np.stack([model(graph, Tensor(g)).numpy() for g in pool])
    per_candidate = {str(b): round(float(np.median(v)) * 1e3, 4)
                     for b, v in samples.items()}

    b1 = per_candidate[str(FORWARD_BATCHES[0])]
    b_max = per_candidate[str(batch_max)]
    return {
        "circuit": "OTA1",
        "dtype": "float64",
        "tape": False,
        "cores": os.cpu_count(),
        "batch_sweep": list(FORWARD_BATCHES),
        "per_candidate_ms": per_candidate,
        "amortized_ratio": round(b_max / b1, 3),
        "batched_vs_per_candidate_max_abs": float(
            np.abs(batched - singles).max()),
        "repeats": FORWARD_REPEATS,
    }


def check_forward(forward: dict, baseline: dict | None,
                  max_ratio: float = 3.0) -> list[str]:
    """Forward-section gates: parity contract plus amortization."""
    problems: list[str] = []
    if forward["batched_vs_per_candidate_max_abs"] >= 1e-10:
        problems.append(
            f"batched forward differs from per-candidate forwards by "
            f"{forward['batched_vs_per_candidate_max_abs']:g} "
            f"(contract: < 1e-10)")
    if forward["amortized_ratio"] > FORWARD_MAX_AMORTIZED_RATIO:
        sweep = forward["batch_sweep"]
        problems.append(
            f"batching stopped amortizing: per-candidate time at "
            f"B={sweep[-1]} is {forward['amortized_ratio']}x B=1 "
            f"(gate: <= {FORWARD_MAX_AMORTIZED_RATIO})")
    if baseline is None or "forward" not in baseline:
        return problems
    base = baseline["forward"].get("per_candidate_ms", {})
    for key, base_ms in base.items():
        cur_ms = forward["per_candidate_ms"].get(key)
        if cur_ms is not None and cur_ms > float(base_ms) * max_ratio:
            problems.append(
                f"forward B={key} regressed "
                f"{cur_ms / float(base_ms):.1f}x ({base_ms} -> "
                f"{cur_ms} ms/candidate, limit {max_ratio:.1f}x)")
    return problems


#: Timed repetitions of the corpus ingest sweep, best-of.
INGEST_REPEATS = 5

#: Gate: end-to-end ingest (parse -> flatten -> symmetry -> autobench)
#: of the whole vendored corpus must stay under this budget.  The
#: importer is pure python over a few dozen cards; a second means a
#: quadratic blowup crept into flattening or symmetry search.
INGEST_MAX_SECONDS = 1.0


def measure_ingest() -> dict:
    """Importer throughput over the vendored corpus (``ingest`` section)."""
    from repro.io.ingest import ingest_file
    from repro.reliability.errors import SpiceParseError

    corpus_dir = REPO_ROOT / "tests" / "corpus"
    files = sorted(corpus_dir.glob("*.sp"))
    cards = sum(
        1 for path in files for line in path.read_text().splitlines()
        if line.strip() and not line.strip().startswith(("*", "+")))

    best = float("inf")
    results = {}
    for _ in range(INGEST_REPEATS):
        start = time.perf_counter()
        results = {path.stem: ingest_file(path) for path in files}
        best = min(best, time.perf_counter() - start)

    # The taxonomy fixture must keep failing typed — a raw ValueError
    # escaping here is exactly the regression the CI smoke job guards.
    bad_typed = False
    try:
        ingest_file(corpus_dir / "bad" / "unsupported.sp")
    except SpiceParseError:
        bad_typed = True

    return {
        "files": len(files),
        "cards": cards,
        "seconds": round(best, 4),
        "cards_per_second": round(cards / best, 1),
        "symmetry_pairs": {
            name: len(res.bench.symmetry.net_pairs)
            for name, res in sorted(results.items())
        },
        "bad_fixture_typed": bad_typed,
    }


def check_ingest(ingest: dict, baseline: dict | None,
                 max_ratio: float = 3.0) -> list[str]:
    """Ingest-section gates: absolute budget plus baseline ratio."""
    problems: list[str] = []
    if ingest["seconds"] > INGEST_MAX_SECONDS:
        problems.append(
            f"corpus ingest took {ingest['seconds']}s "
            f"(budget {INGEST_MAX_SECONDS}s)")
    if not ingest["bad_fixture_typed"]:
        problems.append(
            "tests/corpus/bad/unsupported.sp no longer fails with "
            "SpiceParseError — taxonomy escape in the importer")
    for name, pairs in ingest["symmetry_pairs"].items():
        if pairs == 0:
            problems.append(f"no symmetry inferred for corpus file {name}")
    if baseline is not None and "ingest" in baseline:
        base_s = float(baseline["ingest"].get("seconds", 0.0))
        if base_s > 0 and ingest["seconds"] > base_s * max_ratio:
            problems.append(
                f"ingest regressed {ingest['seconds'] / base_s:.1f}x "
                f"({base_s} -> {ingest['seconds']}s, limit "
                f"{max_ratio:.1f}x)")
    return problems


def pin_allocator() -> bool:
    """Keep freed memory in the heap instead of returning it to the OS.

    By default glibc serves large arrays from fresh ``mmap`` pages, and
    its threshold for doing so rises whenever a large block is freed, so
    each section's timings depend on what earlier sections happened to
    allocate: the forward sweep's B=16 temporaries paid page faults or
    not depending on the route section before it.  Pinning the mmap and
    trim thresholds at 1 GiB puts every section in the same allocator
    state.  Returns False where ``mallopt`` is unavailable.
    """
    try:
        mallopt = ctypes.CDLL(None).mallopt
    except (OSError, AttributeError):
        return False
    m_trim_threshold, m_mmap_threshold = -1, -3
    return (mallopt(m_trim_threshold, 1 << 30) == 1
            and mallopt(m_mmap_threshold, 1 << 30) == 1)


def measure(scale_name: str, workers: int = 1) -> dict:
    """Run the instrumented pipeline and return the perf payload."""
    scale = SCALES[scale_name]
    circuit = build_benchmark("OTA1")
    tech = generic_40nm()
    placement = place_benchmark(circuit, variant="A", seed=0,
                                iterations=scale.placement_iterations)

    config = scale.analogfold_config(seed=0)
    config.workers = workers
    fold = AnalogFold(circuit, placement, tech, config=config)
    result = fold.run()

    return bench_payload(fold.timer, extra={
        "scale": scale_name,
        "workers": workers,
        "circuit": "OTA1",
        "figure5_stage_seconds": {
            k: round(v, 4) for k, v in result.stage_seconds.items()
        },
        "total_seconds": round(fold.timer.total_seconds(), 4),
    })


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--scale",
                        default=os.environ.get("REPRO_SCALE", "smoke"),
                        choices=sorted(SCALES))
    parser.add_argument("--workers", type=int, default=1,
                        help="database-construction worker processes")
    parser.add_argument("--out", default=str(DEFAULT_OUT),
                        help="where to write the perf record")
    parser.add_argument("--baseline", default=str(DEFAULT_OUT),
                        help="committed baseline to compare against")
    parser.add_argument("--check", action="store_true",
                        help="fail when a stage regressed > 3x vs baseline "
                             "or a route gate fails")
    args = parser.parse_args(argv)
    pin_allocator()

    payload = measure(args.scale, workers=args.workers)
    payload["route"] = measure_route()
    payload["forward"] = measure_forward()
    payload["ingest"] = measure_ingest()

    # The serve-throughput (benchmarks/bench_serve.py) and chaos
    # (benchmarks/bench_chaos.py) records share this file; carry their
    # sections over instead of dropping them on rewrite.
    existing = load_bench_json(args.out)
    if existing is not None:
        for section in ("serve", "chaos"):
            if section in existing:
                payload[section] = existing[section]

    problems: list[str] = []
    if args.check:
        baseline = load_bench_json(args.baseline)
        if baseline is None:
            print(f"no baseline at {args.baseline}; skipping regression "
                  f"check")
        elif baseline.get("scale") != payload.get("scale"):
            print(f"baseline scale {baseline.get('scale')!r} != current "
                  f"{payload.get('scale')!r}; skipping regression check")
        else:
            problems = compare_to_baseline(payload, baseline)
        problems += check_route(payload["route"], baseline)
        problems += check_forward(payload["forward"], baseline)
        problems += check_ingest(payload["ingest"], baseline)

    out = write_bench_json(args.out, payload)
    print(f"wrote {out}")
    for name, stats in payload["stages"].items():
        print(f"  {name}: {stats['seconds']:.3f}s over {stats['calls']} calls")
    route = payload["route"]
    print(f"  route: {route['speedup']['neutral']}x neutral / "
          f"{route['speedup']['guided']}x guided vs in-run reference, "
          f"oracle_parity={route['oracle_parity']}")
    fwd = payload["forward"]
    print(f"  forward: B={fwd['batch_sweep'][-1]} amortizes to "
          f"{fwd['amortized_ratio']}x the B=1 per-candidate time "
          f"(tape-free float64, parity "
          f"{fwd['batched_vs_per_candidate_max_abs']:.1e})")
    ing = payload["ingest"]
    print(f"  ingest: {ing['files']} corpus files / {ing['cards']} cards "
          f"in {ing['seconds']}s ({ing['cards_per_second']} cards/s)")

    if problems:
        print("PERF REGRESSION:")
        for p in problems:
            print(f"  {p}")
        return 1
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
