"""What one benchmark run does: set up, serve scores, run AnalogFold.

A run is one session of the system.  It builds the fold workload's
design and the two scoring endpoints (set-up), serves a seeded
closed-loop stream of scoring requests to both endpoints, then runs
the full ``AnalogFold.run`` loop on the workload's design.  Every run
measures every end-to-end metric; the workload chooses the design and
scale of the fold.

Scale parameters are pinned here rather than read from
``repro.eval.compare.SCALES``, so that an edit there cannot silently
change a workload.  Settings the presets leave out (router engine,
relaxation mode, serving config, ...) are the program's defaults,
because a change to a default is a change of the program.
"""

from __future__ import annotations

import dataclasses
import math
import os
import platform
import statistics
import tempfile
import time
from dataclasses import dataclass, field
from pathlib import Path

import numpy as np

from repro import AnalogFold, AnalogFoldConfig, build_benchmark, generic_40nm
from repro.core import DatasetConfig, RelaxationConfig
from repro.graph import builder
from repro.model import Gnn3d, Gnn3dConfig, TrainConfig
from repro.nn import Tensor, no_grad
from repro.placement import placer
from repro.router import RoutingGrid
from repro.serve import (
    ModelRegistry,
    ScoreRequest,
    ScoringService,
    ServeConfig,
    ServeError,
)
from repro.simulation import FoMWeights

from perfbench import tracing
from perfbench.spec import PER_LAYER, SERVE_DESIGNS

TECH = generic_40nm()


@dataclass(frozen=True)
class FoldPreset:
    """Pinned scale of one ``AnalogFold.run``."""

    circuit: str
    preset: str
    samples: int
    epochs: int
    restarts: int
    pool: int
    placement_iterations: int
    variant: str = "A"
    #: Placement and pipeline seed.  Fixed, not taken from ``--seed``:
    #: the quality metrics compare revisions only on one fixed instance,
    #: and seed-to-seed spread of routing quality would hide a change.
    pipeline_seed: int = 0

    def config(self) -> AnalogFoldConfig:
        seed = self.pipeline_seed
        return AnalogFoldConfig(
            dataset=DatasetConfig(num_samples=self.samples, seed=seed),
            gnn=Gnn3dConfig(seed=seed),
            training=TrainConfig(epochs=self.epochs, seed=seed),
            relaxation=RelaxationConfig(
                n_restarts=self.restarts, pool_size=self.pool,
                n_derive=min(3, self.pool), seed=seed),
        )


#: The workloads.  ``fold_ota3_smoke`` (96 access points) is
#: router-bound; ``fold_ota1_fast`` (46 access points) spends more than
#: half its time in the 3DGNN.  See perfbench/README.md.
WORKLOADS = {
    "fold_ota3_smoke": FoldPreset("OTA3", "smoke", samples=6, epochs=3,
                                  restarts=3, pool=2,
                                  placement_iterations=100),
    "fold_ota1_fast": FoldPreset("OTA1", "fast", samples=40, epochs=20,
                                 restarts=10, pool=5,
                                 placement_iterations=400),
}

#: Smallest sizes that still exercise every layer (self-test only).
TINY = {
    name: dataclasses.replace(preset, preset="tiny", samples=3, epochs=1,
                              restarts=2, pool=2, placement_iterations=20)
    for name, preset in WORKLOADS.items()
}

#: Most of ``--seconds`` the fold may take; scoring gets the rest.
FOLD_SHARE = 0.5
#: Scoring runs in slices of this many seconds between fold runs.
SERVE_SLICE = 3.0
#: Set-ups per run, two after each scoring slice; ``setup_s`` is their
#: median.
SETUP_REPEATS = 15
SETUPS_PER_SLICE = 2
SERVE_PLACEMENT_ITERATIONS = 100
#: Window sizes are 1..MAX_WINDOW candidates, as a seeded permutation
#: per endpoint so that every run sees the same mix of sizes.
MAX_WINDOW = 32
#: Guidance values of a candidate, the relaxation's initial range.
GUIDANCE_LOW, GUIDANCE_HIGH = 0.5, 2.0
#: The tail percentile reported.  Every request of a window waits for
#: the same flush, so the windows, not the requests, are the independent
#: samples of the tail; p90 is the highest percentile with ten windows
#: beyond it in every run (see ``supported_percentile``).
TAIL_PERCENTILE = 90
#: Scoring runs until each endpoint has this many latencies (or the
#: run has taken SERVE_CAP times ``--seconds``).
MIN_LATENCY_SAMPLES = 1000
SERVE_CAP = 2.0
#: Served scores re-checked against a direct forward, per endpoint.
PARITY_SAMPLES = 16
PARITY_TOLERANCE = 1e-10


# -- set-up ------------------------------------------------------------------


@dataclass
class Session:
    preset: FoldPreset
    circuit: object
    placement: object
    access_points: int
    registry: ModelRegistry
    service: ScoringService
    graphs: dict = field(default_factory=dict)


def setup_session(preset: FoldPreset, seed: int, root: Path) -> Session:
    """Build the fold design and register both scoring endpoints.

    The endpoints serve seeded, untrained float64 checkpoints saved to
    and loaded from a registry under ``root``; forward cost does not
    depend on weight values.
    """
    circuit = build_benchmark(preset.circuit)
    placement = placer.place_benchmark(
        circuit, variant=preset.variant, seed=preset.pipeline_seed,
        iterations=preset.placement_iterations)
    graph = builder.build_hetero_graph(RoutingGrid(placement, TECH))
    registry = ModelRegistry(root)
    service = ScoringService(ServeConfig())
    session = Session(preset, circuit, placement, graph.num_aps, registry,
                      service)
    for endpoint, name in SERVE_DESIGNS:
        served = placer.place_benchmark(
            build_benchmark(name), variant="A", seed=0,
            iterations=SERVE_PLACEMENT_ITERATIONS)
        served_graph = builder.build_hetero_graph(RoutingGrid(served, TECH))
        model = Gnn3d(served_graph.ap_features.shape[1],
                      served_graph.module_features.shape[1],
                      Gnn3dConfig(seed=seed))
        registry.save(endpoint, model, served_graph)
        service.register_checkpoint(endpoint, registry, endpoint,
                                    served_graph)
        session.graphs[endpoint] = served_graph
    return session


# -- serving -----------------------------------------------------------------


class Traffic:
    """Seeded closed-loop request stream of one client.

    Each window goes to one endpoint (a seeded 50/50 order, balanced in
    pairs) and holds 1..MAX_WINDOW candidates (a seeded permutation of
    the sizes per endpoint, so every endpoint sees each size equally).
    """

    def __init__(self, seed: int) -> None:
        self.rng = np.random.default_rng([seed, 1])
        self._order: list[str] = []
        self._sizes: dict[str, list[int]] = {e: [] for e, _ in SERVE_DESIGNS}

    def window(self, graphs: dict) -> tuple[str, np.ndarray]:
        if not self._order:
            self._order = [str(e) for e in self.rng.permutation(
                [e for e, _ in SERVE_DESIGNS])]
        endpoint = self._order.pop()
        sizes = self._sizes[endpoint]
        if not sizes:
            sizes.extend(int(k) for k in
                         self.rng.permutation(np.arange(1, MAX_WINDOW + 1)))
        shape = (sizes.pop(), graphs[endpoint].num_aps, 3)
        return endpoint, self.rng.uniform(GUIDANCE_LOW, GUIDANCE_HIGH, shape)


@dataclass
class ServeOutcome:
    wall_s: float = 0.0
    latencies: dict = field(default_factory=dict)
    #: Per endpoint, the window each latency came from.
    windows: dict = field(default_factory=dict)
    submitted: int = 0
    ok: int = 0
    failed: int = 0
    rejected: int = 0
    #: (endpoint, guidance, result) of every scored request.
    scored: list = field(default_factory=list)

    @property
    def score_per_s(self) -> float:
        return self.ok / self.wall_s


def _window(service: ScoringService, endpoint: str, guidance: np.ndarray,
            out: ServeOutcome) -> None:
    """Submit one window, flush it, and time each request to the flush."""
    window = out.submitted
    out.windows[endpoint].extend([window] * len(guidance))
    sent = []
    for row in guidance:
        out.submitted += 1
        submitted_at = time.perf_counter()
        try:
            service.submit(ScoreRequest(endpoint, row))
        except ServeError:
            out.rejected += 1
            # A refused request misses every latency limit.
            out.latencies[endpoint].append(math.inf)
            continue
        sent.append((submitted_at, row))
    results = service.flush()
    done = time.perf_counter()
    for (submitted_at, row), result in zip(sent, results):
        if result.status == "ok":
            out.ok += 1
            out.latencies[endpoint].append(done - submitted_at)
        else:
            out.failed += 1
            out.latencies[endpoint].append(math.inf)
        out.scored.append((endpoint, row, result))


def _serve_outcome(session: Session) -> ServeOutcome:
    return ServeOutcome(latencies={e: [] for e in session.graphs},
                        windows={e: [] for e in session.graphs})


def warm_up(session: Session, seed: int) -> None:
    """One window of every batch size per endpoint, so that the
    per-batch-size forward plans exist before anything is timed."""
    rng = np.random.default_rng([seed, 2])
    scratch = _serve_outcome(session)
    for endpoint, graph in session.graphs.items():
        for size in range(1, session.service.config.max_batch + 1):
            _window(session.service, endpoint,
                    rng.uniform(GUIDANCE_LOW, GUIDANCE_HIGH,
                                (size, graph.num_aps, 3)), scratch)


def serve_for(session: Session, traffic: Traffic, seconds: float,
              out: ServeOutcome) -> None:
    """Closed loop, one window at a time, for ``seconds``."""
    start = time.perf_counter()
    while time.perf_counter() - start < seconds:
        endpoint, guidance = traffic.window(session.graphs)
        _window(session.service, endpoint, guidance, out)
    out.wall_s += time.perf_counter() - start


def check_serving(session: Session, outcome: ServeOutcome,
                  seed: int) -> list[str]:
    """Every request ok, and a seeded sample of served scores equal to
    a direct ``Gnn3d.forward`` of a fresh load of the same checkpoint."""
    errors = []
    if outcome.failed or outcome.rejected:
        errors.append(f"serving: {outcome.failed} failed, "
                      f"{outcome.rejected} rejected requests")
    rng = np.random.default_rng([seed, 3])
    for endpoint, graph in session.graphs.items():
        scored = [s for s in outcome.scored
                  if s[0] == endpoint and s[2].status == "ok"]
        if not scored:
            errors.append(f"serving: no scored request on {endpoint}")
            continue
        model, _ = session.registry.load(endpoint, graph=graph)
        picks = rng.choice(len(scored), size=min(PARITY_SAMPLES,
                                                 len(scored)), replace=False)
        for pick in picks:
            _, guidance, result = scored[pick]
            with no_grad():
                direct = model.forward(graph, Tensor(guidance)).numpy()
            diff = float(np.max(np.abs(direct - result.metrics)))
            if not diff <= PARITY_TOLERANCE:
                errors.append(f"serving: {endpoint} score differs from a "
                              f"direct forward by {diff:.3g}")
    return errors


def percentile(values: list[float], q: float) -> float:
    """Nearest-rank percentile ``q`` (0-100) of ``values``."""
    ordered = sorted(values)
    rank = max(1, math.ceil(q / 100 * len(ordered)))
    return ordered[rank - 1]


def supported_percentile(latencies: list[float], windows: list[int]) -> float:
    """Highest of p50/p90/p99/p99.9 with requests of ten windows beyond it.

    Requests of one window share a flush, so ten requests beyond a
    percentile can all be one slow window: one sample, not ten.
    """
    best = 0.0
    for q in (50.0, 90.0, 99.0, 99.9):
        cut = percentile(latencies, q)
        beyond = {w for value, w in zip(latencies, windows) if value > cut}
        if len(beyond) >= 10:
            best = q
    return best


# -- AnalogFold --------------------------------------------------------------


@dataclass
class FoldOutcome:
    walls: list = field(default_factory=list)
    #: (fold_fom, fold_derived_fom, fold_best_potential) of the first run.
    quality: tuple = ()
    attempted: int = 0
    failed: int = 0
    errors: list = field(default_factory=list)


def fold_once(session: Session, out: FoldOutcome) -> None:
    """One ``AnalogFold.run``, timed, with its outputs checked."""
    fold = AnalogFold(session.circuit, session.placement, TECH,
                      config=session.preset.config())
    start = time.perf_counter()
    result = fold.run()
    out.walls.append(time.perf_counter() - start)

    errors = out.errors
    if not result.routing.success:
        errors.append(f"fold: failed nets {result.routing.failed_nets}")
    values = dataclasses.astuple(result.metrics)
    if len(values) != 5 or not all(math.isfinite(v) for v in values):
        errors.append(f"fold: metrics not five finite values: {values}")
    foms = result.candidate_foms
    if foms[result.winner_index] != min(foms):
        errors.append(f"fold: winner {result.winner_index} is not the "
                      f"minimum of {foms}")
    derived = foms[:len(result.derived)]
    routed = [f for f in derived if math.isfinite(f)]
    if not routed:
        errors.append("fold: no relaxation-derived candidate routed")
    quality = (FoMWeights().fom(result.metrics),
               min(routed) if routed else math.inf,
               min(d.potential for d in result.derived))
    if not out.quality:
        out.quality = quality
    elif quality != out.quality:
        errors.append(f"fold: quality {quality} differs from the first "
                      f"run's {out.quality} on the same inputs")

    report = fold.database.report
    out.attempted += (report.valid + report.retried + len(report.skipped)
                      + len(derived))
    out.failed += len(report.skipped) + len(derived) - len(routed)


def measure(preset: FoldPreset, seed: int, seconds: float, root: Path,
            min_samples: int):
    """Set up, then interleave scoring slices, fold runs and more set-ups.

    A shared machine's speed drifts over tens of seconds, so each metric
    samples the whole run rather than one stretch of it.  The run lasts
    ``seconds`` from its first set-up.  The fold repeats while its next
    run is expected to end within ``FOLD_SHARE`` of ``seconds`` and
    within the run; scoring takes the rest of the time, and goes on
    while an endpoint still lacks ``min_samples`` latencies.  Whichever
    of the two is further behind its share goes next.

    Returns the session, the set-up times, and the scoring and fold
    outcomes.
    """
    setups = []

    def set_up() -> Session:
        start = time.perf_counter()
        made = setup_session(preset, seed, root / str(len(setups)))
        setups.append(time.perf_counter() - start)
        return made

    run_start = time.perf_counter()
    session = set_up()
    warm_up(session, seed)
    traffic = Traffic(seed)
    fold_budget = FOLD_SHARE * seconds
    serve_budget = seconds - fold_budget
    serve = _serve_outcome(session)
    fold = FoldOutcome()
    while True:
        elapsed = time.perf_counter() - run_start
        fold_s = sum(fold.walls)
        next_fold = statistics.median(fold.walls) if fold.walls else 0.0
        fold_fits = (not fold.walls
                     or (fold_s + next_fold <= fold_budget
                         and elapsed + next_fold <= seconds))
        short = min(len(v) for v in serve.latencies.values()) < min_samples
        serve_left = ((elapsed < seconds or short)
                      and elapsed < SERVE_CAP * seconds)
        if not (fold_fits or serve_left):
            return session, setups, serve, fold
        if fold_fits and (not serve_left or fold_s / fold_budget
                          < serve.wall_s / serve_budget):
            fold_once(session, fold)
        else:
            serve_for(session, traffic, SERVE_SLICE, serve)
            for _ in range(SETUPS_PER_SLICE):
                if len(setups) < SETUP_REPEATS:
                    set_up()


# -- one run -----------------------------------------------------------------


@dataclass
class RunResult:
    correct: bool
    attempted: int
    failed: int
    metrics: dict
    provenance: dict
    errors: list
    report: str = ""


def _provenance(name: str, seed: int, seconds: float, trace: int,
                session: Session, serve: ServeOutcome,
                fold: FoldOutcome) -> dict:
    manifest = {e: session.registry.load_manifest(e) for e in session.graphs}
    return {
        "workload": name,
        "seed": seed,
        "seconds": seconds,
        "trace": trace,
        "fold": {
            "circuit": session.preset.circuit,
            "variant": session.preset.variant,
            "access_points": session.access_points,
            "preset": dataclasses.asdict(session.preset),
            "runs": len(fold.walls),
            "walls_s": fold.walls,
            "signed": dict(zip(("fom", "derived_fom", "best_potential"),
                               fold.quality)),
            "dtype": "float64",
            "tape": "with tape (training and relaxation backpropagate)",
            "workers": session.preset.config().workers,
        },
        "serve": {
            "endpoints": {
                e: {"circuit": circuit,
                    "access_points": session.graphs[e].num_aps,
                    "precision": manifest[e].precision,
                    "latency_samples": len(serve.latencies[e]),
                    "windows": len(set(serve.windows[e])),
                    "highest_supported_percentile": supported_percentile(
                        serve.latencies[e], serve.windows[e]),
                    "p99_ms": 1000 * percentile(serve.latencies[e], 99)}
                for e, circuit in SERVE_DESIGNS},
            "config": dataclasses.asdict(session.service.config),
            "tape": "no_grad",
            "client": f"closed loop, 1 client, windows of 1-{MAX_WINDOW}",
            "wall_s": serve.wall_s,
            "submitted": serve.submitted,
        },
        "setup_repeats": SETUP_REPEATS,
        "nproc": os.cpu_count(),
        "cpus_usable": len(os.sched_getaffinity(0)),
        "blas_threads": os.environ.get("OPENBLAS_NUM_THREADS"),
        "python": platform.python_version(),
        "numpy": np.__version__,
    }


def run(name: str, seed: int, seconds: float, trace: bool,
        out_dir: Path, tiny: bool = False) -> RunResult:
    """One run of workload ``name``; ``tiny`` shrinks it for self-tests."""
    preset = (TINY if tiny else WORKLOADS)[name]
    min_samples = 0 if tiny else MIN_LATENCY_SAMPLES
    out_dir.mkdir(parents=True, exist_ok=True)
    with tempfile.TemporaryDirectory(dir=out_dir) as tmp:
        if trace:
            return _traced_run(name, preset, seed, seconds, Path(tmp),
                               out_dir)
        tracing.assert_unwrapped()
        session, setups, serve, fold = measure(preset, seed, seconds,
                                               Path(tmp), min_samples)
        tracing.assert_unwrapped()
        errors = fold.errors + check_serving(session, serve, seed)
        metrics = {
            "setup_s": statistics.median(setups),
            "fold_wall_s": statistics.median(fold.walls),
            "fold_fom": 10 ** fold.quality[0],
            "fold_derived_fom": 10 ** fold.quality[1],
            "fold_best_potential": 10 ** fold.quality[2],
            "score_per_s": serve.score_per_s,
        }
        for endpoint in session.graphs:
            latencies = serve.latencies[endpoint]
            for q in (50, TAIL_PERCENTILE):
                metrics[f"score_{endpoint}_p{q}_ms"] = (
                    1000 * percentile(latencies, q))
            supported = supported_percentile(latencies,
                                             serve.windows[endpoint])
            if not tiny and supported < TAIL_PERCENTILE:
                errors.append(f"serving: {len(latencies)} latencies on "
                              f"{endpoint} do not support "
                              f"p{TAIL_PERCENTILE}")
        provenance = _provenance(name, seed, seconds, 0, session, serve,
                                 fold)
        provenance["setups_s"] = setups
    return RunResult(
        correct=not errors,
        attempted=fold.attempted + serve.submitted,
        failed=fold.failed + serve.failed + serve.rejected,
        metrics=metrics, provenance=provenance, errors=errors)


def _traced_run(name: str, preset: FoldPreset, seed: int, seconds: float,
                tmp: Path, out_dir: Path) -> RunResult:
    """An untraced reference session, then the same session traced.

    Each gets half of ``seconds``.  The reference gives the tracing
    overhead: traced ``AnalogFold.run`` time against the untraced one,
    and untraced against traced scoring throughput.
    """
    tracing.assert_unwrapped()
    session, _, ref_serve, ref_fold = measure(preset, seed, seconds / 2,
                                              tmp / "reference", 0)
    tracing.assert_unwrapped()
    errors = ref_fold.errors + check_serving(session, ref_serve, seed)

    tracer = tracing.Tracer()
    tracer.install()
    try:
        start = time.perf_counter()
        traced, _, serve, fold = measure(preset, seed, seconds / 2,
                                         tmp / "traced", 0)
        wall = time.perf_counter() - start
    finally:
        tracer.uninstall()
    errors += fold.errors + check_serving(traced, serve, seed)
    if fold.quality != ref_fold.quality:
        errors.append(f"fold: traced quality {fold.quality} differs from "
                      f"untraced {ref_fold.quality}")

    endpoints = {id(graph): e for e, graph in traced.graphs.items()}
    found = tracer.metrics(wall, endpoints)
    stats = traced.service.stats
    found.update({
        "serve.batches": stats.batches,
        "serve.degraded_batches": stats.degraded_batches,
        "serve.ok": stats.ok,
        "serve.failed": stats.failed,
        "serve.rejected": stats.rejected,
        "trace.fold_overhead": (statistics.median(fold.walls)
                                / statistics.median(ref_fold.walls)),
        "trace.serve_overhead": ref_serve.score_per_s / serve.score_per_s,
    })
    metrics = {metric: float(found.get(metric, 0.0))
               for metric, _, _ in PER_LAYER}

    stem = f"{name}-seed{seed}"
    tracer.write(out_dir / f"{stem}.spans.jsonl")
    layers = tracer.layer_self_times(wall)
    report = tracing.layer_report(name, layers, wall)
    (out_dir / f"{stem}.layers.txt").write_text(report + "\n",
                                                encoding="utf-8")
    provenance = _provenance(name, seed, seconds, 1, traced, serve, fold)
    provenance["trace_spans"] = len(tracer.spans)
    return RunResult(
        correct=not errors,
        attempted=(ref_fold.attempted + fold.attempted
                   + ref_serve.submitted + serve.submitted),
        failed=(ref_fold.failed + fold.failed + ref_serve.failed
                + ref_serve.rejected + serve.failed + serve.rejected),
        metrics=metrics, provenance=provenance, errors=errors,
        report=report)
