"""Pool-assisted potential relaxation (Section 4.3, Figure 2(b)).

L-BFGS minimizes ``V(C)`` from many initializations.  A pool of the
``pool_size`` lowest-potential solutions is maintained; once the pool is
full, a fraction ``p_relax`` of subsequent restarts re-initialize from a
pool member with Gaussian noise added — the paper's noisy-restart escape
from local optima.  The top ``n_derive`` solutions are returned.

Restarts degrade independently: a restart that diverges to a non-finite
potential or guidance (or raises a
:class:`~repro.reliability.errors.RelaxationError` from the potential
evaluation) is dropped and recorded in the trace instead of aborting the
run.  Only when *no* restart survives does :meth:`PotentialRelaxer.run`
raise, with the trace attached for diagnosis.
"""

from __future__ import annotations

import math
import time

from dataclasses import dataclass, field

import numpy as np
from scipy.optimize import minimize

from repro.core.potential import PotentialFunction
from repro.obs import NULL_CONTEXT, RunContext
from repro.reliability.errors import RelaxationError
from repro.reliability.faults import poison


@dataclass(frozen=True)
class RelaxationConfig:
    """Relaxation knobs.

    Attributes:
        n_restarts: total L-BFGS runs.
        pool_size: ``N_pool``, retained lowest-potential solutions.
        p_relax: fraction of restarts seeded from the pool once full.
        n_derive: ``N_derive``, solutions returned.
        noise_sigma: std of the noise added to pool-seeded restarts.
        maxiter: L-BFGS iteration cap per restart.
        init_low: lower bound of the uniform initial distribution.
        init_high: upper bound of the uniform initial distribution.
        seed_points: how many restarts are initialized from caller-provided
            guidance points (Figure 2(b): restarts sample from the routing
            guidance distributions of the database, not only from a uniform
            prior).
        seed: RNG seed.
    """

    n_restarts: int = 12
    pool_size: int = 6
    p_relax: float = 0.5
    n_derive: int = 3
    noise_sigma: float = 0.3
    maxiter: int = 40
    init_low: float = 0.5
    init_high: float = 2.0
    seed_points: int = 2
    seed: int = 0

    def __post_init__(self) -> None:
        for name in ("n_restarts", "pool_size", "n_derive"):
            if getattr(self, name) < 1:
                raise ValueError(
                    f"{name} must be >= 1, got {getattr(self, name)}")
        if self.n_derive > self.pool_size:
            raise ValueError(
                f"n_derive {self.n_derive} exceeds pool_size {self.pool_size}"
            )
        if not 0.0 <= self.p_relax <= 1.0:
            raise ValueError(f"p_relax must be in [0, 1], got {self.p_relax}")
        if not (math.isfinite(self.noise_sigma) and self.noise_sigma >= 0):
            raise ValueError(
                f"noise_sigma must be finite and >= 0, got "
                f"{self.noise_sigma}")
        if self.maxiter <= 0:
            raise ValueError(f"maxiter must be positive, got {self.maxiter}")
        if not 0 <= self.seed_points <= self.n_restarts:
            raise ValueError(
                f"seed_points must be in [0, n_restarts={self.n_restarts}], "
                f"got {self.seed_points}"
            )
        if not self.init_low < self.init_high:
            raise ValueError(
                f"init_low {self.init_low} must be below init_high "
                f"{self.init_high}")


@dataclass
class RelaxedGuidance:
    """One relaxation outcome.

    Attributes:
        guidance: (num_aps, 3) optimized guidance array.
        potential: final potential value.
        from_pool: whether the restart was seeded from the pool.
    """

    guidance: np.ndarray
    potential: float
    from_pool: bool = False


@dataclass
class RelaxationTrace:
    """Diagnostics of one relaxation run (reset at each :meth:`run`).

    Attributes:
        restarts: restarts that completed and entered pool selection.
        pool_seeded: restarts initialized from a pool member.
        diverged: restarts dropped for non-finite potential/guidance.
        failures: per-dropped-restart descriptions, e.g.
            ``"restart 3: non-finite potential nan"``.
        best_per_restart: best pool potential after each kept restart —
            non-increasing by construction (the pool only improves).
        restart_seconds: duration per attempted restart, in restart
            order, measured on the monotonic ``time.perf_counter``
            clock.  Durations are load-sensitive; tests must assert
            monotonicity/shape, never absolute values.
        restart_evals: potential evaluations per attempted restart.
        gnn_forwards: GNN forward-backward passes the whole run executed.
    """

    restarts: int = 0
    pool_seeded: int = 0
    diverged: int = 0
    failures: list[str] = field(default_factory=list)
    best_per_restart: list[float] = field(default_factory=list)
    restart_seconds: list[float] = field(default_factory=list)
    restart_evals: list[int] = field(default_factory=list)
    gnn_forwards: int = 0


class PotentialRelaxer:
    """Runs pool-assisted relaxation over a :class:`PotentialFunction`.

    With an enabled ``obs`` context, every attempted restart emits a
    ``relax.restart`` span (outcome ``ok`` / ``diverged``, with its eval
    count and pool-seeding flag), reusing the trace's own perf_counter
    measurements; the run's totals feed the ``relax_forwards_total`` and
    ``relax_evals_total`` counters.
    """

    def __init__(self, config: RelaxationConfig | None = None,
                 obs: RunContext | None = None) -> None:
        self.config = config or RelaxationConfig()
        self.obs = obs if obs is not None else NULL_CONTEXT
        self.trace = RelaxationTrace()

    def run(
        self,
        potential: PotentialFunction,
        seed_guidance: list[np.ndarray] | None = None,
    ) -> list[RelaxedGuidance]:
        """Derive the top-``n_derive`` guidance solutions.

        Args:
            potential: the trained potential function.
            seed_guidance: optional (num_aps, 3) arrays to initialize the
                first ``seed_points`` restarts from (the database's
                best-performing guidance points, per Figure 2(b)).

        Raises:
            RelaxationError: every restart diverged; the trace rides in
                ``details["trace"]``.
        """
        cfg = self.config
        # Fresh diagnostics per run; a reused relaxer must not accumulate.
        self.trace = RelaxationTrace()
        rng = np.random.default_rng(cfg.seed)
        seeds = list(seed_guidance or [])[: cfg.seed_points]
        start_forwards = potential.stats.forwards
        start_evals = potential.stats.evals
        n_vars = potential.num_variables
        margin = 1e-3
        bounds = [(margin, potential.c_max - margin)] * n_vars

        pool: list[RelaxedGuidance] = []
        for restart in range(cfg.n_restarts):
            from_pool = len(pool) >= cfg.pool_size and rng.random() < cfg.p_relax
            if restart < len(seeds):
                x0 = self._seed_point(seeds[restart], n_vars)
                from_pool = False
            elif from_pool:
                seed_sol = pool[rng.integers(len(pool))]
                x0 = seed_sol.guidance.reshape(-1) + rng.normal(
                    0.0, cfg.noise_sigma, size=n_vars
                )
                self.trace.pool_seeded += 1
            else:
                x0 = rng.uniform(cfg.init_low, cfg.init_high, size=n_vars)
            x0 = np.clip(x0, margin * 2, potential.c_max - margin * 2)

            evals_before = potential.stats.evals
            started = time.perf_counter()
            failure = None
            try:
                result = minimize(
                    potential.value_and_grad,
                    x0,
                    jac=True,
                    method="L-BFGS-B",
                    bounds=bounds,
                    options={"maxiter": cfg.maxiter},
                )
            except RelaxationError as exc:
                failure = exc
            elapsed = time.perf_counter() - started
            evals = potential.stats.evals - evals_before
            self.trace.restart_seconds.append(elapsed)
            self.trace.restart_evals.append(evals)
            if failure is None:
                kept = self._keep(pool, restart, result.x, float(result.fun),
                                  from_pool, potential)
            else:
                kept = False
                self.trace.diverged += 1
                self.trace.failures.append(f"restart {restart}: {failure}")
            self.obs.emit_span("relax.restart", elapsed,
                               outcome="ok" if kept else "diverged",
                               restart=restart, evals=evals,
                               from_pool=from_pool)

        self.trace.gnn_forwards = potential.stats.forwards - start_forwards
        self.obs.counter("relax_forwards_total").inc(
            self.trace.gnn_forwards)
        self.obs.counter("relax_evals_total").inc(
            potential.stats.evals - start_evals)

        if not pool:
            raise RelaxationError(
                f"all {cfg.n_restarts} relaxation restarts diverged",
                stage="relaxation",
                details={
                    "trace": {
                        "diverged": self.trace.diverged,
                        "failures": list(self.trace.failures),
                    }
                },
            )
        return pool[: cfg.n_derive]

    @staticmethod
    def _seed_point(seed_guidance: np.ndarray, n_vars: int) -> np.ndarray:
        x0 = np.asarray(seed_guidance, dtype=float).reshape(-1)
        if x0.shape != (n_vars,):
            raise ValueError(
                f"seed guidance has {x0.size} values, expected {n_vars}"
            )
        return x0

    def _keep(self, pool: list[RelaxedGuidance], restart: int,
              x: np.ndarray, raw_value: float, from_pool: bool,
              potential: PotentialFunction) -> bool:
        """Fold one finished restart into the pool.

        Returns whether the restart survived (``False`` = diverged).
        """
        cfg = self.config
        value = poison("relaxation", raw_value)
        if not np.isfinite(value):
            self.trace.diverged += 1
            self.trace.failures.append(
                f"restart {restart}: non-finite potential {value}")
            return False
        if not np.isfinite(x).all():
            self.trace.diverged += 1
            self.trace.failures.append(
                f"restart {restart}: non-finite guidance")
            return False
        margin = 1e-3
        solution = RelaxedGuidance(
            guidance=np.clip(x, margin, potential.c_max - margin)
            .reshape(potential.graph.num_aps, 3),
            potential=value,
            from_pool=from_pool,
        )
        pool.append(solution)
        pool.sort(key=lambda s: s.potential)
        del pool[cfg.pool_size:]
        self.trace.restarts += 1
        self.trace.best_per_restart.append(pool[0].potential)
        return True
