"""Equivalence and unit tests for the A* router.

The router must be *bit-identical* to the seed router kept in
``tests/router_oracle.py``: same paths, same expansion counts, for every
guidance vector and mode.  These tests pin that contract — single
connections under hypothesis-generated obstacles and guidance, whole
``route_all`` runs on every built-in OTA — plus input validation, cost
field reuse, and the expansion counter.
"""

import numpy as np
import pytest
from hypothesis import HealthCheck, given, settings, strategies as st

from repro.netlist import build_benchmark
from repro.obs import RunContext
from repro.placement import place_benchmark
from repro.reliability.errors import RoutingError
from repro.router import (
    BLOCKED,
    AStarRouter,
    IterativeRouter,
    RoutingGrid,
    build_add_core,
)
from repro.router.astar import _STAMP_MAX
from repro.router.guidance import RoutingGuidance, random_guidance
from tests.router_oracle import ReferenceRouter


def _free_cell(grid, layer=1, start=(0, 0)):
    for ix in range(start[0], grid.nx):
        for iy in range(start[1], grid.ny):
            if grid.occupancy[ix, iy, layer] == -1:
                return (ix, iy, layer)
    raise AssertionError("no free cell found")


class TestInputValidation:
    """Satellite (a): poisoned inputs raise RoutingError, shapes ValueError."""

    def _route(self, grid, **kwargs):
        router = AStarRouter(grid)
        net = grid.net_names[0]
        src = _free_cell(grid, layer=1)
        dst = _free_cell(grid, layer=1, start=(src[0] + 2, 0))
        return router.route_connection(net, {src}, {dst}, **kwargs)

    @pytest.mark.parametrize("bad", [
        np.array([np.nan, 1.0, 1.0]),
        np.array([1.0, np.inf, 1.0]),
        np.array([1.0, 1.0, -0.5]),
    ])
    def test_poisoned_guidance_raises_routing_error(self, fresh_grid, bad):
        with pytest.raises(RoutingError):
            self._route(fresh_grid, guidance_vec=bad)

    def test_guidance_shape_stays_value_error(self, fresh_grid):
        with pytest.raises(ValueError, match="shape"):
            self._route(fresh_grid, guidance_vec=np.array([1.0, 1.0]))

    def test_poisoned_layer_multipliers_raise_routing_error(self, fresh_grid):
        nl = fresh_grid.num_layers
        for bad in (np.full(nl, np.nan), -np.ones(nl)):
            with pytest.raises(RoutingError):
                self._route(fresh_grid, layer_multipliers=bad)

    def test_layer_multiplier_length_stays_value_error(self, fresh_grid):
        with pytest.raises(ValueError, match="entries"):
            self._route(fresh_grid,
                        layer_multipliers=np.ones(fresh_grid.num_layers + 1))

    def test_routing_error_reaches_reference_engine_too(self, fresh_grid):
        router = ReferenceRouter(fresh_grid)
        net = fresh_grid.net_names[0]
        src = _free_cell(fresh_grid, layer=1)
        with pytest.raises(RoutingError):
            router.route_connection(net, {src}, {src},
                                    guidance_vec=np.array([np.nan, 1, 1]))



def _route_one(grid, router_cls, src, dst, guid, soft):
    router = router_cls(grid)
    path = router.route_connection(grid.net_names[0], {src}, {dst},
                                   guidance_vec=guid, soft=soft)
    return path, router.expansions_total


class TestEngineEquivalence:
    """The router returns the oracle's exact path and expansion count,
    under randomized obstacles, guidance, and mode."""

    @settings(max_examples=30, deadline=None,
              suppress_health_check=[HealthCheck.function_scoped_fixture])
    @given(
        seed=st.integers(0, 2**32 - 1),
        n_blocks=st.integers(0, 60),
        gx=st.sampled_from([0.25, 0.5, 1.0, 1.5, 2.0, 0.3, 1.1]),
        gy=st.sampled_from([0.25, 1.0, 2.0, 0.7]),
        gz=st.sampled_from([0.5, 1.0, 2.0, 1.3]),
        soft=st.booleans(),
    )
    def test_engines_match_reference(self, fresh_grid, seed, n_blocks,
                                     gx, gy, gz, soft):
        grid = fresh_grid
        saved = grid.occupancy.copy()
        try:
            rng = np.random.default_rng(seed)
            free = np.argwhere(grid.occupancy == -1)
            picks = rng.choice(len(free), size=min(n_blocks, len(free) - 2),
                               replace=False)
            for idx in picks:
                x, y, layer = free[idx]
                grid.occupancy[x, y, layer] = BLOCKED
            still_free = np.argwhere(grid.occupancy == -1)
            s_idx, t_idx = rng.choice(len(still_free), size=2, replace=False)
            src = tuple(int(v) for v in still_free[s_idx])
            dst = tuple(int(v) for v in still_free[t_idx])
            guid = np.array([gx, gy, gz])

            ref_path, ref_exp = _route_one(grid, ReferenceRouter, src, dst,
                                           guid, soft)
            path, exp = _route_one(grid, AStarRouter, src, dst, guid, soft)
            assert path == ref_path
            assert exp == ref_exp
        finally:
            grid.occupancy[:] = saved

    def test_generation_wraparound_is_harmless(self, fresh_grid):
        """uint32 stamp wraparound resets stamps instead of aliasing."""
        grid = fresh_grid
        net = grid.net_names[0]
        src = _free_cell(grid, layer=1)
        dst = _free_cell(grid, layer=1, start=(src[0] + 3, 0))
        expected = AStarRouter(grid).route_connection(net, {src}, {dst})
        assert expected is not None

        for router_cls, state_getter in (
            (AStarRouter, AStarRouter._get_list_state),
            (ReferenceRouter, ReferenceRouter._get_ref_state),
        ):
            router = router_cls(grid)
            assert router.route_connection(net, {src}, {dst}) == expected
            state = state_getter(router)
            state.generation = _STAMP_MAX
            # Next search wraps: stamps reset to 0, generation restarts at
            # 1, and the stale stamps from the first search cannot alias.
            assert router.route_connection(net, {src}, {dst}) == expected
            assert state.generation == 1


class TestCostFieldReuse:
    def test_field_cache_reused_across_targets(self, fresh_grid):
        grid = fresh_grid
        net = grid.net_names[0]
        core = build_add_core(grid, net=net, soft=False,
                              present_penalty=25.0, history_weight=1.0)
        src = _free_cell(grid, layer=1)
        dst1 = _free_cell(grid, layer=1, start=(src[0] + 2, 0))
        dst2 = _free_cell(grid, layer=1, start=(src[0] + 4, 1))

        router = AStarRouter(grid)
        p1 = router.route_connection(net, {src}, {dst1}, add_core=core)
        p2 = router.route_connection(net, {src}, {dst2}, add_core=core)
        assert len(core.field_cache) == 1  # same (guid, mult, mode) key

        fresh = AStarRouter(grid)
        assert p1 == fresh.route_connection(net, {src}, {dst1})
        assert p2 == fresh.route_connection(net, {src}, {dst2})

    def test_distinct_guidance_gets_distinct_fields(self, fresh_grid):
        grid = fresh_grid
        net = grid.net_names[0]
        core = build_add_core(grid, net=net, soft=False,
                              present_penalty=25.0, history_weight=1.0)
        src = _free_cell(grid, layer=1)
        dst = _free_cell(grid, layer=1, start=(src[0] + 2, 0))
        router = AStarRouter(grid)
        router.route_connection(net, {src}, {dst}, add_core=core)
        router.route_connection(net, {src}, {dst}, add_core=core,
                                guidance_vec=np.array([2.0, 1.0, 1.0]))
        assert len(core.field_cache) == 2


def _routed(placement, tech, guidance_seed, oracle):
    """``route_all`` on a fresh grid: (paths, failed nets, expansions)."""
    grid = RoutingGrid(placement, tech)
    guidance = RoutingGuidance()
    if guidance_seed is not None:
        keys = [ap.key for aps in grid.access_points.values() for ap in aps]
        guidance = random_guidance(keys, np.random.default_rng(guidance_seed))
    router = IterativeRouter(grid, guidance)
    if oracle:
        router.astar = ReferenceRouter(grid, router.config.cost)
    result = router.route_all()
    paths = {name: tuple(tuple(p) for p in route.paths)
             for name, route in result.routes.items()}
    return paths, result.failed_nets, router.astar.expansions_total


class TestRouteAllIdentity:
    """Whole-circuit routing matches the oracle on every built-in OTA,
    neutral and guided: rip-up, negotiation and history included."""

    @pytest.fixture(scope="class")
    def placements(self):
        return {name: place_benchmark(build_benchmark(name), variant="A",
                                      seed=0, iterations=200)
                for name in ("OTA1", "OTA2", "OTA3")}

    @pytest.mark.parametrize("guidance_seed", [None, 7],
                             ids=["neutral", "guided"])
    @pytest.mark.parametrize("circuit", ["OTA1", "OTA2", "OTA3"])
    def test_route_all_matches_oracle(self, placements, tech, circuit,
                                      guidance_seed):
        placement = placements[circuit]
        ours = _routed(placement, tech, guidance_seed, oracle=False)
        oracle = _routed(placement, tech, guidance_seed, oracle=True)
        assert ours == oracle
        assert ours[2] > 0


class TestRouterObservability:
    def test_expansion_counters_by_mode(self, ota1_placement, tech):
        obs = RunContext.recording()
        grid = RoutingGrid(ota1_placement, tech)
        router = IterativeRouter(grid, obs=obs)
        router.route_all()
        counters = obs.metrics.counter_values()
        total = router.astar.expansions_total
        assert total > 0
        assert counters["route_expansions_total"] == total
        assert router.astar.expansions_by_mode == {"scalar": total}
