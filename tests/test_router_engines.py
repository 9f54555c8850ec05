"""Equivalence and unit tests for the A* router.

The router must be *bit-identical* to the seed router kept in
``tests/router_oracle.py``: same paths for every guidance vector and
mode, and the same expansion count on every search it runs.  Hard-mode
connections with no passable path are proven unreachable from component
labels and never searched; the oracle must fail each of them.  These
tests pin that contract — single connections under hypothesis-generated
obstacles and guidance, whole ``route_all`` runs on every built-in OTA
compared call by call — plus the reachability pre-check, input
validation, cost field reuse, and the router counters.
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
from repro.router import astar as astar_module
from repro.router.astar import _STAMP_MAX
from repro.router.guidance import RoutingGuidance, random_guidance
from tests.router_oracle import (
    ReferenceRouter,
    connection_parity,
    record_connections,
)


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
    return path, router.expansions_total, router.unreachable_total


class TestEngineEquivalence:
    """The router returns the oracle's exact path, and its expansion count
    whenever it searches, under randomized obstacles, guidance, and
    mode."""

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

            ref_path, ref_exp, _ = _route_one(grid, ReferenceRouter, src,
                                              dst, guid, soft)
            path, exp, skipped = _route_one(grid, AStarRouter, src, dst,
                                            guid, soft)
            assert path == ref_path
            if skipped:
                assert not soft
                assert path is None and exp == 0
            else:
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
    """``route_all`` on a fresh grid: (paths, failed nets, calls, obs)."""
    grid = RoutingGrid(placement, tech)
    guidance = RoutingGuidance()
    if guidance_seed is not None:
        keys = [ap.key for aps in grid.access_points.values() for ap in aps]
        guidance = random_guidance(keys, np.random.default_rng(guidance_seed))
    obs = RunContext.recording()
    router = IterativeRouter(grid, guidance, obs=obs)
    if oracle:
        router.astar = ReferenceRouter(grid, router.config.cost)
    calls = record_connections(router.astar)
    result = router.route_all()
    paths = {name: tuple(tuple(p) for p in route.paths)
             for name, route in result.routes.items()}
    return paths, result.failed_nets, calls, obs.counter_values()


class TestRouteAllIdentity:
    """Whole-circuit routing matches the oracle call by call on every
    built-in OTA, neutral and guided: rip-up, negotiation and history
    included."""

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
        paths, failed, calls, counters = _routed(
            placement, tech, guidance_seed, oracle=False)
        ref_paths, ref_failed, ref_calls, _ = _routed(
            placement, tech, guidance_seed, oracle=True)
        assert (paths, failed) == (ref_paths, ref_failed)
        assert connection_parity(calls, ref_calls) == []
        assert sum(c.expansions for c in calls) > 0
        # Every scenario has hard-mode connections with no passable path,
        # so the pre-check is exercised on each.
        skipped = sum(c.skipped for c in calls)
        assert skipped > 0
        assert counters["route_unreachable_total"] == skipped
        assert counters["route_expansions_total"] == sum(
            c.expansions for c in calls)


class TestReachabilityPrecheck:
    """Hard mode proves unreachable targets from component labels."""

    @staticmethod
    def _wall_in(grid, cell):
        x, y, layer = cell
        for dx, dy, dz in ((1, 0, 0), (-1, 0, 0), (0, 1, 0), (0, -1, 0),
                           (0, 0, 1), (0, 0, -1)):
            nb = (x + dx, y + dy, layer + dz)
            if (0 <= nb[0] < grid.nx and 0 <= nb[1] < grid.ny
                    and 0 <= nb[2] < grid.num_layers):
                grid.occupancy[nb] = BLOCKED

    def test_walled_in_target_is_not_searched(self, fresh_grid,
                                              monkeypatch):
        grid = fresh_grid
        net = grid.net_names[0]
        src = _free_cell(grid, layer=1)
        dst = _free_cell(grid, layer=1, start=(src[0] + 4, 2))
        self._wall_in(grid, dst)
        assert ReferenceRouter(grid).route_connection(
            net, {src}, {dst}) is None

        def no_cost_field(*args, **kwargs):
            raise AssertionError("CostField built for an unreachable target")

        monkeypatch.setattr(astar_module, "CostField", no_cost_field)
        router = AStarRouter(grid)
        assert router.route_connection(net, {src}, {dst}) is None
        assert router.expansions_total == 0
        assert router.unreachable_total == 1

    def test_reachable_through_impassable_sources_neighbour(self,
                                                           fresh_grid):
        grid = fresh_grid
        net = grid.net_names[0]
        src = _free_cell(grid, layer=1, start=(3, 3))
        dst = _free_cell(grid, layer=1, start=(src[0] + 5, 2))
        # The source is impassable and so are all of its neighbours but
        # +x: the search can only leave it through that one cell.
        self._wall_in(grid, src)
        grid.occupancy[src] = BLOCKED
        exit_cell = (src[0] + 1, src[1], src[2])
        grid.occupancy[exit_cell] = -1
        router = AStarRouter(grid)
        core = build_add_core(grid, net=net, soft=False,
                              present_penalty=25.0, history_weight=1.0)
        assert core.reaches({src}, {dst})
        path = router.route_connection(net, {src}, {dst}, add_core=core)
        oracle = ReferenceRouter(grid)
        assert path == oracle.route_connection(net, {src}, {dst})
        assert path[:2] == [src, exit_cell]
        assert router.expansions_total == oracle.expansions_total
        assert router.unreachable_total == 0

    def test_target_in_sources(self, fresh_grid):
        grid = fresh_grid
        net = grid.net_names[0]
        cell = _free_cell(grid, layer=1)
        grid.occupancy[cell] = BLOCKED  # impassable, yet a source
        router = AStarRouter(grid)
        assert router.route_connection(net, {cell}, {cell}) == [cell]
        assert router.unreachable_total == 0

    def test_tiny_budget_still_searches(self, fresh_grid):
        grid = fresh_grid
        net = grid.net_names[0]
        router = AStarRouter(grid)
        path = router.route_connection(
            net, {(2, 2, 1)}, {(grid.nx - 2, grid.ny - 2, 1)},
            max_expansions=3)
        assert path is None
        assert router.expansions_total == 3
        assert router.unreachable_total == 0

    def test_poisoned_guidance_raises_before_precheck(self, fresh_grid):
        grid = fresh_grid
        net = grid.net_names[0]
        src = _free_cell(grid, layer=1)
        dst = _free_cell(grid, layer=1, start=(src[0] + 4, 2))
        self._wall_in(grid, dst)
        router = AStarRouter(grid)
        with pytest.raises(RoutingError):
            router.route_connection(net, {src}, {dst},
                                    guidance_vec=np.array([np.nan, 1, 1]))
        assert router.unreachable_total == 0

    def test_labels_follow_occupancy_per_core(self, fresh_grid):
        grid = fresh_grid
        net_a, net_b = grid.net_names[:2]
        src = _free_cell(grid, layer=1, start=(1, 0))
        dst = _free_cell(grid, layer=1, start=(src[0] + 6, 0))
        wall_x = src[0] + 3

        def reaches():
            core = build_add_core(grid, net=net_a, soft=False,
                                  present_penalty=25.0, history_weight=1.0)
            return core, core.reaches({src}, {dst})

        open_core, ok = reaches()
        assert ok
        for iy in range(grid.ny):
            for layer in range(grid.num_layers):
                grid.claim((wall_x, iy, layer), net_b)
        walled_core, ok = reaches()
        assert not ok
        # A core keeps the labels of the grid state it was built from.
        assert open_core.reaches({src}, {dst})
        grid.release_net(net_b)
        _, ok = reaches()
        assert ok
        assert not walled_core.reaches({src}, {dst})


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
        assert counters["route_unreachable_total"] == \
            router.astar.unreachable_total
        assert router.astar.expansions_by_mode == {"scalar": total}
