"""Grid-based analog detailed router with symmetry and guidance support."""

from repro.router.astar import AStarRouter, CostParams
from repro.router.costfield import CostField, build_add_core
from repro.router.global_route import (
    GlobalRouteConfig,
    congestion_map,
    seed_history_from_congestion,
)
from repro.router.grid import FREE, BLOCKED, GridNode, RoutingGrid
from repro.router.guidance import AccessPoint, RoutingGuidance, uniform_guidance
from repro.router.iterative import IterativeRouter, RouterConfig
from repro.router.postprocess import DrcViolation, check_drc, post_process
from repro.router.result import NetRoute, RoutingResult

__all__ = [
    "AStarRouter",
    "CostField",
    "CostParams",
    "build_add_core",
    "FREE",
    "BLOCKED",
    "GridNode",
    "RoutingGrid",
    "GlobalRouteConfig",
    "congestion_map",
    "seed_history_from_congestion",
    "AccessPoint",
    "RoutingGuidance",
    "uniform_guidance",
    "IterativeRouter",
    "RouterConfig",
    "DrcViolation",
    "check_drc",
    "post_process",
    "NetRoute",
    "RoutingResult",
]
