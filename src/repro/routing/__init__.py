"""Cage routing CAD: A*, the wavefront batch router, greedy baseline."""

from .astar import (
    MOVES_8,
    WAIT,
    ObstacleMap,
    RoutingError,
    astar_route,
    chebyshev_heuristic,
    distance_field,
    downhill_path,
    path_moves,
)
from .greedy import GreedyRouter, make_requests
from .multi import BatchPlan, BatchRouter, RoutingRequest, WavefrontRouter

__all__ = [name for name in dir() if not name.startswith("_")]
