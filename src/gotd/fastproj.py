"""Retired: every pair projects onto ker Dh within T_M through
``algorithm.tangent_intersection_project``.  The module stays only
because the benchmark's tracer imports it by name and checks this
re-export."""
from .solvers import pcg  # noqa: F401
