"""Deterministic simulator and analysis tools for local graph-patrolling
policies on triangulation dual graphs."""

from .engine import SimConfig, Trace, init, run, run_series, step
from .generators import (FamilySpec, cycle, diamond_gadget_chain,
                         flower_barrier, four_cycle_chain, grid_triangulation,
                         path_dual)
from .graph import (DisconnectedGraphError, Graph, GraphError,
                    GraphFormatError, diameter, load_graph, save_graph)
from .metrics import (RefreshMeter, RefreshSeries, fit_growth,
                      refresh_series, vertex_peak_refresh)
from .oracle import WorstCaseResult, exhaustive_tiebreak_search, reference_run
from .ownership import (OwnerMap, OwnershipInfeasible, assign_owners,
                        verify_theorem1, verify_theorem2)
from .policies import PolicyKind, TieBreakSpec, decision_keys, tied_entries
from .triangulation import Triangulation, load_triangulation
