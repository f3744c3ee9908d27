"""Two-settlement electricity market clearing and VRE bid-curve optimization."""

from .model import (
    BidCurve,
    ConventionalUnit,
    Instance,
    Line,
    Network,
    Scenario,
    ScenarioSet,
    SystemParams,
    VreUnit,
    expected_vre,
    validate,
)
from .lp import LpModel, LpSolution, LpStatus, SolverError, solve
from .dam import DamInfeasibleError, DaSchedule, build_dam, clear_dam
from .rtm import RtDispatch, build_rtm, clear_rtm, expected_rt_cost
from .policies import (
    ComparisonTable,
    PolicyResult,
    compare,
    evaluate_bids,
    myopic,
    stochastic,
)
from .bilevel import (
    BilevelSolution,
    TheoremReport,
    collapse_to_single_segment,
    oracle_grid_search,
    price_sweep,
    solve_bid,
    solve_bid_q,
    verify_theorem1,
    vre_profit,
)
from .io import bundled_instance, load_bids, load_instance, save_bids, save_instance

__version__ = "0.1.0"
