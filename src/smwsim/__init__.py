"""State-dependent dispatch for closed queueing networks.

Scaled MaxWeight (SMW) demand-drop exponents, exponent-optimal scaling
vectors, jump-chain and timed simulators, an exact small-chain oracle,
and simulation-based parameter tuning.
"""

from .network import (
    Network,
    ValidationReport,
    build_network,
    load_network,
    save_network,
    symmetrize_demand,
    validate_network,
)
from .lp import LinearProgram, LpSolution, solve_lp, solve_transportation
from .exponent import (
    ExponentResult,
    PoolingViolationError,
    RatePath,
    SubsetStats,
    drainable_subsets,
    gamma,
    kl_rate,
    lyapunov,
    min_drift_speed,
    most_likely_path,
    optimal_alpha,
    uniform_alpha,
)
from .policies import (
    DROP,
    DispatchDecision,
    FluidPolicy,
    PriorityPolicy,
    SmwPolicy,
    policy_from_spec,
    vanilla_policy,
)
from .sim import (
    SimReport,
    TimedConfig,
    estimate_exponent,
    fleet_requirement,
    run_jump_chain,
    run_timed,
)
from .chain import (
    ChainSolution,
    StateSpace,
    build_chain,
    exact_exponent_curve,
    stationary_drop_probability,
)
from .tuner import TuneConfig, TuneResult, tune
from . import instances

__all__ = [name for name in dir() if not name.startswith("_")]
