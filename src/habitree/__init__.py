"""habitree: finite-event-tree engine for habit-forming power-utility
consumption/investment problems, consumption/wealth bounds, large-endowment
asymptotics, and Arrow-Debreu equilibrium pricing."""

from .asymptotics import (
    AsymptoticsReport,
    artificial_solution,
    habit_chain_floors,
    check_ratio_floors,
    propensity_sweep,
)
from .equilibrium import (
    EconomyAgent,
    EconomySpec,
    EquilibriumResult,
    IIDEconomy,
    beta_sensitivity,
    bond_curve,
    bond_derivative_beta,
    bond_price,
    excess_demand,
    heterogeneous_equilibrium,
    homogeneous_conditions,
    homogeneous_spd,
    long_run_yield,
    lucas_curve,
    lucas_longrun,
    lucas_price,
)
from .errors import (
    ConditionError,
    ConvergenceError,
    HabitreeError,
    InfeasibleProblemError,
    MarketError,
    SchemaError,
)
from .estimates import (
    BoundCoefficients,
    SandwichReport,
    bound_coefficients,
    check_sandwich,
    delta_identity_gap,
    upper_hedging,
)
from .market import (
    Asset,
    MarketSpec,
    SpdPair,
    complete_market_from_spd,
    compute_aggregate_spd,
    intermediate_partitions,
    perturbed_spd,
    present_value,
    project,
    spd_pair,
    static_habit_matrix,
    validate_market_class,
)
from .optimizer import (
    AgentSpec,
    SolveResult,
    brute_force_oracle,
    budget_gap,
    evaluate_utility,
    foc_residual,
    solve_consumption,
)
from .tree import (
    AdaptedProcess,
    EventTree,
    Partition,
    cond_essinf,
    cond_esssup,
    cond_expectation,
    cond_expectation_on,
    node_probability,
)

__version__ = "0.1.0"
