"""Stochastic Newell stop-and-go wave simulator with intelligent-vehicle mitigation."""

from .model import (
    ConfigurationError,
    ModelParams,
    SpacingContext,
    VehicleKind,
    desired_spacing,
    effective_sigma,
    equilibrium_speed,
    next_speed,
)
from .scenario import (
    CollisionError,
    FleetConfig,
    Geometry,
    OpenRoad,
    Ring,
    RunRecord,
    ScenarioState,
    init_scenario,
    place_intelligent,
    run,
    run_with_rng,
    step,
)
from .metrics import (
    MetricError,
    OverTimeStdCurve,
    PerVehicleStdCurve,
    default_window,
    growth_exponent,
    over_time_std,
    per_vehicle_std,
    reduction_pct,
)
from .ensemble import (
    CompareRow,
    EnsembleCurve,
    EnsembleSpec,
    build_fleet,
    compare_kinds,
    run_ensemble,
    run_seed_sequence,
)

__version__ = "0.1.0"
