"""Scheduling: timing analysis, list/force-directed schedulers, pipelining."""

from repro.sched.exact import ExactResult, exact_minimum_schedule
from repro.sched.force_directed import force_directed_schedule
from repro.sched.list_scheduler import ListSchedulingFailure, list_schedule
from repro.sched.minimize import MinimizeResult, minimize_resources
from repro.sched.modulo import (
    ModuloResult,
    ModuloSchedulingError,
    minimize_initiation_interval,
    modulo_schedule,
    resource_mii,
)
from repro.sched.pipeline import (
    PipelineSpec,
    pipelined_minimize,
    require_feasible,
    slack_gained,
)
from repro.sched.resources import (
    Allocation,
    UNIT_COST,
    lower_bound_allocation,
    single_unit_allocation,
    unbounded_allocation,
)
from repro.sched.schedule import Schedule, ScheduleError
from repro.sched.timing import (
    InfeasibleScheduleError,
    TimingFrame,
    alap_times,
    asap_times,
    critical_path_length,
    try_timing,
)

__all__ = [
    "Allocation",
    "InfeasibleScheduleError",
    "ListSchedulingFailure",
    "MinimizeResult",
    "ModuloResult",
    "ModuloSchedulingError",
    "PipelineSpec",
    "Schedule",
    "ScheduleError",
    "TimingFrame",
    "UNIT_COST",
    "alap_times",
    "asap_times",
    "ExactResult",
    "critical_path_length",
    "exact_minimum_schedule",
    "force_directed_schedule",
    "list_schedule",
    "lower_bound_allocation",
    "minimize_initiation_interval",
    "minimize_resources",
    "modulo_schedule",
    "pipelined_minimize",
    "require_feasible",
    "resource_mii",
    "single_unit_allocation",
    "slack_gained",
    "try_timing",
    "unbounded_allocation",
]
