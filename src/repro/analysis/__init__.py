"""Analysis: text tables and the per-experiment runners."""

from .ablations import (
    false_sharing_table,
    hw_vs_sw_prefetch_table,
    lookahead_window_table,
    prefetch_bandwidth_table,
    protocol_table,
    rob_size_table,
    slb_size_table,
)
from .gantt import compare_schedules, render_schedule
from .summary import CpuSummary, MachineSummary, summarize, summary_table
from .scaling import barrier_scaling_table, cpu_scaling_table
from .experiments import (
    TECHNIQUES,
    delay_arc_matrix,
    detailed_equalization_table,
    equalization_table,
    example_cycle_table,
    figure5_report,
    latency_sweep_table,
    litmus_outcome_table,
    related_work_table,
    rmw_handoff_table,
    rollback_cost_table,
    stall_breakdown_table,
    traffic_table,
)
from .tables import Table

__all__ = [
    "TECHNIQUES",
    "CpuSummary",
    "MachineSummary",
    "Table",
    "barrier_scaling_table",
    "compare_schedules",
    "cpu_scaling_table",
    "delay_arc_matrix",
    "render_schedule",
    "detailed_equalization_table",
    "equalization_table",
    "example_cycle_table",
    "false_sharing_table",
    "figure5_report",
    "hw_vs_sw_prefetch_table",
    "latency_sweep_table",
    "litmus_outcome_table",
    "lookahead_window_table",
    "prefetch_bandwidth_table",
    "protocol_table",
    "related_work_table",
    "rob_size_table",
    "slb_size_table",
    "summarize",
    "summary_table",
    "rmw_handoff_table",
    "rollback_cost_table",
    "stall_breakdown_table",
    "traffic_table",
]
