"""The seven loop-distribution algorithms of paper Table II, the CUTOFF
device-selection heuristic, and the roofline-based algorithm selector."""

from repro.sched.base import LoopScheduler, SchedContext, BARRIER, Decision
from repro.sched.base import PlannedScheduler
from repro.sched.block import BlockScheduler
from repro.sched.dynamic import DynamicScheduler
from repro.sched.guided import GuidedScheduler
from repro.sched.model1 import Model1Scheduler
from repro.sched.model2 import Model2Scheduler
from repro.sched.profile_const import ProfileScheduler
from repro.sched.profile_model import ModelProfileScheduler
from repro.sched.align_sched import AlignedScheduler
from repro.sched.history import HistoryDB, HistoryScheduler
from repro.sched.stream_rebalance import StreamRebalanceScheduler
from repro.sched.worksteal import WorkStealingScheduler
from repro.sched.cutoff import apply_cutoff, default_cutoff_ratio, parse_cutoff_ratio
from repro.sched.registry import (
    SCHEDULERS,
    make_scheduler,
    ALGORITHM_TABLE,
    EXTENSION_TABLE,
    AlgorithmInfo,
)
from repro.sched.selector import select_algorithm

__all__ = [
    "LoopScheduler",
    "PlannedScheduler",
    "SchedContext",
    "BARRIER",
    "Decision",
    "BlockScheduler",
    "DynamicScheduler",
    "GuidedScheduler",
    "Model1Scheduler",
    "Model2Scheduler",
    "ProfileScheduler",
    "ModelProfileScheduler",
    "AlignedScheduler",
    "HistoryDB",
    "HistoryScheduler",
    "StreamRebalanceScheduler",
    "WorkStealingScheduler",
    "apply_cutoff",
    "default_cutoff_ratio",
    "parse_cutoff_ratio",
    "SCHEDULERS",
    "make_scheduler",
    "ALGORITHM_TABLE",
    "EXTENSION_TABLE",
    "AlgorithmInfo",
    "select_algorithm",
]
