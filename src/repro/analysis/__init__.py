"""Offline real-time analysis: dbf/sbf, CSA (CARTS substitute), DMPR."""

from .csa import csa_best_interface, csa_interface, default_period_candidates, is_schedulable
from .dbf import AnalysisTask, dbf, dbf_task, demand_checkpoints, hyperperiod, utilization
from .dmpr import DMPRInterface, claim_for_group, claimed_cpus, decompose
from .sbf import PeriodicResource, sbf
from .utilization import exact_utilization, minimum_cpus_dpwrap

__all__ = [
    "AnalysisTask",
    "dbf",
    "dbf_task",
    "demand_checkpoints",
    "hyperperiod",
    "utilization",
    "PeriodicResource",
    "sbf",
    "csa_interface",
    "csa_best_interface",
    "default_period_candidates",
    "is_schedulable",
    "DMPRInterface",
    "decompose",
    "claimed_cpus",
    "claim_for_group",
    "exact_utilization",
    "minimum_cpus_dpwrap",
]
