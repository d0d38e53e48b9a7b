"""Guest OS model: tasks, VCPUs, guest schedulers, the VM abstraction."""

from .gedf import GEDFGuestScheduler
from .params import VCPUParams, derive_vcpu_params, fits_on_vcpu
from .pedf import PEDFGuestScheduler
from .port import CrossLayerPort, LocalPort, ParamUpdate
from .task import Job, Task, TaskKind, make_background_task
from .vcpu import VCPU
from .vm import VM

__all__ = [
    "Job",
    "Task",
    "TaskKind",
    "make_background_task",
    "VCPU",
    "VM",
    "VCPUParams",
    "derive_vcpu_params",
    "fits_on_vcpu",
    "PEDFGuestScheduler",
    "GEDFGuestScheduler",
    "CrossLayerPort",
    "LocalPort",
    "ParamUpdate",
]
