"""Workload generators: periodic (rt-app), sporadic, video, memcached, background."""

from .arrivals import ArrivalMux
from .background import add_background_vms
from .memcached import (
    MEMCACHED_PERIOD_NS,
    MEMCACHED_SLICE_NS,
    MemcachedService,
)
from .netdelay import NetLink
from .periodic import TABLE1_GROUPS, TABLE5_GROUPS, PeriodicDriver, RTASpec
from .sporadic import SporadicDriver
from .video import (
    TABLE3_PROFILES,
    DynamicStreamingWorkload,
    SessionRecord,
    StreamingSession,
    StreamProfile,
)

__all__ = [
    "ArrivalMux",
    "NetLink",
    "RTASpec",
    "TABLE1_GROUPS",
    "TABLE5_GROUPS",
    "PeriodicDriver",
    "SporadicDriver",
    "StreamProfile",
    "TABLE3_PROFILES",
    "StreamingSession",
    "DynamicStreamingWorkload",
    "SessionRecord",
    "MemcachedService",
    "MEMCACHED_PERIOD_NS",
    "MEMCACHED_SLICE_NS",
    "add_background_vms",
]
