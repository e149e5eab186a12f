"""Cache substrate: LRU stacks, the stack-distance replay front door,
way-partitioned set-associative LLC model, partition bitmask bookkeeping
and the private-hierarchy stall model."""

from repro.cache.lru import LRUStack
from repro.cache.replay import replay_access_stream, resolve_engine
from repro.cache.setassoc import SetAssociativeLRU, prewarm_tags
from repro.cache.partition import WayPartition, allocation_to_masks
from repro.cache.hierarchy import PrivateHierarchyModel

__all__ = [
    "LRUStack",
    "SetAssociativeLRU",
    "prewarm_tags",
    "replay_access_stream",
    "resolve_engine",
    "WayPartition",
    "allocation_to_masks",
    "PrivateHierarchyModel",
]
