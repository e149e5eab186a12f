"""Cache substrate: the LRU stack oracle, the stack-distance replay front
door (which the ATD calls directly) and the warm-up contents every replay
starts from, the repartition transient (:mod:`repro.cache.partition`) and
the private-hierarchy stall model."""

from repro.cache.lru import LRUStack
from repro.cache.replay import prewarm_tags, replay_access_stream, resolve_engine
from repro.cache.hierarchy import PrivateHierarchyModel

__all__ = [
    "LRUStack",
    "prewarm_tags",
    "replay_access_stream",
    "resolve_engine",
    "PrivateHierarchyModel",
]
