"""Real shared-memory (multiprocessing) backend of the paper's strategies."""

from .guard import WorkerCrashed
from .pool import AlignmentWorkerPool, MpBlockedConfig, MpWavefrontConfig, PoolJobError
from .shm import (
    ArenaHandle,
    SequenceArena,
    SharedArray,
    attach_shared_array,
    create_shared_array,
)

__all__ = [
    "AlignmentWorkerPool",
    "ArenaHandle",
    "MpBlockedConfig",
    "MpWavefrontConfig",
    "PoolJobError",
    "SequenceArena",
    "SharedArray",
    "WorkerCrashed",
    "attach_shared_array",
    "create_shared_array",
]
