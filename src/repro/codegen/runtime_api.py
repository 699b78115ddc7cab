"""Runtime surface available to generated SPMD code.

Generated programs are ``exec``'d with exactly this namespace — NumPy,
the paper's communication primitives, the redistribution runtime and
:class:`~repro.errors.MachineError` for run-time preconditions — so
the emitted source documents its dependencies honestly and cannot
accidentally capture library internals.
"""

from __future__ import annotations

import numpy as np

from repro.distribution.function import Kind
from repro.distribution.runtime import redistribute
from repro.distribution.schemes import ArrayPlacement
from repro.distribution.sections import local_indices, pack_section
from repro.errors import MachineError
from repro.machine.collectives import (
    allgather,
    allreduce,
    barrier,
    bcast,
    exchange,
    gather,
    reduce,
    scatter,
    shift,
)
from repro.distribution.sparse import SparsePlacement
from repro.machine.nonblocking import NBComm, waitall, waitany
from repro.pipeline.inspector import (
    build_comm_schedule,
    gather_ghosts,
    inspector_exchange,
    spmv_local,
)
from repro.sparse.csr import csr_from_dense

RUNTIME_NAMESPACE = {
    "np": np,
    "allgather": allgather,
    "allreduce": allreduce,
    "barrier": barrier,
    "bcast": bcast,
    "exchange": exchange,
    "gather": gather,
    "reduce": reduce,
    "scatter": scatter,
    "shift": shift,
    # Typed failure of a run-time precondition (e.g. N | m for SOR).
    "MachineError": MachineError,
    # Nonblocking layer (overlapped generated code).
    "NBComm": NBComm,
    "waitall": waitall,
    "waitany": waitany,
    # Redistribution runtime (layout changes between loop phases).
    "ArrayPlacement": ArrayPlacement,
    "Kind": Kind,
    "local_indices": local_indices,
    "pack_section": pack_section,
    "redistribute": redistribute,
    # Sparse inspector/executor runtime (generated irregular sweeps).
    "SparsePlacement": SparsePlacement,
    "build_comm_schedule": build_comm_schedule,
    "csr_from_dense": csr_from_dense,
    "gather_ghosts": gather_ghosts,
    "inspector_exchange": inspector_exchange,
    "spmv_local": spmv_local,
}


def runtime_namespace() -> dict:
    """A fresh copy of the exec namespace for one generated module."""
    return dict(RUNTIME_NAMESPACE)
