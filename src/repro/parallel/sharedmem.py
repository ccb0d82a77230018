"""Shared-memory numpy arrays for cross-process tile kernels.

The fork pool :class:`repro.parallel.engine.SharedMemoryEngine` shares
read-only inputs by copy-on-write inheritance, but *outputs* written by
children would be lost.  :class:`SharedArray` closes that gap with
``multiprocessing.shared_memory``: the engine stages the output of an
in-place map in one shared block (or uses a caller's :class:`SharedArray`
as is), workers write their tile blocks into it, and the parent reads it
back with zero copies — the process analog of the paper's threads writing
disjoint blocks of the MI matrix in coprocessor memory.  The MI executor
never sees the staging: it hands the engine the plain output matrix.

The fused tile kernel's hoisted GEMM operands ride the same
copy-on-write channel: :func:`repro.core.exec.run_tile_plan` warms the
process-global operand cache (:func:`repro.core.mi.prepare_operands`)
*before* the engine forks, so every worker reads the one repacked copy
instead of rebuilding its own; only each worker's scratch
:class:`~repro.core.mi.TileWorkspace` is private.
"""

from __future__ import annotations

from dataclasses import dataclass
from multiprocessing import shared_memory

import numpy as np

__all__ = ["SharedArray"]


@dataclass
class SharedArray:
    """A numpy array backed by named shared memory.

    Create with :meth:`create` in the parent, pass ``handle()`` (name,
    shape, dtype — cheap to pickle) to workers, and have them
    :meth:`attach`.  The parent must call :meth:`close` (and
    :meth:`unlink` exactly once) when done; attached views call only
    :meth:`close`.

    Examples
    --------
    >>> sa = SharedArray.create((4, 4), "float64")
    >>> sa.array[:] = 0.0
    >>> dup = SharedArray.attach(*sa.handle())
    >>> dup.array[1, 2] = 7.0
    >>> float(sa.array[1, 2])
    7.0
    >>> dup.close(); sa.close(); sa.unlink()
    """

    shm: shared_memory.SharedMemory
    array: np.ndarray
    owner: bool

    @classmethod
    def create(cls, shape: tuple, dtype) -> "SharedArray":
        """Allocate a new shared block sized for ``(shape, dtype)``."""
        dtype = np.dtype(dtype)
        nbytes = int(np.prod(shape)) * dtype.itemsize
        if nbytes <= 0:
            raise ValueError(f"cannot share an empty array of shape {shape}")
        shm = shared_memory.SharedMemory(create=True, size=nbytes)
        arr = np.ndarray(shape, dtype=dtype, buffer=shm.buf)
        return cls(shm=shm, array=arr, owner=True)

    @classmethod
    def from_array(cls, source: np.ndarray) -> "SharedArray":
        """Allocate shared memory and copy ``source`` into it."""
        sa = cls.create(source.shape, source.dtype)
        sa.array[...] = source
        return sa

    @classmethod
    def attach(cls, name: str, shape: tuple, dtype) -> "SharedArray":
        """Map an existing shared block created elsewhere."""
        shm = shared_memory.SharedMemory(name=name)
        arr = np.ndarray(tuple(shape), dtype=np.dtype(dtype), buffer=shm.buf)
        return cls(shm=shm, array=arr, owner=False)

    def handle(self) -> tuple:
        """Picklable ``(name, shape, dtype-str)`` triple for workers."""
        return (self.shm.name, self.array.shape, self.array.dtype.str)

    def close(self) -> None:
        """Release this process's mapping (keeps the block alive)."""
        # Drop the numpy view first or SharedMemory.close() warns about
        # exported buffer pointers.
        self.array = None  # type: ignore[assignment]
        self.shm.close()

    def unlink(self) -> None:
        """Destroy the underlying block (owner only, call once)."""
        if not self.owner:
            raise RuntimeError("only the creating process may unlink")
        self.shm.unlink()
