"""Shared-memory segment plane: the zero-copy scoring data plane.

Priming a :class:`~repro.runtime.executors.PooledExecutor` used to
pickle the whole segment working set — every ``TraceSegment`` with its
parent trace's ACK stream — into each worker, which then re-derived the
scoring inputs (signal table, normalized observed series, downsample,
Keogh envelope) from scratch.  The plane inverts that: the parent builds
those arrays **once** (:meth:`~repro.synth.scoring.Scorer.prepare_segments`),
packs them into ONE ``multiprocessing.shared_memory`` block, and sends
a small picklable :class:`PlaneHandle` (names, dtypes, offsets) with
every scoring chunk instead.  A worker attaches a plane the first time
a chunk names it and rebuilds numpy views over the same physical pages
— no copies, no re-derivation.

Ownership is parent-side and fleet-safe: every working set gets its own
uniquely-named plane (``repro-plane-<pid>-<token>``), so N jobs
multiplexed on one scheduler never alias each other's planes, and the
executor unlinks every plane it created on close or degradation.
Workers attach read-only views and never unlink;
:func:`attach_plane` suppresses Python's resource-tracker registration
(which fires on *attach* before 3.13) so a worker exit never unlinks a
plane out from under the parent or its siblings.

Fallback contract: the plane is the only way segments reach live
workers.  :meth:`SegmentPlane.build` returns ``None`` for inputs it
cannot pack (no segments, an empty series) or when ``/dev/shm`` is
unusable; the executor then respawns its pool with the segments in the
pool initializer — the same path hosts without ``fork`` always take,
and a planned spawn, not a crash rebuild.  Results are bit-identical
either way: the plane only changes how bytes travel.
"""

from __future__ import annotations

import os
import secrets
from dataclasses import dataclass
from typing import TYPE_CHECKING, Sequence

import numpy as np
from multiprocessing import shared_memory

from repro.trace.signals import SignalTable

if TYPE_CHECKING:  # type-only: avoid a runtime cycle with repro.synth
    from repro.synth.scoring import _SegmentEntry

__all__ = [
    "PLANE_NAME_PREFIX",
    "PlaneHandle",
    "PlaneSegment",
    "SegmentPlane",
    "attach_plane",
    "plane_segments",
]

#: Every plane's shared-memory name starts with this, so leak checks
#: (and a human inspecting ``/dev/shm``) can attribute segments to us.
PLANE_NAME_PREFIX = "repro-plane-"

#: Array starts are rounded up to this many bytes inside the block.
_ALIGN = 64


@dataclass(frozen=True)
class _ArraySpec:
    """Where one packed array lives inside the plane."""

    offset: int
    size: int  # element count
    dtype: str  # numpy dtype string, e.g. "<f8"


@dataclass(frozen=True)
class _SegmentSpec:
    """Layout of one segment's scoring arrays inside the plane."""

    mss: float
    columns: tuple[tuple[str, _ArraySpec], ...]
    observed: _ArraySpec
    downsampled: _ArraySpec
    envelope: tuple[_ArraySpec, _ArraySpec] | None


@dataclass(frozen=True)
class PlaneHandle:
    """Picklable ticket for attaching to a :class:`SegmentPlane`.

    A handle is a name plus a layout — a few hundred bytes per segment
    regardless of how long the traces are — and rides every scoring
    chunk a pool worker receives.
    """

    name: str
    nbytes: int
    segments: tuple[_SegmentSpec, ...]


class PlaneSegment:
    """Worker-side stand-in for a primed ``TraceSegment``.

    Scoring only ever needs the precomputed entry arrays, which this
    carries as views into the attached plane;
    :meth:`~repro.synth.scoring.Scorer._entry_for` recognizes the
    :meth:`plane_entry` attribute and rebuilds its ``_SegmentEntry``
    from the views instead of re-extracting signals.  Identity is
    stable while the plane stays attached (the worker holds one list
    per attach), so ``id()``-keyed score caches behave exactly as they
    do for real segments.
    """

    __slots__ = ("index", "_table", "_observed", "_downsampled", "_envelope")

    def __init__(
        self,
        index: int,
        table: SignalTable,
        observed: np.ndarray,
        downsampled: np.ndarray,
        envelope: tuple[np.ndarray, np.ndarray] | None,
    ) -> None:
        self.index = index
        self._table = table
        self._observed = observed
        self._downsampled = downsampled
        self._envelope = envelope

    def plane_entry(
        self,
    ) -> tuple[
        SignalTable,
        np.ndarray,
        np.ndarray,
        tuple[np.ndarray, np.ndarray] | None,
    ]:
        return (self._table, self._observed, self._downsampled, self._envelope)

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return f"PlaneSegment(index={self.index}, rows={len(self._table)})"


def _aligned(offset: int) -> int:
    return (offset + _ALIGN - 1) // _ALIGN * _ALIGN


class SegmentPlane:
    """One shared-memory block holding every segment's scoring arrays.

    Built (and owned) by the parent process; :attr:`handle` is what
    travels to workers.  :meth:`close` both unmaps and unlinks — the
    plane's lifetime is bounded by its owning executor, never by the
    workers attached to it (POSIX keeps the pages alive for attached
    mappings after an unlink).
    """

    def __init__(
        self, shm: shared_memory.SharedMemory, handle: PlaneHandle
    ) -> None:
        self._shm = shm
        self.handle = handle
        self._closed = False

    @property
    def name(self) -> str:
        return self.handle.name

    @property
    def nbytes(self) -> int:
        return self.handle.nbytes

    @classmethod
    def build(
        cls, entries: "Sequence[_SegmentEntry]"
    ) -> "SegmentPlane | None":
        """Pack *entries* into a fresh plane, or ``None`` when the input
        cannot be packed (no segments, or an empty table/series) or no
        block can be created — the caller then respawns its pool with
        the segments instead."""
        if not entries:
            return None
        staged: list[tuple[_ArraySpec, np.ndarray]] = []
        offset = 0

        def stage(array: np.ndarray) -> _ArraySpec | None:
            nonlocal offset
            array = np.ascontiguousarray(array)
            if array.ndim != 1 or array.size == 0:
                return None
            start = _aligned(offset)
            spec = _ArraySpec(
                offset=start, size=array.size, dtype=array.dtype.str
            )
            staged.append((spec, array))
            offset = start + array.nbytes
            return spec

        specs: list[_SegmentSpec] = []
        for entry in entries:
            table = entry.table
            if len(table) == 0:
                return None
            columns: list[tuple[str, _ArraySpec]] = []
            for name, column in table.columns.items():
                spec = stage(column)
                if spec is None:
                    return None
                columns.append((name, spec))
            observed = stage(entry.observed)
            downsampled = stage(entry.downsampled)
            if observed is None or downsampled is None:
                return None
            envelope = None
            if entry.envelope_cache is not None:
                lower = stage(entry.envelope_cache[0])
                upper = stage(entry.envelope_cache[1])
                if lower is None or upper is None:
                    return None
                envelope = (lower, upper)
            specs.append(
                _SegmentSpec(
                    mss=float(table.mss),
                    columns=tuple(columns),
                    observed=observed,
                    downsampled=downsampled,
                    envelope=envelope,
                )
            )
        shm = _create_block(offset)
        if shm is None:
            return None
        for spec, array in staged:
            np.ndarray(
                (spec.size,), dtype=spec.dtype, buffer=shm.buf, offset=spec.offset
            )[:] = array
        handle = PlaneHandle(
            name=shm.name, nbytes=offset, segments=tuple(specs)
        )
        return cls(shm, handle)

    def close(self) -> None:
        """Unmap and unlink; idempotent, never raises."""
        if self._closed:
            return
        self._closed = True
        try:
            self._shm.close()
        except (BufferError, OSError):  # pragma: no cover - defensive
            pass
        try:
            self._shm.unlink()
        except FileNotFoundError:
            pass
        except OSError:  # pragma: no cover - defensive
            pass


def _create_block(size: int) -> shared_memory.SharedMemory | None:
    """A uniquely-named block, or ``None`` when shm is unavailable."""
    for _ in range(4):
        name = f"{PLANE_NAME_PREFIX}{os.getpid()}-{secrets.token_hex(6)}"
        try:
            return shared_memory.SharedMemory(
                name=name, create=True, size=max(size, 1)
            )
        except FileExistsError:  # pragma: no cover - 48-bit collision
            continue
        except OSError:
            # No usable /dev/shm (exotic containers): fall back cleanly.
            return None
    return None  # pragma: no cover


def attach_plane(handle: PlaneHandle) -> shared_memory.SharedMemory:
    """Map an existing plane into this (worker) process.

    Before 3.13, *attaching* registers the segment with the resource
    tracker exactly as creating does, so a worker exit would unlink the
    plane out from under the parent and every sibling (and forked
    workers share the parent's tracker, so even an unregister-after-
    attach races the siblings' copies of the same name).  Suppressing
    registration around the attach restores attach-only semantics: the
    parent remains the sole registrant and the sole owner of the
    unlink.
    """
    from multiprocessing import resource_tracker

    original = resource_tracker.register
    resource_tracker.register = lambda *args, **kwargs: None
    try:
        return shared_memory.SharedMemory(name=handle.name)
    finally:
        resource_tracker.register = original


def plane_segments(
    shm: shared_memory.SharedMemory, handle: PlaneHandle
) -> list[PlaneSegment]:
    """Rebuild the working set as read-only views into *shm*."""

    def view(spec: _ArraySpec) -> np.ndarray:
        array = np.ndarray(
            (spec.size,), dtype=spec.dtype, buffer=shm.buf, offset=spec.offset
        )
        array.flags.writeable = False
        return array

    segments: list[PlaneSegment] = []
    for index, spec in enumerate(handle.segments):
        table = SignalTable(
            mss=spec.mss,
            columns={name: view(column) for name, column in spec.columns},
        )
        envelope = None
        if spec.envelope is not None:
            envelope = (view(spec.envelope[0]), view(spec.envelope[1]))
        segments.append(
            PlaneSegment(
                index=index,
                table=table,
                observed=view(spec.observed),
                downsampled=view(spec.downsampled),
                envelope=envelope,
            )
        )
    return segments
