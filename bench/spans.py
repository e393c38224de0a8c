"""Span recording for the benchmark's traced runs.

A :class:`Tracer` records one span per call into a wrapped function:
name, start, end, parent, pid, plus the workload/rep/job labels the
benchmark sets.  Nothing under ``src/`` knows about it: :meth:`Tracer.patch`
swaps a public function or method for a timing wrapper in every module
that bound it by name (``repro.synth.scoring.replay_batch`` as well as
``repro.synth.replay.replay_batch``), and :meth:`Tracer.unpatch` puts the
originals back.

Pool workers are forked from the traced process, so they inherit the
wrappers.  A worker keeps its spans in memory while a top-level span is
open and appends them to ``spans-<pid>.jsonl`` in the tracer's directory
when it closes; the parent reads those files back in :meth:`collect`.
Worker spans carry no parent; the ledger links them to the parent-side
wave that was open when they started.

Times come from :func:`time.perf_counter`, which is ``CLOCK_MONOTONIC``
on Linux and therefore one time base for the parent and its workers.
"""

from __future__ import annotations

import functools
import glob
import importlib
import json
import os
import sys
import time
from typing import Any, Callable

CLOCK = time.perf_counter

#: Hook run before the span opens: ``enter(tracer, args, kwargs) -> state``.
Enter = Callable[["Tracer", tuple, dict], Any]
#: Hook run after the call returns, once the span's end time is taken:
#: ``leave(span, state, args, kwargs, result)`` may add ``span["attrs"]``.
#: Its own time is not the wrapped call's.
Leave = Callable[[dict, Any, tuple, dict, Any], None]


class Tracer:
    """Collects spans in this process and in the workers it forks."""

    def __init__(self, directory: str) -> None:
        self.directory = directory
        os.makedirs(directory, exist_ok=True)
        self.main_pid = os.getpid()
        #: Labels stamped on every parent-side span (workload, rep, job).
        self.labels: dict[str, Any] = {}
        self._pid = self.main_pid
        self._spans: list[dict] = []
        self._stack: list[dict] = []
        self._serial = 0
        #: ``(owner, attribute, original)`` for every patched binding.
        self._patches: list[tuple[Any, str, Any]] = []

    # -- spans ---------------------------------------------------------

    def begin(self, name: str, **attrs: Any) -> dict:
        """Open a span named *name* under the innermost open span."""
        pid = os.getpid()
        if pid != self._pid:
            # First span in a forked worker: the copied buffer and stack
            # belong to the parent, which records them itself.
            self._pid = pid
            self._spans = []
            self._stack = []
        self._serial += 1
        span = {
            "id": f"{pid}:{self._serial}",
            "name": name,
            "pid": pid,
            "parent": self._stack[-1]["id"] if self._stack else None,
            "start": CLOCK(),
            "end": None,
            "attrs": attrs,
        }
        if pid == self.main_pid:
            span.update(self.labels)
        self._stack.append(span)
        return span

    def end(self, span: dict, at: float | None = None) -> None:
        """Close *span* (at time *at*, default now); it must be innermost."""
        span["end"] = CLOCK() if at is None else at
        if not self._stack or self._stack[-1] is not span:
            raise RuntimeError(f"span {span['name']!r} closed out of order")
        self._stack.pop()
        self._spans.append(span)
        if not self._stack and span["pid"] != self.main_pid:
            self._flush()

    def _flush(self) -> None:
        path = os.path.join(self.directory, f"spans-{self._pid}.jsonl")
        with open(path, "a", encoding="utf-8") as handle:
            for span in self._spans:
                handle.write(json.dumps(span) + "\n")
        self._spans = []

    def collect(self) -> list[dict]:
        """Every finished span so far, parent and workers; then forget them.

        Call it once the workers of the traced code have exited (the
        executors close their pools before returning), so no worker is
        still appending.
        """
        spans, self._spans = self._spans, []
        for path in sorted(
            glob.glob(os.path.join(self.directory, "spans-*.jsonl"))
        ):
            with open(path, encoding="utf-8") as handle:
                for line in handle:
                    if line.strip():
                        spans.append(json.loads(line))
            os.remove(path)
        return spans

    # -- patching ------------------------------------------------------

    def wrap(
        self,
        name: str,
        function: Callable,
        enter: Enter | None = None,
        leave: Leave | None = None,
    ) -> Callable:
        """*function* wrapped in a span named *name*."""
        tracer = self

        @functools.wraps(function)
        def traced(*args, **kwargs):
            state = enter(tracer, args, kwargs) if enter else None
            span = tracer.begin(name)
            try:
                result = function(*args, **kwargs)
            except BaseException:
                tracer.end(span)
                raise
            finished = CLOCK()
            if leave is not None:
                leave(span, state, args, kwargs, result)
            tracer.end(span, finished)
            return result

        return traced

    def patch(
        self,
        module_name: str,
        path: str,
        name: str,
        enter: Enter | None = None,
        leave: Leave | None = None,
    ) -> None:
        """Wrap ``module.path`` (``"function"`` or ``"Class.method"``).

        A method is replaced on its class, which every caller reaches it
        through.  A function is replaced in its own module and in every
        loaded ``repro`` module that imported it by name.
        """
        module = importlib.import_module(module_name)
        if "." in path:
            class_name, attribute = path.split(".")
            owner = getattr(module, class_name)
            raw = owner.__dict__[attribute]
            if isinstance(raw, classmethod):
                wrapped: Any = classmethod(
                    self.wrap(name, raw.__func__, enter, leave)
                )
            else:
                wrapped = self.wrap(name, raw, enter, leave)
            self._patches.append((owner, attribute, raw))
            setattr(owner, attribute, wrapped)
            return
        original = getattr(module, path)
        wrapped = self.wrap(name, original, enter, leave)
        for loaded in list(sys.modules.values()):
            if (
                getattr(loaded, "__name__", "").startswith("repro")
                and getattr(loaded, path, None) is original
            ):
                self._patches.append((loaded, path, original))
                setattr(loaded, path, wrapped)

    def unpatch(self) -> None:
        """Restore every binding :meth:`patch` replaced."""
        while self._patches:
            owner, attribute, original = self._patches.pop()
            setattr(owner, attribute, original)
