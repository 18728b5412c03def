"""Outside-in span tracer: wraps the layers' public functions from here.

Nothing under ``src/`` knows about tracing. ``Tracer.install`` resolves
each seam by dotted name (a class attribute, or a module global such as
``repro.engine.pipeline.execute_plan``), replaces it with a timing
wrapper, and ``Tracer.restore`` puts the originals back. A seam that no
longer resolves is listed in ``Tracer.missing`` and skipped, so a rename
under ``src/`` costs that seam's per-layer numbers and nothing else.

Spans live in parallel lists (name id, start, end, parent index) with a
parent stack; ``aggregate`` turns one traced pass into per-name counts
and self times, where self time is a span's duration minus the
durations of its direct children.
"""

from __future__ import annotations

import functools
import importlib
import json
import time

import numpy as np

#: Root span opened around each chunk of a traced pass.
ROOT = "bench.chunk"
#: Span around the tracer's own per-call hooks (kept out of the layers).
HOOK = "bench.hook"


def resolve(dotted: str):
    """Return ``(owner, attribute)`` for a dotted name, or raise.

    The longest importable prefix is the module; the rest are attribute
    hops. Raises ``ImportError`` or ``AttributeError`` when the seam no
    longer exists.
    """
    parts = dotted.split(".")
    for cut in range(len(parts) - 1, 0, -1):
        try:
            owner = importlib.import_module(".".join(parts[:cut]))
        except ImportError:
            continue
        for hop in parts[cut:-1]:
            owner = getattr(owner, hop)
        getattr(owner, parts[-1])
        return owner, parts[-1]
    raise ImportError(f"no importable module in {dotted!r}")


class Tracer:
    """In-memory span recorder plus the monkeypatching that feeds it."""

    def __init__(self) -> None:
        self.names: list[str] = []
        self._name_ids: dict[str, int] = {}
        self.span_name: list[int] = []
        self.span_start: list[float] = []
        self.span_end: list[float] = []
        self.span_parent: list[int] = []
        self._stack: list[int] = []
        #: Dotted names that did not resolve at install time.
        self.missing: list[str] = []
        #: Unwrapped callables by dotted name (hooks call these so their
        #: own work never shows up as a layer span).
        self.originals: dict[str, object] = {}
        self._patched: list[tuple[object, str, bool, object]] = []

    # ------------------------------------------------------------------
    def name_id(self, name: str) -> int:
        index = self._name_ids.get(name)
        if index is None:
            index = self._name_ids[name] = len(self.names)
            self.names.append(name)
        return index

    def wrap(self, name: str, fn, hook=None):
        """Timing wrapper recording one span per call of ``fn``.

        ``hook(args, kwargs, result)`` runs after the span closed, inside
        its own ``bench.hook`` span, so counters it derives cost the
        layers nothing.
        """
        nid = self.name_id(name)
        names, starts, ends, parents = (
            self.span_name,
            self.span_start,
            self.span_end,
            self.span_parent,
        )
        stack = self._stack
        clock = time.perf_counter
        if hook is not None:
            hook = self.wrap(HOOK, hook)

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            index = len(names)
            names.append(nid)
            parents.append(stack[-1] if stack else -1)
            ends.append(0.0)
            stack.append(index)
            starts.append(clock())
            try:
                result = fn(*args, **kwargs)
            finally:
                ends[index] = clock()
                stack.pop()
            if hook is not None:
                hook(args, kwargs, result)
            return result

        return traced

    # ------------------------------------------------------------------
    def install(self, seams, hooks=None) -> None:
        """Patch every ``(span name, dotted name)`` seam that resolves."""
        hooks = hooks or {}
        self.missing = []
        for name, dotted in seams:
            try:
                owner, attr = resolve(dotted)
            except (ImportError, AttributeError):
                self.missing.append(dotted)
                continue
            own = attr in vars(owner)
            original = vars(owner)[attr] if own else getattr(owner, attr)
            self.originals[dotted] = original
            self._patched.append((owner, attr, own, original))
            setattr(owner, attr, self.wrap(name, original, hooks.get(dotted)))

    def restore(self) -> None:
        """Undo ``install`` (safe to call twice)."""
        while self._patched:
            owner, attr, own, original = self._patched.pop()
            if own:
                setattr(owner, attr, original)
            else:
                delattr(owner, attr)

    def reset(self) -> None:
        """Drop recorded spans (names and patches stay)."""
        del self.span_name[:], self.span_start[:], self.span_end[:]
        del self.span_parent[:], self._stack[:]

    # ------------------------------------------------------------------
    def aggregate(self) -> dict[str, dict]:
        """Per span name: outermost ``calls``, ``self_s``, ``durations``.

        A call nested directly inside a span of the same name (a cache
        wrapper forwarding to the tier it wraps) is one logical call, so
        only the outermost counts; its self time still adds up under the
        shared name.
        """
        name = np.asarray(self.span_name, dtype=np.int64)
        parent = np.asarray(self.span_parent, dtype=np.int64)
        duration = np.asarray(self.span_end) - np.asarray(self.span_start)
        child_time = np.bincount(
            parent[parent >= 0], weights=duration[parent >= 0], minlength=name.size
        )
        self_time = duration - child_time
        outermost = (parent < 0) | (name[np.maximum(parent, 0)] != name)
        out: dict[str, dict] = {}
        for nid, label in enumerate(self.names):
            mask = name == nid
            if not mask.any():
                continue
            out[label] = {
                "calls": int((mask & outermost).sum()),
                "self_s": float(self_time[mask].sum()),
                "durations": duration[mask & outermost],
            }
        return out

    def chrome_trace(self, workload: str) -> dict:
        """The recorded spans as Chrome trace-event JSON (``ph: X``)."""
        origin = self.span_start[0] if self.span_start else 0.0
        events = [
            {
                "name": self.names[nid],
                "ph": "X",
                "pid": 1,
                "tid": 1,
                "ts": (start - origin) * 1e6,
                "dur": (end - start) * 1e6,
                "args": {"span": index, "parent": parent, "workload": workload},
            }
            for index, (nid, start, end, parent) in enumerate(
                zip(self.span_name, self.span_start, self.span_end, self.span_parent)
            )
        ]
        return {"traceEvents": events, "displayTimeUnit": "ms"}

    def write_chrome_trace(self, path: str, workload: str) -> None:
        with open(path, "w", encoding="utf-8") as handle:
            json.dump(self.chrome_trace(workload), handle)
