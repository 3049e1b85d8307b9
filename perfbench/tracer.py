"""In-memory span tracer that wraps regeval's layer boundaries from outside.

The program is not changed: `Tracer.install` replaces the listed functions and
methods with timing wrappers (in their defining module and in every regeval
module that imported them by name) and `Tracer.uninstall` puts them back.

Each call of a wrapped function becomes a span (id, name, start, end, parent
id, thread). Functions called hundreds of thousands of times per stage are
instead aggregated per (name, parent name) into a call count and total
seconds, which keeps memory bounded. A call from a pool thread that has no
open span of its own gets the innermost open span of the installing thread
as parent, so harness lane spans nest under `harness.execute_run`.
"""

from __future__ import annotations

import contextlib
import functools
import itertools
import json
import sys
import threading
import time
from pathlib import Path

# (module, attribute path, span name, aggregate-only)
WRAPPED = (
    ("regeval.harness", "build_prompt_items", "harness.build_prompt_items", False),
    ("regeval.harness", "execute_run", "harness.execute_run", False),
    ("regeval.harness", "load_responses", "harness.load_responses", False),
    ("regeval.harness", "MockTransport.send", "harness.send", False),
    ("regeval.harness", "FailingTransport.send", "harness.send", False),
    ("regeval.harness", "ReplayTransport.send", "harness.send", False),
    ("regeval.harness", "ReplayTransport.__init__", "harness.replay_init", False),
    ("regeval.jurisdiction", "JurisdictionRegistry.canonicalize_article",
     "jurisdiction.canonicalize_article", True),
    ("regeval.ingest", "parse_responses", "ingest.parse_responses", False),
    ("regeval.ingest", "parse_prediction_text", "ingest.parse_prediction_text", True),
    ("regeval.ingest", "write_prediction_files", "ingest.write_prediction_files", False),
    ("regeval.ingest", "load_prediction_files", "ingest.load_prediction_files", False),
    ("regeval.ingest", "bind_predictions", "ingest.bind_predictions", False),
    ("regeval.retrieval", "gold_keys_for_records", "retrieval.gold_keys_for_records", False),
    ("regeval.retrieval", "match_keys", "retrieval.match_keys", False),
    ("regeval.retrieval", "evaluate_task1", "retrieval.evaluate_task1", False),
    ("regeval.multilabel", "evaluate_task2", "multilabel.evaluate_task2", False),
    ("regeval.composites", "compose", "composites.compose", False),
    ("regeval.composites", "rcs_scores", "composites.rcs_scores", False),
    ("regeval.report", "build_base_results", "report.build_base_results", False),
    ("regeval.report", "emit_results", "report.emit_results", False),
    ("regeval.shaping", "shape_views", "shaping.shape_views", False),
    ("regeval.shaping", "load_task1_view", "shaping.load_view", False),
    ("regeval.shaping", "load_task2_view", "shaping.load_view", False),
    ("regeval.synthetic", "generate_corpus", "synthetic.generate_corpus", False),
    ("regeval.synthetic", "scripted_model", "synthetic.scripted_model", False),
    ("regeval.corpus", "load_dataset", "corpus.load_dataset", False),
    ("json", "dumps", "json.dumps", True),
    ("json", "loads", "json.loads", True),
)


class Tracer:
    def __init__(self) -> None:
        self.spans: list[tuple[int, str, float, float, int | None, int]] = []
        self._aggregates: list[dict[tuple[str, str | None], list]] = []
        self._agg_lock = threading.Lock()
        self._local = threading.local()
        self._ids = itertools.count(1).__next__
        self._names: dict[int, str] = {}
        self._main_stack: list[int] = []
        self._restore: list[tuple[object, str, object]] = []
        self._owner = threading.current_thread()

    # --- recording ---------------------------------------------------------------

    def _stack(self) -> list[int]:
        stack = getattr(self._local, "stack", None)
        if stack is None:
            stack = self._main_stack if threading.current_thread() is self._owner else []
            self._local.stack = stack
        return stack

    def _parent(self, stack: list[int]) -> int | None:
        if stack:
            return stack[-1]
        return self._main_stack[-1] if self._main_stack else None

    def _aggregate(self) -> dict:
        agg = getattr(self._local, "agg", None)
        if agg is None:
            agg = {}
            self._local.agg = agg
            with self._agg_lock:
                self._aggregates.append(agg)
        return agg

    def _enter(self, name: str) -> tuple[int, int | None, float]:
        stack = self._stack()
        parent = self._parent(stack)
        span_id = self._ids()
        self._names[span_id] = name
        stack.append(span_id)
        return span_id, parent, time.perf_counter()

    def _exit(self, name: str, opened: tuple[int, int | None, float]) -> None:
        end = time.perf_counter()
        span_id, parent, start = opened
        self._stack().pop()
        self.spans.append((span_id, name, start, end, parent, threading.get_ident()))

    @contextlib.contextmanager
    def span(self, name: str):
        """Record one span around a block; used for whole CLI stages."""
        opened = self._enter(name)
        try:
            yield
        finally:
            self._exit(name, opened)

    def _wrap(self, fn, name: str, aggregate: bool):
        tracer = self
        if aggregate:
            @functools.wraps(fn)
            def counted(*args, **kwargs):
                start = time.perf_counter()
                try:
                    return fn(*args, **kwargs)
                finally:
                    elapsed = time.perf_counter() - start
                    parent = tracer._parent(tracer._stack())
                    key = (name, tracer._names.get(parent))
                    agg = tracer._aggregate()
                    cell = agg.get(key)
                    if cell is None:
                        agg[key] = [1, elapsed]
                    else:
                        cell[0] += 1
                        cell[1] += elapsed
            return counted

        @functools.wraps(fn)
        def spanned(*args, **kwargs):
            opened = tracer._enter(name)
            try:
                return fn(*args, **kwargs)
            finally:
                tracer._exit(name, opened)
        return spanned

    # --- installation ------------------------------------------------------------

    def install(self) -> None:
        regeval_modules = [m for n, m in sys.modules.items() if n.startswith("regeval")]
        for module_name, path, name, aggregate in WRAPPED:
            owner = sys.modules[module_name]
            *outer, attr = path.split(".")
            for part in outer:
                owner = getattr(owner, part)
            original = owner.__dict__[attr] if isinstance(owner, type) else getattr(owner, attr)
            wrapped = self._wrap(original, name, aggregate)
            self._restore.append((owner, attr, original))
            setattr(owner, attr, wrapped)
            if not outer:
                for module in regeval_modules:
                    if module is not owner and getattr(module, attr, None) is original:
                        self._restore.append((module, attr, original))
                        setattr(module, attr, wrapped)

    def uninstall(self) -> None:
        while self._restore:
            owner, attr, original = self._restore.pop()
            setattr(owner, attr, original)

    # --- results -----------------------------------------------------------------

    def aggregates(self) -> dict[tuple[str, str | None], list]:
        """[calls, seconds] per (name, parent name), merged over threads."""
        merged: dict[tuple[str, str | None], list] = {}
        with self._agg_lock:
            for agg in self._aggregates:
                for key, (calls, seconds) in agg.items():
                    cell = merged.setdefault(key, [0, 0.0])
                    cell[0] += calls
                    cell[1] += seconds
        return merged

    def totals(self) -> dict[str, list]:
        """[calls, summed seconds] per span or aggregate name."""
        out: dict[str, list] = {}
        for _id, name, start, end, _parent, _thread in self.spans:
            cell = out.setdefault(name, [0, 0.0])
            cell[0] += 1
            cell[1] += end - start
        for (name, _parent), (calls, seconds) in self.aggregates().items():
            cell = out.setdefault(name, [0, 0.0])
            cell[0] += calls
            cell[1] += seconds
        return out

    def self_seconds(self, name: str, child: str) -> float:
        """Summed duration of `name` spans minus the union of the `child`
        spans that descend from them (children may overlap across threads)."""
        parents = {s[0]: s[4] for s in self.spans}
        total = 0.0
        for span_id, span_name, start, end, _p, _t in self.spans:
            if span_name != name:
                continue
            intervals = sorted(
                (s[2], s[3]) for s in self.spans if s[1] == child and _descends(s[0], span_id, parents)
            )
            covered, reach = 0.0, start
            for lo, hi in intervals:
                covered += max(0.0, hi - max(lo, reach))
                reach = max(reach, hi)
            total += (end - start) - covered
        return total

    def write(self, path: Path) -> None:
        origin = min((s[2] for s in self.spans), default=0.0)
        payload = {
            "spans": [
                {"id": i, "name": n, "start": s - origin, "end": e - origin, "parent": p, "thread": t}
                for i, n, s, e, p, t in sorted(self.spans, key=lambda s: s[2])
            ],
            "aggregates": [
                {"name": n, "parent": p, "calls": c, "seconds": sec}
                for (n, p), (c, sec) in sorted(self.aggregates().items(), key=lambda kv: (kv[0][0], kv[0][1] or ""))
            ],
        }
        path.write_text(json.dumps(payload) + "\n", encoding="utf-8")


def _descends(span_id: int, ancestor: int, parents: dict[int, int | None]) -> bool:
    current = parents.get(span_id)
    while current is not None:
        if current == ancestor:
            return True
        current = parents.get(current)
    return False
