"""Span recorder for the traced run.

Public functions of each layer are wrapped at runtime from here; the
package's source is not patched. Each call becomes one span: its name,
the phase and cycle it ran in, its parent span, its duration, and up to
two integers describing the work (bytes, rows, checks). Spans live in
flat arrays until the run ends, when they are aggregated. A span's self
time is its duration minus the time covered by its child spans.
"""

from __future__ import annotations

import os
import time
from array import array
from collections import defaultdict
from statistics import median

from decisiondb import canon, cli, replay, sweep
from decisiondb.store import Store


def _blob_is_new(args, kwargs):
    store, data = args[0], args[1]
    return 0 if os.path.exists(store._blob_path(canon.payload_hash(data))) else 1


def _replay_info(args, kwargs, result):
    return len(result.checks), len(result.mismatches())


# (owner, attribute, span name, info(args, kwargs, result) -> (a, b), pre(args, kwargs) -> b)
_TARGETS = (
    (canon, "canonical_encode", "canon.encode", lambda a, k, r: (len(r), 0), None),
    (canon, "canonical_decode", "canon.decode", None, None),
    (Store, "put_blob", "store.put_blob", None, _blob_is_new),
    (Store, "get_blob", "store.get_blob", None, None),
    (Store, "read_blob_unverified", "store.read_blob_unverified", None, None),
    (Store, "put_record", "store.put_record", lambda a, k, r: (int(r == "inserted"), 0), None),
    (Store, "get_record", "store.get_record", None, None),
    (Store, "query_fmap", "store.query_fmap", lambda a, k, r: (len(r), 0), None),
    (Store, "table_counts", "store.table_counts", None, None),
    (sweep, "extract_decision", "policy.extract", None, None),
    (sweep, "declare_representations", "sweep.declare", None, None),
    (sweep, "execute_sweep", "sweep.execute", None, None),
    (sweep, "refine_boundary", "sweep.refine", None, None),
    (sweep, "load_plan", "sweep.load_plan", None, None),
    (sweep, "materialize_map", "sweep.materialize_map", None, None),
    (sweep, "classify_axis", "sweep.classify_axis", None, None),
    (replay, "replay_entry", "replay.entry", _replay_info, None),
    (cli, "main", "cli.main", None, None),
)


class _Traced:
    """Stands in for a factory or engine, recording a span per call."""

    def __init__(self, tracer, inner, method, span):
        self.name = inner.name
        self.version = inner.version
        setattr(self, method, tracer.wrap(getattr(inner, method), span))


class Tracer:
    def __init__(self):
        self.active = False
        self.tag = 0
        self.tags: list[tuple[int, str]] = []
        self._tag_ids: dict[tuple[int, str], int] = {}
        self.span_names: list[str] = []
        self._name_ids: dict[str, int] = {}
        self.span_name = array("i")
        self.span_tag = array("i")
        self.parent = array("i")
        self.dur = array("q")
        self.child = array("q")
        self.info_a = array("q")
        self.info_b = array("q")
        self._stack: list[int] = []
        self._saved: list[tuple[object, str, object]] = []

    def set_phase(self, cycle: int, phase: str) -> None:
        key = (cycle, phase)
        if key not in self._tag_ids:
            self._tag_ids[key] = len(self.tags)
            self.tags.append(key)
        self.tag = self._tag_ids[key]

    def wrap(self, fn, span, info=None, pre=None):
        if span not in self._name_ids:
            self._name_ids[span] = len(self.span_names)
            self.span_names.append(span)
        nid = self._name_ids[span]
        stack, dur, child = self._stack, self.dur, self.child
        clock = time.perf_counter_ns

        def traced(*args, **kwargs):
            i = len(dur)
            parent = stack[-1] if stack else -1
            b = pre(args, kwargs) if pre else 0
            self.span_name.append(nid)
            self.span_tag.append(self.tag)
            self.parent.append(parent)
            dur.append(0)
            child.append(0)
            self.info_a.append(0)
            self.info_b.append(b)
            stack.append(i)
            start = clock()
            try:
                result = fn(*args, **kwargs)
            finally:
                elapsed = clock() - start
                stack.pop()
                dur[i] = elapsed
                if parent >= 0:
                    child[parent] += elapsed
            if info:
                self.info_a[i], self.info_b[i] = info(args, kwargs, result)
            return result

        traced.__wrapped__ = fn
        return traced

    def plugin(self, inner, method: str, span: str):
        return _Traced(self, inner, method, span)

    def install(self) -> None:
        for owner, attr, span, info, pre in _TARGETS:
            original = getattr(owner, attr)
            self._saved.append((owner, attr, original))
            setattr(owner, attr, self.wrap(original, span, info, pre))
        self.active = True

    def uninstall(self) -> None:
        while self._saved:
            owner, attr, original = self._saved.pop()
            setattr(owner, attr, original)
        self.active = False

    # -- aggregation ---------------------------------------------------

    def aggregate(self):
        """Per (tag, span name): [calls, self ns, total ns, sum a, sum b]."""
        agg = defaultdict(lambda: [0, 0, 0, 0, 0])
        names = self.span_names
        for i in range(len(self.dur)):
            row = agg[(self.span_tag[i], names[self.span_name[i]])]
            row[0] += 1
            row[1] += self.dur[i] - self.child[i]
            row[2] += self.dur[i]
            row[3] += self.info_a[i]
            row[4] += self.info_b[i]
        return agg

    def durations(self, span: str, tags) -> list[int]:
        """Sorted durations (ns) of one span name within the given tags."""
        nid = self._name_ids.get(span)
        return sorted(
            self.dur[i]
            for i in range(len(self.dur))
            if self.span_name[i] == nid and self.span_tag[i] in tags
        )


def percentile(sorted_values, q: float) -> float:
    """Nearest-rank percentile; 0 when there are no samples."""
    if not sorted_values:
        return 0.0
    rank = max(1, -(-int(q * 1000) * len(sorted_values) // 1000))
    return float(sorted_values[min(rank, len(sorted_values)) - 1])


class Summary:
    """Per-phase medians over the traced cycles a phase ran in.

    A quantity for a set of phases is the sum, over those phases, of the
    median of that quantity across the phase's traced occurrences.
    Counts repeat exactly from cycle to cycle, so their medians are the
    per-cycle counts.
    """

    def __init__(self, tracer: Tracer, samples):
        self.tracer = tracer
        self.agg = tracer.aggregate()
        # Repeats of a phase within one cycle are summed into one occurrence.
        self.samples = defaultdict(list)
        for s in samples:
            if s.traced:
                self.samples[tracer.tags.index((s.cycle, s.phase))].append(s)
        self.occurrences = defaultdict(list)
        for tag in sorted(self.samples):
            self.occurrences[tracer.tags[tag][1]].append(tag)

    def span(self, names, field: int, phases=None) -> float:
        if isinstance(names, str):
            names = (names,)
        total = 0.0
        for phase, tags in self.occurrences.items():
            if phases is not None and phase not in phases:
                continue
            total += median(
                sum(self.agg[(tag, n)][field] for n in names if (tag, n) in self.agg)
                for tag in tags
            )
        return total

    def durations(self, span: str, phases=None):
        tags = {
            tag
            for phase, tags in self.occurrences.items()
            if phases is None or phase in phases
            for tag in tags
        }
        return self.tracer.durations(span, tags)

    def phase_stat(self, fn, phases=None) -> float:
        total = 0.0
        for phase, tags in self.occurrences.items():
            if phases is not None and phase not in phases:
                continue
            total += median(sum(fn(s) for s in self.samples[tag]) for tag in tags)
        return total

    def breakdown(self):
        """Per phase: mean traced wall time and each layer's mean self time (ms).

        The "unattributed" entry is wall time no wrapped span covered, so
        each phase's entries sum to its wall time.
        """
        rows = {}
        for phase, tags in self.occurrences.items():
            n = len(tags)
            wall = sum(s.wall for t in tags for s in self.samples[t]) * 1e3 / n
            layers = defaultdict(float)
            for (tag, name), row in self.agg.items():
                if tag in tags:
                    layers[name.split(".")[0]] += row[1] / 1e6 / n
            layers["unattributed"] = wall - sum(layers.values())
            rows[phase] = (wall, dict(layers))
        return rows
