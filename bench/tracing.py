"""Span tracing for the benchmark's traced mode.

``instrument`` replaces the public functions of each ghreplay module at
the names their callers look up (``ghreplay.trainer.backward``,
``ghreplay.linalg.matmul``, ``EpisodicMemory.observe_batch``, ...) with
wrappers that record one span per call: name, start, end, parent, the
index of the last span opened inside it, and an optional work size (rows,
records, windows). Spans stay in compact arrays until the run ends; then
self time is each span's duration minus the durations of its direct
children. The program itself is not changed.
"""

from __future__ import annotations

import time
from array import array
from contextlib import contextmanager

import numpy as np


class Tracer:
    def __init__(self) -> None:
        self.names: list[str] = []
        self._name_ids: dict[str, int] = {}
        self.name_id = array("H")
        self.parent = array("i")
        self.last = array("i")
        self.start = array("d")
        self.end = array("d")
        self.work = array("d")
        self._open = [-1]

    def name_index(self, name: str) -> int:
        if name not in self._name_ids:
            self._name_ids[name] = len(self.names)
            self.names.append(name)
        return self._name_ids[name]

    def wrap(self, fn, name: str, work=None):
        """``fn`` recording a span per call; ``work(args, result)`` sizes the call."""
        nid = self.name_index(name)
        name_id, parent, last, start, end, sizes, opened = (
            self.name_id, self.parent, self.last, self.start, self.end, self.work, self._open
        )
        clock = time.perf_counter

        def traced(*args, **kwargs):
            sid = len(start)
            name_id.append(nid)
            parent.append(opened[-1])
            last.append(sid)
            end.append(0.0)
            sizes.append(0.0)
            opened.append(sid)
            start.append(clock())
            try:
                result = fn(*args, **kwargs)
            finally:
                end[sid] = clock()
                opened.pop()
                last[sid] = len(start) - 1
            if work is not None:
                sizes[sid] = work(args, result)
            return result

        return traced

    def spans(self) -> "Spans":
        return Spans(self)


class Spans:
    """Array view of a finished trace, with self times."""

    def __init__(self, tracer: Tracer) -> None:
        self.names = list(tracer.names)
        self.name_id = np.frombuffer(tracer.name_id, dtype=np.uint16).astype(np.int64)
        self.parent = np.frombuffer(tracer.parent, dtype=np.int32).astype(np.int64)
        self.last = np.frombuffer(tracer.last, dtype=np.int32).astype(np.int64)
        self.duration = np.frombuffer(tracer.end) - np.frombuffer(tracer.start)
        self.work = np.frombuffer(tracer.work).copy()
        has_parent = self.parent >= 0
        child_time = np.bincount(
            self.parent[has_parent], weights=self.duration[has_parent], minlength=len(self.duration)
        )
        self.self_time = self.duration - child_time

    def roots(self, name: str) -> list[int]:
        """Indices of top-level spans with this name, in call order."""
        if name not in self.names:
            return []
        nid = self.names.index(name)
        return np.flatnonzero((self.name_id == nid) & (self.parent < 0)).tolist()

    def within(self, root: int) -> "Window":
        return Window(self, root)


class Window:
    """The spans of one top-level span: itself and everything opened inside it."""

    def __init__(self, spans: Spans, root: int) -> None:
        self.spans = spans
        self.root = root
        self.lo, self.hi = root, int(spans.last[root]) + 1

    def _mask(self, name: str) -> np.ndarray:
        ids = self.spans.name_id[self.lo : self.hi]
        if name not in self.spans.names:
            return np.zeros(len(ids), dtype=bool)
        return ids == self.spans.names.index(name)

    @property
    def duration(self) -> float:
        return float(self.spans.duration[self.root])

    def count(self, name: str) -> int:
        return int(self._mask(name).sum())

    def total(self, name: str) -> float:
        return float(self.spans.duration[self.lo : self.hi][self._mask(name)].sum())

    def self_total(self, name: str) -> float:
        return float(self.spans.self_time[self.lo : self.hi][self._mask(name)].sum())

    def work(self, name: str) -> np.ndarray:
        return self.spans.work[self.lo : self.hi][self._mask(name)]

    def per_call(self, name: str) -> float:
        calls = self.count(name)
        return self.total(name) / calls if calls else 0.0

    def count_inside(self, outer: str, inner: str) -> int:
        """Spans named ``inner`` opened inside any span named ``outer``."""
        sp = self.spans
        inner_seen = np.concatenate(([0], np.cumsum(self._mask(inner))))
        starts = np.flatnonzero(self._mask(outer))
        ends = sp.last[self.lo + starts] - self.lo + 1
        return int((inner_seen[ends] - inner_seen[starts + 1]).sum())

    def self_by_module(self) -> dict[str, float]:
        """Self time summed per module (the span-name prefix before the dot)."""
        ids = self.spans.name_id[self.lo : self.hi]
        per_name = np.bincount(ids, weights=self.spans.self_time[self.lo : self.hi],
                               minlength=len(self.spans.names))
        out: dict[str, float] = {}
        for nid, name in enumerate(self.spans.names):
            module = name.split(".", 1)[0]
            out[module] = out.get(module, 0.0) + float(per_name[nid])
        return out


def _rows(args, result) -> float:
    return float(args[1].shape[0])


def _length(args, result) -> float:
    return float(len(result))


def _slots(args, result) -> float:
    return float(len(args[0]))


def traced_functions():
    """(owner, attribute, span name, work size) for every wrapped function.

    Owners are the modules or classes through which callers reach the
    function, so the wrapper is what those callers actually call.
    """
    from ghreplay import cli, experiment, linalg, trainer
    from ghreplay.memory import EpisodicMemory
    from ghreplay.rng import SeededRng

    return [
        (experiment, "generate_datasets", "experiment.generate_datasets", None),
        (experiment, "generate_series", "climate.generate_series", _length),
        (experiment, "write_records", "csvio.write_records", None),
        (experiment, "read_records", "csvio.read_records", _length),
        (experiment, "build_samples", "dataset.build_samples", _length),
        (experiment, "build_phases", "experiment.build_phases", None),
        (trainer, "run_scenario", "trainer.run_scenario", None),
        (trainer, "run_baseline", "trainer.run_baseline", None),
        (trainer, "train_update", "trainer.train_update", None),
        (trainer, "stack_samples", "trainer.stack_samples", None),
        (trainer, "evaluate", "trainer.evaluate", None),
        (trainer, "backward", "model.backward", _rows),
        (trainer, "clip_gradients", "model.clip_gradients", None),
        (trainer, "adam_step", "model.adam_step", None),
        (trainer, "predict_batch", "model.predict_batch", _rows),
        (trainer, "write_curve_csv", "trainer.write_curve_csv", None),
        (trainer, "write_boundaries_csv", "trainer.write_boundaries_csv", None),
        (trainer, "write_retention_csv", "trainer.write_retention_csv", None),
        (trainer, "write_memory_csv", "trainer.write_memory_csv", None),
        (trainer, "write_compare_csv", "trainer.write_compare_csv", None),
        (trainer, "read_curve_csv", "trainer.read_curve_csv", None),
        (trainer, "read_boundaries_csv", "trainer.read_boundaries_csv", None),
        (trainer, "compare_transfer", "trainer.compare_transfer", None),
        (linalg, "matmul", "linalg.matmul", None),
        (linalg, "activation", "linalg.activation", None),
        (EpisodicMemory, "observe_batch", "memory.observe_batch", _slots),
        (EpisodicMemory, "draw_replay", "memory.draw_replay", None),
        (EpisodicMemory, "occupancy_stats", "memory.occupancy_stats", None),
        (SeededRng, "random", "rng.random", None),
        (SeededRng, "randbelow", "rng.randbelow", None),
        (cli, "save_checkpoint", "checkpoint.save_checkpoint", None),
    ]


@contextmanager
def instrument(tracer: Tracer):
    """Wrap every traced function for the duration of the block."""
    saved = []
    try:
        for owner, attr, name, work in traced_functions():
            original = vars(owner)[attr]
            saved.append((owner, attr, original))
            setattr(owner, attr, tracer.wrap(original, name, work))
        yield tracer
    finally:
        for owner, attr, original in reversed(saved):
            setattr(owner, attr, original)
