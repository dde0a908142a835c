"""Fixed-capacity episodic memory with probabilistic substitution.

Samples arrive in batches, as an online update absorbs them
(``observe_batch``); a single sample is a batch of one. The buffer
starts empty and appends every observed sample until it reaches
capacity (the fill phase). Once full, new samples displace
stored ones under a configurable strategy; the strategies differ only in
how often the substitution sweep runs, which changes turnover by orders
of magnitude:

* ``per-element``: every stored slot is independently overwritten with
  probability p for *each* observed sample. Old content decays like
  (1-p)^observations, i.e. it is nearly gone after one 100-sample batch.
* ``per-sample``: each observed sample overwrites one uniformly random
  slot with probability p, otherwise it is discarded.
* ``per-batch`` (default): one sweep per observed batch; each slot is
  replaced with probability p by a uniformly drawn member of that batch.
  Old content decays like (1-p)^batches, which retains samples from a
  previous data source for many updates after a switch.

Replay is drawn uniformly with replacement, so a draw size larger than
the number of distinct stored samples stays well-defined.

Index layout: the memory holds no window data. It keeps a row table
(``inputs`` (R, D), ``targets`` (R, K), ``timestamps`` and a label id
per row), to which ``add_series`` appends the series of each
``dataset.Phase`` the memory observes, labeled with the phase's
greenhouse; a window is named by the table row of its final record, and
its inputs are the ``window_len`` table rows ending there. A slot is one
such row in the ``rows`` array. Observing and replaying move integers
only; the trainer gathers the windows of a batch in one step.

Block draws: a sweep consumes the same SplitMix64 outputs, in the same
order, as the scalar loop it replaces (``random()`` per slot, then
``randbelow`` by masked rejection on a hit). It computes a block of
upcoming outputs with ``SeededRng.peek_u64``, finds the hits and the
accepted rejection draws with array operations, walks over the hits
only (about p of the slots) to line each one up with the draws its
``randbelow`` used, and advances the stream past exactly the outputs
the loop would have used. Slots, picks and the final stream state are
therefore identical to the scalar loop's.
"""

from __future__ import annotations

from dataclasses import dataclass
from enum import Enum

import numpy as np

from .dataset import Phase
from .rng import SeededRng

_INV_2_53 = 2.0 ** -53


class SubstitutionStrategy(str, Enum):
    PER_ELEMENT = "per-element"
    PER_SAMPLE = "per-sample"
    PER_BATCH = "per-batch"


@dataclass
class MemoryConfig:
    capacity: int = 10000
    substitution_probability: float = 0.1
    strategy: SubstitutionStrategy = SubstitutionStrategy.PER_BATCH

    def validate(self) -> None:
        if self.capacity < 1:
            raise ValueError(f"MemoryConfig.capacity must be >= 1, got {self.capacity}")
        if not 0.0 <= self.substitution_probability <= 1.0:
            raise ValueError(
                f"MemoryConfig.substitution_probability must be in [0, 1], "
                f"got {self.substitution_probability}"
            )
        self.strategy = SubstitutionStrategy(self.strategy)


@dataclass
class OccupancyStats:
    counts: dict[str, int]
    fractions: dict[str, float]


def _uniforms(block: np.ndarray) -> np.ndarray:
    """``SeededRng.random`` of each output in a ``peek_u64`` block."""
    return (block >> np.uint64(11)).astype(np.float64) * _INV_2_53


def _rejection_mask(m: int) -> int:
    """The bit mask ``SeededRng.randbelow(m)`` applies before rejecting."""
    return (1 << (m - 1).bit_length()) - 1


def _block_size(decisions: int, picks: float, m: int) -> int:
    """Outputs to peek for ``decisions`` single draws plus about ``picks``
    ``randbelow(m)`` calls: the expected count with a 25 % margin. A
    consumer that runs out peeks again with twice as many."""
    return decisions + int(picks * (_rejection_mask(m) + 1) / m * 1.25) + 64


def _randbelow_many(rng: SeededRng, n: int, m: int) -> np.ndarray:
    """``[rng.randbelow(m) for _ in range(n)]`` as an array, from one block."""
    if m == 1:
        return np.zeros(n, dtype=np.int64)  # randbelow(1) draws nothing
    mask = _rejection_mask(m)
    size = _block_size(0, n, m)
    while True:
        low = (rng.peek_u64(size) & np.uint64(mask)).astype(np.int64)
        accepted = np.flatnonzero(low < m)
        if len(accepted) >= n:
            rng.skip(int(accepted[n - 1]) + 1)
            return low[accepted[:n]]
        size *= 2


def _sweep(rng: SeededRng, count: int, p: float, m: int) -> tuple[np.ndarray, np.ndarray]:
    """The hits and picks of the scalar loop

        for i in range(count):
            if rng.random() < p:
                hit i, pick rng.randbelow(m)

    as two arrays, leaving ``rng`` where that loop leaves it."""
    if m == 1:
        hits = np.flatnonzero(_uniforms(rng.peek_u64(count)) < p)
        rng.skip(count)
        return hits, np.zeros(len(hits), dtype=np.int64)
    mask = _rejection_mask(m)
    size = _block_size(count, count * p, m)
    while True:
        block = rng.peek_u64(size)
        low = (block & np.uint64(mask)).astype(np.int64)
        accepted = np.flatnonzero(low < m)
        candidates = np.flatnonzero(_uniforms(block) < p)
        # the draw that ends randbelow if draw k is a hit (size: beyond the block)
        resolving = np.append(accepted, size)[np.searchsorted(accepted, candidates + 1)]
        hits, picks = [], []
        drawn = decided = 0
        for k, r in zip(candidates.tolist(), resolving.tolist()):
            if k < drawn:
                continue  # a rejection draw of an earlier hit, not a slot's draw
            slot = decided + k - drawn
            if slot >= count or r == size:
                break
            hits.append(slot)
            picks.append(r)
            decided, drawn = slot + 1, r + 1
        else:
            slot = count
        drawn += count - decided
        if slot >= count and drawn <= size:
            rng.skip(drawn)
            return np.array(hits, dtype=np.int64), low[np.array(picks, dtype=np.int64)]
        size *= 2


class EpisodicMemory:
    """Single-owner sample buffer; mutations must stay sequential."""

    def __init__(self, config: MemoryConfig):
        config.validate()
        self.config = config
        self.labels: list[str] = []
        self.inputs: np.ndarray | None = None
        self.targets: np.ndarray | None = None
        self.timestamps = np.zeros(0, dtype=np.int64)
        self.row_label_ids = np.zeros(0, dtype=np.int64)
        self.rows = np.zeros(0, dtype=np.int64)
        self.observed_count = 0

    def __len__(self) -> int:
        return len(self.rows)

    @property
    def label_ids(self) -> np.ndarray:
        """Each slot's index into ``labels``."""
        return self.row_label_ids[self.rows]

    def add_series(self, phase: Phase) -> int:
        """Append a phase's series to the row table; returns the table row
        of its first record, to add to the phase's own rows."""
        if phase.label not in self.labels:
            self.labels.append(phase.label)
        label_id = self.labels.index(phase.label)
        offset = len(self.timestamps)
        if self.inputs is None:
            self.inputs, self.targets = phase.inputs, phase.targets
        else:
            self.inputs = np.concatenate([self.inputs, phase.inputs])
            self.targets = np.concatenate([self.targets, phase.targets])
            self.inputs.flags.writeable = self.targets.flags.writeable = False
        self.timestamps = np.concatenate([self.timestamps, phase.timestamps])
        self.row_label_ids = np.concatenate(
            [self.row_label_ids, np.full(len(phase.timestamps), label_id, dtype=np.int64)]
        )
        return offset

    def observe_batch(self, rows, rng: SeededRng) -> None:
        """Absorb a batch of table rows; under per-batch, run one
        substitution sweep, otherwise substitute sample by sample."""
        rows = np.asarray(rows, dtype=np.int64)
        if len(rows) == 0:
            raise ValueError("observe_batch: empty batch")
        self.observed_count += len(rows)
        strategy = self.config.strategy
        room = self.config.capacity - len(self.rows)
        if room > 0:
            self.rows = np.concatenate([self.rows, rows[:room]])
            rows = rows[room:]
        if len(rows) == 0:
            return
        p = self.config.substitution_probability
        capacity = len(self.rows)
        if strategy is SubstitutionStrategy.PER_ELEMENT:
            for row in rows.tolist():
                hits, _ = _sweep(rng, capacity, p, 1)
                self.rows[hits] = row
        elif strategy is SubstitutionStrategy.PER_SAMPLE:
            hits, slots = _sweep(rng, len(rows), p, capacity)
            # a later sample overwrites an earlier one in the same slot
            slots, last = np.unique(slots[::-1], return_index=True)
            self.rows[slots] = rows[hits[::-1][last]]
        else:
            hits, picks = _sweep(rng, capacity, p, len(rows))
            self.rows[hits] = rows[picks]

    def draw_replay(self, n: int, rng: SeededRng) -> np.ndarray:
        """Table rows of n independent uniform draws with replacement from
        the current slots."""
        if n < 0:
            raise ValueError(f"draw_replay: n must be >= 0, got {n}")
        if n == 0:
            return np.zeros(0, dtype=np.int64)
        if not len(self.rows):
            raise ValueError("draw_replay: memory is empty")
        return self.rows[_randbelow_many(rng, n, len(self.rows))]

    def occupancy_stats(self) -> OccupancyStats:
        """Per-origin-label slot counts and fractions (fractions sum to 1)."""
        total = len(self.rows)
        per_id = np.bincount(self.label_ids, minlength=len(self.labels)).tolist()
        counts = {label: count for label, count in zip(self.labels, per_id) if count}
        fractions = {label: count / total for label, count in counts.items()}
        return OccupancyStats(counts=counts, fractions=fractions)
