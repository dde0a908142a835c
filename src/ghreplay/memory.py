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

The random draws are ``SeededRng``'s: a substitution sweep is
``SeededRng.sweep`` and a replay draw ``SeededRng.randbelow_many``, each
bit-identical to the loop of scalar calls it stands for, so this module
keeps only the slot policy.
"""

from __future__ import annotations

from dataclasses import dataclass
from enum import Enum

import numpy as np

from .dataset import Phase
from .rng import SeededRng
from .schema import EXPERIMENT_SCHEMA, check_fields


class SubstitutionStrategy(str, Enum):
    PER_ELEMENT = "per-element"
    PER_SAMPLE = "per-sample"
    PER_BATCH = "per-batch"


@dataclass
class MemoryConfig:
    capacity: int = 10000
    substitution_probability: float = 0.1
    strategy: SubstitutionStrategy = SubstitutionStrategy.PER_BATCH

    SCHEMA = EXPERIMENT_SCHEMA["properties"]["memory"]["properties"]

    def __post_init__(self) -> None:
        check_fields(self, self.SCHEMA)
        self.strategy = SubstitutionStrategy(self.strategy)


@dataclass
class OccupancyStats:
    counts: dict[str, int]
    fractions: dict[str, float]


class EpisodicMemory:
    """Single-owner sample buffer; mutations must stay sequential."""

    def __init__(self, config: MemoryConfig):
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
                hits, _ = rng.sweep(capacity, p, 1)
                self.rows[hits] = row
        elif strategy is SubstitutionStrategy.PER_SAMPLE:
            hits, slots = rng.sweep(len(rows), p, capacity)
            # a later sample overwrites an earlier one in the same slot
            slots, last = np.unique(slots[::-1], return_index=True)
            self.rows[slots] = rows[hits[::-1][last]]
        else:
            hits, picks = rng.sweep(capacity, p, len(rows))
            self.rows[hits] = rows[picks]

    def draw_replay(self, n: int, rng: SeededRng) -> np.ndarray:
        """Table rows of n independent uniform draws with replacement from
        the current slots."""
        if n < 0:
            raise ValueError(f"draw_replay: n must be >= 0, got {n}")
        if n and not len(self.rows):
            raise ValueError("draw_replay: memory is empty")
        return self.rows[rng.randbelow_many(n, len(self.rows))]

    def occupancy_stats(self) -> OccupancyStats:
        """Per-origin-label slot counts and fractions (fractions sum to 1)."""
        total = len(self.rows)
        per_id = np.bincount(self.label_ids, minlength=len(self.labels)).tolist()
        counts = {label: count for label, count in zip(self.labels, per_id) if count}
        fractions = {label: count / total for label, count in counts.items()}
        return OccupancyStats(counts=counts, fractions=fractions)
