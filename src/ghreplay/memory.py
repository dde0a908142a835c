"""Fixed-capacity episodic memory with probabilistic substitution.

Samples arrive in batches, as an online update absorbs them
(``observe_batch``); a single sample is a batch of one. The buffer
starts empty and appends every observed sample until it reaches
capacity (the fill phase). Once full, new samples displace
stored ones with the protocol's fixed probability p,
``SUBSTITUTION_PROBABILITY`` = 0.1, under a configurable strategy; the
strategies differ only in how often the substitution sweep runs, which
changes turnover by orders of magnitude:

* ``per-element``: every stored slot is independently overwritten with
  probability p for *each* observed sample. Old content decays like
  (1-p)^observations, i.e. it is nearly gone after one 100-sample batch.
* ``per-sample``: each observed sample overwrites one uniformly random
  slot with probability p, otherwise it is discarded.
* ``per-batch`` (both presets): one sweep per observed batch; each slot is
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
its inputs are the ``config.window_len`` table rows ending there, and
``add_series`` refuses a phase whose windows have another length. A
slot is one such row in the ``rows`` array. Observing and replaying
move integers only; the trainer gathers the windows of a batch in one
step.
``snapshot`` compacts the table to the rows that stored windows cover,
as a checkpoint's arrays, stating each distinct slot row's target,
timestamp and label once, and ``restore`` rebuilds a memory from them.

The random draws are ``SeededRng``'s: a substitution sweep is
``SeededRng.sweep``, bit-identical to the loop of scalar calls it
stands for, and a replay draw is one ``randbelow`` per replayed sample,
so this module keeps only the slot policy.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .dataset import INPUT_FIELDS, TARGET_FIELDS, Phase, integer_rows
from .rng import SeededRng
from .schema import EXPERIMENT_SCHEMA, check_fields

SUBSTITUTION_PROBABILITY = 0.1  # the paper's (arXiv 1908.01643), in every run; not a spec key


@dataclass
class MemoryConfig:
    """The spec's memory section, with the spec's ``data.window_len``:
    the records in each stored window. ``strategy`` is one of the
    schema's ``memory.strategy`` names. Every strategy substitutes with
    the constant ``SUBSTITUTION_PROBABILITY``, not a setting."""

    capacity: int
    strategy: str
    window_len: int

    SCHEMA = {**EXPERIMENT_SCHEMA["properties"]["memory"]["properties"],
              "window_len": EXPERIMENT_SCHEMA["properties"]["data"]["properties"]["window_len"]}

    def __post_init__(self) -> None:
        check_fields(self, self.SCHEMA)


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

    def __len__(self) -> int:
        return len(self.rows)

    @property
    def label_ids(self) -> np.ndarray:
        """Each slot's index into ``labels``."""
        return self.row_label_ids[self.rows]

    def add_series(self, phase: Phase) -> int:
        """Append a phase's series to the row table; returns the table row
        of its first record, to add to the phase's own rows. A phase whose
        windows have another length than the memory's is refused."""
        if phase.window_len != self.config.window_len:
            raise ValueError(f"phase {phase.label}: windows of {phase.window_len} records, "
                             f"but the memory stores windows of {self.config.window_len}")
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
        rows = integer_rows(rows, "observe_batch rows")
        if len(rows) == 0:
            raise ValueError("observe_batch: empty batch")
        room = self.config.capacity - len(self.rows)
        if room > 0:
            self.rows = np.concatenate([self.rows, rows[:room]])
            rows = rows[room:]
        if len(rows) == 0:
            return
        p = SUBSTITUTION_PROBABILITY
        capacity = len(self.rows)
        if self.config.strategy == "per-element":
            for row in rows.tolist():
                hits, _ = rng.sweep(capacity, p, 1)
                self.rows[hits] = row
        elif self.config.strategy == "per-sample":
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
        return self.rows[[rng.randbelow(len(self.rows)) for _ in range(n)]]

    def origins(self, rows) -> list[tuple[str, int]]:
        """Each table row's ``(greenhouse label, timestamp)``."""
        label_ids, timestamps = self.row_label_ids[rows].tolist(), self.timestamps[rows].tolist()
        return [(self.labels[i], ts) for i, ts in zip(label_ids, timestamps)]

    def snapshot(self) -> dict[str, np.ndarray]:
        """The slots over the table rows their windows cover (``R`` rows,
        ``n`` slots, ``U`` distinct slot rows), as the six ``mem_*`` arrays
        of a checkpoint:

        * ``mem_inputs`` (R, D): every table row that some stored window
          covers, once, in table order, so each window stays ``window_len``
          consecutive rows;
        * ``mem_rows`` (n,): each slot's final-record row into that block,
          in ``[window_len - 1, R)``;
        * for each distinct slot row, in ascending order (the order of
          ``np.unique(mem_rows)``), its target ``mem_row_targets`` (U, K),
          the timestamp of that record ``mem_row_timestamps`` (U,) and its
          index into ``mem_labels``, ``mem_row_label_ids`` (U,). A window
          that fills several slots states these once."""
        ends, window_len = self.rows, self.config.window_len
        table_rows = len(self.timestamps)
        # +1 where a window starts, -1 past where it ends: rows with a positive
        # running sum lie inside some window
        edges = (np.bincount(ends - (window_len - 1), minlength=table_rows + 1)
                 - np.bincount(ends + 1, minlength=table_rows + 1))
        covered = np.cumsum(edges[:table_rows]) > 0
        block_row = np.cumsum(covered) - 1
        keep, finals = np.flatnonzero(covered), np.unique(ends)
        return {
            "mem_inputs": self.inputs[keep] if len(keep) else np.zeros((0, len(INPUT_FIELDS))),
            "mem_labels": np.array(self.labels, dtype=str),
            "mem_rows": block_row[ends],
            "mem_row_targets": self.targets[finals] if len(finals) else np.zeros((0, len(TARGET_FIELDS))),
            "mem_row_timestamps": self.timestamps[finals],
            "mem_row_label_ids": self.row_label_ids[finals],
        }

    @classmethod
    def restore(cls, config: MemoryConfig, arrays: dict[str, np.ndarray]) -> EpisodicMemory:
        """The memory whose ``snapshot`` gave ``arrays``, which the caller
        has checked. Its row table is the snapshot's row block, holding a
        target, a timestamp and a label id only at the slots' final rows:
        the ``mem_row_*`` arrays, scattered at ``np.unique(mem_rows)``."""
        memory = cls(config)
        memory.inputs, rows = arrays["mem_inputs"], arrays["mem_rows"].astype(np.int64)
        n_rows, finals = len(memory.inputs), np.unique(rows)
        memory.targets = np.zeros((n_rows, arrays["mem_row_targets"].shape[1]))
        memory.timestamps = np.zeros(n_rows, dtype=np.int64)
        memory.row_label_ids = np.full(n_rows, -1, dtype=np.int64)
        memory.targets[finals] = arrays["mem_row_targets"]
        memory.timestamps[finals] = arrays["mem_row_timestamps"]
        memory.row_label_ids[finals] = arrays["mem_row_label_ids"]
        memory.inputs.flags.writeable = memory.targets.flags.writeable = False
        memory.rows, memory.labels = rows, [str(label) for label in arrays["mem_labels"]]
        return memory

    def occupancy_stats(self) -> dict[str, float]:
        """Each origin label's share of the slots, for the labels that hold
        any (the shares sum to 1)."""
        per_id = np.bincount(self.label_ids, minlength=len(self.labels)).tolist()
        return {label: count / len(self.rows) for label, count in zip(self.labels, per_id) if count}
