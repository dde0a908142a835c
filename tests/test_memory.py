import math

import numpy as np
import pytest

from conftest import STRATEGIES, add_rows, memory_config
from ghreplay import memory as memory_module
from ghreplay import rng as rng_module
from ghreplay.dataset import Phase
from ghreplay.memory import SUBSTITUTION_PROBABILITY, EpisodicMemory
from ghreplay.rng import SeededRng

PER_ELEMENT, PER_SAMPLE, PER_BATCH = "per-element", "per-sample", "per-batch"


def substitute_with(monkeypatch, p):
    """Run the memory's sweeps at probability ``p`` instead of the protocol's."""
    monkeypatch.setattr(memory_module, "SUBSTITUTION_PROBABILITY", p)


def full_memory(capacity, strategy, label="old"):
    mem = EpisodicMemory(memory_config(capacity=capacity, strategy=strategy))
    rng = SeededRng(0)
    mem.observe_batch(add_rows(mem, label, capacity), rng)
    assert len(mem) == capacity
    return mem


def label_count(mem, label):
    return int(np.count_nonzero(mem.label_ids == mem.labels.index(label))) if label in mem.labels else 0


def old_fraction(mem, old_label="old"):
    return label_count(mem, old_label) / len(mem)


# --- fill phase -------------------------------------------------------------

def test_fill_phase_appends_in_order():
    mem = EpisodicMemory(memory_config(capacity=5, strategy=PER_BATCH))
    rng = SeededRng(1)
    rows = add_rows(mem, "a", 5)
    mem.observe_batch([rows[0]], rng)
    assert len(mem) == 1 and mem.rows[0] == rows[0]
    mem.observe_batch(rows[1:], rng)
    assert mem.rows.tolist() == [0, 1, 2, 3, 4]


@pytest.mark.parametrize("strategy", STRATEGIES)
def test_first_capacity_samples_present_exactly_once(strategy):
    capacity = 50
    mem = EpisodicMemory(memory_config(capacity=capacity, strategy=strategy))
    rng = SeededRng(2)
    rows = add_rows(mem, "a", capacity)
    for chunk_start in range(0, capacity, 7):
        mem.observe_batch(rows[chunk_start : chunk_start + 7], rng)
    assert mem.rows.tolist() == list(range(capacity))


def test_batch_smaller_than_remaining_fill_is_pure_append():
    mem = EpisodicMemory(memory_config(capacity=100, strategy=PER_BATCH))
    rng = SeededRng(3)
    batch = add_rows(mem, "a", 30)
    mem.observe_batch(batch, rng)
    assert mem.rows.tolist() == batch.tolist()


def test_batch_straddling_fill_boundary(monkeypatch):
    substitute_with(monkeypatch, 1.0)
    mem = EpisodicMemory(memory_config(capacity=10, strategy=PER_BATCH))
    rng = SeededRng(4)
    mem.observe_batch(add_rows(mem, "a", 8), rng)
    overflow = add_rows(mem, "b", 5)
    mem.observe_batch(overflow, rng)
    # first two fill the remaining slots, the other three drive a p=1 sweep
    assert len(mem) == 10
    assert label_count(mem, "b") == 10


# --- substitution strategies ------------------------------------------------

def test_zero_probability_keeps_memory_unchanged(monkeypatch):
    substitute_with(monkeypatch, 0.0)
    for strategy in STRATEGIES:
        mem = full_memory(20, strategy)
        before = mem.rows.copy()
        mem.observe_batch(np.repeat(add_rows(mem, "new", 1), 10), SeededRng(5))
        assert np.array_equal(mem.rows, before)


def test_per_element_copies_follow_binomial_mean():
    # one observation sweeps all slots: copies ~ Binomial(10000, 0.1)
    capacity, p, trials = 10000, SUBSTITUTION_PROBABILITY, 200
    rng = SeededRng(6)
    total = 0
    for _ in range(trials):
        mem = EpisodicMemory(memory_config(capacity=capacity, strategy=PER_ELEMENT))
        old, new = add_rows(mem, "x", 2)
        mem.rows = np.full(capacity, old)
        mem.observe_batch([new], rng)
        total += int(np.count_nonzero(mem.rows == new))
    mean = total / trials
    sd_of_mean = math.sqrt(capacity * p * (1 - p)) / math.sqrt(trials)
    assert abs(mean - capacity * p) < 3.0 * sd_of_mean


def test_per_element_wipes_old_content_within_66_observations():
    # documents why neither preset uses per-element: (1 - 0.1)^66 < 0.001
    assert 0.9 ** 66 < 1e-3
    capacity = 10000
    mem = full_memory(capacity, PER_ELEMENT)
    rng = SeededRng(9)  # pinned: realized fraction fluctuates around 0.9^66
    for row in add_rows(mem, "new", 66):
        mem.observe_batch([row], rng)
    assert old_fraction(mem) < 1e-3


def test_per_sample_replaces_at_most_one_slot(monkeypatch):
    substitute_with(monkeypatch, 1.0)
    mem = full_memory(30, PER_SAMPLE)
    mem.observe_batch(add_rows(mem, "new", 1), SeededRng(7))
    assert label_count(mem, "new") == 1
    assert len(mem) == 30


def test_per_sample_discards_with_probability_1_minus_p():
    mem = full_memory(10, PER_SAMPLE)
    rng = SeededRng(8)
    for row in add_rows(mem, "new", 2000):
        mem.observe_batch([row], rng)
    assert label_count(mem, "new") >= 9  # after 2000 draws at p=0.1 old content is nearly gone


def test_per_batch_turnover_matches_probability():
    capacity, p = 10000, SUBSTITUTION_PROBABILITY
    mem = full_memory(capacity, PER_BATCH)
    rng = SeededRng(10)
    mem.observe_batch(add_rows(mem, "new", 100), rng)
    turnover = 1.0 - old_fraction(mem)
    # Binomial(10^4, 0.1): 3 sigma of the replaced fraction is 0.009
    assert abs(turnover - p) < 3.0 * math.sqrt(p * (1 - p) / capacity)


def test_per_batch_geometric_decay_over_batches():
    capacity, k, trials = 1000, 10, 50
    rng = SeededRng(11)
    fractions = []
    for _ in range(trials):
        mem = full_memory(capacity, PER_BATCH)
        new = add_rows(mem, "new", k * 100)
        for batch_idx in range(k):
            mem.observe_batch(new[batch_idx * 100 : (batch_idx + 1) * 100], rng)
        fractions.append(old_fraction(mem))
    mean = sum(fractions) / trials
    assert abs(mean - 0.9 ** k) < 0.03


def test_capacity_never_exceeded_under_mixed_traffic(monkeypatch):
    substitute_with(monkeypatch, 0.5)
    cfg = memory_config(capacity=17, strategy=PER_BATCH)
    mem = EpisodicMemory(cfg)
    rng = SeededRng(14)
    rows = add_rows(mem, "x", 120)
    for i in range(40):
        mem.observe_batch(rows[i * 3 : i * 3 + 3], rng)
        assert len(mem) <= 17
    assert len(mem) == 17


def test_observe_batch_rejects_empty():
    mem = EpisodicMemory(memory_config(capacity=3))
    with pytest.raises(ValueError, match="empty"):
        mem.observe_batch([], SeededRng(15))


def test_observe_batch_rejects_float_rows():
    mem = EpisodicMemory(memory_config(capacity=3))
    with pytest.raises(ValueError, match="^observe_batch rows must be integers, got dtype float64$"):
        mem.observe_batch([4.9, 6.2], SeededRng(15))
    assert len(mem) == 0


def test_memory_config_validation():
    for kwargs, message in [
        ({"capacity": 0}, "MemoryConfig.capacity: 0 is less than the minimum of 1"),
        ({"capacity": True}, "MemoryConfig.capacity: True is not of type 'integer'"),
        ({"strategy": "per-row"}, "MemoryConfig.strategy: 'per-row' is not one of"),
        ({"window_len": 0}, "MemoryConfig.window_len: 0 is less than the minimum of 1"),
    ]:
        with pytest.raises(ValueError, match=message):
            memory_config(**kwargs)


def test_add_series_refuses_a_phase_of_another_window_length():
    mem = EpisodicMemory(memory_config(capacity=3, window_len=4))
    add_rows(mem, "GH-A", 6)
    phase = Phase("GH-B", np.zeros((6, 5)), np.zeros((6, 2)), np.arange(6, dtype=np.int64),
                  [], [], window_len=5)
    with pytest.raises(ValueError, match=r"^phase GH-B: windows of 5 records, "
                                         r"but the memory stores windows of 4$"):
        mem.add_series(phase)
    assert mem.labels == ["GH-A"] and len(mem.timestamps) == len(mem.inputs) == 6  # nothing appended


# --- replay draws -----------------------------------------------------------

def test_draw_replay_zero_is_empty():
    mem = EpisodicMemory(memory_config(capacity=3))
    assert len(mem.draw_replay(0, SeededRng(16))) == 0


def test_draw_replay_from_empty_memory_is_an_error():
    mem = EpisodicMemory(memory_config(capacity=3))
    with pytest.raises(ValueError, match="empty"):
        mem.draw_replay(1, SeededRng(17))


def test_draw_replay_single_slot_repeats():
    mem = EpisodicMemory(memory_config(capacity=3))
    only = add_rows(mem, "only", 1)[0]
    mem.observe_batch([only], SeededRng(18))
    draws = mem.draw_replay(5, SeededRng(19))
    assert len(draws) == 5
    assert (draws == only).all()


def test_draw_replay_uniform_frequencies():
    mem = EpisodicMemory(memory_config(capacity=10))
    rng = SeededRng(20)
    mem.observe_batch(add_rows(mem, "a", 10), rng)
    draws = mem.draw_replay(100000, SeededRng(21))
    counts = np.bincount(draws, minlength=10)
    assert len(counts) == 10
    # multinomial: 3 sigma of each frequency is ~0.003 at n = 1e5
    for c in counts:
        assert abs(c / 100000 - 0.1) < 3.0 * math.sqrt(0.1 * 0.9 / 100000)


def test_draw_replay_never_fabricates():
    mem = EpisodicMemory(memory_config(capacity=8))
    rng = SeededRng(22)
    add_rows(mem, "other", 5)
    mem.observe_batch(add_rows(mem, "a", 8), rng)
    assert np.isin(mem.draw_replay(200, SeededRng(23)), mem.rows).all()


@pytest.mark.parametrize("slots, n, seed, expected, next_u64", [
    (1, 3, 7, [0, 0, 0], 7191089600892374487),  # one slot draws nothing
    (8, 12, 3, [2, 6, 6, 0, 1, 0, 7, 1, 5, 5, 3, 0], 8857471719570398452),
    (100, 12, 29, [73, 92, 75, 90, 93, 63, 87, 39, 9, 77, 30, 39], 18437781628272365943),
    (10000, 6, 3, [5922, 2574, 7488, 3449, 6152, 5369], 9058503432725982842),
])
def test_draw_replay_pinned_rows(slots, n, seed, expected, next_u64):
    """The replay stream itself, which the golden digests of the slots do
    not cover: the rows drawn and the stream's next output, which pins the
    rejections of a slot count that is not a power of two."""
    mem = EpisodicMemory(memory_config(capacity=slots, window_len=1))
    mem.observe_batch(add_rows(mem, "a", slots)[::-1], SeededRng(0))  # slot i holds row slots - 1 - i
    rng = SeededRng(seed)
    assert mem.draw_replay(n, rng).tolist() == expected
    assert rng.next_u64() == next_u64


# --- occupancy --------------------------------------------------------------

def test_occupancy_single_label():
    mem = full_memory(25, PER_BATCH, label="GH-A")
    assert len(mem) == 25
    assert mem.occupancy_stats() == {"GH-A": 1.0}


def test_occupancy_empty_memory():
    mem = EpisodicMemory(memory_config(capacity=4))
    assert mem.occupancy_stats() == {}


def test_occupancy_sums_and_decay():
    capacity, k, trials = 1000, 10, 30
    rng = SeededRng(24)
    old_fracs = []
    for _ in range(trials):
        mem = full_memory(capacity, PER_BATCH)
        new = add_rows(mem, "new", k * 100)
        for batch_idx in range(k):
            mem.observe_batch(new[batch_idx * 100 : (batch_idx + 1) * 100], rng)
        fractions = mem.occupancy_stats()
        assert sum(round(f * len(mem)) for f in fractions.values()) == len(mem)
        assert abs(sum(fractions.values()) - 1.0) < 1e-12
        old_fracs.append(fractions.get("old", 0.0))
    assert abs(sum(old_fracs) / trials - 0.9 ** k) < 0.03


def test_occupancy_merges_series_with_one_label():
    mem = EpisodicMemory(memory_config(capacity=6))
    rng = SeededRng(25)
    mem.observe_batch(add_rows(mem, "A", 2), rng)
    mem.observe_batch(add_rows(mem, "B", 3), rng)
    mem.observe_batch(add_rows(mem, "A", 1), rng)
    assert mem.labels == ["A", "B"] and np.bincount(mem.label_ids).tolist() == [3, 3]
    assert mem.occupancy_stats() == {"A": 0.5, "B": 0.5}


# --- stream oracle: the scalar sweeps the block draws replace ---------------

class ScalarMemory:
    """The memory as a list of rows, substituted by one ``random()`` and
    ``randbelow`` call at a time: the reference the block draws must match
    draw for draw."""

    def __init__(self, capacity, p, strategy):
        self.capacity, self.p, self.strategy = capacity, p, strategy
        self.slots = []

    def observe(self, row, rng):
        if len(self.slots) < self.capacity:
            self.slots.append(row)
        elif self.strategy == PER_ELEMENT:
            for idx in range(len(self.slots)):
                if rng.random() < self.p:
                    self.slots[idx] = row
        elif self.strategy == PER_SAMPLE and rng.random() < self.p:
            self.slots[rng.randbelow(len(self.slots))] = row

    def observe_batch(self, batch, rng):
        if self.strategy != PER_BATCH:
            for row in batch:
                self.observe(row, rng)
            return
        filled = 0
        while len(self.slots) < self.capacity and filled < len(batch):
            self.slots.append(batch[filled])
            filled += 1
        rest = batch[filled:]
        if rest:
            for idx in range(len(self.slots)):
                if rng.random() < self.p:
                    self.slots[idx] = rest[rng.randbelow(len(rest))]

    def draw_replay(self, n, rng):
        return [self.slots[rng.randbelow(len(self.slots))] for _ in range(n)]


def assert_same(scalar, mem, rng_scalar, rng_block):
    assert mem.rows.tolist() == scalar.slots
    assert rng_block.get_state() == rng_scalar.get_state()


@pytest.mark.parametrize("tight_blocks", [False, True], ids=["blocks", "tight-blocks"])
@pytest.mark.parametrize("strategy", STRATEGIES)
def test_block_sweeps_match_scalar_stream(strategy, tight_blocks, monkeypatch):
    if tight_blocks:  # every block too short: exercises the peek-again path
        monkeypatch.setattr(rng_module, "_block_size", lambda decisions, picks, m: 1)
    meta = SeededRng(26).split(strategy)
    for pool in (1, 2, 64, 100, 128, 129):
        for p in (0.0, 0.1, 1.0):
            substitute_with(monkeypatch, p)
            capacity = meta.randbelow(300) + 1
            seed = meta.next_u64()
            rng_scalar, rng_block = SeededRng(seed), SeededRng(seed)
            scalar = ScalarMemory(capacity, p, strategy)
            mem = EpisodicMemory(memory_config(capacity=capacity, strategy=strategy))
            rows = add_rows(mem, "x", capacity + 2 * pool).tolist()
            fill, stream = rows[:capacity], rows[capacity:]
            for start in range(0, capacity, 97):
                scalar.observe_batch(fill[start : start + 97], rng_scalar)
                mem.observe_batch(fill[start : start + 97], rng_block)
            assert_same(scalar, mem, rng_scalar, rng_block)
            for b in range(2):
                batch = stream[b * pool : (b + 1) * pool]
                scalar.observe_batch(batch, rng_scalar)
                mem.observe_batch(batch, rng_block)
                assert_same(scalar, mem, rng_scalar, rng_block)
            n = meta.randbelow(300) + 1
            assert mem.draw_replay(n, rng_block).tolist() == scalar.draw_replay(n, rng_scalar)
            assert rng_block.get_state() == rng_scalar.get_state()
