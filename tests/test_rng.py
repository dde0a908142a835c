import math

import numpy as np
import pytest

from ghreplay import rng as rng_module
from ghreplay.rng import SeededRng, _fnv1a64, _mix64

# First five outputs for fixed seeds, frozen from the published SplitMix64
# recurrence (cross-checked against an independent uint64 transcription).
GOLDEN = {
    0: [
        16294208416658607535,
        7960286522194355700,
        487617019471545679,
        17909611376780542444,
        1961750202426094747,
    ],
    42: [
        13679457532755275413,
        2949826092126892291,
        5139283748462763858,
        6349198060258255764,
        701532786141963250,
    ],
    1234567: [
        6457827717110365317,
        3203168211198807973,
        9817491932198370423,
        4593380528125082431,
        16408922859458223821,
    ],
}


def _reference_splitmix64(seed, n):
    """Inline re-derivation of the recurrence, independent of the class."""
    mask = (1 << 64) - 1
    state = seed & mask
    out = []
    for _ in range(n):
        state = (state + 0x9E3779B97F4A7C15) & mask
        z = state
        z = ((z ^ (z >> 30)) * 0xBF58476D1CE4E5B9) & mask
        z = ((z ^ (z >> 27)) * 0x94D049BB133111EB) & mask
        out.append(z ^ (z >> 31))
    return out


@pytest.mark.parametrize("seed", sorted(GOLDEN))
def test_golden_sequence(seed):
    rng = SeededRng(seed)
    values = [rng.next_u64() for _ in range(5)]
    assert values == GOLDEN[seed]
    assert values == _reference_splitmix64(seed, 5)


def test_same_seed_same_stream():
    a = SeededRng(987654321)
    b = SeededRng(987654321)
    assert [a.next_u64() for _ in range(100)] == [b.next_u64() for _ in range(100)]


def test_random_unit_interval():
    rng = SeededRng(5)
    values = [rng.random() for _ in range(10000)]
    assert all(0.0 <= v < 1.0 for v in values)
    assert abs(sum(values) / len(values) - 0.5) < 0.02


def test_uniform_bounds():
    rng = SeededRng(6)
    assert all(-2.0 <= rng.uniform(-2.0, 3.0) < 3.0 for _ in range(1000))


def test_randbelow_uniform_and_bounded():
    rng = SeededRng(7)
    counts = [0] * 10
    for _ in range(20000):
        counts[rng.randbelow(10)] += 1
    assert min(counts) > 0
    for c in counts:
        assert abs(c / 20000 - 0.1) < 0.02
    assert rng.randbelow(1) == 0
    with pytest.raises(ValueError):
        rng.randbelow(0)


def test_split_depends_on_seed_and_label_only():
    parent = SeededRng(77)
    child_before = parent.split("replay")
    for _ in range(50):
        parent.next_u64()
    child_after = parent.split("replay")
    assert child_before.seed == child_after.seed
    assert SeededRng(77).split("replay").seed == child_before.seed
    assert SeededRng(77).split("memory").seed != child_before.seed
    assert SeededRng(78).split("replay").seed != child_before.seed


def test_split_streams_diverge():
    a = SeededRng(3).split("a")
    b = SeededRng(3).split("b")
    assert [a.next_u64() for _ in range(8)] != [b.next_u64() for _ in range(8)]


def test_standard_normal_moments():
    rng = SeededRng(8)
    values = rng.truncated_normals(20000, math.inf).tolist()
    mean = sum(values) / len(values)
    var = sum((v - mean) ** 2 for v in values) / len(values)
    assert abs(mean) < 0.03
    assert abs(var - 1.0) < 0.05


def test_truncated_normal_bound():
    rng = SeededRng(9)
    assert (np.abs(rng.truncated_normals(5000, 3.0)) <= 3.0).all()


def test_sample_indices_distinct_and_in_range():
    rng = SeededRng(10)
    idx = rng.sample_indices(100, 40)
    assert len(idx) == 40
    assert len(set(idx)) == 40
    assert all(0 <= i < 100 for i in idx)
    assert rng.sample_indices(5, 0) == []
    with pytest.raises(ValueError):
        rng.sample_indices(5, 6)


def test_state_roundtrip_continues_stream():
    rng = SeededRng(11)
    [rng.next_u64() for _ in range(13)]
    clone = SeededRng.from_state(rng.get_state())
    assert [rng.next_u64() for _ in range(20)] == [clone.next_u64() for _ in range(20)]
    assert rng.truncated_normals(5).tolist() == clone.truncated_normals(5).tolist()


def test_mix_and_fnv_are_stable():
    # regression anchors for the split derivation
    assert _mix64(0) == _reference_splitmix64(0, 1)[0]
    assert _fnv1a64("") == 0xCBF29CE484222325
    assert _fnv1a64("a") == ((0xCBF29CE484222325 ^ ord("a")) * 0x100000001B3) % (1 << 64)


@pytest.mark.parametrize("start", [0, (1 << 64) - 1, (1 << 64) - 3 * 0x9E3779B97F4A7C15 % (1 << 64), 12345])
def test_peek_block_equals_successive_outputs_across_wraparound(start):
    rng = SeededRng(7)
    rng._state = start  # within a few increments of 2**64 - 1 for the middle cases
    block = rng.peek_u64(64)
    assert block.dtype == np.uint64
    assert rng._state == start  # peeking does not advance
    assert block.tolist() == [rng.next_u64() for _ in range(64)]
    other = SeededRng(7)
    other._state = start
    other.skip(64)
    assert other.get_state() == rng.get_state()
    assert other.peek_u64(0).tolist() == []


# --- block draws against the scalar loops they stand for --------------------

BOUNDS = (1, 2, 3, 64, 65, 129)


def scalar_sweep(rng, count, p, m):
    hits, picks = [], []
    for i in range(count):
        if rng.random() < p:
            hits.append(i)
            picks.append(rng.randbelow(m))
    return hits, picks


@pytest.fixture(params=[False, True], ids=["blocks", "tight-blocks"])
def block_draws(request, monkeypatch):
    """Under tight-blocks every block is one output long, so each block
    draw runs out and peeks again."""
    if request.param:
        monkeypatch.setattr(rng_module, "_block_size", lambda decisions, picks, m: 1)


def test_sweep_matches_scalar_loop(block_draws):
    meta = SeededRng(41)
    for m in BOUNDS:
        for p in (0.0, 0.1, 1.0):
            for count in (0, 1, 5, 250):
                seed = meta.next_u64()
                scalar, block = SeededRng(seed), SeededRng(seed)
                hits, picks = block.sweep(count, p, m)
                assert (hits.tolist(), picks.tolist()) == scalar_sweep(scalar, count, p, m)
                assert hits.dtype == picks.dtype == np.int64
                assert block.get_state() == scalar.get_state(), (m, p, count)


def test_block_draws_reject_a_bound_below_one():
    rng = SeededRng(43)
    for draw in (rng.randbelow, lambda m: rng.sweep(3, 0.5, m)):
        with pytest.raises(ValueError, match="bound must be positive"):
            draw(0)
    assert rng.get_state() == SeededRng(43).get_state()
