"""Seedable random numbers with reproducible, splittable streams.

The core generator is SplitMix64 (Steele, Lea & Flood 2014), a 64-bit
recurrence small enough to write down in full:

    state  = (state + 0x9E3779B97F4A7C15)            mod 2**64
    z      = state
    z      = (z ^ (z >> 30)) * 0xBF58476D1CE4E5B9    mod 2**64
    z      = (z ^ (z >> 27)) * 0x94D049BB133111EB    mod 2**64
    output = z ^ (z >> 31)

An explicit recurrence instead of a platform generator keeps the integer
stream bit-identical across interpreters, platforms and library versions;
the golden-sequence test pins it.

Independent child streams come from ``split(label)``: the child seed is
the SplitMix64 mix of (parent seed XOR FNV-1a(label)). A child therefore
depends only on (seed, label), never on how far the parent stream has
advanced, so enabling one consumer cannot shift another's sequence.

The recurrence is a counter: output k after a state s is the output
function applied to s + k * gamma. ``peek_u64`` uses that form to compute
a block of upcoming outputs at once in ``uint64`` arithmetic, and
``skip`` advances past the outputs a block draw used. Each block draw
returns the values of a scalar loop and leaves the stream where that
loop leaves it: ``sweep``, the memory's substitution sweep over every
slot, is a loop of ``random`` and ``randbelow`` calls, and
``truncated_normals``, the climate noise, is a Box-Muller loop that
``tests/test_scalar_oracles.py`` holds. No other module turns SplitMix64
outputs into values. Shorter draws, the replay indices and the initial
weights, are loops of scalar calls. A stream's whole state is the two
integers of ``get_state``: its seed and its counter.
"""

from __future__ import annotations

import math

import numpy as np

_MASK64 = (1 << 64) - 1
_GOLDEN_GAMMA = 0x9E3779B97F4A7C15
_MIX_A = 0xBF58476D1CE4E5B9
_MIX_B = 0x94D049BB133111EB
_FNV_OFFSET = 0xCBF29CE484222325
_FNV_PRIME = 0x100000001B3

_INV_2_53 = 2.0 ** -53


def _mix64(x: int) -> int:
    """SplitMix64 output function applied to a single 64-bit value."""
    z = (x + _GOLDEN_GAMMA) & _MASK64
    z = ((z ^ (z >> 30)) * _MIX_A) & _MASK64
    z = ((z ^ (z >> 27)) * _MIX_B) & _MASK64
    return z ^ (z >> 31)


def _fnv1a64(text: str) -> int:
    h = _FNV_OFFSET
    for byte in text.encode("utf-8"):
        h ^= byte
        h = (h * _FNV_PRIME) & _MASK64
    return h


def _uniforms(block: np.ndarray) -> np.ndarray:
    """``SeededRng.random`` of each output in a ``peek_u64`` block."""
    return (block >> np.uint64(11)).astype(np.float64) * _INV_2_53


def _rejection_mask(m: int) -> int:
    """The bit mask ``SeededRng.randbelow(m)`` applies before rejecting."""
    if m < 1:
        raise ValueError(f"randbelow: the bound must be positive, got {m}")
    return (1 << (m - 1).bit_length()) - 1


def _block_size(decisions: int, picks: float, m: int) -> int:
    """Outputs to peek for ``decisions`` single draws plus about ``picks``
    ``randbelow(m)`` calls: the expected count with a 25 % margin."""
    return decisions + int(picks * (_rejection_mask(m) + 1) / m * 1.25) + 64


class SeededRng:
    """Deterministic single-consumer random stream.

    Not thread-safe by design: concurrency is obtained by ``split``,
    never by sharing one instance.
    """

    __slots__ = ("seed", "_state")

    def __init__(self, seed: int):
        self.seed = seed & _MASK64
        self._state = self.seed

    def next_u64(self) -> int:
        out = _mix64(self._state)  # _mix64 adds the gamma step itself
        self._state = (self._state + _GOLDEN_GAMMA) & _MASK64
        return out

    def peek_u64(self, n: int) -> np.ndarray:
        """The next ``n`` outputs of ``next_u64`` as a ``uint64`` array,
        without advancing the stream."""
        k = np.arange(1, n + 1, dtype=np.uint64)
        z = np.uint64(self._state) + k * np.uint64(_GOLDEN_GAMMA)
        z ^= z >> np.uint64(30)
        z *= np.uint64(_MIX_A)
        z ^= z >> np.uint64(27)
        z *= np.uint64(_MIX_B)
        z ^= z >> np.uint64(31)
        return z

    def skip(self, n: int) -> None:
        """Advance the stream past ``n`` outputs."""
        self._state = (self._state + n * _GOLDEN_GAMMA) & _MASK64

    def random(self) -> float:
        """Uniform float in [0, 1) with 53 random bits."""
        return (self.next_u64() >> 11) * _INV_2_53

    def uniform(self, low: float, high: float) -> float:
        return low + (high - low) * self.random()

    def randbelow(self, n: int) -> int:
        """Uniform integer in [0, n) by masked rejection (exactly uniform)."""
        mask = _rejection_mask(n)
        if n == 1:
            return 0
        while True:
            r = self.next_u64() & mask
            if r < n:
                return r

    def sweep(self, count: int, p: float, m: int) -> tuple[np.ndarray, np.ndarray]:
        """The hits and picks of the scalar loop

            for i in range(count):
                if self.random() < p:
                    hit i, pick self.randbelow(m)

        as two int64 arrays, leaving the stream where that loop leaves it."""
        mask = np.uint64(_rejection_mask(m))
        if m == 1:
            hits = np.flatnonzero(_uniforms(self.peek_u64(count)) < p)
            self.skip(count)
            return hits, np.zeros(len(hits), dtype=np.int64)
        size = _block_size(count, count * p, m)
        while True:
            block = self.peek_u64(size)
            low = (block & mask).astype(np.int64)
            accepted = np.flatnonzero(low < m)
            candidates = np.flatnonzero(_uniforms(block) < p)
            # the draw that ends randbelow if draw k is a hit (size: beyond the block)
            resolving = np.append(accepted, size)[np.searchsorted(accepted, candidates + 1)]
            hits, picks = [], []
            drawn = decided = 0
            for k, r in zip(candidates.tolist(), resolving.tolist()):
                if k < drawn:
                    continue  # a rejection draw of an earlier hit, not a decision
                i = decided + k - drawn
                if i >= count or r == size:
                    break
                hits.append(i)
                picks.append(r)
                decided, drawn = i + 1, r + 1
            else:
                i = count
            drawn += count - decided
            if i >= count and drawn <= size:
                self.skip(drawn)
                return np.array(hits, dtype=np.int64), low[np.array(picks, dtype=np.int64)]
            size *= 2

    def truncated_normals(self, n: int, limit: float = 3.0) -> np.ndarray:
        """``n`` standard normals with ``|z| <= limit``, as one array: by
        Box-Muller, the cosine and then the sine of each pair of uniforms,
        rejected until ``n`` are accepted.

        The values and the stream state afterwards are those of the scalar
        loop in ``tests/test_scalar_oracles.py``: a sine left after the
        n-th value is dropped with its pair. The uniforms come from
        ``peek_u64`` blocks and the square roots and products
        from numpy, which round as IEEE requires; ``log``, ``sin`` and
        ``cos`` stay on ``math``, because numpy's vectorized versions are
        not bit-for-bit the platform libm that the scalar calls use. A
        block sized for the rejections of a 3-sigma limit is walked to the
        n-th accepted value; a block that falls short is followed by another.
        """
        pieces = []
        need = n
        while need:
            pairs = (need + 1) // 2 + need // 256 + 4
            bits = self.peek_u64(2 * pairs) >> np.uint64(11)
            u1 = (bits[0::2] + np.uint64(1)).astype(np.float64) * _INV_2_53
            theta = (2.0 * math.pi) * (bits[1::2].astype(np.float64) * _INV_2_53)
            r = np.sqrt(-2.0 * np.fromiter(map(math.log, u1.tolist()), np.float64, pairs))
            angles = theta.tolist()
            z = np.empty((pairs, 2))
            z[:, 0] = r * np.fromiter(map(math.cos, angles), np.float64, pairs)
            z[:, 1] = r * np.fromiter(map(math.sin, angles), np.float64, pairs)
            z = z.ravel()
            accepted = np.flatnonzero(np.abs(z) <= limit)[:need]
            if len(accepted) == need:
                self.skip(2 * (int(accepted[-1]) // 2 + 1))
            else:
                self.skip(2 * pairs)
            pieces.append(z[accepted])
            need -= len(accepted)
        return np.concatenate(pieces) if pieces else np.empty(0)

    def sample_indices(self, n: int, k: int) -> list[int]:
        """k distinct indices from range(n), by partial Fisher-Yates."""
        if not 0 <= k <= n:
            raise ValueError(f"sample_indices: need 0 <= k <= n, got k={k}, n={n}")
        pool = list(range(n))
        for i in range(k):
            j = i + self.randbelow(n - i)
            pool[i], pool[j] = pool[j], pool[i]
        return pool[:k]

    def split(self, label: str) -> "SeededRng":
        """Independent child stream determined by (seed, label) only."""
        return SeededRng(_mix64(self.seed ^ _fnv1a64(label)))

    def get_state(self) -> dict:
        return {"seed": self.seed, "state": self._state}

    @classmethod
    def from_state(cls, state: dict) -> "SeededRng":
        """The stream that ``get_state`` gave ``state``: 64-bit unsigned
        ``seed`` and ``state``."""
        if not (isinstance(state, dict) and set(state) == {"seed", "state"}
                and all(type(v) is int and 0 <= v <= _MASK64 for v in state.values())):
            raise ValueError(f"not a stream state: {state!r}")
        rng = cls(state["seed"])
        rng._state = state["state"]
        return rng
