"""Deterministic random stream shared by every stochastic operation.

The generator is a counter-based SplitMix64: draw ``i`` of a stream seeded
with ``s`` mixes the state ``s + i * golden`` through two xor-multiply
rounds. Because each output depends only on (seed, draw index), blocks of
draws vectorize over numpy uint64 with wraparound arithmetic and the stream
is reproducible across implementations and platforms.

Derived draws are pinned as follows:

* uniforms: ``(u64 >> 11) * 2**-53`` giving doubles in [0, 1)
* gaussians: Box-Muller over consecutive uniform pairs; a pair is never
  split across calls, so each call consumes an even number of uniforms and
  depends only on the stream position at entry
* index pairs: ``count`` draws for the i side, then ``count`` for the j
  side; ``index_pair_blocks`` reads a block of each by draw position
"""

from __future__ import annotations

from collections.abc import Iterator

import numpy as np

_GOLDEN = np.uint64(0x9E3779B97F4A7C15)
_MIX_1 = np.uint64(0xBF58476D1CE4E5B9)
_MIX_2 = np.uint64(0x94D049BB133111EB)
_MASK_64 = 0xFFFFFFFFFFFFFFFF
_U53 = 2.0**-53
# Uniform pairs per Box-Muller block: the block's raw draws, mixing scratch,
# radii and angles take about 768 KB.
GAUSSIAN_BLOCK = 16384


def _mix(z: np.ndarray) -> np.ndarray:
    """SplitMix64 output rounds, applied to the uint64 array ``z`` in place."""
    shifted = np.empty_like(z)
    for shift, multiplier in ((30, _MIX_1), (27, _MIX_2)):
        np.right_shift(z, np.uint64(shift), out=shifted)
        z ^= shifted
        z *= multiplier
    np.right_shift(z, np.uint64(31), out=shifted)
    z ^= shifted
    return z


def _uniforms(raw: np.ndarray) -> np.ndarray:
    """Raw draws as doubles uniform on [0, 1), in place of the integers.

    Each value is below 2**53 after the shift, so the conversion is exact.
    """
    raw >>= np.uint64(11)
    return np.multiply(raw, _U53, out=raw.view(np.float64))


def _scaled(uniforms: np.ndarray, bound: int) -> np.ndarray:
    """Uniform doubles as integers uniform on [0, bound); overwrites them."""
    uniforms *= bound
    raw = np.floor(uniforms, out=uniforms).astype(np.int64)
    return np.minimum(raw, bound - 1, out=raw)


class PinnedRng:
    """SplitMix64 stream addressed by draw counter.

    Instances are cheap; create one per independent purpose instead of
    sharing a stream between unrelated consumers.
    """

    def __init__(self, seed: int):
        self._seed = np.uint64(int(seed) & _MASK_64)
        self._drawn = 0

    @property
    def draws(self) -> int:
        """Number of raw 64-bit outputs consumed so far."""
        return self._drawn

    def _draws(self, first: int, n: int) -> np.ndarray:
        """The ``n`` raw outputs at draw positions ``[first, first + n)``,
        whatever the stream's position."""
        state = np.arange(first + 1, first + n + 1, dtype=np.uint64)
        state *= _GOLDEN
        state += self._seed
        return _mix(state)

    def _claim(self, n: int) -> int:
        """Advance the stream past the next ``n`` draws; return where they start."""
        if n < 0:
            raise ValueError("n must be >= 0")
        first = self._drawn
        self._drawn += n
        return first

    def u64(self, n: int) -> np.ndarray:
        """Next ``n`` raw 64-bit outputs."""
        return self._draws(self._claim(n), n)

    def uniforms(self, n: int) -> np.ndarray:
        """Next ``n`` doubles uniform on [0, 1)."""
        return _uniforms(self.u64(n))

    def gaussians(self, n: int, out: np.ndarray | None = None) -> np.ndarray:
        """Next ``n`` standard-normal doubles via Box-Muller.

        Consumes ceil(n/2) uniform pairs; for odd ``n`` the sine half of the
        final pair is discarded rather than carried into the next call. The
        pairs are drawn and transformed GAUSSIAN_BLOCK at a time, so the
        temporaries stay in cache. The draws go into ``out`` when it is given
        (C-contiguous float64 with ``n`` elements, any shape).
        """
        if out is None:
            out = np.empty(n)
        elif out.dtype != np.float64 or out.size != n or not out.flags.c_contiguous:
            raise ValueError(f"out must be C-contiguous float64 with {n} elements")
        flat = out.reshape(-1)
        for start in range(0, n, 2 * GAUSSIAN_BLOCK):
            count = min(2 * GAUSSIAN_BLOCK, n - start)
            pairs = self.uniforms(count + count % 2).reshape(-1, 2)
            # u == 0 occurs with probability 2^-53; substitute the smallest
            # positive draw so the radius stays finite. Every nonzero draw is
            # at least that, so the maximum changes nothing else.
            radius = np.maximum(pairs[:, 0], _U53)
            np.log(radius, out=radius)
            radius *= -2.0
            np.sqrt(radius, out=radius)
            theta = np.multiply(pairs[:, 1], 2.0 * np.pi)
            # The pair's uniforms are spent, so the outputs take their place.
            np.cos(theta, out=pairs[:, 0])
            pairs[:, 0] *= radius
            np.sin(theta, out=theta)
            np.multiply(radius, theta, out=pairs[:, 1])
            flat[start : start + count] = pairs.reshape(-1)[:count]
        return out

    def permutation(self, n: int) -> np.ndarray:
        """Deterministic permutation of range(n): argsort of n uniform keys."""
        keys = self.uniforms(n)
        return np.argsort(keys, kind="stable")

    def indices(self, n: int, bound: int) -> np.ndarray:
        """Next ``n`` integers uniform on [0, bound)."""
        if bound <= 0:
            raise ValueError("bound must be positive")
        return _scaled(self.uniforms(n), bound)

    def index_pair_blocks(
        self, count: int, n: int, block: int
    ) -> Iterator[tuple[np.ndarray, np.ndarray]]:
        """``count`` pairs (i, j) with i != j, both in [0, n), as
        consecutive blocks of at most ``block`` pairs, each drawn only when
        the iteration reaches it.

        Consumes 2*count uniforms: a run of i draws on [0, n) followed by a
        run of j draws on [0, n-1), each j shifted past its i. The stream
        advances past all of them at the call, so what is drawn next does
        not depend on how far the blocks are read.
        """
        if block < 1:
            raise ValueError("block must be >= 1")
        if n < 2:
            raise ValueError("need n >= 2 to form distinct pairs")
        first = self._claim(2 * count)
        return (
            self._pairs_at(first, count, n, start, min(start + block, count))
            for start in range(0, count, block)
        )

    def _pairs_at(
        self, first: int, count: int, n: int, start: int, stop: int
    ) -> tuple[np.ndarray, np.ndarray]:
        """Pairs ``[start, stop)`` of the ``count`` drawn from position
        ``first``: i from draws ``first + [start, stop)``, j from draws
        ``first + count + [start, stop)``."""
        i = _scaled(_uniforms(self._draws(first + start, stop - start)), n)
        j = _scaled(_uniforms(self._draws(first + count + start, stop - start)), n - 1)
        j += j >= i
        return i, j
