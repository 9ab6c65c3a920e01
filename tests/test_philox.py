"""RngStream's words are those of published Philox4x64-10.

A pure-Python reference of the generator (Salmon, Moraes, Dror & Shaw,
"Parallel random numbers: as easy as 1, 2, 3", SC'11) pins every word that
srlab draws: key word 0 is the seed and key word 1 the stream id, and word
j of a stream is output word j % 4 of the block at counter j // 4 + 1, as
numpy's first block uses counter 1, not 0.
"""

from functools import lru_cache

import pytest

from srlab.sr import _BLOCK, KEY_MAX, RngStream

from test_sr import GOLDEN_FIRST_WORD

_M0, _M1 = 0xD2E7470EE14C6C93, 0xCA5A826395121157  # round multipliers
_W0, _W1 = 0x9E3779B97F4A7C15, 0xBB67AE8584CAA73B  # Weyl key increments
_MASK = (1 << 64) - 1

KEYS = [(0, 0), (1, 0), (1, 7), (KEY_MAX, 2**63 + 5)]
WORDS = 2 * _BLOCK


@lru_cache(maxsize=None)
def philox4x64_10(key: tuple[int, int], count: int) -> tuple[int, ...]:
    """The first ``count`` words of the stream keyed by ``key``."""
    out = []
    for counter in range(1, (count + 3) // 4 + 1):  # below 2**64: one counter word
        c = [counter, 0, 0, 0]
        k0, k1 = key
        for _ in range(10):
            p0, p1 = _M0 * c[0], _M1 * c[2]
            c = [p1 >> 64 ^ c[1] ^ k0, p1 & _MASK, p0 >> 64 ^ c[3] ^ k1, p0 & _MASK]
            k0, k1 = (k0 + _W0) & _MASK, (k1 + _W1) & _MASK
        out += c
    return tuple(out[:count])


def test_reference_gives_the_frozen_first_word():
    assert philox4x64_10((0, 0), 1) == (GOLDEN_FIRST_WORD,)


@pytest.mark.parametrize("key", KEYS, ids=str)
def test_bits_array_is_philox4x64_10(key):
    assert RngStream(*key).bits_array(64, WORDS).tolist() == list(philox4x64_10(key, WORDS))


@pytest.mark.parametrize("key", KEYS, ids=str)
def test_masked_draws_at_mixed_widths_are_philox4x64_10(key):
    # runs of 7 draws at one width, across the block edge, then a bulk draw
    # of the rest from mid-block
    want = philox4x64_10(key, WORDS)
    rng = RngStream(*key)
    widths = [[1, 7, 64, 3, 53, 64, 32, 11][j // 7 % 8] for j in range(_BLOCK + 500)]
    got = [rng.next_bits(k) for k in widths]
    assert got == [w & ((1 << k) - 1) for w, k in zip(want, widths)]
    rest = rng.bits_array(5, WORDS - len(got)).tolist()
    assert rest == [w & 31 for w in want[len(got):]]
