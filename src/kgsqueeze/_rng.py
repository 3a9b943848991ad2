"""The random strategy's generator: numpy's ``default_rng`` stream, in the package.

``derive_seed`` is ``numpy.random.SeedSequence(entropy).generate_state(1)[0]``
and ``sample_indices`` draws the index set of
``numpy.random.default_rng(seed).choice(n, k, replace=False)``, both bit for
bit (checked against numpy 2.4.6), so the ``random`` stream, its selection
documents and the sweep's derived run seeds are those of numpy without
importing it, and no numpy release can move them.

- ``SeedSequence``: the entropy integers become little-endian 32-bit limbs
  (0 gives one zero word), hashmixed into a pool of four words.
- ``PCG64`` (O'Neill 2014): a 128-bit LCG seeded from four 64-bit state words
  as (state hi, lo; increment hi, lo); each step's XSL-RR output gives two
  32-bit draws, low half first.
- Bounded draws use Lemire's method on 32 bits (Lemire 2019).
- The sample is Floyd's algorithm (Bentley & Floyd 1987), or a tail
  Fisher-Yates shuffle when n > 10,000 and k > n // 50, as in numpy.
  numpy's final shuffle of a Floyd sample only reorders it and is skipped.
  A sample of all n indices is the whole range on either branch, so it
  is returned without a draw.
"""

from __future__ import annotations

from collections.abc import Iterator

_M32 = 0xFFFFFFFF
_M64 = 0xFFFFFFFFFFFFFFFF
_M128 = (1 << 128) - 1

# SeedSequence's pool size and hash constants.
_POOL_SIZE = 4
_INIT_A, _MULT_A = 0x43B0D7E5, 0x931E8875
_INIT_B, _MULT_B = 0x8B51F9DD, 0x58F38DED
_MIX_MULT_L, _MIX_MULT_R = 0xCA01F9DD, 0x4973F715

_PCG_MULT = 0x2360ED051FC65DA44385DF649FCCF645


def _limbs(entropy: tuple[int, ...]) -> list[int]:
    words = []
    for value in entropy:
        if value < 0:
            raise ValueError(f"entropy must be non-negative, got {value}")
        words.append(value & _M32)
        value >>= 32
        while value:
            words.append(value & _M32)
            value >>= 32
    return words


def _generate_state(entropy: tuple[int, ...], n_words: int) -> list[int]:
    """``SeedSequence(entropy).generate_state(n_words)`` as 32-bit words."""
    hash_const = _INIT_A

    def hashmix(value: int) -> int:
        nonlocal hash_const
        value ^= hash_const
        hash_const = hash_const * _MULT_A & _M32
        value = value * hash_const & _M32
        return value ^ value >> 16

    def mix(x: int, y: int) -> int:
        result = (_MIX_MULT_L * x - _MIX_MULT_R * y) & _M32
        return result ^ result >> 16

    words = _limbs(entropy)
    pool = [hashmix(words[i] if i < len(words) else 0) for i in range(_POOL_SIZE)]
    for src in range(_POOL_SIZE):
        for dst in range(_POOL_SIZE):
            if src != dst:
                pool[dst] = mix(pool[dst], hashmix(pool[src]))
    for word in words[_POOL_SIZE:]:
        for dst in range(_POOL_SIZE):
            pool[dst] = mix(pool[dst], hashmix(word))

    state = []
    hash_const = _INIT_B
    for i in range(n_words):
        value = pool[i % _POOL_SIZE] ^ hash_const
        hash_const = hash_const * _MULT_B & _M32
        value = value * hash_const & _M32
        state.append(value ^ value >> 16)
    return state


def derive_seed(*entropy: int) -> int:
    """``SeedSequence(list(entropy)).generate_state(1)[0]``: a 32-bit seed."""
    return _generate_state(entropy, 1)[0]


def _draws(seed: int) -> Iterator[int]:
    """The 32-bit draws of ``PCG64(SeedSequence(seed))``."""
    w = _generate_state((seed,), 8)
    s_hi, s_lo, i_hi, i_lo = (w[i] | w[i + 1] << 32 for i in range(0, 8, 2))
    inc = ((i_hi << 64 | i_lo) << 1 | 1) & _M128
    state = ((inc + (s_hi << 64 | s_lo)) * _PCG_MULT + inc) & _M128
    while True:
        state = (state * _PCG_MULT + inc) & _M128
        rot = state >> 122
        value = (state >> 64) ^ (state & _M64)
        value = (value >> rot | value << (64 - rot)) & _M64
        yield value & _M32
        yield value >> 32


def _bounded(draws: Iterator[int], high: int) -> int:
    """A uniform draw in [0, high], for 0 <= high < 2**32."""
    if high == 0:
        return 0
    span = high + 1
    m = next(draws) * span
    if m & _M32 < span:
        threshold = (_M32 - high) % span
        while m & _M32 < threshold:
            m = next(draws) * span
    return m >> 32


def sample_indices(seed: int, n: int, k: int) -> list[int]:
    """``k`` distinct indices in [0, n), in no particular order: the set
    ``numpy.random.default_rng(seed).choice(n, k, replace=False)`` holds."""
    if not 0 <= k <= n:
        raise ValueError(f"cannot sample {k} of {n} indices")
    if k == n:
        return list(range(n))
    draws = _draws(seed)
    if n > 10_000 and k > n // 50:
        pool = list(range(n))
        for i in range(n - 1, max(n - k, 1) - 1, -1):
            j = _bounded(draws, i)
            pool[i], pool[j] = pool[j], pool[i]
        return pool[n - k :]
    chosen: set[int] = set()
    for j in range(n - k, n):
        value = _bounded(draws, j)
        chosen.add(j if value in chosen else value)
    return list(chosen)
