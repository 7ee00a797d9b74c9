"""The PCG64 states of ``default_rng(SeedSequence([seed, i]))`` for
i = 0, 1, ..., count - 1.

Building one numpy generator per (seed, index) key costs tens of
microseconds, nearly all of it in ``SeedSequence``'s pool mix and in
``PCG64``'s constructor.  Both are fixed, documented algorithms: the pool mix
and ``generate_state`` of numpy's ``bit_generator.pyx`` (O'Neill's
seed_seq_fe hash on uint32 words) and ``pcg_setseq_128_srandom_r`` of the
PCG reference code.  ``pcg64_states`` runs the first in uint32 numpy
arithmetic for a whole block of indices at once and the second in Python
ints, and returns the state dicts numpy's constructor would leave, so a
single generator restarted from each one draws the same streams.

A seed of any size is one or more uint32 words of the key, and each index
is exactly one: the indices run from 0 and stop below 2^32.  A sample set
is always a sweep from index 0, and a sweep is capped far below that
(``verify._SWEEP_MAX_CELLS``).
"""

from __future__ import annotations

import operator
from typing import Iterator

import numpy as np

from .errors import SizeError

_MASK32 = 0xFFFFFFFF
_MASK128 = (1 << 128) - 1
_POOL_SIZE = 4                              # SeedSequence's default pool
_INIT_A, _MULT_A = 0x43B0D7E5, 0x931E8875   # hashmix for the pool mix
_INIT_B, _MULT_B = 0x8B51F9DD, 0x58F38DED   # hashmix for generate_state
_MIX_MULT_L, _MIX_MULT_R = 0xCA01F9DD, 0x4973F715
_PCG_MULT = 0x2360ED051FC65DA44385DF649FCCF645

# Indices whose states one numpy pass computes.  The pass holds a few
# (8, block) uint32 arrays and one dict per index, so memory stays flat
# whatever the run length; at 4096 the pass's fixed cost of about 50
# numpy calls is spread thin.
_BLOCK = 4096


def _hash_consts(init: int, mult: int, n: int) -> np.ndarray:
    """The constants of n successive hashmix calls, as (2, n, 1) uint32.

    hashmix(v) with running constant h is v ^= h; h *= mult; v *= h;
    v ^= v >> 16.  The xor takes the constant before the update (row 0),
    the product the one after (row 1).
    """
    out = np.empty((2, n, 1), dtype=np.uint32)
    h = init
    for k in range(n):
        out[0, k] = h
        h = (h * mult) & _MASK32
        out[1, k] = h
    return out


def _pool_mix_consts(words: int) -> list[np.ndarray]:
    """The hashmix constants of SeedSequence's pool mix for ``words``
    entropy words, one (2, 4, 1) array per step of ``_mix_pool``.

    Step 0 hashes the four pool words.  Step 1 + src hashes pool word src
    once per other pool word, in order; the slot of src itself holds 0,
    a constant ``_mix_pool`` discards.  Each entropy word past the pool
    adds a step that hashes it once per pool word.
    """
    extra = max(0, words - _POOL_SIZE)
    flat = _hash_consts(_INIT_A, _MULT_A,
                        _POOL_SIZE * (_POOL_SIZE + extra))
    steps = [flat[:, :_POOL_SIZE]]
    calls = _POOL_SIZE
    for src in range(_POOL_SIZE):
        step = np.zeros((2, _POOL_SIZE, 1), dtype=np.uint32)
        dst = [k for k in range(_POOL_SIZE) if k != src]
        step[:, dst] = flat[:, calls:calls + len(dst)]
        steps.append(step)
        calls += len(dst)
    steps += [flat[:, calls + _POOL_SIZE * k:calls + _POOL_SIZE * (k + 1)]
              for k in range(extra)]
    return steps


# keys of up to 4 words (a seed below 2^96 and its index); longer keys
# work theirs out per block
_POOL_MIX = _pool_mix_consts(_POOL_SIZE)
_STATE_HASH = _hash_consts(_INIT_B, _MULT_B, 2 * _POOL_SIZE)


def _hashmix(values: np.ndarray, consts: np.ndarray) -> np.ndarray:
    """hashmix of ``values`` (uint32) under each constant pair of
    ``consts`` (see ``_hash_consts``), broadcast row by row."""
    values = values ^ consts[0]
    values *= consts[1]
    values ^= values >> np.uint32(16)
    return values


def _mix(x: np.ndarray, y: np.ndarray) -> np.ndarray:
    out = x * np.uint32(_MIX_MULT_L)
    out -= y * np.uint32(_MIX_MULT_R)
    out ^= out >> np.uint32(16)
    return out


def _mix_pool(entropy: np.ndarray) -> np.ndarray:
    """SeedSequence.mix_entropy on each column of ``entropy`` (words,
    keys): the (4, keys) pool."""
    words = len(entropy)
    steps = (_POOL_MIX if words <= _POOL_SIZE
             else _pool_mix_consts(words))
    pool = np.zeros((_POOL_SIZE, entropy.shape[1]), dtype=np.uint32)
    pool[:min(words, _POOL_SIZE)] = entropy[:_POOL_SIZE]
    pool = _hashmix(pool, steps[0])
    for src in range(_POOL_SIZE):
        # every other pool word takes pool[src] hashed; pool[src] stays
        keep = pool[src].copy()
        pool = _mix(pool, _hashmix(keep, steps[1 + src]))
        pool[src] = keep
    for word, step in zip(entropy[_POOL_SIZE:], steps[1 + _POOL_SIZE:]):
        pool = _mix(pool, _hashmix(word, step))
    return pool


def _uint32_words(value: int) -> list[int]:
    """SeedSequence's uint32 words of a nonnegative int, low word first."""
    words = [value & _MASK32]
    value >>= 32
    while value:
        words.append(value & _MASK32)
        value >>= 32
    return words


def _block_states(seed_words: list[int], lo: int, hi: int) -> list:
    """PCG64 state dicts of the keys [seed, i], lo <= i < hi <= 2^32."""
    entropy = np.empty((len(seed_words) + 1, hi - lo), dtype=np.uint32)
    entropy[:-1] = np.array(seed_words, dtype=np.uint32)[:, None]
    entropy[-1] = np.arange(lo, hi, dtype=np.uint32)
    pool = _mix_pool(entropy)
    # generate_state(4, uint64): eight uint32 words cycling over the pool,
    # paired low word first into four uint64 words
    words = _hashmix(np.concatenate((pool, pool)), _STATE_HASH)
    words = words.T.astype("<u4", order="C").view("<u8")
    states = []
    for s_hi, s_lo, i_hi, i_lo in words.tolist():
        # pcg_setseq_128_srandom_r(initstate = s, initseq = i): the
        # increment is 2i + 1; from state 0, step, add s, step again
        inc = ((((i_hi << 64) | i_lo) << 1) | 1) & _MASK128
        state = ((inc + ((s_hi << 64) | s_lo)) * _PCG_MULT + inc) & _MASK128
        states.append({"bit_generator": "PCG64",
                       "state": {"state": state, "inc": inc},
                       "has_uint32": 0, "uinteger": 0})
    return states


def pcg64_states(seed: int, count: int) -> Iterator[dict]:
    """The ``bit_generator.state`` of
    ``np.random.default_rng(np.random.SeedSequence([seed, i]))`` for
    i = 0, ..., count - 1, in order, computed in blocks of at most
    ``_BLOCK`` indices.  Every index is one uint32 word, so a count above
    2^32 raises SizeError before any state is computed."""
    seed, count = operator.index(seed), operator.index(count)
    if seed < 0:
        raise ValueError("expected non-negative integer")
    if count > 2 ** 32:
        raise SizeError(f"count {count} exceeds 2^32, the indices one "
                        f"uint32 word holds")
    seed_words = _uint32_words(seed)
    for lo in range(0, count, _BLOCK):
        yield from _block_states(seed_words, lo, min(count, lo + _BLOCK))


def generator() -> np.random.Generator:
    """A PCG64 generator to restart from the states of ``pcg64_states``;
    its own seed is never drawn from."""
    return np.random.Generator(np.random.PCG64(0))
