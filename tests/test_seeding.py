"""The batched SeedSequence -> PCG64 seeding against numpy's constructor."""

import numpy as np
import pytest

from interpk import _seeding
from interpk._seeding import generator, pcg64_states
from interpk.verify import _uniform

SEEDS = [0, 1, 404, 2 ** 32 - 1, 2 ** 32, 2 ** 64 + 3]
INDICES = list(range(301)) + [2 ** 32 - 1, 2 ** 32]


def numpy_state(seed, index):
    rng = np.random.default_rng(np.random.SeedSequence([seed, index]))
    return rng.bit_generator.state


@pytest.mark.parametrize("seed", SEEDS)
def test_states_equal_numpy_one_index_at_a_time(seed):
    for index in INDICES:
        got = list(pcg64_states(seed, index, index + 1))
        assert got == [numpy_state(seed, index)], index


@pytest.mark.parametrize("seed", SEEDS)
def test_states_equal_numpy_in_one_run(seed):
    # 0..300 in one block, and a run across 2^32, where the index gains
    # a uint32 word and the block splits
    for start, stop in ((0, 301), (2 ** 32 - 3, 2 ** 32 + 3)):
        got = list(pcg64_states(seed, start, stop))
        assert got == [numpy_state(seed, i) for i in range(start, stop)]


def test_blocks_join_seamlessly(monkeypatch):
    monkeypatch.setattr(_seeding, "_BLOCK", 7)
    got = list(pcg64_states(404, 3, 40))
    assert got == [numpy_state(404, i) for i in range(3, 40)]


def test_entropy_past_the_pool():
    # 2^96 + 7 and 2^64 + 5 make five uint32 words, one past the pool
    for seed, index in ((2 ** 96 + 7, 2 ** 64 + 5), (2 ** 64 + 3, 2 ** 64)):
        assert (list(pcg64_states(seed, index, index + 1))
                == [numpy_state(seed, index)])


def test_empty_run_and_negative_keys():
    assert list(pcg64_states(0, 5, 5)) == []
    for seed, start in ((-1, 0), (0, -1)):
        with pytest.raises(ValueError):
            next(pcg64_states(seed, start, start + 1))


def test_restarted_generator_draws_numpys_stream():
    rng = generator()
    for index, state in zip(range(50), pcg64_states(7, 0, 50)):
        rng.bit_generator.state = state
        fresh = np.random.default_rng(np.random.SeedSequence([7, index]))
        # a 32-bit draw first: the buffered half word starts empty
        assert rng.integers(0, 5) == fresh.integers(0, 5)
        assert (rng.standard_normal(9).tobytes()
                == fresh.standard_normal(9).tobytes())
        assert rng.random() == fresh.random()


@pytest.mark.parametrize("low, high", [(-5.0, 5.0), (0.1, 1.5), (0.3, 2.0),
                                       (-6.0, 6.0), (-3.0, 3.0)])
def test_affine_uniform_is_numpys(low, high):
    a = np.random.default_rng(11)
    b = np.random.default_rng(11)
    got = np.array([_uniform(a, low, high) for _ in range(40_000)])
    want = np.array([b.uniform(low, high) for _ in range(40_000)])
    assert got.tobytes() == want.tobytes()
