"""The batched SeedSequence -> PCG64 seeding against numpy's constructor."""

import numpy as np
import pytest

from interpk import _seeding, oracle_agreement
from interpk._seeding import generator, pcg64_states
from interpk.errors import SizeError
from interpk.verify import _uniform

SEEDS = [0, 1, 404, 2 ** 32 - 1, 2 ** 32, 2 ** 64 + 3]
COUNT = 301


def numpy_state(seed, index):
    rng = np.random.default_rng(np.random.SeedSequence([seed, index]))
    return rng.bit_generator.state


@pytest.mark.parametrize("seed", SEEDS)
def test_states_equal_numpy_one_index_at_a_time(seed, monkeypatch):
    # one index per block: each state from a numpy pass of its own
    monkeypatch.setattr(_seeding, "_BLOCK", 1)
    got = list(pcg64_states(seed, COUNT))
    assert got == [numpy_state(seed, i) for i in range(COUNT)]


@pytest.mark.parametrize("seed", SEEDS)
def test_states_equal_numpy_in_one_run(seed):
    got = list(pcg64_states(seed, COUNT))
    assert got == [numpy_state(seed, i) for i in range(COUNT)]


def test_blocks_join_seamlessly(monkeypatch):
    monkeypatch.setattr(_seeding, "_BLOCK", 7)
    got = list(pcg64_states(404, 40))
    assert got == [numpy_state(404, i) for i in range(40)]


def test_entropy_past_the_pool():
    # 2^96 + 7 and its index make five uint32 words, one past the pool;
    # 2^128 + 5 makes six, two past it
    for seed in (2 ** 96 + 7, 2 ** 128 + 5):
        assert (list(pcg64_states(seed, 6))
                == [numpy_state(seed, i) for i in range(6)])


def test_empty_run_and_negative_keys():
    assert list(pcg64_states(0, 0)) == []
    with pytest.raises(ValueError):
        next(pcg64_states(-1, 1))


def test_count_above_two_to_the_32_is_refused(monkeypatch):
    # every index is one uint32 word: 2^32 indices fit, one more does not,
    # and the refusal comes before any state is computed
    assert next(pcg64_states(5, 2 ** 32)) == numpy_state(5, 0)

    def no_block(*args):
        raise AssertionError("a state was computed")

    monkeypatch.setattr(_seeding, "_block_states", no_block)
    with pytest.raises(SizeError, match=r"count 4294967297 exceeds 2\^32"):
        next(pcg64_states(5, 2 ** 32 + 1))
    with pytest.raises(SizeError):
        oracle_agreement(2 ** 32 + 1)


def test_restarted_generator_draws_numpys_stream():
    rng = generator()
    for index, state in zip(range(50), pcg64_states(7, 50)):
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
