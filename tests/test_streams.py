import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from chansim.streams import streams

# Word boundaries of numpy's entropy coercion, plus integers of many words.
EDGES = [0, 1, 2**32 - 1, 2**32, 2**32 + 1, 2**64 - 1, 2**64, 2**64 + 7, 2**96, 2**130 + 3]
words = st.one_of(st.sampled_from(EDGES), st.integers(0, 2**32 - 1), st.integers(0, 2**200))
entropy = st.one_of(words, st.lists(words, min_size=1, max_size=6))


def draws(rng: np.random.Generator) -> tuple:
    return rng.random(), rng.standard_normal(), rng.poisson(4.5), rng.standard_normal()


def assert_same_stream(got: np.random.Generator, seed) -> None:
    want = np.random.default_rng(seed)
    assert got.bit_generator.state == want.bit_generator.state
    assert draws(got) == draws(want)


@settings(max_examples=300, deadline=None)
@given(st.lists(entropy, min_size=1, max_size=8))
def test_each_stream_is_default_rng(entropies):
    for seed, rng in zip(entropies, streams(entropies), strict=True):
        assert_same_stream(rng, seed)


@pytest.mark.parametrize("seed", [
    0, 2**32 - 1, 2**32, 2**64, [0], [0, 0, 0, 0], [0, 0, 0, 0, 0], [1, 2, 3, 4, 5, 6],
    [2**32 - 1, 2**32], [2**70 + 3, 5], [5, 2**70 + 3], np.uint32(9),
    [np.int64(3), np.uint64(2**63)], [True, 2],
])
def test_edge_entropies(seed):
    [rng] = streams([seed])
    assert_same_stream(rng, seed)


def test_pass_of_mixed_word_counts():
    # One pass whose rows span 1 to 7 words; a row's stream ignores its neighbours.
    entropies = [[1, i] for i in range(50)] + [2**32 - 2 + i for i in range(4)] + [
        [2**200, i] for i in range(3)]
    for seed, rng in zip(entropies, streams(entropies), strict=True):
        assert_same_stream(rng, seed)


def test_one_shared_generator():
    a, b = streams([1, 2])
    assert a is b


def test_empty():
    assert list(streams([])) == []


@pytest.mark.parametrize("seed", [-1, [3, -1], -(2**64)])
def test_negative_refused(seed):
    with pytest.raises(ValueError, match="expected non-negative integer"):
        list(streams([seed]))
    with pytest.raises(ValueError, match="expected non-negative integer"):
        np.random.default_rng(seed)


@pytest.mark.parametrize("seed", [1.5, [1, 2.0], "3", None])
def test_non_integer_refused(seed):
    with pytest.raises(TypeError, match="seed must be integer"):
        list(streams([seed]))
