"""The random strategy's generator against numpy, its oracle.

``sample_indices`` must hold numpy's ``default_rng(seed).choice(n, k,
replace=False)`` index set and ``derive_seed`` must equal
``SeedSequence(entropy).generate_state(1)[0]``, for seeds past 2**64 and
on both of numpy's sampling branches: Floyd's algorithm, and the tail
shuffle taken when n > 10,000 and k > n // 50, with k = 0 and k = n among
them, and for n up to 2**32 - 1, where Lemire's method rejects often
inside Floyd's loop.  A sample of every index makes no draw.  The
bounded draw is checked on its own over the whole 32-bit range too.
"""

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from kgsqueeze import _rng
from kgsqueeze._rng import _bounded, _draws, derive_seed, sample_indices

np = pytest.importorskip("numpy")

SEEDS = st.one_of(st.integers(0, 2**32), st.integers(2**64, 2**100))


@st.composite
def sizes(draw):
    """(n, k) on Floyd's branch, small, large or 32-bit n, or on the tail
    shuffle's."""
    branches = ["floyd", "floyd-large-n", "floyd-32-bit", "shuffle"]
    branch = draw(st.sampled_from(branches))
    if branch == "floyd":
        n = draw(st.integers(0, 2_000))
        return n, draw(st.integers(0, n))
    if branch == "floyd-32-bit":
        # Lemire's method rejects up to about half the draws of such a bound.
        return draw(st.integers(2**31, 2**32 - 1)), draw(st.integers(0, 60))
    n = draw(st.integers(10_001, 30_000))
    if branch == "floyd-large-n":
        return n, draw(st.integers(0, n // 50))
    return n, draw(st.integers(n // 50 + 1, n))


@settings(deadline=None)
@given(seed=SEEDS, size=sizes())
@example(seed=2**64 + 1, size=(10_001, 200))
@example(seed=2**64 + 1, size=(10_001, 201))
@example(seed=0, size=(1, 1))
@example(seed=5, size=(2**31 + 1, 60))  # Floyd's loop, Lemire rejecting often
@example(seed=0, size=(0, 0))
@example(seed=3, size=(2_000, 2_000))  # k = n, Floyd's branch
@example(seed=3, size=(2_000, 0))
@example(seed=2**64 + 1, size=(10_001, 10_001))  # k = n, the tail shuffle's
@example(seed=2**64 + 1, size=(10_001, 0))  # k = 0 takes Floyd's at any n
def test_sample_indices_is_numpys_choice(seed, size):
    n, k = size
    expected = np.random.default_rng(seed).choice(n, k, replace=False)
    assert sorted(sample_indices(seed, n, k)) == sorted(expected.tolist())


@pytest.mark.parametrize("n", [0, 1, 2_000, 10_001])
def test_sampling_every_index_draws_nothing(monkeypatch, n):
    def no_draws(seed):
        raise AssertionError("drew from the generator")

    monkeypatch.setattr(_rng, "_draws", no_draws)
    assert sorted(sample_indices(5, n, n)) == list(range(n))


@settings(deadline=None)
@given(seed=SEEDS, high=st.integers(0, 2**32 - 1))
@example(seed=7, high=2**31)
def test_bounded_draws_are_numpys_integers(seed, high):
    draws = _draws(seed)
    expected = np.random.default_rng(seed).integers(
        0, high, size=20, endpoint=True, dtype=np.uint32
    )
    assert [_bounded(draws, high) for _ in range(20)] == expected.tolist()


@settings(deadline=None)
@given(entropy=st.lists(st.integers(0, 2**70), min_size=1, max_size=7))
@example(entropy=[2**64 + 1, 3, 2])
@example(entropy=[0])
def test_derive_seed_is_numpys_seed_sequence(entropy):
    expected = np.random.SeedSequence(entropy).generate_state(1)[0]
    assert derive_seed(*entropy) == int(expected)


@pytest.mark.parametrize("n, k", [(3, 4), (3, -1)])
def test_sample_larger_than_population_is_rejected(n, k):
    with pytest.raises(ValueError, match="cannot sample"):
        sample_indices(0, n, k)


def test_negative_entropy_is_rejected():
    with pytest.raises(ValueError, match="entropy must be non-negative"):
        derive_seed(1, -1)
