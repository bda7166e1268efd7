"""Seed derivation and the counter-mode stream."""

import pytest
from hypothesis import given, strategies as st

from pokeleague.rng import SeededStream, stable_hash64


def test_stable_hash_is_stable():
    # Frozen expected values: an algorithm change would silently re-seed every match.
    assert stable_hash64(42, "r0m0") == 7517996891275597492
    assert stable_hash64("a", "b") == 17315457580335015581
    assert stable_hash64("ab", "") == 6773924021109537540
    assert stable_hash64(0, "simulate", 0) == 12554886197603918167
    assert stable_hash64() == 16406829232824261652


# The first ten randint(0, 2**32) draws of SeededStream(seed), frozen: every
# logged battle replays only while these streams stay as they are.
FROZEN_DRAWS = {
    0: [2885149240, 687362356, 3550629648, 2285616037, 4172083040,
        1504479702, 962952397, 1607511272, 3168865681, 3482789919],
    123: [3136374730, 3746004764, 455087018, 2479764337, 2388917948,
          2176145754, 4006292441, 2765150949, 2697400470, 3468596305],
    -5: [1330729596, 1733748972, 76051344, 3222729994, 1258242224,
         1815613892, 4232797989, 3610887629, 1493246654, 1113303543],
    2**64 + 3: [3575198067, 2659114217, 2144129487, 1975494786, 2235463090,
                3187173920, 3250221482, 4008428938, 3930465695, 3506918132],
}


@pytest.mark.parametrize("seed", FROZEN_DRAWS)
def test_stream_draws_are_frozen(seed):
    stream = SeededStream(seed)
    assert [stream.randint(0, 2**32) for _ in range(10)] == FROZEN_DRAWS[seed]
    assert SeededStream(seed, position=4).randint(0, 2**32) == FROZEN_DRAWS[seed][4]


def test_stream_resumes_from_position():
    first = SeededStream(123)
    draws = [first.randint(1, 100) for _ in range(10)]
    resumed = SeededStream(123, position=4)
    assert [resumed.randint(1, 100) for _ in range(6)] == draws[4:]


@given(seed=st.integers(min_value=0, max_value=2**63), n=st.integers(min_value=1, max_value=50))
def test_randint_bounds(seed, n):
    stream = SeededStream(seed)
    for _ in range(20):
        value = stream.randint(1, n)
        assert 1 <= value <= n


def test_same_seed_same_sequence():
    a = SeededStream(7)
    b = SeededStream(7)
    assert [a.randint(0, 2**32) for _ in range(5)] == [b.randint(0, 2**32) for _ in range(5)]


def test_percent_roll_extremes():
    stream = SeededStream(1)
    assert all(stream.percent_roll(100) for _ in range(20))
    stream = SeededStream(1)
    assert not any(stream.percent_roll(0) for _ in range(20))


def test_position_counts_draws():
    stream = SeededStream(5)
    stream.randint(0, 9)
    stream.coin()
    stream.choice_index(4)
    assert stream.position == 3


def test_a_stream_keeps_its_seed():
    stream = SeededStream(7)
    with pytest.raises(AttributeError):
        stream.seed = 8
    assert stream.seed == 7
