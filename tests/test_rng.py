import numpy as np
import pytest

from edgectx.rng import Rng

# published reference outputs of the splitmix64 algorithm for seed 1234567
REFERENCE_SEED = 1234567
REFERENCE_OUTPUTS = [
    6457827717110365317,
    3203168211198807973,
    9817491932198370423,
    4593380528125082431,
    16408922859458223821,
]


def test_matches_reference_vectors():
    rng = Rng(REFERENCE_SEED)
    assert [rng.next_u64() for _ in range(5)] == REFERENCE_OUTPUTS


def test_independent_reimplementation_agrees():
    # algorithm restated from scratch to guard against transcription slips
    mask = 2**64 - 1

    def mix(state):
        state = (state + 0x9E3779B97F4A7C15) & mask
        z = state
        z = ((z ^ (z >> 30)) * 0xBF58476D1CE4E5B9) & mask
        z = ((z ^ (z >> 27)) * 0x94D049BB133111EB) & mask
        return state, z ^ (z >> 31)

    rng = Rng(987654321)
    state = 987654321
    for _ in range(100):
        state, expected = mix(state)
        assert rng.next_u64() == expected


def test_same_seed_same_stream():
    a, b = Rng(42), Rng(42)
    assert [a.next_u64() for _ in range(20)] == [b.next_u64() for _ in range(20)]


def test_uniform_range_and_variety():
    rng = Rng(7)
    values = [rng.uniform() for _ in range(2000)]
    assert all(0.0 <= v < 1.0 for v in values)
    assert len(set(values)) > 1900


def test_randrange_bounds_and_error():
    rng = Rng(3)
    assert all(0 <= rng.randrange(7) < 7 for _ in range(500))
    with pytest.raises(ValueError):
        rng.randrange(0)


class _NoWords(Rng):
    """A stream that fails instead of drawing, so a bound the rejection
    loop could never satisfy fails the test instead of hanging it."""

    __slots__ = ()

    def next_u64(self) -> int:
        raise AssertionError("randrange drew a word")


def test_randrange_refuses_bounds_above_one_word():
    # above 2**64 the rejection limit 2**64 - 2**64 % n is 0
    for n in (2**64 + 1, 2**65, 3**50):
        with pytest.raises(ValueError):
            _NoWords(1).randrange(n)
    # 2**64 itself takes every word as it is
    a, b = Rng(4), Rng(4)
    assert a.randrange(2**64) == b.next_u64()
    assert a.next_u64() == b.next_u64()


def test_shuffle_is_a_permutation_and_deterministic():
    items = list(range(50))
    a = items[:]
    Rng(5).shuffle(a)
    b = items[:]
    Rng(5).shuffle(b)
    assert a == b
    assert sorted(a) == items
    assert a != items  # astronomically unlikely to be identity


def test_fork_diverges_from_parent():
    parent = Rng(11)
    child = parent.fork()
    assert [parent.next_u64() for _ in range(5)] != [child.next_u64() for _ in range(5)]


def test_gauss_moments():
    rng = Rng(13)
    xs = [rng.gauss(2.0, 0.5) for _ in range(20000)]
    mean = sum(xs) / len(xs)
    var = sum((x - mean) ** 2 for x in xs) / len(xs)
    assert abs(mean - 2.0) < 0.02
    assert abs(var - 0.25) < 0.02


def fisher_yates(rng, items):
    """The reference shuffle: one ``randrange`` per position."""
    for i in range(len(items) - 1, 0, -1):
        j = rng.randrange(i + 1)
        items[i], items[j] = items[j], items[i]


@pytest.mark.parametrize("n", [0, 1, 2, 3, 301, 2000])
def test_shuffle_equals_sequential_fisher_yates(n):
    for seed in range(50):
        got, want = list(range(n)), list(range(n))
        a, b = Rng(seed), Rng(seed)
        a.shuffle(got)
        fisher_yates(b, want)
        assert got == want
        assert a.next_u64() == b.next_u64()


def test_block_draws_reject_words_like_randrange():
    # randrange(m) for m just above 2**63 rejects about half of all words
    bounds = [2**63 + 7919 * k + 1 for k in range(200)] + [2**64 - 1, 3, 2**63]
    golden, mask = 0x9E3779B97F4A7C15, 2**64 - 1
    for seed in range(10):
        a, b = Rng(seed), Rng(seed)
        assert a._randrange_block(np.array(bounds, dtype=np.uint64)) == [
            b.randrange(m) for m in bounds
        ]
        assert a.next_u64() == b.next_u64()
        # more words were drawn than there are bounds
        assert b._state != (seed + (len(bounds) + 1) * golden) & mask
