"""Bulk seeding against NumPy's own SeedSequence and PCG64, exactly."""
import numpy as np

from dhge.seeding import derived_rng, mix, mix_many, pcg64_state, seed_states


def _keys(rng):
    """12k int64 keys: the word-count edges, negatives, and random values
    below and above 2**32."""
    special = np.array([0, 1, 2 ** 32 - 1, 2 ** 32, 2 ** 63 - 1, -1, -2 ** 32,
                        -2 ** 63], dtype=np.int64)
    return np.concatenate([special, rng.integers(-2 ** 63, 2 ** 63 - 1, 4000, dtype=np.int64),
                           rng.integers(0, 2 ** 33, 4000), rng.integers(-9, 2 ** 31, 4000)])


def _tuples(keys, n):
    cols = [[k] * n if isinstance(k, int) else k.tolist() for k in keys]
    return list(zip(*cols))


def test_mix_many_matches_mix():
    rng = np.random.default_rng(0)
    a = _keys(rng)
    b = rng.permutation(a)
    # scalars beyond int64 are masked like mix masks them
    for keys in [(a,), (a, b), (2 ** 64 - 5, 6, a, b), (a, 6, b, 7, 9), (-3, a)]:
        got = mix_many(*keys).tolist()
        assert got == [mix(*t) for t in _tuples(keys, len(a))]


def test_seed_states_match_derived_rng():
    rng = np.random.default_rng(1)
    a = _keys(rng)
    b = rng.permutation(a)
    # uint64 seeds as mix_many returns them, and signed keys of both widths
    for keys in [(6, mix_many(a, 6)), (a, b), (6, a, b, 9, 10)]:
        states = seed_states(*keys)
        for j, t in enumerate(_tuples(keys, len(a))):
            assert pcg64_state(states[:, j]) == derived_rng(*t).bit_generator.state, t


def test_shared_generator_draws_like_a_fresh_one():
    seeds = mix_many(np.arange(50), 3)
    shared = np.random.Generator(np.random.PCG64())
    for s, words in zip(seeds.tolist(), seed_states(6, seeds).T.tolist()):
        shared.bit_generator.state = pcg64_state(words)
        fresh = derived_rng(6, s)
        assert np.array_equal(shared.choice(40, size=7, replace=False),
                              fresh.choice(40, size=7, replace=False))
        assert shared.bit_generator.state == fresh.bit_generator.state
