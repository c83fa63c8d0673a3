"""Bulk seeding and bulk choice against NumPy's own SeedSequence, PCG64 and
``Generator.choice``, exactly."""
import numpy as np
import pytest

import dhge.seeding

from dhge.seeding import (_PCG_MULT, TAG_EVALNEG, choice_rows, derived_rng, mix, mix_many,
                          pcg64_raw, pcg64_state, seed_states, seeded_choice_rows)


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


# ---------------------------------------------------------------------------
# bulk choice against per-call Generator.choice


def _per_call(rng, n, size):
    return np.array([np.sort(rng.choice(int(x), size=size, replace=False))
                     for x in n], dtype=np.int64).reshape(len(n), size)


def _zero_output_ahead(rng, k):
    """Rewrites ``rng``'s state so that its k-th next ``random_raw`` output
    is 0, so both its uint32 halves are 0: a draw on [0, b] taking a 0 is
    rejected unless b + 1 is a power of two. The state is stepped back from
    one whose XSL-RR output is 0 (high and low 64 bits equal, rotation 0)."""
    state = rng.bit_generator.state
    inc = state["state"]["inc"]
    s = (12345 << 64) | 12345
    inverse = pow(_PCG_MULT, -1, 1 << 128)
    for _ in range(k + 1):
        s = (s - inc) * inverse % (1 << 128)
    state["state"]["state"] = s
    rng.bit_generator.state = state


CHOICE_CASES = {
    # n == size is NumPy's own call, between kernel runs
    "n_size_plus_one_and_n_size": (lambda g: g.permutation([6] * 40 + [5] * 7), 5),
    # above 10000 with size > n // 50 NumPy shuffles a tail of arange(n)
    "tail_shuffle": (lambda g: g.integers(10001, 20000, 30), 300),
    # n near 2**32: a Floyd draw on [0, b] rejects with chance up to 1/4
    "near_2_32": (lambda g: np.concatenate([g.integers(3 << 30, (3 << 30) + 50, 300),
                                            [1 << 32, (1 << 32) - 1, (1 << 32) + 1]]), 3),
    "size_1": (lambda g: g.integers(2, 9, 500), 1),
    "no_calls": (lambda g: np.empty(0, dtype=np.int64), 7),
    "many_blocks": (lambda g: g.integers(33, 3000, 5000), 32),
}


@pytest.fixture
def rejected_rows(monkeypatch):
    """Counts, per kernel block, the rows holding a draw Lemire rejects."""
    counts = []
    floyd_rows = dhge.seeding._floyd_rows

    def counted(*args):
        rows, bad = floyd_rows(*args)
        counts.append(int(bad.sum()))
        return rows, bad
    monkeypatch.setattr(dhge.seeding, "_floyd_rows", counted)
    return counts


@pytest.mark.parametrize("held", [False, True])
@pytest.mark.parametrize("case", sorted(CHOICE_CASES))
def test_choice_rows_match_per_call_choice(case, held, rejected_rows):
    make, size = CHOICE_CASES[case]
    n = make(np.random.default_rng(len(case)))
    rng, ref = np.random.default_rng(7), np.random.default_rng(7)
    if held:   # leaves the high half of a 64-bit output for the next draw
        rng.integers(0, 7), ref.integers(0, 7)
    assert np.array_equal(choice_rows(rng, n, size), _per_call(ref, n, size))
    assert rng.bit_generator.state == ref.bit_generator.state
    if case == "near_2_32":
        assert n.max() > 1 << 32 and sum(rejected_rows) > 10


@pytest.mark.parametrize("zero_at, held", [(2, False), (7, False), (7, True), (40, True)])
def test_choice_rows_forced_rejections(zero_at, held, rejected_rows):
    """Calls of 9 uint32 draws each: 5 of Floyd's, 4 of the shuffle. A zero
    output at raw step 2 lands on call 0's last Floyd draw (on [0, 999]);
    at step 7, on call 1's shuffle draw on [0, 4], or with a half held on
    its draw on [0, 2]; at step 40 with a half held, on call 9's first
    Floyd draw. NumPy redraws, and every later call keeps its place in the
    stream."""
    n = np.full(30, 1000)
    rng, ref = np.random.default_rng(3), np.random.default_rng(3)
    if held:
        rng.integers(0, 7), ref.integers(0, 7)
    _zero_output_ahead(rng, zero_at)
    _zero_output_ahead(ref, zero_at)
    assert np.array_equal(choice_rows(rng, n, 5), _per_call(ref, n, 5))
    assert rng.bit_generator.state == ref.bit_generator.state
    assert rejected_rows[0] >= 1


def test_choice_rows_fills_out_and_leaves_other_generators_to_numpy():
    n = np.arange(40, 90)
    out = np.full((len(n) + 1, 6), -1, dtype=np.int32)
    rng, ref = np.random.default_rng(5), np.random.default_rng(5)
    choice_rows(rng, n, 6, out=out[1:])
    assert np.array_equal(out[1:], _per_call(ref, n, 6)) and (out[0] == -1).all()
    assert rng.bit_generator.state == ref.bit_generator.state
    mt, mt_ref = (np.random.Generator(np.random.MT19937(9)) for _ in range(2))
    assert np.array_equal(choice_rows(mt, n, 6), _per_call(mt_ref, n, 6))
    assert mt.bit_generator.state["state"]["pos"] == mt_ref.bit_generator.state["state"]["pos"]


def test_pcg64_raw_matches_random_raw():
    rng = np.random.default_rng(11)
    keys = _keys(rng)[:1000]
    states = seed_states(7, keys, rng.permutation(keys))
    raw = pcg64_raw(states, 5)
    bitgen = np.random.PCG64()
    for j in range(states.shape[1]):
        bitgen.state = pcg64_state(states[:, j])
        assert np.array_equal(raw[j], bitgen.random_raw(5)), j


def test_seeded_choice_rows_match_fresh_generators(rejected_rows):
    """One fresh ``derived_rng`` per call, on Floyd's path, NumPy's n == size
    and tail-shuffle paths, and near 2**32 where draws reject."""
    g = np.random.default_rng(12)
    for n, size in [(g.integers(99, 400, 700), 99), (np.full(20, 99), 99),
                    (g.integers(10001, 20000, 20), 300),
                    (g.integers(3 << 30, (3 << 30) + 50, 300), 3), (np.empty(0, int), 4)]:
        keys = g.integers(-2 ** 40, 2 ** 40, len(n))
        got = seeded_choice_rows(seed_states(TAG_EVALNEG, 5, keys), n, size)
        want = [np.sort(derived_rng(TAG_EVALNEG, 5, k).choice(int(x), size=size, replace=False))
                for k, x in zip(keys.tolist(), n.tolist())]
        assert np.array_equal(got, np.array(want, dtype=np.int64).reshape(len(n), size)), size
    assert sum(rejected_rows) > 10
