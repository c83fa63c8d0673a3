"""Deterministic RNG derivation from structured integer keys.

Every randomized routine takes (tag, base_seed, *context) so that reruns
with the same config reproduce bit-identical draws while distinct call
sites never share a stream.

``mix_many`` and ``seed_states`` compute ``mix`` and ``derived_rng`` for
many key tuples at once, in uint32 array passes that re-run NumPy's
``SeedSequence`` hash and PCG64 seeding.

``choice_rows`` and ``seeded_choice_rows`` make many
``rng.choice(n, size, replace=False)`` calls at once, on one shared
generator or on one fresh generator per call, and return the sorted picks
bit for bit. They mirror NumPy's own algorithm: Floyd's sampler, then a
shuffle of the picks, each draw a Lemire bounded integer on one
``next_uint32`` of PCG64. A call that path does not cover exactly (a
population of ``size``, NumPy's tail shuffle, a rejected draw) is made by
NumPy itself. ``tests/test_seeding.py`` compares rows and generator states
with per-call ``choice``, so a NumPy release that changes the algorithm
fails there.
"""
import numpy as np

_MASK = (1 << 63) - 1

TAG_PARTITION = 1
TAG_SUBGRAPH = 2
TAG_DROPOUT = 3
TAG_NEGSAMPLE = 4
TAG_EMBED = 5
TAG_BFS = 6
TAG_EVALNEG = 7
TAG_PARAM_INIT = 8
TAG_COLD = 9
TAG_FIXTURE = 10

# numpy.random.SeedSequence's hash constants; its pool is four 32-bit words
_POOL = 4
_INIT_A, _MULT_A = 0x43B0D7E5, 0x931E8875
_INIT_B, _MULT_B = 0x8B51F9DD, 0x58F38DED
_MIX_L, _MIX_R = np.uint32(0xCA01F9DD), np.uint32(0x4973F715)
_M32 = 0xFFFFFFFF
# PCG64's 128-bit LCG multiplier
_PCG_MULT = (2549297995355413924 << 64) + 4865540595714422341
_M128 = (1 << 128) - 1
# Generator.choice(n, size, replace=False) shuffles the tail of arange(n)
# instead of running Floyd's sampler when n > _TAIL_N and size > n // _TAIL_DIV
_TAIL_N, _TAIL_DIV = 10000, 50
_BLOCK = 1 << 16   # uint32 draws a choice kernel holds at once


def derived_rng(*keys):
    entries = [int(k) & _MASK for k in keys]
    return np.random.default_rng(np.random.SeedSequence(entries))


def mix(*keys):
    """Collapse structured keys into one stable integer seed."""
    entries = [int(k) & _MASK for k in keys]
    return int(np.random.SeedSequence(entries).generate_state(1, np.uint64)[0])


def mix_many(*keys):
    """uint64 array of ``mix`` over key tuples: each key is an integer
    array or a Python int, broadcast against the others."""
    w = _state_words(keys, 2).astype(np.uint64)
    return w[0] | (w[1] << np.uint64(32))


def seed_states(*keys):
    """(4, n) uint64 words PCG64 seeds from in ``derived_rng`` of each key
    tuple; ``pcg64_state`` turns one column into its ``state`` dict."""
    w = _state_words(keys, 8).astype(np.uint64)
    return w[0::2] | (w[1::2] << np.uint64(32))


def pcg64_state(words):
    """The ``bit_generator.state`` a fresh ``derived_rng`` holds, from its
    ``seed_states`` column: PCG64 seeds its 128-bit LCG by one step from
    zero, adding the seed, and one more step."""
    hi_s, lo_s, hi_i, lo_i = (int(w) for w in words)
    inc = (((hi_i << 64) | lo_i) << 1 | 1) & _M128
    state = ((inc + ((hi_s << 64) | lo_s)) * _PCG_MULT + inc) & _M128
    return {"bit_generator": "PCG64", "state": {"state": state, "inc": inc},
            "has_uint32": 0, "uinteger": 0}


def choice_rows(rng, n, size, out=None):
    """Sorted ``rng.choice(n[c], size, replace=False)`` of every call c, made
    in turn on ``rng``: a (len(n), size) int64 array, or ``out`` filled,
    bit for bit, with ``rng`` left in the state those calls leave it in.

    Runs of calls on Floyd's path take their ``next_uint32`` stream from
    ``random_raw`` in blocks; any other call, and a call whose draws a
    block finds rejected, is made by ``rng.choice`` after rewinding to it.
    """
    n = np.asarray(n, dtype=np.int64)
    rows = np.empty((len(n), size), dtype=np.int64) if out is None else out
    bitgen = rng.bit_generator
    fast = _floyd_calls(n, size) & isinstance(bitgen, np.random.PCG64)
    stride = 2 * size - 1
    per = max(1, _BLOCK // stride)
    c = 0
    while c < len(n):
        if not fast[c]:
            rows[c] = np.sort(rng.choice(int(n[c]), size=size, replace=False))
            c += 1
            continue
        run = fast[c:c + per]
        k = len(run) if run.all() else int(np.argmin(run))
        before = bitgen.state
        picks, bad = _floyd_rows(_next_uint32(bitgen, k * stride).reshape(k, stride),
                                 n[c:c + k], size)
        if bad.any():
            k = int(np.argmax(bad))
            fast[c + k] = False
            bitgen.state = before
            _next_uint32(bitgen, k * stride)
        rows[c:c + k] = picks[:k]
        c += k
    return rows


def seeded_choice_rows(states, n, size):
    """``choice_rows`` with one fresh generator per call: row c is the
    sorted ``rng.choice(n[c], size, replace=False)`` of a generator in
    state ``pcg64_state(states[:, c])``. Each call's stream is computed from
    its ``seed_states`` column by ``pcg64_raw``."""
    n = np.asarray(n, dtype=np.int64)
    rows = np.empty((len(n), size), dtype=np.int64)
    fast = _floyd_calls(n, size)
    at = np.flatnonzero(fast)
    per = max(1, _BLOCK // max(1, 2 * size))
    for c in range(0, len(at), per):
        idx = at[c:c + per]
        u = _halves(pcg64_raw(states[:, idx], size)).reshape(len(idx), 2 * size)
        rows[idx], bad = _floyd_rows(u[:, :-1], n[idx], size)
        fast[idx[bad]] = False
    rng = np.random.Generator(np.random.PCG64())
    for c in np.flatnonzero(~fast).tolist():
        rng.bit_generator.state = pcg64_state(states[:, c].tolist())
        rows[c] = np.sort(rng.choice(int(n[c]), size=size, replace=False))
    return rows


def pcg64_raw(words, count):
    """(n, count) uint64: the first ``count`` ``random_raw`` outputs of a
    generator in state ``pcg64_state`` of each of the n ``seed_states``
    columns, in 64-bit limbs.

    An output is the XSL-RR of the 128-bit LCG state after one more step,
    s -> s * MULT + inc. From x = inc + seed the seeded state is
    x * MULT + inc, so output k reads x * MULT**(k+2) + inc * C(k+2),
    C(m) = MULT**0 + ... + MULT**(m-1), with both factors per output
    formed once as Python ints.
    """
    hi_s, lo_s, hi_i, lo_i = (w[:, None] for w in np.asarray(words, dtype=np.uint64))
    inc_hi, inc_lo = (hi_i << 1) | (lo_i >> 63), (lo_i << 1) | 1
    x_lo = inc_lo + lo_s
    x_hi = inc_hi + hi_s + (x_lo < inc_lo)
    power, total, mult, step = [], [], _PCG_MULT, 1 + _PCG_MULT
    for _ in range(count):
        mult = mult * _PCG_MULT & _M128
        power.append(mult)
        total.append(step)
        step = (step + mult) & _M128
    hi, lo = _mul128(x_hi, x_lo, power)
    inc_hi_part, inc_lo_part = _mul128(inc_hi, inc_lo, total)
    lo += inc_lo_part
    hi += inc_hi_part + (lo < inc_lo_part)
    x = hi ^ lo
    rot = hi >> 58
    return (x >> rot) | (x << ((64 - rot) & 63))


def _mul128(x_hi, x_lo, factors):
    """(hi, lo) uint64 limbs of x * f mod 2**128 for the column of x and
    each Python-int factor f along the row."""
    f_hi = np.array([f >> 64 for f in factors], dtype=np.uint64)
    f_lo = np.array([f & 0xFFFFFFFFFFFFFFFF for f in factors], dtype=np.uint64)
    a0, a1, b0, b1 = x_lo & _M32, x_lo >> 32, f_lo & _M32, f_lo >> 32
    p00, p01, p10 = a0 * b0, a0 * b1, a1 * b0
    carry = ((p00 >> 32) + (p01 & _M32) + (p10 & _M32)) >> 32
    hi = a1 * b1 + (p01 >> 32) + (p10 >> 32) + carry + x_lo * f_hi + x_hi * f_lo
    return hi, x_lo * f_lo


def _floyd_calls(n, size):
    """Which calls ``choice(n, size, replace=False)`` makes by Floyd's
    sampler and its shuffle alone, in 2 * size - 1 draws of 32 bits: n
    above size (n == size skips the draw on [0, 0]), n within 32 bits, and
    not the tail shuffle."""
    return ((size >= 1) & (n > size) & (n <= 1 << 32)
            & ~((n > _TAIL_N) & (size > n // _TAIL_DIV)))


def _next_uint32(bitgen, m):
    """The next ``m`` ``next_uint32`` draws of a PCG64 bit generator,
    leaving it as those calls leave it. PCG64 hands out the low half of a
    64-bit output and holds the high half for the next call, in
    ``has_uint32``/``uinteger``; taking the held half clears only the flag,
    so ``uinteger`` keeps the last high half drawn."""
    if m == 0:
        return np.empty(0, dtype=np.uint32)
    state = bitgen.state
    held = [state["uinteger"]] if state["has_uint32"] else []
    need = m - len(held)
    raw = bitgen.random_raw((need + 1) // 2)
    state["state"] = bitgen.state["state"]
    state["has_uint32"] = need % 2
    if need:
        state["uinteger"] = int(raw[-1] >> 32)
    bitgen.state = state
    return np.concatenate((np.array(held, dtype=np.uint32), _halves(raw)[:need]))


def _halves(raw):
    """uint64 outputs as their uint32 halves, low half first, along the
    last axis."""
    return raw.astype("<u8").view("<u4")


def _floyd_rows(u, n, size):
    """Sorted picks of Floyd's sampler from each row of 32-bit draws ``u``,
    and whether a row holds a draw that Lemire's method rejects.

    A row is ``size`` draws on [0, j] for j = n - size ... n - 1, where a
    value already picked is replaced by j, then the ``size - 1`` draws of
    NumPy's shuffle of the picks on [0, i] for i = size - 1 ... 1, which do
    not change the sorted row. A draw u on [0, b] is (u * (b + 1)) >> 32.
    """
    base = (n - size).astype(np.uint64)[:, None]
    t = np.arange(size, dtype=np.uint64)
    span = base + 1 + t
    prod = u[:, :size] * span
    # Lemire rejects when the low 32 bits fall below (2**32 - span) % span
    low = prod & _M32
    maybe = low < span
    bad = np.zeros(len(u), dtype=bool)
    if maybe.any():
        bad = (maybe & (low < ((1 << 32) - span) % span)).any(axis=1)
    shuffle_span = np.arange(size, 1, -1, dtype=np.uint32)
    threshold = ((1 << 32) - shuffle_span.astype(np.uint64)) % shuffle_span
    shuffle_bad = u[:, size:] * shuffle_span < threshold
    if shuffle_bad.any():
        bad |= shuffle_bad.any(axis=1)
    v = prod >> 32
    shift = size.bit_length()
    key = np.sort(v << shift | t, axis=1)
    rows = (key >> shift).view(np.int64)
    again = rows[:, 1:] == rows[:, :-1]
    redo = np.unique(np.nonzero(again)[0])
    if len(redo):
        rows[redo] = _floyd_repeats(v[redo], key[redo], again[redo], base[redo], shift)
    return rows, bad


def _floyd_repeats(v, key, again, base, shift):
    """The sorted picks of rows whose draws ``v`` repeat a value.

    The draw at step t is replaced by j = base + t when an earlier step drew
    the same value (``again``, found in the sorted ``key`` = v << shift | t),
    or when the earlier step s = v - base was itself replaced and so picked
    j_s = v. The second rule runs to a fixed point over the few draws it can
    touch.
    """
    t = np.arange(v.shape[1], dtype=np.uint64)
    repeat = np.zeros(v.shape, dtype=bool)
    repeat[np.nonzero(again)[0], key[:, 1:][again] & ((1 << shift) - 1)] = True
    src = v - base   # wraps above every step where v < base
    r, at = np.nonzero(src < t)
    src, drawn = src[r, at], repeat[r, at]
    while len(r):
        now = drawn | repeat[r, src]
        if np.array_equal(now, repeat[r, at]):
            break
        repeat[r, at] = now
    return np.sort(np.where(repeat, base + t, v), axis=1).view(np.int64)


def _state_words(keys, n_words):
    """(n_words, n) uint32 ``SeedSequence(masked keys).generate_state``.

    SeedSequence splits each key into 32-bit words, one for a key below
    2**32 and two above, so rows are hashed in groups that share the
    pattern of two-word keys; the hash constants do not depend on the data.
    """
    n = np.broadcast_shapes((1,), *(k.shape for k in keys if isinstance(k, np.ndarray)))[0]
    keys = [np.broadcast_to(_masked(k), (n,)) for k in keys]
    wide = np.zeros(n, dtype=np.int64)
    for j, k in enumerate(keys):
        wide |= (k > np.uint64(_M32)).astype(np.int64) << j
    out = np.empty((n_words, n), dtype=np.uint32)
    for pattern in np.unique(wide).tolist():
        rows = np.flatnonzero(wide == pattern)
        words = []
        for j, k in enumerate(keys):
            k = k[rows]
            words.append((k & np.uint64(_M32)).astype(np.uint32))
            if pattern >> j & 1:
                words.append((k >> np.uint64(32)).astype(np.uint32))
        out[:, rows] = _generate(_pool(words, len(rows)), n_words)
    return out


def _masked(key):
    """``int(key) & _MASK`` as uint64, for an integer array or a Python int."""
    if isinstance(key, np.ndarray) and key.dtype.kind in "iu":
        return (key.astype(np.int64, copy=False) & _MASK).astype(np.uint64)
    return np.uint64(int(key) & _MASK)


def _pool(words, n):
    """SeedSequence's entropy pool per row, from its list of word columns."""
    h = _INIT_A

    def hashmix(value):
        nonlocal h
        value = value ^ np.uint32(h)
        h = (h * _MULT_A) & _M32
        value = value * np.uint32(h)
        return value ^ (value >> np.uint32(16))

    pool = [hashmix(words[i] if i < len(words) else np.zeros(n, dtype=np.uint32))
            for i in range(_POOL)]
    for src in range(_POOL):
        for dst in range(_POOL):
            if src != dst:
                pool[dst] = _mix_words(pool[dst], hashmix(pool[src]))
    for src in range(_POOL, len(words)):
        for dst in range(_POOL):
            pool[dst] = _mix_words(pool[dst], hashmix(words[src]))
    return pool


def _mix_words(x, y):
    out = _MIX_L * x - _MIX_R * y
    return out ^ (out >> np.uint32(16))


def _generate(pool, n_words):
    h = _INIT_B
    out = []
    for i in range(n_words):
        value = pool[i % _POOL] ^ np.uint32(h)
        h = (h * _MULT_B) & _M32
        value = value * np.uint32(h)
        out.append(value ^ (value >> np.uint32(16)))
    return out
