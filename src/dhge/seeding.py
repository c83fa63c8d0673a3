"""Deterministic RNG derivation from structured integer keys.

Every randomized routine takes (tag, base_seed, *context) so that reruns
with the same config reproduce bit-identical draws while distinct call
sites never share a stream.

``mix_many`` and ``seed_states`` compute ``mix`` and ``derived_rng`` for
many key tuples at once, in uint32 array passes that re-run NumPy's
``SeedSequence`` hash and PCG64 seeding, so a caller drawing for many nodes
builds one ``Generator`` and sets the state each node's own generator
would start from.
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
