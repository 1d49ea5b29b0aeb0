"""Deterministic vectorized hashing utilities, and the pair expansions
every join shares.

All hashes are process-independent (no PYTHONHASHSEED dependence) so that
results are identical across workers, runs and parallelism levels — the
determinism requirement of FIXTURES.md F4.

Pairs expand at most PAIR_CHUNK at a time: iter_pairs is the one decoder
of within-bucket pairs (triangle or rectangle, over the side runs of
side_runs), probe_pairs expands a sorted-index probe.  A plan reads
PAIR_CHUNK when it is built and hands it to its tasks.
"""

from __future__ import annotations

import numpy as np
import pandas as pd

_U64 = np.uint64

# Per-worker-process broadcast cache: stateless map_batches tasks fetch large
# read-only state (df tables, token indexes, models) from the object store
# once per WORKER (ray.get of numpy/arrow data is zero-copy plasma), instead
# of holding it in actor pools whose min-actor CPU reservations can deadlock
# a small cluster when many stages run in one streaming plan.
_STATE_CACHE: dict = {}
_MALLOPT_DONE = False


def _tune_allocator():
    """Raise glibc's mmap threshold once per worker process.

    Vectorized verify batches allocate and free ~100 MB numpy temporaries per
    batch; with the default allocator every such block is mmap'd and munmap'd,
    so 32 concurrent workers re-page-fault the same volume every batch and
    serialize on kernel zone locks (measured ~2x wall-time inflation at
    32-way concurrency on identical work).  Keeping large blocks on the heap
    (M_MMAP_THRESHOLD up, M_TRIM_THRESHOLD moderate) lets glibc reuse them
    across batches.  No-op on non-glibc platforms."""
    global _MALLOPT_DONE
    if _MALLOPT_DONE:
        return
    _MALLOPT_DONE = True
    try:
        import ctypes

        libc = ctypes.CDLL("libc.so.6", use_errno=True)
        libc.mallopt(-3, 1 << 30)    # M_MMAP_THRESHOLD
        libc.mallopt(-1, 256 << 20)  # M_TRIM_THRESHOLD
    except Exception:
        pass


def get_broadcast(ref):
    key = ref.hex() if hasattr(ref, "hex") else id(ref)
    if key not in _STATE_CACHE:
        import ray

        _tune_allocator()
        _STATE_CACHE[key] = ray.get(ref)
        if len(_STATE_CACHE) > 64:  # bound worker memory across many queries
            _STATE_CACHE.pop(next(iter(_STATE_CACHE)))
    return _STATE_CACHE[key]


def hash_strings(arr) -> np.ndarray:
    """Vectorized string -> 64-bit hash (deterministic siphash via pandas),
    returned as **int64** (bit-reinterpreted) — Arrow/pandas/Ray groupby all
    treat int64 natively, while uint64 values above 2^63 fall back to slow
    pickled-object blocks inside Ray's sort-based shuffle.

    Used for token identity, bucket assignment and salting.  Replaces the
    reference's global token->int dictionary
    (/root/reference/cpp/common/tokenizer.cc:300-363): set similarities are
    invariant to the id space, so a collision-sparse 64-bit hash removes the
    need for a coordinated dictionary at 100 TB scale.
    """
    a = np.asarray(arr, dtype=object)
    if a.size == 0:
        return np.empty(0, dtype=np.int64)
    return pd.util.hash_array(a, categorize=False).view(np.int64)


def bucket_of(hashes: np.ndarray, num_buckets: int) -> np.ndarray:
    """Stable bucket id in [0, num_buckets) from 64-bit hashes (bit-mixed);
    accepts int64 (bit-reinterpreted) or uint64."""
    h = hashes.view(_U64) if hashes.dtype == np.int64 else hashes.astype(_U64, copy=False)
    # splitmix64 finalizer to decorrelate low bits from the hash value
    h = (h ^ (h >> _U64(30))) * _U64(0xBF58476D1CE4E5B9)
    h = (h ^ (h >> _U64(27))) * _U64(0x94D049BB133111EB)
    h = h ^ (h >> _U64(31))
    return (h % _U64(num_buckets)).astype(np.int64)


PAIR_CHUNK = 262_144  # pairs per iter_pairs chunk, raw candidates per probe_pairs chunk


def side_runs(side: np.ndarray, *keys: np.ndarray):
    """``(starts, na, nb)`` of the runs of equal ``keys`` in rows sorted by
    (keys, side): each run holds ``na`` side-0 rows, then ``nb`` side-1
    rows — the two halves a bucket of a two-sided join pairs across."""
    n = side.size
    if n == 0:
        e = np.empty(0, np.int64)
        return e, e, e
    change = np.zeros(n, bool)
    change[0] = True
    for k in keys:
        change[1:] |= k[1:] != k[:-1]
    starts = np.flatnonzero(change)
    na = np.add.reduceat((side == 0).astype(np.int64), starts)
    return starts, na, np.diff(np.append(starts, n)) - na


def iter_pairs(starts_a, sizes_a, starts_b=None, sizes_b=None, *, chunk: int):
    """Yield ``(ii, jj)`` global row-index chunks of at most ``chunk`` pairs
    over groups of rows laid out in ranges: every i < j pair inside each A
    range ``[starts_a, starts_a + sizes_a)`` (triangle, ``starts_b`` None),
    or every cross pair of each A range with its B range (rectangle).

    The one pair decoder of the package — the vectorized replacement for
    the reference's per-inverted-list nested pair loops
    (/root/reference/cpp/common/ovlpjoin.cc:448-...).  Pairs come group by
    group, A row by A row, partner ascending (``itertools.combinations`` /
    ``product`` order), whatever ``chunk`` is.  Each A row owns a run of
    pair numbers; a chunk finds its first and last row with two
    ``searchsorted`` calls and expands the rows between with ``np.repeat``,
    so a hot group of m rows never materializes its m^2 index space."""
    st = np.asarray(starts_a, np.int64)
    sa = np.asarray(sizes_a, np.int64)
    x = np.arange(int(sa.sum()), dtype=np.int64) + np.repeat(st - np.cumsum(sa) + sa, sa)
    if starts_b is None:  # row x pairs with the rows after it in its range
        first = x + 1
        cnt = np.repeat(st + sa, sa) - first
    else:
        first = np.repeat(np.asarray(starts_b, np.int64), sa)
        cnt = np.repeat(np.asarray(sizes_b, np.int64), sa)
    live = cnt > 0
    x, first, cnt = x[live], first[live], cnt[live]
    end = np.cumsum(cnt)
    total = int(end[-1]) if end.size else 0
    for p0 in range(0, total, chunk):
        p1 = min(p0 + chunk, total)
        r0 = int(np.searchsorted(end, p0, "right"))
        r1 = int(np.searchsorted(end, p1 - 1, "right")) + 1
        lo = end[r0:r1] - cnt[r0:r1]  # each row's first pair number
        n = np.minimum(end[r0:r1], p1) - np.maximum(lo, p0)
        yield np.repeat(x[r0:r1], n), np.repeat(first[r0:r1] - lo, n) + np.arange(p0, p1)


def probe_pairs(row, lo, cnt, srows, n_index: int, keep, chunk: int):
    """Distinct ``(probe record, index row)`` pairs of a sorted-index probe,
    in chunks — the expansion shared by the broadcast edit and set-sim
    joins.

    Emission ``e`` of probe record ``row[e]`` (``row`` ascending) matched
    the sorted index positions ``lo[e] .. lo[e] + cnt[e] - 1``, whose index
    rows are ``srows``.  The raw candidate space expands at most ``chunk``
    pairs at a time, cut between probe records unless one record alone
    exceeds it; ``keep(e, r, x, y)`` masks raw candidates (emission,
    sorted position, probe record, index row).  Yields each chunk's
    surviving ``(x, y)`` pairs not yielded before: a record cut at a chunk
    end carries its seen pairs into the next chunk, so one chunk plus one
    record's distinct pairs is the memory bound and the dedup is exact."""
    end = np.cumsum(cnt)
    rec_end = end[np.flatnonzero(np.r_[row[1:] != row[:-1], True])] if row.size else end
    total = int(end[-1]) if end.size else 0
    nb = max(int(n_index), 1)
    carry = np.empty(0, np.int64)  # pairs seen of the record cut at the last chunk end
    p0 = 0
    while p0 < total:
        k = int(np.searchsorted(rec_end, p0 + chunk, "right"))
        cut = k == 0 or rec_end[k - 1] <= p0
        p1 = p0 + chunk if cut else int(rec_end[k - 1])
        pos = np.arange(p0, p1)
        e = np.searchsorted(end, pos, "right")
        r = lo[e] + pos - (end[e] - cnt[e])
        x, y = row[e], srows[r]
        m = keep(e, r, x, y)
        code = np.unique(x[m] * nb + y[m])
        if carry.size:
            code = code[~np.isin(code, carry)]
        last = x[-1] if cut else -1
        carry = np.union1d(carry[carry // nb == last], code[code // nb == last])
        yield code // nb, code % nb
        p0 = p1


def group_sizes_from_sorted(keys: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """(unique_start_indices, sizes) of consecutive equal runs in a sorted key array."""
    if keys.size == 0:
        return np.empty(0, np.int64), np.empty(0, np.int64)
    change = np.flatnonzero(keys[1:] != keys[:-1]) + 1
    starts = np.concatenate(([0], change))
    sizes = np.diff(np.concatenate((starts, [keys.size])))
    return starts, sizes
