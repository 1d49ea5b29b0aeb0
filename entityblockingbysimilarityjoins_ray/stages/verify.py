"""Candidate-pair verification: exact similarity on full token sets.

Replaces the reference's in-join positional-filter verification
(/root/reference/cpp/common/setjoin_parallel.h:334-370) with a separate
vectorized stage.  Two physical plans behind one gate (should_broadcast,
records AND bytes):

- **broadcast**: the token index is collected once, ``ray.put`` once, read
  per worker (never re-shipped per batch); slim pre-deduped (k1, k2)
  candidates stream through a balanced ``map_batches`` bitmap-overlap
  verify.
- **sharded grid** (beyond-broadcast): the index is written as Parquet
  shards keyed by ``hash(id) % S`` (a resumable, fingerprint-keyed store);
  candidates shuffle ONCE to (shard(k1), shard(k2)) grid cells and each
  cell verifies against its two worker-cached shards with the same kernel.
  No token list ever crosses a shuffle; worker memory is bounded by the
  cell's two live shards plus the byte-budgeted shard cache
  (_SHARD_CACHE_BYTES) regardless of corpus size.
"""

from __future__ import annotations

import os
from typing import Callable, NamedTuple

import numpy as np
import pandas as pd
import pyarrow as pa
import ray
import ray.data

from ..functions import sims as S
from ..functions.hashing import get_broadcast


def should_broadcast(ds, n_records: int, record_limit: int,
                     bytes_limit: int = 4 << 30,
                     size_bytes: int | None = None) -> bool:
    """Broadcast-vs-join gate on BOTH record count and estimated bytes.

    Record counts alone under-estimate wide payloads (2M records x 10^4-token
    docs would overflow the object store); ``Dataset.size_bytes()`` gives the
    executed plan's in-memory estimate for free on materialized datasets —
    gate on it when available.  ``size_bytes`` lets multi-input callers (RS
    joins) pass a precomputed per-side sum instead of executing a union just
    for the gate."""
    if n_records > record_limit:
        return False
    if size_bytes is not None:
        sz = size_bytes
    else:
        try:
            sz = ds.size_bytes()
        except Exception:
            sz = None
    if sz is not None and sz > bytes_limit:
        import logging

        logging.getLogger(__name__).warning(
            "broadcast gate: %d records fit the count limit but ~%.1f GiB "
            "exceeds the bytes limit — using the join path", n_records, sz / 2**30)
        return False
    return True


def collect_arrow(ds: "ray.data.Dataset") -> pa.Table:
    """Materialize a (small) Dataset as one Arrow table on the driver.

    ``to_arrow_refs`` hands back raw block refs — pandas blocks arrive as
    DataFrames, not Arrow — so normalize every block type here."""
    tables = []
    for t in ray.get(ds.to_arrow_refs()):
        if isinstance(t, pa.Table):
            tables.append(t)
        elif isinstance(t, pd.DataFrame):
            tables.append(pa.Table.from_pandas(t, preserve_index=False))
        else:
            tables.append(pa.Table.from_batches([t]))
    return pa.concat_tables(tables, promote_options="default") if tables else pa.table({})


def collect_token_index(toks_ds: "ray.data.Dataset"):
    """Materialize {conv_id -> token set} as flat numpy arrays + id index,
    with token hashes relabeled ONCE to a dense [0, m) space so the bitmap
    verify kernel (overlap_auto_two) can mark tokens in an m-bool array.

    Only valid when the record table fits the driver/object store
    (cfg.broadcast_limit); the join path below is the unbounded-scale path.
    """
    return collect_token_index_with_df(toks_ds)[0]


def collect_token_index_with_df(toks_ds: "ray.data.Dataset", min_df: int = 2):
    """collect_token_index + the global df table derived FREE from the same
    pass: per-row token bags are already deduped, so df(token) is one
    bincount over the dense labels — the broadcast path skips the whole
    distributed df-aggregation pass (build_df_table) this way.
    Returns ((index, labels, offs, m), (df_toks_sorted, df_vals))."""
    tbl = collect_arrow(toks_ds.select_columns(["conv_id", "toks"]))
    if "conv_id" not in tbl.column_names:
        # empty dataset whose plan never produced a schema (e.g. a join over
        # an empty corpus): an empty index, not a KeyError
        return ((pd.Index([]), np.empty(0, np.int32), np.zeros(1, np.int64), 1),
                (np.zeros(0, np.int64), np.zeros(0, np.int64)))
    # keep NATIVE dtype: int64 ids stay int64 so Index.get_indexer runs the
    # vectorized integer hash path (object boxing costs ~3x per lookup)
    ids = tbl.column("conv_id").to_numpy(zero_copy_only=False)
    vals, offs = S.flatten_lists(tbl.column("toks"))
    uni = np.unique(vals)
    # int32 labels when the vocabulary fits: the verify kernel is memory-
    # bandwidth-bound on the partner-token gather, and halving the element
    # width measured 2.1x faster under 32-way concurrency (and removed
    # multi-second straggler batches) at sf0.1
    dt = np.int32 if uni.size < (1 << 31) - 1 else np.int64
    labels = np.searchsorted(uni, vals).astype(dt)  # per-row order kept
    df = np.bincount(labels, minlength=uni.size)
    keep = df >= min_df  # df=1 widow tokens can't form a pair (removeWidow)
    return ((pd.Index(ids), labels, offs, int(uni.size) + 1),
            (uni[keep], df[keep].astype(np.int64)))


def gather_lists(vals: np.ndarray, offs: np.ndarray, rows: np.ndarray):
    """Select rows from a flattened list column -> new (vals, offs).

    Positions are built in ONE repeat + in-place add (arange + per-row
    delta), two fewer full-length passes than the repeat/subtract/repeat
    form; the remaining cost is the random gather into the corpus array
    itself (cold plasma pages dominate the first touch; steady-state
    workers keep them resident)."""
    lens = np.diff(offs)[rows]
    new_offs = np.zeros(rows.size + 1, np.int64)
    np.cumsum(lens, out=new_offs[1:])
    total = int(new_offs[-1])
    pos = np.arange(total, dtype=np.int64)
    pos += np.repeat(offs[rows] - new_offs[:-1], lens)
    return vals[pos], new_offs


def overlap_auto_two(vals_a, offs_a, vals_b, offs_b, m, r1, r2) -> np.ndarray:
    """Exact per-pair overlap over two (possibly identical) corpora via the
    r1-sorted BITMAP kernel: sort the batch by r1 (no-op when pairs arrive
    bucketed/sorted by hash(id1) from dedupe), mark each distinct r1's
    tokens once in an m-bool bitmap, probe partners with one bool gather per
    token.  Measured 3.3x faster than the fused-key binary search on
    run-heavy batches and still ~1.1x faster when every r1 is unique (the
    32k-iteration Python run loop included), so it is used unconditionally."""
    if r1.size == 0:
        return np.zeros(0, np.int64)
    if np.all(r1[1:] >= r1[:-1]):
        vb, ob = gather_lists(vals_b, offs_b, r2)
        return S.pair_overlap_bitmap_runs(vals_a, offs_a, m, r1, vb, ob)
    order = np.argsort(r1, kind="stable")
    vb, ob = gather_lists(vals_b, offs_b, r2[order])
    ovlp = S.pair_overlap_bitmap_runs(vals_a, offs_a, m, r1[order], vb, ob)
    out = np.empty_like(ovlp)
    out[order] = ovlp
    return out


def overlap_auto(vals, offs, m, r1, r2) -> np.ndarray:
    return overlap_auto_two(vals, offs, vals, offs, m, r1, r2)


def broadcast_verify_batch(batch: pa.Table, *, toks_ref, sim: str,
                           threshold: float) -> pa.Table:
    """Stateless verify task over ``{id1, id2}`` candidate batches: token
    index fetched once per worker process (get_broadcast; zero-copy plasma)
    — no actor-pool CPU reservation.  The original Arrow id columns are
    filtered, so id types (string / int64 / ...) pass through unchanged."""
    index, vals, offs, m = get_broadcast(toks_ref)
    ids1 = batch.column("id1").to_numpy(zero_copy_only=False)
    ids2 = batch.column("id2").to_numpy(zero_copy_only=False)
    r1 = index.get_indexer(ids1)
    r2 = index.get_indexer(ids2)
    ok = (r1 >= 0) & (r2 >= 0)
    r1, r2 = r1[ok], r2[ok]
    ovlp = overlap_auto(vals, offs, m, r1, r2)
    lens = np.diff(offs)
    s = _rule_sim(ovlp, lens[r1], lens[r2], sim)
    keep = s >= threshold
    mask = ok.copy()
    mask[ok] = keep
    out = batch.select(["id1", "id2"]).filter(pa.array(mask))
    return out.append_column("sim", pa.array(s[keep], type=pa.float64()))


def _rule_sim(ovlp, la, lb, sim: str) -> np.ndarray:
    """One rule's similarity from exact overlaps and set sizes."""
    if sim == "overlap":
        return ovlp.astype(np.float64)
    return S.set_sims_from_overlap(ovlp, la, lb, sim)


def _rename(ds, mapping):
    cols = list(mapping.keys())

    def f(t: pa.Table) -> pa.Table:
        t = t.select(cols)
        return t.rename_columns([mapping[c] for c in cols])

    return ds.map_batches(f, batch_format="pyarrow")


def verify_pairs(
    pairs_ds: "ray.data.Dataset",
    toks_ds: "ray.data.Dataset",
    *,
    sim: str,
    threshold: float,
    broadcast: bool = True,
    num_partitions: int = 64,
    store_dir: str | None = None,
) -> "ray.data.Dataset":
    """Exact-verify ``{id1, id2}`` candidate pairs (minhash / sampler
    surface); emits {id1, id2, sim} with sim >= threshold.

    Beyond the broadcast gate the pairs hash to the slim (k1, k2) form and
    grid-verify against a token shard store built here; ``store_dir`` roots
    that store (cluster storage at scale, see build_token_shard_store)."""
    if broadcast:
        ref = ray.put(collect_token_index(toks_ds))
        return pairs_ds.map_batches(
            broadcast_verify_batch,
            fn_kwargs=dict(toks_ref=ref, sim=sim, threshold=threshold),
            batch_format="pyarrow",
            # 8k pairs keeps per-batch gather temporaries under glibc's 32 MB
            # dynamic-mmap-reuse threshold: at 32-way concurrency the larger
            # 32k batches page-fault ~120 MB of fresh mappings per batch and
            # serialize on kernel zone locks (~2x measured inflation), while
            # the bitmap kernel's run amortization is already saturated at 8k
            batch_size=8192,
        )
    store = build_token_shard_store(
        toks_ds, num_shards=max(8, int(np.ceil(np.sqrt(num_partitions)))),
        store_dir=store_dir)
    return verify_pairs_sharded(slim_pairs(pairs_ds, canonical=True), store,
                                sim=sim, threshold=threshold)


# ---------------------------------------------------------------------------
# hash-keyed verification (slim int-only candidate pipeline)
# ---------------------------------------------------------------------------

_IDH_INDEX_CACHE: dict = {}


def _hashed_ids(index: "pd.Index"):
    """(object ids, unique id-hash Index) of one side of a verify index."""
    from ..functions.hashing import hash_strings

    ids = np.asarray(index.to_numpy(), dtype=object)
    hidx = pd.Index(hash_strings(ids))
    if not hidx.is_unique:
        raise RuntimeError(
            "64-bit id-hash collision in verify index; the blocking "
            "pipeline's hash-keyed dedup is unsound for this id set"
        )
    return ids, hidx


def _idh_token_index(toks_ref):
    """Per-worker cache deriving a 64-bit-id-hash-keyed TWO-SIDED view of a
    broadcast token index: ``(ha, ids_a, va, oa, hb, ids_b, vb, ob, m,
    self_join)``.  An RS index (collect_token_index_rs) hashes each side; a
    self index (collect_token_index) is its own B side — the same arrays,
    hashed once.

    int64 ``Index.get_indexer`` runs the vectorized integer hash path (~5x
    faster than object-string lookups), and candidate pairs can be shuffled
    as 16-byte (k1, k2) rows with id strings materialized only for
    survivors.  Uniqueness of the id hashes is asserted — the pair pipeline
    already keys dedup and self-pair exclusion on them (blocking._pairgen),
    so a collision would corrupt results upstream of this stage anyway."""
    key = toks_ref.hex() if hasattr(toks_ref, "hex") else id(toks_ref)
    got = _IDH_INDEX_CACHE.get(key)
    if got is None:
        idx = get_broadcast(toks_ref)
        self_join = len(idx) == 4
        if self_join:
            index_a, va, oa, m = idx
            index_b, vb, ob = index_a, va, oa
        else:
            index_a, va, oa, index_b, vb, ob, m = idx
        ids_a, ha = _hashed_ids(index_a)
        ids_b, hb = (ids_a, ha) if self_join else _hashed_ids(index_b)
        got = (ha, ids_a, va, oa, hb, ids_b, vb, ob, m, self_join)
        # bounded FIFO: a long session running many joins must not pin every
        # past join's id/token arrays in every worker forever
        while len(_IDH_INDEX_CACHE) >= 4:
            _IDH_INDEX_CACHE.pop(next(iter(_IDH_INDEX_CACHE)))
        _IDH_INDEX_CACHE[key] = got
    return got


_EMPTY_RULE_ROWS = pa.table({
    "id1": pa.array([], pa.string()), "id2": pa.array([], pa.string()),
    "sim": pa.array([], pa.float64()), "rule": pa.array([], pa.int32()),
    "k1": pa.array([], pa.int64()), "k2": pa.array([], pa.int64()),
})


def hash_verify_rules(k1: np.ndarray, k2: np.ndarray, toks_ref,
                      rules: list[tuple[str, float]],
                      chunk: int = 16384) -> pa.Table:
    """Verify (k1, k2) id-hash pairs against a broadcast token index (self
    or RS, see _idh_token_index); emits {id1, id2, sim, rule, k1, k2} — one
    row per (pair, passing rule), keys + rule index kept for survivor-level
    bookkeeping.  Self-join ids are lex-canonicalized; RS pairs keep their
    (A, B) order.  Verifying pre-deduped slim candidates streamed off pair
    generation removes the all-candidate shuffle of id-carrying rows
    (59M rows -> ~10^5 survivor rows at sf0.1).

    Processed in ``chunk``-sized slices so the partner-token gather
    temporaries stay bounded regardless of bucket size."""
    if k1.size > chunk:
        parts = [hash_verify_rules(k1[i:i + chunk], k2[i:i + chunk], toks_ref,
                                   rules, chunk=chunk)
                 for i in range(0, k1.size, chunk)]
        return pa.concat_tables(parts)
    ha, ids_a, va, oa, hb, ids_b, vb, ob, m, self_join = _idh_token_index(toks_ref)
    r1 = ha.get_indexer(k1)
    r2 = hb.get_indexer(k2)
    ok = (r1 >= 0) & (r2 >= 0)
    r1, r2 = r1[ok], r2[ok]
    k1, k2 = k1[ok], k2[ok]
    ovlp = overlap_auto_two(va, oa, vb, ob, m, r1, r2)
    la, lb = np.diff(oa)[r1], np.diff(ob)[r2]
    p1, p2, ps, pr, pk1, pk2 = [], [], [], [], [], []
    for ri, (s_name, thr) in enumerate(rules):
        s = _rule_sim(ovlp, la, lb, s_name)
        keep = s >= thr
        if not keep.any():
            continue
        a = ids_a[r1[keep]].astype("U")
        b = ids_b[r2[keep]].astype("U")
        if self_join:
            swap = a > b
            a, b = np.where(swap, b, a), np.where(swap, a, b)
        p1.append(a)
        p2.append(b)
        ps.append(s[keep])
        pr.append(np.full(int(keep.sum()), ri, np.int32))
        pk1.append(k1[keep])
        pk2.append(k2[keep])
    if not p1:
        return _EMPTY_RULE_ROWS
    return pa.table({
        "id1": pa.array(np.concatenate(p1), pa.string()),
        "id2": pa.array(np.concatenate(p2), pa.string()),
        "sim": pa.array(np.concatenate(ps), pa.float64()),
        "rule": pa.array(np.concatenate(pr), pa.int32()),
        "k1": pa.array(np.concatenate(pk1), pa.int64()),
        "k2": pa.array(np.concatenate(pk2), pa.int64()),
    })


def hash_verify_rules_batch(batch: pa.Table, *, toks_ref,
                            rules: list[tuple[str, float]]) -> pa.Table:
    """map_batches wrapper of hash_verify_rules over slim {k1, k2} candidate
    batches: streams DIRECTLY off the pair-generation operator (no shuffle in
    between) while rebalancing the verify CPU across the whole pool — a hot
    pair-gen bucket's candidates are verified by many tasks, not one."""
    k1 = np.asarray(batch.column("k1"), dtype=np.int64)
    k2 = np.asarray(batch.column("k2"), dtype=np.int64)
    return hash_verify_rules(k1, k2, toks_ref, rules)


# ---------------------------------------------------------------------------
# RS (two-table) broadcast index
# ---------------------------------------------------------------------------


def _ids_and_toks(tbl: pa.Table):
    """(ids, flat token values, offsets) of a collected token table; an
    empty dataset whose plan never produced a schema yields empty arrays."""
    if "conv_id" not in tbl.column_names:
        return (np.empty(0, object), np.empty(0, np.int64),
                np.zeros(1, np.int64))
    ids = tbl.column("conv_id").to_numpy(zero_copy_only=False)
    vals, offs = S.flatten_lists(tbl.column("toks"))
    return ids, vals, offs


def collect_token_index_rs(toks_a: "ray.data.Dataset", toks_b: "ray.data.Dataset"):
    """Two-table broadcast index: both sides' token hashes relabeled into ONE
    dense space so the bitmap kernel works across tables."""
    return collect_token_index_rs_with_df(toks_a, toks_b)[0]


def collect_token_index_rs_with_df(toks_a: "ray.data.Dataset",
                                   toks_b: "ray.data.Dataset",
                                   min_df: int = 2):
    """collect_token_index_rs + the COMBINED-dictionary df table (unique +
    counts over both sides' already-deduped bags) derived FREE from the same
    collect — the RS twin of collect_token_index_with_df: under the
    broadcast gate the distributed df pass over A ∪ B (one extra union +
    sort shuffle) is skipped entirely.  Returns (index_tuple,
    (df_toks_sorted, df_vals))."""
    ta = collect_arrow(toks_a.select_columns(["conv_id", "toks"]))
    tb = collect_arrow(toks_b.select_columns(["conv_id", "toks"]))
    ids_a, va, oa = _ids_and_toks(ta)
    ids_b, vb, ob = _ids_and_toks(tb)
    uni, counts = np.unique(np.concatenate((va, vb)), return_counts=True)
    dt = np.int32 if uni.size < (1 << 31) - 1 else np.int64
    la = np.searchsorted(uni, va).astype(dt)
    lb = np.searchsorted(uni, vb).astype(dt)
    keep = counts >= min_df  # df=1 widow tokens can't be shared (removeWidow)
    return ((pd.Index(ids_a), la, oa, pd.Index(ids_b), lb, ob,
             int(uni.size) + 1),
            (uni[keep], counts[keep].astype(np.int64)))


# ---------------------------------------------------------------------------
# sharded-index grid verify (the beyond-broadcast scale path of every exact
# verify: set-sim, IDF-weighted and value/edit-distance kernels)
# ---------------------------------------------------------------------------
#
# Why not the demand semi-join (joins.py)?  Measured at sf0.1, the fused
# jac+cos rule pair emits ~59.5M raw candidates over 50k records (~1,190
# partners/record on dup-dense data), so "ship each record's token list once
# per needing bucket" degenerates: nearly every record is needed by nearly
# every bucket and the list shuffle approaches pairs x list-bytes (tens of
# GB; the 8-cpu sf0.1 run spilled the local disk full).  The grid design
# moves NO token lists through a shuffle at all:
#
#   1. the token index is written ONCE as Parquet partitioned by
#      shard = hash(id) % S (a map-only pass — no shuffle, and at real scale
#      the store lands on cluster storage and doubles as a stage checkpoint);
#   2. slim 16-byte (k1, k2) candidates shuffle ONCE to grid cell
#      (shard(k1), shard(k2));
#   3. each cell task reads just its two shards (column-pruned Parquet read,
#      cached per worker) and runs the kernel's similarity (GridKernel) —
#      for set-sim the same dense-relabel + bitmap-run overlap kernel as the
#      broadcast path.
#
# A cell task touches exactly two shards; decoded shards are cached per
# worker process under a BYTE budget (_SHARD_CACHE_BYTES, default 1 GiB,
# env GRAFT_SHARD_CACHE_BYTES) purely for cross-cell locality — worker
# memory is bounded by max(two live shards, the cache budget) + one cell
# regardless of total index size.  Duplicate candidates (one per shared
# signature token surviving pair-gen's bucket-local dedup) all land in the
# SAME cell, so the cell-local dedup is globally exact and no
# survivor-level dedup shuffle is needed.  Replaces the reference's
# shared-memory verification (setjoin_parallel.h:334-370) for indexes too
# large to broadcast.
#
# Multi-node contract: the store must live on storage every worker can
# read (cfg.shard_store_dir on cluster storage).  The store manifest
# records per-shard row counts, and _load_shard RAISES when a shard the
# manifest says is non-empty is absent — a node-local store on a
# multi-node cluster fails loudly instead of silently dropping pairs.

_SHARD_CACHE: dict = {}
_SHARD_CACHE_BYTES = 1 << 30  # default; see _shard_cache_bytes()


def _shard_cache_bytes() -> int:
    """Worker shard-cache byte budget, read from GRAFT_SHARD_CACHE_BYTES at
    USE time (not import): a module-import read never sees a driver-side
    export on a pre-started cluster whose workers fork from raylets.  On
    such clusters set the variable via runtime_env so worker processes
    inherit it.  Env wins over the module default; tests therefore patch
    the ENV (monkeypatch.setenv), not the module attribute.  An unparsable
    value falls back to the default rather than failing deep inside a
    worker task."""
    v = os.environ.get("GRAFT_SHARD_CACHE_BYTES")
    if v:
        try:
            return int(v)
        except ValueError:
            pass
    return _SHARD_CACHE_BYTES

_STORE_MANIFEST = "_STORE_MANIFEST.json"

#: unkeyed (no-fingerprint) stores created this session; removed at exit so
#: repeated library calls don't leak one index-sized Parquet copy per call
_UNKEYED_STORES: list = []


class _Shard(NamedTuple):
    """One decoded verify shard (worker-cached).

    ``vals`` keeps the ORIGINAL token hashes (the weighted verify's IDF
    lookup needs them); ``uni``/``labels`` are the shard-local dense
    relabeling computed ONCE at load so grid cells only pay a
    vocabulary-sized label-space merge instead of re-sorting both shards'
    full token arrays per cell."""

    idx: "pd.Index"      # id-hash -> row
    ids: np.ndarray      # original ids (object)
    vals: np.ndarray     # flat token hashes
    offs: np.ndarray     # list offsets
    uni: np.ndarray      # sorted unique token hashes
    labels: np.ndarray   # vals relabeled dense into [0, uni.size)
    nbytes: int


def _cleanup_unkeyed_stores():
    import shutil

    while _UNKEYED_STORES:
        shutil.rmtree(_UNKEYED_STORES.pop(), ignore_errors=True)


def _read_store_manifest(path: str) -> dict | None:
    import json

    mpath = os.path.join(path, _STORE_MANIFEST)
    if not os.path.exists(mpath):
        return None
    try:
        with open(mpath) as f:
            return json.load(f)
    except Exception:
        return None


def _store_from_manifest(path: str, man: dict) -> dict:
    return {"path": path, "num_shards": int(man["num_shards"]),
            "id_type": _store_id_type(path),
            "generation": man.get("generation", ""),
            "shard_rows": man.get("shard_rows", {}),
            "payload_col": man.get("payload_col", "toks")}


def _mix64(x: np.ndarray) -> np.ndarray:
    """splitmix64 finalizer over uint64 (vectorized, wrapping)."""
    z = (x + np.uint64(0x9E3779B97F4A7C15))
    z = (z ^ (z >> np.uint64(30))) * np.uint64(0xBF58476D1CE4E5B9)
    z = (z ^ (z >> np.uint64(27))) * np.uint64(0x94D049BB133111EB)
    return z ^ (z >> np.uint64(31))


def dataset_content_fp(ds: "ray.data.Dataset", payload_col: str = "toks") -> str:
    """Order-invariant CONTENT fingerprint of a (conv_id, payload) dataset,
    as one cheap distributed pass and a tiny driver combine.

    Per row: the payload reduces to a row hash (splitmix64 of each token
    then an in-row wrapping sum + count, or the string hash for scalar
    payloads), which is then MIXED WITH the row's id hash; the dataset
    fingerprint is the wrapping sum of the per-row mixes plus the count.
    Binding id to payload per row before the commutative combine defeats
    the collisions a naive (xor of ids, sum of payloads) pair allows:
    payload swaps between ids, same-sum token edits ([1,2,3] vs [6]), and
    duplicate-id xor cancellation all change the result.

    Callers keying a resumable shard store fold this into ``fp`` so a
    different corpus can never silently reuse a stale store — a bare row
    count is config, not input identity."""
    import pyarrow.compute as pc

    from ..functions.hashing import hash_strings

    def part(t: pa.Table) -> pa.Table:
        zero = pa.table({"n": pa.array([0], pa.int64()),
                         "s": pa.array([0], pa.int64())})
        if t.num_rows == 0 or "conv_id" not in t.column_names:
            return zero
        ids = np.asarray(t.column("conv_id").to_numpy(zero_copy_only=False),
                         dtype=object)
        idh = hash_strings(ids).view(np.uint64)
        col = t.column(payload_col)
        col = col.combine_chunks() if isinstance(col, pa.ChunkedArray) else col
        if pa.types.is_list(col.type) or pa.types.is_large_list(col.type):
            vals, offs = S.flatten_lists(col)
            g = _mix64(vals.view(np.uint64))
            csum = np.zeros(g.size + 1, np.uint64)
            np.cumsum(g, out=csum[1:])  # wrapping
            row_sum = csum[offs[1:]] - csum[offs[:-1]]
            cnt = np.diff(offs).astype(np.uint64)
            row_payload = _mix64(row_sum ^ _mix64(cnt))
        else:
            sv = np.asarray(col.to_numpy(zero_copy_only=False), dtype=object)
            row_payload = hash_strings(sv).view(np.uint64)
        row_fp = _mix64(idh ^ _mix64(row_payload))
        s = np.sum(row_fp, dtype=np.uint64)
        return pa.table({
            "n": pa.array([t.num_rows], pa.int64()),
            "s": pa.array([int(s.astype(np.int64))], pa.int64()),
        })

    try:
        ds = ds.select_columns(["conv_id", payload_col])
    except Exception:
        pass  # schema-less empty dataset: part()'s guard covers it
    parts = collect_arrow(ds.map_batches(part, batch_format="pyarrow"))
    if "n" not in parts.column_names:
        return "0-0"
    n = int(pc.sum(parts.column("n")).as_py() or 0)
    ss = np.asarray(parts.column("s"), dtype=np.int64).view(np.uint64)
    s = int(np.sum(ss, dtype=np.uint64)) if ss.size else 0
    return f"{n}-{s:016x}"


def build_token_shard_store(
    toks_ds: "ray.data.Dataset", *, num_shards: int,
    store_dir: str | None = None, fp: str | None = None,
    resume: bool = True, payload_col: str = "toks",
) -> dict:
    """Write ``toks_ds`` (conv_id, <payload>) as a Parquet store partitioned
    by ``shard = hash(conv_id) % num_shards``; returns ``{"path",
    "num_shards", "id_type", "generation", "shard_rows"}``.

    ``payload_col`` names the per-record payload: the default ``toks``
    (list<int64> token sets, decoded by ``_load_shard`` for the set-sim
    grid) or any other column — the edit joins' value grid stores a string
    column and decodes it with ``_load_value_shard``.

    Map-only (no shuffle): each task routes its rows and the Parquet writer
    splits them into the shard=N directories.  The id hash is the same
    ``hash_strings`` the pair pipeline keys on, so cell tasks can look
    records up by the (k1, k2) values pair generation emitted.

    ``fp`` + ``store_dir`` make the store a RESUMABLE checkpoint (same
    config-fingerprint convention as sources.io.checkpoint_stage): the store
    lands at a deterministic ``shards_<fp>_<S>`` path with a manifest, built
    atomically (unique tmp dir + rename — concurrent builders race safely
    and the loser adopts the winner), and a later run with a matching
    manifest reuses it without rebuilding (``resume=False`` forces a
    rebuild; callers must fold the INPUT's identity into ``fp``, not just
    config).  Without ``fp`` every call gets a fresh tempdir, removed at
    interpreter exit.

    The manifest records per-shard row counts and a build-unique
    ``generation`` token: absent-but-nonempty shards fail loudly at read
    time (node-local store on a multi-node cluster) and worker shard caches
    can never serve a stale pre-rebuild entry."""
    import json
    import shutil
    import tempfile
    import uuid

    import pyarrow.parquet as pq

    from ..functions.hashing import bucket_of, hash_strings

    # A store on node-local scratch is invisible to tasks on other nodes —
    # their cells would resolve empty shards and silently drop pairs.  The
    # per-shard manifest counts catch that at read time; refuse the obvious
    # misconfiguration up front.
    if store_dir is None:
        try:
            alive = sum(1 for n in ray.nodes() if n.get("Alive"))
        except Exception:
            alive = 1
        if alive > 1:
            raise ValueError(
                "build_token_shard_store: no store_dir on a multi-node "
                "cluster — the default tempdir is node-local, so verify "
                "cells on other nodes would see empty shards; set "
                "PipelineConfig.shard_store_dir to cluster-shared storage")
    # ``store_dir`` is a ROOT (cluster storage at scale): every store gets a
    # fresh (or fingerprint-deterministic) subdirectory so concurrent
    # rules/tokenizations never collide
    if store_dir is not None:
        os.makedirs(store_dir, exist_ok=True)
    final_dir = None
    if fp is not None and store_dir is not None:
        final_dir = os.path.join(store_dir, f"shards_{fp}_{int(num_shards)}")
        man = _read_store_manifest(final_dir)
        if (resume and man is not None and man.get("fingerprint") == fp
                and man.get("num_shards") == int(num_shards)
                and man.get("complete")):
            return _store_from_manifest(final_dir, man)
        if os.path.exists(final_dir):
            # a stale/incomplete store blocks the final rename: move it aside
            # ATOMICALLY rather than rmtree in place — a peer may complete
            # its build between our manifest check and the delete, and an
            # rmtree here would destroy its just-installed valid store.  The
            # rename arbitrates (exactly one mover wins); if what we moved
            # aside turns out to be a peer's completed store, reinstall or
            # adopt it instead of rebuilding.
            stale = final_dir + ".stale-" + uuid.uuid4().hex
            try:
                os.rename(final_dir, stale)
            except OSError:
                pass  # a peer moved (or installed over) it first
            else:
                man2 = _read_store_manifest(stale)
                if (resume and man2 is not None
                        and man2.get("fingerprint") == fp
                        and man2.get("num_shards") == int(num_shards)
                        and man2.get("complete")):
                    try:
                        os.rename(stale, final_dir)
                        return _store_from_manifest(final_dir, man2)
                    except OSError:
                        pass  # another builder installed one meanwhile
                shutil.rmtree(stale, ignore_errors=True)
        # UNIQUE tmp dir: two concurrent builds of the same fingerprint must
        # not rmtree each other mid-write; the rename below arbitrates
        tmp_dir = tempfile.mkdtemp(
            prefix=os.path.basename(final_dir) + ".tmp-", dir=store_dir)
    else:
        tmp_dir = tempfile.mkdtemp(prefix="ebsj_shards_", dir=store_dir)
        if not _UNKEYED_STORES:
            import atexit

            atexit.register(_cleanup_unkeyed_stores)
        _UNKEYED_STORES.append(tmp_dir)

    def route(t: pa.Table) -> pa.Table:
        ids = np.asarray(t.column("conv_id").to_numpy(zero_copy_only=False),
                         dtype=object)
        idh = hash_strings(ids)
        c = t.column("conv_id")
        ct = t.column(payload_col)
        return pa.table({
            "shard": pa.array(bucket_of(idh, num_shards).astype(np.int32),
                              pa.int32()),
            "idh": pa.array(idh, pa.int64()),
            # id column kept at its ORIGINAL dtype (int ids stay ints in the
            # verify output, matching the id-carrying pair paths)
            "conv_id": c.combine_chunks() if isinstance(c, pa.ChunkedArray) else c,
            payload_col: ct.combine_chunks() if isinstance(ct, pa.ChunkedArray) else ct,
        })

    from .joins import _pa_schema

    sch = _pa_schema(toks_ds)
    # an empty dataset whose plan never executed has no schema: the id type
    # then only shapes (empty) verify outputs — default to string
    id_type = (sch.field("conv_id").type if "conv_id" in sch.names
               else pa.string())
    (toks_ds.select_columns(["conv_id", payload_col])
        .map_batches(route, batch_format="pyarrow")
        .write_parquet(tmp_dir, partition_cols=["shard"]))
    # per-shard row counts from the Parquet footers (cheap metadata-only
    # scan) so _load_shard can distinguish "no record hashed here" from
    # "this node cannot see the store"
    shard_rows: dict = {}
    for d in os.listdir(tmp_dir):
        if not d.startswith("shard="):
            continue
        sdir = os.path.join(tmp_dir, d)
        n = sum(pq.read_metadata(os.path.join(sdir, f)).num_rows
                for f in os.listdir(sdir) if f.endswith(".parquet"))
        shard_rows[str(int(d.split("=", 1)[1]))] = int(n)
    man = {"fingerprint": fp, "num_shards": int(num_shards), "complete": True,
           "generation": uuid.uuid4().hex, "shard_rows": shard_rows,
           "payload_col": payload_col}
    with open(os.path.join(tmp_dir, _STORE_MANIFEST), "w") as f:
        json.dump(man, f)
    path = tmp_dir
    if final_dir is not None:
        try:
            os.rename(tmp_dir, final_dir)
        except OSError:
            # a concurrent build of the same fingerprint won the race: adopt
            # its (validated) store and drop ours
            peer = _read_store_manifest(final_dir)
            if (peer is not None and peer.get("fingerprint") == fp
                    and peer.get("num_shards") == int(num_shards)
                    and peer.get("complete")):
                shutil.rmtree(tmp_dir, ignore_errors=True)
                return _store_from_manifest(final_dir, peer)
            raise
        path = final_dir
    return {"path": path, "num_shards": int(num_shards), "id_type": id_type,
            "generation": man["generation"], "shard_rows": shard_rows,
            "payload_col": payload_col}


def _store_id_type(path: str):
    """Recover the id column's Arrow type from a reused store's files."""
    import glob
    import os

    import pyarrow.parquet as pq

    files = glob.glob(os.path.join(path, "shard=*", "*.parquet"))
    if not files:
        return pa.string()  # empty store: type only shapes empty outputs
    return pq.read_schema(files[0]).field("conv_id").type


def _read_shard_table(store: dict, shard: int, columns: list) -> "pa.Table | None":
    """Read one shard's Parquet directory with the manifest integrity
    checks shared by every shard decoder.

    A shard directory may legitimately be absent when no record hashed
    there (tiny inputs) — but ONLY if the store manifest agrees it holds 0
    rows.  A manifest-nonempty shard that is absent means this worker
    cannot see the store (node-local path on a multi-node cluster) and
    raises instead of silently dropping every candidate pair in its cells.
    Returns None for a (verified) empty shard."""
    import pyarrow.parquet as pq

    path = os.path.join(store["path"], f"shard={int(shard)}")
    expected = int(store.get("shard_rows", {}).get(str(int(shard)), 0))
    if os.path.isdir(path):
        t = pq.read_table(path, columns=columns)
        if expected and t.num_rows != expected:
            raise RuntimeError(
                f"verify shard store {store['path']!r}: shard {int(shard)} "
                f"has {t.num_rows} rows but the manifest records {expected} "
                "— the store is corrupt or partially visible")
        return t
    if expected:
        raise RuntimeError(
            f"verify shard store {store['path']!r}: shard {int(shard)} "
            f"is absent on this node but the manifest records {expected}"
            " rows — the store is not on storage shared by all workers "
            "(set PipelineConfig.shard_store_dir to cluster storage)")
    return None


def _cache_shard(key, got):
    """Insert into the byte-bounded worker cache (see _SHARD_CACHE_BYTES):
    evict FIFO until the budget holds; the entry being inserted is always
    kept (callers hold live references to a cell's two shards anyway), so
    an over-budget shard just means no cross-cell reuse — never an
    incorrect result."""
    budget = _shard_cache_bytes()
    total = sum(s.nbytes for s in _SHARD_CACHE.values())
    while _SHARD_CACHE and total + got.nbytes > budget:
        total -= _SHARD_CACHE.pop(next(iter(_SHARD_CACHE))).nbytes
    _SHARD_CACHE[key] = got
    return got


def _load_shard(store: dict, shard: int) -> _Shard:
    """Worker-cached load + decode of one TOKEN-set shard (see ``_Shard``).

    The cache key carries the store's build ``generation``, so a rebuild at
    the same path can never serve a stale pre-rebuild entry, and a decoder
    KIND marker, so a store read through both this and ``_load_value_shard``
    can never serve the other decoder's NamedTuple."""
    key = ("toks", store["path"], store.get("generation"), int(shard))
    got = _SHARD_CACHE.get(key)
    if got is not None:
        return got
    t = _read_shard_table(store, shard, ["idh", "conv_id", "toks"])
    if t is not None:
        idh = np.asarray(t.column("idh").to_numpy(zero_copy_only=False),
                         dtype=np.int64)
        ids = np.asarray(t.column("conv_id").to_numpy(zero_copy_only=False),
                         dtype=object)
        vals, offs = S.flatten_lists(t.column("toks"))
    else:
        idh = np.empty(0, np.int64)
        ids = np.empty(0, object)
        vals, offs = np.empty(0, np.int64), np.zeros(1, np.int64)
    idx = pd.Index(idh)
    if not idx.is_unique:
        raise RuntimeError(
            "64-bit id-hash collision inside a verify shard; the hash-keyed "
            "pair pipeline is unsound for this id set"
        )
    vals = vals.astype(np.int64, copy=False)
    # shard-local dense relabel ONCE at load: grid cells then merge label
    # spaces via the vocabulary-sized ``uni`` arrays instead of re-sorting
    # both shards' full token arrays per cell
    uni = np.unique(vals)
    ldt = np.int32 if uni.size < (1 << 31) - 1 else np.int64
    labels = np.searchsorted(uni, vals).astype(ldt)
    nbytes = (idh.nbytes + vals.nbytes + offs.nbytes + uni.nbytes
              + labels.nbytes + ids.size * 64)  # ids: rough per-object cost
    return _cache_shard(key, _Shard(idx, ids, vals, offs, uni, labels,
                                    int(nbytes)))


class _VShard(NamedTuple):
    """One decoded VALUE shard (string payloads; worker-cached)."""

    idx: "pd.Index"      # id-hash -> row
    ids: np.ndarray      # original ids (object)
    vals: np.ndarray     # payload strings (object)
    nbytes: int


def _load_value_shard(store: dict, shard: int) -> _VShard:
    """Worker-cached load of one value shard (string payload column named
    by the store's recorded ``payload_col`` — same 'toks' manifest fallback
    as ``_store_from_manifest``, ONE default everywhere); same
    manifest/generation/kind cache contract as ``_load_shard``."""
    pc_name = store.get("payload_col", "toks")
    key = ("values", store["path"], store.get("generation"), int(shard))
    got = _SHARD_CACHE.get(key)
    if got is not None:
        return got
    t = _read_shard_table(store, shard, ["idh", "conv_id", pc_name])
    if t is not None:
        idh = np.asarray(t.column("idh").to_numpy(zero_copy_only=False),
                         dtype=np.int64)
        ids = np.asarray(t.column("conv_id").to_numpy(zero_copy_only=False),
                         dtype=object)
        payload_nbytes = int(t.column(pc_name).nbytes)  # Arrow buffer size
        vals = np.asarray(t.column(pc_name).to_numpy(zero_copy_only=False),
                          dtype=object)
    else:
        idh = np.empty(0, np.int64)
        ids = np.empty(0, object)
        vals = np.empty(0, object)
        payload_nbytes = 0
    idx = pd.Index(idh)
    if not idx.is_unique:
        raise RuntimeError(
            "64-bit id-hash collision inside a verify shard; the hash-keyed "
            "pair pipeline is unsound for this id set"
        )
    nbytes = idh.nbytes + ids.size * 64 + payload_nbytes + vals.size * 64
    return _cache_shard(key, _VShard(idx, ids, vals, int(nbytes)))


def _empty_verified(id1_type, id2_type) -> pa.Table:
    return pa.table({
        "id1": pa.array([], id1_type), "id2": pa.array([], id2_type),
        "sim": pa.array([], pa.float64()),
    })


class GridKernel(NamedTuple):
    """A grid-verify similarity: ``load(store, shard)`` decodes a shard
    (``_load_shard`` or ``_load_value_shard``); ``verify(sh1, r1, sh2, r2)
    -> (rows, sim)`` scores the cell's pairs ``(sh1 row r1[i], sh2 row
    r2[i])`` and returns the passing pair indices ``rows`` (into r1/r2; a
    pair repeats once per passing rule) with their float64 ``sim``.  In
    self mode a cell whose two keys hash to one shard gets ``sh2 is sh1``."""

    load: Callable
    verify: Callable


def grid_verify(pairs_ds: "ray.data.Dataset", store: dict,
                cell_kernel: GridKernel, *,
                store_b: dict | None = None) -> "ray.data.Dataset":
    """Grid-verify slim ``(k1, k2)`` id-hash candidate pairs against a
    shard store with a pluggable per-cell similarity; emits globally-deduped
    ``{id1, id2, sim}`` rows, self-join ids lex-canonicalized.

    ``store_b``: RS mode — k1 resolves in ``store`` (table A), k2 in
    ``store_b`` (table B); ids keep (A, B) order.  Output id dtypes follow
    the stores' conv_id dtypes.  Keys absent from their shard are dropped.

    Every duplicate of a candidate lands in the same (shard(k1), shard(k2))
    cell, so the cell-local (k1, k2) dedup is globally exact and no
    pre-verify or survivor dedup shuffle is needed."""
    from ..functions.hashing import bucket_of

    n_shards = store["num_shards"]
    if n_shards > 46_340:  # sqrt(2^31): the int32 cell id would overflow
        raise ValueError(f"verify grid supports at most 46340 shards, got {n_shards}")
    rs = store_b is not None
    if rs and store_b["num_shards"] != n_shards:
        raise ValueError("RS verify requires equal shard counts")
    store2 = store_b if rs else store
    id1_t, id2_t = store["id_type"], store2["id_type"]
    empty = _empty_verified(id1_t, id2_t)
    load, kernel = cell_kernel

    def add_cell(t: pa.Table) -> pa.Table:
        k1 = np.asarray(t.column("k1"), dtype=np.int64)
        k2 = np.asarray(t.column("k2"), dtype=np.int64)
        cell = bucket_of(k1, n_shards) * n_shards + bucket_of(k2, n_shards)
        return pa.table({
            "cell": pa.array(cell.astype(np.int32), pa.int32()),
            "k1": pa.array(k1, pa.int64()),
            "k2": pa.array(k2, pa.int64()),
        })

    def verify_cell(t: pa.Table) -> pa.Table:
        if t.num_rows == 0:
            return empty
        cell = int(t.column("cell")[0].as_py())
        s1, s2 = cell // n_shards, cell % n_shards
        k1 = np.asarray(t.column("k1"), dtype=np.int64)
        k2 = np.asarray(t.column("k2"), dtype=np.int64)
        # duplicates from distinct pair-gen buckets all map to this cell:
        # local (k1, k2) dedup is globally exact
        order = np.lexsort((k2, k1))
        k1, k2 = k1[order], k2[order]
        first = np.ones(k1.size, bool)
        first[1:] = (k1[1:] != k1[:-1]) | (k2[1:] != k2[:-1])
        k1, k2 = k1[first], k2[first]
        sh1 = load(store, s1)
        sh2 = sh1 if not rs and s2 == s1 else load(store2, s2)
        r1 = sh1.idx.get_indexer(k1)
        r2 = sh2.idx.get_indexer(k2)
        ok = (r1 >= 0) & (r2 >= 0)
        r1, r2 = r1[ok], r2[ok]
        if r1.size == 0:
            return empty
        rows, sim = kernel(sh1, r1, sh2, r2)
        if rows.size == 0:
            return empty
        a = sh1.ids[r1[rows]]
        b = sh2.ids[r2[rows]]
        if not rs:
            swap = a > b
            a, b = np.where(swap, b, a), np.where(swap, a, b)
        return pa.table({
            "id1": pa.array(a, id1_t),
            "id2": pa.array(b, id2_t),
            "sim": pa.array(sim, pa.float64()),
        })

    return (pairs_ds.select_columns(["k1", "k2"])
            .map_batches(add_cell, batch_format="pyarrow")
            .groupby("cell")
            .map_groups(verify_cell, batch_format="pyarrow"))


def _setsim_cell(rules: list[tuple[str, float]]):
    """Set-sim grid kernel: the broadcast path's bitmap overlap over the
    cell's two token shards, computed once per pair for all ``rules``."""

    def verify(sh1: _Shard, r1, sh2: _Shard, r2):
        offs1 = sh1.offs
        if sh2 is sh1:
            vals_all, offs_all, R2 = sh1.labels, offs1, r2
            m = sh1.uni.size + 1
        else:
            # merge the two shard-LOCAL dense label spaces through their
            # sorted unique arrays (vocabulary-sized): per-cell cost drops
            # from re-sorting both shards' full token arrays (O(N log N),
            # the grid's former dominant fixed cost — each shard sits in
            # ~2S cells) to O(U log U) merge + O(N) label gathers
            merged = np.union1d(sh1.uni, sh2.uni)
            dt = np.int32 if merged.size < (1 << 31) - 1 else np.int64
            map1 = np.searchsorted(merged, sh1.uni).astype(dt)
            map2 = np.searchsorted(merged, sh2.uni).astype(dt)
            vals_all = np.concatenate([map1[sh1.labels], map2[sh2.labels]])
            offs_all = np.concatenate([offs1, offs1[-1] + sh2.offs[1:]])
            R2 = r2 + (offs1.size - 1)
            m = merged.size + 1
        ovlp = overlap_auto(vals_all, offs_all, m, r1, R2)
        lens = np.diff(offs_all)
        la, lb = lens[r1], lens[R2]
        rows, sims = [], []
        for s_name, thr in rules:
            s = _rule_sim(ovlp, la, lb, s_name)
            keep = s >= thr
            rows.append(np.flatnonzero(keep))
            sims.append(s[keep])
        return np.concatenate(rows), np.concatenate(sims)

    return GridKernel(_load_shard, verify)


def verify_pairs_sharded(
    pairs_ds: "ray.data.Dataset",
    store: dict,
    *,
    sim: str | None = None,
    threshold: float | None = None,
    rules: list[tuple[str, float]] | None = None,
    store_b: dict | None = None,
) -> "ray.data.Dataset":
    """Set-sim grid verify (see grid_verify) of slim ``(k1, k2)`` pairs
    against a token shard store: one row per (pair, passing rule), either
    the single ``sim``/``threshold`` rule or the fused ``rules``."""
    rl = rules if rules is not None else [(sim, threshold)]
    return grid_verify(pairs_ds, store, _setsim_cell(rl), store_b=store_b)


def slim_pairs(pairs_ds: "ray.data.Dataset", *, canonical: bool) -> "ray.data.Dataset":
    """``{id1, id2}`` string-id pairs -> slim ``{k1, k2}`` id-hash pairs for
    grid_verify.  ``canonical`` (self joins) hash-orders each pair so its
    grid cell is deterministic; the verify re-canonicalizes output ids
    lexicographically.  RS pairs keep their (A, B) order."""
    from ..functions.hashing import hash_strings

    def slim(t: pa.Table) -> pa.Table:
        i1 = hash_strings(np.asarray(
            t.column("id1").to_numpy(zero_copy_only=False), dtype=object))
        i2 = hash_strings(np.asarray(
            t.column("id2").to_numpy(zero_copy_only=False), dtype=object))
        if canonical:
            i1, i2 = np.minimum(i1, i2), np.maximum(i1, i2)
        return pa.table({"k1": pa.array(i1, pa.int64()),
                         "k2": pa.array(i2, pa.int64())})

    return pairs_ds.select_columns(["id1", "id2"]).map_batches(
        slim, batch_format="pyarrow")
