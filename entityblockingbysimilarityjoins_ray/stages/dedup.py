"""Document deduplication operators (training-data-pipeline extensions).

Beyond the reference's record-level joins, a 100 TB corpus pipeline needs
document dedup primitives.  All are expressed Ray-Data-first:

- exact dedup: content hash -> hash-bucket groupby -> keep min id
- MinHash + LSH near-dup: per-batch vectorized shingle->minhash, band
  signatures exploded to (band, band_hash) keys -> groupby -> candidate
  pairs -> exact-Jaccard verify (so the *output* is exact among candidates)
- SimHash near-dup: 64-bit simhash, banded into 4x16-bit keys (Hamming<=3
  within <=4 bands by pigeonhole) -> candidates -> exact Hamming verify
- embedding cosine near-dup: normalized vectors, coarse LSH (random
  hyperplane) buckets -> candidates -> exact cosine verify; plus a
  brute-force variant for oracle checks

The LSH outputs are recall<1 by construction (documented; candidates only),
the verify step makes precision exact.
"""

from __future__ import annotations

import logging

import numpy as np
import pandas as pd
import pyarrow as pa
import ray
import ray.data

logger = logging.getLogger(__name__)

from ..functions import hashing as H
from ..functions.hashing import (
    bucket_of,
    get_broadcast,
    group_sizes_from_sorted,
    hash_strings,
    iter_pairs,
)
from ..functions.tokenize import tokenize_array

_U64 = np.uint64


# ---------------------------------------------------------------------------
# exact dedup
# ---------------------------------------------------------------------------


def dedup_exact(
    docs: "ray.data.Dataset", text_col: str = "text", id_col: str = "doc_id",
    num_partitions: int = 32,
) -> "ray.data.Dataset":
    """Keep the min-id row per distinct text value: hash-partition on a
    content hash, vectorized first-per-group inside each bucket."""

    def add_h(df: pd.DataFrame) -> pd.DataFrame:
        df = df[[id_col, text_col]].copy()
        df["pb"] = bucket_of(hash_strings(df[text_col].fillna("").to_numpy(object)), num_partitions)
        return df

    def keep_min(df: pd.DataFrame) -> pd.DataFrame:
        out = df.sort_values(id_col, kind="stable").drop_duplicates(text_col, keep="first")
        return out.drop(columns=["pb"])

    return (
        docs.map_batches(add_h, batch_format="pandas")
        .groupby("pb")
        .map_groups(keep_min, batch_format="pandas")
    )


# ---------------------------------------------------------------------------
# MinHash + LSH
# ---------------------------------------------------------------------------


def _minhash_batch(tok_hashes: np.ndarray, offsets: np.ndarray, perm_a, perm_b) -> np.ndarray:
    """(n_rows, n_perm) minhash signatures from flattened token hashes,
    vectorized: one (tokens x perms) universal-hash pass + per-row segment
    minima via np.minimum.reduceat."""
    n = offsets.size - 1
    k = perm_a.size
    if tok_hashes.size == 0:
        return np.full((n, k), np.iinfo(np.uint64).max, dtype=_U64)
    t = tok_hashes.view(_U64)[:, None]
    hv = t * perm_a[None, :] + perm_b[None, :]  # mod 2^64 universal-ish hash
    sig = np.full((n, k), np.iinfo(np.uint64).max, dtype=_U64)
    lens = np.diff(offsets)
    nz = lens > 0
    mins = np.minimum.reduceat(hv, offsets[:-1][nz], axis=0)
    sig[nz] = mins
    return sig


_PERM_CACHE: dict = {}


def _perms(n_perm: int, seed: int):
    key = (n_perm, seed)
    if key not in _PERM_CACHE:
        rng = np.random.default_rng(seed)
        _PERM_CACHE[key] = (
            rng.integers(1, 2**63, size=n_perm, dtype=np.uint64) * _U64(2) + _U64(1),
            rng.integers(0, 2**63, size=n_perm, dtype=np.uint64),
        )
    return _PERM_CACHE[key]


def _minhash_bands(t: pa.Table, *, id_col, text_col, tok, q, n_perm, n_bands,
                   num_partitions, seed=42, hash64="pandas") -> pa.Table:
    """Stateless minhash-band task (seeded permutations cached per worker).

    Emits one row per (doc, band) carrying only the doc's band-hash PREFIX
    ``bh = [band_hash_0 .. band_hash_{b-1}]`` (variable list<int64>): the
    downstream pair generator applies the *first-agreeing-band* rule — a
    pair is emitted only from the smallest band index where the two docs'
    band hashes agree — and its kill loop only ever probes bands BELOW the
    row's own band, so the prefix is sufficient.  Versus shipping the full
    n_bands vector on every row this halves the dominant shuffle on average
    (and band-0 rows, the densest buckets, carry no history at all).  Every
    candidate pair is still generated EXACTLY ONCE globally — no cross-band
    duplicates, no global pair-dedup shuffle."""
    perm_a, perm_b = _perms(n_perm, seed)
    rows_per_band = n_perm // n_bands
    ids = np.asarray(t.column(id_col).to_numpy(zero_copy_only=False))
    vals, offs = tokenize_array(t.column(text_col), tok, q, hash64)
    sig = _minhash_batch(vals, offs, perm_a, perm_b)
    n = ids.size
    r = rows_per_band
    bh = np.empty((n, n_bands), dtype=np.int64)
    for b in range(n_bands):
        seg = sig[:, b * r : (b + 1) * r]
        h = np.full(n, 0xCBF29CE484222325, dtype=_U64)
        for j in range(r):
            h = (h ^ seg[:, j]) * _U64(0x100000001B3)
        bh[:, b] = h.view(np.int64)
    band_id = np.tile(np.arange(n_bands), n).astype(np.int32)
    band_hash = bh.reshape(-1)
    ids_r = np.repeat(ids, n_bands)
    key = band_hash ^ (band_id.astype(np.int64) * 0x9E3779B9)
    # doc-major prefix values: doc i contributes bh[i, :0], bh[i, :1], ...
    tri = np.concatenate([np.arange(b) for b in range(n_bands)]).astype(np.int64) \
        if n_bands > 1 else np.zeros(0, np.int64)
    pref_vals = bh[:, tri].reshape(-1) if n else np.zeros(0, np.int64)
    lens = np.tile(np.arange(n_bands, dtype=np.int64), n)
    offsets = np.concatenate(([0], np.cumsum(lens)))
    bh_pref = pa.ListArray.from_arrays(
        pa.array(offsets, pa.int32()), pa.array(pref_vals, pa.int64())
    )
    return pa.table(
        {
            "pb": pa.array(bucket_of(key, num_partitions), pa.int32()),
            "key": pa.array(key, pa.int64()),
            "band": pa.array(band_id, pa.int32()),
            "id": pa.array(ids_r),
            "bh": bh_pref,
        }
    )


def _minhash_pairgen(t: pa.Table, *, chunk: int, max_bucket: int = 100_000) -> pa.Table:
    """Within-bucket candidate pairs under the first-agreeing-band rule.

    Rows are sorted by (key, band0-hash); inside a band-b>0 bucket only pairs
    from DIFFERENT band-0 subgroups are enumerated at all — a pair agreeing
    at band 0 is a duplicate by construction, and densely-similar clusters
    (which agree at band 0 with prob s^r) therefore never re-enumerate their
    quadratic pair space at bands 1..n-1.  Agreements at bands 1..b-1 are
    then killed by a column-at-a-time check with compaction (no
    (n_pairs, n_bands) matrix is ever materialized).  Both decodes run
    ``chunk`` pairs at a time (iter_pairs)."""
    empty = pa.table({"id1": pa.array([], pa.int64()), "id2": pa.array([], pa.int64())})
    key = np.asarray(t.column("key"), dtype=np.int64)
    if key.size == 0:
        return empty
    band = np.asarray(t.column("band"), dtype=np.int64)
    ids = np.asarray(t.column("id").to_numpy(zero_copy_only=False))
    bh_col = t.column("bh")
    bh_col = bh_col.combine_chunks() if isinstance(bh_col, pa.ChunkedArray) else bh_col
    # variable prefix list: row r carries bands [0, band[r]) at
    # flat[row_start[r] : row_start[r] + band[r]]
    flat = np.asarray(bh_col.flatten(), dtype=np.int64)
    p_offs = np.asarray(bh_col.offsets, dtype=np.int64)
    row_start = p_offs[:-1] - p_offs[0]
    # band-0 hash per row: band>0 rows carry it as prefix[0]; band-0 rows'
    # own band hash IS the bucket key (key = bh0 ^ 0*const)
    if flat.size:
        first = flat[np.minimum(row_start, flat.size - 1)]
    else:
        first = np.zeros(key.size, np.int64)
    bh0 = np.where(band == 0, key, first)

    order = np.lexsort((bh0, key))
    key, band, ids, bh0, row_start = (
        key[order], band[order], ids[order], bh0[order], row_start[order])
    starts, sizes = group_sizes_from_sorted(key)
    if sizes.size and sizes.max() > max_bucket:
        sizes_c = np.minimum(sizes, max_bucket)
        logger.warning(
            "minhash: truncating %d hot buckets (dropping %d rows, cap=%d)",
            int((sizes > max_bucket).sum()), int((sizes - sizes_c).sum()), max_bucket,
        )
        local = np.arange(key.size) - np.repeat(starts, sizes)
        keep_mask = local < np.repeat(sizes_c, sizes)
        key, band, ids, bh0, row_start = (
            key[keep_mask], band[keep_mask], ids[keep_mask],
            bh0[keep_mask], row_start[keep_mask])
        starts, sizes = group_sizes_from_sorted(key)

    n = key.size
    grp_start = np.repeat(starts, sizes)  # per-row: first row index of its bucket
    is_b0 = band == 0

    out_i: list[np.ndarray] = []
    out_j: list[np.ndarray] = []

    # --- band-0 buckets: enumerate every within-bucket pair -----------------
    b0_groups = is_b0[starts]  # a bucket is homogeneous in band
    for ii, jj in iter_pairs(starts[b0_groups], sizes[b0_groups], chunk=chunk):
        out_i.append(ii)
        out_j.append(jj)

    # --- band>0 buckets: cross-band0-subgroup pairs only --------------------
    # row r pairs with the l2[r] rows of its bucket's earlier subgroups
    sub_change = np.ones(n, bool)
    sub_change[1:] = (key[1:] != key[:-1]) | (bh0[1:] != bh0[:-1])
    sub_start = np.maximum.accumulate(np.where(sub_change, np.arange(n), 0))
    l2 = np.where(is_b0, 0, sub_start - grp_start)  # earlier-subgroup row count
    rows = np.flatnonzero(l2)
    for jj, ii in iter_pairs(rows, np.ones_like(rows), grp_start[rows], l2[rows],
                             chunk=chunk):
        # kill agreements at bands 1..b-1 (band 0 is structurally excluded).
        # A bucket is homogeneous in band EXCEPT under a cross-band 64-bit
        # key collision; the band[ii] > bprime gate makes the check exact
        # even then — a partner whose prefix cannot hold band bprime simply
        # keeps the pair (it can only ADD a duplicate candidate, never drop
        # a true one), and both prefix reads below are in-bounds by the gate
        keep = np.ones(ii.size, bool)
        b = band[jj]
        alive = np.flatnonzero(b > 1)
        for bprime in range(1, int(b.max()) if alive.size else 1):
            # both gate sets only shrink as bprime grows, so an empty need
            # stays empty at every later band — break is exact
            need = alive[(b[alive] > bprime) & (band[ii[alive]] > bprime)]
            if need.size == 0:
                break
            agree = (flat[row_start[ii[need]] + bprime]
                     == flat[row_start[jj[need]] + bprime])
            keep[need[agree]] = False
            alive = need[~agree]
        out_i.append(ii[keep])
        out_j.append(jj[keep])

    if not out_i:
        return empty
    ii = np.concatenate(out_i)
    jj = np.concatenate(out_j)
    a, bb = ids[ii], ids[jj]
    neq = a != bb  # guard: a cross-band key collision could self-pair a doc
    a, bb = a[neq], bb[neq]
    swap = a > bb
    return pa.table(
        {"id1": pa.array(np.where(swap, bb, a)), "id2": pa.array(np.where(swap, a, bb))}
    )


def _candidate_pairs_from_keys(df: pd.DataFrame, chunk: int,
                               max_bucket: int = 2000) -> pd.DataFrame:
    key = df["key"].to_numpy(np.int64)
    ids = df["id"].to_numpy()
    order = np.argsort(key, kind="stable")
    key, ids = key[order], ids[order]
    starts, sizes = group_sizes_from_sorted(key)
    sizes_c = np.minimum(sizes, max_bucket)
    if sizes.size and sizes.max() > max_bucket:
        n_trunc = int((sizes > max_bucket).sum())
        dropped = int((sizes - sizes_c).sum())
        logger.warning(
            "lsh: truncating %d hot buckets (dropping %d rows, cap=%d) — "
            "recall loss possible; raise max_bucket to make exact",
            n_trunc, dropped, max_bucket,
        )
    p1l, p2l = [ids[:0]], [ids[:0]]
    for ii, jj in iter_pairs(starts, sizes_c, chunk=chunk):
        a, b = ids[ii], ids[jj]
        swap = a > b
        p1l.append(np.where(swap, b, a))
        p2l.append(np.where(swap, a, b))
    return pd.DataFrame({"id1": np.concatenate(p1l),
                         "id2": np.concatenate(p2l)}).drop_duplicates()


def minhash_lsh_dedup(
    docs: "ray.data.Dataset", *, id_col="doc_id", text_col="text", tok="alphanumeric",
    q=3, threshold=0.5, n_perm=128, n_bands=32, num_partitions=128,
    broadcast_limit: int = 2_000_000, n_records: int | None = None,
    seed: int = 42, hash64: str = "pandas",
    shard_store_dir: str | None = None,
) -> "ray.data.Dataset":
    """Near-duplicate pairs via MinHash-LSH candidates + exact-Jaccard verify.

    Output pairs all satisfy jac >= threshold (precision exact); recall is
    the LSH band probability (documented, not silent).  Candidates are
    generated exactly once (first-agreeing-band rule), so there is no global
    pair-dedup shuffle; verification runs ``verify_pairs`` against the
    distributed token sets (broadcast index under the gate, the sharded
    grid beyond — no full-corpus driver collect above ``broadcast_limit``)."""
    sigs = docs.map_batches(
        _minhash_bands,
        fn_kwargs=dict(id_col=id_col, text_col=text_col, tok=tok, q=q,
                       n_perm=n_perm, n_bands=n_bands, num_partitions=num_partitions,
                       seed=seed, hash64=hash64),
        batch_format="pyarrow",
    )
    cands = sigs.groupby("pb").map_groups(_minhash_pairgen, batch_format="pyarrow",
                                          fn_kwargs={"chunk": H.PAIR_CHUNK})

    # distributed tokenize for the verify side (same tokenizer as the bands)
    def tok_table(t: pa.Table) -> pa.Table:
        from ..functions.tokenize import tokens_list_array

        la = tokens_list_array(t.column(text_col), tok, q, hash64)
        return pa.table({"conv_id": t.column(id_col), "toks": la})

    toks_ds = docs.map_batches(tok_table, batch_format="pyarrow")
    if n_records is None:
        n_records = docs.count()
    from .verify import should_broadcast, verify_pairs

    # ``shard_store_dir``: beyond-broadcast verifies checkpoint their token
    # shard store there (cluster storage at scale) instead of a session
    # tempdir (see verify.build_token_shard_store's multi-node contract)
    return verify_pairs(
        cands, toks_ds, sim="jac", threshold=threshold,
        broadcast=should_broadcast(toks_ds, n_records, broadcast_limit),
        num_partitions=num_partitions, store_dir=shard_store_dir,
    )


# ---------------------------------------------------------------------------
# SimHash
# ---------------------------------------------------------------------------


def simhash_signatures(t: pa.Table, id_col: str, text_col: str, tok="alphanumeric", q=3,
                       hash64="pandas") -> pa.Table:
    """64-bit simhash per doc: sign-sum of token-hash bit vectors."""
    ids = t.column(id_col)
    vals, offs = tokenize_array(t.column(text_col), tok, q, hash64)
    n = offs.size - 1
    sig = np.zeros(n, dtype=_U64)
    if vals.size:
        bits = ((vals.view(_U64)[:, None] >> np.arange(64, dtype=_U64)[None, :]) & _U64(1)).astype(np.int32)
        contrib = bits * 2 - 1  # -1 / +1
        rows = np.repeat(np.arange(n), np.diff(offs))
        acc = np.zeros((n, 64), dtype=np.int64)
        np.add.at(acc, rows, contrib)
        sig = ((acc > 0).astype(_U64) << np.arange(64, dtype=_U64)[None, :]).sum(axis=1, dtype=_U64)
    return pa.table({id_col: ids, "simhash": pa.array(sig.view(np.int64), pa.int64())})


def simhash_dedup(
    docs: "ray.data.Dataset", *, id_col="doc_id", text_col="text", max_hamming=3,
    num_partitions=32, tok="alphanumeric", q=3, hash64="pandas",
) -> "ray.data.Dataset":
    """Near-dup pairs with Hamming(simhash) <= max_hamming via banded
    pigeonhole LSH + exact Hamming verify.

    Band count is derived from the radius: ``max_hamming + 1`` bands
    guarantee (pigeonhole) that any pair within the radius shares at least
    one *identical* band, so candidate recall is 1.0 for the requested
    radius — no silent recall hole."""
    assert 0 <= max_hamming < 64
    n_bands = max_hamming + 1
    widths = np.full(n_bands, 64 // n_bands, dtype=np.int64)
    widths[: 64 % n_bands] += 1
    bit_starts = np.concatenate(([0], np.cumsum(widths)[:-1]))
    chunk = H.PAIR_CHUNK

    sigs = docs.map_batches(
        lambda t: simhash_signatures(t, id_col, text_col, tok, q, hash64),
        batch_format="pyarrow",
    )

    def bands(t: pa.Table) -> pa.Table:
        ids = np.asarray(t.column(id_col).to_numpy(zero_copy_only=False))
        sh = np.asarray(t.column("simhash"), dtype=np.int64).view(_U64)
        rows = []
        for b in range(n_bands):
            w, s0 = int(widths[b]), int(bit_starts[b])
            if w >= 64:
                piece = sh
            else:
                piece = (sh >> _U64(s0)) & ((_U64(1) << _U64(w)) - _U64(1))
            # mix band index into the key; a cross-band key collision can only
            # ADD candidates (exact verify prunes), never drop true pairs
            band_mix = _U64(((b + 1) * 0xD6E8FEB86659FD93) % (1 << 64))
            key = (piece * _U64(0x9E3779B97F4A7C15) ^ band_mix).view(np.int64)
            rows.append((key, ids, sh.view(np.int64)))
        key = np.concatenate([r[0] for r in rows])
        idv = np.concatenate([r[1] for r in rows])
        shv = np.concatenate([r[2] for r in rows])
        return pa.table(
            {"pb": pa.array(bucket_of(key, num_partitions), pa.int32()),
             "key": pa.array(key, pa.int64()), "id": pa.array(idv),
             "sh": pa.array(shv, pa.int64())}
        )

    def pairs(df: pd.DataFrame) -> pd.DataFrame:
        cand = _candidate_pairs_from_keys(df[["key", "id"]], chunk)
        if not len(cand):
            cand["hamming"] = pd.Series(dtype=np.int64)
            return cand
        shmap = df.drop_duplicates("id").set_index("id")["sh"]
        a = shmap.reindex(cand["id1"]).to_numpy(np.int64).view(_U64)
        b = shmap.reindex(cand["id2"]).to_numpy(np.int64).view(_U64)
        x = a ^ b
        ham = np.zeros(x.size, np.int64)
        for _ in range(64):
            ham += (x & _U64(1)).astype(np.int64)
            x >>= _U64(1)
        keep = ham <= max_hamming
        out = cand[keep].copy()
        out["hamming"] = ham[keep]
        return out

    cands = sigs.map_batches(bands, batch_format="pyarrow").groupby("pb").map_groups(
        lambda g: pairs(g.drop(columns=["pb"])), batch_format="pandas"
    )

    def dd(df: pd.DataFrame) -> pd.DataFrame:
        return df.drop_duplicates(["id1", "id2"])

    def add_pb(df: pd.DataFrame) -> pd.DataFrame:
        df = df.copy()
        h = hash_strings((df["id1"].astype(str) + "|" + df["id2"].astype(str)).to_numpy(object))
        df["pb"] = bucket_of(h, num_partitions)
        return df

    return (
        cands.map_batches(add_pb, batch_format="pandas")
        .groupby("pb")
        .map_groups(lambda g: dd(g.drop(columns=["pb"])), batch_format="pandas")
    )


# ---------------------------------------------------------------------------
# embedding cosine near-dup
# ---------------------------------------------------------------------------


def _vec_matrix(col, n_rows: int) -> np.ndarray:
    """Arrow list/fixed_size_list column -> (n_rows, d) float64 matrix."""
    col = col.combine_chunks() if isinstance(col, pa.ChunkedArray) else col
    flat = np.asarray(col.flatten(), dtype=np.float64)
    if n_rows == 0:
        return flat.reshape(0, max(1, flat.size))
    return flat.reshape(n_rows, -1)


def _embedding_dim(emb: "ray.data.Dataset", vec_col: str) -> int:
    """Vector dimension from the schema (fixed_size_list) or one probe row."""
    sch = emb.schema()
    base = getattr(sch, "base_schema", None)
    if isinstance(base, pa.Schema) and vec_col in base.names:
        t = base.field(vec_col).type
        if pa.types.is_fixed_size_list(t):
            return int(t.list_size)
    row = emb.select_columns([vec_col]).take(1)
    return len(row[0][vec_col])


def embedding_dup_pairs(
    emb: "ray.data.Dataset", *, id_col="vec_id", vec_col="embedding",
    threshold=0.95, mode="bruteforce", num_partitions=32, seed=42,
    n_bands=32, band_bits=16,
    broadcast_limit: int = 2_000_000, n_records: int | None = None,
) -> "ray.data.Dataset":
    """Pairs with cosine >= threshold.

    mode='bruteforce': exact — broadcast the (normalized f64) matrix, one
      numpy matmul per batch row-block against the full matrix (the oracle
      path; O(n^2) flops but C-speed, fine to ~100k vectors; collects the
      matrix on the driver BY DESIGN).
    mode='lsh': fully DISTRIBUTED scale path — only the
      (d x n_bands*band_bits) hyperplane matrix is broadcast; per-band sign
      keys are computed per batch in map_batches, candidate pairs come from
      per-(band, key) bucket groupbys OR-ed across bands (banded
      random-hyperplane LSH), cross-band duplicates collapse in an int-keyed
      ``dedupe_pairs`` shuffle, and the exact cosine verify runs through
      ``joins.attach_pairs`` — the embedding matrix is never collected on
      the driver above ``broadcast_limit``.

      Recall = 1 - (1 - p^band_bits)^n_bands with p = 1 - theta/pi
      (< 1 by construction, precision exact via the verify).  The defaults
      (32 bands x 16 bits) give >= 0.999 recall at cosine 0.95 while
      keeping 2^16 key values per band; LOW thresholds need shorter bands
      (e.g. band_bits=6, n_bands=24 => ~0.8 recall at cosine 0.4) at the
      cost of coarser buckets — band_bits should stay >= ~log2(n/2000) so
      average buckets clear the hot-bucket cap."""
    if mode == "bruteforce":
        from .verify import collect_arrow

        tbl = collect_arrow(emb.select_columns([id_col, vec_col]))
        ids = np.asarray(tbl.column(id_col).to_numpy(zero_copy_only=False))
        M = _vec_matrix(tbl.column(vec_col), len(ids))
        Mn = M / np.maximum(np.linalg.norm(M, axis=1, keepdims=True), 1e-30)
        ref = ray.put((ids, Mn))
        order = np.argsort(ids)

        def block_fn(t: pa.Table) -> pa.Table:
            all_ids, Mn = get_broadcast(ref)
            rid = np.asarray(t.column(id_col).to_numpy(zero_copy_only=False))
            pos = np.searchsorted(all_ids[order], rid)
            rows = order[pos]
            sims = Mn[rows] @ Mn.T
            ii, jj = np.nonzero(sims >= threshold)
            a = rid[ii]
            b = all_ids[jj]
            keep = a < b
            return pa.table(
                {"id1": pa.array(a[keep]), "id2": pa.array(b[keep]),
                 "sim": pa.array(sims[ii, jj][keep], pa.float64())}
            )

        return emb.select_columns([id_col]).map_batches(
            block_fn, batch_format="pyarrow", batch_size=1024
        )

    # ---- LSH mode: distributed banded signing + attach_pairs verify -------
    dim = _embedding_dim(emb, vec_col)
    rng = np.random.default_rng(seed)
    planes_ref = ray.put(rng.normal(size=(dim, n_bands * band_bits)))
    bit_weights = np.int64(1) << np.arange(band_bits, dtype=np.int64)
    # band-salted key: per-band buckets live in disjoint key spaces so one
    # "key" groupby handles all bands (a cross-band mixed-key collision can
    # only ADD a candidate, which the exact verify kills)
    band_salt = (np.arange(n_bands, dtype=np.uint64)
                 * np.uint64(0x9E3779B97F4A7C15)).view(np.int64)

    def sign_batch(t: pa.Table) -> pa.Table:
        ids_b = np.asarray(t.column(id_col).to_numpy(zero_copy_only=False))
        if len(ids_b) == 0:
            # _vec_matrix can't infer d from an empty block -> (0, 1) would
            # crash the (n, d) @ (d, n_planes) matmul
            return pa.table({"pb": pa.array([], pa.int32()),
                             "key": pa.array([], pa.int64()),
                             "id": t.column(id_col)})
        P = get_broadcast(planes_ref)
        M = _vec_matrix(t.column(vec_col), len(ids_b))
        # sign(v @ P) is scale-invariant — no per-row normalization needed
        bits = ((M @ P) > 0).reshape(len(ids_b), n_bands, band_bits)
        key = (bits.astype(np.int64) @ bit_weights) ^ band_salt  # (n, n_bands)
        return pa.table({
            "pb": pa.array(bucket_of(key.ravel(), num_partitions), pa.int32()),
            "key": pa.array(key.ravel(), pa.int64()),
            "id": pa.array(np.repeat(ids_b, n_bands)),
        })

    sigs = emb.map_batches(sign_batch, batch_format="pyarrow")
    chunk = H.PAIR_CHUNK
    cands = sigs.groupby("pb").map_groups(
        lambda g: _candidate_pairs_from_keys(g.drop(columns=["pb"]), chunk),
        batch_format="pandas")
    # a pair can surface from several agreeing bands -> int-keyed dedup
    # shuffle before the (more expensive) cosine verify
    from .blocking import dedupe_pairs

    cands = dedupe_pairs(cands, num_partitions)

    from .joins import PairKernel, attach_pairs

    def load(tbl: pa.Table) -> np.ndarray:
        M = _vec_matrix(tbl.column(vec_col), tbl.num_rows)
        return M / np.maximum(np.linalg.norm(M, axis=1, keepdims=True), 1e-30)

    def cos_apply(Mn: np.ndarray, t: pa.Table, r1: np.ndarray, r2: np.ndarray) -> pa.Table:
        ok = (r1 >= 0) & (r2 >= 0)
        sim = np.einsum("ij,ij->i", Mn[r1[ok]], Mn[r2[ok]])
        keep = sim >= threshold
        out = t.select(["id1", "id2"]).filter(pa.array(ok)).filter(pa.array(keep))
        return out.append_column("sim", pa.array(sim[keep], pa.float64()))

    vecs = emb.select_columns([id_col, vec_col])
    if id_col != "conv_id":
        vecs = vecs.rename_columns({id_col: "conv_id"})
    # the embedding matrix is collected on the driver only under the gate
    return attach_pairs(
        cands, vecs, PairKernel(load, cos_apply), broadcast_limit=broadcast_limit,
        n_records=n_records if n_records is not None else emb.count(),
        num_partitions=num_partitions)
