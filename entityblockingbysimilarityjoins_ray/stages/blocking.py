"""Similarity-join blocking as Ray Data shuffles.

Rebuilds the reference's rule-based blocker
(/root/reference/cpp/blocker/simjoin_blocker.cc:8-177 dispatch: jac/cos/dice
-> set-similarity join, overlap -> overlap join, lev -> edit join, exm ->
exact join, anm -> numeric join) with prefix-filter semantics
(AllPairs/PPJoin family; Bayardo et al. WWW'07, Vernica et al. SIGMOD'10)
instead of the reference's shared-memory partition-based join
(setjoin_parallel.cc) — the output PAIR SET is identical for the same
(sim, delta), which pytest verifies against brute-force oracles, the
reference's own test strategy (test/test_setjoin.cc:20-40).

Physical plan per rule:

  tokenize (map_batches, vectorized)                       [stateless tasks]
  -> token df counts (partial agg per batch + groupby)      [small shuffle]
  -> signature emission (actor pool holding broadcast df)   [stateless-ish]
  -> groupby(pbucket) + vectorized within-bucket pair gen   [the big shuffle]
  -> slim (k1, k2) candidate dedup (hash-bucket groupby)    [16-byte shuffle]
  -> exact verify: broadcast index under the gate, else the
     sharded-index grid (verify.grid_verify)                [filter]

Skew handling (explicit, north-rule requirement): prefix tokens are the
globally rarest tokens of each record (df-ascending order, mirroring the
reference's df-ordered token ids, tokenizer.cc:332-337), which already
starves hot keys; any token with df > salt_df_threshold is additionally
*triangle-salted* into salt_factor shards — records carry their shard u and
are replicated to cells (u,u) and (min(u,v),max(u,v)) so each cell holds a
bounded slice of the quadratic pair space and cells scatter across shuffle
partitions.  Optional max_group_size caps runaway keys with LOGGED truncation
(reference analogue: MAX_INV_SIZE, config.h:109-110 — never silent).
"""

from __future__ import annotations

import logging

import numpy as np
import pandas as pd
import pyarrow as pa
import ray
import ray.data

from ..config import PipelineConfig
from ..functions.hashing import (
    bipartite_pairs,
    get_broadcast,
    bucket_of,
    group_sizes_from_sorted,
    hash_strings,
    within_group_pairs,
)
from ..functions.tokenize import tokens_list_array
from ..raycompat import strip_pandas_metadata

logger = logging.getLogger(__name__)

_EPS = 1e-9
_U64 = np.uint64


# ---------------------------------------------------------------------------
# tokenize + document frequencies
# ---------------------------------------------------------------------------


def tokenize_docs(
    docs: "ray.data.Dataset", attr: str = "doc", tok: str = "dlm", q: int = 3
) -> "ray.data.Dataset":
    """Add sorted-unique token-hash set `toks` (list<u64>) + `tlen` for `attr`.

    Mirrors the reference's per-(tok, settings, attr) tokenized datasets_map
    (/root/reference/cpp/blocker/block.cc:204-273)."""

    def f(t: pa.Table) -> pa.Table:
        la = tokens_list_array(t.column(attr), tok, q)
        lens = np.diff(np.asarray(la.offsets, dtype=np.int64)).astype(np.int32)
        return pa.table(
            {
                "conv_id": t.column("conv_id"),
                "toks": la,
                "tlen": pa.array(lens, type=pa.int32()),
            }
        )

    return docs.map_batches(f, batch_format="pyarrow")


def _partial_df(t: pa.Table, num_buckets: int = 64) -> pa.Table:
    """Per-batch partial document-frequency counts (combiner before shuffle)."""
    col = t.column("toks")
    col = col.combine_chunks() if isinstance(col, pa.ChunkedArray) else col
    vals = np.asarray(col.flatten(), dtype=np.int64)  # unique per record already
    toks, cnt = np.unique(vals, return_counts=True)
    return pa.table({
        "pb": pa.array(bucket_of(toks, num_buckets), type=pa.int32()),
        "tok": pa.array(toks, type=pa.int64()),
        "df": pa.array(cnt, type=pa.int64()),
    })


def _sum_df_bucket(t: pa.Table, min_df: int = 1) -> pa.Table:
    tok = np.asarray(t.column("tok"), dtype=np.int64)
    df = np.asarray(t.column("df"), dtype=np.int64)
    order = np.argsort(tok)
    tok, df = tok[order], df[order]
    starts, _ = group_sizes_from_sorted(tok)
    sums = np.add.reduceat(df, starts) if tok.size else np.empty(0, np.int64)
    toks_out = tok[starts]
    if min_df > 1:
        # widow filter INSIDE the reducer: df=1 tokens are typically ~half a
        # real corpus's vocabulary — they must never leave the reduce tasks,
        # let alone reach the driver
        keep = sums >= min_df
        toks_out, sums = toks_out[keep], sums[keep]
    return pa.table({"tok": pa.array(toks_out, pa.int64()), "df": pa.array(sums, pa.int64())})


def build_df_table(toks_ds: "ray.data.Dataset", min_df: int = 2, num_buckets: int = 64):
    """Global token document frequencies -> (sorted tok hashes, dfs) numpy.

    Two-stage aggregation — partial per batch, then a BUCKET groupby with a
    vectorized reduceat per bucket — replaces the reference's global
    inverted-index pass (tokenizer.cc:300-331).  A direct
    ``groupby(tok).aggregate(Sum)`` is ~25x slower here: Ray's sort-based
    aggregate sorts on the full 64-bit key domain, while bucketing sorts a
    num_buckets-ary key and does the per-token sum in one reduceat.
    Only df >= min_df tokens are kept: df=1 'widow' tokens cannot produce a
    candidate pair (reference removeWidow, ovlpjoin.cc:398) so the broadcast
    dictionary stays vocabulary-sized, not corpus-sized."""
    agg = (
        toks_ds.map_batches(_partial_df, fn_kwargs={"num_buckets": num_buckets},
                            batch_format="pyarrow")
        .groupby("pb")
        .map_groups(lambda g: _sum_df_bucket(g, min_df=min_df), batch_format="pyarrow")
    )
    pdf = agg.to_pandas()
    if pdf.empty or "tok" not in pdf.columns:
        # every token filtered reducer-side (or no tokens at all)
        return np.zeros(0, np.int64), np.zeros(0, np.int64)
    toks = pdf["tok"].to_numpy(np.int64)
    dfs = pdf["df"].to_numpy(np.int64)
    order = np.argsort(toks)
    return toks[order], dfs[order]


def lookup_df(tok_arr: np.ndarray, df_toks: np.ndarray, df_vals: np.ndarray) -> np.ndarray:
    """df per token (1 when absent from the broadcast table), vectorized."""
    if df_toks.size == 0:
        return np.ones(tok_arr.size, np.int64)
    idx = np.searchsorted(df_toks, tok_arr)
    idx_c = np.minimum(idx, df_toks.size - 1)
    known = (idx < df_toks.size) & (df_toks[idx_c] == tok_arr)
    return np.where(known, df_vals[idx_c], 1)


# ---------------------------------------------------------------------------
# prefix lengths (AllPairs bounds, verified against brute-force oracles)
# ---------------------------------------------------------------------------


def min_overlap_count(sim: str, threshold: float, lens: np.ndarray) -> np.ndarray:
    """T(l): minimum overlap with the smallest eligible partner."""
    l = lens.astype(np.float64)
    if sim == "jac":
        t = np.ceil(threshold * l - _EPS)
    elif sim == "cos":
        t = np.ceil(threshold * threshold * l - _EPS)
    elif sim == "dice":
        t = np.ceil(threshold / (2.0 - threshold) * l - _EPS)
    elif sim == "overlap":
        t = np.full(l.shape, float(int(threshold)))
    else:
        raise ValueError(sim)
    return np.maximum(t, 1.0).astype(np.int64)


def length_ratio(sim: str, threshold: float) -> float | None:
    """alpha: eligible partner length in [alpha*l, l/alpha] (None = no filter)."""
    if sim == "jac":
        return threshold
    if sim == "cos":
        return threshold * threshold
    if sim == "dice":
        return threshold / (2.0 - threshold)
    return None  # overlap join: only the removeShort bound applies


# ---------------------------------------------------------------------------
# signature emission (actor pool holding the broadcast df table)
# ---------------------------------------------------------------------------


def _emit_signatures(
    batch: pa.Table,
    *,
    df_ref,
    rules: list[tuple[str, float]],
    pair_partitions: int,
    salt_df_threshold: int,
    salt_factor: int,
    rs_side: int | None = None,
) -> pa.Table:
    """Emit (tok, cell, side, id, tlen) prefix-signature rows per record.

    Runs as a STATELESS task: the broadcast df table is fetched from the
    object store once per worker process (zero-copy plasma read) via
    get_broadcast — no actor pool, so no min-actor CPU reservation that
    could starve the streaming executor when several rules execute in one
    unioned plan.

    ``rs_side``: None for a self-join (triangle salting); 0 / 1 for the
    A / B side of an RS (two-table) join (reference RSJoin,
    stringjoin_parallel.h:487-488; simjoin_blocker.cc:180-378) — hot tokens
    are then GRID-salted: the A record picks shard u and replicates across
    cells (u, v) for all v, the B record picks v and replicates across all
    u, so each (u, v) cell holds exactly one slice of the A x B space.

    ``rules``: the (sim, threshold) rules — several set-sim rules over the
    SAME tokenization share one signature pass (FUSED mode).  The
    per-record prefix uses the element-wise LOOSEST bound T(l) = min over
    rules, so each rule's candidate set stays a superset of its single-rule
    join (the rarest common token of any pair passing rule r sits inside
    the fused prefix); exact per-rule verification restores exactness
    downstream."""
    df_toks, df_vals = get_broadcast(df_ref)
    ids = np.asarray(batch.column("conv_id").to_numpy(zero_copy_only=False), dtype=object)
    col = batch.column("toks")
    col = col.combine_chunks() if isinstance(col, pa.ChunkedArray) else col
    offs = np.asarray(col.offsets, dtype=np.int64)
    if offs.size and offs[0] != 0:
        offs = offs - offs[0]
    vals = np.asarray(col.flatten(), dtype=np.int64)
    lens = np.diff(offs)
    n = ids.size
    rows = np.repeat(np.arange(n, dtype=np.int64), lens)

    dfs = lookup_df(vals, df_toks, df_vals)
    # order each record's tokens rarest-first (df asc, tok asc) — the
    # reference's global df-ordered id space (tokenizer.cc:332-337)
    order = np.lexsort((vals, dfs, rows))
    vals_o, dfs_o, rows_o = vals[order], dfs[order], rows[order]
    pos = np.arange(vals_o.size) - np.repeat(offs[:-1], lens)

    T = np.minimum.reduce([min_overlap_count(s, t, lens) for s, t in rules])
    prefix_len = lens - T + 1  # <=0 -> record cannot match (overlap removeShort)
    keep = (pos < prefix_len[rows_o]) & (dfs_o >= 2)
    tok_e, row_e = vals_o[keep], rows_o[keep]
    pos_e = pos[keep].astype(np.int32)
    df_e = dfs_o[keep]

    # salting: records under a hot token replicate across cells.  With
    # salt_factor <= 1 salting is DISABLED — every row is cold; marking
    # hot rows unconditionally would silently drop them (the append below
    # is gated on salt_factor > 1) and lose candidate pairs
    idh = hash_strings(ids)
    u_of = bucket_of(idh, max(salt_factor, 1))
    hot = (df_e > salt_df_threshold) & (salt_factor > 1)
    base_side = np.int8(0 if rs_side in (None, 0) else 1)
    cold_tok, cold_row, cold_pos = tok_e[~hot], row_e[~hot], pos_e[~hot]
    cells = [(cold_tok, cold_row, cold_pos,
              np.zeros(cold_tok.size, np.int32),
              np.full(cold_tok.size, base_side, np.int8))]
    if hot.any() and salt_factor > 1:
        ht, hr, hp = tok_e[hot], row_e[hot], pos_e[hot]
        s = salt_factor
        ht_r = np.repeat(ht, s)
        hr_r = np.repeat(hr, s)
        hp_r = np.repeat(hp, s)
        v = np.tile(np.arange(s, dtype=np.int64), ht.size)
        u = u_of[hr_r]
        if rs_side is None:
            # triangle replication (self-join)
            i = np.minimum(u, v)
            j = np.maximum(u, v)
            cell = (i * s + j + 1).astype(np.int32)
            side = np.where(u <= v, 0, 1).astype(np.int8)
            side = np.where(u == v, 0, side).astype(np.int8)
        elif rs_side == 0:
            # A side: own shard u, replicate across partner shards v
            cell = (u * s + v + 1).astype(np.int32)
            side = np.zeros(ht_r.size, np.int8)
        else:
            # B side: own shard v(=u_of), replicate across partner shards u
            cell = (v * s + u + 1).astype(np.int32)
            side = np.ones(ht_r.size, np.int8)
        cells.append((ht_r, hr_r, hp_r, cell, side))
    tok_all = np.concatenate([c[0] for c in cells])
    row_all = np.concatenate([c[1] for c in cells])
    pos_all = np.concatenate([c[2] for c in cells])
    cell_all = np.concatenate([c[3] for c in cells])
    side_all = np.concatenate([c[4] for c in cells])

    gmix = tok_all.view(_U64) * _U64(0x9E3779B97F4A7C15) + cell_all.astype(_U64)
    pb = bucket_of(gmix, pair_partitions)
    # identity crosses the big shuffle as the 8-byte idh ONLY (pair dedup is
    # int-keyed downstream and survivor ids materialize from the verify
    # index / shard store) — per-row id strings, replicated salt_factor
    # times for hot tokens, would be shuffled just to be discarded
    return pa.table(
        {
            "pb": pa.array(pb, type=pa.int32()),
            "tok": pa.array(tok_all, type=pa.int64()),
            "cell": pa.array(cell_all, type=pa.int32()),
            "side": pa.array(side_all, type=pa.int8()),
            "idh": pa.array(idh[row_all], type=pa.int64()),
            "tlen": pa.array(lens[row_all].astype(np.int32), type=pa.int32()),
            "pos": pa.array(pos_all, type=pa.int32()),
        }
    )


# ---------------------------------------------------------------------------
# within-bucket pair generation (vectorized; one call per shuffle partition)
# ---------------------------------------------------------------------------


def pair_min_overlap(
    sim: str, threshold: float, la: np.ndarray, lb: np.ndarray
) -> np.ndarray:
    """Exact pairwise minimum overlap T(la, lb) for sim >= threshold."""
    la = la.astype(np.float64)
    lb = lb.astype(np.float64)
    if sim == "jac":
        return np.ceil(threshold / (1.0 + threshold) * (la + lb) - _EPS)
    if sim == "cos":
        return np.ceil(threshold * np.sqrt(la * lb) - _EPS)
    if sim == "dice":
        return np.ceil(threshold * (la + lb) / 2.0 - _EPS)
    if sim == "overlap":
        return np.full(la.shape, float(int(threshold)))
    raise ValueError(sim)


def _pair_range_triangle(cum, p_lo, p_hi):
    """Decode pair numbers [p_lo, p_hi) of back-to-back triangle groups into
    (group, i, j) — the chunked form of within_group_pairs.  ``cum`` is the
    cumulative per-group pair count."""
    p = np.arange(p_lo, p_hi, dtype=np.int64)
    grp = np.searchsorted(cum, p, side="right")
    base = np.where(grp > 0, cum[grp - 1], 0)
    p_local = p - base
    j = ((1.0 + np.sqrt(1.0 + 8.0 * p_local)) / 2.0).astype(np.int64)
    j_lo = j * (j - 1) // 2
    j = np.where(p_local < j_lo, j - 1, j)
    j = np.where(p_local >= (j + 1) * j // 2, j + 1, j)
    i = p_local - j * (j - 1) // 2
    return grp, i, j


def _iter_triangle_chunks(starts, sizes, chunk_pairs: int = 262_144):
    """Yield (ii, jj) global-row-index chunks over ALL within-group pairs
    of back-to-back sorted groups.  Bounded memory for arbitrarily hot
    groups — a single equal-value clique of m records decodes its
    m(m-1)/2 index space ``chunk_pairs`` at a time instead of
    materializing it at once (the setsim path's chunked decode, shared by
    the exact and anm joins)."""
    npairs = sizes * (sizes - 1) // 2
    cum = np.cumsum(npairs)
    total = int(cum[-1]) if cum.size else 0
    for p0 in range(0, total, chunk_pairs):
        p1 = min(p0 + chunk_pairs, total)
        grp, i, j = _pair_range_triangle(cum, p0, p1)
        yield starts[grp] + i, starts[grp] + j


def _pairgen_bucket(
    t: pa.Table, *, rules: list[tuple[str, float]], alpha: float | None,
    max_group_size: int | None, chunk_pairs: int = 262_144, rs: bool = False,
) -> pa.Table:
    """Vectorized within-bucket candidate generation with PPJoin-style
    pruning (Xiao et al., WWW'08):

    - *length filter*: min(la,lb) >= alpha * max(la,lb)
    - *positional filter*: a pair found under a shared signature token at
      positions (pa, pb) of the records' df-ascending orders can overlap at
      most 1 + min(la-pa-1, lb-pb-1) tokens; require that >= T(la,lb).  The
      pair's globally rarest common token always satisfies the bound, so the
      output candidate SET is unchanged (exact) — but hot-token groups,
      where every member carries the token near the END of its prefix, are
      pruned from quadratic to near-zero.

    Candidate index space is decoded in fixed-size chunks so a hot group
    never materializes its full m^2/2 index range at once.

    ``rules``: the pairwise bound is the element-wise loosest min over the
    rules (see _emit_signatures); ``alpha`` must be their fused (minimum)
    length-ratio (fused_length_ratio), computed by the caller."""
    tok = np.asarray(t.column("tok"), dtype=np.int64)
    cell = np.asarray(t.column("cell"), dtype=np.int64)
    side = np.asarray(t.column("side"), dtype=np.int64)
    idh_raw = np.asarray(t.column("idh"), dtype=np.int64)
    tlen = np.asarray(t.column("tlen"), dtype=np.int64)
    pos = np.asarray(t.column("pos"), dtype=np.int64)
    empty = pa.table(
        {"k1": pa.array([], pa.int64()), "k2": pa.array([], pa.int64())})
    if tok.size == 0:
        return empty

    order = np.lexsort((side, cell, tok))
    tok, cell, side, tlen, pos = tok[order], cell[order], side[order], tlen[order], pos[order]
    idh = idh_raw[order]

    def _run_bounds(tok_s: np.ndarray, cell_s: np.ndarray):
        # array is lexsorted by (tok, cell): boundaries straight from the
        # columns — no fused-hash collision hole
        change = (tok_s[1:] != tok_s[:-1]) | (cell_s[1:] != cell_s[:-1])
        starts = np.concatenate(([0], np.flatnonzero(change) + 1))
        sizes = np.diff(np.concatenate((starts, [tok_s.size])))
        return starts, sizes

    starts, sizes = _run_bounds(tok, cell)

    if max_group_size is not None and tok.size:
        # cap PER (group, side): rows in a run sort side-0-first, so a
        # whole-run cap on a skewed RS group would keep only index-side
        # rows and emit ZERO cross pairs instead of a bounded subset;
        # per-side caps keep min(n, cap) rows of EACH side (pairs bounded
        # by cap^2 per group, recall degrades gracefully)
        seg_change = np.ones(tok.size, bool)
        seg_change[1:] = ((tok[1:] != tok[:-1]) | (cell[1:] != cell[:-1])
                          | (side[1:] != side[:-1]))
        seg_starts = np.flatnonzero(seg_change)
        seg_sizes = np.diff(np.concatenate((seg_starts, [tok.size])))
        if seg_sizes.max() > max_group_size:
            local = np.arange(tok.size) - np.repeat(seg_starts, seg_sizes)
            keep_mask = local < max_group_size
            logger.warning(
                "blocking: truncating %d hot group sides (dropping %d "
                "signature rows, cap=%d)",
                int((seg_sizes > max_group_size).sum()),
                int(tok.size - int(keep_mask.sum())), max_group_size,
            )
            tok, cell, side, idh, tlen, pos = (
                tok[keep_mask], cell[keep_mask], side[keep_mask],
                idh[keep_mask], tlen[keep_mask], pos[keep_mask],
            )
            starts, sizes = _run_bounds(tok, cell)

    # split each run into side-0 and side-1 halves (side sorted within run)
    na = np.zeros(sizes.size, np.int64)
    run_id = np.repeat(np.arange(sizes.size), sizes)
    np.add.at(na, run_id[side == 0], 1)
    nb = sizes - na
    remain = tlen - pos - 1  # tokens after this signature position

    out1: list[np.ndarray] = []
    out2: list[np.ndarray] = []

    def emit(ii: np.ndarray, jj: np.ndarray):
        la, lb = tlen[ii], tlen[jj]
        mask = np.ones(ii.size, bool)
        if alpha is not None:
            lo = np.minimum(la, lb).astype(np.float64)
            hi = np.maximum(la, lb).astype(np.float64)
            mask &= lo >= alpha * hi - _EPS
        T = np.minimum.reduce([pair_min_overlap(s, th, la, lb) for s, th in rules])
        mask &= 1.0 + np.minimum(remain[ii], remain[jj]) >= T
        if not rs:
            mask &= idh[ii] != idh[jj]  # self-pairs (64-bit id-hash dedup)
        out1.append(ii[mask])
        out2.append(jj[mask])

    # triangle groups (unsalted + self-cells), chunked pair-range decode.
    # RS mode: a single-side group has no cross pairs — skip entirely.
    tri = nb == 0
    if not rs:
        sizes_tri = na[tri]
        starts_tri = starts[tri]
        npairs_tri = sizes_tri * (sizes_tri - 1) // 2
        cum_tri = np.cumsum(npairs_tri)
        total_tri = int(cum_tri[-1]) if cum_tri.size else 0
        for p0 in range(0, total_tri, chunk_pairs):
            p1 = min(p0 + chunk_pairs, total_tri)
            grp, i, j = _pair_range_triangle(cum_tri, p0, p1)
            emit(starts_tri[grp] + i, starts_tri[grp] + j)

    # bipartite groups (salted cross cells), chunked
    cross = ~tri
    sa, sb = na[cross], nb[cross]
    st = starts[cross]
    npairs_bi = sa * sb
    cum_bi = np.cumsum(npairs_bi)
    total_bi = int(cum_bi[-1]) if cum_bi.size else 0
    for p0 in range(0, total_bi, chunk_pairs):
        p1 = min(p0 + chunk_pairs, total_bi)
        p = np.arange(p0, p1, dtype=np.int64)
        grp = np.searchsorted(cum_bi, p, side="right")
        base = np.where(grp > 0, cum_bi[grp - 1], 0)
        p_local = p - base
        szb = sb[grp]
        emit(st[grp] + p_local // szb, st[grp] + sa[grp] + p_local % szb)

    if not out1:
        return empty
    ii = np.concatenate(out1)
    jj = np.concatenate(out2)
    # local dedup before the pair shuffle: the same pair surfaces once per
    # shared signature token; dedup on canonicalized 64-bit id-hash pairs
    # (int lexsort — no string keys in the hot path), gather id strings only
    # for the survivors.  exact verify recomputes overlap from full sets, so
    # multiplicity carries no information.
    h1, h2 = idh[ii], idh[jj]
    if rs:
        k1, k2 = h1, h2  # sides are distinct tables — keep (A, B) order
    else:
        k1 = np.minimum(h1, h2)
        k2 = np.maximum(h1, h2)
    order2 = np.lexsort((k2, k1))
    k1s, k2s = k1[order2], k2[order2]
    first = np.ones(k1s.size, bool)
    first[1:] = (k1s[1:] != k1s[:-1]) | (k2s[1:] != k2s[:-1])
    # slim int-only emission: candidates leave as 16-byte (k1, k2) hash
    # pairs ((A, B) order in rs mode); the hash-keyed verify stages
    # materialize id strings for survivors only
    return pa.table({"k1": pa.array(k1s[first], pa.int64()),
                     "k2": pa.array(k2s[first], pa.int64())})


def verify_shards(cfg: PipelineConfig) -> int:
    """Shard count S for the beyond-broadcast grid verify: grid cells = S^2,
    sized ~ cfg.pair_partitions so cell parallelism matches the pair fan-out.
    At real scale set cfg.verify_shards explicitly from index bytes (one
    shard must fit a worker's heap next to a pair batch)."""
    if cfg.verify_shards is not None:
        return cfg.verify_shards
    return max(8, int(np.ceil(np.sqrt(cfg.pair_partitions))))


def survivor_partitions(cfg: PipelineConfig) -> int:
    """Bucket count for SURVIVOR-level dedups (post-verify rows): survivors
    are orders of magnitude fewer than candidates, so a groupby at the full
    pairgen fan-out (cfg.pair_partitions, a straggler control for the heavy
    verify) just pays per-group overhead — measured 3-5x slower at 2048 vs
    256 buckets on 143k survivor rows."""
    return min(cfg.pair_partitions, 256)


def dedupe_pairs(pairs: "ray.data.Dataset", num_partitions: int, count_col: str | None = None):
    """Hash-bucket dedup of (id1,id2) [optionally keeping a multiplicity count
    and max-sim], replacing groupby-on-every-pair with groupby-on-bucket +
    vectorized int-keyed dedup (reference analogue: sort+unique dup check,
    setjoin_parallel.h:321-328).

    Pair identity is the canonicalized 64-bit id-hash pair (k1, k2) — carried
    from pair generation when present, derived otherwise — so the shuffle key
    and the in-bucket sort never touch string columns.  Buckets key on k1
    ALONE (one record's pairs co-locate and, after the in-bucket (k1, k2)
    sort, form contiguous id1 runs — the locality the bitmap verify kernel
    exploits); per-record pair counts are ~degree-bounded, so k1 skew is
    mild."""

    def add_pb(t: pa.Table) -> pa.Table:
        if "k1" in t.column_names:
            k1 = np.asarray(t.column("k1"), dtype=np.int64)
        else:
            k1 = hash_strings(np.asarray(t.column("id1").to_numpy(zero_copy_only=False), dtype=object))
            k2 = hash_strings(np.asarray(t.column("id2").to_numpy(zero_copy_only=False), dtype=object))
            t = t.append_column("k1", pa.array(k1, pa.int64()))
            t = t.append_column("k2", pa.array(k2, pa.int64()))
        t = t.append_column("pb", pa.array(bucket_of(k1, num_partitions), pa.int32()))
        return strip_pandas_metadata(t)

    def dd(t: pa.Table) -> pa.Table:
        k1 = np.asarray(t.column("k1"), dtype=np.int64)
        k2 = np.asarray(t.column("k2"), dtype=np.int64)
        order = np.lexsort((k2, k1))
        k1s, k2s = k1[order], k2[order]
        firsts = np.ones(k1s.size, bool)
        if k1s.size:
            firsts[1:] = (k1s[1:] != k1s[:-1]) | (k2s[1:] != k2s[:-1])
        starts = np.flatnonzero(firsts)
        keep = order[starts]
        if "id1" not in t.column_names:
            # int-only candidate dedup (slim pipeline): keep sorted (k1, k2)
            # so downstream hash-verify batches see contiguous k1 runs
            return pa.table({"k1": pa.array(k1s[firsts], pa.int64()),
                             "k2": pa.array(k2s[firsts], pa.int64())})
        out_cols = {
            "id1": t.column("id1").take(pa.array(keep)),
            "id2": t.column("id2").take(pa.array(keep)),
        }
        if count_col is not None:
            runs = np.diff(np.concatenate((starts, [k1s.size])))
            out_cols[count_col] = pa.array(runs.astype(np.int64), pa.int64())
            if "sim" in t.column_names:
                sim = np.asarray(t.column("sim"), dtype=np.float64)[order]
                out_cols["sim"] = pa.array(np.maximum.reduceat(sim, starts) if starts.size
                                           else np.empty(0, np.float64), pa.float64())
        elif "sim" in t.column_names:
            out_cols["sim"] = t.column("sim").take(pa.array(keep))
        return pa.table(out_cols)

    return (
        pairs.map_batches(add_pb, batch_format="pyarrow")
        .groupby("pb")
        .map_groups(dd, batch_format="pyarrow")
    )


def _strip_rule_cols(t: pa.Table) -> pa.Table:
    """Project verify output to {id1, id2, sim}: with candidates pre-deduped
    on (k1, k2) every (pair, rule) row is unique by construction, so the
    rule/k1/k2 bookkeeping columns just drop (no survivor shuffle)."""
    return t.select(["id1", "id2", "sim"])





def empty_record_ids(toks_ds, limit: int = 5_000_000) -> list:
    """ids of empty-token records (full scan, do ONCE per tokenization).

    ONE bounded pass: ``limit(limit + 1)`` caps the pull at limit+1 ids —
    the same driver/broadcast-memory ceiling as the success path (the list
    seeds the ray.put broadcast the distributed clique expansion in
    _empty_pairs_ds reads) — so a pathological corpus whose empties exceed
    ``limit`` fails LOUDLY with the fix (include_empty_pairs=False, or
    clean the corpus) instead of OOMing the driver, without the former
    count-then-collect double execution of the upstream DAG; the n²/2
    empty-pair clique itself would be astronomically large well before
    the cap."""
    import pyarrow.compute as pc

    empties = toks_ds.map_batches(
        lambda t: t.filter(pc.equal(t["tlen"], 0)).select(["conv_id"]),
        batch_format="pyarrow",
    )
    ids = [r["conv_id"] for r in empties.limit(limit + 1).take_all()]
    if len(ids) > limit:
        raise RuntimeError(
            f"over {limit} empty-token records exceed the driver/broadcast "
            "cap for the empty-pair clique (jaccard(∅,∅)=1.0 would emit "
            "~n²/2 pairs); set include_empty_pairs=False or drop empty "
            "records upstream")
    return sorted(ids)


def _empty_pairs_ds(toks_ds, cfg: PipelineConfig, ids: list | None = None):
    """Pairs of empty-token records: jaccard(∅,∅)=1.0 (simfunc.cc:129-130).

    The empty records form one complete clique; above the driver-expansion
    threshold the n(n-1)/2 pairs are generated DISTRIBUTED (one task per
    left-id chunk) — exact at any n, never a silent cap."""
    if ids is None:
        ids = empty_record_ids(toks_ds)
    n = len(ids)
    if n < 2:
        return None
    ids = sorted(ids)
    if n <= 2000:
        rows = [
            {"id1": ids[i], "id2": ids[j], "sim": 1.0}
            for i in range(n)
            for j in range(i + 1, n)
        ]
        return ray.data.from_items(rows)
    logger.warning(
        "blocking: %d empty records -> %d empty pairs generated distributed",
        n, n * (n - 1) // 2,
    )
    ids_ref = ray.put(np.asarray(ids, dtype=object))

    def expand(t: pa.Table) -> pa.Table:
        from ..functions.hashing import get_broadcast

        all_ids = get_broadcast(ids_ref)
        i_arr = np.asarray(t.column("i"), dtype=np.int64)
        counts = n - 1 - i_arr
        ii = np.repeat(i_arr, counts)
        jj = np.arange(int(counts.sum())) - np.repeat(
            np.concatenate(([0], np.cumsum(counts)[:-1])), counts
        ) + ii + 1
        return pa.table({
            "id1": pa.array(all_ids[ii], pa.string()),
            "id2": pa.array(all_ids[jj], pa.string()),
            "sim": pa.array(np.ones(ii.size), pa.float64()),
        })

    left = ray.data.from_items([{"i": i} for i in range(n - 1)])
    return left.map_batches(expand, batch_format="pyarrow", batch_size=256)


def _empty_pairs_rs_ds(ea: list, eb: list):
    """A x B pairs of empty-token records (jaccard(∅,∅)=1.0) — the RS
    counterpart of _empty_pairs_ds: exact at any size, generated DISTRIBUTED
    above the driver-expansion threshold (one task per left-id chunk, the
    B-side id array broadcast once) — never a silent cap."""
    na, nb = len(ea), len(eb)
    if na == 0 or nb == 0:
        return None
    ea, eb = sorted(ea), sorted(eb)
    if na * nb <= 100_000:
        rows = [{"id1": a, "id2": b, "sim": 1.0} for a in ea for b in eb]
        return ray.data.from_items(rows)
    logger.warning(
        "rs blocking: %d x %d empty records -> %d empty pairs generated distributed",
        na, nb, na * nb,
    )
    b_ref = ray.put(np.asarray(eb, dtype=object))

    def expand(t: pa.Table) -> pa.Table:
        all_b = get_broadcast(b_ref)
        a = np.asarray(t.column("id1").to_numpy(zero_copy_only=False), dtype=object)
        ii = np.repeat(np.arange(a.size), all_b.size)
        jj = np.tile(np.arange(all_b.size), a.size)
        return pa.table({
            "id1": pa.array(a[ii], pa.string()),
            "id2": pa.array(all_b[jj], pa.string()),
            "sim": pa.array(np.ones(ii.size), pa.float64()),
        })

    left = ray.data.from_items([{"id1": a} for a in ea])
    return left.map_batches(expand, batch_format="pyarrow",
                            batch_size=max(1, (1 << 21) // nb))


def setsim_self_join(
    toks_ds: "ray.data.Dataset",
    *,
    sim: str,
    threshold: float,
    cfg: PipelineConfig,
    df_table=None,
    broadcast: bool | None = None,
    n_records: int | None = None,
    df_ref=None,
    verify_ref=None,
    empty_ids: list | None = None,
    in_join_topk: int | None = None,
    shard_store: dict | None = None,
) -> "ray.data.Dataset":
    """Threshold set-similarity self-join (jac/cos/dice >= δ, or overlap >= c).

    Output-equivalent to the reference's SetJoinParallel / OvlpSelfJoin
    (setjoin_parallel.cc, ovlpjoin.cc) for the same (sim, threshold).  Runs
    as the fused join (setsim_self_join_multi) with one rule.

    ``in_join_topk`` keeps only the K highest-sim pairs of THIS rule's join —
    the reference's MAINTAIN_VALUE in-join per-thread heaps
    (setjoin_parallel.cc:727-776, maxHeapSize): each verify block keeps a
    partial top-K, the driver merges block winners; ties break
    (sim desc, id1, id2).  Applied to the verified join output (the
    reference's heap lives inside the join, which never emits empty-empty
    pairs — the cap here likewise precedes the empty-pair union).

    ``df_ref`` / ``verify_ref`` / ``empty_ids`` / ``n_records`` let several
    rules over the same (attr, tok) share one df table, one broadcast verify
    index, one empty-record scan and one count (hoisted into
    pipelines.er.block — no redundant per-rule passes)."""
    if df_ref is None and df_table is not None:
        df_ref = ray.put(df_table)
    return _setsim_self_join(
        toks_ds, [(sim, threshold)], cfg, df_ref=df_ref, broadcast=broadcast,
        verify_ref=verify_ref, empty_ids=empty_ids, n_records=n_records,
        shard_store=shard_store, in_join_topk=in_join_topk)


def fused_length_ratio(rules: list[tuple[str, float]]) -> float | None:
    """Loosest (minimum) length-ratio filter valid for EVERY rule."""
    alphas = [length_ratio(s, t) for s, t in rules]
    if any(a is None for a in alphas):
        return None
    return min(alphas)


def setsim_self_join_multi(
    toks_ds: "ray.data.Dataset",
    rules: list[tuple[str, float]],
    cfg: PipelineConfig,
    *,
    df_ref=None,
    broadcast: bool | None = None,
    verify_ref=None,
    empty_ids: list | None = None,
    n_records: int | None = None,
    shard_store: dict | None = None,
) -> "ray.data.Dataset":
    """FUSED multi-rule set-sim self-join: several (sim, threshold) rules over
    the SAME tokenization run as ONE signature -> pairgen -> dedup -> verify
    pass.  Signatures/filters use the element-wise loosest bound across rules
    (candidate superset per rule); verify computes the exact overlap ONCE per
    pair and emits one {id1, id2, sim} row per (pair, passing rule) — exactly
    what the single-rule joins would emit in union, so composing the result
    into pipelines.er.union_rules (pair dedup + passed_rules count + max-sim)
    is output-identical to running each rule separately.

    Motivation: the reference runs each rule's join serially over shared
    tokenized datasets (block.cc:204-273 + simjoin_blocker.cc:8-177); at
    sf0.1 the jac+cos pair of rules spends ~147 s in two nearly identical
    passes — fusing them reclaims the duplicated signature emission, pair
    shuffle and overlap computation."""
    return _setsim_self_join(
        toks_ds, rules, cfg, df_ref=df_ref, broadcast=broadcast,
        verify_ref=verify_ref, empty_ids=empty_ids, n_records=n_records,
        shard_store=shard_store)


def _setsim_self_join(toks_ds, rules, cfg: PipelineConfig, *, df_ref,
                      broadcast, verify_ref, empty_ids, n_records,
                      shard_store, in_join_topk: int | None = None):
    """The body shared by setsim_self_join and setsim_self_join_multi."""
    if df_ref is None:
        df_ref = ray.put(build_df_table(toks_ds))
    if broadcast is None:
        n_records = n_records if n_records is not None else toks_ds.count()
        from .verify import should_broadcast

        broadcast = should_broadcast(toks_ds, n_records, cfg.broadcast_limit,
                                     cfg.broadcast_bytes_limit)
    if broadcast and verify_ref is None:
        from .verify import collect_token_index

        verify_ref = ray.put(collect_token_index(toks_ds))
    sigs = toks_ds.map_batches(
        _emit_signatures,
        fn_kwargs=dict(
            df_ref=df_ref, rules=rules,
            pair_partitions=cfg.pair_partitions,
            salt_df_threshold=cfg.salt_df_threshold, salt_factor=cfg.salt_factor,
        ),
        batch_format="pyarrow",
    )
    candidates = sigs.groupby("pb").map_groups(
        _pairgen_bucket,
        fn_kwargs={"rules": rules, "alpha": fused_length_ratio(rules),
                   "max_group_size": cfg.max_group_size},
        batch_format="pyarrow",
    )
    if broadcast:
        # slim (k1, k2) candidates DEDUPE before the verify: dup-dense pairs
        # surface once per shared signature token (~50x for near-identical
        # docs at sf0.1), and the 16-byte int shuffle is far cheaper than
        # re-verifying the copies — measured 39.2 s -> 4.5 s dedupe + 10.8 s
        # verify on 59.85M raw -> 31.7M unique pairs at sf0.1/32 cpus (the
        # in-bucket (k1, k2) sort also hands the bitmap kernel contiguous k1
        # runs).  Post-dedup each (pair, rule) row is unique by construction:
        # the survivor-dedup shuffle is gone, only a projection remains.
        from .verify import hash_verify_rules_batch

        rows = dedupe_pairs(candidates, cfg.pair_partitions).map_batches(
            hash_verify_rules_batch,
            fn_kwargs=dict(toks_ref=verify_ref, rules=rules),
            batch_format="pyarrow",
            batch_size=8192,
        )
        verified = rows.map_batches(_strip_rule_cols, batch_format="pyarrow")
    else:
        # beyond-broadcast: slim (k1, k2) candidates shuffle ONCE to grid
        # cells of a sharded token store — no token list ever crosses a
        # shuffle, worker memory bounded by two shards (see verify.py)
        from .verify import build_token_shard_store, verify_pairs_sharded

        if shard_store is None:
            shard_store = build_token_shard_store(
                toks_ds, num_shards=verify_shards(cfg),
                store_dir=cfg.shard_store_dir)
        verified = verify_pairs_sharded(candidates, shard_store, rules=rules)
    if in_join_topk is not None:
        from .topk import topk_pairs

        top = topk_pairs(verified, in_join_topk, score_col="sim")
        verified = ray.data.from_pandas(top)
    n_empty_rules = sum(
        1 for s, t in rules if s in ("jac", "cos", "dice") and t <= 1.0
    )
    if cfg.include_empty_pairs and n_empty_rules:
        ep = _empty_pairs_ds(toks_ds, cfg, ids=empty_ids)
        if ep is not None:
            # each qualifying rule contributes the empty clique once (sim 1.0)
            for _ in range(n_empty_rules):
                verified = verified.union(ep)
    return verified


_EMPTY_PAIRS = pa.table({
    "id1": pa.array([], pa.string()), "id2": pa.array([], pa.string()),
    "sim": pa.array([], pa.float64()),
})


def _fillna_str(col) -> np.ndarray:
    """Column values as a pandas-equivalent object array with nulls -> ""
    (the reference's fix_null on join attrs)."""
    vals = np.asarray(col.to_numpy(zero_copy_only=False), dtype=object)
    if vals.size:
        na = pd.isna(vals)
        if na.any():
            vals = vals.copy()
            vals[na] = ""
    return vals


def _ids_str(col) -> np.ndarray:
    return np.asarray(col.to_numpy(zero_copy_only=False), dtype=object).astype("U")


def exact_self_join(
    docs: "ray.data.Dataset", attr: str, cfg: PipelineConfig
) -> "ray.data.Dataset":
    """Equality self-join on an attribute (reference ExactJoin,
    stringjoin.h:210-289): hash-bucket groupby on value hash + vectorized
    within-equal-value pair generation; sim = 1.0 for every pair.

    Arrow batches end to end — no pandas blocks (whose schema metadata
    defeats Ray's reduce-side schema dedup) enter the shuffle."""

    def sig(t: pa.Table) -> pa.Table:
        vals = _fillna_str(t.column(attr))
        h = hash_strings(vals)
        return pa.table({
            "pb": pa.array(bucket_of(h, cfg.pair_partitions), pa.int32()),
            "vh": pa.array(h, pa.int64()),
            "id": pa.array(_ids_str(t.column("conv_id")), pa.string()),
            "val": pa.array(vals.astype("U"), pa.string()),
        })

    def pairs(t: pa.Table) -> pa.Table:
        if t.num_rows == 0:
            return _EMPTY_PAIRS
        vh = np.asarray(t.column("vh"), dtype=np.int64)
        ids = _ids_str(t.column("id"))
        vals = np.asarray(t.column("val").to_numpy(zero_copy_only=False),
                          dtype="U")
        order = np.argsort(vh, kind="stable")
        vh, ids, vals = vh[order], ids[order], vals[order]
        starts, sizes = group_sizes_from_sorted(vh)
        # chunked decode: a hot equal-value clique (e.g. a null-heavy attr
        # all mapping to "") never materializes its full m^2/2 index space
        p1l, p2l = [], []
        for ii, jj in _iter_triangle_chunks(starts, sizes):
            # guard against u64 hash collisions: require true value equality
            eq = vals[ii] == vals[jj]
            ii, jj = ii[eq], jj[eq]
            a, b = ids[ii], ids[jj]
            swap = a > b
            p1l.append(np.where(swap, b, a))
            p2l.append(np.where(swap, a, b))
        if not p1l:
            return _EMPTY_PAIRS
        a = np.concatenate(p1l)
        b = np.concatenate(p2l)
        return pa.table({
            "id1": pa.array(a, pa.string()),
            "id2": pa.array(b, pa.string()),
            "sim": pa.array(np.ones(a.size, np.float64), pa.float64()),
        })

    # no dedup shuffle needed: each value hash lives in exactly one pb
    # bucket, so a pair of equal-valued records is emitted exactly once
    return (
        docs.map_batches(sig, batch_format="pyarrow")
        .groupby("pb")
        .map_groups(pairs, batch_format="pyarrow")
    )


def anm_self_join(
    docs: "ray.data.Dataset", attr: str, threshold: float, cfg: PipelineConfig
) -> "ray.data.Dataset":
    """absoluteNorm self-join: pairs with 1 - |d1-d2|/max(|d1|,|d2|) >= t
    (reference brute-force loop, simjoin_blocker.cc:117-166; formula
    simfunc.cc:297-315).  Distributed as log-ratio bucketing: values within
    ratio t of each other land in the same or adjacent log-bucket, so each
    record is emitted to its bucket and bucket+1 and pairs are generated
    within buckets only — a sort-free band join."""
    assert 0.0 < threshold < 1.0
    w = -np.log(threshold)  # bucket width in log space

    def sig(t: pa.Table) -> pa.Table:
        v = pd.to_numeric(pd.Series(
            np.asarray(t.column(attr).to_numpy(zero_copy_only=False),
                       dtype=object)), errors="coerce").to_numpy(np.float64)
        ids = _ids_str(t.column("conv_id"))
        ok = ~np.isnan(v) & (np.abs(v) >= 1e-5)  # |d|<1e-5 -> sim 0, never matches
        v, ids = v[ok], ids[ok]
        sign = np.sign(v).astype(np.int64)
        b = np.floor(np.log(np.abs(v)) / w).astype(np.int64)
        n = v.size
        bk = np.concatenate([b * 2 + (sign > 0), (b + 1) * 2 + (sign > 0)])
        return pa.table({
            "pb": pa.array(bucket_of(bk, cfg.pair_partitions), pa.int32()),
            "bk": pa.array(bk, pa.int64()),
            "own": pa.array(np.concatenate([np.ones(n, bool), np.zeros(n, bool)])),
            "id": pa.array(np.concatenate([ids, ids]) if n else ids, pa.string()),
            "v": pa.array(np.concatenate([v, v]) if n else v, pa.float64()),
        })

    def pairs(t: pa.Table) -> pa.Table:
        if t.num_rows == 0:
            return _EMPTY_PAIRS
        bk = np.asarray(t.column("bk"), dtype=np.int64)
        ids = _ids_str(t.column("id"))
        v = np.asarray(t.column("v"), dtype=np.float64)
        own = np.asarray(t.column("own"), dtype=bool)
        order = np.argsort(bk, kind="stable")
        bk, ids, v, own = bk[order], ids[order], v[order], own[order]
        starts, sizes = group_sizes_from_sorted(bk)
        # chunked vectorized decode over all log-buckets: a dense band's
        # quadratic index space materializes chunk_pairs at a time
        p1l, p2l, sl = [], [], []
        for ii, jj in _iter_triangle_chunks(starts, sizes):
            # exclude guest-guest pairs: a both-native pair meets in its own
            # bucket; counting it again where both are guests double-counts
            keep = own[ii] | own[jj]
            ii, jj = ii[keep], jj[keep]
            d1, d2 = v[ii], v[jj]
            maxv = np.maximum(np.abs(d1), np.abs(d2))
            rel = np.abs(d1 - d2) / maxv
            s = np.where(rel <= 1e-5, 1.0, 1.0 - rel)
            ok = (s >= threshold) & (ids[ii] != ids[jj])
            a, b = ids[ii][ok], ids[jj][ok]
            swap = a > b
            p1l.append(np.where(swap, b, a))
            p2l.append(np.where(swap, a, b))
            sl.append(s[ok])
        if not p1l:
            return _EMPTY_PAIRS
        return pa.table({
            "id1": pa.array(np.concatenate(p1l), pa.string()),
            "id2": pa.array(np.concatenate(p2l), pa.string()),
            "sim": pa.array(np.concatenate(sl), pa.float64()),
        })

    return (
        docs.map_batches(sig, batch_format="pyarrow")
        .groupby("pb")
        .map_groups(pairs, batch_format="pyarrow")
    )


# ---------------------------------------------------------------------------
# RS (two-table A x B) joins — the reference's primary record-linkage mode
# (simjoin_blocker.cc:180-378; stringjoin_parallel.h:487-488 RSJoin)
# ---------------------------------------------------------------------------


def setsim_rs_join(
    toks_a: "ray.data.Dataset",
    toks_b: "ray.data.Dataset",
    *,
    sim: str,
    threshold: float,
    cfg: PipelineConfig,
    df_table=None,
    broadcast: bool | None = None,
    n_records: int | None = None,
) -> "ray.data.Dataset":
    """Threshold set-similarity RS join: pairs (a in A, b in B) with
    sim(a, b) >= threshold; output {id1(A), id2(B), sim} — no pair
    canonicalization across tables (reference RS semantics,
    simjoin_blocker.cc:180-378).

    The df table spans A ∪ B (the reference's combined dictionary,
    RStableAttr2IntVector tokenizer.cc:240-411), so both sides order their
    prefixes by the same global rarity."""
    if broadcast is None:
        n_records = n_records if n_records is not None else toks_a.count() + toks_b.count()
        from .verify import should_broadcast

        # same bytes+count gate as the self-join path: a count under the
        # limit but a wide payload (long docs) must still take the join path
        try:
            sz = toks_a.size_bytes() + toks_b.size_bytes()
        except Exception:
            sz = None
        broadcast = should_broadcast(None, n_records, cfg.broadcast_limit,
                                     cfg.broadcast_bytes_limit, size_bytes=sz)
    verify_idx = None
    if df_table is None:
        if broadcast:
            # ONE driver collect yields BOTH the two-sided verify index and
            # the combined-dictionary df table — the distributed df pass
            # (union + sort shuffle over A ∪ B) is skipped entirely, the
            # same economy the self-join's _SetsimShared makes
            from .verify import collect_token_index_rs_with_df

            verify_idx, df_table = collect_token_index_rs_with_df(toks_a, toks_b)
        else:
            df_table = build_df_table(toks_a.union(toks_b))
    df_ref = ray.put(df_table)
    rules = [(sim, threshold)]
    common = dict(
        df_ref=df_ref, rules=rules,
        pair_partitions=cfg.pair_partitions,
        salt_df_threshold=cfg.salt_df_threshold, salt_factor=cfg.salt_factor,
    )
    sigs_a = toks_a.map_batches(
        _emit_signatures, fn_kwargs=dict(common, rs_side=0), batch_format="pyarrow"
    )
    sigs_b = toks_b.map_batches(
        _emit_signatures, fn_kwargs=dict(common, rs_side=1), batch_format="pyarrow"
    )
    candidates = sigs_a.union(sigs_b).groupby("pb").map_groups(
        _pairgen_bucket,
        fn_kwargs={"rules": rules, "alpha": length_ratio(sim, threshold),
                   "max_group_size": cfg.max_group_size, "rs": True},
        batch_format="pyarrow",
    )
    if broadcast:
        # slim (k1, k2) candidates DEDUPE before the inline verify against
        # the two-sided broadcast index, mirroring the self-join: RS raw
        # candidates surface once per shared signature token too (measured
        # ~39x duplicate factor on the sf0.1 conv-parity split — 1.22M
        # verified rows collapsing to 31.5k pairs), so the 16-byte int
        # shuffle is far cheaper than re-verifying the copies.  Post-dedup
        # every (pair, rule) row is unique by construction — the former
        # survivor-dedup shuffle drops to a projection.  RS pairs carry
        # (A, B) order in (k1, k2), so the un-canonicalized dedup is exact.
        from .verify import collect_token_index_rs, hash_verify_rules_batch

        if verify_idx is None:
            verify_idx = collect_token_index_rs(toks_a, toks_b)
        verify_ref = ray.put(verify_idx)
        # dedup fan-out: RS candidates are an order of magnitude lighter
        # than the self-join's (one prefix overlap across tables, ~2.5x dup
        # vs ~19x: 2.6M raw vs 31.7M at sf0.1), so an 8x smaller reduce fan
        # avoids 2048 near-empty sort tasks while staying slim-pair-scale
        cands = dedupe_pairs(
            candidates, max(survivor_partitions(cfg), cfg.pair_partitions // 8))
        rows = cands.map_batches(
            hash_verify_rules_batch,
            fn_kwargs=dict(toks_ref=verify_ref, rules=rules),
            batch_format="pyarrow",
            batch_size=8192,
        )
        verified = rows.map_batches(_strip_rule_cols, batch_format="pyarrow")
    else:
        from .verify import build_token_shard_store, verify_pairs_sharded

        ns = verify_shards(cfg)
        store_a = build_token_shard_store(toks_a, num_shards=ns,
                                          store_dir=cfg.shard_store_dir)
        store_b = build_token_shard_store(toks_b, num_shards=ns,
                                          store_dir=cfg.shard_store_dir)
        verified = verify_pairs_sharded(
            candidates, store_a, rules=rules, store_b=store_b)
    if sim in ("jac", "cos", "dice") and cfg.include_empty_pairs and threshold <= 1.0:
        ep = _empty_pairs_rs_ds(empty_record_ids(toks_a), empty_record_ids(toks_b))
        if ep is not None:
            verified = verified.union(ep)
    return verified


def exact_rs_join(
    docs_a: "ray.data.Dataset", docs_b: "ray.data.Dataset", attr: str, cfg: PipelineConfig
) -> "ray.data.Dataset":
    """Equality RS join on an attribute (reference ExactJoin RS,
    stringjoin_parallel.h:495-599): hash-bucket on value hash, A x B pairs
    within equal values; sim = 1.0."""

    def sig(side):
        def f(t: pa.Table) -> pa.Table:
            vals = _fillna_str(t.column(attr))
            h = hash_strings(vals)
            return pa.table({
                "pb": pa.array(bucket_of(h, cfg.pair_partitions), pa.int32()),
                "vh": pa.array(h, pa.int64()),
                "side": pa.array(np.full(vals.size, side, np.int8), pa.int8()),
                "id": pa.array(_ids_str(t.column("conv_id")), pa.string()),
                "val": pa.array(vals.astype("U"), pa.string()),
            })

        return f

    def pairs(t: pa.Table) -> pa.Table:
        if t.num_rows == 0:
            return _EMPTY_PAIRS
        vh = np.asarray(t.column("vh"), dtype=np.int64)
        side = np.asarray(t.column("side"), dtype=np.int8)
        ids = _ids_str(t.column("id"))
        vals = np.asarray(t.column("val").to_numpy(zero_copy_only=False),
                          dtype="U")
        order = np.lexsort((side, vh))
        vh, side, ids, vals = vh[order], side[order], ids[order], vals[order]
        starts, sizes = group_sizes_from_sorted(vh)
        run_id = np.repeat(np.arange(sizes.size), sizes)
        na = np.zeros(sizes.size, np.int64)
        np.add.at(na, run_id[side == 0], 1)
        nb = sizes - na
        ii, jj = bipartite_pairs(starts, na, starts + na, nb)
        if ii.size:
            eq = vals[ii] == vals[jj]  # u64-collision guard
            ii, jj = ii[eq], jj[eq]
        return pa.table({
            "id1": pa.array(ids[ii], pa.string()),
            "id2": pa.array(ids[jj], pa.string()),
            "sim": pa.array(np.ones(ii.size, np.float64), pa.float64()),
        })

    sigs = docs_a.map_batches(sig(0), batch_format="pyarrow").union(
        docs_b.map_batches(sig(1), batch_format="pyarrow")
    )
    # no dedup shuffle: one pb bucket per value hash -> each A x B pair of an
    # equal value is emitted exactly once
    return sigs.groupby("pb").map_groups(pairs, batch_format="pyarrow")


def anm_rs_join(
    docs_a: "ray.data.Dataset", docs_b: "ray.data.Dataset", attr: str,
    threshold: float, cfg: PipelineConfig, max_band_pairs: int | None = None,
) -> "ray.data.Dataset":
    """absoluteNorm RS join (reference simjoin_blocker.cc:324-367 semantics,
    full pair set by default — we do not replicate its top-K-truncation
    quirk).  A emits to log-buckets {b-1, b, b+1}; B emits to its own bucket
    only, so every in-band (a, b) pair meets in exactly one bucket.

    ``max_band_pairs``: the output of an anm band join is inherently
    quadratic in a dense band; when set, each band's A x B enumeration is
    capped at this many pairs with a LOGGED warning — the reference's
    MAX_PAIR_SIZE semantics (simjoin_blocker.cc:324-367, config.h) — instead
    of exploding a worker.  None (default) = exact."""
    assert 0.0 < threshold < 1.0
    w = -np.log(threshold)

    def sig(side):
        def f(t: pa.Table) -> pa.Table:
            v = pd.to_numeric(pd.Series(
                np.asarray(t.column(attr).to_numpy(zero_copy_only=False),
                           dtype=object)), errors="coerce").to_numpy(np.float64)
            ids = _ids_str(t.column("conv_id"))
            ok = ~np.isnan(v) & (np.abs(v) >= 1e-5)
            v, ids = v[ok], ids[ok]
            sign = np.sign(v).astype(np.int64)
            b = np.floor(np.log(np.abs(v)) / w).astype(np.int64)
            shifts = (-1, 0, 1) if side == 0 else (0,)
            bk = np.concatenate([(b + sh) * 2 + (sign > 0) for sh in shifts])
            k = len(shifts)
            ids_k = np.concatenate([ids] * k) if v.size else ids
            v_k = np.concatenate([v] * k) if v.size else v
            return pa.table({
                "pb": pa.array(bucket_of(bk, cfg.pair_partitions), pa.int32()),
                "bk": pa.array(bk, pa.int64()),
                "side": pa.array(np.full(bk.size, side, np.int8), pa.int8()),
                "id": pa.array(ids_k, pa.string()),
                "v": pa.array(v_k, pa.float64()),
            })

        return f

    def pairs(t: pa.Table) -> pa.Table:
        if t.num_rows == 0:
            return _EMPTY_PAIRS
        bk = np.asarray(t.column("bk"), dtype=np.int64)
        side = np.asarray(t.column("side"), dtype=np.int8)
        ids = _ids_str(t.column("id"))
        v = np.asarray(t.column("v"), dtype=np.float64)
        # stable (bk, side) sort: per band the A rows come first, preserving
        # arrival order — so the capped truncation below keeps the same
        # "first A rows" the per-band loop it replaces kept
        order = np.lexsort((side, bk))
        bk, side, ids, v = bk[order], side[order], ids[order], v[order]
        starts, sizes = group_sizes_from_sorted(bk)
        run_id = np.repeat(np.arange(sizes.size), sizes)
        na = np.zeros(sizes.size, np.int64)
        np.add.at(na, run_id[side == 0], 1)
        nb = sizes - na
        if max_band_pairs is not None:
            over = na * nb > max_band_pairs
            if over.any():
                # bounded enumeration: keep whole A rows until the cap fills
                capped_a = np.maximum(1, max_band_pairs // np.maximum(nb, 1))
                logger.warning(
                    "anm rs join: %d dense band(s) exceed max_band_pairs=%d "
                    "(largest %dx%d); truncating their A side (recall loss "
                    "possible; raise the cap to make exact)",
                    int(over.sum()), max_band_pairs,
                    int(na[over].max()), int(nb[over].max()),
                )
                na = np.where(over, np.minimum(na, capped_a), na)
        ii, jj = bipartite_pairs(starts, na, starts + (sizes - nb), nb)
        d1, d2 = v[ii], v[jj]
        maxv = np.maximum(np.abs(d1), np.abs(d2))
        rel = np.abs(d1 - d2) / maxv
        s = np.where(rel <= 1e-5, 1.0, 1.0 - rel)
        ok = s >= threshold
        return pa.table({
            "id1": pa.array(ids[ii][ok], pa.string()),
            "id2": pa.array(ids[jj][ok], pa.string()),
            "sim": pa.array(s[ok], pa.float64()),
        })

    sigs = docs_a.map_batches(sig(0), batch_format="pyarrow").union(
        docs_b.map_batches(sig(1), batch_format="pyarrow")
    )
    # no dedup shuffle: A's three shifted copies and B's single native copy
    # meet in exactly ONE bucket (bk intersection is a single band), the
    # same emitted-exactly-once argument exact_rs_join and anm_self_join use
    return sigs.groupby("pb").map_groups(pairs, batch_format="pyarrow")
