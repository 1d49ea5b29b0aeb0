"""Similarity-join blocking as Ray Data operators.

Rebuilds the reference's rule-based blocker
(/root/reference/cpp/blocker/simjoin_blocker.cc:8-177 dispatch: jac/cos/dice
-> set-similarity join, overlap -> overlap join, lev -> edit join, exm ->
exact join, anm -> numeric join) with prefix-filter semantics
(AllPairs/PPJoin family; Bayardo et al. WWW'07, Vernica et al. SIGMOD'10)
instead of the reference's shared-memory partition-based join
(setjoin_parallel.cc) — the output PAIR SET is identical for the same
(sim, delta), which pytest verifies against brute-force oracles, the
reference's own test strategy (test/test_setjoin.cc:20-40).

Physical plans of the set-sim joins (self, fused multi-rule, RS), chosen by
verify.should_broadcast (records AND bytes); both take the df-ascending
prefixes of _prefix and the PPJoin filters of _pair_filter:

  broadcast — no shuffle:
  tokenize (map_batches, vectorized)                        [stateless tasks]
  -> ONE driver collect: dense-label token index, df = one bincount
  -> index side's prefix postings keyed (label, length), ray.put   [driver]
  -> probe in map_batches: prefix -> searchsorted length ranges
     -> positional filter -> in-task (probe, index) pair dedup
     -> exact verify against the broadcast token index      [stateless tasks]

  grid — beyond the gate, or when cfg.max_group_size is set:
  tokenize -> token df counts (partial agg + bucket groupby) [small shuffle]
  -> signature emission (broadcast df table)                [stateless tasks]
  -> groupby(pbucket) + vectorized within-bucket pair gen    [the big shuffle]
  -> slim (k1, k2) pairs to sharded-index grid cells, dedup
     + exact verify in-cell (verify.grid_verify)             [16-byte shuffle]

Skew handling: prefix tokens are the globally rarest tokens of each record
(mirroring the reference's df-ordered token ids, tokenizer.cc:332-337),
which already starves hot keys.  Every pair expansion is chunked at
functions.hashing.PAIR_CHUNK pairs — a probe's candidates by probe_pairs,
every within-bucket decode (grid pair generation, the exact and anm value
joins, the empty-record clique) by iter_pairs — so a hot posting list or
an equal-value clique costs time, not memory.  On the grid plan only, any
token with df > salt_df_threshold is *triangle-salted* into salt_factor
shards — records carry their shard u and are replicated to cells (u,u) and
(min(u,v),max(u,v)) so each cell holds a bounded slice of the quadratic
pair space.  Optional max_group_size caps runaway keys per shuffle group
with LOGGED truncation (reference analogue: MAX_INV_SIZE,
config.h:109-110 — never silent).
"""

from __future__ import annotations

import itertools
import logging

import numpy as np
import pandas as pd
import pyarrow as pa
import ray
import ray.data

from ..config import PipelineConfig
from ..functions import hashing as H
from ..functions.hashing import (
    bucket_of,
    get_broadcast,
    group_sizes_from_sorted,
    hash_strings,
    iter_pairs,
    probe_pairs,
    side_runs,
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


def _prefix(vals: np.ndarray, dfs: np.ndarray, offs: np.ndarray,
            rules: list[tuple[str, float]]):
    """Prefix tokens of each record (``offs`` from 0): its tokens rarest
    first (df asc, token asc — the reference's global df-ordered id space,
    tokenizer.cc:332-337), the first l - T(l) + 1 of them under the fused
    (loosest) bound over ``rules``, df >= 2 only.  Returns ``(tok, row, pos,
    df)`` per prefix token, rows ascending; ``pos`` is the token's rank in
    its record's order (the positional filter's input)."""
    lens = np.diff(offs)
    rows = np.repeat(np.arange(lens.size, dtype=np.int64), lens)
    order = np.lexsort((vals, dfs, rows))
    vals_o, dfs_o, rows_o = vals[order], dfs[order], rows[order]
    pos = np.arange(vals_o.size) - np.repeat(offs[:-1], lens)
    T = np.minimum.reduce([min_overlap_count(s, t, lens) for s, t in rules])
    # prefix length l - T + 1 <= 0: the record cannot match (overlap removeShort)
    keep = (pos < (lens - T + 1)[rows_o]) & (dfs_o >= 2)
    return vals_o[keep], rows_o[keep], pos[keep], dfs_o[keep]


# ---------------------------------------------------------------------------
# grid plan: signature emission + within-bucket pair generation
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
    """Emit (tok, cell, side, id, tlen) prefix-signature rows per record;
    a stateless task reading the df table once per worker (get_broadcast).

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
    tok_e, row_e, pos_e, df_e = _prefix(vals, lookup_df(vals, df_toks, df_vals),
                                        offs, rules)
    pos_e = pos_e.astype(np.int32)

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


def _pair_filter(la, lb, ra, rb, rules: list[tuple[str, float]],
                 alpha: float | None) -> np.ndarray:
    """PPJoin's length and positional filters (Xiao et al., WWW'08) for
    candidates of lengths (la, lb) met under a shared prefix token with
    ``ra``/``rb`` tokens after it in each record's order: min(la, lb) >=
    alpha * max(la, lb), and 1 + min(ra, rb) >= T(la, lb), the pairwise
    bound loosest over ``rules``.  The pair's rarest common token always
    passes, so the filters keep the candidate SET exact."""
    mask = np.ones(la.size, bool)
    if alpha is not None:
        mask &= np.minimum(la, lb) >= alpha * np.maximum(la, lb).astype(np.float64) - _EPS
    T = np.minimum.reduce([pair_min_overlap(s, th, la, lb) for s, th in rules])
    return mask & (1.0 + np.minimum(ra, rb) >= T)


def _pairgen_bucket(
    t: pa.Table, *, rules: list[tuple[str, float]], alpha: float | None,
    max_group_size: int | None, rs: bool = False, chunk: int = H.PAIR_CHUNK,
) -> pa.Table:
    """Vectorized within-bucket candidate generation (the grid plan) with
    _pair_filter's length and positional pruning — hot-token groups, where
    every member carries the token near the END of its prefix, are pruned
    from quadratic to near-zero.  Pairs decode ``chunk`` at a time
    (iter_pairs): the triangle of each one-sided (tok, cell) run — none in
    RS mode — and the side-0 x side-1 rectangle of each two-sided one.

    ``rules``: the pairwise bound is the element-wise loosest min over the
    rules (see _emit_signatures); ``alpha`` must be their fused (minimum)
    length-ratio (fused_length_ratio), computed by the caller."""
    empty = pa.table(
        {"k1": pa.array([], pa.int64()), "k2": pa.array([], pa.int64())})
    if t.num_rows == 0:
        return empty
    tok, cell, side, idh, tlen, pos = (np.asarray(t.column(c), dtype=np.int64)
                                       for c in ("tok", "cell", "side", "idh", "tlen", "pos"))
    order = np.lexsort((side, cell, tok))
    tok, cell, side, idh, tlen, pos = (c[order] for c in (tok, cell, side, idh, tlen, pos))
    starts, na, nb = side_runs(side, tok, cell)

    if max_group_size is not None and max(na.max(), nb.max()) > max_group_size:
        # cap PER (group, side): rows in a run sort side-0-first, so a
        # whole-run cap on a skewed RS group would keep only index-side
        # rows and emit ZERO cross pairs instead of a bounded subset;
        # per-side caps keep min(n, cap) rows of EACH side (pairs bounded
        # by cap^2 per group, recall degrades gracefully)
        local = (np.arange(tok.size) - np.repeat(starts, na + nb)
                 - np.where(side == 0, 0, np.repeat(na, na + nb)))
        keep = local < max_group_size
        logger.warning(
            "blocking: truncating %d hot group sides (dropping %d "
            "signature rows, cap=%d)",
            int((na > max_group_size).sum() + (nb > max_group_size).sum()),
            int(tok.size - keep.sum()), max_group_size,
        )
        tok, cell, side, idh, tlen, pos = (
            c[keep] for c in (tok, cell, side, idh, tlen, pos))
        starts, na, nb = side_runs(side, tok, cell)
    remain = tlen - pos - 1  # tokens after this signature position

    tri = nb == 0
    decodes = [iter_pairs(starts[~tri], na[~tri], starts[~tri] + na[~tri], nb[~tri],
                          chunk=chunk)]
    if not rs:  # RS mode: a single-side group has no cross pairs
        decodes.append(iter_pairs(starts[tri], na[tri], chunk=chunk))
    out1: list[np.ndarray] = []
    out2: list[np.ndarray] = []
    for ii, jj in itertools.chain(*decodes):
        mask = _pair_filter(tlen[ii], tlen[jj], remain[ii], remain[jj], rules, alpha)
        if not rs:
            mask &= idh[ii] != idh[jj]  # self-pairs (64-bit id-hash dedup)
        out1.append(ii[mask])
        out2.append(jj[mask])

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


def _grid_candidates(sides: list, df_ref, rules: list[tuple[str, float]],
                     cfg: PipelineConfig) -> "ray.data.Dataset":
    """The grid plan's slim (k1, k2) candidates: signatures of one table
    (self join) or of A and B (RS, ``sides = [A, B]``), the pb sort shuffle
    and within-bucket pair generation."""
    rs = len(sides) == 2
    sigs = [t.map_batches(_emit_signatures, batch_format="pyarrow", fn_kwargs=dict(
        df_ref=df_ref, rules=rules, pair_partitions=cfg.pair_partitions,
        salt_df_threshold=cfg.salt_df_threshold, salt_factor=cfg.salt_factor,
        rs_side=side if rs else None)) for side, t in enumerate(sides)]
    return (sigs[0].union(sigs[1]) if rs else sigs[0]).groupby("pb").map_groups(
        _pairgen_bucket, batch_format="pyarrow",
        fn_kwargs={"rules": rules, "alpha": fused_length_ratio(rules),
                   "max_group_size": cfg.max_group_size, "rs": rs,
                   "chunk": H.PAIR_CHUNK})


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


def _probe_index(idx, rules: list[tuple[str, float]]):
    """Driver side of the broadcast probe: the index side's prefix postings
    from the collected verify index (B = A for a self join).  df per dense
    label is one bincount (over A's and B's labels for RS); labels rank the
    sorted token hashes, so (df, label) is _emit_signatures' (df, token)
    order.  Postings are sorted by ``label * M + record length`` (M =
    longest index record + 1): one token's length-eligible partners are one
    ``searchsorted`` range.  Returns ``(dfl, M, keys, rows, pos)``."""
    lb, ob = idx[-3], idx[-2]
    dfl = np.bincount(lb if len(idx) == 4 else np.concatenate((idx[1], lb)),
                      minlength=idx[-1])
    tok, row, pos, _ = _prefix(lb, dfl[lb], ob, rules)
    lens = np.diff(ob)
    M = int(lens.max()) + 1 if lens.size else 1
    key = tok.astype(np.int64) * M + lens[row]
    order = np.argsort(key, kind="stable")
    return dfl, M, key[order], row[order], pos[order]


def _posting_ranges(skeys, M: int, tok, l, alpha: float | None, self_join: bool):
    """``(start, cnt)`` of the sorted postings of token ``tok`` whose
    lengths suit a record of length ``l``: [ceil(α·l), l] in a self join,
    [ceil(α·l), floor(l/α)] in an RS join, any (up to l in a self join)
    without a length ratio.  The upper end is clamped to M - 1 and the
    lower one to M, so a range never reaches the next token's postings."""
    if alpha:
        lo = np.ceil(alpha * l - _EPS)
        hi = l if self_join else np.floor((l + _EPS) / alpha)
    else:
        lo, hi = 0, l if self_join else M - 1
    base = tok.astype(np.int64) * M
    start = np.searchsorted(skeys, base + np.minimum(lo, M).astype(np.int64), "left")
    end = np.searchsorted(skeys, base + np.minimum(hi, M - 1).astype(np.int64), "right")
    return start, np.maximum(end - start, 0)


def _setsim_probe(t: pa.Table, *, toks_ref, probe_ref,
                  rules: list[tuple[str, float]], chunk: int) -> pa.Table:
    """Probe a batch of A records against the broadcast prefix postings
    (_probe_index) and verify inline — the reference's inverted-index probe
    with positional filter (setjoin_parallel.cc:427-788).

    Each record's prefix (_prefix, from its index row's labels) looks up
    its partners of eligible length (_posting_ranges), _pair_filter prunes,
    a self pair is kept only from its larger (length, index row) record,
    and (probe, index) pairs dedupe in-task — exact, as each probe record
    lives in one task."""
    from .verify import _idh_token_index, gather_lists, verify_index_pairs

    ha, _, va, oa, _, _, ob, _, self_join = _idh_token_index(toks_ref)
    dfl, M, skeys, srows, spos = get_broadcast(probe_ref)
    ids = np.asarray(t.column("conv_id").to_numpy(zero_copy_only=False), dtype=object)
    xr = ha.get_indexer(hash_strings(ids))
    xr = xr[xr >= 0]
    vals, offs = gather_lists(va, oa, xr)
    tok, row, pos, _ = _prefix(vals, dfl[vals], offs, rules)
    lx = np.diff(offs)
    l = lx[row]
    alpha = fused_length_ratio(rules)
    start, cnt = _posting_ranges(skeys, M, tok, l, alpha, self_join)
    hit = cnt > 0
    row, start, cnt, rem = row[hit], start[hit], cnt[hit], (l - pos - 1)[hit]

    def keep(e, r, x, y):
        la, lb = lx[x], skeys[r] % M
        k = _pair_filter(la, lb, rem[e], lb - spos[r] - 1, rules, alpha)
        if self_join:
            k &= (lb < la) | ((lb == la) & (y < xr[x]))
        return k

    parts = [verify_index_pairs(xr[x], y, toks_ref, rules)
             for x, y in probe_pairs(row, start, cnt, srows, ob.size - 1, keep, chunk)]
    return pa.concat_tables(parts) if parts else _EMPTY_PAIRS


def _probe_join(probe_ds, idx, verify_ref, rules, tables: str):
    """The set-sim joins' broadcast plan, no shuffle: the driver checks ids
    and builds postings from the collected index ``idx`` (``verify_ref`` is
    its ``ray.put``); ``probe_ds``'s records probe them in map_batches."""
    from .verify import check_unique_ids

    for index, table in zip(idx[0:-1:3], tables):
        check_unique_ids(index.to_numpy(), table)
    return probe_ds.select_columns(["conv_id"]).map_batches(
        _setsim_probe, batch_format="pyarrow",
        fn_kwargs=dict(toks_ref=verify_ref, probe_ref=ray.put(_probe_index(idx, rules)),
                       rules=rules, chunk=H.PAIR_CHUNK))


def index_empty_ids(index, offs, limit: int = 5_000_000) -> list:
    """empty_record_ids from a collected token index — no Ray pass."""
    return _capped_empty_ids(index[np.diff(offs) == 0].tolist(), limit)


def empty_record_ids(toks_ds, limit: int = 5_000_000) -> list:
    """ids of empty-token records (full scan, do ONCE per tokenization).

    ONE bounded pass: ``limit(limit + 1)`` caps the pull at limit+1 ids (the
    list seeds the broadcast _empty_pairs_ds expands), so a corpus whose
    empties exceed ``limit`` fails LOUDLY with the fix instead of OOMing the
    driver; the n²/2 empty-pair clique would be astronomically large well
    before the cap."""
    import pyarrow.compute as pc

    empties = toks_ds.map_batches(
        lambda t: t.filter(pc.equal(t["tlen"], 0)).select(["conv_id"]),
        batch_format="pyarrow",
    )
    return _capped_empty_ids(
        [r["conv_id"] for r in empties.limit(limit + 1).take_all()], limit)


def _capped_empty_ids(ids: list, limit: int) -> list:
    if len(ids) > limit:
        raise RuntimeError(
            f"over {limit} empty-token records exceed the driver/broadcast "
            "cap for the empty-pair clique (jaccard(∅,∅)=1.0 would emit "
            "~n²/2 pairs); set include_empty_pairs=False or drop empty "
            "records upstream")
    return sorted(ids)


def _empty_pairs_ds(toks_ds, cfg: PipelineConfig, ids: list | None = None,
                    ids_b: list | None = None):
    """Pairs of empty-token records, jaccard(∅,∅)=1.0 (simfunc.cc:129-130):
    the clique of ``ids`` (one table, ids canonical; scanned from
    ``toks_ds`` when None), or ``ids`` x ``ids_b`` (two tables, (A, B)
    order).  Up to 100k pairs expand on the driver; beyond, DISTRIBUTED —
    one task per A-id chunk, the ids broadcast once — exact at any size,
    never a silent cap."""
    a = np.asarray(sorted(empty_record_ids(toks_ds) if ids is None else ids), object)
    b = a if ids_b is None else np.asarray(sorted(ids_b), object)
    n_pairs = a.size * (a.size - 1) // 2 if ids_b is None else a.size * b.size
    if n_pairs == 0:
        return None
    chunk, clique = H.PAIR_CHUNK, ids_b is None

    def expand(rows, a, b):
        # A row r pairs with B rows [lo, |B|): the rows after it in a clique
        lo = rows + 1 if clique else np.zeros_like(rows)
        for ii, jj in iter_pairs(rows, np.ones_like(rows), lo, b.size - lo, chunk=chunk):
            yield pa.table({"id1": pa.array(a[ii], pa.string()),
                            "id2": pa.array(b[jj], pa.string()),
                            "sim": pa.array(np.ones(ii.size), pa.float64())})

    if n_pairs <= 100_000:
        return ray.data.from_arrow(list(expand(np.arange(a.size), a, b)))
    logger.warning("blocking: %d x %d empty records -> %d empty pairs generated "
                   "distributed", a.size, b.size, n_pairs)
    ref = ray.put((a, b))

    def task(t: pa.Table):
        yield from expand(np.asarray(t.column("id"), np.int64), *get_broadcast(ref))

    return ray.data.range(a.size).map_batches(
        task, batch_format="pyarrow", batch_size=max(1, (1 << 21) // b.size))


def _empty_pairs_rs_ds(ea: list, eb: list):
    """A x B pairs of empty-token records (the two-table _empty_pairs_ds)."""
    return _empty_pairs_ds(None, None, ea, eb)


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
    the SAME tokenization run as ONE join pass (the reference runs them
    serially over shared tokenized datasets, block.cc:204-273).  Prefixes
    and filters use the element-wise loosest bound across rules (candidate
    superset per rule); verify computes the exact overlap ONCE per pair and
    emits one {id1, id2, sim} row per (pair, passing rule) — exactly what
    the single-rule joins would emit in union."""
    return _setsim_self_join(
        toks_ds, rules, cfg, df_ref=df_ref, broadcast=broadcast,
        verify_ref=verify_ref, empty_ids=empty_ids, n_records=n_records,
        shard_store=shard_store)


def _setsim_self_join(toks_ds, rules, cfg: PipelineConfig, *, df_ref,
                      broadcast, verify_ref, empty_ids, n_records,
                      shard_store, in_join_topk: int | None = None):
    """The body shared by setsim_self_join and setsim_self_join_multi: the
    broadcast probe under the gate (unless ``cfg.max_group_size`` asks for
    the per-group cap, defined on the shuffle's groups), else the grid."""
    if broadcast is None:
        from .verify import broadcast_gate

        broadcast = broadcast_gate([toks_ds], n_records, cfg)
    if broadcast and cfg.max_group_size is None:
        from .verify import collect_token_index

        if verify_ref is None:
            idx = collect_token_index(toks_ds)
            verify_ref = ray.put(idx)
        else:
            idx = ray.get(verify_ref)
        verified = _probe_join(toks_ds, idx, verify_ref, rules, "A")
        if empty_ids is None and cfg.include_empty_pairs:
            empty_ids = index_empty_ids(idx[0], idx[2])
    else:
        # beyond-broadcast: slim (k1, k2) candidates shuffle ONCE to grid
        # cells of a sharded token store — no token list ever crosses a
        # shuffle, worker memory bounded by two shards (see verify.py)
        from .verify import build_token_shard_store, verify_pairs_sharded

        if df_ref is None:
            df_ref = ray.put(build_df_table(toks_ds))
        candidates = _grid_candidates([toks_ds], df_ref, rules, cfg)
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


def _value_join(docs_a, docs_b, cfg: PipelineConfig, sig, keep,
                max_band_pairs: int | None = None) -> "ray.data.Dataset":
    """The exact and anm joins' one body: a value-bucket join, self
    (``docs_b`` None) or RS (reference ExactJoin and its RS variant,
    stringjoin.h:210-289, stringjoin_parallel.h:495-599).

    ``sig(t, table)`` maps a batch of table 0 (A) or 1 (B) to emitted rows
    ``(key, side, id, val)``.  Rows shuffle by key hash, sort by (key,
    side) and pair within each key, ``chunk`` at a time (iter_pairs): a
    self join pairs the side-0 rows among themselves (triangle) and with
    the side-1 rows (rectangle), ids canonical (min, max) and self pairs
    dropped; an RS join pairs side 0 (A) with side 1 (B) only, in (A, B)
    order.  ``keep(val, ii, jj)`` gives each candidate's (mask, sim).  No
    dedup shuffle: each pair meets under exactly one key (see the callers).

    ``max_band_pairs``: a key whose side-0 x side-1 rectangle exceeds it
    keeps its first whole side-0 rows until the cap fills, with a LOGGED
    warning — the reference's MAX_PAIR_SIZE (simjoin_blocker.cc:324-367,
    config.h) — instead of exploding a worker.  None = exact."""
    rs = docs_b is not None
    chunk = H.PAIR_CHUNK

    def emit(table):
        def f(t: pa.Table) -> pa.Table:
            key, side, ids, val = sig(t, table)
            return pa.table({
                "pb": pa.array(bucket_of(key, cfg.pair_partitions), pa.int32()),
                "key": pa.array(key, pa.int64()),
                "side": pa.array(side, pa.int8()),
                "id": pa.array(ids, pa.string()),
                "val": pa.array(val),
            })

        return f

    def pairs(t: pa.Table) -> pa.Table:
        if t.num_rows == 0:
            return _EMPTY_PAIRS
        key = np.asarray(t.column("key"), dtype=np.int64)
        side = np.asarray(t.column("side"), dtype=np.int8)
        ids = _ids_str(t.column("id"))
        val = t.column("val").to_numpy()
        if val.dtype == object:
            val = val.astype("U")
        # stable: within a key the side-0 rows keep arrival order, so the
        # cap below keeps the same first rows on every run
        order = np.lexsort((side, key))
        side, ids, val = side[order], ids[order], val[order]
        starts, na, nb = side_runs(side, key[order])
        b_starts = starts + na
        if max_band_pairs is not None:
            over = na * nb > max_band_pairs
            if over.any():
                logger.warning(
                    "value join: %d dense key(s) exceed max_band_pairs=%d "
                    "(largest %dx%d); truncating their A side (recall loss "
                    "possible; raise the cap to make exact)",
                    int(over.sum()), max_band_pairs,
                    int(na[over].max()), int(nb[over].max()))
                capped = np.maximum(1, max_band_pairs // np.maximum(nb, 1))
                na = np.where(over, np.minimum(na, capped), na)
        decodes = [iter_pairs(starts, na, b_starts, nb, chunk=chunk)]
        if not rs:
            decodes.append(iter_pairs(starts, na, chunk=chunk))
        p1l, p2l, sl = [np.empty(0, "U1")], [np.empty(0, "U1")], [np.empty(0)]
        for ii, jj in itertools.chain(*decodes):
            ok, s = keep(val, ii, jj)
            if not rs:
                ok &= ids[ii] != ids[jj]
            a, b = ids[ii[ok]], ids[jj[ok]]
            if not rs:
                a, b = np.where(a < b, a, b), np.where(a < b, b, a)
            p1l.append(a)
            p2l.append(b)
            sl.append(s[ok])
        return pa.table({
            "id1": pa.array(np.concatenate(p1l), pa.string()),
            "id2": pa.array(np.concatenate(p2l), pa.string()),
            "sim": pa.array(np.concatenate(sl), pa.float64()),
        })

    sigs = docs_a.map_batches(emit(0), batch_format="pyarrow")
    if rs:
        sigs = sigs.union(docs_b.map_batches(emit(1), batch_format="pyarrow"))
    return sigs.groupby("pb").map_groups(pairs, batch_format="pyarrow")


def _exact_sig(attr: str):
    """Exact-join emission: every record once under its value hash (nulls
    read as ""), side = its table; the value itself guards against 64-bit
    hash collisions."""
    def sig(t: pa.Table, table: int):
        vals = _fillna_str(t.column(attr))
        return (hash_strings(vals), np.full(vals.size, table, np.int8),
                _ids_str(t.column("conv_id")), vals.astype("U"))

    return sig


def _exact_keep(val, ii, jj):
    eq = val[ii] == val[jj]
    return eq, np.ones(ii.size)


def exact_self_join(
    docs: "ray.data.Dataset", attr: str, cfg: PipelineConfig
) -> "ray.data.Dataset":
    """Equality self-join on an attribute (reference ExactJoin,
    stringjoin.h:210-289): every pair of records with equal values, sim =
    1.0 — a pair meets under its one value hash (_value_join).

    Arrow batches end to end — no pandas blocks (whose schema metadata
    defeats Ray's reduce-side schema dedup) enter the shuffle."""
    return _value_join(docs, None, cfg, _exact_sig(attr), _exact_keep)


def exact_rs_join(
    docs_a: "ray.data.Dataset", docs_b: "ray.data.Dataset", attr: str, cfg: PipelineConfig
) -> "ray.data.Dataset":
    """Equality RS join on an attribute (reference ExactJoin RS,
    stringjoin_parallel.h:495-599): A x B pairs of equal values, sim = 1.0."""
    return _value_join(docs_a, docs_b, cfg, _exact_sig(attr), _exact_keep)


def _anm_sig(attr: str, threshold: float, copies):
    """anm-join emission: log-ratio bucketing — values within ratio t of
    each other land in the same or adjacent log-bucket of width -ln t, and
    key = bucket * 2 + (value > 0).  ``copies[table]`` lists the (bucket
    shift, side) copies each record of that table emits.  |d| < 1e-5 never
    matches (sim 0) and emits nothing."""
    assert 0.0 < threshold < 1.0
    w = -np.log(threshold)

    def sig(t: pa.Table, table: int):
        v = pd.to_numeric(pd.Series(
            np.asarray(t.column(attr).to_numpy(zero_copy_only=False),
                       dtype=object)), errors="coerce").to_numpy(np.float64)
        ids = _ids_str(t.column("conv_id"))
        ok = ~np.isnan(v) & (np.abs(v) >= 1e-5)
        v, ids = v[ok], ids[ok]
        key = np.floor(np.log(np.abs(v)) / w).astype(np.int64) * 2 + (v > 0)
        shifts, sides = np.array(copies[table]).T
        return (np.concatenate([key + 2 * sh for sh in shifts]),
                np.repeat(sides.astype(np.int8), v.size),
                np.tile(ids, shifts.size), np.tile(v, shifts.size))

    return sig


def _anm_keep(threshold: float):
    """absoluteNorm 1 - |d1-d2|/max(|d1|,|d2|) >= t (simfunc.cc:297-315)."""
    def keep(v, ii, jj):
        d1, d2 = v[ii], v[jj]
        rel = np.abs(d1 - d2) / np.maximum(np.abs(d1), np.abs(d2))
        s = np.where(rel <= 1e-5, 1.0, 1.0 - rel)
        return s >= threshold, s

    return keep


def anm_self_join(
    docs: "ray.data.Dataset", attr: str, threshold: float, cfg: PipelineConfig
) -> "ray.data.Dataset":
    """absoluteNorm self-join: pairs with 1 - |d1-d2|/max(|d1|,|d2|) >= t
    (reference brute-force loop, simjoin_blocker.cc:117-166; formula
    simfunc.cc:297-315) — a sort-free band join.  Each record emits its
    own bucket b (side 0) and a guest copy to b + 1 (side 1): a pair in one
    bucket meets there as two side-0 rows, a pair in adjacent buckets as a
    side-0 x side-1 row — once each."""
    return _value_join(docs, None, cfg, _anm_sig(attr, threshold, [((0, 0), (1, 1))]),
                       _anm_keep(threshold))


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
    prefixes by the same global rarity.  Plans as in the self join: under
    the broadcast gate A probes B's prefix postings (one driver collect
    yields both sides' index and the combined df), else the grid."""
    if broadcast is None:
        from .verify import broadcast_gate

        broadcast = broadcast_gate([toks_a, toks_b], n_records, cfg)
    rules = [(sim, threshold)]
    empties = None
    if broadcast and cfg.max_group_size is None:
        from .verify import collect_token_index_rs_with_df

        idx, _ = collect_token_index_rs_with_df(toks_a, toks_b)
        verified = _probe_join(toks_a, idx, ray.put(idx), rules, "AB")
        empties = (index_empty_ids(idx[0], idx[2]), index_empty_ids(idx[3], idx[5]))
    else:
        from .verify import build_token_shard_store, verify_pairs_sharded

        if df_table is None:
            df_table = build_df_table(toks_a.union(toks_b))
        candidates = _grid_candidates([toks_a, toks_b], ray.put(df_table), rules, cfg)
        ns = verify_shards(cfg)
        store_a = build_token_shard_store(toks_a, num_shards=ns,
                                          store_dir=cfg.shard_store_dir)
        store_b = build_token_shard_store(toks_b, num_shards=ns,
                                          store_dir=cfg.shard_store_dir)
        verified = verify_pairs_sharded(
            candidates, store_a, rules=rules, store_b=store_b)
    if sim in ("jac", "cos", "dice") and cfg.include_empty_pairs and threshold <= 1.0:
        ea, eb = empties or (empty_record_ids(toks_a), empty_record_ids(toks_b))
        ep = _empty_pairs_rs_ds(ea, eb)
        if ep is not None:
            verified = verified.union(ep)
    return verified


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
    capped at this many pairs (whole A rows, LOGGED — see _value_join).
    None (default) = exact."""
    return _value_join(
        docs_a, docs_b, cfg,
        _anm_sig(attr, threshold, [((-1, 0), (0, 0), (1, 0)), ((0, 1),)]),
        _anm_keep(threshold), max_band_pairs)
