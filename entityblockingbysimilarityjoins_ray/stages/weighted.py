"""IDF-weighted set-similarity self-join (the reference's isWeighted path).

The reference threads ``wordwt[t] = log10(N / df(t))`` and record weights
``weights[r] = Σ wordwt`` through tokenization
(/root/reference/cpp/common/tokenizer.cc:361-363,388-396) and evaluates
weighted jaccard/cosine/dice in joins and top-k
(simfunc.h:37-38,60-71; topk.cc:98-...; block_main.cc isIdfWeighted arg).

Ray-native weighted prefix filter: tokens ordered by df ascending — which IS
weight descending for IDF — and a record emits signature positions while the
tail (this token + everything rarer... heavier... after it) still weighs at
least T(w) = the minimum shared weight with the lightest eligible partner:

    jac:  w∩ >= δ·w(A)          (since w(B) >= δ·w(A) under the weight filter)
    cos:  w∩ >= δ^2·w(A)
    dice: w∩ >= δ/(2-δ)·w(A)

A pair sharing only unemitted tokens would have w∩ < T — contradiction, so
the candidate set is complete.  Weighted positional filter: a candidate seen
at a shared token of weight wt with remaining tail weights (ra, rb) can reach
at most wt + min(ra, rb) shared weight; require >= T(wa, wb).

Verification = exact weighted overlap over full token sets
(pair_weighted_overlap) with the wordwt table broadcast once.
df=1 tokens carry the max weight log10(N) but can never be shared — they
count toward record weights and bounds only (reference keeps them in
weights[r] the same way).
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
from ..functions import sims as S
from ..functions import hashing as H
from ..functions.hashing import bucket_of, get_broadcast, hash_strings, iter_pairs, side_runs
from .blocking import dedupe_pairs, lookup_df

logger = logging.getLogger(__name__)

_EPS = 1e-9
_U64 = np.uint64


def word_weights(df_table, n_records: int):
    """(tokens sorted, wordwt = log10(N/df)) + default weight for df=1."""
    toks, dfs = df_table
    w = np.log10(float(n_records) / dfs.astype(np.float64))
    default = float(np.log10(float(n_records)))  # df = 1
    return toks, w, default


def _pair_min_weight(sim: str, threshold: float, wa, wb):
    if sim == "jac":
        return threshold / (1.0 + threshold) * (wa + wb)
    if sim == "cos":
        return threshold * np.sqrt(wa * wb)
    if sim == "dice":
        return threshold * (wa + wb) / 2.0
    raise ValueError(sim)


def _self_min_weight(sim: str, threshold: float, w):
    """T(w): min shared weight with the lightest eligible partner."""
    if sim == "jac":
        return threshold * w
    if sim == "cos":
        return threshold * threshold * w
    if sim == "dice":
        return threshold / (2.0 - threshold) * w
    raise ValueError(sim)


def _weight_ratio(sim: str, threshold: float) -> float:
    if sim == "jac":
        return threshold
    if sim == "cos":
        return threshold * threshold
    if sim == "dice":
        return threshold / (2.0 - threshold)
    raise ValueError(sim)


def _emit_weighted_signatures(
    batch: pa.Table, *, wt_ref, sim: str, threshold: float,
    pair_partitions: int, salt_df_threshold: int, salt_factor: int,
    rs_side: int | None = None,
) -> pa.Table:
    """Per-record weighted prefix signatures: (pb, tok, cell, side, id, idh,
    wlen = record weight, wrem = tail weight after this token, wtok)."""
    wt_toks, wt_vals, default_wt = get_broadcast(wt_ref)
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

    # token weights (df>=2 from the broadcast table; df=1 -> default)
    wi = np.searchsorted(wt_toks, vals)
    wi_c = np.minimum(wi, max(wt_toks.size - 1, 0))
    known = (wi < wt_toks.size) & (wt_toks[wi_c] == vals) if wt_toks.size else np.zeros(vals.size, bool)
    w = np.where(known, wt_vals[wi_c] if wt_toks.size else default_wt, default_wt)

    # per-record order: weight desc (== df asc), token asc for determinism
    order = np.lexsort((vals, -w, rows))
    vals_o, w_o, rows_o, known_o = vals[order], w[order], rows[order], known[order]

    # record weights + tail weights (inclusive of current token)
    wlen = np.zeros(n, np.float64)
    np.add.at(wlen, rows_o, w_o)
    cum = np.cumsum(w_o)
    start_cum = np.concatenate(([0.0], cum[:-1]))  # global prefix-sum before k
    rec_start = np.repeat(np.concatenate(([0], np.cumsum(lens)))[:-1], lens)
    within = start_cum - start_cum[rec_start]  # weight before k within record
    tail_incl = wlen[rows_o] - within  # this token + everything after

    T = _self_min_weight(sim, threshold, wlen)
    keep = (tail_incl >= T[rows_o] - _EPS) & known_o  # df=1 tokens never shared
    tok_e, row_e = vals_o[keep], rows_o[keep]
    wrem_e = (tail_incl - w_o)[keep]  # tail AFTER this token
    wtok_e = w_o[keep]

    # salting on df via weight: rare tokens have high weight; hot tokens are
    # the low-weight ones.  Reuse df-threshold semantics: weight below
    # log10(N/salt_df_threshold) == df above salt_df_threshold.
    idh = hash_strings(ids)
    u_of = bucket_of(idh, max(salt_factor, 1))
    # df > salt_df  <=>  w < log10(N/salt_df); derive the cut from defaults
    # (default_wt = log10 N)
    w_cut = default_wt - np.log10(max(float(salt_df_threshold), 1.0))
    # salt_factor <= 1 disables salting: every row must stay cold, or the
    # gated hot-append below would silently drop hot-token signatures
    hot = (wtok_e < w_cut) & (salt_factor > 1)
    base_side = np.int8(0 if rs_side in (None, 0) else 1)
    cells = [(tok_e[~hot], row_e[~hot], wrem_e[~hot], wtok_e[~hot],
              np.zeros(int((~hot).sum()), np.int32),
              np.full(int((~hot).sum()), base_side, np.int8))]
    if hot.any() and salt_factor > 1:
        ht, hr, hw, hwt = tok_e[hot], row_e[hot], wrem_e[hot], wtok_e[hot]
        s = salt_factor
        ht_r, hr_r = np.repeat(ht, s), np.repeat(hr, s)
        hw_r, hwt_r = np.repeat(hw, s), np.repeat(hwt, s)
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
            # B side: own shard v(=u_of), replicate across all u
            cell = (v * s + u + 1).astype(np.int32)
            side = np.ones(ht_r.size, np.int8)
        cells.append((ht_r, hr_r, hw_r, hwt_r, cell, side))
    tok_all = np.concatenate([c[0] for c in cells])
    row_all = np.concatenate([c[1] for c in cells])
    wrem_all = np.concatenate([c[2] for c in cells])
    wtok_all = np.concatenate([c[3] for c in cells])
    cell_all = np.concatenate([c[4] for c in cells])
    side_all = np.concatenate([c[5] for c in cells])
    gmix = tok_all.view(_U64) * _U64(0x9E3779B97F4A7C15) + cell_all.astype(_U64)
    return pa.table(
        {
            "pb": pa.array(bucket_of(gmix, pair_partitions), pa.int32()),
            "tok": pa.array(tok_all, pa.int64()),
            "cell": pa.array(cell_all, pa.int32()),
            "side": pa.array(side_all, pa.int8()),
            "id": pa.array(ids[row_all], pa.string()),
            "idh": pa.array(idh[row_all], pa.int64()),
            "wlen": pa.array(wlen[row_all], pa.float64()),
            "wrem": pa.array(wrem_all, pa.float64()),
            "wtok": pa.array(wtok_all, pa.float64()),
        }
    )


def _pairgen_weighted(
    t: pa.Table, *, sim: str, threshold: float, alpha: float, rs: bool = False,
    chunk: int,
) -> pa.Table:
    """Within-bucket weighted candidate generation (weight + positional
    filters), mirroring blocking._pairgen_bucket for float weights.
    ``rs``: two-table mode — only cross-side pairs, (A, B) order kept."""
    empty = pa.table({"id1": pa.array([], pa.string()), "id2": pa.array([], pa.string()),
                      "k1": pa.array([], pa.int64()), "k2": pa.array([], pa.int64())})
    tok = np.asarray(t.column("tok"), dtype=np.int64)
    if tok.size == 0:
        return empty
    cell = np.asarray(t.column("cell"), dtype=np.int64)
    side = np.asarray(t.column("side"), dtype=np.int64)
    ids = np.asarray(t.column("id").to_numpy(zero_copy_only=False))
    idh = np.asarray(t.column("idh"), dtype=np.int64)
    wlen = np.asarray(t.column("wlen"), dtype=np.float64)
    wrem = np.asarray(t.column("wrem"), dtype=np.float64)
    wtok = np.asarray(t.column("wtok"), dtype=np.float64)

    order = np.lexsort((side, cell, tok))
    tok, cell, side, ids, idh, wlen, wrem, wtok = (
        a[order] for a in (tok, cell, side, ids, idh, wlen, wrem, wtok)
    )
    starts, na, nb = side_runs(side, tok, cell)
    tri = nb == 0
    decodes = [iter_pairs(starts[~tri], na[~tri], starts[~tri] + na[~tri], nb[~tri],
                          chunk=chunk)]
    if not rs:  # RS: single-side groups have no cross pairs
        decodes.append(iter_pairs(starts[tri], na[tri], chunk=chunk))
    out_i, out_j = [], []
    for ii, jj in itertools.chain(*decodes):
        wa, wb = wlen[ii], wlen[jj]
        mask = np.minimum(wa, wb) >= alpha * np.maximum(wa, wb) - _EPS
        T = _pair_min_weight(sim, threshold, wa, wb)
        mask &= wtok[ii] + np.minimum(wrem[ii], wrem[jj]) >= T - _EPS
        if not rs:
            mask &= idh[ii] != idh[jj]
        out_i.append(ii[mask])
        out_j.append(jj[mask])

    if not out_i:
        return empty
    ii = np.concatenate(out_i)
    jj = np.concatenate(out_j)
    h1, h2 = idh[ii], idh[jj]
    if rs:
        k1, k2 = h1, h2  # distinct tables — keep (A, B) order
    else:
        k1 = np.minimum(h1, h2)
        k2 = np.maximum(h1, h2)
    order2 = np.lexsort((k2, k1))
    k1s, k2s = k1[order2], k2[order2]
    first = np.ones(k1s.size, bool)
    first[1:] = (k1s[1:] != k1s[:-1]) | (k2s[1:] != k2s[:-1])
    keep_idx = order2[first]
    a_ids = ids[ii[keep_idx]].astype("U")
    b_ids = ids[jj[keep_idx]].astype("U")
    if rs:
        id1, id2 = a_ids, b_ids
    else:
        swap = a_ids > b_ids
        id1 = np.where(swap, b_ids, a_ids)
        id2 = np.where(swap, a_ids, b_ids)
    return pa.table(
        {"id1": pa.array(id1, pa.string()),
         "id2": pa.array(id2, pa.string()),
         "k1": pa.array(k1s[first], pa.int64()),
         "k2": pa.array(k2s[first], pa.int64())}
    )


def _weighted_sims(va, oa, vb, ob, wt, sim: str, round_to) -> np.ndarray:
    """Weighted sim of aligned (A_i, B_i) token lists (ORIGINAL token
    hashes, so the IDF weight lookup works) under the ``wt`` wordwt table."""
    wt_toks, wt_vals, default_wt = wt
    ovlp_w = S.pair_weighted_overlap(va, oa, vb, ob, wt_toks, wt_vals, default_wt)
    wa = S.record_weights(va, oa, wt_toks, wt_vals, default_wt)
    wb = S.record_weights(vb, ob, wt_toks, wt_vals, default_wt)
    s = S.weighted_set_sims(ovlp_w, wa, wb, sim)
    return np.round(s, round_to) if round_to is not None else s


def _verify_weighted(batch: pa.Table, *, toks_ref, wt_ref, sim, threshold,
                     round_to) -> pa.Table:
    """Broadcast weighted verify of ``{id1, id2}`` batches against a
    two-sided weighted_token_index (id1 looks up side A, id2 side B)."""
    from .verify import gather_lists

    (index_a, vals_a, offs_a), (index_b, vals_b, offs_b) = get_broadcast(toks_ref)
    ids1 = np.asarray(batch.column("id1").to_numpy(zero_copy_only=False), dtype=object)
    ids2 = np.asarray(batch.column("id2").to_numpy(zero_copy_only=False), dtype=object)
    r1 = index_a.get_indexer(ids1)
    r2 = index_b.get_indexer(ids2)
    ok = (r1 >= 0) & (r2 >= 0)
    r1, r2 = r1[ok], r2[ok]
    s = _weighted_sims(*gather_lists(vals_a, offs_a, r1),
                       *gather_lists(vals_b, offs_b, r2),
                       get_broadcast(wt_ref), sim, round_to)
    keep = s >= threshold
    mask = ok.copy()
    mask[ok] = keep
    out = batch.select(["id1", "id2"]).filter(pa.array(mask))
    return out.append_column("sim", pa.array(s[keep], pa.float64()))


def _weighted_cell(*, wt_ref, sim, threshold, round_to):
    """Weighted grid kernel (verify.grid_verify): shards keep the ORIGINAL
    token hashes (``_Shard.vals``) next to the dense labels, so the IDF
    weight lookup works exactly as on the broadcast index.  The wordwt
    table stays broadcast state: the weighted SIGNATURE stage already
    requires it on every worker, and it is vocabulary-sized, not
    corpus-sized."""
    from .verify import GridKernel, _load_shard, gather_lists

    def verify(sh1, r1, sh2, r2):
        s = _weighted_sims(*gather_lists(sh1.vals, sh1.offs, r1),
                           *gather_lists(sh2.vals, sh2.offs, r2),
                           get_broadcast(wt_ref), sim, round_to)
        rows = np.flatnonzero(s >= threshold)
        return rows, s[rows]

    return GridKernel(_load_shard, verify)


def weighted_token_index(toks_ds: "ray.data.Dataset"):
    """One side ``(pd.Index(ids), vals, offs)`` of the weighted verify
    index — like verify.collect_token_index but WITHOUT dense relabeling
    (weights are keyed by original token hashes).  The verify takes a
    two-sided ``(side_a, side_b)`` pair; a self join passes (A, A)."""
    from .verify import collect_arrow

    tbl = collect_arrow(toks_ds.select_columns(["conv_id", "toks"]))
    ids = np.asarray(tbl.column("conv_id").to_numpy(zero_copy_only=False), dtype=object)
    vals, offs = S.flatten_lists(tbl.column("toks"))
    return pd.Index(ids), vals, offs


def _weighted_verify_stage(candidates, idx, toks_a, toks_b, *, wt_ref, sim,
                           threshold, round_to, cfg: PipelineConfig):
    """Broadcast-or-grid weighted verify of raw candidates (self join when
    ``toks_b`` is None).  ``idx``: the (side_a, side_b) weighted_token_index
    pair under the broadcast gate (candidates dedupe, then verify against it), else None —
    slim (k1, k2) pairs grid-verify against token shard stores, where
    duplicate candidates co-locate per cell and dedup exactly there."""
    kw = dict(wt_ref=wt_ref, sim=sim, threshold=threshold, round_to=round_to)
    if idx is not None:
        return dedupe_pairs(candidates, cfg.pair_partitions).map_batches(
            _verify_weighted, fn_kwargs=dict(kw, toks_ref=ray.put(idx)),
            batch_format="pyarrow", batch_size=2048)
    from .blocking import verify_shards
    from .verify import build_token_shard_store, grid_verify

    ns = verify_shards(cfg)
    store_a = build_token_shard_store(toks_a, num_shards=ns,
                                      store_dir=cfg.shard_store_dir)
    store_b = None if toks_b is None else build_token_shard_store(
        toks_b, num_shards=ns, store_dir=cfg.shard_store_dir)
    return grid_verify(candidates, store_a, _weighted_cell(**kw),
                       store_b=store_b)


def setsim_self_join_weighted(
    toks_ds: "ray.data.Dataset",
    *,
    sim: str,
    threshold: float,
    cfg: PipelineConfig,
    df_table=None,
    n_records: int | None = None,
    round_to: int | None = 9,
) -> "ray.data.Dataset":
    """IDF-weighted set-similarity self-join: weighted sim >= threshold.

    ``round_to`` rounds the emitted sim (both here and in the SQL oracle) so
    float-summation order differences cannot flip the hash comparison."""
    from .verify import should_broadcast

    if n_records is None:
        n_records = toks_ds.count()
    broadcast = should_broadcast(toks_ds, n_records, cfg.broadcast_limit,
                                 cfg.broadcast_bytes_limit)
    idx = None
    if broadcast:
        side = weighted_token_index(toks_ds)  # one collect: index + df
        idx = (side, side)
        if df_table is None:
            uni, counts = np.unique(side[1], return_counts=True)
            keep = counts >= 2  # df=1 widow tokens can't be shared
            df_table = (uni[keep], counts[keep].astype(np.int64))
    elif df_table is None:
        from .blocking import build_df_table

        df_table = build_df_table(toks_ds)  # distributed df pass
    wt_ref = ray.put(word_weights(df_table, n_records))
    sigs = toks_ds.map_batches(
        _emit_weighted_signatures,
        fn_kwargs=dict(wt_ref=wt_ref, sim=sim, threshold=threshold,
                       pair_partitions=cfg.pair_partitions,
                       salt_df_threshold=cfg.salt_df_threshold,
                       salt_factor=cfg.salt_factor),
        batch_format="pyarrow",
    )
    candidates = sigs.groupby("pb").map_groups(
        _pairgen_weighted,
        fn_kwargs={"sim": sim, "threshold": threshold,
                   "alpha": _weight_ratio(sim, threshold), "chunk": H.PAIR_CHUNK},
        batch_format="pyarrow",
    )
    return _weighted_verify_stage(
        candidates, idx, toks_ds, None, wt_ref=wt_ref, sim=sim,
        threshold=threshold, round_to=round_to, cfg=cfg)


def setsim_rs_join_weighted(
    toks_a: "ray.data.Dataset",
    toks_b: "ray.data.Dataset",
    *,
    sim: str,
    threshold: float,
    cfg: PipelineConfig,
    round_to: int | None = 9,
) -> "ray.data.Dataset":
    """IDF-weighted RS (A x B) set-similarity join: weighted sim >= threshold,
    output {id1(A), id2(B), sim}.  Weights use the COMBINED dictionary —
    df over A ∪ B, wordwt = log10((|A|+|B|)/df) — mirroring the reference's
    RS tokenizer (RStableAttr2IntVector, tokenizer.cc:240-411) and its
    isWeighted join paths (simfunc.h:37-38).

    Under the broadcast gate ONE driver collect feeds everything: the verify
    index and the df table (unique+counts over the already-deduped bags).
    Beyond it, the df pass runs distributed over A ∪ B and verification goes
    through the sharded grid (verify.grid_verify, _weighted_cell) — only the
    vocabulary-sized wordwt table stays broadcast, which the signature stage
    requires anyway."""
    from .verify import _hashed_ids, broadcast_gate

    n = toks_a.count() + toks_b.count()
    broadcast = broadcast_gate([toks_a, toks_b], n, cfg)
    idx = None
    if broadcast:
        idx = (weighted_token_index(toks_a), weighted_token_index(toks_b))
        (index_a, va, oa), (index_b, vb, ob) = idx
        # candidate dedup downstream keys on 64-bit id hashes (dedupe_pairs
        # on k1/k2): a collision must fail LOUDLY like the hash-keyed verify
        # path (verify._idh_token_index), not silently drop a genuine pair.
        # (The sharded path asserts the same per shard in _load_shard.)
        _hashed_ids(index_a)
        _hashed_ids(index_b)
        uni, counts = np.unique(np.concatenate((va, vb)), return_counts=True)
        keep = counts >= 2  # df=1 widow tokens can't be shared
        df_table = (uni[keep], counts[keep].astype(np.int64))
    else:
        from .blocking import build_df_table

        # distributed combined-dictionary df pass over A ∪ B
        df_table = build_df_table(toks_a.union(toks_b))
    wt_ref = ray.put(word_weights(df_table, n))
    common = dict(wt_ref=wt_ref, sim=sim, threshold=threshold,
                  pair_partitions=cfg.pair_partitions,
                  salt_df_threshold=cfg.salt_df_threshold,
                  salt_factor=cfg.salt_factor)
    sigs_a = toks_a.map_batches(
        _emit_weighted_signatures, fn_kwargs=dict(common, rs_side=0),
        batch_format="pyarrow")
    sigs_b = toks_b.map_batches(
        _emit_weighted_signatures, fn_kwargs=dict(common, rs_side=1),
        batch_format="pyarrow")
    candidates = sigs_a.union(sigs_b).groupby("pb").map_groups(
        _pairgen_weighted,
        fn_kwargs={"sim": sim, "threshold": threshold,
                   "alpha": _weight_ratio(sim, threshold), "rs": True,
                   "chunk": H.PAIR_CHUNK},
        batch_format="pyarrow",
    )
    return _weighted_verify_stage(
        candidates, idx, toks_a, toks_b, wt_ref=wt_ref, sim=sim,
        threshold=threshold, round_to=round_to, cfg=cfg)
