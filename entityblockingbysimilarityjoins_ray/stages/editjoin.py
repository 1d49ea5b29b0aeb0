"""Edit-distance joins: lev(s1, s2) <= D (self and RS).

Distributed PassJoin (Li et al., VLDB'11) — same candidate scheme as the
reference's StringJoin (/root/reference/cpp/common/stringjoin.{h,cc}: strings
partitioned into D+1 segments, inverted lists keyed by (length, segment-id,
segment-hash), candidates via substring selection, banded-DP verify; RS
variant stringjoin_parallel.h:487-488) — re-expressed as a Ray Data shuffle:

- INDEX role: each string of length L emits its D+1 segments as keys
  (L, seg_idx, segment-hash).
- PROBE role: each string s emits every substring of the matching segment
  length whose start position lies within the +-D shift window of the
  segment's position (the complete position window; the reference's tighter
  multi-match selection is an optimization, not a semantic difference).
- pairs form within identical keys (index-side x probe-side, bipartite);
  self-join additionally pairs index-index rows of equal length (triangle).
- verification = exact Levenshtein <= D, via a broadcast value map under
  ``broadcast_limit``; beyond it the slim (k1, k2) pairs grid-shuffle ONCE
  against VALUE shard stores and verify in-cell (verify.grid_verify with
  the _lev_cell kernel — no value broadcast, no per-side hash join,
  cell-local dedup globally exact; the scale path).

Signature hashing is vectorized: each length class becomes an (n, L) uint32
codepoint matrix (numpy "U" view), and every (l, seg, shift) emission is one
FNV pass over sl matrix columns — no per-row Python string slicing.

Strings shorter than the segment count produce empty segments, which makes
the scheme degrade gracefully into length-bucket all-pairs for very short
strings (still exact).
"""

from __future__ import annotations

import numpy as np
import pandas as pd
import pyarrow as pa
import ray.data

from ..config import PipelineConfig
from ..functions import sims as S
from ..functions.hashing import bipartite_pairs, bucket_of, get_broadcast

_U64 = np.uint64
_FNV_OFFSET = _U64(0xCBF29CE484222325)
_FNV_PRIME = _U64(0x100000001B3)


def _segments(length: int, k: int) -> list[tuple[int, int]]:
    """(start, seg_len) for the k segments of a length-`length` string:
    first k - (length % k) segments get floor(length/k), the rest one more
    (even partition, same spirit as stringjoin.h:33-34)."""
    base = length // k
    rem = length % k
    out = []
    pos = 0
    for i in range(k):
        sl = base + (1 if i >= k - rem else 0)
        out.append((pos, sl))
        pos += sl
    return out


def _codepoint_matrix(vals: np.ndarray, L: int) -> np.ndarray:
    """(n, L) uint32 codepoint matrix for equal-length strings (vectorized
    via numpy's fixed-width unicode memory layout, cf. tokenize._qgram_hashes)."""
    n = vals.size
    if L == 0:
        return np.zeros((n, 0), np.uint32)
    u = np.asarray(vals, dtype=f"U{L}")
    return u.view(np.uint32).reshape(n, L)


def _span_hash(M: np.ndarray, st: int, sl: int) -> np.ndarray:
    """FNV-1a over codepoint columns st..st+sl (one vectorized pass/row)."""
    h = np.full(M.shape[0], _FNV_OFFSET, dtype=_U64)
    for c in range(st, st + sl):
        h = (h ^ M[:, c].astype(_U64)) * _FNV_PRIME
    return h.view(np.int64)


def _emission_specs(L: int, D: int, k: int, role: str) -> list[tuple[int, int, int, int]]:
    """(l, seg_idx, start, seg_len) emissions for a length-L string.

    role='index': own segments at their own positions.
    role='probe_le': substrings for indexed lengths l in [L-D, L], skipping
      the (l==L, st==p) emission that would duplicate the index row
      (self-join: equal-length index-index pairs meet as a triangle).
    role='probe_all': substrings for l in [L-D, L+D] including (l==L, st==p)
      (RS probe side: the probe table emits no index rows)."""
    out = []
    if role == "index":
        for i, (p, sl) in enumerate(_segments(L, k)):
            out.append((L, i, p, sl))
        return out
    lo_l = max(0, L - D)
    hi_l = L + D if role == "probe_all" else L
    for l in range(lo_l, hi_l + 1):
        for i, (p, sl) in enumerate(_segments(l, k)):
            lo = max(0, p - D)
            hi = min(L - sl, p + D)
            for st in range(lo, hi + 1):
                if role == "probe_le" and l == L and st == p:
                    continue
                out.append((l, i, st, sl))
    return out


class EditSignatureEmitter:
    """Emit index/probe rows; vectorized per length-class within a batch.

    ``mode``: 'self' (index + probe_le, sides 0/1), 'index' (RS table B,
    side 0 only), 'probe' (RS table A, probe_all, side 1 only)."""

    def __init__(self, D: int, pair_partitions: int, mode: str = "self"):
        self.D = D
        self.k = D + 1
        self.P = pair_partitions
        self.mode = mode

    def __call__(self, batch: pd.DataFrame) -> pd.DataFrame:
        ids = batch["conv_id"].astype(str).to_numpy(object)
        vals = batch["val"].fillna("").astype(str).to_numpy(object)
        lens = np.array([len(v) for v in vals], dtype=np.int64)
        out_key, out_id, out_side, out_len = [], [], [], []
        roles = {"self": (("index", 0), ("probe_le", 1)),
                 "index": (("index", 0),),
                 "probe": (("probe_all", 1),)}[self.mode]
        for L in np.unique(lens):
            rows = np.flatnonzero(lens == L)
            sub_ids = ids[rows]
            M = _codepoint_matrix(vals[rows], int(L))
            for role, side in roles:
                for l, i, st, sl in _emission_specs(int(L), self.D, self.k, role):
                    if sl == 0:
                        h = np.zeros(rows.size, np.int64)
                    else:
                        h = _span_hash(M, st, sl)
                    key = h ^ (l * 1315423911 + i * 2654435761)
                    out_key.append(key)
                    out_id.append(sub_ids)
                    out_side.append(np.full(rows.size, side, np.int8))
                    out_len.append(np.full(rows.size, L, np.int64))
        if not out_key:
            return pd.DataFrame(
                {"pb": pd.Series(dtype=np.int32), "key": pd.Series(dtype=np.int64),
                 "side": pd.Series(dtype=np.int8), "id": pd.Series(dtype=str),
                 "slen": pd.Series(dtype=np.int64)}
            )
        key = np.concatenate(out_key)
        return pd.DataFrame(
            {
                "pb": bucket_of(key, self.P).astype(np.int32),
                "key": key,
                "side": np.concatenate(out_side),
                "id": np.concatenate(out_id),
                "slen": np.concatenate(out_len),
            }
        )


def _edit_pairgen(df: pd.DataFrame, D: int, rs: bool = False) -> pd.DataFrame:
    key = df["key"].to_numpy(np.int64)
    side = df["side"].to_numpy(np.int8)
    ids = df["id"].to_numpy().astype("U")
    slen = df["slen"].to_numpy(np.int64)
    order = np.lexsort((side, key))
    key, side, ids, slen = key[order], side[order], ids[order], slen[order]
    change = np.flatnonzero(key[1:] != key[:-1]) + 1
    starts = np.concatenate(([0], change))
    sizes = np.diff(np.concatenate((starts, [key.size])))
    run_id = np.repeat(np.arange(sizes.size), sizes)
    na = np.zeros(sizes.size, np.int64)
    np.add.at(na, run_id[side == 0], 1)
    nb = sizes - na
    # index-side x probe-side (bipartite); self-join also needs index-index
    # pairs of equal length (both emitted identical index keys) -> triangle
    from ..functions.hashing import within_group_pairs

    if rs:
        i1 = j1 = np.empty(0, np.int64)
    else:
        i1, j1 = within_group_pairs(na)
        if i1.size:
            rel = np.concatenate(([0], np.cumsum(na)[:-1]))
            npg = na * (na - 1) // 2
            grp = np.repeat(np.arange(na.size), npg)
            i1 = i1 + (starts[grp] - rel[grp])
            j1 = j1 + (starts[grp] - rel[grp])
    i2, j2 = bipartite_pairs(starts, na, starts + na, nb)
    ii = np.concatenate((i1, i2))
    jj = np.concatenate((j1, j2))
    if ii.size == 0:
        return pd.DataFrame({"id1": pd.Series(dtype=str), "id2": pd.Series(dtype=str)})
    mask = np.abs(slen[ii] - slen[jj]) <= D
    if rs:
        # side 0 = index table (B), side 1 = probe table (A): output (A, B)
        a, b = ids[jj][mask], ids[ii][mask]
        return pd.DataFrame({"id1": a, "id2": b})
    mask &= ids[ii] != ids[jj]
    a, b = ids[ii][mask], ids[jj][mask]
    swap = a > b
    return pd.DataFrame({"id1": np.where(swap, b, a), "id2": np.where(swap, a, b)})


def _edit_verify(batch: pd.DataFrame, *, val_ref, D: int) -> pd.DataFrame:
    """Exact Levenshtein <= D on the candidate pairs (values broadcast,
    stateless task with per-worker cache).  val_ref -> (vmap_a, vmap_b)."""
    vmap_a, vmap_b = get_broadcast(val_ref)
    if not len(batch):
        return pd.DataFrame({"id1": pd.Series(dtype=str), "id2": pd.Series(dtype=str),
                             "sim": pd.Series(dtype=float)})
    a = vmap_a.reindex(batch["id1"]).to_numpy(object)
    b = vmap_b.reindex(batch["id2"]).to_numpy(object)
    d = S.lev_dist_batch(a, b)
    keep = d <= D
    out = batch.loc[keep, ["id1", "id2"]].copy()
    out["sim"] = d[keep].astype(np.float64)
    return out


def _collect_vmap(proj: "ray.data.Dataset") -> pd.Series:
    from .verify import collect_arrow

    tbl = collect_arrow(proj)
    if "val" not in tbl.column_names:  # fully-empty dataset loses its schema
        return pd.Series(np.empty(0, object), index=pd.Index([], dtype=object))
    return pd.Series(
        np.asarray(tbl.column("val").to_numpy(zero_copy_only=False), dtype=object),
        index=pd.Index(np.asarray(tbl.column("conv_id").to_numpy(zero_copy_only=False), dtype=object)),
    )


def _lev_kernel(a: np.ndarray, b: np.ndarray, D: int):
    """Grid-cell verify kernel: exact Levenshtein <= D over aligned payload
    arrays; sim = the distance (the edit joins' output convention)."""
    d = S.lev_dist_batch(a, b)
    return d.astype(np.float64), d <= D


def _lev_cell(D: int):
    """Value grid kernel (verify.grid_verify): _lev_kernel over the cell's
    two value shards' payload strings."""
    from .verify import GridKernel, _load_value_shard

    def verify(sh1, r1, sh2, r2):
        sim, keep = _lev_kernel(sh1.vals[r1], sh2.vals[r2], D)
        rows = np.flatnonzero(keep)
        return rows, sim[rows]

    return GridKernel(_load_value_shard, verify)


def _edit_verify_stage(
    candidates, proj_a, proj_b, D: int, cfg: PipelineConfig, n_records: int | None
):
    """Broadcast-or-grid verification switch (mirrors verify_pairs).

    ``candidates`` arrive RAW (with cross-bucket duplicates).  Under the
    broadcast gate they dedupe first — the DuckDB lev kernel is expensive
    per pair, so sorting the slim pairs beats re-verifying copies.  Beyond
    it, the pairs grid-shuffle ONCE against VALUE shard stores
    (verify.grid_verify, _lev_cell): cell-local dedup is globally
    exact and the in-cell lev kernel needs no value broadcast — replacing
    the former dedupe + two hash-join sorts, whose fixed shuffle latency
    made the sf0.1 join-path lev RS leg run no faster at 32 cpus than 8."""
    import ray

    from .blocking import dedupe_pairs, survivor_partitions

    if n_records is None:
        n_records = proj_a.count() + (0 if proj_b is proj_a else proj_b.count())
    if n_records <= cfg.broadcast_limit:
        # PassJoin candidates are signature-collision-bounded (~record-scale,
        # not pair-scale: 41k raw from 50k records at sf0.1), so the dedup
        # sort runs at the survivor fan-out — at the full pairgen fan-out its
        # 2048 near-empty reduce tasks cost 3x the sort itself
        candidates = dedupe_pairs(candidates, survivor_partitions(cfg))
        vmap_a = _collect_vmap(proj_a)
        vmap_b = vmap_a if proj_b is proj_a else _collect_vmap(proj_b)
        ref = ray.put((vmap_a, vmap_b))
        return candidates.map_batches(
            _edit_verify, fn_kwargs=dict(val_ref=ref, D=D), batch_format="pandas",
            batch_size=8192,
        )
    from .blocking import verify_shards
    from .verify import build_token_shard_store, grid_verify, slim_pairs

    ns = verify_shards(cfg)
    self_mode = proj_b is proj_a
    store_a = build_token_shard_store(
        proj_a, num_shards=ns, store_dir=cfg.shard_store_dir,
        payload_col="val")
    store_b = (None if self_mode else build_token_shard_store(
        proj_b, num_shards=ns, store_dir=cfg.shard_store_dir,
        payload_col="val"))
    return grid_verify(slim_pairs(candidates, canonical=self_mode), store_a,
                       _lev_cell(D), store_b=store_b)


def _proj(docs, attr):
    return docs.map_batches(
        lambda df: pd.DataFrame({"conv_id": df["conv_id"].astype(str), "val": df[attr].fillna("")}),
        batch_format="pandas",
    )


def edit_self_join(
    docs: "ray.data.Dataset", attr: str, D: int, cfg: PipelineConfig,
    n_records: int | None = None,
) -> "ray.data.Dataset":
    """All pairs with levenshtein(attr) <= D; sim column = the distance."""
    proj = _proj(docs, attr)
    sigs = proj.map_batches(EditSignatureEmitter(D, cfg.pair_partitions), batch_format="pandas")
    candidates = sigs.groupby("pb").map_groups(
        _edit_pairgen, fn_kwargs={"D": D}, batch_format="pandas"
    )
    # dedup happens inside the verify stage: a sort under the broadcast
    # gate, cell-locally (exact) on the grid path
    return _edit_verify_stage(candidates, proj, proj, D, cfg, n_records)


def edit_rs_join(
    docs_a: "ray.data.Dataset", docs_b: "ray.data.Dataset", attr: str, D: int,
    cfg: PipelineConfig, n_records: int | None = None,
) -> "ray.data.Dataset":
    """RS edit join: pairs (a in A, b in B) with levenshtein <= D
    (reference StringJoinParallel::RSJoin, stringjoin_parallel.h:487-488).
    B is the index side (segments), A the probe side (substrings over
    lengths [|a|-D, |a|+D])."""
    proj_a = _proj(docs_a, attr)
    proj_b = _proj(docs_b, attr)
    sigs = proj_b.map_batches(
        EditSignatureEmitter(D, cfg.pair_partitions, mode="index"), batch_format="pandas"
    ).union(proj_a.map_batches(
        EditSignatureEmitter(D, cfg.pair_partitions, mode="probe"), batch_format="pandas"
    ))
    candidates = sigs.groupby("pb").map_groups(
        _edit_pairgen, fn_kwargs={"D": D, "rs": True}, batch_format="pandas"
    )
    return _edit_verify_stage(candidates, proj_a, proj_b, D, cfg, n_records)


def _lev_sim_length_tops(lmax: int, s: float, max_classes: int = 6) -> list[int]:
    """Ascending length-class tops with ratio >= 1/s between successive tops
    (so only same-class and ADJACENT-class pairs can satisfy levSim >= s:
    |a| <= top_i and |b| > top_{i+1} >= top_i / s imply |a| < s*|b|, which
    contradicts d >= |b| - |a| <= (1-s)*|b|).  At most ``max_classes``."""
    if lmax <= 0:
        return [1]
    r = max(1.0 / s, float(lmax) ** (1.0 / max_classes))
    tops = [lmax]
    while tops[-1] > 1 and len(tops) < max_classes:
        nxt = int(np.floor(tops[-1] / r))
        if nxt < 1:
            break
        tops.append(nxt)
    return sorted(set(tops))


def lev_sim_self_join(
    docs: "ray.data.Dataset", attr: str, s: float, cfg: PipelineConfig,
    n_records: int | None = None, bucket_min_k: int = 8,
) -> "ray.data.Dataset":
    """All pairs with NORMALIZED Levenshtein similarity
    ``1 - d / max(|a|, |b|) >= s`` — the feature-domain lev
    (features._extract_batch), which a ``lev_sim`` blocking rule from a
    reference feature file thresholds (graph.py sort_ranges2).

    A fixed-distance PassJoin cannot take a normalized threshold directly.
    When the corpus bound ``K = floor((1-s) * Lmax)`` is small
    (< ``bucket_min_k``) ONE PassJoin at K suffices (sound superset:
    d <= (1-s)*max(|a|,|b|) <= (1-s)*Lmax).  Otherwise records are split
    into LENGTH CLASSES with tops in ratio >= 1/s, and the join runs as one
    per-class self-join at the class bound ``K_i = floor((1-s) * top_i)``
    plus one RS join per ADJACENT class pair at the larger class's bound —
    still an exact superset (non-adjacent classes cannot hold a passing
    pair, see _lev_sim_length_tops), but a single long outlier value no
    longer inflates K for every record (PassJoin pair generation degrades
    ~quadratically in K).  An exact normalized filter then keeps the true
    pairs.  Output sim = levSim."""
    if not (0.0 < s <= 1.0):
        raise ValueError(f"lev_sim threshold must be in (0, 1], got {s}")
    import pyarrow as pa
    import pyarrow.compute as pc
    import ray

    # materialize the NARROW (conv_id, val) projection once: the class path
    # below slices it ~2x-per-class (self + adjacent RS), and lmax / counts
    # / the verify value maps each consume it too — without this every
    # consumer re-executes the full upstream DAG (measured 282 s -> 8 s on
    # the sf0.01 skewed-head driver query, dominated by re-running the
    # canonicalize sort per slice)
    proj = _proj(docs, attr).materialize()
    lmax_pd = proj.map_batches(
        lambda t: pa.table({"l": pa.array(
            [pc.max(pc.utf8_length(pc.cast(t.column("val"), pa.string()))).as_py() or 0],
            pa.int64())}),
        batch_format="pyarrow",
    ).to_pandas()
    lmax = int(lmax_pd["l"].max()) if len(lmax_pd) else 0
    K = int(np.floor((1.0 - s) * lmax + 1e-9))
    if n_records is None:
        n_records = proj.count()

    def len_slice(lo: int, hi: int):
        """proj rows with lo < len(val) <= hi (len of the ""-filled value)."""
        def f(t: pa.Table) -> pa.Table:
            ln = pc.utf8_length(pc.fill_null(pc.cast(t.column("val"), pa.string()), ""))
            mask = pc.and_(pc.greater(ln, lo), pc.less_equal(ln, hi))
            return t.filter(mask)

        return proj.map_batches(f, batch_format="pyarrow")

    if K < bucket_min_k:
        pairs = edit_self_join(proj, "val", K, cfg, n_records=n_records)
    else:
        tops = _lev_sim_length_tops(lmax, s)
        bounds = [-1] + tops  # class i covers (bounds[i], bounds[i+1]]
        # one histogram pass -> per-class row counts, so EMPTY classes spawn
        # no join pipeline at all: on a skewed corpus (the whole point of
        # the decomposition) most classes hold nothing, and each skipped
        # class saves ~3 shuffle stages of pure orchestration overhead
        tops_arr = np.asarray(tops, np.int64)
        hist = proj.map_batches(
            lambda t: pa.table({"cls": pa.array(np.searchsorted(
                tops_arr, np.asarray(pc.utf8_length(pc.fill_null(
                    pc.cast(t.column("val"), pa.string()), "")),
                    dtype=np.int64)), pa.int64())}),
            batch_format="pyarrow",
        ).to_pandas()["cls"].value_counts()
        counts = {int(c): int(n) for c, n in hist.items()}
        parts = []
        for i, top in enumerate(tops):
            ki = int(np.floor((1.0 - s) * top + 1e-9))
            if counts.get(i, 0) >= 2:
                parts.append(edit_self_join(
                    len_slice(bounds[i], top), "val", ki, cfg,
                    n_records=counts[i]))
            if i + 1 < len(tops) and counts.get(i, 0) and counts.get(i + 1, 0):
                kij = int(np.floor((1.0 - s) * tops[i + 1] + 1e-9))
                rs = edit_rs_join(
                    len_slice(bounds[i], top),
                    len_slice(top, tops[i + 1]), "val", kij, cfg,
                    n_records=counts[i] + counts[i + 1])

                def canon(df: pd.DataFrame) -> pd.DataFrame:
                    # RS output is (A, B) order; self-join consumers expect
                    # lexicographic id1 < id2
                    a = df["id1"].astype(str).to_numpy(object)
                    b = df["id2"].astype(str).to_numpy(object)
                    swap = a > b
                    return pd.DataFrame({"id1": np.where(swap, b, a),
                                         "id2": np.where(swap, a, b),
                                         "sim": df["sim"].to_numpy(np.float64)})

                parts.append(rs.map_batches(canon, batch_format="pandas"))
        if not parts:  # no class holds a potential pair
            pairs = ray.data.from_arrow(pa.table({
                "id1": pa.array([], pa.string()),
                "id2": pa.array([], pa.string()),
                "sim": pa.array([], pa.float64()),
            }))
        else:
            pairs = parts[0]
            for p in parts[1:]:
                pairs = pairs.union(p)

    lens = proj.map_batches(
        lambda t: pa.table({
            "cid": t.column("conv_id"),
            "len": pc.cast(pc.utf8_length(pc.cast(t.column("val"), pa.string())), pa.int64()),
        }),
        batch_format="pyarrow",
    )

    def to_sim(d: np.ndarray, la: np.ndarray, lb: np.ndarray) -> np.ndarray:
        mx = np.maximum(la, lb).astype(np.float64)
        # empty-vs-empty -> 1.0, matching the lev feature kernel
        return np.where(mx > 0, 1.0 - d / np.maximum(mx, 1.0), 1.0)

    if n_records <= cfg.broadcast_limit:
        lt = lens.to_pandas()
        lmap = pd.Series(lt["len"].to_numpy(np.int64),
                         index=pd.Index(lt["cid"].astype(str)))
        ref = ray.put(lmap)
        from ..functions.hashing import get_broadcast

        def filt(df: pd.DataFrame) -> pd.DataFrame:
            m = get_broadcast(ref)
            la = m.reindex(df["id1"].astype(str)).to_numpy(np.float64)
            lb = m.reindex(df["id2"].astype(str)).to_numpy(np.float64)
            sim = to_sim(df["sim"].to_numpy(np.float64), la, lb)
            out = df[sim >= s - 1e-12].copy()
            out["sim"] = sim[sim >= s - 1e-12]
            return out

        return pairs.map_batches(filt, batch_format="pandas")

    from .blocking import survivor_partitions
    from .joins import hash_join
    from .verify import _rename

    # verified pairs are survivor-scale — join at the survivor fan-out, not
    # the raw pairgen fan-out (see _edit_verify_stage)
    l1 = _rename(lens, {"cid": "cid1", "len": "len1"})
    l2 = _rename(lens, {"cid": "cid2", "len": "len2"})
    j = hash_join(pairs, l1, on="id1", right_on="cid1",
                  num_partitions=survivor_partitions(cfg))
    j = hash_join(j, l2, on="id2", right_on="cid2",
                  num_partitions=survivor_partitions(cfg))

    def filt_j(t: "pa.Table") -> "pa.Table":
        d = np.asarray(t.column("sim"), dtype=np.float64)
        la = np.asarray(t.column("len1"), dtype=np.float64)
        lb = np.asarray(t.column("len2"), dtype=np.float64)
        sim = to_sim(d, la, lb)
        keep = sim >= s - 1e-12
        out = t.drop_columns(["len1", "len2"]).filter(pa.array(keep))
        i = out.column_names.index("sim")
        return out.set_column(i, "sim", pa.array(sim[keep], pa.float64()))

    return j.map_batches(filt_j, batch_format="pyarrow")
