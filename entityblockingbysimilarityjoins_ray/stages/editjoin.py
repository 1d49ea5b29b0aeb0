"""Edit-distance joins: lev(s1, s2) <= D (self and RS).

Distributed PassJoin (Li et al., VLDB'11) — same candidate scheme as the
reference's StringJoin (/root/reference/cpp/common/stringjoin.{h,cc}: strings
partitioned into D+1 segments, inverted lists keyed by (length, segment-id,
segment-hash), candidates via substring selection, banded-DP verify; RS
variant stringjoin_parallel.h:487-488):

- INDEX role: each string of length L emits its D+1 segments as keys
  (L, seg_idx, segment-hash).
- PROBE role: each string s emits every substring of the matching segment
  length whose start position lies within the +-D shift window of the
  segment's position (the complete position window; the reference's tighter
  multi-match selection is an optimization, not a semantic difference).
- under the broadcast gate (verify.should_broadcast on count and bytes) the
  index side's keys are built on the driver, sorted with their row numbers
  and broadcast with its ids, values and lengths; each probe task finds its
  keys' matches by ``searchsorted`` ranges (the reference's inverted-list
  probe, stringjoin.h:58-60), length-filters, dedupes (probe row, index
  row) in-task — exact, as a probe record lives in one task and a self pair
  is kept only from its longer (or, at equal length, larger-id) record —
  and verifies exact Levenshtein <= D.  No shuffle.  Candidates expand in
  chunks of at most ``_PROBE_CHUNK`` pairs cut between probe records, so a
  hot key holds one chunk plus one record's distinct candidates.
- beyond it, the keys hash-partition: pairs form within identical keys
  (index x probe, bipartite; a self join also pairs index-index rows of
  equal length, triangle), and the slim (k1, k2) pairs grid-shuffle ONCE
  against VALUE shard stores and verify in-cell (verify.grid_verify with
  the _lev_cell kernel; cell-local dedup is globally exact).

Signature hashing is one vectorized pass per batch: a polynomial prefix hash
(wrapping uint64, odd base, over codepoint + 1) of the batch's flat UTF-32
buffer, each span normalized by an inverse-base power, so the hash of
(row, start, len) is two prefix gathers and one multiply for every length.

Strings shorter than the segment count produce empty segments, which makes
the scheme degrade gracefully into length-bucket all-pairs for very short
strings (still exact).
"""

from __future__ import annotations

from functools import lru_cache

import numpy as np
import pandas as pd
import pyarrow as pa
import ray.data

from ..config import PipelineConfig
from ..functions import sims as S
from ..functions.hashing import bipartite_pairs, bucket_of, get_broadcast

_U64 = np.uint64
_BASE = 0x100000001B3  # odd, so invertible mod 2^64
_BASE_INV = pow(_BASE, -1, 1 << 64)
_ROLES = {"self": (("index", 0), ("probe_le", 1)),
          "index": (("index", 0),),
          "probe": (("probe_all", 1),)}
_PROBE_CHUNK = 262_144  # raw candidates per probe expansion (_iter_triangle_chunks' budget)


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


@lru_cache(maxsize=128)  # an entry holds O(D^3) rows
def _emission_specs(L: int, D: int, role: str) -> np.ndarray:
    """(l, seg_idx, start, seg_len) emissions for a length-L string, as an
    (m, 4) int64 table.

    role='index': own segments at their own positions.
    role='probe_le': substrings for indexed lengths l in [L-D, L], skipping
      the (l==L, st==p) emission that would duplicate the index row
      (self-join: equal-length index-index pairs meet as a triangle).
    role='probe_all': substrings for l in [L-D, L+D] including (l==L, st==p)
      (RS probe side: the probe table emits no index rows)."""
    out = []
    if role == "index":
        for i, (p, sl) in enumerate(_segments(L, D + 1)):
            out.append((L, i, p, sl))
        return np.array(out, np.int64).reshape(-1, 4)
    lo_l = max(0, L - D)
    hi_l = L + D if role == "probe_all" else L
    for l in range(lo_l, hi_l + 1):
        for i, (p, sl) in enumerate(_segments(l, D + 1)):
            lo = max(0, p - D)
            hi = min(L - sl, p + D)
            for st in range(lo, hi + 1):
                if role == "probe_le" and l == L and st == p:
                    continue
                out.append((l, i, st, sl))
    return np.array(out, np.int64).reshape(-1, 4)


def _powers(base: int, n: int) -> np.ndarray:
    p = np.full(n, base, _U64)
    p[0] = 1
    return np.cumprod(p)  # wrapping uint64


def _edit_signatures(vals: np.ndarray, D: int, roles) -> tuple:
    """Every emission of ``vals`` (object array of str) under ``roles``
    ((role, side), ...): ``(row, key, side, lens)``, rows ascending, keys
    int64, ``lens`` the per-value codepoint lengths."""
    n = vals.size
    lens = np.fromiter(map(len, vals), np.int64, count=n)
    if n == 0:
        e = np.empty(0, np.int64)
        return e, e, e, lens
    uniq, inv = np.unique(lens, return_inverse=True)
    tab, cnt = [], np.zeros(uniq.size, np.int64)
    for u, L in enumerate(uniq.tolist()):
        for role, side in roles:
            t = _emission_specs(L, D, role)
            tab.append(np.column_stack((t, np.full(len(t), side, np.int64))))
            cnt[u] += len(t)
    tab = np.concatenate(tab)
    rep = cnt[inv]
    row = np.repeat(np.arange(n), rep)
    first = np.cumsum(rep) - rep
    spec = np.repeat((np.cumsum(cnt) - cnt)[inv] - first, rep) + np.arange(rep.sum())
    l, seg, st, sl, side = tab[spec].T
    # prefix hash over the flat codepoints, exponents relative to each row
    cp = np.frombuffer("".join(vals).encode("utf-32-le", "surrogatepass"), np.uint32)
    off = np.cumsum(lens) - lens
    rel = np.arange(cp.size) - np.repeat(off, lens)
    m = int(lens.max()) + 1
    G = np.zeros(cp.size + 1, _U64)
    np.cumsum((cp.astype(_U64) + _U64(1)) * _powers(_BASE, m)[rel], out=G[1:])
    a = off[row] + st
    h = (G[a + sl] - G[a]) * _powers(_BASE_INV, m)[st]
    key = h.view(np.int64) ^ (l * 1315423911 + seg * 2654435761)
    return row, key, side, lens


class EditSignatureEmitter:
    """Emit index/probe rows for the hash-partitioned plan.

    ``mode``: 'self' (index + probe_le, sides 0/1), 'index' (RS table B,
    side 0 only), 'probe' (RS table A, probe_all, side 1 only)."""

    def __init__(self, D: int, pair_partitions: int, mode: str = "self"):
        self.D = D
        self.P = pair_partitions
        self.mode = mode

    def __call__(self, batch: pd.DataFrame) -> pd.DataFrame:
        ids = batch["conv_id"].astype(str).to_numpy(object)
        vals = batch["val"].fillna("").astype(str).to_numpy(object)
        row, key, side, lens = _edit_signatures(vals, self.D, _ROLES[self.mode])
        return pd.DataFrame({
            "pb": bucket_of(key, self.P).astype(np.int32), "key": key,
            "side": side.astype(np.int8), "id": ids[row], "slen": lens[row]})


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


def _strs(t: pa.Table, col: str) -> np.ndarray:
    if col not in t.column_names:  # a fully-empty dataset loses its schema
        return np.empty(0, object)
    return np.asarray(t.column(col).to_numpy(zero_copy_only=False), dtype=object)


def _check_unique(ids: np.ndarray, table: str) -> None:
    dup = pd.Index(ids).duplicated()
    if dup.any():
        raise ValueError(f"edit join: conv_id {ids[dup.argmax()]!r} occurs more "
                         f"than once in table {table}")


def _expand(row, lo, cnt, chunk: int):
    """Yield ``(e, r, cut)`` chunks of the raw candidate space — emission
    ``e``'s match at sorted-index position ``r`` — of at most ``chunk``
    pairs, cut between probe records (``row`` ascending) unless one record
    alone exceeds it; ``cut`` says the chunk ends inside a record."""
    end = np.cumsum(cnt)
    rec_end = end[np.flatnonzero(np.r_[row[1:] != row[:-1], True])] if row.size else end
    total = int(end[-1]) if end.size else 0
    p0 = 0
    while p0 < total:
        k = int(np.searchsorted(rec_end, p0 + chunk, "right"))
        cut = k == 0 or rec_end[k - 1] <= p0
        p1 = p0 + chunk if cut else int(rec_end[k - 1])
        pos = np.arange(p0, p1)
        e = np.searchsorted(end, pos, "right")
        yield e, lo[e] + pos - (end[e] - cnt[e]), cut
        p0 = p1


def _edit_probe(t: pa.Table, *, ref, D: int, rs: bool, chunk: int) -> pa.Table:
    """Probe a batch of (conv_id, val) records against the broadcast index
    (see the module docstring); emits verified ``{id1, id2, sim}`` rows."""
    bids, bvals, blens, skeys, srows = get_broadcast(ref)
    ids, vals = _strs(t, "conv_id"), _strs(t, "val")
    row, key, _, lens = _edit_signatures(vals, D, _ROLES["probe" if rs else "self"])
    lo = np.searchsorted(skeys, key, "left")
    cnt = np.searchsorted(skeys, key, "right") - lo
    hit = cnt > 0
    row, lo, cnt = row[hit], lo[hit], cnt[hit]
    nb = max(bids.size, 1)
    out1, out2, outd = [np.empty(0, object)], [np.empty(0, object)], [np.empty(0)]
    carry = np.empty(0, np.int64)  # codes seen of the record cut at the last chunk end
    for e, r, cut in _expand(row, lo, cnt, chunk):
        x, y = row[e], srows[r]
        lx, ly = lens[x], blens[y]
        keep = np.abs(lx - ly) <= D
        if not rs:  # keep a self pair only from its longer / larger-id record
            keep &= ly <= lx
            eq = np.flatnonzero(keep & (ly == lx))
            keep[eq] = bids[y[eq]] < ids[x[eq]]
        code = np.unique(x[keep] * nb + y[keep])
        if carry.size:
            code = code[~np.isin(code, carry)]
        last = x[-1] if cut else -1
        carry = np.union1d(carry[carry // nb == last], code[code // nb == last])
        xs, ys = code // nb, code % nb
        d = S.lev_dist_batch(vals[xs], bvals[ys]) if code.size else np.empty(0, np.int64)
        ok = d <= D
        a, b = ids[xs[ok]], bids[ys[ok]]
        if not rs:
            a, b = np.where(a < b, a, b), np.where(a < b, b, a)
        out1.append(a)
        out2.append(b)
        outd.append(d[ok].astype(np.float64))
    return pa.table({"id1": pa.array(np.concatenate(out1), pa.string()),
                     "id2": pa.array(np.concatenate(out2), pa.string()),
                     "sim": pa.array(np.concatenate(outd), pa.float64())})


def _proj(docs, attr: str | None):
    """(conv_id, val) string projection; a null value reads as "".
    ``attr=None`` projects the ids alone (every val null)."""
    def f(t: pa.Table) -> pa.Table:
        val = (t.column(attr).to_pandas().fillna("").astype(str) if attr
               else [None] * t.num_rows)
        return pa.table({"conv_id": pa.array(t.column("conv_id").to_pandas().astype(str),
                                             pa.string()),
                         "val": pa.array(val, pa.string())})

    return docs.map_batches(f, batch_format="pyarrow")


def _edit_join(docs_a, docs_b, attr: str, D: int, cfg: PipelineConfig,
               n_records: int | None) -> "ray.data.Dataset":
    """The self (``docs_b is None``) or RS edit join on either plan, gated
    like setsim_rs_join: count and bytes of the input datasets (both free
    when those are materialized)."""
    from .verify import collect_arrow, should_broadcast

    rs = docs_b is not None
    sides = [docs_a, docs_b] if rs else [docs_a]
    if n_records is None:
        n_records = sum(d.count() for d in sides)
    try:
        sz = sum(d.size_bytes() for d in sides)
    except Exception:
        sz = None
    proj_a = _proj(docs_a, attr)
    if should_broadcast(None, n_records, cfg.broadcast_limit,
                        cfg.broadcast_bytes_limit, size_bytes=sz):
        # ONE collect: the index side's (conv_id, val) and, for RS, A's ids
        # (null val) for the duplicate check
        tbl = collect_arrow(_proj(docs_b, attr).union(_proj(docs_a, None)) if rs else proj_a)
        ids, vals = _strs(tbl, "conv_id"), _strs(tbl, "val")
        on_a = pd.isna(vals) if rs else np.zeros(ids.size, bool)
        _check_unique(ids[on_a], "A")
        bids, bvals = ids[~on_a], vals[~on_a]
        _check_unique(bids, "B" if rs else "A")
        row, key, _, blens = _edit_signatures(bvals, D, _ROLES["index"])
        order = np.argsort(key, kind="stable")
        ref = ray.put((bids, bvals, blens, key[order], row[order]))
        return proj_a.map_batches(
            _edit_probe, batch_format="pyarrow",
            fn_kwargs=dict(ref=ref, D=D, rs=rs, chunk=_PROBE_CHUNK))
    from .blocking import verify_shards
    from .verify import build_token_shard_store, grid_verify, slim_pairs

    def store(proj):
        return build_token_shard_store(proj, num_shards=verify_shards(cfg),
                                       store_dir=cfg.shard_store_dir, payload_col="val")

    if not rs:
        sigs = proj_a.map_batches(EditSignatureEmitter(D, cfg.pair_partitions),
                                  batch_format="pandas")
        store_b = None
    else:
        proj_b = _proj(docs_b, attr)
        sigs = proj_b.map_batches(
            EditSignatureEmitter(D, cfg.pair_partitions, mode="index"), batch_format="pandas"
        ).union(proj_a.map_batches(
            EditSignatureEmitter(D, cfg.pair_partitions, mode="probe"), batch_format="pandas"))
        store_b = store(proj_b)
    candidates = sigs.groupby("pb").map_groups(
        _edit_pairgen, fn_kwargs={"D": D, "rs": rs}, batch_format="pandas")
    return grid_verify(slim_pairs(candidates, canonical=not rs), store(proj_a),
                       _lev_cell(D), store_b=store_b)


def edit_self_join(
    docs: "ray.data.Dataset", attr: str, D: int, cfg: PipelineConfig,
    n_records: int | None = None,
) -> "ray.data.Dataset":
    """All pairs with levenshtein(attr) <= D; sim column = the distance."""
    return _edit_join(docs, None, attr, D, cfg, n_records)


def edit_rs_join(
    docs_a: "ray.data.Dataset", docs_b: "ray.data.Dataset", attr: str, D: int,
    cfg: PipelineConfig, n_records: int | None = None,
) -> "ray.data.Dataset":
    """RS edit join: pairs (a in A, b in B) with levenshtein <= D
    (reference StringJoinParallel::RSJoin, stringjoin_parallel.h:487-488).
    B is the index side (segments), A the probe side (substrings over
    lengths [|a|-D, |a|+D])."""
    return _edit_join(docs_a, docs_b, attr, D, cfg, n_records)


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
        # class saves ~3 shuffle stages of pure orchestration overhead.
        # One bincount row per batch: the driver sums len(tops)-wide partials
        tops_arr = np.asarray(tops, np.int64)
        hist = proj.map_batches(
            lambda t: pa.table({"n": [np.bincount(np.searchsorted(
                tops_arr, np.asarray(pc.utf8_length(pc.fill_null(
                    pc.cast(t.column("val"), pa.string()), "")),
                    dtype=np.int64)), minlength=len(tops))]}),
            batch_format="pyarrow",
        ).to_pandas()["n"]
        counts = sum(hist, np.zeros(len(tops), np.int64)).tolist()
        parts = []
        for i, top in enumerate(tops):
            ki = int(np.floor((1.0 - s) * top + 1e-9))
            if counts[i] >= 2:
                parts.append(edit_self_join(
                    len_slice(bounds[i], top), "val", ki, cfg,
                    n_records=counts[i]))
            if i + 1 < len(tops) and counts[i] and counts[i + 1]:
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
    # the raw pairgen fan-out
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
