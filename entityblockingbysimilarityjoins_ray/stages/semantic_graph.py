"""Semantic value graph — the reference's C++ ``group`` module
(/root/reference/cpp/group/graph.h, graph.cc, group.cc) re-expressed
Ray-Data-first.

The reference builds an undirected graph over the DISTINCT attribute values
seen in the match result: vertices are values, an edge (a, b) exists when a
candidate value pair's semantic similarity clears ``tau``
(graph.cc:95-121).  Two similarity strategies exist:

- **doc** — cosine of per-value doc embeddings (graph.cc:16-33
  calculateCosineSim over doc2vec vectors);
- **coherent** — the coherent-group factor over per-token WORD embeddings
  (graph.cc:36-53 calculateCoherentFactor): for the union X of the two
  values' token vectors, ``F(X) = (1/|X|) * sum_{i<j} cos(x_i, x_j)`` — a
  set-level coherence score rather than a pairwise one.

With ``two_hop=True`` the graph is closed over two-hop neighbors once
(graph.cc:123-156: "a ~ b, b ~ c, thus a ~ c if sim(a, c) >= tau"; the
header comment at graph.h:68-70 states the closure deliberately stops at
two hops).  This implementation runs ONE order-independent round over the
base edge set (the reference's in-place sequential loop lets freshly added
edges feed later vertices — a nondeterministic-order detail we trade for
determinism; the candidate two-hop pairs are identical).

Scale shape: the graph is VOCABULARY-sized (distinct matched values), which
is orders of magnitude below the record count — the reference holds all of
it in RAM on one node (group.cc:473-489).  Here the vocabulary state
(vectors + adjacency) is broadcast once per worker via ``ray.put`` and every
per-record / per-pair pass is a streaming ``map_batches``; only
vocabulary-sized tables are ever collected on the driver.  Two-hop pair
generation fans out of a ``groupby`` on the middle vertex with a logged
truncation cap, so one hub value cannot emit an unbounded cross product.
"""

from __future__ import annotations

import logging

import numpy as np
import pandas as pd
import pyarrow as pa
import ray
import ray.data

from ..functions import hashing as H
from ..functions.hashing import get_broadcast, iter_pairs
from .interchangeable import ValueEmbedder, embed_values, matched_values

logger = logging.getLogger(__name__)


# ---------------------------------------------------------------------------
# similarity state (broadcast once per worker; vocabulary-sized)
# ---------------------------------------------------------------------------


class _DocSimState:
    """Per-value unit doc-embedding rows; sim = dot product
    (calculateCosineSim, graph.cc:16-33 — the reference normalizes inside
    the cosine, unit rows make it a plain dot)."""

    def __init__(self, vocab: pd.Index, M: np.ndarray, embed_fn):
        self.vocab = vocab
        self.M = M  # (V, d) unit rows
        self._embed_fn = embed_fn

    def sim_idx(self, i: np.ndarray, j: np.ndarray) -> np.ndarray:
        return np.einsum("ij,ij->i", self.M[i], self.M[j])

    def embed_oov(self, vals: np.ndarray) -> np.ndarray:
        """Unit vectors for values OUTSIDE the vocabulary (reformat's
        doc2Vec.at(...) lookup covers every match-table value)."""
        return self._embed_fn(vals)

    def sim_rows_vs_vec(self, rows: np.ndarray, vec: np.ndarray) -> np.ndarray:
        return self.M[rows] @ vec

    def sim_rows_vs_rows(self, rows_a: np.ndarray, rows_b: np.ndarray) -> np.ndarray:
        return self.M[rows_a] @ self.M[rows_b].T


class _CoherentSimState:
    """Per-value DISTINCT token-id lists + unit token vectors; sim is the
    coherent factor F(X) over the token-vector union
    (calculateCoherentFactor, graph.cc:36-53).

    With unit token rows, ``sum_{i<j} cos = (||sum_i n_i||^2 - |X|) / 2``,
    so F(X) costs O(|X| * d) per pair instead of O(|X|^2 * d).  Zero-norm
    (untrained / OOV) token vectors are dropped from X — the reference
    would divide 0/0 there (calculateCosineSim has no guard)."""

    def __init__(self, vocab: pd.Index, emb: ValueEmbedder):
        self.vocab = vocab
        N = np.asarray(emb.vectors, np.float64)
        nrm = np.linalg.norm(N, axis=1)
        keep = nrm > 1e-12
        self.N = np.where(keep[:, None], N / np.maximum(nrm[:, None], 1e-30), 0.0)
        self._emb = emb
        # per-value sorted distinct token ids (kept tokens only), CSR layout
        # — ONE flattened get_indexer + fused-key dedup over all values
        # (the same offsets machinery as _inter_sums), not a per-value loop
        vals = np.asarray(vocab.to_numpy(), dtype=object)
        lists = emb._token_lists(vals)
        lens = np.fromiter((len(t) for t in lists), np.int64, len(vals))
        flat = np.asarray([t for l in lists for t in l], dtype=object)
        rows = np.repeat(np.arange(len(vals), dtype=np.int64), lens)
        ti = (emb.vocab.get_indexer(flat) if flat.size
              else np.empty(0, np.int64))
        ok = (ti >= 0) & keep[np.maximum(ti, 0)]
        rows, ti = rows[ok], ti[ok]
        m = np.int64(len(self.N) + 1)
        order = np.argsort(rows * m + ti, kind="stable")
        rows, ti = rows[order], ti[order]
        first = np.ones(ti.size, bool)
        first[1:] = (rows[1:] != rows[:-1]) | (ti[1:] != ti[:-1])
        rows, ti = rows[first], ti[first]
        self.tok_ids = ti
        self.k = np.bincount(rows, minlength=len(vals)).astype(np.int64)
        self.tok_offs = np.concatenate(([0], np.cumsum(self.k)))
        # per-value partial sums: S_v = sum of unit token rows (add.at over
        # the row-major sorted entries keeps the scalar path's ascending-id
        # per-row summation order)
        d = self.N.shape[1] if self.N.size else 0
        self.S = np.zeros((len(vals), d), np.float64)
        if ti.size:
            np.add.at(self.S, rows, self.N[ti])

    def _fx(self, Sa, ka, Sb, kb, inter_ids) -> float:
        """F over the union given both partial sums and the intersection
        (scalar form — kept as the tested definition the batched kernels
        below must agree with)."""
        Si = self.N[inter_ids].sum(axis=0) if inter_ids.size else 0.0
        S = Sa + Sb - Si
        k = int(ka + kb - inter_ids.size)
        if k <= 0:
            return 0.0
        return float((S @ S - k) / 2.0 / k)

    def _fx_batch(self, Sa, ka, Sb, kb, ci, Si) -> np.ndarray:
        """Vectorized F over per-pair partial sums + intersection sums."""
        S = Sa + Sb - Si
        k = (ka + kb - ci).astype(np.float64)
        dot = np.einsum("ij,ij->i", S, S) if S.size else np.zeros(len(k))
        with np.errstate(divide="ignore", invalid="ignore"):
            f = (dot - k) / 2.0 / k
        return np.where(k <= 0, 0.0, np.nan_to_num(f))

    def _inter_sums(self, ii: np.ndarray, jj: np.ndarray):
        """Per-pair |intersection| + vector sum over the intersection of the
        two sides' sorted token-id lists — ONE batched sorted-merge (fused
        pair-major int keys + searchsorted + bincount/add.at), replacing the
        former per-pair np.intersect1d loop."""
        from .verify import gather_lists

        n = ii.size
        va, oa = gather_lists(self.tok_ids, self.tok_offs, ii)
        vb, ob = gather_lists(self.tok_ids, self.tok_offs, jj)
        m = np.int64(len(self.N) + 1)
        ra = np.repeat(np.arange(n, dtype=np.int64), np.diff(oa))
        rb = np.repeat(np.arange(n, dtype=np.int64), np.diff(ob))
        # fused keys are globally sorted: ra ascends, within a row the token
        # ids ascend (lists are sorted at build time), and ids < m
        ka = ra * m + va
        kb = rb * m + vb
        d = self.N.shape[1] if self.N.size else 0
        Si = np.zeros((n, d), np.float64)
        if ka.size and kb.size:
            pos = np.searchsorted(ka, kb)
            hit = (pos < ka.size) & (ka[np.minimum(pos, ka.size - 1)] == kb)
        else:
            hit = np.zeros(kb.size, bool)
        ci = np.bincount(rb[hit], minlength=n).astype(np.int64)
        if hit.any():
            # add.at accumulates in kb order = per-pair ascending token id,
            # the same summation order as the scalar _fx's N[inter].sum
            np.add.at(Si, rb[hit], self.N[vb[hit]])
        return ci, Si

    def sim_idx(self, i: np.ndarray, j: np.ndarray) -> np.ndarray:
        ii = np.asarray(i, np.int64)
        jj = np.asarray(j, np.int64)
        if ii.size == 0:
            return np.empty(0, np.float64)
        ci, Si = self._inter_sums(ii, jj)
        return self._fx_batch(self.S[ii], self.k[ii], self.S[jj], self.k[jj],
                              ci, Si)

    def embed_oov(self, vals: np.ndarray):
        """Token-id lists for out-of-vocabulary values."""
        emb = self._emb
        res = []
        for toks in emb._token_lists(vals):
            ti = emb.vocab.get_indexer(pd.unique(pd.Series(toks, dtype=object)))
            ti = np.sort(ti[ti >= 0])
            ti = ti[np.linalg.norm(self.N[ti], axis=1) > 1e-12] if ti.size else ti
            res.append(ti)
        return res

    def sim_rows_vs_vec(self, rows: np.ndarray, oov_toks: np.ndarray) -> np.ndarray:
        """Rows vs ONE out-of-vocabulary token list (sorted), vectorized:
        membership of each row's tokens in the OOV list via one searchsorted."""
        from .verify import gather_lists

        rr = np.asarray(rows, np.int64)
        n = rr.size
        if n == 0:
            return np.empty(0, np.float64)
        d = self.N.shape[1] if self.N.size else 0
        Sb = self.N[oov_toks].sum(axis=0) if oov_toks.size else np.zeros(d)
        kb = np.int64(oov_toks.size)
        va, oa = gather_lists(self.tok_ids, self.tok_offs, rr)
        ra = np.repeat(np.arange(n, dtype=np.int64), np.diff(oa))
        if va.size and oov_toks.size:
            pos = np.searchsorted(oov_toks, va)
            hit = (pos < oov_toks.size) & (oov_toks[np.minimum(pos, oov_toks.size - 1)] == va)
        else:
            hit = np.zeros(va.size, bool)
        ci = np.bincount(ra[hit], minlength=n).astype(np.int64)
        Si = np.zeros((n, d), np.float64)
        if hit.any():
            np.add.at(Si, ra[hit], self.N[va[hit]])
        return self._fx_batch(self.S[rr], self.k[rr],
                              np.broadcast_to(Sb, (n, d)),
                              np.full(n, kb), ci, Si)

    def sim_rows_vs_rows(self, rows_a: np.ndarray, rows_b: np.ndarray) -> np.ndarray:
        """Full cross product via ONE batched sim_idx over the mesh."""
        a = np.asarray(rows_a, np.int64)
        b = np.asarray(rows_b, np.int64)
        if a.size == 0 or b.size == 0:
            return np.zeros((a.size, b.size), np.float64)
        ii = np.repeat(a, b.size)
        jj = np.tile(b, a.size)
        return self.sim_idx(ii, jj).reshape(a.size, b.size)


def _build_sim_state(vocab: pd.Index, strategy: str, embedder, *,
                     dim: int, tok: str, q: int):
    vals = np.asarray(vocab.to_numpy(), dtype=object)
    if strategy == "doc":
        if embedder is not None:
            emb = embedder if embedder.vocab is not None else embedder.train(vals)
            fn = emb.embed
        else:
            def fn(v):
                return embed_values(v, dim=dim, tok=tok, q=q)
        return _DocSimState(vocab, fn(vals), fn)
    if strategy == "coherent":
        emb = embedder or ValueEmbedder(dim=dim, tok=tok)
        if emb.vocab is None:
            emb.train(vals)
        return _CoherentSimState(vocab, emb)
    raise ValueError(f"unknown strategy {strategy!r} (use 'doc' or 'coherent')")


# ---------------------------------------------------------------------------
# value attach + candidate value pairs (the reference's
# readDocCandidatePairs input, group.cc:446-459: value pairs harvested from
# the match result)
# ---------------------------------------------------------------------------


def _attach_values(
    pairs: "ray.data.Dataset", docs: "ray.data.Dataset", attr: str,
    *, out_l: str, out_r: str, num_partitions: int,
    broadcast_limit: int, n_records: int | None = None,
) -> "ray.data.Dataset":
    """Append both sides' ``attr`` values to pair rows as STRING columns
    ``out_l``/``out_r`` through ``joins.attach_pairs`` — the one value
    attach of every group-module stage.  An id with no doc row and a null
    value both read "", so reformat/slim consumers see every pair row on
    either side of the gate."""
    import pyarrow.compute as pc

    from .joins import PairKernel, attach_pairs

    def load(tbl: pa.Table) -> np.ndarray:
        vals = pc.fill_null(pc.cast(tbl.column(attr), pa.string()), "")
        return np.append(np.asarray(vals.to_numpy(zero_copy_only=False), dtype=object), "")

    def apply(vals: np.ndarray, t: pa.Table, r1: np.ndarray, r2: np.ndarray) -> pa.Table:
        # row -1 (no doc) reads the trailing ""
        return (t.append_column(out_l, pa.array(vals[r1], pa.string()))
                 .append_column(out_r, pa.array(vals[r2], pa.string())))

    return attach_pairs(
        pairs, docs.select_columns(["conv_id", attr]), PairKernel(load, apply),
        broadcast_limit=broadcast_limit,
        n_records=n_records if n_records is not None else docs.count(),
        num_partitions=num_partitions)


def candidate_value_pairs(
    matches: "ray.data.Dataset", docs: "ray.data.Dataset", attr: str,
    *, num_partitions: int = 32, broadcast_limit: int = 2_000_000,
    n_records: int | None = None,
) -> "ray.data.Dataset":
    """Distinct canonical (v1 < v2) non-empty value pairs of ``attr`` over
    matched record pairs.  Values reach the pairs via ``_attach_values``;
    distinctness goes through the int-keyed ``dedupe_pairs`` (hash-bucket
    shuffle + vectorized in-bucket dedup) — a groupby on the raw string
    pair would shuffle long values and pay per-group pandas overhead on
    millions of single-row groups."""
    attached = _attach_values(
        matches.select_columns(["id1", "id2"]), docs, attr,
        out_l="__va", out_r="__vb", num_partitions=num_partitions,
        broadcast_limit=broadcast_limit, n_records=n_records)
    pairs = attached.map_batches(
        lambda t: _canon_pairs(
            np.asarray(t.column("__va").to_numpy(zero_copy_only=False), dtype=object),
            np.asarray(t.column("__vb").to_numpy(zero_copy_only=False), dtype=object)),
        batch_format="pyarrow")
    return _distinct_pairs(pairs, num_partitions)


def _distinct_pairs(pairs: "ray.data.Dataset", num_partitions: int) -> "ray.data.Dataset":
    """Distinct {v1, v2} via the blocking module's int-keyed pair dedup
    (pair identity = canonical 64-bit value-hash pair)."""
    from .blocking import dedupe_pairs

    dd = dedupe_pairs(
        pairs.map_batches(
            lambda df: df.drop_duplicates(["v1", "v2"]).rename(
                columns={"v1": "id1", "v2": "id2"}),
            batch_format="pandas"),
        num_partitions)
    return dd.map_batches(
        lambda t: pa.table({"v1": t.column("id1"), "v2": t.column("id2")}),
        batch_format="pyarrow")


def _canon_pairs(a: np.ndarray, b: np.ndarray) -> pa.Table:
    sa = pd.Series(a).fillna("").astype(str).to_numpy(object)
    sb = pd.Series(b).fillna("").astype(str).to_numpy(object)
    ok = (sa != "") & (sb != "") & (sa != sb)
    sa, sb = sa[ok], sb[ok]
    lo = np.minimum(sa, sb)
    hi = np.maximum(sa, sb)
    return pa.table({"v1": pa.array(lo, pa.string()), "v2": pa.array(hi, pa.string())})


# ---------------------------------------------------------------------------
# graph build
# ---------------------------------------------------------------------------


def semantic_graph(
    matches: "ray.data.Dataset", docs: "ray.data.Dataset", attr: str,
    *, tau: float = 0.8, strategy: str = "doc", two_hop: bool = False,
    embedder: ValueEmbedder | None = None, dim: int = 128, tok: str = "dlm",
    q: int = 3, num_partitions: int = 32, n_records: int | None = None,
    max_two_hop_group: int = 100_000,
) -> "ray.data.Dataset":
    """Build the semantic value graph: {val1, val2, sim} undirected edges
    (val1 < val2) over the distinct ``attr`` values of matched records.

    ``strategy='doc'`` scores candidate pairs by doc-embedding cosine
    (buildSemanticGraph over DocEmbedding, graph.cc:87-158);
    ``strategy='coherent'`` by the coherent-group factor over word
    embeddings (graph.cc:164-246).  ``two_hop=True`` adds one
    order-independent closure round: for every middle vertex v, each
    neighbor pair (a, b) with sim(a, b) >= tau becomes an edge
    (graph.cc:123-156).

    The similarity state is vocabulary-sized and broadcast; candidate
    scoring and two-hop verification stream through ``map_batches``."""
    vals_ds = matched_values(matches, docs, attr, num_partitions=num_partitions,
                             n_records=n_records).materialize()
    vocab = pd.Index(vals_ds.to_pandas()["val"].astype(str))  # vocabulary-sized
    # candidate_value_pairs dedupes on 64-bit value hashes — a collision
    # must fail LOUDLY (same contract as the hash-keyed verify paths),
    # not silently drop a candidate edge
    from ..functions.hashing import hash_strings

    if not pd.Index(hash_strings(np.asarray(vocab.to_numpy(), dtype=object))).is_unique:
        raise RuntimeError(
            "64-bit value-hash collision in the semantic-graph vocabulary; "
            "the hash-keyed candidate dedup is unsound for this value set")
    state = _build_sim_state(vocab, strategy, embedder, dim=dim, tok=tok, q=q)
    state_ref = ray.put(state)

    cands = candidate_value_pairs(matches, docs, attr,
                                  num_partitions=num_partitions,
                                  n_records=n_records)

    def score(t: pa.Table) -> pa.Table:
        st = get_broadcast(state_ref)
        v1 = np.asarray(t.column("v1").to_numpy(zero_copy_only=False), dtype=object)
        v2 = np.asarray(t.column("v2").to_numpy(zero_copy_only=False), dtype=object)
        i = st.vocab.get_indexer(v1)
        j = st.vocab.get_indexer(v2)
        ok = (i >= 0) & (j >= 0)
        i, j, v1, v2 = i[ok], j[ok], v1[ok], v2[ok]
        sim = st.sim_idx(i, j) if len(i) else np.empty(0)
        keep = sim >= tau
        return pa.table({
            "val1": pa.array(v1[keep], pa.string()),
            "val2": pa.array(v2[keep], pa.string()),
            "sim": pa.array(sim[keep], pa.float64()),
        })

    edges = cands.map_batches(score, batch_format="pyarrow")
    if not two_hop:
        return edges
    edges = edges.materialize()  # vocabulary-scale; reused for closure

    # --- one closure round, entirely in INDEX space: candidate two-hop
    # pairs fan out of a groupby on the middle vertex as int32 pairs (long
    # value strings never enter the closure shuffle), dedupe through the
    # int-keyed pair dedup, and only verified NEW edges materialize strings.
    from .blocking import dedupe_pairs

    epd = edges.to_pandas()  # vocabulary-scale (the reference holds the
    # whole graph in RAM, group.cc:473-489)
    ei = vocab.get_indexer(epd["val1"].astype(str)).astype(np.int64)
    ej = vocab.get_indexer(epd["val2"].astype(str)).astype(np.int64)
    V = len(vocab)
    ekeys = np.sort(np.minimum(ei, ej) * V + np.maximum(ei, ej))
    ekeys_ref = ray.put(ekeys)
    chunk = H.PAIR_CHUNK
    eidx = ray.data.from_arrow(pa.table({
        "mid": pa.array(np.concatenate([ei, ej]), pa.int64()),
        "nb": pa.array(np.concatenate([ej, ei]), pa.int64()),
    }))

    def neighbor_pairs(df: pd.DataFrame) -> pd.DataFrame:
        nb = np.sort(df["nb"].to_numpy(np.int64))
        n = len(nb)
        total = n * (n - 1) // 2
        if total > max_two_hop_group:
            # hub vertex: LOGGED truncation (mirrors the repo's hot-group
            # caps; the reference has no cap and would go quadratic)
            keep = int((2 * max_two_hop_group) ** 0.5) + 1
            logger.warning(
                "semantic_graph two_hop: truncating hub %d from %d to %d "
                "neighbors (%d pairs dropped)",
                int(df["mid"].iloc[0]), n, keep, total - keep * (keep - 1) // 2)
            nb = nb[:keep]
            n = len(nb)
        k1, k2 = [nb[:0]], [nb[:0]]
        for a, b in iter_pairs([0], [n], chunk=chunk):
            k1.append(nb[a])
            k2.append(nb[b])
        return pd.DataFrame({"k1": np.concatenate(k1), "k2": np.concatenate(k2)})

    hop2 = dedupe_pairs(
        eidx.groupby("mid").map_groups(neighbor_pairs, batch_format="pandas"),
        num_partitions)

    def verify_new(t: pa.Table) -> pa.Table:
        st = get_broadcast(state_ref)
        ek = get_broadcast(ekeys_ref)
        i = np.asarray(t.column("k1"), dtype=np.int64)
        j = np.asarray(t.column("k2"), dtype=np.int64)
        keys = i * V + j  # k1 < k2 by construction (sorted neighbor lists)
        pos = np.searchsorted(ek, keys)
        is_edge = (pos < len(ek)) & (ek[np.minimum(pos, len(ek) - 1)] == keys)
        i, j = i[~is_edge], j[~is_edge]
        sim = st.sim_idx(i, j) if len(i) else np.empty(0)
        keep = sim >= tau
        i, j, sim = i[keep], j[keep], sim[keep]
        va = np.asarray(st.vocab[i].to_numpy(), dtype=object) if len(i) else np.empty(0, object)
        vb = np.asarray(st.vocab[j].to_numpy(), dtype=object) if len(j) else np.empty(0, object)
        return pa.table({
            "val1": pa.array(np.minimum(va, vb), pa.string()),
            "val2": pa.array(np.maximum(va, vb), pa.string()),
            "sim": pa.array(sim, pa.float64()),
        })

    return edges.union(hop2.map_batches(verify_new, batch_format="pyarrow"))


# ---------------------------------------------------------------------------
# match-table reformatting (reformatMatchResTableDoc, group.cc:176-216)
# ---------------------------------------------------------------------------


class _Reformatter:
    """Actor-pool stage: holds the vocabulary adjacency + similarity state
    once per actor and rewrites one match batch per call — the reference's
    per-row loop over the match table (group.cc:195-212) with the identical
    4-way branch:

    - both values have graph neighbors -> replace BOTH with the
      most-similar neighbor pair (retrieveMostSimilarNeighborsDoc pair
      variant, graph.cc:443-476);
    - one side isolated -> replace only the connected side with its
      neighbor most similar to the other side's vector (single variant,
      graph.cc:406-440);
    - both isolated -> unchanged.

    Like the reference, a pair whose best similarity is <= 0 yields an
    empty-string replacement (maxSim starts at 0.0)."""

    def __init__(self, state_ref, adj_ref, attr):
        self.state = ray.get(state_ref)
        self.adj = ray.get(adj_ref)  # dict: vocab idx -> np.ndarray of vocab idx
        self.attr = attr

    def _best_pair(self, nl: np.ndarray, nr: np.ndarray):
        sims = self.state.sim_rows_vs_rows(nl, nr)
        x, y = np.unravel_index(int(np.argmax(sims)), sims.shape)
        if sims[x, y] <= 0.0:
            return "", ""
        vocab = self.state.vocab
        return str(vocab[int(nl[x])]), str(vocab[int(nr[y])])

    def _best_single(self, nb: np.ndarray, qvec):
        sims = self.state.sim_rows_vs_vec(nb, qvec)
        x = int(np.argmax(sims))
        if sims[x] <= 0.0:
            return ""
        return str(self.state.vocab[int(nb[x])])

    def __call__(self, t: pa.Table) -> pa.Table:
        import pyarrow.compute as pc

        lv = np.asarray(pc.cast(t.column(f"l_{self.attr}"), pa.string())
                        .to_numpy(zero_copy_only=False), dtype=object)
        rv = np.asarray(pc.cast(t.column(f"r_{self.attr}"), pa.string())
                        .to_numpy(zero_copy_only=False), dtype=object)
        lv = pd.Series(lv).fillna("").to_numpy(object)
        rv = pd.Series(rv).fillna("").to_numpy(object)
        st = self.state
        n = len(lv)
        if n == 0:
            return t
        # group rows by DISTINCT (l, r) value pair once per batch: all
        # branch work below runs over distinct pairs only (a hot match
        # table repeats the same value pair many times), and rows rejoin
        # through the unique-inverse map — no per-row Python loop
        cl = pd.factorize(pd.Series(lv, dtype=object), sort=False)[0]
        cr = pd.factorize(pd.Series(rv, dtype=object), sort=False)[0]
        pk = cl.astype(np.int64) * np.int64(int(cr.max()) + 1) + cr
        _, first, inv = np.unique(pk, return_index=True, return_inverse=True)
        dl = lv[first]
        dr = rv[first]
        li = st.vocab.get_indexer(dl)
        ri = st.vocab.get_indexer(dr)
        res_l = dl.copy()
        res_r = dr.copy()
        nl_of = [self.adj.get(int(x)) if x >= 0 else None for x in li]
        nr_of = [self.adj.get(int(x)) if x >= 0 else None for x in ri]
        only_l = [d for d in range(len(first))
                  if nl_of[d] is not None and nr_of[d] is None]
        only_r = [d for d in range(len(first))
                  if nl_of[d] is None and nr_of[d] is not None]
        # ONE batched OOV embedding per side (the former code embedded the
        # partner value per row)
        q_r = st.embed_oov(dr[only_l].astype(object)) if only_l else []
        q_l = st.embed_oov(dl[only_r].astype(object)) if only_r else []
        for d in range(len(first)):
            nl, nr = nl_of[d], nr_of[d]
            if nl is not None and nr is not None:
                res_l[d], res_r[d] = self._best_pair(nl, nr)
        for x, d in enumerate(only_l):
            res_l[d] = self._best_single(nl_of[d], q_r[x])
        for x, d in enumerate(only_r):
            res_r[d] = self._best_single(nr_of[d], q_l[x])
        cols = {c: t.column(c) for c in t.column_names}
        cols[f"l_{self.attr}"] = pa.array(res_l[inv], pa.string())
        cols[f"r_{self.attr}"] = pa.array(res_r[inv], pa.string())
        return pa.table(cols)


def reformat_matches(
    matches: "ray.data.Dataset", docs: "ray.data.Dataset", attr: str,
    graph: "ray.data.Dataset", *, strategy: str = "doc",
    embedder: ValueEmbedder | None = None, dim: int = 128, tok: str = "dlm",
    q: int = 3, num_partitions: int = 32, broadcast_limit: int = 2_000_000,
    n_records: int | None = None, concurrency=(1, 8), batch_size: int = 4096,
) -> "ray.data.Dataset":
    """Rewrite each match pair's ``attr`` values toward their most coherent
    graph neighbors (reformatMatchResTableDoc / reformatMatchResTableWord,
    group.cc:176-246) so the second match round sees normalized values.

    Output = ``matches`` with ``l_{attr}`` / ``r_{attr}`` columns attached
    (``_attach_values``) and rewritten.  The graph and similarity state
    are vocabulary-sized, fetched once per actor; the match table streams."""
    gpd = graph.to_pandas()  # vocabulary-scale edge list
    vals_ds = matched_values(matches, docs, attr, num_partitions=num_partitions,
                             n_records=n_records)
    # the similarity state must cover the GRAPH's vertices too — a neighbor
    # value need not appear in the table being reformatted (the reference
    # loads the full ICV-dir doc list, group.cc:473-489)
    vocab = pd.Index(sorted(
        set(vals_ds.to_pandas()["val"].astype(str))
        | set(gpd["val1"].astype(str)) | set(gpd["val2"].astype(str))
    ))
    state = _build_sim_state(vocab, strategy, embedder, dim=dim, tok=tok, q=q)
    i1 = vocab.get_indexer(gpd["val1"].astype(str))
    i2 = vocab.get_indexer(gpd["val2"].astype(str))
    ok = (i1 >= 0) & (i2 >= 0)
    src = np.concatenate([i1[ok], i2[ok]])
    dst = np.concatenate([i2[ok], i1[ok]])
    order = np.argsort(src, kind="stable")
    src, dst = src[order], dst[order]
    cuts = np.flatnonzero(np.diff(src)) + 1
    adj = {int(s): d for s, d in zip(src[np.r_[0, cuts]] if len(src) else [],
                                     np.split(dst, cuts))}
    state_ref = ray.put(state)
    adj_ref = ray.put(adj)

    joined = _attach_values(matches, docs, attr,
                            out_l=f"l_{attr}", out_r=f"r_{attr}",
                            num_partitions=num_partitions,
                            broadcast_limit=broadcast_limit,
                            n_records=n_records)
    return joined.map_batches(
        _Reformatter,
        fn_constructor_args=(state_ref, adj_ref, attr),
        batch_format="pyarrow",
        batch_size=batch_size,
        concurrency=concurrency,
    )


# ---------------------------------------------------------------------------
# match-table slimming (slimMatchResDoc / slimTab, group.cc:91-137, 462-…)
# ---------------------------------------------------------------------------


def slim_matches(
    matches: "ray.data.Dataset", docs: "ray.data.Dataset", attr: str,
    *, strategy: str = "doc", embedder: ValueEmbedder | None = None,
    dim: int = 128, tok: str = "dlm", q: int = 3,
    num_partitions: int = 32, broadcast_limit: int = 2_000_000,
    n_records: int | None = None,
) -> "ray.data.Dataset":
    """Slim a match table to at most one partner per record, keeping for
    every left id the row whose two ``attr`` values have the highest
    embedding cosine, then the same per right id — the reference's
    ``slimTab`` applied work=left then work=right (group.cc:91-137; driver
    slimMatchResDoc group.cc:…).  A record with a single match keeps it
    unconditionally; ties keep the first row in (id, partner-id) order
    (the reference keeps first-seen under strict >).

    Distributed shape: ``_attach_values`` attaches values and one
    map_batches scores the pair cosine vectorized; each slim pass is a
    hash-bucket groupby on the id with a per-bucket vectorized argmax —
    no per-group pandas loops."""
    from ..functions.hashing import bucket_of, hash_strings

    if strategy != "doc":
        raise ValueError("slim_matches: only the doc (value-embedding) "
                         "strategy exists in the reference (slimMatchResDoc)")

    if embedder is not None and embedder.vocab is None:
        vals_ds = matched_values(matches, docs, attr,
                                 num_partitions=num_partitions,
                                 n_records=n_records)
        embedder.train(np.asarray(vals_ds.to_pandas()["val"], dtype=object))
    emb_ref = ray.put(embedder)

    # attach values + score pair cosine in one streaming pass
    scored_src = _attach_values(matches, docs, attr,
                                out_l="__v1", out_r="__v2",
                                num_partitions=num_partitions,
                                broadcast_limit=broadcast_limit,
                                n_records=n_records)

    def score(t: pa.Table) -> pa.Table:
        a = np.asarray(t.column("__v1").to_numpy(zero_copy_only=False), dtype=object)
        b = np.asarray(t.column("__v2").to_numpy(zero_copy_only=False), dtype=object)
        t = t.drop_columns(["__v1", "__v2"])
        emb = get_broadcast(emb_ref) if emb_ref is not None else None
        e = (emb.embed if emb is not None
             else (lambda v: embed_values(v, dim=dim, tok=tok, q=q)))
        # embed each DISTINCT value once per batch
        uniq, inv = np.unique(np.concatenate([a, b]), return_inverse=True)
        M = e(uniq.astype(object))
        va = M[inv[: len(a)]]
        vb = M[inv[len(a):]]
        sim = np.einsum("ij,ij->i", va, vb)
        return t.append_column("__psim", pa.array(sim, pa.float64()))

    scored = scored_src.map_batches(score, batch_format="pyarrow")

    def slim_pass(ds, id_col, other_col):
        def add_pb(t: pa.Table) -> pa.Table:
            h = hash_strings(np.asarray(t.column(id_col).to_numpy(zero_copy_only=False), dtype=object))
            return t.append_column("__pb", pa.array(bucket_of(h, num_partitions), pa.int32()))

        def keep_best(t: pa.Table) -> pa.Table:
            t = t.drop_columns(["__pb"])
            ids = np.asarray(t.column(id_col).to_numpy(zero_copy_only=False), dtype=object)
            oth = np.asarray(t.column(other_col).to_numpy(zero_copy_only=False), dtype=object)
            sim = np.asarray(t.column("__psim"), dtype=np.float64)
            order = np.lexsort((oth, -sim, ids))
            ids_s = ids[order]
            first = np.ones(ids_s.size, bool)
            first[1:] = ids_s[1:] != ids_s[:-1]
            return t.take(pa.array(order[first]))

        return (ds.map_batches(add_pb, batch_format="pyarrow")
                  .groupby("__pb")
                  .map_groups(keep_best, batch_format="pyarrow"))

    slimmed = slim_pass(slim_pass(scored, "id1", "id2"), "id2", "id1")
    return slimmed.map_batches(lambda t: t.drop_columns(["__psim"]),
                               batch_format="pyarrow")


# ---------------------------------------------------------------------------
# graph-based second match round
# (reformatTableByInterchangeableValuesByGraph + re-match, group.cc:249-…)
# ---------------------------------------------------------------------------


def features_from_value_pairs(
    pairs: "ray.data.Dataset", attr: str, specs,
    *, batch_size: int = 4096,
) -> "ray.data.Dataset":
    """Per-pair features computed straight from l_{attr}/r_{attr} value
    columns carried ON the pair rows (no doc join — the values may be
    pair-specific after graph reformatting).  All specs must target
    ``attr``."""
    from .features import _build_state, _feature_columns, _features_from_rows

    specs = list(specs)
    if any(s.attr != attr for s in specs):
        raise ValueError("features_from_value_pairs: all specs must target "
                         f"{attr!r} (pair rows carry only that attr's values)")

    def f(t: pa.Table) -> pa.Table:
        import pyarrow.compute as pc

        # a two-sided per-batch state: rows [0, n) hold the left values,
        # rows [n, 2n) the right ones
        n = t.num_rows
        lv, rv = (pc.fill_null(pc.cast(t.column(f"{p}_{attr}"), pa.string()), "")
                  for p in ("l", "r"))
        vals = pa.chunked_array(lv.chunks + rv.chunks, pa.string())
        state = _build_state(_feature_columns(
            pa.table({"conv_id": np.arange(2 * n), attr: vals}), specs), specs)
        r = np.arange(n)
        feats = (_features_from_rows(state, r, r + n, specs) if n
                 else {s.name: [] for s in specs})
        out = t.select(["id1", "id2"])
        for name, v in feats.items():
            out = out.append_column(name, pa.array(v, pa.float64()))
        return out

    return pairs.map_batches(f, batch_format="pyarrow", batch_size=batch_size)


def second_round_match_graph(
    candidates: "ray.data.Dataset", docs: "ray.data.Dataset",
    matches: "ray.data.Dataset", attr: str,
    *, tau: float = 0.8, strategy: str = "doc", two_hop: bool = False,
    score_cols: list[str], threshold: float, feature_specs,
    embedder: ValueEmbedder | None = None, dim: int = 128, tok: str = "dlm",
    q: int = 3, num_partitions: int = 32, n_records: int | None = None,
) -> "ray.data.Dataset":
    """Graph-based IC re-match — the reference's
    reformatTableByInterchangeableValuesByGraph flow (group.cc:249-…):
    build the semantic value graph from round-1 matches, REWRITE each
    candidate pair's ``attr`` values toward their most coherent graph
    neighbors (per-pair, unlike normalize_attr's global substitution), then
    re-score the candidate set on features computed from the rewritten
    values and re-threshold.  Recovers pairs whose only disagreement is an
    interchangeable value, like second_round_match, but with the
    neighborhood semantics of the C++ group module."""
    from .matcher import threshold_match

    g = semantic_graph(matches, docs, attr, tau=tau, strategy=strategy,
                       two_hop=two_hop, embedder=embedder, dim=dim, tok=tok,
                       q=q, num_partitions=num_partitions,
                       n_records=n_records).materialize()
    ref = reformat_matches(candidates.select_columns(["id1", "id2"]), docs,
                           attr, g, strategy=strategy, embedder=embedder,
                           dim=dim, tok=tok, q=q,
                           num_partitions=num_partitions, n_records=n_records)
    feats = features_from_value_pairs(ref, attr, feature_specs)
    return threshold_match(feats, score_cols=score_cols, threshold=threshold)
