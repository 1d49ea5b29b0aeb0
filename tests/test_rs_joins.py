"""RS (two-table A x B) joins vs brute-force oracles.

Reference workload: every test/exp/*.py experiment is A x B record linkage
(simjoin_blocker.cc:180-378; stringjoin_parallel.h:487-488 RSJoin).
Oracle = O(|A| x |B|) nested loop with the pure-python sim mirrors.
"""

import itertools

import numpy as np
import pandas as pd
import pytest
import ray.data

from entityblockingbysimilarityjoins_ray.config import PipelineConfig
from entityblockingbysimilarityjoins_ray.functions import hashing
from entityblockingbysimilarityjoins_ray.functions.tokenize import oracle_tokens
from entityblockingbysimilarityjoins_ray.stages import blocking as B
from entityblockingbysimilarityjoins_ray.stages.editjoin import edit_rs_join


def _cfg(**kw):
    base = dict(num_buckets=8, pair_partitions=8)
    base.update(kw)
    return PipelineConfig(**base)


def _split(pdocs):
    """Deterministic A/B split of the tiny canonical docs."""
    n = np.arange(len(pdocs))
    a = pdocs[n % 2 == 0].reset_index(drop=True)
    b = pdocs[n % 2 == 1].reset_index(drop=True)
    return a, b


def _oracle_setsim(a, b, attr, sim, threshold):
    import math

    def simval(s1, s2):
        t1 = set(oracle_tokens(s1, "dlm"))
        t2 = set(oracle_tokens(s2, "dlm"))
        if not t1 and not t2:
            return 1.0
        if not t1 or not t2:
            return 0.0
        o = len(t1 & t2)
        if sim == "jac":
            return o / (len(t1) + len(t2) - o)
        if sim == "cos":
            return o / math.sqrt(len(t1) * len(t2))
        if sim == "overlap":
            return float(o)
        raise ValueError(sim)

    out = set()
    for _, ra in a.iterrows():
        for _, rb in b.iterrows():
            if simval(ra[attr], rb[attr]) >= threshold:
                out.add((ra["conv_id"], rb["conv_id"]))
    return out


@pytest.mark.parametrize("sim,threshold", [("jac", 0.5), ("cos", 0.6), ("overlap", 6)])
def test_setsim_rs_matches_bruteforce(tiny_docs, sim, threshold):
    docs, pdocs = tiny_docs
    a, b = _split(pdocs)
    toks_a = B.tokenize_docs(ray.data.from_pandas(a), "doc", "dlm").materialize()
    toks_b = B.tokenize_docs(ray.data.from_pandas(b), "doc", "dlm").materialize()
    got = B.setsim_rs_join(toks_a, toks_b, sim=sim, threshold=threshold, cfg=_cfg()).to_pandas()
    got_pairs = set(zip(got["id1"], got["id2"]))
    exp = _oracle_setsim(a, b, "doc", sim, threshold)
    assert got_pairs == exp
    assert len(exp) > 0  # fixture must exercise the join


def test_setsim_rs_salted_is_exact(tiny_docs):
    docs, pdocs = tiny_docs
    a, b = _split(pdocs)
    toks_a = B.tokenize_docs(ray.data.from_pandas(a), "doc", "dlm").materialize()
    toks_b = B.tokenize_docs(ray.data.from_pandas(b), "doc", "dlm").materialize()
    base = B.setsim_rs_join(toks_a, toks_b, sim="jac", threshold=0.5, cfg=_cfg()).to_pandas()
    salted = B.setsim_rs_join(
        toks_a, toks_b, sim="jac", threshold=0.5,
        cfg=_cfg(salt_df_threshold=2, salt_factor=4),  # salt nearly every token
    ).to_pandas()
    assert set(zip(base["id1"], base["id2"])) == set(zip(salted["id1"], salted["id2"]))


def test_exact_rs_join(tiny_docs):
    docs, pdocs = tiny_docs
    a, b = _split(pdocs)
    got = B.exact_rs_join(
        ray.data.from_pandas(a), ray.data.from_pandas(b), "head", _cfg()
    ).to_pandas()
    got_pairs = set(zip(got["id1"], got["id2"]))
    exp = {
        (ra["conv_id"], rb["conv_id"])
        for _, ra in a.iterrows()
        for _, rb in b.iterrows()
        if ra["head"] == rb["head"]
    }
    assert got_pairs == exp
    assert len(exp) > 0


def test_anm_rs_join(tiny_docs):
    docs, pdocs = tiny_docs
    a, b = _split(pdocs)
    t = 0.8
    got = B.anm_rs_join(
        ray.data.from_pandas(a), ray.data.from_pandas(b), "n_turns", t, _cfg()
    ).to_pandas()
    got_pairs = set(zip(got["id1"], got["id2"]))

    def anm(d1, d2):
        if d1 == 0 and d2 == 0:
            return 1.0
        mx = max(abs(d1), abs(d2))
        if mx < 1e-5:
            return 0.0
        rel = abs(d1 - d2) / mx
        return 1.0 if rel <= 1e-5 else 1.0 - rel

    exp = {
        (ra["conv_id"], rb["conv_id"])
        for _, ra in a.iterrows()
        for _, rb in b.iterrows()
        if anm(float(ra["n_turns"]), float(rb["n_turns"])) >= t
    }
    assert got_pairs == exp
    assert len(exp) > 0


@pytest.mark.parametrize("D", [1, 2])
def test_edit_rs_join(tiny_docs, D):
    docs, pdocs = tiny_docs
    a, b = _split(pdocs)
    got = edit_rs_join(
        ray.data.from_pandas(a), ray.data.from_pandas(b), "head", D, _cfg()
    ).to_pandas()
    got_pairs = set(zip(got["id1"], got["id2"]))
    import duckdb

    con = duckdb.connect()
    con.register("ta", a[["conv_id", "head"]])
    con.register("tb", b[["conv_id", "head"]])
    exp_df = con.sql(
        f"""SELECT ta.conv_id AS id1, tb.conv_id AS id2
        FROM ta, tb WHERE levenshtein(ta.head, tb.head) <= {D}"""
    ).df()
    exp = set(zip(exp_df["id1"], exp_df["id2"]))
    assert got_pairs == exp
    assert len(exp) > 0


def test_edit_self_join_still_matches_duckdb(tiny_docs):
    """Regression: the vectorized emitter preserves self-join semantics."""
    from entityblockingbysimilarityjoins_ray.stages.editjoin import edit_self_join

    docs, pdocs = tiny_docs
    got = edit_self_join(docs, "head", 2, _cfg()).to_pandas()
    got_pairs = set(zip(got["id1"], got["id2"]))
    import duckdb

    con = duckdb.connect()
    con.register("t", pdocs[["conv_id", "head"]])
    exp_df = con.sql(
        """SELECT a.conv_id AS id1, b.conv_id AS id2 FROM t a, t b
        WHERE a.conv_id < b.conv_id AND levenshtein(a.head, b.head) <= 2"""
    ).df()
    exp = set(zip(exp_df["id1"], exp_df["id2"]))
    assert got_pairs == exp


def test_rs_empty_clique_distributed_exact(ray_session):
    """>1000 empty records per side: the RS empty-pair clique is generated
    DISTRIBUTED and exactly (the old path capped at 1000x1000 silently)."""
    na, nb = 350, 360  # 126,000 pairs > the 100k driver-expansion threshold
    a = pd.DataFrame({"conv_id": [f"a{i:04d}" for i in range(na)],
                      "doc": [""] * na})
    b = pd.DataFrame({"conv_id": [f"b{i:04d}" for i in range(nb)],
                      "doc": [""] * nb})
    toks_a = B.tokenize_docs(ray.data.from_pandas(a), "doc", "dlm")
    toks_b = B.tokenize_docs(ray.data.from_pandas(b), "doc", "dlm")
    out = B.setsim_rs_join(toks_a, toks_b, sim="jac", threshold=0.5, cfg=_cfg())
    assert out.count() == na * nb
    sample = out.take(5)
    assert all(r["sim"] == 1.0 for r in sample)


def test_empty_pairs_rs_driver_and_distributed_agree(ray_session):
    from entityblockingbysimilarityjoins_ray.stages.blocking import _empty_pairs_rs_ds

    ea = [f"a{i}" for i in range(9)]
    eb = [f"b{i}" for i in range(7)]
    small = _empty_pairs_rs_ds(ea, eb).to_pandas()
    assert len(small) == 63
    assert set(zip(small["id1"], small["id2"])) == {(x, y) for x in ea for y in eb}


def test_setsim_rs_broadcast_and_sharded_paths_identical(tiny_docs):
    """Forcing the beyond-broadcast gate routes the RS join through the
    sharded-grid verify (two Parquet shard stores, one slim pair shuffle);
    output must equal the broadcast path's row-for-row."""
    docs, pdocs = tiny_docs
    a, b = _split(pdocs)
    toks_a = B.tokenize_docs(ray.data.from_pandas(a), "doc", "dlm").materialize()
    toks_b = B.tokenize_docs(ray.data.from_pandas(b), "doc", "dlm").materialize()
    bc = B.setsim_rs_join(toks_a, toks_b, sim="jac", threshold=0.5,
                          cfg=_cfg()).to_pandas()
    sh = B.setsim_rs_join(toks_a, toks_b, sim="jac", threshold=0.5,
                          cfg=_cfg(broadcast_limit=0, broadcast_bytes_limit=0,
                                   verify_shards=3)).to_pandas()
    ka = bc.sort_values(["id1", "id2"]).reset_index(drop=True)
    kb = sh.sort_values(["id1", "id2"]).reset_index(drop=True)
    pd.testing.assert_frame_equal(ka[["id1", "id2"]], kb[["id1", "id2"]])
    np.testing.assert_allclose(ka["sim"].to_numpy(), kb["sim"].to_numpy(), atol=1e-12)


def _hot_docs(n=600, m=120):
    """n records over six tokens every one of them carries plus a unique
    token: each record's prefix holds three of the six, so its raw probe
    candidates outnumber a 500-pair chunk and every pair met under the first
    two is met again past a chunk end.  m further records share two of the
    six and mid-df tokens among themselves, at sims on both sides of each
    threshold."""
    docs = [f"h1 h2 h3 h4 h5 h6 u{i}" for i in range(n)]
    docs += [f"h1 h2 m{(j // 2) % 2} w{j % 3} v{j} z{j}" for j in range(m)]
    return pd.DataFrame({"conv_id": [f"r{i:04d}" for i in range(n + m)], "doc": docs})


def _brute(a, b, sim, threshold):
    """All pairs passing (sim, threshold): (A, B) pairs, or id-ordered
    self pairs when ``b`` is None."""
    import math

    def bags(df):
        return [(c, frozenset(oracle_tokens(d, "dlm"))) for c, d in zip(df["conv_id"], df["doc"])]

    ba = bags(a)
    pairs = (itertools.combinations(ba, 2) if b is None
             else itertools.product(ba, bags(b)))
    out = set()
    for (i, x), (j, y) in pairs:
        o = len(x & y)
        s = {"jac": o / (len(x) + len(y) - o) if x or y else 1.0,
             "dice": 2 * o / (len(x) + len(y)) if x or y else 1.0,
             "cos": o / math.sqrt(len(x) * len(y)) if x and y else float(not x and not y),
             "overlap": o}[sim]
        if s >= threshold:
            out.add((min(i, j), max(i, j)) if b is None else (i, j))
    return out


def _pairs(ds):
    """The join's pair set, asserting each pair is emitted once."""
    df = ds.to_pandas()
    got = set(zip(df["id1"], df["id2"]))
    assert len(got) == len(df)
    return got


GRID = dict(broadcast_limit=0, broadcast_bytes_limit=0, verify_shards=3)


@pytest.mark.parametrize("sim,threshold", [("jac", 0.5), ("dice", 0.6), ("overlap", 4)])
def test_setsim_hot_token_chunked_probe(ray_session, monkeypatch, sim, threshold):
    """600 records sharing hot tokens with the probe chunk at 500 pairs: a
    record's raw candidates straddle chunks, and its seen pairs must carry
    across them.  Self and RS joins equal brute force on both plans."""
    monkeypatch.setattr(hashing, "PAIR_CHUNK", 500)
    df = _hot_docs()
    a, b = df.iloc[::2].reset_index(drop=True), df.iloc[1::2].reset_index(drop=True)
    toks = B.tokenize_docs(ray.data.from_pandas(df), "doc", "dlm").materialize()
    toks_a = B.tokenize_docs(ray.data.from_pandas(a), "doc", "dlm").materialize()
    toks_b = B.tokenize_docs(ray.data.from_pandas(b), "doc", "dlm").materialize()
    exp_self, exp_rs = _brute(df, None, sim, threshold), _brute(a, b, sim, threshold)
    assert len(exp_self) > 600 * 599 // 2 and len(exp_rs) > 300 * 300
    for cfg in (_cfg(), _cfg(**GRID)):
        assert _pairs(B.setsim_self_join(toks, sim=sim, threshold=threshold,
                                         cfg=cfg)) == exp_self
        assert _pairs(B.setsim_rs_join(toks_a, toks_b, sim=sim, threshold=threshold,
                                       cfg=cfg)) == exp_rs


def test_setsim_rs_length_range_clamp(ray_session):
    """Probe records longer than every index record (either table in turn)
    get an empty posting range instead of one reaching the next token's
    postings, and the joins still equal brute force on both plans."""
    rng = np.random.default_rng(7)
    vocab = [f"w{i}" for i in range(24)]

    def table(prefix, n, max_len, n_long, long_len):
        lens = list(rng.integers(1, max_len + 1, n)) + [long_len] * n_long
        docs = [" ".join(rng.choice(vocab, size=l, replace=False)) for l in lens]
        return pd.DataFrame({"conv_id": [f"{prefix}{i:03d}" for i in range(len(docs))],
                             "doc": docs})

    a, b = table("a", 80, 8, 3, 22), table("b", 80, 10, 0, 0)
    ta = B.tokenize_docs(ray.data.from_pandas(a), "doc", "dlm").materialize()
    tb = B.tokenize_docs(ray.data.from_pandas(b), "doc", "dlm").materialize()
    for sim, thr in (("jac", 0.5), ("cos", 0.6)):
        for (x, tx), (y, ty) in (((a, ta), (b, tb)), ((b, tb), (a, ta))):
            exp = _brute(x, y, sim, thr)
            assert exp
            for cfg in (_cfg(), _cfg(**GRID)):
                assert _pairs(B.setsim_rs_join(tx, ty, sim=sim, threshold=thr,
                                               cfg=cfg)) == exp


def test_posting_ranges_stay_in_token():
    """Each range covers exactly its token's postings of eligible length —
    never the next token's — for probe lengths far past the longest
    indexed record, on self and RS bounds and without a length filter."""
    M = 6
    tok_k, len_k = np.meshgrid(np.arange(4), np.arange(1, M), indexing="ij")
    skeys = np.sort(np.repeat(tok_k.ravel() * M + len_k.ravel(), 2))
    tok = np.repeat(np.arange(4), 20)
    l = np.tile(np.arange(1, 21), 4)
    for alpha in (0.5, 0.8, None):
        for self_join in (True, False):
            start, cnt = B._posting_ranges(skeys, M, tok, l, alpha, self_join)
            for t, n, s0, c in zip(tok, l, start, cnt):
                got = skeys[s0:s0 + c]
                lens = skeys[skeys // M == t] % M
                if alpha is None:
                    ok = lens <= n if self_join else lens >= 0
                else:
                    ok = (lens >= alpha * n - 1e-9) & (
                        (lens <= n) if self_join else (alpha * lens <= n + 1e-9))
                assert (got // M == t).all()
                assert sorted(got % M) == sorted(lens[ok])


@pytest.mark.parametrize("side", ["A", "B"])
def test_setsim_joins_reject_duplicate_ids(ray_session, side):
    """A duplicated id on either table raises on the driver, naming it —
    not a misleading id-hash collision from inside a task."""
    a = pd.DataFrame({"conv_id": ["a1", "a2", "a3"], "doc": ["x y", "y z", "x z"]})
    b = pd.DataFrame({"conv_id": ["b1", "b1"], "doc": ["x y", "y z"]})
    if side == "A":
        a.loc[2, "conv_id"], b.loc[1, "conv_id"] = "a1", "b2"
    ta = B.tokenize_docs(ray.data.from_pandas(a), "doc", "dlm")
    tb = B.tokenize_docs(ray.data.from_pandas(b), "doc", "dlm")
    dup = "a1" if side == "A" else "b1"
    with pytest.raises(ValueError, match=f"'{dup}'.*table {side}"):
        B.setsim_rs_join(ta, tb, sim="jac", threshold=0.5, cfg=_cfg())
    if side == "A":
        with pytest.raises(ValueError, match="'a1'.*table A"):
            B.setsim_self_join(ta, sim="jac", threshold=0.5, cfg=_cfg())


def test_setsim_rs_broadcast_runs_no_shuffle(tiny_docs, monkeypatch):
    """The broadcast RS join probes B's prefix postings in map_batches:
    with Dataset.groupby / sort refusing, it still equals the grid plan."""
    _, pdocs = tiny_docs
    a, b = _split(pdocs)
    toks_a = B.tokenize_docs(ray.data.from_pandas(a), "doc", "dlm").materialize()
    toks_b = B.tokenize_docs(ray.data.from_pandas(b), "doc", "dlm").materialize()
    exp = B.setsim_rs_join(toks_a, toks_b, sim="jac", threshold=0.5,
                           cfg=_cfg(**GRID)).to_pandas()

    def refuse(*a, **k):
        raise AssertionError("the broadcast set-sim join must not shuffle")

    monkeypatch.setattr(ray.data.Dataset, "groupby", refuse)
    monkeypatch.setattr(ray.data.Dataset, "sort", refuse)
    got = B.setsim_rs_join(toks_a, toks_b, sim="jac", threshold=0.5, cfg=_cfg()).to_pandas()
    key = ["id1", "id2", "sim"]
    pd.testing.assert_frame_equal(
        got[key].round(12).sort_values(key).reset_index(drop=True),
        exp[key].round(12).sort_values(key).reset_index(drop=True))
