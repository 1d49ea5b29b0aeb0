"""Blocking joins vs brute-force oracles — the reference's own test strategy
(/root/reference/test/test_setjoin.cc:20-40: run join, then O(n^2) nested-loop
verification of the pair set)."""

import itertools

import numpy as np
import pandas as pd
import pytest
import ray.data

from entityblockingbysimilarityjoins_ray.config import PipelineConfig
from entityblockingbysimilarityjoins_ray.functions import sims as S
from entityblockingbysimilarityjoins_ray.functions.tokenize import oracle_tokens
from entityblockingbysimilarityjoins_ray.stages.blocking import (
    anm_self_join,
    exact_self_join,
    setsim_self_join,
    tokenize_docs,
)

CFG = PipelineConfig(num_buckets=8, pair_partitions=8, salt_df_threshold=40, salt_factor=4)


@pytest.fixture(scope="module")
def toks_dlm(tiny_docs):
    docs, _ = tiny_docs
    return tokenize_docs(docs, "doc", "dlm").materialize()


def _oracle_pairs(pdocs, attr, tok, fn, threshold, q=3):
    bags = {r.conv_id: oracle_tokens(getattr(r, attr), tok, q) for r in pdocs.itertuples()}
    out = set()
    for a, b in itertools.combinations(sorted(bags), 2):
        if fn(bags[a], bags[b]) >= threshold:
            out.add((a, b))
    return out


@pytest.mark.parametrize(
    "sim,threshold",
    [("jac", 0.5), ("jac", 0.8), ("cos", 0.7), ("dice", 0.6), ("overlap", 12)],
)
def test_setsim_self_join_matches_bruteforce(tiny_docs, toks_dlm, sim, threshold):
    _, pdocs = tiny_docs
    pairs = setsim_self_join(toks_dlm, sim=sim, threshold=threshold, cfg=CFG)
    rows = pairs.take_all()
    got = {(r["id1"], r["id2"]) for r in rows}
    fn = {"jac": S.jaccard, "cos": S.cosine, "dice": S.dice, "overlap": S.overlap}[sim]
    exp = _oracle_pairs(pdocs, "doc", "dlm", fn, threshold)
    assert got == exp
    # verified sims must equal the oracle similarity exactly
    bags = {r.conv_id: oracle_tokens(r.doc, "dlm") for r in pdocs.itertuples()}
    for r in rows[:200]:
        assert abs(r["sim"] - fn(bags[r["id1"]], bags[r["id2"]])) < 1e-12


def test_setsim_qgram(tiny_docs):
    docs, pdocs = tiny_docs
    toks = tokenize_docs(docs, "head", "qgm", q=3).materialize()
    pairs = setsim_self_join(toks, sim="jac", threshold=0.6, cfg=CFG)
    got = {(r["id1"], r["id2"]) for r in pairs.take_all()}
    exp = _oracle_pairs(pdocs, "head", "qgm", S.jaccard, 0.6)
    assert got == exp


def test_setsim_salting_is_exact(tiny_docs, toks_dlm):
    """Forcing every token through the salted path must not change the output."""
    _, pdocs = tiny_docs
    salted = PipelineConfig(num_buckets=8, pair_partitions=8, salt_df_threshold=1, salt_factor=5)
    pairs = setsim_self_join(toks_dlm, sim="jac", threshold=0.6, cfg=salted)
    got = {(r["id1"], r["id2"]) for r in pairs.take_all()}
    exp = _oracle_pairs(pdocs, "doc", "dlm", S.jaccard, 0.6)
    assert got == exp


def test_setsim_salting_disabled_is_exact(tiny_docs, toks_dlm):
    """salt_factor=1 DISABLES salting: rows over the df threshold must stay
    on the cold path, not be silently dropped (pairs whose only shared
    prefix tokens are hot would vanish)."""
    _, pdocs = tiny_docs
    off = PipelineConfig(num_buckets=8, pair_partitions=8,
                         salt_df_threshold=1, salt_factor=1)
    pairs = setsim_self_join(toks_dlm, sim="jac", threshold=0.6, cfg=off)
    got = {(r["id1"], r["id2"]) for r in pairs.take_all()}
    exp = _oracle_pairs(pdocs, "doc", "dlm", S.jaccard, 0.6)
    assert got == exp


def test_exact_join(tiny_docs):
    docs, pdocs = tiny_docs
    pairs = exact_self_join(docs, "head", CFG)
    got = {(r["id1"], r["id2"]) for r in pairs.take_all()}
    exp = set()
    vals = pdocs.set_index("conv_id")["head"]
    for a, b in itertools.combinations(sorted(vals.index), 2):
        if vals[a] == vals[b]:
            exp.add((a, b))
    assert got == exp


def test_empty_record_ids_cap(ray_session):
    """empty_record_ids streams the COUNT first and fails loudly above the
    driver/broadcast cap (a pathological all-empty corpus must not OOM the
    driver building the ∅-clique id list)."""
    import pyarrow as pa

    from entityblockingbysimilarityjoins_ray.stages.blocking import (
        empty_record_ids,
    )

    toks = ray.data.from_arrow(pa.table({
        "conv_id": pa.array(["a", "b", "c", "d"], pa.string()),
        "toks": pa.array([[], [], [], [1]], pa.list_(pa.int64())),
        "tlen": pa.array([0, 0, 0, 1], pa.int32()),
    }))
    assert empty_record_ids(toks) == ["a", "b", "c"]
    with pytest.raises(RuntimeError, match="empty-token records exceed"):
        empty_record_ids(toks, limit=2)


def test_anm_join(tiny_docs):
    docs, pdocs = tiny_docs
    pairs = anm_self_join(docs, "n_turns", 0.8, CFG)
    got = {(r["id1"], r["id2"]) for r in pairs.take_all()}
    exp = set()
    vals = pdocs.set_index("conv_id")["n_turns"]
    for a, b in itertools.combinations(sorted(vals.index), 2):
        if S.absolute_norm(str(vals[a]), str(vals[b])) >= 0.8:
            exp.add((a, b))
    assert got == exp


def test_empty_records_pair_at_one(ray_session):
    from entityblockingbysimilarityjoins_ray.stages.canonicalize import canonicalize

    tdf = pd.DataFrame(
        {
            "conv_id": ["c1", "c2", "c3", "c4"],
            "turn_idx": np.int32([0, 0, 0, 0]),
            "role": ["user"] * 4,
            "text": ["", "", "a b c", ""],
            "tool": [""] * 4,
            "ts": pd.to_datetime(["2025-01-01"] * 4),
        }
    )
    docs = canonicalize(ray.data.from_pandas(tdf), num_buckets=2)
    toks = tokenize_docs(docs, "doc", "dlm")
    pairs = setsim_self_join(toks, sim="jac", threshold=0.9, cfg=CFG)
    got = {(r["id1"], r["id2"]) for r in pairs.take_all()}
    assert got == {("c1", "c2"), ("c1", "c4"), ("c2", "c4")}  # jaccard(∅,∅)=1.0


def test_empty_pairs_distributed_exact(ray_session):
    """>2000 empty records must expand to the EXACT complete clique via the
    distributed path (the old code silently capped at 2000)."""
    import ray.data as rd

    from entityblockingbysimilarityjoins_ray.stages.blocking import _empty_pairs_ds
    from entityblockingbysimilarityjoins_ray.config import PipelineConfig

    ids = [f"e{i:05d}" for i in range(2100)]
    ds = _empty_pairs_ds(None, PipelineConfig(), ids=ids)
    n = ds.count()
    assert n == 2100 * 2099 // 2
    some = ds.limit(5).to_pandas()
    assert (some["id1"] < some["id2"]).all()
    assert (some["sim"] == 1.0).all()


def test_in_join_topk_cap(tiny_docs, ray_session):
    """in_join_topk keeps exactly the K highest-sim pairs of the rule's own
    output with (sim desc, id1, id2) ties — the reference's in-join heap
    semantics (setjoin_parallel.cc:727-776)."""
    from entityblockingbysimilarityjoins_ray.config import PipelineConfig
    from entityblockingbysimilarityjoins_ray.stages.blocking import (
        setsim_self_join,
        tokenize_docs,
    )

    docs, _ = tiny_docs
    cfg = PipelineConfig(num_buckets=8, pair_partitions=8)
    toks = tokenize_docs(docs, "doc", "dlm").materialize()
    full = setsim_self_join(toks, sim="jac", threshold=0.4, cfg=cfg).to_pandas()
    k = max(len(full) // 3, 1)
    capped = setsim_self_join(toks, sim="jac", threshold=0.4, cfg=cfg,
                              in_join_topk=k).to_pandas()
    exp = (full.sort_values(["sim", "id1", "id2"], ascending=[False, True, True],
                            kind="stable").head(k).reset_index(drop=True))
    got = capped.sort_values(["sim", "id1", "id2"], ascending=[False, True, True],
                             kind="stable").reset_index(drop=True)
    assert len(got) == k
    import pandas.testing as pdt
    pdt.assert_frame_equal(got[["id1", "id2", "sim"]], exp[["id1", "id2", "sim"]])


def test_broadcast_and_join_paths_identical(tiny_docs, toks_dlm):
    """The inline-verify (broadcast) path and the two-hash-join (beyond-
    broadcast) path must emit the SAME pair set with the same sims."""
    a = setsim_self_join(toks_dlm, sim="jac", threshold=0.5, cfg=CFG,
                         broadcast=True).to_pandas()
    b = setsim_self_join(toks_dlm, sim="jac", threshold=0.5, cfg=CFG,
                         broadcast=False).to_pandas()
    ka = a.sort_values(["id1", "id2"]).reset_index(drop=True)
    kb = b.sort_values(["id1", "id2"]).reset_index(drop=True)
    pd.testing.assert_frame_equal(ka[["id1", "id2"]], kb[["id1", "id2"]])
    np.testing.assert_allclose(ka["sim"].to_numpy(), kb["sim"].to_numpy(), atol=1e-12)


def test_multi_rule_fused_equals_single_rule_union(tiny_docs, toks_dlm):
    """Fused multi-rule join == union of single-rule joins, row-for-row
    (one row per pair per passing rule)."""
    from entityblockingbysimilarityjoins_ray.stages.blocking import setsim_self_join_multi

    cfg = PipelineConfig(num_buckets=8, pair_partitions=8, salt_df_threshold=40,
                         salt_factor=4, include_empty_pairs=False)
    fused = setsim_self_join_multi(toks_dlm, [("jac", 0.5), ("cos", 0.7)], cfg).to_pandas()
    singles = pd.concat([
        setsim_self_join(toks_dlm, sim="jac", threshold=0.5, cfg=cfg).to_pandas(),
        setsim_self_join(toks_dlm, sim="cos", threshold=0.7, cfg=cfg).to_pandas(),
    ])
    key = ["id1", "id2", "sim"]
    fa = fused[key].round(12).sort_values(key).reset_index(drop=True)
    sa = singles[key].round(12).sort_values(key).reset_index(drop=True)
    pd.testing.assert_frame_equal(fa, sa)


def test_df_table_filters_widows_reducer_side(ray_session):
    """build_df_table's collected table equals the post-filter table: df=1
    tokens are dropped INSIDE the reducers, never reaching the driver."""
    import pyarrow as pa

    from entityblockingbysimilarityjoins_ray.functions.tokenize import oracle_tokens

    from entityblockingbysimilarityjoins_ray.stages import blocking as B

    docs = pd.DataFrame({
        "conv_id": [f"c{i}" for i in range(6)],
        "doc": ["a b c", "a b d", "c d e", "unique1 unique2", "", "a e f"],
    })
    toks = B.tokenize_docs(ray.data.from_pandas(docs), "doc", "dlm")
    got_toks, got_dfs = B.build_df_table(toks, min_df=2)
    # brute-force df over hashed tokens
    from collections import Counter

    from entityblockingbysimilarityjoins_ray.functions.hashing import hash_strings

    cnt = Counter()
    for d in docs["doc"]:
        for tok in set(oracle_tokens(d, "dlm")):
            cnt[tok] += 1
    kept = {t: c for t, c in cnt.items() if c >= 2}
    toks_arr = np.array(sorted(kept), dtype=object)
    h = hash_strings(toks_arr) if len(toks_arr) else np.zeros(0, np.int64)
    order = np.argsort(h)
    assert got_toks.tolist() == h[order].tolist()
    exp_dfs = np.array([kept[t] for t in toks_arr], np.int64)[order]
    assert got_dfs.tolist() == exp_dfs.tolist()


def test_anm_rs_dense_band_cap_truncates(ray_session):
    """max_band_pairs caps a planted dense band (logged truncation in the
    worker); default (None) stays exact."""
    from entityblockingbysimilarityjoins_ray.stages import blocking as B

    n = 40
    a = pd.DataFrame({"conv_id": [f"a{i}" for i in range(n)],
                      "v": np.full(n, 100.0)})
    b = pd.DataFrame({"conv_id": [f"b{i}" for i in range(n)],
                      "v": np.full(n, 100.0)})
    da, db = ray.data.from_pandas(a), ray.data.from_pandas(b)
    cfg = PipelineConfig(pair_partitions=4)
    exact = B.anm_rs_join(da, db, "v", 0.9, cfg).count()
    assert exact == n * n
    capped = B.anm_rs_join(da, db, "v", 0.9, cfg, max_band_pairs=100).count()
    # keep_a = max(1, 100 // 40) = 2 whole A rows -> 2 * 40 pairs
    assert capped == 2 * n


def test_setsim_self_broadcast_runs_no_shuffle(tiny_docs, toks_dlm, monkeypatch):
    """The broadcast self joins — one rule and fused jac+cos — probe the
    driver-built prefix postings in map_batches: with Dataset.groupby /
    sort refusing, they still equal the grid plan row for row."""
    from entityblockingbysimilarityjoins_ray.stages.blocking import setsim_self_join_multi

    rules = [("jac", 0.5), ("cos", 0.7)]
    exp_one = setsim_self_join(toks_dlm, sim="jac", threshold=0.5, cfg=CFG,
                               broadcast=False).to_pandas()
    exp_multi = setsim_self_join_multi(toks_dlm, rules, CFG, broadcast=False).to_pandas()

    def refuse(*a, **k):
        raise AssertionError("the broadcast set-sim join must not shuffle")

    monkeypatch.setattr(ray.data.Dataset, "groupby", refuse)
    monkeypatch.setattr(ray.data.Dataset, "sort", refuse)
    got_one = setsim_self_join(toks_dlm, sim="jac", threshold=0.5, cfg=CFG,
                               broadcast=True).to_pandas()
    got_multi = setsim_self_join_multi(toks_dlm, rules, CFG, broadcast=True).to_pandas()
    key = ["id1", "id2", "sim"]
    for got, exp in ((got_one, exp_one), (got_multi, exp_multi)):
        assert len(got) > 0
        pd.testing.assert_frame_equal(
            got[key].round(12).sort_values(key).reset_index(drop=True),
            exp[key].round(12).sort_values(key).reset_index(drop=True))


def test_max_group_size_truncates_with_warning(ray_session, caplog):
    """A max_group_size cap keeps the shuffle plan even under the broadcast
    gate: its per-group truncation is logged, and the join returns a strict
    subset of the exact pairs."""
    import pyarrow as pa

    from entityblockingbysimilarityjoins_ray.stages import blocking as B

    n = 120
    docs = pd.DataFrame({
        "conv_id": [f"r{i:03d}" for i in range(n)],
        "doc": [f"hot1 hot2 m{i % 5} u{i}" for i in range(n)],
    })
    toks = tokenize_docs(ray.data.from_pandas(docs), "doc", "dlm").materialize()
    cfg = PipelineConfig(num_buckets=8, pair_partitions=8, max_group_size=10)
    exact = {(r["id1"], r["id2"]) for r in setsim_self_join(
        toks, sim="jac", threshold=0.5, cfg=CFG).take_all()}
    capped = {(r["id1"], r["id2"]) for r in setsim_self_join(
        toks, sim="jac", threshold=0.5, cfg=cfg, broadcast=True).take_all()}
    assert capped < exact
    # the warning is logged inside the pair-generation task: run one bucket
    # of it in-process to see it
    df_ref = ray.put(B.build_df_table(toks))
    sigs = pa.concat_tables([B._emit_signatures(
        t, df_ref=df_ref, rules=[("jac", 0.5)], pair_partitions=1,
        salt_df_threshold=10_000, salt_factor=1)
        for t in toks.iter_batches(batch_format="pyarrow")])
    with caplog.at_level("WARNING", logger=B.__name__):
        B._pairgen_bucket(sigs, rules=[("jac", 0.5)], alpha=0.5, max_group_size=10)
    assert any("truncating" in r.getMessage() and "cap=10" in r.getMessage()
               for r in caplog.records)
