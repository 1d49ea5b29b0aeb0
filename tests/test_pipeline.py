"""End-to-end ER pipeline: F1 vs planted gold, rule union semantics,
checkpoint/resume, determinism across parallelism levels (in-session proxy:
different bucket counts must give identical results)."""

import itertools
import json
import os

import numpy as np
import pandas as pd
import pytest
import ray.data

from entityblockingbysimilarityjoins_ray.config import BlockingRule, PipelineConfig
from entityblockingbysimilarityjoins_ray.fixtures import generate
from entityblockingbysimilarityjoins_ray.pipelines.er import block, run_pipeline, union_rules
from entityblockingbysimilarityjoins_ray.stages import blocking as B

RULES = [
    BlockingRule("doc", "jac", "dlm", threshold=0.5),
    BlockingRule("doc", "cos", "dlm", threshold=0.55),
    BlockingRule("head", "exm"),
]


def _cfg(**kw):
    base = dict(num_buckets=8, pair_partitions=8, rules=RULES, match_threshold=0.45)
    base.update(kw)
    return PipelineConfig(**base)


@pytest.fixture(scope="module")
def pipeline_result(tiny_fixture):
    tdf, gold_pairs, _ = tiny_fixture
    res = run_pipeline(ray.data.from_pandas(tdf), _cfg(), gold_pairs=gold_pairs)
    return res


def test_match_f1_meets_target(pipeline_result):
    prf = pipeline_result["metrics"]["match_prf"]
    assert prf["f1"] >= 0.99, prf  # BASELINE.json criterion


def test_clusters_match_gold_partition(pipeline_result, tiny_fixture):
    _, _, gold_clusters = tiny_fixture
    cl = pipeline_result["clusters"].to_pandas()

    def part_pairs(df, col):
        out = set()
        for _, g in df.groupby(col):
            ids = sorted(g["conv_id"])
            out |= set(itertools.combinations(ids, 2))
        return out

    pred = part_pairs(cl, "entity_id")
    gold = part_pairs(gold_clusters, "entity_id")
    tp = len(pred & gold)
    p = tp / max(len(pred), 1)
    r = tp / len(gold)
    assert p >= 0.99 and r >= 0.99, (p, r)


def test_passed_rules_counts(tiny_docs):
    """Rule-union semantics (blocker_util.cc:8-108): passed_rules = number of
    rules whose join emitted the pair."""
    docs, pdocs = tiny_docs
    cfg = _cfg()
    cands = block(docs, cfg).to_pandas()
    assert cands.duplicated(["id1", "id2"]).sum() == 0
    # spot check: recompute per-rule membership with oracles
    from entityblockingbysimilarityjoins_ray.functions import sims as S
    from entityblockingbysimilarityjoins_ray.functions.tokenize import oracle_tokens

    bags = {r.conv_id: oracle_tokens(r.doc, "dlm") for r in pdocs.itertuples()}
    heads = pdocs.set_index("conv_id")["head"]
    sample = cands.sample(n=min(150, len(cands)), random_state=0)
    for r in sample.itertuples():
        n = 0
        n += S.jaccard(bags[r.id1], bags[r.id2]) >= 0.5
        n += S.cosine(bags[r.id1], bags[r.id2]) >= 0.55
        n += heads[r.id1] == heads[r.id2]
        assert n == r.passed_rules, (r.id1, r.id2, n, r.passed_rules)


def test_checkpoint_resume(tmp_path, tiny_fixture):
    tdf, gold_pairs, _ = tiny_fixture
    ck = str(tmp_path / "ck")
    cfg = _cfg(checkpoint_dir=ck, resume=True)
    res1 = run_pipeline(ray.data.from_pandas(tdf), cfg, gold_pairs=gold_pairs)
    man1 = json.load(open(os.path.join(ck, "candidates", "_MANIFEST.json")))
    assert man1["complete"] and man1["rows"] > 0 and man1["partitions"]
    # resume: stage dirs must be reused (manifest timestamps unchanged)
    mtime = os.path.getmtime(os.path.join(ck, "candidates", "_MANIFEST.json"))
    res2 = run_pipeline(ray.data.from_pandas(tdf), cfg, gold_pairs=gold_pairs)
    assert os.path.getmtime(os.path.join(ck, "candidates", "_MANIFEST.json")) == mtime
    m1 = res1["matches"].to_pandas().sort_values(["id1", "id2"]).reset_index(drop=True)
    m2 = res2["matches"].to_pandas().sort_values(["id1", "id2"]).reset_index(drop=True)
    pd.testing.assert_frame_equal(m1, m2)
    # config change invalidates the fingerprint -> recompute
    cfg2 = _cfg(checkpoint_dir=ck, resume=True, match_threshold=0.6)
    run_pipeline(ray.data.from_pandas(tdf), cfg2, gold_pairs=gold_pairs)
    man3 = json.load(open(os.path.join(ck, "matches", "_MANIFEST.json")))
    assert man3["fingerprint"] != man1.get("matches", {})


def test_determinism_across_partitioning(tiny_fixture):
    """Same input, different shuffle fanout -> identical pair sets
    (FIXTURES.md F4 determinism criterion)."""
    tdf, _, _ = tiny_fixture
    outs = []
    for nb, pp in [(4, 4), (16, 16)]:
        cfg = _cfg(num_buckets=nb, pair_partitions=pp)
        res = run_pipeline(ray.data.from_pandas(tdf), cfg)
        m = res["matches"].to_pandas().sort_values(["id1", "id2"]).reset_index(drop=True)
        outs.append(m[["id1", "id2"]])
    pd.testing.assert_frame_equal(outs[0], outs[1])


def test_fused_multi_rule_equals_separate_union(tiny_docs):
    """setsim_self_join_multi (one fused signature->pairgen->verify pass)
    must be output-identical — pairs, passed_rules counts AND max-sim — to
    running each rule's join separately and unioning."""
    docs, _ = tiny_docs
    cfg = _cfg()
    toks = B.tokenize_docs(docs, "doc", "dlm", 3).materialize()
    rules = [("jac", 0.5), ("cos", 0.55), ("overlap", 3.0)]
    fused = B.setsim_self_join_multi(toks, rules, cfg)
    seps = [B.setsim_self_join(toks, sim=s, threshold=t, cfg=cfg) for s, t in rules]

    def norm(ds):
        return (union_rules([ds] if not isinstance(ds, list) else ds, cfg)
                .to_pandas().sort_values(["id1", "id2"]).reset_index(drop=True))

    pd.testing.assert_frame_equal(norm(fused), norm(seps))


def test_topk_trigger_valve(tiny_docs):
    """pretopKviaTASelf semantics: the top-K cap fires ONLY above the
    trigger size (blocker_util.cc:111-129)."""
    from entityblockingbysimilarityjoins_ray.config import BlockingRule, PipelineConfig
    from entityblockingbysimilarityjoins_ray.pipelines.er import block

    docs, _ = tiny_docs
    base = dict(num_buckets=8, pair_partitions=8,
                rules=[BlockingRule("doc", "jac", "dlm", threshold=0.3)])
    full = block(docs, PipelineConfig(**base)).count()
    assert full > 10
    # trigger far above the union size -> cap must NOT fire
    out1 = block(docs, PipelineConfig(**base, topk=10, topk_trigger=10**9))
    assert out1.count() == full
    # trigger below the union size -> cap fires
    out2 = block(docs, PipelineConfig(**base, topk=10, topk_trigger=1))
    assert out2.count() == 10


def test_rules_from_text_reference_grammar():
    """rules.txt: count + 'feature_name sign threshold' lines
    (extract_formula.py:6-14; io.h:93); name grammar attr_attr_sim_tok
    (graph.py:296-302)."""
    from entityblockingbysimilarityjoins_ray.config import (
        rule_from_feature_name, rules_from_text)

    rules = rules_from_text("""2
title_title_jac_dlm_dc0 + 0.7
head_head_lev_none + 2
""")
    assert [(r.attr, r.sim, r.tok, r.threshold) for r in rules] == [
        ("title", "jac", "dlm", 0.7), ("head", "lev", "none", 2.0)]
    r = rule_from_feature_name("doc_doc_cos_qgm5_dc0", 0.6)
    assert (r.attr, r.sim, r.tok, r.q) == ("doc", "cos", "qgm", 5)
    # headerless variant + single-attr forms
    rules = rules_from_text("n_turns_anm + 0.8")
    assert [(r.attr, r.sim) for r in rules] == [("n_turns", "anm")]


def test_rule_name_with_underscored_attr():
    """Megallen doubled-attr collapse must handle multi-underscore attrs."""
    from entityblockingbysimilarityjoins_ray.config import rule_from_feature_name

    r = rule_from_feature_name("n_turns_n_turns_anm", 0.8)
    assert (r.attr, r.sim) == ("n_turns", "anm")
    r = rule_from_feature_name("beer_name_beer_name_jac_dlm_dc0", 0.7)
    assert (r.attr, r.sim, r.tok) == ("beer_name", "jac", "dlm")


def test_grid_plan_features_take_attach_join(tiny_fixture, monkeypatch):
    """broadcast_limit=0 sends run_pipeline's features through attach_pairs'
    join branch; feature rows and matches equal the default plan's."""
    import entityblockingbysimilarityjoins_ray.pipelines.er as er
    import entityblockingbysimilarityjoins_ray.stages.joins as J

    tdf, gold_pairs, _ = tiny_fixture
    joins_taken, feats = [], []
    real_join, real_extract = J._attach_join, er.extract_features

    def spy_join(*a, **k):
        joins_taken.append(1)
        return real_join(*a, **k)

    def spy_extract(*a, **k):
        out = real_extract(*a, **k).materialize()
        feats.append(out.to_pandas().sort_values(["id1", "id2"]).reset_index(drop=True))
        return out

    monkeypatch.setattr(J, "_attach_join", spy_join)
    monkeypatch.setattr(er, "extract_features", spy_extract)
    runs = []
    for limit in (2_000_000, 0):
        res = run_pipeline(ray.data.from_pandas(tdf), _cfg(broadcast_limit=limit),
                           gold_pairs=gold_pairs)
        runs.append(res["matches"].to_pandas().sort_values(["id1", "id2"])
                    .reset_index(drop=True))
        assert len(joins_taken) == (limit == 0), limit
    pd.testing.assert_frame_equal(feats[0], feats[1], check_exact=True)
    pd.testing.assert_frame_equal(runs[0], runs[1], check_exact=True)
    assert len(feats[0]) > 0 and len(runs[0]) > 0
