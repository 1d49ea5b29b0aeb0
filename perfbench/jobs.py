"""The benchmark's jobs, each as a user runs it (``*_run``) and as a traced
replay (``*_replay``).

``*_run`` is what ``steal_free_wall_s`` times, from the input read to the
final output counted.  ``*_replay`` performs the same job as a sequence of
public calls, one span per call, each result materialized inside its span;
it must reach the same outputs as ``*_run``.

Every job returns ``Outputs``: the wall and steal-free times, the output
counts, the quality figures against the planted gold pairs and the collected
frames the checks need (collected after the clock stops).
"""

from __future__ import annotations

import os
import shutil
from dataclasses import dataclass

import pandas as pd

from entityblockingbysimilarityjoins_ray.config import BlockingRule, PipelineConfig
from entityblockingbysimilarityjoins_ray.pipelines.er import run_pipeline, union_rules
from entityblockingbysimilarityjoins_ray.sources.io import read_parquet_clean
from entityblockingbysimilarityjoins_ray.stages import blocking as B
from entityblockingbysimilarityjoins_ray.stages.canonicalize import canonicalize
from entityblockingbysimilarityjoins_ray.stages.cluster import cluster_entities
from entityblockingbysimilarityjoins_ray.stages.editjoin import edit_rs_join
from entityblockingbysimilarityjoins_ray.stages.features import (
    DEFAULT_FEATURES,
    extract_features,
)
from entityblockingbysimilarityjoins_ray.stages.matcher import (
    distributed_prf,
    threshold_match,
)
from entityblockingbysimilarityjoins_ray.stages.verify import (
    collect_token_index_with_df,
    should_broadcast,
)

from checks import prf
from spans import Stopwatch

#: the three rules of the repository's bench.py: a fused jac+cos set-sim
#: join on the canonical doc and an exact join on the first turn
ER_RULES = [
    BlockingRule("doc", "jac", "dlm", threshold=0.5),
    BlockingRule("doc", "cos", "dlm", threshold=0.55),
    BlockingRule("head", "exm"),
]
MATCH_THRESHOLD = 0.45
SCORE_COLS = [s.name for s in DEFAULT_FEATURES if s.sim in ("jac", "cos", "dice")]
RS_JAC = 0.5  # setsim_rs_join threshold on doc
RS_LEV_ATTR, RS_LEV_D = "head", 2  # edit_rs_join attribute and distance


@dataclass
class Outputs:
    wall_s: float
    steal_free_s: float  # wall_s with the hypervisor's CPU steal taken out
    counts: dict
    quality: dict  # match_f1, blocking_recall
    frames: dict  # collected outputs for the checks


def er_config(plan: str, scratch: str) -> PipelineConfig:
    """``bcast``: the default broadcast plan.  ``grid``: the path of a run
    beyond memory: every broadcast switch off, so verify runs on the
    shard-store grid and joins hash-join, with Parquet checkpoints written
    between stages."""
    extra = {}
    if plan == "grid":
        extra = {"broadcast_limit": 0, "broadcast_bytes_limit": 0,
                 "checkpoint_dir": os.path.join(scratch, "ck"), "resume": False}
    return PipelineConfig(rules=list(ER_RULES), match_threshold=MATCH_THRESHOLD,
                          shard_store_dir=os.path.join(scratch, "shards"), **extra)


def rs_config(scratch: str) -> PipelineConfig:
    return PipelineConfig(shard_store_dir=os.path.join(scratch, "shards"))


def clear_scratch(scratch: str) -> None:
    """Drop checkpoints and shard stores left by the previous job."""
    shutil.rmtree(scratch, ignore_errors=True)
    os.makedirs(scratch)


# ---------------------------------------------------------------- ER ----


def _er_frames(docs, candidates, matches, clusters: pd.DataFrame) -> dict:
    return {
        "docs": docs.select_columns(["conv_id", "doc", "head"]).to_pandas(),
        "candidates": candidates.to_pandas(),
        "matches": matches.to_pandas(),
        "clusters": clusters,
    }


def er_run(inp: dict, cfg: PipelineConfig, gold: pd.DataFrame) -> Outputs:
    clock = Stopwatch()
    res = run_pipeline(read_parquet_clean(inp["transcripts"]), cfg, gold_pairs=gold)
    counts = {"candidates": res["candidates"].count(),
              "matches": res["matches"].count()}
    clusters = res["clusters"].to_pandas()
    counts["entities"] = int(clusters["entity_id"].nunique())
    times = clock.stop()
    m = res["metrics"]
    return Outputs(*times, counts,
                   {"match_f1": m["match_prf"]["f1"],
                    "blocking_recall": m["blocking_prf"]["recall"]},
                   _er_frames(res["docs"], res["candidates"], res["matches"], clusters))


def er_replay(inp: dict, cfg: PipelineConfig, gold: pd.DataFrame, tr) -> Outputs:
    """``run_pipeline`` on the broadcast plan as its sequence of public
    calls."""
    import ray

    clock = Stopwatch()
    with tr.span("run"):
        with tr.span("io.read") as s:
            turns = read_parquet_clean(inp["transcripts"]).materialize()
            tr.observe(s, turns)
        with tr.span("canonicalize") as s:
            docs = canonicalize(turns, num_buckets=cfg.num_buckets,
                                sep=cfg.doc_sep).materialize()
            tr.observe(s, docs)

        with tr.span("blocking.tokenize") as s:
            toks = B.tokenize_docs(docs, "doc", "dlm").materialize()
            tr.observe(s, toks)
        with tr.span("blocking.index"):
            n_records = docs.count()
            if not should_broadcast(toks, n_records, cfg.broadcast_limit,
                                    cfg.broadcast_bytes_limit):
                raise RuntimeError("the replay covers the broadcast plan only")
            empty_ids = B.empty_record_ids(toks) if cfg.include_empty_pairs else []
            idx, df_table = collect_token_index_with_df(toks)
            verify_ref, df_ref = ray.put(idx), ray.put(df_table)
        setsim = [(r.sim, r.threshold) for r in cfg.rules
                  if r.sim in ("jac", "cos", "dice", "overlap")]
        with tr.span("blocking.setsim_join") as s:
            sj = B.setsim_self_join_multi(
                toks, setsim, cfg, df_ref=df_ref, broadcast=True,
                verify_ref=verify_ref, empty_ids=empty_ids,
                n_records=n_records).materialize()
            tr.observe(s, sj)
        with tr.span("blocking.exact_join") as s:
            ej = B.exact_self_join(docs, "head", cfg).materialize()
            tr.observe(s, ej)
        with tr.span("er.rule_union") as s:
            candidates = union_rules([sj, ej], cfg).materialize()
            tr.observe(s, candidates)

        with tr.span("features") as s:
            feats = extract_features(candidates, docs, DEFAULT_FEATURES).materialize()
            tr.observe(s, feats)
        with tr.span("matcher.match") as s:
            matches = threshold_match(feats, score_cols=SCORE_COLS,
                                      threshold=cfg.match_threshold).materialize()
            tr.observe(s, matches)

        with tr.span("cluster") as s:
            clusters_ds = cluster_entities(
                matches, docs.select_columns(["conv_id"]),
                driver_limit=cfg.cc_driver_limit,
                num_partitions=cfg.pair_partitions,
                max_iters=cfg.cc_max_iters).materialize()
            tr.observe(s, clusters_ds)
        with tr.span("matcher.prf"):
            match_prf = distributed_prf(matches, gold)
            blocking_prf = distributed_prf(candidates, gold)
        counts = {"candidates": candidates.count(), "matches": matches.count()}
        clusters = clusters_ds.to_pandas()
        counts["entities"] = int(clusters["entity_id"].nunique())
    return Outputs(*clock.stop(), counts,
                   {"match_f1": match_prf["f1"],
                    "blocking_recall": blocking_prf["recall"]},
                   _er_frames(docs, candidates, matches, clusters))


# ---------------------------------------------------------------- RS ----


def _rs_outputs(times, da, db, jac, lev, gold_ab: pd.DataFrame) -> Outputs:
    counts = {"rs_jac": jac.count(), "rs_lev": lev.count()}
    frames = {
        "docs_a": da.select_columns(["conv_id", "doc", "head"]).to_pandas(),
        "docs_b": db.select_columns(["conv_id", "doc", "head"]).to_pandas(),
        "rs_jac": jac.to_pandas(),
        "rs_lev": lev.to_pandas(),
    }
    # the link decision is the union of both joins' pairs
    linked = pd.concat([frames["rs_jac"][["id1", "id2"]],
                        frames["rs_lev"][["id1", "id2"]]]).drop_duplicates()
    q = prf(linked, gold_ab)
    return Outputs(*times, counts,
                   {"match_f1": q["f1"], "blocking_recall": q["recall"]}, frames)


def rs_run(inp: dict, cfg: PipelineConfig, gold_ab: pd.DataFrame) -> Outputs:
    clock = Stopwatch()
    da = canonicalize(read_parquet_clean(inp["a"]), num_buckets=cfg.num_buckets,
                      sep=cfg.doc_sep).materialize()
    db = canonicalize(read_parquet_clean(inp["b"]), num_buckets=cfg.num_buckets,
                      sep=cfg.doc_sep).materialize()
    ta = B.tokenize_docs(da, "doc", "dlm").materialize()
    tb = B.tokenize_docs(db, "doc", "dlm").materialize()
    jac = B.setsim_rs_join(ta, tb, sim="jac", threshold=RS_JAC, cfg=cfg).materialize()
    lev = edit_rs_join(da, db, RS_LEV_ATTR, RS_LEV_D, cfg).materialize()
    jac.count(), lev.count()
    return _rs_outputs(clock.stop(), da, db, jac, lev, gold_ab)


def rs_replay(inp: dict, cfg: PipelineConfig, gold_ab: pd.DataFrame, tr) -> Outputs:
    clock = Stopwatch()
    with tr.span("run"):
        with tr.span("io.read") as s:
            ra = read_parquet_clean(inp["a"]).materialize()
            rb = read_parquet_clean(inp["b"]).materialize()
            tr.observe(s, ra)
            tr.observe(s, rb)
        with tr.span("canonicalize") as s:
            da = canonicalize(ra, num_buckets=cfg.num_buckets, sep=cfg.doc_sep).materialize()
            db = canonicalize(rb, num_buckets=cfg.num_buckets, sep=cfg.doc_sep).materialize()
            tr.observe(s, da)
            tr.observe(s, db)
        with tr.span("blocking.tokenize") as s:
            ta = B.tokenize_docs(da, "doc", "dlm").materialize()
            tb = B.tokenize_docs(db, "doc", "dlm").materialize()
            tr.observe(s, ta)
            tr.observe(s, tb)
        with tr.span("blocking.rs_jac") as s:
            jac = B.setsim_rs_join(ta, tb, sim="jac", threshold=RS_JAC,
                                   cfg=cfg).materialize()
            tr.observe(s, jac)
        with tr.span("editjoin.rs_lev") as s:
            lev = edit_rs_join(da, db, RS_LEV_ATTR, RS_LEV_D, cfg).materialize()
            tr.observe(s, lev)
    return _rs_outputs(clock.stop(), da, db, jac, lev, gold_ab)
