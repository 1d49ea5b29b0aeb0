"""End-to-end entity-resolution pipeline over transcript Parquet.

The canonical flow (reference lifecycle, SURVEY.md §3.1, re-expressed as one
lazy Ray Data DAG with optional Parquet checkpoints between stages):

    read_parquet(transcripts)
      -> canonicalize (groupby conv_id, stable turn order)        [shuffle 1]
      -> per-rule blocking joins -> OR-union + passed_rules       [shuffle 2]
      -> feature extraction (actor pool, broadcast doc state)
      -> match decision (threshold or random forest)
      -> transitive clustering (connected components)             [shuffle 3]

Rule union semantics mirror BlockerUtil::synthesizePairsSelf + mergePairs
(/root/reference/cpp/blocker/blocker_util.cc:8-108): per-rule pair sets are
OR-merged, pairs canonicalized to (min,max), and ``passed_rules`` counts how
many rules fired per pair.  An ``exm`` rule on an attribute suppresses a
duplicate exact join on the same attribute (simjoin_blocker.cc:86-95).
"""

from __future__ import annotations

import logging
import os

import numpy as np
import pandas as pd
import ray.data

from ..config import BlockingRule, PipelineConfig
from ..sources.io import checkpoint_stage, fingerprint
from ..stages import blocking as B
from ..stages.canonicalize import canonicalize
from ..stages.cluster import cluster_entities
from ..stages.editjoin import edit_self_join
from ..stages.features import DEFAULT_FEATURES, extract_features
from ..stages.matcher import distributed_prf, threshold_match

logger = logging.getLogger(__name__)


class _SetsimShared:
    """Per-(attr, tok, q) state shared by every setsim-family rule: tokenized
    dataset, df table, broadcast verify index, empty-record ids, count.
    Mirrors the reference's per-tokenization datasets_map
    (block.cc:204-273) — built once, probed per rule."""

    def __init__(self, docs: "ray.data.Dataset", cfg: PipelineConfig):
        self.docs = docs
        self.cfg = cfg
        self._by_key: dict = {}
        self._n_records: int | None = None

    def n_records(self) -> int:
        if self._n_records is None:
            self._n_records = self.docs.count()
        return self._n_records

    def get(self, attr: str, tok: str, q: int) -> dict:
        import ray as _ray

        key = (attr, tok, q)
        if key not in self._by_key:
            toks = B.tokenize_docs(self.docs, attr, tok, q).materialize()
            from ..stages.verify import should_broadcast

            broadcast = should_broadcast(toks, self.n_records(),
                                         self.cfg.broadcast_limit,
                                         self.cfg.broadcast_bytes_limit)
            entry = {
                "toks": toks,
                "broadcast": broadcast,
                "verify_ref": None,
                "shard_store": None,
                "empty_ids": [],
            }
            if broadcast:
                # ONE driver collect yields the verify index, the global df
                # table (bincount over dense labels) and the empty-record
                # ids — the distributed df and empty-id passes are skipped
                from ..stages.verify import collect_token_index_with_df

                idx, df_table = collect_token_index_with_df(toks)
                entry["verify_ref"] = _ray.put(idx)
                entry["df_ref"] = _ray.put(df_table)
                if self.cfg.include_empty_pairs:
                    entry["empty_ids"] = B.index_empty_ids(idx[0], idx[2])
            else:
                if self.cfg.include_empty_pairs:
                    entry["empty_ids"] = B.empty_record_ids(toks)
                entry["df_ref"] = _ray.put(B.build_df_table(toks))
                # ONE sharded token store per tokenization, shared by every
                # rule taking the beyond-broadcast grid-verify path
                from ..stages.verify import build_token_shard_store

                # the fingerprint folds the INPUT's identity, not just
                # config: when the store is keyed (shard_store_dir set, so a
                # later run may resume it) that identity is a distributed
                # CONTENT fingerprint — the row count plus a wrapping sum of
                # per-row mix64(id-hash ⊕ payload-hash) — so an edited
                # corpus with the same count can never silently reuse a
                # stale token store; cfg.resume=False
                # forces a rebuild outright
                from ..stages.verify import dataset_content_fp

                ident = (dataset_content_fp(toks)
                         if self.cfg.shard_store_dir else self.n_records())
                entry["shard_store"] = build_token_shard_store(
                    toks, num_shards=B.verify_shards(self.cfg),
                    store_dir=self.cfg.shard_store_dir,
                    fp=fingerprint("shard_store", key, self.cfg.num_buckets,
                                   self.cfg.doc_sep, ident),
                    resume=self.cfg.resume)
            self._by_key[key] = entry
        return self._by_key[key]


def run_rule(
    docs: "ray.data.Dataset",
    rule: BlockingRule,
    cfg: PipelineConfig,
    shared: "_SetsimShared | None" = None,
) -> "ray.data.Dataset":
    """Dispatch one blocking rule to its join implementation
    (simjoin_blocker.cc:8-177 dispatch table)."""
    if rule.sim in ("jac", "cos", "dice", "overlap"):
        if shared is None:
            shared = _SetsimShared(docs, cfg)
        st = shared.get(rule.attr, rule.tok, rule.q)
        return B.setsim_self_join(
            st["toks"], sim=rule.sim, threshold=rule.threshold, cfg=cfg,
            df_ref=st["df_ref"], broadcast=st["broadcast"],
            verify_ref=st["verify_ref"], empty_ids=st["empty_ids"],
            n_records=shared.n_records(), shard_store=st["shard_store"],
        )
    if rule.sim == "exm":
        return B.exact_self_join(docs, rule.attr, cfg)
    if rule.sim == "anm":
        return B.anm_self_join(docs, rule.attr, rule.threshold, cfg)
    if rule.sim == "lev":
        if rule.lev_metric == "sim":
            from ..stages.editjoin import lev_sim_self_join

            return lev_sim_self_join(docs, rule.attr, rule.threshold, cfg)
        return edit_self_join(docs, rule.attr, int(rule.threshold), cfg)
    raise ValueError(f"unknown rule sim {rule.sim!r}")


def union_rules(
    rule_pairs: list["ray.data.Dataset"], cfg: PipelineConfig
) -> "ray.data.Dataset":
    """OR-union per-rule pair sets; output {id1,id2,passed_rules,sim}."""
    assert rule_pairs
    import pyarrow as pa

    def norm(t: pa.Table) -> pa.Table:
        # Arrow-native projection: the rule outputs arrive as thousands of
        # small verify blocks, and a per-block pandas conversion here cost
        # more than the whole union's real work
        if "sim" in t.column_names:
            return t.select(["id1", "id2", "sim"])
        return t.select(["id1", "id2"]).append_column(
            "sim", pa.array(np.full(t.num_rows, np.nan), pa.float64()))

    tagged = [ds.map_batches(norm, batch_format="pyarrow") for ds in rule_pairs]
    unioned = tagged[0]
    for ds in tagged[1:]:
        unioned = unioned.union(ds)
    # survivor-level dedup: cap the bucket fan-out (B.survivor_partitions)
    return B.dedupe_pairs(unioned, B.survivor_partitions(cfg),
                          count_col="passed_rules")


def block(
    docs: "ray.data.Dataset", cfg: PipelineConfig
) -> "ray.data.Dataset":
    """All configured rules -> unioned candidate pairs.

    With ``cfg.topk`` set, the union is capped to the top-K pairs by blended
    4-sim score — the reference's post-union output-size budget
    (block_main.cc:79-118, TA semantics).

    Set-sim rules sharing one (attr, tok, q) tokenization are FUSED into a
    single signature->pairgen->verify pass (setsim_self_join_multi): the
    fused join emits one row per (pair, passing rule), so the OR-union +
    passed_rules count below is output-identical to running each rule
    separately — at roughly the cost of the loosest single rule."""
    shared = _SetsimShared(docs, cfg)
    groups: dict[tuple, list[BlockingRule]] = {}
    others: list[BlockingRule] = []
    for r in cfg.rules:
        if r.sim in ("jac", "cos", "dice", "overlap"):
            groups.setdefault((r.attr, r.tok, r.q), []).append(r)
        else:
            others.append(r)
    per_rule = []
    for key, grp in groups.items():
        st = shared.get(*key)
        if len(grp) == 1:
            per_rule.append(run_rule(docs, grp[0], cfg, shared))
        else:
            per_rule.append(
                B.setsim_self_join_multi(
                    st["toks"], [(g.sim, g.threshold) for g in grp], cfg,
                    df_ref=st["df_ref"], broadcast=st["broadcast"],
                    verify_ref=st["verify_ref"], empty_ids=st["empty_ids"],
                    n_records=shared.n_records(), shard_store=st["shard_store"],
                )
            )
    per_rule.extend(run_rule(docs, r, cfg, shared) for r in others)
    unioned = union_rules(per_rule, cfg)
    if cfg.topk is None:
        return unioned
    if cfg.topk_trigger is not None:
        # pre-top-K safety valve (pretopKviaTASelf, blocker_util.cc:111-129):
        # the cap only fires when the union exceeds MAX_TOTAL_SIZE
        unioned = unioned.materialize()
        if unioned.count() <= cfg.topk_trigger:
            return unioned
        logger.warning("block: union exceeds topk_trigger=%d — applying top-%d cap",
                       cfg.topk_trigger, cfg.topk)
    from ..stages.topk import blended_score_pairs, topk_pairs

    # score on the first setsim rule's tokenization (reference topKattr),
    # falling back to the default dlm tokenization of the first rule's attr
    first = next((r for r in cfg.rules if r.sim in ("jac", "cos", "dice", "overlap")),
                 cfg.rules[0])
    st = shared.get(first.attr, first.tok if first.tok != "none" else "dlm", first.q)
    scored = blended_score_pairs(unioned, st["toks"], toks_ref=st["verify_ref"])
    top = topk_pairs(scored, cfg.topk)
    import ray.data as _rd

    return _rd.from_pandas(top)


def run_pipeline(
    transcripts: "ray.data.Dataset",
    cfg: PipelineConfig,
    *,
    gold_pairs: pd.DataFrame | None = None,
    feature_specs=DEFAULT_FEATURES,
    score_cols: list[str] | None = None,
) -> dict:
    """Full ER run; returns dict of stage datasets + metrics.

    With cfg.checkpoint_dir set, each stage is checkpointed to Parquet with a
    lineage manifest and reloaded on resume (fingerprint-matched)."""
    ck = cfg.checkpoint_dir
    metrics: dict = {}

    fp_in = fingerprint("v1", cfg.num_buckets, cfg.doc_sep)

    def docs_factory():
        return canonicalize(transcripts, num_buckets=cfg.num_buckets, sep=cfg.doc_sep)

    if ck:
        docs, man = checkpoint_stage(docs_factory, os.path.join(ck, "docs"), fp_in, resume=cfg.resume)
        metrics["docs"] = man
    else:
        docs = docs_factory().materialize()

    fp_blk = fingerprint(fp_in, [r.name for r in cfg.rules], cfg.pair_partitions,
                         cfg.salt_df_threshold, cfg.salt_factor, cfg.max_group_size)

    def cand_factory():
        return block(docs, cfg)

    if ck:
        candidates, man = checkpoint_stage(cand_factory, os.path.join(ck, "candidates"), fp_blk, resume=cfg.resume)
        metrics["candidates"] = man
    else:
        candidates = cand_factory().materialize()

    feats = extract_features(candidates, docs, feature_specs,
                             broadcast_limit=cfg.broadcast_limit,
                             n_records=docs.count())
    cols = score_cols or [s.name for s in feature_specs if s.sim in ("jac", "cos", "dice")]

    fp_match = fingerprint(fp_blk, cols, cfg.match_threshold)

    def match_factory():
        return threshold_match(feats, score_cols=cols, threshold=cfg.match_threshold)

    if ck:
        matches, man = checkpoint_stage(match_factory, os.path.join(ck, "matches"), fp_match, resume=cfg.resume)
        metrics["matches"] = man
    else:
        matches = match_factory().materialize()

    clusters = cluster_entities(
        matches,
        docs.select_columns(["conv_id"]),
        driver_limit=cfg.cc_driver_limit,
        num_partitions=cfg.pair_partitions,
        max_iters=cfg.cc_max_iters,
    ).materialize()

    if gold_pairs is not None:
        # DISTRIBUTED metrics: gold broadcasts (small by construction), the
        # match/candidate sets are never collected — at 100x the candidate
        # set is the job's largest intermediate and a to_pandas() here was
        # the one driver-OOM hazard left in the pipeline
        metrics["match_prf"] = distributed_prf(matches, gold_pairs)
        metrics["blocking_prf"] = distributed_prf(candidates, gold_pairs)

    return {
        "docs": docs,
        "candidates": candidates,
        "matches": matches,
        "clusters": clusters,
        "metrics": metrics,
    }
