"""Benchmark harness: headline ER pipeline + operator suite over $GRAFT_SF_DIR.

Prints ONE JSON line:
  {"metric": "...", "value": <total sec>, "unit": "sec",
   "queries": {...per-stage sec...}, "sf": ..., "num_cpus": N, ...}

`--scaling` runs the headline pipeline twice in fresh processes
(num_cpus=8 then 32) on the same input and reports throughput at both plus
the scaling efficiency (BASELINE.md protocol: the two-cluster-size criterion
evidenced by two parallelism levels in local mode).
"""

from __future__ import annotations

import json
import os
import subprocess
import sys
import time


def _init_ray(num_cpus: int):
    import ray

    if not ray.is_initialized():
        # object store pinned at 40% of physical RAM: Ray's default (30% of
        # available memory) sits under the 50%-of-task-memory share Ray Data
        # warns about on every run; 40% of RAM clears it (the task memory
        # resource is what is left after the store)
        ray.init(
            address="local",
            num_cpus=num_cpus,
            object_store_memory=os.sysconf("SC_PAGE_SIZE") * os.sysconf("SC_PHYS_PAGES") * 2 // 5,
            include_dashboard=False,
            ignore_reinit_error=True,
            logging_level="ERROR",
        )
    import logging

    import ray.data

    ctx = ray.data.DataContext.get_current()
    ctx.enable_progress_bars = False
    # default read fan-out (200 blocks) overslices the small local inputs
    # into ~170-row blocks, multiplying per-task overhead across every
    # downstream stage; 2 blocks/cpu is plenty for pipelining here, and at
    # real scale block count is data-driven anyway
    ctx.read_op_min_num_blocks = num_cpus * 2
    logging.getLogger("ray.data").setLevel(logging.WARNING)
    from entityblockingbysimilarityjoins_ray.raycompat import (
        suppress_empty_schema_warnings,
    )

    suppress_empty_schema_warnings()


def run_bench(sf_dir: str, num_cpus: int) -> dict:
    sys.path.insert(0, os.path.dirname(os.path.abspath(__file__)))
    from entityblockingbysimilarityjoins_ray.config import BlockingRule, PipelineConfig
    from entityblockingbysimilarityjoins_ray.fixtures import ensure_fixture, sf_of_dir
    from entityblockingbysimilarityjoins_ray.sources.io import read_parquet_clean

    info = ensure_fixture(sf_dir)  # untimed: deterministic synthesis + cache
    _init_ray(num_cpus)
    import ray
    import ray.data

    # warm the page cache (untimed) so we measure compute+shuffle, not cold IO
    read_parquet_clean(info["transcripts"]).count()

    from entityblockingbysimilarityjoins_ray.pipelines.er import run_pipeline

    # pair-level fanout 64x cores: with INLINE verify the pairgen task does
    # candidate gen + exact verify for its bucket, so fine partitions are the
    # straggler control (swept at sf0.1: 2048 beats 256 by ~1.6x at 32 cpus)
    pair_parts = max(256, num_cpus * 64)
    # GRAFT_BROADCAST_LIMIT=0 forces every broadcast gate onto its join
    # path — the beyond-broadcast family a 100 TB run actually takes
    bl = os.environ.get("GRAFT_BROADCAST_LIMIT")
    bl_kw = (
        {"broadcast_limit": int(bl), "broadcast_bytes_limit": int(bl)}
        if bl is not None else {}
    )
    cfg = PipelineConfig(
        num_buckets=max(32, num_cpus * 2),
        pair_partitions=pair_parts,
        rules=[
            BlockingRule("doc", "jac", "dlm", threshold=0.5),
            BlockingRule("doc", "cos", "dlm", threshold=0.55),
            BlockingRule("head", "exm"),
        ],
        match_threshold=0.45,
        **bl_kw,
    )

    queries: dict[str, float] = {}
    t_all0 = time.time()

    t0 = time.time()
    transcripts = read_parquet_clean(info["transcripts"])
    n_turns = transcripts.count()
    import pandas as pd

    gold = pd.read_parquet(info["gold_pairs"])
    res = run_pipeline(transcripts, cfg, gold_pairs=gold)
    n_candidates = res["candidates"].count()
    n_matches = res["matches"].count()
    n_clusters = res["clusters"].to_pandas()["entity_id"].nunique()
    queries["er_pipeline"] = round(time.time() - t0, 3)

    # operator suite over the testdata tables
    t0 = time.time()
    from entityblockingbysimilarityjoins_ray.stages.dedup import minhash_lsh_dedup

    minhash_lsh_dedup(
        read_parquet_clean(f"{sf_dir}/documents.parquet", columns=["doc_id", "text"]),
        threshold=0.5,
        **({"broadcast_limit": int(bl)} if bl is not None else {}),
    ).count()
    queries["minhash_lsh"] = round(time.time() - t0, 3)

    t0 = time.time()
    from entityblockingbysimilarityjoins_ray.stages.ann import ann_topk_bruteforce
    import numpy as np

    emb = read_parquet_clean(f"{sf_dir}/embeddings.parquet", columns=["vec_id", "embedding"])
    qids = [r["vec_id"] for r in emb.sort("vec_id").limit(16).take_all()]
    ann_topk_bruteforce(emb, np.array(qids), k=10)
    queries["ann_topk"] = round(time.time() - t0, 3)

    t0 = time.time()
    from entityblockingbysimilarityjoins_ray.stages.text import text_stats

    text_stats(read_parquet_clean(f"{sf_dir}/documents.parquet", columns=["doc_id", "text"])).count()
    queries["text_stats"] = round(time.time() - t0, 3)

    # RS (A x B) record-linkage leg — the reference's primary RS mode
    # (simjoin_blocker.cc:180-378): split the canonicalized corpus by conv-id
    # parity, then a jaccard set-sim RS join and an edit-distance RS join
    # over the split.  Both honor the broadcast-or-grid gate, so
    # GRAFT_BROADCAST_LIMIT=0 benches the beyond-broadcast RS family too.
    import numpy as np
    import pyarrow as pa
    import pyarrow.compute as pc

    t0 = time.time()
    from entityblockingbysimilarityjoins_ray.stages.blocking import (
        setsim_rs_join,
        tokenize_docs,
    )

    docs = res["docs"]

    def half(par: int):
        def f(t: pa.Table) -> pa.Table:
            ids = pc.cast(t.column("conv_id"), pa.string())
            n = np.asarray(pc.cast(pc.utf8_slice_codeunits(ids, 4, 99), pa.int64()))
            return t.filter(pa.array(n % 2 == par))

        return docs.map_batches(f, batch_format="pyarrow")

    da, db = half(0), half(1)
    toks_a = tokenize_docs(da, "doc", "dlm").materialize()
    toks_b = tokenize_docs(db, "doc", "dlm").materialize()
    n_rs_jac = setsim_rs_join(toks_a, toks_b, sim="jac", threshold=0.5, cfg=cfg).count()
    queries["rs_jac"] = round(time.time() - t0, 3)

    t0 = time.time()
    from entityblockingbysimilarityjoins_ray.stages.editjoin import edit_rs_join

    n_rs_lev = edit_rs_join(da, db, "head", 2, cfg).count()
    queries["rs_lev"] = round(time.time() - t0, 3)

    total = round(time.time() - t_all0, 3)
    m = res["metrics"].get("match_prf", {})
    return {
        "metric": "er_pipeline_and_operators_sec",
        "value": total,
        "unit": "sec",
        "queries": queries,
        "sf": sf_of_dir(sf_dir),
        "num_cpus": num_cpus,
        "n_turns": int(n_turns),
        "n_candidates": int(n_candidates),
        "n_matches": int(n_matches),
        "n_clusters": int(n_clusters),
        "n_rs_jac_pairs": int(n_rs_jac),
        "n_rs_lev_pairs": int(n_rs_lev),
        "turns_per_sec": round(n_turns / queries["er_pipeline"], 1),
        "match_f1": round(m.get("f1", 0.0), 5),
        "blocking_recall": round(res["metrics"].get("blocking_prf", {}).get("recall", 0.0), 5),
        **({"broadcast_limit": int(bl)} if bl is not None else {}),
    }


def run_scaling(sf_dir: str, lo: int = 8, hi: int = 32) -> dict:
    """Same job at two parallelism levels in FRESH processes."""
    out = {}
    for n in (lo, hi):
        env = dict(os.environ, RAY_GRAFT_CPUS=str(n), GRAFT_SF_DIR=sf_dir)
        p = subprocess.run(
            [sys.executable, os.path.abspath(__file__)],
            env=env, capture_output=True, text=True, check=True,
        )
        out[n] = json.loads(p.stdout.strip().splitlines()[-1])
    t_lo = out[lo]["queries"]["er_pipeline"]
    t_hi = out[hi]["queries"]["er_pipeline"]
    eff = (t_lo / t_hi) / (hi / lo)
    rs_lo = out[lo]["queries"].get("rs_jac", 0) + out[lo]["queries"].get("rs_lev", 0)
    rs_hi = out[hi]["queries"].get("rs_jac", 0) + out[hi]["queries"].get("rs_lev", 0)
    return {
        "metric": "scaling_efficiency",
        "value": round(eff, 3),
        "unit": "ratio",
        "sf": out[lo]["sf"],
        f"sec_{lo}": t_lo,
        f"sec_{hi}": t_hi,
        f"turns_per_sec_{lo}": out[lo]["turns_per_sec"],
        f"turns_per_sec_{hi}": out[hi]["turns_per_sec"],
        "speedup": round(t_lo / t_hi, 2),
        "ideal_speedup": hi / lo,
        f"rs_sec_{lo}": round(rs_lo, 3),
        f"rs_sec_{hi}": round(rs_hi, 3),
        "rs_efficiency": round((rs_lo / rs_hi) / (hi / lo), 3) if rs_hi else None,
    }


if __name__ == "__main__":
    sf_dir = os.environ.get("GRAFT_SF_DIR", "/root/testdata/sf0.1")
    num_cpus = int(os.environ.get("RAY_GRAFT_CPUS", "32"))
    if "--scaling" in sys.argv:
        print(json.dumps(run_scaling(sf_dir)))
    else:
        result = run_bench(sf_dir, num_cpus)
        import ray

        ray.shutdown()
        print(json.dumps(result))
