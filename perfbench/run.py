"""Seeded benchmark of the ray-em engine: the ER job and the RS link job on a
local Ray cluster with a fixed CPU count.

Usage, from the root of a checkout:

    python3 perfbench/run.py --workload er_bcast --seed 1 --seconds 15 --trace 0

Workloads (BENCHMARK.json says why each was chosen):

- ``er_bcast``: ``run_pipeline`` with the default broadcast plan;
- ``rs_link``: the input split by conv-id parity into tables A and B, both
  canonicalized and tokenized, then ``setsim_rs_join`` (jac 0.5 on doc) and
  ``edit_rs_join`` (head, 2 edits).

A run builds its input from ``--seed`` (cached under ``perfbench/.cache``),
sets Ray up several times to measure ``setup_s``, runs the job once untimed
to warm the workers, then repeats the timed job for about ``--seconds``
(at least twice) and reports medians.  Every time is steal-free: the
wall time with the CPU time the hypervisor gave other guests taken out
(``spans.steal_free``), because on a shared host that time swings from run
to run with the neighbours' load, not with this program.  For ``er_bcast``
the warm-up job runs the grid plan with checkpoints, and every later job
must reproduce its candidate, match and cluster digests.  Every job's
outputs are checked; a job that raises or fails a check counts as failed.

``--trace 1`` instead alternates the untimed job with a traced replay that
calls each layer's public function in turn (``jobs.py``), and reports
per-layer times, CPU busy shares and row counts.  The spans are written to
``perfbench/.traces/<workload>-s<seed>.json``.

The last line of standard output is one JSON object: ``correct``,
``attempted``, ``failed`` and ``metrics``.  Checkpoints, shard stores and
Ray's session files live in a per-run directory that is removed at exit.
"""

from __future__ import annotations

import argparse
import itertools
import json
import logging
import os
import shutil
import statistics
import sys
import time
import traceback

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)

# two of the machine's four CPUs for Ray's workers, so the driver, raylet
# and object store do not compete with them for the rest
NUM_CPUS = 2
OBJECT_STORE_BYTES = 512 << 20
N_TURNS = 16_000  # input size in turns (920-1310 conversations)
SETUP_REPS = 2  # Ray set-ups per run; setup_s is their median
MIN_JOBS = 2  # timed jobs per run, at least; the times are their medians
MIN_F1 = 0.98  # ER match F1 floor against the planted gold pairs
WORKLOADS = ("er_bcast", "rs_link")


def log(msg: str) -> None:
    print(msg, file=sys.stderr, flush=True)


def import_engine() -> None:
    """Import the engine from this checkout, never from elsewhere; Ray's
    workers find it through PYTHONPATH."""
    sys.path.insert(0, ROOT)
    os.environ["PYTHONPATH"] = os.pathsep.join(
        p for p in (ROOT, os.environ.get("PYTHONPATH")) if p)
    import entityblockingbysimilarityjoins_ray as pkg

    if os.path.dirname(os.path.dirname(os.path.abspath(pkg.__file__))) != ROOT:
        raise ImportError(f"engine imported from {pkg.__file__}, not {ROOT}")


class Cluster:
    """Starts and stops the local Ray cluster.  Its session files go under
    the per-run directory when the socket paths fit there."""

    def __init__(self, run_dir: str):
        ray_dir = os.path.join(run_dir, "ray")
        # a Unix socket path is at most 107 bytes; Ray appends ~70 to this
        self.temp_dir = ray_dir if len(ray_dir) <= 36 else None

    def start(self) -> None:
        import ray
        import ray.data

        os.environ.setdefault("RAY_USAGE_STATS_ENABLED", "0")
        ray.init(address="local", num_cpus=NUM_CPUS,
                 object_store_memory=OBJECT_STORE_BYTES,
                 include_dashboard=False, logging_level="ERROR",
                 log_to_driver=False, _temp_dir=self.temp_dir)
        ctx = ray.data.DataContext.get_current()
        ctx.enable_progress_bars = False
        # the default read fan-out (200 blocks) slices these small inputs
        # into tiny blocks; two blocks per CPU, as bench.py sets it
        ctx.read_op_min_num_blocks = 2 * NUM_CPUS
        logging.getLogger("ray.data").setLevel(logging.ERROR)
        from entityblockingbysimilarityjoins_ray.raycompat import (
            suppress_empty_schema_warnings,
        )

        suppress_empty_schema_warnings()

    @staticmethod
    def stop() -> None:
        import ray

        if ray.is_initialized():
            ray.shutdown()


def measure_setup(cluster: Cluster, paths: list[str]) -> tuple[float, float]:
    """Wall and steal-free seconds of Ray start, input registration and a
    warm read of the inputs."""
    from entityblockingbysimilarityjoins_ray.sources.io import read_parquet_clean
    from spans import Stopwatch

    clock = Stopwatch()
    cluster.start()
    read_parquet_clean(paths).materialize()
    return clock.stop()


class Workload:
    """One workload's job, its traced replay and its per-job checks."""

    def __init__(self, name: str, inp: dict, scratch: str):
        import pandas as pd

        import jobs

        self.name, self.inp, self.scratch = name, inp, scratch
        self.turns = pd.read_parquet(inp["transcripts"])
        self.ref_digests = None
        if name == "rs_link":
            self.cfg = jobs.rs_config(scratch)
            self.gold = pd.read_parquet(inp["gold_ab"])
            self.paths = [inp["a"], inp["b"]]
            self._run, self._replay = jobs.rs_run, jobs.rs_replay
        else:
            self.cfg = jobs.er_config("bcast", scratch)
            self.gold = pd.read_parquet(inp["gold"])
            self.paths = [inp["transcripts"]]
            self._run, self._replay = jobs.er_run, jobs.er_replay

    def run(self, cfg=None):
        import jobs

        jobs.clear_scratch(self.scratch)
        out = self._run(self.inp, cfg or self.cfg, self.gold)
        return out, self.check(out)

    def replay(self, tracer):
        import jobs

        jobs.clear_scratch(self.scratch)
        out = self._replay(self.inp, self.cfg, self.gold, tracer)
        return out, self.check(out)

    def warm_up(self):
        """Untimed first job.  For ER it runs the grid plan and keeps its
        digests: both plans must emit identical rows."""
        if self.name == "rs_link":
            return self.run()
        import jobs

        out, errs = self.run(jobs.er_config("grid", self.scratch))
        self.ref_digests = self.digests(out)
        return out, errs

    def digests(self, out) -> dict:
        from checks import digest

        f = out.frames
        if self.name == "rs_link":
            return {"rs_jac": digest(f["rs_jac"], ["id1", "id2", "sim"]),
                    "rs_lev": digest(f["rs_lev"], ["id1", "id2", "sim"])}
        return {"candidates": digest(f["candidates"], ["id1", "id2", "passed_rules", "sim"]),
                "matches": digest(f["matches"], ["id1", "id2", "score"]),
                "clusters": digest(f["clusters"], ["conv_id", "entity_id"])}

    def check(self, out) -> list[str]:
        import checks

        f = out.frames
        sep = self.cfg.doc_sep
        if self.name == "rs_link":
            import inputs
            import jobs

            par = inputs.conv_parity(self.turns["conv_id"])
            errs = (checks.canonical_docs(self.turns[par == 0], f["docs_a"], sep)
                    + checks.canonical_docs(self.turns[par == 1], f["docs_b"], sep))
            heads = [dict(zip(d["conv_id"].astype(str), d["head"].fillna("")))
                     for d in (f["docs_a"], f["docs_b"])]
            return errs + checks.edit_pairs_within(f["rs_lev"], *heads, jobs.RS_LEV_D)
        errs = checks.canonical_docs(self.turns, f["docs"], sep)
        errs += checks.clusters_match_union_find(f["matches"], f["clusters"],
                                                 f["docs"]["conv_id"])
        if out.quality["match_f1"] < MIN_F1:
            errs.append(f"match_f1 {out.quality['match_f1']:.5f} < {MIN_F1}")
        if self.ref_digests is not None and self.digests(out) != self.ref_digests:
            errs.append(f"plan outputs differ: {self.digests(out)} vs {self.ref_digests}")
        return errs


class Tally:
    """Jobs attempted and failed; a failed job's reason goes to stderr."""

    def __init__(self):
        self.attempted = self.failed = 0

    def job(self, label: str, fn):
        """``fn()``'s outputs, or None when it raised."""
        self.attempted += 1
        try:
            out, errs = fn()
        except Exception:  # a job that raises is a failed attempt
            self.fail(f"{label}: raised\n{traceback.format_exc()}")
            return None
        if errs:
            self.fail(f"{label}: " + "; ".join(errs))
        return out

    def fail(self, why: str) -> None:
        self.failed += 1
        log(why)


#: span name -> fields reported for it, as ``<span>.<field>``
LAYER_FIELDS = {
    "io.read": ("s",),
    "canonicalize": ("s", "busy", "rows"),
    "blocking.tokenize": ("s", "busy"),
    "blocking.index": ("s", "busy"),
    "blocking.setsim_join": ("s", "busy", "rows"),
    "blocking.exact_join": ("s", "rows"),
    "er.rule_union": ("s", "rows"),
    "features": ("s", "busy"),
    "matcher.match": ("s",),
    "matcher.prf": ("s",),
    "cluster": ("s",),
    "blocking.rs_jac": ("s", "busy", "rows"),
    "editjoin.rs_lev": ("s", "busy", "rows"),
}
UNITS = {"s": "s", "busy": "share", "rows": "count",
         "er.union_keep_ratio": "ratio", "matcher.match_keep_ratio": "ratio",
         "cluster.entities": "count", "run.traced_total_s": "s",
         "run.trace_overhead_s": "s", "run.mem_peak_mb": "MB"}


def layer_metrics(tracer, out) -> dict[str, float]:
    """Per-layer figures of one traced replay; a layer the workload does not
    call reads 0."""
    got: dict[str, float] = {}
    for span, fields in LAYER_FIELDS.items():
        agg = tracer.layer(span)
        for fld in fields:
            got[f"{span}.{fld}"] = float(agg[fld])
    union = got["er.rule_union.rows"]
    joined = got["blocking.setsim_join.rows"] + got["blocking.exact_join.rows"]
    got["er.union_keep_ratio"] = union / joined if joined else 0.0
    got["matcher.match_keep_ratio"] = out.counts.get("matches", 0) / union if union else 0.0
    got["cluster.entities"] = float(out.counts.get("entities", 0))
    got["run.traced_total_s"] = tracer.layer("run")["s"]
    return got


def unit_of(metric: str) -> str:
    return UNITS.get(metric) or UNITS[metric.rsplit(".", 1)[1]]


def measure_untraced(wl: Workload, seconds: float, tally: Tally, setups: list) -> dict:
    from spans import cpu_jiffies, steal_share

    jobs, j0 = [], cpu_jiffies()
    t0 = time.perf_counter()
    for i in itertools.count():
        # stop at the job count whose end lands nearest the window's end
        rest = jobs[-1].wall_s / 2 if jobs else 0.0
        if i >= MIN_JOBS and time.perf_counter() - t0 + rest >= seconds:
            break
        out = tally.job(f"job {i}", wl.run)
        if out is not None:
            jobs.append(out)
    if not jobs:
        raise RuntimeError("every timed job raised")
    if any(o.quality != jobs[0].quality or o.counts != jobs[0].counts for o in jobs):
        tally.fail("timed jobs disagree on outputs")
    log(f"{wl.name}: {len(jobs)} timed jobs, walls {[round(o.wall_s, 3) for o in jobs]}, "
        f"steal-free {[round(o.steal_free_s, 3) for o in jobs]}, "
        f"counts {jobs[0].counts}, CPU steal {steal_share(j0, cpu_jiffies()):.3f}")
    return {
        "steal_free_wall_s": (statistics.median(o.steal_free_s for o in jobs), "s"),
        "turns_per_s": (statistics.median(wl.inp["n_turns"] / o.steal_free_s
                                          for o in jobs), "1/s"),
        "setup_s": (statistics.median(sf for _, sf in setups), "s"),
        "match_f1": (jobs[0].quality["match_f1"], "share"),
        "blocking_recall": (jobs[0].quality["blocking_recall"], "share"),
        "ok_frac": ((tally.attempted - tally.failed) / tally.attempted, "share"),
    }


def measure_traced(wl: Workload, seconds: float, tally: Tally, seed: int) -> dict:
    from spans import MemSampler, Tracer, write_spans

    walls, layers, tracers = [], [], []
    t0 = time.perf_counter()
    with MemSampler() as mem:
        for i in itertools.count():
            if i and time.perf_counter() - t0 >= seconds:
                break
            base = tally.job(f"job {i}", wl.run)
            tr = Tracer(f"{wl.name}-s{seed}-r{i}")
            traced = tally.job(f"replay {i}", lambda: wl.replay(tr))
            if base is None or traced is None:
                continue
            if (base.counts, base.quality, wl.digests(base)) != \
                    (traced.counts, traced.quality, wl.digests(traced)):
                tally.fail(f"replay outputs {traced.counts} differ from the job's {base.counts}")
            walls.append(base.steal_free_s)
            layers.append(layer_metrics(tr, traced))
            tracers.append(tr)
    if not tracers:
        raise RuntimeError("every traced pair of jobs raised")
    metrics = {k: (statistics.median(l[k] for l in layers), unit_of(k)) for k in layers[0]}
    metrics["run.trace_overhead_s"] = (
        metrics["run.traced_total_s"][0] - statistics.median(walls), "s")
    metrics["run.mem_peak_mb"] = (mem.peak / 1e6, "MB")
    write_spans(os.path.join(HERE, ".traces", f"{wl.name}-s{seed}.json"), tracers,
                {"workload": wl.name, "seed": seed, "untraced_steal_free_s": walls})
    log(f"{wl.name}: {len(tracers)} traced replays, untraced steal-free times "
        f"{[round(w, 3) for w in walls]}")
    return metrics


def bench(wl: Workload, seconds: float, trace: bool, cluster: Cluster, seed: int) -> dict:
    tally = Tally()
    setups = []
    for i in range(1 if trace else SETUP_REPS):
        if i:
            cluster.stop()
        setups.append(measure_setup(cluster, wl.paths))
    t0 = time.perf_counter()
    tally.job("warm-up", wl.warm_up)
    log(f"{wl.name} seed {seed}: setups (wall, steal-free) "
        f"{[(round(w, 3), round(sf, 3)) for w, sf in setups]}, "
        f"warm-up {time.perf_counter() - t0:.3f} s")
    metrics = (measure_traced(wl, seconds, tally, seed) if trace
               else measure_untraced(wl, seconds, tally, setups))
    return {
        "correct": tally.failed == 0,
        "attempted": tally.attempted,
        "failed": tally.failed,
        "metrics": {k: {"value": v, "unit": u} for k, (v, u) in metrics.items()},
    }


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("--workload", required=True, choices=WORKLOADS)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args(argv)

    import_engine()
    import inputs

    inp = inputs.build(N_TURNS, args.seed)
    runs = os.path.join(HERE, ".run")
    for pid in os.listdir(runs) if os.path.isdir(runs) else ():
        if not os.path.exists(f"/proc/{pid}"):  # left by a killed run
            shutil.rmtree(os.path.join(runs, pid), ignore_errors=True)
    run_dir = os.path.join(runs, str(os.getpid()))
    shutil.rmtree(run_dir, ignore_errors=True)  # a dead run's, same pid
    os.makedirs(run_dir)
    cluster = Cluster(run_dir)
    try:
        wl = Workload(args.workload, inp, os.path.join(run_dir, "scratch"))
        result = bench(wl, args.seconds, bool(args.trace), cluster, args.seed)
    finally:
        cluster.stop()
        shutil.rmtree(run_dir, ignore_errors=True)
    print(json.dumps(result), flush=True)
    return 0


if __name__ == "__main__":
    sys.exit(main())
