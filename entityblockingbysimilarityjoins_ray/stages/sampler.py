"""Training-data samplers (the reference's sampler subsystem).

Without samplers the matcher can only be trained on gold labels, which do
not exist in production — the reference ships three strategies
(/root/reference/cpp/sampler/sample.cc:487-510 extern-C entry; python
wrappers simjoin_entitymatching/sampler/sample.py:78-110):

- **down-sampling** (DownSampler::sample, sampler_impl.cc:50-...; defaults
  n=100000, y=20, sample.py:33-35): invert-index the blocking attribute's
  tokens, pick n/y probe records at random, and collect every record that
  shares an inverted-list entry with a probe — the candidate sample a
  matcher can be trained on.
- **cluster sampling** (Sample::clusterSampleSelf, sample.cc:10-110):
  pre-cluster with a high-threshold Jaccard join (tau=0.9) + union-find,
  emit one representative positive pair per multi-member cluster and seeded
  cross-cluster negatives, cap + shuffle.
- sample stats (recall vs gold / density, sample.cc:114-157) drive the
  2-step re-filtering (sample.cc:160-289).

Ray-native: both samplers are expressed over the SAME blocking machinery
(tokenize -> token groupby / setsim join -> connected components); sampling
is hash-seeded (deterministic across runs and parallelism levels — the
reference's time(NULL) seeding, sample.cc:95, is made reproducible)."""

from __future__ import annotations

import logging

import numpy as np
import pandas as pd
import pyarrow as pa
import ray
import ray.data

from ..config import PipelineConfig
from ..functions import hashing as H
from ..functions.hashing import (
    bucket_of, group_sizes_from_sorted, hash_strings, iter_pairs, side_runs)
from ..functions.tokenize import md5_hash_strings
from . import blocking as B

logger = logging.getLogger(__name__)

_U64 = np.uint64


def _seeded_pick(ids_hash: np.ndarray, frac: float, seed: int) -> np.ndarray:
    """Deterministic pseudo-random subset: mix(seed, id-hash) < frac * 2^64."""
    h = (ids_hash.view(_U64) ^ _U64((seed * 0x9E3779B97F4A7C15) % (1 << 64)))
    h = (h ^ (h >> _U64(30))) * _U64(0xBF58476D1CE4E5B9)
    h = h ^ (h >> _U64(27))
    if frac >= 1.0:
        return np.ones(h.size, bool)
    cut = np.uint64(int(frac * float(2**63 - 1))) * _U64(2)  # stay in-range
    return h < cut


def down_sample(
    docs: "ray.data.Dataset", *, attr: str = "doc", tok: str = "dlm", q: int = 3,
    n: int = 1000, y: int = 20, cfg: PipelineConfig | None = None, seed: int = 42,
    max_list: int = 200, id_hash64: str = "pandas",
) -> "ray.data.Dataset":
    """Candidate-pair sample: n//y probe records x their token-list mates.

    Mirrors DownSampler::sample (inverted index on the attribute's tokens,
    random probes, mates collected from the probes' inverted lists); the
    per-token list cap (``max_list``, logged) matches the reference's
    inverted-list caps (MAX_INV_SIZE semantics).  The cap keeps each list's
    first ``max_list`` entries under a TOTAL order (tok, side, id-hash), so
    the sample is deterministic regardless of block arrival order.

    ``id_hash64="md5"`` draws the probe picks and the cap order from
    DuckDB-reproducible md5 id hashes (md5_number_lower semantics) so a SQL
    oracle can replay the exact sample; default stays the fast siphash."""
    cfg = cfg or PipelineConfig()
    n_probes = max(1, n // y)
    n_records = docs.count()
    frac = min(1.0, n_probes / max(n_records, 1))
    toks = B.tokenize_docs(docs, attr, tok, q)
    id_hfn = {"pandas": hash_strings, "md5": md5_hash_strings}[id_hash64]
    chunk = H.PAIR_CHUNK

    def emit(t: pa.Table) -> pa.Table:
        ids = np.asarray(t.column("conv_id").to_numpy(zero_copy_only=False), dtype=object)
        col = t.column("toks")
        col = col.combine_chunks() if isinstance(col, pa.ChunkedArray) else col
        offs = np.asarray(col.offsets, dtype=np.int64)
        if offs.size and offs[0] != 0:
            offs = offs - offs[0]
        vals = np.asarray(col.flatten(), dtype=np.int64)
        lens = np.diff(offs)
        rows = np.repeat(np.arange(ids.size, dtype=np.int64), lens)
        idh = id_hfn(ids)
        probe = _seeded_pick(idh, frac, seed)
        side = probe[rows].astype(np.int8)  # 1 = probe, 0 = index mate
        return pa.table({
            "pb": pa.array(bucket_of(vals, cfg.pair_partitions), pa.int32()),
            "tok": pa.array(vals, pa.int64()),
            "side": pa.array(1 - side, pa.int8()),  # 0 = probe first after sort
            "id": pa.array(ids[rows], pa.string()),
            "idh": pa.array(idh[rows], pa.int64()),
        })

    def pairs(t: pa.Table) -> pa.Table:
        tok = np.asarray(t.column("tok"), dtype=np.int64)
        side = np.asarray(t.column("side"), dtype=np.int64)
        ids = np.asarray(t.column("id").to_numpy(zero_copy_only=False))
        idh = np.asarray(t.column("idh"), dtype=np.int64)
        # unsigned id-hash as the tie-break so the cap keeps a deterministic
        # prefix (and matches SQL UBIGINT ordering in md5 mode)
        order = np.lexsort((idh.view(np.uint64), side, tok))
        tok, side, ids = tok[order], side[order], ids[order]
        starts, sizes = group_sizes_from_sorted(tok)
        if sizes.size and sizes.max() > max_list:
            logger.warning("down_sample: truncating %d hot token lists (cap=%d)",
                           int((sizes > max_list).sum()), max_list)
            local = np.arange(tok.size) - np.repeat(starts, sizes)
            keep = local < np.repeat(np.minimum(sizes, max_list), sizes)
            tok, side, ids = tok[keep], side[keep], ids[keep]
        starts, n_probe, n_mate = side_runs(side, tok)
        ids = ids.astype("U")
        # Probes (sorted first in each run) pair against the ENTIRE inverted
        # list — mates AND other probes (DownSampler::sample collects every
        # record on a probe's lists; probe-probe duplicates collapse in the
        # canonical a<b + dedupe_pairs step).
        out1, out2 = [np.empty(0, "U1")], [np.empty(0, "U1")]
        for ii, jj in iter_pairs(starts, n_probe, starts, n_probe + n_mate, chunk=chunk):
            a, b = ids[ii], ids[jj]
            neq = a != b
            a, b = a[neq], b[neq]
            out1.append(np.where(a < b, a, b))
            out2.append(np.where(a < b, b, a))
        return pa.table({"id1": pa.array(np.concatenate(out1), pa.string()),
                         "id2": pa.array(np.concatenate(out2), pa.string())})

    sigs = toks.map_batches(emit, batch_format="pyarrow")
    cand = sigs.groupby("pb").map_groups(pairs, batch_format="pyarrow")
    return B.dedupe_pairs(cand, cfg.pair_partitions)


def cluster_sample(
    docs: "ray.data.Dataset", *, attr: str = "doc", tok: str = "dlm", q: int = 3,
    tau: float = 0.9, cap: int = 100_000, cfg: PipelineConfig | None = None,
    seed: int = 42, neg_ratio: float = 1.0,
) -> pd.DataFrame:
    """Labeled training sample via pre-clustering (clusterSampleSelf,
    sample.cc:10-110): one representative positive pair per multi-member
    tau-Jaccard cluster + seeded cross-cluster negatives; capped + seeded
    shuffle.  Returns a pandas frame {id1, id2, label} (training samples are
    driver-sized by construction — the reference caps at 100k)."""
    from .cluster import cluster_entities

    cfg = cfg or PipelineConfig()
    toks = B.tokenize_docs(docs, attr, tok, q).materialize()
    pairs = B.setsim_self_join(toks, sim="jac", threshold=tau, cfg=cfg)
    labels = cluster_entities(
        pairs, docs.select_columns(["conv_id"]),
        driver_limit=cfg.cc_driver_limit, num_partitions=cfg.pair_partitions,
    ).to_pandas()
    by_cluster = labels.groupby("entity_id")["conv_id"].agg(list)
    rng = np.random.default_rng(seed)
    pos = []
    for ent, members in by_cluster.items():
        if len(members) >= 2:
            members = sorted(members)
            pos.append((members[0], members[1], 1))
    reps = sorted(by_cluster.apply(lambda m: sorted(m)[0]))
    n_neg = min(int(len(pos) * neg_ratio) + 1, cap)
    neg = set()
    guard = 0
    while len(neg) < n_neg and guard < 20 * n_neg and len(reps) >= 2:
        i, j = rng.integers(0, len(reps), 2)
        if i == j:
            guard += 1
            continue
        a, b = sorted((reps[i], reps[j]))
        neg.add((a, b, 0))
        guard += 1
    out = pd.DataFrame(pos + sorted(neg), columns=["id1", "id2", "label"])
    if len(out) > cap:
        logger.warning("cluster_sample: capping sample at %d (had %d)", cap, len(out))
        out = out.sample(n=cap, random_state=seed)
    return out.sample(frac=1.0, random_state=seed).reset_index(drop=True)


def sample_stats(sample: pd.DataFrame, gold: pd.DataFrame) -> dict:
    """recall / density of a pair sample vs gold (Sample::getStat,
    sample.cc:114-157)."""
    g = set(zip(gold["id1"], gold["id2"]))
    s = set(zip(sample["id1"], sample["id2"]))
    hit = len(g & s)
    return {
        "n_sample": len(s),
        "n_gold": len(g),
        "recall": hit / len(g) if g else 0.0,
        "density": hit / len(s) if s else 0.0,
    }


def two_step_sample(
    docs: "ray.data.Dataset", *, attr: str = "doc", blk_tau: float = 0.6,
    step2_tau: float = 0.5, cap: int = 100_000, cfg: PipelineConfig | None = None,
    gold: pd.DataFrame | None = None, density_floor: float = 0.1,
    force_step2: bool = False,
) -> "ray.data.Dataset":
    """2-step sample refinement (Sample::clusterSampleRS + step2Sample,
    /root/reference/cpp/sampler/sample.cc:160-289):

    step 1: dlm-token jaccard self-join at ``blk_tau`` (overlap join when
    blk_tau >= 1, matching the reference's OvlpSampler branch), capped at
    ``cap`` pairs (logged).
    step 2: if the sample's density vs gold is <= ``density_floor`` (or
    ``force_step2``), RE-FILTER the pairs by qgram-3 jaccard >= step2_tau
    — the second tokenization kills spurious dlm-level collisions.

    Fully distributed: both steps are the engine's own join/verify stages;
    no driver-side pair loops."""
    from .verify import verify_pairs

    cfg = cfg or PipelineConfig()
    toks = B.tokenize_docs(docs, attr, "dlm").materialize()
    if blk_tau >= 1.0:
        pairs = B.setsim_self_join(toks, sim="overlap",
                                   threshold=float(np.ceil(blk_tau - 1e-5)), cfg=cfg)
    else:
        pairs = B.setsim_self_join(toks, sim="jac", threshold=blk_tau, cfg=cfg)
    n = pairs.count()
    if n > cap:
        logger.warning("two_step_sample: capping step-1 sample at %d (had %d)", cap, n)
        pairs = pairs.limit(cap)
    run_step2 = force_step2
    if gold is not None and not run_step2:
        st = sample_stats(pairs.select_columns(["id1", "id2"]).to_pandas(), gold)
        run_step2 = st["density"] <= density_floor
    if not run_step2:
        return pairs
    qtoks = B.tokenize_docs(docs, attr, "qgm", 3).materialize()
    return verify_pairs(pairs.select_columns(["id1", "id2"]), qtoks,
                        sim="jac", threshold=step2_tau,
                        num_partitions=cfg.pair_partitions,
                        store_dir=cfg.shard_store_dir)


def over_sample(df: pd.DataFrame, label_col: str = "label", seed: int = 0) -> pd.DataFrame:
    """Seeded random over-sampling of the minority class to parity
    (random_forest.py:150-162, RandomOverSampler semantics)."""
    counts = df[label_col].value_counts()
    if len(counts) < 2:
        return df.reset_index(drop=True)
    rng = np.random.default_rng(seed)
    major = counts.idxmax()
    out = [df]
    for lbl, c in counts.items():
        if lbl == major:
            continue
        need = counts[major] - c
        pool = df[df[label_col] == lbl]
        out.append(pool.iloc[rng.integers(0, len(pool), need)])
    return pd.concat(out, ignore_index=True)


def under_sample(df: pd.DataFrame, label_col: str = "label", seed: int = 0) -> pd.DataFrame:
    """Seeded random under-sampling of the majority class to parity
    (random_forest.py:164-175, RandomUnderSampler semantics)."""
    counts = df[label_col].value_counts()
    if len(counts) < 2:
        return df.reset_index(drop=True)
    rng = np.random.default_rng(seed)
    n_min = counts.min()
    out = []
    for lbl in counts.index:
        pool = df[df[label_col] == lbl]
        if len(pool) > n_min:
            idx = rng.choice(len(pool), n_min, replace=False)
            pool = pool.iloc[np.sort(idx)]
        out.append(pool)
    return pd.concat(out, ignore_index=True)


def train_test_split(
    df: pd.DataFrame, test_frac: float = 0.25, seed: int = 0,
) -> tuple[pd.DataFrame, pd.DataFrame]:
    """Seeded shuffle split (the reference trains/tests via sklearn's
    splitter; deterministic numpy equivalent)."""
    rng = np.random.default_rng(seed)
    perm = rng.permutation(len(df))
    n_test = int(round(len(df) * test_frac))
    test = df.iloc[np.sort(perm[:n_test])].reset_index(drop=True)
    train = df.iloc[np.sort(perm[n_test:])].reset_index(drop=True)
    return train, test
