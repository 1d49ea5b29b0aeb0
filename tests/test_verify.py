"""Sharded-index grid verify (the beyond-broadcast scale path): store build,
cell-local global dedup, multi-rule rows, RS side order — all vs brute force.
Reference semantics: exact overlap verification, setjoin_parallel.h:334-370."""

import itertools

import numpy as np
import pandas as pd
import pyarrow as pa
import pytest
import ray.data

from entityblockingbysimilarityjoins_ray.functions.hashing import hash_strings
from entityblockingbysimilarityjoins_ray.stages.verify import (
    build_token_shard_store,
    verify_pairs_sharded,
)


def _mk_toks(rows):
    return ray.data.from_arrow(pa.table({
        "conv_id": pa.array([r[0] for r in rows], pa.string()),
        "toks": pa.array([sorted(set(r[1])) for r in rows],
                         pa.list_(pa.int64())),
    }))


def _hashes(rows):
    ids = np.array([r[0] for r in rows], dtype=object)
    return dict(zip(ids, hash_strings(ids)))


def test_sharded_verify_dedups_and_matches_bruteforce(ray_session):
    """Duplicate slim candidates (one per shared signature token) must
    collapse to ONE output row per (pair, passing rule); sims exact."""
    rows = [("a", [1, 2, 3, 4]), ("b", [1, 2, 3, 9]), ("c", [1, 2, 8, 9]),
            ("d", [7, 8]), ("e", [5, 6, 7, 8])]
    store = build_token_shard_store(_mk_toks(rows), num_shards=3)
    h = _hashes(rows)
    cand = []
    for x, y in itertools.combinations(sorted(h), 2):
        k1, k2 = sorted((int(h[x]), int(h[y])))
        cand.append((k1, k2))
        cand.append((k1, k2))  # duplicate from a second signature bucket
    pairs = ray.data.from_arrow(pa.table({
        "k1": pa.array([c[0] for c in cand], pa.int64()),
        "k2": pa.array([c[1] for c in cand], pa.int64()),
    }))
    got = verify_pairs_sharded(
        pairs, store, rules=[("jac", 0.5), ("overlap", 3)]).to_pandas()
    bags = {r[0]: set(r[1]) for r in rows}
    exp = []
    for x, y in itertools.combinations(sorted(bags), 2):
        o = len(bags[x] & bags[y])
        j = o / len(bags[x] | bags[y])
        if j >= 0.5:
            exp.append((x, y, j))
        if o >= 3:
            exp.append((x, y, float(o)))
    got_t = sorted(zip(got["id1"], got["id2"], got["sim"]))
    assert got_t == sorted(exp)


def test_sharded_verify_rs_keeps_side_order(ray_session):
    a_rows = [("a1", [1, 2, 3]), ("a2", [4, 5, 6, 7])]
    b_rows = [("b1", [1, 2, 3, 4]), ("b2", [6, 7])]
    store_a = build_token_shard_store(_mk_toks(a_rows), num_shards=2)
    store_b = build_token_shard_store(_mk_toks(b_rows), num_shards=2)
    ha, hb = _hashes(a_rows), _hashes(b_rows)
    cand = [(int(ha[x]), int(hb[y])) for x in sorted(ha) for y in sorted(hb)]
    pairs = ray.data.from_arrow(pa.table({
        "k1": pa.array([c[0] for c in cand], pa.int64()),
        "k2": pa.array([c[1] for c in cand], pa.int64()),
    }))
    got = verify_pairs_sharded(pairs, store_a, sim="jac", threshold=0.5,
                               store_b=store_b).to_pandas()
    pairs_set = set(zip(got["id1"], got["id2"]))
    # jaccard: (a1,b1)=3/4, (a2,b2)=2/4, (a1,b2)=0, (a2,b1)=1/7
    assert pairs_set == {("a1", "b1"), ("a2", "b2")}
    # id1 stays the A-side record (no lexicographic canonicalization in RS)
    assert all(i1.startswith("a") and i2.startswith("b")
               for i1, i2 in pairs_set)


def test_sharded_verify_unknown_keys_dropped(ray_session):
    """Candidate keys absent from the store (defensive) are dropped, not
    crashed on."""
    rows = [("a", [1, 2, 3]), ("b", [1, 2, 3])]
    store = build_token_shard_store(_mk_toks(rows), num_shards=2)
    h = _hashes(rows)
    k1, k2 = sorted((int(h["a"]), int(h["b"])))
    pairs = ray.data.from_arrow(pa.table({
        "k1": pa.array([k1, 12345], pa.int64()),
        "k2": pa.array([k2, 67890], pa.int64()),
    }))
    got = verify_pairs_sharded(pairs, store, sim="jac", threshold=0.5).to_pandas()
    assert set(zip(got["id1"], got["id2"])) == {("a", "b")}


def test_shard_store_fingerprint_reuse(ray_session, tmp_path):
    """With (store_dir, fp) the store is a resumable checkpoint: a second
    build with the same fingerprint reuses the files; a different
    fingerprint rebuilds."""
    import os

    rows = [("a", [1, 2, 3]), ("b", [2, 3, 4]), ("c", [9])]
    root = str(tmp_path / "stores")
    s1 = build_token_shard_store(_mk_toks(rows), num_shards=2,
                                 store_dir=root, fp="abc123")
    marker = os.path.join(s1["path"], "MARKER")
    open(marker, "w").write("x")
    s2 = build_token_shard_store(_mk_toks(rows), num_shards=2,
                                 store_dir=root, fp="abc123")
    assert s2["path"] == s1["path"] and os.path.exists(marker)  # reused
    assert str(s2["id_type"]) == "string"
    s3 = build_token_shard_store(_mk_toks(rows), num_shards=2,
                                 store_dir=root, fp="def456")
    assert s3["path"] != s1["path"]
    # a reused store still verifies correctly
    h = _hashes(rows)
    k1, k2 = sorted((int(h["a"]), int(h["b"])))
    pairs = ray.data.from_arrow(pa.table({
        "k1": pa.array([k1], pa.int64()), "k2": pa.array([k2], pa.int64())}))
    got = verify_pairs_sharded(pairs, s2, sim="jac", threshold=0.4).to_pandas()
    assert set(zip(got["id1"], got["id2"])) == {("a", "b")}


def test_dataset_content_fp_detects_changed_corpus(ray_session):
    """Same row count, different content -> different fingerprint (the
    property that makes keyed-store resume safe); order-invariant over
    shuffled rows; string payloads supported."""
    from entityblockingbysimilarityjoins_ray.stages.verify import dataset_content_fp

    rows = [("a", [1, 2, 3]), ("b", [2, 3, 4]), ("c", [9])]
    fp1 = dataset_content_fp(_mk_toks(rows))
    assert fp1 == dataset_content_fp(_mk_toks(list(reversed(rows))))
    edited = [("a", [1, 2, 3]), ("b", [2, 3, 4]), ("c", [10])]  # same count
    assert dataset_content_fp(_mk_toks(edited)) != fp1
    swapped = [("a", [1, 2, 3]), ("b", [2, 3, 4]), ("d", [9])]  # id change
    assert dataset_content_fp(_mk_toks(swapped)) != fp1
    vals = ray.data.from_pandas(pd.DataFrame(
        {"conv_id": ["a", "b"], "val": ["x", "y"]}))
    vals2 = ray.data.from_pandas(pd.DataFrame(
        {"conv_id": ["a", "b"], "val": ["x", "z"]}))
    assert (dataset_content_fp(vals, payload_col="val")
            != dataset_content_fp(vals2, payload_col="val"))
    # the collision classes a naive (xor ids, sum payloads) combine allows:
    # payload swap between ids
    assert (dataset_content_fp(_mk_toks([("a", [5]), ("b", [7])]))
            != dataset_content_fp(_mk_toks([("a", [7]), ("b", [5])])))
    # same-sum token edit
    assert (dataset_content_fp(_mk_toks([("a", [1, 2, 3])]))
            != dataset_content_fp(_mk_toks([("a", [6])])))
    # duplicate-id xor cancellation
    assert (dataset_content_fp(_mk_toks([("a", [1]), ("a", [2])]))
            != dataset_content_fp(_mk_toks([("b", [1]), ("b", [2])])))


def test_shard_cache_byte_bound(ray_session, monkeypatch):
    """The worker shard cache evicts by cumulative DECODED BYTES: total
    resident bytes never exceed max(budget, newest entry) — the documented
    worker-memory bound of the grid verify."""
    from entityblockingbysimilarityjoins_ray.stages import verify as V

    rows = [(f"r{i}", list(range(i, i + 20))) for i in range(64)]
    store = build_token_shard_store(_mk_toks(rows), num_shards=8)
    V._SHARD_CACHE.clear()
    shards = [V._load_shard(store, s) for s in range(8)]
    one = max(s.nbytes for s in shards)
    # budget of ~2 shards: the cache must stay under it while cycling.
    # Patch the ENV — it wins over the module default by design (the knob
    # must be settable on a pre-started cluster via runtime_env)
    budget = 2 * one + 1
    monkeypatch.setattr(V, "_SHARD_CACHE", {})
    monkeypatch.setenv("GRAFT_SHARD_CACHE_BYTES", str(budget))
    for s in range(8):
        V._load_shard(store, s)
        total = sum(x.nbytes for x in V._SHARD_CACHE.values())
        assert total <= budget
    assert 1 <= len(V._SHARD_CACHE) <= 2
    # a budget smaller than any one shard still keeps the newest entry
    monkeypatch.setattr(V, "_SHARD_CACHE", {})
    monkeypatch.setenv("GRAFT_SHARD_CACHE_BYTES", "1")
    for s in range(3):
        V._load_shard(store, s)
        assert len(V._SHARD_CACHE) == 1
    # an unparsable env value falls back to the default, not a worker crash
    monkeypatch.setenv("GRAFT_SHARD_CACHE_BYTES", "not-a-number")
    assert V._shard_cache_bytes() == V._SHARD_CACHE_BYTES


def test_load_shard_missing_nonempty_raises(ray_session, tmp_path):
    """A shard the manifest records as NON-EMPTY but absent on disk (the
    node-local-store-on-multi-node failure mode) raises instead of silently
    dropping that cell's pairs; a manifest-empty shard stays a no-op."""
    import os
    import shutil

    from entityblockingbysimilarityjoins_ray.stages import verify as V

    rows = [(f"r{i}", [1, 2, 3, i]) for i in range(16)]
    store = build_token_shard_store(_mk_toks(rows), num_shards=4,
                                    store_dir=str(tmp_path), fp="miss1")
    sh = next(s for s, n in store["shard_rows"].items() if n > 0)
    shutil.rmtree(os.path.join(store["path"], f"shard={sh}"))
    V._SHARD_CACHE.clear()
    with pytest.raises(RuntimeError, match="absent"):
        V._load_shard(store, int(sh))
    # a shard with 0 manifest rows may be absent without error
    empty = {k: v for k, v in store.items()}
    empty["shard_rows"] = {str(s): 0 for s in range(4)}
    empty["generation"] = "other"
    got = V._load_shard(empty, int(sh))
    assert got.idx.size == 0


def test_shard_store_resume_false_rebuilds(ray_session, tmp_path):
    """resume=False forces a rebuild even when a matching manifest exists;
    the new store carries a fresh generation token (stale worker cache
    entries can never be served)."""
    rows = [("a", [1, 2]), ("b", [2, 3])]
    root = str(tmp_path / "stores")
    s1 = build_token_shard_store(_mk_toks(rows), num_shards=2,
                                 store_dir=root, fp="re1")
    s2 = build_token_shard_store(_mk_toks(rows), num_shards=2,
                                 store_dir=root, fp="re1")
    assert s2["generation"] == s1["generation"]  # reused
    s3 = build_token_shard_store(_mk_toks(rows), num_shards=2,
                                 store_dir=root, fp="re1", resume=False)
    assert s3["path"] == s1["path"]
    assert s3["generation"] != s1["generation"]  # rebuilt


def test_sharded_verify_single_shard_and_empty(ray_session, tmp_path):
    """Degenerate configs must not crash: S=1 (one grid cell) and an EMPTY
    token dataset (store with no shard files)."""
    rows = [("a", [1, 2, 3]), ("b", [1, 2, 3]), ("c", [5, 6])]
    s1 = build_token_shard_store(_mk_toks(rows), num_shards=1)
    h = _hashes(rows)
    import itertools

    cand = [tuple(sorted((int(h[x]), int(h[y]))))
            for x, y in itertools.combinations(sorted(h), 2)]
    pairs = ray.data.from_arrow(pa.table({
        "k1": pa.array([c[0] for c in cand], pa.int64()),
        "k2": pa.array([c[1] for c in cand], pa.int64())}))
    got = verify_pairs_sharded(pairs, s1, sim="jac", threshold=1.0).to_pandas()
    assert set(zip(got["id1"], got["id2"])) == {("a", "b")}

    empty_store = build_token_shard_store(_mk_toks([]), num_shards=2,
                                          store_dir=str(tmp_path), fp="e1")
    got2 = verify_pairs_sharded(pairs, empty_store, sim="jac",
                                threshold=0.5).to_pandas()
    assert len(got2) == 0


def test_setsim_sharded_empty_docs(ray_session):
    """A join over an empty corpus on the forced beyond-broadcast path
    returns an empty result, not a crash."""
    from entityblockingbysimilarityjoins_ray.config import PipelineConfig
    from entityblockingbysimilarityjoins_ray.stages.blocking import (
        setsim_self_join,
        tokenize_docs,
    )

    docs = ray.data.from_arrow(pa.table({
        "conv_id": pa.array([], pa.string()),
        "doc": pa.array([], pa.string()),
    }))
    toks = tokenize_docs(docs, "doc", "dlm").materialize()
    out = setsim_self_join(
        toks, sim="jac", threshold=0.5,
        cfg=PipelineConfig(pair_partitions=4, broadcast_limit=0,
                           broadcast_bytes_limit=0, verify_shards=2,
                           include_empty_pairs=False)).to_pandas()
    assert len(out) == 0


def _setsim_kernel():
    from entityblockingbysimilarityjoins_ray.stages.verify import _setsim_cell

    return _setsim_cell([("jac", 0.5)])


def _value_kernel():
    from entityblockingbysimilarityjoins_ray.stages.editjoin import _lev_cell

    return _lev_cell(2)


def _weighted_kernel():
    from entityblockingbysimilarityjoins_ray.stages.weighted import _weighted_cell

    return _weighted_cell(wt_ref=None, sim="jac", threshold=0.5, round_to=9)


@pytest.mark.parametrize("make_kernel", [_setsim_kernel, _value_kernel,
                                         _weighted_kernel],
                         ids=["setsim", "value", "weighted"])
def test_grid_verify_rejects_int32_cell_overflow(ray_session, make_kernel):
    """Every grid kernel shares one guard: more than 46,340 shards would
    overflow the int32 (shard(k1), shard(k2)) cell id, so grid_verify
    raises when called (self and RS mode) instead of mis-routing pairs."""
    from entityblockingbysimilarityjoins_ray.stages.verify import grid_verify

    pairs = ray.data.from_arrow(pa.table({
        "k1": pa.array([1], pa.int64()), "k2": pa.array([2], pa.int64())}))
    stub = {"num_shards": 46_341, "id_type": pa.string()}
    with pytest.raises(ValueError, match="46340"):
        grid_verify(pairs, stub, make_kernel())
    with pytest.raises(ValueError, match="46340"):
        grid_verify(pairs, stub, make_kernel(), store_b=dict(stub))
