"""hash_join (engine-owned shuffle join) — correctness incl. the empty-Arrow-
block pattern that breaks Ray 2.49's native Dataset.join."""

import numpy as np
import pandas as pd
import pyarrow as pa
import pytest
import ray.data

from entityblockingbysimilarityjoins_ray.stages.joins import hash_join


def test_basic_inner_join(ray_session):
    l = ray.data.from_pandas(pd.DataFrame({"id": ["a", "b", "c"], "x": [1, 2, 3]}))
    r = ray.data.from_pandas(pd.DataFrame({"rid": ["a", "c", "d"], "y": [10.0, 30.0, 40.0]}))
    out = hash_join(l, r, on="id", right_on="rid", num_partitions=4).to_pandas()
    out = out.sort_values("id").reset_index(drop=True)
    assert list(out["id"]) == ["a", "c"]
    assert list(out["x"]) == [1, 3]
    assert list(out["y"]) == [10.0, 30.0]
    assert "rid" not in out.columns


def test_join_with_empty_arrow_blocks(ray_session):
    empty = pa.table({"id1": pa.array([], pa.string()), "id2": pa.array([], pa.string())})
    full = pa.table({"id1": ["a", "b"], "id2": ["x", "y"]})
    l = ray.data.from_arrow([empty, full, empty])
    r = ray.data.from_pandas(pd.DataFrame({"rid": ["x", "y"], "v": [1, 2]}))
    out = hash_join(l, r, on="id2", right_on="rid", num_partitions=4).to_pandas()
    assert sorted(out["id1"]) == ["a", "b"]


def test_join_duplicate_keys_multiplies(ray_session):
    l = ray.data.from_pandas(pd.DataFrame({"k": ["a", "a", "b"], "x": [1, 2, 3]}))
    r = ray.data.from_pandas(pd.DataFrame({"rk": ["a", "a"], "y": [10, 20]}))
    out = hash_join(l, r, on="k", right_on="rk", num_partitions=2).to_pandas()
    assert len(out) == 4  # 2x2 for key 'a'


def test_join_same_key_name(ray_session):
    l = ray.data.from_pandas(pd.DataFrame({"k": ["a", "b"], "x": [1, 2]}))
    r = ray.data.from_pandas(pd.DataFrame({"k": ["a", "b"], "y": [5, 6]}))
    out = hash_join(l, r, on="k", right_on="k", num_partitions=2).to_pandas()
    assert sorted(out.columns) == ["k", "x", "y"]
    assert len(out) == 2


def test_join_int_keys(ray_session):
    l = ray.data.from_pandas(pd.DataFrame({"k": [1, 2, 3], "x": ["a", "b", "c"]}))
    r = ray.data.from_pandas(pd.DataFrame({"rk": [2, 3, 4], "y": [2.0, 3.0, 4.0]}))
    out = hash_join(l, r, on="k", right_on="rk", num_partitions=4).to_pandas()
    assert sorted(out["k"]) == [2, 3]


def test_verify_join_mode_equals_broadcast(tiny_docs):
    """verify_pairs(broadcast=False) must produce the same verified pairs."""
    from entityblockingbysimilarityjoins_ray.config import PipelineConfig
    from entityblockingbysimilarityjoins_ray.stages.blocking import (
        setsim_self_join,
        tokenize_docs,
    )

    docs, _ = tiny_docs
    toks = tokenize_docs(docs, "doc", "dlm").materialize()
    cfg = PipelineConfig(pair_partitions=8)
    a = setsim_self_join(toks, sim="jac", threshold=0.6, cfg=cfg, broadcast=True)
    b = setsim_self_join(toks, sim="jac", threshold=0.6, cfg=cfg, broadcast=False)
    pa_ = a.to_pandas().sort_values(["id1", "id2"]).reset_index(drop=True)
    pb_ = b.to_pandas().sort_values(["id1", "id2"]).reset_index(drop=True)
    pd.testing.assert_frame_equal(pa_[["id1", "id2", "sim"]], pb_[["id1", "id2", "sim"]])


# ---------------------------------------------------------------------------
# as-of join (DuckDB ASOF JOIN semantics)
# ---------------------------------------------------------------------------


def _asof_fixture():
    rng = np.random.default_rng(11)
    n_l, n_r = 400, 300
    left = pd.DataFrame({
        "lid": np.arange(n_l, dtype=np.int64),
        "user": rng.integers(0, 25, n_l),
        "lts": rng.integers(0, 10_000, n_l).astype("datetime64[s]").astype("datetime64[us]"),
        "lval": rng.normal(size=n_l),
    })
    right = pd.DataFrame({
        "rid": np.arange(n_r, dtype=np.int64),
        "user": rng.integers(0, 25, n_r),
        "rts": rng.integers(0, 10_000, n_r).astype("datetime64[s]").astype("datetime64[us]"),
        "rval": rng.normal(size=n_r),
    })
    # unique (user, rts) so the as-of winner is unambiguous
    right = right.drop_duplicates(["user", "rts"]).reset_index(drop=True)
    return left, right


def test_asof_join_matches_duckdb(ray_session):
    import duckdb

    from entityblockingbysimilarityjoins_ray.stages.joins import asof_join

    left, right = _asof_fixture()
    got = asof_join(
        ray.data.from_pandas(left), ray.data.from_pandas(right),
        on="user", left_ts="lts", right_ts="rts", num_partitions=8,
    ).to_pandas().sort_values("lid").reset_index(drop=True)

    con = duckdb.connect()
    con.register("l", left)
    con.register("r", right)
    exp = con.sql("""
        SELECT l.lid, l.user, l.lts, l.lval, r.rid, r.rts, r.rval
        FROM l ASOF JOIN r ON l.user = r.user AND l.lts >= r.rts
        ORDER BY l.lid
    """).df().reset_index(drop=True)
    assert len(got) == len(exp)
    got = got[exp.columns.tolist()]
    for c in ("lid", "user", "rid"):
        assert np.array_equal(got[c].to_numpy(np.int64), exp[c].to_numpy(np.int64)), c
    for c in ("lts", "rts"):
        assert np.array_equal(got[c].to_numpy("datetime64[us]"),
                              exp[c].to_numpy("datetime64[us]")), c
    for c in ("lval", "rval"):
        assert np.allclose(got[c], exp[c]), c


def test_asof_join_left_and_forward(ray_session):
    from entityblockingbysimilarityjoins_ray.stages.joins import asof_join

    left, right = _asof_fixture()
    out = asof_join(
        ray.data.from_pandas(left), ray.data.from_pandas(right),
        on="user", left_ts="lts", right_ts="rts", how="left", num_partitions=8,
    ).to_pandas()
    assert len(out) == len(left)  # left join keeps unmatched rows
    # brute-force check a few rows
    for _, row in out.head(50).iterrows():
        cand = right[(right["user"] == row["user"]) & (right["rts"] <= row["lts"])]
        if len(cand):
            assert row["rts"] == cand["rts"].max()
        else:
            assert pd.isna(row["rts"])

    fwd = asof_join(
        ray.data.from_pandas(left), ray.data.from_pandas(right),
        on="user", left_ts="lts", right_ts="rts", direction="forward",
        num_partitions=8,
    ).to_pandas()
    for _, row in fwd.head(50).iterrows():
        cand = right[(right["user"] == row["user"]) & (right["rts"] >= row["lts"])]
        assert len(cand) and row["rts"] == cand["rts"].min()


def test_interval_join_matches_duckdb(ray_session):
    """Keyed range join vs a DuckDB BETWEEN join — overlapping intervals
    included (a point matches every containing interval)."""
    import duckdb

    from entityblockingbysimilarityjoins_ray.stages.joins import interval_join

    rng = np.random.default_rng(13)
    pts = pd.DataFrame({
        "pid": np.arange(500, dtype=np.int64),
        "k": rng.integers(0, 20, 500),
        "v": rng.integers(0, 1000, 500),
    })
    lo = rng.integers(0, 950, 200)
    iv = pd.DataFrame({
        "iid": np.arange(200, dtype=np.int64),
        "k": rng.integers(0, 20, 200),
        "lo": lo,
        "hi": lo + rng.integers(0, 400, 200),  # overlapping by construction
    })
    got = interval_join(
        ray.data.from_pandas(pts), ray.data.from_pandas(iv),
        on="k", point_col="v", lo_col="lo", hi_col="hi", num_partitions=8,
    ).to_pandas().sort_values(["pid", "iid"]).reset_index(drop=True)

    con = duckdb.connect()
    con.register("p", pts)
    con.register("i", iv)
    exp = con.sql("""
        SELECT p.pid, p.k, p.v, i.iid, i.lo, i.hi
        FROM p JOIN i ON p.k = i.k AND p.v BETWEEN i.lo AND i.hi
        ORDER BY p.pid, i.iid
    """).df().reset_index(drop=True)
    assert len(got) == len(exp) and len(exp) > 0
    got = got[exp.columns.tolist()]
    for c in exp.columns:
        assert np.array_equal(got[c].to_numpy(np.int64), exp[c].to_numpy(np.int64)), c


def test_asof_interval_one_sided_buckets(ray_session):
    """Buckets holding only one side (disjoint key sets) produce zero inner
    rows; asof left-join keeps unmatched lefts with null right columns."""
    from entityblockingbysimilarityjoins_ray.stages.joins import (
        asof_join,
        interval_join,
    )

    left = pd.DataFrame({"lid": [0, 1], "user": [100, 200],
                         "lts": np.array([10, 20], "datetime64[s]").astype("datetime64[us]")})
    right = pd.DataFrame({"rid": [0], "user": [300],
                          "rts": np.array([5], "datetime64[s]").astype("datetime64[us]")})
    inner = asof_join(ray.data.from_pandas(left), ray.data.from_pandas(right),
                      on="user", left_ts="lts", right_ts="rts",
                      num_partitions=4).to_pandas()
    assert len(inner) == 0
    lj = asof_join(ray.data.from_pandas(left), ray.data.from_pandas(right),
                   on="user", left_ts="lts", right_ts="rts", how="left",
                   num_partitions=4).to_pandas()
    assert len(lj) == 2 and lj["rts"].isna().all()

    pts = pd.DataFrame({"pid": [0], "k": [7], "v": [5]})
    iv = pd.DataFrame({"iid": [0], "k": [9], "lo": [0], "hi": [10]})
    out = interval_join(ray.data.from_pandas(pts), ray.data.from_pandas(iv),
                        on="k", point_col="v", lo_col="lo", hi_col="hi",
                        num_partitions=4).to_pandas()
    assert len(out) == 0


# ---------------------------------------------------------------------------
# attach_pairs: the one pair-vs-record payload operator
# ---------------------------------------------------------------------------


def _attach_inputs():
    rng = np.random.default_rng(5)
    words = ["alpha", "beta", "gamma", "delta", "epsi", "zeta"]
    n = 40
    docs = pd.DataFrame({
        "conv_id": [f"c{i:02d}" for i in range(n)],
        "doc": [" ".join(rng.choice(words, size=rng.integers(2, 6))) for _ in range(n)],
        "head": [" ".join(rng.choice(words, size=2)) for _ in range(n)],
        "n_turns": rng.integers(1, 9, n),
    })
    docs.loc[3, "head"] = ""  # an empty value: dropped by matched_values on both plans
    pairs = pd.DataFrame({"id1": docs["conv_id"][:20].tolist(),
                          "id2": docs["conv_id"][20:].tolist()})
    return docs, pairs


def _case_features(docs, pairs):
    from entityblockingbysimilarityjoins_ray.stages.features import (
        DEFAULT_FEATURES,
        extract_features,
    )

    return extract_features(ray.data.from_pandas(pairs), ray.data.from_pandas(docs),
                            DEFAULT_FEATURES, num_partitions=4)


def _case_features_ic(docs, pairs):
    from entityblockingbysimilarityjoins_ray.stages.features import (
        FeatureSpec,
        extract_features_ic,
    )

    groups = pd.DataFrame({"val": docs["head"][:2].tolist(),
                           "group_rep": [docs["head"][0]] * 2})
    specs = (FeatureSpec("head", "jac", "dlm"), FeatureSpec("head", "lev", "none"))
    return extract_features_ic(ray.data.from_pandas(pairs), ray.data.from_pandas(docs),
                               groups, "head", specs, num_partitions=4)


def _case_ditto(docs, pairs):
    from entityblockingbysimilarityjoins_ray.stages.matcher import ditto_match

    def model(texts):
        return np.array([len(t) % 3 / 2 for t in texts])

    return ditto_match(ray.data.from_pandas(pairs), ray.data.from_pandas(docs),
                       ["head", "n_turns"], model, concurrency=1, num_partitions=4)


def _case_embedding(docs, pairs):
    from entityblockingbysimilarityjoins_ray.stages.dedup import embedding_dup_pairs

    rng = np.random.default_rng(3)
    M = rng.normal(size=(40, 6))
    M[1::2] = M[::2] + 0.05 * rng.normal(size=(20, 6))
    emb = ray.data.from_arrow(pa.table({
        "vec_id": pa.array(np.arange(40, dtype=np.int64)),
        "embedding": pa.array(list(M), type=pa.list_(pa.float64()))}))
    return embedding_dup_pairs(emb, threshold=0.9, mode="lsh", n_bands=16,
                               band_bits=4, num_partitions=4)


def _case_attach_values(docs, pairs):
    from entityblockingbysimilarityjoins_ray.stages.semantic_graph import _attach_values

    return _attach_values(ray.data.from_pandas(pairs), ray.data.from_pandas(docs),
                          "head", out_l="l", out_r="r", num_partitions=4,
                          broadcast_limit=2_000_000)


def _case_lev_sim(docs, pairs):
    from entityblockingbysimilarityjoins_ray.config import PipelineConfig
    from entityblockingbysimilarityjoins_ray.stages.editjoin import lev_sim_self_join

    return lev_sim_self_join(ray.data.from_pandas(docs), "head", 0.6,
                             PipelineConfig(pair_partitions=4, num_buckets=4))


def _case_enrich(docs, pairs):
    from entityblockingbysimilarityjoins_ray.stages.writers import enrich_pairs

    return enrich_pairs(ray.data.from_pandas(pairs), ray.data.from_pandas(docs),
                        ["head", "n_turns"], num_partitions=4)


def _case_matched_values(docs, pairs):
    from entityblockingbysimilarityjoins_ray.stages.interchangeable import matched_values

    return matched_values(ray.data.from_pandas(pairs), ray.data.from_pandas(docs),
                          "head", num_partitions=4)


@pytest.mark.parametrize("case", [
    _case_features, _case_features_ic, _case_ditto, _case_embedding,
    _case_attach_values, _case_lev_sim, _case_enrich, _case_matched_values,
], ids=lambda f: f.__name__[len("_case_"):])
def test_attach_gate_counts_bytes(case, monkeypatch, ray_session):
    """Records under the count limit but ~5 GiB by size take the join path:
    no driver collect of the records, and the same rows as the broadcast
    run."""
    import entityblockingbysimilarityjoins_ray.stages.verify as V

    docs, pairs = _attach_inputs()

    def frame(ds):
        df = ds.to_pandas()
        return df.sort_values(list(df.columns)).reset_index(drop=True)

    bcast = frame(case(docs, pairs))
    assert len(bcast) > 0

    def poisoned(*a, **k):
        raise AssertionError("driver collect beyond the bytes limit")

    monkeypatch.setattr(ray.data.Dataset, "size_bytes", lambda self: 5 << 30)
    monkeypatch.setattr(V, "collect_arrow", poisoned)
    joined = frame(case(docs, pairs))
    pd.testing.assert_frame_equal(bcast, joined[bcast.columns], check_exact=True)


def test_attach_pairs_branches_carry_pair_columns(ray_session):
    """Both branches hand the kernel every pair column and -1 rows for
    unknown ids; a kernel that fills keeps every pair."""
    from entityblockingbysimilarityjoins_ray.stages.joins import PairKernel, attach_pairs

    records = ray.data.from_pandas(pd.DataFrame({"conv_id": ["a", "b", "c"],
                                                 "x": [1.5, 2.5, 3.5]}))
    pairs = ray.data.from_pandas(pd.DataFrame({
        "id1": ["a", "b", "zz"], "id2": ["c", "yy", "a"], "w": [7, 8, 9]}))

    def apply(x, t, r1, r2):
        x = np.append(x, np.nan)  # row -1 reads NaN
        return (t.append_column("x1", pa.array(x[r1]))
                 .append_column("x2", pa.array(x[r2])))

    kernel = PairKernel(lambda tbl: np.asarray(tbl.column("x"), dtype=np.float64), apply)
    outs = [attach_pairs(pairs, records, kernel, broadcast_limit=10, broadcast=b,
                         num_partitions=4).to_pandas().sort_values("id1")
            .reset_index(drop=True) for b in (True, False)]
    pd.testing.assert_frame_equal(outs[0], outs[1])
    assert list(outs[0].columns) == ["id1", "id2", "w", "x1", "x2"]
    assert outs[0]["w"].tolist() == [7, 8, 9]
    assert outs[0]["x1"].tolist()[:2] == [1.5, 2.5] and np.isnan(outs[0]["x2"][1])


def test_no_pair_attach_hash_join_outside_joins():
    """Pair payload attaches go through attach_pairs: no module of the
    package calls hash_join keyed on a pair id column except joins.py."""
    import ast
    import pathlib

    import entityblockingbysimilarityjoins_ray as pkg

    root = pathlib.Path(pkg.__file__).parent
    offenders = []
    for path in sorted(root.rglob("*.py")):
        if path.name == "joins.py":
            continue
        for node in ast.walk(ast.parse(path.read_text())):
            if not isinstance(node, ast.Call):
                continue
            fn = node.func
            name = fn.attr if isinstance(fn, ast.Attribute) else getattr(fn, "id", None)
            if name != "hash_join":
                continue
            keys = {kw.value.value for kw in node.keywords
                    if kw.arg in ("on", "right_on") and isinstance(kw.value, ast.Constant)}
            if keys & {"id1", "id2"}:
                offenders.append(f"{path.relative_to(root)}:{node.lineno}")
    assert offenders == [], offenders
