"""Writers (mean-impute feature vectors, pos/neg match results, sample
results), stringNormalize, CSV source — vs literal re-implementations of the
reference C semantics (feature.cc:79-129; tokenizer.cc:111-142;
random_forest.py:694-779; io.h:44-81,175-177)."""

import json
import os

import numpy as np
import pandas as pd
import pyarrow as pa
import pytest
import ray.data

from entityblockingbysimilarityjoins_ray.functions.tokenize import normalize_array
from entityblockingbysimilarityjoins_ray.stages.writers import (
    enrich_pairs,
    feature_column_means,
    write_match_results,
    write_sample_res,
    write_topk_features,
)


def _ref_normalize(s: str, strategy: int) -> str:
    out = []
    prev = " "
    for ch in s:
        if strategy == 0:
            if prev == " " and ch == " ":
                continue
        elif strategy == 1:
            if not ch.isalnum() or ord(ch) > 127:
                continue
        elif strategy == 2:
            if (not ch.isalnum() or ord(ch) > 127) and (ch != " " or prev == " "):
                continue
        prev = ch
        out.append(ch.lower())
    if out and out[-1] == " ":
        out.pop()
    return "".join(out)


@pytest.mark.parametrize("strategy", [0, 1, 2])
def test_string_normalize_matches_reference(strategy):
    cases = ["  Hello,   World!  ", "A.b c", "", "x\ty", "MiXeD  CASE .",
             "a  b   c ", "..leading", "trail.. ", "1,2;3"]
    got = normalize_array(pa.array(cases), strategy).to_pylist()
    exp = [_ref_normalize(c, strategy) for c in cases]
    assert got == exp, (strategy, got, exp)


def test_feature_means_and_impute(tmp_path, ray_session):
    df = pd.DataFrame({
        "id1": ["a", "b", "c", "d"], "id2": ["w", "x", "y", "z"],
        "f1": [1.0, np.nan, 3.0, np.nan],
        "f2": [np.nan, 2.0, np.nan, 4.0],
    })
    ds = ray.data.from_pandas(df)
    means = feature_column_means(ds, ["f1", "f2"])
    assert means == {"f1": 2.0, "f2": 3.0}
    man = write_topk_features(ds, str(tmp_path / "fv"), cols=["f1", "f2"])
    assert man["means"] == {"f1": 2.0, "f2": 3.0}
    out = pd.read_parquet(tmp_path / "fv").sort_values("id1")
    assert out["f1"].tolist() == [1.0, 2.0, 3.0, 2.0]
    assert out["f2"].tolist() == [3.0, 2.0, 3.0, 4.0]


def test_write_match_results(tmp_path, tiny_docs, ray_session):
    docs, pdocs = tiny_docs
    ids = sorted(pdocs["conv_id"])[:8]
    pred = pd.DataFrame({
        "id1": ids[:4], "id2": ids[4:],
        "label": [1, 0, 1, 0],
    })
    stat = write_match_results(ray.data.from_pandas(pred), docs, ["head"],
                               str(tmp_path / "mr"))
    assert stat["n_matches"] == 2 and stat["n_negative"] == 2
    assert stat["total_table"] == len(pdocs)
    pos = pd.read_parquet(tmp_path / "mr" / "match_res")
    v = pdocs.set_index("conv_id")
    for _, r in pos.iterrows():
        assert r["label"] == 1
        assert r["ltable_head"] == v.loc[r["id1"], "head"]
        assert r["rtable_head"] == v.loc[r["id2"], "head"]
    assert json.load(open(tmp_path / "mr" / "stat.json")) == stat


def test_enrich_pairs_join_path_matches_broadcast(tiny_docs, ray_session):
    """Both plans emit the same rows, columns (in order) and dtypes: a pair
    with an unknown id is dropped, an int attr stays int."""
    docs, pdocs = tiny_docs
    ids = sorted(pdocs["conv_id"])[:8]
    pairs = pd.DataFrame({"id1": ids[:4] + ["GHOST"], "id2": ids[4:] + [ids[0]],
                          "label": [1, 0, 1, 0, 1]})
    a = enrich_pairs(ray.data.from_pandas(pairs), docs, ["head", "n_turns"]).to_pandas()
    b = enrich_pairs(ray.data.from_pandas(pairs), docs, ["head", "n_turns"],
                     broadcast_limit=0, num_partitions=4).to_pandas()
    cols = ["id1", "id2", "label", "ltable_head", "rtable_head",
            "ltable_n_turns", "rtable_n_turns"]
    assert list(a.columns) == cols and list(b.columns) == cols
    a = a.sort_values(["id1", "id2"]).reset_index(drop=True)
    b = b.sort_values(["id1", "id2"]).reset_index(drop=True)
    pd.testing.assert_frame_equal(a, b, check_exact=True)
    assert len(a) == 4 and "GHOST" not in set(a["id1"])
    assert a["ltable_n_turns"].dtype == pdocs["n_turns"].dtype
    v = pdocs.set_index("conv_id")
    assert a["rtable_n_turns"].tolist() == v.loc[a["id2"], "n_turns"].tolist()


@pytest.mark.parametrize("limit", [2_000_000, 0], ids=["broadcast", "join"])
def test_enrich_pairs_rejects_duplicate_ids(limit, ray_session):
    """A conv_id that occurs twice in the docs raises a ValueError naming
    it on both plans (on the driver, or in the join task)."""
    docs = ray.data.from_pandas(pd.DataFrame({
        "conv_id": ["a", "b", "a"], "head": ["x", "y", "z"]}))
    pairs = ray.data.from_pandas(pd.DataFrame({"id1": ["a"], "id2": ["b"]}))
    with pytest.raises(ValueError, match="conv_id 'a' occurs more than once"):
        enrich_pairs(pairs, docs, ["head"], broadcast_limit=limit,
                     num_partitions=4).materialize()


def test_write_sample_res_layout(tmp_path, tiny_docs, ray_session):
    docs, pdocs = tiny_docs
    ids = sorted(pdocs["conv_id"])[:6]
    sample = pd.DataFrame({"id1": ids[:3], "id2": ids[3:], "label": [1, 0, 1]})
    out = write_sample_res(sample, docs, ["head"], str(tmp_path / "sample.parquet"))
    assert list(out.columns[:3]) == ["_id", "ltable_id", "rtable_id"]
    assert (out["_id"] == np.arange(len(out))).all()
    back = pd.read_parquet(tmp_path / "sample.parquet")
    assert len(back) == 3 and set(back["label"]) == {0, 1}


def test_csv_source_roundtrip(tmp_path, ray_session):
    from entityblockingbysimilarityjoins_ray.sources.io import read_csv_clean

    df = pd.DataFrame({"id": [1, 2, 3], "name": ["a", "b", "c"], "x": [0.5, 1.5, 2.5]})
    p = tmp_path / "t.csv"
    df.to_csv(p, index=False)
    ds = read_csv_clean(str(p), columns=["id", "name"])
    out = ds.to_pandas().sort_values("id").reset_index(drop=True)
    assert list(out.columns) == ["id", "name"]
    assert out["name"].tolist() == ["a", "b", "c"]


# ---------------------------------------------------------------------------
# attr-type inference / declarative features (feature_base.py:88-112,
# feature_index.cc:332-344)
# ---------------------------------------------------------------------------


def test_infer_attr_types_and_cross_product(tiny_docs, ray_session):
    from entityblockingbysimilarityjoins_ray.stages.features import (
        features_for_types,
        generate_features,
        infer_attr_types,
    )

    docs, pdocs = tiny_docs
    types = infer_attr_types(docs, ["doc", "head", "n_turns"])
    assert types["n_turns"] == "numeric"
    assert types["doc"].startswith("str_")
    # doc is multi-line conversation text -> long
    avg = pdocs["doc"].str.split().map(len).mean()
    band = ("str_eq_1w" if avg <= 1 else "str_bt_1w_5w" if avg <= 5
            else "str_bt_5w_10w" if avg <= 10 else "str_gt_10w")
    assert types["doc"] == band
    specs = features_for_types({"a": "str_bt_1w_5w", "b": "str_gt_10w",
                                "c": "str_eq_1w", "d": "numeric", "e": "boolean"})
    per = {}
    for s in specs:
        per[s.attr] = per.get(s.attr, 0) + 1
    assert per == {"a": 8, "b": 4, "c": 6, "d": 2, "e": 1}
    # end-to-end: generated specs are extractable
    from entityblockingbysimilarityjoins_ray.stages.features import extract_features

    gen = generate_features(docs, ["head", "n_turns"])
    ids = sorted(pdocs["conv_id"])[:4]
    pairs = pd.DataFrame({"id1": ids[:2], "id2": ids[2:]})
    out = extract_features(ray.data.from_pandas(pairs), docs, gen).to_pandas()
    assert len(out) == 2
    assert set(out.columns) == {"id1", "id2"} | {s.name for s in gen}
