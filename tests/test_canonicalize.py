"""Canonicalization: per-turn text equality invariant (BASELINE.json
input_hint) — concatenating texts under stable turn_idx order is byte-equal
to the oracle concatenation."""

import numpy as np


def test_doc_concat_invariant(tiny_fixture, tiny_docs):
    tdf, _, _ = tiny_fixture
    _, pdocs = tiny_docs
    exp = (
        tdf.sort_values(["conv_id", "turn_idx"], kind="stable")
        .groupby("conv_id")["text"]
        .agg("\n".join)
    )
    got = pdocs.set_index("conv_id")["doc"]
    assert set(got.index) == set(exp.index)
    assert (got.loc[exp.index] == exp).all()


def test_head_and_counts(tiny_fixture, tiny_docs):
    tdf, _, _ = tiny_fixture
    _, pdocs = tiny_docs
    srt = tdf.sort_values(["conv_id", "turn_idx"], kind="stable")
    g = srt.groupby("conv_id")
    assert (pdocs.set_index("conv_id")["head"] == g["text"].first()).all()
    assert (pdocs.set_index("conv_id")["n_turns"] == g.size()).all()
    assert (pdocs.set_index("conv_id")["ts_min"] == g["ts"].min()).all()
    assert (pdocs.set_index("conv_id")["ts_max"] == g["ts"].max()).all()
    assert (pdocs["n_chars"] == pdocs["doc"].str.len()).all()


def test_one_row_per_conversation(tiny_fixture, tiny_docs):
    tdf, _, _ = tiny_fixture
    _, pdocs = tiny_docs
    assert len(pdocs) == tdf["conv_id"].nunique()
    assert pdocs["conv_id"].is_unique


def _pandas_canon(tdf, sep="\n"):
    """In-test reference: stable (conv_id, turn_idx) sort, null text as "",
    one row per non-null conv_id."""
    import pandas as pd

    df = tdf.sort_values(["conv_id", "turn_idx"], kind="stable")
    df = df.assign(text=df["text"].fillna(""))
    g = df.groupby("conv_id", sort=True)
    out = pd.DataFrame({"doc": g["text"].agg(sep.join), "head": g["text"].first(),
                        "n_turns": g.size().astype(np.int64),
                        "ts_min": g["ts"].min(), "ts_max": g["ts"].max()})
    out["n_chars"] = out["doc"].str.len().astype(np.int64)
    return out.reset_index()[["conv_id", "doc", "head", "n_turns", "n_chars",
                              "ts_min", "ts_max"]]


def test_canonicalize_edge_cases_match_pandas(ray_session):
    """Null text and ts, a duplicated turn_idx (input order kept), one
    conversation's turns split across blocks out of order, non-ASCII text
    (n_chars counts codepoints) and a null conv_id (dropped): the Arrow
    reduce equals a pandas sort + groupby reference, columns and dtypes
    included."""
    import pandas as pd
    import ray.data

    from entityblockingbysimilarityjoins_ray.stages.canonicalize import canonicalize

    ts = pd.to_datetime(["2025-01-03", None, "2025-01-01", "2025-01-02", None,
                         None, None, "2025-01-05", "2025-01-04"]).astype("datetime64[us]")
    tdf = pd.DataFrame({
        "conv_id": ["x", "x", "x", None, "y", "y", "z", "z", "z"],
        "turn_idx": np.array([2, 1, 1, 0, 0, 1, 5, 3, 4], np.int32),
        "role": ["user"] * 9,
        "text": ["c", "dup first", "dup second", "orphan", None, "é😀ñ", "q", None, "ü"],
        "tool": [""] * 9,
        "ts": ts,
    })
    # x's duplicated turn 1 sits in one block (its order is defined); z's
    # turns 5 / 3 / 4 arrive from three different blocks
    blocks = [tdf.iloc[[0, 1, 2, 6]], tdf.iloc[[3, 4, 7]], tdf.iloc[[5, 8]]]
    got = canonicalize(ray.data.from_pandas(blocks), num_buckets=2).to_pandas()
    got = got.sort_values("conv_id").reset_index(drop=True)
    exp = _pandas_canon(tdf)
    pd.testing.assert_frame_equal(got, exp)
    assert got.loc[0, "doc"] == "dup first\ndup second\nc"
    assert got.loc[1, "n_chars"] == 4  # "" + "\n" + three codepoints
    assert pd.isna(got.loc[1, "ts_min"]) and pd.isna(got.loc[1, "ts_max"])
