"""Edit-distance join vs exact cross-join oracle (DuckDB levenshtein) —
PassJoin semantics of the reference StringJoin (stringjoin.{h,cc})."""

import duckdb
import numpy as np
import pandas as pd
import pytest
import ray.data

from entityblockingbysimilarityjoins_ray.config import PipelineConfig
from entityblockingbysimilarityjoins_ray.stages.editjoin import (
    edit_rs_join,
    edit_self_join,
)

CFG = PipelineConfig(pair_partitions=8)


def _mk_docs(rng):
    base = ["similarity join", "similarty join", "similarity joins", "entity blocking",
            "entty blocking", "a", "b", "ab", "", "record linkage", "record linkage!",
            "rec0rd linkage", "xyz", "xzy", "zzzzzzzzzz"]
    extra = ["".join(rng.choice(list("abcde"), size=rng.integers(3, 12))) for _ in range(60)]
    vals = base + extra
    return pd.DataFrame({"conv_id": [f"c{i:04d}" for i in range(len(vals))], "head": vals})


@pytest.mark.parametrize("D", [1, 2])
def test_edit_join_matches_duckdb(ray_session, D):
    rng = np.random.default_rng(7)
    df = _mk_docs(rng)
    ds = ray.data.from_pandas(df)
    got = edit_self_join(ds, "head", D, CFG).to_pandas()
    got_set = set(zip(got.id1, got.id2))
    con = duckdb.connect()
    exp = con.execute(
        "SELECT a.conv_id i1, b.conv_id i2 FROM df a JOIN df b ON a.conv_id < b.conv_id "
        f"WHERE levenshtein(a.head, b.head) <= {D}"
    ).df()
    assert got_set == set(zip(exp.i1, exp.i2))
    # sim column is the exact distance
    con.register("gotdf", got)
    chk = con.execute(
        "SELECT count(*) FROM gotdf g JOIN df a ON g.id1=a.conv_id JOIN df b ON g.id2=b.conv_id "
        "WHERE levenshtein(a.head, b.head) != g.sim"
    ).fetchone()[0]
    assert chk == 0


def test_lev_sim_rule_end_to_end(ray_session):
    """A parsed lev_sim rule must block on NORMALIZED Levenshtein
    similarity (review finding: the alias previously collapsed to
    int(0.78)=0 exact-match).  lev_sim_self_join == brute force."""
    import itertools

    import pandas as pd
    import ray.data as rd

    from entityblockingbysimilarityjoins_ray.config import (
        PipelineConfig,
        rule_from_feature_name,
    )
    from entityblockingbysimilarityjoins_ray.functions.sims import lev_dist
    from entityblockingbysimilarityjoins_ray.pipelines.er import run_rule

    r = rule_from_feature_name("head_head_lev_sim", 0.75)
    assert (r.sim, r.lev_metric, r.threshold) == ("lev", "sim", 0.75)
    assert "levsim" in r.name

    docs_pd = pd.DataFrame({
        "conv_id": [f"c{i}" for i in range(6)],
        "head": ["entity matching", "entity watching", "entity matchers",
                 "wholly different", "entity matching", ""],
    })
    docs = rd.from_pandas(docs_pd)
    cfg = PipelineConfig(num_buckets=4, pair_partitions=4)
    out = run_rule(docs, r, cfg).to_pandas()
    got = {tuple(sorted((p.id1, p.id2))): p.sim for p in out.itertuples()}
    exp = {}
    for (i1, v1), (i2, v2) in itertools.combinations(
            zip(docs_pd["conv_id"], docs_pd["head"]), 2):
        mx = max(len(v1), len(v2))
        sim = 1.0 - lev_dist(v1, v2) / mx if mx else 1.0
        if sim >= 0.75:
            exp[tuple(sorted((i1, i2)))] = sim
    assert set(got) == set(exp), (set(got) ^ set(exp))
    for k in exp:
        assert abs(got[k] - exp[k]) < 1e-12
    # the old behavior would have returned ONLY the exact-duplicate pair
    assert len(exp) > 1


def test_lev_sim_bucketed_matches_bruteforce(ray_session):
    """Length-class bucketing (review finding: one long outlier inflated the
    corpus-wide PassJoin bound K for every record): with a long outlier
    forcing K >= bucket_min_k the join runs per length class + adjacent RS
    joins, and must equal brute force exactly."""
    import itertools

    import ray.data as rd

    from entityblockingbysimilarityjoins_ray.functions.sims import lev_dist
    from entityblockingbysimilarityjoins_ray.stages.editjoin import (
        _lev_sim_length_tops,
        lev_sim_self_join,
    )

    s = 0.75
    rng = np.random.default_rng(11)
    short = ["".join(rng.choice(list("abcd"), size=rng.integers(3, 10)))
             for _ in range(40)]
    # planted near-dups within the short class
    short += [short[0] + "a", short[1][:-1], short[2]]
    mid = ["m" * 20, "m" * 20 + "xy", "m" * 19]
    outlier = ["q" * 200, "q" * 199 + "z"]  # K_corpus = floor(0.25*200) = 50
    vals = short + mid + outlier + [""]
    docs_pd = pd.DataFrame({"conv_id": [f"c{i:03d}" for i in range(len(vals))],
                            "head": vals})
    # bucketing engages (K=50 >= 8) and produces >= 2 classes
    assert len(_lev_sim_length_tops(200, s)) >= 2
    out = lev_sim_self_join(rd.from_pandas(docs_pd), "head", s, CFG).to_pandas()
    got = {tuple(sorted((p.id1, p.id2))): p.sim for p in out.itertuples()}
    exp = {}
    for (i1, v1), (i2, v2) in itertools.combinations(
            zip(docs_pd["conv_id"], docs_pd["head"]), 2):
        mx = max(len(v1), len(v2))
        sim = 1.0 - lev_dist(v1, v2) / mx if mx else 1.0
        if sim >= s:
            exp[tuple(sorted((i1, i2)))] = sim
    assert set(got) == set(exp), (set(got) ^ set(exp))
    for k in exp:
        assert abs(got[k] - exp[k]) < 1e-12


def test_edit_join_grid_path_matches_broadcast(ray_session):
    """Forced beyond-broadcast edit joins (value-shard grid verify) are
    output-identical to the broadcast family — self AND RS."""
    from entityblockingbysimilarityjoins_ray.stages.editjoin import edit_rs_join

    rng = np.random.default_rng(11)
    df = _mk_docs(rng)
    ds = ray.data.from_pandas(df)
    grid_cfg = PipelineConfig(pair_partitions=8, broadcast_limit=0,
                              broadcast_bytes_limit=0, verify_shards=3)
    for D in (1, 2):
        a = edit_self_join(ds, "head", D, CFG).to_pandas()
        b = edit_self_join(ds, "head", D, grid_cfg).to_pandas()
        assert (sorted(zip(a.id1, a.id2, a.sim))
                == sorted(zip(b.id1, b.id2, b.sim)))
    half_a = ray.data.from_pandas(df.iloc[::2].reset_index(drop=True))
    half_b = ray.data.from_pandas(df.iloc[1::2].reset_index(drop=True))
    a = edit_rs_join(half_a, half_b, "head", 2, CFG).to_pandas()
    b = edit_rs_join(half_a, half_b, "head", 2, grid_cfg).to_pandas()
    assert sorted(zip(a.id1, a.id2, a.sim)) == sorted(zip(b.id1, b.id2, b.sim))
    # RS keeps (A, B) side order on both paths
    assert all(i1 in set(df.iloc[::2].conv_id) for i1 in b.id1)


# ---------------------------------------------------------------------------
# Brute-force oracles over both physical plans (broadcast probe, grid)
# ---------------------------------------------------------------------------

GRID_CFG = PipelineConfig(pair_partitions=8, broadcast_limit=0,
                          broadcast_bytes_limit=0, verify_shards=3)


def _brute(df_a, df_b, D):
    """Every pair through lev_dist_batch (DuckDB counts UTF-8 bytes, so
    lev('é', 'e') == 2); ``df_b is None`` -> self join, ids lex-ordered."""
    import itertools

    from entityblockingbysimilarityjoins_ray.functions import sims as S

    va = dict(zip(df_a.conv_id, df_a["head"].fillna("")))
    if df_b is None:
        pairs = list(itertools.combinations(sorted(va), 2))
        vb = va
    else:
        vb = dict(zip(df_b.conv_id, df_b["head"].fillna("")))
        pairs = [(a, b) for a in va for b in vb]
    d = S.lev_dist_batch([va[a] for a, _ in pairs], [vb[b] for _, b in pairs])
    return sorted((a, b, float(x)) for (a, b), x in zip(pairs, d) if x <= D)


def _rows(ds):
    got = ds.to_pandas()
    return sorted(zip(got.id1, got.id2, got.sim.astype(float)))


def _unicode_docs():
    rng = np.random.default_rng(5)
    alpha = ["a", "b", "é", "ñ", "😀", " "]
    vals = ["".join(rng.choice(alpha, size=rng.integers(0, 7))) for _ in range(70)]
    vals += [None, "", None, "", "é", "e", "😀😀", "ñandú", "nandu"]
    return pd.DataFrame({"conv_id": [f"u{i:03d}" for i in range(len(vals))],
                         "head": vals})


@pytest.mark.parametrize("D", [0, 1, 2, 3])
def test_edit_join_bruteforce_unicode_both_plans(ray_session, D):
    """Self and RS edit joins equal an all-pairs lev_dist_batch oracle on
    values mixing ASCII, accents, emoji, empty strings and nulls — on the
    broadcast probe and on the grid plan.  Pins the prefix-hash signatures:
    a missed span collision would drop a true pair."""
    df = _unicode_docs()
    a = df.iloc[::2].reset_index(drop=True)
    b = df.iloc[1::2].reset_index(drop=True)
    exp_self, exp_rs = _brute(df, None, D), _brute(a, b, D)
    assert exp_self and exp_rs
    for cfg in (CFG, GRID_CFG):
        assert _rows(edit_self_join(ray.data.from_pandas(df), "head", D, cfg)) == exp_self
        assert _rows(edit_rs_join(ray.data.from_pandas(a), ray.data.from_pandas(b),
                                  "head", D, cfg)) == exp_rs


def test_edit_join_broadcast_runs_no_shuffle(ray_session, monkeypatch):
    """Under the broadcast gate the edit joins probe a broadcast index:
    no groupby / sort shuffle anywhere in either join."""
    def refuse(*args, **kwargs):
        raise AssertionError("the broadcast edit join must not shuffle")

    df = _unicode_docs()
    a = df.iloc[::2].reset_index(drop=True)
    b = df.iloc[1::2].reset_index(drop=True)
    monkeypatch.setattr(ray.data.Dataset, "groupby", refuse)
    monkeypatch.setattr(ray.data.Dataset, "sort", refuse)
    assert _rows(edit_self_join(ray.data.from_pandas(df), "head", 2, CFG)) == _brute(df, None, 2)
    assert _rows(edit_rs_join(ray.data.from_pandas(a), ray.data.from_pandas(b),
                              "head", 2, CFG)) == _brute(a, b, 2)


def test_edit_join_hot_key_chunked_probe(ray_session, monkeypatch):
    """600 records sharing one value: each probe record's raw candidates
    (one per matching index row per shared key) overflow a small chunk
    budget, so the probe cuts inside records and must carry the record's
    seen candidates across chunks — self and RS still equal brute force."""
    from entityblockingbysimilarityjoins_ray.stages import editjoin

    monkeypatch.setattr(editjoin, "_PROBE_CHUNK", 500)
    vals = ["hot key"] * 600 + ["hot kez", "hot", "cold key", ""]
    df = pd.DataFrame({"conv_id": [f"h{i:04d}" for i in range(len(vals))], "head": vals})
    got = _rows(edit_self_join(ray.data.from_pandas(df), "head", 1, CFG))
    assert len(got) > 600 * 599 // 2
    assert got == _brute(df, None, 1)
    a = df.iloc[::2].reset_index(drop=True)
    b = df.iloc[1::2].reset_index(drop=True)
    assert _rows(edit_rs_join(ray.data.from_pandas(a), ray.data.from_pandas(b),
                              "head", 1, CFG)) == _brute(a, b, 1)


@pytest.mark.parametrize("side", ["A", "B"])
def test_edit_join_rejects_duplicate_ids(ray_session, side):
    """A duplicated id on either table fails loudly, naming the id — not
    through a downstream reindex error, and not only when the id happens to
    land in a surviving candidate."""
    a = pd.DataFrame({"conv_id": ["a1", "a2", "a3"], "head": ["xx", "yy", "zz"]})
    b = pd.DataFrame({"conv_id": ["b1", "b2", "b3"], "head": ["qq", "rr", "ss"]})
    dup = a if side == "A" else b
    dup.loc[2, "conv_id"] = dup.loc[0, "conv_id"]
    with pytest.raises(ValueError, match=f"{dup.loc[0, 'conv_id']}.*table {side}"):
        edit_rs_join(ray.data.from_pandas(a), ray.data.from_pandas(b), "head", 1, CFG)
    if side == "A":
        with pytest.raises(ValueError, match="'a1'.*table A"):
            edit_self_join(ray.data.from_pandas(a), "head", 1, CFG)
