"""The one pair decoder (functions.hashing.iter_pairs) and the chunk bound
it puts on every within-bucket decode."""

import itertools

import numpy as np
import pandas as pd
import pytest
import ray.data

from entityblockingbysimilarityjoins_ray.config import PipelineConfig
from entityblockingbysimilarityjoins_ray.functions import hashing
from entityblockingbysimilarityjoins_ray.functions.hashing import iter_pairs, side_runs


def _ranges(rng, n_groups, gap):
    """Random group sizes (0- and 1-row groups included) laid out with up
    to ``gap`` unused rows between groups."""
    sizes = rng.choice([0, 1, 1, 2, 3, 5, 9, 17], n_groups)
    starts = np.cumsum(rng.integers(0, gap + 1, n_groups) + np.r_[0, sizes[:-1]])
    return starts, sizes


@pytest.mark.parametrize("chunk", [1, 2, 7, 10**9])
@pytest.mark.parametrize("seed", [0, 1, 2])
def test_iter_pairs_matches_itertools(chunk, seed):
    rng = np.random.default_rng(seed)
    starts, sizes = _ranges(rng, 40, 3)
    starts_b, sizes_b = _ranges(rng, 40, 2)
    starts_b = starts_b + 1000
    tri = [p for s, n in zip(starts, sizes)
           for p in itertools.combinations(range(s, s + n), 2)]
    rect = [p for s, n, sb, nb in zip(starts, sizes, starts_b, sizes_b)
            for p in itertools.product(range(s, s + n), range(sb, sb + nb))]
    assert len(tri) > 100 and len(rect) > 100
    for exp, chunks in ((tri, list(iter_pairs(starts, sizes, chunk=chunk))),
                        (rect, list(iter_pairs(starts, sizes, starts_b, sizes_b,
                                               chunk=chunk)))):
        assert all(0 < ii.size <= chunk and ii.size == jj.size for ii, jj in chunks)
        got = [(int(i), int(j)) for ii, jj in chunks for i, j in zip(ii, jj)]
        assert got == exp


def test_iter_pairs_empty_and_side_runs():
    assert list(iter_pairs([], [], chunk=4)) == []
    assert list(iter_pairs([0, 5], [1, 0], [9, 9], [0, 3], chunk=4)) == []
    side = np.array([0, 0, 1, 1, 0, 1, 1], np.int8)
    key = np.array([3, 3, 3, 4, 5, 5, 5])
    starts, na, nb = side_runs(side, key)
    assert starts.tolist() == [0, 3, 4]
    assert na.tolist() == [2, 0, 1] and nb.tolist() == [1, 1, 2]
    assert [a.size for a in side_runs(side[:0], key[:0])] == [0, 0, 0]


# ---------------------------------------------------------------------------
# adversarial tiny chunk: every join's rows equal its default-chunk rows
# ---------------------------------------------------------------------------

GRID = PipelineConfig(num_buckets=8, pair_partitions=8, broadcast_limit=0,
                      broadcast_bytes_limit=0, verify_shards=3)


def _clique_docs():
    """A 300-record duplicate clique on ``head`` (near-duplicate docs over a
    hot vocabulary) with ``n_turns`` in one dense band, plus 60 scattered
    records."""
    rng = np.random.default_rng(11)
    n_hot, n_cold = 300, 60
    words = [f"x{i}" for i in range(6)]
    heads = ["the same head"] * n_hot + [f"head {i}" for i in rng.integers(0, 20, n_cold)]
    docs = ([f"hot0 hot1 hot2 {w}" for w in rng.choice(words, n_hot)]
            + [" ".join(rng.choice(words + ["y0", "y1", "y2"], 4)) for _ in range(n_cold)])
    turns = np.r_[rng.integers(100, 104, n_hot), rng.integers(1, 1000, n_cold)]
    return pd.DataFrame({"conv_id": [f"c{i:03d}" for i in range(n_hot + n_cold)],
                         "head": heads, "doc": docs, "n_turns": turns})


def _rows(ds):
    df = ds.to_pandas()
    cols = [c for c in ("id1", "id2", "sim") if c in df.columns]
    return sorted(zip(*(df[c].tolist() for c in cols)))


def _joins():
    from entityblockingbysimilarityjoins_ray.stages import blocking as B
    from entityblockingbysimilarityjoins_ray.stages.dedup import minhash_lsh_dedup
    from entityblockingbysimilarityjoins_ray.stages.editjoin import edit_rs_join, edit_self_join
    from entityblockingbysimilarityjoins_ray.stages.weighted import (
        setsim_rs_join_weighted, setsim_self_join_weighted)

    df = _clique_docs()
    ds = ray.data.from_pandas(df)
    a = ray.data.from_pandas(df.iloc[::2].reset_index(drop=True))
    b = ray.data.from_pandas(df.iloc[1::2].reset_index(drop=True))
    toks, toks_a, toks_b = (B.tokenize_docs(d, "doc", "dlm").materialize() for d in (ds, a, b))
    text = ray.data.from_pandas(pd.DataFrame({"doc_id": np.arange(len(df)), "text": df["doc"]}))
    return {
        "exact_self": lambda: B.exact_self_join(ds, "head", GRID),
        "exact_rs": lambda: B.exact_rs_join(a, b, "head", GRID),
        "anm_self": lambda: B.anm_self_join(ds, "n_turns", 0.8, GRID),
        "anm_rs": lambda: B.anm_rs_join(a, b, "n_turns", 0.8, GRID),
        "anm_rs_capped": lambda: B.anm_rs_join(a, b, "n_turns", 0.8, GRID,
                                               max_band_pairs=500),
        "edit_self": lambda: edit_self_join(ds, "head", 1, GRID),
        "edit_rs": lambda: edit_rs_join(a, b, "head", 1, GRID),
        "weighted_self": lambda: setsim_self_join_weighted(
            toks, sim="jac", threshold=0.5, cfg=GRID, round_to=9),
        "weighted_rs": lambda: setsim_rs_join_weighted(
            toks_a, toks_b, sim="jac", threshold=0.5, cfg=GRID, round_to=9),
        "minhash": lambda: minhash_lsh_dedup(text, threshold=0.5, num_partitions=8,
                                             broadcast_limit=0),
    }


def test_tiny_pair_chunk_keeps_rows(ray_session, monkeypatch):
    """With the pair chunk at 64 a hot key decodes in hundreds of chunks
    (the plan reads hashing.PAIR_CHUNK when built and hands it to its
    tasks); every join's rows must equal the default chunk's."""
    joins = _joins()
    default = {name: _rows(run()) for name, run in joins.items()}
    monkeypatch.setattr(hashing, "PAIR_CHUNK", 64)
    for name, run in joins.items():
        assert _rows(run()) == default[name], name
    n_clique = 300 * 299 // 2
    for name in ("exact_self", "anm_self", "edit_self"):
        assert len(default[name]) >= n_clique, name
    for name in ("exact_rs", "anm_rs", "edit_rs"):
        assert len(default[name]) >= 150 * 150, name
    assert len(default["anm_rs_capped"]) < len(default["anm_rs"])
    assert len(default["weighted_self"]) > 64 and len(default["minhash"]) > 64
