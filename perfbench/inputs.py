"""Seeded benchmark inputs, cached per (size, seed) inside the benchmark.

``fixtures.generate(n_convs, seed)`` makes the transcript table and its
planted gold pairs.  Its turns per conversation are Zipf-distributed, so the
turn count of a fixed number of conversations swings by 20% from seed to
seed.  This module therefore fixes the size in turns: it takes whole
entities (every variant of one planted conversation) in generation order
while they fit, until exactly ``n_turns`` turns are taken, so every planted
gold pair stays complete.  It writes, under
``perfbench/.cache/t<n_turns>-s<seed>/``:

- ``transcripts.parquet``: every turn (the ER workload's input);
- ``a.parquet`` / ``b.parquet``: the turns of even / odd conv ids (the RS
  workload's two tables);
- ``gold.parquet``: gold pairs ``id1 < id2``;
- ``gold_ab.parquet``: the gold pairs that cross A and B, as ``(id1 in A,
  id2 in B)``, the orientation the RS joins emit;
- ``meta.json``: sizes in conversations and turns.

Generation is untimed.  A directory is written to a temporary name and
renamed, so a cache entry is either complete or absent.
"""

from __future__ import annotations

import json
import os
import shutil

import numpy as np
import pandas as pd
import pyarrow as pa
import pyarrow.parquet as pq

CACHE = os.path.join(os.path.dirname(os.path.abspath(__file__)), ".cache")


def conv_parity(ids) -> np.ndarray:
    """0 for even conv numbers (table A), 1 for odd (table B)."""
    return np.array([int(c[4:]) % 2 for c in ids], dtype=np.int64)


def _write(df: pd.DataFrame, path: str) -> None:
    tbl = pa.Table.from_pandas(df, preserve_index=False)
    pq.write_table(tbl.replace_schema_metadata(None), path)


def _entities_to_turns(n_turns: int, seed: int):
    """Transcripts and gold pairs of whole entities totalling ``n_turns``
    turns (or the closest total below it)."""
    from entityblockingbysimilarityjoins_ray.fixtures import generate

    n_convs = n_turns // 10  # conversations average 13-17 turns
    while True:
        tdf, gold, clusters = generate(n_convs, seed)
        if len(tdf) >= n_turns:
            break
        n_convs *= 2
    entity = clusters.set_index("conv_id")["entity_id"]
    per_entity = tdf["conv_id"].map(entity).value_counts().sort_index()
    keep, total = [], 0
    for eid, t in per_entity.items():
        if total + t <= n_turns:
            keep.append(eid)
            total += t
            if total == n_turns:
                break
    convs = set(clusters.loc[clusters["entity_id"].isin(keep), "conv_id"])
    tdf = tdf[tdf["conv_id"].isin(convs)].reset_index(drop=True)
    gold = gold[gold["id1"].isin(convs) & gold["id2"].isin(convs)].reset_index(drop=True)
    return tdf, gold


def build(n_turns: int, seed: int) -> dict:
    """Paths and sizes of the (n_turns, seed) input, generating it once."""
    d = os.path.join(CACHE, f"t{n_turns}-s{seed}")
    meta_path = os.path.join(d, "meta.json")
    if not os.path.exists(meta_path):
        tdf, gold = _entities_to_turns(n_turns, seed)
        tmp = f"{d}.tmp{os.getpid()}"
        shutil.rmtree(tmp, ignore_errors=True)
        os.makedirs(tmp)
        par = conv_parity(tdf["conv_id"])
        _write(tdf, os.path.join(tmp, "transcripts.parquet"))
        _write(tdf[par == 0].reset_index(drop=True), os.path.join(tmp, "a.parquet"))
        _write(tdf[par == 1].reset_index(drop=True), os.path.join(tmp, "b.parquet"))
        _write(gold, os.path.join(tmp, "gold.parquet"))
        p1, p2 = conv_parity(gold["id1"]), conv_parity(gold["id2"])
        cross = gold[p1 != p2]
        a_first = conv_parity(cross["id1"]) == 0
        gold_ab = pd.DataFrame({
            "id1": np.where(a_first, cross["id1"], cross["id2"]),
            "id2": np.where(a_first, cross["id2"], cross["id1"]),
        })
        _write(gold_ab, os.path.join(tmp, "gold_ab.parquet"))
        meta = {
            "n_convs": int(tdf["conv_id"].nunique()),
            "n_turns": int(len(tdf)),
            "n_turns_a": int((par == 0).sum()),
            "n_turns_b": int((par == 1).sum()),
            "n_gold": int(len(gold)),
            "n_gold_ab": int(len(gold_ab)),
            "seed": seed,
        }
        with open(os.path.join(tmp, "meta.json"), "w") as f:
            json.dump(meta, f)
        try:
            os.rename(tmp, d)
        except OSError:
            shutil.rmtree(tmp, ignore_errors=True)
            if not os.path.exists(meta_path):
                raise
    with open(meta_path) as f:
        meta = json.load(f)
    return {
        **meta,
        "dir": d,
        **{k: os.path.join(d, f"{k}.parquet")
           for k in ("transcripts", "a", "b", "gold", "gold_ab")},
    }
