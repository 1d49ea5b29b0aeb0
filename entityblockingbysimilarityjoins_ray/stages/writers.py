"""Result writers: mean-imputed top-K feature vectors, pos/neg match
results (+ stat manifest), Megallen-style sample results.

Reference analogues (CSV there, partitioned Parquet here — the repo's
storage format; every writer emits a DIRECTORY of part files plus a JSON
manifest, so a failed run resumes by skipping complete outputs):

- writeTopKFeatureVectors (/root/reference/cpp/feature/feature.cc:79-129):
  per-feature column means over non-NaN values, NaN -> column mean.
- match-result writer (/root/reference/simjoin_entitymatching/matcher/
  random_forest.py:694-706,769-779): predictions split into positive /
  negative tables, each row enriched with BOTH sides' attribute values
  (ltable_/rtable_ columns); ``stat.txt`` records (total_table, n_matches).
- writeSampleResMegallenCSV (/root/reference/cpp/common/io.h:175-177):
  labeled sample pairs with both sides' values, ``_id,ltable_id,rtable_id``
  leading columns.
"""

from __future__ import annotations

import json
import os

import numpy as np
import pandas as pd
import pyarrow as pa
import ray
import ray.data

from ..functions.hashing import get_broadcast


def feature_column_means(feats: "ray.data.Dataset", cols: list[str]) -> dict[str, float]:
    """Per-column mean over non-NaN values — ONE distributed pass of partial
    (sum, count) per block + a tiny driver combine (feature.cc:93-108)."""
    def partial(t: pa.Table) -> pa.Table:
        sums, cnts = [], []
        for c in cols:
            v = np.asarray(t.column(c), dtype=np.float64)
            okv = v[~np.isnan(v)]
            sums.append(float(okv.sum()))
            cnts.append(int(okv.size))
        return pa.table({"col": pa.array(cols, pa.string()),
                         "s": pa.array(sums, pa.float64()),
                         "n": pa.array(cnts, pa.int64())})

    parts = feats.map_batches(partial, batch_format="pyarrow").to_pandas()
    agg = parts.groupby("col", sort=False).sum()
    return {c: (agg.loc[c, "s"] / agg.loc[c, "n"]) if agg.loc[c, "n"] else 0.0
            for c in cols}


def write_topk_features(
    feats: "ray.data.Dataset", out_dir: str, *, cols: list[str] | None = None,
) -> dict:
    """Mean-imputed feature-vector writer (writeTopKFeatureVectors).

    NaN cells (empty-side pairs) are replaced by the feature's global mean;
    output is a Parquet directory + manifest with the imputation means."""
    if cols is None:
        cols = [c for c in feats.schema().names if c not in ("id1", "id2")]
    means = feature_column_means(feats, cols)
    ref = ray.put(means)

    def impute(t: pa.Table) -> pa.Table:
        m = get_broadcast(ref)
        arrays, names = [], []
        for c in t.column_names:
            if c in m:
                v = np.asarray(t.column(c), dtype=np.float64)
                v = np.where(np.isnan(v), m[c], v)
                arrays.append(pa.array(v, pa.float64()))
            else:
                arrays.append(t.column(c))
            names.append(c)
        return pa.table(dict(zip(names, arrays)))

    os.makedirs(out_dir, exist_ok=True)
    feats.map_batches(impute, batch_format="pyarrow").write_parquet(out_dir)
    man = {"means": {k: float(v) for k, v in means.items()}, "columns": cols}
    with open(os.path.join(out_dir, "_IMPUTE.json"), "w") as f:
        json.dump(man, f, indent=1)
    return man


def enrich_pairs(
    pairs: "ray.data.Dataset", docs: "ray.data.Dataset", attrs: list[str],
    *, num_partitions: int = 32, broadcast_limit: int = 2_000_000,
    n_records: int | None = None,
) -> "ray.data.Dataset":
    """Attach ltable_/rtable_ attribute values to pairs through
    ``joins.attach_pairs`` (never a full-corpus driver collect beyond its
    gate).  Output: every pair column, then ``ltable_a, rtable_a`` per attr
    in ``attrs`` order, in the docs' dtypes; a pair with an unknown id is
    dropped (inner-join semantics, as the Megallen SQL)."""
    from .joins import PairKernel, attach_pairs

    attrs = list(dict.fromkeys(attrs))

    def apply(tbl: pa.Table, t: pa.Table, r1: np.ndarray, r2: np.ndarray) -> pa.Table:
        ok = (r1 >= 0) & (r2 >= 0)
        t = t.filter(pa.array(ok))
        for a in attrs:
            for side, r in (("l", r1[ok]), ("r", r2[ok])):
                t = t.append_column(f"{side}table_{a}", tbl.column(a).take(pa.array(r)))
        return t

    return attach_pairs(
        pairs, docs.select_columns(["conv_id"] + attrs), PairKernel(lambda tbl: tbl, apply),
        broadcast_limit=broadcast_limit,
        n_records=n_records if n_records is not None else docs.count(),
        num_partitions=num_partitions)


def write_match_results(
    pred: "ray.data.Dataset", docs: "ray.data.Dataset", attrs: list[str],
    out_dir: str, *, label_col: str = "label", num_partitions: int = 32,
    n_records: int | None = None,
) -> dict:
    """Split predictions into positive / negative tables enriched with both
    sides' values; write match_res/ + neg_match_res/ + stat.json
    (random_forest.py:694-706,769-779 layout, tottable = doc count)."""
    enriched = enrich_pairs(pred, docs, attrs, num_partitions=num_partitions,
                            n_records=n_records).materialize()
    pos = enriched.filter(expr=f"{label_col} == 1")
    neg = enriched.filter(expr=f"{label_col} == 0")
    pos_dir = os.path.join(out_dir, "match_res")
    neg_dir = os.path.join(out_dir, "neg_match_res")
    # write_parquet skips directory creation for 0-row datasets — make both
    # exist so downstream readers never hit a missing path
    os.makedirs(pos_dir, exist_ok=True)
    os.makedirs(neg_dir, exist_ok=True)
    pos.write_parquet(pos_dir)
    neg.write_parquet(neg_dir)
    n_pos = pos.count()
    stat = {
        "total_table": int(n_records if n_records is not None else docs.count()),
        "n_matches": int(n_pos),
        "n_negative": int(neg.count()),
    }
    with open(os.path.join(out_dir, "stat.json"), "w") as f:
        json.dump(stat, f, indent=1)
    return stat


def write_sample_res(
    sample: pd.DataFrame, docs: "ray.data.Dataset", attrs: list[str], path: str,
) -> pd.DataFrame:
    """Megallen-style labeled sample writer (writeSampleResMegallenCSV):
    ``_id, ltable_id, rtable_id, ltable_*, rtable_*, label``.  The sample is
    driver-sized by construction; values come from the pair-sample join."""
    from .density import pair_sample_values

    out = pair_sample_values(sample[["id1", "id2"]], docs, attrs)
    out = out.merge(sample, on=["id1", "id2"])
    out.insert(0, "_id", np.arange(len(out), dtype=np.int64))
    out = out.rename(columns={"id1": "ltable_id", "id2": "rtable_id"})
    lead = ["_id", "ltable_id", "rtable_id"]
    rest = [c for c in out.columns if c not in lead]
    out = out[lead + rest]
    os.makedirs(os.path.dirname(path) or ".", exist_ok=True)
    out.to_parquet(path, index=False)
    return out
