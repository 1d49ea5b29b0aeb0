"""Benchmark-side correctness checks, independent of the engine's code.

Each check returns a list of failure messages (empty when it passes).
"""

from __future__ import annotations

import hashlib

import numpy as np
import pandas as pd


def digest(df: pd.DataFrame, cols: list[str]) -> str:
    """Order-independent digest of ``df[cols]``: rows sorted, then hashed."""
    h = hashlib.sha256()
    part = df[cols].sort_values(cols, kind="stable").reset_index(drop=True)
    for c in cols:
        v = part[c].to_numpy()
        if v.dtype.kind == "f":
            h.update(np.ascontiguousarray(v, dtype=np.float64).tobytes())
        else:
            h.update("\x00".join(map(str, v)).encode())
        h.update(b"\x01")
    h.update(str(len(part)).encode())
    return h.hexdigest()[:16]


def canonical_docs(turns: pd.DataFrame, docs: pd.DataFrame, sep: str = "\n") -> list[str]:
    """Each doc equals its turns' texts joined in ``turn_idx`` order, and
    ``head`` is the first turn's text (the per-turn text-equality
    invariant)."""
    t = turns.sort_values(["conv_id", "turn_idx"], kind="stable")
    texts = t["text"].fillna("")
    want_doc = texts.groupby(t["conv_id"], sort=True).agg(sep.join)
    want_head = texts.groupby(t["conv_id"], sort=True).first()
    got = docs.set_index(docs["conv_id"].astype(str))
    errs = []
    if len(got) != len(want_doc) or set(got.index) != set(want_doc.index):
        errs.append(f"canonicalize: {len(got)} docs for {len(want_doc)} conversations")
        return errs
    got = got.loc[want_doc.index]
    bad = int((got["doc"].to_numpy(object) != want_doc.to_numpy(object)).sum())
    if bad:
        errs.append(f"canonicalize: {bad} docs differ from the turn texts in turn order")
    bad = int((got["head"].to_numpy(object) != want_head.to_numpy(object)).sum())
    if bad:
        errs.append(f"canonicalize: {bad} heads differ from the first turn's text")
    return errs


def union_find(pairs: pd.DataFrame) -> dict[str, str]:
    """Component label (smallest member id) of every id in ``pairs``."""
    parent: dict[str, str] = {}

    def root(x: str) -> str:
        parent.setdefault(x, x)
        while parent[x] != x:
            parent[x] = parent[parent[x]]
            x = parent[x]
        return x

    for a, b in zip(pairs["id1"].astype(str), pairs["id2"].astype(str)):
        ra, rb = root(a), root(b)
        if ra != rb:
            parent[max(ra, rb)] = min(ra, rb)
    return {x: root(x) for x in list(parent)}


def clusters_match_union_find(matches: pd.DataFrame, clusters: pd.DataFrame,
                              all_ids) -> list[str]:
    """Every id's cluster label equals its union-find component's smallest
    id over the matches; unmatched ids are their own cluster."""
    comp = union_find(matches)
    ids = sorted(map(str, all_ids))
    want = [comp.get(i, i) for i in ids]
    got = clusters.assign(conv_id=clusters["conv_id"].astype(str)).set_index("conv_id")
    if len(got) != len(ids) or got.index.has_duplicates:
        return [f"cluster: {len(got)} labels for {len(ids)} ids"]
    got = got["entity_id"].astype(str).reindex(ids).to_numpy(object)
    bad = int((got != np.array(want, dtype=object)).sum())
    return [f"cluster: {bad} labels differ from union-find over the matches"] if bad else []


def levenshtein_within(a: str, b: str, bound: int) -> bool:
    """Levenshtein(a, b) <= bound, by the banded dynamic program."""
    if abs(len(a) - len(b)) > bound:
        return False
    big = bound + 1  # any cell outside the band is already over the bound
    prev = [j if j <= bound else big for j in range(len(b) + 1)]
    for i in range(1, len(a) + 1):
        cur = [i if i <= bound else big] + [big] * len(b)
        for j in range(max(1, i - bound), min(len(b), i + bound) + 1):
            cur[j] = min(prev[j] + 1, cur[j - 1] + 1,
                         prev[j - 1] + (a[i - 1] != b[j - 1]), big)
        if min(cur) > bound:
            return False
        prev = cur
    return prev[-1] <= bound


def edit_pairs_within(pairs: pd.DataFrame, vals_a: dict, vals_b: dict,
                      bound: int) -> list[str]:
    bad = sum(not levenshtein_within(vals_a[a], vals_b[b], bound)
              for a, b in zip(pairs["id1"].astype(str), pairs["id2"].astype(str)))
    return [f"rs_lev: {bad} of {len(pairs)} pairs are farther than {bound} edits"] if bad else []


def prf(pred: pd.DataFrame, gold: pd.DataFrame) -> dict:
    """Precision, recall and F1 of distinct pairs ``pred`` against ``gold``."""
    p = set(zip(pred["id1"].astype(str), pred["id2"].astype(str)))
    g = set(zip(gold["id1"].astype(str), gold["id2"].astype(str)))
    tp = len(p & g)
    precision = tp / len(p) if p else 0.0
    recall = tp / len(g) if g else 0.0
    f1 = 2 * precision * recall / (precision + recall) if tp else 0.0
    return {"precision": precision, "recall": recall, "f1": f1}
