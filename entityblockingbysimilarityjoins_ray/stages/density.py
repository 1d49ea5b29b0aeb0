"""Per-rule F1 weight estimation + all-similarity-score top-K.

Reference semantics:
- ``estimateDensity`` (/root/reference/cpp/blocker/simjoin_blocker.cc:383-650):
  over a LABELED pair sample, each rule's predicate is evaluated on the
  sample; recall = hit/totalPositive, precision = hit/(predict+missing)
  (missing = empty-side pairs), weight = F1.  The per-attr average of rule
  weights is also reported.
- ``topKviaAllSimilarityScoreSelf`` (/root/reference/cpp/topk/topk.cc:1297-1460,
  declared topk.h:162-191): normalize the rule weights to sum 1, score every
  candidate pair score = sum_r sim_r * w_r (empty sides contribute 0), keep
  the global top-K.

Ray-native: the sample is driver-sized by construction (the reference caps
at 100k rows), so density estimation is one vectorized local pass per rule
over the sample's paired values; the all-score top-K reuses the
feature-extraction kernels (broadcast doc state, one actor-pool pass) and
the distributed partial-heap top-K — no driver-side sort.
"""

from __future__ import annotations

import numpy as np
import pandas as pd
import pyarrow as pa
import ray
import ray.data

from ..config import BlockingRule
from ..functions import sims as S


def _rule_sims(sample: pd.DataFrame, rule: BlockingRule, la: str, rb: str) -> tuple[np.ndarray, np.ndarray]:
    """(sim value, missing mask) of one rule over the sample's paired raw
    values (columns ``ltable_attr`` / ``rtable_attr``)."""
    a = sample[la].to_numpy(object)
    b = sample[rb].to_numpy(object)
    a_s = pd.Series(a).fillna("").astype(str).to_numpy(object)
    b_s = pd.Series(b).fillna("").astype(str).to_numpy(object)
    missing = (a_s == "") | (b_s == "")
    if rule.sim == "lev":
        val = S.lev_dist_batch(a_s, b_s).astype(np.float64)  # distance; predicate <= D
        if rule.lev_metric == "sim":
            # lev_sim rules threshold the NORMALIZED similarity
            la_n = np.array([len(x) for x in a_s], np.float64)
            lb_n = np.array([len(x) for x in b_s], np.float64)
            mx = np.maximum(la_n, lb_n)
            val = np.where(mx > 0, 1.0 - val / np.maximum(mx, 1.0), 1.0)
    elif rule.sim == "exm":
        val = (pd.Series(a_s).to_numpy() == pd.Series(b_s).to_numpy()).astype(np.float64)
    elif rule.sim == "anm":
        val = S.absolute_norm_batch(a, b)
    else:  # set sims over the rule's tokenizer
        import pyarrow as pa

        from ..functions.tokenize import tokens_list_array

        ta = tokens_list_array(pa.array(list(a_s)), rule.tok, rule.q)
        tb = tokens_list_array(pa.array(list(b_s)), rule.tok, rule.q)
        va, oa = S.flatten_lists(ta)
        vb, ob = S.flatten_lists(tb)
        ovlp = S.pair_overlap(va, oa, vb, ob)
        if rule.sim == "overlap":
            val = ovlp.astype(np.float64)
        else:
            val = S.set_sims_from_overlap(ovlp, np.diff(oa), np.diff(ob), rule.sim)
        missing = missing | (np.diff(oa) == 0) | (np.diff(ob) == 0)
    return val, missing


def _passes(val: np.ndarray, rule: BlockingRule) -> np.ndarray:
    if rule.sim == "lev":
        if rule.lev_metric == "sim":
            return val >= rule.threshold  # val already normalized levSim
        return val <= np.floor(rule.threshold + 1e-5)
    if rule.sim == "overlap":
        return val >= np.ceil(rule.threshold - 1e-5)
    return val >= rule.threshold


def estimate_density(
    sample: pd.DataFrame, rules: list[BlockingRule], *, label_col: str = "label",
) -> tuple[list[float], dict[str, float]]:
    """Per-rule F1 weights + per-attr average over a labeled pair sample.

    ``sample`` columns: ltable_<attr> / rtable_<attr> for every rule attr +
    ``label`` (1/0) — the reference's sample_res.csv layout
    (simjoin_blocker.cc:392-404)."""
    total_pos = int((sample[label_col] == 1).sum())
    n = len(sample)
    densities: list[float] = []
    attr_sum: dict[str, float] = {}
    attr_cnt: dict[str, int] = {}
    lab = sample[label_col].to_numpy()
    for r in rules:
        la, rb = f"ltable_{r.attr}", f"rtable_{r.attr}"
        val, missing = _rule_sims(sample, r, la, rb)
        ok = _passes(val, r) & ~missing
        predict = int(ok.sum())
        hit = int((ok & (lab == 1)).sum())
        n_missing = int(missing.sum())
        recall = hit / total_pos if total_pos else 0.0
        denom = predict + n_missing
        precision = 0.0 if abs(denom) <= 1e-4 else hit / denom
        f1 = 0.0 if abs(precision + recall) <= 1e-4 else (
            2 * precision * recall / (precision + recall)
        )
        densities.append(f1)
        attr_sum[r.attr] = attr_sum.get(r.attr, 0.0) + f1
        attr_cnt[r.attr] = attr_cnt.get(r.attr, 0) + 1
    attr_avg = {a: attr_sum[a] / attr_cnt[a] for a in attr_sum}
    return densities, attr_avg


def pair_sample_values(
    pairs: pd.DataFrame, docs: "ray.data.Dataset", attrs: list[str],
) -> pd.DataFrame:
    """Join a driver-sized pair sample to both sides' raw attribute values
    (-> ltable_/rtable_ columns, the sample-result layout).  The doc
    projection is collected because the SAMPLE is small — the values
    fetched are only those of sampled ids (two broadcast-free semijoins
    would also work; at sample size <= 100k the collect is the cheaper
    plan)."""
    from .verify import collect_arrow

    need = sorted(set(attrs))
    ids = pd.Index(pd.unique(pd.concat([pairs["id1"], pairs["id2"]])))

    def pick(t):
        import pyarrow as pa

        m = pd.Index(np.asarray(t.column("conv_id").to_numpy(zero_copy_only=False), dtype=object)).isin(ids)
        return t.filter(pa.array(m))

    tbl = collect_arrow(docs.select_columns(["conv_id"] + need).map_batches(pick, batch_format="pyarrow"))
    vals = pd.DataFrame({
        "conv_id": np.asarray(tbl.column("conv_id").to_numpy(zero_copy_only=False), dtype=object)
    })
    for a in need:
        vals[a] = np.asarray(tbl.column(a).to_numpy(zero_copy_only=False), dtype=object)
    out = pairs.merge(vals.rename(columns={"conv_id": "id1", **{a: f"ltable_{a}" for a in need}}), on="id1", how="left")
    out = out.merge(vals.rename(columns={"conv_id": "id2", **{a: f"rtable_{a}" for a in need}}), on="id2", how="left")
    return out


def allscore_topk(
    pairs: "ray.data.Dataset", docs: "ray.data.Dataset", rules: list[BlockingRule],
    weights: list[float], k: int, *, n_records: int | None = None,
    batch_size: int = 8192,
) -> pd.DataFrame:
    """Global top-K candidate pairs by the weighted all-similarity score
    (topk.cc:1297-1460): score = sum_r sim_r * (w_r / sum w), empty sides
    score 0 for that rule; deterministic ties (score desc, id1, id2).

    Distributed: per-rule sims come from the feature-extraction kernels
    (broadcast doc state, one pass), the K-selection from the partial-heap
    top-K — only ~K rows per block reach the driver."""
    from .features import FeatureSpec, extract_features
    from .topk import topk_pairs

    tot = float(sum(weights))
    w = [x / tot for x in weights] if tot else [0.0] * len(weights)
    specs, spec_names = [], []
    for r in rules:
        # topk.cc scores lev rules by levSim (not distance) and set rules by
        # their sim function; exm/anm as-is
        s = FeatureSpec(r.attr, r.sim, "none" if r.sim in ("lev", "exm", "anm") else r.tok, r.q)
        if s not in specs:
            specs.append(s)
        spec_names.append(s.name)
    feats = extract_features(pairs, docs, tuple(specs), n_records=n_records,
                             batch_size=batch_size)

    def score(df: pd.DataFrame) -> pd.DataFrame:
        sc = np.zeros(len(df), np.float64)
        for wi, name in zip(w, spec_names):
            sc += np.nan_to_num(df[name].to_numpy(np.float64)) * wi
        return pd.DataFrame({"id1": df["id1"], "id2": df["id2"], "score": sc})

    scored = feats.map_batches(score, batch_format="pandas")
    return topk_pairs(scored, k)


def allscore_topk_weighted(
    pairs: "ray.data.Dataset", docs: "ray.data.Dataset", rules: list[BlockingRule],
    weights: list[float], k: int, *, n_records: int | None = None,
    batch_size: int = 8192, round_to: int | None = None,
) -> pd.DataFrame:
    """isWeighted all-score top-K (topk.cc:1414-1460 weighted branch):
    set-sim rules score with IDF-weighted jaccard/cosine/dice/overlapCoeff
    (wordwt = log10(N/df)); lev/exm/anm score as in the unweighted variant.

    Per-(attr, tok, q) weighted token state (original hashes + wordwt table)
    is broadcast once; the K-selection is the distributed partial-heap."""
    import ray as _ray

    from .blocking import build_df_table, tokenize_docs
    from .topk import topk_pairs
    from .weighted import weighted_token_index, word_weights

    if n_records is None:
        n_records = docs.count()
    tot = float(sum(weights))
    w = [x / tot for x in weights] if tot else [0.0] * len(weights)

    set_keys = sorted({(r.attr, r.tok, r.q) for r in rules
                       if r.sim in ("jac", "cos", "dice", "overlap")})
    state_refs = {}
    for attr, tok, q in set_keys:
        toks = tokenize_docs(docs, attr, tok, q).materialize()
        state_refs[(attr, tok, q)] = (
            _ray.put(weighted_token_index(toks)),
            _ray.put(word_weights(build_df_table(toks), n_records)),
        )
    raw_attrs = sorted({r.attr for r in rules if r.sim in ("lev", "exm", "anm")})
    raw_ref = None
    if raw_attrs:
        from .verify import collect_arrow

        tbl = collect_arrow(docs.select_columns(["conv_id"] + raw_attrs))
        vdf = tbl.to_pandas().set_index("conv_id")
        raw_ref = _ray.put(vdf)

    rules_l = list(rules)

    def score(t: pa.Table) -> pa.Table:
        from ..functions.hashing import get_broadcast
        from .verify import gather_lists

        ids1 = np.asarray(t.column("id1").to_numpy(zero_copy_only=False), dtype=object)
        ids2 = np.asarray(t.column("id2").to_numpy(zero_copy_only=False), dtype=object)
        sc = np.zeros(ids1.size, np.float64)
        for wi, r in zip(w, rules_l):
            if r.sim in ("jac", "cos", "dice", "overlap"):
                toks_ref, wt_ref = state_refs[(r.attr, r.tok, r.q)]
                index, vals, offs = get_broadcast(toks_ref)
                wt_toks, wt_vals, default_wt = get_broadcast(wt_ref)
                r1 = index.get_indexer(ids1)
                r2 = index.get_indexer(ids2)
                ok = (r1 >= 0) & (r2 >= 0)
                va, oa = gather_lists(vals, offs, np.maximum(r1, 0))
                vb, ob = gather_lists(vals, offs, np.maximum(r2, 0))
                ovlp_w = S.pair_weighted_overlap(va, oa, vb, ob, wt_toks, wt_vals, default_wt)
                wa = S.record_weights(va, oa, wt_toks, wt_vals, default_wt)
                wb = S.record_weights(vb, ob, wt_toks, wt_vals, default_wt)
                sim_name = "ovlpcoeff" if r.sim == "overlap" else r.sim
                val = S.weighted_set_sims(ovlp_w, wa, wb, sim_name)
                val = np.where(ok, np.nan_to_num(val), 0.0)
            else:
                vdf = get_broadcast(raw_ref)
                a = vdf.reindex(ids1)[r.attr].to_numpy(object)
                b = vdf.reindex(ids2)[r.attr].to_numpy(object)
                a_s = pd.Series(a).fillna("").astype(str).to_numpy(object)
                b_s = pd.Series(b).fillna("").astype(str).to_numpy(object)
                empty = (a_s == "") | (b_s == "")
                if r.sim == "lev":
                    d = S.lev_dist_batch(a_s, b_s).astype(np.float64)
                    la = np.array([len(x) for x in a_s], np.float64)
                    lb = np.array([len(x) for x in b_s], np.float64)
                    mx = np.maximum(la, lb)
                    val = np.where(mx > 0, 1.0 - d / np.maximum(mx, 1.0), 1.0)
                elif r.sim == "exm":
                    val = (pd.Series(a_s).to_numpy() == pd.Series(b_s).to_numpy()).astype(np.float64)
                else:
                    val = S.absolute_norm_batch(a, b)
                val = np.where(empty, 0.0, val)
            sc += val * wi
        if round_to is not None:
            # round on BOTH engine and SQL sides so float summation order
            # cannot flip the (score, id1, id2) tie-break
            sc = np.round(sc, round_to)
        return pa.table({"id1": pa.array(ids1, pa.string()),
                         "id2": pa.array(ids2, pa.string()),
                         "score": pa.array(sc, pa.float64())})

    scored = pairs.select_columns(["id1", "id2"]).map_batches(
        score, batch_format="pyarrow", batch_size=batch_size)
    return topk_pairs(scored, k)
