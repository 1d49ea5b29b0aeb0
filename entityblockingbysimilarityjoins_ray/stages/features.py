"""Per-pair feature-vector extraction (the matcher's input).

Rebuilds the reference's declarative feature generation — the cross product
{attrs} x {sim funcs} x {tokenizers} filtered by attribute type
(/root/reference/simjoin_entitymatching/feature/feature_base.py:30-34,142-...;
C++ fast path /root/reference/cpp/feature/cal_feature.cc:300-517) — as ONE
``joins.attach_pairs`` kernel over candidate-pair batches: its state holds
every needed token column / raw attribute of the records, and each feature
is a vectorized kernel over the whole batch.

Feature naming follows the reference grammar ``attr_sim_tok``
(graph.py:296-302), e.g. ``doc_jac_dlm``, ``head_lev_none``.

NaN convention: the reference emits a NaN sentinel when a side is empty
(feature_utils.cc:8,51 -> -19260817.0 in CSV); we keep real NaN in Arrow and
fill at training time (random_forest.py:178-192 fix_null analogue).
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np
import pandas as pd
import pyarrow as pa
import ray
import ray.data

from ..functions import sims as S
from ..functions.hashing import get_broadcast
from .joins import PairKernel, attach_pairs


@dataclass(frozen=True)
class FeatureSpec:
    attr: str = "doc"
    sim: str = "jac"  # jac cos dice overlap ovlpcoeff lev exm anm jw me
    tok: str = "dlm"  # ignored for lev/exm/anm/jw/me
    q: int = 3

    @property
    def name(self) -> str:
        tokpart = f"{self.tok}{self.q}" if self.tok == "qgm" else (
            "none" if self.sim in ("lev", "exm", "anm", "jw", "me") else self.tok
        )
        return f"{self.attr}_{self.sim}_{tokpart}"


DEFAULT_FEATURES = (
    FeatureSpec("doc", "jac", "dlm"),
    FeatureSpec("doc", "cos", "dlm"),
    FeatureSpec("doc", "dice", "dlm"),
    FeatureSpec("doc", "ovlpcoeff", "dlm"),
    FeatureSpec("doc", "jac", "qgm", 3),
    FeatureSpec("head", "jac", "dlm"),
    FeatureSpec("head", "cos", "qgm", 3),
    FeatureSpec("head", "lev", "none"),
    FeatureSpec("head", "exm", "none"),
    FeatureSpec("n_turns", "anm", "none"),
)


def _needed(specs):
    needed_tok = {(s.attr, s.tok, s.q) for s in specs
                  if s.sim in ("jac", "cos", "dice", "overlap", "ovlpcoeff")}
    needed_raw = {s.attr for s in specs if s.sim in ("lev", "exm", "anm", "jw", "me")}
    return needed_tok, needed_raw


def _tok_col(attr, tok, q):
    return f"t_{attr}_{tok}{q}"


def _feature_columns(t: pa.Table, specs) -> pa.Table:
    """Distributed per-doc feature-input columns: one tokenized list column
    per needed (attr, tok, q) + raw columns — the scale-safe replacement for
    driver-side corpus tokenization."""
    import pyarrow.compute as pc

    from ..functions.tokenize import tokens_list_array

    needed_tok, needed_raw = _needed(specs)
    out = {"conv_id": t.column("conv_id")}
    for attr, tok, q in sorted(needed_tok):
        col = pc.fill_null(pc.cast(t.column(attr), pa.string()), "")
        out[_tok_col(attr, tok, q)] = tokens_list_array(col, tok, q)
    for attr in sorted(needed_raw):
        out[f"r_{attr}"] = t.column(attr)
    return pa.table(out)


def _build_state(tbl: pa.Table, specs) -> dict:
    """Per-record feature state from a feature-column table: token hashes
    relabeled ONCE to a dense [0, m) space per column so the per-pair
    overlap kernel is a single fused-int binary search (no per-batch
    np.unique)."""
    state: dict = {}
    needed_tok, needed_raw = _needed(specs)
    for attr, tok, q in needed_tok:
        vals, offs = S.flatten_lists(tbl.column(_tok_col(attr, tok, q)))
        uni = np.unique(vals)
        labels = np.searchsorted(uni, vals).astype(np.int64)
        state[("toks", attr, tok, q)] = (labels, offs, int(uni.size) + 1)
    for attr in needed_raw:
        state[("raw", attr)] = np.asarray(
            tbl.column(f"r_{attr}").to_numpy(zero_copy_only=False), dtype=object
        )
    return state


def _feature_kernel(specs, load_specs=None) -> PairKernel:
    """The attach_pairs kernel of extract_features: state from the records'
    feature columns (``load_specs``, default ``specs``), output {id1, id2,
    one float64 column per spec}; pairs with an unknown id are dropped.

    Reference analogue: extractFeatures4Matching per chunk table
    (the reference's cpp/feature/feature.cc:242-334)."""
    specs = list(specs)

    def apply(state, pt: pa.Table, r1: np.ndarray, r2: np.ndarray) -> pa.Table:
        ok = (r1 >= 0) & (r2 >= 0)
        out = pt.select(["id1", "id2"]).filter(pa.array(ok))
        feats = (_features_from_rows(state, r1[ok], r2[ok], specs) if ok.any()
                 else {s.name: [] for s in specs})
        for name, f in feats.items():
            out = out.append_column(name, pa.array(f, pa.float64()))
        return out

    return PairKernel(lambda tbl: _build_state(tbl, load_specs or specs), apply)


def _features_from_rows(state: dict, r1: np.ndarray, r2: np.ndarray,
                        specs) -> dict:
    """The per-pair feature kernels over resolved state rows — shared by
    _feature_kernel and semantic_graph.features_from_value_pairs."""
    out: dict = {}
    # several specs usually share one (attr, tok, q) tokenization (jac/cos/
    # dice/ovlpcoeff over the same column) — compute the per-pair overlap
    # ONCE per tokenization, not once per spec (it dominates the kernel)
    ovlp_cache: dict = {}
    for s in specs:
        if s.sim in ("jac", "cos", "dice", "overlap", "ovlpcoeff"):
            from .verify import overlap_auto

            key = (s.attr, s.tok, s.q)
            if key not in ovlp_cache:
                vals, offs, m = state[("toks", *key)]
                lens = np.diff(offs)
                ovlp_cache[key] = (overlap_auto(vals, offs, m, r1, r2),
                                   lens[r1], lens[r2])
            ovlp, la, lb = ovlp_cache[key]
            f = S.set_sims_from_overlap(ovlp, la, lb, s.sim)
            # NaN when either side empty (reference feature_utils.cc:8,51)
            f = np.where((la == 0) | (lb == 0), np.nan, f)
        elif s.sim == "lev":
            raw = state[("raw", s.attr)]
            a, b = raw[r1], raw[r2]
            d = S.lev_dist_batch(a, b).astype(np.float64)
            la = np.array([len(str(x)) for x in a], dtype=np.float64)
            lb = np.array([len(str(x)) for x in b], dtype=np.float64)
            mx = np.maximum(la, lb)
            f = np.where(mx > 0, 1.0 - d / np.maximum(mx, 1.0), 1.0)  # levSim
        elif s.sim == "exm":
            raw = state[("raw", s.attr)]
            f = (pd.Series(raw[r1]).astype(str).to_numpy() == pd.Series(raw[r2]).astype(str).to_numpy()).astype(np.float64)
        elif s.sim == "anm":
            raw = state[("raw", s.attr)]
            f = S.absolute_norm_batch(raw[r1], raw[r2])
        elif s.sim == "jw":
            raw = state[("raw", s.attr)]
            f = S.jaro_winkler_batch(raw[r1], raw[r2])
        elif s.sim == "me":
            raw = state[("raw", s.attr)]
            f = S.monge_elkan_batch(raw[r1], raw[r2])
        else:
            raise ValueError(s.sim)
        out[s.name] = f
    return out


def extract_features(
    pairs: "ray.data.Dataset",
    docs: "ray.data.Dataset",
    specs=DEFAULT_FEATURES,
    *,
    batch_size: int = 4096,
    broadcast: bool | None = None,
    broadcast_limit: int = 2_000_000,
    n_records: int | None = None,
    num_partitions: int = 64,
) -> "ray.data.Dataset":
    """Candidate pairs {id1,id2,...} -> feature vectors {id1,id2,f...}.

    Feature-input columns (tokenized lists + raw attrs) are computed
    DISTRIBUTED in one pass over the docs; they reach the per-pair kernels
    through ``joins.attach_pairs`` — a broadcast state under its gate, its
    demand join beyond (no full-corpus driver materialization)."""
    slow = [s.name for s in specs if s.sim in ("jw", "me")]
    if slow:
        import logging

        # jaro_winkler_batch / monge_elkan_batch are per-pair Python kernels
        # (the reference's are per-pair C++, sim_func.cc) — fine as
        # post-matcher features on bounded pair sets, but on a large
        # candidate set they dominate the feature stage
        logging.getLogger(__name__).warning(
            "extract_features: %s use per-pair (non-vectorized) kernels — "
            "expect them to dominate feature time on large candidate sets; "
            "prefer set-sim features for blocking-scale inputs", slow)
    cols = sorted({"conv_id"} | {s.attr for s in specs})
    feat_cols = docs.select_columns(cols).map_batches(
        _feature_columns, fn_kwargs={"specs": list(specs)}, batch_format="pyarrow"
    )
    if broadcast is None and n_records is None:
        n_records = docs.count()
    return attach_pairs(
        pairs.select_columns(["id1", "id2"]), feat_cols, _feature_kernel(specs),
        broadcast_limit=broadcast_limit, n_records=n_records,
        broadcast=broadcast, num_partitions=num_partitions, batch_size=batch_size)


# ---------------------------------------------------------------------------
# attribute-type inference -> declarative feature cross-product
# ---------------------------------------------------------------------------

ATTR_TYPES = ("boolean", "numeric", "str_eq_1w", "str_bt_1w_5w",
              "str_bt_5w_10w", "str_gt_10w")


def infer_attr_types(docs: "ray.data.Dataset", attrs: list[str]) -> dict[str, str]:
    """Infer each attribute's Magellan-style type from the data — ONE
    distributed pass of per-block partials (numeric-parse flag, word-count
    sum, row count) + a tiny driver combine.

    Types and word-count bands follow the py_entitymatching convention the
    reference builds on (/root/reference/simjoin_entitymatching/feature/
    feature_base.py:88-112 via au.get_attr_types; Falcon SIGMOD'17 appendix):
    avg whitespace-token count <= 1 -> str_eq_1w, <= 5 -> str_bt_1w_5w,
    <= 10 -> str_bt_5w_10w, else str_gt_10w; numeric / boolean dtypes map to
    their own types."""
    import pyarrow.compute as pc

    def partial(t: pa.Table) -> pa.Table:
        rows = []
        for a in attrs:
            col = t.column(a)
            is_bool = pa.types.is_boolean(col.type)
            is_num = pa.types.is_integer(col.type) or pa.types.is_floating(col.type)
            if is_bool or is_num:
                rows.append((a, int(is_bool), int(is_num), 0.0, t.num_rows))
                continue
            s = pc.fill_null(pc.cast(col, pa.string()), "")
            words = pc.list_value_length(pc.split_pattern_regex(s, pattern=r"\s+"))
            nonnull = pc.sum(words).as_py() or 0
            rows.append((a, 0, 0, float(nonnull), t.num_rows))
        arr = list(zip(*rows))
        return pa.table({"attr": pa.array(arr[0], pa.string()),
                         "is_bool": pa.array(arr[1], pa.int64()),
                         "is_num": pa.array(arr[2], pa.int64()),
                         "words": pa.array(arr[3], pa.float64()),
                         "n": pa.array(arr[4], pa.int64())})

    parts = docs.select_columns(attrs).map_batches(partial, batch_format="pyarrow").to_pandas()
    agg = parts.groupby("attr", sort=False).agg(
        is_bool=("is_bool", "max"), is_num=("is_num", "max"),
        words=("words", "sum"), n=("n", "sum"))
    out = {}
    for a in attrs:
        r = agg.loc[a]
        if r["is_bool"]:
            out[a] = "boolean"
        elif r["is_num"]:
            out[a] = "numeric"
        else:
            avg = r["words"] / max(r["n"], 1)
            out[a] = ("str_eq_1w" if avg <= 1 else "str_bt_1w_5w" if avg <= 5
                      else "str_bt_5w_10w" if avg <= 10 else "str_gt_10w")
    return out


def features_for_types(attr_types: dict[str, str]) -> tuple:
    """Type-driven feature cross-product (the reference's per-type feature
    counts, /root/reference/cpp/feature/feature_index.cc:332-344: long /
    medium-long text 4, one-word 6, short phrase 8):

    - boolean           -> exm                                     (1)
    - numeric           -> exm, anm                                (2)
    - str_eq_1w         -> lev, exm, jac/cos qgm3, jac/cos dlm     (6)
    - str_bt_1w_5w      -> jac/cos/dice/ovlpcoeff x {dlm, qgm3}    (8)
    - str_bt_5w_10w     -> jac/cos/dice/ovlpcoeff dlm              (4)
    - str_gt_10w        -> jac/cos/dice/ovlpcoeff dlm              (4)
    """
    specs: list[FeatureSpec] = []
    for a, ty in attr_types.items():
        if ty == "boolean":
            specs.append(FeatureSpec(a, "exm", "none"))
        elif ty == "numeric":
            specs += [FeatureSpec(a, "exm", "none"), FeatureSpec(a, "anm", "none")]
        elif ty == "str_eq_1w":
            specs += [FeatureSpec(a, "lev", "none"), FeatureSpec(a, "exm", "none"),
                      FeatureSpec(a, "jac", "qgm", 3), FeatureSpec(a, "cos", "qgm", 3),
                      FeatureSpec(a, "jac", "dlm"), FeatureSpec(a, "cos", "dlm")]
        elif ty == "str_bt_1w_5w":
            for tok, q in (("dlm", 3), ("qgm", 3)):
                for sim in ("jac", "cos", "dice", "ovlpcoeff"):
                    specs.append(FeatureSpec(a, sim, tok, q))
        elif ty in ("str_bt_5w_10w", "str_gt_10w"):
            for sim in ("jac", "cos", "dice", "ovlpcoeff"):
                specs.append(FeatureSpec(a, sim, "dlm"))
        else:
            raise ValueError(f"unknown attr type {ty!r} for {a!r}")
    return tuple(specs)


def generate_features(docs: "ray.data.Dataset", attrs: list[str]) -> tuple:
    """Declarative feature generation: infer types, emit the cross-product
    (get_supported_features_for_matching semantics, feature_base.py:142-...)."""
    return features_for_types(infer_attr_types(docs, attrs))


# ---------------------------------------------------------------------------
# interchangeable-value (IC) max-over-group feature extraction
# ---------------------------------------------------------------------------


def _ic_state(groups_pd, specs, attr):
    """Broadcast IC state: val -> cluster id, plus per-cluster member token
    sets / raw strings (FeatureIndex::GroupTokens, feature_index.cc:347-...).
    Only non-singleton groups matter — singleton values fall through to the
    plain kernel."""
    from ..functions.tokenize import oracle_tokens

    reps = groups_pd.groupby("group_rep", sort=False)
    cltid_of: dict = {}
    members: list = []
    for gi, (_, grp) in enumerate(reps):
        vals = grp["val"].tolist()
        if len(vals) < 2:
            continue
        gid = len(members)
        for v in vals:
            cltid_of[v] = gid
        ent = {"raw": vals}
        for s in specs:
            if s.sim in ("jac", "cos", "dice", "overlap", "ovlpcoeff"):
                key = (s.tok, s.q)
                if key not in ent:
                    ent[key] = [set(oracle_tokens(v, s.tok, s.q)) for v in vals]
        members.append(ent)
    return {"cltid": cltid_of, "groups": members}


def _ic_scalar_sim(spec, a, b, ta, tb):
    """Scalar sim for the member loops (sims.py oracles; the reference's own
    group loop is per-member scalar too, cal_feature.cc:42-47,129-135)."""
    from ..functions import sims as S

    if spec.sim == "jac":
        return S.jaccard(ta, tb)
    if spec.sim == "cos":
        return S.cosine(ta, tb)
    if spec.sim == "dice":
        return S.dice(ta, tb)
    if spec.sim == "ovlpcoeff":
        return S.overlap_coeff(ta, tb)
    if spec.sim == "overlap":
        return float(S.overlap(ta, tb))
    if spec.sim == "lev":
        return S.lev_sim(str(a), str(b)) if (a or b) else 1.0
    if spec.sim == "exm":
        return 1.0 if str(a) == str(b) else 0.0
    if spec.sim == "anm":
        return S.absolute_norm(str(a), str(b))
    raise ValueError(spec.sim)


def _apply_ic_max(batch_out, specs, attr, ic, raw1, raw2):
    """Overwrite feature columns for pairs whose attr value is in an IC
    group: same group -> 1.0 (overlap: max member set size); different /
    one-sided -> max(base, member cross-product sims)
    (calDoubleSideFeatures / calOneSideFeatures, cal_feature.cc:36-141)."""
    from ..functions.tokenize import oracle_tokens

    cltid = ic["cltid"]
    grps = ic["groups"]
    g1 = np.array([cltid.get(str(v), -1) for v in raw1], np.int64)
    g2 = np.array([cltid.get(str(v), -1) for v in raw2], np.int64)
    touched = np.flatnonzero((g1 >= 0) | (g2 >= 0))
    if touched.size == 0:
        return batch_out
    for s in specs:
        if s.attr != attr:
            continue
        col = np.asarray(batch_out[s.name], np.float64).copy()
        needs_tok = s.sim in ("jac", "cos", "dice", "overlap", "ovlpcoeff")
        for i in touched:
            a, b = str(raw1[i]), str(raw2[i])
            ga, gb = g1[i], g2[i]
            if ga >= 0 and ga == gb:
                if s.sim == "overlap":
                    col[i] = float(max(len(t) for t in grps[ga][(s.tok, s.q)]))
                else:
                    col[i] = 1.0
                continue
            if needs_tok:
                ta = set(oracle_tokens(a, s.tok, s.q))
                tb = set(oracle_tokens(b, s.tok, s.q))
            else:
                ta = tb = None
            best = _ic_scalar_sim(s, a, b, ta, tb)
            la = grps[ga][(s.tok, s.q)] if (ga >= 0 and needs_tok) else ([ta] if needs_tok else None)
            ra = grps[ga]["raw"] if ga >= 0 else [a]
            lb = grps[gb][(s.tok, s.q)] if (gb >= 0 and needs_tok) else ([tb] if needs_tok else None)
            rb = grps[gb]["raw"] if gb >= 0 else [b]
            for ja, va in enumerate(ra):
                for jb, vb in enumerate(rb):
                    sa = la[ja] if needs_tok else None
                    sb = lb[jb] if needs_tok else None
                    best = max(best, _ic_scalar_sim(s, va, vb, sa, sb))
            col[i] = best
        batch_out[s.name] = pa.array(col, pa.float64())
    return batch_out


def extract_features_ic(
    pairs: "ray.data.Dataset",
    docs: "ray.data.Dataset",
    groups: "ray.data.Dataset | pd.DataFrame",
    attr: str,
    specs=DEFAULT_FEATURES,
    *,
    batch_size: int = 4096,
    broadcast: bool | None = None,
    broadcast_limit: int = 2_000_000,
    n_records: int | None = None,
    num_partitions: int = 64,
) -> "ray.data.Dataset":
    """Feature extraction with interchangeable-value semantics on ``attr``:
    features over ``attr`` take the MAX similarity across the IC-group
    members of each side's value (same group -> 1.0), mirroring the
    reference's group-aware feature path (cal_feature.cc calAll ->
    calDoubleSideFeatures/calOneSideFeatures; groups from
    stages/interchangeable.group_values).

    The group table is vocabulary-sized, broadcast once per worker; grouped
    pairs get a bounded per-member loop (reference does the same scalar
    member loop, cal_feature.cc:42-47 — dense IC groups make it quadratic in
    group size, bounded to IC-touched pairs only), non-grouped pairs stay on
    the vectorized kernel.  The IC overwrite wraps extract_features' kernel
    in the same ``joins.attach_pairs``, so corpora beyond
    ``broadcast_limit`` take its demand join instead of a driver collect."""
    gpd = groups if isinstance(groups, pd.DataFrame) else groups.to_pandas()
    specs = list(specs)
    if not any(s.attr == attr and s.sim in ("lev", "exm", "anm", "jw", "me") for s in specs):
        # ensure raw strings of attr reach the per-pair kernel
        probe = [FeatureSpec(attr, "exm", "none")]
    else:
        probe = []
    ic_ref = ray.put(_ic_state(gpd, specs, attr))
    feat_cols = (
        docs.select_columns(sorted({"conv_id", attr} | {s.attr for s in specs}))
        .map_batches(_feature_columns, fn_kwargs={"specs": specs + probe},
                     batch_format="pyarrow")
    )
    base = _feature_kernel(specs, specs + probe)

    def apply(state, pt: pa.Table, r1: np.ndarray, r2: np.ndarray) -> pa.Table:
        out = base.apply(state, pt, r1, r2)
        if out.num_rows == 0:
            return out
        ok = (r1 >= 0) & (r2 >= 0)
        raw = state[("raw", attr)]
        cols = {c: out.column(c) for c in out.column_names}
        cols = _apply_ic_max(cols, specs, attr, get_broadcast(ic_ref),
                             raw[r1[ok]], raw[r2[ok]])
        return pa.table(cols)

    if broadcast is None and n_records is None:
        n_records = docs.count()
    return attach_pairs(
        pairs.select_columns(["id1", "id2"]), feat_cols, PairKernel(base.load, apply),
        broadcast_limit=broadcast_limit, n_records=n_records,
        broadcast=broadcast, num_partitions=num_partitions, batch_size=batch_size)
