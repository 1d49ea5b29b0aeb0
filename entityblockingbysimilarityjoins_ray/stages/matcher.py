"""Match decision: threshold matcher + random-forest matcher + rule extraction.

Reference analogues:
- RF training on a labeled sample (driver-side; training sets are small by
  construction): /root/reference/simjoin_entitymatching/matcher/random_forest.py:317-475
- chunked RF prediction (one OS process per chunk) -> here an actor-pool
  ``map_batches`` over feature batches: random_forest.py:618-735
- tree-path -> blocking-rule extraction:
  /root/reference/simjoin_entitymatching/blocker/graph.py:71-139 and
  extract_formula.py:464-512 (walk root->positive-leaf paths, collect
  (feature, sign, threshold), deduplicate by signature).

sklearn is not available in this environment, so the forest is a small
self-contained numpy CART implementation (gini impurity, bootstrap bagging,
feature subsampling) — deterministic under a fixed seed.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np
import pandas as pd
import pyarrow as pa
import ray
import ray.data


# ---------------------------------------------------------------------------
# threshold matcher
# ---------------------------------------------------------------------------


def threshold_match(
    features: "ray.data.Dataset",
    *,
    score_cols: list[str],
    threshold: float,
    weights: list[float] | None = None,
) -> "ray.data.Dataset":
    """score = weighted mean of feature columns (NaN -> 0); match if >= t.

    This is the reference's 'all similarity scores' decision
    (topKviaAllSimilarityScores*, topk.h:162-191) applied as a filter."""
    w = np.asarray(weights if weights is not None else [1.0] * len(score_cols))
    w = w / w.sum()

    def f(t: pa.Table) -> pa.Table:
        m = np.column_stack(
            [np.nan_to_num(np.asarray(t.column(c), dtype=np.float64)) for c in score_cols]
        ) if t.num_rows else np.zeros((0, len(score_cols)))
        score = m @ w
        keep = score >= threshold
        out = t.select(["id1", "id2"]).filter(pa.array(keep))
        return out.append_column("score", pa.array(score[keep], pa.float64()))

    return features.map_batches(f, batch_format="pyarrow")


# ---------------------------------------------------------------------------
# numpy CART + bagging forest
# ---------------------------------------------------------------------------


@dataclass
class _Tree:
    feature: np.ndarray  # -1 for leaf
    threshold: np.ndarray
    left: np.ndarray
    right: np.ndarray
    value: np.ndarray  # P(positive) at node


def _gini_best_split(X, y, feat_ids, min_leaf):
    best = (None, None, 0.0)  # feat, thr, gain
    n = y.size
    parent_pos = y.sum()
    parent_gini = 1.0 - (parent_pos / n) ** 2 - ((n - parent_pos) / n) ** 2
    for f in feat_ids:
        x = X[:, f]
        order = np.argsort(x, kind="stable")
        xs, ys = x[order], y[order]
        pos_left = np.cumsum(ys)[:-1]
        nl = np.arange(1, n)
        valid = xs[1:] != xs[:-1]
        valid &= (nl >= min_leaf) & ((n - nl) >= min_leaf)
        if not valid.any():
            continue
        nr = n - nl
        pos_right = parent_pos - pos_left
        gl = 1.0 - (pos_left / nl) ** 2 - ((nl - pos_left) / nl) ** 2
        gr = 1.0 - (pos_right / nr) ** 2 - ((nr - pos_right) / nr) ** 2
        gain = parent_gini - (nl * gl + nr * gr) / n
        gain[~valid] = -1.0
        k = int(np.argmax(gain))
        if gain[k] > best[2] + 1e-12:
            best = (f, (xs[k] + xs[k + 1]) / 2.0, float(gain[k]))
    return best


def _grow_tree(X, y, rng, max_depth, min_leaf, max_features):
    feature, threshold, left, right, value = [], [], [], [], []

    def rec(idx, depth):
        node = len(feature)
        feature.append(-1); threshold.append(0.0); left.append(-1); right.append(-1)
        value.append(float(y[idx].mean()) if idx.size else 0.0)
        if depth >= max_depth or idx.size < 2 * min_leaf or y[idx].min() == y[idx].max():
            return node
        nf = X.shape[1]
        k = max(1, int(np.sqrt(nf))) if max_features == "sqrt" else nf
        feats = rng.choice(nf, size=min(k, nf), replace=False)
        f, thr, gain = _gini_best_split(X[idx], y[idx], feats, min_leaf)
        if f is None:
            return node
        mask = X[idx, f] <= thr
        feature[node] = int(f); threshold[node] = float(thr)
        left[node] = rec(idx[mask], depth + 1)
        right[node] = rec(idx[~mask], depth + 1)
        return node

    rec(np.arange(y.size), 0)
    return _Tree(
        np.array(feature), np.array(threshold), np.array(left), np.array(right), np.array(value)
    )


def _tree_predict(tree: _Tree, X: np.ndarray) -> np.ndarray:
    node = np.zeros(X.shape[0], dtype=np.int64)
    active = tree.feature[node] >= 0
    while active.any():
        f = tree.feature[node[active]]
        thr = tree.threshold[node[active]]
        goleft = X[active, f] <= thr
        nxt = np.where(goleft, tree.left[node[active]], tree.right[node[active]])
        node[active] = nxt
        active = tree.feature[node] >= 0
    return tree.value[node]


@dataclass
class RandomForest:
    """Bagged CART forest; deterministic under seed."""

    trees: list = field(default_factory=list)
    feature_names: list = field(default_factory=list)

    @classmethod
    def train(
        cls,
        X: pd.DataFrame,
        y: np.ndarray,
        *,
        n_estimators: int = 11,  # reference default (random_forest.py)
        max_depth: int = 6,
        min_leaf: int = 2,
        seed: int = 42,
    ) -> "RandomForest":
        names = list(X.columns)
        Xv = np.nan_to_num(X.to_numpy(np.float64))
        yv = y.astype(np.float64)
        rng = np.random.default_rng(seed)
        trees = []
        for _ in range(n_estimators):
            idx = rng.integers(0, yv.size, yv.size)  # bootstrap
            trees.append(_grow_tree(Xv[idx], yv[idx], rng, max_depth, min_leaf, "sqrt"))
        return cls(trees=trees, feature_names=names)

    def predict_proba(self, X: np.ndarray) -> np.ndarray:
        X = np.nan_to_num(X.astype(np.float64))
        return np.mean([_tree_predict(t, X) for t in self.trees], axis=0)

    def extract_rules(self, min_tree_frac: float = 0.5) -> list[dict]:
        """Root->positive-leaf paths -> candidate blocking rules, deduped by
        signature; keep predicates appearing in >= min_tree_frac of trees
        (the reference's 'loosen until > half of trees covered' heuristic,
        extract_formula.py:228-291, simplified to per-predicate coverage)."""
        from collections import Counter, defaultdict

        counts: Counter = Counter()
        loosest: dict = defaultdict(lambda: None)
        for t in self.trees:

            def walk(node, path):
                if t.feature[node] < 0:
                    if t.value[node] >= 0.5:
                        for f, sign, thr in path:
                            key = (f, sign)
                            counts[key] += 1
                            cur = loosest[key]
                            if cur is None or (sign == "+" and thr < cur) or (
                                sign == "-" and thr > cur
                            ):
                                loosest[key] = thr
                    return
                f = int(t.feature[node])
                thr = float(t.threshold[node])
                walk(int(t.left[node]), path + [(f, "-", thr)])  # x <= thr
                walk(int(t.right[node]), path + [(f, "+", thr)])  # x > thr

            walk(0, [])
        need = max(1, int(np.ceil(min_tree_frac * len(self.trees))))
        rules = []
        for (f, sign), c in counts.items():
            if c >= need and sign == "+":  # positive-direction predicates block
                rules.append(
                    {
                        "feature": self.feature_names[f],
                        "sign": "+",
                        "threshold": float(loosest[(f, "+")]),
                        "trees": int(c),
                    }
                )
        rules.sort(key=lambda r: (-r["trees"], r["feature"]))
        return rules


class RFScorer:
    """Actor-pool RF prediction over feature batches (replaces the
    reference's one-OS-process-per-chunk apply_model,
    random_forest.py:709-735)."""

    def __init__(self, model_ref, feature_cols, threshold: float = 0.5):
        self.model: RandomForest = ray.get(model_ref)
        self.cols = list(feature_cols)
        self.threshold = threshold

    def __call__(self, t: pa.Table) -> pa.Table:
        if t.num_rows == 0:
            return pa.table(
                {"id1": pa.array([], pa.string()), "id2": pa.array([], pa.string()),
                 "proba": pa.array([], pa.float64()), "label": pa.array([], pa.int8())}
            )
        X = np.column_stack([np.asarray(t.column(c), dtype=np.float64) for c in self.cols])
        p = self.model.predict_proba(X)
        return pa.table(
            {
                "id1": t.column("id1"),
                "id2": t.column("id2"),
                "proba": pa.array(p, pa.float64()),
                "label": pa.array((p >= self.threshold).astype(np.int8), pa.int8()),
            }
        )


def rf_match(
    features: "ray.data.Dataset", model: RandomForest, *, threshold: float = 0.5,
    concurrency=(1, 8),
) -> "ray.data.Dataset":
    ref = ray.put(model)
    return features.map_batches(
        RFScorer,
        fn_constructor_args=(ref, model.feature_names, threshold),
        batch_format="pyarrow",
        concurrency=concurrency,
    )


# ---------------------------------------------------------------------------
# forest -> blocking rules (the reference's train->rules->block loop)
# ---------------------------------------------------------------------------


def _positive_paths(forest: RandomForest) -> tuple[list[dict], list[set]]:
    """Distinct positive root->leaf paths across the forest.

    Each path is reduced to its BINDING positive constraints: for every
    feature taken in the '>' direction, the max threshold along the path
    (pairs routed down the path provably have f > that bound).  Paths are
    deduped by signature across trees but remember every tree they appear
    in — the reference's tree<->rule-node bipartite edges
    (/root/reference/simjoin_entitymatching/blocker/graph.py:91-139)."""
    paths: dict[tuple, int] = {}
    bounds_list: list[dict] = []
    trees_of: list[set] = []
    for ti, t in enumerate(forest.trees):
        stack = [(0, {})]
        while stack:
            node, bounds = stack.pop()
            if t.feature[node] < 0:
                if t.value[node] >= 0.5:
                    sig = tuple(sorted((f, round(b, 4)) for f, b in bounds.items()))
                    if sig not in paths:
                        paths[sig] = len(bounds_list)
                        bounds_list.append(dict(bounds))
                        trees_of.append(set())
                    trees_of[paths[sig]].add(ti)
                continue
            f = int(t.feature[node])
            thr = float(t.threshold[node])
            stack.append((int(t.left[node]), bounds))  # f <= thr: not binding
            nb = dict(bounds)
            nb[f] = max(nb.get(f, -np.inf), thr)
            stack.append((int(t.right[node]), nb))  # f > thr
    return bounds_list, trees_of


_BLOCKABLE_SIMS = ("jac", "cos", "dice", "overlap", "exm", "anm")

#: branch-and-bound node budget for strategy='optimal' before falling back
#: to greedy (the reference's DFS has no budget; its feature grids are tiny)
_OPTIMAL_NODE_CAP = 500_000


def _rule_for(s, tau: float):
    """(FeatureSpec, threshold) -> executable BlockingRule."""
    from ..config import BlockingRule

    if s.sim == "exm":
        return BlockingRule(attr=s.attr, sim="exm", tok="none", threshold=1.0)
    if s.sim == "anm":
        return BlockingRule(attr=s.attr, sim="anm", tok="none", threshold=tau)
    return BlockingRule(attr=s.attr, sim=s.sim, tok=s.tok, q=s.q, threshold=tau)


def _optimal_rules_comb(forest, bounds_list, trees_of, grid):
    """Exact multi-group knapsack over (feature, threshold) items — the
    reference's get_optimal_rules_comb / dfs_optimal
    (blocker/extract_formula.py:381-460) re-expressed as bitmask
    branch-and-bound.

    Groups = blockable features; each contributes <= 1 threshold from its
    grid; item value = tightness rank (tightest tau in an f-item grid of
    size g has value g, the loosest value 1 — the reference's
    ``feature_div - val``).  A selection is FEASIBLE when more than half the
    trees have every positive path covered (the reference counts a tree
    node visited when all its rule-node edges are selected,
    extract_formula.py:395-405); trees with no positive paths count as
    covered, matching degree==0 semantics.  Returns [(feature, tau), ...]
    or None when infeasible / over the node budget."""
    n_paths = len(bounds_list)
    n_trees = len(forest.trees)
    # tree -> bitmask of its positive paths
    tree_paths = [0] * n_trees
    for p, ts in enumerate(trees_of):
        for t in ts:
            tree_paths[t] |= 1 << p
    need = n_trees // 2 + 1  # "> num_tree / 2"
    feats = sorted(grid)
    # per (feature, grid position): covered-path bitmask; grids ordered
    # TIGHT -> LOOSE so values descend like the reference's val index
    items: list[list[tuple[int, float, int]]] = []  # (value, tau, mask)
    for f in feats:
        pb = np.array([p.get(f, -np.inf) for p in bounds_list])
        taus = grid[f][::-1]  # tight -> loose
        g = len(taus)
        row = []
        for pos, tau in enumerate(taus):
            mask = 0
            for p in np.flatnonzero(pb >= tau):
                mask |= 1 << int(p)
            row.append((g - pos, float(tau), mask))
        items.append(row)
    # max attainable value from feature i onward (for bound pruning)
    suffix_max = [0] * (len(feats) + 1)
    for i in range(len(feats) - 1, -1, -1):
        suffix_max[i] = suffix_max[i + 1] + (items[i][0][0] if items[i] else 0)

    best_val = -1
    best_sel: list[tuple[int, float]] | None = None
    nodes = 0

    def n_covered_trees(mask: int) -> int:
        c = 0
        for tp in tree_paths:
            if tp & mask == tp:
                c += 1
        return c

    def dfs(i: int, val: int, mask: int, sel: list) -> bool:
        """Returns False when the node budget is blown."""
        nonlocal best_val, best_sel, nodes
        nodes += 1
        if nodes > _OPTIMAL_NODE_CAP:
            return False
        if n_covered_trees(mask) >= need:
            if val > best_val:
                best_val = val
                best_sel = list(sel)
            # feasible: stop here like the reference's dfs_optimal (adding
            # more rules would only enlarge the candidate set)
            return True
        if i >= len(feats) or val + suffix_max[i] <= best_val:
            return True
        for v, tau, m in items[i]:
            sel.append((feats[i], tau))
            ok = dfs(i + 1, val + v, mask | m, sel)
            sel.pop()
            if not ok:
                return False
        return dfs(i + 1, val, mask, sel)

    if not dfs(0, 0, 0, []):
        return None
    return best_sel


def rules_from_forest(
    forest: RandomForest, specs, *, target_cover: float = 1.0, max_rules: int = 8,
    strategy: str = "greedy",
):
    """Trained forest -> executable ``BlockingRule`` list via greedy
    path-cover with threshold loosening.

    Semantics of the reference's tripartite graph + range loosening +
    greedy knapsack (graph.py:71-342, extract_formula.py:228-291),
    simplified: a rule (feature f, threshold tau) COVERS a positive path if
    the path binds f > b with b >= tau (every pair routed down the path
    then satisfies the blocking join f >= tau, so blocking cannot lose it).
    Greedily pick the (f, tau) from each blockable feature's bound grid
    that covers the most uncovered paths (ties -> tighter tau, i.e. fewer
    candidate pairs), until ``target_cover`` of the distinct positive paths
    is covered.  Thresholds are floor-rounded to 4 decimals (the reference
    rounds, graph.py:115; floor keeps tau <= the true bound so the
    recall guarantee survives rounding).

    Paths whose only binding constraints are on un-blockable features
    (levSim / overlap coefficient have no self-join here) are reported as
    ``uncovered`` — the caller decides whether that recall hole is
    acceptable (the reference similarly drops 'jaro'-style features,
    graph.py:292-295).

    ``strategy='optimal'`` runs the reference's exhaustive multi-group
    knapsack instead (get_optimal_rules_comb + dfs_optimal,
    extract_formula.py:381-460): each blockable feature contributes at most
    ONE (feature, threshold) item, an item's value is its tightness rank
    (tighter tau -> higher value -> fewer candidate pairs), and a selection
    is feasible once more than half the forest's trees have EVERY positive
    path covered — the branch-and-bound maximizes total tightness over
    feasible selections.  Falls back to greedy (with a warning) if the
    search space exceeds ``_OPTIMAL_NODE_CAP`` nodes or no feasible
    selection exists."""
    from ..config import BlockingRule

    spec_by_idx = {i: s for i, s in enumerate(specs)}
    assert [s.name for s in specs] == forest.feature_names, "spec order must match training"
    bounds_list, trees_of = _positive_paths(forest)
    n_paths = len(bounds_list)
    blockable = {
        i for i, s in spec_by_idx.items() if s.sim in _BLOCKABLE_SIMS
    }
    covered = np.zeros(n_paths, bool)
    # feature -> sorted unique bounds (loose -> tight) across paths
    grid: dict[int, np.ndarray] = {}
    for f in blockable:
        bs = sorted({np.floor(b * 1e4) / 1e4 for p in bounds_list for ff, b in p.items() if ff == f})
        if bs:
            grid[f] = np.asarray(bs)
    if strategy == "optimal":
        sel = _optimal_rules_comb(forest, bounds_list, trees_of, grid)
        if sel is not None:
            return [_rule_for(spec_by_idx[f], tau) for f, tau in sel]
        import logging

        logging.getLogger(__name__).warning(
            "rules_from_forest: optimal search infeasible or too large; "
            "falling back to greedy")
    elif strategy != "greedy":
        raise ValueError(f"unknown strategy {strategy!r}")
    rules: list[BlockingRule] = []
    target = int(np.ceil(target_cover * n_paths))
    while covered.sum() < target and len(rules) < max_rules:
        best = None  # (gain, tau, f)
        for f, taus in grid.items():
            pb = np.array([p.get(f, -np.inf) for p in bounds_list])
            for tau in taus:
                gain = int((~covered & (pb >= tau)).sum())
                if gain and (best is None or gain > best[0] or (gain == best[0] and tau > best[1])):
                    best = (gain, float(tau), f)
        if best is None:
            break
        _, tau, f = best
        rules.append(_rule_for(spec_by_idx[f], tau))
        pb = np.array([p.get(f, -np.inf) for p in bounds_list])
        covered |= pb >= tau
        del grid[f]  # one rule per feature (loosest useful tau already chosen)
    uncovered = int(n_paths - covered.sum())
    if uncovered:
        import logging

        logging.getLogger(__name__).warning(
            "rules_from_forest: %d/%d positive paths not covered by blockable rules",
            uncovered, n_paths,
        )
    return rules


# ---------------------------------------------------------------------------
# evaluation vs gold (reference get_recall / getStat semantics)
# ---------------------------------------------------------------------------


def pairwise_prf(pred: pd.DataFrame, gold: pd.DataFrame) -> dict:
    """precision/recall/F1 of predicted pairs vs gold pairs (both id1<id2)."""
    p = set(zip(pred["id1"], pred["id2"]))
    g = set(zip(gold["id1"], gold["id2"]))
    tp = len(p & g)
    precision = tp / len(p) if p else 0.0
    recall = tp / len(g) if g else 0.0
    f1 = 2 * precision * recall / (precision + recall) if precision + recall else 0.0
    return {
        "tp": tp, "fp": len(p) - tp, "fn": len(g) - tp,
        "precision": precision, "recall": recall, "f1": f1,
    }


def _gold_key_ref(gold: pd.DataFrame):
    """Broadcast the (small) gold pair set once as a string-keyed Index."""
    gkeys = pd.Index(
        gold["id1"].astype(str).to_numpy(object)
        + "\x00" + gold["id2"].astype(str).to_numpy(object)
    )
    return ray.put(gkeys), int(gkeys.size)


def _pair_gold_counts(pred: "ray.data.Dataset", gref) -> tuple[int, int]:
    """(tp, n_pred) of a distributed pair Dataset vs the broadcast gold
    Index — one map_batches partial sum, nothing collected."""

    def part(t: pa.Table) -> pa.Table:
        from ..functions.hashing import get_broadcast

        gk = get_broadcast(gref)
        i1 = pd.Series(t.column("id1").to_numpy(zero_copy_only=False)).astype(str)
        i2 = pd.Series(t.column("id2").to_numpy(zero_copy_only=False)).astype(str)
        tp = int((gk.get_indexer((i1 + "\x00" + i2).to_numpy(object)) >= 0).sum())
        return pa.table({"tp": pa.array([tp], pa.int64()),
                         "n": pa.array([t.num_rows], pa.int64())})

    sums = (pred.select_columns(["id1", "id2"])
            .map_batches(part, batch_format="pyarrow").sum(["tp", "n"]))
    # Dataset.sum returns None on an empty dataset
    tp = int((sums or {}).get("sum(tp)") or 0)
    n_pred = int((sums or {}).get("sum(n)") or 0)
    return tp, n_pred


def rule_recall_report(
    rule_pairs: dict[str, "ray.data.Dataset"],
    candidates: "ray.data.Dataset | None",
    gold: pd.DataFrame,
) -> pd.DataFrame:
    """Per-rule recall table — ``Block::getRecall4Rules``
    (cpp/blocker/block.cc:325-399) rebuilt distributed.

    Two row families, keyed by ``key``:

    - ``rule:<name>``: each rule's own pair set vs gold (the per-rule
      debugging view the reference prints per rule file entry);
    - ``count:<i>``: the reference's inverted buckets — candidate pairs
      passing EXACTLY i rules ("without previous", block.cc:365-391) vs
      gold, from the union's ``passed_rules`` column.

    Gold broadcasts once; every count is a map_batches partial sum plus a
    #distinct-counts-sized groupby — neither the rule pair sets nor the
    candidate union is ever collected."""
    gref, n_gold = _gold_key_ref(gold)
    rows = []
    for name, ds in rule_pairs.items():
        tp, n = _pair_gold_counts(ds, gref)
        rows.append({"key": f"rule:{name}", "n_pairs": n, "tp": tp,
                     "recall": tp * 1.0 / n_gold if n_gold else 0.0})

    if candidates is not None:
        def part(t: pa.Table) -> pa.Table:
            from ..functions.hashing import get_broadcast

            gk = get_broadcast(gref)
            df = t.select(["id1", "id2", "passed_rules"]).to_pandas()
            keys = (df["id1"].astype(str) + "\x00" + df["id2"].astype(str))
            df["tp"] = (gk.get_indexer(keys.to_numpy(object)) >= 0).astype(np.int64)
            g = df.groupby("passed_rules", sort=False).agg(
                n_pairs=("tp", "size"), tp=("tp", "sum")).reset_index()
            return pa.table({
                "passed_rules": pa.array(g["passed_rules"].astype(np.int64)),
                "n_pairs": pa.array(g["n_pairs"].astype(np.int64)),
                "tp": pa.array(g["tp"].astype(np.int64)),
            })

        agg = (candidates.map_batches(part, batch_format="pyarrow")
               .groupby("passed_rules").sum(["n_pairs", "tp"]))
        for r in sorted(agg.take_all(), key=lambda r: r["passed_rules"]):
            tp = int(r["sum(tp)"])
            rows.append({"key": f"count:{int(r['passed_rules'])}",
                         "n_pairs": int(r["sum(n_pairs)"]), "tp": tp,
                         "recall": tp * 1.0 / n_gold if n_gold else 0.0})
    return pd.DataFrame(rows, columns=["key", "n_pairs", "tp", "recall"])


def distributed_prf(pred: "ray.data.Dataset", gold: pd.DataFrame) -> dict:
    """precision/recall/F1 of a DISTRIBUTED predicted pair Dataset vs a
    (small-by-construction) gold pair frame, both id1 < id2.

    The predicted set is NEVER collected on the driver: the gold pairs
    broadcast once as a hash Index (exact string membership, no 64-bit
    collision exposure) and each batch contributes a (tp, n) partial sum —
    SURVEY §2.6's "recall = inner join pred⨝gold + count" as one
    map_batches + Sum, so the metric path holds at 100 TB where the old
    to_pandas() collect of the candidate set was a driver OOM.

    Precondition (same as pairwise_prf's set semantics): ``pred`` rows are
    distinct pairs — true for the blocking union and the match table by
    construction (dedupe_pairs)."""
    gref, n_gold = _gold_key_ref(gold)
    tp, n_pred = _pair_gold_counts(pred, gref)
    precision = tp / n_pred if n_pred else 0.0
    recall = tp / n_gold if n_gold else 0.0
    f1 = 2 * precision * recall / (precision + recall) if precision + recall else 0.0
    return {
        "tp": tp, "fp": n_pred - tp, "fn": n_gold - tp,
        "precision": precision, "recall": recall, "f1": f1,
    }


def grid_search_train(
    X: pd.DataFrame, y: np.ndarray, *,
    param_grid: dict | None = None, cv: int = 5, seed: int = 42,
    n_estimators: int = 11, parallel: bool = True,
) -> tuple[RandomForest, dict]:
    """Seeded k-fold grid search over the forest hyperparameters — the
    reference's GridSearchCV(cv=5) training path
    (/root/reference/simjoin_entitymatching/matcher/random_forest.py:441-460)
    without sklearn: deterministic fold assignment, mean accuracy scoring,
    ties -> first grid entry.  Candidate (grid point, fold) fits run as
    parallel Ray tasks when a Ray session is live (``parallel=True``);
    training frames are driver-sized by construction so each fit is small.

    Returns (best refit forest, {"best_params", "cv_scores"})."""
    import itertools

    param_grid = param_grid or {
        "max_depth": [6, 10, 20],
        "min_leaf": [1, 2, 4],
    }
    keys = sorted(param_grid)
    combos = [dict(zip(keys, vals))
              for vals in itertools.product(*(param_grid[k] for k in keys))]
    rng = np.random.default_rng(seed)
    fold = rng.integers(0, cv, y.size)
    Xv = X.reset_index(drop=True)

    def fit_score(params: dict, f: int) -> float:
        tr = fold != f
        te = ~tr
        if y[tr].size == 0 or y[te].size == 0:
            return 0.0
        m = RandomForest.train(Xv[tr], y[tr], n_estimators=n_estimators,
                               seed=seed, **params)
        p = (m.predict_proba(Xv[te].to_numpy(np.float64)) >= 0.5).astype(int)
        return float((p == y[te]).mean())

    jobs = [(ci, f) for ci in range(len(combos)) for f in range(cv)]
    if parallel and ray.is_initialized():
        fs = ray.remote(fit_score)
        refs = [fs.remote(combos[ci], f) for ci, f in jobs]
        flat = ray.get(refs)
    else:
        flat = [fit_score(combos[ci], f) for ci, f in jobs]
    scores = []
    for ci in range(len(combos)):
        vals = [flat[i] for i, (cj, _) in enumerate(jobs) if cj == ci]
        scores.append(float(np.mean(vals)))
    best_i = int(np.argmax(scores))
    best = combos[best_i]
    model = RandomForest.train(Xv, y, n_estimators=n_estimators, seed=seed, **best)
    return model, {"best_params": best, "cv_scores": dict(zip(map(str, combos), scores))}


def _binary_entropy(p: np.ndarray) -> np.ndarray:
    p = np.clip(p, 1e-12, 1.0 - 1e-12)
    return -(p * np.log2(p) + (1.0 - p) * np.log2(1.0 - p))


def active_learning_train(
    X: pd.DataFrame,
    y: np.ndarray,
    *,
    seed_size: int = 40,
    n_estimators: int = 11,
    max_iteration: int = 30,
    query_size: int = 20,
    top_pool: int = 100,
    epsilon: float = 0.01,
    max_depth: int = 6,
    min_leaf: int = 2,
    seed: int = 42,
) -> tuple[RandomForest, dict]:
    """Entropy-weighted active-learning trainer (reference train_model_active,
    /root/reference/simjoin_entitymatching/matcher/random_forest.py:478-615).

    Re-expressed deterministically: a 3% monitor set tracks mean prediction
    confidence (1 - binary entropy); each epoch trains on the labeled set H
    (seeded with a balanced ``seed_size`` sample), then queries the
    ``query_size`` most-uncertain pool rows — an entropy-weighted sample of
    the ``top_pool`` highest-entropy rows — and moves them into H.  ``y``
    supplies the queried labels (the planted gold graph stands in for the
    human labeler, as in the reference's experiments).  Stopping mirrors the
    reference's three exits over the width-5-smoothed confidence curve:
    converged (20 epochs of <= epsilon steps), near-absolute (3 epochs at
    >= 1-epsilon), degrading (trailing-15 max dropped by >= epsilon).

    Training frames are driver-sized by construction (sampler stage bounds
    them), so this is a driver-side loop like the reference's."""
    rng = np.random.default_rng(seed)
    y = np.asarray(y).astype(np.int64)
    n = len(X)
    perm = rng.permutation(n)
    n_mon = max(1, int(0.03 * n))
    mon = perm[:n_mon]
    rest = perm[n_mon:]
    pos = rest[y[rest] == 1]
    neg = rest[y[rest] == 0]
    half = max(1, seed_size // 2)
    labeled = np.concatenate([pos[:half], neg[:half]])
    pool = np.setdiff1d(rest, labeled)
    Xv = np.nan_to_num(X.reset_index(drop=True).to_numpy(np.float64))
    names = list(X.columns)

    w, lw = 5, 2
    n_converged, n_high, n_degrade = 20, 3, 15
    conf = np.zeros(max_iteration)
    model: RandomForest | None = None
    stop = "max_iterations"
    turn = 0
    for turn in range(max_iteration):
        model = RandomForest.train(
            pd.DataFrame(Xv[labeled], columns=names), y[labeled],
            n_estimators=n_estimators, max_depth=max_depth,
            min_leaf=min_leaf, seed=seed,
        )
        # monitor confidence (smoothed over the trailing window)
        conf[turn] = float(np.mean(1.0 - _binary_entropy(model.predict_proba(Xv[mon]))))
        if turn >= w - 1:
            conf[turn] = float(np.mean(conf[turn - w + 1: turn + 1]))
        # stopping rules
        if turn >= n_high - 1 and np.all(conf[turn - n_high + 1: turn + 1] >= 1 - epsilon):
            stop = "near_absolute_confidence"
            break
        if turn >= n_converged - 1 and np.all(
            np.abs(np.diff(conf[turn - n_converged + 2: turn + 1])) <= epsilon
        ):
            stop = "converged_confidence"
            break
        if turn >= 2 * n_degrade - 1:
            w1 = conf[turn + 1 - n_degrade: turn + 1]
            w2 = conf[turn + 1 - 2 * n_degrade: turn + 1 - n_degrade]
            if w2.max() - w1.max() >= epsilon:
                stop = "degrading_confidence"
                break
        if pool.size < top_pool:
            stop = "pool_exhausted"
            break
        # entropy-weighted query of the most uncertain pool rows
        ent = _binary_entropy(model.predict_proba(Xv[pool]))
        top = pool[np.argsort(-ent, kind="stable")[:top_pool]]
        wts = _binary_entropy(model.predict_proba(Xv[top]))
        if wts.sum() <= 0:
            picked = top[:query_size]
        else:
            picked = rng.choice(top, size=min(query_size, top.size),
                                replace=False, p=wts / wts.sum())
        labeled = np.concatenate([labeled, picked])
        pool = np.setdiff1d(pool, picked)

    assert model is not None
    return model, {
        "stop": stop,
        "epochs": turn + 1,
        "n_labeled": int(labeled.size),
        "confidence": [round(float(c), 6) for c in conf[: turn + 1]],
    }


# ---------------------------------------------------------------------------
# KNN post-filter on match results
# ---------------------------------------------------------------------------


def knn_filter_matches(
    matches: "ray.data.Dataset",
    docs: "ray.data.Dataset",
    attr: str,
    *,
    k: int = 5,
    label_col: str = "label",
    embedder=None,
    dim: int = 64,
) -> "ray.data.Dataset":
    """Bidirectional KNN post-filter on predicted matches (the reference's
    semantic-similarity filter, simjoin_entitymatching/matcher/search.py
    filter_match_res_memory -> _search_KNN + _slim_match_tab x2): embed the
    DISTINCT ``attr`` values appearing in predicted matches, compute each
    value's K nearest values by embedding cosine, and demote (label -> 0)
    any predicted pair whose values are not in each other's K-NN sets (the
    forward filter keeps rid in KNN(lid), the reverse keeps lid in KNN(rid);
    a pair survives only if both pass, like the reference's two sequential
    _slim_match_tab calls).

    Ray shape: the id->value map broadcasts once per worker; the KNN runs as
    the ann-stage partial-top-k pattern over a values dataset (value count is
    vocabulary-sized — distinct values in the match table, the same set the
    reference indexes in faiss on the driver)."""
    from .interchangeable import ValueEmbedder
    from .verify import collect_arrow

    import pyarrow.compute as pc

    tbl = collect_arrow(docs.select_columns(["conv_id", attr]))
    ids = np.asarray(tbl.column("conv_id").to_numpy(zero_copy_only=False), dtype=object)
    vals = np.asarray(
        pc.fill_null(pc.cast(tbl.column(attr), pa.string()), "").to_numpy(zero_copy_only=False),
        dtype=object,
    )
    idval = pd.Series(vals, index=pd.Index(ids))
    from ..functions.hashing import get_broadcast

    iv_ref = ray.put(idval)

    # distinct predicted-match values (vocabulary-sized by construction)
    def matched_vals(t: pa.Table) -> pa.Table:
        m = get_broadcast(iv_ref)
        keep = np.asarray(t.column(label_col), dtype=np.int64) == 1
        i1 = np.asarray(t.column("id1").to_numpy(zero_copy_only=False), dtype=object)[keep]
        i2 = np.asarray(t.column("id2").to_numpy(zero_copy_only=False), dtype=object)[keep]
        u = pd.unique(np.concatenate([m.reindex(i1).to_numpy(object),
                                      m.reindex(i2).to_numpy(object)]))
        u = u[~pd.isna(u)]
        return pa.table({"val": pa.array(u.astype(object), pa.string())})

    uvals = (matches.map_batches(matched_vals, batch_format="pyarrow")
             .to_pandas()["val"].drop_duplicates().sort_values().to_numpy(object))
    if uvals.size == 0:
        return matches
    if embedder is None:
        embedder = ValueEmbedder(dim=dim).train(uvals)
    V = embedder.embed(uvals)  # (n, dim) L2-normalized
    import ray.data as rd

    vals_ds = rd.from_arrow(pa.table({
        "vec_id": pa.array(np.arange(uvals.size, dtype=np.int64)),
        "embedding": pa.array(list(V), pa.list_(pa.float64())),
    }))
    from .ann import ann_topk_bruteforce

    nn = ann_topk_bruteforce(vals_ds, np.arange(uvals.size, dtype=np.int64),
                             k=k, exclude_self=False)
    # (query, neighbor) edge set as one SORTED packed-int64 key array — the
    # demote membership test below is two vectorized binary searches per
    # batch, no per-row Python (the KNN edge count is vocabulary x k sized)
    n_vals = np.int64(uvals.size)
    nkeys = np.sort(nn["query_id"].to_numpy(np.int64) * n_vals
                    + nn["neighbor_id"].to_numpy(np.int64))
    vid_of = pd.Series(np.arange(uvals.size, dtype=np.int64), index=pd.Index(uvals))
    knn_ref = ray.put((vid_of, nkeys, n_vals))

    def demote(t: pa.Table) -> pa.Table:
        m = get_broadcast(iv_ref)
        vid, keys, nv = get_broadcast(knn_ref)

        def member(q: np.ndarray) -> np.ndarray:
            if keys.size == 0:
                return np.zeros(q.size, bool)
            pos = np.searchsorted(keys, q)
            return (pos < keys.size) & (keys[np.minimum(pos, keys.size - 1)] == q)

        lab = np.asarray(t.column(label_col), dtype=np.int64).copy()
        pred = lab == 1
        if pred.any():
            i1 = np.asarray(t.column("id1").to_numpy(zero_copy_only=False), dtype=object)
            i2 = np.asarray(t.column("id2").to_numpy(zero_copy_only=False), dtype=object)
            v1 = vid.reindex(pd.Index(m.reindex(i1[pred]).to_numpy(object))).to_numpy()
            v2 = vid.reindex(pd.Index(m.reindex(i2[pred]).to_numpy(object))).to_numpy()
            valid = ~(np.isnan(v1) | np.isnan(v2))
            a = v1[valid].astype(np.int64)
            b = v2[valid].astype(np.int64)
            ok = np.zeros(v1.size, bool)
            if a.size:
                ok[valid] = member(a * nv + b) & member(b * nv + a)
            out = lab[pred]
            out[~ok] = 0
            lab[pred] = out
        i = t.column_names.index(label_col)
        return t.set_column(i, label_col, pa.array(lab, pa.int64()))

    return matches.map_batches(demote, batch_format="pyarrow")


# ---------------------------------------------------------------------------
# Ditto-style deep-learning matcher shim (torch-optional)
# ---------------------------------------------------------------------------


def ditto_serialize(vals1: dict, vals2: dict, attrs: list[str]) -> np.ndarray:
    """Serialize record pairs into Ditto's input format (Li et al., VLDB'21
    "Deep Entity Matching with Pre-Trained Language Models"):
    ``COL a1 VAL v1 COL a2 VAL v2 ... [SEP] COL a1 VAL v1' ...``.
    ``vals1``/``vals2`` map attr -> object ndarray (one value per pair)."""
    n = len(next(iter(vals1.values()))) if vals1 else 0
    parts = []
    for side in (vals1, vals2):
        seg = None
        for a in attrs:
            v = pd.Series(side[a]).fillna("").astype(str)
            piece = ("COL " + a + " VAL ") + v
            seg = piece if seg is None else seg + " " + piece
        parts.append(seg if seg is not None else pd.Series([""] * n))
    return (parts[0] + " [SEP] " + parts[1]).to_numpy(object)


class DittoScorer:
    """Actor-pool Ditto matcher over candidate-pair batches — the DL
    alternative to RFScorer with the SAME output surface {id1, id2, proba,
    label} (reference matcher/ditto.py + matcher/deep_matcher.py wrap torch
    models the same way: serialize pairs, score, threshold).

    ``model`` is any callable ``model(texts: list[str]) -> array of match
    probabilities`` — a fine-tuned transformer wrapped in a closure when
    torch is available (see ``load_ditto_model``), or a deterministic stub in
    tests.  Setup happens ONCE per actor in __init__ (model fetched from the
    object store); __call__ scores one batch.  Batches must carry
    id1/id2 plus ``l_{attr}``/``r_{attr}`` raw-value columns."""

    def __init__(self, model_ref, attrs, threshold: float = 0.5):
        self.model = ray.get(model_ref)
        self.attrs = list(attrs)
        self.threshold = threshold

    def __call__(self, t: pa.Table) -> pa.Table:
        if t.num_rows == 0:
            return pa.table(
                {"id1": pa.array([], pa.string()), "id2": pa.array([], pa.string()),
                 "proba": pa.array([], pa.float64()), "label": pa.array([], pa.int8())}
            )
        p = np.asarray(self.model(self.model_input(t)), np.float64)
        return pa.table(
            {
                "id1": t.column("id1"),
                "id2": t.column("id2"),
                "proba": pa.array(p, pa.float64()),
                "label": pa.array((p >= self.threshold).astype(np.int8), pa.int8()),
            }
        )

    def model_input(self, t: pa.Table) -> list:
        """The serialized pair texts of one batch."""
        v1 = {a: np.asarray(t.column(f"l_{a}").to_numpy(zero_copy_only=False), dtype=object)
              for a in self.attrs}
        v2 = {a: np.asarray(t.column(f"r_{a}").to_numpy(zero_copy_only=False), dtype=object)
              for a in self.attrs}
        return list(ditto_serialize(v1, v2, self.attrs))


def load_ditto_model(checkpoint_path: str):
    """Load a fine-tuned Ditto torch checkpoint into a scoring callable.

    torch is not shipped in this environment, so the import is guarded —
    the rest of the pipeline (serialization, actor pool, join plumbing) is
    torch-free and tested with stub models."""
    try:
        import torch  # type: ignore  # noqa: F401
    except ImportError as exc:  # pragma: no cover - torch absent here
        raise NotImplementedError(
            "Ditto model loading needs torch, which is not available in this "
            "environment; pass any callable model(texts) -> probas to "
            "ditto_match instead (see DittoScorer)"
        ) from exc
    raise NotImplementedError(
        "wire your fine-tuned checkpoint here: load the tokenizer+model, "
        f"return lambda texts: sigmoid(model(tokenize(texts))) [{checkpoint_path}]"
    )  # pragma: no cover


def ditto_match(
    pairs: "ray.data.Dataset",
    docs: "ray.data.Dataset",
    attrs: list[str],
    model,
    *,
    threshold: float = 0.5,
    concurrency=(1, 8),
    batch_size: int = 512,
    broadcast: bool | None = None,
    broadcast_limit: int = 2_000_000,
    n_records: int | None = None,
    num_partitions: int = 64,
    _scorer_cls=None,
) -> "ray.data.Dataset":
    """Score candidate pairs with a Ditto-style model: raw attr values reach
    the pairs through ``joins.attach_pairs`` (as string ``l_{attr}`` /
    ``r_{attr}`` columns, nulls -> ""; pairs with an unknown id dropped),
    then an ACTOR POOL (model held once per actor) scores serialized pair
    texts in batches.  Output {id1, id2, proba, label} — drop-in for
    rf_match."""
    from .joins import PairKernel, attach_pairs

    attrs = list(attrs)

    def load(tbl: pa.Table) -> dict:
        cols = {}
        for a in attrs:
            v = np.asarray(tbl.column(a).to_numpy(zero_copy_only=False), dtype=object)
            cols[a] = np.where(pd.isna(v), "", v.astype(str))
        return cols

    def apply(cols, t: pa.Table, r1: np.ndarray, r2: np.ndarray) -> pa.Table:
        ok = (r1 >= 0) & (r2 >= 0)
        out = t.select(["id1", "id2"]).filter(pa.array(ok))
        for a in attrs:
            out = out.append_column(f"l_{a}", pa.array(cols[a][r1[ok]], pa.string()))
            out = out.append_column(f"r_{a}", pa.array(cols[a][r2[ok]], pa.string()))
        return out

    if broadcast is None and n_records is None:
        n_records = docs.count()
    joined = attach_pairs(
        pairs.select_columns(["id1", "id2"]),
        docs.select_columns(["conv_id"] + attrs), PairKernel(load, apply),
        broadcast_limit=broadcast_limit, n_records=n_records,
        broadcast=broadcast, num_partitions=num_partitions)
    model_ref = ray.put(model)
    return joined.map_batches(
        _scorer_cls or DittoScorer,
        fn_constructor_args=(model_ref, list(attrs), threshold),
        batch_format="pyarrow",
        batch_size=batch_size,
        concurrency=concurrency,
    )


# ---------------------------------------------------------------------------
# DeepMatcher-style adapter (torch-optional, over the Ditto shim plumbing)
# ---------------------------------------------------------------------------


def deepmatcher_format(table: pd.DataFrame, gold: pd.DataFrame) -> pd.DataFrame:
    """Reformat a Megallen wide pair table into DeepMatcher's input frame —
    the reference's ``DeepMatcher.fix_table``/``label_table``
    (matcher/deep_matcher.py:20-65): ``_id`` -> ``id``, a ``label`` column
    right after it from gold membership, ``ltable_``/``rtable_`` attr
    prefixes renamed to ``left_``/``right_``, the two id columns dropped.
    Vectorized (merge against gold instead of the reference's per-row set
    probes)."""
    df = table.rename(columns={"_id": "id"}).copy()
    if "id" not in df.columns:
        df.insert(0, "id", np.arange(len(df), dtype=np.int64))
    g = gold[["id1", "id2"]].drop_duplicates().assign(label=np.int64(1))
    df = df.merge(g, how="left", left_on=["ltable_id", "rtable_id"],
                  right_on=["id1", "id2"]).drop(columns=["id1", "id2"])
    df["label"] = df["label"].fillna(0).astype(np.int64)
    # reorder: label right after id (deep_matcher.py:33)
    cols = ["id", "label"] + [c for c in df.columns if c not in ("id", "label")]
    df = df[cols].drop(columns=["ltable_id", "rtable_id"])
    ren = {}
    for c in df.columns[2:]:
        tab, _, attr = c.partition("_")
        if tab == "ltable":
            ren[c] = f"left_{attr}"
        elif tab == "rtable":
            ren[c] = f"right_{attr}"
        else:
            raise ValueError(f"error in schema : {tab}, {attr}")
    return df.rename(columns=ren)


def deepmatcher_split(df: pd.DataFrame, seed: int = 0):
    """train : validation : test = 0.3334 : 0.1667 : 0.5, the reference's
    two nested splits (deep_matcher.py:80-86: 0.5 train/test, then
    0.6667/0.3333 of train) with a seeded shuffle standing in for
    py_entitymatching's random_state."""
    idx = np.random.default_rng(seed).permutation(len(df))
    n_train_all = int(round(len(df) * 0.5))
    train_all, test = df.iloc[idx[:n_train_all]], df.iloc[idx[n_train_all:]]
    n_train = int(round(len(train_all) * 0.6667))
    return (train_all.iloc[:n_train].reset_index(drop=True),
            train_all.iloc[n_train:].reset_index(drop=True),
            test.reset_index(drop=True))


class DeepMatcherScorer(DittoScorer):
    """Actor-pool DeepMatcher scorer — same output surface as RFScorer /
    DittoScorer ({id1, id2, proba, label}).  ``model`` is any callable
    ``model(frame: pd.DataFrame) -> probas`` over a DeepMatcher-format frame
    (``left_<attr>``/``right_<attr>`` string columns) — the reference's
    ``dm.MatchingModel.run_prediction`` wrapped in a closure when
    torch/deepmatcher are installed, or a stub in tests.  Model fetched once
    per actor (reference apply_model reloads the .pth per chunk,
    deep_matcher.py:131-140)."""

    def model_input(self, t: pa.Table) -> pd.DataFrame:
        return pd.DataFrame({
            f"{side}_{a}": pd.Series(
                t.column(f"{pre}_{a}").to_numpy(zero_copy_only=False)
            ).fillna("").astype(str)
            for side, pre in (("left", "l"), ("right", "r"))
            for a in self.attrs
        })


def deepmatcher_match(
    pairs: "ray.data.Dataset",
    docs: "ray.data.Dataset",
    attrs: list[str],
    model,
    *,
    threshold: float = 0.5,
    concurrency=(1, 8),
    batch_size: int = 512,
    broadcast: bool | None = None,
    broadcast_limit: int = 2_000_000,
    n_records: int | None = None,
    num_partitions: int = 64,
) -> "ray.data.Dataset":
    """DeepMatcher-style scoring over candidate pairs: identical plumbing to
    ditto_match (attach_pairs value attach, actor-pool scoring),
    differing only in the per-batch input the model sees (a wide
    left_/right_ frame instead of serialized text)."""
    scored = ditto_match(
        pairs, docs, attrs, model, threshold=threshold, concurrency=concurrency,
        batch_size=batch_size, broadcast=broadcast,
        broadcast_limit=broadcast_limit, n_records=n_records,
        num_partitions=num_partitions, _scorer_cls=DeepMatcherScorer,
    )
    return scored
