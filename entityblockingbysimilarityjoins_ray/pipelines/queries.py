"""Driver-contract query registry: one Ray pipeline + one DuckDB oracle SQL
per implemented operator (SURVEY.md §2 coverage).

Two input families:

- transcript queries run over the deterministic synthetic transcript fixture
  (fixtures.py; BASELINE.json input_hint shape).  The oracle SQL reads the
  same parquet via read_parquet('/tmp/ebsj_fixtures/sf0.01/...') — the driver
  compares at sf=0.01 only, and ``queries()`` materializes that fixture
  eagerly so the path always exists.
- table queries run over the pre-registered testdata views
  (documents/embeddings/events).

Engine/SQL float determinism: every similarity is derived from integer
counts with the same IEEE-double expression on both sides (o*1.0/(la+lb-o)
etc.), additions in the same order — so the driver's value-hash matches
bit-for-bit.  Ranks/counts are ints wherever float ties would be fragile.
"""

from __future__ import annotations

import os

import numpy as np
import pandas as pd
import pyarrow as pa
import ray
import ray.data

from ..config import BlockingRule, PipelineConfig
from ..fixtures import ensure_fixture
from ..stages import blocking as B
from ..stages.canonicalize import canonicalize
from ..stages.cluster import cluster_entities
from ..stages.editjoin import edit_self_join
from ..stages.text import lang_id as lang_id_stage

SUBSET_MOD = 8  # blocking oracles run on conv_id-suffix % 8 == 0

FIXTURE_SQL_PATH = "/tmp/ebsj_fixtures/sf0.01/transcripts.parquet"

# ---------------------------------------------------------------------------
# SQL building blocks (kept in lockstep with the Ray kernels)
# ---------------------------------------------------------------------------

# regex seen by RE2: [ "',\\\t\r\n]+  (space dquote squote comma backslash tab cr lf)
_DLM_RE_SQL = "[ \"'',\\\\\\t\\r\\n]+"

_DOCS_CTE = f"""docs AS (
  SELECT conv_id,
         string_agg(text, chr(10) ORDER BY turn_idx) AS doc,
         arg_min(text, turn_idx) AS head,
         count(*)::BIGINT AS n_turns
  FROM read_parquet('{FIXTURE_SQL_PATH}')
  GROUP BY conv_id)"""

_SUBSET = f"(CAST(substr(conv_id, 5) AS INTEGER) % {SUBSET_MOD}) = 0"

_SUB_CTE = f"sub AS (SELECT * FROM docs WHERE {_SUBSET})"

_TOKS_CTE = (
    "toks AS (SELECT conv_id, unnest(list_distinct(list_filter("
    f"string_split_regex(doc, '{_DLM_RE_SQL}'), x -> x <> ''))) AS tok FROM sub)"
)

_SIZES_CTE = "sizes AS (SELECT conv_id, count(*)::BIGINT AS l FROM toks GROUP BY conv_id)"

_INTER_CTE = (
    "inter AS (SELECT a.conv_id AS id1, b.conv_id AS id2, count(*)::BIGINT AS o "
    "FROM toks a JOIN toks b ON a.tok = b.tok AND a.conv_id < b.conv_id GROUP BY 1, 2)"
)

_PAIR_SIMS = (
    "pairsims AS (SELECT i.id1, i.id2, i.o, sa.l AS la, sb.l AS lb FROM inter i "
    "JOIN sizes sa ON i.id1 = sa.conv_id JOIN sizes sb ON i.id2 = sb.conv_id)"
)


def _subset_filter_ray(ds):
    import pyarrow.compute as pc

    def f(t: pa.Table) -> pa.Table:
        ids = t.column("conv_id")
        n = np.asarray(pc.cast(pc.utf8_slice_codeunits(ids, 4, 99), pa.int64()))
        return t.filter(pa.array(n % SUBSET_MOD == 0))

    return ds.map_batches(f, batch_format="pyarrow")


def _fixture_transcripts(sf_dir: str):
    info = ensure_fixture(sf_dir)
    from ..sources.io import read_parquet_clean

    return read_parquet_clean(info["transcripts"])


def _docs(sf_dir: str, subset: bool):
    t = _fixture_transcripts(sf_dir)
    if subset:
        t = _subset_filter_ray(t)
    return canonicalize(t, num_buckets=32)


def _broadcast_limit_env() -> int | None:
    """GRAFT_BROADCAST_LIMIT=0 forces every broadcast gate (verify, set-sim
    and edit joins, attach_pairs) onto its join path (the beyond-broadcast
    100x-scale path) so the oracle tests and the bench can exercise it
    end-to-end."""
    v = os.environ.get("GRAFT_BROADCAST_LIMIT")
    return int(v) if v is not None else None


def _cfg(**kw) -> PipelineConfig:
    base = dict(num_buckets=32, pair_partitions=32)
    bl = _broadcast_limit_env()
    if bl is not None:
        base.update(broadcast_limit=bl, broadcast_bytes_limit=bl)
    base.update(kw)
    return PipelineConfig(**base)


# ---------------------------------------------------------------------------
# transcript queries
# ---------------------------------------------------------------------------


def q_canonicalize(sf_dir: str):
    d = _docs(sf_dir, subset=False)
    return d.select_columns(["conv_id", "doc", "head", "n_turns", "n_chars"])


SQL_CANONICALIZE = f"""WITH {_DOCS_CTE}
SELECT conv_id, doc, head, n_turns, length(doc)::BIGINT AS n_chars FROM docs"""


def q_token_df(sf_dir: str):
    """Token string -> document frequency (df >= 2), dlm tokenizer on doc."""
    d = _docs(sf_dir, subset=False)
    from ..functions.tokenize import DLM_DELIMS  # noqa: F401  (delims doc)

    import pyarrow.compute as pc
    import re as _re
    from ..config import DLM_DELIMS as _D

    def explode(t: pa.Table) -> pa.Table:
        arr = pc.fill_null(t.column("doc"), "")
        la = pc.split_pattern_regex(arr, pattern="[" + _re.escape(_D) + "]+")
        la = la.combine_chunks() if isinstance(la, pa.ChunkedArray) else la
        offs = np.asarray(la.offsets)
        rows = np.repeat(np.arange(len(la)), np.diff(offs))
        flat = la.flatten()
        keep = np.asarray(pc.greater(pc.binary_length(flat), 0))
        toks = np.asarray(flat.to_numpy(zero_copy_only=False), dtype=object)[keep]
        rows = rows[keep]
        # per-record dedup then per-batch partial df
        df = pd.DataFrame({"r": rows, "tok": toks}).drop_duplicates()
        part = df.groupby("tok", sort=False).size().reset_index(name="df")
        return pa.table({"tok": pa.array(part["tok"], pa.string()),
                         "df": pa.array(part["df"].to_numpy(np.int64), pa.int64())})

    from ray.data.aggregate import Sum

    agg = d.map_batches(explode, batch_format="pyarrow").groupby("tok").aggregate(
        Sum("df", alias_name="df")
    )
    return agg.map_batches(
        lambda df: df[df["df"] >= 2], batch_format="pandas"
    )


SQL_TOKEN_DF = f"""WITH {_DOCS_CTE}, sub AS (SELECT * FROM docs), {_TOKS_CTE}
SELECT tok, count(*)::BIGINT AS df FROM toks GROUP BY tok HAVING count(*) >= 2"""


def q_token_df_qgram(sf_dir: str):
    """q-gram (q=3) token string -> document frequency (df >= 2) on the head
    attribute: windows of maximal alphanumeric runs, per-record dedup +
    partial combine before the groupby (string2TokensQGram semantics,
    tokenizer.cc:49-86; the hashed production path is tokenize_array)."""
    d = _docs(sf_dir, subset=True)
    import pyarrow.compute as pc

    def explode(t: pa.Table) -> pa.Table:
        arr = pc.fill_null(t.column("head"), "")
        la = pc.split_pattern_regex(arr, pattern="[^a-zA-Z0-9]+")
        la = la.combine_chunks() if isinstance(la, pa.ChunkedArray) else la
        offs = np.asarray(la.offsets)
        rows = np.repeat(np.arange(len(la)), np.diff(offs))
        flat = la.flatten()
        runs = pd.Series(np.asarray(flat.to_numpy(zero_copy_only=False), dtype=object))
        lens = runs.str.len().to_numpy()
        keep = lens >= 3
        runs, rows, lens = runs[keep].reset_index(drop=True), rows[keep], lens[keep]
        parts = []
        # vectorized per window offset (bounded by the longest run)
        for i in range(int(lens.max()) - 2 if len(lens) else 0):
            ok = lens >= i + 3
            parts.append(pd.DataFrame({"r": rows[ok],
                                       "tok": runs[ok].str.slice(i, i + 3).to_numpy()}))
        if not parts:
            return pa.table({"tok": pa.array([], pa.string()),
                             "df": pa.array([], pa.int64())})
        df = pd.concat(parts).drop_duplicates()
        part = df.groupby("tok", sort=False).size().reset_index(name="df")
        return pa.table({"tok": pa.array(part["tok"], pa.string()),
                         "df": pa.array(part["df"].to_numpy(np.int64), pa.int64())})

    from ray.data.aggregate import Sum

    agg = d.map_batches(explode, batch_format="pyarrow").groupby("tok").aggregate(
        Sum("df", alias_name="df")
    )
    import pyarrow.compute as _pc

    return agg.map_batches(
        lambda t: t.filter(_pc.greater_equal(t.column("df"), 2)),
        batch_format="pyarrow",
    )


SQL_TOKEN_DF_QGRAM = f"""WITH {_DOCS_CTE}, {_SUB_CTE},
runs AS (SELECT conv_id, unnest(list_filter(
  string_split_regex(head, '[^a-zA-Z0-9]+'), x -> length(x) >= 3)) AS run FROM sub),
-- lateral unnest of a per-run series: exact for ANY run length (no cap)
grams AS (SELECT DISTINCT conv_id, substr(run, CAST(i AS INTEGER), 3) AS tok
          FROM runs, unnest(generate_series(1, length(run) - 2)) AS t(i))
SELECT tok, count(*)::BIGINT AS df FROM grams GROUP BY tok HAVING count(*) >= 2"""


def _block_setsim(sf_dir: str, sim: str, threshold: float):
    d = _docs(sf_dir, subset=True)
    toks = B.tokenize_docs(d, "doc", "dlm")
    return B.setsim_self_join(toks.materialize(), sim=sim, threshold=threshold, cfg=_cfg())


def q_block_jac(sf_dir: str):
    return _block_setsim(sf_dir, "jac", 0.5)


SQL_BLOCK_JAC = f"""WITH {_DOCS_CTE}, {_SUB_CTE}, {_TOKS_CTE}, {_SIZES_CTE}, {_INTER_CTE}, {_PAIR_SIMS}
SELECT id1, id2, o * 1.0 / (la + lb - o) AS sim FROM pairsims
WHERE o * 1.0 / (la + lb - o) >= 0.5"""


def q_block_dice(sf_dir: str):
    return _block_setsim(sf_dir, "dice", 0.65)


SQL_BLOCK_DICE = f"""WITH {_DOCS_CTE}, {_SUB_CTE}, {_TOKS_CTE}, {_SIZES_CTE}, {_INTER_CTE}, {_PAIR_SIMS}
SELECT id1, id2, 2.0 * o / (la + lb) AS sim FROM pairsims
WHERE 2.0 * o / (la + lb) >= 0.65"""


def q_block_overlap(sf_dir: str):
    return _block_setsim(sf_dir, "overlap", 8)


SQL_BLOCK_OVERLAP = f"""WITH {_DOCS_CTE}, {_SUB_CTE}, {_TOKS_CTE}, {_INTER_CTE}
SELECT id1, id2, o * 1.0 AS sim FROM inter WHERE o >= 8"""


def q_block_exm_head(sf_dir: str):
    d = _docs(sf_dir, subset=False)
    return B.exact_self_join(d, "head", _cfg()).select_columns(["id1", "id2"])


SQL_BLOCK_EXM_HEAD = f"""WITH {_DOCS_CTE}
SELECT a.conv_id AS id1, b.conv_id AS id2 FROM docs a JOIN docs b
ON a.head = b.head AND a.conv_id < b.conv_id"""


def q_block_anm_turns(sf_dir: str):
    d = _docs(sf_dir, subset=True)
    return B.anm_self_join(d, "n_turns", 0.8, _cfg())


SQL_BLOCK_ANM = f"""WITH {_DOCS_CTE}, {_SUB_CTE}
SELECT a.conv_id AS id1, b.conv_id AS id2,
       CASE WHEN abs(a.n_turns - b.n_turns) * 1.0
                 / greatest(a.n_turns, b.n_turns) <= 1e-5 THEN 1.0
            ELSE 1.0 - abs(a.n_turns - b.n_turns) * 1.0
                 / greatest(a.n_turns, b.n_turns) END AS sim
FROM sub a JOIN sub b ON a.conv_id < b.conv_id
WHERE (CASE WHEN abs(a.n_turns - b.n_turns) * 1.0
                 / greatest(a.n_turns, b.n_turns) <= 1e-5 THEN 1.0
            ELSE 1.0 - abs(a.n_turns - b.n_turns) * 1.0
                 / greatest(a.n_turns, b.n_turns) END) >= 0.8"""


def q_block_lev_head(sf_dir: str):
    d = _docs(sf_dir, subset=True)
    return edit_self_join(d, "head", 2, _cfg())


SQL_BLOCK_LEV = f"""WITH {_DOCS_CTE}, {_SUB_CTE}
SELECT a.conv_id AS id1, b.conv_id AS id2,
       levenshtein(a.head, b.head) * 1.0 AS sim
FROM sub a JOIN sub b ON a.conv_id < b.conv_id
WHERE levenshtein(a.head, b.head) <= 2"""


def q_block_lev_sim(sf_dir: str):
    """NORMALIZED-lev self-join (lev_sim >= 0.94) on 24-char head prefixes
    with ONE planted 400-char outlier — the skewed-length corpus that forces
    editjoin.lev_sim_self_join's length-class decomposition (per-class
    PassJoins + adjacent-class RS joins): without it the outlier inflates
    the single corpus-wide distance bound to K = (1-s)*400 = 24 for EVERY
    record (PassJoin emission degrades ~quadratically in K), and
    non-adjacent classes proving the outlier can't pair is exactly the
    exactness property the DuckDB brute-force twin pins."""
    import pyarrow.compute as pc

    from ..stages.editjoin import lev_sim_self_join

    d = _docs(sf_dir, subset=True).map_batches(
        lambda t: pa.table({
            "conv_id": t.column("conv_id"),
            "head": pc.utf8_slice_codeunits(
                pc.fill_null(pc.cast(t.column("head"), pa.string()), ""), 0, 24),
        }),
        batch_format="pyarrow")
    outlier = ray.data.from_arrow(pa.table({
        "conv_id": pa.array(["zzz_levsim_outlier"], pa.string()),
        "head": pa.array(["x" * 400], pa.string()),
    }))
    return lev_sim_self_join(d.union(outlier), "head", 0.94, _cfg())


# identical IEEE expression on both sides (1.0 - d/max as doubles) and the
# same epsilon-relaxed threshold as the engine's exact filter
# (editjoin.py lev_sim filt: sim >= s - 1e-12), so the value-hash matches
# bit-for-bit; the length-ratio prefilter (lev >= |la-lb|) keeps the
# brute-force twin cheap
SQL_BLOCK_LEV_SIM = f"""WITH {_DOCS_CTE}, {_SUB_CTE},
vals AS (SELECT conv_id, substr(coalesce(head, ''), 1, 24) AS head FROM sub
         UNION ALL SELECT 'zzz_levsim_outlier' AS conv_id, repeat('x', 400) AS head),
p AS (SELECT a.conv_id AS id1, b.conv_id AS id2,
             CASE WHEN greatest(length(a.head), length(b.head)) = 0 THEN 1.0
                  ELSE 1.0 - levenshtein(a.head, b.head) * 1.0
                       / greatest(length(a.head), length(b.head)) END AS sim
      FROM vals a JOIN vals b ON a.conv_id < b.conv_id
      WHERE least(length(a.head), length(b.head)) * 1.0
            >= 0.94 * greatest(length(a.head), length(b.head)) - 2.0)
SELECT id1, id2, sim FROM p WHERE sim >= 0.94 - 1e-12"""


def q_block_rules_union(sf_dir: str):
    """OR-union of three rules with passed_rules count
    (blocker_util.cc:8-108 semantics)."""
    from .er import union_rules

    d = _docs(sf_dir, subset=True).materialize()
    toks = B.tokenize_docs(d, "doc", "dlm").materialize()
    cfg = _cfg()
    r1 = B.setsim_self_join(toks, sim="jac", threshold=0.5, cfg=cfg)
    r2 = B.setsim_self_join(toks, sim="overlap", threshold=8, cfg=cfg)
    r3 = B.exact_self_join(d, "head", cfg)
    return union_rules([r1, r2, r3], cfg).select_columns(["id1", "id2", "passed_rules"])


SQL_BLOCK_RULES_UNION = f"""WITH {_DOCS_CTE}, {_SUB_CTE}, {_TOKS_CTE}, {_SIZES_CTE}, {_INTER_CTE}, {_PAIR_SIMS},
r1 AS (SELECT id1, id2 FROM pairsims WHERE o * 1.0 / (la + lb - o) >= 0.5),
r2 AS (SELECT id1, id2 FROM pairsims WHERE o >= 8),
r3 AS (SELECT a.conv_id AS id1, b.conv_id AS id2 FROM sub a JOIN sub b
       ON a.head = b.head AND a.conv_id < b.conv_id),
un AS (SELECT * FROM r1 UNION ALL SELECT * FROM r2 UNION ALL SELECT * FROM r3)
SELECT id1, id2, count(*)::BIGINT AS passed_rules FROM un GROUP BY id1, id2"""


def q_block_jac_weighted(sf_dir: str):
    """IDF-weighted jaccard self-join (the reference's isIdfWeighted path,
    block_main.cc arg + simfunc.h:37-38): wordwt = log10(N/df), weighted
    prefix filter, exact weighted verify.  Sims rounded to 9 decimals on
    BOTH sides so float summation order cannot flip the hash compare."""
    from ..stages.weighted import setsim_self_join_weighted

    d = _docs(sf_dir, subset=True)
    toks = B.tokenize_docs(d, "doc", "dlm").materialize()
    return setsim_self_join_weighted(toks, sim="jac", threshold=0.4, cfg=_cfg(), round_to=9)


SQL_BLOCK_JAC_WEIGHTED = f"""WITH {_DOCS_CTE}, {_SUB_CTE},
alltoks AS (SELECT conv_id, unnest(list_distinct(list_filter(
  string_split_regex(doc, '{_DLM_RE_SQL}'), x -> x <> ''))) AS tok FROM sub),
n AS (SELECT count(*)::DOUBLE AS nrec FROM sub),
dfs AS (SELECT tok, count(*)::BIGINT AS df FROM alltoks GROUP BY tok),
tokw AS (SELECT a.conv_id, a.tok, log10((SELECT nrec FROM n) / d.df) AS w, d.df
         FROM alltoks a JOIN dfs d ON a.tok = d.tok),
recw AS (SELECT conv_id, sum(w) AS wrec FROM tokw GROUP BY conv_id),
interw AS (SELECT a.conv_id AS id1, b.conv_id AS id2, sum(a.w) AS ow
           FROM tokw a JOIN tokw b ON a.tok = b.tok AND a.conv_id < b.conv_id
           GROUP BY 1, 2)
SELECT i.id1, i.id2, round(i.ow / (ra.wrec + rb.wrec - i.ow), 9) AS sim
FROM interw i JOIN recw ra ON i.id1 = ra.conv_id JOIN recw rb ON i.id2 = rb.conv_id
WHERE round(i.ow / (ra.wrec + rb.wrec - i.ow), 9) >= 0.4"""


# --- RS (two-table A x B) blocking queries ---------------------------------
# A = conv suffix % 8 == 0, B = conv suffix % 8 == 1 (disjoint tables)

_SUBSET_A = f"(CAST(substr(conv_id, 5) AS INTEGER) % {SUBSET_MOD}) = 0"
_SUBSET_B = f"(CAST(substr(conv_id, 5) AS INTEGER) % {SUBSET_MOD}) = 1"

_RS_CTES = (
    f"suba AS (SELECT * FROM docs WHERE {_SUBSET_A}), "
    f"subb AS (SELECT * FROM docs WHERE {_SUBSET_B}), "
    "toksa AS (SELECT conv_id, unnest(list_distinct(list_filter("
    f"string_split_regex(doc, '{_DLM_RE_SQL}'), x -> x <> ''))) AS tok FROM suba), "
    "toksb AS (SELECT conv_id, unnest(list_distinct(list_filter("
    f"string_split_regex(doc, '{_DLM_RE_SQL}'), x -> x <> ''))) AS tok FROM subb), "
    "sizesa AS (SELECT conv_id, count(*)::BIGINT AS l FROM toksa GROUP BY conv_id), "
    "sizesb AS (SELECT conv_id, count(*)::BIGINT AS l FROM toksb GROUP BY conv_id), "
    "interrs AS (SELECT a.conv_id AS id1, b.conv_id AS id2, count(*)::BIGINT AS o "
    "FROM toksa a JOIN toksb b ON a.tok = b.tok GROUP BY 1, 2), "
    "pairsrs AS (SELECT i.id1, i.id2, i.o, sa.l AS la, sb.l AS lb FROM interrs i "
    "JOIN sizesa sa ON i.id1 = sa.conv_id JOIN sizesb sb ON i.id2 = sb.conv_id)"
)


def _rs_mod_filter(ds, rem: int):
    import pyarrow.compute as pc

    def f(t: pa.Table) -> pa.Table:
        n = np.asarray(pc.cast(pc.utf8_slice_codeunits(t.column("conv_id"), 4, 99), pa.int64()))
        return t.filter(pa.array(n % SUBSET_MOD == rem))

    return ds.map_batches(f, batch_format="pyarrow")


def _rs_docs(sf_dir: str):
    t = _fixture_transcripts(sf_dir)
    d = canonicalize(t, num_buckets=32).materialize()
    return _rs_mod_filter(d, 0).materialize(), _rs_mod_filter(d, 1).materialize()


def _rs_setsim(sf_dir: str, sim: str, threshold):
    a, b = _rs_docs(sf_dir)
    toks_a = B.tokenize_docs(a, "doc", "dlm").materialize()
    toks_b = B.tokenize_docs(b, "doc", "dlm").materialize()
    return B.setsim_rs_join(toks_a, toks_b, sim=sim, threshold=threshold, cfg=_cfg())


def q_block_jac_rs(sf_dir: str):
    return _rs_setsim(sf_dir, "jac", 0.5)


SQL_BLOCK_JAC_RS = f"""WITH {_DOCS_CTE}, {_RS_CTES}
SELECT id1, id2, o * 1.0 / (la + lb - o) AS sim FROM pairsrs
WHERE o * 1.0 / (la + lb - o) >= 0.5"""


def q_block_overlap_rs(sf_dir: str):
    return _rs_setsim(sf_dir, "overlap", 8)


SQL_BLOCK_OVERLAP_RS = f"""WITH {_DOCS_CTE}, {_RS_CTES}
SELECT id1, id2, o * 1.0 AS sim FROM pairsrs WHERE o >= 8"""


def q_block_jac_weighted_rs(sf_dir: str):
    """IDF-weighted jaccard RS join: combined A ∪ B dictionary
    (RStableAttr2IntVector semantics), weighted grid-salted prefix filter,
    exact weighted verify; sims rounded to 9 decimals on both sides."""
    from ..stages.weighted import setsim_rs_join_weighted

    a, b = _rs_docs(sf_dir)
    toks_a = B.tokenize_docs(a, "doc", "dlm").materialize()
    toks_b = B.tokenize_docs(b, "doc", "dlm").materialize()
    return setsim_rs_join_weighted(toks_a, toks_b, sim="jac", threshold=0.4,
                                   cfg=_cfg(), round_to=9)


SQL_BLOCK_JAC_WEIGHTED_RS = f"""WITH {_DOCS_CTE}, {_RS_CTES},
alltoks AS (SELECT * FROM toksa UNION ALL SELECT * FROM toksb),
n AS (SELECT ((SELECT count(*) FROM suba) + (SELECT count(*) FROM subb))::DOUBLE AS nrec),
dfs AS (SELECT tok, count(*)::BIGINT AS df FROM alltoks GROUP BY tok),
tokwa AS (SELECT a.conv_id, a.tok, log10((SELECT nrec FROM n) / d.df) AS w
          FROM toksa a JOIN dfs d ON a.tok = d.tok),
tokwb AS (SELECT b.conv_id, b.tok, log10((SELECT nrec FROM n) / d.df) AS w
          FROM toksb b JOIN dfs d ON b.tok = d.tok),
recwa AS (SELECT conv_id, sum(w) AS wrec FROM tokwa GROUP BY conv_id),
recwb AS (SELECT conv_id, sum(w) AS wrec FROM tokwb GROUP BY conv_id),
interw AS (SELECT a.conv_id AS id1, b.conv_id AS id2, sum(a.w) AS ow
           FROM tokwa a JOIN tokwb b ON a.tok = b.tok GROUP BY 1, 2)
SELECT i.id1, i.id2, round(i.ow / (ra.wrec + rb.wrec - i.ow), 9) AS sim
FROM interw i JOIN recwa ra ON i.id1 = ra.conv_id JOIN recwb rb ON i.id2 = rb.conv_id
WHERE round(i.ow / (ra.wrec + rb.wrec - i.ow), 9) >= 0.4"""


def q_block_exm_rs(sf_dir: str):
    a, b = _rs_docs(sf_dir)
    return B.exact_rs_join(a, b, "head", _cfg()).select_columns(["id1", "id2"])


SQL_BLOCK_EXM_RS = f"""WITH {_DOCS_CTE},
suba AS (SELECT * FROM docs WHERE {_SUBSET_A}),
subb AS (SELECT * FROM docs WHERE {_SUBSET_B})
SELECT a.conv_id AS id1, b.conv_id AS id2 FROM suba a JOIN subb b ON a.head = b.head"""


def q_block_anm_rs(sf_dir: str):
    a, b = _rs_docs(sf_dir)
    return B.anm_rs_join(a, b, "n_turns", 0.8, _cfg())


SQL_BLOCK_ANM_RS = f"""WITH {_DOCS_CTE},
suba AS (SELECT * FROM docs WHERE {_SUBSET_A}),
subb AS (SELECT * FROM docs WHERE {_SUBSET_B})
SELECT a.conv_id AS id1, b.conv_id AS id2,
       CASE WHEN abs(a.n_turns - b.n_turns) * 1.0
                 / greatest(a.n_turns, b.n_turns) <= 1e-5 THEN 1.0
            ELSE 1.0 - abs(a.n_turns - b.n_turns) * 1.0
                 / greatest(a.n_turns, b.n_turns) END AS sim
FROM suba a JOIN subb b ON true
WHERE (CASE WHEN abs(a.n_turns - b.n_turns) * 1.0
                 / greatest(a.n_turns, b.n_turns) <= 1e-5 THEN 1.0
            ELSE 1.0 - abs(a.n_turns - b.n_turns) * 1.0
                 / greatest(a.n_turns, b.n_turns) END) >= 0.8"""


def q_block_lev_rs(sf_dir: str):
    from ..stages.editjoin import edit_rs_join

    a, b = _rs_docs(sf_dir)
    return edit_rs_join(a, b, "head", 2, _cfg())


SQL_BLOCK_LEV_RS = f"""WITH {_DOCS_CTE},
suba AS (SELECT * FROM docs WHERE {_SUBSET_A}),
subb AS (SELECT * FROM docs WHERE {_SUBSET_B})
SELECT a.conv_id AS id1, b.conv_id AS id2,
       levenshtein(a.head, b.head) * 1.0 AS sim
FROM suba a JOIN subb b ON true
WHERE levenshtein(a.head, b.head) <= 2"""


def q_topk_blended(sf_dir: str):
    """Top-50 pairs by blended 4-sim score (TA top-k semantics,
    topk.cc:60-94 + 539-649: output-size cap with deterministic ties) —
    per-block partial heaps + tiny driver merge, never a full driver sort."""
    from ..stages.topk import blended_score_pairs, topk_pairs

    d = _docs(sf_dir, subset=True)
    toks = B.tokenize_docs(d, "doc", "dlm").materialize()
    cfg = _cfg()
    pairs = B.setsim_self_join(toks, sim="overlap", threshold=1, cfg=cfg)
    scored = blended_score_pairs(pairs, toks)
    return topk_pairs(scored, 50)


SQL_TOPK_BLENDED = f"""WITH {_DOCS_CTE}, {_SUB_CTE}, {_TOKS_CTE}, {_SIZES_CTE}, {_INTER_CTE}, {_PAIR_SIMS}
SELECT id1, id2,
       o * 1.0 / (la + lb - o) + o * 1.0 / sqrt(la * 1.0 * lb)
       + 2.0 * o / (la + lb) + o * 1.0 / least(la, lb) AS score
FROM pairsims
ORDER BY score DESC, id1, id2 LIMIT 50"""


def q_block_fused_union(sf_dir: str):
    """FUSED multi-rule blocking via pipelines.er.block: jac+cos rules over
    ONE dlm tokenization run as a single signature->pairgen->verify pass
    (setsim_self_join_multi), plus an exm rule — output-identical to per-rule
    joins + OR-union (blocker_util.cc:8-108), at ~the cost of the loosest
    single rule."""
    from .er import block

    d = _docs(sf_dir, subset=True).materialize()
    cfg = _cfg(rules=[
        BlockingRule("doc", "jac", "dlm", threshold=0.5),
        BlockingRule("doc", "cos", "dlm", threshold=0.55),
        BlockingRule("head", "exm"),
    ])
    return block(d, cfg).select_columns(["id1", "id2", "passed_rules"])


SQL_BLOCK_FUSED_UNION = f"""WITH {_DOCS_CTE}, {_SUB_CTE}, {_TOKS_CTE}, {_SIZES_CTE}, {_INTER_CTE}, {_PAIR_SIMS},
r1 AS (SELECT id1, id2 FROM pairsims WHERE o * 1.0 / (la + lb - o) >= 0.5),
r2 AS (SELECT id1, id2 FROM pairsims WHERE o * 1.0 / sqrt(la * 1.0 * lb) >= 0.55),
r3 AS (SELECT a.conv_id AS id1, b.conv_id AS id2 FROM sub a JOIN sub b
       ON a.head = b.head AND a.conv_id < b.conv_id),
un AS (SELECT * FROM r1 UNION ALL SELECT * FROM r2 UNION ALL SELECT * FROM r3)
SELECT id1, id2, count(*)::BIGINT AS passed_rules FROM un GROUP BY id1, id2"""


def q_topk_allscore(sf_dir: str):
    """Top-50 by the weighted all-similarity score (estimateDensity weights
    feeding topKviaAllSimilarityScoreSelf, topk.cc:1297-1460).  Weights are
    FIXED constants here so the SQL twin can reproduce the score exactly;
    the data-dependent F1 weighting itself is pytest-oracled
    (tests/test_density.py)."""
    from ..stages.density import allscore_topk

    d = _docs(sf_dir, subset=True).materialize()
    toks = B.tokenize_docs(d, "doc", "dlm").materialize()
    pairs = B.setsim_self_join(toks, sim="overlap", threshold=1, cfg=_cfg())
    rules = [
        BlockingRule(attr="doc", sim="jac", tok="dlm", threshold=0.0),
        BlockingRule(attr="head", sim="exm", tok="none", threshold=1.0),
        BlockingRule(attr="doc", sim="cos", tok="dlm", threshold=0.0),
    ]
    return allscore_topk(pairs, d, rules, [0.5, 0.2, 0.3], 50)


SQL_TOPK_ALLSCORE = f"""WITH {_DOCS_CTE}, {_SUB_CTE}, {_TOKS_CTE}, {_SIZES_CTE}, {_INTER_CTE}, {_PAIR_SIMS}
SELECT p.id1, p.id2,
       0.5 * (o * 1.0 / (la + lb - o))
       + 0.2 * (CASE WHEN da.head = db.head THEN 1.0 ELSE 0.0 END)
       + 0.3 * (o * 1.0 / sqrt(la * 1.0 * lb)) AS score
FROM pairsims p JOIN sub da ON p.id1 = da.conv_id JOIN sub db ON p.id2 = db.conv_id
ORDER BY score DESC, p.id1, p.id2 LIMIT 50"""


def q_topk_allscore_weighted(sf_dir: str):
    """isWeighted all-score top-50 (topk.cc weighted branch): IDF-weighted
    jaccard on doc + exact-match on head, fixed weights, rounded to 9
    decimals on both sides for hash-stable ties."""
    from ..stages.density import allscore_topk_weighted

    d = _docs(sf_dir, subset=True).materialize()
    toks = B.tokenize_docs(d, "doc", "dlm").materialize()
    pairs = B.setsim_self_join(toks, sim="overlap", threshold=1, cfg=_cfg())
    rules = [
        BlockingRule(attr="doc", sim="jac", tok="dlm", threshold=0.0),
        BlockingRule(attr="head", sim="exm", tok="none", threshold=1.0),
    ]
    return allscore_topk_weighted(pairs, d, rules, [0.7, 0.3], 50, round_to=9)


SQL_TOPK_ALLSCORE_WEIGHTED = f"""WITH {_DOCS_CTE}, {_SUB_CTE},
alltoks AS (SELECT conv_id, unnest(list_distinct(list_filter(
  string_split_regex(doc, '{_DLM_RE_SQL}'), x -> x <> ''))) AS tok FROM sub),
n AS (SELECT count(*)::DOUBLE AS nrec FROM sub),
dfs AS (SELECT tok, count(*)::BIGINT AS df FROM alltoks GROUP BY tok),
tokw AS (SELECT a.conv_id, a.tok,
                log10((SELECT nrec FROM n) / d.df) AS w
         FROM alltoks a JOIN dfs d ON a.tok = d.tok),
recw AS (SELECT conv_id, sum(w) AS wrec FROM tokw GROUP BY conv_id),
interw AS (SELECT a.conv_id AS id1, b.conv_id AS id2, sum(a.w) AS ow,
                  count(*)::BIGINT AS o
           FROM tokw a JOIN tokw b ON a.tok = b.tok AND a.conv_id < b.conv_id
           GROUP BY 1, 2)
SELECT i.id1, i.id2,
       round(0.7 * (i.ow / (ra.wrec + rb.wrec - i.ow))
             + 0.3 * (CASE WHEN da.head = db.head AND da.head <> '' AND db.head <> ''
                           THEN 1.0 ELSE 0.0 END), 9) AS score
FROM interw i
JOIN recw ra ON i.id1 = ra.conv_id JOIN recw rb ON i.id2 = rb.conv_id
JOIN sub da ON i.id1 = da.conv_id JOIN sub db ON i.id2 = db.conv_id
WHERE i.o >= 1
ORDER BY score DESC, i.id1, i.id2 LIMIT 50"""


def q_sample_down(sf_dir: str):
    """Down-sampling training candidates (DownSampler::sample semantics).
    Seeded-random but DETERMINISTIC: with id_hash64="md5" the probe picks
    (splitmix of the md5 id hash vs the frac cutoff) and the per-token
    hot-list cap order are md5-reproducible, so the SQL twin replays the
    exact sample.  Exposure: a 64-bit pandas token-hash collision could
    merge two inverted lists on the Ray side only (~2^-64, documented)."""
    from ..stages.sampler import down_sample

    d = _docs(sf_dir, subset=True).materialize()
    return down_sample(d, attr="doc", n=400, y=20, cfg=_cfg(), id_hash64="md5")


def _sql_sample_down(n: int = 400, y: int = 20, seed: int = 42,
                     max_list: int = 200) -> str:
    """SQL twin of q_sample_down: same splitmix-style probe pick over
    md5_number_lower(conv_id), same (side, id-hash) capped inverted lists,
    probes x full list, canonical distinct pairs."""
    seedmix = (seed * 0x9E3779B97F4A7C15) % (1 << 64)
    c1 = 0xBF58476D1CE4E5B9
    two64 = 1 << 64
    n_probes = max(1, n // y)
    return f"""WITH {_DOCS_CTE}, {_SUB_CTE}, {_TOKS_CTE},
cut AS (SELECT CAST(trunc(least(1.0, {n_probes}.0 / greatest(count(*), 1))
                          * 9223372036854775807.0) AS UBIGINT) * 2 AS c FROM sub),
picked AS (
  SELECT conv_id, mh,
         xor(m2, m2 >> 27) < (SELECT c FROM cut) AS is_probe
  FROM (
    SELECT conv_id, mh,
           CAST((xor(s, s >> 30)::UHUGEINT * {c1}::UHUGEINT)
                % {two64}::UHUGEINT AS UBIGINT) AS m2
    FROM (SELECT conv_id, mh, xor(mh, {seedmix}::UBIGINT) AS s
          FROM (SELECT conv_id, md5_number_lower(conv_id) AS mh FROM sub)))),
ranked AS (
  SELECT t.tok, t.conv_id, p.is_probe,
         row_number() OVER (PARTITION BY t.tok
                            ORDER BY (CASE WHEN p.is_probe THEN 0 ELSE 1 END),
                                     p.mh) AS rn
  FROM toks t JOIN picked p ON t.conv_id = p.conv_id),
capped AS (SELECT * FROM ranked WHERE rn <= {max_list})
SELECT DISTINCT
  CASE WHEN a.conv_id < b.conv_id THEN a.conv_id ELSE b.conv_id END AS id1,
  CASE WHEN a.conv_id < b.conv_id THEN b.conv_id ELSE a.conv_id END AS id2
FROM capped a JOIN capped b
  ON a.tok = b.tok AND a.is_probe AND a.conv_id <> b.conv_id"""


def q_cluster_jac(sf_dir: str):
    """Connected components of the jac>=0.5 match graph (subset) with
    singleton conversations labeling themselves."""
    d = _docs(sf_dir, subset=True).materialize()
    toks = B.tokenize_docs(d, "doc", "dlm").materialize()
    pairs = B.setsim_self_join(toks, sim="jac", threshold=0.5, cfg=_cfg())
    return cluster_entities(pairs, d.select_columns(["conv_id"]), driver_limit=2_000_000)


SQL_CLUSTER_JAC = f"""WITH RECURSIVE {_DOCS_CTE}, {_SUB_CTE}, {_TOKS_CTE}, {_SIZES_CTE}, {_INTER_CTE}, {_PAIR_SIMS},
match AS (SELECT id1, id2 FROM pairsims WHERE o * 1.0 / (la + lb - o) >= 0.5),
edges AS (SELECT id1 AS a, id2 AS b FROM match UNION ALL SELECT id2, id1 FROM match),
reach(src, dst) AS (
  SELECT conv_id, conv_id FROM sub
  UNION
  SELECT r.src, e.b FROM reach r JOIN edges e ON r.dst = e.a
)
SELECT src AS conv_id, min(dst) AS entity_id FROM reach GROUP BY src"""


def q_megallen_wide(sf_dir: str):
    """Megallen wide pair table (io.cc:989-1069 format): jac pairs joined
    back to both sides' attributes by ``enrich_pairs``."""
    from ..stages.writers import enrich_pairs

    d = _docs(sf_dir, subset=True).materialize()
    toks = B.tokenize_docs(d, "doc", "dlm").materialize()
    cfg = _cfg()
    pairs = B.setsim_self_join(toks, sim="jac", threshold=0.5, cfg=cfg)
    wide = enrich_pairs(pairs.select_columns(["id1", "id2"]), d, ["head", "n_turns"],
                        num_partitions=8, broadcast_limit=cfg.broadcast_limit)
    return wide.rename_columns({"id1": "ltable_id", "id2": "rtable_id"})


SQL_MEGALLEN_WIDE = f"""WITH {_DOCS_CTE}, {_SUB_CTE}, {_TOKS_CTE}, {_SIZES_CTE}, {_INTER_CTE}, {_PAIR_SIMS},
match AS (SELECT id1, id2 FROM pairsims WHERE o * 1.0 / (la + lb - o) >= 0.5)
SELECT m.id1 AS ltable_id, m.id2 AS rtable_id,
       a.head AS ltable_head, b.head AS rtable_head,
       a.n_turns AS ltable_n_turns, b.n_turns AS rtable_n_turns
FROM match m JOIN sub a ON m.id1 = a.conv_id JOIN sub b ON m.id2 = b.conv_id"""


def q_er_f1_report(sf_dir: str):
    """Full ER pipeline vs planted gold: one-row metrics.  The SQL twin
    recomputes the ENTIRE pipeline independently — blocking rule union,
    the six mean-scored features (jac/cos/dice over doc dlm, jac over doc
    qgm3, jac over head dlm, cos over head qgm3 — the score_cols
    threshold_match averages with NaN->0), PRF vs the gold parquet, and
    connected-component cluster count via a recursive CTE.  f1 / recall are
    emitted unrounded with the same float op order on both sides."""
    from .er import run_pipeline

    info = ensure_fixture(sf_dir)
    gold = pd.read_parquet(info["gold_pairs"])
    t = _fixture_transcripts(sf_dir)
    cfg = _cfg(
        rules=[
            BlockingRule("doc", "jac", "dlm", threshold=0.5),
            BlockingRule("doc", "cos", "dlm", threshold=0.55),
            BlockingRule("head", "exm"),
        ],
        match_threshold=0.45,
    )
    res = run_pipeline(t, cfg, gold_pairs=gold)
    m = res["metrics"]["match_prf"]
    b = res["metrics"]["blocking_prf"]
    n_clusters = res["clusters"].to_pandas()["entity_id"].nunique()
    return pd.DataFrame(
        [
            {
                "match_tp": m["tp"], "match_fp": m["fp"], "match_fn": m["fn"],
                "match_f1": m["f1"],
                "blocking_recall": b["recall"],
                "n_clusters": int(n_clusters),
            }
        ]
    )


def _sql_er_f1() -> str:
    """Independent SQL recomputation of q_er_f1_report's whole pipeline
    (rules jac>=0.5 / cos>=0.55 on doc dlm + exm on head; threshold match at
    mean>=0.45 over the six set-sim features; recursive-CTE clustering).
    PRECONDITION (holds for the fixture): every doc has >= 1 dlm token, so
    the empty-clique pairs (jac(∅,∅)=1) the Ray join would add are absent."""
    gp = os.path.join(os.path.dirname(FIXTURE_SQL_PATH), "gold_pairs.parquet")
    sixth = "* (1.0/6)"
    return f"""WITH RECURSIVE {_DOCS_CTE},
toks_d AS (SELECT conv_id, unnest(list_distinct(list_filter(
  string_split_regex(doc, '{_DLM_RE_SQL}'), x -> x <> ''))) AS tok FROM docs),
sizes_d AS MATERIALIZED (SELECT conv_id, count(*)::BIGINT AS l FROM toks_d GROUP BY conv_id),
inter_d AS (SELECT a.conv_id AS id1, b.conv_id AS id2, count(*)::BIGINT AS o
            FROM toks_d a JOIN toks_d b ON a.tok = b.tok AND a.conv_id < b.conv_id
            GROUP BY 1, 2),
ps_d AS MATERIALIZED (SELECT i.id1, i.id2, i.o, sa.l AS la, sb.l AS lb FROM inter_d i
         JOIN sizes_d sa ON i.id1 = sa.conv_id JOIN sizes_d sb ON i.id2 = sb.conv_id),
cand AS MATERIALIZED (
  -- NB: top-level UNION inside a CTE body under WITH RECURSIVE gets
  -- recursive base/step semantics in DuckDB 1.0 (no dedup for
  -- non-self-referencing CTEs), so dedup explicitly over UNION ALL.
  SELECT DISTINCT id1, id2 FROM (
    SELECT id1, id2 FROM ps_d WHERE o * 1.0 / (la + lb - o) >= 0.5
    UNION ALL
    SELECT id1, id2 FROM ps_d WHERE o * 1.0 / sqrt(la * lb) >= 0.55
    UNION ALL
    SELECT a.conv_id, b.conv_id FROM docs a JOIN docs b
      ON a.head = b.head AND a.conv_id < b.conv_id)),
toks_h AS MATERIALIZED (SELECT conv_id, unnest(list_distinct(list_filter(
  string_split_regex(head, '{_DLM_RE_SQL}'), x -> x <> ''))) AS tok FROM docs),
sizes_h AS MATERIALIZED (SELECT conv_id, count(*)::BIGINT AS l FROM toks_h GROUP BY conv_id),
runs_dq AS (SELECT conv_id, unnest(list_filter(
  string_split_regex(doc, '[^a-zA-Z0-9]+'), x -> length(x) >= 3)) AS run FROM docs),
grams_dq AS MATERIALIZED (SELECT DISTINCT conv_id, substr(run, CAST(i AS INTEGER), 3) AS tok
             FROM runs_dq, unnest(generate_series(1, length(run) - 2)) AS t(i)),
sizes_dq AS MATERIALIZED (SELECT conv_id, count(*)::BIGINT AS l FROM grams_dq GROUP BY conv_id),
runs_hq AS (SELECT conv_id, unnest(list_filter(
  string_split_regex(head, '[^a-zA-Z0-9]+'), x -> length(x) >= 3)) AS run FROM docs),
grams_hq AS MATERIALIZED (SELECT DISTINCT conv_id, substr(run, CAST(i AS INTEGER), 3) AS tok
             FROM runs_hq, unnest(generate_series(1, length(run) - 2)) AS t(i)),
sizes_hq AS MATERIALIZED (SELECT conv_id, count(*)::BIGINT AS l FROM grams_hq GROUP BY conv_id),
o_h AS MATERIALIZED (SELECT c.id1, c.id2, count(*)::BIGINT AS o FROM cand c
        JOIN toks_h a ON a.conv_id = c.id1
        JOIN toks_h b ON b.conv_id = c.id2 AND b.tok = a.tok GROUP BY 1, 2),
o_dq AS MATERIALIZED (SELECT c.id1, c.id2, count(*)::BIGINT AS o FROM cand c
         JOIN grams_dq a ON a.conv_id = c.id1
         JOIN grams_dq b ON b.conv_id = c.id2 AND b.tok = a.tok GROUP BY 1, 2),
o_hq AS MATERIALIZED (SELECT c.id1, c.id2, count(*)::BIGINT AS o FROM cand c
         JOIN grams_hq a ON a.conv_id = c.id1
         JOIN grams_hq b ON b.conv_id = c.id2 AND b.tok = a.tok GROUP BY 1, 2),
feats AS MATERIALIZED (
  SELECT c.id1, c.id2,
    CASE WHEN COALESCE(sd1.l, 0) = 0 OR COALESCE(sd2.l, 0) = 0 THEN 0.0
         ELSE COALESCE(pd.o, 0) * 1.0 / (sd1.l + sd2.l - COALESCE(pd.o, 0)) END AS f1,
    CASE WHEN COALESCE(sd1.l, 0) = 0 OR COALESCE(sd2.l, 0) = 0 THEN 0.0
         ELSE COALESCE(pd.o, 0) * 1.0 / sqrt(sd1.l * sd2.l) END AS f2,
    CASE WHEN COALESCE(sd1.l, 0) = 0 OR COALESCE(sd2.l, 0) = 0 THEN 0.0
         ELSE 2.0 * COALESCE(pd.o, 0) / (sd1.l + sd2.l) END AS f3,
    CASE WHEN COALESCE(sq1.l, 0) = 0 OR COALESCE(sq2.l, 0) = 0 THEN 0.0
         ELSE COALESCE(dq.o, 0) * 1.0 / (sq1.l + sq2.l - COALESCE(dq.o, 0)) END AS f4,
    CASE WHEN COALESCE(sh1.l, 0) = 0 OR COALESCE(sh2.l, 0) = 0 THEN 0.0
         ELSE COALESCE(oh.o, 0) * 1.0 / (sh1.l + sh2.l - COALESCE(oh.o, 0)) END AS f5,
    CASE WHEN COALESCE(shq1.l, 0) = 0 OR COALESCE(shq2.l, 0) = 0 THEN 0.0
         ELSE COALESCE(hq.o, 0) * 1.0 / sqrt(shq1.l * shq2.l) END AS f6
  FROM cand c
  LEFT JOIN sizes_d sd1 ON sd1.conv_id = c.id1
  LEFT JOIN sizes_d sd2 ON sd2.conv_id = c.id2
  LEFT JOIN sizes_dq sq1 ON sq1.conv_id = c.id1
  LEFT JOIN sizes_dq sq2 ON sq2.conv_id = c.id2
  LEFT JOIN sizes_h sh1 ON sh1.conv_id = c.id1
  LEFT JOIN sizes_h sh2 ON sh2.conv_id = c.id2
  LEFT JOIN sizes_hq shq1 ON shq1.conv_id = c.id1
  LEFT JOIN sizes_hq shq2 ON shq2.conv_id = c.id2
  LEFT JOIN ps_d pd ON pd.id1 = c.id1 AND pd.id2 = c.id2
  LEFT JOIN o_h oh ON oh.id1 = c.id1 AND oh.id2 = c.id2
  LEFT JOIN o_dq dq ON dq.id1 = c.id1 AND dq.id2 = c.id2
  LEFT JOIN o_hq hq ON hq.id1 = c.id1 AND hq.id2 = c.id2),
matches AS MATERIALIZED (SELECT id1, id2 FROM feats
            WHERE f1 {sixth} + f2 {sixth} + f3 {sixth}
                + f4 {sixth} + f5 {sixth} + f6 {sixth} >= 0.45),
gold AS MATERIALIZED (SELECT id1, id2 FROM read_parquet('{gp}')),
edges AS MATERIALIZED (SELECT id1 AS a, id2 AS b FROM matches
          UNION ALL SELECT id2, id1 FROM matches),
reach(src, dst) AS (
  SELECT conv_id, conv_id FROM docs
  UNION
  SELECT r.src, e.b FROM reach r JOIN edges e ON r.dst = e.a),
counts AS (SELECT
  (SELECT count(*) FROM matches) AS n_pred,
  (SELECT count(*) FROM matches m JOIN gold g ON m.id1 = g.id1 AND m.id2 = g.id2) AS tp,
  (SELECT count(*) FROM gold) AS ng,
  (SELECT count(*) FROM cand c JOIN gold g ON c.id1 = g.id1 AND c.id2 = g.id2) AS btp,
  (SELECT count(DISTINCT e) FROM
     (SELECT src, min(dst) AS e FROM reach GROUP BY src)) AS n_clusters)
SELECT tp::BIGINT AS match_tp, (n_pred - tp)::BIGINT AS match_fp,
       (ng - tp)::BIGINT AS match_fn,
       CASE WHEN tp = 0 THEN 0.0 ELSE
         2 * (tp * 1.0 / n_pred) * (tp * 1.0 / ng)
           / ((tp * 1.0 / n_pred) + (tp * 1.0 / ng)) END AS match_f1,
       btp * 1.0 / ng AS blocking_recall,
       n_clusters::BIGINT AS n_clusters
FROM counts"""


def q_rule_recall(sf_dir: str):
    """Per-rule + per-passed-count recall table (Block::getRecall4Rules,
    cpp/blocker/block.cc:325-399): each rule's pair set vs gold, plus the
    union's exactly-i-rules buckets vs gold.  Gold broadcasts; all counts
    are map_batches partial sums (nothing collected)."""
    from ..stages.matcher import rule_recall_report
    from .er import union_rules

    info = ensure_fixture(sf_dir)
    gold = pd.read_parquet(info["gold_pairs"])
    d = _docs(sf_dir, subset=False).materialize()
    toks = B.tokenize_docs(d, "doc", "dlm").materialize()
    cfg = _cfg()
    jac = B.setsim_self_join(toks, sim="jac", threshold=0.5, cfg=cfg).materialize()
    cos = B.setsim_self_join(toks, sim="cos", threshold=0.55, cfg=cfg).materialize()
    exm = B.exact_self_join(d, "head", cfg).materialize()
    union = union_rules([jac, cos, exm], cfg)
    return rule_recall_report(
        {"doc_jac_dlm": jac, "doc_cos_dlm": cos, "head_exm": exm}, union, gold)


def _sql_rule_recall() -> str:
    """SQL twin of q_rule_recall over the same fixture + gold parquet.
    Same empty-clique precondition as _sql_er_f1 (every doc has a dlm
    token).  recall is tp*1.0/n_gold on both sides (identical IEEE op)."""
    gp = os.path.join(os.path.dirname(FIXTURE_SQL_PATH), "gold_pairs.parquet")
    return f"""WITH {_DOCS_CTE},
toks_d AS (SELECT conv_id, unnest(list_distinct(list_filter(
  string_split_regex(doc, '{_DLM_RE_SQL}'), x -> x <> ''))) AS tok FROM docs),
sizes_d AS (SELECT conv_id, count(*)::BIGINT AS l FROM toks_d GROUP BY conv_id),
inter_d AS MATERIALIZED (
  SELECT a.conv_id AS id1, b.conv_id AS id2, count(*)::BIGINT AS o
  FROM toks_d a JOIN toks_d b ON a.tok = b.tok AND a.conv_id < b.conv_id
  GROUP BY 1, 2),
ps_d AS MATERIALIZED (
  SELECT i.id1, i.id2, i.o, sa.l AS la, sb.l AS lb FROM inter_d i
  JOIN sizes_d sa ON i.id1 = sa.conv_id JOIN sizes_d sb ON i.id2 = sb.conv_id),
tagged AS MATERIALIZED (
  SELECT 'rule:doc_jac_dlm' AS key, id1, id2 FROM ps_d
    WHERE o * 1.0 / (la + lb - o) >= 0.5
  UNION ALL
  SELECT 'rule:doc_cos_dlm', id1, id2 FROM ps_d
    WHERE o * 1.0 / sqrt(la * lb) >= 0.55
  UNION ALL
  SELECT 'rule:head_exm', a.conv_id, b.conv_id FROM docs a JOIN docs b
    ON a.head = b.head AND a.conv_id < b.conv_id),
gold AS MATERIALIZED (SELECT id1, id2 FROM read_parquet('{gp}')),
ng AS (SELECT count(*)::BIGINT AS n FROM gold),
per_rule AS (
  SELECT t.key, count(*)::BIGINT AS n_pairs,
         count(g.id1)::BIGINT AS tp
  FROM tagged t LEFT JOIN gold g ON t.id1 = g.id1 AND t.id2 = g.id2
  GROUP BY t.key),
counts AS (
  SELECT id1, id2, count(*)::BIGINT AS pr FROM tagged GROUP BY id1, id2),
per_count AS (
  SELECT 'count:' || pr::VARCHAR AS key, count(*)::BIGINT AS n_pairs,
         count(g.id1)::BIGINT AS tp
  FROM counts c LEFT JOIN gold g ON c.id1 = g.id1 AND c.id2 = g.id2
  GROUP BY pr)
SELECT key, n_pairs, tp, tp * 1.0 / (SELECT n FROM ng) AS recall FROM per_rule
UNION ALL
SELECT key, n_pairs, tp, tp * 1.0 / (SELECT n FROM ng) AS recall FROM per_count"""


# ---------------------------------------------------------------------------
# testdata-table queries (documents / embeddings / events views)
# ---------------------------------------------------------------------------


def q_er_zeroer(sf_dir: str):
    """Unsupervised ZeroER matcher (reference matcher/zero_er) over the
    jac-blocking candidates' six set-sim features on the subset fixture:
    EM fits driver-side on the bounded pair set, scoring streams through
    the actor pool, and the positive-labeled pairs are returned.

    Rows-only — SQL-twin infeasibility note: the decision rule is
    ``log N(x; μ₁, Σ₁) − log N(x; μ₀, Σ₀) + log(π/(1−π)) > 0`` with
    (μ_c, Σ_c, π) the EM FIXED POINT of the two-component Gaussian mixture
    over the feature matrix.  Each EM step needs Σ_c⁻¹ and log|Σ_c| of
    6x6 covariance matrices rebuilt from the previous responsibilities
    (zeroer.py:138-260, plus the Bhattacharyya-kappa secant regularizer and
    the final transitivity repair over the match graph) — matrix inversion
    and an unbounded iterate-to-convergence loop have no ANSI-SQL/DuckDB
    form, and hard-coding fitted parameters into the SQL would make the
    'oracle' a copy of the engine's own output rather than an independent
    check.  Decision-level correctness is instead pytest-oracled on planted
    separable fixtures where the EM decisions provably equal a threshold
    rule (tests/test_zeroer.py)."""
    from ..stages.features import DEFAULT_FEATURES, extract_features
    from ..stages.zeroer import zeroer_match

    d = _docs(sf_dir, subset=True).materialize()
    toks = B.tokenize_docs(d, "doc", "dlm").materialize()
    pairs = B.setsim_self_join(toks, sim="jac", threshold=0.4, cfg=_cfg())
    feats = extract_features(pairs, d, DEFAULT_FEATURES)
    cols = [s.name for s in DEFAULT_FEATURES]
    out = zeroer_match(feats, cols)

    def pos(t: pa.Table) -> pa.Table:
        import pyarrow.compute as pc

        return t.filter(pc.equal(t.column("label"), 1)).select(["id1", "id2"])

    return out.map_batches(pos, batch_format="pyarrow")


def _read(sf_dir: str, table: str, columns=None):
    from ..sources.io import read_parquet_clean

    return read_parquet_clean(f"{sf_dir}/{table}.parquet", columns=columns)


def q_dedup_exact_docs(sf_dir: str):
    from ..stages.dedup import dedup_exact

    return dedup_exact(_read(sf_dir, "documents", ["doc_id", "text"]))


SQL_DEDUP_EXACT = "SELECT min(doc_id) AS doc_id, text FROM documents GROUP BY text"


# (fingerprint_md5 — md5 hex vs SQL md5() — is pytest-oracled in
# tests/test_text.py; its driver query was retired to keep the registry
# within the driver's 50-query check budget when block_lev_sim landed)


def q_dedup_token_jac_docs(sf_dir: str):
    """Exact near-dup pairs: alphanumeric-token jaccard >= 0.5 over all docs
    (the oracle twin of the MinHash-LSH scale path)."""
    # zero-pad ids so lexicographic pair canonicalization == numeric order
    docs = _read(sf_dir, "documents", ["doc_id", "text"]).map_batches(
        lambda df: pd.DataFrame(
            {"conv_id": df["doc_id"].astype(str).str.zfill(12), "doc": df["text"]}
        ),
        batch_format="pandas",
    )
    toks = B.tokenize_docs(docs, "doc", "alphanumeric").materialize()
    pairs = B.setsim_self_join(toks, sim="jac", threshold=0.5, cfg=_cfg())
    return pairs.map_batches(
        lambda df: pd.DataFrame(
            {"id1": df["id1"].astype(np.int64), "id2": df["id2"].astype(np.int64), "sim": df["sim"]}
        ).sort_values(["id1", "id2"]) if len(df) else
        pd.DataFrame({"id1": pd.Series(dtype=np.int64), "id2": pd.Series(dtype=np.int64),
                      "sim": pd.Series(dtype=float)}),
        batch_format="pandas",
    )


SQL_DEDUP_TOKEN_JAC = """WITH toks AS (
  SELECT doc_id, unnest(list_distinct(regexp_extract_all(text, '[a-zA-Z0-9]+'))) AS tok
  FROM documents),
sizes AS (SELECT doc_id, count(*)::BIGINT AS l FROM toks GROUP BY doc_id),
inter AS (SELECT a.doc_id AS id1, b.doc_id AS id2, count(*)::BIGINT AS o
          FROM toks a JOIN toks b ON a.tok = b.tok AND a.doc_id < b.doc_id GROUP BY 1, 2)
SELECT i.id1, i.id2, i.o * 1.0 / (sa.l + sb.l - i.o) AS sim
FROM inter i JOIN sizes sa ON i.id1 = sa.doc_id JOIN sizes sb ON i.id2 = sb.doc_id
WHERE i.o * 1.0 / (sa.l + sb.l - i.o) >= 0.5"""


def q_group_values(sf_dir: str):
    """Interchangeable-value grouping v1 (group_interchangeable semantics,
    interchangeable.py:162-205): near-dup doc pairs teach IC groups over the
    text values; rows-only (embedding-cosine grouping has no SQL twin)."""
    from ..stages.interchangeable import group_values

    docs = _read(sf_dir, "documents", ["doc_id", "text"]).map_batches(
        lambda df: pd.DataFrame(
            {"conv_id": df["doc_id"].astype(str).str.zfill(12), "doc": df["text"]}
        ),
        batch_format="pandas",
    ).materialize()
    toks = B.tokenize_docs(docs, "doc", "alphanumeric").materialize()
    matches = B.setsim_self_join(toks, sim="jac", threshold=0.5, cfg=_cfg())
    g = group_values(matches, docs, "doc", tau=0.8)
    return g.map_batches(
        lambda df: df.sort_values("val").reset_index(drop=True), batch_format="pandas"
    )


def q_ic_graph(sf_dir: str):
    """Semantic value graph with two-hop closure (cpp/group/graph.cc
    buildSemanticGraph + the two-hop round, graph.cc:95-156): near-dup doc
    pairs supply the candidate value pairs; edges are doc-embedding cosine
    >= tau; one closure round adds verified neighbor-of-neighbor edges.
    Rows-only (hashed-embedding cosine has no SQL twin; the brute-force
    oracle lives in tests/test_semantic_graph.py)."""
    from ..stages.semantic_graph import semantic_graph

    docs = _read(sf_dir, "documents", ["doc_id", "text"]).map_batches(
        lambda df: pd.DataFrame(
            {"conv_id": df["doc_id"].astype(str).str.zfill(12), "doc": df["text"]}
        ),
        batch_format="pandas",
    ).materialize()
    toks = B.tokenize_docs(docs, "doc", "alphanumeric").materialize()
    matches = B.setsim_self_join(toks, sim="jac", threshold=0.5, cfg=_cfg())
    g = semantic_graph(matches, docs, "doc", tau=0.8, two_hop=True)
    return g.map_batches(
        lambda df: df.sort_values(["val1", "val2"]).reset_index(drop=True),
        batch_format="pandas",
    )


def q_minhash_lsh_docs(sf_dir: str):
    """MinHash-LSH near-dup pairs, exact-verified.  LSH recall < 1, but the
    OUTPUT is still deterministic given the seeded permutations: pairs that
    agree on >= 1 of the 32 band signatures AND have exact token-jaccard >=
    threshold.  With hash64="md5" the SQL twin below reproduces the band
    signatures (min of (h*a+b) mod 2^64 per seeded perm) and the verify
    exactly.  Exposure: a 64-bit band-hash collision could ADD a candidate
    on the Ray side only (same odds the implementation documents).
    PRECONDITION: every doc has >= 1 alphanumeric token (holds for the
    generated documents table); tokenless docs band-agree with each other on
    the Ray side but vanish from the SQL toks CTE."""
    from ..stages.dedup import minhash_lsh_dedup

    bl = _broadcast_limit_env()
    out = minhash_lsh_dedup(_read(sf_dir, "documents", ["doc_id", "text"]),
                            threshold=0.5, hash64="md5",
                            **({"broadcast_limit": bl} if bl is not None else {}))
    return out.map_batches(
        lambda df: df.astype({"id1": np.int64, "id2": np.int64}) if len(df) else df,
        batch_format="pandas",
    )


def _sql_minhash_ctes(n_perm: int = 128, n_bands: int = 32, seed: int = 42) -> str:
    """CTE chain (no WITH keyword, no final SELECT) shared by the minhash
    oracle and the near-dup CC oracle, with the SAME seeded perm constants
    the Ray path caches (dedup._perms).  `th` is MATERIALIZED — it is
    referenced three times and re-inlines per reference otherwise."""
    from ..stages.dedup import _perms

    a, b = _perms(n_perm, seed)
    r = n_perm // n_bands
    vals = ",\n  ".join(
        f"({i}, {int(a[i])}::UBIGINT, {int(b[i])}::UBIGINT)" for i in range(n_perm))
    return f"""perms(i, a, b) AS (VALUES
  {vals}),
toks AS (
  SELECT doc_id, unnest(list_distinct(regexp_extract_all(text, '[a-zA-Z0-9]+'))) AS tok
  FROM documents),
th AS MATERIALIZED (SELECT doc_id, md5_number_lower(tok) AS h FROM toks),
mh AS (SELECT doc_id, i,
              min((h::UHUGEINT * a::UHUGEINT + b::UHUGEINT)
                  % 18446744073709551616::UHUGEINT) AS mn
       FROM th, perms GROUP BY doc_id, i),
bs AS (SELECT doc_id, i // {r} AS band, array_agg(mn ORDER BY i) AS sig
       FROM mh GROUP BY doc_id, i // {r}),
cands AS (SELECT DISTINCT x.doc_id AS id1, y.doc_id AS id2
          FROM bs x JOIN bs y
            ON x.band = y.band AND x.sig = y.sig AND x.doc_id < y.doc_id),
sizes AS (SELECT doc_id, count(*)::BIGINT AS l FROM th GROUP BY doc_id),
inter AS (SELECT c.id1, c.id2, count(*)::BIGINT AS o
          FROM cands c
          JOIN th a ON a.doc_id = c.id1
          JOIN th b ON b.doc_id = c.id2 AND a.h = b.h
          GROUP BY c.id1, c.id2)"""


def _sql_minhash(n_perm: int = 128, n_bands: int = 32, seed: int = 42,
                 threshold: float = 0.5) -> str:
    return f"""WITH {_sql_minhash_ctes(n_perm, n_bands, seed)}
SELECT i.id1, i.id2, i.o * 1.0 / (sa.l + sb.l - i.o) AS sim
FROM inter i JOIN sizes sa ON i.id1 = sa.doc_id JOIN sizes sb ON i.id2 = sb.doc_id
WHERE i.o * 1.0 / (sa.l + sb.l - i.o) >= {threshold}"""


def q_dedup_near_docs(sf_dir: str):
    """End-to-end fuzzy dedup, the composite a training-data run executes:
    MinHash-LSH verified pairs -> connected components -> one canonical doc
    per component.  Canonical = the LEXICOGRAPHICALLY smallest doc_id string
    of the component (cluster_entities' deterministic rep choice, identical
    on the driver-DSU and distributed star-contraction paths); survivors are
    rows with doc_id == canonical_id.  The SQL twin composes the minhash
    oracle CTEs with recursive reachability, taking min over the VARCHAR
    cast so both sides use the same order."""
    from ..stages.dedup import minhash_lsh_dedup

    docs = _read(sf_dir, "documents", ["doc_id", "text"])
    bl = _broadcast_limit_env()
    pairs = minhash_lsh_dedup(docs, threshold=0.5, hash64="md5",
                              **({"broadcast_limit": bl} if bl is not None else {}))

    def _ids_str(t: pa.Table) -> pa.Table:
        import pyarrow.compute as pc

        return pa.table({"id1": pc.cast(t["id1"], pa.string()),
                         "id2": pc.cast(t["id2"], pa.string())})

    def _docids_str(t: pa.Table) -> pa.Table:
        import pyarrow.compute as pc

        return pa.table({"conv_id": pc.cast(t["doc_id"], pa.string())})

    # materialize: cluster_entities consumes pairs twice (count + collect/CC)
    # and would otherwise re-execute the whole minhash lineage per consumer;
    # verified pairs are survivor-scale by construction
    spairs = pairs.select_columns(["id1", "id2"]).map_batches(
        _ids_str, batch_format="pyarrow").materialize()
    ids = docs.select_columns(["doc_id"]).map_batches(
        _docids_str, batch_format="pyarrow")
    labels = cluster_entities(spairs, ids)
    return labels.map_batches(
        lambda df: pd.DataFrame(
            {"doc_id": df["conv_id"].astype(np.int64),
             "canonical_id": df["entity_id"].astype(np.int64)}),
        batch_format="pandas",
    )


def _sql_dedup_near() -> str:
    """Recursive-CC twin of q_dedup_near_docs over the minhash pair CTEs.
    mpairs is MATERIALIZED (referenced twice by edges; re-inlining would
    recompute the whole minhash chain — the er_f1 oracle lesson)."""
    return f"""WITH RECURSIVE {_sql_minhash_ctes()},
mpairs AS MATERIALIZED (
  SELECT i.id1, i.id2
  FROM inter i JOIN sizes sa ON i.id1 = sa.doc_id JOIN sizes sb ON i.id2 = sb.doc_id
  WHERE i.o * 1.0 / (sa.l + sb.l - i.o) >= 0.5),
edges AS (SELECT CAST(id1 AS VARCHAR) AS a, CAST(id2 AS VARCHAR) AS b FROM mpairs
          UNION ALL
          SELECT CAST(id2 AS VARCHAR), CAST(id1 AS VARCHAR) FROM mpairs),
reach(src, dst) AS (
  SELECT CAST(doc_id AS VARCHAR), CAST(doc_id AS VARCHAR) FROM documents
  UNION
  SELECT r.src, e.b FROM reach r JOIN edges e ON r.dst = e.a)
SELECT CAST(src AS BIGINT) AS doc_id, CAST(min(dst) AS BIGINT) AS canonical_id
FROM reach GROUP BY src"""


def q_simhash_docs(sf_dir: str):
    """SimHash near-dup pairs, Hamming <= 8.  hash64="md5" makes token
    identity DuckDB-reproducible (md5_number_lower), and the banded
    pigeonhole candidates + exact Hamming verify make the OUTPUT equal to
    brute-force Hamming over signatures — so the oracle below is an exact
    twin despite the LSH execution path."""
    from ..stages.dedup import simhash_dedup

    return simhash_dedup(_read(sf_dir, "documents", ["doc_id", "text"]),
                         max_hamming=8, hash64="md5")


# Signature: per distinct alphanumeric token, md5-low-64 hash; bit b of the
# simhash is sign(sum over tokens of (bit b of hash ? +1 : -1)).  Bit 63
# contributes -2^63 so the HUGEINT sum is exactly the int64 two's-complement
# view the Ray side stores.  Tokenless docs get signature 0 via the LEFT JOIN.
SQL_SIMHASH = """WITH toks AS (
  SELECT doc_id, unnest(list_distinct(regexp_extract_all(text, '[a-zA-Z0-9]+'))) AS tok
  FROM documents),
th AS (SELECT doc_id, md5_number_lower(tok) AS h FROM toks),
acc AS (SELECT doc_id, b, sum(CASE WHEN (h >> b) & 1 = 1 THEN 1 ELSE -1 END) AS s
        FROM th, range(64) r(b) GROUP BY doc_id, b),
sig0 AS (SELECT doc_id, CAST(sum(CASE WHEN s > 0 THEN
           CASE WHEN b = 63 THEN -9223372036854775808::HUGEINT
                ELSE (1::BIGINT << b)::HUGEINT END ELSE 0::HUGEINT END) AS BIGINT) AS sh
         FROM acc GROUP BY doc_id),
sigs AS (SELECT d.doc_id, COALESCE(s.sh, 0) AS sh
         FROM documents d LEFT JOIN sig0 s USING (doc_id))
SELECT a.doc_id AS id1, b.doc_id AS id2,
       bit_count(xor(a.sh, b.sh))::BIGINT AS hamming
FROM sigs a JOIN sigs b ON a.doc_id < b.doc_id
WHERE bit_count(xor(a.sh, b.sh)) <= 8"""


def q_ann_topk(sf_dir: str):
    from ..stages.ann import ann_topk_bruteforce

    emb = _read(sf_dir, "embeddings", ["vec_id", "embedding"])
    qids = [r["vec_id"] for r in emb.select_columns(["vec_id"]).sort("vec_id").limit(5).take_all()]
    return ann_topk_bruteforce(emb, np.array(qids), k=10)


SQL_ANN_TOPK = """WITH q AS (
  SELECT vec_id AS qid, CAST(embedding AS DOUBLE[]) AS qv
  FROM embeddings ORDER BY vec_id LIMIT 5),
s AS (SELECT q.qid, e.vec_id AS nid,
             list_cosine_similarity(CAST(e.embedding AS DOUBLE[]), q.qv) AS sim
      FROM q, embeddings e WHERE e.vec_id <> q.qid)
SELECT qid AS query_id, nid AS neighbor_id, rank FROM (
  SELECT qid, nid, row_number() OVER (PARTITION BY qid ORDER BY sim DESC, nid) AS rank
  FROM s) WHERE rank <= 10"""


def q_ann_topk_ivf(sf_dir: str):
    """IVF variant at FULL probe (nprobe = n_centroids): exercises the whole
    IVF machinery — centroid training, cell routing, per-cell partial top-k,
    driver merge — while the exhaustive probe makes the output equal brute
    force, so the brute-force SQL is an exact oracle.  The approximate
    (nprobe < n_centroids) path is covered by the probed-subset pytest in
    tests/test_ann.py."""
    from ..stages.ann import ann_topk_ivf

    emb = _read(sf_dir, "embeddings", ["vec_id", "embedding"])
    qids = [r["vec_id"] for r in emb.select_columns(["vec_id"]).sort("vec_id").limit(5).take_all()]
    return ann_topk_ivf(emb, np.array(qids), k=10, n_centroids=16, nprobe=16)


def q_embed_dup_pairs(sf_dir: str):
    from ..stages.dedup import embedding_dup_pairs

    emb = _read(sf_dir, "embeddings", ["vec_id", "embedding"])
    out = embedding_dup_pairs(emb, threshold=0.4, mode="bruteforce")
    return out.select_columns(["id1", "id2"])


SQL_EMBED_DUP = """SELECT a.vec_id AS id1, b.vec_id AS id2
FROM embeddings a, embeddings b
WHERE a.vec_id < b.vec_id
  AND list_cosine_similarity(CAST(a.embedding AS DOUBLE[]), CAST(b.embedding AS DOUBLE[])) >= 0.4"""


def q_embed_dup_pairs_lsh(sf_dir: str):
    """Distributed banded LSH near-dup mode (broadcast_limit=0 forces the
    join-path verify so the run exercises the never-collect scale path).
    threshold 0.4 is LOW for hyperplane LSH, so the bands are short-and-many
    (24 x 6 => ~0.8 recall at theta ~66 deg; the 32 x 16 default targets the
    usual >= 0.95 near-dup regime).  The SQL twin (_sql_embed_lsh) replays
    the SAME seeded hyperplanes as literal constants, so recall<1 is
    deterministic and oracle-checkable, not rows-only."""
    from ..stages.dedup import embedding_dup_pairs

    emb = _read(sf_dir, "embeddings", ["vec_id", "embedding"])
    out = embedding_dup_pairs(emb, threshold=0.4, mode="lsh", broadcast_limit=0,
                              n_bands=24, band_bits=6)
    return out.select_columns(["id1", "id2"])


def _sql_embed_lsh(dim: int = 64, n_bands: int = 24, band_bits: int = 6,
                   seed: int = 42, threshold: float = 0.4) -> str:
    """DuckDB twin of q_embed_dup_pairs_lsh: the seeded hyperplane matrix
    (same np.random.default_rng(seed) draw the Ray path broadcasts) is
    emitted as DOUBLE[] literals (repr() roundtrips each float64 exactly),
    signing is list_dot_product > 0, the band key replays the salted-XOR
    grouping (splitmix constant, UHUGEINT mod-2^64 like the minhash oracle)
    so even cross-band key collisions agree with the engine, and the final
    filter is the exact cosine verify.  ``dim`` is pinned to the testdata's
    embedding width — the Ray path infers it from the schema, a static SQL
    string cannot.  Sign/threshold FP caveat: SQL sums dots sequentially,
    numpy via BLAS; they only disagree when |dot| or |cos - t| is within
    accumulated rounding (~1e-13 relative) — never observed on the seeded
    fixtures."""
    rng = np.random.default_rng(seed)
    planes = rng.normal(size=(dim, n_bands * band_bits))
    rows = ",\n  ".join(
        f"({p}, [{','.join(repr(float(v)) for v in planes[:, p])}]::DOUBLE[])"
        for p in range(n_bands * band_bits))
    return f"""WITH planes(p, vec) AS (VALUES
  {rows}),
dots AS (
  SELECT e.vec_id, pl.p, list_dot_product(e.embedding::DOUBLE[], pl.vec) AS dp
  FROM embeddings e CROSS JOIN planes pl),
keys AS (
  SELECT vec_id,
         xor(sum(CASE WHEN dp > 0 THEN 1::BIGINT << (p % {band_bits}) ELSE 0 END)::UBIGINT,
             (((p // {band_bits})::UHUGEINT * 11400714819323198485::UHUGEINT)
              % 18446744073709551616::UHUGEINT)::UBIGINT) AS skey
  FROM dots GROUP BY vec_id, p // {band_bits}),
cands AS (
  SELECT DISTINCT a.vec_id AS id1, b.vec_id AS id2
  FROM keys a JOIN keys b ON a.skey = b.skey AND a.vec_id < b.vec_id)
SELECT c.id1, c.id2
FROM cands c
JOIN embeddings e1 ON e1.vec_id = c.id1
JOIN embeddings e2 ON e2.vec_id = c.id2
WHERE list_cosine_similarity(e1.embedding::DOUBLE[], e2.embedding::DOUBLE[]) >= {threshold}"""


def q_text_stats(sf_dir: str):
    """Per-doc text stats + token counts in ONE scan: the token_count
    operator's columns (whitespace + BPE-ish pretokenizer counts) ride the
    text_stats query so both operators stay driver-oracled within the
    50-query check budget."""
    from ..stages.text import text_stats

    return text_stats(_read(sf_dir, "documents", ["doc_id", "text"]),
                      include_token_counts=True)


def q_fingerprint_winnow(sf_dir: str):
    from ..stages.text import fingerprint_winnow

    return fingerprint_winnow(_read(sf_dir, "documents", ["doc_id", "text"]))


# The winnow gram hash is a plain polynomial over utf-8 bytes mod 2^61 (the
# numpy path's per-step uint64 wrap + 61-bit mask equals stepwise mod 2^61,
# since 2^61 divides 2^64), so DuckDB reproduces it with UHUGEINT stepwise
# mods over ascii() codepoints.  PRECONDITION: ASCII-only text (codepoint ==
# utf-8 byte) — holds for the generated documents table; a non-ASCII corpus
# would diverge byte-wise and needs the Python oracle in tests/test_text.py
# instead.  Window minima: valid
# length-8 windows for docs with > 8 grams, else one global min (the Python
# path's h.size <= w branch); fingerprints dedup per doc.
SQL_FINGERPRINT_WINNOW = """WITH pos AS (
  SELECT doc_id, text, unnest(generate_series(1, length(text) - 4)) AS p
  FROM documents),
grams AS (
  SELECT doc_id, p,
    ((((((((ascii(substr(text, p::INT, 1))::UHUGEINT * 1000003::UHUGEINT
        + ascii(substr(text, p::INT + 1, 1))::UHUGEINT) % 2305843009213693952::UHUGEINT) * 1000003::UHUGEINT
        + ascii(substr(text, p::INT + 2, 1))::UHUGEINT) % 2305843009213693952::UHUGEINT) * 1000003::UHUGEINT
        + ascii(substr(text, p::INT + 3, 1))::UHUGEINT) % 2305843009213693952::UHUGEINT) * 1000003::UHUGEINT
        + ascii(substr(text, p::INT + 4, 1))::UHUGEINT) % 2305843009213693952::UHUGEINT) AS h
  FROM pos),
wins AS (
  SELECT doc_id, p,
         min(h) OVER (PARTITION BY doc_id ORDER BY p
                      ROWS BETWEEN CURRENT ROW AND 7 FOLLOWING) AS m,
         count(*) OVER (PARTITION BY doc_id) AS ng
  FROM grams)
SELECT DISTINCT doc_id, m::BIGINT AS fp FROM wins WHERE ng > 8 AND p <= ng - 7
UNION ALL
SELECT doc_id, min(h)::BIGINT AS fp FROM grams GROUP BY doc_id HAVING count(*) <= 8"""


SQL_TEXT_STATS = """SELECT doc_id,
  length(text)::BIGINT AS n_chars,
  len(list_filter(string_split_regex(text, '[ \\t\\n\\f\\r]+'), x -> x <> ''))::BIGINT AS n_words,
  length(regexp_replace(text, '[^a-zA-Z]', '', 'g'))::BIGINT AS n_alpha,
  length(regexp_replace(text, '[^0-9]', '', 'g'))::BIGINT AS n_digit,
  len(list_filter(string_split_regex(text, '[ \\t\\n\\f\\r]+'), x -> x <> ''))::BIGINT AS n_tokens_ws,
  len(regexp_extract_all(text, '''(?:[sdmt]|ll|ve|re)| ?[A-Za-z]+| ?[0-9]+| ?[^A-Za-z0-9\\s]+'))::BIGINT AS n_tokens_bpe
FROM documents"""


def q_lang_id(sf_dir: str):
    return lang_id_stage(_read(sf_dir, "documents", ["doc_id", "text"]))


SQL_LANG_ID = """WITH s AS (
  SELECT doc_id, ' ' || text || ' ' AS t FROM documents),
c AS (SELECT doc_id, t,
  len(regexp_extract_all(t, ' der | und | die | ist ')) AS de,
  len(regexp_extract_all(t, ' el | los | es | una ')) AS es,
  len(regexp_extract_all(t, ' le | la | et | est ')) AS fr
  FROM s)
SELECT doc_id, CASE
  WHEN regexp_matches(t, '[\\x{4e00}-\\x{9fff}]') THEN 'zh'
  WHEN de = 0 AND es = 0 AND fr = 0 THEN 'en'
  WHEN de >= es AND de >= fr THEN 'de'
  WHEN es >= fr THEN 'es'
  ELSE 'fr' END AS pred_lang
FROM c"""


def q_quality_docs(sf_dir: str):
    """Document quality scoring (alpha/digit ratios, mean word length, ok
    flag).  Ratios rounded to 9 decimals on BOTH engine and SQL sides so the
    value-hash is float-order stable; the ok flag is computed from the
    unrounded ratio on both sides."""
    from ..stages.text import quality_score

    out = quality_score(_read(sf_dir, "documents", ["doc_id", "text"]))
    return out.map_batches(
        lambda df: df.assign(
            alpha_ratio=df["alpha_ratio"].round(9),
            digit_ratio=df["digit_ratio"].round(9),
            mean_word_len=df["mean_word_len"].round(9),
        ),
        batch_format="pandas",
    )


SQL_QUALITY_DOCS = """WITH w AS (
  SELECT doc_id,
    length(text)::DOUBLE AS n,
    length(regexp_replace(text, '[^a-zA-Z]', '', 'g'))::DOUBLE AS na,
    length(regexp_replace(text, '[^0-9]', '', 'g'))::DOUBLE AS nd,
    list_filter(string_split_regex(text, '[ \\t\\n\\f\\r]+'), x -> x <> '') AS words
  FROM documents)
SELECT doc_id,
  round(CASE WHEN n = 0 THEN 0.0 ELSE na / n END, 9) AS alpha_ratio,
  round(CASE WHEN n = 0 THEN 0.0 ELSE nd / n END, 9) AS digit_ratio,
  round(coalesce(list_aggregate(list_transform(words, x -> length(x)), 'sum'), 0)::DOUBLE
        / greatest(len(words), 1), 9) AS mean_word_len,
  (n >= 20 AND n <= 1000000
   AND (CASE WHEN n = 0 THEN 0.0 ELSE na / n END) >= 0.5)::BIGINT AS ok
FROM w"""


def q_events_in_sessions(sf_dir: str):
    """Keyed range join: every event assigned to the session interval that
    contains it (sessionize -> interval_join on user_id +
    start_us <= ts <= end_us).  DuckDB BETWEEN-join twin over the same
    window-function sessionization."""
    from ..stages.joins import interval_join
    from ..stages.sessions import sessionize_events

    ev = _read(sf_dir, "events", ["event_id", "user_id", "ts", "value"])
    sess = sessionize_events(
        ev.select_columns(["user_id", "ts", "value"]), gap_s=1800.0
    ).map_batches(
        lambda df: df[["user_id", "session_idx", "start_us", "end_us"]],
        batch_format="pandas",
    )
    pts = ev.map_batches(
        lambda t: pa.table({
            "event_id": t.column("event_id"),
            "user_id": t.column("user_id"),
            "tus": t.column("ts").cast(pa.int64()),
        }),
        batch_format="pyarrow",
    )
    out = interval_join(pts, sess, on="user_id", point_col="tus",
                        lo_col="start_us", hi_col="end_us", num_partitions=32)
    return out.map_batches(
        lambda df: df[["event_id", "user_id", "session_idx"]]
        .sort_values("event_id").reset_index(drop=True),
        batch_format="pandas",
    )


SQL_EVENTS_IN_SESSIONS = """WITH e AS (
  SELECT event_id, user_id, CAST(epoch_us(ts) AS BIGINT) AS tus FROM events),
m AS (SELECT *, CASE WHEN lag(tus) OVER w IS NULL
                     OR tus - lag(tus) OVER w > 1800000000
                THEN 1 ELSE 0 END AS brk
      FROM e WINDOW w AS (PARTITION BY user_id ORDER BY tus)),
s AS (SELECT *, sum(brk) OVER (PARTITION BY user_id ORDER BY tus
                               ROWS UNBOUNDED PRECEDING) - 1 AS session_idx
      FROM m),
sess AS (SELECT user_id, session_idx::BIGINT AS session_idx,
                min(tus) AS start_us, max(tus) AS end_us
         FROM s GROUP BY 1, 2)
SELECT e.event_id, e.user_id, sess.session_idx
FROM e JOIN sess ON e.user_id = sess.user_id
                AND e.tus BETWEEN sess.start_us AND sess.end_us"""


def _cents(x: np.ndarray) -> np.ndarray:
    """Money doubles -> int64 cents, half AWAY from zero (DuckDB round()
    semantics; np.round's banker's rounding diverges on exact half-cents).
    Integer sums make the aggregate order-independent, so the driver's
    value hash is stable across summation orders."""
    v = np.asarray(x, np.float64) * 100.0
    return np.where(v >= 0, np.floor(v + 0.5), np.ceil(v - 0.5)).astype(np.int64)


def q_tpch_pricing(sf_dir: str):
    """TPC-H Q1-style pricing summary over lineitem: per (l_returnflag,
    l_linestatus) row counts, total quantity, and base-price cents — partial
    per-batch combiner before ONE small groupby (the scale shape: the
    shuffle moves only #groups x #blocks rows)."""
    from ray.data.aggregate import Sum

    li = _read(sf_dir, "lineitem",
               ["l_returnflag", "l_linestatus", "l_quantity", "l_extendedprice"])

    def partial(df: pd.DataFrame) -> pd.DataFrame:
        g = pd.DataFrame({
            "l_returnflag": df["l_returnflag"],
            "l_linestatus": df["l_linestatus"],
            # l_quantity is integral by construction (TESTDATA.md); astype
            # truncation and the oracle's CAST agree only on integral values
            "qty": df["l_quantity"].to_numpy(np.float64).astype(np.int64),
            "base_cents": _cents(df["l_extendedprice"]),
        })
        return (g.groupby(["l_returnflag", "l_linestatus"], sort=False)
                 .agg(n_items=("qty", "size"), sum_qty=("qty", "sum"),
                      sum_base_cents=("base_cents", "sum")).reset_index())

    return (
        li.map_batches(partial, batch_format="pandas")
        .groupby(["l_returnflag", "l_linestatus"])
        .aggregate(Sum("n_items", alias_name="n_items"),
                   Sum("sum_qty", alias_name="sum_qty"),
                   Sum("sum_base_cents", alias_name="sum_base_cents"))
    )


SQL_TPCH_PRICING = """SELECT l_returnflag, l_linestatus,
       count(*)::BIGINT AS n_items,
       sum(CAST(l_quantity AS BIGINT))::BIGINT AS sum_qty,
       sum(CAST(round(l_extendedprice * 100) AS BIGINT))::BIGINT AS sum_base_cents
FROM lineitem GROUP BY 1, 2"""


def q_tpch_top_customers(sf_dir: str):
    """Top-50 customers by order revenue with their nation name: per-batch
    partial sums -> keyed groupby -> hash_join to customer -> BROADCAST
    nation lookup (25 rows never shuffle) -> deterministic
    (revenue DESC, custkey) top-50."""
    from ray.data.aggregate import Sum

    from ..functions.hashing import get_broadcast
    from ..stages.joins import hash_join

    orders = _read(sf_dir, "orders", ["o_custkey", "o_totalprice"])

    def partial(df: pd.DataFrame) -> pd.DataFrame:
        g = pd.DataFrame({"o_custkey": df["o_custkey"],
                          "cents": _cents(df["o_totalprice"])})
        return (g.groupby("o_custkey", sort=False)
                 .agg(n_orders=("cents", "size"), sum_cents=("cents", "sum"))
                 .reset_index())

    rev = (orders.map_batches(partial, batch_format="pandas")
           .groupby("o_custkey")
           .aggregate(Sum("n_orders", alias_name="n_orders"),
                      Sum("sum_cents", alias_name="sum_cents")))
    cust = _read(sf_dir, "customer", ["c_custkey", "c_name", "c_nationkey"])
    j = hash_join(rev, cust, on="o_custkey", right_on="c_custkey",
                  num_partitions=16)
    nation = _read(sf_dir, "nation", ["n_nationkey", "n_name"]).to_pandas()
    nref = ray.put(pd.Series(nation["n_name"].to_numpy(object),
                             index=pd.Index(nation["n_nationkey"])))

    def add_nation(t: pa.Table) -> pa.Table:
        m = get_broadcast(nref)
        nk = np.asarray(t.column("c_nationkey"), dtype=np.int64)
        return t.append_column(
            "n_name", pa.array(m.reindex(nk).to_numpy(object), pa.string()))

    out = j.map_batches(add_nation, batch_format="pyarrow")
    top = (out.sort(["sum_cents", "o_custkey"], descending=[True, False])
           .limit(50))
    return top.map_batches(
        lambda df: df[["o_custkey", "c_name", "n_name", "n_orders", "sum_cents"]]
        .rename(columns={"o_custkey": "c_custkey"}),
        batch_format="pandas",
    )


SQL_TPCH_TOP_CUSTOMERS = """WITH rev AS (
  SELECT o_custkey, count(*)::BIGINT AS n_orders,
         sum(CAST(round(o_totalprice * 100) AS BIGINT))::BIGINT AS sum_cents
  FROM orders GROUP BY 1)
SELECT rev.o_custkey AS c_custkey, c.c_name, n.n_name, rev.n_orders, rev.sum_cents
FROM rev JOIN customer c ON rev.o_custkey = c.c_custkey
         JOIN nation n ON c.c_nationkey = n.n_nationkey
ORDER BY rev.sum_cents DESC, rev.o_custkey
LIMIT 50"""


def q_events_asof(sf_dir: str):
    """As-of join: each purchase matched to the user's latest click at or
    before it (DuckDB ASOF JOIN twin).  One hash-bucket shuffle on the key,
    per-bucket vectorized merge_asof."""
    from ..stages.joins import asof_join

    ev = _read(sf_dir, "events", ["event_id", "ts", "user_id", "event_type", "value"])
    left = ev.map_batches(
        lambda df: df[df["event_type"] == "purchase"][["event_id", "user_id", "ts", "value"]],
        batch_format="pandas",
    )
    right = ev.map_batches(
        lambda df: df[df["event_type"] == "click"][["user_id", "ts", "value"]].rename(
            columns={"ts": "click_ts", "value": "click_value"}),
        batch_format="pandas",
    ).materialize()
    # ORACLE PRECONDITION (enforced, not assumed): asof_join's tie-break
    # among right rows equal on (key, ts) is deterministic but unspecified
    # relative to DuckDB's ASOF JOIN, so the SQL comparison is only valid
    # while clicks are unique per (user_id, ts) — fail LOUDLY if a future
    # data-gen change breaks that instead of letting the oracle go flaky
    dup_max = (right.groupby(["user_id", "click_ts"]).count().max("count()"))
    if int(dup_max or 0) > 1:
        raise AssertionError(
            "q_events_asof oracle precondition violated: duplicate "
            "(user_id, ts) click rows make the ASOF tie-break "
            "implementation-defined")
    out = asof_join(left, right, on="user_id", left_ts="ts",
                    right_ts="click_ts", num_partitions=32)
    return out.map_batches(
        lambda df: df.sort_values("event_id").reset_index(drop=True),
        batch_format="pandas",
    )


SQL_EVENTS_ASOF = """WITH l AS (SELECT event_id, user_id, ts, value
                                FROM events WHERE event_type = 'purchase'),
r AS (SELECT user_id, ts AS click_ts, value AS click_value
      FROM events WHERE event_type = 'click')
SELECT l.event_id, l.user_id, l.ts, l.value, r.click_ts, r.click_value
FROM l ASOF JOIN r ON l.user_id = r.user_id AND l.ts >= r.click_ts"""


def q_events_window(sf_dir: str):
    """Per-user hourly windowed aggregate with in-batch pre-aggregation
    (combiner) before the groupby shuffle."""
    ev = _read(sf_dir, "events", ["user_id", "ts", "value"])

    def partial(df: pd.DataFrame) -> pd.DataFrame:
        win = (df["ts"].astype("datetime64[us]").astype(np.int64) // 3_600_000_000) * 3600
        v100 = df["value"].to_numpy(np.float64) * 100.0
        cents = np.where(v100 >= 0, np.floor(v100 + 0.5), np.ceil(v100 - 0.5)).astype(np.int64)
        g = pd.DataFrame({"user_id": df["user_id"], "win_start": win, "c": cents})
        out = g.groupby(["user_id", "win_start"], sort=False).agg(
            n_events=("c", "size"), sum_cents=("c", "sum")
        ).reset_index()
        return out

    from ray.data.aggregate import Sum

    return (
        ev.map_batches(partial, batch_format="pandas")
        .groupby(["user_id", "win_start"])
        .aggregate(Sum("n_events", alias_name="n_events"), Sum("sum_cents", alias_name="sum_cents"))
    )


SQL_EVENTS_WINDOW = """SELECT user_id,
  CAST(epoch(date_trunc('hour', ts)) AS BIGINT) AS win_start,
  count(*)::BIGINT AS n_events,
  sum(CAST(round(value * 100) AS BIGINT))::BIGINT AS sum_cents
FROM events GROUP BY 1, 2"""


def q_events_sessionize(sf_dir: str):
    """Session windows (30-min inactivity gap) per user: ONE hash-partitioned
    shuffle on user_id, vectorized gaps-and-islands per partition
    (stages/sessions.py)."""
    from ..stages.sessions import sessionize_events

    ev = _read(sf_dir, "events", ["user_id", "ts", "value"])
    return sessionize_events(ev, gap_s=1800.0)


SQL_EVENTS_SESSIONIZE = """WITH e AS (
  SELECT user_id, CAST(epoch_us(ts) AS BIGINT) AS tus,
         CAST(round(value * 100) AS BIGINT) AS cents FROM events),
m AS (SELECT *, CASE WHEN lag(tus) OVER w IS NULL
                     OR tus - lag(tus) OVER w > 1800000000
                THEN 1 ELSE 0 END AS brk
      FROM e WINDOW w AS (PARTITION BY user_id ORDER BY tus)),
s AS (SELECT *, sum(brk) OVER (PARTITION BY user_id ORDER BY tus
                               ROWS UNBOUNDED PRECEDING) - 1 AS session_idx
      FROM m)
SELECT user_id, session_idx::BIGINT AS session_idx,
       count(*)::BIGINT AS n_events,
       min(tus) AS start_us, max(tus) AS end_us,
       (max(tus) - min(tus)) / 1e6 AS duration_s,
       sum(cents)::BIGINT AS sum_cents
FROM s GROUP BY 1, 2"""


def q_multimodal_decode(sf_dir: str):
    """Multimodal decode (rows-only): REAL pure-numpy PPM/BMP/WAV decode over
    a deterministic binary media table (actor pool, small batches);
    compressed formats surface as status='unsupported' rows, never crashes
    (stages/multimodal.py)."""
    from ..stages.multimodal import decode_media, synthesize_media

    media = ray.data.from_arrow(synthesize_media(200))
    out = decode_media(media)
    return out.map_batches(
        lambda t: pa.table({"media_id": t.column("media_id"),
                            "status": t.column("status"),
                            "decoded_w": t.column("decoded_w"),
                            "decoded_h": t.column("decoded_h"),
                            "payload_bytes": t.column("payload_bytes")}),
        batch_format="pyarrow",
    )


# ---------------------------------------------------------------------------
# registry
# ---------------------------------------------------------------------------

QUERIES = {
    "canonicalize": q_canonicalize,
    "token_df": q_token_df,
    "token_df_qgram": q_token_df_qgram,
    "block_jac": q_block_jac,
    "block_dice": q_block_dice,
    "block_overlap": q_block_overlap,
    "block_exm_head": q_block_exm_head,
    "block_anm_turns": q_block_anm_turns,
    "block_lev_head": q_block_lev_head,
    "block_lev_sim": q_block_lev_sim,
    "block_rules_union": q_block_rules_union,
    "block_fused_union": q_block_fused_union,
    "block_jac_weighted": q_block_jac_weighted,
    "block_jac_weighted_rs": q_block_jac_weighted_rs,
    "block_jac_rs": q_block_jac_rs,
    "block_overlap_rs": q_block_overlap_rs,
    "block_exm_rs": q_block_exm_rs,
    "block_anm_rs": q_block_anm_rs,
    "block_lev_rs": q_block_lev_rs,
    "topk_blended": q_topk_blended,
    "topk_allscore": q_topk_allscore,
    "topk_allscore_weighted": q_topk_allscore_weighted,
    "sample_down": q_sample_down,
    "group_values": q_group_values,
    "ic_graph": q_ic_graph,
    "cluster_jac": q_cluster_jac,
    "megallen_wide": q_megallen_wide,
    "er_f1_report": q_er_f1_report,
    "rule_recall": q_rule_recall,
    "er_zeroer": q_er_zeroer,
    "dedup_exact_docs": q_dedup_exact_docs,
    "dedup_token_jac_docs": q_dedup_token_jac_docs,
    "minhash_lsh_docs": q_minhash_lsh_docs,
    "dedup_near_docs": q_dedup_near_docs,
    "simhash_docs": q_simhash_docs,
    "ann_topk": q_ann_topk,
    "ann_topk_ivf": q_ann_topk_ivf,
    "embed_dup_pairs": q_embed_dup_pairs,
    "embed_dup_pairs_lsh": q_embed_dup_pairs_lsh,
    "text_stats": q_text_stats,
    "fingerprint_winnow": q_fingerprint_winnow,
    "quality_docs": q_quality_docs,
    "lang_id": q_lang_id,
    "events_asof": q_events_asof,
    "events_in_sessions": q_events_in_sessions,
    "events_window": q_events_window,
    "tpch_pricing": q_tpch_pricing,
    "tpch_top_customers": q_tpch_top_customers,
    "events_sessionize": q_events_sessionize,
    "multimodal_decode": q_multimodal_decode,
}

ORACLES = {
    "canonicalize": SQL_CANONICALIZE,
    "token_df": SQL_TOKEN_DF,
    "token_df_qgram": SQL_TOKEN_DF_QGRAM,
    "block_jac": SQL_BLOCK_JAC,
    "block_dice": SQL_BLOCK_DICE,
    "block_overlap": SQL_BLOCK_OVERLAP,
    "block_exm_head": SQL_BLOCK_EXM_HEAD,
    "block_anm_turns": SQL_BLOCK_ANM,
    "block_lev_head": SQL_BLOCK_LEV,
    "block_lev_sim": SQL_BLOCK_LEV_SIM,
    "block_rules_union": SQL_BLOCK_RULES_UNION,
    "block_fused_union": SQL_BLOCK_FUSED_UNION,
    "block_jac_weighted": SQL_BLOCK_JAC_WEIGHTED,
    "block_jac_weighted_rs": SQL_BLOCK_JAC_WEIGHTED_RS,
    "block_jac_rs": SQL_BLOCK_JAC_RS,
    "block_overlap_rs": SQL_BLOCK_OVERLAP_RS,
    "block_exm_rs": SQL_BLOCK_EXM_RS,
    "block_anm_rs": SQL_BLOCK_ANM_RS,
    "block_lev_rs": SQL_BLOCK_LEV_RS,
    "topk_blended": SQL_TOPK_BLENDED,
    "topk_allscore": SQL_TOPK_ALLSCORE,
    "topk_allscore_weighted": SQL_TOPK_ALLSCORE_WEIGHTED,
    "cluster_jac": SQL_CLUSTER_JAC,
    "megallen_wide": SQL_MEGALLEN_WIDE,
    "dedup_exact_docs": SQL_DEDUP_EXACT,
    "dedup_token_jac_docs": SQL_DEDUP_TOKEN_JAC,
    "ann_topk": SQL_ANN_TOPK,
    "embed_dup_pairs": SQL_EMBED_DUP,
    "text_stats": SQL_TEXT_STATS,
    "quality_docs": SQL_QUALITY_DOCS,
    "lang_id": SQL_LANG_ID,
    "events_asof": SQL_EVENTS_ASOF,
    "events_in_sessions": SQL_EVENTS_IN_SESSIONS,
    "events_window": SQL_EVENTS_WINDOW,
    "tpch_pricing": SQL_TPCH_PRICING,
    "tpch_top_customers": SQL_TPCH_TOP_CUSTOMERS,
    "events_sessionize": SQL_EVENTS_SESSIONIZE,
    "simhash_docs": SQL_SIMHASH,
    "fingerprint_winnow": SQL_FINGERPRINT_WINNOW,
    "ann_topk_ivf": SQL_ANN_TOPK,
    "minhash_lsh_docs": _sql_minhash(),
    "dedup_near_docs": _sql_dedup_near(),
    "er_f1_report": _sql_er_f1(),
    "rule_recall": _sql_rule_recall(),
    "sample_down": _sql_sample_down(),
    "embed_dup_pairs_lsh": _sql_embed_lsh(),
    # rows-only (no SQL twin — genuinely non-SQL semantics): ic_graph and
    # group_values (PPMI-SVD embedding cosine), er_zeroer (EM iteration —
    # see the infeasibility note at q_er_zeroer), multimodal_decode (binary
    # image/audio codecs).  token_count's columns are verified inside
    # text_stats; fingerprint_md5 is pytest-oracled (registry kept at the
    # driver's 50-query check budget).
}
