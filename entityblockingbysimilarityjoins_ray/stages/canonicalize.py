"""Per-conversation canonicalization.

Reduces the turn-level transcript table (conv_id, turn_idx, role, text, tool,
ts) to one canonical record per conversation:

    conv_id, doc (texts concatenated under stable turn_idx order, '\\n'-joined),
    head (text of the first turn), n_turns, n_chars, ts_min, ts_max

This is the Ray-Data equivalent of loading the reference's per-record string
``Table`` (/root/reference/cpp/common/dataframe.h:20-53) — the transcript's
turns play the role of the reference's multi-row CSV records, and ``doc`` /
``head`` are the attributes later rules tokenize and join on.

Invariant (BASELINE.json input_hint, tested in tests/test_canonicalize.py):
concatenating a conversation's ``text`` under stable ``turn_idx`` ordering is
byte-equal to the oracle concatenation (per-turn text equality).

Scale notes: a straight ``groupby("conv_id").map_groups`` pays a Python call
per conversation.  Instead we shuffle once on a hash bucket of conv_id
(`num_buckets` >= 2-4x total cores) and reduce each bucket in Arrow: a
stable sort on (conv_id, turn_idx), one hash aggregation (text list/first,
turn count, ts min/max) and ``binary_join`` for the doc — every
conversation's turns land in exactly one bucket, so results are exact;
per-group Python overhead is O(buckets), not O(conversations), and no
bucket round-trips through pandas.
"""

from __future__ import annotations

import numpy as np
import pyarrow as pa
import pyarrow.compute as pc
import ray.data

from ..functions.hashing import bucket_of, hash_strings


def _add_bucket(t: pa.Table, num_buckets: int) -> pa.Table:
    # Arrow-native: the upstream Parquet read hands Arrow blocks, and a
    # pandas round-trip here copied the whole turn table (and fed pandas
    # blocks to the sort) just to append one int column
    ids = np.asarray(
        pc.cast(t.column("conv_id"), pa.string()).to_numpy(zero_copy_only=False),
        dtype=object)
    b = bucket_of(hash_strings(ids), num_buckets).astype(np.int32)
    return t.append_column("_bucket", pa.array(b, pa.int32()))


def _canon_bucket(t: pa.Table, sep: str) -> pa.Table:
    # rows without a conv_id belong to no conversation (dropped, as a
    # pandas groupby drops NaN keys); the sort is stable, so duplicated
    # turn_idx values keep their input order
    t = t.filter(pc.is_valid(t.column("conv_id")))
    t = t.sort_by([("conv_id", "ascending"), ("turn_idx", "ascending")])
    text = pc.fill_null(pc.cast(t.column("text"), pa.string()), "")
    t = pa.table({"conv_id": t.column("conv_id"), "text": text, "ts": t.column("ts")})
    # single-threaded hash aggregation keeps first-appearance order: groups
    # come out sorted by conv_id and each text list in turn order
    g = t.group_by("conv_id", use_threads=False).aggregate([
        ("text", "list"), ("text", "first"),
        ("text", "count", pc.CountOptions(mode="all")),
        ("ts", "min"), ("ts", "max"),
    ])
    doc = pc.binary_join(g.column("text_list"), sep)
    return pa.table({
        "conv_id": g.column("conv_id"),
        "doc": doc,
        "head": g.column("text_first"),
        "n_turns": pc.cast(g.column("text_count"), pa.int64()),
        "n_chars": pc.cast(pc.utf8_length(doc), pa.int64()),
        "ts_min": g.column("ts_min"),
        "ts_max": g.column("ts_max"),
    })


def canonicalize(
    transcripts: "ray.data.Dataset", *, num_buckets: int = 64, sep: str = "\n"
) -> "ray.data.Dataset":
    """turn rows -> one canonical record per conv_id (exact, single shuffle)."""
    return (
        transcripts.map_batches(
            _add_bucket, fn_kwargs={"num_buckets": num_buckets}, batch_format="pyarrow"
        )
        .groupby("_bucket")
        .map_groups(_canon_bucket, fn_kwargs={"sep": sep}, batch_format="pyarrow")
    )
