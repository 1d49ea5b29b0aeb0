"""Hash-partitioned equi-join built on the bucket-groupby pattern.

``Dataset.join`` in Ray 2.49.2 loses the schema of empty Arrow blocks (the
acero probe then fails with "No match ... for key field reference") and its
aggregator actor pool can starve small clusters, so the engine ships its own
join: both sides are normalized to ONE shared Arrow schema (missing columns
as typed nulls) + a bucket column, unioned, hash-bucket grouped, and merged
per bucket with a vectorized pandas hash join.  One shuffle, no actor pool,
robust to empty blocks.

This is also the portable pattern the Ray guide recommends for
both-sides-large joins; the broadcast path (ray.put + lookup per batch)
remains the small-side fast path used by verify_pairs."""

from __future__ import annotations

import numpy as np
import pandas as pd
import pyarrow as pa
import ray.data

from ..functions.hashing import bucket_of

_SIDE = "__side"
_PB = "__pb"


def _hash_any(arr: np.ndarray) -> np.ndarray:
    a = np.asarray(arr)
    if a.dtype == object or a.dtype.kind in "USm":
        return pd.util.hash_array(a.astype(object), categorize=False).view(np.int64)
    return pd.util.hash_array(a, categorize=False).view(np.int64)


def _pa_schema(ds: "ray.data.Dataset") -> pa.Schema:
    sch = ds.schema()
    base = getattr(sch, "base_schema", None)
    if isinstance(base, pa.Schema):
        return base
    # pandas-block dataset: types are numpy dtypes; peek one real Arrow batch
    for b in ds.iter_batches(batch_size=1, batch_format="pyarrow"):
        return b.schema
    return pa.schema([pa.field(n, pa.from_numpy_dtype(t) if t != object else pa.string())
                      for n, t in zip(sch.names, sch.types)])


def zero_pad(n: int, typ: pa.DataType):
    """Type-stable filler column of length n.  NOT nulls: a nullable int64
    crossing Ray's sort can coerce through pandas float64 and silently
    ROUND 64-bit key values (observed: hash keys ending in trailing zero
    bits after a union with null-padded blocks).  Only use where the padded
    values are never read."""
    if pa.types.is_string(typ) or pa.types.is_large_string(typ):
        return pa.nulls(n, typ).fill_null("")
    if pa.types.is_binary(typ) or pa.types.is_large_binary(typ):
        return pa.nulls(n, typ).fill_null(b"")
    if pa.types.is_list(typ):
        return pa.ListArray.from_arrays(
            pa.array(np.zeros(n + 1, np.int32), pa.int32()),
            pa.array([], typ.value_type))
    if pa.types.is_large_list(typ):
        return pa.LargeListArray.from_arrays(
            pa.array(np.zeros(n + 1, np.int64), pa.int64()),
            pa.array([], typ.value_type))
    if pa.types.is_boolean(typ):
        return pa.nulls(n, typ).fill_null(False)
    try:
        return pa.nulls(n, typ).fill_null(pa.scalar(0, typ))
    except Exception:
        return pa.nulls(n, typ)


def hash_join(
    left: "ray.data.Dataset",
    right: "ray.data.Dataset",
    *,
    on: str,
    right_on: str,
    num_partitions: int = 32,
    how: str = "inner",
    drop_right_key: bool = True,
) -> "ray.data.Dataset":
    """Equi-join; column sets of the two sides must be disjoint except keys."""
    lsch = _pa_schema(left)
    rsch = _pa_schema(right)
    lnames = list(lsch.names)
    rnames = list(rsch.names)
    overlap = (set(lnames) & set(rnames)) - ({on} if on == right_on else set())
    if overlap:
        raise ValueError(f"hash_join requires disjoint columns, overlap: {overlap}")
    all_fields = [lsch.field(n) for n in lnames]
    all_fields += [rsch.field(n) for n in rnames if n not in lnames]

    def norm(side: int, key: str):
        def f(t: pa.Table) -> pa.Table:
            cols = {}
            for fld in all_fields:
                if fld.name in t.column_names:
                    c = t.column(fld.name)
                    cols[fld.name] = c.combine_chunks() if isinstance(c, pa.ChunkedArray) else c
                else:
                    cols[fld.name] = zero_pad(t.num_rows, fld.type)
            keyvals = t.column(key).to_numpy(zero_copy_only=False)
            pb = bucket_of(_hash_any(keyvals), num_partitions) if t.num_rows else np.empty(0, np.int64)
            cols[_PB] = pa.array(pb.astype(np.int32), pa.int32())
            cols[_SIDE] = pa.array(np.full(t.num_rows, side, np.int8), pa.int8())
            return pa.table(cols)

        return f

    l = left.map_batches(norm(0, on), batch_format="pyarrow")
    r = right.map_batches(norm(1, right_on), batch_format="pyarrow")

    extra_r = [n for n in rnames if n not in lnames]
    if drop_right_key and right_on != on:
        extra_r = [n for n in extra_r if n != right_on]
    out_names = lnames + extra_r
    field_of = {f.name: f for f in all_fields}
    out_schema = pa.schema([field_of[n] for n in out_names])

    def merge(t: pa.Table) -> pa.Table:
        # ARROW-NATIVE merge: pandas only maps join keys -> row positions;
        # every payload column (token lists, vectors, wide strings) moves by
        # zero-copy Table.take.  The previous pandas-frame merge converted
        # list<...> columns to Python object arrays and back PER PARTITION —
        # the dominant cost of the beyond-broadcast verify/feature family.
        import pyarrow.compute as pc

        side = np.asarray(t.column(_SIDE), dtype=np.int8)
        lmask, rmask = pa.array(side == 0), pa.array(side == 1)
        lt = t.filter(lmask).select(lnames)
        rt = t.filter(rmask).select(rnames)
        lk = pd.DataFrame({
            "__k": lt.column(on).to_numpy(zero_copy_only=False),
            "__li": np.arange(lt.num_rows, dtype=np.int64)})
        rk = pd.DataFrame({
            "__k": rt.column(right_on).to_numpy(zero_copy_only=False),
            "__ri": np.arange(rt.num_rows, dtype=np.int64)})
        m = lk.merge(rk, on="__k", how=how)
        li = pa.array(m["__li"].to_numpy(np.int64))
        # left-join misses carry null right indices -> pc.take yields nulls
        ri = pa.array(m["__ri"].astype("Int64"), pa.int64())
        cols = []
        for n in out_names:
            if n in lnames:
                cols.append(pc.take(lt.column(n), li))
            else:
                cols.append(pc.take(rt.column(n), ri))
        # explicit Arrow schema so chained joins / downstream arrow kernels
        # see typed blocks even when a partition is empty
        return pa.Table.from_arrays(
            [c.cast(field_of[n].type) for c, n in zip(cols, out_names)],
            schema=out_schema)

    return (
        l.union(r)
        .groupby(_PB)
        .map_groups(lambda g: merge(g.drop([_PB])), batch_format="pyarrow")
    )


def asof_join(
    left: "ray.data.Dataset",
    right: "ray.data.Dataset",
    *,
    on: str,
    left_ts: str,
    right_ts: str,
    right_on: str | None = None,
    num_partitions: int = 32,
    how: str = "inner",
    direction: str = "backward",
) -> "ray.data.Dataset":
    """Distributed as-of join: for each left row, the single right row with
    an equal key and the greatest ``right_ts <= left_ts`` (direction
    'backward'; 'forward' = smallest ``right_ts >= left_ts``).  Semantics of
    DuckDB/kdb ``ASOF JOIN`` — an operator Ray Data has no native form of.

    Same physical shape as :func:`hash_join` (the partitioning assumption
    this operator relies on): both sides are normalized to one shared Arrow
    schema, hash-bucketed ON THE KEY so every key's rows co-locate, unioned
    in one shuffle, and merged per bucket with a vectorized
    ``pandas.merge_asof`` (sorted by timestamp, ``by=`` the key).  Skewed
    keys behave exactly like hash_join's (a hot key concentrates one
    bucket; the merge stays O(n log n) in the bucket).

    Requirements: disjoint non-key columns, ``left_ts != right_ts`` names,
    non-null keys/timestamps (null-key or null-ts rows are dropped — an
    as-of match on them is meaningless).  ``how='inner'`` drops unmatched
    left rows; ``'left'`` keeps them with nulls on the right columns."""
    if left_ts == right_ts:
        raise ValueError("left_ts and right_ts must have distinct column names")
    if how not in ("inner", "left"):
        raise ValueError(f"asof_join how must be 'inner' or 'left', got {how!r}")
    if direction not in ("backward", "forward"):
        raise ValueError(
            f"asof_join direction must be 'backward' or 'forward', got {direction!r}")
    right_on = right_on if right_on is not None else on
    lsch = _pa_schema(left)
    rsch = _pa_schema(right)
    lnames = list(lsch.names)
    rnames = list(rsch.names)
    overlap = (set(lnames) & set(rnames)) - ({on} if on == right_on else set())
    if overlap:
        raise ValueError(f"asof_join requires disjoint columns, overlap: {overlap}")
    all_fields = [lsch.field(n) for n in lnames]
    all_fields += [rsch.field(n) for n in rnames if n not in lnames]

    def norm(side: int, key: str, ts: str):
        def f(t: pa.Table) -> pa.Table:
            mask = pa.compute.and_(
                pa.compute.is_valid(t.column(key)), pa.compute.is_valid(t.column(ts))
            )
            t = t.filter(mask)
            cols = {}
            for fld in all_fields:
                if fld.name in t.column_names:
                    c = t.column(fld.name)
                    cols[fld.name] = c.combine_chunks() if isinstance(c, pa.ChunkedArray) else c
                else:
                    cols[fld.name] = pa.nulls(t.num_rows, fld.type)
            keyvals = t.column(key).to_numpy(zero_copy_only=False)
            pb = bucket_of(_hash_any(keyvals), num_partitions) if t.num_rows else np.empty(0, np.int64)
            cols[_PB] = pa.array(pb.astype(np.int32), pa.int32())
            cols[_SIDE] = pa.array(np.full(t.num_rows, side, np.int8), pa.int8())
            return pa.table(cols)

        return f

    l = left.map_batches(norm(0, on, left_ts), batch_format="pyarrow")
    r = right.map_batches(norm(1, right_on, right_ts), batch_format="pyarrow")

    # mirror hash_join's drop_right_key: a differently-named right key column
    # is redundant after the equi-match
    extra_r = [n for n in rnames if n not in lnames and n != right_on]
    out_names = lnames + extra_r
    field_of = {f.name: f for f in all_fields}
    out_schema = pa.schema([field_of[n] for n in out_names])

    def merge(df: pd.DataFrame) -> pa.Table:
        lp = df[df[_SIDE] == 0][lnames].sort_values(left_ts, kind="mergesort")
        # among right rows tied on (key, ts), merge_asof keeps the LAST in
        # sort order — sort ALL right columns so the winner is deterministic
        # regardless of shuffle arrival order (note: a SQL ASOF oracle's
        # tie choice is implementation-defined; compare against one only
        # when (key, ts) is unique on the right side)
        rp = df[df[_SIDE] == 1][rnames].sort_values(
            [right_ts] + [c for c in rnames if c != right_ts], kind="mergesort")
        by_kw = dict(by=on) if on == right_on else dict(left_by=on, right_by=right_on)
        m = pd.merge_asof(lp, rp, left_on=left_ts, right_on=right_ts,
                          direction=direction, **by_kw)
        if how == "inner":
            m = m[m[right_ts].notna()]
        cols = [pa.Array.from_pandas(m[n], type=field_of[n].type) for n in out_names]
        return pa.Table.from_arrays(cols, schema=out_schema)

    return (
        l.union(r)
        .groupby(_PB)
        .map_groups(lambda g: merge(g.drop(columns=[_PB])), batch_format="pandas")
    )


def interval_join(
    points: "ray.data.Dataset",
    intervals: "ray.data.Dataset",
    *,
    on: str,
    point_col: str,
    lo_col: str,
    hi_col: str,
    right_on: str | None = None,
    num_partitions: int = 32,
) -> "ray.data.Dataset":
    """Distributed keyed range join: inner-join each point row to every
    interval row with an equal key and ``lo_col <= point_col <= hi_col``
    (both ends inclusive, SQL ``BETWEEN`` semantics).  Overlapping intervals
    are allowed — a point matches each one.

    Physical shape = :func:`hash_join`: one shared Arrow schema, hash-bucket
    on the KEY (the partitioning assumption: all of a key's points and
    intervals co-locate), one union shuffle, then a per-bucket vectorized
    pandas equi-merge + range mask.  The per-bucket cost is
    sum_over_keys(points_k * intervals_k) BEFORE the range mask — fine when
    per-key interval counts are bounded (sessions, price bands); a key with
    millions of both sides needs a value-binned variant instead.  Null keys,
    points, or bounds never match and are dropped."""
    right_on = right_on if right_on is not None else on
    lsch = _pa_schema(points)
    rsch = _pa_schema(intervals)
    lnames = list(lsch.names)
    rnames = list(rsch.names)
    overlap = (set(lnames) & set(rnames)) - ({on} if on == right_on else set())
    if overlap:
        raise ValueError(f"interval_join requires disjoint columns, overlap: {overlap}")
    all_fields = [lsch.field(n) for n in lnames]
    all_fields += [rsch.field(n) for n in rnames if n not in lnames]

    def norm(side: int, key: str, req: list[str]):
        def f(t: pa.Table) -> pa.Table:
            mask = pa.compute.is_valid(t.column(key))
            for c in req:
                mask = pa.compute.and_(mask, pa.compute.is_valid(t.column(c)))
            t = t.filter(mask)
            cols = {}
            for fld in all_fields:
                if fld.name in t.column_names:
                    c = t.column(fld.name)
                    cols[fld.name] = c.combine_chunks() if isinstance(c, pa.ChunkedArray) else c
                else:
                    cols[fld.name] = pa.nulls(t.num_rows, fld.type)
            keyvals = t.column(key).to_numpy(zero_copy_only=False)
            pb = bucket_of(_hash_any(keyvals), num_partitions) if t.num_rows else np.empty(0, np.int64)
            cols[_PB] = pa.array(pb.astype(np.int32), pa.int32())
            cols[_SIDE] = pa.array(np.full(t.num_rows, side, np.int8), pa.int8())
            return pa.table(cols)

        return f

    l = points.map_batches(norm(0, on, [point_col]), batch_format="pyarrow")
    r = intervals.map_batches(norm(1, right_on, [lo_col, hi_col]), batch_format="pyarrow")

    extra_r = [n for n in rnames if n not in lnames and n != right_on]
    out_names = lnames + extra_r
    field_of = {f.name: f for f in all_fields}
    out_schema = pa.schema([field_of[n] for n in out_names])

    def merge(df: pd.DataFrame) -> pa.Table:
        lp = df[df[_SIDE] == 0][lnames]
        rp = df[df[_SIDE] == 1][rnames]
        m = lp.merge(rp, left_on=on, right_on=right_on, how="inner")
        m = m[(m[lo_col] <= m[point_col]) & (m[point_col] <= m[hi_col])]
        cols = [pa.Array.from_pandas(m[n], type=field_of[n].type) for n in out_names]
        return pa.Table.from_arrays(cols, schema=out_schema)

    return (
        l.union(r)
        .groupby(_PB)
        .map_groups(lambda g: merge(g.drop(columns=[_PB])), batch_format="pandas")
    )


def demand_semijoin_apply(
    pairs: "ray.data.Dataset",
    records: "ray.data.Dataset",
    apply_fn,
    *,
    num_partitions: int = 64,
    key_col: str = "conv_id",
):
    """Generic demand-semi-join co-partition for pair-vs-record operators
    (the beyond-broadcast path for PER-PAIR payload application, e.g.
    feature extraction; similarity verifies use verify.grid_verify
    instead — an index is shardable, per-pair feature state is not):

    1. pairs bucket by hash(id1);
    2. a dedup'd narrow (bucket, record-key-hash) DEMAND set shuffles;
    3. each record's payload row joins the demand ONCE per needing bucket
       (never once per pair — the list-per-pair join this replaces was the
       dominant cost of the scale path);
    4. ``apply_fn(pairs_tbl, records_tbl)`` runs per bucket, where
       pairs_tbl has {k1, k2, id1, id2} (k = 64-bit id hashes) and
       records_tbl has {k1} + the record payload columns.

    NO NULLABLE INTS cross the internal union (zero_pad): Ray's sort can
    coerce nullable int64 through pandas float64 and round 64-bit keys."""
    from ..functions.hashing import hash_strings

    psch = _pa_schema(pairs)
    rsch = _pa_schema(records)
    id1_t, id2_t = psch.field("id1").type, psch.field("id2").type
    payload = [rsch.field(n) for n in rsch.names if n != key_col]
    fields = [("pb", pa.int32()), ("isp", pa.int8()),
              ("k1", pa.int64()), ("k2", pa.int64()),
              ("id1", id1_t), ("id2", id2_t)]
    fields += [(f.name, f.type) for f in payload]
    schema = pa.schema(fields)

    def tag_pairs(t: pa.Table) -> pa.Table:
        i1 = np.asarray(t.column("id1").to_numpy(zero_copy_only=False), dtype=object)
        i2 = np.asarray(t.column("id2").to_numpy(zero_copy_only=False), dtype=object)
        k1, k2 = hash_strings(i1), hash_strings(i2)
        n = len(i1)
        c1, c2 = t.column("id1"), t.column("id2")
        cols = {
            "pb": pa.array(bucket_of(k1, num_partitions).astype(np.int32), pa.int32()),
            "isp": pa.array(np.ones(n, np.int8), pa.int8()),
            "k1": pa.array(k1, pa.int64()), "k2": pa.array(k2, pa.int64()),
            "id1": c1.combine_chunks() if isinstance(c1, pa.ChunkedArray) else c1,
            "id2": c2.combine_chunks() if isinstance(c2, pa.ChunkedArray) else c2,
        }
        for f in payload:
            cols[f.name] = zero_pad(n, f.type)
        return pa.table(cols, schema=schema)

    tagged = pairs.select_columns(["id1", "id2"]).map_batches(
        tag_pairs, batch_format="pyarrow").materialize()

    def emit_demand(t: pa.Table) -> pa.Table:
        pb = np.asarray(t.column("pb"), dtype=np.int64)
        k1 = np.asarray(t.column("k1"), dtype=np.int64)
        k2 = np.asarray(t.column("k2"), dtype=np.int64)
        u = np.unique(np.stack([np.concatenate([pb, pb]),
                                np.concatenate([k1, k2])]), axis=1)
        return pa.table({
            "db": pa.array(bucket_of(u[1], num_partitions).astype(np.int32), pa.int32()),
            "pb": pa.array(u[0].astype(np.int32), pa.int32()),
            "k": pa.array(u[1], pa.int64()),
        })

    def dedup_demand(t: pa.Table) -> pa.Table:
        u = np.unique(np.stack([np.asarray(t.column("pb"), dtype=np.int64),
                                np.asarray(t.column("k"), dtype=np.int64)]), axis=1)
        return pa.table({"pb": pa.array(u[0].astype(np.int32), pa.int32()),
                         "k": pa.array(u[1], pa.int64())})

    demand = (tagged.map_batches(emit_demand, batch_format="pyarrow")
              .groupby("db")
              .map_groups(lambda g: dedup_demand(g.drop(["db"])),
                          batch_format="pyarrow"))

    def tag_records(t: pa.Table) -> pa.Table:
        ids = np.asarray(t.column(key_col).to_numpy(zero_copy_only=False), dtype=object)
        cols = {"kk": pa.array(hash_strings(ids), pa.int64())}
        for f in payload:
            c = t.column(f.name)
            cols["p_" + f.name] = c.combine_chunks() if isinstance(c, pa.ChunkedArray) else c
        return pa.table(cols)

    recs_keyed = records.map_batches(tag_records, batch_format="pyarrow")
    lists = hash_join(demand, recs_keyed, on="k", right_on="kk",
                      num_partitions=num_partitions)

    def shape_records(t: pa.Table) -> pa.Table:
        n = t.num_rows
        cols = {
            "pb": t.column("pb"),
            "isp": pa.array(np.zeros(n, np.int8), pa.int8()),
            "k1": t.column("k"),
            "k2": zero_pad(n, pa.int64()),
            "id1": zero_pad(n, id1_t),
            "id2": zero_pad(n, id2_t),
        }
        for f in payload:
            c = t.column("p_" + f.name)
            cols[f.name] = c.combine_chunks() if isinstance(c, pa.ChunkedArray) else c
        return pa.table(cols, schema=schema)

    shaped = lists.map_batches(shape_records, batch_format="pyarrow")

    def bucket(t: pa.Table) -> pa.Table:
        isp = np.asarray(t.column("isp"), dtype=np.int8) == 1
        pt = t.filter(pa.array(isp)).select(["k1", "k2", "id1", "id2"])
        rt = t.filter(pa.array(~isp)).select(["k1"] + [f.name for f in payload])
        return apply_fn(pt, rt)

    return (tagged.union(shaped)
            .groupby("pb")
            .map_groups(lambda g: bucket(g.drop(["pb"])), batch_format="pyarrow"))
