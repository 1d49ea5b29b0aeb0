"""Hash-partitioned equi-join built on the bucket-groupby pattern.

``Dataset.join`` in Ray 2.49.2 loses the schema of empty Arrow blocks (the
acero probe then fails with "No match ... for key field reference") and its
aggregator actor pool can starve small clusters, so the engine ships its own
join: both sides are normalized to ONE shared Arrow schema (missing columns
as typed nulls) + a bucket column, unioned, hash-bucket grouped, and merged
per bucket with a vectorized pandas hash join.  One shuffle, no actor pool,
robust to empty blocks.

This is also the portable pattern the Ray guide recommends for
both-sides-large joins.  Attaching record payloads to candidate pairs is
not a relational join and does not use it directly: ``attach_pairs`` runs a
per-pair kernel behind one broadcast-or-demand-join gate."""

from __future__ import annotations

from typing import Callable, NamedTuple

import numpy as np
import pandas as pd
import pyarrow as pa
import ray.data

from ..functions.hashing import bucket_of, hash_strings

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


def _flat(c):
    return c.combine_chunks() if isinstance(c, pa.ChunkedArray) else c


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
) -> "ray.data.Dataset":
    """Equi-join; column sets of the two sides must be disjoint except keys.
    A differently-named right key column is dropped from the output: it
    repeats the left key after the equi-match."""
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
                    cols[fld.name] = _flat(t.column(fld.name))
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

    extra_r = [n for n in rnames if n not in lnames and n != right_on]
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
                    cols[fld.name] = _flat(t.column(fld.name))
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

    # as in hash_join, a differently-named right key column is redundant
    # after the equi-match
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
                    cols[fld.name] = _flat(t.column(fld.name))
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


class PairKernel(NamedTuple):
    """A per-pair payload operator for :func:`attach_pairs`.

    ``load(records_tbl) -> state`` builds per-record state from a table of
    records (every column of ``records``, conv_id included; row i of the
    table is state row i).  ``apply(state, pairs_tbl, r1, r2) -> pa.Table``
    runs over a batch of pairs (every pair column) with the state rows of
    its ``id1``/``id2``; a row is -1 where an id has no record, so each
    kernel decides whether to drop the pair or fill its values."""

    load: Callable
    apply: Callable


def _record_index(tbl: pa.Table) -> pd.Index:
    """Unique 64-bit id-hash Index over a records table's conv_ids: a
    duplicated id raises check_unique_ids' ValueError naming it, and a hash
    collision the verify index's RuntimeError."""
    from .verify import _hashed_ids, check_unique_ids

    ids = np.asarray(tbl.column("conv_id").to_numpy(zero_copy_only=False), dtype=object)
    check_unique_ids(ids, "records")
    return _hashed_ids(pd.Index(ids))[1]


def _id_hashes(t: pa.Table, col: str) -> np.ndarray:
    return hash_strings(np.asarray(t.column(col).to_numpy(zero_copy_only=False), dtype=object))


def attach_pairs(
    pairs: "ray.data.Dataset",
    records: "ray.data.Dataset",
    kernel: PairKernel,
    *,
    broadcast_limit: int,
    n_records: int | None = None,
    broadcast: bool | None = None,
    num_partitions: int = 64,
    batch_size: int | None = None,
) -> "ray.data.Dataset":
    """Attach both records' payloads to every pair ``{id1, id2, ...}`` and
    run ``kernel`` over them — the one pair-vs-record operator behind the
    features, Ditto scoring, the embedding verify, value attaches, the
    ``lev_sim`` length filter and the Megallen writer.

    ``records`` holds one row per ``conv_id``.  Ids resolve by 64-bit id
    hash on both plans; the gate is ``verify.should_broadcast`` over the
    records' count and bytes (``broadcast`` overrides it):

    - **broadcast**: one driver collect of ``records``, the duplicate-id and
      id-hash collision checks, ``kernel.load`` and one ``ray.put``; each
      worker fetches the state once and ``kernel.apply`` runs per pair
      batch in ``map_batches``.
    - **join** (beyond broadcast): pairs bucket by hash(id1); a deduped
      narrow (bucket, id-hash) DEMAND set shuffles and joins the records,
      so each record's payload crosses the shuffle once per bucket that
      needs it, never once per pair; per bucket, ``kernel.load`` runs over
      the bucket's records and ``kernel.apply`` over its pairs.  A
      duplicated id raises in-task.

    Pair columns and record columns cross the internal union under
    positional names (their names may overlap).  NO NULLABLE INTS cross it
    (zero_pad): Ray's sort can coerce nullable int64 through pandas float64
    and round 64-bit keys."""
    if broadcast is None:
        from .verify import should_broadcast

        n = n_records if n_records is not None else records.count()
        broadcast = should_broadcast(records, n, broadcast_limit)
    if broadcast:
        import ray

        from ..functions.hashing import get_broadcast
        from .verify import collect_arrow

        tbl = collect_arrow(records)
        ref = ray.put((_record_index(tbl), kernel.load(tbl)))

        def probe(t: pa.Table) -> pa.Table:
            hidx, state = get_broadcast(ref)
            return kernel.apply(state, t, hidx.get_indexer(_id_hashes(t, "id1")),
                                hidx.get_indexer(_id_hashes(t, "id2")))

        return pairs.map_batches(probe, batch_format="pyarrow", batch_size=batch_size)
    return _attach_join(pairs, records, kernel, num_partitions)


def _attach_join(pairs, records, kernel: PairKernel, num_partitions: int):
    """attach_pairs' join branch (see there)."""
    psch, rsch = _pa_schema(pairs), _pa_schema(records)
    pnames, rnames = list(psch.names), list(rsch.names)
    pfields = [pa.field(f"__p{i}", psch.field(n).type) for i, n in enumerate(pnames)]
    rfields = [pa.field(f"__r{i}", rsch.field(n).type) for i, n in enumerate(rnames)]
    schema = pa.schema([pa.field(_PB, pa.int32()), pa.field(_SIDE, pa.int8()),
                        pa.field("__k1", pa.int64()), pa.field("__k2", pa.int64())]
                       + pfields + rfields)

    def tag_pairs(t: pa.Table) -> pa.Table:
        k1, k2 = _id_hashes(t, "id1"), _id_hashes(t, "id2")
        n = t.num_rows
        cols = [pa.array(bucket_of(k1, num_partitions).astype(np.int32), pa.int32()),
                pa.array(np.ones(n, np.int8), pa.int8()),
                pa.array(k1, pa.int64()), pa.array(k2, pa.int64())]
        cols += [_flat(t.column(c)) for c in pnames]
        cols += [zero_pad(n, f.type) for f in rfields]
        return pa.Table.from_arrays(cols, schema=schema)

    tagged = pairs.map_batches(tag_pairs, batch_format="pyarrow").materialize()

    def emit_demand(t: pa.Table) -> pa.Table:
        pb = np.asarray(t.column(_PB), dtype=np.int64)
        k1 = np.asarray(t.column("__k1"), dtype=np.int64)
        k2 = np.asarray(t.column("__k2"), dtype=np.int64)
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
        cols = [pa.array(_id_hashes(t, "conv_id"), pa.int64())]
        cols += [_flat(t.column(c)) for c in rnames]
        return pa.Table.from_arrays(cols, ["kk"] + [f.name for f in rfields])

    needed = hash_join(demand, records.map_batches(tag_records, batch_format="pyarrow"),
                       on="k", right_on="kk", num_partitions=num_partitions)

    def shape_records(t: pa.Table) -> pa.Table:
        n = t.num_rows
        cols = [t.column("pb"), pa.array(np.zeros(n, np.int8), pa.int8()),
                zero_pad(n, pa.int64()), zero_pad(n, pa.int64())]
        cols += [zero_pad(n, f.type) for f in pfields]
        cols += [_flat(t.column(f.name)) for f in rfields]
        return pa.Table.from_arrays(cols, schema=schema)

    def bucket(t: pa.Table) -> pa.Table:
        isp = np.asarray(t.column(_SIDE), dtype=np.int8) == 1
        pt = t.filter(pa.array(isp))
        rt = (t.filter(pa.array(~isp)).select([f.name for f in rfields])
              .rename_columns(rnames))
        hidx = _record_index(rt)
        return kernel.apply(
            kernel.load(rt),
            pt.select([f.name for f in pfields]).rename_columns(pnames),
            hidx.get_indexer(np.asarray(pt.column("__k1"), dtype=np.int64)),
            hidx.get_indexer(np.asarray(pt.column("__k2"), dtype=np.int64)))

    return (tagged.union(needed.map_batches(shape_records, batch_format="pyarrow"))
            .groupby(_PB)
            .map_groups(bucket, batch_format="pyarrow"))
