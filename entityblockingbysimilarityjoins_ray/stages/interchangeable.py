"""Interchangeable-value (IC) subsystem v1 — the reference's "round 2"
accuracy lever.

Reference flow (/root/reference/simjoin_entitymatching/value_matcher/
interchangeable.py:162-205 group_interchangeable; doc2vec.py:290-357
_label_and_group; normalize_values interchangeable.py:17-67):

1. collect the attribute values appearing in MATCHED record pairs,
2. embed each value (the reference trains per-attribute doc2vec models),
3. connect values whose embedding cosine >= group_tau, take connected
   components (optionally transitive closure) -> {value -> group id},
4. normalize: replace each record's value by its group's representative
   so a second feature-extraction / match round treats interchangeable
   values as equal (the cpp feature path instead takes max sim over group
   members, cal_feature.h:37-84 — value substitution by the representative
   is the equivalent for identity-invariant sims).

Ray-native + sandbox-safe: gensim doc2vec is not available here, so values
are embedded with deterministic FEATURE-HASHED bag-of-tokens vectors
(token -> signed slot via the same 64-bit hash family used everywhere;
Weinberger et al., ICML'09 "Feature Hashing for Large Scale Multitask
Learning") — L2-normalized, so cosine reduces to a dot product.  The
grouping machinery (pairing + CC + normalization) is model-agnostic: swap
``embed_values`` for a real model's vectors when one is available.
"""

from __future__ import annotations

import logging

import numpy as np
import pandas as pd
import pyarrow as pa
import ray
import ray.data

from ..functions.hashing import get_broadcast, hash_strings
from ..functions.tokenize import tokens_list_array

logger = logging.getLogger(__name__)


def embed_values(values: np.ndarray, *, dim: int = 128, tok: str = "dlm", q: int = 3) -> np.ndarray:
    """Deterministic feature-hashed bag-of-tokens embedding, L2-normalized.

    Vectorized: one tokenizer pass over the whole batch, then a signed
    scatter-add into (n, dim).  Stands in for the reference's per-attribute
    doc2vec vectors (doc2vec.py:109-131) with a public, training-free
    scheme; identical inputs embed identically across workers and runs."""
    arr = pa.array(pd.Series(np.asarray(values, dtype=object)).fillna("").astype(str))
    lists = tokens_list_array(arr, tok, q)
    flat = lists.flatten()
    offs = np.asarray(lists.offsets, dtype=np.int64)
    if offs.size and offs[0] != 0:
        offs = offs - offs[0]
    toks = np.asarray(pd.Series(np.asarray(flat, dtype=object)).astype(str), dtype=object)
    n = len(values)
    M = np.zeros((n, dim), np.float64)
    if toks.size:
        h = hash_strings(toks).view(np.uint64)
        slot = (h % np.uint64(dim)).astype(np.int64)
        sign = np.where((h >> np.uint64(63)).astype(bool), -1.0, 1.0)
        rows = np.repeat(np.arange(n, dtype=np.int64), np.diff(offs))
        np.add.at(M, (rows, slot), sign)
    nrm = np.linalg.norm(M, axis=1, keepdims=True)
    return M / np.maximum(nrm, 1e-30)


def matched_values(
    matches: "ray.data.Dataset", docs: "ray.data.Dataset", attr: str,
    *, num_partitions: int = 32, broadcast_limit: int = 2_000_000,
    n_records: int | None = None,
) -> "ray.data.Dataset":
    """Distinct non-empty values of ``attr`` among records that appear in
    the match result (the reference groups ONLY values seen in match pairs,
    doc2vec.py:724-... load_match_res).  Output {val}."""
    ids = matches.select_columns(["id1"]).map_batches(
        lambda t: pa.table({"conv_id": t.column("id1")}), batch_format="pyarrow"
    ).union(matches.select_columns(["id2"]).map_batches(
        lambda t: pa.table({"conv_id": t.column("id2")}), batch_format="pyarrow"
    ))
    proj = docs.select_columns(["conv_id", attr])
    n = n_records if n_records is not None else docs.count()
    from .verify import should_broadcast

    if should_broadcast(proj, n, broadcast_limit):
        import pyarrow.compute as pc

        from .verify import collect_arrow

        tbl = collect_arrow(proj)
        vmap = pd.Series(
            np.asarray(pc.cast(tbl.column(attr), pa.string()).to_numpy(zero_copy_only=False), dtype=object),
            index=pd.Index(np.asarray(tbl.column("conv_id").to_numpy(zero_copy_only=False), dtype=object)),
        )
        ref = ray.put(vmap)

        def lookup(t: pa.Table) -> pa.Table:
            m = get_broadcast(ref)
            cid = np.asarray(t.column("conv_id").to_numpy(zero_copy_only=False), dtype=object)
            vals = m.reindex(cid).to_numpy(object)
            ok = pd.notna(vals) & (vals != "")
            return pa.table({"val": pa.array(vals[ok], pa.string())})

        vals = ids.map_batches(lookup, batch_format="pyarrow")
    else:
        from .joins import hash_join

        j = hash_join(ids, proj.map_batches(
            lambda t: pa.table({"cid": t.column("conv_id"), "val": t.column(attr)}),
            batch_format="pyarrow"),
            on="conv_id", right_on="cid", num_partitions=num_partitions)

        def nonempty(df: pd.DataFrame) -> pd.DataFrame:
            # the broadcast lookup's rule: null and "" values are dropped
            v = df["val"].dropna().astype(str)
            return pd.DataFrame({"val": v[v != ""]})

        vals = j.map_batches(nonempty, batch_format="pandas")
    # distinct via per-batch dedupe + groupby (tiny vocabulary-sized shuffle)
    vals = vals.map_batches(
        lambda df: df.drop_duplicates("val"), batch_format="pandas"
    ).groupby("val").map_groups(lambda df: df.head(1), batch_format="pandas")
    return vals


def group_values(
    matches: "ray.data.Dataset", docs: "ray.data.Dataset", attr: str,
    *, tau: float = 0.8, dim: int = 128, tok: str = "dlm", q: int = 3,
    num_partitions: int = 32, mode: str = "bruteforce",
    n_records: int | None = None,
) -> "ray.data.Dataset":
    """IC grouping: {val, group_rep} for every matched value; group_rep is
    the lexicographic minimum of the value's CC group (a deterministic
    stand-in for the reference's 'first doc of the cluster',
    interchangeable.py:50-53).  Singleton groups map to themselves."""
    from .cluster import cluster_entities
    from .dedup import embedding_dup_pairs

    vals = matched_values(matches, docs, attr, num_partitions=num_partitions,
                          n_records=n_records).materialize()

    def emb(t: pa.Table) -> pa.Table:
        v = np.asarray(t.column("val").to_numpy(zero_copy_only=False), dtype=object)
        M = embed_values(v, dim=dim, tok=tok, q=q)
        return pa.table({
            "vec_id": pa.array(v, pa.string()),
            "embedding": pa.FixedSizeListArray.from_arrays(
                pa.array(M.ravel(), pa.float64()), dim),
        })

    embs = vals.map_batches(emb, batch_format="pyarrow")
    pairs = embedding_dup_pairs(embs, threshold=tau, mode=mode,
                                num_partitions=num_partitions)
    ids = vals.map_batches(
        lambda t: pa.table({"conv_id": t.column("val")}), batch_format="pyarrow"
    )
    lab = cluster_entities(pairs, ids, num_partitions=num_partitions)
    return lab.map_batches(
        lambda df: pd.DataFrame({"val": df["conv_id"], "group_rep": df["entity_id"]}),
        batch_format="pandas",
    )


def normalize_attr(
    docs: "ray.data.Dataset", attr: str, groups: "ray.data.Dataset",
) -> "ray.data.Dataset":
    """Replace ``attr`` values by their IC-group representative
    (normalize_values, interchangeable.py:17-67).  The group table is
    vocabulary-sized (distinct matched values), so it is broadcast once per
    worker; unmatched / singleton values pass through unchanged."""
    g = groups.to_pandas()
    changed = g[g["val"] != g["group_rep"]]
    gmap = pd.Series(changed["group_rep"].to_numpy(object),
                     index=pd.Index(changed["val"]))
    ref = ray.put(gmap)

    def sub(t: pa.Table) -> pa.Table:
        import pyarrow.compute as pc

        m = get_broadcast(ref)
        v = np.asarray(pc.cast(t.column(attr), pa.string()).to_numpy(zero_copy_only=False), dtype=object)
        rep = m.reindex(pd.Index(v)).to_numpy(object)
        out_v = np.where(pd.isna(rep), v, rep)
        i = t.column_names.index(attr)
        return t.set_column(i, attr, pa.array(out_v, pa.string()))

    return docs.map_batches(sub, batch_format="pyarrow")


def second_round_match(
    candidates: "ray.data.Dataset", docs: "ray.data.Dataset", matches: "ray.data.Dataset",
    attr: str, *, tau: float = 0.8, score_cols: list[str], threshold: float,
    feature_specs=None, n_records: int | None = None,
) -> "ray.data.Dataset":
    """IC-aware re-match (match.py:135-166): group values from round-1
    matches, normalize the docs, re-extract features over the SAME candidate
    set, re-decide.  Recovers pairs whose only disagreement is an
    interchangeable value."""
    from .features import DEFAULT_FEATURES, extract_features
    from .matcher import threshold_match

    groups = group_values(matches, docs, attr, tau=tau, n_records=n_records)
    ndocs = normalize_attr(docs, attr, groups)
    feats = extract_features(candidates, ndocs, feature_specs or DEFAULT_FEATURES,
                             n_records=n_records)
    return threshold_match(feats, score_cols=score_cols, threshold=threshold)


# ---------------------------------------------------------------------------
# trainable value embedder (the doc2vec value-matcher analogue)
# ---------------------------------------------------------------------------


class ValueEmbedder:
    """Trainable value embedder — the sandboxed stand-in for the reference's
    per-attribute doc2vec models (doc2vec.py:109-131 train_and_save /
    load_model): a PPMI-weighted token co-occurrence matrix over the
    attribute's value corpus, factored by truncated SVD (Levy & Goldberg,
    NIPS'14 "Neural Word Embedding as Implicit Matrix Factorization" — the
    public result that PPMI-SVD approximates skip-gram factorization).

    Deterministic (seeded power iteration), numpy-only, driver-side training
    like the reference (gensim trains on the driver there too); inference is
    a vectorized mean of token vectors, L2-normalized.  Vocabulary is capped
    to the most frequent tokens so the dense co-occurrence stays small."""

    def __init__(self, dim: int = 64, window: int = 4, max_vocab: int = 20000,
                 tok: str = "dlm", seed: int = 42):
        self.dim = dim
        self.window = window
        self.max_vocab = max_vocab
        self.tok = tok
        self.seed = seed
        self.vocab: pd.Index | None = None
        self.vectors: np.ndarray | None = None  # (V, dim)

    def _token_lists(self, values: np.ndarray) -> list[list[str]]:
        import re

        from ..config import DLM_DELIMS

        pat = "[" + re.escape(DLM_DELIMS) + "]+"
        return [
            [t for t in re.split(pat, str(v)) if t]
            for v in pd.Series(values).fillna("")
        ]

    def train(self, values: np.ndarray) -> "ValueEmbedder":
        lists = self._token_lists(values)
        counts = pd.Series([t for l in lists for t in l]).value_counts()
        vocab = pd.Index(counts.index[: self.max_vocab])
        V = len(vocab)
        if V == 0:
            self.vocab = vocab
            self.vectors = np.zeros((0, self.dim))
            return self
        co = np.zeros((V, V), np.float64)
        for l in lists:
            idx = vocab.get_indexer(l)
            idx = idx[idx >= 0]
            for off in range(1, self.window + 1):
                if idx.size > off:
                    a, b = idx[:-off], idx[off:]
                    np.add.at(co, (a, b), 1.0)
                    np.add.at(co, (b, a), 1.0)
        total = co.sum()
        if total == 0:
            co[np.diag_indices(V)] = 1.0
            total = co.sum()
        pw = co.sum(axis=1, keepdims=True) / total
        with np.errstate(divide="ignore", invalid="ignore"):
            pmi = np.log((co / total) / (pw * pw.T))
        ppmi = np.where(np.isfinite(pmi) & (pmi > 0), pmi, 0.0)
        # seeded randomized SVD (power iteration) — deterministic
        rng = np.random.default_rng(self.seed)
        k = min(self.dim, V)
        Q = rng.normal(size=(V, k))
        for _ in range(4):
            Q, _r = np.linalg.qr(ppmi @ Q)
        B = Q.T @ ppmi
        Ub, sb, _vt = np.linalg.svd(B, full_matrices=False)
        U = Q @ Ub
        vecs = U * np.sqrt(np.maximum(sb, 0.0))[None, :]
        if k < self.dim:
            vecs = np.pad(vecs, ((0, 0), (0, self.dim - k)))
        self.vocab = vocab
        self.vectors = vecs
        return self

    def embed(self, values: np.ndarray) -> np.ndarray:
        """Mean of token vectors, L2-normalized; OOV tokens contribute 0."""
        assert self.vocab is not None, "train() first"
        lists = self._token_lists(values)
        out = np.zeros((len(lists), self.dim), np.float64)
        for i, l in enumerate(lists):
            idx = self.vocab.get_indexer(l)
            idx = idx[idx >= 0]
            if idx.size:
                out[i] = self.vectors[idx].mean(axis=0)
        nrm = np.linalg.norm(out, axis=1, keepdims=True)
        return out / np.maximum(nrm, 1e-30)


class PretrainedEmbedder(ValueEmbedder):
    """Pre-trained word-vector embedder — the reference's fastText / word2vec
    / GloVe value matchers (value_matcher/fasttext.py:22-33, word2vec.py,
    glove.py:11-41) behind the same embed() surface as ValueEmbedder.

    - GloVe text format ("token v1 .. vn" lines) loads natively with numpy —
      no third-party dependency.
    - word2vec / fastText ``-saveVectors`` output (binary or text, both with
      the "<vocab> <dim>" header) loads via a direct numpy parser of the
      public format — no gensim dependency.  The Ray-side plumbing —
      broadcast via ray.put, map_batches inference — is identical to
      ValueEmbedder and fully exercised by group_values_trained."""

    def __init__(self, tok: str = "dlm"):
        super().__init__(tok=tok)

    def load_glove(self, path: str) -> "PretrainedEmbedder":
        toks, rows = [], []
        with open(path, encoding="utf-8") as f:
            for line in f:
                parts = line.rstrip("\n").split(" ")
                if len(parts) < 2:
                    continue
                toks.append(parts[0])
                rows.append(np.asarray(parts[1:], np.float64))
        self.vocab = pd.Index(toks)
        self.vectors = np.vstack(rows) if rows else np.zeros((0, 1))
        self.dim = int(self.vectors.shape[1])
        return self

    def load_word2vec(self, path: str, binary: bool = True) -> "PretrainedEmbedder":
        """Load the PUBLIC word2vec format with numpy only (no gensim):
        header line ``"<vocab_size> <dim>\\n"``, then per token either
        ``token<space><dim x float32 LE>[\\n]`` (binary=True — the layout
        written by the original word2vec.c / fastText ``-saveVectors``) or a
        ``token v1 .. vn`` text line (binary=False).  Reference loaders:
        value_matcher/fasttext.py:22-33, word2vec.py."""
        toks: list[str] = []
        if binary:
            with open(path, "rb") as f:
                header = f.readline().split()
                vocab_size, dim = int(header[0]), int(header[1])
                vecs = np.empty((vocab_size, dim), np.float32)
                row_bytes = 4 * dim
                for i in range(vocab_size):
                    # token = bytes up to the separating space; leading
                    # newline left over from the previous row is skipped
                    chars = bytearray()
                    while True:
                        ch = f.read(1)
                        if not ch:
                            raise ValueError(f"truncated word2vec file at row {i}")
                        if ch == b" ":
                            break
                        if ch != b"\n":
                            chars.extend(ch)
                    toks.append(chars.decode("utf-8", errors="replace"))
                    buf = f.read(row_bytes)
                    if len(buf) != row_bytes:
                        raise ValueError(f"truncated word2vec vector at row {i}")
                    vecs[i] = np.frombuffer(buf, "<f4")
        else:
            with open(path, encoding="utf-8") as f:
                header = f.readline().split()
                vocab_size, dim = int(header[0]), int(header[1])
                vecs = np.empty((vocab_size, dim), np.float32)
                for i in range(vocab_size):
                    parts = f.readline().rstrip("\n").split(" ")
                    toks.append(parts[0])
                    vecs[i] = np.asarray(parts[1 : dim + 1], np.float32)
        self.vocab = pd.Index(toks)
        self.vectors = vecs.astype(np.float64)
        self.dim = int(dim)
        return self

    # -- fastText native .bin (subword model) --------------------------------

    _FT_MAGIC = 793712314

    @staticmethod
    def _ft_hash(data: bytes) -> int:
        """fastText's FNV-1a over SIGNED chars (dictionary.cc hash())."""
        h = 2166136261
        for b in data:
            if b >= 128:
                b -= 256
            h = (h ^ (b & 0xFFFFFFFF)) * 16777619 & 0xFFFFFFFF
        return h

    @classmethod
    def _ft_subword_hashes(cls, word: str, minn: int, maxn: int,
                           bucket: int) -> list[int]:
        """Char n-gram bucket ids of ``<word>`` (BOW/EOW-wrapped), the
        dictionary.cc computeSubwords() walk: UTF-8 continuation bytes
        extend the current char, 1-grams touching either boundary are
        skipped, the full wrapped word IS an n-gram when it fits maxn."""
        data = ("<" + word + ">").encode("utf-8")
        out: list[int] = []
        L = len(data)
        for i in range(L):
            if (data[i] & 0xC0) == 0x80:
                continue
            j, n = i, 1
            while j < L and n <= maxn:
                j += 1
                while j < L and (data[j] & 0xC0) == 0x80:
                    j += 1
                if n >= minn and not (n == 1 and (i == 0 or j == L)):
                    out.append(cls._ft_hash(data[i:j]) % bucket)
                n += 1
        return out

    def load_fasttext_bin(self, path: str) -> "PretrainedEmbedder":
        """Load a NATIVE fastText ``.bin`` (the subword model the reference
        feeds to ``fasttext.load_model``, value_matcher/fasttext.py:22-33)
        with numpy only, from the public file format: int32 magic+version,
        the Args block, the Dictionary block (NUL-terminated words +
        int64 count + int8 type), a quant flag, then the input matrix
        (int64 m, int64 n, m*n float32) whose first nwords rows are word
        vectors and remaining ``bucket`` rows are char-n-gram vectors.
        Each vocabulary word's vector is the MEAN of its own input row and
        its subword-bucket rows (fasttext.cc getWordVector)."""
        import struct

        with open(path, "rb") as f:
            magic, version = struct.unpack("<ii", f.read(8))
            if magic != self._FT_MAGIC:
                raise ValueError(f"not a fastText .bin (magic {magic})")
            if version > 12:
                raise ValueError(f"unsupported fastText version {version}")
            (dim, _ws, _epoch, _min_count, _neg, _word_ngrams, _loss, _model,
             bucket, minn, maxn, _lr_update) = struct.unpack("<12i", f.read(48))
            (_t,) = struct.unpack("<d", f.read(8))

            size, nwords, _nlabels = struct.unpack("<iii", f.read(12))
            _ntokens, pruneidx_size = struct.unpack("<qq", f.read(16))
            words: list[str] = []
            for _ in range(size):
                chars = bytearray()
                while True:
                    ch = f.read(1)
                    if not ch:
                        raise ValueError("truncated fastText dictionary")
                    if ch == b"\x00":
                        break
                    chars.extend(ch)
                f.read(9)  # int64 count + int8 entry type
                words.append(chars.decode("utf-8"))
            pruneidx: dict[int, int] = {}
            for _ in range(max(pruneidx_size, 0)):
                k, v = struct.unpack("<ii", f.read(8))
                pruneidx[k] = v

            (quant,) = struct.unpack("<?", f.read(1))
            if quant:
                raise ValueError("quantized fastText models are not supported")
            m, n = struct.unpack("<qq", f.read(16))
            buf = f.read(4 * m * n)
            if len(buf) != 4 * m * n:
                raise ValueError("truncated fastText input matrix")
            data = np.frombuffer(buf, "<f4").reshape(m, n)

        self._ft_input = data.astype(np.float64)
        self._ft_nwords = nwords
        self._ft_bucket = bucket
        self._ft_minn, self._ft_maxn = minn, maxn
        self._ft_pruneidx = pruneidx

        vecs = np.empty((nwords, dim), np.float64)
        for i, w in enumerate(words[:nwords]):
            vecs[i] = self._ft_word_vector(w, word_row=i)
        self.vocab = pd.Index(words[:nwords])
        self.vectors = vecs
        self.dim = int(dim)
        return self

    def _ft_word_vector(self, word: str, word_row: int | None = None) -> np.ndarray:
        """Mean of the word's own input row (in-vocab only) and its subword
        rows — also serves OOV words (word_row=None), fastText's headline
        capability over word2vec."""
        rows: list[int] = []
        if word_row is not None:
            rows.append(word_row)
        if self._ft_maxn >= self._ft_minn and self._ft_minn > 0 and word != "</s>":
            for h in self._ft_subword_hashes(word, self._ft_minn, self._ft_maxn,
                                             self._ft_bucket):
                if self._ft_pruneidx:
                    if h in self._ft_pruneidx:
                        rows.append(self._ft_nwords + self._ft_pruneidx[h])
                else:
                    rows.append(self._ft_nwords + h)
        if not rows:
            return np.zeros(self._ft_input.shape[1])
        return self._ft_input[rows].mean(axis=0)

    def oov_vector(self, word: str) -> np.ndarray:
        """Subword-composed vector for an out-of-vocabulary word (requires a
        load_fasttext_bin model)."""
        if not hasattr(self, "_ft_input"):
            raise ValueError("oov_vector needs a native fastText .bin model")
        return self._ft_word_vector(word, word_row=None)

    def train(self, values: np.ndarray) -> "PretrainedEmbedder":
        raise NotImplementedError(
            "pre-trained embedder: load_glove/load_word2vec/load_fasttext_bin")


def group_values_trained(
    matches: "ray.data.Dataset", docs: "ray.data.Dataset", attr: str,
    *, tau: float = 0.8, dim: int = 64, num_partitions: int = 32,
    n_records: int | None = None, embedder: ValueEmbedder | None = None,
) -> "ray.data.Dataset":
    """IC grouping with the TRAINED embedder (group_interchangeable's
    'doc' strategy, interchangeable.py:185-205): train on the matched-value
    corpus, embed, pair by cosine >= tau, connected components."""
    from .cluster import cluster_entities
    from .dedup import embedding_dup_pairs

    vals_ds = matched_values(matches, docs, attr, num_partitions=num_partitions,
                             n_records=n_records).materialize()
    corpus = vals_ds.to_pandas()["val"].to_numpy(object)  # vocabulary-sized
    emb = (embedder or ValueEmbedder(dim=dim)).train(corpus)
    ref = ray.put(emb)

    def embat(t: pa.Table) -> pa.Table:
        model: ValueEmbedder = get_broadcast(ref)
        v = np.asarray(t.column("val").to_numpy(zero_copy_only=False), dtype=object)
        M = model.embed(v)
        return pa.table({
            "vec_id": pa.array(v, pa.string()),
            "embedding": pa.FixedSizeListArray.from_arrays(
                pa.array(M.ravel(), pa.float64()), model.dim),
        })

    embs = vals_ds.map_batches(embat, batch_format="pyarrow")
    pairs = embedding_dup_pairs(embs, threshold=tau, num_partitions=num_partitions)
    ids = vals_ds.map_batches(
        lambda t: pa.table({"conv_id": t.column("val")}), batch_format="pyarrow"
    )
    lab = cluster_entities(pairs, ids, num_partitions=num_partitions)
    return lab.map_batches(
        lambda df: pd.DataFrame({"val": df["conv_id"], "group_rep": df["entity_id"]}),
        batch_format="pandas",
    )
