"""Text embedding backends and cosine similarity.

Two interchangeable backends sit behind the same operations: a remote
HTTP embedding service, and a deterministic local feature hasher so that
retrieval is fully testable offline.

The local backend is pinned exactly (reproducible across languages):
lowercase the UTF-8 bytes, enumerate contiguous byte n-grams (the whole
string when shorter than n), hash each n-gram with FNV-1a 64, bucket by
``hash % dim``, add +1 when bit 63 of the hash is 0 else -1, then
L2-normalize. Empty text maps to the all-zero vector.

``embed_text`` embeds one query as a float64 vector, per text in a
Python loop. ``embed_texts`` embeds a pool into one ``(len(texts),
dim)`` float32 matrix, the knowledge database's storage type, 512 texts
at a time, so nothing pool-sized is held beside it. A block lowers its
joined UTF-8 bytes once, hashes the n bytes from every byte (zero-padded
at the end) in numpy uint64 arithmetic, and keeps the gram starts with a
boolean mask clearing each text's last n-1 windows; a text shorter than
n keeps its first, which read past its end, so its one gram is hashed
again over its own bytes. Beside its bytes and float64 rows a block
holds at most three arrays of one 8-byte item per gram: the hashes,
their float64 signs and one temporary. The bucket sums are small
integers, so the two paths must and do agree bit for bit in float64.
"""

from __future__ import annotations

import math
from concurrent.futures import ThreadPoolExecutor
from dataclasses import dataclass
from typing import Optional, Sequence, Union

import numpy as np

from . import transport
from .hashing import FNV_OFFSET, FNV_PRIME, fnv1a64
from .ingest import MoleculeRecord, json_number


class EmbedError(ValueError):
    pass


@dataclass(frozen=True)
class LocalHashConfig:
    """Deterministic n-gram feature-hashing embedder."""

    dim: int = 256
    ngram: int = 3

    def __post_init__(self):
        if self.dim < 8:
            raise EmbedError(f"dim must be >= 8, got {self.dim}")
        if self.ngram < 1:
            raise EmbedError(f"ngram must be >= 1, got {self.ngram}")

    @property
    def fingerprint(self) -> str:
        return f"localhash:dim={self.dim}:ngram={self.ngram}"


@dataclass(frozen=True)
class RemoteHttpConfig:
    """Remote embedding service speaking the common batch-embedding shape.

    Request body is ``{"model": ..., "input": [...]}``; the response must
    hold one finite, non-empty numeric array per input, in input order, at
    ``data[*].embedding``. The API key is read from the environment
    variable named by ``key_env``. The endpoint must be an http(s) URL.
    """

    endpoint: str
    model: str
    key_env: Optional[str] = None

    def __post_init__(self):
        if not transport.is_http_url(self.endpoint):
            raise EmbedError(f"endpoint {self.endpoint!r} is not an http(s) URL")

    @property
    def fingerprint(self) -> str:
        return f"remote:{self.model}"


EmbedderConfig = Union[LocalHashConfig, RemoteHttpConfig]

# texts per block of the numpy path: bounds its per-gram temporaries
LOCAL_BLOCK_TEXTS = 512

# texts per request of the remote backend
REMOTE_BATCH_TEXTS = 128

# every operand of the uint64 arithmetic is uint64, so numpy's scalar
# promotion rules cannot change the result
_FNV_OFFSET64 = np.uint64(FNV_OFFSET)
_FNV_PRIME64 = np.uint64(FNV_PRIME)


def _local_hash_vector(cfg: LocalHashConfig, text: str) -> np.ndarray:
    data = text.encode("utf-8").lower()
    vec = np.zeros(cfg.dim, dtype=np.float64)
    if not data:
        return vec
    n = cfg.ngram
    if len(data) < n:
        grams = [data]
    else:
        grams = [data[i : i + n] for i in range(len(data) - n + 1)]
    for gram in grams:
        h = fnv1a64(gram)
        sign = 1.0 if (h >> 63) == 0 else -1.0
        vec[h % cfg.dim] += sign
    norm = math.sqrt(float(np.dot(vec, vec)))
    if norm > 0.0:
        vec /= norm
    return vec


def _local_hash_block(cfg: LocalHashConfig, texts: Sequence[str]) -> np.ndarray:
    """The pinned recipe for a block of texts at once, one row per text."""
    data = list(map(str.encode, texts))
    lengths = np.fromiter(map(len, data), dtype=np.int64, count=len(data))
    n = cfg.ngram
    # a text shorter than n has one gram, the whole string; an empty text none
    counts = np.where(lengths >= n, lengths - n + 1, np.minimum(lengths, 1))
    text_ends = np.cumsum(lengths)
    # lowered once, bytewise; n zero bytes of padding keep every window in range
    buf = np.frombuffer(b"".join(data).lower() + bytes(n), dtype=np.uint8)
    windows = len(buf) - n
    h = (buf[:windows].astype(np.uint64) ^ _FNV_OFFSET64) * _FNV_PRIME64
    for j in range(1, n):
        h ^= buf[j : j + windows]
        h *= _FNV_PRIME64
    # keep the gram starts: clear each text's last min(n, length) - 1 windows
    keep = np.ones(windows, dtype=bool)
    for j in range(1, n):
        keep[text_ends[lengths > j] - j] = False
    h = h[keep]
    short = np.flatnonzero((lengths > 0) & (lengths < n))
    short_lengths = lengths[short]
    short_starts = text_ends[short] - short_lengths
    hs = np.full(short.size, _FNV_OFFSET64, dtype=np.uint64)
    for j in range(n - 1):
        hs = np.where(short_lengths > j, (hs ^ buf[short_starts + j]) * _FNV_PRIME64, hs)
    h[(np.cumsum(counts) - counts)[short]] = hs
    # +1 or -1 as float64, the type bincount weighs in: bit 63 of the hash
    # becomes the sign bit of 1.0's bits
    signs = ((h & np.uint64(1 << 63)) | np.uint64(0x3FF0000000000000)).view(np.float64)
    # h mod dim in place, as numpy divides by a scalar faster than it takes a
    # remainder; every bucket is below dim, so its bits read the same as int64
    h -= h // np.uint64(cfg.dim) * np.uint64(cfg.dim)
    slots = h.view(np.int64)
    slots += np.repeat(np.arange(len(data)) * cfg.dim, counts)
    # bincount returns int64 when the block holds no gram at all
    sums = np.bincount(slots, weights=signs, minlength=len(data) * cfg.dim)
    vecs = sums.astype(np.float64, copy=False).reshape(len(data), cfg.dim)
    # the sums of squares are small integers, so every order gives the same bits
    norms = np.sqrt(np.einsum("ij,ij->i", vecs, vecs))
    norms[norms == 0.0] = 1.0
    vecs /= norms[:, None]
    return vecs


def _remote_batch(cfg: RemoteHttpConfig, texts: Sequence[str]) -> np.ndarray:
    api_key = transport.resolve_api_key(cfg.key_env)
    body = {"model": cfg.model, "input": list(texts)}
    payload, _ = transport.post_json(cfg.endpoint, body, api_key=api_key)
    try:
        rows = [item["embedding"] for item in payload["data"]]
    except (KeyError, TypeError) as exc:
        raise EmbedError("embedding response missing 'data[*].embedding'") from exc
    try:  # each value's exact type, so a JSON string or boolean is rejected
        matrix = np.array([[json_number(v) for v in row] for row in rows], dtype=np.float64)
    except (ValueError, TypeError) as exc:
        raise EmbedError(f"embedding response is not numeric: {exc}") from exc
    if matrix.ndim != 2 or matrix.shape[0] != len(texts) or matrix.shape[1] == 0:
        raise EmbedError(f"embedding response has shape {matrix.shape} for {len(texts)} inputs")
    if not np.isfinite(matrix).all():
        raise EmbedError("embedding response holds a non-finite value")
    return matrix


def embed_texts(cfg: EmbedderConfig, texts: Sequence[str]) -> np.ndarray:
    """Embed a batch of strings into one ``(len(texts), dim)`` float32
    matrix, row i for text i; no texts give a ``(0, 0)`` matrix.

    The local backend fills the matrix one ``LOCAL_BLOCK_TEXTS`` block at
    a time, so only one block is ever held in float64, and slices
    ``texts`` a block at a time, so a sequence that composes each text
    when it is read holds one block's texts at a time. The remote backend
    splits the batch into chunks of ``REMOTE_BATCH_TEXTS`` texts and posts
    them from ``transport.MAX_IN_FLIGHT`` threads, the transport's cap on
    remote requests in flight; every chunk must reply with the same dim,
    and rows keep the input order regardless of completion order.
    """
    if not texts:
        return np.empty((0, 0), dtype=np.float32)
    if isinstance(cfg, LocalHashConfig):
        out = np.empty((len(texts), cfg.dim), dtype=np.float32)
        for i in range(0, len(texts), LOCAL_BLOCK_TEXTS):
            block = texts[i : i + LOCAL_BLOCK_TEXTS]
            out[i : i + len(block)] = _local_hash_block(cfg, block)
        return out
    chunks = [texts[i : i + REMOTE_BATCH_TEXTS] for i in range(0, len(texts), REMOTE_BATCH_TEXTS)]

    def fetch(chunk: Sequence[str]) -> np.ndarray:
        matrix = _remote_batch(cfg, chunk)
        if np.abs(matrix).max() > np.finfo(np.float32).max:  # checked before the cast overflows
            raise EmbedError("embedding response holds a value beyond float32's range")
        return matrix.astype(np.float32)

    with ThreadPoolExecutor(max_workers=transport.MAX_IN_FLIGHT) as pool:
        parts = list(pool.map(fetch, chunks))
    dims = sorted({part.shape[1] for part in parts})
    if len(dims) > 1:
        raise EmbedError(f"mixed embedding dims in one batch: {dims}")
    return np.concatenate(parts)


def embed_text(cfg: EmbedderConfig, text: str) -> np.ndarray:
    """Embed one string as a float64 vector, the query path. Deterministic
    for the local backend, and equal to its ``embed_texts`` row before
    that row's rounding to float32."""
    if isinstance(cfg, LocalHashConfig):
        return _local_hash_vector(cfg, text)
    return _remote_batch(cfg, [text])[0]


def compose_molecule_text(record: MoleculeRecord, include_description: bool) -> str:
    """Text fed to the embedder: SMILES, plus the description when asked
    for and present."""
    if include_description and record.description:
        return f"{record.smiles}\n{record.description}"
    return record.smiles


def embed_molecule(
    cfg: EmbedderConfig, record: MoleculeRecord, include_description: bool = False
) -> np.ndarray:
    return embed_text(cfg, compose_molecule_text(record, include_description))


def embedder_fingerprint(cfg: EmbedderConfig, include_description: bool) -> str:
    """Identity string for "how embeddings were produced"; stored in the
    knowledge database and checked before querying it."""
    suffix = ":desc=1" if include_description else ":desc=0"
    return cfg.fingerprint + suffix
