"""Text embedding: a deterministic local feature hasher, so that
retrieval is reproducible and fully testable offline.

The hasher is pinned exactly (reproducible across languages):
lowercase the UTF-8 bytes, enumerate contiguous byte n-grams (the whole
string when shorter than n), hash each n-gram with FNV-1a 64, bucket by
``hash % dim``, and add +1 when bit 63 of the hash is 0 else -1. A
vector holds these signed bucket counts, with no L2 normalisation, so
every value is a small integer; empty text maps to the all-zero vector.

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
their float64 signs and one temporary. The counts are integers, so the
two paths must and do agree bit for bit in float64, and float32 holds
them exactly (below 2**24): the matrix row equals its query vector, and
the knowledge database's dot products of them are exact integers.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Sequence

import numpy as np

from .hashing import FNV_OFFSET, FNV_PRIME, fnv1a64
from .ingest import MoleculeRecord


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
        return f"localhash:dim={self.dim}:ngram={self.ngram}:counts"


# texts per block of the numpy path: bounds its per-gram temporaries
LOCAL_BLOCK_TEXTS = 512

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
    return sums.astype(np.float64, copy=False).reshape(len(data), cfg.dim)


def embed_texts(cfg: LocalHashConfig, texts: Sequence[str]) -> np.ndarray:
    """Embed a batch of strings into one ``(len(texts), dim)`` float32
    matrix, row i for text i; no texts give a ``(0, 0)`` matrix.

    The matrix is filled one ``LOCAL_BLOCK_TEXTS`` block at a time, so
    only one block is ever held in float64, and ``texts`` is sliced a
    block at a time, so a sequence that composes each text when it is
    read holds one block's texts at a time.
    """
    if not texts:
        return np.empty((0, 0), dtype=np.float32)
    out = np.empty((len(texts), cfg.dim), dtype=np.float32)
    for i in range(0, len(texts), LOCAL_BLOCK_TEXTS):
        block = texts[i : i + LOCAL_BLOCK_TEXTS]
        out[i : i + len(block)] = _local_hash_block(cfg, block)
    return out


def embed_text(cfg: LocalHashConfig, text: str) -> np.ndarray:
    """Embed one string as a float64 vector, the query path: equal to its
    ``embed_texts`` row, which holds the same counts in float32."""
    return _local_hash_vector(cfg, text)


def compose_molecule_text(record: MoleculeRecord, include_description: bool) -> str:
    """Text fed to the embedder: SMILES, plus the description when asked
    for and present."""
    if include_description and record.description:
        return f"{record.smiles}\n{record.description}"
    return record.smiles


def embed_molecule(
    cfg: LocalHashConfig, record: MoleculeRecord, include_description: bool = False
) -> np.ndarray:
    return embed_text(cfg, compose_molecule_text(record, include_description))


def embedder_fingerprint(cfg: LocalHashConfig, include_description: bool) -> str:
    """Identity string for "how embeddings were produced"; stored in the
    knowledge database and checked before querying it."""
    suffix = ":desc=1" if include_description else ":desc=0"
    return cfg.fingerprint + suffix
