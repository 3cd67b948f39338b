"""Contextual knowledge database: build, persist, query.

The database pools the labeled training molecules with the validation
molecules, which also carry the base model's prediction: an entry is a
validation entry exactly when it has one. In memory it is an exact flat
inner-product index: metadata rows (id, smiles, label, prediction) over
one ``(count, dim)`` float32 matrix holding every embedding, row i for
entry i, as ``embed_texts`` returns it or as the sidecar file holds it.
``db[i]`` attaches a view of matrix row i to its metadata as an
``Entry``; nothing copies the vectors per entry, and no whole-pool
float64 copy is ever made. Queries rank the pool by cosine similarity
and return the selected rows as ``db[i]`` entries, without their
similarities, picked by one of three strategies:

  * top-k: the k most similar entries;
  * jump: k evenly spaced ranks, ``i*(n-1)//(k-1)``, always covering the
    most- and least-similar retained entries;
  * random: k distinct entries via a partial Fisher-Yates shuffle driven
    by splitmix64, so "random" runs reproduce across implementations.

Ties in similarity break by ascending id so the ranking is a total order.
A query coming from the validation split excludes its own entry from the
pool (the leakage guard).

The embeddings are the hasher's signed bucket counts, not normalised, and
a query must hold integer counts too, so every dot product is an integer.
One scan, made by loading or else by the first retrieval, refuses a
matrix holding any other value and measures the row norms and the largest
row ``||x||_1``, which times ``||q||_1`` caps every partial sum of every
dot product. Below 2**24 float32 holds each of them exactly,
in any summation order, so one float32 GEMV scores the pool; otherwise
the rows are scored in float64 a block at a time, exact below 2**53. The
cosine is then ``dots / (norms * ||q||)`` in float64, 0 for a zero row,
and ranks are the same on any BLAS and any thread count.

On disk a database is two files: ``metadata.jsonl`` (a header line by
``json.dumps``, then one line per entry, which ``_metadata_lines`` writes
byte-equal to ``json.dumps``) and ``embeddings.lcdb`` (magic ``LCDB``, u32
little-endian dim and count, then count*dim float32 little-endian values
in metadata order). A line ends only at LF, CR or CRLF, and is read by
``ingest``'s JSON-lines rule; each entry's label and prediction, built or
loaded, meet ``ingest.check_label`` and ``check_prediction``.

No phase holds a pool-sized temporary beside the matrix and the rows:
building composes each entry's embedding text only when the embedder
reads its block; saving writes the entry lines a block at a time;
loading reads the metadata file once, line by line, checking the header,
the matrix (the scan), each entry line and then the entry count, and
drops its id -> line dict, which names a repeated id's first line, before
the database builds its id index; the scan and float64 scoring convert a
block of rows at a time.
"""

from __future__ import annotations

import json
import struct
from collections.abc import Sequence
from dataclasses import dataclass
from functools import cached_property
from pathlib import Path
from typing import Dict, List, NamedTuple, Optional, Tuple, Union

import numpy as np

from .embed import LocalHashConfig, compose_molecule_text, embed_texts, embedder_fingerprint
from .hashing import SplitMix64
from .ingest import DatasetBundle, MoleculeRecord, Split, TaskKind, TaskSpec
from .ingest import JSON_WHITESPACE, check_label, check_prediction, json_number, open_utf8

MAGIC = b"LCDB"
METADATA_FILE = "metadata.jsonl"
SIDECAR_FILE = "embeddings.lcdb"

# most rows per block of any pass over the pool (the matrix scan, saving,
# float64 scoring): bounds each pass's temporaries
_CALL_ROWS = 128


class KnowledgeError(ValueError):
    pass


@dataclass(frozen=True)
class TopK:
    pass


@dataclass(frozen=True)
class Jump:
    pass


@dataclass(frozen=True)
class Random:
    seed: int = 0


RetrievalStrategy = Union[TopK, Jump, Random]


STRATEGY_NAMES = {"topk": TopK, "jump": Jump, "random": Random}


def strategy_name(strategy: RetrievalStrategy) -> str:
    return next(name for name, cls in STRATEGY_NAMES.items() if type(strategy) is cls)


class Entry(NamedTuple):
    """One database row with its embedding attached: the molecule's id and
    SMILES, its label and the base model's prediction, which only
    validation entries carry. Entries keep tuple equality, which numpy
    cannot decide for two distinct embedding arrays, so compare their
    fields, and embeddings with ``np.array_equal``."""

    id: str
    smiles: str
    label: float
    primary_prediction: Optional[float]
    embedding: np.ndarray


# an Entry without its embedding: (id, smiles, label, primary_prediction)
Row = Tuple[str, str, float, Optional[float]]


class _MatrixStats(NamedTuple):
    """The row norms in float64, and the largest row ||x||_1 (0 for no rows)."""

    norms: np.ndarray
    largest_l1: float


def _scan_matrix(matrix: np.ndarray, non_finite: str, non_integer: str) -> _MatrixStats:
    """A matrix's stats, ``_CALL_ROWS`` rows at a time. Exact scoring needs
    integer counts, so each block is checked for a non-finite value, then a
    non-integer one, raising KnowledgeError with that message. Integer
    squares and sums are exact in float64 below 2**53, so the norms equal
    ``np.linalg.norm(matrix.astype(np.float64), axis=1)`` bit for bit."""
    norms = np.empty(len(matrix))
    largest = 0.0
    for i in range(0, len(matrix), _CALL_ROWS):
        rows = matrix[i : i + _CALL_ROWS]
        if not np.isfinite(rows).all():
            raise KnowledgeError(non_finite)
        if not (rows == np.trunc(rows)).all():
            raise KnowledgeError(non_integer)
        norms[i : i + len(rows)] = np.sqrt(np.einsum("ij,ij->i", rows, rows, dtype=np.float64))
        largest = max(largest, float(np.abs(rows).sum(axis=1, dtype=np.float64).max()))
    return _MatrixStats(norms, largest)


class KnowledgeDatabase:
    """Immutable metadata rows over one ``(count, dim)`` float32 embedding
    matrix of integer counts, plus the embedder fingerprint that produced
    them. ``db[i]`` is row i as an Entry whose embedding is a view of
    ``embeddings[i]``."""

    def __init__(
        self, task: TaskSpec, fingerprint: str, rows: Tuple[Row, ...], embeddings: np.ndarray
    ):
        self.rows = tuple(rows)
        if embeddings.ndim != 2 or len(embeddings) != len(self.rows):
            raise KnowledgeError(
                f"embedding matrix of shape {embeddings.shape} for {len(self.rows)} rows"
            )
        self._index_of = {row[0]: i for i, row in enumerate(self.rows)}
        if len(self._index_of) != len(self.rows):
            raise KnowledgeError("duplicate ids in database")
        self.task = task
        self.fingerprint = fingerprint
        self.embeddings = embeddings

    @property
    def dim(self) -> int:
        return self.embeddings.shape[1]

    def __len__(self) -> int:
        return len(self.rows)

    def __getitem__(self, i: int) -> Entry:
        return Entry(*self.rows[i], self.embeddings[i])

    @property
    def entries(self) -> Tuple[Entry, ...]:
        return tuple(Entry(*row, vec) for row, vec in zip(self.rows, self.embeddings))

    def __eq__(self, other) -> bool:
        if not isinstance(other, KnowledgeDatabase):
            return NotImplemented
        return (
            self.task == other.task
            and self.fingerprint == other.fingerprint
            and self.rows == other.rows
            and np.array_equal(self.embeddings, other.embeddings)
        )

    @cached_property
    def _stats(self) -> _MatrixStats:
        """The embeddings' ``_scan_matrix``, made by the first retrieval so
        that building a database costs no extra scan; ``load_database``
        sets it from the scan its own checks make."""
        fault = "embedding matrix holds a non-integer value"
        return _scan_matrix(self.embeddings, fault, fault)

    @cached_property
    def _id_ranks(self) -> np.ndarray:
        """Each entry's position in ascending-id order (the tie-break key)."""
        order = sorted(range(len(self.rows)), key=lambda i: self.rows[i][0])
        ranks = np.empty(len(order), dtype=np.int64)
        ranks[order] = np.arange(len(order))
        return ranks


@dataclass(frozen=True)
class RetrievedContext:
    """Selected entries in rank order (most similar first), each the
    ``Entry`` row view ``db[i]`` of its database row."""

    items: Tuple[Entry, ...]

    @property
    def ids(self) -> Tuple[str, ...]:
        return tuple(entry.id for entry in self.items)

    def __len__(self) -> int:
        return len(self.items)


def build_database(
    bundle: DatasetBundle,
    val_predictions: Dict[str, float],
    embedder: LocalHashConfig,
    include_description: bool = False,
) -> KnowledgeDatabase:
    """Embed every train and valid molecule into a KnowledgeDatabase.

    Entry order follows dataset order. Valid entries must all be covered
    by ``val_predictions`` (the prediction loader guarantees this when the
    dict was loaded against the same bundle).
    """
    train, valid, task = Split.TRAIN, Split.VALID, bundle.task
    rows, pool = [], []
    for rec in bundle.records:
        split = rec.split
        if split is train:
            prediction = None
        elif split is valid:
            if rec.id not in val_predictions:
                raise KnowledgeError(f"no validation prediction for id {rec.id!r}")
            prediction = val_predictions[rec.id]
        else:
            continue
        if rec.label is None:
            raise KnowledgeError(f"knowledge entry {rec.id!r} has no label")
        try:
            label = check_label(rec.label, task)
            prediction = None if prediction is None else check_prediction(prediction, task)
        except ValueError as exc:
            raise KnowledgeError(f"knowledge entry {rec.id!r}: {exc}") from None
        rows.append((rec.id, rec.smiles, label, prediction))
        pool.append(rec)
    return KnowledgeDatabase(
        task=task,
        fingerprint=embedder_fingerprint(embedder, include_description),
        rows=tuple(rows),
        embeddings=embed_texts(embedder, _PoolTexts(pool, include_description)),
    )


class _PoolTexts(Sequence):
    """The embedding texts of ``records``, each composed when it is read,
    so ``embed_texts`` holds one block's texts at a time, never the pool's."""

    def __init__(self, records: List[MoleculeRecord], include_description: bool):
        self._records = records
        self._include_description = include_description

    def __len__(self) -> int:
        return len(self._records)

    def __getitem__(self, i):
        if isinstance(i, slice):
            return [compose_molecule_text(r, self._include_description) for r in self._records[i]]
        return compose_molecule_text(self._records[i], self._include_description)


def _cosines(db: KnowledgeDatabase, q: np.ndarray) -> np.ndarray:
    """Every row's cosine with the integer query ``q``, ``dots / (norms *
    ||q||)``, 0 for a zero row or a zero query. ``bound`` caps every
    partial sum of every dot product, and ``q``'s own counts, so the dots
    are exact in float32 below 2**24 and in float64 below 2**53."""
    norms, largest_l1 = db._stats  # read first: a zero query refuses a bad matrix too
    bound = max(largest_l1, 1.0) * float(np.abs(q).sum())
    qn = float(np.linalg.norm(q))
    if qn == 0.0:
        return np.zeros(len(db))
    if bound < 2.0**24:
        dots = np.matmul(db.embeddings, q.astype(np.float32)).astype(np.float64)
    else:
        blocks = range(0, len(db), _CALL_ROWS)
        dots = np.concatenate(
            [np.matmul(db.embeddings[i : i + _CALL_ROWS].astype(np.float64), q) for i in blocks]
        )
    with np.errstate(invalid="ignore", divide="ignore"):
        sims = dots / (norms * qn)
    return np.where(norms == 0.0, 0.0, sims)


def _ranked(db: KnowledgeDatabase, sims: np.ndarray, k: int) -> np.ndarray:
    """The indices of the k rows with the highest ``sims``, ranked by
    similarity desc, id asc on ties: a partition finds the k-th score, and
    only the rows at or above it are sorted."""
    kth = np.partition(sims, len(sims) - k)[len(sims) - k]
    rows = np.flatnonzero(sims >= kth)
    return rows[np.lexsort((db._id_ranks[rows], -sims[rows]))[:k]]


def excluded_row(db: KnowledgeDatabase, exclude_id: Optional[str]) -> Optional[int]:
    """The row of ``exclude_id``, which leaves the query's pool (None when
    no row has that id); KnowledgeError when nothing is left."""
    excluded = db._index_of.get(exclude_id)
    if len(db) - (excluded is not None) == 0:
        raise KnowledgeError("retrieval pool is empty")
    return excluded


def retrieve(
    db: KnowledgeDatabase,
    query_vec: np.ndarray,
    k: int,
    strategy: RetrievalStrategy = TopK(),
    exclude_id: Optional[str] = None,
) -> RetrievedContext:
    """Select up to k entries for a query.

    ``exclude_id`` drops the query's own entry from the candidate pool.
    When k exceeds the pool size the whole pool is returned.
    """
    if k < 1:
        raise KnowledgeError(f"k must be >= 1, got {k}")
    q = np.asarray(query_vec, dtype=np.float64)
    if q.shape != (db.dim,):
        raise KnowledgeError(f"query dim {q.shape} does not match database dim {db.dim}")
    if not (np.isfinite(q) & (q == np.trunc(q))).all():
        raise KnowledgeError("query vector holds a non-integer value")
    excluded = excluded_row(db, exclude_id)
    n = len(db) - (excluded is not None)
    sims = _cosines(db, q)
    if excluded is not None:
        sims[excluded] = -np.inf
    if isinstance(strategy, TopK) or k >= n:
        picked = _ranked(db, sims, min(k, n))
    else:
        if isinstance(strategy, Jump):
            ranks = [0] if k == 1 else [i * (n - 1) // (k - 1) for i in range(k)]
        else:
            rng = SplitMix64(strategy.seed)
            indices = list(range(n))
            for i in range(k):
                j = i + rng.next_uint64() % (n - i)
                indices[i], indices[j] = indices[j], indices[i]
            ranks = sorted(indices[:k])
        picked = _ranked(db, sims, n)[ranks]
    return RetrievedContext(items=tuple(db[i] for i in picked))


def _metadata_lines(rows: Sequence[Row]) -> List[str]:
    """One metadata line per row, each byte-equal to ``json.dumps`` of the
    row's record with ``separators=(",", ":")``. Labels and predictions
    must be floats, as ``check_label`` and ``check_prediction`` return them."""
    quote = json.encoder.encode_basestring_ascii
    number = float.__repr__
    return [
        f'{{"id":{quote(id)},"smiles":{quote(smiles)},"label":{number(label)},'
        f'"primary_prediction":{"null" if prediction is None else number(prediction)}}}'
        for id, smiles, label, prediction in rows
    ]


def save_database(db: KnowledgeDatabase, directory: Union[str, Path]) -> None:
    """Write metadata and the binary embedding sidecar."""
    directory = Path(directory)
    directory.mkdir(parents=True, exist_ok=True)
    header = dict(task=db.task.kind.value, fingerprint=db.fingerprint, dim=db.dim, entries=len(db))
    # the lines go out ``_CALL_ROWS`` at a time, never all at once
    with (directory / METADATA_FILE).open("w", encoding="utf-8") as fh:
        fh.write(json.dumps(header, separators=(",", ":")) + "\n")
        for i in range(0, len(db), _CALL_ROWS):
            fh.write("\n".join(_metadata_lines(db.rows[i : i + _CALL_ROWS])) + "\n")
    with (directory / SIDECAR_FILE).open("wb") as fh:
        fh.write(MAGIC)
        fh.write(struct.pack("<II", db.dim, len(db)))
        db.embeddings.astype("<f4", copy=False).tofile(fh)


def load_database(directory: Union[str, Path]) -> KnowledgeDatabase:
    """Load a saved database; save -> load round-trips bit for bit. Each
    entry line's id and SMILES must be JSON strings, and no id may repeat,
    so a hand-edited file fails here rather than in a later stage; keys
    other than id, smiles, label and primary_prediction are ignored."""
    directory = Path(directory)
    meta_path = directory / METADATA_FILE
    sidecar_path = directory / SIDECAR_FILE
    with open_utf8(meta_path) as fh:
        first = next(fh, "")
        try:
            header = json.loads(first.rstrip("\r\n"))
            task = TaskSpec(TaskKind(header["task"]))
            fingerprint, dim, count = header["fingerprint"], header["dim"], header["entries"]
            if type(dim) is not int or type(count) is not int:
                raise TypeError(f"dim {dim!r} and entries {count!r} must be integers")
        except (KeyError, TypeError, ValueError, RecursionError) as exc:
            raise KnowledgeError(
                f"{meta_path}:1: corrupt metadata ({type(exc).__name__}: {exc})"
            ) from exc

        raw = sidecar_path.read_bytes()
        if raw[:4] != MAGIC:
            raise KnowledgeError(f"{sidecar_path}: bad magic {raw[:4]!r}")
        if len(raw) < 12:
            raise KnowledgeError(f"{sidecar_path}: missing header")
        side_dim, side_count = struct.unpack("<II", raw[4:12])
        if side_dim != dim:
            raise KnowledgeError(f"{sidecar_path}: sidecar dim {side_dim} != metadata dim {dim}")
        if side_count != count:
            raise KnowledgeError(
                f"{sidecar_path}: sidecar count {side_count} != metadata count {count}"
            )
        expected = 4 * dim * count
        if len(raw) - 12 != expected:
            raise KnowledgeError(
                f"{sidecar_path}: expected {expected} payload bytes, got {len(raw) - 12}"
            )
        matrix = np.frombuffer(raw, dtype="<f4", offset=12).reshape(count, dim)
        stats = _scan_matrix(
            matrix, f"{sidecar_path}: non-finite embedding value",
            f"{sidecar_path}: non-integer embedding value (a database saved "
            f"before embeddings held integer bucket counts? rerun build-db)",
        )

        rows, ids = [], {}
        for lineno, line in enumerate(fh, 2):
            if not line.strip(JSON_WHITESPACE):
                continue
            try:
                rec = json.loads(line.rstrip("\r\n"))
                id, smiles, prediction = rec["id"], rec["smiles"], rec["primary_prediction"]
                if not (isinstance(id, str) and isinstance(smiles, str)):
                    raise TypeError("id and smiles must be strings")
                if ids.setdefault(id, lineno) != lineno:
                    raise ValueError(f"duplicate id {id!r}, first on line {ids[id]}")
                prediction = None if prediction is None else json_number(prediction)
                label = check_label(json_number(rec["label"]), task)
                if prediction is not None:
                    check_prediction(prediction, task)
                rows.append((id, smiles, label, prediction))
            except (KeyError, TypeError, ValueError, RecursionError) as exc:
                raise KnowledgeError(
                    f"{meta_path}:{lineno}: corrupt metadata ({type(exc).__name__}: {exc})"
                ) from exc
    if len(rows) != count:
        raise KnowledgeError(f"{meta_path}: header says {count} entries, found {len(rows)}")
    # the database builds its own id index; one pool-sized id dict at a time
    del ids
    db = KnowledgeDatabase(task=task, fingerprint=fingerprint, rows=tuple(rows), embeddings=matrix)
    db._stats = stats  # so the loaded pool is never walked again
    return db
