"""Contextual knowledge database: build, persist, query.

The database pools the labeled training molecules with the validation
molecules (which additionally carry the base model's prediction). In
memory it is an exact flat inner-product index: a tuple of metadata
rows (id, smiles, description, label, prediction, source) over one
``(count, dim)`` float32 matrix holding every embedding, row i for
entry i. ``db[i]`` attaches a view of matrix row i to its metadata as an
``Entry``; nothing copies the vectors per entry. The only other copy is
the float64 ``_matrix``, made on the first query and kept as the
similarity cache. Its row norms are computed in row blocks, bit-identical
to ``np.linalg.norm(_matrix, axis=1)``, so the first query holds no
whole-pool temporary beside that one copy. Queries rank the whole pool
by cosine similarity and return the selected rows as ``db[i]`` entries,
without their similarities, picked by one of three strategies:

  * top-k: the k most similar entries;
  * jump: k evenly spaced ranks, ``i*(n-1)//(k-1)``, always covering the
    most- and least-similar retained entries;
  * random: k distinct entries via a partial Fisher-Yates shuffle driven
    by splitmix64, so "random" runs reproduce across implementations.

Ties in similarity break by ascending id so the ranking is a total order.
A query coming from the validation split excludes its own entry from the
pool (the leakage guard).

On disk a database is two files: ``metadata.jsonl`` (a header line, then
one JSON object per entry) and ``embeddings.lcdb`` (magic ``LCDB``, u32
little-endian dim and count, then count*dim float32 little-endian values
in metadata order). The header line is written by ``json.dumps``; each
entry line by one f-string, with strings quoted by
``json.encoder.encode_basestring_ascii`` (the escaper ``json.dumps``
itself uses), floats by ``float.__repr__`` and ``None`` as ``null``, so
the line is byte-equal to ``json.dumps(record, separators=(",", ":"))``.
"""

from __future__ import annotations

import json
import math
import struct
from dataclasses import dataclass
from functools import cached_property
from pathlib import Path
from typing import List, NamedTuple, Optional, Sequence, Tuple, Union

import numpy as np

from .embed import EmbedderConfig, compose_molecule_text, embed_texts, embedder_fingerprint
from .hashing import SplitMix64
from .ingest import DatasetBundle, PredictionSet, Split, TaskKind, TaskSpec

MAGIC = b"LCDB"
METADATA_FILE = "metadata.jsonl"
SIDECAR_FILE = "embeddings.lcdb"

# rows per block of the norm pass: bounds its x * x temporary
_NORM_BLOCK_ROWS = 1024


class KnowledgeError(ValueError):
    pass


class EmptyPool(KnowledgeError):
    pass


class RetrievalDimMismatch(KnowledgeError):
    pass


class PersistenceError(KnowledgeError):
    pass


class MagicMismatch(PersistenceError):
    pass


class DimMismatch(PersistenceError):
    pass


class CountMismatch(PersistenceError):
    pass


class TruncatedEmbeddings(PersistenceError):
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
    """One database row with its embedding attached: molecule text, label,
    the base model's prediction (validation entries only) and source.
    Two entries are equal when their metadata fields are equal and their
    embeddings hold the same values."""

    id: str
    smiles: str
    description: Optional[str]
    label: float
    primary_prediction: Optional[float]
    source: Split
    embedding: np.ndarray

    def __eq__(self, other) -> bool:
        if not isinstance(other, Entry):
            return NotImplemented
        return self[:-1] == other[:-1] and np.array_equal(self.embedding, other.embedding)

    def __ne__(self, other) -> bool:
        equal = self.__eq__(other)
        return equal if equal is NotImplemented else not equal


# an Entry without its embedding: (id, smiles, description, label,
# primary_prediction, source)
Row = Tuple[str, str, Optional[str], float, Optional[float], Split]


def check_entry(
    id: str,
    smiles: str,
    description: Optional[str],
    label: float,
    primary_prediction: Optional[float],
    source: Split,
) -> Row:
    """The row for one entry, once its label and prediction are finite and
    its source is train (no prediction) or valid (with one). The row holds
    them as Python floats, whatever number type they came in as."""
    train = source is Split.TRAIN
    if not train and source is not Split.VALID:
        raise KnowledgeError(f"entry {id!r} has source {source.value!r}, not train or valid")
    if not math.isfinite(label):
        raise KnowledgeError(f"entry {id!r} has a non-finite label {label!r}")
    if primary_prediction is not None:
        if not math.isfinite(primary_prediction):
            raise KnowledgeError(
                f"entry {id!r} has a non-finite prediction {primary_prediction!r}"
            )
        if train:
            raise KnowledgeError(f"train entry {id!r} must not carry a prediction")
        primary_prediction = float(primary_prediction)
    elif not train:
        raise KnowledgeError(f"valid entry {id!r} must carry a prediction")
    return (id, smiles, description, float(label), primary_prediction, source)


class KnowledgeDatabase:
    """Immutable metadata rows over one ``(count, dim)`` float32 embedding
    matrix, plus the embedder fingerprint that produced them. ``db[i]``
    is row i as an Entry whose embedding is a view of ``embeddings[i]``."""

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
    def _matrix(self) -> np.ndarray:
        """The float64 copy every similarity is computed from."""
        return self.embeddings.astype(np.float64)

    @cached_property
    def _norms(self) -> np.ndarray:
        """Each row's Euclidean norm, computed ``_NORM_BLOCK_ROWS`` rows at a
        time so no whole-pool ``x * x`` temporary sits beside ``_matrix``.
        Each row is summed along its own contiguous axis, so the result is
        bit-identical to ``np.linalg.norm(self._matrix, axis=1)``."""
        matrix = self._matrix
        norms = np.empty(len(matrix))
        for i in range(0, len(matrix), _NORM_BLOCK_ROWS):
            block = matrix[i : i + _NORM_BLOCK_ROWS]
            np.sqrt(np.add.reduce(block * block, axis=1), out=norms[i : i + _NORM_BLOCK_ROWS])
        return norms

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
    val_predictions: PredictionSet,
    embedder: EmbedderConfig,
    include_description: bool = False,
) -> KnowledgeDatabase:
    """Embed every train and valid molecule into a KnowledgeDatabase.

    Entry order follows dataset order. Valid entries must all be covered
    by ``val_predictions`` (the prediction loader guarantees this when the
    set was loaded against the same bundle).
    """
    train, valid = Split.TRAIN, Split.VALID
    predictions = val_predictions.entries
    rows = []
    texts = []
    for rec in bundle.records:
        split = rec.split
        if split is train:
            prediction = None
        elif split is valid:
            if rec.id not in predictions:
                raise KnowledgeError(f"no validation prediction for id {rec.id!r}")
            prediction = predictions[rec.id]
        else:
            continue
        if rec.label is None:
            raise KnowledgeError(f"knowledge entry {rec.id!r} has no label")
        rows.append(check_entry(rec.id, rec.smiles, rec.description, rec.label, prediction, split))
        texts.append(compose_molecule_text(rec, include_description))
    vectors = embed_texts(embedder, texts)
    dims = {len(v) for v in vectors}
    if len(dims) > 1:
        raise KnowledgeError(f"mixed embedding dims in database: {sorted(dims)}")
    embeddings = np.asarray(vectors, np.float32).reshape(len(rows), dims.pop() if dims else 0)
    return KnowledgeDatabase(
        task=bundle.task,
        fingerprint=embedder_fingerprint(embedder, include_description),
        rows=tuple(rows),
        embeddings=embeddings,
    )


def _ranked_pool(
    db: KnowledgeDatabase, query_vec: np.ndarray, exclude_id: Optional[str]
) -> np.ndarray:
    """Entry indices ranked by similarity desc, id asc on ties."""
    q = np.asarray(query_vec, dtype=np.float64)
    if q.shape != (db.dim,):
        raise RetrievalDimMismatch(
            f"query dim {q.shape} does not match database dim {db.dim}"
        )
    qn = float(np.linalg.norm(q))
    if qn == 0.0:
        sims = np.zeros(len(db))
    else:
        with np.errstate(invalid="ignore", divide="ignore"):
            sims = (db._matrix @ q) / (db._norms * qn)
        sims = np.where(db._norms == 0.0, 0.0, sims)
    order = np.lexsort((db._id_ranks, -sims))
    excluded = db._index_of.get(exclude_id)
    if excluded is not None:
        order = order[order != excluded]
    return order


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
    order = _ranked_pool(db, query_vec, exclude_id)
    n = len(order)
    if n == 0:
        raise EmptyPool("retrieval pool is empty")
    if k >= n:
        ranks = range(n)
    elif isinstance(strategy, TopK):
        ranks = range(k)
    elif isinstance(strategy, Jump):
        ranks = [0] if k == 1 else [i * (n - 1) // (k - 1) for i in range(k)]
    else:
        rng = SplitMix64(strategy.seed)
        indices = list(range(n))
        for i in range(k):
            j = i + rng.next_uint64() % (n - i)
            indices[i], indices[j] = indices[j], indices[i]
        ranks = sorted(indices[:k])
    return RetrievedContext(items=tuple(db[order[r]] for r in ranks))


def _metadata_lines(rows: Sequence[Row]) -> List[str]:
    """One metadata line per row, each byte-equal to ``json.dumps`` of the
    row's record with ``separators=(",", ":")``. Labels and predictions
    must be floats, as ``check_entry`` leaves them."""
    quote = json.encoder.encode_basestring_ascii
    number = float.__repr__
    return [
        f'{{"id":{quote(id)},"smiles":{quote(smiles)},'
        f'"description":{"null" if description is None else quote(description)},'
        f'"label":{number(label)},'
        f'"primary_prediction":{"null" if prediction is None else number(prediction)},'
        f'"source":{quote(source.value)}}}'
        for id, smiles, description, label, prediction, source in rows
    ]


def save_database(db: KnowledgeDatabase, directory: Union[str, Path]) -> None:
    """Write metadata and the binary embedding sidecar."""
    directory = Path(directory)
    directory.mkdir(parents=True, exist_ok=True)
    header = {
        "task": db.task.kind.value,
        "fingerprint": db.fingerprint,
        "dim": db.dim,
        "entries": len(db),
    }
    lines = [json.dumps(header, separators=(",", ":")), *_metadata_lines(db.rows)]
    (directory / METADATA_FILE).write_text("\n".join(lines) + "\n", encoding="utf-8")
    with (directory / SIDECAR_FILE).open("wb") as fh:
        fh.write(MAGIC)
        fh.write(struct.pack("<II", db.dim, len(db)))
        db.embeddings.astype("<f4", copy=False).tofile(fh)


def _read_header(meta_path: Path, line: str) -> Tuple[TaskSpec, str, int, int]:
    """Task, fingerprint, dim and entry count from the metadata header line."""
    try:
        header = json.loads(line)
        return (
            TaskSpec(TaskKind(header["task"])),
            header["fingerprint"],
            int(header["dim"]),
            int(header["entries"]),
        )
    except (KeyError, TypeError, ValueError) as exc:
        raise PersistenceError(
            f"{meta_path}:1: corrupt metadata ({type(exc).__name__}: {exc})"
        ) from exc


def stored_fingerprint(directory: Union[str, Path]) -> str:
    """The fingerprint of a saved database, read from its header line only."""
    meta_path = Path(directory) / METADATA_FILE
    with meta_path.open(encoding="utf-8") as fh:
        return _read_header(meta_path, fh.readline())[1]


def load_database(directory: Union[str, Path]) -> KnowledgeDatabase:
    """Load a saved database; save -> load round-trips bit for bit."""
    directory = Path(directory)
    meta_path = directory / METADATA_FILE
    sidecar_path = directory / SIDECAR_FILE
    lines = meta_path.read_text(encoding="utf-8").splitlines()
    task, fingerprint, dim, count = _read_header(meta_path, lines[0] if lines else "")
    records = [(lineno, line) for lineno, line in enumerate(lines[1:], 2) if line.strip()]
    if len(records) != count:
        raise CountMismatch(
            f"{meta_path}: header says {count} entries, found {len(records)}"
        )

    raw = sidecar_path.read_bytes()
    if raw[:4] != MAGIC:
        raise MagicMismatch(f"{sidecar_path}: bad magic {raw[:4]!r}")
    if len(raw) < 12:
        raise TruncatedEmbeddings(f"{sidecar_path}: missing header")
    side_dim, side_count = struct.unpack("<II", raw[4:12])
    if side_dim != dim:
        raise DimMismatch(
            f"{sidecar_path}: sidecar dim {side_dim} != metadata dim {dim}"
        )
    if side_count != count:
        raise CountMismatch(
            f"{sidecar_path}: sidecar count {side_count} != metadata count {count}"
        )
    expected = 4 * dim * count
    if len(raw) - 12 != expected:
        raise TruncatedEmbeddings(
            f"{sidecar_path}: expected {expected} payload bytes, got {len(raw) - 12}"
        )
    matrix = np.frombuffer(raw, dtype="<f4", offset=12).reshape(count, dim)
    if not np.isfinite(matrix).all():
        raise PersistenceError(f"{sidecar_path}: non-finite embedding value")

    rows = []
    for lineno, line in records:
        try:
            rec = json.loads(line)
            prediction = rec["primary_prediction"]
            rows.append(
                check_entry(
                    rec["id"],
                    rec["smiles"],
                    rec["description"],
                    float(rec["label"]),
                    float(prediction) if prediction is not None else None,
                    Split(rec["source"]),
                )
            )
        except (KeyError, TypeError, ValueError) as exc:
            raise PersistenceError(
                f"{meta_path}:{lineno}: corrupt metadata ({type(exc).__name__}: {exc})"
            ) from exc
    return KnowledgeDatabase(task=task, fingerprint=fingerprint, rows=tuple(rows), embeddings=matrix)
