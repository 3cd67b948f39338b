"""Contextual knowledge database: build, persist, query.

The database pools the labeled training molecules with the validation
molecules, which also carry the base model's prediction: an entry is a
validation entry exactly when it has one. In memory it is an exact flat
inner-product index: metadata rows (id, smiles, label, prediction) over
one ``(count, dim)`` float32 matrix holding every embedding, row i for
entry i, as ``embed_texts`` returns it or as the sidecar file holds it.
``db[i]`` attaches a view of matrix row i to its metadata as an
``Entry``; nothing copies the vectors per entry, and no whole-pool
float64 copy is ever made. Queries rank the pool by cosine similarity,
computed in float64, and return the selected rows as ``db[i]`` entries,
without their similarities, picked by one of three strategies:

  * top-k: the k most similar entries;
  * jump: k evenly spaced ranks, ``i*(n-1)//(k-1)``, always covering the
    most- and least-similar retained entries;
  * random: k distinct entries via a partial Fisher-Yates shuffle driven
    by splitmix64, so "random" runs reproduce across implementations.

Ties in similarity break by ascending id so the ranking is a total order.
A query coming from the validation split excludes its own entry from the
pool (the leakage guard).

The similarities are the bits a single-threaded float64 GEMV over the
whole pool gives, ``(x . q) / (||x|| ||q||)``, but are computed in small
row-aligned calls, each converting only its own rows to float64 (row
norms are computed once, a block at a time). Jump and random score the
whole pool that way. Top-k, as FAISS's exact flat search does, first
scores every row with one float32 GEMV, then, following ScaNN's
approximate score and exact re-rank, scores exactly only the rows whose
float32 score lies within a proven error bound of the k-th best.

On disk a database is two files: ``metadata.jsonl`` (a header line, then
one JSON object per entry) and ``embeddings.lcdb`` (magic ``LCDB``, u32
little-endian dim and count, then count*dim float32 little-endian values
in metadata order). The header line is written by ``json.dumps``; each
entry line by one f-string, with strings quoted by
``json.encoder.encode_basestring_ascii`` (the escaper ``json.dumps``
itself uses), floats by ``float.__repr__`` and ``None`` as ``null``, so
the line is byte-equal to ``json.dumps(record, separators=(",", ":"))``.
A line ends only at a line feed, a carriage return, or the two together.

No phase holds a pool-sized temporary beside the matrix and the rows:
building composes each entry's embedding text only when the embedder
reads its block; saving writes the entry lines a block at a time;
loading reads the metadata file once, line by line, checking the header,
the matrix (a block at a time), each entry line and then the entry
count, and drops its id -> line dict, which names a repeated id's first
line, before the database builds its id index; the norm pass and the
exact scoring convert a block of rows to float64 at a time.
"""

from __future__ import annotations

import json
import math
import struct
from collections.abc import Sequence
from dataclasses import dataclass
from functools import cached_property
from pathlib import Path
from typing import List, NamedTuple, Optional, Tuple, Union

import numpy as np

from .embed import LocalHashConfig, compose_molecule_text, embed_texts, embedder_fingerprint
from .hashing import SplitMix64
from .ingest import DatasetBundle, MoleculeRecord, PredictionSet, Split, TaskKind, TaskSpec
from .ingest import json_number, open_utf8

MAGIC = b"LCDB"
METADATA_FILE = "metadata.jsonl"
SIDECAR_FILE = "embeddings.lcdb"

# rows per group of exact scoring: every GEMV kernel's row unroll divides it
_GROUP_ROWS = 4

# most rows per block of any pass over the pool (norms, finiteness, saving,
# exact-scoring GEMV calls): bounds each pass's temporaries, and keeps a
# GEMV call small enough that BLAS runs it in one thread
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


def check_entry(
    id: str, smiles: str, label: float, primary_prediction: Optional[float]
) -> Row:
    """The row for one entry, once its label and prediction are finite. The
    row holds them as Python floats, whatever number type they came in as."""
    if not math.isfinite(label):
        raise KnowledgeError(f"entry {id!r} has a non-finite label {label!r}")
    if primary_prediction is not None:
        if not math.isfinite(primary_prediction):
            raise KnowledgeError(
                f"entry {id!r} has a non-finite prediction {primary_prediction!r}"
            )
        primary_prediction = float(primary_prediction)
    return (id, smiles, float(label), primary_prediction)


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
    def _norms(self) -> np.ndarray:
        """Each row's Euclidean norm in float64, converting ``_CALL_ROWS``
        rows at a time so no whole-pool float64 array is ever held. Each row
        is summed along its own contiguous axis, so the result is
        bit-identical to ``np.linalg.norm(embeddings.astype(np.float64),
        axis=1)``."""
        norms = np.empty(len(self.embeddings))
        for i in range(0, len(norms), _CALL_ROWS):
            block = self.embeddings[i : i + _CALL_ROWS].astype(np.float64)
            np.sqrt(np.add.reduce(block * block, axis=1), out=norms[i : i + _CALL_ROWS])
        return norms

    @cached_property
    def _inv_norms(self) -> np.ndarray:
        """``1 / norm`` per row, 0 for a zero row: scales the approximate
        top-k scores."""
        inv = np.zeros(len(self._norms))
        np.divide(1.0, self._norms, out=inv, where=self._norms > 0.0)
        return inv

    @cached_property
    def _slack(self) -> float:
        """ε, a bound on |approximate cosine - exact cosine| that holds for
        every row and every query with ``2**-500 < ||q|| < 2**500``.

        The exact cosine of row x, the one the ranking sorts by, is
        ``s = fl(fl(x . q) / fl(n * ||q||))`` in float64, n the row's
        ``_norms`` entry. The approximate one is ``a = fl(t * fl(1 / n))``,
        with ``t = fl32(x . q')`` from a float32 GEMV and
        ``q' = fl32(q / ||q||)``. Write u = 2**-24 and v = 2**-53 for the
        float32 and float64 unit roundoffs, γ_m(w) = m w / (1 - m w), d for
        the dim, N = ||x|| and c = x . q / (N ||q||) for the true cosine.

          * A float32 dot product errs by at most γ_d(u) Σ|x_i q'_i|
            (Higham, *Accuracy and Stability of Numerical Algorithms*,
            ch. 3), in any summation order, with or without FMA. By
            Cauchy-Schwarz Σ|x_i q'_i| <= N ||q'||, and ||q'|| <= 1 + 2u.
            Products below float32's normal range add at most 2**-150
            each, so d 2**-150 in all.
          * Rounding q / ||q|| to float32 moves each entry by at most u of
            itself, or by 2**-150 below the normal range, so
            |x . q' - x . q / ||q||| <= N (u + sqrt(d) 2**-150).
          * Divided by N: |t / N - c| <= γ_d(u) (1 + 2u) + u
            + sqrt(d) 2**-150 + d 2**-150 / N.
          * Every float64 step of both paths (the dot product, both norms,
            q / ||q||, 1 / n and the two scalings) moves a cosine by at most
            γ_{4d+16}(v) in all, which is below u / 2 for d < 2**23.

        So |a - s| <= γ_d(u) + 2u + d 2**-149 / N, up to second-order terms.
        ε doubles that, which covers those terms and the rounding of ε and
        of the comparison it enters, and puts the smallest nonzero row norm
        for N; a zero row scores 0 on both paths. For d >= 2**23 ε is
        infinite, and top-k ranks the whole pool."""
        d, u = self.dim, 2.0**-24
        if d >= 2**23:
            return math.inf
        nonzero = self._norms[self._norms > 0.0]
        smallest = float(nonzero.min()) if nonzero.size else 1.0
        return 2.0 * (d * u / (1.0 - d * u) + 2.0 * u + d * 2.0**-149 / smallest)

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
    embedder: LocalHashConfig,
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
    pool = []
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
        rows.append(check_entry(rec.id, rec.smiles, rec.label, prediction))
        pool.append(rec)
    return KnowledgeDatabase(
        task=bundle.task,
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


def _calls(count: int) -> List[Tuple[int, int]]:
    """Split ``count`` stacked rows into GEMV calls of ``_CALL_ROWS`` rows;
    the last call takes the rest, so it is never a lone row (which numpy
    would hand to a dot product instead) unless ``count`` is 1."""
    stops = [*range(_CALL_ROWS, count - 1, _CALL_ROWS), count]
    return list(zip([0, *stops[:-1]], stops))


def _dots(db: KnowledgeDatabase, q: np.ndarray, rows: Union[slice, np.ndarray]) -> np.ndarray:
    """``x . q`` in float64 for the rows ``rows`` selects, in one GEMV call."""
    return np.matmul(db.embeddings[rows].astype(np.float64), q)


def _cosines(
    db: KnowledgeDatabase, dots: np.ndarray, qn: float, rows: Union[slice, np.ndarray]
) -> np.ndarray:
    """The rows' dot products over their norm times ``qn``; 0 for a zero row."""
    norms = db._norms[rows]
    with np.errstate(invalid="ignore", divide="ignore"):
        sims = dots / (norms * qn)
    return np.where(norms == 0.0, 0.0, sims)


def _exact_scores(
    db: KnowledgeDatabase, q: np.ndarray, qn: float, rows: np.ndarray
) -> np.ndarray:
    """The exact cosines of the sorted row indices ``rows``, each bit for
    bit what ``_ranked_pool`` gives it, without scoring the whole pool.

    A GEMV kernel scores rows in groups of its row unroll, a divisor of
    ``_GROUP_ROWS``, and the rows after the last full group one by one,
    each row in an order fixed by its own values alone. So each row is
    scored inside its aligned group, the groups stacked into calls. The
    pool's last group runs to the end of the pool (up to
    ``_GROUP_ROWS + 1`` rows) and ends the stack, so its rows stay the
    tail they are in the whole pool."""
    count = len(db)
    last = max(count - 2, 0) // _GROUP_ROWS
    # ``rows`` is sorted, so equal groups are adjacent
    groups = np.minimum(rows // _GROUP_ROWS, last)
    groups = groups[np.concatenate(([True], groups[1:] != groups[:-1]))]
    members = (groups[:, None] * _GROUP_ROWS + np.arange(_GROUP_ROWS)).ravel()
    members = members[members < count]
    if groups[-1] == last and count - last * _GROUP_ROWS == _GROUP_ROWS + 1:
        members = np.append(members, count - 1)
    dots = np.concatenate([_dots(db, q, members[lo:hi]) for lo, hi in _calls(len(members))])
    return _cosines(db, dots[np.searchsorted(members, rows)], qn, rows)


def _ranked_pool(
    db: KnowledgeDatabase, q: np.ndarray, qn: float, excluded: Optional[int]
) -> np.ndarray:
    """Entry indices ranked by exact similarity desc, id asc on ties. The
    pool is scored ``_CALL_ROWS`` rows at a time, so each row's cosine
    has the bits one single-threaded GEMV over the pool would give it."""
    if qn == 0.0:
        sims = np.zeros(len(db))
    else:
        dots = np.concatenate([_dots(db, q, slice(lo, hi)) for lo, hi in _calls(len(db))])
        sims = _cosines(db, dots, qn, slice(None))
    order = np.lexsort((db._id_ranks, -sims))
    if excluded is not None:
        order = order[order != excluded]
    return order


def _top_k(
    db: KnowledgeDatabase, q: np.ndarray, qn: float, k: int, excluded: Optional[int]
) -> Optional[np.ndarray]:
    """The first k indices of ``_ranked_pool``, scoring only candidates
    exactly.

    A float32 GEMV gives every row an approximate cosine within
    ``db._slack`` (ε) of its exact one. At least k rows have an exact
    cosine of at least the k-th largest approximate one minus ε, so every
    row of the exact top k, ties included, has an approximate cosine
    within 2ε of it. Only those candidates are scored exactly and sorted.
    Returns None when the bound does not apply (see ``_slack``) or a
    float32 score overflowed; the caller then ranks the whole pool."""
    if not (2.0**-500 < qn < 2.0**500 and db._slack < 1.0):
        return None
    approx = (db.embeddings @ (q / qn).astype(np.float32)) * db._inv_norms
    if not np.isfinite(approx).all():
        return None
    if excluded is not None:
        approx[excluded] = -np.inf
    kth = np.partition(approx, len(approx) - k)[len(approx) - k]
    candidates = np.flatnonzero(approx >= kth - 2.0 * db._slack)
    sims = _exact_scores(db, q, qn, candidates)
    return candidates[np.lexsort((db._id_ranks[candidates], -sims))[:k]]


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
    excluded = db._index_of.get(exclude_id)
    n = len(db) - (excluded is not None)
    if n == 0:
        raise KnowledgeError("retrieval pool is empty")
    qn = float(np.linalg.norm(q))
    picked = _top_k(db, q, qn, k, excluded) if isinstance(strategy, TopK) and k < n else None
    if picked is None:
        order = _ranked_pool(db, q, qn, excluded)
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
        picked = [order[r] for r in ranks]
    return RetrievedContext(items=tuple(db[i] for i in picked))


def _metadata_lines(rows: Sequence[Row]) -> List[str]:
    """One metadata line per row, each byte-equal to ``json.dumps`` of the
    row's record with ``separators=(",", ":")``. Labels and predictions
    must be floats, as ``check_entry`` leaves them."""
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
        for i in range(0, count, _CALL_ROWS):
            if not np.isfinite(matrix[i : i + _CALL_ROWS]).all():
                raise KnowledgeError(f"{sidecar_path}: non-finite embedding value")

        rows, ids = [], {}
        for lineno, line in enumerate(fh, 2):
            if not line.strip():
                continue
            try:
                rec = json.loads(line.rstrip("\r\n"))
                id, smiles, prediction = rec["id"], rec["smiles"], rec["primary_prediction"]
                if not (isinstance(id, str) and isinstance(smiles, str)):
                    raise TypeError("id and smiles must be strings")
                if ids.setdefault(id, lineno) != lineno:
                    raise ValueError(f"duplicate id {id!r}, first on line {ids[id]}")
                prediction = None if prediction is None else json_number(prediction)
                rows.append(check_entry(id, smiles, json_number(rec["label"]), prediction))
            except (KeyError, TypeError, ValueError, RecursionError) as exc:
                raise KnowledgeError(
                    f"{meta_path}:{lineno}: corrupt metadata ({type(exc).__name__}: {exc})"
                ) from exc
    if len(rows) != count:
        raise KnowledgeError(f"{meta_path}: header says {count} entries, found {len(rows)}")
    # the database builds its own id index; one pool-sized id dict at a time
    del ids
    return KnowledgeDatabase(task=task, fingerprint=fingerprint, rows=tuple(rows), embeddings=matrix)
