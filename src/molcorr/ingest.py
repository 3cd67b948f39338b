"""Dataset and prediction-file loading.

The toolkit never computes ML predictions itself: the base model is a
black box whose outputs are ingested from files. This module loads the
pre-split molecule CSV and the per-split prediction files, validating
identity alignment and label availability up front so every later stage
can assume a consistent bundle.

File formats:
  * Molecule CSV, header ``id,smiles,description,label,split`` (RFC-4180,
    UTF-8). ``split`` is one of ``train``, ``valid``, ``test``. ``label``
    and ``description`` cells may be empty where permitted.
  * Predictions: JSON-lines, one ``{"id": <str>, "prediction": <number>}``
    object per line; a split's file loads as a plain ``{id: prediction}`` dict.
"""

from __future__ import annotations

import csv
import json
import math
from collections import Counter
from contextlib import contextmanager
from dataclasses import dataclass
from enum import Enum
from pathlib import Path
from typing import Collection, Dict, Iterator, NamedTuple, Optional, TextIO, Tuple, Union


class IngestError(ValueError):
    """Base class for dataset/prediction loading failures."""


@contextmanager
def open_utf8(path: Union[str, Path]) -> Iterator[TextIO]:
    """``path`` opened as UTF-8 text with newlines untranslated, as the csv
    module needs; a byte that does not decode is an IngestError naming the
    file, wherever the reader hits it."""
    with open(path, newline="", encoding="utf-8") as fh:
        try:
            yield fh
        except UnicodeDecodeError as exc:
            raise IngestError(f"{path}: not UTF-8 text ({exc.reason})") from None


def json_number(value: object) -> float:
    """A parsed JSON number as a float. A string or a boolean raises
    TypeError (``bool`` is an ``int`` subclass, so the type is compared
    exactly); an integer beyond the float range raises ValueError."""
    if type(value) not in (int, float):
        raise TypeError(f"{value!r} is not a number")
    try:
        return float(value)
    except OverflowError:
        raise ValueError("integer beyond the float range") from None


class TaskKind(str, Enum):
    BINARY_CLASSIFICATION = "binary_classification"
    REGRESSION = "regression"


class Metric(str, Enum):
    ROC_AUC = "roc_auc"
    RMSE = "rmse"


@dataclass(frozen=True)
class TaskSpec:
    """Task type; the evaluation metric is forced by the kind."""

    kind: TaskKind

    @property
    def metric(self) -> Metric:
        if self.kind is TaskKind.BINARY_CLASSIFICATION:
            return Metric.ROC_AUC
        return Metric.RMSE

    @property
    def is_classification(self) -> bool:
        return self.kind is TaskKind.BINARY_CLASSIFICATION


CLASSIFICATION = TaskSpec(TaskKind.BINARY_CLASSIFICATION)
REGRESSION = TaskSpec(TaskKind.REGRESSION)


class Split(str, Enum):
    TRAIN = "train"
    VALID = "valid"
    TEST = "test"


class MoleculeRecord(NamedTuple):
    id: str
    smiles: str
    description: Optional[str]
    split: Split
    label: Optional[float]


@dataclass(frozen=True)
class DatasetBundle:
    task: TaskSpec
    records: Tuple[MoleculeRecord, ...]

    @property
    def counts(self) -> Dict[Split, int]:
        tally = Counter(rec.split for rec in self.records)
        return {s: tally[s] for s in Split}

    def split_records(self, split: Split) -> Tuple[MoleculeRecord, ...]:
        return tuple(r for r in self.records if r.split is split)


CSV_HEADER = ["id", "smiles", "description", "label", "split"]

_SPLIT_TOKENS = {s.value: s for s in Split}


def _parse_label(raw: str, is_classification: bool, path: Path, lineno: int, row_id: str) -> float:
    try:
        value = float(raw)
    except ValueError as exc:
        raise IngestError(f"{path}:{lineno}: row {row_id!r}: label {raw!r} is not a number") from exc
    if not math.isfinite(value):
        raise IngestError(f"{path}:{lineno}: row {row_id!r}: label {raw!r} is not finite")
    if is_classification and value not in (0.0, 1.0):
        raise IngestError(
            f"{path}:{lineno}: row {row_id!r}: classification label must be 0 or 1, got {raw!r}"
        )
    return value


def load_molecules(
    path: Union[str, Path], task: TaskSpec, splits: Collection[Split] = tuple(Split)
) -> DatasetBundle:
    """Load and validate a molecule CSV into a DatasetBundle of the records
    of ``splits``, in file order.

    Every row is checked, whatever its split; the other splits' records are
    not built. Raises IngestError, its message naming the failed check and
    the physical line the faulty record ends on, on a bad header or row
    width, duplicate ids, missing required labels, out-of-domain
    classification labels, empty SMILES or unknown split tokens."""
    path = Path(path)
    kept = {s.value for s in splits}
    records = []
    seen = set()
    new = tuple.__new__  # a record without the named tuple's Python-level __new__
    is_classification = task.is_classification
    with open_utf8(path) as fh:
        reader = csv.reader(fh)
        try:
            header = next(reader)
        except StopIteration:
            raise IngestError(f"{path}: empty file") from None
        if header != CSV_HEADER:
            raise IngestError(f"{path}: expected header {CSV_HEADER}, got {header}")
        test = Split.TEST
        for row in reader:
            if not row:
                continue
            if len(row) != len(CSV_HEADER):
                raise IngestError(f"{path}:{reader.line_num}: expected {len(CSV_HEADER)} cells")
            mol_id, smiles, description, label_raw, split_raw = row
            if mol_id in seen:
                raise IngestError(f"{path}:{reader.line_num}: duplicate id {mol_id!r}")
            seen.add(mol_id)
            if not smiles:
                raise IngestError(f"{path}:{reader.line_num}: empty SMILES for id {mol_id!r}")
            split = _SPLIT_TOKENS.get(split_raw)
            if split is None:
                raise IngestError(f"{path}:{reader.line_num}: unknown split {split_raw!r}")
            label = None
            if label_raw:
                label = _parse_label(label_raw, is_classification, path, reader.line_num, mol_id)
            elif split is not test:
                raise IngestError(
                    f"{path}:{reader.line_num}: id {mol_id!r} in split {split.value} has no label"
                )
            if split_raw in kept:
                records.append(
                    new(MoleculeRecord, (mol_id, smiles, description or None, split, label))
                )
    return DatasetBundle(task=task, records=tuple(records))


def load_predictions(
    path: Union[str, Path], bundle: DatasetBundle, split: Split
) -> Dict[str, float]:
    """Load a JSON-lines prediction file covering one split exactly, as a dict.

    Ids are strings; every id of the split must appear exactly once, and
    ids outside the split are rejected. Predictions must be finite, and classification
    predictions must be probabilities in [0, 1].
    """
    path = Path(path)
    wanted = {r.id for r in bundle.records if r.split is split}
    entries: Dict[str, float] = {}
    with open_utf8(path) as fh:
        for lineno, line in enumerate(fh, start=1):
            line = line.strip()
            if not line:
                continue
            try:
                obj = json.loads(line)
                mol_id = obj["id"]
                value = json_number(obj["prediction"])
            except (KeyError, TypeError, ValueError, RecursionError) as exc:
                raise IngestError(f"{path}:{lineno}: malformed prediction line") from exc
            if not isinstance(mol_id, str):
                raise IngestError(f"{path}:{lineno}: id {mol_id!r} is not a string")
            if not math.isfinite(value):
                raise IngestError(f"{path}:{lineno}: prediction {value} is not finite")
            if mol_id not in wanted:
                raise IngestError(
                    f"{path}:{lineno}: id {mol_id!r} is not in the {split.value} split"
                )
            if mol_id in entries:
                raise IngestError(f"{path}:{lineno}: duplicate id {mol_id!r}")
            if bundle.task.is_classification and not 0.0 <= value <= 1.0:
                raise IngestError(
                    f"{path}:{lineno}: probability {value} outside [0, 1] for {mol_id!r}"
                )
            entries[mol_id] = value
    missing = wanted - entries.keys()
    if missing:
        shown = sorted(missing)[:5]
        raise IngestError(
            f"{path}: {len(missing)} {split.value} id(s) without predictions, "
            f"e.g. {shown}"
        )
    return entries
