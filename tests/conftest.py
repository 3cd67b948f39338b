"""Shared synthetic-data builders for the test suite, plus the dataset
CSV writer, a reference cosine similarity and a traced-memory probe,
which only tests use.

All generated labels and predictions are rounded to 4 decimals, matching
the 4-decimal number rendering of prompts and mock responses, so
echo/oracle round trips are exact.
"""

from __future__ import annotations

import csv
import json
import math
import random
import tracemalloc
from pathlib import Path
from typing import Dict, List, Optional

import numpy as np
import pytest

from molcorr import knowledge
from molcorr.ingest import (
    CLASSIFICATION,
    CSV_HEADER,
    REGRESSION,
    DatasetBundle,
    MoleculeRecord,
    Split,
    TaskSpec,
)

SMILES_ALPHABET = "CNOPSFclnor()=#123[]"

# characters str.strip() removes but JSON does not allow around a value, none
# of which ends a line of a file opened with newline=""
NON_JSON_WHITESPACE = {
    "vt": "\x0b", "ff": "\x0c", "fs": "\x1c", "nel": "\x85", "nbsp": "\xa0", "em-space": "\u2003",
}


def synth_smiles(rng: random.Random, taken: set) -> str:
    while True:
        length = rng.randint(6, 16)
        s = "".join(rng.choice(SMILES_ALPHABET) for _ in range(length))
        if s not in taken:
            taken.add(s)
            return s


def make_bundle(
    task: TaskSpec = REGRESSION,
    n_train: int = 30,
    n_valid: int = 10,
    n_test: int = 10,
    seed: int = 7,
    with_descriptions: bool = False,
    test_labels: bool = True,
) -> DatasetBundle:
    rng = random.Random(seed)
    taken: set = set()
    records: List[MoleculeRecord] = []
    sizes = [(Split.TRAIN, n_train), (Split.VALID, n_valid), (Split.TEST, n_test)]
    index = 0
    for split, count in sizes:
        for _ in range(count):
            smiles = synth_smiles(rng, taken)
            if task.is_classification:
                label: Optional[float] = float(rng.random() < 0.5)
            else:
                label = round(rng.uniform(-3.0, 3.0), 4)
            if split is Split.TEST and not test_labels:
                label = None
            description = (
                f"chain of {len(smiles)} tokens with mixed ring markers"
                if with_descriptions
                else None
            )
            records.append(
                MoleculeRecord(
                    id=f"m{index:05d}",
                    smiles=smiles,
                    description=description,
                    split=split,
                    label=label,
                )
            )
            index += 1
    # classification needs both classes in every labeled split
    if task.is_classification:
        by_split = {}
        for i, rec in enumerate(records):
            if rec.label is not None:
                by_split.setdefault(rec.split, []).append(i)
        for split, idxs in by_split.items():
            labels = {records[i].label for i in idxs}
            if len(idxs) >= 2 and len(labels) == 1:
                i = idxs[0]
                flipped = 1.0 - records[i].label
                records[i] = MoleculeRecord(
                    records[i].id, records[i].smiles, records[i].description,
                    records[i].split, flipped,
                )
    return DatasetBundle(task=task, records=tuple(records))


def make_predictions(
    bundle: DatasetBundle, split: Split, seed: int = 11, noise: float = 0.8
) -> Dict[str, float]:
    """Imperfect primaries: correlated with the label but off by noise."""
    rng = random.Random(seed)
    entries = {}
    for rec in bundle.records:
        if rec.split is not split:
            continue
        if bundle.task.is_classification:
            # classes overlap so the baseline ranking is imperfect
            base = 0.5 if rec.label is None else 0.35 + 0.3 * rec.label
            value = min(1.0, max(0.0, base + rng.uniform(-0.35, 0.35)))
        else:
            base = 0.0 if rec.label is None else rec.label
            value = base + rng.uniform(-noise, noise)
        entries[rec.id] = round(value, 4)
    return entries


def write_dataset_csv(bundle: DatasetBundle, path: Path) -> None:
    """Write a bundle as the dataset CSV ``load_molecules`` reads; reloading
    yields an identical bundle, since labels use the shortest round-trip
    decimal rendering (repr)."""
    with path.open("w", newline="", encoding="utf-8") as fh:
        writer = csv.writer(fh)
        writer.writerow(CSV_HEADER)
        for rec in bundle.records:
            label = "" if rec.label is None else repr(rec.label)
            writer.writerow([rec.id, rec.smiles, rec.description or "", label, rec.split.value])


def cosine_similarity(a: np.ndarray, b: np.ndarray) -> float:
    """Reference cosine similarity in [-1, 1]; 0 when either vector is all-zero."""
    a = np.asarray(a, dtype=np.float64)
    b = np.asarray(b, dtype=np.float64)
    if a.shape != b.shape:
        raise ValueError(f"dim mismatch: {a.shape} vs {b.shape}")
    na = math.sqrt(float(np.dot(a, a)))
    nb = math.sqrt(float(np.dot(b, b)))
    if na == 0.0 or nb == 0.0:
        return 0.0
    return float(np.dot(a, b)) / (na * nb)


def traced(fn):
    """``fn()``, then the traced peak during the call and the traced memory
    left after it, both in bytes above what was traced before it."""
    tracemalloc.start()
    try:
        before = tracemalloc.get_traced_memory()[0]
        out = fn()
        current, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    return out, peak - before, current - before


def write_predictions_jsonl(preds: Dict[str, float], path: Path) -> None:
    with path.open("w", encoding="utf-8") as fh:
        for mol_id, value in preds.items():
            fh.write(json.dumps({"id": mol_id, "prediction": value}) + "\n")


@pytest.fixture
def matrix_scans(monkeypatch) -> List[int]:
    """A list that gains one item per call of the knowledge module's matrix
    scan, the one pass that checks and measures a pool's embeddings."""
    calls: List[int] = []
    scan = knowledge._scan_matrix

    def counted(*args):
        calls.append(len(args[0]))
        return scan(*args)

    monkeypatch.setattr(knowledge, "_scan_matrix", counted)
    return calls


@pytest.fixture
def regression_bundle() -> DatasetBundle:
    return make_bundle(REGRESSION, n_train=30, n_valid=10, n_test=10, seed=3)


@pytest.fixture
def classification_bundle() -> DatasetBundle:
    return make_bundle(CLASSIFICATION, n_train=30, n_valid=10, n_test=10, seed=5)
