"""Seeded synthetic inputs for the benchmark workloads.

The generator belongs to the benchmark, not to the test suite, so editing
the tests cannot move the baseline. The same ``DataSpec`` and seed always
give byte-identical files.

What the program's cost depends on, and how a spec varies it:

  * pool size (train + valid) sets retrieval cost per query and the
    size of the knowledge database;
  * ``short_share`` of each split's molecules get a short SMILES from a
    tiny alphabet and no description. Many of them embed to the same
    vector, so a query meets long runs of equal similarities (tie
    density);
  * the other molecules get a SMILES of ``long_smiles`` characters and,
    when ``description_bytes`` is set, a description of about that many
    bytes, which sets embedding cost per entry;
  * labels and base-model predictions are rounded to 4 decimals, the
    precision prompts and mock replies render, so an echo backend
    reproduces the base predictions exactly.
"""

from __future__ import annotations

import csv
import json
import random
from dataclasses import dataclass
from pathlib import Path
from typing import Dict, Optional, Tuple

SHORT_TOKENS = ("C", "N", "O", "CC", "CO")
LONG_TOKENS = (
    "C", "C", "C", "c", "c", "N", "O", "S", "F", "Cl", "Br", "n", "o",
    "(", ")", "=", "#", "1", "2", "[nH]", "c1ccccc1", "C(=O)O",
)
DESCRIPTION_WORDS = (
    "aromatic", "aliphatic", "ring", "chain", "polar", "hydrophobic", "donor",
    "acceptor", "halogenated", "amide", "ester", "ketone", "amine", "rigid",
    "flexible", "scaffold", "substituent", "fragment", "branched", "planar",
    "charged", "neutral", "soluble", "volatile", "stable", "reactive",
)

CSV_HEADER = ["id", "smiles", "description", "label", "split"]


@dataclass(frozen=True)
class DataSpec:
    task: str  # "regression" or "classification"
    n_train: int
    n_valid: int
    n_test: int
    short_share: float
    long_smiles: Tuple[int, int]
    description_bytes: Optional[int] = None


@dataclass(frozen=True)
class DataFiles:
    molecules: Path
    valid_predictions: Path
    test_predictions: Path


def _short_smiles(rng: random.Random) -> str:
    return "".join(rng.choice(SHORT_TOKENS) for _ in range(rng.randint(1, 3)))


def _long_smiles(rng: random.Random, lo: int, hi: int) -> str:
    target = rng.randint(lo, hi)
    out = ""
    while len(out) < target:
        out += rng.choice(LONG_TOKENS)
    return out[:target]


def _description(rng: random.Random, size: int) -> str:
    words = []
    length = 0
    while length < size:
        word = rng.choice(DESCRIPTION_WORDS)
        words.append(word)
        length += len(word) + 1
    return "Molecule with " + " ".join(words) + f" features, logP {rng.uniform(-2, 6):.1f}."


def _label(rng: random.Random, task: str) -> float:
    if task == "classification":
        return float(rng.random() < 0.5)
    return round(rng.gauss(0.0, 2.0), 4)


def _prediction(rng: random.Random, task: str, label: float) -> float:
    if task == "classification":
        base = 0.35 + 0.3 * label
        return round(min(1.0, max(0.0, base + rng.uniform(-0.35, 0.35))), 4)
    return round(label + rng.gauss(0.0, 0.8), 4)


def generate(spec: DataSpec, seed: int, directory: Path) -> DataFiles:
    """Write the molecule CSV and the valid/test prediction files."""
    rng = random.Random(seed)
    directory.mkdir(parents=True, exist_ok=True)
    # exact short/long counts per split, so a seed moves only which
    # molecules are short, not how many
    molecules = []
    for split, count in (("train", spec.n_train), ("valid", spec.n_valid), ("test", spec.n_test)):
        short = round(spec.short_share * count)
        molecules += [(split, True)] * short + [(split, False)] * (count - short)
    rng.shuffle(molecules)
    rows = []
    predictions: Dict[str, Dict[str, float]] = {"valid": {}, "test": {}}
    for index, (split, is_short) in enumerate(molecules):
        mol_id = f"m{index:06d}"
        if is_short:
            smiles, description = _short_smiles(rng), ""
        else:
            smiles = _long_smiles(rng, *spec.long_smiles)
            description = (
                _description(rng, spec.description_bytes) if spec.description_bytes else ""
            )
        label = _label(rng, spec.task)
        if split in predictions:
            predictions[split][mol_id] = _prediction(rng, spec.task, label)
        rows.append([mol_id, smiles, description, repr(label), split])

    files = DataFiles(
        molecules=directory / "molecules.csv",
        valid_predictions=directory / "valid_predictions.jsonl",
        test_predictions=directory / "test_predictions.jsonl",
    )
    with files.molecules.open("w", newline="", encoding="utf-8") as fh:
        writer = csv.writer(fh)
        writer.writerow(CSV_HEADER)
        writer.writerows(rows)
    for split, path in (("valid", files.valid_predictions), ("test", files.test_predictions)):
        with path.open("w", encoding="utf-8") as fh:
            for mol_id, value in predictions[split].items():
                fh.write(json.dumps({"id": mol_id, "prediction": value}) + "\n")
    return files
