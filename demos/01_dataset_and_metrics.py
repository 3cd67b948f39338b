"""
Loading a dataset, loading model predictions, scoring them
===========================================================

Builds a tiny regression CSV + prediction file on the fly, loads both
through the validating loaders, and scores the predictions.
"""

import json
import random
import tempfile
from pathlib import Path

from molcorr import REGRESSION, improvement_pct, load_molecules, load_predictions, rmse

workdir = Path(tempfile.mkdtemp(prefix="molcorr_demo_"))
rng = random.Random(0)

# dataset CSV: id,smiles,description,label,split
rows = ["id,smiles,description,label,split"]
labels = {}
for i in range(30):
    split = "train" if i < 20 else ("valid" if i < 25 else "test")
    smiles = "C" * rng.randint(1, 6) + "O" + "N" * rng.randint(0, 3) + str(i)
    labels[f"m{i}"] = round(rng.uniform(-2, 2), 4)
    rows.append(f"m{i},{smiles},,{labels[f'm{i}']},{split}")
(workdir / "dataset.csv").write_text("\n".join(rows) + "\n")

bundle = load_molecules(workdir / "dataset.csv", REGRESSION)
print("split sizes:", {s.value: n for s, n in bundle.counts.items()})

# a black-box model's predictions for the test split, as JSON lines
with (workdir / "test_preds.jsonl").open("w") as fh:
    for rec in bundle.records:
        if rec.split.value == "test":
            noisy = round(labels[rec.id] + rng.uniform(-0.5, 0.5), 4)
            fh.write(json.dumps({"id": rec.id, "prediction": noisy}) + "\n")

from molcorr import Split

preds = load_predictions(workdir / "test_preds.jsonl", bundle, Split.TEST)
truths = [rec.label for rec in bundle.split_records(Split.TEST)]
values = [preds[rec.id] for rec in bundle.split_records(Split.TEST)]

baseline = rmse(values, truths)
print(f"model RMSE on test: {baseline.value:.4f} over {baseline.n} molecules")

# the improvement arithmetic used in comparison tables
better = rmse([0.8 * v + 0.2 * t for v, t in zip(values, truths)], truths)
print(f"hypothetical corrected RMSE: {better.value:.4f}")
print(f"relative change: {improvement_pct(baseline.value, better.value):+.1f}%")
