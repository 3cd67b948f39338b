"""
A full correction run against mock LLM backends
===============================================

The echo backend reproduces the model's prediction (a no-op corrector);
the noisy oracle answers with the true label a configurable fraction of
the time. Self-correction fires whenever the proposed correction strays
far from the model's prediction, and a second round confirms or revises.
"""

import random

from molcorr import (
    REGRESSION,
    LocalHashConfig,
    MockEcho,
    MockNoisyOracle,
    RunConfig,
    build_database,
    correct_split,
    rmse,
    run_summary,
)
from molcorr.ingest import DatasetBundle, MoleculeRecord, Split

rng = random.Random(4)
records = []
# each split's predictions: a plain {id: prediction} dict, as load_predictions returns
val_preds, test_preds = {}, {}
for i in range(90):
    split = Split.TRAIN if i < 50 else (Split.VALID if i < 70 else Split.TEST)
    smiles = rng.choice(["C", "N", "O"]) * rng.randint(2, 9) + f"({i})"
    label = round(rng.uniform(-2, 2), 4)
    records.append(MoleculeRecord(f"m{i}", smiles, None, split, label))
    noisy = round(label + rng.uniform(-0.9, 0.9), 4)
    if split is Split.VALID:
        val_preds[f"m{i}"] = noisy
    elif split is Split.TEST:
        test_preds[f"m{i}"] = noisy

bundle = DatasetBundle(REGRESSION, tuple(records))
emb = LocalHashConfig(dim=64)
db = build_database(bundle, val_preds, emb)
cfg = RunConfig(k=8, seed=0)
truths = [r.label for r in bundle.split_records(Split.TEST)]

print(f"baseline RMSE: {rmse(list(test_preds.values()), truths).value:.4f}\n")

for llm in (MockEcho(), MockNoisyOracle(p=0.5, seed=3), MockNoisyOracle(p=1.0, seed=3)):
    outcomes = correct_split(Split.TEST, bundle, test_preds, db, cfg, emb, llm)
    corrected = rmse([o.final for o in outcomes], truths)
    summary = run_summary(outcomes, cfg, emb, llm)
    name = summary["config"]["backend"]
    if name == "noisy":
        name = f"noisy(p={llm.p})"
    print(
        f"{name:>14}: corrected RMSE {corrected.value:.4f}, "
        f"{summary['self_corrections']} self-corrections, "
        f"{summary['fallbacks']} fallbacks"
    )

# a single outcome carries the whole story for one molecule
sample = outcomes[0]
print("\nfirst outcome:", sample.id)
print("  primary   ", sample.primary)
print("  initial   ", sample.initial.prediction)
print("  final     ", sample.final)
print("  context   ", sample.context_ids[:4], "...")
