"""
Sweeping one configuration axis at a time
=========================================

ablation_points turns one axis name into a list of points, everything
fixed except that axis: the context size k, the retrieval strategy, the
self-correction toggle, or the embedder. run_ablation runs the points,
building a knowledge database only when a point's embedder differs from
the previous one. Each point yields a full report with the
baseline-vs-corrected metric and the improvement percentage.
"""

import random

from molcorr import (
    REGRESSION,
    LocalHashConfig,
    MockNoisyOracle,
    RunConfig,
    ablation_points,
    run_ablation,
)
from molcorr.ingest import DatasetBundle, MoleculeRecord, Split

rng = random.Random(12)
records = []
val_preds, test_preds = {}, {}
for i in range(120):
    split = Split.TRAIN if i < 70 else (Split.VALID if i < 95 else Split.TEST)
    smiles = "".join(rng.choice("CNOS()=c1") for _ in range(rng.randint(5, 14)))
    label = round(rng.uniform(0, 4), 4)
    records.append(MoleculeRecord(f"m{i}", smiles, None, split, label))
    noisy = round(label + rng.uniform(-1.2, 1.2), 4)
    if split is Split.VALID:
        val_preds[f"m{i}"] = noisy
    elif split is Split.TEST:
        test_preds[f"m{i}"] = noisy

bundle = DatasetBundle(REGRESSION, tuple(records))
emb = LocalHashConfig(dim=64)
cfg = RunConfig(k=5, seed=1)
llm = MockNoisyOracle(p=0.6, seed=9)

# the k axis takes k values and the embedder axis embedder configs; the
# strategy and self-correction axes have fixed points
axes = {
    "k": (1, 5, 20),
    "strategy": (),
    "self-correction": (),
    "embedder": (LocalHashConfig(dim=16), LocalHashConfig(dim=256)),
}
for axis_name, values in axes.items():
    print("=" * 52)
    print(axis_name)
    print("=" * 52)
    points = ablation_points(axis_name, cfg, emb, values)
    reports = run_ablation(points, bundle, val_preds, Split.TEST, test_preds, llm)
    for report in reports:
        row = report["splits"]["test"]
        print(
            f"  {report['config']['axis']}={report['config']['value']!s:<12} "
            f"baseline {row['baseline']:.4f}  corrected {row['corrected']:.4f}  "
            f"({row['improvement_pct']:+.1f}%)"
        )
