"""
Deterministic text embeddings and similarity retrieval
======================================================

The local feature-hashing embedder maps any text to a vector of signed
n-gram bucket counts with no model download or network call, which makes
retrieval reproducible everywhere. A knowledge database pools labeled train molecules with
validation molecules (plus the model's prediction for those), and top-k /
jump / random strategies select context for a query.
"""

import random

import numpy as np

from molcorr import (
    REGRESSION,
    Jump,
    LocalHashConfig,
    Random,
    TopK,
    build_database,
    embed_text,
    retrieve,
)
from molcorr.ingest import DatasetBundle, MoleculeRecord, Split

emb = LocalHashConfig(dim=64, ngram=3)

# similar strings land close together, unrelated ones do not
a = embed_text(emb, "CCCCO")
b = embed_text(emb, "CCCCCO")
c = embed_text(emb, "c1ccncc1[N+](=O)[O-]")


def cosine(u, v):
    # the vectors hold bucket counts, not unit vectors, so divide by both norms
    return float(u @ v / (np.linalg.norm(u) * np.linalg.norm(v)))


print("cos(CCCCO, CCCCCO)      =", round(cosine(a, b), 4))
print("cos(CCCCO, nitropyridine) =", round(cosine(a, c), 4))

# a small pool: 16 train molecules and 6 validation molecules, whose model
# predictions are a plain {id: prediction} dict, as load_predictions returns
rng = random.Random(1)
records, val_preds = [], {}
for i in range(22):
    split = Split.TRAIN if i < 16 else Split.VALID
    smiles = "C" * rng.randint(1, 8) + rng.choice(["O", "N", "S"]) + str(i)
    label = round(rng.uniform(0, 3), 4)
    records.append(MoleculeRecord(f"m{i}", smiles, None, split, label))
    if split is Split.VALID:
        val_preds[f"m{i}"] = round(label + rng.uniform(-1, 1), 4)

bundle = DatasetBundle(REGRESSION, tuple(records))
db = build_database(bundle, val_preds, emb)
print(f"\ndatabase: {len(db)} entries, fingerprint {db.fingerprint}")

query = embed_text(emb, "CCCCCCS8")
for strategy in (TopK(), Jump(), Random(seed=7)):
    ctx = retrieve(db, query, k=5, strategy=strategy)
    print(f"{type(strategy).__name__:>6}: {list(ctx.ids)}")

# a validation query excludes its own database entry (leakage guard)
own = records[17]
ctx = retrieve(db, embed_text(emb, own.smiles), k=22, exclude_id=own.id)
print(f"\nexcluded {own.id}: retrieved {len(ctx)} of {len(db)} entries")
