"""Output checks that do not trust the code under test.

``retrieval_oracle_ids`` reads the saved database files itself and ranks
the whole pool with numpy: similarity descending, then id ascending, the
total order ``knowledge.retrieve`` promises. Similarities use the same
float64 expression as the program, because the pool is tie-heavy and a
last-bit difference would reorder ties; what the oracle checks is the
ranking, the leakage guard and the top-k / jump selection.
"""

from __future__ import annotations

import hashlib
import json
import random
import struct
from pathlib import Path
from typing import Optional, Sequence, Tuple

import numpy as np

ORACLE_SAMPLES = {"test": 4, "valid": 2}


class SavedPool:
    """Ids and float64 embeddings read straight from a saved database."""

    def __init__(self, directory: Path):
        lines = (directory / "metadata.jsonl").read_text(encoding="utf-8").splitlines()
        self.ids = np.array([json.loads(line)["id"] for line in lines[1:] if line.strip()])
        raw = (directory / "embeddings.lcdb").read_bytes()
        dim, count = struct.unpack("<II", raw[4:12])
        if count != len(self.ids):
            raise ValueError(f"sidecar holds {count} vectors for {len(self.ids)} ids")
        self.matrix = np.frombuffer(raw[12:], dtype="<f4").reshape(count, dim).astype(np.float64)
        self.norms = np.linalg.norm(self.matrix, axis=1)


def retrieval_oracle_ids(
    pool: SavedPool, query_vec: np.ndarray, k: int, strategy: str, exclude_id: Optional[str]
) -> Tuple[str, ...]:
    q = np.asarray(query_vec, dtype=np.float64)
    qn = float(np.linalg.norm(q))
    if qn == 0.0:
        sims = np.zeros(len(pool.ids))
    else:
        with np.errstate(invalid="ignore", divide="ignore"):
            sims = (pool.matrix @ q) / (pool.norms * qn)
        sims = np.where(pool.norms == 0.0, 0.0, sims)
    keep = pool.ids != exclude_id
    ids, sims = pool.ids[keep], sims[keep]
    ranked = ids[np.lexsort((ids, -sims))]
    n = len(ranked)
    if k >= n:
        return tuple(ranked.tolist())
    if strategy == "topk":
        return tuple(ranked[:k].tolist())
    if strategy == "jump":
        ranks = [0] if k == 1 else [i * (n - 1) // (k - 1) for i in range(k)]
        return tuple(ranked[ranks].tolist())
    raise ValueError(f"the oracle covers topk and jump, not {strategy!r}")


def check_retrieval(
    molecules: Path, task_name: str, db_dir: Path, k: int, strategy_name: str,
    include_description: bool, seed: int,
) -> Tuple[int, int]:
    """Compare knowledge.retrieve with the oracle on sampled queries.

    Returns (queries checked, mismatches). Valid-split samples pass their
    own id as ``exclude_id``, as correct_one does.
    """
    from molcorr.embed import LocalHashConfig, embed_molecule
    from molcorr.ingest import CLASSIFICATION, REGRESSION, Split, load_molecules
    from molcorr.knowledge import Jump, TopK, load_database, retrieve

    bundle = load_molecules(molecules, REGRESSION if task_name == "regression" else CLASSIFICATION)
    db = load_database(db_dir)
    pool = SavedPool(db_dir)
    embedder = LocalHashConfig()
    strategy = {"topk": TopK(), "jump": Jump()}[strategy_name]
    rng = random.Random(seed)
    checked = mismatches = 0
    for split_name, count in ORACLE_SAMPLES.items():
        split = Split(split_name)
        for rec in rng.sample(bundle.split_records(split), count):
            vec = embed_molecule(embedder, rec, include_description)
            exclude = rec.id if split is Split.VALID else None
            got = retrieve(db, vec, k, strategy, exclude_id=exclude).ids
            want = retrieval_oracle_ids(pool, vec, k, strategy_name, exclude)
            checked += 1
            mismatches += got != want
    return checked, mismatches


def outputs_digest(out_dir: Path, outcomes: Sequence) -> str:
    """sha256 of the outputs that must repeat exactly: the output files
    except the audit log, which holds latencies, and the outcomes in the
    form ``write_outcomes`` writes them."""
    from molcorr.correct import outcome_to_dict

    digest = hashlib.sha256()
    for path in sorted(p for p in out_dir.iterdir() if not p.name.startswith("audit_")):
        digest.update(path.name.encode("utf-8") + b"\0")
        digest.update(path.read_bytes())
    for outcome in outcomes:
        digest.update(json.dumps(outcome_to_dict(outcome), separators=(",", ":")).encode("utf-8"))
    return digest.hexdigest()
