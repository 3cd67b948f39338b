"""
Every prompt kind, rendered
===========================

Corrector prompts carry retrieved context and the model's prediction;
self-correction prompts ask the LLM to double-check its own proposal;
the predictor kinds (ip/ipd/ie/ied, few-shot) ask for a direct
prediction. All rendering is byte-deterministic.
"""

from molcorr import (
    CLASSIFICATION,
    LocalHashConfig,
    MoleculeRecord,
    PromptKind,
    Split,
    build_corrector_prompt,
    build_predictor_prompt,
    build_self_correction_prompt,
)
from molcorr.embed import embed_text
from molcorr.knowledge import Entry, RetrievedContext

emb = LocalHashConfig(dim=32)
query = MoleculeRecord(
    "q", "CC(=O)Nc1ccc(O)cc1", "acetamide attached to a phenol ring", Split.TEST, None
)


def entry(mol_id, smiles, label, prediction=None):
    return Entry(mol_id, smiles, label, prediction, embed_text(emb, smiles))


ctx = RetrievedContext(
    items=(
        entry("t1", "CC(=O)Nc1ccccc1", 1.0),
        entry("v1", "Oc1ccccc1", 0.0, prediction=0.7100),
    )
)

print("=" * 60, "\ncorrector prompt\n" + "=" * 60)
print(build_corrector_prompt(query, 0.8200, ctx, CLASSIFICATION).text)

print("\n" + "=" * 60, "\nself-correction prompt\n" + "=" * 60)
print(build_self_correction_prompt(query, 0.8200, 0.0, CLASSIFICATION,
                                   prior_explanation="phenol suggests inactivity").text)

print("\n" + "=" * 60, "\nzero-shot with description + explanation (ied)\n" + "=" * 60)
print(build_predictor_prompt(PromptKind.IED, query, CLASSIFICATION).text)

print("\n" + "=" * 60, "\nfew-shot with 2 examples\n" + "=" * 60)
examples = [
    MoleculeRecord("f1", "CCO", None, Split.TRAIN, 0.0),
    MoleculeRecord("f2", "c1ccccc1N", None, Split.TRAIN, 1.0),
]
fs = build_predictor_prompt(PromptKind.FEW_SHOT, query, CLASSIFICATION, examples=examples)
print(fs.text)
print("\ntoken estimate:", fs.token_estimate, "| context ids:", fs.context_ids)
