"""Prompt rendering for every query kind.

All wording lives in pinned template constants (``TEMPLATE_VERSION``), so
rendering is byte-deterministic and machine-checkable. Kinds:

  * corrector: instruction, one numbered context line per retrieved
    entry (SMILES and label, plus the base model's prediction for a
    validation entry), a question restating the query molecule and the
    base model's prediction, and the answer-format footer;
  * self-correction: restates the query, the model prediction and the
    previously proposed correction, asking to confirm or revise;
  * predictor kinds IP / IPD / IE / IED (zero-shot; D adds the molecule
    description, E asks for an explanation) and FS-k (k labeled examples).

Number rendering: regression values and probabilities with 4 decimals,
classification labels as bare 0/1. The token estimate is
``ceil(utf8_bytes / 4)``. A corrector prompt is rendered once; when it
exceeds its budget, context lines are dropped lowest-rank-first, each
taking its own byte count off the total, until it fits (the query and
instruction are never dropped). ``check_corrector_budget`` tells, without
any context, whether the budget holds a query's prompt at all.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from enum import Enum
from typing import List, Optional, Sequence, Tuple

from .ingest import MoleculeRecord, TaskSpec
from .knowledge import Entry, RetrievedContext

TEMPLATE_VERSION = 1

DEFAULT_TOKEN_BUDGET = 3000


class PromptError(ValueError):
    pass


class PromptKind(str, Enum):
    CORRECTOR = "corrector"
    SELF_CORRECTION = "self_correction"
    IP = "ip"
    IPD = "ipd"
    IE = "ie"
    IED = "ied"
    FEW_SHOT = "fs"


@dataclass(frozen=True)
class PromptBundle:
    kind: PromptKind
    text: str
    token_estimate: int
    context_ids: Tuple[str, ...] = ()


def estimate_tokens(text: str) -> int:
    return math.ceil(len(text.encode("utf-8")) / 4)


def format_value(task: TaskSpec, value: float) -> str:
    """Label rendering: bare 0/1 for classification, 4 decimals otherwise."""
    if task.is_classification:
        return str(int(round(value)))
    return f"{value:.4f}"


def format_prediction(value: float) -> str:
    """Model predictions and probabilities always render with 4 decimals."""
    return f"{value:.4f}"


CORRECTOR_INSTRUCTION = (
    "Instruction:\n"
    "You assist with a molecular property task. A machine learning model has "
    "produced a prediction for a query molecule. Labeled molecules from the "
    "training set are listed below, followed by labeled validation molecules "
    "together with the model's prediction for each, which shows where the "
    "model tends to be accurate or inaccurate. Use this context to refine the "
    "model's prediction for the query molecule."
)

SELF_CORRECTION_INSTRUCTION = (
    "Instruction:\n"
    "You previously proposed a correction to a machine learning model's "
    "prediction for a molecule. Reconsider your proposal carefully and either "
    "confirm it or revise it."
)

PREDICTOR_INSTRUCTION_CLASSIFICATION = (
    "Instruction:\n"
    "You assist with a molecular property task. Given a molecule, predict its "
    "binary property label: 1 or 0."
)

PREDICTOR_INSTRUCTION_REGRESSION = (
    "Instruction:\n"
    "You assist with a molecular property task. Given a molecule, predict the "
    "numeric value of its property."
)

FEW_SHOT_EXAMPLES_HEADER = "Labeled examples:"
TRAIN_CONTEXT_HEADER = "Context from training data:"
VALID_CONTEXT_HEADER = "Context from validation data:"
QUESTION_HEADER = "Question:"
EXPLANATION_REQUEST = "Explain the reasoning behind your prediction."

FOOTER_HEADER = "Answer strictly in the following format:"
FOOTER_PREDICTION_CLASSIFICATION = "Prediction: <0 or 1>"
FOOTER_PREDICTION_REGRESSION = "Prediction: <number>"
FOOTER_PROBABILITY = "Probability: <number between 0 and 1>"
FOOTER_EXPLANATION = "Explanation: <one short paragraph>"

_EXPLAINING_KINDS = frozenset(
    {PromptKind.IE, PromptKind.IED, PromptKind.CORRECTOR, PromptKind.SELF_CORRECTION}
)


def answer_footer(task: TaskSpec, kind: PromptKind) -> str:
    """The verbatim answer-format footer for a task/kind combination.

    The Probability line appears only for classification; the Explanation
    line only for the explaining kinds (IE, IED, corrector,
    self-correction).
    """
    lines = [FOOTER_HEADER]
    if task.is_classification:
        lines.append(FOOTER_PREDICTION_CLASSIFICATION)
        lines.append(FOOTER_PROBABILITY)
    else:
        lines.append(FOOTER_PREDICTION_REGRESSION)
    if kind in _EXPLAINING_KINDS:
        lines.append(FOOTER_EXPLANATION)
    return "\n".join(lines)


def _context_line(task: TaskSpec, index: int, entry: Entry) -> str:
    line = f"{index}. SMILES: {entry.smiles} ; Label: {format_value(task, entry.label)}"
    if entry.primary_prediction is not None:
        line += f" ; Model prediction: {format_prediction(entry.primary_prediction)}"
    return line


def _render_corrector(train: List[str], valid: List[str], tail: List[str]) -> str:
    return "\n\n".join([CORRECTOR_INSTRUCTION, "\n".join(train), "\n".join(valid), *tail])


def check_corrector_budget(
    record: MoleculeRecord, primary: float, task: TaskSpec, token_budget: int
) -> List[str]:
    """The question and answer footer of ``record``'s corrector prompt,
    once ``token_budget`` holds that prompt with every context line
    dropped; PromptError otherwise. It needs no retrieved context, so a
    split can check every query before it retrieves for any."""
    question = "\n".join(
        [
            QUESTION_HEADER,
            f"SMILES: {record.smiles}",
            f"Model prediction: {format_prediction(primary)}",
            "Drawing on the provided context, refine the model prediction "
            "for this molecule.",
        ]
    )
    tail = [question, answer_footer(task, PromptKind.CORRECTOR)]
    estimate = estimate_tokens(
        _render_corrector([TRAIN_CONTEXT_HEADER], [VALID_CONTEXT_HEADER], tail)
    )
    if estimate > token_budget:
        raise PromptError(
            f"token budget {token_budget} cannot hold the zero-context "
            f"prompt ({estimate} tokens)"
        )
    return tail


def build_corrector_prompt(
    record: MoleculeRecord,
    primary: float,
    ctx: RetrievedContext,
    task: TaskSpec,
    token_budget: int = DEFAULT_TOKEN_BUDGET,
) -> PromptBundle:
    """Render the corrector prompt, trimming context to the token budget.

    ``check_corrector_budget`` first checks the prompt with no context
    line, then the prompt is rendered once. Each entry of ``ctx.items``
    gives one context line, in the validation section when it carries a
    prediction and in the training section otherwise. Lines are numbered
    within their section in rank order, so dropping the lowest-rank entry
    pops its section's last line and takes that line's UTF-8 bytes and
    newline off the byte count. The instruction, question and footer
    always survive. Descriptions are never included in corrector prompts.
    """
    tail = check_corrector_budget(record, primary, task, token_budget)
    train = [TRAIN_CONTEXT_HEADER]
    valid = [VALID_CONTEXT_HEADER]
    homes: List[List[str]] = []
    for entry in ctx.items:
        lines = train if entry.primary_prediction is None else valid
        lines.append(_context_line(task, len(lines), entry))
        homes.append(lines)
    text = _render_corrector(train, valid, tail)
    size = len(text.encode("utf-8"))
    kept = len(homes)
    # the zero-context prompt fits, so this stops by the time kept is 0
    while (estimate := math.ceil(size / 4)) > token_budget:
        kept -= 1
        size -= len(homes[kept].pop().encode("utf-8")) + 1
    if kept < len(homes):
        text = _render_corrector(train, valid, tail)
    return PromptBundle(
        kind=PromptKind.CORRECTOR,
        text=text,
        token_estimate=estimate,
        context_ids=ctx.ids[:kept],
    )


def build_self_correction_prompt(
    record: MoleculeRecord,
    primary: float,
    proposed: float,
    task: TaskSpec,
    prior_explanation: Optional[str] = None,
) -> PromptBundle:
    """Render the confirm-or-revise follow-up for a proposed correction."""
    question = [
        QUESTION_HEADER,
        f"SMILES: {record.smiles}",
        f"Model prediction: {format_prediction(primary)}",
        f"Your proposed prediction: {format_value(task, proposed)}",
    ]
    if prior_explanation:
        question.append(f"Your explanation: {prior_explanation}")
    question.append("Confirm or revise your proposed prediction for this molecule.")
    text = "\n\n".join(
        [
            SELF_CORRECTION_INSTRUCTION,
            "\n".join(question),
            answer_footer(task, PromptKind.SELF_CORRECTION),
        ]
    )
    return PromptBundle(
        kind=PromptKind.SELF_CORRECTION,
        text=text,
        token_estimate=estimate_tokens(text),
    )


def build_predictor_prompt(
    kind: PromptKind,
    record: MoleculeRecord,
    task: TaskSpec,
    examples: Sequence[MoleculeRecord] = (),
) -> PromptBundle:
    """Render a zero-shot (IP/IPD/IE/IED) or few-shot (FS-k) prompt.

    IPD/IED require a non-empty description on the query. FS-k shows the
    k labeled records of ``examples`` (at least one), each with its own
    label. Descriptions of example molecules are never included.
    """
    if kind in (PromptKind.CORRECTOR, PromptKind.SELF_CORRECTION):
        raise PromptError(f"{kind.value} is not a predictor prompt kind")
    instruction = (
        PREDICTOR_INSTRUCTION_CLASSIFICATION
        if task.is_classification
        else PREDICTOR_INSTRUCTION_REGRESSION
    )
    sections = [instruction]
    context_ids: Tuple[str, ...] = ()

    if kind is PromptKind.FEW_SHOT:
        if not examples:
            raise PromptError("few-shot prompts require at least one example")
        example_lines = [FEW_SHOT_EXAMPLES_HEADER]
        for i, mol in enumerate(examples, start=1):
            example_lines.append(
                f"{i}. SMILES: {mol.smiles} ; Label: {format_value(task, mol.label)}"
            )
        sections.append("\n".join(example_lines))
        context_ids = tuple(mol.id for mol in examples)

    question = [QUESTION_HEADER, f"SMILES: {record.smiles}"]
    if kind in (PromptKind.IPD, PromptKind.IED):
        if not record.description:
            raise PromptError(f"{kind.value} prompt requires a description for id {record.id!r}")
        question.append(f"Description: {record.description}")
    question.append("Predict the target property for this molecule.")
    if kind in (PromptKind.IE, PromptKind.IED):
        question.append(EXPLANATION_REQUEST)
    sections.append("\n".join(question))
    sections.append(answer_footer(task, kind))
    text = "\n\n".join(sections)
    return PromptBundle(
        kind=kind,
        text=text,
        token_estimate=estimate_tokens(text),
        context_ids=context_ids,
    )
