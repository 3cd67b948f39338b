import math
import re

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from molcorr.embed import LocalHashConfig, embed_text
from molcorr.ingest import CLASSIFICATION, REGRESSION, MoleculeRecord, Split
from molcorr.knowledge import Entry, RetrievedContext
from molcorr.prompt import (
    CORRECTOR_INSTRUCTION,
    QUESTION_HEADER,
    TRAIN_CONTEXT_HEADER,
    VALID_CONTEXT_HEADER,
    PromptError,
    PromptKind,
    _context_line,
    answer_footer,
    build_corrector_prompt,
    build_predictor_prompt,
    build_self_correction_prompt,
    estimate_tokens,
    format_prediction,
)

EMB = LocalHashConfig(dim=16)

QUERY = MoleculeRecord("q1", "CC(=O)O", None, Split.TEST, None)
QUERY_DESCRIBED = MoleculeRecord(
    "q2", "CC(=O)O", "an acetic acid backbone", Split.TEST, None
)


def context_entry(mol_id, smiles, label, prediction=None):
    return Entry(mol_id, smiles, label, prediction, embed_text(EMB, smiles))


def make_ctx(n_train=1, n_valid=1):
    items = []
    for i in range(n_train):
        items.append(context_entry(f"t{i}", f"C{'C' * i}O", 1.5 + i))
    for i in range(n_valid):
        items.append(context_entry(f"v{i}", f"N{'C' * i}O", 0.5 + i, prediction=0.8 + i))
    return RetrievedContext(items=tuple(items))


SECTION_ORDER = re.compile(
    r"Instruction:\n.*?"
    r"^Context from training data:$.*?"
    r"^Context from validation data:$.*?"
    r"^Question:$.*?"
    r"^Answer strictly in the following format:$",
    re.DOTALL | re.MULTILINE,
)


class TestCorrector:
    def test_layout_and_numbers(self):
        ctx = make_ctx(1, 1)
        bundle = build_corrector_prompt(QUERY, 1.2345, ctx, REGRESSION)
        text = bundle.text
        assert SECTION_ORDER.search(text)
        assert "1. SMILES: CO ; Label: 1.5000" in text
        assert "1. SMILES: NO ; Label: 0.5000 ; Model prediction: 0.8000" in text
        assert "Model prediction: 1.2345" in text
        assert "Prediction: <number>" in text
        assert "Probability" not in text
        assert bundle.context_ids == ("t0", "v0")
        assert bundle.kind is PromptKind.CORRECTOR

    def test_classification_footer(self):
        query = MoleculeRecord("q", "CCO", None, Split.TEST, None)
        ctx = make_ctx(1, 1)
        bundle = build_corrector_prompt(query, 0.9, ctx, CLASSIFICATION)
        assert bundle.text.endswith(
            "Answer strictly in the following format:\n"
            "Prediction: <0 or 1>\n"
            "Probability: <number between 0 and 1>\n"
            "Explanation: <one short paragraph>"
        )

    def test_empty_context_keeps_headers(self):
        bundle = build_corrector_prompt(QUERY, 1.0, RetrievedContext(items=()), REGRESSION)
        assert "Context from training data:" in bundle.text
        assert "Context from validation data:" in bundle.text
        assert not re.search(r"^\d+\. SMILES:", bundle.text, re.MULTILINE)

    def test_descriptions_never_included(self):
        ctx = RetrievedContext(items=(context_entry("t0", "CCO", 1.0),))
        bundle = build_corrector_prompt(QUERY_DESCRIBED, 1.0, ctx, REGRESSION)
        assert QUERY_DESCRIBED.description not in bundle.text
        assert "Description:" not in bundle.text

    def test_deterministic_bytes(self):
        ctx = make_ctx(3, 2)
        a = build_corrector_prompt(QUERY, 1.5, ctx, REGRESSION)
        b = build_corrector_prompt(QUERY, 1.5, ctx, REGRESSION)
        assert a.text == b.text
        assert a.token_estimate == b.token_estimate

    def test_token_estimate_rule(self):
        ctx = make_ctx(2, 2)
        bundle = build_corrector_prompt(QUERY, 1.5, ctx, REGRESSION)
        assert bundle.token_estimate == math.ceil(len(bundle.text.encode()) / 4)

    def test_truncation_drops_lowest_rank_first(self):
        ctx = make_ctx(25, 25)
        full = build_corrector_prompt(QUERY, 1.5, ctx, REGRESSION, token_budget=100000)
        assert len(full.context_ids) == 50
        trimmed = build_corrector_prompt(QUERY, 1.5, ctx, REGRESSION, token_budget=200)
        kept = len(trimmed.context_ids)
        assert kept < 50
        # survivors are exactly the best-ranked prefix, order unchanged
        assert trimmed.context_ids == full.context_ids[:kept]
        assert trimmed.token_estimate <= 200
        # oracle: re-render with one more entry and re-estimate; it must
        # overflow the budget, i.e. the drop count is minimal
        overfull = build_corrector_prompt(
            QUERY, 1.5,
            RetrievedContext(items=ctx.items[: kept + 1]),
            REGRESSION, token_budget=100000,
        )
        assert estimate_tokens(overfull.text) > 200

    def test_budget_too_small(self):
        with pytest.raises(PromptError, match="cannot hold the zero-context prompt"):
            build_corrector_prompt(
                QUERY, 1.5, RetrievedContext(items=()), REGRESSION, token_budget=10
            )


class TestSelfCorrection:
    def test_classification_values_present(self):
        bundle = build_self_correction_prompt(QUERY, 1.0, 0.0, CLASSIFICATION)
        assert "Model prediction: 1.0000" in bundle.text
        assert "Your proposed prediction: 0" in bundle.text
        assert "Confirm or revise" in bundle.text

    def test_regression_four_decimals(self):
        bundle = build_self_correction_prompt(QUERY, 2.0, 2.6, REGRESSION)
        assert "Model prediction: 2.0000" in bundle.text
        assert "Your proposed prediction: 2.6000" in bundle.text

    def test_explanation_slot_optional(self):
        without = build_self_correction_prompt(QUERY, 2.0, 2.6, REGRESSION)
        assert "Your explanation:" not in without.text
        with_expl = build_self_correction_prompt(
            QUERY, 2.0, 2.6, REGRESSION, prior_explanation="chain length suggests more"
        )
        assert "Your explanation: chain length suggests more" in with_expl.text


class TestPredictor:
    def test_ip_plain(self):
        bundle = build_predictor_prompt(PromptKind.IP, QUERY_DESCRIBED, CLASSIFICATION)
        assert "Description:" not in bundle.text
        assert "Explain" not in bundle.text
        assert "Prediction: <0 or 1>" in bundle.text
        assert "Probability: <number between 0 and 1>" in bundle.text
        assert "Explanation:" not in bundle.text
        assert bundle.context_ids == ()

    def test_ied_includes_description_and_explanation(self):
        bundle = build_predictor_prompt(PromptKind.IED, QUERY_DESCRIBED, CLASSIFICATION)
        assert "Description: an acetic acid backbone" in bundle.text
        assert "Explain the reasoning behind your prediction." in bundle.text
        assert "Explanation: <one short paragraph>" in bundle.text

    def test_ie_requests_explanation_without_description(self):
        bundle = build_predictor_prompt(PromptKind.IE, QUERY_DESCRIBED, REGRESSION)
        assert "Description:" not in bundle.text
        assert "Explain the reasoning behind your prediction." in bundle.text

    def test_ipd_missing_description(self):
        with pytest.raises(PromptError, match="ipd prompt requires a description"):
            build_predictor_prompt(PromptKind.IPD, QUERY, CLASSIFICATION)

    def test_few_shot_exact_line_count(self):
        examples = [
            MoleculeRecord(f"f{i}", f"C{'C' * i}N", None, Split.TRAIN, float(i % 2))
            for i in range(3)
        ]
        bundle = build_predictor_prompt(
            PromptKind.FEW_SHOT, QUERY, CLASSIFICATION, examples=examples
        )
        lines = re.findall(r"^\d+\. SMILES: .* ; Label: [01]$", bundle.text, re.MULTILINE)
        assert len(lines) == 3
        assert bundle.context_ids == ("f0", "f1", "f2")
        # few-shot answers never ask for explanations
        assert "Explanation:" not in bundle.text

    def test_few_shot_without_examples(self):
        with pytest.raises(PromptError, match="at least one example"):
            build_predictor_prompt(PromptKind.FEW_SHOT, QUERY, CLASSIFICATION, examples=[])

    def test_regression_footer_has_no_probability(self):
        bundle = build_predictor_prompt(PromptKind.IP, QUERY, REGRESSION)
        assert "Prediction: <number>" in bundle.text
        assert "Probability" not in bundle.text

    def test_corrector_kind_rejected(self):
        with pytest.raises(PromptError):
            build_predictor_prompt(PromptKind.CORRECTOR, QUERY, REGRESSION)


# Reference trimming: re-render the whole prompt after every dropped
# entry. build_corrector_prompt renders once and counts bytes instead, and
# must give the same text, estimate, ids and too-small-budget message.
def reference_render(task, record, primary, items):
    train_lines = []
    valid_lines = []
    for entry in items:
        if entry.primary_prediction is None:
            train_lines.append(_context_line(task, len(train_lines) + 1, entry))
        else:
            valid_lines.append(_context_line(task, len(valid_lines) + 1, entry))
    sections = [
        CORRECTOR_INSTRUCTION,
        "\n".join([TRAIN_CONTEXT_HEADER] + train_lines),
        "\n".join([VALID_CONTEXT_HEADER] + valid_lines),
        "\n".join(
            [
                QUESTION_HEADER,
                f"SMILES: {record.smiles}",
                f"Model prediction: {format_prediction(primary)}",
                "Drawing on the provided context, refine the model prediction "
                "for this molecule.",
            ]
        ),
        answer_footer(task, PromptKind.CORRECTOR),
    ]
    return "\n\n".join(sections)


def reference_corrector_prompt(record, primary, ctx, task, token_budget):
    items = list(ctx.items)
    while True:
        text = reference_render(task, record, primary, items)
        estimate = estimate_tokens(text)
        if estimate <= token_budget:
            break
        if not items:
            raise PromptError(
                f"token budget {token_budget} cannot hold the zero-context "
                f"prompt ({estimate} tokens)"
            )
        items.pop()
    return text, estimate, tuple(entry.id for entry in items)


# one-, two-, three- and four-byte UTF-8 characters, so byte counts and
# character counts disagree
SMILES_TEXT = st.one_of(
    st.text(alphabet="CNOSc1234()=#[]@+-", min_size=1, max_size=40),
    st.text(alphabet="CNOc1()=éΩ中😀𝐂", min_size=1, max_size=40),
    st.text(min_size=0, max_size=20),
)
FINITE = st.floats(-1e6, 1e6, allow_nan=False)


@st.composite
def corrector_cases(draw):
    task = draw(st.sampled_from([REGRESSION, CLASSIFICATION]))
    k = draw(st.integers(0, 60))
    items = []
    for i in range(k):
        label = float(draw(st.integers(0, 1))) if task is CLASSIFICATION else draw(FINITE)
        prediction = draw(st.one_of(st.none(), FINITE))
        items.append(Entry(f"m{i}", draw(SMILES_TEXT), label, prediction, np.zeros(1)))
    record = MoleculeRecord("q", draw(SMILES_TEXT), None, Split.TEST, None)
    return task, record, draw(FINITE), RetrievedContext(items=tuple(items))


# the second range is where a 0-60 entry prompt starts to need trimming
BUDGETS = st.one_of(st.integers(1, 3000), st.integers(180, 800))


@settings(max_examples=250, deadline=None)
@given(corrector_cases(), BUDGETS)
def test_corrector_matches_drop_one_reference(case, token_budget):
    task, record, primary, ctx = case
    try:
        want = reference_corrector_prompt(record, primary, ctx, task, token_budget)
    except PromptError as exc:
        with pytest.raises(PromptError, match="cannot hold the zero-context prompt") as got:
            build_corrector_prompt(record, primary, ctx, task, token_budget=token_budget)
        assert str(got.value) == str(exc)
        return
    bundle = build_corrector_prompt(record, primary, ctx, task, token_budget=token_budget)
    assert (bundle.text, bundle.token_estimate, bundle.context_ids) == want
