import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from molcorr.ingest import CLASSIFICATION, REGRESSION
from molcorr.parse import (
    ConsistencyStats,
    ParseError,
    ParsedAnswer,
    consistency_rate,
    parse_response,
    render_answer,
)


class TestStrict:
    def test_full_classification_answer(self):
        answer = parse_response(
            "Prediction: 1\nProbability: 0.87\nExplanation: ring system suggests activity",
            CLASSIFICATION,
        )
        assert answer == ParsedAnswer(1.0, 0.87, "ring system suggests activity", True)

    def test_regression_answer(self):
        answer = parse_response("Prediction: 2.5000", REGRESSION)
        assert answer.prediction == 2.5
        assert answer.strict
        assert answer.probability is None

    def test_case_insensitive_prefixes(self):
        answer = parse_response("PREDICTION: 0\nprobability: 0.25", CLASSIFICATION)
        assert answer == ParsedAnswer(0.0, 0.25, None, True)

    def test_markdown_decoration_stripped(self):
        answer = parse_response("- Prediction: 1\n* Probability: 0.9", CLASSIFICATION)
        assert answer == ParsedAnswer(1.0, 0.9, None, True)

    def test_negative_prediction(self):
        answer = parse_response("Prediction: -3.25", REGRESSION)
        assert answer.prediction == -3.25

    def test_label_tolerance(self):
        assert parse_response("Prediction: 1.0000000001", CLASSIFICATION).prediction == 1.0
        assert parse_response("Prediction: 0.0000000001", CLASSIFICATION).prediction == 0.0


class TestSalvage:
    def test_prose_with_number(self):
        answer = parse_response("I think the answer is 0.42.", REGRESSION)
        assert answer == ParsedAnswer(0.42, None, None, False)

    def test_classification_picks_first_zero_or_one(self):
        answer = parse_response("Scores were 0.87 then 1 then 0", CLASSIFICATION)
        assert answer.prediction == 1.0
        assert not answer.strict

    def test_two_prediction_lines_fall_to_salvage(self):
        answer = parse_response("Prediction: 1.5\nPrediction: 2.5", REGRESSION)
        assert answer.prediction == 1.5
        assert not answer.strict

    def test_out_of_range_probability_not_strict(self):
        answer = parse_response("Prediction: 2.0\nProbability: 1.5", REGRESSION)
        assert not answer.strict
        assert answer.prediction == 2.0

    def test_prediction_line_without_number_falls_to_salvage(self):
        answer = parse_response("Prediction: about 3.5, I think", REGRESSION)
        assert answer == ParsedAnswer(prediction=3.5, strict=False)

    def test_number_embedded_in_word_not_standalone(self):
        answer = parse_response("see table7 , value 3.5 is it", REGRESSION)
        assert answer.prediction == 3.5


class TestErrors:
    def test_no_prediction(self):
        with pytest.raises(ParseError, match="no prediction found"):
            parse_response("No idea.", REGRESSION)

    def test_classification_without_binary_value(self):
        with pytest.raises(ParseError, match="no standalone 0 or 1"):
            parse_response("Prediction: 0.7", CLASSIFICATION)

    def test_empty_text(self):
        with pytest.raises(ParseError):
            parse_response("", REGRESSION)

    def test_overflowing_number_is_no_number(self):
        # 1e999 reads as inf: strict parsing rejects it and salvage skips it
        with pytest.raises(ParseError, match="no prediction found"):
            parse_response("Prediction: 1e999", REGRESSION)
        answer = parse_response("Prediction: 1e999\nor rather 2.5", REGRESSION)
        assert answer == ParsedAnswer(prediction=2.5, strict=False)


class TestConsistency:
    def test_seven_of_ten(self):
        answers = (
            [ParsedAnswer(1.0, strict=True)] * 7
            + [ParsedAnswer(1.0, strict=False)] * 2
            + [ParseError("garbage")]
        )
        stats = consistency_rate(answers)
        assert stats == ConsistencyStats(total=10, strict=7)
        assert stats.rate == 0.7

    def test_empty(self):
        assert consistency_rate([]).rate == 0.0

    def test_all_strict(self):
        stats = consistency_rate([ParsedAnswer(0.5, strict=True)] * 4)
        assert stats.rate == 1.0


@given(st.text(max_size=400))
@settings(max_examples=300, deadline=None)
def test_parse_total_on_arbitrary_text(text):
    for task in (CLASSIFICATION, REGRESSION):
        try:
            answer = parse_response(text, task)
        except ParseError:
            continue
        assert isinstance(answer.prediction, float)
        if task.is_classification:
            assert answer.prediction in (0.0, 1.0)
        if answer.probability is not None:
            assert 0.0 <= answer.probability <= 1.0


four_decimals = st.integers(-(10**7), 10**7).map(lambda n: n / 10000.0)


@given(
    prediction=four_decimals,
    explanation=st.one_of(st.none(), st.text(
        alphabet=st.characters(blacklist_characters="\n\r", blacklist_categories=("Cs",)),
        min_size=1, max_size=60,
    ).map(str.strip).filter(bool)),
)
@settings(max_examples=200, deadline=None)
def test_regression_render_parse_round_trip(prediction, explanation):
    text = render_answer(REGRESSION, prediction, explanation=explanation)
    answer = parse_response(text, REGRESSION)
    assert answer.strict
    assert answer.prediction == prediction
    assert answer.explanation == explanation
    assert answer.probability is None


@given(
    label=st.sampled_from([0.0, 1.0]),
    probability=st.one_of(st.none(), st.integers(0, 10000).map(lambda n: n / 10000.0)),
)
@settings(max_examples=200, deadline=None)
def test_classification_render_parse_round_trip(label, probability):
    text = render_answer(CLASSIFICATION, label, probability=probability)
    answer = parse_response(text, CLASSIFICATION)
    assert answer.strict
    assert answer.prediction == label
    assert answer.probability == probability


@given(prediction=four_decimals, probability=st.integers(0, 10000).map(lambda n: n / 10000.0))
@settings(max_examples=200, deadline=None)
def test_strict_and_salvage_agree_on_rendered_answers(prediction, probability):
    for task, value in ((REGRESSION, prediction), (CLASSIFICATION, float(probability >= 0.5))):
        text = render_answer(
            task, value,
            probability=probability if task.is_classification else None,
            explanation="short note",
        )
        strict = parse_response(text, task)
        assert strict.strict
        # force the salvage path on the same text
        from molcorr.parse import _salvage_parse

        salvaged = _salvage_parse(text, task)
        assert salvaged.prediction == strict.prediction
