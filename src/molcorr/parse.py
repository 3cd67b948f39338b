"""Answer parsing against the strict response grammar.

The strict pass scans lines for case-insensitive ``Prediction:``,
``Probability:`` and ``Explanation:`` prefixes (leading markdown
decoration ``* - #`` is tolerated); exactly one well-formed Prediction
line is required, and classification predictions must be 0 or 1 within
1e-9. When strict parsing fails, a salvage pass takes the first
standalone decimal in the text (for classification, the first standalone
0 or 1) and marks the answer non-strict. Only when both passes fail does
parsing raise. A number that overflows to infinity (``1e999``) counts as
no number in either pass.

The consistency statistic is the fraction of responses that parsed
strictly, errors included in the denominator.
"""

from __future__ import annotations

import math
import re
from dataclasses import dataclass
from typing import Dict, Optional, Sequence, Union

from .ingest import TaskSpec
from .prompt import format_prediction, format_value

CLASS_LABEL_TOLERANCE = 1e-9


class ParseError(ValueError):
    pass


@dataclass(frozen=True)
class ParsedAnswer:
    prediction: float
    probability: Optional[float] = None
    explanation: Optional[str] = None
    strict: bool = True


@dataclass(frozen=True)
class ConsistencyStats:
    total: int
    strict: int

    @property
    def rate(self) -> float:
        return self.strict / self.total if self.total else 0.0

    def to_dict(self) -> Dict[str, float]:
        return {"total": self.total, "strict": self.strict, "rate": self.rate}


_MARKDOWN_PREFIX = re.compile(r"^[\s*#\-]+")
_LINE_NUMBER = re.compile(
    r"^(prediction|probability|explanation)\s*:\s*(.*)$", re.IGNORECASE
)
_LEADING_NUMBER = re.compile(r"^[+-]?(?:\d+\.?\d*|\.\d+)(?:[eE][+-]?\d+)?")
_STANDALONE_NUMBER = re.compile(
    r"(?<![\w.])[+-]?(?:\d+\.\d*|\.\d+|\d+)(?:[eE][+-]?\d+)?(?!\w)"
)


def _as_class_label(value: float) -> Optional[float]:
    if abs(value) <= CLASS_LABEL_TOLERANCE:
        return 0.0
    if abs(value - 1.0) <= CLASS_LABEL_TOLERANCE:
        return 1.0
    return None


def _strict_parse(text: str, task: TaskSpec) -> Optional[ParsedAnswer]:
    predictions = []
    probabilities = []
    explanations = []
    # split on newlines only; exotic control characters stay inside lines
    for raw_line in text.split("\n"):
        line = _MARKDOWN_PREFIX.sub("", raw_line.rstrip("\r")).strip()
        match = _LINE_NUMBER.match(line)
        if not match:
            continue
        field, rest = match.group(1).lower(), match.group(2).strip()
        if field == "explanation":
            explanations.append(rest)
            continue
        number = _LEADING_NUMBER.match(rest)
        if not number:
            return None
        value = float(number.group(0))
        if not math.isfinite(value):  # an overflowing number such as 1e999
            return None
        if field == "prediction":
            predictions.append(value)
        else:
            probabilities.append(value)
    if len(predictions) != 1 or len(probabilities) > 1 or len(explanations) > 1:
        return None
    prediction = predictions[0]
    if task.is_classification:
        label = _as_class_label(prediction)
        if label is None:
            return None
        prediction = label
    probability = probabilities[0] if probabilities else None
    if probability is not None and not 0.0 <= probability <= 1.0:
        return None
    explanation = explanations[0] if explanations and explanations[0] else None
    return ParsedAnswer(
        prediction=prediction,
        probability=probability,
        explanation=explanation,
        strict=True,
    )


def _salvage_parse(text: str, task: TaskSpec) -> ParsedAnswer:
    found_any = False
    for match in _STANDALONE_NUMBER.finditer(text):
        value = float(match.group(0))
        if not math.isfinite(value):
            continue
        found_any = True
        if task.is_classification:
            label = _as_class_label(value)
            if label is None:
                continue
            value = label
        return ParsedAnswer(prediction=value, strict=False)
    if found_any:
        raise ParseError("no standalone 0 or 1 found in a classification response")
    raise ParseError("no prediction found in response")


def parse_response(text: str, task: TaskSpec) -> ParsedAnswer:
    """Parse an LLM response; strict grammar first, salvage second.

    Raises ParseError when neither pass yields a usable prediction. Never
    fails in any other way, whatever the input text.
    """
    strict = _strict_parse(text, task)
    if strict is not None:
        return strict
    return _salvage_parse(text, task)


def consistency_rate(
    answers: Sequence[Union[ParsedAnswer, ParseError, None]]
) -> ConsistencyStats:
    """Fraction of answers that parsed strictly; errors and Nones count in total."""
    strict = sum(
        1 for a in answers if isinstance(a, ParsedAnswer) and a.strict
    )
    return ConsistencyStats(total=len(answers), strict=strict)


def render_answer(
    task: TaskSpec,
    prediction: float,
    probability: Optional[float] = None,
    explanation: Optional[str] = None,
) -> str:
    """Render an answer in the footer grammar (the parser's inverse)."""
    lines = [f"Prediction: {format_value(task, prediction)}"]
    if task.is_classification and probability is not None:
        lines.append(f"Probability: {format_prediction(probability)}")
    if explanation:
        lines.append(f"Explanation: {explanation}")
    return "\n".join(lines)
