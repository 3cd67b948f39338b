"""Metrics, baseline-vs-corrected comparison and ablation sweeps.

ROC-AUC uses the exact rank statistic (concordant pairs count 1, ties
count 1/2, over all positive-negative pairs) rather than curve
integration: same value, cleaner tie semantics, and directly checkable
against a brute-force pairwise oracle. Improvement percentages are the
raw signed relative change ``100 * (new - old) / old`` rounded
half-away-from-zero to one decimal, matching how published comparison
tables print them: a positive value means the corrected metric is higher,
whatever the metric's preferred direction.

A report is the plain dict that is written as ``report_<split>.json``
or ``ablation_<axis>_<i>.json``: the two metrics come from the split's
labels, and its ``config``, ``consistency`` and ``score_sources`` from
the run summary the caller already holds.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, replace
from typing import Dict, List, Sequence, Tuple

import numpy as np

from .correct import Answers, CorrectionOutcome, RunConfig, correct_split, run_summary
from .embed import LocalHashConfig, embedder_fingerprint
from .ingest import DatasetBundle, Metric, Split, TaskSpec
from .knowledge import Jump, Random, TopK, build_database, strategy_name
from .llmclient import LlmBackendConfig


class EvalError(ValueError):
    pass


@dataclass(frozen=True)
class MetricValue:
    metric: Metric
    value: float
    n: int


def roc_auc(scores: Sequence[float], labels: Sequence[float]) -> MetricValue:
    """Probability that a random positive scores above a random negative,
    ties counting one half."""
    scores = np.asarray(scores, dtype=np.float64)
    labels = np.asarray(labels, dtype=np.float64)
    if scores.shape != labels.shape:
        raise EvalError("scores and labels must have equal length")
    if not np.isin(labels, (0.0, 1.0)).all():
        raise EvalError("labels must be 0 or 1")
    pos = np.sort(scores[labels == 1.0])
    neg = np.sort(scores[labels == 0.0])
    if len(pos) == 0 or len(neg) == 0:
        raise EvalError("need at least one positive and one negative label")
    below = np.searchsorted(neg, pos, side="left")
    ties = np.searchsorted(neg, pos, side="right") - below
    numerator = float(below.sum()) + 0.5 * float(ties.sum())
    value = numerator / (len(pos) * len(neg))
    return MetricValue(metric=Metric.ROC_AUC, value=value, n=len(scores))


def rmse(preds: Sequence[float], truths: Sequence[float]) -> MetricValue:
    """Root mean squared error."""
    preds = np.asarray(preds, dtype=np.float64)
    truths = np.asarray(truths, dtype=np.float64)
    if preds.shape != truths.shape:
        raise EvalError("predictions and truths must have equal length")
    if len(preds) == 0:
        raise EvalError("cannot compute RMSE of an empty sequence")
    value = math.sqrt(float(np.mean((preds - truths) ** 2)))
    return MetricValue(metric=Metric.RMSE, value=value, n=len(preds))


def score(task: TaskSpec, preds: Sequence[float], truths: Sequence[float]) -> MetricValue:
    if task.is_classification:
        return roc_auc(preds, truths)
    return rmse(preds, truths)


def improvement_pct(old: float, new: float) -> float:
    """Signed relative change in percent, half-away-from-zero at 1 decimal."""
    if old == 0.0:
        raise EvalError("improvement is undefined for a zero baseline")
    raw = 100.0 * (new - old) / old
    return math.copysign(math.floor(abs(raw) * 10.0 + 0.5), raw) / 10.0 + 0.0


def evaluate_run(
    bundle: DatasetBundle, split: Split, outcomes: Sequence[CorrectionOutcome], summary: Dict
) -> Dict:
    """The report of one corrected split (labels required), as it is written:
    both metrics and their improvement, and the run summary's ``config``,
    ``consistency`` and, for classification, ``final_from_*`` counts."""
    truths = []
    for rec in bundle.split_records(split):
        if rec.label is None:
            raise EvalError(f"record {rec.id!r} has no label; cannot evaluate")
        truths.append(rec.label)
    baseline = score(bundle.task, [o.primary for o in outcomes], truths)
    corrected = score(bundle.task, [o.final for o in outcomes], truths)
    report = {
        "task": bundle.task.kind.value,
        "metric": bundle.task.metric.value,
        "splits": {split.value: {
            "baseline": baseline.value,
            "corrected": corrected.value,
            "improvement_pct": improvement_pct(baseline.value, corrected.value),
            "n": baseline.n,
        }},
        "config": summary["config"],
        "consistency": summary["consistency"],
    }
    if bundle.task.is_classification:  # probability- vs label-scored counts
        report["score_sources"] = {
            "probability": summary["final_from_probability"],
            "label": summary["final_from_label"],
        }
    return report


def report_table(report: Dict) -> str:
    """Aligned table: each split's corrected value with its improvement beneath."""
    lines = [f"metric: {report['metric']}", f"{'split':<8}{'baseline':>12}{'corrected':>12}"]
    for name, row in report["splits"].items():
        lines.append(f"{name:<8}{row['baseline']:>12.4f}{row['corrected']:>12.4f}")
        lines.append(f"{'':<20}{row['improvement_pct']:>+11.1f}%")
    return "\n".join(lines)


ABLATION_AXES = ("k", "strategy", "self-correction", "embedder")

# (report echo, run config, embedder) for one ablation point
AblationPoint = Tuple[Dict, RunConfig, LocalHashConfig]


def ablation_points(
    axis_name: str, cfg: RunConfig, embedder: LocalHashConfig, values: Sequence = ()
) -> List[AblationPoint]:
    """The points of one ablation axis in run order, everything but that
    axis held fixed.

    ``values`` are the k values of the ``k`` axis and the embedder configs
    of the ``embedder`` axis, run in the order given. The ``strategy`` axis
    runs top-k, jump, random and the ``self-correction`` axis on, then off.
    Every point keeps ``cfg.seed``, which also seeds the random strategy.
    """
    if axis_name == "k":
        return [({"axis": "k", "value": k}, replace(cfg, k=k), embedder) for k in values]
    if axis_name == "strategy":
        return [
            ({"axis": "strategy", "value": strategy_name(strat)}, replace(cfg, strategy=strat),
             embedder)
            for strat in (TopK(), Jump(), Random(seed=cfg.seed))
        ]
    if axis_name == "self-correction":
        return [
            ({"axis": "self_correction", "value": flag}, replace(cfg, self_correction=flag),
             embedder)
            for flag in (True, False)
        ]
    if axis_name == "embedder":
        return [({"axis": "embedder", "value": emb.fingerprint}, cfg, emb) for emb in values]
    raise EvalError(f"unknown ablation axis {axis_name!r}; expected one of {ABLATION_AXES}")


def run_ablation(
    points: Sequence[AblationPoint],
    bundle: DatasetBundle,
    val_predictions: Dict[str, float],
    split: Split,
    split_predictions: Dict[str, float],
    llm: LlmBackendConfig,
) -> List[Dict]:
    """One report per point, in point order, each with its echo merged
    into the report's config.

    A point runs on the database of the point before it when their embedder
    fingerprints match, and otherwise on one built for it from ``bundle`` and
    ``val_predictions``, so one database is held at a time.

    The points share one dict of parsed answers: a prompt about a query
    whose answer parsed at an earlier point is not sent again, while a
    prompt that failed or did not parse is. With a deterministic backend
    each point's report equals the report of that point run alone; at a
    remote ``temperature`` above 0 the points share each sample wherever
    their prompts are the same, so the comparison is paired.
    """
    reports = []
    answers: Answers = {}
    db = None
    for point_echo, point_cfg, point_embedder in points:
        fingerprint = embedder_fingerprint(point_embedder, point_cfg.include_description)
        if db is None or db.fingerprint != fingerprint:
            db = None  # free the held database before the next one is built
            db = build_database(
                bundle, val_predictions, point_embedder, point_cfg.include_description
            )
        outcomes = correct_split(
            split, bundle, split_predictions, db, point_cfg, point_embedder, llm,
            answers=answers,
        )
        summary = run_summary(outcomes, point_cfg, point_embedder, llm)
        summary["config"].update(point_echo)
        reports.append(evaluate_run(bundle, split, outcomes, summary))
    return reports
