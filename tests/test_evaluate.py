import json
import math
import random
import threading
from collections import Counter
from dataclasses import replace

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from molcorr import correct, evaluate
from molcorr.correct import RunConfig, correct_split, run_summary
from molcorr.embed import LocalHashConfig
from molcorr.evaluate import (
    EvalError,
    Metric,
    ablation_points,
    evaluate_run,
    improvement_pct,
    report_table,
    rmse,
    roc_auc,
    run_ablation,
)
from molcorr.ingest import CLASSIFICATION, REGRESSION, Split
from molcorr.knowledge import build_database
from molcorr.llmclient import LlmError, MockEcho, MockNoisyOracle, MockPerfectOracle, complete
from molcorr.parse import render_answer
from molcorr.prompt import PromptKind
from conftest import make_bundle, make_predictions

EMB = LocalHashConfig(dim=32)


def pairwise_auc_oracle(scores, labels):
    """Direct pairwise count: 1 per concordant pair, 0.5 per tie."""
    pos = [s for s, y in zip(scores, labels) if y == 1]
    neg = [s for s, y in zip(scores, labels) if y == 0]
    total = 0.0
    for p in pos:
        for n in neg:
            if p > n:
                total += 1.0
            elif p == n:
                total += 0.5
    return total / (len(pos) * len(neg))


class TestRocAuc:
    def test_hand_counted_example(self):
        # pairs: (0.35 vs 0.1) win, (0.35 vs 0.4) loss,
        #        (0.8 vs 0.1) win, (0.8 vs 0.4) win -> 3/4
        got = roc_auc([0.1, 0.4, 0.35, 0.8], [0, 0, 1, 1])
        assert got.value == 0.75
        assert got.metric is Metric.ROC_AUC
        assert got.n == 4

    def test_all_tied(self):
        assert roc_auc([0.5, 0.5], [0, 1]).value == 0.5

    def test_perfect_separation(self):
        assert roc_auc([0.1, 0.2, 0.8, 0.9], [0, 0, 1, 1]).value == 1.0

    def test_degenerate_labels(self):
        with pytest.raises(EvalError, match="at least one positive and one negative"):
            roc_auc([0.1, 0.9], [1, 1])

    def test_bad_labels(self):
        with pytest.raises(EvalError):
            roc_auc([0.1, 0.9], [0, 2])

    @given(st.integers(0, 10_000))
    @settings(max_examples=300, deadline=None)
    def test_matches_pairwise_oracle(self, seed):
        rng = random.Random(seed)
        n = rng.randint(2, 20)
        labels = [rng.randint(0, 1) for _ in range(n)]
        if len(set(labels)) < 2:
            labels[0], labels[1] = 0, 1
        scores = [round(rng.uniform(0, 1), 2) for _ in range(n)]
        assert roc_auc(scores, labels).value == pairwise_auc_oracle(scores, labels)

    @given(st.integers(0, 10_000))
    @settings(max_examples=100, deadline=None)
    def test_monotone_transform_invariance(self, seed):
        rng = random.Random(seed)
        n = rng.randint(2, 50)
        labels = [rng.randint(0, 1) for _ in range(n)]
        if len(set(labels)) < 2:
            labels[0], labels[1] = 0, 1
        scores = [rng.uniform(-5, 5) for _ in range(n)]
        a, b = rng.uniform(0.1, 3.0), rng.uniform(-2, 2)
        transformed = [math.exp(a * s) + b for s in scores]
        assert roc_auc(scores, labels).value == roc_auc(transformed, labels).value


class TestRmse:
    def test_identity(self):
        assert rmse([1.5, -2.0, 0.25], [1.5, -2.0, 0.25]).value == 0.0

    def test_known_value(self):
        got = rmse([0.0, 0.0], [3.0, 4.0])
        assert got.value == pytest.approx(3.5355339059, abs=1e-9)

    def test_single_pair(self):
        assert rmse([1.0], [3.0]).value == 2.0

    def test_empty(self):
        with pytest.raises(EvalError):
            rmse([], [])

    @given(
        st.lists(st.floats(-100, 100), min_size=1, max_size=30),
        st.lists(st.floats(-100, 100), min_size=1, max_size=30),
        st.floats(-50, 50),
    )
    @settings(max_examples=200, deadline=None)
    def test_symmetry_and_shift(self, xs, ys, c):
        size = min(len(xs), len(ys))
        p = np.array(xs[:size])
        t = np.array(ys[:size])
        assert rmse(p, t).value == rmse(t, p).value
        assert rmse(p + c, t + c).value == pytest.approx(rmse(p, t).value, abs=1e-12)


class TestImprovement:
    def test_table_anchors(self):
        assert improvement_pct(0.7147, 0.7718) == 8.0
        assert improvement_pct(2.2549, 1.3747) == -39.0
        assert improvement_pct(0.6163, 0.6915) == 12.2

    def test_no_change_is_positive_zero(self):
        got = improvement_pct(0.5, 0.5)
        assert got == 0.0
        assert math.copysign(1.0, got) == 1.0

    def test_half_rounds_away_from_zero(self):
        # 100*(401-400)/400 = 0.25 exactly; banker's rounding would
        # give 0.2, half-away-from-zero gives 0.3
        assert improvement_pct(400.0, 401.0) == 0.3
        assert improvement_pct(400.0, 399.0) == -0.3

    def test_zero_baseline(self):
        with pytest.raises(EvalError):
            improvement_pct(0.0, 1.0)


@pytest.mark.parametrize(
    "call, message",
    [
        (lambda: roc_auc([0.1, 0.9], [0, 1, 1]), "scores and labels must have equal length"),
        (lambda: rmse([1.0], [1.0, 2.0]), "predictions and truths must have equal length"),
        (lambda: evaluate_run(
            make_bundle(REGRESSION, n_train=2, n_valid=1, n_test=2, test_labels=False),
            Split.TEST, [], {}),
         "record 'm00003' has no label; cannot evaluate"),
        (lambda: ablation_points("dim", RunConfig(), EMB),
         "unknown ablation axis 'dim'; expected one of "
         "('k', 'strategy', 'self-correction', 'embedder')"),
    ],
    ids=["roc-auc-length-mismatch", "rmse-length-mismatch", "unlabeled-record", "unknown-axis"],
)
def test_unscorable_input_raises(call, message):
    with pytest.raises(EvalError) as info:
        call()
    assert str(info.value) == message


def make_run(task, llm, n_test=20, seed=3, cfg=None):
    bundle = make_bundle(task, n_train=20, n_valid=8, n_test=n_test, seed=seed)
    val_preds = make_predictions(bundle, Split.VALID, seed=seed + 1)
    test_preds = make_predictions(bundle, Split.TEST, seed=seed + 2)
    db = build_database(bundle, val_preds, EMB)
    cfg = cfg or RunConfig(k=5)
    outs = correct_split(Split.TEST, bundle, test_preds, db, cfg, EMB, llm)
    return bundle, val_preds, test_preds, db, cfg, outs


class TestReports:
    def test_echo_report_zero_improvement(self):
        bundle, _, _, _, cfg, outs = make_run(REGRESSION, MockEcho())
        report = evaluate_run(bundle, Split.TEST, outs, run_summary(outs, cfg, EMB, MockEcho()))
        cmp = report["splits"]["test"]
        assert cmp["corrected"] == cmp["baseline"]
        assert cmp["improvement_pct"] == 0.0
        assert report["consistency"]["rate"] == 1.0

    def test_oracle_report_classification(self):
        bundle, _, _, _, cfg, outs = make_run(CLASSIFICATION, MockPerfectOracle())
        report = evaluate_run(
            bundle, Split.TEST, outs, run_summary(outs, cfg, EMB, MockPerfectOracle())
        )
        assert report["splits"]["test"]["corrected"] == 1.0

    def test_oracle_report_regression(self):
        bundle, _, _, _, cfg, outs = make_run(REGRESSION, MockPerfectOracle())
        report = evaluate_run(
            bundle, Split.TEST, outs, run_summary(outs, cfg, EMB, MockPerfectOracle())
        )
        assert report["splits"]["test"]["corrected"] == 0.0

    def test_json_and_table_render(self):
        import json

        bundle, _, _, _, cfg, outs = make_run(REGRESSION, MockEcho())
        report = evaluate_run(bundle, Split.TEST, outs, run_summary(outs, cfg, EMB, MockEcho()))
        blob = json.loads(json.dumps(report))
        assert blob["metric"] == "rmse"
        assert "test" in blob["splits"]
        table = report_table(report)
        assert "baseline" in table and "corrected" in table
        assert "+0.0%" in table

    def test_noisy_rmse_monotone_in_p(self):
        bundle = make_bundle(REGRESSION, n_train=20, n_valid=8, n_test=30, seed=5)
        val_preds = make_predictions(bundle, Split.VALID, seed=6)
        test_preds = make_predictions(bundle, Split.TEST, seed=7)
        db = build_database(bundle, val_preds, EMB)
        cfg = RunConfig(k=5)
        means = []
        for p in (0.0, 0.5, 1.0):
            values = []
            for seed in range(10):
                outs = correct_split(
                    Split.TEST, bundle, test_preds, db, cfg, EMB,
                    MockNoisyOracle(p=p, seed=seed),
                )
                truths = [
                    r.label for r in bundle.split_records(Split.TEST)
                ]
                values.append(rmse([o.final for o in outs], truths).value)
            means.append(sum(values) / len(values))
        assert means[2] < means[1] < means[0]
        assert means[2] == 0.0


class ScriptedCorrector:
    """A ``complete`` that answers through the echo mock, except for the
    corrector prompts about three sets of ids: ``shifted`` ids get a
    prediction far enough off to trigger self-correction, ``unparseable``
    ids get text without a number, and ``failing`` ids raise LlmError the
    first time they are asked. Every request is counted as (id, kind)."""

    def __init__(self, shifted=(), unparseable=(), failing=()):
        self.shifted, self.unparseable, self.failing = set(shifted), set(unparseable), set(failing)
        self.asked = Counter()
        self.served_unparseable = 0
        self.errors = 0
        self._lock = threading.Lock()

    def __call__(self, cfg, prompt, meta, task):
        exchange = complete(cfg, prompt, meta, task)
        with self._lock:
            self.asked[meta.id, prompt.kind] += 1
            if prompt.kind is not PromptKind.CORRECTOR:
                return exchange
            if meta.id in self.failing:
                self.failing.discard(meta.id)
                self.errors += 1
                raise LlmError("connection reset")
            if meta.id in self.unparseable:
                self.served_unparseable += 1
                return replace(exchange, response_text="I am unable to refine this prediction.")
        if meta.id in self.shifted:
            text = render_answer(task, meta.primary + 10.0, None, "Similar molecules score higher.")
            return replace(exchange, response_text=text)
        return exchange


def without_jobs(report):
    return {**report, "config": {**report["config"], "jobs": None}}


class TestAblation:
    def test_k_sweep(self):
        bundle, val_preds, test_preds, db, cfg, _ = make_run(REGRESSION, MockEcho())
        reports = run_ablation(
            ablation_points("k", cfg, EMB, (1, 3, 10)), bundle, val_preds, Split.TEST,
            test_preds, MockEcho(),
        )
        assert len(reports) == 3
        assert [r["config"]["value"] for r in reports] == [1, 3, 10]
        assert all(r["config"]["axis"] == "k" for r in reports)

    def test_strategy_sweep_fixed_order(self):
        bundle, val_preds, test_preds, db, cfg, _ = make_run(REGRESSION, MockEcho())
        reports = run_ablation(
            ablation_points("strategy", cfg, EMB), bundle, val_preds, Split.TEST, test_preds,
            MockEcho(),
        )
        assert [r["config"]["value"] for r in reports] == ["topk", "jump", "random"]

    def test_strategy_sweep_oracle_reaches_bound(self):
        bundle, val_preds, test_preds, db, cfg, _ = make_run(
            CLASSIFICATION, MockPerfectOracle()
        )
        reports = run_ablation(
            ablation_points("strategy", cfg, EMB), bundle, val_preds, Split.TEST, test_preds,
            MockPerfectOracle(),
        )
        assert all(r["splits"]["test"]["corrected"] == 1.0 for r in reports)

    def test_self_correction_toggle(self):
        bundle, val_preds, test_preds, db, cfg, _ = make_run(REGRESSION, MockEcho())
        reports = run_ablation(
            ablation_points("self-correction", cfg, EMB), bundle, val_preds, Split.TEST,
            test_preds, MockEcho(),
        )
        assert [r["config"]["value"] for r in reports] == [True, False]

    def test_embedder_sweep_rebuilds_db(self):
        bundle, val_preds, test_preds, db, cfg, _ = make_run(REGRESSION, MockEcho())
        sweep = ablation_points(
            "embedder", cfg, EMB, (LocalHashConfig(dim=16), LocalHashConfig(dim=64))
        )
        reports = run_ablation(sweep, bundle, val_preds, Split.TEST, test_preds, MockEcho())
        assert [r["config"]["value"] for r in reports] == [
            "localhash:dim=16:ngram=3:counts",
            "localhash:dim=64:ngram=3:counts",
        ]
        assert [r["config"]["embedder"] for r in reports] == [
            "localhash:dim=16:ngram=3:counts:desc=0",
            "localhash:dim=64:ngram=3:counts:desc=0",
        ]

    def test_reports_share_seed(self):
        bundle, val_preds, test_preds, db, _, _ = make_run(REGRESSION, MockEcho())
        cfg = RunConfig(k=5, seed=77)
        reports = run_ablation(
            ablation_points("k", cfg, EMB, (1, 2)), bundle, val_preds, Split.TEST, test_preds,
            MockEcho(),
        )
        assert all(r["config"]["seed"] == 77 for r in reports)

    @pytest.mark.parametrize(
        "axis, values, built_dims",
        [("k", (1, 3), [32]), ("embedder", (16, 16, 64, 16), [16, 64, 16])],
        ids=["k-no-db", "embedder-per-fingerprint-change"],
    )
    def test_database_builds(self, monkeypatch, axis, values, built_dims):
        bundle, val_preds, test_preds, db, cfg, _ = make_run(REGRESSION, MockEcho())
        built = []

        def counting_build(bundle, val_predictions, embedder, include_description=False):
            built.append(embedder.dim)
            return build_database(bundle, val_predictions, embedder, include_description)

        monkeypatch.setattr(evaluate, "build_database", counting_build)
        if axis == "embedder":
            values = tuple(LocalHashConfig(dim=d) for d in values)
        points = ablation_points(axis, cfg, EMB, values)
        reports = run_ablation(points, bundle, val_preds, Split.TEST, test_preds, MockEcho())
        assert built == built_dims
        assert len(reports) == len(values)

    @pytest.mark.parametrize(
        "fault, message",
        [("unlabeled", "record 'm00028' has no label; cannot evaluate"),
         ("one-class", "need at least one positive and one negative label"),
         ("zero-baseline", "improvement is undefined for a zero baseline")],
        ids=["unlabeled", "one-class", "zero-baseline"],
    )
    def test_unscorable_split_raises_before_any_build_or_query(
        self, monkeypatch, fault, message
    ):
        task = CLASSIFICATION if fault == "one-class" else REGRESSION
        bundle = make_bundle(task, n_train=20, n_valid=8, n_test=6, seed=3,
                             test_labels=fault != "unlabeled")
        if fault == "one-class":
            bundle = replace(bundle, records=tuple(
                r._replace(label=1.0) if r.split is Split.TEST else r for r in bundle.records
            ))
        val_preds = make_predictions(bundle, Split.VALID, seed=4)
        test_preds = make_predictions(bundle, Split.TEST, seed=5)
        if fault == "zero-baseline":  # predictions equal to the labels score an RMSE of 0
            test_preds = {rec.id: rec.label for rec in bundle.split_records(Split.TEST)}
        calls, built = [], []
        monkeypatch.setattr(correct, "complete", lambda *args: calls.append(args))
        monkeypatch.setattr(evaluate, "build_database", lambda *args: built.append(args))
        points = ablation_points("k", RunConfig(), EMB, (1, 3))
        with pytest.raises(EvalError) as info:
            run_ablation(points, bundle, val_preds, Split.TEST, test_preds, MockEcho())
        assert str(info.value) == message
        assert calls == []
        assert built == []

    def sweep(self, monkeypatch, points, backend, run):
        bundle, val_preds, test_preds, db = run
        monkeypatch.setattr(correct, "complete", backend)
        return run_ablation(points, bundle, val_preds, Split.TEST, test_preds, MockEcho())

    @pytest.mark.parametrize("jobs", [1, 3])
    def test_off_point_sends_only_what_did_not_parse(self, monkeypatch, jobs):
        bundle, val_preds, test_preds, db, _, _ = make_run(REGRESSION, MockEcho())
        run = (bundle, val_preds, test_preds, db)
        ids = [rec.id for rec in bundle.split_records(Split.TEST)]
        script = dict(shifted=ids[:4], unparseable=ids[4:7])
        points = ablation_points("self-correction", RunConfig(k=5, jobs=jobs), EMB)
        backend = ScriptedCorrector(**script)
        reports = self.sweep(monkeypatch, points, backend, run)

        # on: every corrector prompt and 4 self-corrections; off: the 3 that did not parse
        expected = Counter({(i, PromptKind.CORRECTOR): 1 for i in ids})
        expected.update((i, PromptKind.CORRECTOR) for i in ids[4:7])
        expected.update((i, PromptKind.SELF_CORRECTION) for i in ids[:4])
        assert backend.asked == expected
        assert sum(backend.asked.values()) == 20 + 4 + 3

        alone = [self.sweep(monkeypatch, [point], ScriptedCorrector(**script), run)[0]
                 for point in points]
        assert [json.dumps(r) for r in reports] == [json.dumps(r) for r in alone]
        serial = self.sweep(
            monkeypatch, ablation_points("self-correction", RunConfig(k=5, jobs=1), EMB),
            ScriptedCorrector(**script), run,
        )
        assert [json.dumps(without_jobs(r)) for r in reports] == [
            json.dumps(without_jobs(r)) for r in serial
        ]

    def test_failures_are_asked_again(self, monkeypatch):
        bundle, val_preds, test_preds, db, cfg, _ = make_run(REGRESSION, MockEcho())
        ids = [rec.id for rec in bundle.split_records(Split.TEST)]
        backend = ScriptedCorrector(unparseable=ids[:1], failing=ids[1:2])
        taken = []

        def tapped_split(*args, **kwargs):
            outcomes = correct_split(*args, **kwargs)
            taken.append({o.id for o in outcomes if o.fallback_used})
            return outcomes

        monkeypatch.setattr(evaluate, "correct_split", tapped_split)
        self.sweep(monkeypatch, ablation_points("self-correction", cfg, EMB), backend,
                   (bundle, val_preds, test_preds, db))

        assert backend.asked[ids[0], PromptKind.CORRECTOR] == 2
        assert backend.asked[ids[1], PromptKind.CORRECTOR] == 2
        assert sum(backend.asked.values()) == 20 + 2
        # the error was transient: the second point's ask of that prompt parsed
        assert taken == [{ids[0], ids[1]}, {ids[0]}]
        assert backend.errors == 1 and backend.served_unparseable == 2
        assert sum(map(len, taken)) == backend.served_unparseable + backend.errors
