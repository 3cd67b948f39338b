import json
import threading
import time
import weakref
from dataclasses import replace

import pytest

from molcorr.correct import (
    CorrectionError,
    CorrectionOutcome,
    RunConfig,
    correct_one,
    correct_split,
    outcome_to_dict,
    run_summary,
    should_self_correct,
    write_outcomes,
)
from molcorr.embed import LocalHashConfig, embed_molecule
from molcorr.ingest import CLASSIFICATION, REGRESSION, DatasetBundle, Split
from molcorr.knowledge import Jump, KnowledgeDatabase, KnowledgeError, build_database, retrieve
from molcorr import correct as correct_mod
from molcorr import llmclient, transport
from molcorr.llmclient import (
    AuditLog,
    LlmError,
    MockEcho,
    MockNoisyOracle,
    MockPerfectOracle,
    MockScripted,
    QueryMeta,
    RemoteChatConfig,
    complete,
)
from molcorr.parse import ParsedAnswer, render_answer
from molcorr.prompt import PromptBundle, PromptKind, build_corrector_prompt
from conftest import make_bundle, make_predictions

EMB = LocalHashConfig(dim=32)
CFG = RunConfig(k=5)


def setup_pipeline(task=REGRESSION, n_train=20, n_valid=8, n_test=8, seed=3):
    bundle = make_bundle(task, n_train=n_train, n_valid=n_valid, n_test=n_test, seed=seed)
    val_preds = make_predictions(bundle, Split.VALID, seed=seed + 1)
    test_preds = make_predictions(bundle, Split.TEST, seed=seed + 2)
    db = build_database(bundle, val_preds, EMB)
    return bundle, val_preds, test_preds, db


def correct_query(rec, primary, db, cfg, llm, log=None):
    """``correct_one`` on the corrector prompt ``correct_split`` renders for ``rec``."""
    exclude = rec.id if rec.split is Split.VALID else None
    ctx = retrieve(db, embed_molecule(EMB, rec), cfg.k, cfg.strategy, exclude_id=exclude)
    prompt = build_corrector_prompt(rec, primary, ctx, db.task, cfg.token_budget)
    return correct_one(rec, primary, prompt, db.task, cfg, llm, [] if log is None else log)


class TestTrigger:
    # the full 6-case table: classification flip / no-flip; regression
    # above / below the 20% band; zero primary with and without movement
    CASES = [
        (CLASSIFICATION, 0.8, 0.0, True),
        (CLASSIFICATION, 0.8, 1.0, False),
        (REGRESSION, 1.0, 1.25, True),
        (REGRESSION, 1.0, 1.15, False),
        (REGRESSION, 0.0, 0.001, True),
        (REGRESSION, 0.0, 0.0, False),
    ]

    @pytest.mark.parametrize("task,primary,proposed,want", CASES)
    def test_truth_table(self, task, primary, proposed, want):
        assert should_self_correct(task, primary, proposed, CFG) is want

    def test_boundary_is_exclusive(self):
        # exactly 20% does not trigger
        assert not should_self_correct(REGRESSION, 1.0, 1.2, CFG)

    def test_negative_primary(self):
        assert should_self_correct(REGRESSION, -2.0, -2.5, CFG)
        assert not should_self_correct(REGRESSION, -2.0, -2.2, CFG)

    def test_custom_fraction(self):
        wide = RunConfig(regression_trigger_fraction=0.5)
        assert not should_self_correct(REGRESSION, 1.0, 1.4, wide)
        assert should_self_correct(REGRESSION, 1.0, 1.6, wide)


class TestCorrectOne:
    def test_echo_never_triggers(self):
        bundle, _, test_preds, db = setup_pipeline()
        rec = bundle.split_records(Split.TEST)[0]
        primary = test_preds[rec.id]
        out = correct_query(rec, primary, db, CFG, MockEcho())
        assert out.final == primary
        assert not out.self_correction_invoked
        assert not out.fallback_used
        assert out.initial is not None and out.initial.strict

    def test_oracle_triggers_and_confirms(self):
        bundle, _, _, db = setup_pipeline(task=CLASSIFICATION, seed=9)
        rec = next(
            r for r in bundle.split_records(Split.TEST) if r.label == 0.0
        )
        out = correct_query(rec, 0.9, db, CFG, MockPerfectOracle())
        assert out.self_correction_invoked
        assert out.final == 0.0
        assert out.final_source == "probability"

    def test_scripted_garbage_falls_back(self):
        bundle, _, test_preds, db = setup_pipeline()
        rec = bundle.split_records(Split.TEST)[0]
        primary = test_preds[rec.id]
        llm = MockScripted(responses={rec.id: "garbage"})
        out = correct_query(rec, primary, db, CFG, llm)
        assert out.fallback_used
        assert out.final == primary
        assert out.initial is None

    @pytest.mark.parametrize(
        "payload",
        [
            {},
            [],
            {"choices": []},
            {"choices": [{"message": {}}]},
            {"choices": [{"message": {"content": 5}}]},
        ],
        ids=["empty-object", "list", "no-choices", "no-content", "non-text-content"],
    )
    def test_malformed_chat_reply_falls_back(self, monkeypatch, payload):
        monkeypatch.setattr(transport, "post_json", lambda *args, **kwargs: (payload, 1))
        llm = RemoteChatConfig(endpoint="http://127.0.0.1:9/v1/chat", model="m")
        prompt = PromptBundle(kind=PromptKind.CORRECTOR, text="p", token_estimate=1)
        with pytest.raises(LlmError):
            complete(llm, prompt, QueryMeta(id="a"), REGRESSION)
        bundle, _, test_preds, db = setup_pipeline()
        rec = bundle.split_records(Split.TEST)[0]
        primary = test_preds[rec.id]
        out = correct_query(rec, primary, db, CFG, llm)
        assert out.fallback_used
        assert out.final == primary

    def test_unmapped_scripted_id_falls_back(self):
        bundle, _, test_preds, db = setup_pipeline()
        rec = bundle.split_records(Split.TEST)[0]
        out = correct_query(rec, test_preds[rec.id], db, CFG, MockScripted())
        assert out.fallback_used

    @staticmethod
    def failing_transport(monkeypatch, failing_call, reply):
        """Patch ``transport.post_json`` to answer ``reply`` as chat content,
        except on call number ``failing_call``, which raises TransportError."""
        calls = []

        def post_json(*args, **kwargs):
            calls.append(args)
            if len(calls) == failing_call:
                raise transport.TransportError("request failed after 5 attempts")
            return {"choices": [{"message": {"content": reply}}]}, 1

        monkeypatch.setattr(transport, "post_json", post_json)
        return calls

    def test_corrector_request_failure_falls_back(self, monkeypatch, caplog):
        bundle, _, test_preds, db = setup_pipeline()
        rec = bundle.split_records(Split.TEST)[0]
        primary = test_preds[rec.id]
        calls = self.failing_transport(monkeypatch, 1, "Prediction: 1.0")
        log = []
        llm = RemoteChatConfig(endpoint="http://127.0.0.1:9/v1/chat", model="m")
        with caplog.at_level("WARNING", logger="molcorr.correct"):
            out = correct_query(rec, primary, db, CFG, llm, log)
        assert len(calls) == 1
        assert out.fallback_used and out.initial is None
        assert out.final == primary and not out.self_correction_invoked
        assert [r.getMessage() for r in caplog.records] == [
            f"query {rec.id}: backend error, falling back (request failed after 5 attempts)"
        ]
        assert log == []

    def test_dead_endpoint_falls_back(self, monkeypatch, caplog):
        # every query's five attempts raise a connection error in transport
        bundle, _, test_preds, db = setup_pipeline()
        url = "http://127.0.0.1:9/v1/chat"
        posts, sleeps = [], []

        def dead_post(endpoint, **kwargs):
            posts.append(endpoint)
            raise ConnectionError("connection refused")

        monkeypatch.setattr(transport, "send", dead_post)
        monkeypatch.setattr(transport.time, "sleep", sleeps.append)
        llm = RemoteChatConfig(endpoint=url, model="m")
        with caplog.at_level("WARNING", logger="molcorr.correct"):
            outs = correct_split(Split.TEST, bundle, test_preds, db, CFG, EMB, llm)
        records = bundle.split_records(Split.TEST)
        assert all(o.fallback_used and o.final == o.primary for o in outs)
        assert len(posts) == 5 * len(records)
        assert sleeps == transport.backoff_delays() * len(records)
        assert [r.getMessage() for r in caplog.records] == [
            f"query {rec.id}: backend error, falling back (request to {url} failed after "
            "5 attempts (transport error: ConnectionError))"
            for rec in records
        ]

    def test_self_correction_request_failure_keeps_initial(self, monkeypatch, caplog):
        bundle, _, _, db = setup_pipeline(task=CLASSIFICATION, seed=9)
        rec = bundle.split_records(Split.TEST)[0]
        # a flipped label triggers self-correction, whose request then fails
        reply = render_answer(CLASSIFICATION, 0.0, probability=0.2, explanation="flip")
        calls = self.failing_transport(monkeypatch, 2, reply)
        log = []
        llm = RemoteChatConfig(endpoint="http://127.0.0.1:9/v1/chat", model="m")
        with caplog.at_level("WARNING", logger="molcorr.correct"):
            out = correct_query(rec, 0.9, db, CFG, llm, log)
        assert len(calls) == 2
        assert out.self_correction_invoked and not out.fallback_used
        assert out.initial is not None and out.initial.prediction == 0.0
        assert out.final == 0.2 and out.final_source == "probability"
        assert [r.getMessage() for r in caplog.records] == [
            f"query {rec.id}: self-correction backend error (request failed after 5 attempts)"
        ]
        assert [(ex.prompt.kind, ex.response_text) for ex in log] == [
            (PromptKind.CORRECTOR, reply)
        ]

    def test_fingerprint_mismatch(self):
        bundle, _, test_preds, db = setup_pipeline()
        with pytest.raises(CorrectionError, match="does not match configured embedder"):
            correct_split(
                Split.TEST, bundle, test_preds, db, CFG, LocalHashConfig(dim=64), MockEcho()
            )

    @pytest.mark.parametrize("llm", [MockEcho(), MockScripted()], ids=["answered", "fallback"])
    def test_context_ids_are_the_prompt_ids(self, llm):
        # k=40 against a 400-token budget: trimming drops part of the context,
        # and the outcome lists only the ids that reached the prompt
        bundle, _, test_preds, db = setup_pipeline(n_train=40, n_valid=10)
        cfg = RunConfig(k=40, token_budget=400)
        outs = correct_split(Split.TEST, bundle, test_preds, db, cfg, EMB, llm)
        for rec, out in zip(bundle.split_records(Split.TEST), outs, strict=True):
            primary = test_preds[rec.id]
            ctx = retrieve(db, embed_molecule(EMB, rec), cfg.k, cfg.strategy)
            prompt = build_corrector_prompt(rec, primary, ctx, db.task, cfg.token_budget)
            assert out.fallback_used is isinstance(llm, MockScripted)
            assert out.context_ids == prompt.context_ids
            assert 0 < len(out.context_ids) < 40 == len(ctx)

    def test_self_correction_disabled(self):
        bundle, _, _, db = setup_pipeline(task=CLASSIFICATION, seed=9)
        rec = next(r for r in bundle.split_records(Split.TEST) if r.label == 0.0)
        cfg = RunConfig(k=5, self_correction=False)
        out = correct_query(rec, 0.9, db, cfg, MockPerfectOracle())
        assert not out.self_correction_invoked
        assert out.final == 0.0  # initial oracle answer still wins

    def test_trigger_soundness(self):
        bundle, _, test_preds, db = setup_pipeline(seed=21)
        for rec in bundle.split_records(Split.TEST):
            primary = test_preds[rec.id]
            out = correct_query(rec, primary, db, CFG, MockPerfectOracle())
            assert out.initial is not None
            want = should_self_correct(REGRESSION, primary, out.initial.prediction, CFG)
            assert out.self_correction_invoked == want


class TestCorrectSplit:
    def test_outcomes_in_dataset_order(self):
        bundle, _, test_preds, db = setup_pipeline()
        outs = correct_split(Split.TEST, bundle, test_preds, db, CFG, EMB, MockEcho())
        want_ids = [r.id for r in bundle.split_records(Split.TEST)]
        assert [o.id for o in outs] == want_ids

    def test_empty_split(self):
        bundle, val_preds, _, db = setup_pipeline(n_test=0)
        outs = correct_split(Split.TEST, bundle, {}, db, CFG, EMB, MockEcho())
        assert outs == []

    def test_valid_split_excludes_self(self):
        bundle, val_preds, _, db = setup_pipeline(n_valid=10)
        outs = correct_split(Split.VALID, bundle, val_preds, db, CFG, EMB, MockEcho())
        for out in outs:
            assert out.id not in out.context_ids

    def test_test_split_has_no_exclusion(self):
        # with k covering the whole pool, every db id shows up for test
        # queries (nothing was excluded)
        bundle, _, test_preds, db = setup_pipeline()
        cfg = RunConfig(k=10_000)
        outs = correct_split(Split.TEST, bundle, test_preds, db, cfg, EMB, MockEcho())
        for out in outs:
            assert len(out.context_ids) == len(db)

    def test_parallel_matches_serial(self):
        bundle, _, test_preds, db = setup_pipeline(n_test=12)
        serial = correct_split(
            Split.TEST, bundle, test_preds, db, RunConfig(k=5, jobs=1), EMB,
            MockNoisyOracle(p=0.5, seed=11),
        )
        parallel = correct_split(
            Split.TEST, bundle, test_preds, db, RunConfig(k=5, jobs=8), EMB,
            MockNoisyOracle(p=0.5, seed=11),
        )
        assert serial == parallel

    def test_audit_log_in_dataset_order(self, tmp_path, monkeypatch):
        # at jobs=3 the first query's request is held back until the third
        # query's has returned, so the calls complete out of dataset order
        bundle, _, test_preds, db = setup_pipeline(n_test=8)
        first, _, third = [r.id for r in bundle.split_records(Split.TEST)][:3]
        third_returned = threading.Event()
        completed = []

        def held_back(llm, prompt, meta, task):
            if meta.id == first:
                assert third_returned.wait(timeout=10)
            exchange = complete(llm, prompt, meta, task)
            completed.append(meta.id)
            if meta.id == third:
                third_returned.set()
            return exchange

        logs = {}
        for jobs in (1, 3):
            if jobs > 1:
                monkeypatch.setattr(correct_mod, "complete", held_back)
            path = tmp_path / f"audit_{jobs}.jsonl"
            correct_split(
                Split.TEST, bundle, test_preds, db, RunConfig(k=5, jobs=jobs), EMB,
                MockNoisyOracle(p=0.5, seed=11), audit=AuditLog(path),
            )
            logs[jobs] = [json.loads(line) for line in path.read_text().splitlines()]
            for row in logs[jobs]:
                del row["latency_ms"]
        assert completed.index(third) < completed.index(first)
        assert logs[3] == logs[1]
        assert [row["kind"] for row in logs[1]].count("self_correction") > 0
        want = [r.id for r in bundle.split_records(Split.TEST)]
        assert list(dict.fromkeys(row["id"] for row in logs[1])) == want

    def test_audit_fault_starts_no_further_query(self, tmp_path, monkeypatch):
        # the first query's log line cannot be written while both workers
        # are busy with later queries: the queries not yet started are not sent
        bundle, _, test_preds, db = setup_pipeline(n_test=8)
        first = bundle.split_records(Split.TEST)[0].id
        calls = []

        def slow_after_first(llm, prompt, meta, task):
            calls.append(meta.id)
            if meta.id != first:
                time.sleep(0.5)
            return complete(llm, prompt, meta, task)

        class FullDisk(AuditLog):
            def append(self, query_id, exchange):
                raise OSError("No space left on device")

        monkeypatch.setattr(correct_mod, "complete", slow_after_first)
        with pytest.raises(OSError, match="No space left"):
            correct_split(
                Split.TEST, bundle, test_preds, db, RunConfig(k=5, jobs=2), EMB, MockEcho(),
                audit=FullDisk(tmp_path / "audit.jsonl"),
            )
        assert len(calls) <= 3

    def test_split_holds_a_window_of_prompts(self, tmp_path, monkeypatch):
        # at every request, the corrector prompts still alive are at most
        # one chunk's and those of the queries submitted ahead; latencies
        # are zeroed so the audit logs compare byte for byte
        n_test = 3 * correct_mod.QUERY_CHUNK + 5
        bundle, _, test_preds, db = setup_pipeline(n_test=n_test)
        alive, counts = weakref.WeakSet(), []

        def tracked(*args):
            prompt = build_corrector_prompt(*args)
            alive.add(prompt)
            return prompt

        def counted(*args):
            counts.append(len(alive))
            return replace(complete(*args), latency=0.0)

        monkeypatch.setattr(correct_mod, "build_corrector_prompt", tracked)
        monkeypatch.setattr(correct_mod, "complete", counted)
        written = {}
        for jobs in (1, 3):
            counts.clear()
            outcomes = correct_split(
                Split.TEST, bundle, test_preds, db, RunConfig(k=5, jobs=jobs), EMB,
                MockNoisyOracle(p=0.5, seed=11), audit=AuditLog(tmp_path / f"audit_{jobs}.jsonl"),
            )
            assert len(counts) > n_test  # some queries self-correct
            assert max(counts) <= correct_mod.QUERY_CHUNK + 2 * jobs
            write_outcomes(outcomes, tmp_path / f"outcomes_{jobs}.jsonl")
            written[jobs] = [
                (tmp_path / f"{name}_{jobs}.jsonl").read_bytes() for name in ("outcomes", "audit")
            ]
        assert written[3] == written[1]

    @pytest.mark.parametrize("fault", ["empty-pool", "dim"])
    def test_fault_past_the_first_chunk_sends_nothing(self, tmp_path, monkeypatch, fault):
        # one query a chunk: the last validation query's pool is empty, as
        # the database holds only its own entry, or the database's dim is
        # not the embedder's; either is found before anything is sent
        monkeypatch.setattr(correct_mod, "QUERY_CHUNK", 1)
        calls = []
        monkeypatch.setattr(
            correct_mod, "complete", lambda *args: calls.append(args) or complete(*args)
        )
        bundle, val_preds, _, db = setup_pipeline(n_train=0, n_valid=3, n_test=0)
        if fault == "empty-pool":
            last = bundle.split_records(Split.VALID)[-1]
            db = build_database(DatasetBundle(bundle.task, (last,)), val_preds, EMB)
            error, message = KnowledgeError, "retrieval pool is empty"
        else:
            db = KnowledgeDatabase(db.task, db.fingerprint, db.rows, db.embeddings[:, :16])
            error, message = CorrectionError, "database dim 16 does not match embedder dim 32"
        path = tmp_path / "audit.jsonl"
        with pytest.raises(error, match=f"^{message}$"):
            correct_split(
                Split.VALID, bundle, val_preds, db, CFG, EMB, MockEcho(), audit=AuditLog(path)
            )
        assert calls == []
        assert not path.exists()

    def test_audit_log_bytes_unchanged_at_one_job(self, tmp_path):
        # nothing rewrites the log after its last append
        bundle, _, test_preds, db = setup_pipeline(n_test=6)
        path = tmp_path / "audit.jsonl"
        appended = []

        class Recording(AuditLog):
            def append(self, query_id, exchange):
                super().append(query_id, exchange)
                appended.append(path.read_bytes())

        correct_split(
            Split.TEST, bundle, test_preds, db, RunConfig(k=5), EMB,
            MockNoisyOracle(p=0.5, seed=11), audit=Recording(path),
        )
        assert path.read_bytes() == appended[-1]

    def test_audit_log_opens_its_file_once(self, tmp_path, monkeypatch):
        # one handle for the whole split
        bundle, _, test_preds, db = setup_pipeline(n_test=6)
        path = tmp_path / "audit.jsonl"
        modes = []

        def counting_open(file, mode="r", *args, **kwargs):
            modes.append(mode)
            return open(file, mode, *args, **kwargs)

        monkeypatch.setattr(llmclient, "open", counting_open, raising=False)
        correct_split(
            Split.TEST, bundle, test_preds, db, RunConfig(k=5), EMB,
            MockNoisyOracle(p=0.5, seed=11), audit=AuditLog(path),
        )
        assert len(path.read_text().splitlines()) >= 6
        assert modes == ["w"]

    def test_audit_log_without_any_reply(self, tmp_path):
        # every query fails before a reply is logged, so the lines of an
        # older log are gone and none take their place; the split still
        # yields its outcomes
        bundle, _, test_preds, db = setup_pipeline()
        path = tmp_path / "audit.jsonl"
        path.write_text('{"id":"old"}\n')
        outs = correct_split(
            Split.TEST, bundle, test_preds, db, CFG, EMB, MockScripted(), audit=AuditLog(path)
        )
        assert len(outs) == bundle.counts[Split.TEST]
        assert all(o.fallback_used for o in outs)
        assert path.read_text() == ""

    def test_audit_log_rewritten_by_each_split(self, tmp_path):
        # one log for the valid split, then the test split: it ends holding
        # the test split's lines alone, as a log of the test split does
        bundle, val_preds, test_preds, db = setup_pipeline()
        llm = MockNoisyOracle(p=0.5, seed=11)
        logs = {}
        for name, splits in (("shared", ("valid", "test")), ("test", ("test",))):
            log = AuditLog(tmp_path / f"{name}.jsonl")
            for split in splits:
                preds = val_preds if split == "valid" else test_preds
                correct_split(Split(split), bundle, preds, db, CFG, EMB, llm, audit=log)
            logs[name] = [json.loads(line) for line in log.path.read_text().splitlines()]
            for row in logs[name]:
                del row["latency_ms"]
        assert logs["test"]
        assert logs["shared"] == logs["test"]

    def test_every_query_yields_final(self):
        # even a backend that errors on every query never drops one
        bundle, _, test_preds, db = setup_pipeline()
        outs = correct_split(
            Split.TEST, bundle, test_preds, db, CFG, EMB, MockScripted()
        )
        assert len(outs) == bundle.counts[Split.TEST]
        assert all(o.fallback_used and o.final == o.primary for o in outs)


class TestSummaryAndSerialization:
    def test_run_summary_counts(self):
        bundle, _, test_preds, db = setup_pipeline(n_test=6)
        records = bundle.split_records(Split.TEST)
        scripted = {}
        for i, rec in enumerate(records):
            if i < 3:
                scripted[rec.id] = f"Prediction: {test_preds[rec.id]:.4f}"
            elif i < 5:
                scripted[rec.id] = f"maybe around {test_preds[rec.id]:.4f} or so"
        outs = correct_split(
            Split.TEST, bundle, test_preds, db, CFG, EMB, MockScripted(scripted)
        )
        summary = run_summary(outs, CFG, EMB, MockScripted(scripted))
        assert summary["queries"] == 6
        assert summary["consistency"]["total"] == 6
        assert summary["consistency"]["strict"] == 3
        assert summary["fallbacks"] == 1
        assert summary["config"]["backend"] == "scripted"
        assert summary["config"]["k"] == 5

    def test_outcome_round_trips_through_json(self, tmp_path):
        bundle, _, test_preds, db = setup_pipeline(n_test=4)
        outs = correct_split(Split.TEST, bundle, test_preds, db, CFG, EMB, MockEcho())
        path = tmp_path / "outcomes.jsonl"
        write_outcomes(outs, path)
        rows = [json.loads(line) for line in path.read_text().splitlines()]
        assert len(rows) == 4
        assert rows[0] == outcome_to_dict(outs[0])
        assert rows[0]["final"] == rows[0]["primary"]

    def test_write_outcomes_deterministic(self, tmp_path):
        bundle, _, test_preds, db = setup_pipeline(n_test=6)
        for jobs, name in ((1, "a.jsonl"), (8, "b.jsonl")):
            outs = correct_split(
                Split.TEST, bundle, test_preds, db,
                RunConfig(k=5, jobs=jobs), EMB, MockNoisyOracle(p=0.5, seed=3),
            )
            write_outcomes(outs, tmp_path / name)
        assert (tmp_path / "a.jsonl").read_bytes() == (tmp_path / "b.jsonl").read_bytes()

    def test_record_bytes_are_pinned(self, tmp_path):
        outs = [
            CorrectionOutcome("m1", 0.25, ParsedAnswer(1.0, 0.875, "Two motifs.", False), True,
                              0.875, False, ("m7", "m3"), "probability"),
            CorrectionOutcome("m2", -1.5, None, False, -1.5, True, ("m4",)),
        ]
        write_outcomes(outs, tmp_path / "outcomes.jsonl")
        assert (tmp_path / "outcomes.jsonl").read_text().splitlines() == [
            '{"id":"m1","primary":0.25,"initial":{"prediction":1.0,"probability":0.875,'
            '"explanation":"Two motifs.","strict":false},"self_correction_invoked":true,'
            '"final":0.875,"fallback_used":false,"context_ids":["m7","m3"],'
            '"final_source":"probability"}',
            '{"id":"m2","primary":-1.5,"initial":null,"self_correction_invoked":false,'
            '"final":-1.5,"fallback_used":true,"context_ids":["m4"],"final_source":null}',
        ]
        cfg = RunConfig(k=5, strategy=Jump())
        assert list(run_summary(outs, cfg, EMB, MockPerfectOracle())["config"].items()) == [
            ("k", 5), ("strategy", "jump"), ("self_correction", True),
            ("regression_trigger_fraction", 0.2), ("token_budget", 3000), ("seed", 0),
            ("include_description", False), ("jobs", 1),
            ("embedder", "localhash:dim=32:ngram=3:counts:desc=0"), ("backend", "perfect"),
        ]
        prompt = PromptBundle(kind=PromptKind.CORRECTOR, text="p", token_estimate=1)
        answers = [
            complete(backend, prompt, QueryMeta("m1", primary, label), task).response_text
            for backend in (MockEcho(), MockPerfectOracle())
            for task, primary, label in ((CLASSIFICATION, 0.7, 1.0), (CLASSIFICATION, 0.3, 0.0),
                                         (REGRESSION, -0.5, -0.5))
        ]
        keep = "Explanation: Keeping the model prediction unchanged."
        assert answers == [
            f"Prediction: 1\nProbability: 0.7000\n{keep}",
            f"Prediction: 0\nProbability: 0.3000\n{keep}",
            f"Prediction: -0.5000\n{keep}",
            "Prediction: 1\nProbability: 1.0000\nExplanation: Recalling the reference label.",
            "Prediction: 0\nProbability: 0.0000\nExplanation: Recalling the reference label.",
            "Prediction: -0.5000\nExplanation: Recalling the reference value.",
        ]
