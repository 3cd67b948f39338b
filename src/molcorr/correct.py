"""End-to-end correction of one query or one split.

A split first checks every query, with no retrieval: its prediction must
pass ``check_prediction``, its pool must not be empty once its own entry
is excluded (the leakage guard, for a validation query) and the token
budget must hold its corrector prompt with no context line. So a prompt
fault sends nothing and opens no audit log, which is opened only after
the check, just before the first chunk is rendered. Then the split
streams: ``QUERY_CHUNK`` queries at a time are embedded, retrieved and
rendered in one tight loop, which keeps the pool matrix in cache, and
are handed one by one to ``run_queries``, which keeps at most
``2 * jobs`` of them submitted ahead of the one whose result it takes. A
split so holds one chunk of prompts plus that window, never all of them.
Per query: send the prompt, parse the response, optionally run one
self-correction round, and record the refined prediction.

Self-correction fires when the proposed correction deviates strongly from
the base model: a flipped label for classification, or a relative change
above the trigger fraction (default 20%) for regression, with an absolute
1e-9 epsilon branch when the base prediction is ~0. The self-correction
response overrides the initial proposal; a query whose response cannot be
parsed (or whose backend call fails outright) falls back to the base
model's prediction, so every query always yields a final value.

Every LLM call goes through ``ask`` and every split through ``run_queries``;
``molcorr predict`` sends its direct prompts through the same two. Given
an ``answers`` dict, ``ask`` replays the parsed answer stored under
(query id, prompt text) instead of sending the prompt, and stores each
answer that parses; a backend error or an unparseable reply is never
stored, so that prompt is sent again the next time it is asked.
``evaluate.run_ablation`` holds one such dict across its points.

Nothing depends on worker count or call order: the noisy mock's coin
flip derives from (its seed, query id), and the random strategy's draw
from the run seed and the pool size alone, so every query of a split
takes the same rank positions. A replayed answer was stored at an
earlier point, since each (query id, prompt text) of a split belongs to
one query. Outcomes and audit-log lines are in dataset order.
"""

from __future__ import annotations

import json
import logging
from collections import deque
from concurrent.futures import ThreadPoolExecutor
from contextlib import nullcontext
from dataclasses import dataclass, field
from functools import partial
from typing import Callable, Dict, Iterable, List, Optional, Sequence, Tuple

from .embed import LocalHashConfig, embed_molecule, embedder_fingerprint
from .ingest import DatasetBundle, MoleculeRecord, Split, TaskSpec, check_prediction
from .knowledge import (KnowledgeDatabase, RetrievalStrategy, TopK, excluded_row, retrieve,
                        strategy_name)
from .llmclient import (AuditLog, LlmBackendConfig, LlmError, LlmExchange, QueryMeta,
                        backend_name, complete)
from .parse import ParseError, ParsedAnswer, consistency_rate, parse_response
from .prompt import (DEFAULT_TOKEN_BUDGET, PromptBundle, build_corrector_prompt,
                     build_self_correction_prompt, check_corrector_budget)

logger = logging.getLogger(__name__)

ZERO_PRIMARY_EPSILON = 1e-9

# queries of a split embedded, retrieved and rendered together, ahead of
# their sends: retrieving one query at a time between sends runs slower
QUERY_CHUNK = 64

# parsed answers by (query id, prompt text), shared by the points of an ablation
Answers = Dict[Tuple[str, str], ParsedAnswer]


class CorrectionError(RuntimeError):
    pass


@dataclass(frozen=True)
class RunConfig:
    k: int = 10
    strategy: RetrievalStrategy = field(default_factory=TopK)
    self_correction: bool = True
    regression_trigger_fraction: float = 0.20
    token_budget: int = DEFAULT_TOKEN_BUDGET
    seed: int = 0
    include_description: bool = False
    jobs: int = 1

    def __post_init__(self):
        if self.regression_trigger_fraction <= 0.0:
            raise CorrectionError("trigger fraction must be positive")
        if self.k < 1:
            raise CorrectionError(f"k must be >= 1, got {self.k}")
        if self.jobs < 1:
            raise CorrectionError(f"jobs must be >= 1, got {self.jobs}")


@dataclass(frozen=True)
class CorrectionOutcome:
    id: str
    primary: float
    initial: Optional[ParsedAnswer]
    self_correction_invoked: bool
    final: float
    fallback_used: bool
    context_ids: Tuple[str, ...]  # the ids that reached the prompt, after trimming
    final_source: Optional[str] = None  # "probability" | "label" (classification only)


def should_self_correct(
    task: TaskSpec, primary: float, proposed: float, cfg: RunConfig
) -> bool:
    """Whether a proposed correction deviates enough to re-question it."""
    if task.is_classification:
        primary_label = 1.0 if primary >= 0.5 else 0.0
        proposed_label = 1.0 if proposed >= 0.5 else 0.0
        return primary_label != proposed_label
    if abs(primary) < ZERO_PRIMARY_EPSILON:
        return abs(proposed) >= ZERO_PRIMARY_EPSILON
    return abs(proposed - primary) > cfg.regression_trigger_fraction * abs(primary)


def final_value(task: TaskSpec, answer: ParsedAnswer) -> Tuple[float, Optional[str]]:
    """Refined prediction recorded for an answer.

    Classification answers score by probability when present, else by the
    hard label as 0.0/1.0; the source is reported so downstream metrics
    can say which path dominated.
    """
    if task.is_classification:
        if answer.probability is not None:
            return answer.probability, "probability"
        return answer.prediction, "label"
    return answer.prediction, None


def ask(
    llm: LlmBackendConfig, prompt: PromptBundle, record: MoleculeRecord,
    primary: Optional[float], task: TaskSpec, log: List[LlmExchange],
    backend_warning: str = "query %s: backend error, falling back (%s)",
    answers: Optional[Answers] = None,
) -> Optional[ParsedAnswer]:
    """Send one prompt about ``record``, add the exchange to ``log`` and
    parse the reply; None when the backend fails (logged as
    ``backend_warning`` with the query id and the error) or the reply
    does not parse.

    With ``answers``, an answer already stored under (``record.id``,
    ``prompt.text``) is returned without a request or a ``log`` entry,
    and an answer that parses is stored there; a failure is not."""
    key = (record.id, prompt.text)
    if answers is not None and key in answers:
        return answers[key]
    meta = QueryMeta(id=record.id, primary=primary, true_label=record.label)
    try:
        exchange = complete(llm, prompt, meta, task)
    except LlmError as exc:
        logger.warning(backend_warning, record.id, exc)
        return None
    log.append(exchange)
    try:
        answer = parse_response(exchange.response_text, task)
    except ParseError:
        return None
    if answers is not None:
        answers[key] = answer
    return answer


def run_queries(
    step: Callable, queries: Iterable[tuple], jobs: int, audit: Optional[AuditLog]
) -> List:
    """``step(*query, log)`` for each query, a tuple of arguments whose
    first is the query's record, on up to ``jobs`` workers; ``step`` adds
    its exchanges to the list ``log``. ``audit`` is entered, which empties
    its file, before the first query is drawn from ``queries``. Results are
    taken in query order, each query's exchanges going to ``audit`` as its
    result is taken, so neither results nor log depend on the worker
    count, and a crash keeps the lines of every query taken before it.

    ``queries`` may be a generator: with one job each query runs inline as
    it is drawn; with more, a query is drawn only while fewer than
    ``2 * jobs`` are submitted ahead of the one whose result is taken next,
    so neither a taken query nor one far ahead stays held."""

    def run(query):
        log: List[LlmExchange] = []
        return query[0].id, step(*query, log), log

    def take(done):
        id, result, log = done
        if audit is not None:
            for exchange in log:
                audit.append(id, exchange)
        return result

    results = []
    pool = ThreadPoolExecutor(max_workers=jobs)  # starts no thread before the first submit
    try:
        with audit if audit is not None else nullcontext():
            if jobs == 1:
                results.extend(take(run(query)) for query in queries)
            else:
                window = deque()
                for query in queries:
                    window.append(pool.submit(run, query))
                    if len(window) > 2 * jobs:
                        results.append(take(window.popleft().result()))
                while window:
                    results.append(take(window.popleft().result()))
    finally:
        pool.shutdown(cancel_futures=True)  # after a fault, start no further query
    return results


def correct_one(
    record: MoleculeRecord,
    primary: float,
    prompt: PromptBundle,
    task: TaskSpec,
    cfg: RunConfig,
    llm: LlmBackendConfig,
    log: List[LlmExchange],
    answers: Optional[Answers] = None,
) -> CorrectionOutcome:
    """Ask the corrector ``prompt`` about one query and, when the trigger
    fires, ask once more for self-correction; exchanges go to ``log``,
    and both asks go through ``answers``."""
    initial = ask(llm, prompt, record, primary, task, log, answers=answers)
    invoked = (
        initial is not None
        and cfg.self_correction
        and should_self_correct(task, primary, initial.prediction, cfg)
    )
    answer = initial
    if invoked:
        sc_prompt = build_self_correction_prompt(
            record, primary, initial.prediction, task, prior_explanation=initial.explanation
        )
        answer = ask(llm, sc_prompt, record, primary, task, log,
                     "query %s: self-correction backend error (%s)", answers=answers) or initial
    final, source = (primary, None) if answer is None else final_value(task, answer)
    return CorrectionOutcome(
        id=record.id,
        primary=primary,
        initial=initial,
        self_correction_invoked=invoked,
        final=final,
        fallback_used=initial is None,
        context_ids=prompt.context_ids,
        final_source=source,
    )


def correct_split(
    split: Split,
    bundle: DatasetBundle,
    predictions: Dict[str, float],
    db: KnowledgeDatabase,
    cfg: RunConfig,
    embedder: LocalHashConfig,
    llm: LlmBackendConfig,
    audit: Optional[AuditLog] = None,
    answers: Optional[Answers] = None,
) -> List[CorrectionOutcome]:
    """Correct every molecule of a split, outcomes in dataset order.

    Every query is checked before ``run_queries`` opens ``audit``: a
    database built for another task or embedder and a prediction that
    ``check_prediction`` refuses raise CorrectionError, an empty pool
    KnowledgeError and a budget that cannot hold a query's
    zero-context prompt PromptError, naming the first such query in
    dataset order. Then ``QUERY_CHUNK`` queries at a time are embedded,
    retrieved and rendered, each chunk only once ``run_queries`` has drawn
    the previous one. The leakage guard applies only to validation
    queries. ``answers`` is passed to every ``ask`` of the split.
    """
    if db.task != bundle.task:
        raise CorrectionError(
            f"database task {db.task.kind.value!r} does not match "
            f"configured task {bundle.task.kind.value!r}"
        )
    expected = embedder_fingerprint(embedder, cfg.include_description)
    if db.fingerprint != expected:
        raise CorrectionError(
            f"database fingerprint {db.fingerprint!r} does not match "
            f"configured embedder {expected!r}"
        )
    if db.dim != embedder.dim:
        raise CorrectionError(f"database dim {db.dim} does not match embedder dim {embedder.dim}")
    records = bundle.split_records(split)

    def own_id(rec):
        return rec.id if rec.split is Split.VALID else None

    for rec in records:
        try:
            check_prediction(predictions[rec.id], db.task)
        except ValueError as exc:
            raise CorrectionError(f"query {rec.id!r}: {exc}") from None
        excluded_row(db, own_id(rec))
        check_corrector_budget(rec, predictions[rec.id], db.task, cfg.token_budget)

    def render(rec):
        primary = predictions[rec.id]
        query_vec = embed_molecule(embedder, rec, cfg.include_description)
        ctx = retrieve(db, query_vec, cfg.k, cfg.strategy, exclude_id=own_id(rec))
        prompt = build_corrector_prompt(rec, primary, ctx, db.task, cfg.token_budget)
        return rec, primary, prompt, db.task, cfg, llm

    def stream():
        for i in range(0, len(records), QUERY_CHUNK):
            # the chunk's list goes once its last query is drawn
            yield from [render(rec) for rec in records[i : i + QUERY_CHUNK]]

    return run_queries(partial(correct_one, answers=answers), stream(), cfg.jobs, audit)


def run_summary(
    outcomes: Sequence[CorrectionOutcome],
    cfg: RunConfig,
    embedder: LocalHashConfig,
    llm: LlmBackendConfig,
) -> Dict:
    """Aggregate stats for a corrected split, plus a config echo."""
    return {
        "config": config_echo(cfg, embedder, llm),
        "queries": len(outcomes),
        "consistency": consistency_rate([o.initial for o in outcomes]).to_dict(),
        "self_corrections": sum(1 for o in outcomes if o.self_correction_invoked),
        "fallbacks": sum(1 for o in outcomes if o.fallback_used),
        "final_from_probability": sum(1 for o in outcomes if o.final_source == "probability"),
        "final_from_label": sum(1 for o in outcomes if o.final_source == "label"),
    }


def config_echo(
    cfg: RunConfig, embedder: LocalHashConfig, llm: LlmBackendConfig
) -> Dict:
    return {
        **vars(cfg),
        "strategy": strategy_name(cfg.strategy),
        "embedder": embedder_fingerprint(embedder, cfg.include_description),
        "backend": backend_name(llm),
    }


def outcome_to_dict(outcome: CorrectionOutcome) -> Dict:
    return {
        **vars(outcome),
        "initial": None if outcome.initial is None else dict(vars(outcome.initial)),
        "context_ids": list(outcome.context_ids),
    }


def write_outcomes(outcomes: Sequence[CorrectionOutcome], path) -> None:
    """One JSON object per line, in outcome order; byte-deterministic."""
    with open(path, "w", encoding="utf-8") as fh:
        for outcome in outcomes:
            fh.write(json.dumps(outcome_to_dict(outcome), separators=(",", ":")) + "\n")
