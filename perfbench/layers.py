"""Which molcorr functions the traced run wraps, and the per-layer metrics.

A layer is a molcorr module. Each function is wrapped in the namespace
the program calls it from, so a name imported into ``cli``, ``correct``
or ``evaluate`` gets its own wrap.
"""

from __future__ import annotations

import math
import statistics
from pathlib import Path
from typing import Dict, List

from spans import Span, Tracer, self_times, union_length


def _embedded_bytes(args, result, error):
    return {"bytes": sum(len(text.encode("utf-8")) for text in args[1])}


def _saved_bytes(args, result, error):
    directory = Path(args[1])
    return {"bytes": sum(p.stat().st_size for p in directory.iterdir() if p.is_file())}


def _prompt_facts(args, result, error):
    if error is not None:
        return {}
    return {
        "kept": len(result.context_ids),
        "retrieved": len(args[2].items),
        "tokens": result.token_estimate,
    }


def _completion_facts(args, result, error):
    if error is not None:
        return {"error": type(error).__name__}
    return {"attempts": result.attempts}


def _parse_facts(args, result, error):
    if error is not None:
        return {"kind": "error"}
    return {"kind": "strict" if result.strict else "salvage", "prediction": result.prediction}


def _outcome_facts(args, result, error):
    if error is not None:
        return {"error": type(error).__name__}
    return {"invoked": result.self_correction_invoked, "fallback": result.fallback_used}


def instrument(tracer: Tracer) -> None:
    """Wrap every public function the per-layer metrics need."""
    import molcorr.cli as cli
    import molcorr.correct as correct
    import molcorr.evaluate as evaluate
    import molcorr.knowledge as knowledge
    import molcorr.llmclient as llmclient

    tracer.wrap(cli, "load_molecules", "ingest.load_molecules")
    tracer.wrap(cli, "load_predictions", "ingest.load_predictions")
    tracer.wrap(cli, "build_database", "knowledge.build_database")
    tracer.wrap(evaluate, "build_database", "knowledge.build_database")
    tracer.wrap(knowledge, "embed_texts", "embed.embed_texts", _embedded_bytes)
    tracer.wrap(cli, "save_database", "knowledge.save_database", _saved_bytes)
    tracer.wrap(cli, "load_database", "knowledge.load_database")
    tracer.wrap(correct, "correct_split", "correct.correct_split")
    tracer.wrap(evaluate, "correct_split", "correct.correct_split")
    tracer.wrap(
        correct, "correct_one", "correct.correct_one", _outcome_facts,
        query_id=lambda args: args[0].id,
    )
    tracer.wrap(correct, "embed_molecule", "embed.embed_molecule")
    tracer.wrap(correct, "retrieve", "knowledge.retrieve")
    tracer.wrap(correct, "build_corrector_prompt", "prompt.build_corrector_prompt", _prompt_facts)
    tracer.wrap(correct, "build_self_correction_prompt", "prompt.build_self_correction_prompt")
    tracer.wrap(correct, "complete", "llmclient.complete", _completion_facts)
    tracer.wrap(correct, "parse_response", "parse.parse_response", _parse_facts)
    tracer.wrap(llmclient.AuditLog, "append", "llmclient.audit_append")
    tracer.wrap(llmclient.transport, "post_json", "transport.post_json")
    tracer.wrap(correct, "write_outcomes", "correct.write_outcomes")
    tracer.wrap(evaluate, "evaluate_run", "evaluate.evaluate_run")
    tracer.wrap(evaluate, "run_ablation", "evaluate.run_ablation")


# name -> unit, in the order BENCHMARK.json lists them
PER_LAYER_UNITS = {
    "ingest.load_molecules_s": "s",
    "ingest.load_predictions_s": "s",
    "embed.pool_s": "s",
    "embed.pool_bytes": "bytes",
    "embed.query_us_p50": "us",
    "knowledge.build_self_s": "s",
    "knowledge.save_s": "s",
    "knowledge.load_s": "s",
    "knowledge.db_bytes": "bytes",
    "knowledge.retrieve_ms_p50": "ms",
    "knowledge.retrieve_ms_p95": "ms",
    "knowledge.retrieve_s": "s",
    "prompt.corrector_us_p50": "us",
    "prompt.corrector_us_p95": "us",
    "prompt.s": "s",
    "prompt.tokens_p50": "tokens",
    "prompt.context_kept_ratio": "ratio",
    "llmclient.calls": "count",
    "llmclient.complete_ms_p50": "ms",
    "llmclient.complete_ms_p95": "ms",
    "llmclient.errors": "count",
    "llmclient.attempts_per_call": "ratio",
    "llmclient.audit_append_us_p50": "us",
    "transport.post_ms_p50": "ms",
    "transport.post_ms_p95": "ms",
    "transport.requests": "count",
    "transport.connections_per_request": "ratio",
    "parse.calls": "count",
    "parse.strict_share": "ratio",
    "parse.salvage_share": "ratio",
    "parse.error_share": "ratio",
    "parse.s": "s",
    "correct.query_ms_p50": "ms",
    "correct.query_ms_p95": "ms",
    "correct.self_s": "s",
    "correct.sc_invoked_share": "ratio",
    "correct.sc_changed_share": "ratio",
    "correct.overlap": "ratio",
    "evaluate.evaluate_run_s": "s",
    "evaluate.ablation_points": "count",
    "evaluate.db_builds": "count",
    "fallback_share": "ratio",
    "queries_per_s": "1/s",
    "trace.coverage": "ratio",
    "trace.overhead": "ratio",
}


def percentile(values: List[float], q: float) -> float:
    """Nearest-rank percentile; 0.0 for no samples."""
    if not values:
        return 0.0
    ordered = sorted(values)
    return ordered[max(0, math.ceil(q / 100.0 * len(ordered)) - 1)]


def _share(part: float, whole: float) -> float:
    return part / whole if whole else 0.0


def _named(spans: List[Span], name: str) -> List[Span]:
    return [s for s in spans if s.name == name]


def _total(spans: List[Span], name: str) -> float:
    return sum(s.duration for s in _named(spans, name))


def command_metrics(spans: List[Span], wall_s: float) -> Dict[str, float]:
    """Per-command numbers from the spans of one traced CLI command."""
    selfs = self_times(spans)
    queries = _named(spans, "correct.correct_one")
    parses = _named(spans, "parse.parse_response")
    prompts = _named(spans, "prompt.build_corrector_prompt")
    completions = _named(spans, "llmclient.complete")
    parse_kinds = [s.info.get("kind") for s in parses]

    # an ablation runs each query id once per point, so group by the
    # correct_one span, not by query id
    by_query: Dict[int, List[Span]] = {}
    for s in parses:
        by_query.setdefault(s.parent, []).append(s)
    invoked = [s for s in queries if s.info.get("invoked")]
    changed = 0
    for s in invoked:
        predictions = [p.info.get("prediction") for p in by_query.get(s.index, [])]
        changed += (
            len(predictions) == 2
            and predictions[1] is not None
            and predictions[0] != predictions[1]
        )

    ablations = _named(spans, "evaluate.run_ablation")
    ablation_ids = {s.index for s in ablations}
    top_level = [(s.start, s.end) for s in spans if s.parent is None]
    return {
        "ingest.load_molecules_s": _total(spans, "ingest.load_molecules"),
        "ingest.load_predictions_s": _total(spans, "ingest.load_predictions"),
        "knowledge.load_s": _total(spans, "knowledge.load_database"),
        "knowledge.retrieve_s": _total(spans, "knowledge.retrieve"),
        "prompt.s": _total(spans, "prompt.build_corrector_prompt")
        + _total(spans, "prompt.build_self_correction_prompt"),
        "prompt.context_kept_ratio": _share(
            sum(s.info.get("kept", 0) for s in prompts),
            sum(s.info.get("retrieved", 0) for s in prompts),
        ),
        "llmclient.calls": len(completions),
        "llmclient.errors": sum(1 for s in completions if "error" in s.info),
        "llmclient.attempts_per_call": _share(
            sum(s.info.get("attempts", 0) for s in completions),
            sum(1 for s in completions if "attempts" in s.info),
        ),
        "parse.calls": len(parses),
        "parse.strict_share": _share(parse_kinds.count("strict"), len(parses)),
        "parse.salvage_share": _share(parse_kinds.count("salvage"), len(parses)),
        "parse.error_share": _share(parse_kinds.count("error"), len(parses)),
        "parse.s": _total(spans, "parse.parse_response"),
        "correct.self_s": sum(selfs[s.index] for s in queries),
        "correct.sc_invoked_share": _share(len(invoked), len(queries)),
        "correct.sc_changed_share": _share(changed, len(invoked)),
        "correct.overlap": _share(
            sum(s.duration for s in queries), _total(spans, "correct.correct_split")
        ),
        "evaluate.evaluate_run_s": _total(spans, "evaluate.evaluate_run"),
        "evaluate.ablation_points": sum(
            1 for s in _named(spans, "correct.correct_split") if s.parent in ablation_ids
        ),
        "evaluate.db_builds": len(_named(spans, "knowledge.build_database")),
        "fallback_share": _share(sum(1 for s in queries if s.info.get("fallback")), len(queries)),
        "trace.coverage": _share(union_length(top_level), wall_s),
    }


def pooled_metrics(spans: List[Span]) -> Dict[str, float]:
    """Percentiles over the spans of every traced command together."""

    def durations(name: str, scale: float) -> List[float]:
        return [s.duration * scale for s in _named(spans, name)]

    prompts = _named(spans, "prompt.build_corrector_prompt")
    return {
        "embed.query_us_p50": percentile(durations("embed.embed_molecule", 1e6), 50),
        "knowledge.retrieve_ms_p50": percentile(durations("knowledge.retrieve", 1e3), 50),
        "knowledge.retrieve_ms_p95": percentile(durations("knowledge.retrieve", 1e3), 95),
        "prompt.corrector_us_p50": percentile(durations("prompt.build_corrector_prompt", 1e6), 50),
        "prompt.corrector_us_p95": percentile(durations("prompt.build_corrector_prompt", 1e6), 95),
        "prompt.tokens_p50": percentile([s.info.get("tokens", 0) for s in prompts], 50),
        "llmclient.complete_ms_p50": percentile(durations("llmclient.complete", 1e3), 50),
        "llmclient.complete_ms_p95": percentile(durations("llmclient.complete", 1e3), 95),
        "llmclient.audit_append_us_p50": percentile(durations("llmclient.audit_append", 1e6), 50),
        "transport.post_ms_p50": percentile(durations("transport.post_json", 1e3), 50),
        "transport.post_ms_p95": percentile(durations("transport.post_json", 1e3), 95),
        "correct.query_ms_p50": percentile(durations("correct.correct_one", 1e3), 50),
        "correct.query_ms_p95": percentile(durations("correct.correct_one", 1e3), 95),
    }


def setup_metrics(spans: List[Span]) -> Dict[str, float]:
    """Per-layer numbers of one traced ``build-db``."""
    selfs = self_times(spans)
    builds = _named(spans, "knowledge.build_database")
    return {
        "embed.pool_s": _total(spans, "embed.embed_texts"),
        "embed.pool_bytes": sum(s.info.get("bytes", 0) for s in _named(spans, "embed.embed_texts")),
        "knowledge.build_self_s": sum(selfs[s.index] for s in builds),
        "knowledge.save_s": _total(spans, "knowledge.save_database"),
        "knowledge.db_bytes": sum(
            s.info.get("bytes", 0) for s in _named(spans, "knowledge.save_database")
        ),
    }


def self_time_table(spans: List[Span], commands: int) -> Dict[str, float]:
    """Self time per span name, in seconds per command."""
    selfs = self_times(spans)
    table: Dict[str, float] = {}
    for s in spans:
        table[s.name] = table.get(s.name, 0.0) + selfs[s.index] / commands
    return dict(sorted(table.items(), key=lambda item: -item[1]))


def median_of(rows: List[Dict[str, float]]) -> Dict[str, float]:
    return {key: statistics.median(row[key] for row in rows) for key in rows[0]}
