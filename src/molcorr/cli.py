"""Command-line entry point.

One binary, four subcommands:

  * ``build-db``   embed the train+valid pool into a knowledge database
  * ``correct``    refine a split's predictions through the LLM backend
  * ``predict``    query the LLM directly (ip/ipd/ie/ied/fs prompts)
  * ``ablate``     sweep one config axis and report each point

Every command checks every dataset row, and keeps only the splits it reads.
Configuration comes from a line-oriented ``key=value`` file (``--config``)
with flag overrides winning. Exit codes: 0 success, 1 partial (some
queries fell back), 2 configuration or input error. API keys are only
ever read from the environment variables named in the config.
"""

from __future__ import annotations

import argparse
import functools
import json
import math
import sys
from dataclasses import dataclass, fields, replace
from pathlib import Path
from typing import Callable, Dict, List, Optional, Tuple

from . import correct as correct_mod
from . import evaluate as evaluate_mod
from . import transport
from .embed import EmbedError, LocalHashConfig
from .ingest import (
    CLASSIFICATION,
    REGRESSION,
    DatasetBundle,
    IngestError,
    MoleculeRecord,
    Split,
    TaskSpec,
    load_molecules,
    load_predictions,
    open_utf8,
)
from .knowledge import (
    KnowledgeError,
    STRATEGY_NAMES,
    Random,
    build_database,
    load_database,
    save_database,
)
from .llmclient import (
    AuditLog,
    LlmBackendConfig,
    LlmError,
    MockEcho,
    MockNoisyOracle,
    MockPerfectOracle,
    MockScripted,
    RemoteChatConfig,
    backend_name,
)
from .parse import consistency_rate
from .prompt import PromptError, PromptKind, build_predictor_prompt

EXIT_OK = 0
EXIT_PARTIAL = 1
EXIT_CONFIG = 2


class ConfigError(ValueError):
    pass


_BOOL_TOKENS = {"true": True, "1": True, "yes": True, "false": False, "0": False, "no": False}


def _flag(text: str) -> bool:
    if text.lower() not in _BOOL_TOKENS:
        raise ValueError(f"expected a boolean, got {text!r}")
    return _BOOL_TOKENS[text.lower()]


def _finite(text: str) -> float:
    value = float(text)
    if not math.isfinite(value):
        raise ValueError(f"expected a finite number, got {text!r}")
    return value


def _path(text: str) -> str:
    if not text:  # Path("") is the working directory
        raise ValueError("empty path")
    if "\0" in text:  # open() and mkdir() raise a bare ValueError on it
        raise ValueError(f"{text!r} holds a NUL byte")
    return text


# every config key, with the converter that reads its value
_KEYS: Dict[str, Callable[[str], object]] = {
    **dict.fromkeys(
        ("task", "strategy", "llm_backend", "llm_endpoint", "llm_model", "llm_key_env"), str
    ),
    **dict.fromkeys(
        ("dataset", "valid_predictions", "test_predictions", "database_dir", "output_dir",
         "scripted_responses"),
        _path,
    ),
    **dict.fromkeys(
        ("k", "seed", "token_budget", "jobs", "embedder_dim", "embedder_ngram", "noisy_seed"), int
    ),
    **dict.fromkeys(("regression_trigger_fraction", "llm_temperature", "noisy_p"), _finite),
    **dict.fromkeys(("self_correction", "include_description", "audit_log"), _flag),
}

_RUN_KEYS = tuple(f.name for f in fields(correct_mod.RunConfig) if f.name != "strategy")


class Config(dict):
    """The config keys the user set, converted. An unset key keeps the default
    of the object that uses it; a command that needs it raises ConfigError."""

    def __missing__(self, key):
        raise ConfigError(f"config key {key!r} is required for this command")


def read_config(path: Optional[str], overrides: Dict[str, object]) -> Config:
    """Read a ``key=value`` file (``#`` starts a comment, and a line ends only
    at ``\\n``, ``\\r`` or ``\\r\\n``), then apply the flag overrides given.
    A fault in a line (no ``=``, an unknown key, a rejected value) names that line."""
    config = Config()
    lines = []
    if path:
        if "\0" in path:
            raise ConfigError(f"--config {path!r} holds a NUL byte")
        with open_utf8(path) as fh:
            lines = [line.rstrip("\r\n") for line in fh]
    for lineno, raw in enumerate(lines, 1):
        line = raw.split("#", 1)[0].strip()
        if not line:
            continue
        at = f"{path}:{lineno}:"
        if "=" not in line:
            raise ConfigError(f"{at} expected key=value, got {raw!r}")
        key, text = (part.strip() for part in line.split("=", 1))
        if key not in _KEYS:
            raise ConfigError(f"{at} unknown config key {key!r}")
        try:
            config[key] = _KEYS[key](text)
        except ValueError as exc:
            raise ConfigError(f"{at} config key {key!r}: {exc}") from None
    config.update((key, value) for key, value in overrides.items() if value is not None)
    return config


@dataclass(frozen=True)
class Runtime:
    """The run objects every command starts from, built once from a Config."""

    config: Config
    task: TaskSpec
    embedder: LocalHashConfig
    llm: LlmBackendConfig
    run: correct_mod.RunConfig


_REJECTED = (LlmError, EmbedError, correct_mod.CorrectionError)


def _build(cls, config: Config, **keys: str):
    """``cls(param=config[key], ...)`` over the keys the user set. A value
    ``cls`` rejects is a ConfigError naming the keys whose value alone,
    with every other field at its default, makes ``cls`` raise; when no
    single key does, it names every key set."""
    given = {param: key for param, key in keys.items() if key in config}
    try:
        return cls(**{param: config[key] for param, key in given.items()})
    except _REJECTED as exc:
        blamed = [key for param, key in given.items() if _rejects(cls, param, config[key])]
        raise ConfigError(f"config key(s) {', '.join(blamed or given.values())}: {exc}") from None


def _rejects(cls, param: str, value) -> bool:
    # the probe sets one field and leaves the rest at their defaults; a
    # class with a required field cannot be built that way (TypeError),
    # so it blames no single key and the caller names every key set
    try:
        cls(**{param: value})
    except _REJECTED:
        return True
    except TypeError:
        return False
    return False


def _llm(config: Config) -> LlmBackendConfig:
    name = config.get("llm_backend", "echo")
    if name == "echo":
        return MockEcho()
    if name == "perfect":
        return MockPerfectOracle()
    if name == "noisy":
        return _build(MockNoisyOracle, config, p="noisy_p", seed="noisy_seed")
    if name == "scripted":
        if not config.get("scripted_responses"):
            raise ConfigError("scripted backend needs scripted_responses (a JSON file)")
        with open_utf8(config["scripted_responses"]) as fh:
            text = fh.read()
        try:
            return MockScripted(responses=json.loads(text))
        except (json.JSONDecodeError, RecursionError, LlmError) as exc:
            raise ConfigError(f"config key 'scripted_responses': {exc}") from None
    if name == "remote":
        if not config.get("llm_endpoint") or not config.get("llm_model"):
            raise ConfigError("remote backend needs llm_endpoint and llm_model")
        return _build(
            RemoteChatConfig, config, endpoint="llm_endpoint", model="llm_model",
            key_env="llm_key_env", temperature="llm_temperature",
        )
    raise ConfigError(f"unknown llm backend {name!r}")


def build_runtime(config: Config) -> Runtime:
    """Build and validate the task, embedder, LLM backend and run config,
    so a config fault stops every command before it starts."""
    tasks = {"classification": CLASSIFICATION, "binary_classification": CLASSIFICATION,
             "regression": REGRESSION}
    task = config.get("task", "classification")
    if task not in tasks:
        raise ConfigError(f"unknown task {task!r}")
    run = _build(correct_mod.RunConfig, config, **{key: key for key in _RUN_KEYS})
    if "strategy" in config:
        cls = STRATEGY_NAMES.get(config["strategy"])
        if cls is None:
            raise ConfigError(f"unknown strategy {config['strategy']!r}")
        run = replace(run, strategy=Random(seed=run.seed) if cls is Random else cls())
    embedder = _build(LocalHashConfig, config, dim="embedder_dim", ngram="embedder_ngram")
    return Runtime(config, tasks[task], embedder, _llm(config), run)


def _split_records(bundle: DatasetBundle, split: Split) -> Tuple[MoleculeRecord, ...]:
    """The split's records. A fully labeled classification split is scored
    by ROC-AUC, so one with a single class fails here, before any query."""
    records = bundle.split_records(split)
    if not records:
        raise ConfigError(f"split {split.value} is empty")
    labels = {rec.label for rec in records}
    if bundle.task.is_classification and len(labels) == 1 and None not in labels:
        raise ConfigError("need at least one positive and one negative label")
    return records


def _check_baseline(
    task: TaskSpec, records: Tuple[MoleculeRecord, ...], primaries: Dict[str, float]
) -> None:
    """A fully labeled split whose base predictions score 0 fails here, before
    any query, with the error its report would raise."""
    if all(rec.label is not None for rec in records):
        truths = [rec.label for rec in records]
        baseline = evaluate_mod.score(task, [primaries[rec.id] for rec in records], truths)
        evaluate_mod.improvement_pct(baseline.value, 0.0)


def _write_json(path: Path, record: Dict) -> None:
    path.write_text(json.dumps(record, indent=2, sort_keys=True) + "\n", encoding="utf-8")


def _output_dir(rt: Runtime) -> Path:
    out_dir = Path(rt.config.get("output_dir", "."))
    out_dir.mkdir(parents=True, exist_ok=True)
    return out_dir


def _audit_log(rt: Runtime, out_dir: Path, stem: str) -> Optional[AuditLog]:
    """The ``audit_<stem>.jsonl`` log, when ``audit_log`` is set."""
    return AuditLog(out_dir / f"audit_{stem}.jsonl") if rt.config.get("audit_log") else None


def cmd_build_db(rt: Runtime) -> int:
    db_dir = Path(rt.config["database_dir"])
    bundle = load_molecules(rt.config["dataset"], rt.task, (Split.TRAIN, Split.VALID))
    val_preds = load_predictions(rt.config["valid_predictions"], bundle, Split.VALID)
    db = build_database(bundle, val_preds, rt.embedder, rt.run.include_description)
    save_database(db, db_dir)
    print(  # load_predictions covers the valid split exactly
        f"built database: {len(db)} entries "
        f"(train {len(db) - len(val_preds)}, valid {len(val_preds)}), "
        f"dim {db.dim}, fingerprint {db.fingerprint}"
    )
    return EXIT_OK


def cmd_correct(rt: Runtime, split: Split) -> int:
    bundle = load_molecules(rt.config["dataset"], rt.task, (split,))
    records = _split_records(bundle, split)
    preds = load_predictions(rt.config[f"{split.value}_predictions"], bundle, split)
    _check_baseline(rt.task, records, preds)
    db = load_database(rt.config["database_dir"])
    out_dir = _output_dir(rt)
    audit = _audit_log(rt, out_dir, split.value)
    outcomes = correct_mod.correct_split(
        split, bundle, preds, db, rt.run, rt.embedder, rt.llm, audit=audit
    )
    correct_mod.write_outcomes(outcomes, out_dir / f"outcomes_{split.value}.jsonl")
    summary = correct_mod.run_summary(outcomes, rt.run, rt.embedder, rt.llm)
    _write_json(out_dir / f"summary_{split.value}.json", summary)
    if all(rec.label is not None for rec in records):
        report = evaluate_mod.evaluate_run(bundle, split, outcomes, summary)
        _write_json(out_dir / f"report_{split.value}.json", report)
        print(evaluate_mod.report_table(report))
    else:
        print(f"corrected {len(outcomes)} queries (no labels; metrics skipped)")
    fallbacks = summary["fallbacks"]
    if fallbacks:
        print(f"warning: {fallbacks} query(ies) fell back to the base prediction")
        return EXIT_PARTIAL
    return EXIT_OK


def cmd_predict(rt: Runtime, kind: PromptKind, split: Split, shots: int) -> int:
    splits = (split, Split.TRAIN) if kind is PromptKind.FEW_SHOT else (split,)
    bundle = load_molecules(rt.config["dataset"], rt.task, splits)
    records = _split_records(bundle, split)
    examples: Tuple[MoleculeRecord, ...] = ()
    if kind is PromptKind.FEW_SHOT:
        train = bundle.split_records(Split.TRAIN)
        if shots < 1 or shots > len(train):
            raise ConfigError(f"--shots must be between 1 and the train size ({len(train)})")
        examples = train[:shots]
    primaries: Dict[str, float] = {}
    if isinstance(rt.llm, (MockEcho, MockNoisyOracle)):
        key = f"{split.value}_predictions"
        if key not in rt.config:
            raise ConfigError(
                f"the {backend_name(rt.llm)} backend answers from the base model's predictions; "
                + (f"there is no {key}: base predictions exist only for the valid and test splits"
                   if split is Split.TRAIN else f"set {key} to predict on the {split.value} split")
            )
        primaries = load_predictions(rt.config[key], bundle, split)
    # every prompt is rendered before the first request, so a prompt fault sends nothing
    queries = [(rec, build_predictor_prompt(kind, rec, rt.task, examples)) for rec in records]
    out_dir = _output_dir(rt)
    stem = f"predict_{kind.value}{shots if kind is PromptKind.FEW_SHOT else ''}_{split.value}"
    answers = correct_mod.run_queries(
        lambda rec, prompt, log: correct_mod.ask(
            rt.llm, prompt, rec, primaries.get(rec.id), rt.task, log,
            "query %s: backend error, no prediction (%s)",
        ),
        queries, rt.run.jobs, _audit_log(rt, out_dir, stem),
    )
    values = [None if a is None else correct_mod.final_value(rt.task, a)[0] for a in answers]
    with (out_dir / f"{stem}.jsonl").open("w", encoding="utf-8") as fh:
        for rec, answer, value in zip(records, answers, values):
            row = {"id": rec.id, "prediction": value, "strict": bool(answer and answer.strict)}
            fh.write(json.dumps(row, separators=(",", ":")) + "\n")
    failures = values.count(None)
    result = {
        "prompt": kind.value,
        "split": split.value,
        "queries": len(records),
        "failures": failures,
        "consistency": consistency_rate(answers).to_dict(),
    }
    scored = [(v, rec.label) for v, rec in zip(values, records) if v is not None]
    # ROC-AUC needs both classes among the answered rows, RMSE one answered row
    scorable = len({label for _, label in scored}) >= (2 if rt.task.is_classification else 1)
    if scorable and all(rec.label is not None for rec in records):
        metric = evaluate_mod.score(rt.task, [v for v, _ in scored], [t for _, t in scored])
        result["metric"] = {"name": metric.metric.value, "value": metric.value, "n": metric.n}
        print(f"{kind.value} on {split.value}: {metric.metric.value} = {metric.value:.4f}")
    else:
        print(f"{kind.value} on {split.value}: {len(records)} queries, no metric")
    _write_json(out_dir / f"{stem}.json", result)
    return EXIT_PARTIAL if failures else EXIT_OK


def cmd_ablate(
    rt: Runtime, axis_name: str, split: Split, k_values: Tuple[int, ...], dims: Tuple[int, ...]
) -> int:
    bundle = load_molecules(rt.config["dataset"], rt.task, (Split.TRAIN, Split.VALID, split))
    # every point is scored, so a split without labels fails before the first query
    records = _split_records(bundle, split)
    for rec in records:
        if rec.label is None:
            raise ConfigError(f"record {rec.id!r} has no label; cannot evaluate")
    val_preds = load_predictions(rt.config["valid_predictions"], bundle, Split.VALID)
    split_preds = (
        val_preds if split is Split.VALID
        else load_predictions(rt.config[f"{split.value}_predictions"], bundle, split)
    )
    _check_baseline(rt.task, records, split_preds)
    values: Tuple = ()
    if axis_name == "k":
        if not k_values:
            raise ConfigError("--k-values is required for the k axis")
        values = k_values
    elif axis_name == "embedder":
        if not dims:
            raise ConfigError("--dims is required for the embedder axis")
        values = tuple(replace(rt.embedder, dim=d) for d in dims)
    points = evaluate_mod.ablation_points(axis_name, rt.run, rt.embedder, values)
    reports = evaluate_mod.run_ablation(points, bundle, val_preds, split, split_preds, rt.llm)
    out_dir = _output_dir(rt)
    tables = []
    for i, report in enumerate(reports):
        _write_json(out_dir / f"ablation_{axis_name}_{i}.json", report)
        point = f"{report['config']['axis']}={report['config']['value']}"
        tables.append(f"[{point}]\n{evaluate_mod.report_table(report)}")
    combined = "\n\n".join(tables) + "\n"
    (out_dir / f"ablation_{axis_name}.txt").write_text(combined, encoding="utf-8")
    print(combined, end="")
    return EXIT_OK


def _int_list(text: str) -> Tuple[int, ...]:
    return tuple(int(v) for v in text.split(",") if v.strip())


@functools.cache  # one parser per process; parse_args leaves it as it found it
def make_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="molcorr",
        description="Refine ML molecular property predictions with an LLM backend.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    common = argparse.ArgumentParser(add_help=False)  # every subcommand's options
    common.add_argument("--config", help="key=value configuration file")
    common.add_argument("--k", type=int)
    common.add_argument("--strategy", choices=STRATEGY_NAMES)
    common.add_argument("--seed", type=int)
    common.add_argument(
        "--backend", dest="llm_backend", metavar="BACKEND",
        help="llm backend name (echo|perfect|noisy|scripted|remote)",
    )
    common.add_argument("--jobs", type=int)
    common.add_argument(
        "--no-self-correction", dest="self_correction", action="store_false", default=None
    )

    sub.add_parser("build-db", parents=[common], help="build the knowledge database")

    p_correct = sub.add_parser("correct", parents=[common], help="correct a split's predictions")
    p_correct.add_argument("--split", choices=["valid", "test"], default="test")

    p_predict = sub.add_parser(
        "predict", parents=[common], help="query the LLM as a direct predictor"
    )
    p_predict.add_argument("--split", choices=["train", "valid", "test"], default="test")
    predictor_kinds = sorted(set(PromptKind) - {PromptKind.CORRECTOR, PromptKind.SELF_CORRECTION})
    p_predict.add_argument("--prompt", choices=[k.value for k in predictor_kinds], default="ip")
    p_predict.add_argument("--shots", type=int, default=3)

    p_ablate = sub.add_parser("ablate", parents=[common], help="sweep one configuration axis")
    p_ablate.add_argument("--split", choices=["valid", "test"], default="test")
    p_ablate.add_argument("--axis", choices=evaluate_mod.ABLATION_AXES, required=True)
    p_ablate.add_argument("--k-values", type=_int_list, default="")
    p_ablate.add_argument("--dims", type=_int_list, default="")
    return parser


def main(argv: Optional[List[str]] = None) -> int:
    args = make_parser().parse_args(argv)
    # a flag's dest is the config key it overrides
    overrides = {key: value for key, value in vars(args).items() if key in _KEYS}
    try:
        rt = build_runtime(read_config(args.config, overrides))
        if args.command == "build-db":
            return cmd_build_db(rt)
        if args.command == "correct":
            return cmd_correct(rt, Split(args.split))
        if args.command == "predict":
            return cmd_predict(rt, PromptKind(args.prompt), Split(args.split), args.shots)
        return cmd_ablate(rt, args.axis, Split(args.split), args.k_values, args.dims)
    except (
        ConfigError,
        IngestError,
        KnowledgeError,
        PromptError,
        EmbedError,
        transport.TransportError,
        correct_mod.CorrectionError,
        evaluate_mod.EvalError,
        OSError,
    ) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_CONFIG


if __name__ == "__main__":
    sys.exit(main())
