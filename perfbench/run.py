"""Benchmark for molcorr.

Run from the repository root::

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1

The run generates the workload's inputs from the seed and drives molcorr's
real CLI entry point, ``molcorr.cli.main``, in this process, in rounds:
``build-db`` (set-up), then the workload's ``correct`` or ``ablate``
command, closed loop (one caller, the next step starts when the previous
one returns; inside a command ``jobs`` workers each wait for their reply),
until ``--seconds`` have passed. Every command's outputs are checked; a
failed check marks the command's queries as failed.

The last line of standard output is one JSON object with the keys
``correct``, ``attempted``, ``failed`` and ``metrics``. With ``--trace 0``
the metrics are the end-to-end ones, measured without spans; with
``--trace 1`` they are the per-layer ones from spans around molcorr's
public functions, and traced commands alternate with untraced ones so the
tracing overhead is measured too. Lines before it are a readable report.
Machine and run info, and the spans of a traced run, are written under
``.perfbench_work/``. The exit code is 0 when every check passed, 1 when
one failed and 2 when the run could not start.
"""

from __future__ import annotations

import argparse
import contextlib
import ctypes
import gc
import glob
import hashlib
import io
import json
import os
import platform
import resource
import shutil
import statistics
import subprocess
import sys
import threading
import time
from dataclasses import dataclass, field
from pathlib import Path
from typing import Dict, List, Optional, Tuple

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
WORK = ROOT / ".perfbench_work"

sys.path.insert(0, str(HERE))
from checks import check_retrieval, outputs_digest  # noqa: E402
from datagen import DataSpec, generate  # noqa: E402
from spans import Patches  # noqa: E402
from stub_server import StubProcess, stats_delta  # noqa: E402


class SetupError(Exception):
    """The run could not start: inputs, stub server or build-db failed."""


@dataclass(frozen=True)
class Workload:
    data: DataSpec
    config: Dict[str, object]
    command: Tuple[str, ...]
    points: int  # corrected splits per command: 1, or the ablation points
    check: str  # the workload's own output check, see check_outputs
    stub_delay_ms: Optional[float] = None


# Why each workload (also in BENCHMARK.json):
#   retrieval-large-pool: per query, ranking a 22k pool in knowledge.retrieve
#     dominates; set-up is embedding and saving that pool. Half the pool is
#     short SMILES without description, so similarities tie heavily. 100
#     queries: a traced command spends about 0.5 s outside the queries
#     (ingest, loading the database) and about 0.1 s per query in
#     retrieve, so with retrieval 20 times faster it would still be over
#     half of the command.
#   prompt-tight-budget: a 300-entry pool makes retrieval cheap, while k=40
#     against a 400-token budget makes build_corrector_prompt re-render the
#     prompt for every dropped entry. A retrieval-only change should not
#     move it.
#   remote-sc-ablation: the only workload that crosses transport and the
#     llmclient semaphore (to a loopback stub with a fixed delay), parses
#     salvage-only and unparseable replies, and runs evaluate.run_ablation.
WORKLOADS: Dict[str, Workload] = {
    "retrieval-large-pool": Workload(
        data=DataSpec("regression", 20000, 2000, 100, short_share=0.5,
                      long_smiles=(20, 70), description_bytes=150),
        config={"k": 10, "strategy": "topk", "llm_backend": "echo", "jobs": 1,
                "include_description": "true"},
        command=("correct", "--split", "test"),
        points=1,
        check="echo_identity",
    ),
    "prompt-tight-budget": Workload(
        data=DataSpec("classification", 250, 50, 2000, short_share=0.3,
                      long_smiles=(8, 30)),
        config={"k": 40, "strategy": "jump", "token_budget": 400, "llm_backend": "noisy",
                "noisy_p": 0.5, "self_correction": "true", "jobs": 1, "audit_log": "true"},
        command=("correct", "--split", "test"),
        points=1,
        check="consistency_one",
    ),
    "remote-sc-ablation": Workload(
        data=DataSpec("regression", 2000, 200, 250, short_share=0.5,
                      long_smiles=(20, 70)),
        config={"k": 10, "strategy": "topk", "llm_backend": "remote", "llm_model": "stub",
                "jobs": 2},
        command=("ablate", "--axis", "self-correction", "--split", "test"),
        points=2,
        check="fallbacks_match_stub",
        stub_delay_ms=10.0,
    ),
}

# A run is made of rounds, each set-up (build-db) followed by one command,
# so the set-up and command timings sample the same stretch of time and
# both average over the host's speed swings, which last seconds to tens
# of seconds. A round repeats build-db until its builds
# took SETUP_ROUND_SECONDS, since a small pool builds in tens of
# milliseconds. A run has at least MIN_ROUNDS rounds.
MIN_ROUNDS = 3
SETUP_ROUND_SECONDS = 0.5

# queries_per_s is printed on every run but is a per-layer metric, without
# a bound: on a shared 2-vCPU host the machine's speed swings by up to 1.7x
# for minutes at a time, and ten runs in a row spread wider than the
# largest bound allowed. setup_s swings the same way; it has the largest
# bound.
END_TO_END_UNITS = {
    "setup_s": "s",
    "peak_rss_mb": "MB",
    "llm_requests_per_query": "ratio",
    "prompt_tokens_per_query": "tokens",
}


class Taps:
    """The two counters an untraced command needs from inside the program.

    ``ablate`` writes no outcomes file, so the outcomes of every
    ``correct_split`` call are captured from its return value. On mock
    backends there is no server to count requests, so calls of
    ``complete`` and their prompts' token estimates are counted where
    ``correct`` calls it. Both cost one extra call per split or per
    completion.
    """

    def __init__(self, count_completions: bool):
        import molcorr.correct as correct
        import molcorr.evaluate as evaluate

        self.outcomes: List = []
        self.requests = 0
        self.prompt_tokens = 0
        self._lock = threading.Lock()
        self._patches = Patches()
        for module in (correct, evaluate):
            self._patches.swap(module, "correct_split", self._split_tap)
        if count_completions:
            self._patches.swap(correct, "complete", self._complete_tap)

    def _split_tap(self, original):
        def tapped(*args, **kwargs):
            outcomes = original(*args, **kwargs)
            self.outcomes.extend(outcomes)
            return outcomes
        return tapped

    def _complete_tap(self, original):
        def tapped(cfg, prompt, *args, **kwargs):
            with self._lock:
                self.requests += 1
                self.prompt_tokens += prompt.token_estimate
            return original(cfg, prompt, *args, **kwargs)
        return tapped

    def reset(self) -> None:
        self.outcomes, self.requests, self.prompt_tokens = [], 0, 0

    def close(self) -> None:
        self._patches.restore()


@dataclass
class CommandRun:
    wall_s: float
    queries: int
    requests: int
    prompt_tokens: int
    fallbacks: int
    digest: str
    traced: bool
    stub: Optional[dict] = None
    span_range: Tuple[int, int] = (0, 0)
    failed_checks: List[str] = field(default_factory=list)


def run_cli(argv: List[str]) -> Tuple[int, float]:
    from molcorr.cli import main

    gc.collect()  # leave no garbage of the previous command to this one
    with contextlib.redirect_stdout(io.StringIO()):
        start = time.perf_counter()
        rc = main(argv)
        wall = time.perf_counter() - start
    return rc, wall


def write_config(
    path: Path, workload: Workload, files, work: Path, stub: Optional[StubProcess]
) -> None:
    values = {
        "task": workload.data.task,
        "dataset": files.molecules,
        "valid_predictions": files.valid_predictions,
        "test_predictions": files.test_predictions,
        "database_dir": work / "db",
        "output_dir": work / "out",
        **workload.config,
    }
    if stub is not None:
        values["llm_endpoint"] = stub.endpoint
    path.write_text("".join(f"{k}={v}\n" for k, v in values.items()), encoding="utf-8")


def check_outputs(workload: Workload, out_dir: Path, run: CommandRun) -> List[str]:
    """The workload's own check; returns the names of failed checks."""
    if workload.check == "echo_identity":
        split = json.loads((out_dir / "report_test.json").read_text())["splits"]["test"]
        ok = split["baseline"] == split["corrected"]
    elif workload.check == "consistency_one":
        summary = json.loads((out_dir / "summary_test.json").read_text())
        ok = summary["consistency"]["rate"] == 1.0
    else:
        ok = run.fallbacks == run.stub["replies"].get("corrector.unparseable", 0)
    return [] if ok else [workload.check]


def blas_threads() -> Optional[int]:
    import numpy as np

    libs = Path(np.__file__).resolve().parent.parent / "numpy.libs"
    for lib in glob.glob(str(libs / "*openblas*")):
        handle = ctypes.CDLL(lib)
        for symbol in ("scipy_openblas_get_num_threads64_", "openblas_get_num_threads64_",
                       "openblas_get_num_threads"):
            fn = getattr(handle, symbol, None)
            if fn is not None:
                fn.restype = ctypes.c_int
                return int(fn())
    return None


def machine_info(workload: Workload, seed: int) -> dict:
    import numpy as np

    commit = None
    if (ROOT / ".git").exists():
        proc = subprocess.run(["git", "-C", str(ROOT), "rev-parse", "HEAD"],
                              capture_output=True, text=True, timeout=30)
        commit = proc.stdout.strip() or None
    source = hashlib.sha256()
    for path in sorted((SRC / "molcorr").glob("*.py")):
        source.update(path.name.encode() + b"\0" + path.read_bytes())
    return {
        "nproc": os.cpu_count(),
        "python": platform.python_version(),
        "numpy": np.__version__,
        "blas_threads": blas_threads(),
        "git_commit": commit,
        "source_sha256": source.hexdigest(),
        "workload_seed": seed,
        "stub_delay_ms": workload.stub_delay_ms,
    }


class Bench:
    def __init__(self, name: str, seed: int, seconds: int, trace: bool, work: Path):
        self.workload = WORKLOADS[name]
        self.seed = seed
        self.seconds = seconds
        self.trace = trace
        self.work = work
        self.config = work / "bench.cfg"
        self.attempted = 0
        self.failed = 0
        self.failures: List[str] = []
        self.tracer = None
        self.peak_rss_mb = 0.0

    def run(self) -> dict:
        try:
            files = generate(self.workload.data, self.seed, self.work / "data")
            stub = StubProcess(self.workload.stub_delay_ms) if self.workload.stub_delay_ms else None
        except (OSError, RuntimeError) as exc:
            raise SetupError(f"{type(exc).__name__}: {exc}") from exc
        taps = Taps(count_completions=stub is None)
        try:
            write_config(self.config, self.workload, files, self.work, stub)
            setup_walls, runs = self._rounds(taps, stub)
            cfg = self.workload.config
            checked, mismatches = check_retrieval(
                files.molecules, self.workload.data.task, self.work / "db", int(cfg["k"]),
                cfg["strategy"], cfg.get("include_description") == "true", self.seed,
            )
            self._count(checked, mismatches, "retrieval_oracle" if mismatches else None)
        finally:
            taps.close()
            if self.tracer is not None:
                self.tracer.restore()
            if stub is not None:
                stub.close()
        return {"setup_walls": setup_walls, "runs": runs, "peak_rss_mb": self.peak_rss_mb}

    def _count(self, attempted: int, failed: int, failure: Optional[str]) -> None:
        self.attempted += attempted
        self.failed += failed
        if failure:
            self.failures.append(failure)

    def _instrument(self) -> None:
        from layers import instrument
        from spans import Tracer

        if self.tracer is None:
            self.tracer = Tracer()
        instrument(self.tracer)

    def _rounds(
        self, taps: Taps, stub: Optional[StubProcess]
    ) -> Tuple[List[float], List[CommandRun]]:
        """Rounds of set-up and one command until the time is up. With
        --trace 1 only the first round sets up, traced, and the commands
        are alternately untraced and traced."""
        setup_walls: List[float] = []
        runs: List[CommandRun] = []
        start = time.perf_counter()
        while len(runs) < MIN_ROUNDS or time.perf_counter() - start < self.seconds:
            if not runs or not self.trace:
                setup_walls += self._setup()
            runs.append(self._command(taps, stub, runs, traced=self.trace and len(runs) % 2 == 1))
        return setup_walls, runs

    def _setup(self) -> List[float]:
        """build-db from scratch, repeated for SETUP_ROUND_SECONDS; once with --trace 1."""
        walls = [self._build_db()]
        while not self.trace and sum(walls) < SETUP_ROUND_SECONDS:
            walls.append(self._build_db())
        return walls

    def _build_db(self) -> float:
        shutil.rmtree(self.work / "db", ignore_errors=True)
        if self.trace:
            self._instrument()
        try:
            rc, wall = run_cli(["build-db", "--config", str(self.config)])
        except Exception as exc:
            raise SetupError(f"build-db raised {type(exc).__name__}: {exc}") from exc
        finally:
            if self.trace:
                self.tracer.restore()
        if rc != 0:
            raise SetupError(f"build-db exited with {rc}")
        return wall

    def _command(
        self, taps: Taps, stub: Optional[StubProcess], runs: List[CommandRun], traced: bool
    ) -> CommandRun:
        """One ``correct`` or ``ablate`` command, checked."""
        out_dir = self.work / "out"
        argv = [*self.workload.command, "--config", str(self.config)]
        expected = self.workload.data.n_test * self.workload.points
        shutil.rmtree(out_dir, ignore_errors=True)
        taps.reset()
        before = stub.stats() if stub else None
        first_span = len(self.tracer.spans) if traced else 0
        if traced:
            self._instrument()
        rc, wall = run_cli(argv)
        if traced:
            self.tracer.restore()
        delta = stats_delta(stub.stats(), before) if stub else None
        run = CommandRun(
            wall_s=wall,
            queries=len(taps.outcomes),
            requests=delta["requests"] if delta else taps.requests,
            prompt_tokens=delta["prompt_tokens"] if delta else taps.prompt_tokens,
            fallbacks=sum(1 for o in taps.outcomes if o.fallback_used),
            digest=outputs_digest(out_dir, taps.outcomes) if rc == 0 else "",
            traced=traced,
            stub=delta,
            span_range=(first_span, len(self.tracer.spans) if traced else 0),
        )
        if rc != 0:
            run.failed_checks.append(f"exit_code_{rc}")
        else:
            run.failed_checks += check_outputs(self.workload, out_dir, run)
        if run.queries != expected:
            run.failed_checks.append("query_count")
        if runs and run.digest != runs[0].digest:
            run.failed_checks.append("outputs_repeat")
        if not runs:
            # set-up plus one command, as a user runs them; later rounds
            # add only allocator fragmentation, which grows with their
            # number and so with machine speed
            self.peak_rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0
        self._count(expected, expected if run.failed_checks else 0, ",".join(run.failed_checks))
        return run


def queries_per_s(runs: List[CommandRun]) -> float:
    # pooled over the commands, not their median: a run of the large pool
    # fits only three
    return sum(r.queries for r in runs) / sum(r.wall_s for r in runs)


def end_to_end_metrics(result: dict) -> Dict[str, float]:
    runs = result["runs"]
    queries = sum(r.queries for r in runs)
    return {
        "setup_s": statistics.median(result["setup_walls"]),
        "peak_rss_mb": result["peak_rss_mb"],
        "llm_requests_per_query": sum(r.requests for r in runs) / queries,
        "prompt_tokens_per_query": sum(r.prompt_tokens for r in runs) / queries,
    }


def per_layer_metrics(bench: Bench, runs: List[CommandRun]) -> Dict[str, float]:
    from layers import (
        PER_LAYER_UNITS, command_metrics, median_of, pooled_metrics, setup_metrics,
    )

    spans = bench.tracer.spans
    traced = [r for r in runs if r.traced]
    untraced = [r for r in runs if not r.traced]
    setup_end = traced[0].span_range[0]
    per_command = [command_metrics(spans[a:b], r.wall_s) for r in traced for a, b in [r.span_range]]
    metrics = {
        **setup_metrics(spans[:setup_end]),
        **median_of(per_command),
        **pooled_metrics(spans[setup_end:]),
    }
    stubbed = [r.stub for r in traced if r.stub]
    requests = [s["requests"] for s in stubbed]
    metrics["transport.requests"] = statistics.median(requests) if stubbed else 0
    metrics["transport.connections_per_request"] = (
        sum(s["connections"] for s in stubbed) / sum(requests) if stubbed else 0.0
    )
    metrics["queries_per_s"] = queries_per_s(untraced)
    metrics["trace.overhead"] = (
        statistics.median(r.wall_s for r in traced) / statistics.median(r.wall_s for r in untraced)
        - 1.0
    )
    return {name: metrics[name] for name in PER_LAYER_UNITS}


def main(argv: Optional[List[str]] = None) -> int:
    parser = argparse.ArgumentParser(description="molcorr benchmark")
    parser.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=int, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if not (SRC / "molcorr" / "__init__.py").is_file():
        print(f"error: molcorr sources not found under {SRC}", file=sys.stderr)
        return 2
    sys.path.insert(0, str(SRC))
    # the stub is on loopback; never route it through a proxy
    os.environ["NO_PROXY"] = ",".join(filter(None, [os.environ.get("NO_PROXY"), "127.0.0.1"]))

    tag = f"{args.workload}_seed{args.seed}_trace{args.trace}"
    work = WORK / f"{tag}_{os.getpid()}"
    bench = Bench(args.workload, args.seed, args.seconds, bool(args.trace), work)
    try:
        result = bench.run()
    except SetupError as exc:
        print(f"error: the run could not start: {exc}", file=sys.stderr)
        return 2
    finally:
        shutil.rmtree(work, ignore_errors=True)
    runs = result["runs"]
    if args.trace:
        from layers import PER_LAYER_UNITS, self_time_table

        values = per_layer_metrics(bench, runs)
        units = PER_LAYER_UNITS
        traced_commands = sum(1 for r in runs if r.traced)
        setup_end = next(r for r in runs if r.traced).span_range[0]
        self_time = self_time_table(bench.tracer.spans[setup_end:], traced_commands)
        bench.tracer.write(WORK / f"spans_{tag}.jsonl")
    else:
        values = end_to_end_metrics(result)
        units = END_TO_END_UNITS
        self_time = None
    info = {
        "workload": args.workload,
        "machine": machine_info(bench.workload, args.seed),
        "setup_walls_s": result["setup_walls"],
        "commands": [
            {"wall_s": r.wall_s, "queries": r.queries, "traced": r.traced,
             "outputs_sha256": r.digest, "failed_checks": r.failed_checks, "stub": r.stub}
            for r in runs
        ],
        "fallback_share": sum(r.fallbacks for r in runs) / sum(r.queries for r in runs),
        "queries_per_s": queries_per_s([r for r in runs if not r.traced]),
        "failures": bench.failures,
        "self_time_s_per_command": self_time,
    }
    (WORK / f"result_{tag}.json").write_text(
        json.dumps({**info, "metrics": values}, indent=2) + "\n", encoding="utf-8"
    )
    print(f"workload {args.workload}, seed {args.seed}, {len(runs)} commands, "
          f"outputs sha256 {runs[0].digest}")
    print(f"machine {json.dumps(info['machine'], sort_keys=True)}")
    if self_time:
        print("self time per command (s): " + ", ".join(
            f"{k} {v:.4f}" for k, v in list(self_time.items())[:8]))
    for name, value in values.items():
        print(f"  {name:<36} {value:>14.6g} {units[name]}")
    if not args.trace:
        print(f"  {'queries_per_s':<36} {info['queries_per_s']:>14.6g} 1/s")
        print(f"  {'fallback_share':<36} {info['fallback_share']:>14.6g} ratio")
    if bench.failures:
        print(f"failed checks: {', '.join(bench.failures)}")
    correct = bench.failed == 0
    print(json.dumps({
        "correct": correct,
        "attempted": bench.attempted,
        "failed": bench.failed,
        "metrics": {name: {"value": value, "unit": units[name]} for name, value in values.items()},
    }))
    return 0 if correct else 1


if __name__ == "__main__":
    sys.exit(main())
