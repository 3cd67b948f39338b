"""Property test of the config file boundary: a mutated config file makes
``build-db`` and ``correct`` exit 0, 1 or 2, never raise, and an exit 2
prints one ``error:`` line.

Safety of the mutations: every path in the base config is one relative
name in a fresh temporary working directory, no token holds a ``/`` or a
``.``, and a mutation inserts or cuts but never replaces a byte, so no
path can point outside that directory. Numbers stay at 99 or below: the
base values are small and a token is never inserted next to a digit. The
remote chat backend's requests fail at once, with no backoff slept, and
the scripted backend has replies for half the test split, so both fall
back.
"""

import contextlib
import functools
import io
import json
import os
import tempfile
from pathlib import Path
from unittest import mock

from hypothesis import given, settings
from hypothesis import strategies as st

from molcorr import cli, transport
from molcorr.ingest import REGRESSION, Split
from conftest import make_bundle, make_predictions, write_dataset_csv, write_predictions_jsonl

BASE_LINES = (
    "task=regression",
    "dataset=dataset.csv",
    "valid_predictions=valid.jsonl",
    "test_predictions=test.jsonl",
    "database_dir=db",
    "output_dir=out",
    "scripted_responses=scripted.json",
    "strategy=topk",
    "embedder_dim=32",
    "embedder_ngram=3",
    "k=5",
    "seed=7",
    "jobs=2",
    "self_correction=true",
    "include_description=false",
    "audit_log=true",
    "regression_trigger_fraction=0.2",
    "llm_endpoint=http://127.0.0.1:9/v1/chat",
    "llm_model=m",
    "llm_temperature=0",
    "noisy_p=0.5",
    "noisy_seed=3",
)

TOKENS = (
    "\0", "NaN", "1e309", "-1", "0", "99", "", "\r", "\u2028", " ", "=", "#", "remote",
    "embedder_backend", "embedder_endpoint", "embedder_model", "embedder_key_env",
)

# (operation, line, position); a line or position wraps around
LINE_EDITS = st.lists(
    st.tuples(
        st.sampled_from(("delete", "duplicate", "truncate")),
        st.integers(0, len(BASE_LINES)),
        st.integers(0, 64),
    ),
    max_size=3,
)

# (line, into the value?, position, token); the line after the last is a
# new line "="
INSERTIONS = st.lists(
    st.tuples(
        st.integers(0, len(BASE_LINES) + 1),
        st.booleans(),
        st.integers(0, 64),
        st.sampled_from(TOKENS),
    ),
    min_size=1,
    max_size=3,
)


def mutate(lines, edits, insertions):
    lines = list(lines)
    for op, i, pos in edits:
        i %= len(lines)
        if op == "delete":
            del lines[i]
        elif op == "duplicate":
            lines.insert(i, lines[i])
        else:
            lines[i] = lines[i][: pos % (len(lines[i]) + 1)]
    for i, into_value, pos, token in insertions:
        if i >= len(lines):
            lines.append("=")
            i = len(lines) - 1
        line = lines[i]
        eq = line.find("=")  # the key ends there, the value starts after it
        span = range(eq + 1, len(line) + 1) if into_value or eq < 0 else range(eq + 1)
        # never next to a digit, so no number grows past the base's
        free = [p for p in span if not (line[p - 1 : p].isdigit() or line[p : p + 1].isdigit())]
        if free:
            p = free[pos % len(free)]
            lines[i] = line[:p] + token + line[p:]
    return lines


@functools.cache
def workspace():
    """The dataset, predictions and scripted replies, as file name -> bytes."""
    bundle = make_bundle(REGRESSION, n_train=20, n_valid=8, n_test=8, seed=3)
    with tempfile.TemporaryDirectory() as tmp:
        root = Path(tmp)
        write_dataset_csv(bundle, root / "dataset.csv")
        for split, seed in ((Split.VALID, 4), (Split.TEST, 5)):
            write_predictions_jsonl(
                make_predictions(bundle, split, seed=seed), root / f"{split.value}.jsonl"
            )
        test_ids = [rec.id for rec in bundle.split_records(Split.TEST)]
        replies = {mol_id: "Prediction: 1.0" for mol_id in test_ids[::2]}
        (root / "scripted.json").write_text(json.dumps(replies))
        return {path.name: path.read_bytes() for path in root.iterdir()}


def refuse(*args, **kwargs):
    raise transport.TransportError("no request leaves this test")


@settings(max_examples=200, derandomize=True, database=None, deadline=None)
@given(st.sampled_from(("echo", "noisy", "scripted", "remote")), LINE_EDITS, INSERTIONS)
def test_mutated_config_exits_cleanly(backend, edits, insertions):
    lines = mutate(BASE_LINES + (f"llm_backend={backend}",), edits, insertions)
    cwd = os.getcwd()
    with tempfile.TemporaryDirectory() as tmp, mock.patch.object(transport, "post_json", refuse):
        os.chdir(tmp)
        try:
            for name, data in workspace().items():
                Path(name).write_bytes(data)
            Path("molcorr.cfg").write_text("\n".join(lines) + "\n", encoding="utf-8")
            for command in ("build-db", "correct"):
                err = io.StringIO()
                with contextlib.redirect_stderr(err), contextlib.redirect_stdout(io.StringIO()):
                    code = cli.main([command, "--config", "molcorr.cfg"])
                assert code in (0, 1, 2), (command, lines)
                if code == 2:
                    message = err.getvalue()
                    assert message.startswith("error: "), (command, lines, message)
                    assert message.count("\n") == 1 and message.endswith("\n"), message
        finally:
            os.chdir(cwd)
