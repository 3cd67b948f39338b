"""Property test of the stored database boundary: a mutated
``metadata.jsonl`` or ``embeddings.lcdb`` makes ``correct`` exit 0, 1 or
2, never raise, and an exit 2 prints one ``error:`` line; ``build-db``
then exits 0.

``correct`` loads the whole database; ``build-db`` replaces it without
reading it. Each example writes a saved database, mutated, into a fresh
temporary working directory and runs ``correct`` (echo backend) and then
``build-db`` there. The metadata mutations delete, duplicate or truncate
lines, and put a value JSON does not allow (NaN, 1e309), a value of the
wrong type, a lone surrogate, a raw ``\\r``, a raw U+2028, a byte that is
not UTF-8 or deep nesting in place of one of a line's values. The sidecar
mutations truncate it, extend it, or write a NaN or an infinity into its
payload.
"""

import contextlib
import functools
import io
import json
import os
import struct
import tempfile
from pathlib import Path

from hypothesis import given, settings
from hypothesis import strategies as st

from molcorr import cli
from molcorr.ingest import REGRESSION, Split
from molcorr.knowledge import METADATA_FILE, SIDECAR_FILE
from conftest import make_bundle, make_predictions, write_dataset_csv, write_predictions_jsonl

CONFIG = (
    "task=regression\ndataset=dataset.csv\nvalid_predictions=valid.jsonl\n"
    "test_predictions=test.jsonl\ndatabase_dir=db\noutput_dir=out\nembedder_dim=16\nk=3\n"
)

# the text that replaces a value, under the name a falsifying example prints
VALUES = {
    "nan": b"NaN", "overflow": b"1e309", "list": b"[]", "object": b"{}",
    "lone-surrogate": b'"\\ud800"', "raw-cr": b'"a\rb"', "raw-u2028": '"a\u2028b"'.encode(),
    "non-utf8": b'"a\xffb"', "deep-nesting": b"[" * 100_000,
}

# (operation, line, position); a line or position wraps around
LINE_EDITS = st.tuples(
    st.sampled_from(("delete", "duplicate", "truncate")), st.integers(0, 40), st.integers(0, 200)
)

# (line, key, value): the key's value on that line becomes the value's text
VALUE_EDITS = st.tuples(st.integers(0, 40), st.integers(0, 3), st.sampled_from(list(VALUES)))

# (operation, size or float index, float value)
SIDECAR_EDITS = st.tuples(
    st.sampled_from(("truncate", "extend", "float")),
    st.integers(0, 600),
    st.sampled_from((float("nan"), float("inf"), float("-inf"), 0.5)),
)


@functools.cache
def workspace():
    """The input files and a database ``build-db`` saved from them, as
    relative path -> bytes."""
    bundle = make_bundle(REGRESSION, n_train=12, n_valid=6, n_test=4, seed=5)
    cwd = os.getcwd()
    with tempfile.TemporaryDirectory() as tmp:
        os.chdir(tmp)
        try:
            write_dataset_csv(bundle, Path("dataset.csv"))
            for split, seed in ((Split.VALID, 6), (Split.TEST, 7)):
                write_predictions_jsonl(
                    make_predictions(bundle, split, seed=seed), Path(f"{split.value}.jsonl")
                )
            Path("molcorr.cfg").write_text(CONFIG)
            with contextlib.redirect_stdout(io.StringIO()):
                assert cli.main(["build-db", "--config", "molcorr.cfg"]) == 0
            names = ["dataset.csv", "valid.jsonl", "test.jsonl", "molcorr.cfg",
                     f"db/{METADATA_FILE}", f"db/{SIDECAR_FILE}"]
            return {name: Path(name).read_bytes() for name in names}
        finally:
            os.chdir(cwd)


def with_value(line, key, value):
    """A metadata line (a JSON object) with its ``key``-th key's value
    replaced by the text ``value``."""
    record = json.loads(line)
    name = list(record)[key % len(record)]
    return b"{" + b",".join(
        json.dumps(k).encode() + b":" + (value if k == name else json.dumps(v).encode())
        for k, v in record.items()
    ) + b"}"


def mutate_lines(data, value_edits, line_edits):
    """JSON-lines ``data`` with each value edit, then each line edit, applied."""
    saved = data.split(b"\n")  # the last is the empty text after the final newline
    lines = list(saved)
    for i, key, value in value_edits:  # a later edit of the same line replaces an earlier one
        i %= len(saved) - 1
        lines[i] = with_value(saved[i], key, VALUES[value])
    for op, i, pos in line_edits:
        i %= len(lines)
        if op == "delete":
            del lines[i]
        elif op == "duplicate":
            lines.insert(i, lines[i])
        else:
            lines[i] = lines[i][: pos % (len(lines[i]) + 1)]
    return b"\n".join(lines)


def mutate_sidecar(data, edits):
    for op, n, value in edits:
        if op == "truncate":
            data = data[: n % (len(data) + 1)]
        elif op == "extend":
            data += bytes(n % 9 + 1)
        elif len(data) >= 16:  # a payload float after the magic, dim and count
            at = 12 + 4 * (n % ((len(data) - 12) // 4))
            data = data[:at] + struct.pack("<f", value) + data[at + 4 :]
    return data


def run_commands(files, commands):
    """Each command's exit code, run in process in that order in a fresh
    working directory holding ``files``, once each is checked: 0, 1 or 2,
    and on 2 one ``error:`` line on stderr."""
    codes = []
    cwd = os.getcwd()
    with tempfile.TemporaryDirectory() as tmp:
        os.chdir(tmp)
        try:
            Path("db").mkdir()
            for name, data in files.items():
                Path(name).write_bytes(data)
            for command in commands:
                err = io.StringIO()
                with contextlib.redirect_stderr(err), contextlib.redirect_stdout(io.StringIO()):
                    code = cli.main([command, "--config", "molcorr.cfg"])
                assert code in (0, 1, 2), command
                if code == 2:
                    message = err.getvalue()
                    assert message.startswith("error: "), (command, message)
                    assert message.count("\n") == 1 and message.endswith("\n"), message
                codes.append(code)
        finally:
            os.chdir(cwd)
    return codes


@settings(max_examples=150, derandomize=True, database=None, deadline=None)
@given(
    st.lists(VALUE_EDITS, max_size=2),
    st.lists(LINE_EDITS, max_size=2),
    st.lists(SIDECAR_EDITS, max_size=2),
)
def test_mutated_database_exits_cleanly(value_edits, line_edits, sidecar_edits):
    files = dict(workspace())
    meta, sidecar = f"db/{METADATA_FILE}", f"db/{SIDECAR_FILE}"
    files[meta] = mutate_lines(files[meta], value_edits, line_edits)
    files[sidecar] = mutate_sidecar(files[sidecar], sidecar_edits)
    assert run_commands(files, ("correct", "build-db"))[1] == 0
