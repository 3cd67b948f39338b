"""Property test of the prediction-file boundary: a mutated
``valid.jsonl`` or ``test.jsonl`` makes ``build-db`` and ``correct`` exit
0, 1 or 2, never raise, and an exit 2 prints one ``error:`` line.

Each example edits both prediction files of ``test_database_fuzz``'s
workspace with that module's line and value edits (delete, duplicate or
truncate lines; NaN, 1e309, a value of the wrong type, a lone surrogate,
a raw ``\\r``, a raw U+2028, a byte that is not UTF-8 or deep nesting in
place of a value), after giving up to two lines the id of another line of
either file. It runs ``build-db`` and then ``correct`` (echo backend) in
a fresh temporary working directory that also holds the saved database,
so ``correct`` reads its own prediction file whatever ``build-db`` did.
"""

import json

from hypothesis import given, settings
from hypothesis import strategies as st

from test_database_fuzz import (
    LINE_EDITS, VALUE_EDITS, mutate_lines, run_commands, with_value, workspace,
)

FILES = ("valid.jsonl", "test.jsonl")

# (file, line, file, line): the first line takes the second line's id; a
# line wraps around
ID_SWAPS = st.tuples(st.integers(0, 1), st.integers(0, 40), st.integers(0, 1), st.integers(0, 40))


def swap_ids(files, swaps):
    lines = {name: files[name].split(b"\n") for name in FILES}
    for to, i, source, j in swaps:
        target, origin = lines[FILES[to]], lines[FILES[source]]
        i %= len(target) - 1  # the last is the empty text after the final newline
        j %= len(origin) - 1
        mol_id = json.dumps(json.loads(origin[j])["id"]).encode()
        target[i] = with_value(target[i], 0, mol_id)  # a prediction line's first key is its id
    return {**files, **{name: b"\n".join(lines[name]) for name in FILES}}


@settings(max_examples=150, derandomize=True, database=None, deadline=None)
@given(
    st.lists(ID_SWAPS, max_size=2),
    st.lists(VALUE_EDITS, max_size=2),
    st.lists(LINE_EDITS, max_size=2),
    st.lists(VALUE_EDITS, max_size=2),
    st.lists(LINE_EDITS, max_size=2),
)
def test_mutated_predictions_exit_cleanly(swaps, valid_values, valid_lines, test_values,
                                          test_lines):
    files = swap_ids(dict(workspace()), swaps)
    files["valid.jsonl"] = mutate_lines(files["valid.jsonl"], valid_values, valid_lines)
    files["test.jsonl"] = mutate_lines(files["test.jsonl"], test_values, test_lines)
    run_commands(files, ("build-db", "correct"))
