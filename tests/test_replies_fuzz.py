"""Property tests of the LLM reply boundaries: a mutated scripted
responses file, or a chat HTTP reply of any status and a mutated body,
makes ``build-db`` and ``correct`` exit 0, 1 or 2, never raise, and an
exit 2 prints one ``error:`` line.

Both run in a fresh temporary working directory holding
``test_database_fuzz``'s workspace, with the audit log on. The scripted
file maps each of the four test ids to an answer text; it is mutated
with that module's line and value edits (delete, duplicate or truncate
its line; NaN, 1e309, a value of the wrong type, a lone surrogate, a raw
``\\r``, a raw U+2028, a byte that is not UTF-8 or deep nesting in place
of a response). The chat replies come from a ``transport.send`` that
returns them in turn (the last one repeats), with the backoff sleep a
no-op, so nothing leaves the process: each is a status, and a valid chat
body with one of those values at ``content``, ``choices`` replaced by
``[]``, ``{}`` or ``null``, bytes that are not UTF-8 inserted, or the
body truncated.
"""

import json
from unittest import mock

from hypothesis import given, settings
from hypothesis import strategies as st

from molcorr import transport
from molcorr.ingest import REGRESSION
from molcorr.parse import render_answer
from test_database_fuzz import (
    CONFIG, LINE_EDITS, VALUE_EDITS, VALUES, mutate_lines, run_commands, workspace,
)

# the answer texts a response starts from, under the name a falsifying example prints
ANSWERS = {
    "strict": render_answer(REGRESSION, 0.5, None, "Close to the retrieved labels."),
    "nan": "Prediction: NaN", "overflow": "Prediction: 1e309", "empty": "",
    "two-predictions": "Prediction: 1.0\nPrediction: 2.0", "prose": "About one half.",
}

SCRIPTED_CONFIG = CONFIG + (
    "audit_log=true\nllm_backend=scripted\nscripted_responses=scripted.json\n"
)
REMOTE_CONFIG = CONFIG + (
    "audit_log=true\nllm_backend=remote\nllm_endpoint=http://127.0.0.1:9/v1/chat\nllm_model=m\n"
)

# (status, content value or None, choices text or None, non-UTF-8 position or
# None, truncation or None); a position wraps around
REPLIES = st.tuples(
    st.sampled_from((200, 204, 301, 404, 429, 500)),
    st.one_of(st.none(), st.sampled_from(list(VALUES))),
    st.one_of(st.none(), st.sampled_from((b"[]", b"{}", b"null"))),
    st.one_of(st.none(), st.integers(0, 400)),
    st.one_of(st.none(), st.integers(0, 400)),
)


def reply(answer, status, content, choices, junk_at, cut):
    """A chat reply: the valid body around ``answer``, then each edit given."""
    content = VALUES[content] if content else json.dumps(ANSWERS[answer]).encode()
    if choices is None:
        choices = b'[{"message":{"role":"assistant","content":' + content + b"}}]"
    body = b'{"choices":' + choices + b"}"
    if junk_at is not None:
        junk_at %= len(body) + 1
        body = body[:junk_at] + b"\xff\xfe" + body[junk_at:]
    if cut is not None:
        body = body[: cut % (len(body) + 1)]
    return transport.Reply(status, body)


@settings(max_examples=150, derandomize=True, database=None, deadline=None)
@given(
    st.lists(st.sampled_from(list(ANSWERS)), min_size=4, max_size=4),
    st.lists(VALUE_EDITS, max_size=1), st.lists(LINE_EDITS, max_size=1),
)
def test_mutated_scripted_responses_exit_cleanly(answers, value_edits, line_edits):
    files = {**workspace(), "molcorr.cfg": SCRIPTED_CONFIG.encode()}
    test_ids = [json.loads(line)["id"] for line in files["test.jsonl"].splitlines()]
    responses = {mol_id: ANSWERS[answer] for mol_id, answer in zip(test_ids, answers)}
    files["scripted.json"] = mutate_lines(
        json.dumps(responses).encode() + b"\n", value_edits, line_edits
    )
    run_commands(files, ("build-db", "correct"))


@settings(max_examples=150, derandomize=True, database=None, deadline=None)
@given(st.sampled_from(list(ANSWERS)), st.lists(REPLIES, min_size=1, max_size=3))
def test_chat_replies_exit_cleanly(answer, replies):
    sent = []

    def send(url, **kwargs):
        sent.append(url)
        return reply(answer, *replies[min(len(sent), len(replies)) - 1])

    files = {**workspace(), "molcorr.cfg": REMOTE_CONFIG.encode()}
    with mock.patch.object(transport, "send", send), \
            mock.patch.object(transport.time, "sleep", lambda seconds: None):
        run_commands(files, ("correct",))
    assert sent
