from itertools import combinations

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from molcorr.ingest import (
    CLASSIFICATION,
    REGRESSION,
    IngestError,
    Metric,
    Split,
    TaskKind,
    TaskSpec,
    load_molecules,
    load_predictions,
)
from molcorr.llmclient import LlmError, MockEcho, MockPerfectOracle, QueryMeta, complete
from molcorr.prompt import PromptBundle, PromptKind
from conftest import make_bundle, make_predictions, write_dataset_csv, write_predictions_jsonl

HEADER = "id,smiles,description,label,split\n"


def write_csv(path, rows):
    path.write_text(HEADER + "".join(r + "\n" for r in rows), encoding="utf-8")
    return path


def test_metric_follows_task_kind():
    assert TaskSpec(TaskKind.BINARY_CLASSIFICATION).metric is Metric.ROC_AUC
    assert TaskSpec(TaskKind.REGRESSION).metric is Metric.RMSE


def test_single_row_minimal_file(tmp_path):
    path = write_csv(tmp_path / "d.csv", ["m1,CCO,,1,train"])
    bundle = load_molecules(path, CLASSIFICATION)
    assert len(bundle.records) == 1
    rec = bundle.records[0]
    assert rec.split is Split.TRAIN
    assert rec.label == 1.0
    assert rec.description is None
    assert bundle.counts[Split.TRAIN] == 1


def test_molbace_shaped_counts(tmp_path):
    rows = []
    for i in range(1210):
        rows.append(f"t{i},C{'C' * (i % 7)}O,,1,train" if i % 2 else f"t{i},N{'C' * (i % 7)}O,,0,train")
    for i in range(151):
        rows.append(f"v{i},CC{'N' * (i % 5)},,{i % 2},valid")
    for i in range(152):
        rows.append(f"s{i},OC{'C' * (i % 5)},,{i % 2},test")
    path = write_csv(tmp_path / "bace.csv", rows)
    bundle = load_molecules(path, CLASSIFICATION)
    assert bundle.counts == {Split.TRAIN: 1210, Split.VALID: 151, Split.TEST: 152}
    assert len(bundle.records) == 1513


def test_unknown_split_token(tmp_path):
    path = write_csv(tmp_path / "d.csv", ["m1,CCO,,1,dev"])
    with pytest.raises(IngestError, match="unknown split 'dev'"):
        load_molecules(path, CLASSIFICATION)


def test_duplicate_id(tmp_path):
    path = write_csv(tmp_path / "d.csv", ["m1,CCO,,1,train", "m1,CCN,,0,train"])
    with pytest.raises(IngestError, match="duplicate id 'm1'"):
        load_molecules(path, CLASSIFICATION)


def test_missing_required_label(tmp_path):
    path = write_csv(tmp_path / "d.csv", ["m1,CCO,,,valid"])
    with pytest.raises(IngestError, match="in split valid has no label"):
        load_molecules(path, CLASSIFICATION)


def test_test_split_label_optional(tmp_path):
    path = write_csv(tmp_path / "d.csv", ["m1,CCO,,,test"])
    bundle = load_molecules(path, REGRESSION)
    assert bundle.records[0].label is None


def test_classification_label_domain(tmp_path):
    path = write_csv(tmp_path / "d.csv", ["m1,CCO,,0.7,train"])
    with pytest.raises(IngestError) as info:
        load_molecules(path, CLASSIFICATION)
    assert str(info.value) == f"{path}:2: row 'm1': classification label must be 0 or 1, got '0.7'"
    # the same label is fine for regression
    assert load_molecules(path, REGRESSION).records[0].label == 0.7


PROMPT = PromptBundle(kind=PromptKind.CORRECTOR, text="stub prompt", token_estimate=3)


def load_text(tmp_path, text):
    path = tmp_path / "d.csv"
    path.write_text(text, encoding="utf-8")
    return load_molecules(path, CLASSIFICATION)


# each fault raises its module's one error type, so the message is all
# that tells one check from another
@pytest.mark.parametrize(
    "fault, error, message",
    [
        (lambda tmp: load_text(tmp, ""), IngestError, r"d\.csv: empty file"),
        (lambda tmp: load_text(tmp, "id,smiles,label,split\n"), IngestError,
         r"d\.csv: expected header \['id', 'smiles', 'description', 'label', 'split'\], "
         r"got \['id', 'smiles', 'label', 'split'\]"),
        (lambda tmp: load_text(tmp, HEADER + "m1,CCO,,1\n"), IngestError,
         r"d\.csv:2: expected 5 cells"),
        (lambda tmp: complete(MockEcho(), PROMPT, QueryMeta(id="a"), REGRESSION), LlmError,
         "echo backend needs a primary prediction for 'a'"),
        (lambda tmp: complete(
            MockPerfectOracle(), PROMPT, QueryMeta(id="a", primary=0.5), CLASSIFICATION
        ), LlmError, "oracle backend needs a true label for 'a'"),
        (lambda tmp: load_text(tmp, HEADER + "m1,CCO,,active,train\n"), IngestError,
         r"d\.csv:2: row 'm1': label 'active' is not a number$"),
        (lambda tmp: load_text(tmp, HEADER + "m1,CCO,,nan,train\n"), IngestError,
         r"d\.csv:2: row 'm1': label 'nan' is not finite$"),
        # a row with two faults reports the one checked first
        (lambda tmp: load_text(tmp, HEADER + "m1,CCO,,1,train\nm1,CCN,,active,train\n"),
         IngestError, r"d\.csv:3: duplicate id 'm1'$"),
        (lambda tmp: load_text(tmp, HEADER + "m1,CCO,,,dev\n"), IngestError,
         r"d\.csv:2: unknown split 'dev'$"),
        (lambda tmp: load_text(tmp, HEADER + "m1,,,1\n"), IngestError,
         r"d\.csv:2: expected 5 cells$"),
        # a quoted cell spans lines 2 and 3, so the faulty record is on line 4
        (lambda tmp: load_text(tmp, HEADER + 'm1,CCO,"two\nlines",1,train\nm2,CCN,,x,train\n'),
         IngestError, r"d\.csv:4: row 'm2': label 'x' is not a number$"),
    ],
    ids=["empty-csv", "wrong-header", "wrong-cell-count", "echo-no-primary", "oracle-no-label",
         "non-number-label", "non-finite-label", "duplicate-id-and-bad-label",
         "unknown-split-and-empty-label", "cell-count-and-empty-smiles",
         "label-after-multi-line-cell"],
)
def test_each_fault_names_its_check(tmp_path, fault, error, message):
    with pytest.raises(error, match=message):
        fault(tmp_path)


def test_empty_smiles(tmp_path):
    path = write_csv(tmp_path / "d.csv", ["m1,,,1,train"])
    with pytest.raises(IngestError, match="empty SMILES for id 'm1'"):
        load_molecules(path, CLASSIFICATION)


def test_test_row_without_label_loads_beside_checked_rows(tmp_path):
    # the test row follows a labelled one, so a label carried over from the
    # row before would show
    path = write_csv(tmp_path / "d.csv", ["m1,CCO,,1,train", "m2,CCN,,,test", "m3,CCC,,0,valid"])
    records = load_molecules(path, CLASSIFICATION).records
    assert [(r.id, r.split, r.label) for r in records] == [
        ("m1", Split.TRAIN, 1.0), ("m2", Split.TEST, None), ("m3", Split.VALID, 0.0)
    ]


def test_quoted_fields_round_trip(tmp_path):
    path = write_csv(
        tmp_path / "d.csv",
        ['m1,CCO,"a, quoted ""description""",1.5,train'],
    )
    bundle = load_molecules(path, REGRESSION)
    assert bundle.records[0].description == 'a, quoted "description"'


def test_csv_round_trip_identical(tmp_path, regression_bundle):
    out = tmp_path / "again.csv"
    write_dataset_csv(regression_bundle, out)
    reloaded = load_molecules(out, REGRESSION)
    assert reloaded == regression_bundle


def test_load_is_deterministic(tmp_path, classification_bundle):
    out = tmp_path / "d.csv"
    write_dataset_csv(classification_bundle, out)
    assert load_molecules(out, CLASSIFICATION) == load_molecules(out, CLASSIFICATION)


def test_record_order_preserved(tmp_path):
    rows = ["b,CCN,,1,train", "a,CCO,,0,train", "c,CCC,,1,test"]
    path = write_csv(tmp_path / "d.csv", rows)
    bundle = load_molecules(path, CLASSIFICATION)
    assert [r.id for r in bundle.records] == ["b", "a", "c"]


_TOKENS = [b"NaN", b"1e309", b"\r", "\u2028".encode(), b"dev", b"0.5", b'"']
_LINE = st.integers(0, 63)
_MUTATION = st.one_of(
    st.tuples(st.just("delete"), _LINE),
    st.tuples(st.just("duplicate"), _LINE),
    st.tuples(st.just("truncate"), _LINE, st.integers(0, 63)),
    st.tuples(st.just("byte"), _LINE, st.integers(0, 63), st.integers(0, 255)),
    st.tuples(st.just("cell"), _LINE, st.integers(0, 4), st.sampled_from(_TOKENS)),
    st.tuples(st.just("cell"), _LINE, st.integers(0, 4), st.just(b"")),
    st.tuples(st.just("insert"), _LINE, st.integers(0, 63), st.sampled_from(_TOKENS)),
)


def _mutated(data, mutations):
    lines = data.splitlines(keepends=True)
    for op, line, *args in mutations:
        if not lines:
            break
        i = line % len(lines)
        text = lines[i]
        if op == "delete":
            del lines[i]
        elif op == "duplicate":
            lines.insert(i, text)
        elif op == "truncate":
            lines[i] = text[: args[0] % (len(text) + 1)]
        elif op == "byte":
            j = args[0] % max(len(text), 1)
            lines[i] = text[:j] + bytes([args[1]]) + text[j + 1:]
        elif op == "cell":  # the line's end stays, so the row keeps its own line
            body = text.rstrip(b"\r\n")
            cells = body.split(b",")
            cells[args[0] % len(cells)] = args[1]
            lines[i] = b",".join(cells) + text[len(body):]
        else:
            j = args[0] % (len(text) + 1)
            lines[i] = text[:j] + args[1] + text[j:]
    return b"".join(lines)


@pytest.fixture(scope="module")
def valid_csvs(tmp_path_factory):
    """A scratch directory, and a valid CSV's bytes per task: every split
    labelled, and an unlabelled test row at the end."""
    tmp = tmp_path_factory.mktemp("csv")
    data = {}
    for task in (CLASSIFICATION, REGRESSION):
        write_dataset_csv(make_bundle(task, n_train=4, n_valid=3, n_test=4, seed=5), tmp / "d.csv")
        data[task] = (tmp / "d.csv").read_bytes() + b"u1,CCO,,,test\r\n"
    return tmp, data


@given(
    task=st.sampled_from([CLASSIFICATION, REGRESSION]),
    mutations=st.lists(_MUTATION, min_size=1, max_size=4),
)
@settings(max_examples=300, deadline=None, derandomize=True)
def test_filtered_load_is_the_full_load_filtered(valid_csvs, task, mutations):
    # a filtered load checks every row as the full load does: it fails with
    # the same message, or returns the full load's records of its splits
    tmp, data = valid_csvs
    path = tmp / "mutated.csv"
    path.write_bytes(_mutated(data[task], mutations))
    try:
        full = load_molecules(path, task)
    except IngestError as exc:
        full, message = None, str(exc)
    for n in range(1, len(Split) + 1):
        for splits in combinations(Split, n):
            if full is None:
                with pytest.raises(IngestError) as info:
                    load_molecules(path, task, splits)
                assert str(info.value) == message
            else:
                loaded = load_molecules(path, task, splits)
                assert loaded.task == task
                assert loaded.records == tuple(r for r in full.records if r.split in splits)


class TestLoadPredictions:
    def test_complete_set(self, tmp_path, regression_bundle):
        preds = make_predictions(regression_bundle, Split.VALID)
        path = tmp_path / "p.jsonl"
        write_predictions_jsonl(preds, path)
        loaded = load_predictions(path, regression_bundle, Split.VALID)
        assert len(loaded) == regression_bundle.counts[Split.VALID]
        assert loaded == preds

    def test_blank_lines_are_skipped(self, tmp_path, regression_bundle):
        preds = make_predictions(regression_bundle, Split.VALID)
        path = tmp_path / "p.jsonl"
        write_predictions_jsonl(preds, path)
        first, *rest = path.read_text().splitlines(keepends=True)
        path.write_text("\n" + first + " \t\n" + "".join(rest) + "\n")
        assert load_predictions(path, regression_bundle, Split.VALID) == preds

    def test_missing_one_id(self, tmp_path, regression_bundle):
        preds = make_predictions(regression_bundle, Split.VALID)
        dropped = dict(preds)
        missing_id = sorted(dropped)[0]
        del dropped[missing_id]
        path = tmp_path / "p.jsonl"
        with path.open("w") as fh:
            for mol_id, v in dropped.items():
                fh.write('{"id": "%s", "prediction": %s}\n' % (mol_id, v))
        with pytest.raises(IngestError, match=r"1 valid id\(s\) without predictions"):
            load_predictions(path, regression_bundle, Split.VALID)

    def test_unknown_id(self, tmp_path, regression_bundle):
        preds = make_predictions(regression_bundle, Split.VALID)
        path = tmp_path / "p.jsonl"
        write_predictions_jsonl(preds, path)
        with path.open("a") as fh:
            fh.write('{"id": "ghost", "prediction": 1.0}\n')
        with pytest.raises(IngestError, match="id 'ghost' is not in the valid split"):
            load_predictions(path, regression_bundle, Split.VALID)

    def test_wrong_split_id(self, tmp_path, regression_bundle):
        preds = make_predictions(regression_bundle, Split.VALID)
        path = tmp_path / "p.jsonl"
        write_predictions_jsonl(preds, path)
        test_id = regression_bundle.split_records(Split.TEST)[0].id
        with path.open("a") as fh:
            fh.write('{"id": "%s", "prediction": 1.0}\n' % test_id)
        with pytest.raises(IngestError, match=f"id '{test_id}' is not in the valid split"):
            load_predictions(path, regression_bundle, Split.VALID)

    def test_duplicate_line(self, tmp_path, regression_bundle):
        preds = make_predictions(regression_bundle, Split.VALID)
        path = tmp_path / "p.jsonl"
        write_predictions_jsonl(preds, path)
        first = sorted(preds)[0]
        with path.open("a") as fh:
            fh.write('{"id": "%s", "prediction": 0.5}\n' % first)
        with pytest.raises(IngestError, match=f"duplicate id '{first}'"):
            load_predictions(path, regression_bundle, Split.VALID)

    def test_out_of_range_probability(self, tmp_path):
        bundle = make_bundle(CLASSIFICATION, n_train=2, n_valid=1, n_test=0)
        valid_id = bundle.split_records(Split.VALID)[0].id
        path = tmp_path / "p.jsonl"
        path.write_text('{"id": "%s", "prediction": 1.2}\n' % valid_id)
        with pytest.raises(IngestError, match=r"probability 1.2 outside \[0, 1\]"):
            load_predictions(path, bundle, Split.VALID)

    @pytest.mark.parametrize("value", ["NaN", "Infinity", "-Infinity", "1e999"])
    def test_non_finite_prediction(self, tmp_path, regression_bundle, value):
        preds = make_predictions(regression_bundle, Split.VALID)
        path = tmp_path / "p.jsonl"
        with path.open("w") as fh:
            for i, (mol_id, v) in enumerate(preds.items()):
                fh.write('{"id": "%s", "prediction": %s}\n' % (mol_id, value if i == 1 else v))
        with pytest.raises(IngestError, match=r"p\.jsonl:2: .*not finite"):
            load_predictions(path, regression_bundle, Split.VALID)

    @pytest.mark.parametrize(
        "value",
        ['"nan"', '"2.5"', "true", "false", "null", pytest.param("1" + "0" * 400, id="1e400-int")],
    )
    def test_non_number_prediction_is_malformed(self, tmp_path, regression_bundle, value):
        # a JSON string or boolean is not a number, though float() takes it
        preds = make_predictions(regression_bundle, Split.VALID)
        path = tmp_path / "p.jsonl"
        with path.open("w") as fh:
            for i, (mol_id, v) in enumerate(preds.items()):
                fh.write('{"id": "%s", "prediction": %s}\n' % (mol_id, value if i == 1 else v))
        with pytest.raises(IngestError) as info:
            load_predictions(path, regression_bundle, Split.VALID)
        assert str(info.value) == f"{path}:2: malformed prediction line"
