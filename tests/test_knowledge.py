import hashlib
import itertools
import json
import random
import shutil
import struct
import sys
import tempfile
from pathlib import Path

import numpy as np
import pytest
from hypothesis import assume, example, given, settings
from hypothesis import strategies as st

from molcorr import embed, knowledge
from molcorr.embed import (
    LocalHashConfig, compose_molecule_text, embed_molecule, embed_text, embed_texts,
)
from molcorr.ingest import (
    CLASSIFICATION,
    REGRESSION,
    DatasetBundle,
    MoleculeRecord,
    Split,
)
from molcorr.knowledge import (
    Jump,
    KnowledgeDatabase,
    KnowledgeError,
    METADATA_FILE,
    Random,
    SIDECAR_FILE,
    TopK,
    build_database,
    load_database,
    retrieve,
    save_database,
)
from conftest import (
    NON_JSON_WHITESPACE, SMILES_ALPHABET, make_bundle, make_predictions, traced,
)

EMB = LocalHashConfig(dim=32, ngram=3)


def build_db(n_train=12, n_valid=5, seed=3, task=REGRESSION):
    bundle = make_bundle(task, n_train=n_train, n_valid=n_valid, n_test=4, seed=seed)
    val_preds = make_predictions(bundle, Split.VALID, seed=seed + 1)
    return bundle, val_preds, build_database(bundle, val_preds, EMB)


_ROWS = (("a", "C", 1.0, None), ("b", "CC", 2.0, None))


def _db_over(matrix):
    """A database of ``_ROWS`` over ``matrix``, as a direct caller builds it."""
    return KnowledgeDatabase(REGRESSION, "fp", _ROWS, np.array(matrix, np.float32))


def _unlabeled_train():
    """A bundle of one train record without a label, which ``load_molecules`` refuses."""
    rec = make_bundle(REGRESSION, n_train=1, n_valid=0, n_test=0).records[0]
    return DatasetBundle(REGRESSION, (rec._replace(label=None),))


def _build_one_valid(task, label, prediction):
    """The database of one valid record 'm00000' holding ``label`` and
    ``prediction``, built from a bundle and a dict that no loader checked."""
    rec = make_bundle(task, n_train=0, n_valid=1, n_test=0).records[0]
    bundle = DatasetBundle(task, (rec._replace(label=label),))
    return build_database(bundle, {rec.id: prediction}, EMB)


# ---------------------------------------------------------------------------
# independent selection oracles


def oracle_rank(db, query_vec, exclude_id=None):
    """Full-sort ranking oracle: similarity desc, id asc on ties."""
    matrix = np.stack([e.embedding for e in db.entries]).astype(np.float64)
    qn = np.linalg.norm(np.asarray(query_vec, dtype=np.float64))
    norms = np.linalg.norm(matrix, axis=1)
    with np.errstate(invalid="ignore", divide="ignore"):
        sims = (matrix @ np.asarray(query_vec, dtype=np.float64)) / (norms * qn)
    # a zero row or a zero query scores 0, as in cosine_similarity
    sims = np.where((norms == 0.0) | (qn == 0.0), 0.0, sims)
    scored = [
        (float(sims[i]), e.id)
        for i, e in enumerate(db.entries)
        if e.id != exclude_id
    ]
    return sorted(scored, key=lambda p: (-p[0], p[1]))


def oracle_topk(db, query_vec, k, exclude_id=None):
    return [mol_id for _, mol_id in oracle_rank(db, query_vec, exclude_id)[:k]]


def oracle_jump(db, query_vec, k, exclude_id=None):
    ranked = oracle_rank(db, query_vec, exclude_id)
    n = len(ranked)
    if k >= n:
        return [mol_id for _, mol_id in ranked]
    idx = [0] if k == 1 else [i * (n - 1) // (k - 1) for i in range(k)]
    return [ranked[i][1] for i in idx]


def oracle_random(db, query_vec, k, seed, exclude_id=None):
    """splitmix64 + partial Fisher-Yates, written out from scratch."""
    ranked = oracle_rank(db, query_vec, exclude_id)
    n = len(ranked)
    if k >= n:
        return [mol_id for _, mol_id in ranked]
    mask = (1 << 64) - 1
    state = seed & mask

    def nxt():
        nonlocal state
        state = (state + 0x9E3779B97F4A7C15) & mask
        z = state
        z = ((z ^ (z >> 30)) * 0xBF58476D1CE4E5B9) & mask
        z = ((z ^ (z >> 27)) * 0x94D049BB133111EB) & mask
        return z ^ (z >> 31)

    idx = list(range(n))
    for i in range(k):
        j = i + nxt() % (n - i)
        idx[i], idx[j] = idx[j], idx[i]
    return [ranked[r][1] for r in sorted(idx[:k])]


# ---------------------------------------------------------------------------


class TestBuild:
    def test_counts_and_predictions(self):
        bundle, val_preds, db = build_db(n_train=12, n_valid=5)
        assert len(db) == 17
        with_preds = [e.id for e in db.entries if e.primary_prediction is not None]
        assert with_preds == [rec.id for rec in bundle.split_records(Split.VALID)]

    def test_degenerate_valid_only(self):
        bundle = make_bundle(REGRESSION, n_train=0, n_valid=1, n_test=0)
        val_preds = make_predictions(bundle, Split.VALID)
        db = build_database(bundle, val_preds, EMB)
        assert len(db) == 1
        assert db.entries[0].primary_prediction is not None

    def test_missing_prediction_rejected(self):
        bundle = make_bundle(REGRESSION, n_train=2, n_valid=2, n_test=0)
        with pytest.raises(KnowledgeError):
            build_database(bundle, {}, EMB)

    def test_entry_invariants(self):
        # a row holds its label and prediction as Python floats, as
        # check_label and check_prediction return them, whatever type they came in
        row = _build_one_valid(REGRESSION, np.float64(1.0), np.float32(0.5)).rows[0]
        assert row[2:] == (1.0, 0.5)
        assert type(row[2]) is float and type(row[3]) is float

    def test_embeddings_match_embed_molecule(self):
        bundle, _, db = build_db()
        by_id = {r.id: r for r in bundle.records}
        for entry in db.entries[:5]:
            want = embed_molecule(EMB, by_id[entry.id]).astype(np.float32)
            assert np.array_equal(entry.embedding, want)


class TestRetrieve:
    def test_topk_forced_ordering(self):
        # integer counts at falling angles to the query: cosines 0.914,
        # 0.8, 0.707, 0.6 and 0.447
        counts = [(9, 4), (4, 3), (1, 1), (3, 4), (1, 2)]
        rows = tuple((f"e{i}", f"C{i}", 0.0, None) for i in range(len(counts)))
        vecs = np.array([(x, y, 0, 0) for x, y in counts], np.float32)
        db = KnowledgeDatabase(REGRESSION, "test", rows, vecs)
        query = np.array([1.0, 0.0, 0.0, 0.0])
        ctx = retrieve(db, query, k=2, strategy=TopK())
        assert ctx.ids == ("e0", "e1")

    def test_jump_indices_pool_of_ten(self):
        bundle, _, db = build_db(n_train=8, n_valid=2)
        query = embed_text(EMB, "CCON")
        ranked_ids = oracle_topk(db, query, 10)
        ctx = retrieve(db, query, k=3, strategy=Jump())
        assert list(ctx.ids) == [ranked_ids[0], ranked_ids[4], ranked_ids[9]]

    def test_topk_matches_oracle_on_200_entries(self):
        bundle, _, db = build_db(n_train=160, n_valid=40, seed=12)
        assert len(db) == 200
        query = embed_text(EMB, "NCCCO=1")
        ctx = retrieve(db, query, k=7, strategy=TopK())
        assert list(ctx.ids) == oracle_topk(db, query, 7)

    def test_topk_optimality(self):
        bundle, _, db = build_db(n_train=40, n_valid=10, seed=9)
        query = embed_text(EMB, "c1ccccc1N")
        ctx = retrieve(db, query, k=5, strategy=TopK())
        ranked = oracle_rank(db, query)
        returned = set(ctx.ids)
        in_sims = [s for s, i in ranked if i in returned]
        out_sims = [s for s, i in ranked if i not in returned]
        assert min(in_sims) >= max(out_sims)

    def test_jump_strictly_increasing_ranks(self):
        bundle, _, db = build_db(n_train=30, n_valid=10, seed=4)
        query = embed_text(EMB, "OCCN")
        ranked_ids = oracle_topk(db, query, len(db))
        rank_of = {mol_id: i for i, mol_id in enumerate(ranked_ids)}
        for k in (1, 2, 5, 17, 40):
            ctx = retrieve(db, query, k=k, strategy=Jump())
            ranks = [rank_of[i] for i in ctx.ids]
            assert ranks == sorted(set(ranks))

    def test_random_matches_oracle(self):
        bundle, _, db = build_db(n_train=40, n_valid=10, seed=6)
        query = embed_text(EMB, "CC(=O)N")
        for seed in (0, 1, 42, 2**63):
            ctx = retrieve(db, query, k=9, strategy=Random(seed=seed))
            assert list(ctx.ids) == oracle_random(db, query, 9, seed)

    def test_random_deterministic_and_seed_sensitive(self):
        bundle, _, db = build_db(n_train=60, n_valid=20, seed=8)
        query = embed_text(EMB, "NCO")
        base = retrieve(db, query, k=10, strategy=Random(seed=123)).ids
        assert retrieve(db, query, k=10, strategy=Random(seed=123)).ids == base
        distinct = {
            retrieve(db, query, k=10, strategy=Random(seed=s)).ids
            for s in range(100)
        }
        assert len(distinct) > 90

    def test_leakage_guard(self):
        bundle, _, db = build_db(n_train=20, n_valid=10, seed=2)
        for rec in bundle.split_records(Split.VALID):
            query = embed_molecule(EMB, rec)
            ctx = retrieve(db, query, k=len(db), exclude_id=rec.id)
            assert rec.id not in ctx.ids
            assert len(ctx) == len(db) - 1

    def test_k_larger_than_pool_returns_all(self):
        bundle, _, db = build_db(n_train=4, n_valid=2)
        query = embed_text(EMB, "CCO")
        for strategy in (TopK(), Jump(), Random(seed=5)):
            ctx = retrieve(db, query, k=100, strategy=strategy)
            assert len(ctx) == len(db)

    def test_partition_preserves_rank_order(self):
        bundle, _, db = build_db(n_train=20, n_valid=10, seed=2)
        query = embed_text(EMB, "CNC")
        ctx = retrieve(db, query, k=12)
        combined = list(ctx.ids)
        train_ids = [e.id for e in ctx.items if e.primary_prediction is None]
        valid_ids = [e.id for e in ctx.items if e.primary_prediction is not None]
        assert [i for i in combined if i in set(train_ids)] == train_ids
        assert [i for i in combined if i in set(valid_ids)] == valid_ids
        assert valid_ids and set(valid_ids) <= {r.id for r in bundle.split_records(Split.VALID)}

    def test_empty_pool(self):
        bundle = make_bundle(REGRESSION, n_train=0, n_valid=1, n_test=0)
        db = build_database(bundle, make_predictions(bundle, Split.VALID), EMB)
        only_id = db.entries[0].id
        with pytest.raises(KnowledgeError, match="retrieval pool is empty"):
            retrieve(db, embed_text(EMB, "CCO"), k=1, exclude_id=only_id)

    def test_dim_mismatch(self):
        bundle, _, db = build_db()
        with pytest.raises(KnowledgeError, match="does not match database dim"):
            retrieve(db, np.zeros(7), k=1)

    @pytest.mark.parametrize(
        "call, message",
        [
            (lambda: KnowledgeDatabase(REGRESSION, "fp", _ROWS, np.zeros(8, np.float32)),
             "embedding matrix of shape (8,) for 2 rows"),
            (lambda: KnowledgeDatabase(REGRESSION, "fp", _ROWS, np.zeros((3, 4), np.float32)),
             "embedding matrix of shape (3, 4) for 2 rows"),
            (lambda: KnowledgeDatabase(REGRESSION, "fp", _ROWS[:1] * 2, np.zeros((2, 4))),
             "duplicate ids in database"),
            (lambda: retrieve(build_db()[2], embed_text(EMB, "CCO"), k=0),
             "k must be >= 1, got 0"),
            (lambda: retrieve(build_db()[2], embed_text(EMB, "CCO") * 0.5, k=1),
             "query vector holds a non-integer value"),
            (lambda: retrieve(build_db()[2], np.full(EMB.dim, np.inf), k=1),
             "query vector holds a non-integer value"),
            (lambda: build_database(_unlabeled_train(), {}, EMB),
             "knowledge entry 'm00000' has no label"),
            # built entries meet the rules that the loaders apply
            (lambda: _build_one_valid(REGRESSION, float("nan"), 0.5),
             "knowledge entry 'm00000': label nan is not finite"),
            (lambda: _build_one_valid(REGRESSION, 1.0, float("inf")),
             "knowledge entry 'm00000': prediction inf is not finite"),
            (lambda: _build_one_valid(CLASSIFICATION, 1.0, 7.0),
             "knowledge entry 'm00000': probability 7.0 outside [0, 1]"),
            (lambda: _build_one_valid(CLASSIFICATION, 1.0, -0.1),
             "knowledge entry 'm00000': probability -0.1 outside [0, 1]"),
            (lambda: _build_one_valid(CLASSIFICATION, 0.5, 0.5),
             "knowledge entry 'm00000': classification label must be 0 or 1, got 0.5"),
            # the label is checked before the prediction
            (lambda: _build_one_valid(CLASSIFICATION, 0.5, 7.0),
             "knowledge entry 'm00000': classification label must be 0 or 1, got 0.5"),
            # checked by the first retrieval, so even a zero query refuses them
            (lambda: retrieve(_db_over([[1, 0], [0.5, 0]]), np.zeros(2), k=1),
             "embedding matrix holds a non-integer value"),
            (lambda: retrieve(_db_over([[1, 0], [np.nan, 0]]), np.ones(2), k=1),
             "embedding matrix holds a non-integer value"),
        ],
        ids=["matrix-not-2d", "matrix-rows-mismatch", "duplicate-ids", "k-zero",
             "non-integer-query", "infinite-query", "unlabeled-train-record",
             "nan-label", "infinite-prediction", "probability-above-one",
             "probability-below-zero", "label-half", "label-before-prediction",
             "non-integer-matrix", "non-finite-matrix"],
    )
    def test_inconsistent_input_raises(self, call, message):
        with pytest.raises(KnowledgeError) as info:
            call()
        assert str(info.value) == message

    def test_tie_break_by_ascending_id(self):
        vec = embed_text(EMB, "CCO")
        rows = tuple((mol_id, "CCO", 1.0, None) for mol_id in ("z", "a", "m"))
        db = KnowledgeDatabase(REGRESSION, "test", rows, np.array([vec] * 3, np.float32))
        ctx = retrieve(db, vec.astype(np.float64), k=3)
        assert ctx.ids == ("a", "m", "z")


class TestPersistence:
    def test_round_trip_small(self, tmp_path):
        bundle, _, db = build_db(n_train=2, n_valid=1)
        save_database(db, tmp_path / "db")
        assert load_database(tmp_path / "db") == db

    def test_round_trip_bytes_stable(self, tmp_path):
        bundle, _, db = build_db(n_train=10, n_valid=5)
        save_database(db, tmp_path / "a")
        reloaded = load_database(tmp_path / "a")
        save_database(reloaded, tmp_path / "b")
        for name in (METADATA_FILE, SIDECAR_FILE):
            assert (tmp_path / "a" / name).read_bytes() == (
                tmp_path / "b" / name
            ).read_bytes()

    def test_blank_lines_are_skipped(self, tmp_path):
        bundle, _, db = build_db(n_train=3, n_valid=2)
        save_database(db, tmp_path / "db")
        meta = tmp_path / "db" / METADATA_FILE
        # and so is JSON whitespace around a line, the header's too
        header, first, *rest = meta.read_text().splitlines()
        header, first = (f" \t{line}\t " for line in (header, first))
        meta.write_text("\n".join([header, "", first, " \t", *rest, ""]) + "\n")
        assert load_database(tmp_path / "db") == db

    @pytest.mark.parametrize("where", ["before", "after", "alone"])
    @pytest.mark.parametrize("char", NON_JSON_WHITESPACE.values(), ids=NON_JSON_WHITESPACE)
    def test_other_whitespace_is_corrupt(self, tmp_path, char, where):
        # a line holding only such characters is not blank, and padding
        # with them is not JSON: either way the line is named
        bundle, _, db = build_db(n_train=3, n_valid=2)
        save_database(db, tmp_path / "db")
        meta = tmp_path / "db" / METADATA_FILE
        lines = meta.read_text().splitlines()
        if where == "alone":
            lines.insert(2, char)
        else:
            lines[2] = char + lines[2] if where == "before" else lines[2] + char
        meta.write_text("\n".join(lines) + "\n", encoding="utf-8")
        with pytest.raises(KnowledgeError) as info:
            load_database(tmp_path / "db")
        assert str(info.value).startswith(f"{meta}:3: corrupt metadata (JSONDecodeError: ")

    @pytest.mark.parametrize(
        "lineno, values, message",
        [
            # lines 2-4 hold the 3 train entries, lines 5-6 the 2 valid ones
            (3, {"label": 0.5}, "classification label must be 0 or 1, got 0.5"),
            (5, {"primary_prediction": 7.0}, "probability 7.0 outside [0, 1]"),
            (6, {"primary_prediction": -0.1}, "probability -0.1 outside [0, 1]"),
            (5, {"label": 0.5, "primary_prediction": 7.0},
             "classification label must be 0 or 1, got 0.5"),
        ],
        ids=["label-half", "prediction-above-one", "prediction-below-zero", "label-first"],
    )
    def test_classification_values_outside_the_task_are_corrupt(
        self, tmp_path, lineno, values, message
    ):
        # a stored database meets the rules the CSV and prediction files meet
        bundle, _, db = build_db(n_train=3, n_valid=2, task=CLASSIFICATION)
        save_database(db, tmp_path / "db")
        meta = tmp_path / "db" / METADATA_FILE
        lines = meta.read_text().splitlines()
        lines[lineno - 1] = json.dumps({**json.loads(lines[lineno - 1]), **values})
        meta.write_text("\n".join(lines) + "\n")
        with pytest.raises(KnowledgeError) as info:
            load_database(tmp_path / "db")
        assert str(info.value) == f"{meta}:{lineno}: corrupt metadata (ValueError: {message})"

    def test_truncated_sidecar(self, tmp_path):
        bundle, _, db = build_db(n_train=3, n_valid=2)
        save_database(db, tmp_path / "db")
        sidecar = tmp_path / "db" / SIDECAR_FILE
        sidecar.write_bytes(sidecar.read_bytes()[:-4])
        with pytest.raises(KnowledgeError, match="payload bytes, got"):
            load_database(tmp_path / "db")

    def test_magic_mismatch(self, tmp_path):
        bundle, _, db = build_db(n_train=3, n_valid=2)
        save_database(db, tmp_path / "db")
        sidecar = tmp_path / "db" / SIDECAR_FILE
        raw = sidecar.read_bytes()
        sidecar.write_bytes(b"NOPE" + raw[4:])
        with pytest.raises(KnowledgeError, match="bad magic b'NOPE'"):
            load_database(tmp_path / "db")

    @pytest.mark.parametrize(
        "corrupt, message",
        [
            (lambda raw: raw[:8], "missing header"),
            (lambda raw: raw[:8] + struct.pack("<I", 6) + raw[12:],
             "sidecar count 6 != metadata count 5"),
        ],
        ids=["magic-without-header", "count-mismatch"],
    )
    def test_sidecar_header_fault(self, tmp_path, corrupt, message):
        bundle, _, db = build_db(n_train=3, n_valid=2)
        save_database(db, tmp_path / "db")
        sidecar = tmp_path / "db" / SIDECAR_FILE
        sidecar.write_bytes(corrupt(sidecar.read_bytes()))
        with pytest.raises(KnowledgeError) as info:
            load_database(tmp_path / "db")
        assert str(info.value) == f"{sidecar}: {message}"

    def test_dim_mismatch_header(self, tmp_path):
        import json

        bundle, _, db = build_db(n_train=3, n_valid=2)
        save_database(db, tmp_path / "db")
        meta = tmp_path / "db" / METADATA_FILE
        lines = meta.read_text().splitlines()
        header = json.loads(lines[0])
        header["dim"] = 256
        meta.write_text("\n".join([json.dumps(header)] + lines[1:]) + "\n")
        with pytest.raises(KnowledgeError, match="!= metadata dim 256"):
            load_database(tmp_path / "db")

    def test_count_mismatch(self, tmp_path):
        bundle, _, db = build_db(n_train=3, n_valid=2)
        save_database(db, tmp_path / "db")
        meta = tmp_path / "db" / METADATA_FILE
        lines = meta.read_text().splitlines()
        meta.write_text("\n".join(lines[:-1]) + "\n")
        with pytest.raises(KnowledgeError, match="header says 5 entries, found 4"):
            load_database(tmp_path / "db")

    @pytest.mark.parametrize("end", ["\n", "\r\n", "\r", ""])
    def test_corrupt_header_gives_one_message(self, tmp_path, end):
        # the header line is parsed with its terminator stripped, whichever it is
        (tmp_path / METADATA_FILE).write_text('{"task":' + end, newline="")
        with pytest.raises(KnowledgeError) as loading:
            load_database(tmp_path)
        assert str(loading.value) == (
            f"{tmp_path / METADATA_FILE}:1: corrupt metadata "
            "(JSONDecodeError: Expecting value: line 1 column 9 (char 8))"
        )

    @pytest.mark.parametrize(
        "lineno, corrupt",
        [
            (1, lambda line: "{not json"),
            (1, lambda line: line.replace('"fingerprint"', '"fingerprint_"')),
            (3, lambda line: "{broken"),
            (2, lambda line: json.dumps({**json.loads(line), "label": float("nan")})),
            # lines 2-4 hold the 3 train entries, lines 5-6 the 2 valid ones
            (5, lambda line: json.dumps({**json.loads(line), "primary_prediction": float("nan")})),
            (1, lambda line: json.dumps({**json.loads(line), "entries": 5.7})),
            (1, lambda line: json.dumps({**json.loads(line), "dim": "32"})),
            (2, lambda line: json.dumps({**json.loads(line), "id": {"x": 1}})),
            (3, lambda line: json.dumps({**json.loads(line), "smiles": 5})),
            # line 3 holds m00001
            (4, lambda line: json.dumps({**json.loads(line), "id": "m00001"})),
        ],
        ids=[
            "header-not-json", "header-without-fingerprint", "entry-not-json",
            "entry-nan-label", "entry-nan-prediction",
            "header-fractional-entries", "header-text-dim", "entry-dict-id",
            "entry-number-smiles", "entry-repeated-id",
        ],
    )
    def test_corrupt_metadata_names_file_and_line(self, tmp_path, lineno, corrupt):
        bundle, _, db = build_db(n_train=3, n_valid=2)
        save_database(db, tmp_path / "db")
        meta = tmp_path / "db" / METADATA_FILE
        lines = meta.read_text().splitlines()
        lines[lineno - 1] = corrupt(lines[lineno - 1])
        meta.write_text("\n".join(lines) + "\n")
        with pytest.raises(KnowledgeError, match=f"{METADATA_FILE}:{lineno}: "):
            load_database(tmp_path / "db")

    @pytest.mark.parametrize(
        "lineno, key, value, message",
        [
            (2, "label", "1.0", "TypeError: '1.0' is not a number"),
            (2, "label", True, "TypeError: True is not a number"),
            (3, "label", 10**400, "ValueError: integer beyond the float range"),
            (5, "primary_prediction", True, "TypeError: True is not a number"),
            (6, "primary_prediction", "2.5", "TypeError: '2.5' is not a number"),
        ],
        ids=["text-label", "bool-label", "huge-int-label", "bool-prediction", "text-prediction"],
    )
    def test_non_number_value_is_corrupt(self, tmp_path, lineno, key, value, message):
        # float() takes a JSON string or boolean, but neither is a number
        bundle, _, db = build_db(n_train=3, n_valid=2)
        save_database(db, tmp_path / "db")
        meta = tmp_path / "db" / METADATA_FILE
        lines = meta.read_text().splitlines()
        lines[lineno - 1] = json.dumps({**json.loads(lines[lineno - 1]), key: value})
        meta.write_text("\n".join(lines) + "\n")
        with pytest.raises(KnowledgeError) as info:
            load_database(tmp_path / "db")
        assert str(info.value) == f"{meta}:{lineno}: corrupt metadata ({message})"

    def test_lines_with_description_and_source_load_the_same(self, tmp_path):
        # entry lines that also hold the molecule's description and split,
        # byte for byte as earlier versions saved them, load to the same
        # rows; saving them again writes the current lines
        bundle = make_bundle(REGRESSION, n_train=4, n_valid=3, n_test=0, with_descriptions=True)
        db = build_database(bundle, make_predictions(bundle, Split.VALID), EMB)
        save_database(db, tmp_path / "new")
        by_id = {rec.id: rec for rec in bundle.records}
        header, *lines = (tmp_path / "new" / METADATA_FILE).read_text().splitlines()
        old = [header]
        for line in lines:
            entry = json.loads(line)
            rec = by_id[entry["id"]]
            old.append(json.dumps(
                {"id": rec.id, "smiles": rec.smiles, "description": rec.description,
                 "label": entry["label"], "primary_prediction": entry["primary_prediction"],
                 "source": rec.split.value},
                separators=(",", ":"),
            ))
        assert any(rec.description for rec in bundle.records)
        shutil.copytree(tmp_path / "new", tmp_path / "old")
        (tmp_path / "old" / METADATA_FILE).write_text("\n".join(old) + "\n")
        loaded = load_database(tmp_path / "old")
        assert loaded == db
        save_database(loaded, tmp_path / "again")
        for name in (METADATA_FILE, SIDECAR_FILE):
            again, new = (tmp_path / d / name for d in ("again", "new"))
            assert again.read_bytes() == new.read_bytes()

    # load_database's checks in the order they run: (name, fault, message);
    # a fault edits the metadata lines or the sidecar bytes in place
    LOAD_FAULTS = [
        ("header", lambda lines, raw: lines.__setitem__(0, "{not json"),
         "{meta}:1: corrupt metadata (JSONDecodeError: "),
        ("short-sidecar", lambda lines, raw: raw.__delitem__(slice(-4, None)),
         "{sidecar}: expected 640 payload bytes, got 636"),
        ("non-finite", lambda lines, raw: raw.__setitem__(slice(12, 16), b"\x00\x00\xc0\x7f"),
         "{sidecar}: non-finite embedding value"),
        # the block scan checks finiteness first, so a NaN and a 0.5 in one
        # block name the NaN
        ("non-integer", lambda lines, raw: raw.__setitem__(slice(16, 20), struct.pack("<f", 0.5)),
         "{sidecar}: non-integer embedding value (a database saved before embeddings held "
         "integer bucket counts? rerun build-db)"),
        ("corrupt-line", lambda lines, raw: lines.__setitem__(2, "{broken"),
         "{meta}:3: corrupt metadata (JSONDecodeError: "),
        # the entry lines are counted as they are parsed, so the count is checked last
        ("count", lambda lines, raw: lines.pop(), "{meta}: header says 5 entries, found 4"),
    ]

    @pytest.mark.parametrize(
        "first, second",
        list(itertools.combinations(LOAD_FAULTS, 2)),
        ids=[f"{a[0]}-before-{b[0]}" for a, b in itertools.combinations(LOAD_FAULTS, 2)],
    )
    def test_two_faults_report_the_first_checked(self, tmp_path, first, second):
        bundle, _, db = build_db(n_train=3, n_valid=2)
        save_database(db, tmp_path / "db")
        meta, sidecar = tmp_path / "db" / METADATA_FILE, tmp_path / "db" / SIDECAR_FILE
        lines, raw = meta.read_text().splitlines(), bytearray(sidecar.read_bytes())
        first[1](lines, raw)
        second[1](lines, raw)
        meta.write_text("\n".join(lines) + "\n")
        sidecar.write_bytes(bytes(raw))
        with pytest.raises(KnowledgeError) as info:
            load_database(tmp_path / "db")
        assert str(info.value).startswith(first[2].format(meta=meta, sidecar=sidecar))

    def test_both_files_one_entry_short_names_the_sidecar(self, tmp_path):
        # a copy cut short by one entry in each file: the two files agree on
        # 4 entries, but the sidecar is checked against the header's 5
        # before the entry lines are counted
        bundle, _, db = build_db(n_train=3, n_valid=2)
        save_database(db, tmp_path / "db")
        meta, sidecar = tmp_path / "db" / METADATA_FILE, tmp_path / "db" / SIDECAR_FILE
        meta.write_text("\n".join(meta.read_text().splitlines()[:-1]) + "\n")
        sidecar.write_bytes(sidecar.read_bytes()[: -4 * db.embeddings.shape[1]])
        with pytest.raises(KnowledgeError) as info:
            load_database(tmp_path / "db")
        assert str(info.value) == f"{sidecar}: expected 640 payload bytes, got 512"

    @pytest.mark.parametrize("char", ["\x85", "\u2028", "\u2029"], ids=["nel", "ls", "ps"])
    def test_raw_line_separator_inside_a_string_loads(self, tmp_path, char):
        # the file splits into lines at \n, \r and \r\n only; save_database
        # escapes these characters, so only a hand-edited line holds one raw
        bundle, _, db = build_db(n_train=3, n_valid=2)
        save_database(db, tmp_path / "db")
        meta = tmp_path / "db" / METADATA_FILE
        lines = meta.read_text().splitlines()
        lines[1] = json.dumps({**json.loads(lines[1]), "smiles": f"C{char}C"}, ensure_ascii=False)
        meta.write_text("\n".join(lines) + "\n", encoding="utf-8")
        assert load_database(tmp_path / "db").rows[0][1] == f"C{char}C"

    def test_raw_control_character_inside_a_string_is_corrupt(self, tmp_path):
        # a raw vertical tab ends no line, and JSON forbids it inside a string
        bundle, _, db = build_db(n_train=3, n_valid=2)
        save_database(db, tmp_path / "db")
        meta = tmp_path / "db" / METADATA_FILE
        lines = meta.read_text().splitlines()
        lines[1] = lines[1].replace('"smiles":"', '"smiles":"\v', 1)
        meta.write_text("\n".join(lines) + "\n")
        with pytest.raises(KnowledgeError) as info:
            load_database(tmp_path / "db")
        assert str(info.value).startswith(
            f"{meta}:2: corrupt metadata (JSONDecodeError: Invalid control character"
        )

    def test_each_line_must_parse_on_its_own(self, tmp_path):
        # three entry lines, none of them JSON alone, that read as three valid
        # entries once joined into one array: a parse of joined lines would
        # load this file
        bundle, _, db = build_db(n_train=3, n_valid=0)
        save_database(db, tmp_path / "db")
        meta = tmp_path / "db" / METADATA_FILE
        header = meta.read_text().splitlines()[0]
        entries = [
            '{"id":"p","smiles":"C","label":1.0,"primary_prediction":null,"x":"}',
            '{"}',
            '{"id":"q","smiles":"CC","label":2.0,"primary_prediction":null},'
            '{"id":"r","smiles":"CCC","label":3.0,"primary_prediction":null}',
        ]
        assert len(json.loads("[" + ",".join(entries) + "]")) == 3
        meta.write_text("\n".join([header, *entries]) + "\n")
        with pytest.raises(KnowledgeError) as info:
            load_database(tmp_path / "db")
        assert str(info.value).startswith(f"{meta}:2: corrupt metadata (JSONDecodeError: ")

    @pytest.mark.parametrize("value", [float("nan"), float("-inf")], ids=["nan", "-inf"])
    def test_non_finite_embedding_names_sidecar(self, tmp_path, value):
        bundle, _, db = build_db(n_train=3, n_valid=2)
        save_database(db, tmp_path / "db")
        sidecar = tmp_path / "db" / SIDECAR_FILE
        raw = bytearray(sidecar.read_bytes())
        # the 7th float32 of the payload, after the 12-byte header
        raw[12 + 4 * 6 : 12 + 4 * 7] = np.array([value], dtype="<f4").tobytes()
        sidecar.write_bytes(bytes(raw))
        with pytest.raises(KnowledgeError, match=f"{SIDECAR_FILE}: non-finite"):
            load_database(tmp_path / "db")

    def test_retrieval_is_read_only(self, tmp_path):
        bundle, _, db = build_db(n_train=10, n_valid=5)
        save_database(db, tmp_path / "before")
        query = embed_text(EMB, "CCO")
        for k in (1, 3, 15):
            for strategy in (TopK(), Jump(), Random(seed=1)):
                retrieve(db, query, k=k, strategy=strategy)
        save_database(db, tmp_path / "after")
        for name in (METADATA_FILE, SIDECAR_FILE):
            assert (tmp_path / "before" / name).read_bytes() == (
                tmp_path / "after" / name
            ).read_bytes()


# ---------------------------------------------------------------------------
# the store: rows over one float32 matrix


@st.composite
def pools(draw, smiles=st.text(SMILES_ALPHABET, min_size=1, max_size=12)):
    """A bundle and validation predictions for a random pool: either task,
    train and valid mixed or alone, descriptions None or any text, ids in
    an order unrelated to row order."""
    task = draw(st.sampled_from([REGRESSION, CLASSIFICATION]))
    splits = draw(st.sampled_from([(Split.TRAIN, Split.VALID), (Split.TRAIN,), (Split.VALID,)]))
    n = draw(st.integers(0, 24))
    ids = draw(st.permutations([f"m{i:02d}" for i in range(n)]))
    if task.is_classification:
        labels = st.sampled_from([0.0, 1.0])
    else:
        labels = st.floats(-1e6, 1e6, allow_nan=False)
    records, predictions = [], {}
    for mol_id in ids:
        split = draw(st.sampled_from(splits))
        records.append(
            MoleculeRecord(
                mol_id, draw(smiles), draw(st.none() | st.text(max_size=20)), split, draw(labels)
            )
        )
        if split is Split.VALID:
            predictions[mol_id] = draw(st.floats(0.0, 1.0))
    bundle = DatasetBundle(task=task, records=tuple(records))
    return bundle, predictions


class TestStore:
    @given(pool=pools(), dim=st.sampled_from([8, 16, 32]), described=st.booleans())
    @example(
        pool=(DatasetBundle(REGRESSION, ()), {}), dim=8, described=False
    )
    @settings(max_examples=60, deadline=None)
    def test_round_trip_over_random_pools(self, pool, dim, described):
        bundle, val_preds = pool
        db = build_database(bundle, val_preds, LocalHashConfig(dim=dim), described)
        assert db.dim == (dim if len(db) else 0)
        with tempfile.TemporaryDirectory() as tmp:
            save_database(db, Path(tmp) / "a")
            reloaded = load_database(Path(tmp) / "a")
            save_database(reloaded, Path(tmp) / "b")
            for name in (METADATA_FILE, SIDECAR_FILE):
                assert (Path(tmp) / "a" / name).read_bytes() == (
                    Path(tmp) / "b" / name
                ).read_bytes()
        assert reloaded == db

    @given(
        pool=pools(smiles=st.sampled_from(["CCO", "CCN", "c1ccccc1"])),
        query=st.sampled_from(["CCO", "CCN", "OCC"]),
        k=st.integers(1, 30),
        seed=st.integers(0, 2**64 - 1),
        exclude=st.booleans(),
    )
    @settings(max_examples=80, deadline=None)
    def test_tie_heavy_pools_match_oracles(self, pool, query, k, seed, exclude):
        # three distinct SMILES, so most entries share their vector exactly
        bundle, val_preds = pool
        assume(len(bundle.records) >= 2)
        db = build_database(bundle, val_preds, EMB)
        exclude_id = bundle.records[seed % len(bundle.records)].id if exclude else None
        vec = embed_text(EMB, query)
        topk = retrieve(db, vec, k, TopK(), exclude_id=exclude_id)
        assert list(topk.ids) == oracle_topk(db, vec, k, exclude_id)
        jump = retrieve(db, vec, k, Jump(), exclude_id=exclude_id)
        assert list(jump.ids) == oracle_jump(db, vec, k, exclude_id)
        rand = retrieve(db, vec, k, Random(seed=seed), exclude_id=exclude_id)
        assert list(rand.ids) == oracle_random(db, vec, k, seed, exclude_id)

    def test_row_views_share_the_matrix(self, tmp_path):
        _, _, db = build_db(n_train=6, n_valid=3)
        save_database(db, tmp_path / "db")
        for store in (db, load_database(tmp_path / "db")):
            assert store.embeddings.dtype == np.float32
            assert store.embeddings.shape == (9, EMB.dim)
            for i in range(len(store)):
                assert np.shares_memory(store[i].embedding, store.embeddings)
                assert store[i][:4] == store.rows[i] == store.entries[i][:4]
            ctx = retrieve(store, embed_text(EMB, "CCO"), k=3)
            assert all(np.shares_memory(e.embedding, store.embeddings) for e in ctx.items)



# ---------------------------------------------------------------------------
# the on-disk format: metadata lines, number types, pinned bytes

meta_texts = st.text() | st.sampled_from(['"', "\\", "\x00\x1f\x7f", "naïve Ω", "😀𝔘 astral", ""])
finite_floats = st.floats(allow_nan=False, allow_infinity=False)
meta_numbers = (
    finite_floats
    | finite_floats.map(np.float64)
    | st.sampled_from([-0.0, 5e-324, 1e16, 1e-7, 3.0, np.float64(3.0)])
)
metadata_rows = st.tuples(meta_texts, meta_texts, meta_numbers, st.none() | meta_numbers)


@given(st.lists(metadata_rows, max_size=4))
@example([
    ('q"uote\\back', "\x01\n\t😀", -0.0, 5e-324),
    ("漢字", "C", np.float64(3.0), None),
    ("x", "𝔘", 1e16, 1e-7),
])
@settings(max_examples=200, deadline=None)
def test_metadata_lines_equal_json_dumps(rows):
    want = [
        json.dumps(
            {"id": row[0], "smiles": row[1], "label": row[2], "primary_prediction": row[3]},
            separators=(",", ":"),
        )
        for row in rows
    ]
    assert knowledge._metadata_lines(rows) == want


def test_int_numbers_save_the_same_bytes_after_a_reload(tmp_path):
    # an int label or prediction is stored as a float, so the first save
    # already writes "3.0", as every later one does
    records = (
        MoleculeRecord("a", "CCO", None, Split.TRAIN, 3),
        MoleculeRecord("b", "CCN", "ring", Split.VALID, -1),
        MoleculeRecord("c", "C", None, Split.VALID, np.float64(1.5)),
    )
    val_preds = {"b": 2, "c": np.float64(0.25)}
    db = build_database(DatasetBundle(REGRESSION, records), val_preds, EMB)
    assert all(type(row[2]) is float for row in db.rows)
    assert all(type(row[3]) is float for row in db.rows if row[3] is not None)
    save_database(db, tmp_path / "a")
    save_database(load_database(tmp_path / "a"), tmp_path / "b")
    for name in (METADATA_FILE, SIDECAR_FILE):
        assert (tmp_path / "a" / name).read_bytes() == (tmp_path / "b" / name).read_bytes()
    meta = (tmp_path / "a" / METADATA_FILE).read_text()
    assert '"label":3.0,"primary_prediction":null' in meta
    assert '"label":-1.0,"primary_prediction":2.0' in meta


def pinned_pool():
    """2,600 entries, so the pool spans two block boundaries of the
    hasher. A quarter are SMILES shorter than the 3-byte n-gram without a
    description; a third have descriptions with quotes, escapes,
    non-ASCII and astral characters, some empty."""
    rng = random.Random(2024)
    short = ["C", "N", "O", "Cl", "Br", "CO"]
    words = ["ring", "chain", "naïve", "Ω", '"quoted"', "back\\slash", "tab\there", "漢字", "😀"]
    records, predictions = [], {}
    for i in range(2600):
        mol_id = f"p{i:05d}"
        split = Split.VALID if i % 5 == 0 else Split.TRAIN
        if i % 4 == 0:
            smiles = rng.choice(short)
        else:
            smiles = "".join(rng.choice(SMILES_ALPHABET) for _ in range(rng.randint(3, 40)))
        description = None
        if i % 3 == 0:
            description = " ".join(rng.choice(words) for _ in range(rng.randint(0, 6)))
        label = round(rng.uniform(-5.0, 5.0), rng.randint(0, 6))
        records.append(MoleculeRecord(mol_id, smiles, description, split, label))
        if split is Split.VALID:
            predictions[mol_id] = round(rng.uniform(-5.0, 5.0), 4)
    return DatasetBundle(REGRESSION, tuple(records)), predictions


def test_pinned_pool_bytes(tmp_path):
    # digests of the files as first written by json.dumps per entry and
    # the per-gram hasher; any change to the on-disk format or to the
    # embedding recipe moves them
    bundle, val_preds = pinned_pool()
    db = build_database(bundle, val_preds, LocalHashConfig(), include_description=True)
    save_database(db, tmp_path)
    digests = {
        name: hashlib.sha256((tmp_path / name).read_bytes()).hexdigest()
        for name in (METADATA_FILE, SIDECAR_FILE)
    }
    assert digests == {
        METADATA_FILE: "3ca60c1b8df02ab295476a2d4a2d8cba2ea15a05d45b16df18957b358eaba0cd",
        SIDECAR_FILE: "318eda6acf88a7be8b87574480ea04c6f38a8d1db131928e49cccdadfac63fca",
    }


class TestEntryEquality:
    def test_entries_compare_by_value(self, tmp_path):
        _, _, db = build_db(n_train=6, n_valid=3)
        save_database(db, tmp_path / "db")
        loaded = load_database(tmp_path / "db")
        # fields compare as tuples; numpy cannot decide == on two embedding arrays
        assert [e[:-1] for e in loaded.entries] == [e[:-1] for e in db.entries]
        for a, b in zip(loaded.entries, db.entries):
            assert np.array_equal(a.embedding, b.embedding)
        query = embed_text(EMB, "CCO")
        assert retrieve(loaded, query, k=4).ids == retrieve(db, query, k=4).ids
        assert retrieve(db, query, k=4).ids != retrieve(db, query, k=3).ids


def _matrix_db(count, dim, seed, zero_rows):
    """A pool of integer counts like the hasher's, each row's magnitude
    drawn from 1 to 100, some rows zero."""
    rng = np.random.default_rng(seed)
    scales = 10.0 ** rng.uniform(0, 2, size=(count, 1))
    matrix = np.round(rng.standard_normal((count, dim)) * scales).astype(np.float32)
    matrix[rng.random(count) < zero_rows] = 0.0
    rows = tuple((f"m{i:05d}", "C", 0.0, None) for i in range(count))
    return KnowledgeDatabase(REGRESSION, "fp", rows, matrix)


CALL = knowledge._CALL_ROWS


@given(
    count=st.one_of(st.sampled_from([0, 1, CALL - 1, CALL, CALL + 1]), st.integers(0, 3001)),
    dim=st.integers(1, 300),
    seed=st.integers(0, 2**32 - 1),
    zero_rows=st.sampled_from([0.0, 0.2, 1.0]),
)
@example(count=0, dim=8, seed=0, zero_rows=0.0)
@example(count=1, dim=1, seed=1, zero_rows=0.0)
@example(count=CALL - 1, dim=256, seed=2, zero_rows=0.2)
@example(count=CALL, dim=33, seed=3, zero_rows=0.0)
@example(count=CALL + 1, dim=300, seed=4, zero_rows=0.2)
@example(count=3001, dim=33, seed=5, zero_rows=0.2)
@example(count=CALL + 1, dim=16, seed=6, zero_rows=1.0)
@settings(max_examples=40, deadline=None)
def test_norms_are_bit_identical_to_linalg_norm(count, dim, seed, zero_rows):
    db = _matrix_db(count, dim, seed, zero_rows)
    want = np.linalg.norm(db.embeddings.astype(np.float64), axis=1)
    assert db._stats.norms.tobytes() == want.tobytes()


def test_a_pool_is_scanned_once(tmp_path, matrix_scans):
    # a database built in code checks and measures its matrix on its first
    # retrieval; loading does so in its own checks, and retrieval reads that
    _, _, db = build_db()
    query = embed_text(EMB, "CCO")
    assert matrix_scans == []
    for _ in range(2):
        retrieve(db, query, k=3)
        assert matrix_scans == [len(db)]
    save_database(db, tmp_path)
    matrix_scans.clear()
    loaded = load_database(tmp_path)
    for _ in range(2):
        retrieve(loaded, query, k=3)
    assert matrix_scans == [len(db)]


@pytest.mark.parametrize("strategy", [TopK(), Jump()], ids=["topk", "jump"])
def test_first_query_holds_no_whole_pool_float64_copy(strategy):
    # the first query computes the row norms and the largest ||x||_1, and
    # a query past the float32 bound scores in float64; each converts one
    # block of rows at a time, so the peak stays below a quarter of the
    # pool's float64 size, which a whole-pool float32 temporary exceeds
    count, dim = 16000, 256
    db = _matrix_db(count, dim, seed=7, zero_rows=0.0)
    query = np.random.default_rng(8).integers(-3, 4, dim).astype(np.float64)
    bound = db._stats.largest_l1 * np.abs(query).sum()
    assert bound < 2**24 <= bound * 2**10
    _, peak, _ = traced(
        lambda: [retrieve(db, q, k=10, strategy=strategy) for q in (query, query * 2**10)]
    )
    assert peak <= 0.25 * count * dim * 8


def test_save_and_load_hold_no_pool_sized_temporary(tmp_path):
    # saving writes the metadata lines a block at a time, and loading
    # streams them back and checks finiteness a block at a time; a
    # whole-file text, its line list and a whole-pool mask held over 4 MB
    db = _matrix_db(16000, 256, seed=7, zero_rows=0.0)
    _, peak, _ = traced(lambda: save_database(db, tmp_path))
    assert peak < (tmp_path / METADATA_FILE).stat().st_size
    loaded, peak, kept = traced(lambda: load_database(tmp_path))
    assert loaded == db
    # kept: the matrix, the rows and the id index the database holds. The
    # peak was measured 0.13 MB above it (the list the rows are collected
    # in); the loader's id -> line dict beside that index put it 1.0 MB above
    assert peak - kept <= 2**18


def test_build_composes_one_block_of_texts_at_a_time():
    # 5,000 texts of about 560 bytes: all of them composed at once held
    # 2.7 MB beside the one block the embedder works on
    rnd = random.Random(5)
    bundle = make_bundle(REGRESSION, n_train=5000, n_valid=100, n_test=0, seed=3)
    records = tuple(
        rec._replace(description="".join(rnd.choice("abcdefgh ") for _ in range(500)))
        for rec in bundle.records
    )
    bundle = DatasetBundle(REGRESSION, records)
    val_preds = make_predictions(bundle, Split.VALID)
    block = [
        compose_molecule_text(rec, True) for rec in records[: embed.LOCAL_BLOCK_TEXTS]
    ]
    _, block_peak, _ = traced(lambda: embed_texts(EMB, block))
    block_peak += sum(sys.getsizeof(text) for text in block)
    db, peak, kept = traced(lambda: build_database(bundle, val_preds, EMB, True))
    texts = [compose_molecule_text(rec, True) for rec in records]
    assert np.array_equal(db.embeddings, embed_texts(EMB, texts))
    # kept: the matrix, the rows and the id index the database holds; the
    # 0.5 MB allows for a later block's longer texts and the lists the
    # rows and records are collected in (measured 8.76 MB against 8.97 MB
    # for the first block; 11.22 MB when every text was composed first)
    assert peak - kept <= block_peak + 2**19


@pytest.mark.parametrize("count", [0, 1, CALL - 1, CALL, CALL + 1])
def test_saved_metadata_is_json_dumps_lines(tmp_path, count):
    # the lines go out a block at a time; the file is still the header and
    # one json.dumps line per entry, each ending in a newline
    rows = tuple((f"m{i:05d}", f"C{i}", i / 7, None if i % 2 else -i / 3) for i in range(count))
    db = KnowledgeDatabase(REGRESSION, "fp", rows, np.ones((count, 3), np.float32))
    save_database(db, tmp_path)
    records = [{"task": "regression", "fingerprint": "fp", "dim": 3, "entries": count}]
    records += [
        {"id": id, "smiles": smiles, "label": label, "primary_prediction": prediction}
        for id, smiles, label, prediction in rows
    ]
    want = "\n".join(json.dumps(record, separators=(",", ":")) for record in records) + "\n"
    assert (tmp_path / METADATA_FILE).read_bytes() == want.encode()


# ---------------------------------------------------------------------------
# exact integer scoring and the top-k partition


@given(
    count=st.one_of(st.sampled_from([1, 2, CALL, CALL + 1]), st.integers(1, 1200)),
    dim=st.one_of(st.sampled_from([1, 7, 33, 256]), st.integers(1, 300)),
    seed=st.integers(0, 2**32 - 1),
)
@example(count=22000, dim=256, seed=11)
@settings(max_examples=60, deadline=None)
def test_float32_gemv_dots_equal_float64_dots(count, dim, seed):
    # integer rows and a query as large as the 2**24 bound allows: every
    # partial sum is an integer float32 holds exactly, so the float32 GEMV
    # equals the float64 dot products bit for bit, in any summation order
    # and on any thread count, and so do the cosines scored from it
    rng = np.random.default_rng(seed)
    db = _matrix_db(count, dim, seed, zero_rows=0.1)
    top = max(1, int((2**24 - 1) // max(db._stats.largest_l1, 1.0) // dim))
    q = rng.integers(-top, top + 1, dim).astype(np.float64)
    assert max(db._stats.largest_l1, 1.0) * np.abs(q).sum() < 2**24
    exact = db.embeddings.astype(np.float64) @ q
    got = np.matmul(db.embeddings, q.astype(np.float32)).astype(np.float64)
    assert got.tobytes() == exact.tobytes()
    qn = float(np.linalg.norm(q))
    with np.errstate(invalid="ignore", divide="ignore"):
        sims = exact / (db._stats.norms * qn)
    sims = np.where((db._stats.norms == 0.0) | (qn == 0.0), 0.0, sims)
    assert knowledge._cosines(db, q).tobytes() == sims.tobytes()


def test_float64_scoring_past_the_float32_bound_matches_oracle():
    # a query whose ||q||_1 puts ||x||_1 * ||q||_1 past 2**24 is scored in
    # float64 blocks: its counts, and so its dot products, need more bits
    # than float32 has (a power-of-two scale would not, and the actual dot
    # products of a smaller one can stay below 2**24)
    _, _, db = build_db(n_train=160, n_valid=40, seed=12)
    q = embed_text(EMB, "NCCCO=1") * (2**24 + 1)
    assert db._stats.largest_l1 * np.abs(q).sum() >= 2**24
    exact = db.embeddings.astype(np.float64) @ q
    with np.errstate(invalid="ignore", divide="ignore"):
        sims = exact / (db._stats.norms * float(np.linalg.norm(q)))
    sims = np.where(db._stats.norms == 0.0, 0.0, sims)
    assert knowledge._cosines(db, q).tobytes() == sims.tobytes()
    for k in (1, 7, 200):
        assert list(retrieve(db, q, k).ids) == oracle_topk(db, q, k)
        assert list(retrieve(db, q, k, Jump()).ids) == oracle_jump(db, q, k)
    valid_id = db.rows[-1][0]
    assert list(retrieve(db, q, 9, exclude_id=valid_id).ids) == oracle_topk(db, q, 9, valid_id)


def _tied_db(count, dim, distinct, zero_rows, seed, spread=20):
    """A pool of ``count`` rows drawn from ``distinct`` integer vectors,
    some rows zero, with ids in an order unrelated to row order. A small
    ``spread`` makes the vectors near-duplicates of one another (0 makes
    them equal), so their cosines differ in the last few digits or tie."""
    rng = np.random.default_rng(seed)
    vectors = rng.integers(-50, 51, dim) + rng.integers(-spread, spread + 1, (distinct, dim))
    vectors = vectors.astype(np.float32)
    matrix = vectors[rng.integers(0, distinct, size=count)]
    matrix[rng.random(count) < zero_rows] = 0.0
    ids = rng.permutation(count)
    rows = tuple((f"t{i:05d}", "C", 0.0, None) for i in ids)
    return KnowledgeDatabase(REGRESSION, "fp", rows, matrix), vectors


@given(
    count=st.integers(2, 400),
    dim=st.sampled_from([3, 8, 33, 256]),
    distinct=st.one_of(st.integers(1, 6), st.integers(7, 80)),
    spread=st.sampled_from([20, 1, 0]),
    zero_rows=st.sampled_from([0.0, 0.3, 1.0]),
    k_from_end=st.integers(-3, 40),
    query=st.sampled_from(["row", "noisy row", "random", "zero", "scaled row"]),
    exclude=st.booleans(),
    seed=st.integers(0, 2**32 - 1),
)
@settings(max_examples=120, deadline=None)
def test_prefiltered_topk_matches_oracle(
    count, dim, distinct, spread, zero_rows, k_from_end, query, exclude, seed
):
    # top-k sorts only the rows at or above the partition's k-th score;
    # rows tie exactly or nearly, so that score usually sits inside a tie
    db, vectors = _tied_db(count, dim, distinct, zero_rows, seed, spread)
    rng = np.random.default_rng(seed + 1)
    q = {
        "row": vectors[0],
        "noisy row": vectors[0] + rng.integers(-1, 2, dim),
        "random": rng.integers(-50, 51, dim),
        "zero": np.zeros(dim),
        "scaled row": vectors[0] * (2**14 + 1),  # mostly past the float32 bound
    }[query].astype(np.float64)
    exclude_id = db.rows[seed % count][0] if exclude else None
    n = count - exclude
    # a draw below 4 puts k within 3 of the pool size n; k >= n returns it all
    k = max(1, n - k_from_end) if k_from_end < 4 else min(k_from_end, n)
    ctx = retrieve(db, q, k, TopK(), exclude_id=exclude_id)
    assert list(ctx.ids) == oracle_topk(db, q, k, exclude_id)
