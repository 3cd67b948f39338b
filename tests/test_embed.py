import random

import numpy as np
import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st

from molcorr import embed
from molcorr.embed import (
    EmbedError,
    LocalHashConfig,
    embed_molecule,
    embed_text,
    embed_texts,
)
from molcorr.ingest import MoleculeRecord, Split
from conftest import SMILES_ALPHABET, cosine_similarity, traced

# Independent reimplementation of the pinned hashing recipe, used to
# freeze expected vectors. Kept deliberately separate from the library's
# FNV/bucketing code path.


def oracle_vector(text: str, dim: int, ngram: int):
    data = text.encode("utf-8").lower()
    acc = [0.0] * dim
    if data:
        grams = [data] if len(data) < ngram else [
            data[i : i + ngram] for i in range(len(data) - ngram + 1)
        ]
        for gram in grams:
            h = 0xCBF29CE484222325
            for byte in gram:
                h = ((h ^ byte) * 0x100000001B3) % 2**64
            sign = 1.0 if h < 2**63 else -1.0
            acc[h % dim] += sign
    return acc


# frozen with oracle_vector("ccccco", 16, 3): three "ccc" grams and one
# "cco" gram land in buckets 0 and 4, both with negative sign
CCCCCO_DIM16 = [0.0] * 16
CCCCCO_DIM16[0] = -3.0
CCCCCO_DIM16[4] = -1.0


def test_localhash_pinned_example():
    assert oracle_vector("ccccco", 16, 3) == pytest.approx(CCCCCO_DIM16, abs=0)
    vec = embed_text(LocalHashConfig(dim=16, ngram=3), "ccccco")
    assert vec.tolist() == pytest.approx(CCCCCO_DIM16, abs=0)


def test_localhash_deterministic():
    cfg = LocalHashConfig(dim=256)
    a = embed_text(cfg, "CCO")
    b = embed_text(cfg, "CCO")
    assert np.array_equal(a, b)


def test_empty_text_is_zero_vector():
    vec = embed_text(LocalHashConfig(dim=256), "")
    assert vec.shape == (256,)
    assert not vec.any()


def test_short_text_uses_whole_string():
    cfg = LocalHashConfig(dim=64, ngram=3)
    assert embed_text(cfg, "ab").tolist() == oracle_vector("ab", 64, 3)


def test_case_insensitive():
    cfg = LocalHashConfig(dim=64)
    assert np.array_equal(embed_text(cfg, "CCO"), embed_text(cfg, "cco"))


def test_config_validation():
    with pytest.raises(EmbedError):
        LocalHashConfig(dim=4)
    with pytest.raises(EmbedError):
        LocalHashConfig(ngram=0)


@given(st.text(min_size=0, max_size=48))
@settings(max_examples=150, deadline=None)
def test_localhash_matches_oracle(text):
    cfg = LocalHashConfig(dim=32, ngram=3)
    assert embed_text(cfg, text).tolist() == oracle_vector(text, 32, 3)


@given(st.text(max_size=48))
@settings(max_examples=150, deadline=None)
def test_localhash_counts_are_exact_integers(text):
    # the vectors hold bucket counts, not normalised: integers that the
    # pool's float32 matrix stores exactly
    cfg = LocalHashConfig(dim=256, ngram=3)
    vec = embed_text(cfg, text)
    assert (vec == np.trunc(vec)).all()
    assert vec.tolist() == embed_texts(cfg, [text])[0].tolist()


# empty, shorter than every tested ngram, uppercase and non-ASCII texts
EDGE_TEXTS = [
    "", "", "C", "Cl", "CCO", "NaCl", "C1=CC=CC=C1", "[NH4+]", "ÉTHANOL",
    "ß", "漢字", "naïve Ω", "CC(=O)Oc1ccccc1C(=O)O\ncyclic ESTER, 9 carbons",
]


@given(
    st.sampled_from([(8, 1), (16, 2), (37, 5), (256, 3), (1000, 4)]),
    st.lists(st.text(max_size=40), min_size=1, max_size=30),
    st.integers(min_value=1100, max_value=2200),
    st.randoms(use_true_random=False),
)
@settings(max_examples=20, deadline=None)
def test_block_path_matches_oracle(shape, drawn, size, rnd):
    # 1,100-2,200 texts put a block boundary inside the list
    dim, ngram = shape
    pool = drawn + EDGE_TEXTS
    texts = [rnd.choice(pool) for _ in range(size)]
    want = {text: oracle_vector(text, dim, ngram) for text in set(texts)}
    cfg = LocalHashConfig(dim=dim, ngram=ngram)
    # the float64 rows of each block, which the float32 matrix holds exactly
    block = embed.LOCAL_BLOCK_TEXTS
    exact = np.concatenate(
        [embed._local_hash_block(cfg, texts[i : i + block]) for i in range(0, size, block)]
    )
    assert exact.dtype == np.float64
    got = embed_texts(cfg, texts)
    assert got.dtype == np.float32
    assert got.shape == (size, dim)
    for text, row, vec in zip(texts, exact, got):
        assert row.tolist() == want[text]
        assert vec.tolist() == want[text]


def test_pool_embedding_holds_one_small_block_beside_its_output():
    # 2,000 texts of 120 bytes: the per-gram arrays of a 1,024-text block
    # held about 8 MB beside the output
    rnd = random.Random(5)
    texts = ["".join(rnd.choice(SMILES_ALPHABET) for _ in range(120)) for _ in range(2000)]
    out, peak, _ = traced(lambda: embed_texts(LocalHashConfig(), texts))
    assert peak - out.nbytes <= 5 * 2**20


def test_block_hasher_memory():
    # one block of 560-byte texts: gathering the gram starts through index
    # arrays peaked at 10.3 MiB; a window mask and float64 signs made from
    # the hash bits take it to 7.4 MiB
    rnd = random.Random(5)
    texts = [
        "".join(rnd.choice("abcdefgh ") for _ in range(560))
        for _ in range(embed.LOCAL_BLOCK_TEXTS)
    ]
    _, peak, _ = traced(lambda: embed._local_hash_block(LocalHashConfig(), texts))
    assert peak <= 9 * 2**20


def test_block_path_empty_inputs():
    cfg = LocalHashConfig(dim=37, ngram=5)
    exact = embed._local_hash_block(cfg, ["", "", ""])
    assert exact.dtype == np.float64
    assert exact.shape == (3, 37)
    assert not exact.any()
    vecs = embed_texts(cfg, ["", "", ""])
    assert vecs.dtype == np.float32
    assert vecs.shape == (3, 37)
    assert not vecs.any()
    assert embed_texts(cfg, []).shape == (0, 0)


class TestCosine:
    def test_orthogonal(self):
        assert cosine_similarity(np.array([1.0, 0.0]), np.array([0.0, 1.0])) == 0.0

    def test_self_similarity(self):
        assert cosine_similarity(np.array([3.0, 4.0]), np.array([3.0, 4.0])) == 1.0

    def test_known_angle(self):
        got = cosine_similarity(np.array([1.0, 1.0]), np.array([1.0, 0.0]))
        assert got == pytest.approx(0.7071067811865475, abs=1e-12)

    def test_zero_vector(self):
        assert cosine_similarity(np.zeros(3), np.array([1.0, 2.0, 3.0])) == 0.0

    def test_dim_mismatch(self):
        with pytest.raises(ValueError, match="dim mismatch"):
            cosine_similarity(np.zeros(3), np.zeros(4))

    @given(
        st.lists(st.floats(-1e6, 1e6), min_size=2, max_size=16),
        st.lists(st.floats(-1e6, 1e6), min_size=2, max_size=16),
    )
    @settings(max_examples=200, deadline=None)
    def test_symmetry_exact(self, xs, ys):
        size = min(len(xs), len(ys))
        a, b = np.array(xs[:size]), np.array(ys[:size])
        assert cosine_similarity(a, b) == cosine_similarity(b, a)

    @given(st.lists(st.floats(-1e3, 1e3), min_size=2, max_size=16))
    @settings(max_examples=200, deadline=None)
    def test_self_cosine_is_one(self, xs):
        a = np.array(xs)
        assume(np.linalg.norm(a) > 1e-6)
        assert abs(cosine_similarity(a, a) - 1.0) < 1e-12

    @given(
        st.lists(st.floats(-1e3, 1e3), min_size=2, max_size=8),
        st.lists(st.floats(-1e3, 1e3), min_size=2, max_size=8),
        st.floats(1e-3, 1e3),
    )
    @settings(max_examples=200, deadline=None)
    def test_scale_invariance(self, xs, ys, alpha):
        size = min(len(xs), len(ys))
        a, b = np.array(xs[:size]), np.array(ys[:size])
        assume(np.linalg.norm(a) > 1e-6 and np.linalg.norm(b) > 1e-6)
        assert cosine_similarity(alpha * a, b) == pytest.approx(
            cosine_similarity(a, b), abs=1e-12
        )


class TestComposition:
    record = MoleculeRecord("m1", "CCO", None, Split.TRAIN, 1.0)
    described = MoleculeRecord(
        "m2", "CCO", "two carbons, one oxygen", Split.TRAIN, 1.0
    )

    def test_flag_off(self):
        cfg = LocalHashConfig(dim=64)
        assert np.array_equal(
            embed_molecule(cfg, self.described, include_description=False),
            embed_text(cfg, "CCO"),
        )

    def test_flag_on_missing_description(self):
        cfg = LocalHashConfig(dim=64)
        assert np.array_equal(
            embed_molecule(cfg, self.record, include_description=True),
            embed_text(cfg, "CCO"),
        )

    def test_flag_on_with_description(self):
        cfg = LocalHashConfig(dim=64)
        assert np.array_equal(
            embed_molecule(cfg, self.described, include_description=True),
            embed_text(cfg, "CCO\ntwo carbons, one oxygen"),
        )
