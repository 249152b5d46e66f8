"""Relevance aggregators against naive oracles, and re-ranking contracts."""

import hashlib
import math
from itertools import combinations

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from conftest import table_corpus
from isoembed import (
    EmbeddingCorpus,
    GlowModel,
    GlowSpec,
    PostProcessor,
    RankingRun,
    WhiteningTransform,
    apply_whitening,
    colbert_score,
    fit_whitening,
    pool_sequences,
    rank_candidates,
    repbert_score,
)
from isoembed import isotropy, scoring
from isoembed.errors import (
    ConfigurationError,
    IsoembedError,
    ShapeError,
    UnknownIdError,
    ZeroNormError,
)
from isoembed.flows import apply_flow, flow_forward, load_flow, model_checksum, save_flow
from isoembed.scoring import SEQUENCE_WISE, TOKEN_WISE
from isoembed.store import KIND_DOCUMENT, KIND_QUERY, blocked_corpus


def cosine(a, b):
    return float(np.dot(a, b) / (np.linalg.norm(a) * np.linalg.norm(b)))


def colbert_oracle(query_tokens, doc_tokens) -> float:
    """Literal enumeration over every (query token, doc token) pair."""
    total = 0.0
    for q in query_tokens:
        total += max(cosine(q, d) for d in doc_tokens)
    return total


def repbert_oracle(query_tokens, doc_tokens) -> float:
    q = np.zeros(len(query_tokens[0]))
    for row in query_tokens:
        q += row
    q /= len(query_tokens)
    d = np.zeros(len(doc_tokens[0]))
    for row in doc_tokens:
        d += row
    d /= len(doc_tokens)
    return cosine(q, d)


class TestColbertScore:
    def test_exact_match_token(self):
        assert colbert_score([[1.0, 0.0]], [[0.0, 1.0], [1.0, 0.0]]) == pytest.approx(
            1.0, abs=1e-6
        )

    def test_two_query_tokens_anchor(self):
        got = colbert_score([[1.0, 0.0], [0.0, 1.0]], [[1.0, 1.0]])
        assert got == pytest.approx(np.sqrt(2.0), abs=1e-6)

    def test_doc_order_and_scaling_invariance(self):
        rng = np.random.default_rng(20)
        q = rng.normal(size=(3, 5))
        d = rng.normal(size=(4, 5))
        base = colbert_score(q, d)
        assert colbert_score(q, d[::-1]) == pytest.approx(base, abs=1e-12)
        scales = rng.uniform(0.5, 4.0, size=(4, 1))
        assert colbert_score(q, d * scales) == pytest.approx(base, abs=1e-12)

    def test_matches_enumeration_oracle(self):
        rng = np.random.default_rng(21)
        for _ in range(100):
            q = rng.normal(size=(rng.integers(1, 6), 4))
            d = rng.normal(size=(rng.integers(1, 7), 4))
            assert colbert_score(q, d) == pytest.approx(colbert_oracle(q, d), abs=1e-12)

    def test_bounds(self):
        rng = np.random.default_rng(22)
        for _ in range(20):
            q = rng.normal(size=(3, 4))
            d = rng.normal(size=(5, 4))
            score = colbert_score(q, d)
            assert -3.0 <= score <= 3.0

    def test_zero_norm_token_rejected(self):
        with pytest.raises(ValueError, match="zero norm"):
            colbert_score([[0.0, 0.0]], [[1.0, 0.0]])


class TestRepbertScore:
    def test_parallel_means(self):
        assert repbert_score([[1.0, 0.0], [0.0, 1.0]], [[1.0, 1.0]]) == pytest.approx(
            1.0, abs=1e-6
        )

    def test_orthogonal(self):
        assert repbert_score([[1.0, 0.0]], [[0.0, 1.0]]) == pytest.approx(0.0, abs=1e-6)

    def test_matches_naive_oracle(self):
        rng = np.random.default_rng(23)
        for _ in range(100):
            q = rng.normal(size=(3, 6))
            d = rng.normal(size=(4, 6))
            assert repbert_score(q, d) == pytest.approx(repbert_oracle(q, d), abs=1e-12)

    def test_bounds(self):
        rng = np.random.default_rng(24)
        for _ in range(20):
            score = repbert_score(rng.normal(size=(2, 3)), rng.normal(size=(3, 3)))
            assert -1.0 <= score <= 1.0

    def test_zero_norm_pool_rejected(self):
        with pytest.raises(ValueError, match="zero norm"):
            repbert_score([[1.0, 0.0], [-1.0, 0.0]], [[1.0, 1.0]])

    def test_zero_norms_raise_zero_norm_error(self):
        with pytest.raises(ZeroNormError, match="pooled doc vector"):
            repbert_score([[1.0, 0.0]], [[1.0, 1.0], [-1.0, -1.0]])
        with pytest.raises(ZeroNormError, match="query: token row 0"):
            colbert_score([[0.0, 0.0]], [[1.0, 0.0]])

    @settings(max_examples=200, deadline=None)
    @given(
        dim=st.integers(2, 8),
        q_count=st.integers(1, 12),
        d_count=st.integers(1, 12),
        seed=st.integers(0, 2**32 - 1),
    )
    def test_pools_as_pool_sequences(self, dim, q_count, d_count, seed):
        """The oracle pools a sequence exactly as the ranker and
        pool_sequences do, so its cosine of their pooled rows is bitwise
        its own score."""
        rng = np.random.default_rng(seed)
        q = rng.normal(size=(q_count, dim)) * 10.0 ** rng.integers(-3, 4)
        d = rng.normal(size=(d_count, dim)) + rng.normal(size=dim)
        table = [("q", KIND_QUERY, 0, q_count), ("d", KIND_DOCUMENT, q_count, d_count)]
        corpus = table_corpus(np.vstack([q, d]), table)
        pq, pd = pool_sequences(corpus)
        expected = float(pq @ pd / (np.linalg.norm(pq) * np.linalg.norm(pd)))
        assert repbert_score(q, d) == expected


def corpus_with(query_tokens, doc_token_map) -> EmbeddingCorpus:
    rows = [np.atleast_2d(np.asarray(query_tokens, dtype=float))]
    table = [("q", KIND_QUERY, 0, rows[0].shape[0])]
    offset = rows[0].shape[0]
    for doc_id, tokens in doc_token_map.items():
        block = np.atleast_2d(np.asarray(tokens, dtype=float))
        table.append((doc_id, KIND_DOCUMENT, offset, block.shape[0]))
        rows.append(block)
        offset += block.shape[0]
    return table_corpus(np.vstack(rows), table)


def tokens_of(corpus: EmbeddingCorpus, kind: str, seq_id: str) -> np.ndarray:
    """One sequence's token rows, sliced from the matrix at its table entry."""
    (i,) = corpus.locate(kind, [seq_id])
    return corpus.matrix[corpus.offsets[i] : corpus.offsets[i] + corpus.counts[i]]


def transformed(transform, rows: np.ndarray) -> np.ndarray:
    """``rows`` through a whitening, a flow, or (None) nothing."""
    if transform is None:
        return rows
    if isinstance(transform, WhiteningTransform):
        return apply_whitening(transform, rows)
    return apply_flow(transform, rows)


def identity_whitening(dim: int) -> WhiteningTransform:
    return WhiteningTransform(
        mu=np.zeros(dim),
        rotation=np.eye(dim),
        eigenvalues=np.ones(dim),
        eps_rel=1e-8,
        fitted_on=2,
    )


class TestRankCandidates:
    def test_ordering_matches_pairwise_scores(self):
        corpus = corpus_with(
            [[1.0, 0.0]],
            {"a": [[0.8, 0.6]], "b": [[1.0, 0.1]], "c": [[0.0, 1.0]]},
        )
        ranked = rank_candidates(corpus, {"q": ["a", "b", "c"]}, scorer="repbert")["q"]
        assert [doc_id for doc_id, _ in ranked] == ["b", "a", "c"]
        assert ranked[0][1] >= ranked[1][1] >= ranked[2][1]

    def test_identity_post_processor_preserves_ranking(self):
        rng = np.random.default_rng(25)
        docs = {f"d{i}": rng.normal(size=(3, 4)) for i in range(6)}
        corpus = corpus_with(rng.normal(size=(2, 4)), docs)
        plain = rank_candidates(corpus, {"q": sorted(docs)}, scorer="colbert")["q"]
        post = PostProcessor(identity_whitening(4), TOKEN_WISE)
        identity = rank_candidates(corpus, {"q": sorted(docs)}, scorer="colbert", post=post)["q"]
        assert [doc_id for doc_id, _ in plain] == [doc_id for doc_id, _ in identity]
        for (_, a), (_, b) in zip(plain, identity):
            assert b == pytest.approx(a, abs=1e-12)

    def test_equal_scores_tie_break_by_doc_id(self):
        corpus = corpus_with(
            [[1.0, 0.0]],
            {"zz": [[2.0, 0.0]], "aa": [[3.0, 0.0]], "mm": [[0.0, 1.0]]},
        )
        ranked = rank_candidates(corpus, {"q": ["zz", "aa", "mm"]}, scorer="repbert")["q"]
        assert [doc_id for doc_id, _ in ranked] == ["aa", "zz", "mm"]

    def test_colbert_sequence_wise_rejected(self):
        corpus = corpus_with([[1.0, 0.0]], {"a": [[1.0, 0.0]]})
        with pytest.raises(ConfigurationError):
            rank_candidates(
                corpus,
                {"q": ["a"]},
                scorer="colbert",
                post=PostProcessor(None, SEQUENCE_WISE),
            )

    def test_unknown_ids_rejected(self):
        corpus = corpus_with([[1.0, 0.0]], {"a": [[1.0, 0.0]]})
        with pytest.raises(KeyError):
            rank_candidates(corpus, {"missing": ["a"]})
        with pytest.raises(KeyError):
            rank_candidates(corpus, {"q": ["missing"]})

    def test_unknown_ids_raise_a_typed_key_error(self):
        corpus = corpus_with([[1.0, 0.0]], {"a": [[1.0, 0.0]]})
        for candidates, message in (
            ({"q": ["a"], "nope": []}, "no query with id 'nope' in corpus"),
            ({"q": ["a", "dx"]}, "no document with id 'dx' in corpus"),
        ):
            with pytest.raises(UnknownIdError) as caught:
                rank_candidates(corpus, candidates)
            assert isinstance(caught.value, KeyError)
            assert isinstance(caught.value, IsoembedError)
            assert str(caught.value) == message

    @pytest.mark.parametrize(
        "scorer, docs, message",
        [
            ("colbert", {"a": [[1.0, 0.0]], "b": [[0.0, 0.0]]}, "document 'b': token row 0"),
            ("repbert", {"a": [[1.0, 0.0]], "b": [[1.0, 1.0], [-1.0, -1.0]]},
             "pooled document vector of 'b'"),
        ],
    )
    def test_zero_norm_raises_a_typed_value_error(self, scorer, docs, message):
        corpus = corpus_with([[1.0, 0.0]], docs)
        with pytest.raises(ZeroNormError, match=message) as caught:
            rank_candidates(corpus, {"q": ["a", "b"]}, scorer=scorer)
        assert isinstance(caught.value, ValueError)
        assert isinstance(caught.value, IsoembedError)

    @pytest.mark.parametrize("scorer", ["colbert", "repbert"])
    def test_signed_zero_scores_tie_by_doc_id(self, scorer):
        """-0.0 == 0.0, so a document scoring -0.0 ties with one scoring
        0.0 and the smaller id ranks first, as RankingRun requires."""
        corpus = corpus_with(
            [[1.0, 0.0]],
            # a's cosine underflows to -0.0 for repbert; b is orthogonal
            {"b": [[0.0, 1.0]], "a": [[-2.0**-1070, 2.0**60]], "c": [[-1.0, 0.0]]},
        )
        ranked = rank_candidates(corpus, {"q": ["c", "b", "a"]}, scorer=scorer)["q"]
        assert [doc_id for doc_id, _ in ranked] == ["a", "b", "c"]
        if scorer == "repbert":
            assert math.copysign(1.0, ranked[0][1]) == -1.0
        RankingRun({"q": ranked})

    def test_token_wise_whitened_repbert_matches_oracle(self):
        """Transform-the-tokens-then-pool must equal an independently
        computed cosine of whitened-token means."""
        rng = np.random.default_rng(26)
        docs = {f"d{i}": rng.normal(size=(4, 5)) + 1.5 for i in range(4)}
        corpus = corpus_with(rng.normal(size=(3, 5)) + 1.5, docs)
        transform = fit_whitening(corpus.matrix)
        post = PostProcessor(transform, TOKEN_WISE)
        ranked = rank_candidates(corpus, {"q": sorted(docs)}, scorer="repbert", post=post)["q"]
        q_white = apply_whitening(transform, tokens_of(corpus, KIND_QUERY, "q"))
        for doc_id, score in ranked:
            d_white = apply_whitening(transform, tokens_of(corpus, KIND_DOCUMENT, doc_id))
            expected = cosine(q_white.mean(axis=0), d_white.mean(axis=0))
            assert score == pytest.approx(expected, abs=1e-12)

    def test_sequence_wise_pools_before_transform(self):
        """Pool-then-transform differs from transform-then-pool whenever
        the map has a nonzero offset; verify the sequence-wise path against
        a direct computation."""
        rng = np.random.default_rng(27)
        docs = {f"d{i}": rng.normal(size=(3, 4)) + 2.0 for i in range(3)}
        corpus = corpus_with(rng.normal(size=(2, 4)) + 2.0, docs)
        transform = fit_whitening(corpus.matrix)
        post = PostProcessor(transform, SEQUENCE_WISE)
        ranked = rank_candidates(corpus, {"q": sorted(docs)}, scorer="repbert", post=post)["q"]
        pooled_q = tokens_of(corpus, KIND_QUERY, "q").mean(axis=0)
        zq = apply_whitening(transform, pooled_q[None, :])[0]
        for doc_id, score in ranked:
            pooled_d = tokens_of(corpus, KIND_DOCUMENT, doc_id).mean(axis=0)
            zd = apply_whitening(transform, pooled_d[None, :])[0]
            assert score == pytest.approx(cosine(zq, zd), abs=1e-12)

    def test_deterministic(self):
        rng = np.random.default_rng(28)
        docs = {f"d{i}": rng.normal(size=(2, 3)) for i in range(5)}
        corpus = corpus_with(rng.normal(size=(2, 3)), docs)
        first = rank_candidates(corpus, {"q": sorted(docs)}, scorer="colbert")["q"]
        second = rank_candidates(corpus, {"q": sorted(docs)}, scorer="colbert")["q"]
        assert first == second

    def test_separate_document_transform(self):
        """With doc_transform set, queries and documents go through their
        own fitted maps."""
        rng = np.random.default_rng(29)
        docs = {f"d{i}": rng.normal(size=(3, 4)) + 1.0 for i in range(3)}
        corpus = corpus_with(rng.normal(size=(2, 4)) - 1.0, docs)
        from isoembed.store import KIND_DOCUMENT, KIND_QUERY, rows_of_kind

        t_query = fit_whitening(np.vstack([rows_of_kind(corpus, KIND_QUERY)] * 2))
        t_doc = fit_whitening(rows_of_kind(corpus, KIND_DOCUMENT))
        post = PostProcessor(t_query, TOKEN_WISE, doc_transform=t_doc)
        ranked = rank_candidates(corpus, {"q": sorted(docs)}, scorer="repbert", post=post)["q"]
        q_tokens = apply_whitening(t_query, tokens_of(corpus, KIND_QUERY, "q"))
        for doc_id, score in ranked:
            d_tokens = apply_whitening(t_doc, tokens_of(corpus, KIND_DOCUMENT, doc_id))
            expected = cosine(q_tokens.mean(axis=0), d_tokens.mean(axis=0))
            assert score == pytest.approx(expected, abs=1e-12)


def per_query_oracle(corpus, candidates, scorer, post):
    """One query at a time, each sequence transformed on its own, scored
    with colbert_score / repbert_score: the per-candidate definition that
    the bulk ranking must reproduce."""
    ranked = {}
    for qid, doc_ids in candidates.items():
        q_tokens = tokens_of(corpus, KIND_QUERY, qid)
        scored = []
        for doc_id in doc_ids:
            d_tokens = tokens_of(corpus, KIND_DOCUMENT, doc_id)
            if post.granularity == SEQUENCE_WISE:
                q = transformed(post.transform, q_tokens.mean(axis=0, keepdims=True))
                d = transformed(post.doc_side, d_tokens.mean(axis=0, keepdims=True))
                scored.append((doc_id, repbert_score(q, d)))
            else:
                score = colbert_score if scorer == "colbert" else repbert_score
                q = transformed(post.transform, q_tokens)
                scored.append((doc_id, score(q, transformed(post.doc_side, d_tokens))))
        ranked[qid] = sorted(scored, key=lambda item: (-item[1], item[0]))
    return ranked


def perturbed_glow(dim: int, seed: int):
    """A tiny glow whose parameters are moved off the identity start."""
    model = GlowModel.build(dim, GlowSpec(levels=2, depth=1, hidden=(3,)), seed=seed)
    rng = np.random.default_rng(seed)
    for p in model.parameters():
        p.data += rng.normal(scale=0.2, size=p.data.shape)
    return model


@st.composite
def bulk_cases(draw):
    """Random corpus, shared candidate lists (some empty), scorer and
    post-processor; all numbers come from a drawn numpy seed."""
    seed = draw(st.integers(0, 2**32 - 1))
    rng = np.random.default_rng(seed)
    dim = 4
    n_queries = draw(st.integers(1, 4))
    n_docs = draw(st.integers(1, 6))
    queries = {f"q{i}": rng.normal(size=(draw(st.integers(1, 4)), dim)) for i in range(n_queries)}
    docs = {f"d{i}": rng.normal(size=(draw(st.integers(1, 4)), dim)) + 0.5 for i in range(n_docs)}
    rows, table, offset = [], [], 0
    for kind, blocks in ((KIND_QUERY, queries), (KIND_DOCUMENT, docs)):
        for seq_id, block in blocks.items():
            table.append((seq_id, kind, offset, block.shape[0]))
            rows.append(block)
            offset += block.shape[0]
    corpus = table_corpus(np.vstack(rows), table)
    doc_ids = sorted(docs)
    candidates = {
        qid: draw(st.lists(st.sampled_from(doc_ids), max_size=n_docs, unique=True))
        for qid in queries
    }
    scorer = draw(st.sampled_from(["colbert", "repbert"]))
    granularities = [TOKEN_WISE] if scorer == "colbert" else [TOKEN_WISE, SEQUENCE_WISE]
    granularity = draw(st.sampled_from(granularities))
    kind = draw(st.sampled_from(["none", "whiten", "glow"]))
    separate_docs = kind != "none" and draw(st.booleans())
    if kind == "none":
        post = PostProcessor(None, granularity)
    elif kind == "whiten":
        doc_transform = fit_whitening(corpus.matrix[::-1] ** 3) if separate_docs else None
        post = PostProcessor(fit_whitening(corpus.matrix), granularity, doc_transform)
    else:
        doc_transform = perturbed_glow(dim, seed + 1) if separate_docs else None
        post = PostProcessor(perturbed_glow(dim, seed), granularity, doc_transform)
    return corpus, candidates, scorer, post


ORACLE_TOLERANCE = 1e-12


def assert_matches_oracle(bulk, oracle):
    """Each bulk score is within ORACLE_TOLERANCE of the oracle's, and the
    bulk order follows its own rule, score descending, then doc id.

    The oracle transforms each sequence on its own, and a one-row transform
    takes another BLAS path, so its scores may differ from the bulk's in
    the last bits and break an exact tie either way. The two orders must
    agree wherever the oracle's scores are further apart than the
    tolerance.
    """
    for qid, expected in oracle.items():
        got = bulk[qid]
        assert got == sorted(got, key=lambda item: (-item[1], item[0]))
        assert sorted(doc_id for doc_id, _ in got) == sorted(doc_id for doc_id, _ in expected)
        got_scores = dict(got)
        for doc_id, score in expected:
            assert abs(got_scores[doc_id] - score) <= ORACLE_TOLERANCE
        rank = {doc_id: position for position, (doc_id, _) in enumerate(got)}
        for (first, first_score), (second, second_score) in combinations(expected, 2):
            if first_score - second_score > ORACLE_TOLERANCE:
                assert rank[first] < rank[second], (qid, first, second)


# A case hypothesis found: whitening fitted on these 5 rows at dim 4 maps
# them onto a regular simplex, so d0 and d1 both score -0.5 against q0 in
# exact arithmetic. The bulk ranking gives both the same bits and orders
# them by doc id; the oracle scored d1 one ulp higher and listed it first.
SIMPLEX_ROWS = [
    [0.33599351954104517, -1.2963205707711016, 0.6698413506324734, -1.3483917471613753],
    [-2.7177983536668124, 0.48906824536321036, -0.20576296498076493, -0.15064858033075876],
    [-0.5302405245483941, 1.0063239343119168, -0.9981740504842695, 0.1471530676530966],
    [-0.09700437684481678, -1.530083021729876, 0.9570925111005925, 1.336202635696503],
    [1.4961771069758472, 0.817065637946442, 1.31096103711354, 1.252716351115311],
]


class TestBulkRankingMatchesPerQueryOracle:
    @settings(max_examples=80, deadline=None)
    @given(bulk_cases())
    def test_scores_and_order(self, case):
        corpus, candidates, scorer, post = case
        bulk = rank_candidates(corpus, candidates, scorer=scorer, post=post)
        assert list(bulk) == list(candidates)
        assert_matches_oracle(bulk, per_query_oracle(corpus, candidates, scorer, post))

    def test_perturbed_glow_moves_its_slab(self, tmp_path):
        """The oracle's glows are perturbed in their slab: the checksum moves
        with the parameters, and an FLW1 round trip transforms as they do."""
        model = perturbed_glow(4, 3)
        fresh = GlowModel.build(4, GlowSpec(levels=2, depth=1, hidden=(3,)), seed=3)
        assert model_checksum(model) != model_checksum(fresh)
        save_flow(model, tmp_path / "glow.flw")
        loaded = load_flow(tmp_path / "glow.flw")
        x = np.random.default_rng(4).normal(size=(5, 4))
        for a, b in zip(flow_forward(model, x), flow_forward(loaded, x)):
            assert a.tobytes() == b.tobytes()

    def test_exact_tie_on_a_whitened_simplex(self):
        table = [
            ("q0", KIND_QUERY, 0, 2),
            ("q1", KIND_QUERY, 2, 1),
            ("d0", KIND_DOCUMENT, 3, 1),
            ("d1", KIND_DOCUMENT, 4, 1),
        ]
        corpus = table_corpus(np.array(SIMPLEX_ROWS), table)
        candidates = {"q0": ["d0", "d1"], "q1": []}
        post = PostProcessor(fit_whitening(corpus.matrix), TOKEN_WISE)
        bulk = rank_candidates(corpus, candidates, scorer="colbert", post=post)
        assert [score for _, score in bulk["q0"]] == pytest.approx([-0.5, -0.5], abs=1e-12)
        assert bulk["q1"] == []
        assert_matches_oracle(bulk, per_query_oracle(corpus, candidates, "colbert", post))

    def test_query_without_candidates_is_empty(self):
        corpus = corpus_with([[1.0, 0.0]], {"a": [[1.0, 0.0]]})
        for scorer, granularity in (
            ("colbert", TOKEN_WISE),
            ("repbert", TOKEN_WISE),
            ("repbert", SEQUENCE_WISE),
        ):
            post = PostProcessor(identity_whitening(2), granularity)
            assert rank_candidates(corpus, {"q": []}, scorer=scorer, post=post) == {"q": []}

    def test_zero_norm_row_names_its_sequence(self):
        corpus = corpus_with([[1.0, 0.0]], {"a": [[1.0, 0.0]], "b": [[0.5, 0.5], [0.0, 0.0]]})
        with pytest.raises(ValueError, match=r"document 'b': token row 1 has zero norm"):
            rank_candidates(corpus, {"q": ["a", "b"]}, scorer="colbert")


# Tokens whose unit vectors, pooled means (over 1, 2 or 4 tokens) and dot
# products are exact in binary, so identical documents score bitwise
# alike however a BLAS kernel orders its sums; plus one token whose
# repbert cosine underflows to -0.0 against a query along the first axis
# (its huge entry leaves at most one term of a dot product that rounds).
TIE_TOKENS = [
    # no token set sums to zero, so no pooled vector has zero norm
    *(2.0**k * np.eye(4)[i] for k in (-1, 0, 1) for i in range(4)),
    *(2.0**k * np.array(signs) for k in (-1, 0) for signs in
      ((1, 1, 1, 1), (1, -1, 1, -1), (-1, -1, 1, 1), (1, 1, -1, 1))),
    np.array([-(2.0**-1070), 0.0, 0.0, 2.0**60]),
]
TIE_IDS = st.text(alphabet=["a", "b", "é", "名", "😀", "A"], min_size=1, max_size=3)


@st.composite
def tie_cases(draw):
    """A corpus where several document ids share one token block, with
    ids that are non-ASCII or prefixes of one another."""

    def block():
        count = draw(st.sampled_from([1, 2, 4]))
        picks = draw(st.lists(st.sampled_from(range(len(TIE_TOKENS))), min_size=count, max_size=count))
        return np.array([TIE_TOKENS[i] for i in picks])

    n_queries = draw(st.integers(1, 3))
    blocks = [block() for _ in range(draw(st.integers(1, 4)))]
    doc_ids = draw(st.lists(TIE_IDS, min_size=2, max_size=8, unique=True))
    shares = [draw(st.integers(0, len(blocks) - 1)) for _ in doc_ids]
    sequences = [(f"q{i}", KIND_QUERY, block()) for i in range(n_queries)]
    sequences += [(doc_id, KIND_DOCUMENT, blocks[share]) for doc_id, share in zip(doc_ids, shares)]
    table, offset = [], 0
    for seq_id, kind, tokens in sequences:
        table.append((seq_id, kind, offset, len(tokens)))
        offset += len(tokens)
    corpus = table_corpus(np.vstack([tokens for _, _, tokens in sequences]), table)
    candidates = {}
    for i in range(n_queries):
        order = draw(st.permutations(doc_ids))
        candidates[f"q{i}"] = order[: draw(st.integers(0, len(order)))]
    scorer = draw(st.sampled_from(["colbert", "repbert"]))
    return corpus, candidates, scorer, dict(zip(doc_ids, shares))


class TestTieOrder:
    @settings(max_examples=150, deadline=None)
    @given(tie_cases())
    def test_ties_follow_python_string_order(self, case):
        corpus, candidates, scorer, shares = case
        ranked = rank_candidates(corpus, candidates, scorer=scorer)
        for qid, ranking in ranked.items():
            assert sorted(doc_id for doc_id, _ in ranking) == sorted(candidates[qid])
            assert sorted(ranking, key=lambda t: (-t[1], t[0])) == ranking
            by_block = {}
            for doc_id, score in ranking:
                by_block.setdefault(shares[doc_id], set()).add(score)
            assert all(len(scores) == 1 for scores in by_block.values())
        RankingRun(ranked)


# Rows per post-processing block at width 64.
BLOCK = 8192
# sha256 of one call of each transform on the first ``height`` rows of
# ``block_inputs``' matrix, recorded from the code that transformed all
# gathered rows in one call.
ONE_SHOT_DIGESTS = {
    "whiten": {
        1: "ca30edca533bbd94807a1e9dc094586b8db0e18cd01d14b5947ab4a5dbd995a6",
        2: "3219813da15f76e44bb3fb9d514e94cd00f913bfe9096c6d618a9ec3c6e6481d",
        8191: "b7045d859216d1b724fedc999a309e23fa861d266de175c217c9c9c911bfb3e5",
        8192: "9decd165afcfe3d1b8a8a1a5575a6bbc69f8abf8e76594f3ef0ce38662ab6c83",
        8193: "4e6a3713d1aebb696bd9cbd405435633df56c4d8e6b0d75b92487e2dd21f8e3c",
        16385: "15c233dbfd538708c85d4e0ce870eceb751efecbe920e7e38eb36ba963428ad0",
    },
    "glow": {
        1: "ff1758308f3ca58999e099b9bed4135245bcf83e45fd4528002d989513c846c8",
        2: "b5b5e07ec9f771adafed8f290257aa5af4897855f57e35864581dcf922286e7d",
        8191: "0d493ec673c11d9c02c9ea373491a4a6dc9f86d3d1895e117a1a7bd8e8b34f44",
        8192: "d0b643eb030cfd965c91a170e3ae83007ccdf37ef09c5768c15649a6b4a75919",
        8193: "16acd0f7b52c4c7accf6eee264b3dc9ca749d9be5fd868edc7f8ff56f7ebe418",
        16385: "8ffc485de6d92f0c4e3892ebf546d40d9bc7676fb340535d66c191c63a06cfb4",
    },
}


@pytest.fixture(scope="module")
def block_inputs():
    x = np.random.default_rng(11).normal(size=(2 * BLOCK + 1, 64)) * 3.0 + 1.0
    glow = GlowModel.build(64, GlowSpec(levels=2, depth=2, hidden=(16,)), seed=3)
    glow.slab[...] += np.random.default_rng(4).normal(0.0, 0.05, glow.slab.shape)
    return x, {"whiten": fit_whitening(x[:4000]), "glow": glow}


class TestBlockwiseTransform:
    def test_block_size(self):
        assert scoring._block_rows(64) == BLOCK

    @pytest.mark.parametrize("height", [1, 2, BLOCK - 1, BLOCK, BLOCK + 1, 2 * BLOCK + 1])
    @pytest.mark.parametrize("kind", ["whiten", "glow"])
    def test_in_place_blocks_match_one_call(self, block_inputs, kind, height):
        """A one-row tail joins its block: alone, it would round as gemv."""
        x, transforms = block_inputs
        apply = apply_whitening if kind == "whiten" else apply_flow
        one_shot = apply(transforms[kind], x[:height])
        rows = x[:height].copy()
        assert scoring._transform_in_place(transforms[kind], rows) is rows
        assert rows.tobytes() == one_shot.tobytes()
        assert hashlib.sha256(rows.tobytes()).hexdigest() == ONE_SHOT_DIGESTS[kind][height]

    @pytest.mark.parametrize("height", sorted(ONE_SHOT_DIGESTS["whiten"]))
    def test_whitening_out_matches_the_pure_call(self, block_inputs, height):
        x, transforms = block_inputs
        before = x.tobytes()
        pure = apply_whitening(transforms["whiten"], x[:height])
        rows = x[:height].copy()
        assert apply_whitening(transforms["whiten"], rows, out=rows) is rows
        assert rows.tobytes() == pure.tobytes()
        other = np.empty_like(rows)
        assert apply_whitening(transforms["whiten"], x[:height], out=other) is other
        assert other.tobytes() == pure.tobytes() and x.tobytes() == before

    @pytest.mark.parametrize(
        "height, out",
        [(5, np.zeros((5, 64), dtype=np.float32)), (1, np.zeros((5, 64))),
         (5, np.zeros((4, 64))), (5, np.zeros(5 * 64))],
        ids=["float32", "one-row-broadcast", "fewer-rows", "flat"],
    )
    def test_whitening_wrong_out_raises_before_anything_is_written(
        self, block_inputs, height, out
    ):
        """A float32 ``out`` would round the product, and a one-row matrix
        would broadcast into every row of a taller one."""
        x, transforms = block_inputs
        with pytest.raises(ShapeError, match="^out is "):
            apply_whitening(transforms["whiten"], x[:height], out=out)
        assert not out.any()

    def test_no_transform_copies_nothing(self):
        rows = np.ones((3, 2))
        assert scoring._transform_in_place(None, rows) is rows


class TestPooledInPlace:
    @pytest.mark.parametrize("per_block", [1, 3, 1000])
    def test_blocks_pool_as_one_reduceat(self, per_block, monkeypatch):
        """Means overwrite the first rows, block by block, with the bits of
        one ``np.add.reduceat`` over all rows."""
        rng = np.random.default_rng(per_block)
        counts = rng.integers(1, 12, size=40)
        rows = rng.normal(size=(int(counts.sum()), 5)) * 10.0 ** rng.integers(-5, 5, size=(1, 5))
        starts = np.cumsum(counts) - counts
        expected = np.add.reduceat(rows, starts, axis=0) / counts[:, None]
        monkeypatch.setattr(isotropy, "BLOCK_BYTES", 8 * 5 * per_block)
        owned = rows.copy()
        pooled = scoring._Spans([f"s{k}" for k in range(40)], counts).pooled(owned)
        assert pooled.tobytes() == expected.tobytes()
        assert np.shares_memory(pooled, owned)

    @pytest.mark.parametrize("per_block", [1, 3, 1000])
    def test_long_spans_pool_as_one_reduceat(self, per_block, monkeypatch):
        """Spans past 129 rows: their pairwise sums are cut in two."""
        rng = np.random.default_rng(per_block)
        counts = np.concatenate([[129, 130, 257], rng.integers(1, 301, size=37)])
        rows = rng.normal(size=(int(counts.sum()), 5)) * 10.0 ** rng.integers(-5, 5, size=(1, 5))
        starts = np.cumsum(counts) - counts
        expected = np.add.reduceat(rows, starts, axis=0) / counts[:, None]
        monkeypatch.setattr(isotropy, "BLOCK_BYTES", 8 * 5 * per_block)
        pooled = scoring._Spans([f"s{k}" for k in range(40)], counts).pooled(rows)
        assert pooled.tobytes() == expected.tobytes()


class TestRankMemory:
    @pytest.mark.parametrize("scorer", ["colbert", "repbert"])
    def test_whitened_rows_take_a_few_blocks_beyond_the_gather(self, scorer, traced_peak):
        """32,160 gathered rows (16.5 MB, almost 4 blocks) are whitened in
        place; whitening them in one call would add two arrays of their size."""
        matrix = np.random.default_rng(5).normal(size=(40 * 4 + 4000 * 8, 64)) + 1.0
        corpus = blocked_corpus(matrix, 40, 4, 4000, 8)
        candidates = {f"q{q}": [f"d{d}" for d in range(100 * q, 100 * q + 100)] for q in range(40)}
        post = PostProcessor(fit_whitening(matrix), TOKEN_WISE)
        with traced_peak() as traced:
            ranked = rank_candidates(corpus, candidates, scorer, post)
        assert len(ranked) == 40
        assert traced.peak <= matrix.nbytes + 3 * isotropy.BLOCK_BYTES

    @pytest.mark.parametrize(
        "granularity, tokens",
        [(SEQUENCE_WISE, 8), (TOKEN_WISE, 9), (SEQUENCE_WISE, 9), (TOKEN_WISE, 140)],
    )
    def test_pooled_spans_take_a_few_blocks_beyond_the_gather(
        self, granularity, tokens, traced_peak
    ):
        """About 36,000 gathered rows in documents of 8 tokens (an in-order
        sum after the first row), 9 (eight accumulators) or 140 (a run cut
        in two), pooled after or before whitening."""
        n_docs = 36_000 // tokens
        matrix = np.random.default_rng(tokens).normal(size=(40 * 4 + n_docs * tokens, 64)) + 1.0
        corpus = blocked_corpus(matrix, 40, 4, n_docs, tokens)
        per_query = n_docs // 40
        candidates = {
            f"q{q}": [f"d{d}" for d in range(per_query * q, per_query * (q + 1))]
            for q in range(40)
        }
        post = PostProcessor(fit_whitening(matrix), granularity)
        with traced_peak() as traced:
            ranked = rank_candidates(corpus, candidates, "repbert", post)
        assert len(ranked) == 40
        assert traced.peak <= matrix.nbytes + 3 * isotropy.BLOCK_BYTES
