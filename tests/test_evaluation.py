"""Ranking metrics against brute-force oracles, the significance test
against a quadrature oracle, and the text formats."""

import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from isoembed import (
    Qrels,
    RankingRun,
    evaluate,
    load_qrels,
    load_run,
    ndcg_at_k,
    percent_improvement,
    precision_at_k,
    save_qrels,
    save_run,
    ttest_one_tailed,
)
from isoembed.errors import DegenerateVarianceError, IntegrityError, IsoembedError, ParseError
from isoembed.evaluation import regularized_incomplete_beta, student_t_sf


# ---------------------------------------------------------------------------
# Independent oracles
# ---------------------------------------------------------------------------


def precision_oracle(ranked_ids, grades, k, threshold=1):
    hits = 0
    for doc_id in ranked_ids[:k]:
        if grades.get(doc_id, 0) >= threshold:
            hits += 1
    return hits / k


def ndcg_oracle(ranked_ids, grades, k):
    dcg = 0.0
    for position, doc_id in enumerate(ranked_ids[:k], start=1):
        gain = 2 ** grades.get(doc_id, 0) - 1
        dcg += gain / math.log2(position + 1)
    ideal = 0.0
    for position, grade in enumerate(sorted(grades.values(), reverse=True)[:k], start=1):
        ideal += (2**grade - 1) / math.log2(position + 1)
    return None if ideal == 0 else dcg / ideal


def student_upper_tail_quadrature(t, df, points=2_000_001):
    """Trapezoidal integration of the Student density over [t, inf).

    Substituting x = sqrt(df) * tan(theta) maps the infinite tail onto a
    finite interval and turns the density into cos(theta)^(df-1), so the
    truncation error of a naive upper limit disappears entirely.
    """
    theta = np.linspace(math.atan(t / math.sqrt(df)), math.pi / 2.0, points)
    integrand = np.cos(theta) ** (df - 1)
    const = math.exp(math.lgamma((df + 1) / 2) - math.lgamma(df / 2)) / math.sqrt(
        df * math.pi
    )
    return const * math.sqrt(df) * np.trapezoid(integrand, theta)


def random_instance(rng):
    """Random (run, qrels) pair with up to 30 docs per query."""
    n_queries = int(rng.integers(1, 6))
    rankings = {}
    grades = {}
    for qi in range(n_queries):
        qid = f"q{qi}"
        n_docs = int(rng.integers(1, 31))
        doc_ids = [f"d{qi}_{j}" for j in range(n_docs)]
        scores = np.sort(rng.normal(size=n_docs))[::-1]
        rankings[qid] = list(zip(doc_ids, scores.tolist()))
        for doc_id in doc_ids:
            if rng.random() < 0.7:
                grades[(qid, doc_id)] = int(rng.integers(0, 4))
        # occasionally judge a doc the run never returned
        if rng.random() < 0.3:
            grades[(qid, f"d{qi}_extra")] = int(rng.integers(0, 4))
    return RankingRun(rankings, tag="rand"), Qrels(grades)


class TestPrecision:
    def test_all_relevant(self):
        run = RankingRun({"q": [(f"d{i}", 30.0 - i) for i in range(20)]})
        qrels = Qrels({("q", f"d{i}"): 1 for i in range(20)})
        assert precision_at_k(run, qrels)["q"] == pytest.approx(1.0)

    def test_five_of_twenty(self):
        run = RankingRun({"q": [(f"d{i}", 30.0 - i) for i in range(20)]})
        qrels = Qrels({("q", f"d{i}"): int(i < 5) for i in range(20)})
        assert precision_at_k(run, qrels)["q"] == pytest.approx(0.25)

    def test_denominator_fixed_at_k(self):
        """Ten returned, all relevant: still divided by 20."""
        run = RankingRun({"q": [(f"d{i}", 10.0 - i) for i in range(10)]})
        qrels = Qrels({("q", f"d{i}"): 1 for i in range(10)})
        assert precision_at_k(run, qrels)["q"] == pytest.approx(0.5)


class TestNdcg:
    def test_perfect_ordering(self):
        run = RankingRun({"q": [("a", 3.0), ("b", 2.0), ("c", 1.0)]})
        qrels = Qrels({("q", "a"): 3, ("q", "b"): 1, ("q", "c"): 0})
        assert ndcg_at_k(run, qrels)["q"] == pytest.approx(1.0)

    def test_hand_computed_anchor(self):
        """Grades [1, 0, 2] in returned order: DCG = 1 + 0 + 3/2 = 2.5,
        IDCG = 3 + 1/log2(3), NDCG ~ 0.68853."""
        run = RankingRun({"q": [("a", 3.0), ("b", 2.0), ("c", 1.0)]})
        qrels = Qrels({("q", "a"): 1, ("q", "b"): 0, ("q", "c"): 2})
        expected = 2.5 / (3.0 + 1.0 / math.log2(3.0))
        value = ndcg_at_k(run, qrels)["q"]
        assert value == pytest.approx(expected, abs=1e-12)
        assert value == pytest.approx(0.68853, abs=1e-5)

    def test_zero_relevant_query_excluded(self):
        run = RankingRun({"q1": [("a", 2.0)], "q2": [("b", 1.0)]})
        qrels = Qrels({("q1", "a"): 1, ("q2", "b"): 0})
        report = evaluate(run, qrels)
        assert "q2" not in report.per_query_ndcg
        assert report.n_queries_evaluated == 1
        assert report.n_queries_skipped == 1

    def test_monotone_score_transform_invariance(self):
        rng = np.random.default_rng(30)
        run, qrels = random_instance(rng)
        base = ndcg_at_k(run, qrels)
        squashed = RankingRun(
            {
                qid: [(d, math.tanh(s / 10.0)) for d, s in ranked]
                for qid, ranked in run.rankings.items()
            },
            tag=run.tag,
        )
        assert ndcg_at_k(squashed, qrels) == base


class TestAgainstBruteForce:
    def test_fifty_seeded_instances(self):
        rng = np.random.default_rng(31)
        for _ in range(50):
            run, qrels = random_instance(rng)
            per_p = precision_at_k(run, qrels, k=20)
            per_n = ndcg_at_k(run, qrels, k=10)
            for qid, ranked in run.rankings.items():
                grades = {d: g for (q, d), g in qrels.grades.items() if q == qid}
                ranked_ids = [d for d, _ in ranked]
                expected_n = ndcg_oracle(ranked_ids, grades, 10)
                if expected_n is None:
                    assert qid not in per_n
                    continue
                assert per_n[qid] == pytest.approx(expected_n, abs=1e-12)
                assert 0.0 <= per_n[qid] <= 1.0
                if any(g >= 1 for g in grades.values()):
                    expected_p = precision_oracle(ranked_ids, grades, 20)
                    assert per_p[qid] == pytest.approx(expected_p, abs=1e-12)
                    assert 0.0 <= per_p[qid] <= 1.0

    @settings(max_examples=60, deadline=None)
    @given(
        seed=st.integers(0, 2**32 - 1),
        n_queries=st.integers(1, 8),
        n_docs=st.integers(1, 25),
    )
    def test_evaluate_per_query_with_interleaved_judgments(self, seed, n_queries, n_docs):
        """Judgments of all queries arrive shuffled together, some queries
        are judged but never run and some run but never judged; evaluate's
        per-query P@20 and NDCG@10 must match oracles that scan every
        judgment."""
        rng = np.random.default_rng(seed)
        judged = [
            ((f"q{qi}", f"d{j}"), int(rng.integers(0, 4)))
            for qi in range(n_queries + 1)
            for j in range(n_docs)
            if rng.random() < 0.6
        ]
        grades = dict(judged[i] for i in rng.permutation(len(judged)))
        qrels = Qrels(grades)
        rankings = {}
        for qi in range(n_queries):
            docs = [f"d{j}" for j in rng.permutation(n_docs + 2)]
            rankings[f"q{qi}_" if qi == 0 else f"q{qi}"] = [
                (doc_id, float(-rank)) for rank, doc_id in enumerate(docs)
            ]
        report = evaluate(RankingRun(rankings), qrels)
        for qid, ranked in rankings.items():
            query_grades = {d: g for (q, d), g in grades.items() if q == qid}
            ranked_ids = [d for d, _ in ranked]
            expected_n = ndcg_oracle(ranked_ids, query_grades, 10)
            assert qrels.query_grades(qid) == list(query_grades.values())
            assert qrels.has_relevant(qid) == any(g >= 1 for g in query_grades.values())
            if expected_n is None:
                assert qid not in report.per_query_ndcg
                assert qid not in report.per_query_p
                continue
            assert report.per_query_ndcg[qid] == pytest.approx(expected_n, abs=1e-12)
            expected_p = precision_oracle(ranked_ids, query_grades, 20)
            assert report.per_query_p[qid] == pytest.approx(expected_p, abs=1e-12)

    def test_doc_renaming_invariance(self):
        rng = np.random.default_rng(32)
        run, qrels = random_instance(rng)
        rename = lambda d: f"X_{d}_Y"  # noqa: E731
        renamed_run = RankingRun(
            {
                qid: [(rename(d), s) for d, s in ranked]
                for qid, ranked in run.rankings.items()
            },
            tag=run.tag,
        )
        renamed_qrels = Qrels({(q, rename(d)): g for (q, d), g in qrels.grades.items()})
        a = evaluate(run, qrels)
        b = evaluate(renamed_run, renamed_qrels)
        assert a.p_at_20 == b.p_at_20
        assert a.ndcg_at_10 == b.ndcg_at_10


class TestTTest:
    def test_identical_samples(self):
        assert ttest_one_tailed([1.0, 2.0, 3.0], [1.0, 2.0, 3.0]) == (0.0, 0.5)

    def test_hand_anchor_with_quadrature_oracle(self):
        """a = {2,3,4} vs b = {1,2,3}: pooled variance 1, t = sqrt(3/2)."""
        t, p = ttest_one_tailed([2.0, 3.0, 4.0], [1.0, 2.0, 3.0])
        assert t == pytest.approx(math.sqrt(1.5), abs=1e-12)
        oracle = student_upper_tail_quadrature(t, df=4)
        assert p == pytest.approx(oracle, abs=1e-6)
        assert p == pytest.approx(0.1438, abs=1e-3)

    def test_swap_symmetry(self):
        a = [2.1, 3.4, 2.9, 4.0]
        b = [1.9, 2.2, 3.1]
        t_ab, p_ab = ttest_one_tailed(a, b)
        t_ba, p_ba = ttest_one_tailed(b, a)
        assert t_ba == pytest.approx(-t_ab, abs=1e-12)
        assert p_ba == pytest.approx(1.0 - p_ab, abs=1e-12)

    def test_sf_matches_quadrature_across_range(self):
        for t in (-2.5, -0.3, 0.7, 1.5, 3.0):
            for df in (2, 4, 9, 30):
                oracle = student_upper_tail_quadrature(t, df)
                assert student_t_sf(t, df) == pytest.approx(oracle, abs=1e-6)

    def test_degenerate_variance(self):
        with pytest.raises(DegenerateVarianceError):
            ttest_one_tailed([1.0, 1.0], [2.0, 2.0])

    def test_small_samples_rejected(self):
        with pytest.raises(ValueError):
            ttest_one_tailed([1.0], [1.0, 2.0])

    def test_incomplete_beta_endpoints_and_symmetry(self):
        assert regularized_incomplete_beta(0.0, 2.0, 3.0) == 0.0
        assert regularized_incomplete_beta(1.0, 2.0, 3.0) == 1.0
        for x in (0.1, 0.4, 0.8):
            forward = regularized_incomplete_beta(x, 2.5, 1.5)
            mirror = regularized_incomplete_beta(1.0 - x, 1.5, 2.5)
            assert forward == pytest.approx(1.0 - mirror, abs=1e-12)


class TestPercentImprovement:
    def test_basic(self):
        assert percent_improvement(0.62, 0.59) == pytest.approx(100 * 0.03 / 0.59)

    def test_zero_baseline(self):
        with pytest.raises(ZeroDivisionError):
            percent_improvement(0.5, 0.0)


class TestTextFormats:
    def test_qrels_round_trip(self, tmp_path):
        qrels = Qrels({("q1", "dA"): 2, ("q1", "dB"): 0, ("q2", "dA"): 1})
        path = tmp_path / "qrels.txt"
        save_qrels(qrels, path)
        assert load_qrels(path).grades == qrels.grades
        # canonical file: a second save is byte-identical
        text = path.read_text()
        save_qrels(load_qrels(path), path)
        assert path.read_text() == text

    def test_run_round_trip(self, tmp_path):
        run = RankingRun(
            {"q1": [("dB", 2.5), ("dA", 1.25)], "q2": [("dC", -0.5)]}, tag="mytag"
        )
        path = tmp_path / "run.txt"
        save_run(run, path)
        loaded = load_run(path)
        assert loaded.rankings == run.rankings
        assert loaded.tag == "mytag"

    def test_qrels_parse_error_carries_line_number(self, tmp_path):
        path = tmp_path / "bad.txt"
        path.write_text("q1 0 d1 1\nq1 0 d2\n")
        with pytest.raises(ParseError, match=":2"):
            load_qrels(path)

    def test_qrels_bad_grade(self, tmp_path):
        path = tmp_path / "bad.txt"
        path.write_text("q1 0 d1 high\n")
        with pytest.raises(ParseError, match="grade"):
            load_qrels(path)

    def test_qrels_duplicate_pair(self, tmp_path):
        path = tmp_path / "dup.txt"
        path.write_text("q1 0 d1 1\nq1 0 d1 2\n")
        with pytest.raises(ParseError, match="duplicate"):
            load_qrels(path)

    def test_run_parse_error(self, tmp_path):
        path = tmp_path / "bad.run"
        path.write_text("q1 Q0 d1 1 nan_oops extra junk\n")
        with pytest.raises(ParseError, match=":1"):
            load_run(path)

    def test_run_must_descend(self):
        with pytest.raises(IntegrityError, match="descending"):
            RankingRun({"q": [("a", 1.0), ("b", 2.0)]})

    def test_run_tie_order_enforced(self):
        with pytest.raises(IntegrityError, match="tied"):
            RankingRun({"q": [("b", 1.0), ("a", 1.0)]})

    def test_run_duplicate_doc(self):
        with pytest.raises(IntegrityError, match="duplicate"):
            RankingRun({"q": [("a", 2.0), ("a", 1.0)]})

    def test_run_nan_score(self):
        with pytest.raises(IntegrityError, match="NaN"):
            RankingRun({"q": [("a", float("nan")), ("b", 5.0)]})

    @pytest.mark.parametrize("score", ["nan", "inf", "-inf", "NaN", "Infinity"])
    def test_run_non_finite_score_names_the_line(self, tmp_path, score):
        path = tmp_path / "bad.run"
        path.write_text(f"q1 Q0 d0 1 9.0 t\nq1 Q0 d1 2 {score} t\nq1 Q0 d2 3 5.0 t\n")
        with pytest.raises(ParseError, match=f"bad.run:2: score '{score}' is not finite"):
            load_run(path)

    def test_run_order_error_names_the_path(self, tmp_path):
        path = tmp_path / "up.run"
        path.write_text("q1 Q0 d1 1 1.0 t\nq1 Q0 d2 2 5.0 t\n")
        with pytest.raises(IntegrityError, match="up.run: .*descending"):
            load_run(path)

    @pytest.mark.parametrize("loader", [load_run, load_qrels], ids=["run", "qrels"])
    def test_invalid_utf8_is_a_parse_error(self, tmp_path, loader):
        path = tmp_path / "latin1.txt"
        path.write_bytes("q1 Q0 d\u00e9 1 1.0 t\n".encode("latin-1"))
        with pytest.raises(ParseError, match="latin1.txt: not UTF-8"):
            loader(path)


# Ids and tags: one or more characters that neither whitespace splitting nor
# line splitting breaks apart, non-ASCII included.
TOKENS = st.text(
    st.characters(blacklist_categories=("Cs", "Cc", "Zs", "Zl", "Zp")).filter(
        lambda c: not c.isspace()
    ),
    min_size=1,
    max_size=6,
)


@st.composite
def small_runs(draw):
    rankings = {}
    for qid in draw(st.lists(TOKENS, max_size=4, unique=True)):
        docs = draw(st.lists(TOKENS, min_size=1, max_size=5, unique=True))
        scores = draw(
            st.lists(st.floats(allow_nan=False, allow_infinity=False), min_size=len(docs), max_size=len(docs))
        )
        # Descending score, ties by doc id: the order RankingRun requires.
        rankings[qid] = sorted(zip(docs, scores), key=lambda item: (-item[1], item[0]))
    return RankingRun(rankings, tag=draw(TOKENS) if rankings else "run")


@st.composite
def small_qrels(draw):
    pairs = draw(st.lists(st.tuples(TOKENS, TOKENS), max_size=8, unique=True))
    return Qrels({pair: draw(st.integers(0, 10**6)) for pair in pairs})


def flipped(blob: bytes, flips) -> bytes:
    data = bytearray(blob)
    for position, mask in flips:
        data[position % len(data)] ^= mask
    return bytes(data)


FLIPS = st.lists(st.tuples(st.integers(0), st.integers(1, 255)), min_size=1, max_size=3)


class TestTextFormatProperties:
    @settings(max_examples=60, deadline=None)
    @given(small_runs())
    def test_run_round_trip(self, tmp_path_factory, run):
        path = tmp_path_factory.mktemp("run") / "r.run"
        save_run(run, path)
        loaded = load_run(path)
        assert loaded.tag == run.tag
        assert loaded.rankings == run.rankings
        assert all(
            math.copysign(1.0, a[1]) == math.copysign(1.0, b[1])
            for qid in run.rankings
            for a, b in zip(loaded.rankings[qid], run.rankings[qid])
        )

    @settings(max_examples=60, deadline=None)
    @given(small_qrels())
    def test_qrels_round_trip(self, tmp_path_factory, qrels):
        path = tmp_path_factory.mktemp("qrels") / "q.txt"
        save_qrels(qrels, path)
        assert load_qrels(path).grades == qrels.grades

    @settings(max_examples=20, deadline=None)
    @given(st.one_of(small_runs(), small_qrels()))
    def test_truncations_load_or_raise_typed_errors(self, tmp_path_factory, value):
        directory = tmp_path_factory.mktemp("cut")
        save, load = (save_run, load_run) if isinstance(value, RankingRun) else (save_qrels, load_qrels)
        save(value, directory / "whole")
        blob = (directory / "whole").read_bytes()
        for cut in range(len(blob)):
            (directory / "cut").write_bytes(blob[:cut])
            try:
                load(directory / "cut")
            except IsoembedError:
                pass

    @settings(max_examples=150, deadline=None)
    @given(st.one_of(small_runs(), small_qrels()), FLIPS)
    def test_byte_flips_load_or_raise_typed_errors(self, tmp_path_factory, value, flips):
        directory = tmp_path_factory.mktemp("flip")
        save, load = (save_run, load_run) if isinstance(value, RankingRun) else (save_qrels, load_qrels)
        save(value, directory / "whole")
        blob = (directory / "whole").read_bytes()
        if not blob:
            return
        (directory / "flipped").write_bytes(flipped(blob, flips))
        try:
            load(directory / "flipped")
        except IsoembedError:
            pass
