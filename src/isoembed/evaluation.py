"""Ranking evaluation: qrels/run handling, P@20, NDCG@10, significance.

Conventions (trec_eval style): unjudged retrieved documents count as grade
zero; queries with no positively judged document are excluded from metric
means and reported separately. NDCG uses exponential gain 2^g - 1 with a
log2(rank + 1) discount.

The one-tailed two-sample t-test assumes equal variances (pooled variance);
its p-value comes from a regularized incomplete beta evaluated by a
continued fraction, with no external dependency.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from functools import cached_property

from .atomic import atomic_write
from .errors import DegenerateVarianceError, IntegrityError, ParseError

_BETA_CF_MAX_ITER = 300


@dataclass(frozen=True)
class Qrels:
    """Graded judgments keyed by (query_id, doc_id)."""

    grades: dict[tuple[str, str], int]

    @cached_property
    def _by_query(self) -> dict[str, list[int]]:
        """Query id -> its grades, in judgment order; built on first use."""
        index: dict[str, list[int]] = {}
        for (qid, _), g in self.grades.items():
            index.setdefault(qid, []).append(g)
        return index

    def grade(self, query_id: str, doc_id: str) -> int:
        return self.grades.get((query_id, doc_id), 0)

    def query_grades(self, query_id: str) -> list[int]:
        return list(self._by_query.get(query_id, ()))

    def has_relevant(self, query_id: str, threshold: int = 1) -> bool:
        return any(g >= threshold for g in self._by_query.get(query_id, ()))


@dataclass
class RankingRun:
    """Per-query ranked (doc_id, score) lists plus a run tag."""

    rankings: dict[str, list[tuple[str, float]]]
    tag: str = "run"

    def __post_init__(self):
        for qid, ranked in self.rankings.items():
            seen = set()
            for doc_id, score in ranked:
                if score != score:
                    raise IntegrityError(f"query {qid!r}: doc {doc_id!r} has a NaN score")
                if doc_id in seen:
                    raise IntegrityError(f"query {qid!r}: duplicate doc id {doc_id!r}")
                seen.add(doc_id)
            for (prev_doc, prev), (doc, cur) in zip(ranked, ranked[1:]):
                if cur > prev:
                    raise IntegrityError(
                        f"query {qid!r}: scores increase at doc {doc!r}; "
                        "runs must be sorted by descending score"
                    )
                if cur == prev and doc < prev_doc:
                    raise IntegrityError(
                        f"query {qid!r}: tied docs {prev_doc!r}, {doc!r} must "
                        "be ordered by doc id"
                    )


@dataclass(frozen=True)
class EvalReport:
    p_at_20: float
    ndcg_at_10: float
    per_query_p: dict[str, float]
    per_query_ndcg: dict[str, float]
    n_queries_evaluated: int
    n_queries_skipped: int

    def to_dict(self) -> dict:
        return {
            "p_at_20": self.p_at_20,
            "ndcg_at_10": self.ndcg_at_10,
            "per_query_p": dict(sorted(self.per_query_p.items())),
            "per_query_ndcg": dict(sorted(self.per_query_ndcg.items())),
            "n_queries_evaluated": self.n_queries_evaluated,
            "n_queries_skipped": self.n_queries_skipped,
        }


def precision_at_k(
    run: RankingRun, qrels: Qrels, k: int = 20, rel_threshold: int = 1
) -> dict[str, float]:
    """Per-query precision at a fixed cutoff.

    The denominator stays k even when fewer documents were returned.
    Queries with no relevant judged document are omitted.
    """
    values = {}
    for qid, ranked in run.rankings.items():
        if not qrels.has_relevant(qid, rel_threshold):
            continue
        hits = sum(
            1 for doc_id, _ in ranked[:k] if qrels.grade(qid, doc_id) >= rel_threshold
        )
        values[qid] = hits / k
    return values


def _dcg(grades: list[int], k: int) -> float:
    return sum(
        (2.0**g - 1.0) / math.log2(i + 2) for i, g in enumerate(grades[:k])
    )


def ndcg_at_k(run: RankingRun, qrels: Qrels, k: int = 10) -> dict[str, float]:
    """Per-query NDCG at cutoff k; queries with zero relevant docs omitted."""
    values = {}
    for qid, ranked in run.rankings.items():
        ideal = sorted(qrels.query_grades(qid), reverse=True)
        idcg = _dcg(ideal, k)
        if idcg == 0.0:
            continue
        gains = [qrels.grade(qid, doc_id) for doc_id, _ in ranked]
        values[qid] = _dcg(gains, k) / idcg
    return values


def evaluate(run: RankingRun, qrels: Qrels) -> EvalReport:
    """P@20 and NDCG@10 averaged over queries with relevant judgments."""
    per_p = precision_at_k(run, qrels)
    per_ndcg = ndcg_at_k(run, qrels)
    evaluated = sorted(per_ndcg)
    skipped = len(run.rankings) - len(evaluated)
    mean_p = sum(per_p.values()) / len(per_p) if per_p else 0.0
    mean_ndcg = sum(per_ndcg.values()) / len(per_ndcg) if per_ndcg else 0.0
    return EvalReport(
        p_at_20=mean_p,
        ndcg_at_10=mean_ndcg,
        per_query_p=per_p,
        per_query_ndcg=per_ndcg,
        n_queries_evaluated=len(evaluated),
        n_queries_skipped=skipped,
    )


def percent_improvement(new: float, old: float) -> float:
    """Relative delta in percent: 100 * (new - old) / old."""
    if old == 0.0:
        raise ZeroDivisionError("baseline metric is zero; percent delta undefined")
    return 100.0 * (new - old) / old


# ---------------------------------------------------------------------------
# One-tailed pooled-variance t-test
# ---------------------------------------------------------------------------


def _log_beta(a: float, b: float) -> float:
    return math.lgamma(a) + math.lgamma(b) - math.lgamma(a + b)


def _betainc_cf(x: float, a: float, b: float) -> float:
    """Continued fraction for the regularized incomplete beta (Lentz)."""
    tiny = 1e-300
    qab, qap, qam = a + b, a + 1.0, a - 1.0
    c = 1.0
    d = 1.0 - qab * x / qap
    if abs(d) < tiny:
        d = tiny
    d = 1.0 / d
    h = d
    for m in range(1, _BETA_CF_MAX_ITER):
        m2 = 2 * m
        aa = m * (b - m) * x / ((qam + m2) * (a + m2))
        d = 1.0 + aa * d
        if abs(d) < tiny:
            d = tiny
        c = 1.0 + aa / c
        if abs(c) < tiny:
            c = tiny
        d = 1.0 / d
        h *= d * c
        aa = -(a + m) * (qab + m) * x / ((a + m2) * (qap + m2))
        d = 1.0 + aa * d
        if abs(d) < tiny:
            d = tiny
        c = 1.0 + aa / c
        if abs(c) < tiny:
            c = tiny
        d = 1.0 / d
        delta = d * c
        h *= delta
        if abs(delta - 1.0) < 1e-15:
            return h
    raise ArithmeticError(
        f"incomplete beta did not converge in {_BETA_CF_MAX_ITER} iterations"
    )


def regularized_incomplete_beta(x: float, a: float, b: float) -> float:
    """I_x(a, b) for 0 <= x <= 1, a, b > 0."""
    if not 0.0 <= x <= 1.0:
        raise ValueError("x must lie in [0, 1]")
    if x == 0.0:
        return 0.0
    if x == 1.0:
        return 1.0
    front = math.exp(
        a * math.log(x) + b * math.log1p(-x) - _log_beta(a, b)
    )
    if x < (a + 1.0) / (a + b + 2.0):
        return front * _betainc_cf(x, a, b) / a
    return 1.0 - math.exp(
        b * math.log1p(-x) + a * math.log(x) - _log_beta(b, a)
    ) * _betainc_cf(1.0 - x, b, a) / b


def student_t_sf(t: float, df: float) -> float:
    """Upper-tail probability P(T_df > t)."""
    if t == 0.0:
        return 0.5
    x = df / (df + t * t)
    tail = 0.5 * regularized_incomplete_beta(x, df / 2.0, 0.5)
    return tail if t > 0 else 1.0 - tail


def ttest_one_tailed(sample_a, sample_b) -> tuple[float, float]:
    """Pooled-variance two-sample t-test of H1: mean(a) > mean(b).

    Returns (t, p) with df = n_a + n_b - 2. Identical constant samples give
    (0, 0.5); constant samples with different means have no defined scale.
    """
    a = [float(v) for v in sample_a]
    b = [float(v) for v in sample_b]
    n_a, n_b = len(a), len(b)
    if n_a < 2 or n_b < 2:
        raise ValueError("each sample needs at least two observations")
    mean_a = sum(a) / n_a
    mean_b = sum(b) / n_b
    ss_a = sum((v - mean_a) ** 2 for v in a)
    ss_b = sum((v - mean_b) ** 2 for v in b)
    df = n_a + n_b - 2
    pooled_var = (ss_a + ss_b) / df
    if pooled_var == 0.0:
        if mean_a == mean_b:
            return 0.0, 0.5
        raise DegenerateVarianceError(
            "zero pooled variance with unequal means; t is undefined"
        )
    t = (mean_a - mean_b) / math.sqrt(pooled_var * (1.0 / n_a + 1.0 / n_b))
    return t, student_t_sf(t, df)


# ---------------------------------------------------------------------------
# TREC-style text formats
# ---------------------------------------------------------------------------


def text_lines(path):
    """``(line number, line)`` for each non-blank line of a UTF-8 text file.

    Text that is not UTF-8 raises ParseError naming the path."""
    with open(path, "r", encoding="utf-8") as fh:
        try:
            for line_no, line in enumerate(fh, start=1):
                if line.strip():
                    yield line_no, line
        except UnicodeDecodeError as exc:
            raise ParseError(f"{path}: not UTF-8 text ({exc.reason})") from None


def load_qrels(path) -> Qrels:
    """Parse whitespace-separated "qid iter docid grade" lines."""
    grades: dict[tuple[str, str], int] = {}
    for line_no, line in text_lines(path):
        fields = line.split()
        if len(fields) != 4:
            raise ParseError(f"{path}:{line_no}: expected 4 fields, got {len(fields)}")
        qid, _iter, doc_id, grade_text = fields
        try:
            grade = int(grade_text)
        except ValueError:
            raise ParseError(f"{path}:{line_no}: bad grade {grade_text!r}") from None
        if grade < 0:
            raise ParseError(f"{path}:{line_no}: negative grade {grade}")
        if (qid, doc_id) in grades:
            raise ParseError(f"{path}:{line_no}: duplicate pair ({qid}, {doc_id})")
        grades[(qid, doc_id)] = grade
    return Qrels(grades)


def save_qrels(qrels: Qrels, path) -> None:
    with atomic_write(path, text=True) as fh:
        for (qid, doc_id), grade in sorted(qrels.grades.items()):
            fh.write(f"{qid} 0 {doc_id} {grade}\n")


def load_run(path) -> RankingRun:
    """Parse "qid Q0 docid rank score tag" lines; scores must be finite."""
    rankings: dict[str, list[tuple[str, float]]] = {}
    tag = "run"
    for line_no, line in text_lines(path):
        fields = line.split()
        if len(fields) != 6:
            raise ParseError(f"{path}:{line_no}: expected 6 fields, got {len(fields)}")
        qid, _q0, doc_id, _rank, score_text, tag = fields
        try:
            score = float(score_text)
        except ValueError:
            raise ParseError(f"{path}:{line_no}: bad score {score_text!r}") from None
        if not math.isfinite(score):
            raise ParseError(f"{path}:{line_no}: score {score_text!r} is not finite")
        rankings.setdefault(qid, []).append((doc_id, score))
    try:
        return RankingRun(rankings, tag=tag)
    except IntegrityError as exc:
        raise IntegrityError(f"{path}: {exc}") from None


def save_run(run: RankingRun, path) -> None:
    with atomic_write(path, text=True) as fh:
        for qid in sorted(run.rankings):
            for rank, (doc_id, score) in enumerate(run.rankings[qid], start=1):
                fh.write(f"{qid} Q0 {doc_id} {rank} {score!r} {run.tag}\n")
