"""Relevance scoring over token embeddings and candidate re-ranking.

Two aggregators:

* colbert: sum over query tokens of the max cosine against any doc token
  (late interaction; requires token-level vectors, so post-processing must
  be token-wise)
* repbert: cosine between the mean-pooled query and document vectors

A post-processor (whitening transform or trained flow) can be applied
token-wise (transform every token row, then score) or sequence-wise (pool
first, transform the pooled vectors, then cosine).
"""

from __future__ import annotations

from collections.abc import Mapping, Sequence
from dataclasses import dataclass

import numpy as np

from .errors import ConfigurationError
from .flows import FlowModel, apply_flow
from .store import EmbeddingCorpus, KIND_DOCUMENT, KIND_QUERY, span_rows
from .whitening import WhiteningTransform, apply_whitening

SCORER_COLBERT = "colbert"
SCORER_REPBERT = "repbert"
TOKEN_WISE = "token_wise"
SEQUENCE_WISE = "sequence_wise"


def _unit_rows(matrix: np.ndarray, context: str) -> np.ndarray:
    norms = np.linalg.norm(matrix, axis=1)
    zero = np.flatnonzero(norms == 0.0)
    if zero.size:
        raise ValueError(f"{context}: token row {zero[0]} has zero norm")
    return matrix / norms[:, None]


def colbert_score(query_tokens, doc_tokens) -> float:
    """Sum over query tokens of the best doc-token cosine."""
    q = _unit_rows(np.atleast_2d(np.asarray(query_tokens, dtype=np.float64)), "query")
    d = _unit_rows(np.atleast_2d(np.asarray(doc_tokens, dtype=np.float64)), "doc")
    return float((q @ d.T).max(axis=1).sum())


def repbert_score(query_tokens, doc_tokens) -> float:
    """Cosine between the token means of query and document."""
    q = np.atleast_2d(np.asarray(query_tokens, dtype=np.float64)).mean(axis=0)
    d = np.atleast_2d(np.asarray(doc_tokens, dtype=np.float64)).mean(axis=0)
    qn, dn = np.linalg.norm(q), np.linalg.norm(d)
    if qn == 0.0:
        raise ValueError("pooled query vector has zero norm")
    if dn == 0.0:
        raise ValueError("pooled doc vector has zero norm")
    return float(q @ d / (qn * dn))


def _run_transform(transform, matrix: np.ndarray) -> np.ndarray:
    if transform is None:
        return matrix
    if isinstance(transform, WhiteningTransform):
        return apply_whitening(transform, matrix)
    return apply_flow(transform, matrix)


@dataclass(frozen=True)
class PostProcessor:
    """Optional representation transform plus its placement granularity.

    By default one fitted transform handles queries and documents alike;
    ``doc_transform`` switches documents to their own separately fitted
    transform (queries keep ``transform``).
    """

    transform: WhiteningTransform | FlowModel | None
    granularity: str = TOKEN_WISE
    doc_transform: WhiteningTransform | FlowModel | None = None

    def __post_init__(self):
        if self.granularity not in (TOKEN_WISE, SEQUENCE_WISE):
            raise ConfigurationError(f"unknown granularity {self.granularity!r}")

    def apply_query(self, matrix: np.ndarray) -> np.ndarray:
        return _run_transform(self.transform, matrix)

    def apply_doc(self, matrix: np.ndarray) -> np.ndarray:
        if self.doc_transform is not None:
            return _run_transform(self.doc_transform, matrix)
        return _run_transform(self.transform, matrix)


IDENTITY = PostProcessor(None)


@dataclass(frozen=True)
class ScoredCandidate:
    doc_id: str
    score: float
    rank: int


class _Spans:
    """Where each of a list of sequences sits once their token rows are
    stacked in order (see ``EmbeddingCorpus.gather``)."""

    def __init__(self, ids: list[str], counts: np.ndarray):
        self.ids = ids
        self.counts = counts
        self.starts = np.cumsum(counts) - counts

    def pooled(self, rows: np.ndarray) -> np.ndarray:
        """Token mean of every sequence: (n_sequences, dim)."""
        return np.add.reduceat(rows, self.starts, axis=0) / self.counts[:, None]

    def unit_rows(self, rows: np.ndarray, kind: str) -> np.ndarray:
        norms = np.linalg.norm(rows, axis=1)
        zero = np.flatnonzero(norms == 0.0)
        if zero.size:
            seq = int(np.searchsorted(self.starts, zero[0], side="right")) - 1
            raise ValueError(
                f"{kind} {self.ids[seq]!r}: token row "
                f"{zero[0] - self.starts[seq]} has zero norm"
            )
        return rows / norms[:, None]

    def vector_norms(self, vectors: np.ndarray, kind: str) -> np.ndarray:
        norms = np.linalg.norm(vectors, axis=1)
        zero = np.flatnonzero(norms == 0.0)
        if zero.size:
            raise ValueError(f"pooled {kind} vector of {self.ids[zero[0]]!r} has zero norm")
        return norms

    def row_index(self, picks: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
        """Rows of the picked sequences, concatenated in pick order, and the
        offset of each picked sequence within them."""
        return span_rows(self.starts[picks], self.counts[picks])


def _gather(corpus: EmbeddingCorpus, kind: str, ids: list[str]):
    rows, counts = corpus.gather(kind, ids)
    return _Spans(ids, counts), rows


def rank_candidates(
    corpus: EmbeddingCorpus,
    candidates: Mapping[str, Sequence[str]],
    scorer: str = SCORER_REPBERT,
    post: PostProcessor = IDENTITY,
) -> dict[str, list[ScoredCandidate]]:
    """Score and order the candidate list of every query in ``candidates``.

    Returns ``{query_id: [ScoredCandidate, ...]}`` in the mapping's order.
    The token rows of every needed query and document are gathered once
    and transformed with one call per side. Token-wise placement
    transforms the token rows, then scores; sequence-wise placement pools
    each sequence to its token mean, transforms the pooled vectors, and
    compares by cosine. Colbert scores a query against the concatenated
    tokens of all its candidates in one product, then takes each query
    token's best match within each document's span. Ties are broken by
    doc_id ascending so rankings are reproducible. Unknown ids raise
    KeyError.
    """
    if scorer not in (SCORER_COLBERT, SCORER_REPBERT):
        raise ConfigurationError(f"unknown scorer {scorer!r}")
    if scorer == SCORER_COLBERT and post.granularity != TOKEN_WISE:
        raise ConfigurationError(
            "colbert scoring interacts at the token level; sequence_wise "
            "post-processing is not applicable"
        )
    # A query with no candidates must exist too.
    corpus.gather(KIND_QUERY, [qid for qid in candidates if not candidates[qid]])
    scored_queries = [(qid, ids) for qid, ids in candidates.items() if ids]
    ranked = {qid: [] for qid in candidates}
    if not scored_queries:
        return ranked
    doc_ids = list(dict.fromkeys(d for _, ids in scored_queries for d in ids))
    doc_index = {doc_id: i for i, doc_id in enumerate(doc_ids)}
    queries, q_rows = _gather(corpus, KIND_QUERY, [qid for qid, _ in scored_queries])
    docs, d_rows = _gather(corpus, KIND_DOCUMENT, doc_ids)

    if post.granularity == SEQUENCE_WISE:
        q_rows = post.apply_query(queries.pooled(q_rows))
        d_rows = post.apply_doc(docs.pooled(d_rows))
    else:
        q_rows = post.apply_query(q_rows)
        d_rows = post.apply_doc(d_rows)
        if scorer == SCORER_REPBERT:
            q_rows, d_rows = queries.pooled(q_rows), docs.pooled(d_rows)
    if scorer == SCORER_REPBERT:
        q_norms = queries.vector_norms(q_rows, "query")
        d_norms = docs.vector_norms(d_rows, "document")
    else:
        q_rows = queries.unit_rows(q_rows, "query")
        d_rows = docs.unit_rows(d_rows, "document")

    for qi, (_, ids) in enumerate(scored_queries):
        picks = np.array([doc_index[d] for d in ids], dtype=np.intp)
        if scorer == SCORER_COLBERT:
            start = queries.starts[qi]
            index, begins = docs.row_index(picks)
            sims = q_rows[start : start + queries.counts[qi]] @ d_rows[index].T
            best = np.maximum.reduceat(sims, begins, axis=1)
            # contiguous per-candidate rows: each sum runs like colbert_score's
            values = np.ascontiguousarray(best.T).sum(axis=1)
        else:
            values = (d_rows[picks] @ q_rows[qi]) / (q_norms[qi] * d_norms[picks])
        order = sorted(zip(ids, values.tolist()), key=lambda item: (-item[1], item[0]))
        ranked[queries.ids[qi]] = [
            ScoredCandidate(doc_id=doc_id, score=value, rank=i + 1)
            for i, (doc_id, value) in enumerate(order)
        ]
    return ranked
