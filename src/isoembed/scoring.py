"""Relevance scoring over token embeddings and candidate re-ranking.

Two aggregators:

* colbert: sum over query tokens of the max cosine against any doc token
  (late interaction; requires token-level vectors, so post-processing must
  be token-wise)
* repbert: cosine between the mean-pooled query and document vectors
  (a span's rows are summed by ``store.span_sums``, with the bits of
  ``np.add.reduceat``, as ``pool_sequences`` sums them, then divided by
  its token count)

A post-processor (whitening transform or trained flow) can be applied
token-wise (transform every token row, then score) or sequence-wise (pool
first, transform the pooled vectors, then cosine).
"""

from __future__ import annotations

from collections.abc import Mapping, Sequence
from dataclasses import dataclass
from itertools import chain

import numpy as np

from .errors import ConfigurationError, ZeroNormError
from .flows import FlowModel, apply_flow
from .flows.training import FORWARD_CHUNK_ROWS
from .isotropy import block_rows, row_norms
from .store import EmbeddingCorpus, KIND_DOCUMENT, KIND_QUERY, span_rows, span_sums
from .whitening import WhiteningTransform, apply_whitening

SCORER_COLBERT = "colbert"
SCORER_REPBERT = "repbert"
TOKEN_WISE = "token_wise"
SEQUENCE_WISE = "sequence_wise"


def _unit_rows(matrix: np.ndarray, context: str) -> np.ndarray:
    norms = row_norms(matrix)
    zero = np.flatnonzero(norms == 0.0)
    if zero.size:
        raise ZeroNormError(f"{context}: token row {zero[0]} has zero norm")
    return matrix / norms[:, None]


def _token_mean(tokens) -> np.ndarray:
    """A sequence's token mean: its rows summed by ``span_sums``, as
    ``pool_sequences`` and the ranker sum a span."""
    rows = np.atleast_2d(np.asarray(tokens, dtype=np.float64))
    return span_sums(rows, [0], [rows.shape[0]])[0] / rows.shape[0]


def colbert_score(query_tokens, doc_tokens) -> float:
    """Sum over query tokens of the best doc-token cosine."""
    q = _unit_rows(np.atleast_2d(np.asarray(query_tokens, dtype=np.float64)), "query")
    d = _unit_rows(np.atleast_2d(np.asarray(doc_tokens, dtype=np.float64)), "doc")
    return float((q @ d.T).max(axis=1).sum())


def repbert_score(query_tokens, doc_tokens) -> float:
    """Cosine between the token means of query and document."""
    q, d = _token_mean(query_tokens), _token_mean(doc_tokens)
    qn, dn = np.linalg.norm(q), np.linalg.norm(d)
    if qn == 0.0:
        raise ZeroNormError("pooled query vector has zero norm")
    if dn == 0.0:
        raise ZeroNormError("pooled doc vector has zero norm")
    return float(q @ d / (qn * dn))


def _block_rows(dim: int) -> int:
    """Rows per post-processing call at width ``dim``: as many whole
    FORWARD_CHUNK_ROWS chunks as ``block_rows(dim)`` holds, at least one,
    so a flow cuts every block into the chunks it would cut from all rows."""
    return max(1, block_rows(dim) // FORWARD_CHUNK_ROWS) * FORWARD_CHUNK_ROWS


def _transform_in_place(transform, rows: np.ndarray) -> np.ndarray:
    """``rows`` (owned by the caller) mapped through ``transform`` block by
    block, each block's result written back over it; each row comes out
    bitwise as from one call on all of ``rows``.

    A whitening centers each block in place and writes its product back
    over it (``apply_whitening(..., out=block)``); a flow writes each
    chunk's output over the chunk's rows (``apply_flow(..., out=block)``).
    A one-row matrix product takes BLAS's gemv path, which can round
    differently from the gemm a whitening runs on more rows, so a one-row
    tail joins the block before it. Without a transform nothing is copied.
    """
    if transform is None:
        return rows
    n, step = rows.shape[0], _block_rows(rows.shape[1])
    # An edge every ``step`` rows, but none that would leave one row after it.
    edges = [0, *range(step, n - 1, step), n]
    for start, stop in zip(edges, edges[1:]):
        block = rows[start:stop]
        if isinstance(transform, WhiteningTransform):
            apply_whitening(transform, block, out=block)
        else:
            apply_flow(transform, block, out=block)
    return rows


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

    @property
    def doc_side(self) -> WhiteningTransform | FlowModel | None:
        """The transform documents take."""
        return self.transform if self.doc_transform is None else self.doc_transform


IDENTITY = PostProcessor(None)


class _Spans:
    """Where each of a list of sequences sits once their token rows are
    stacked in order (see ``EmbeddingCorpus.take``)."""

    def __init__(self, ids: Sequence[str], counts: np.ndarray):
        self.ids = ids
        self.counts = counts
        self.starts = np.cumsum(counts) - counts

    def pooled(self, rows: np.ndarray) -> np.ndarray:
        """Token mean of every sequence: (n_sequences, dim), written over
        the first n_sequences of ``rows`` (which the caller owns) and
        returned as a view of them.

        Sequences are pooled ``block_rows(dim)`` means at a time. Sequence k
        starts at row k or later, so a block's means overwrite only rows
        of sequences already summed. ``span_sums`` sums each span with the
        bits of one ``np.add.reduceat`` over all rows.
        """
        n = self.counts.size
        step = block_rows(rows.shape[1])
        for a in range(0, n, step):
            b = min(a + step, n)
            sums = span_sums(rows, self.starts[a:b], self.counts[a:b])
            np.divide(sums, self.counts[a:b, None], out=rows[a:b])
            del sums  # before the next block's sums are made
        return rows[:n]

    def unit_rows(self, rows: np.ndarray, kind: str) -> np.ndarray:
        """``rows`` scaled to unit norm, in place: the caller owns them."""
        norms = row_norms(rows)
        zero = np.flatnonzero(norms == 0.0)
        if zero.size:
            seq = int(np.searchsorted(self.starts, zero[0], side="right")) - 1
            raise ZeroNormError(
                f"{kind} {self.ids[seq]!r}: token row "
                f"{zero[0] - self.starts[seq]} has zero norm"
            )
        return np.divide(rows, norms[:, None], out=rows)

    def vector_norms(self, vectors: np.ndarray, kind: str) -> np.ndarray:
        norms = row_norms(vectors)
        zero = np.flatnonzero(norms == 0.0)
        if zero.size:
            raise ZeroNormError(f"pooled {kind} vector of {self.ids[zero[0]]!r} has zero norm")
        return norms


def check_scorer(scorer: str, granularity: str) -> None:
    """Raise ConfigurationError unless ``scorer`` is known and scores rows
    post-processed at ``granularity``: colbert interacts at the token
    level, so it takes token-wise placement only."""
    if scorer not in (SCORER_COLBERT, SCORER_REPBERT):
        raise ConfigurationError(f"unknown scorer {scorer!r}")
    if scorer == SCORER_COLBERT and granularity != TOKEN_WISE:
        raise ConfigurationError(
            "colbert requires token_wise granularity; sequence_wise applies only to repbert"
        )


def rank_candidates(
    corpus: EmbeddingCorpus,
    candidates: Mapping[str, Sequence[str]],
    scorer: str = SCORER_REPBERT,
    post: PostProcessor = IDENTITY,
) -> dict[str, list[tuple[str, float]]]:
    """Score and order the candidate list of every query in ``candidates``.

    Returns ``{query_id: [(doc_id, score), ...]}`` in the mapping's order,
    each list by descending score with ties by doc_id ascending (code
    point order), as ``RankingRun`` takes it. Every needed query and
    document is gathered once, documents in order of first appearance.
    The gathered rows are transformed and pooled in place, a block at a
    time (see ``_transform_in_place`` and ``_Spans.pooled``), so no second
    array of their size is made. Token-wise placement transforms the token
    rows, then scores; sequence-wise placement pools each sequence to its
    token mean, transforms the pooled vectors, and compares by cosine.
    Colbert scores a query against the concatenated tokens of all its
    candidates in one product, then takes each query token's best match
    within each document's span. An unknown id raises UnknownIdError (a
    KeyError); a zero-norm token row or pooled vector raises
    ZeroNormError (a ValueError).
    """
    check_scorer(scorer, post.granularity)
    ranked = {qid: [] for qid in candidates}
    # Every query must exist, also one with no candidates.
    q_pos = corpus.locate(KIND_QUERY, ranked)
    lengths = np.fromiter(map(len, candidates.values()), dtype=np.intp, count=len(ranked))
    d_pos = corpus.locate(KIND_DOCUMENT, chain.from_iterable(candidates.values()))
    if not d_pos.size:
        return ranked
    # Each document once, in order of first appearance; ``picks`` maps
    # every candidate to its document's place in that order.
    d_pos, first, slots = np.unique(d_pos, return_index=True, return_inverse=True)
    appearance = np.argsort(first)
    picks = np.argsort(appearance)[slots]
    d_pos = d_pos[appearance]
    # Object arrays compare with Python's str order, which RankingRun checks.
    doc_ids = np.array(corpus.ids, dtype=object)[d_pos]
    id_rank = np.empty(d_pos.size, dtype=np.intp)
    id_rank[np.argsort(doc_ids)] = np.arange(d_pos.size)

    scored = np.flatnonzero(lengths)
    query_ids = np.array(list(ranked), dtype=object)[scored]
    q_rows, q_counts = corpus.take(q_pos[scored])
    d_rows, d_counts = corpus.take(d_pos)
    queries, docs = _Spans(query_ids, q_counts), _Spans(doc_ids, d_counts)

    if post.granularity == SEQUENCE_WISE:
        q_rows = _transform_in_place(post.transform, queries.pooled(q_rows))
        d_rows = _transform_in_place(post.doc_side, docs.pooled(d_rows))
    else:
        q_rows = _transform_in_place(post.transform, q_rows)
        d_rows = _transform_in_place(post.doc_side, d_rows)
        if scorer == SCORER_REPBERT:
            q_rows, d_rows = queries.pooled(q_rows), docs.pooled(d_rows)
    if scorer == SCORER_REPBERT:
        q_norms = queries.vector_norms(q_rows, "query")
        d_norms = docs.vector_norms(d_rows, "document")
    else:
        q_rows = queries.unit_rows(q_rows, "query")
        d_rows = docs.unit_rows(d_rows, "document")

    ends = np.cumsum(lengths)
    for qi, i in enumerate(scored.tolist()):
        mine = picks[ends[i] - lengths[i] : ends[i]]
        if scorer == SCORER_COLBERT:
            start = queries.starts[qi]
            index, begins = span_rows(docs.starts[mine], docs.counts[mine])
            sims = q_rows[start : start + queries.counts[qi]] @ d_rows[index].T
            best = np.maximum.reduceat(sims, begins, axis=1)
            # contiguous per-candidate rows: each sum runs like colbert_score's
            values = np.ascontiguousarray(best.T).sum(axis=1)
        else:
            values = (d_rows[mine] @ q_rows[qi]) / (q_norms[qi] * d_norms[mine])
        order = np.lexsort((id_rank[mine], -values))
        ranked[query_ids[qi]] = list(zip(doc_ids[mine[order]].tolist(), values[order].tolist()))
    return ranked
