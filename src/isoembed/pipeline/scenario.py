"""Seeded retrieval scenario where anisotropy provably hurts cosine scoring.

Construction: every token vector receives a large offset shared by the
whole corpus plus high-variance noise on a block of dominant dimensions.
The relevance signal lives in the remaining low-variance dimensions: each
query carries a latent unit "topic" vector there, its single relevant
document shares that topic exactly, and the other candidates carry
independent topics. Raw cosine similarity is then dominated by the offset
and the dominant-dimension noise, while whitening (or a trained flow)
rescales the space so the topic match re-emerges.

The generator is a pure function of its parameters; all randomness comes
from one pinned stream in a fixed draw order.
"""

from __future__ import annotations

import json
import math
from dataclasses import dataclass

import numpy as np

from ..atomic import atomic_write
from ..errors import ParseError
from ..evaluation import Qrels, text_lines
from ..rng import PinnedRng
from ..store import EmbeddingCorpus, blocked_corpus


@dataclass(frozen=True)
class ScenarioParams:
    """Knobs beyond the (seed, n_queries, n_docs, dim) signature.

    ``offset_magnitude`` is the per-coordinate shared offset before the
    direction tilt; ``offset_tilt`` perturbs the offset direction and
    ``scale_factor`` rescales both noise scales, which together produce a
    distribution-shifted variant of the same scenario family for
    source/target experiments.
    """

    tokens_per_query: int = 4
    tokens_per_doc: int = 6
    dominant_dims: int = 8
    dominant_scale: float = 15.0
    offset_magnitude: float = 6.0
    signal_strength: float = 1.0
    token_noise: float = 0.25
    offset_tilt: float = 0.0
    scale_factor: float = 1.0

    def __post_init__(self):
        if self.tokens_per_query < 1 or self.tokens_per_doc < 1:
            raise ValueError("token counts must be >= 1")
        # Written so that NaN fails each test.
        if not (0 < self.dominant_scale < math.inf and 0 < self.token_noise < math.inf):
            raise ValueError("noise scales must be positive and finite")
        if not 0 < self.scale_factor < math.inf:
            raise ValueError("scale_factor must be positive and finite")
        if not (0 <= self.offset_magnitude < math.inf and 0 <= self.signal_strength < math.inf):
            raise ValueError("offset and signal magnitudes must be finite and >= 0")
        if not 0 <= self.offset_tilt < math.inf:
            raise ValueError("offset_tilt must be finite and >= 0")


def build_designed_scenario(
    seed: int,
    n_queries: int = 64,
    n_docs: int = 20,
    dim: int = 64,
    params: ScenarioParams = ScenarioParams(),
) -> tuple[EmbeddingCorpus, Qrels, dict[str, list[str]]]:
    """Corpus, graded judgments, and per-query candidate lists.

    ``n_docs`` is the candidate-list length per query; each query gets one
    relevant document (grade 1) hidden among n_docs - 1 distractors, with
    every candidate pair judged explicitly.
    """
    if n_queries < 1 or n_docs < 2:
        raise ValueError("need n_queries >= 1 and n_docs >= 2")
    if params.dominant_dims >= dim:
        raise ValueError("dominant_dims must leave at least one signal dimension")

    rng = PinnedRng(seed)
    n_signal = dim - params.dominant_dims
    total_docs = n_queries * n_docs

    # Draw order is part of the contract: offset tilt, query topics, doc
    # topics, relevant-slot choices, then the full token noise block.
    offset = np.full(dim, params.offset_magnitude)
    if params.offset_tilt > 0:
        tilt = rng.gaussians(dim)
        direction = offset / max(np.linalg.norm(offset), 1e-300) + params.offset_tilt * (
            tilt / np.linalg.norm(tilt)
        )
        direction /= np.linalg.norm(direction)
        offset = direction * params.offset_magnitude * np.sqrt(dim)
    else:
        rng.gaussians(dim)  # keep the stream position independent of tilt

    def unit_rows(count: int) -> np.ndarray:
        rows = rng.gaussians(count * n_signal).reshape(count, n_signal)
        return rows / np.linalg.norm(rows, axis=1, keepdims=True)

    query_topics = unit_rows(n_queries)
    doc_topics = unit_rows(total_docs)
    relevant_slot = rng.indices(n_queries, n_docs)
    for q in range(n_queries):
        doc_topics[q * n_docs + relevant_slot[q]] = query_topics[q]

    n_rows = n_queries * params.tokens_per_query + total_docs * params.tokens_per_doc
    noise = rng.gaussians(n_rows * dim).reshape(n_rows, dim)
    noise[:, : params.dominant_dims] *= params.dominant_scale * params.scale_factor
    noise[:, params.dominant_dims :] *= params.token_noise * params.scale_factor

    noise += offset
    matrix = noise
    # Each sequence's topic, scaled once, is added to every one of its
    # token rows in the signal dimensions.
    query_topics *= params.signal_strength
    doc_topics *= params.signal_strength
    n_query_rows = n_queries * params.tokens_per_query
    blocks = (
        (matrix[:n_query_rows], query_topics, params.tokens_per_query),
        (matrix[n_query_rows:], doc_topics, params.tokens_per_doc),
    )
    for rows, topics, tokens in blocks:
        rows.reshape(len(topics), tokens, dim)[:, :, params.dominant_dims :] += topics[:, None]
    candidates: dict[str, list[str]] = {}
    for q in range(n_queries):
        candidates[f"q{q}"] = [f"d{q * n_docs + j}" for j in range(n_docs)]

    grades = {}
    for q in range(n_queries):
        for j in range(n_docs):
            grades[(f"q{q}", f"d{q * n_docs + j}")] = int(j == relevant_slot[q])
    corpus = blocked_corpus(
        matrix, n_queries, params.tokens_per_query, total_docs, params.tokens_per_doc
    )
    return corpus, Qrels(grades), candidates


def save_candidates(candidates: dict[str, list[str]], path) -> None:
    """One JSON object per line: {"qid": ..., "docs": [...]}."""
    with atomic_write(path, text=True) as fh:
        for qid in sorted(candidates):
            fh.write(json.dumps({"qid": qid, "docs": candidates[qid]}) + "\n")


def load_candidates(path) -> dict[str, list[str]]:
    """Read the lines ``save_candidates`` writes. A malformed line, a
    repeated qid or a doc id repeated within one query raises ParseError
    naming ``path:line``."""
    candidates: dict[str, list[str]] = {}
    for line_no, line in text_lines(path):
        try:
            record = json.loads(line)
        except json.JSONDecodeError as exc:
            raise ParseError(f"{path}:{line_no}: invalid JSON ({exc.msg})") from None
        if not isinstance(record, dict) or "qid" not in record or "docs" not in record:
            raise ParseError(f"{path}:{line_no}: expected keys 'qid' and 'docs'")
        qid, docs = record["qid"], record["docs"]
        if not isinstance(qid, str):
            raise ParseError(
                f"{path}:{line_no}: qid must be a string, got {type(qid).__name__}"
            )
        if not isinstance(docs, list) or not all(isinstance(d, str) for d in docs):
            raise ParseError(f"{path}:{line_no}: docs must be a list of strings")
        if qid in candidates:
            raise ParseError(f"{path}:{line_no}: duplicate qid {qid!r}")
        if len(set(docs)) < len(docs):
            seen = set()
            for doc_id in docs:
                if doc_id in seen:
                    raise ParseError(f"{path}:{line_no}: query {qid!r}: duplicate doc id {doc_id!r}")
                seen.add(doc_id)
        candidates[qid] = docs
    return candidates
