"""isoembed: isotropy enforcement and re-ranking evaluation for
dense-retrieval embeddings.

The package consumes precomputed embedding corpora, measures how
directionally uniform they are, fits whitening or normalizing-flow
post-processors that push them toward an isotropic Gaussian, scores
query-document relevance with cosine aggregators over the (optionally
transformed) vectors, and evaluates re-ranking quality against graded
judgments, including fit-on-source / evaluate-on-target protocols.
"""

from . import errors
from .evaluation import (
    EvalReport,
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
from .flows import (
    FlowTrainConfig,
    GlowModel,
    GlowSpec,
    NiceModel,
    NiceSpec,
    TrainReport,
    apply_flow,
    flow_forward,
    flow_inverse,
    load_flow,
    nll,
    nll_gradient,
    save_flow,
    train_flow,
)
from .isotropy import (
    DimensionProfile,
    IsotropyReport,
    avg_pairwise_cosine,
    dimension_profile,
    measure,
    partition_ratio,
)
from .rng import PinnedRng
from .scoring import (
    PostProcessor,
    colbert_score,
    rank_candidates,
    repbert_score,
)
from .store import (
    EmbeddingCorpus,
    SynthParams,
    generate_anisotropic,
    load_corpus,
    pool_sequences,
    save_corpus,
)
from .whitening import (
    WhiteningTransform,
    apply_whitening,
    fit_whitening,
    load_whitening,
    save_whitening,
)

__version__ = "0.1.0"

__all__ = [
    "DimensionProfile",
    "EmbeddingCorpus",
    "EvalReport",
    "FlowTrainConfig",
    "GlowModel",
    "GlowSpec",
    "IsotropyReport",
    "NiceModel",
    "NiceSpec",
    "PinnedRng",
    "PostProcessor",
    "Qrels",
    "RankingRun",
    "SynthParams",
    "TrainReport",
    "WhiteningTransform",
    "apply_flow",
    "apply_whitening",
    "avg_pairwise_cosine",
    "colbert_score",
    "dimension_profile",
    "errors",
    "evaluate",
    "fit_whitening",
    "flow_forward",
    "flow_inverse",
    "generate_anisotropic",
    "load_corpus",
    "load_flow",
    "load_qrels",
    "load_run",
    "load_whitening",
    "measure",
    "ndcg_at_k",
    "nll",
    "nll_gradient",
    "partition_ratio",
    "percent_improvement",
    "pool_sequences",
    "precision_at_k",
    "rank_candidates",
    "repbert_score",
    "save_corpus",
    "save_flow",
    "save_qrels",
    "save_run",
    "save_whitening",
    "train_flow",
    "ttest_one_tailed",
]
