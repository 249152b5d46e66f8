"""Command-line pipeline: generate, measure, fit, re-rank, evaluate, compare.

Subcommands wire the library into source/target experiments: fitting reads
only the source corpus, re-ranking applies a persisted transform to the
target corpus, and every written artifact embeds the resolved-config hash
and seed so runs are attributable and byte-reproducible.

Settings resolve with precedence: command-line flags > --config JSON file >
built-in defaults.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import sys
from pathlib import Path

import numpy as np

from ..atomic import atomic_write
from ..errors import (
    ConfigurationError,
    CorpusFormatError,
    DegenerateVarianceError,
    EmptyInputError,
    InsufficientDataError,
    IntegrityError,
    IsoembedError,
    NumericError,
    ParseError,
    ShapeError,
    TrainingError,
)
from ..evaluation import (
    RankingRun,
    evaluate,
    load_qrels,
    load_run,
    percent_improvement,
    save_qrels,
    save_run,
    ttest_one_tailed,
)
from ..flows import (
    FlowTrainConfig,
    GlowModel,
    GlowSpec,
    NiceModel,
    NiceSpec,
    load_flow,
    save_flow,
    train_flow,
)
from ..isotropy import FULL_BATCH, dimension_profile, measure
from ..scoring import (
    PostProcessor,
    SCORER_COLBERT,
    SCORER_REPBERT,
    SEQUENCE_WISE,
    TOKEN_WISE,
    rank_candidates,
)
from ..store import (
    KIND_DOCUMENT,
    KIND_QUERY,
    SynthParams,
    generate_anisotropic,
    load_corpus,
    rows_of_kind,
    save_corpus,
)
from ..whitening import fit_whitening, load_whitening, save_whitening
from .scenario import (
    ScenarioParams,
    build_designed_scenario,
    load_candidates,
    save_candidates,
)

EXIT_OK = 0
EXIT_CONFIG = 2
EXIT_DATA = 3
EXIT_NUMERIC = 4

POST_NONE = "none"
POST_WHITEN = "whiten"
POST_NICE = "nice"
POST_GLOW = "glow"


_OUTPUT_KEYS = ("out", "out_dir", "csv")


def experiment_settings(settings: dict) -> dict:
    """Resolved settings minus output locations: what identifies the run."""
    return {k: v for k, v in settings.items() if k not in _OUTPUT_KEYS}


def config_hash(settings: dict) -> str:
    """Hash of the resolved experiment settings.

    Output locations are excluded so the same experiment written to a
    different path keeps the same identity.
    """
    canonical = json.dumps(experiment_settings(settings), sort_keys=True, separators=(",", ":"))
    return hashlib.sha256(canonical.encode("utf-8")).hexdigest()


def file_sha256(path) -> str:
    digest = hashlib.sha256()
    with open(path, "rb") as fh:
        for chunk in iter(lambda: fh.read(1 << 20), b""):
            digest.update(chunk)
    return digest.hexdigest()


def write_json(payload: dict, path) -> None:
    with atomic_write(path, text=True) as fh:
        json.dump(payload, fh, sort_keys=True, indent=2)
        fh.write("\n")


def _resolve(defaults: dict, config_path, flags: dict, required: tuple[str, ...]) -> dict:
    """Merge defaults < config file < explicit flags."""
    settings = dict(defaults)
    if config_path:
        with open(config_path, "r", encoding="utf-8") as fh:
            try:
                loaded = json.load(fh)
            except json.JSONDecodeError as exc:
                raise ConfigurationError(f"{config_path}: invalid JSON ({exc.msg})") from None
        unknown = set(loaded) - set(defaults)
        if unknown:
            raise ConfigurationError(
                f"{config_path}: unknown config keys {sorted(unknown)}"
            )
        settings.update(loaded)
    for key, value in flags.items():
        if value is not None:
            settings[key] = value
    missing = [k for k in required if settings.get(k) is None]
    if missing:
        raise ConfigurationError(f"missing required settings: {sorted(missing)}")
    return settings


def _parse_widths(text) -> tuple[int, ...]:
    if isinstance(text, (list, tuple)):
        return tuple(int(v) for v in text)
    try:
        return tuple(int(part) for part in str(text).split(",") if part.strip())
    except ValueError:
        raise ConfigurationError(f"bad hidden widths {text!r}; expected e.g. '64,64'") from None


# ---------------------------------------------------------------------------
# Subcommands
# ---------------------------------------------------------------------------

_GEN_DEFAULTS = {
    "n_queries": 64,
    "n_docs": 448,
    "tokens_per_query": 8,
    "tokens_per_doc": 8,
    "dim": 64,
    "offset_magnitude": 10.0,
    "outlier_dims": 4,
    "outlier_scale": 20.0,
    "axis_scales": None,
    "seed": 0,
    "out": None,
}


def cmd_gen(args) -> int:
    settings = _resolve(
        _GEN_DEFAULTS,
        args.config,
        {
            "n_queries": args.n_queries,
            "n_docs": args.n_docs,
            "tokens_per_query": args.tokens_per_query,
            "tokens_per_doc": args.tokens_per_doc,
            "dim": args.dim,
            "offset_magnitude": args.offset_magnitude,
            "outlier_dims": args.outlier_dims,
            "outlier_scale": args.outlier_scale,
            "seed": args.seed,
            "out": args.out,
        },
        required=("out",),
    )
    axis_scales = settings["axis_scales"]
    params = SynthParams(
        n_queries=settings["n_queries"],
        n_docs=settings["n_docs"],
        tokens_per_query=settings["tokens_per_query"],
        tokens_per_doc=settings["tokens_per_doc"],
        dim=settings["dim"],
        offset_magnitude=settings["offset_magnitude"],
        axis_scales=tuple(axis_scales) if axis_scales else None,
        outlier_dims=settings["outlier_dims"],
        outlier_scale=settings["outlier_scale"],
        seed=settings["seed"],
    )
    save_corpus(generate_anisotropic(params), settings["out"])
    write_json(
        {
            "config_sha256": config_hash(settings),
            "seed": settings["seed"],
            "settings": experiment_settings(settings),
        },
        str(settings["out"]) + ".manifest.json",
    )
    print(f"wrote corpus {settings['out']} (config {config_hash(settings)[:12]})")
    return EXIT_OK


_SCENARIO_DEFAULTS = {
    "n_queries": 64,
    "n_docs": 20,
    "dim": 64,
    "tokens_per_query": 4,
    "tokens_per_doc": 6,
    "dominant_dims": 8,
    "dominant_scale": 15.0,
    "offset_magnitude": 6.0,
    "signal_strength": 1.0,
    "token_noise": 0.25,
    "offset_tilt": 0.0,
    "scale_factor": 1.0,
    "seed": 0,
    "out_dir": None,
}


def cmd_scenario(args) -> int:
    settings = _resolve(
        _SCENARIO_DEFAULTS,
        args.config,
        {
            "n_queries": args.n_queries,
            "n_docs": args.n_docs,
            "dim": args.dim,
            "offset_tilt": args.offset_tilt,
            "scale_factor": args.scale_factor,
            "seed": args.seed,
            "out_dir": args.out_dir,
        },
        required=("out_dir",),
    )
    out_dir = Path(settings["out_dir"])
    out_dir.mkdir(parents=True, exist_ok=True)
    params = ScenarioParams(
        tokens_per_query=settings["tokens_per_query"],
        tokens_per_doc=settings["tokens_per_doc"],
        dominant_dims=settings["dominant_dims"],
        dominant_scale=settings["dominant_scale"],
        offset_magnitude=settings["offset_magnitude"],
        signal_strength=settings["signal_strength"],
        token_noise=settings["token_noise"],
        offset_tilt=settings["offset_tilt"],
        scale_factor=settings["scale_factor"],
    )
    corpus, qrels, candidates = build_designed_scenario(
        seed=settings["seed"],
        n_queries=settings["n_queries"],
        n_docs=settings["n_docs"],
        dim=settings["dim"],
        params=params,
    )
    save_corpus(corpus, out_dir / "corpus.emb")
    save_qrels(qrels, out_dir / "qrels.txt")
    save_candidates(candidates, out_dir / "candidates.jsonl")
    write_json(
        {
            "config_sha256": config_hash(settings),
            "seed": settings["seed"],
            "settings": experiment_settings(settings),
        },
        out_dir / "manifest.json",
    )
    print(f"wrote scenario to {out_dir} (config {config_hash(settings)[:12]})")
    return EXIT_OK


_MEASURE_DEFAULTS = {
    "corpus": None,
    "batch_size": FULL_BATCH,
    "cosine_mode": "auto",
    "outlier_factor": 5.0,
    "seed": 0,
    "out": None,
    "csv": None,
}


def cmd_measure(args) -> int:
    settings = _resolve(
        _MEASURE_DEFAULTS,
        args.config,
        {
            "corpus": args.corpus,
            "batch_size": args.batch_size,
            "cosine_mode": args.cosine_mode,
            "outlier_factor": args.outlier_factor,
            "seed": args.seed,
            "out": args.out,
            "csv": args.csv,
        },
        required=("corpus", "out"),
    )
    corpus = load_corpus(settings["corpus"])
    batch_size = settings["batch_size"]
    if batch_size != FULL_BATCH:
        batch_size = int(batch_size)
    report = measure(
        corpus.matrix,
        batch_size,
        cosine_mode=settings["cosine_mode"],
        seed=settings["seed"],
    )
    profile = dimension_profile(corpus.matrix, outlier_factor=settings["outlier_factor"])
    payload = {
        "config_sha256": config_hash(settings),
        "seed": settings["seed"],
        "i_w": report.i_w,
        "avg_cos": report.avg_cos,
        "n_rows": report.n_rows,
        "dim": report.dim,
        "batch_size": report.batch_size,
        "batches_averaged": report.batches_averaged,
        "outlier_dimensions": [int(i) for i in np.flatnonzero(profile.outlier_flags)],
    }
    write_json(payload, settings["out"])
    if settings["csv"]:
        with atomic_write(settings["csv"], text=True) as fh:
            fh.write("dimension,max_abs,mean,std,outlier\n")
            for d in range(report.dim):
                fh.write(
                    f"{d},{profile.max_abs[d]!r},{profile.mean[d]!r},"
                    f"{profile.std[d]!r},{int(profile.outlier_flags[d])}\n"
                )
    print(f"i_w={report.i_w:.6f} avg_cos={report.avg_cos:.6f} -> {settings['out']}")
    return EXIT_OK


def _write_provenance(out_path, source_path, settings: dict) -> None:
    write_json(
        {
            "source_corpus": str(source_path),
            "source_sha256": file_sha256(source_path),
            "config_sha256": config_hash(settings),
            "seed": settings.get("seed"),
        },
        str(out_path) + ".provenance.json",
    )


FIT_ON_CHOICES = ("all", "queries", "documents")


def _fit_matrix(corpus, fit_on: str) -> np.ndarray:
    """Rows used for fitting: the whole corpus or one sequence kind.

    Fitting on one kind supports separate query/document transforms; the
    default fits jointly over every row.
    """
    if fit_on == "all":
        return corpus.matrix
    if fit_on == "queries":
        return rows_of_kind(corpus, KIND_QUERY)
    if fit_on == "documents":
        return rows_of_kind(corpus, KIND_DOCUMENT)
    raise ConfigurationError(f"fit_on must be one of {FIT_ON_CHOICES}, got {fit_on!r}")


_FIT_WHITEN_DEFAULTS = {
    "source_corpus": None,
    "eps_rel": 1e-8,
    "fit_on": "all",
    "seed": 0,
    "out": None,
}


def cmd_fit_whiten(args) -> int:
    settings = _resolve(
        _FIT_WHITEN_DEFAULTS,
        args.config,
        {
            "source_corpus": args.source_corpus,
            "eps_rel": args.eps_rel,
            "fit_on": args.fit_on,
            "seed": args.seed,
            "out": args.out,
        },
        required=("source_corpus", "out"),
    )
    corpus = load_corpus(settings["source_corpus"])
    transform = fit_whitening(
        _fit_matrix(corpus, settings["fit_on"]), eps_rel=settings["eps_rel"]
    )
    save_whitening(transform, settings["out"])
    _write_provenance(settings["out"], settings["source_corpus"], settings)
    print(f"fitted whitening on {transform.fitted_on} rows -> {settings['out']}")
    return EXIT_OK


_FIT_FLOW_DEFAULTS = {
    "source_corpus": None,
    "arch": "nice",
    "epochs": 10,
    "learning_rate": 1e-4,
    "batch_size": 256,
    "hidden": "1000,1000,1000,1000,1000",
    "couplings": 4,
    "levels": 2,
    "depth": 3,
    "shuffle": True,
    "fit_on": "all",
    "seed": 0,
    "out": None,
}


def cmd_fit_flow(args) -> int:
    settings = _resolve(
        _FIT_FLOW_DEFAULTS,
        args.config,
        {
            "source_corpus": args.source_corpus,
            "arch": args.arch,
            "epochs": args.epochs,
            "learning_rate": args.learning_rate,
            "batch_size": args.batch_size,
            "hidden": args.hidden,
            "couplings": args.couplings,
            "levels": args.levels,
            "depth": args.depth,
            "fit_on": args.fit_on,
            "seed": args.seed,
            "out": args.out,
        },
        required=("source_corpus", "out"),
    )
    hidden = _parse_widths(settings["hidden"])
    if settings["arch"] == POST_NICE:
        spec = NiceSpec(couplings=settings["couplings"], hidden=hidden)
    elif settings["arch"] == POST_GLOW:
        spec = GlowSpec(levels=settings["levels"], depth=settings["depth"], hidden=hidden)
    else:
        raise ConfigurationError(f"unknown flow arch {settings['arch']!r}")
    corpus = load_corpus(settings["source_corpus"])
    cfg = FlowTrainConfig(
        epochs=settings["epochs"],
        learning_rate=settings["learning_rate"],
        batch_size=settings["batch_size"],
        seed=settings["seed"],
        shuffle=bool(settings["shuffle"]),
    )
    model, report = train_flow(_fit_matrix(corpus, settings["fit_on"]), spec, cfg)
    save_flow(model, settings["out"])
    _write_provenance(settings["out"], settings["source_corpus"], settings)
    write_json(
        {
            "config_sha256": config_hash(settings),
            "seed": settings["seed"],
            "initial_nll": report.initial_nll,
            "epoch_nll": list(report.epoch_nll),
            "steps": report.steps,
            "model_checksum": report.checksum,
        },
        str(settings["out"]) + ".train.json",
    )
    print(
        f"trained {settings['arch']} for {report.steps} steps "
        f"(nll {report.initial_nll:.3f} -> {report.epoch_nll[-1]:.3f}) -> {settings['out']}"
    )
    return EXIT_OK


_RERANK_DEFAULTS = {
    "target_corpus": None,
    "candidates": None,
    "scorer": SCORER_COLBERT,
    "post": POST_NONE,
    "post_path": "",
    "post_path_docs": "",
    "granularity": TOKEN_WISE,
    "seed": 0,
    "out": None,
}


def _load_fitted(post: str, path):
    if post == POST_WHITEN:
        return load_whitening(path)
    model = load_flow(path)
    expected = NiceModel if post == POST_NICE else GlowModel
    if not isinstance(model, expected):
        raise ConfigurationError(
            f"model at {path} is {type(model).__name__}, but post={post!r} "
            "was requested"
        )
    return model


def _load_post(settings) -> PostProcessor:
    post = settings["post"]
    granularity = settings["granularity"]
    if post == POST_NONE:
        return PostProcessor(None, granularity)
    if post not in (POST_WHITEN, POST_NICE, POST_GLOW):
        raise ConfigurationError(f"unknown post {post!r}")
    if not settings["post_path"]:
        raise ConfigurationError(f"post={post!r} requires post_path")
    transform = _load_fitted(post, settings["post_path"])
    doc_transform = None
    if settings["post_path_docs"]:
        doc_transform = _load_fitted(post, settings["post_path_docs"])
    return PostProcessor(transform, granularity, doc_transform=doc_transform)


def cmd_rerank(args) -> int:
    settings = _resolve(
        _RERANK_DEFAULTS,
        args.config,
        {
            "target_corpus": args.target_corpus,
            "candidates": args.candidates,
            "scorer": args.scorer,
            "post": args.post,
            "post_path": args.post_path,
            "post_path_docs": args.post_path_docs,
            "granularity": args.granularity,
            "seed": args.seed,
            "out": args.out,
        },
        required=("target_corpus", "candidates", "out"),
    )
    if settings["scorer"] not in (SCORER_COLBERT, SCORER_REPBERT):
        raise ConfigurationError(f"unknown scorer {settings['scorer']!r}")
    if settings["scorer"] == SCORER_COLBERT and settings["granularity"] != TOKEN_WISE:
        raise ConfigurationError(
            "colbert requires token_wise granularity; sequence_wise applies "
            "only to repbert"
        )
    post = _load_post(settings)
    corpus = load_corpus(settings["target_corpus"])
    candidates = load_candidates(settings["candidates"])
    tag = (
        f"{settings['scorer']}.{settings['post']}.{settings['granularity']}"
        f".c{config_hash(settings)[:8]}.s{settings['seed']}"
    )
    ranked = rank_candidates(corpus, dict(sorted(candidates.items())), settings["scorer"], post)
    rankings = {qid: [(c.doc_id, c.score) for c in scored] for qid, scored in ranked.items()}
    save_run(RankingRun(rankings, tag=tag), settings["out"])
    print(f"wrote run {settings['out']} ({len(rankings)} queries, tag {tag})")
    return EXIT_OK


_EVAL_DEFAULTS = {"run": None, "qrels": None, "out": None}


def cmd_eval(args) -> int:
    settings = _resolve(
        _EVAL_DEFAULTS,
        args.config,
        {"run": args.run, "qrels": args.qrels, "out": args.out},
        required=("run", "qrels", "out"),
    )
    run = load_run(settings["run"])
    qrels = load_qrels(settings["qrels"])
    report = evaluate(run, qrels)
    payload = {"config_sha256": config_hash(settings), "seed": None, "run_tag": run.tag}
    payload.update(report.to_dict())
    write_json(payload, settings["out"])
    print(
        f"p@20={report.p_at_20:.4f} ndcg@10={report.ndcg_at_10:.4f} "
        f"({report.n_queries_evaluated} queries) -> {settings['out']}"
    )
    return EXIT_OK


def _metric_comparison(name, baseline, candidate) -> dict:
    per_base = baseline[f"per_query_{name}"]
    per_cand = candidate[f"per_query_{name}"]
    mean_key = "p_at_20" if name == "p" else "ndcg_at_10"
    base_mean = baseline[mean_key]
    cand_mean = candidate[mean_key]
    result = {
        "baseline": base_mean,
        "candidate": cand_mean,
        "delta_pct": percent_improvement(cand_mean, base_mean) if base_mean else None,
    }
    if len(per_base) >= 2 and len(per_cand) >= 2:
        try:
            t, p = ttest_one_tailed(list(per_cand.values()), list(per_base.values()))
            result["t"] = t
            result["p_one_tailed"] = p
        except DegenerateVarianceError:
            result["t"] = None
            result["p_one_tailed"] = None
    return result


_COMPARE_DEFAULTS = {"baseline": None, "candidate": None, "out": None}


def cmd_compare(args) -> int:
    settings = _resolve(
        _COMPARE_DEFAULTS,
        args.config,
        {"baseline": args.baseline, "candidate": args.candidate, "out": args.out},
        required=("baseline", "candidate", "out"),
    )
    with open(settings["baseline"], "r", encoding="utf-8") as fh:
        baseline = json.load(fh)
    with open(settings["candidate"], "r", encoding="utf-8") as fh:
        candidate = json.load(fh)
    payload = {
        "config_sha256": config_hash(settings),
        "seed": None,
        "baseline_run": baseline.get("run_tag"),
        "candidate_run": candidate.get("run_tag"),
        "p_at_20": _metric_comparison("p", baseline, candidate),
        "ndcg_at_10": _metric_comparison("ndcg", baseline, candidate),
    }
    write_json(payload, settings["out"])
    ndcg = payload["ndcg_at_10"]
    delta = ndcg["delta_pct"]
    print(
        f"ndcg@10 {ndcg['baseline']:.4f} -> {ndcg['candidate']:.4f}"
        + (f" ({delta:+.2f}%)" if delta is not None else "")
        + (f", p={ndcg['p_one_tailed']:.4f}" if ndcg.get("p_one_tailed") is not None else "")
    )
    return EXIT_OK


# ---------------------------------------------------------------------------
# Argument parsing
# ---------------------------------------------------------------------------


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="isoembed",
        description="Isotropy post-processing and re-ranking evaluation for "
        "dense-retrieval embeddings",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    def add_common(p):
        p.add_argument("--config", help="JSON config file; flags override its values")
        p.add_argument("--seed", type=int, default=None)

    p = sub.add_parser("gen", help="generate a synthetic anisotropic corpus")
    add_common(p)
    p.add_argument("--out", required=False)
    p.add_argument("--n-queries", type=int, dest="n_queries")
    p.add_argument("--n-docs", type=int, dest="n_docs")
    p.add_argument("--tokens-per-query", type=int, dest="tokens_per_query")
    p.add_argument("--tokens-per-doc", type=int, dest="tokens_per_doc")
    p.add_argument("--dim", type=int)
    p.add_argument("--offset-magnitude", type=float, dest="offset_magnitude")
    p.add_argument("--outlier-dims", type=int, dest="outlier_dims")
    p.add_argument("--outlier-scale", type=float, dest="outlier_scale")
    p.set_defaults(func=cmd_gen)

    p = sub.add_parser("scenario", help="generate the designed re-ranking scenario")
    add_common(p)
    p.add_argument("--out-dir", dest="out_dir")
    p.add_argument("--n-queries", type=int, dest="n_queries")
    p.add_argument("--n-docs", type=int, dest="n_docs", help="candidates per query")
    p.add_argument("--dim", type=int)
    p.add_argument("--offset-tilt", type=float, dest="offset_tilt")
    p.add_argument("--scale-factor", type=float, dest="scale_factor")
    p.set_defaults(func=cmd_scenario)

    p = sub.add_parser("measure", help="isotropy metrics and dimension profile")
    add_common(p)
    p.add_argument("--corpus")
    p.add_argument("--batch-size", dest="batch_size")
    p.add_argument("--cosine-mode", choices=["exact", "sampled", "auto"], dest="cosine_mode")
    p.add_argument("--outlier-factor", type=float, dest="outlier_factor")
    p.add_argument("--out")
    p.add_argument("--csv")
    p.set_defaults(func=cmd_measure)

    p = sub.add_parser("fit-whiten", help="fit whitening on the source corpus")
    add_common(p)
    p.add_argument("--source-corpus", dest="source_corpus")
    p.add_argument("--eps-rel", type=float, dest="eps_rel")
    p.add_argument("--fit-on", choices=list(FIT_ON_CHOICES), dest="fit_on")
    p.add_argument("--out")
    p.set_defaults(func=cmd_fit_whiten)

    p = sub.add_parser("fit-flow", help="train a flow on the source corpus")
    add_common(p)
    p.add_argument("--source-corpus", dest="source_corpus")
    p.add_argument("--arch", choices=[POST_NICE, POST_GLOW])
    p.add_argument("--epochs", type=int)
    p.add_argument("--learning-rate", type=float, dest="learning_rate")
    p.add_argument("--batch-size", type=int, dest="batch_size")
    p.add_argument("--hidden", help="comma-separated hidden widths, e.g. 64,64")
    p.add_argument("--couplings", type=int)
    p.add_argument("--levels", type=int)
    p.add_argument("--depth", type=int)
    p.add_argument("--fit-on", choices=list(FIT_ON_CHOICES), dest="fit_on")
    p.add_argument("--out")
    p.set_defaults(func=cmd_fit_flow)

    p = sub.add_parser("rerank", help="apply a post-processor and rank candidates")
    add_common(p)
    p.add_argument("--target-corpus", dest="target_corpus")
    p.add_argument("--candidates")
    p.add_argument("--scorer", choices=[SCORER_COLBERT, SCORER_REPBERT])
    p.add_argument("--post", choices=[POST_NONE, POST_WHITEN, POST_NICE, POST_GLOW])
    p.add_argument("--post-path", dest="post_path")
    p.add_argument(
        "--post-path-docs",
        dest="post_path_docs",
        help="separately fitted transform for documents (queries use --post-path)",
    )
    p.add_argument("--granularity", choices=[TOKEN_WISE, SEQUENCE_WISE])
    p.add_argument("--out")
    p.set_defaults(func=cmd_rerank)

    p = sub.add_parser("eval", help="score a run file against qrels")
    p.add_argument("--config", help="JSON config file; flags override its values")
    p.add_argument("--run")
    p.add_argument("--qrels")
    p.add_argument("--out")
    p.set_defaults(func=cmd_eval)

    p = sub.add_parser("compare", help="percent deltas and t-test between two reports")
    p.add_argument("--config", help="JSON config file; flags override its values")
    p.add_argument("--baseline")
    p.add_argument("--candidate")
    p.add_argument("--out")
    p.set_defaults(func=cmd_compare)

    return parser


def run(argv=None) -> int:
    """Parse and dispatch; returns the process exit code."""
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        return args.func(args)
    except ConfigurationError as exc:
        print(f"configuration error: {exc}", file=sys.stderr)
        return EXIT_CONFIG
    except (
        CorpusFormatError,
        IntegrityError,
        ParseError,
        EmptyInputError,
        InsufficientDataError,
        ShapeError,
        FileNotFoundError,
        KeyError,
        ValueError,
    ) as exc:
        print(f"data error: {exc}", file=sys.stderr)
        return EXIT_DATA
    except (NumericError, TrainingError, DegenerateVarianceError, ArithmeticError) as exc:
        print(f"numeric error: {exc}", file=sys.stderr)
        return EXIT_NUMERIC
    except IsoembedError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_DATA


def main() -> None:
    sys.exit(run())


if __name__ == "__main__":
    main()
