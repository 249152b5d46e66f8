"""Command-line pipeline: generate, measure, fit, re-rank, evaluate, compare.

Subcommands wire the library into source/target experiments: fitting reads
only the source corpus, re-ranking applies a persisted transform to the
target corpus, and every written artifact embeds the resolved-config hash
and seed so runs are attributable and byte-reproducible.

Every setting of every command is declared once, in ``COMMANDS``: its
default and its command-line flag, if it has one. Settings resolve with
precedence: command-line flags > --config JSON file > built-in defaults.
"""

from __future__ import annotations

import argparse
import dataclasses
import hashlib
import json
import math
import sys
from pathlib import Path
from typing import Callable, NamedTuple

import numpy as np

from ..atomic import atomic_write
from ..errors import (
    ConfigurationError,
    DegenerateVarianceError,
    IsoembedError,
    NumericError,
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


def _stamp(settings: dict) -> dict:
    """The run identity every JSON artifact carries. Commands without a
    ``seed`` setting record ``"seed": null``."""
    return {"config_sha256": config_hash(settings), "seed": settings.get("seed")}


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


def _fields_of(cls, settings: dict) -> dict:
    """The settings whose keys name fields of the dataclass ``cls``."""
    return {f.name: settings[f.name] for f in dataclasses.fields(cls) if f.name in settings}


def _parse_widths(text) -> tuple[int, ...]:
    if isinstance(text, (list, tuple)):
        return tuple(int(v) for v in text)
    try:
        return tuple(int(part) for part in str(text).split(",") if part.strip())
    except ValueError:
        raise ConfigurationError(f"bad hidden widths {text!r}; expected e.g. '64,64'") from None


def _is_positive_number(value) -> bool:
    return (
        isinstance(value, (int, float))
        and not isinstance(value, bool)
        and math.isfinite(value)
        and value > 0
    )


def _parse_axis_scales(value) -> list | None:
    """gen's per-axis scales: a list of positive numbers; None or an empty
    list scales no axis."""
    if value is not None and not (
        isinstance(value, list) and all(_is_positive_number(v) for v in value)
    ):
        raise ConfigurationError(f"axis_scales must be a list of positive numbers, got {value!r}")
    return value or None


def _parse_batch_size(value) -> int | str:
    """measure's batch size: "full", or a positive row count given as an
    int or as its digits (the flag's text)."""
    if value == FULL_BATCH:
        return value
    try:
        rows = int(value) if isinstance(value, str) else value
    except ValueError:
        rows = None
    if isinstance(rows, bool) or not isinstance(rows, int) or rows < 1:
        raise ConfigurationError(
            f"batch_size must be {FULL_BATCH!r} or a positive int, got {value!r}"
        )
    return rows


# ---------------------------------------------------------------------------
# Subcommands: each takes the resolved settings of its ``COMMANDS`` entry
# ---------------------------------------------------------------------------


def cmd_gen(settings: dict) -> int:
    fields = _fields_of(SynthParams, settings)
    fields["axis_scales"] = _parse_axis_scales(fields["axis_scales"])
    save_corpus(generate_anisotropic(SynthParams(**fields)), settings["out"])
    write_json(
        {**_stamp(settings), "settings": experiment_settings(settings)},
        str(settings["out"]) + ".manifest.json",
    )
    print(f"wrote corpus {settings['out']} (config {config_hash(settings)[:12]})")
    return EXIT_OK


def cmd_scenario(settings: dict) -> int:
    out_dir = Path(settings["out_dir"])
    out_dir.mkdir(parents=True, exist_ok=True)
    corpus, qrels, candidates = build_designed_scenario(
        seed=settings["seed"],
        n_queries=settings["n_queries"],
        n_docs=settings["n_docs"],
        dim=settings["dim"],
        params=ScenarioParams(**_fields_of(ScenarioParams, settings)),
    )
    save_corpus(corpus, out_dir / "corpus.emb")
    save_qrels(qrels, out_dir / "qrels.txt")
    save_candidates(candidates, out_dir / "candidates.jsonl")
    write_json(
        {**_stamp(settings), "settings": experiment_settings(settings)},
        out_dir / "manifest.json",
    )
    print(f"wrote scenario to {out_dir} (config {config_hash(settings)[:12]})")
    return EXIT_OK


def cmd_measure(settings: dict) -> int:
    batch_size = _parse_batch_size(settings["batch_size"])
    corpus = load_corpus(settings["corpus"])
    report = measure(
        corpus.matrix,
        batch_size,
        cosine_mode=settings["cosine_mode"],
        seed=settings["seed"],
    )
    profile = dimension_profile(corpus.matrix, outlier_factor=settings["outlier_factor"])
    payload = {
        **_stamp(settings),
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
            **_stamp(settings),
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
    return rows_of_kind(corpus, KIND_QUERY if fit_on == "queries" else KIND_DOCUMENT)


def cmd_fit_whiten(settings: dict) -> int:
    corpus = load_corpus(settings["source_corpus"])
    transform = fit_whitening(
        _fit_matrix(corpus, settings["fit_on"]), eps_rel=settings["eps_rel"]
    )
    save_whitening(transform, settings["out"])
    _write_provenance(settings["out"], settings["source_corpus"], settings)
    print(f"fitted whitening on {transform.fitted_on} rows -> {settings['out']}")
    return EXIT_OK


def cmd_fit_flow(settings: dict) -> int:
    hidden = _parse_widths(settings["hidden"])
    if settings["arch"] == POST_NICE:
        spec = NiceSpec(couplings=settings["couplings"], hidden=hidden)
    else:
        spec = GlowSpec(levels=settings["levels"], depth=settings["depth"], hidden=hidden)
    corpus = load_corpus(settings["source_corpus"])
    cfg = FlowTrainConfig(**_fields_of(FlowTrainConfig, settings))
    model, report = train_flow(_fit_matrix(corpus, settings["fit_on"]), spec, cfg)
    save_flow(model, settings["out"])
    _write_provenance(settings["out"], settings["source_corpus"], settings)
    write_json(
        {
            **_stamp(settings),
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
    if not settings["post_path"]:
        raise ConfigurationError(f"post={post!r} requires post_path")
    transform = _load_fitted(post, settings["post_path"])
    doc_transform = None
    if settings["post_path_docs"]:
        doc_transform = _load_fitted(post, settings["post_path_docs"])
    return PostProcessor(transform, granularity, doc_transform=doc_transform)


def cmd_rerank(settings: dict) -> int:
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


def cmd_eval(settings: dict) -> int:
    run = load_run(settings["run"])
    qrels = load_qrels(settings["qrels"])
    report = evaluate(run, qrels)
    payload = {**_stamp(settings), "run_tag": run.tag}
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


def cmd_compare(settings: dict) -> int:
    with open(settings["baseline"], "r", encoding="utf-8") as fh:
        baseline = json.load(fh)
    with open(settings["candidate"], "r", encoding="utf-8") as fh:
        candidate = json.load(fh)
    payload = {
        **_stamp(settings),
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
# Settings table, argument parsing and resolution
# ---------------------------------------------------------------------------


class Command(NamedTuple):
    """One subcommand. ``settings`` maps each key to ``(default, flag)``:
    ``flag`` holds the argparse keyword arguments of ``--<key>`` (with
    ``_`` spelled ``-``), or is None for a key that only a --config file
    can set. The keys and the types of the resolved values are part of
    every run's config hash."""

    handler: Callable[[dict], int]
    help: str
    required: tuple[str, ...]
    settings: dict


INT = {"type": int}
FLOAT = {"type": float}
TEXT = {}
CONFIG_ONLY = None

# The order of each command's keys is the order of its flags in --help.
COMMANDS = {
    "gen": Command(cmd_gen, "generate a synthetic anisotropic corpus", ("out",), {
        "seed": (0, INT),
        "out": (None, TEXT),
        "n_queries": (64, INT),
        "n_docs": (448, INT),
        "tokens_per_query": (8, INT),
        "tokens_per_doc": (8, INT),
        "dim": (64, INT),
        "offset_magnitude": (10.0, FLOAT),
        "outlier_dims": (4, INT),
        "outlier_scale": (20.0, FLOAT),
        "axis_scales": (None, CONFIG_ONLY),
    }),
    "scenario": Command(cmd_scenario, "generate the designed re-ranking scenario", ("out_dir",), {
        "seed": (0, INT),
        "out_dir": (None, TEXT),
        "n_queries": (64, INT),
        "n_docs": (20, {"type": int, "help": "candidates per query"}),
        "dim": (64, INT),
        "offset_tilt": (0.0, FLOAT),
        "scale_factor": (1.0, FLOAT),
        "tokens_per_query": (4, CONFIG_ONLY),
        "tokens_per_doc": (6, CONFIG_ONLY),
        "dominant_dims": (8, CONFIG_ONLY),
        "dominant_scale": (15.0, CONFIG_ONLY),
        "offset_magnitude": (6.0, CONFIG_ONLY),
        "signal_strength": (1.0, CONFIG_ONLY),
        "token_noise": (0.25, CONFIG_ONLY),
    }),
    "measure": Command(cmd_measure, "isotropy metrics and dimension profile", ("corpus", "out"), {
        "seed": (0, INT),
        "corpus": (None, TEXT),
        # "full" or a row count; the flag keeps it a string, as the
        # config hash of every measure run has recorded it.
        "batch_size": (FULL_BATCH, TEXT),
        "cosine_mode": ("auto", {"choices": ("exact", "sampled", "auto")}),
        "outlier_factor": (5.0, FLOAT),
        "out": (None, TEXT),
        "csv": (None, TEXT),
    }),
    "fit-whiten": Command(
        cmd_fit_whiten, "fit whitening on the source corpus", ("source_corpus", "out"), {
            "seed": (0, INT),
            "source_corpus": (None, TEXT),
            "eps_rel": (1e-8, FLOAT),
            "fit_on": ("all", {"choices": FIT_ON_CHOICES}),
            "out": (None, TEXT),
        }),
    "fit-flow": Command(
        cmd_fit_flow, "train a flow on the source corpus", ("source_corpus", "out"), {
            "seed": (0, INT),
            "source_corpus": (None, TEXT),
            "arch": (POST_NICE, {"choices": (POST_NICE, POST_GLOW)}),
            "epochs": (10, INT),
            "learning_rate": (1e-4, FLOAT),
            "batch_size": (256, INT),
            "hidden": ("1000,1000,1000,1000,1000",
                       {"help": "comma-separated hidden widths, e.g. 64,64"}),
            "couplings": (4, INT),
            "levels": (2, INT),
            "depth": (3, INT),
            "fit_on": ("all", {"choices": FIT_ON_CHOICES}),
            "out": (None, TEXT),
            "shuffle": (True, CONFIG_ONLY),
        }),
    "rerank": Command(
        cmd_rerank, "apply a post-processor and rank candidates",
        ("target_corpus", "candidates", "out"), {
            "seed": (0, INT),
            "target_corpus": (None, TEXT),
            "candidates": (None, TEXT),
            "scorer": (SCORER_COLBERT, {"choices": (SCORER_COLBERT, SCORER_REPBERT)}),
            "post": (POST_NONE, {"choices": (POST_NONE, POST_WHITEN, POST_NICE, POST_GLOW)}),
            "post_path": ("", TEXT),
            "post_path_docs": ("", {
                "help": "separately fitted transform for documents (queries use --post-path)"}),
            "granularity": (TOKEN_WISE, {"choices": (TOKEN_WISE, SEQUENCE_WISE)}),
            "out": (None, TEXT),
        }),
    "eval": Command(cmd_eval, "score a run file against qrels", ("run", "qrels", "out"), {
        "run": (None, TEXT),
        "qrels": (None, TEXT),
        "out": (None, TEXT),
    }),
    "compare": Command(
        cmd_compare, "percent deltas and t-test between two reports",
        ("baseline", "candidate", "out"), {
            "baseline": (None, TEXT),
            "candidate": (None, TEXT),
            "out": (None, TEXT),
        }),
}


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="isoembed",
        description="Isotropy post-processing and re-ranking evaluation for "
        "dense-retrieval embeddings",
    )
    sub = parser.add_subparsers(dest="command", required=True)
    for name, command in COMMANDS.items():
        p = sub.add_parser(name, help=command.help)
        p.add_argument("--config", help="JSON config file; flags override its values")
        for key, (_, flag) in command.settings.items():
            if flag is not CONFIG_ONLY:
                p.add_argument("--" + key.replace("_", "-"), **flag)
    return parser


def _check_value(config_path, key: str, value, default, flag) -> None:
    """Reject a config value whose type or choice the setting cannot take.

    Keys whose default is None or a string are not checked here: paths,
    widths given as text or a list, and the values their command parses
    (gen's ``axis_scales``, measure's ``batch_size``).
    """
    if isinstance(default, (bool, int, float)):
        kinds = (int, float) if isinstance(default, float) else (type(default),)
        if isinstance(value, bool) != isinstance(default, bool) or not isinstance(value, kinds):
            raise ConfigurationError(
                f"{config_path}: {key} must be a {type(default).__name__}, got {value!r}"
            )
    choices = (flag or {}).get("choices")
    if choices and value not in choices:
        raise ConfigurationError(
            f"{config_path}: {key} must be one of {list(choices)}, got {value!r}"
        )


def _read_config(config_path, table: dict) -> dict:
    try:
        with open(config_path, "r", encoding="utf-8") as fh:
            loaded = json.load(fh)
    except OSError as exc:
        raise ConfigurationError(f"{config_path}: cannot read ({exc.strerror})") from None
    except ValueError as exc:  # invalid JSON or UTF-8
        raise ConfigurationError(f"{config_path}: invalid JSON ({exc})") from None
    if not isinstance(loaded, dict):
        raise ConfigurationError(
            f"{config_path}: expected a JSON object of settings, got {type(loaded).__name__}"
        )
    unknown = set(loaded) - set(table)
    if unknown:
        raise ConfigurationError(f"{config_path}: unknown config keys {sorted(unknown)}")
    for key, value in loaded.items():
        _check_value(config_path, key, value, *table[key])
    return loaded


def _resolve(command: Command, args: argparse.Namespace) -> dict:
    """Merge defaults < config file < explicit flags."""
    settings = {key: default for key, (default, _) in command.settings.items()}
    if args.config:
        settings.update(_read_config(args.config, command.settings))
    for key, (_, flag) in command.settings.items():
        value = None if flag is CONFIG_ONLY else getattr(args, key)
        if value is not None:
            settings[key] = value
    missing = [k for k in command.required if settings[k] is None]
    if missing:
        raise ConfigurationError(f"missing required settings: {sorted(missing)}")
    return settings


def run(argv=None) -> int:
    """Parse and dispatch; returns the process exit code."""
    args = build_parser().parse_args(argv)
    command = COMMANDS[args.command]
    try:
        return command.handler(_resolve(command, args))
    except ConfigurationError as exc:
        print(f"configuration error: {exc}", file=sys.stderr)
        return EXIT_CONFIG
    except (NumericError, TrainingError, DegenerateVarianceError, ArithmeticError) as exc:
        print(f"numeric error: {exc}", file=sys.stderr)
        return EXIT_NUMERIC
    # Every other package error is a data/format error (errors.py).
    except (IsoembedError, OSError, KeyError, ValueError) as exc:
        print(f"data error: {exc}", file=sys.stderr)
        return EXIT_DATA


def main() -> None:
    sys.exit(run())


if __name__ == "__main__":
    main()
