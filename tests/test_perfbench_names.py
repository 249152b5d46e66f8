"""The benchmark reaches into isoembed by name: its tracer patches functions
and methods listed in ``perfbench/tracing.py``, and ``perfbench/layers.py``
drives each flow layer's forward and backward. A rename that breaks either
fails here."""

import importlib.util
import json
from pathlib import Path

import numpy as np
import pytest

from isoembed import autodiff as ad

PERFBENCH = Path(__file__).resolve().parents[1] / "perfbench"


def load(name: str):
    spec = importlib.util.spec_from_file_location(f"perfbench_{name}", PERFBENCH / f"{name}.py")
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def test_tracer_installs_and_restores_every_target():
    tracing = load("tracing")
    entries = [t[:2] for t in tracing.TARGETS] + [c[:2] for c in tracing.COUNTED]
    originals = {}
    for module_name, attribute in entries:
        owner, leaf = tracing._resolve(module_name, attribute)
        originals[(module_name, attribute)] = owner.__dict__[leaf]
    tracer = tracing.Tracer()
    tracer.install()
    try:
        for module_name, attribute in entries:
            owner, leaf = tracing._resolve(module_name, attribute)
            assert owner.__dict__[leaf] is not originals[(module_name, attribute)]
    finally:
        tracer.uninstall()
    for module_name, attribute in entries:
        owner, leaf = tracing._resolve(module_name, attribute)
        assert owner.__dict__[leaf] is originals[(module_name, attribute)]


def test_layer_bench_runs_every_layer_forward_and_backward():
    layers = load("layers")
    batch = np.random.default_rng(0).normal(size=(3, layers.DIM))
    for name, (layer, forward, in_dim) in layers._layers((4,)).items():
        for p in layer.parameters():
            p.grad = None
        layers._reduce(*forward(layer, ad.constant(batch[:, :in_dim]))).backward()
        for p in layer.parameters():
            assert p.grad is not None and p.grad.shape == p.data.shape, name


# Spans the benchmark's flow metrics are computed from. ``train_flow`` no
# longer calls ``GlowModel.initialize_actnorms`` (flows.actnorm_init): the
# actnorms are data-initialized inside the first step's forward pass, so
# that span reads 0 in a fit and flows.train_step_ms now includes the first
# batch's single forward.
FIT_SPANS = ("flows.build_model", "flows.dataset_nll", "flows.nll_forward", "flows.checksum",
             "flows.adam_step")


@pytest.mark.parametrize(
    "arch_args",
    [["--arch", "glow", "--levels", "2", "--depth", "3"], ["--arch", "nice", "--couplings", "4"]],
    ids=["glow", "nice"],
)
def test_fit_flow_records_every_training_span(tmp_path, arch_args):
    """A walkthrough-size fit-flow under the benchmark's tracer records each
    span at least once, so a refactor cannot silently zero one."""
    from isoembed.pipeline import run

    src = tmp_path / "src"
    assert run(["scenario", "--out-dir", str(src), "--seed", "7", "--n-queries", "4",
                "--n-docs", "4", "--dim", "16"]) == 0
    tracing = load("tracing")
    tracer = tracing.Tracer()
    tracer.install()
    try:
        code = run(["fit-flow", "--source-corpus", str(src / "corpus.emb"), *arch_args,
                    "--hidden", "64,64", "--epochs", "2", "--batch-size", "64", "--seed", "7",
                    "--out", str(tmp_path / "model.flw")])
    finally:
        tracer.uninstall()
    assert code == 0
    names = [span[1] for span in tracer.spans]
    for name in FIT_SPANS:
        assert names.count(name) >= 1, name
    # flows.train_steps counts this span: the update runs inside the
    # backward, and ``Adam.step`` still ends each step once.
    steps = json.loads((tmp_path / "model.flw.train.json").read_text())["steps"]
    assert steps >= 2 and names.count("flows.adam_step") == steps


def test_corpus_commands_record_the_claimed_spans(tmp_path):
    """The per-layer evidence for corpus loading and scoring reads these
    spans: a load's bytes, whitening's apply and rank_candidates."""
    from isoembed.pipeline import run

    src = tmp_path / "src"
    assert run(["scenario", "--out-dir", str(src), "--seed", "7", "--n-queries", "4",
                "--n-docs", "4", "--dim", "16"]) == 0
    corpus = str(src / "corpus.emb")
    tracing = load("tracing")
    tracer = tracing.Tracer()
    tracer.install()
    try:
        codes = [
            run(["measure", "--corpus", corpus, "--out", str(tmp_path / "m.json")]),
            run(["fit-whiten", "--source-corpus", corpus, "--out", str(tmp_path / "w.wht")]),
            run(["rerank", "--target-corpus", corpus, "--candidates",
                 str(src / "candidates.jsonl"), "--post", "whiten", "--post-path",
                 str(tmp_path / "w.wht"), "--out", str(tmp_path / "w.run")]),
        ]
    finally:
        tracer.uninstall()
    assert codes == [0, 0, 0]
    loads = [span for span in tracer.spans if span[1] == "store.load_corpus"]
    assert len(loads) == 3
    assert all(span[5]["bytes"] > 0 for span in loads)
    names = [span[1] for span in tracer.spans]
    assert names.count("whitening.apply") >= 1
    assert names.count("scoring.rank_candidates") == 1


@pytest.mark.parametrize("granularity", ["token_wise", "sequence_wise"])
def test_rerank_whitening_spans_cover_the_gathered_rows(tmp_path, granularity):
    """``whitening.apply_ms`` times every whitened row of a rerank: the
    ``whitening.apply`` spans' rows add up to the gathered query and
    document token rows (token-wise) or their pooled vectors
    (sequence-wise)."""
    from isoembed import load_corpus
    from isoembed.pipeline import load_candidates, run
    from isoembed.store import KIND_DOCUMENT, KIND_QUERY

    src = tmp_path / "src"
    assert run(["scenario", "--out-dir", str(src), "--seed", "7", "--n-queries", "5",
                "--n-docs", "6", "--dim", "16"]) == 0
    corpus_path, candidates_path = str(src / "corpus.emb"), src / "candidates.jsonl"
    assert run(["fit-whiten", "--source-corpus", corpus_path,
                "--out", str(tmp_path / "w.wht")]) == 0
    tracing = load("tracing")
    tracer = tracing.Tracer()
    tracer.install()
    try:
        code = run(["rerank", "--target-corpus", corpus_path, "--candidates",
                    str(candidates_path), "--scorer", "repbert", "--post", "whiten",
                    "--post-path", str(tmp_path / "w.wht"), "--granularity", granularity,
                    "--out", str(tmp_path / "w.run")])
    finally:
        tracer.uninstall()
    assert code == 0
    corpus, candidates = load_corpus(corpus_path), load_candidates(candidates_path)
    queries = corpus.locate(KIND_QUERY, [q for q, docs in candidates.items() if docs])
    docs = corpus.locate(KIND_DOCUMENT, {d: None for ds in candidates.values() for d in ds})
    if granularity == "token_wise":
        expected = int(corpus.counts[queries].sum() + corpus.counts[docs].sum())
    else:
        expected = queries.size + docs.size
    applies = [span for span in tracer.spans if span[1] == "whitening.apply"]
    assert len(applies) >= 2
    assert sum(span[5]["rows"] for span in applies) == expected
