"""Designed scenario and CLI subcommands: end-to-end flows, determinism,
provenance, exit codes."""

import json
import os

import numpy as np
import pytest

from isoembed import load_corpus
from isoembed.errors import ParseError
from isoembed.pipeline import (
    ScenarioParams,
    build_designed_scenario,
    load_candidates,
    run,
    save_candidates,
)


class TestScenario:
    def test_deterministic(self):
        a_corpus, a_qrels, a_cands = build_designed_scenario(seed=3, n_queries=4, n_docs=5, dim=16)
        b_corpus, b_qrels, b_cands = build_designed_scenario(seed=3, n_queries=4, n_docs=5, dim=16)
        assert np.array_equal(a_corpus.matrix, b_corpus.matrix)
        assert a_corpus.sequences == b_corpus.sequences
        assert a_qrels.grades == b_qrels.grades
        assert a_cands == b_cands

    def test_structure(self):
        corpus, qrels, cands = build_designed_scenario(seed=1, n_queries=3, n_docs=4, dim=12)
        assert len(cands) == 3
        assert all(len(docs) == 4 for docs in cands.values())
        for qid, docs in cands.items():
            grades = [qrels.grade(qid, d) for d in docs]
            assert sum(grades) == 1  # exactly one relevant candidate
        assert len(corpus.sequences) == 3 + 12

    def test_relevant_doc_shares_topic(self):
        """With the masking offset removed, the relevant document's mean is
        closer to its query in the signal dimensions than any distractor."""
        params = ScenarioParams(dominant_dims=4, offset_magnitude=0.0)
        corpus, qrels, cands = build_designed_scenario(
            seed=5, n_queries=6, n_docs=8, dim=24, params=params
        )
        from isoembed.store import KIND_DOCUMENT, KIND_QUERY

        hits = 0
        for qid, docs in cands.items():
            q_mean = corpus.tokens(corpus.find(KIND_QUERY, qid)).mean(axis=0)[4:]
            sims = {}
            for doc_id in docs:
                d_mean = corpus.tokens(corpus.find(KIND_DOCUMENT, doc_id)).mean(axis=0)[4:]
                sims[doc_id] = float(q_mean @ d_mean)
            best = max(sims, key=sims.get)
            if qrels.grade(qid, best) == 1:
                hits += 1
        assert hits >= 5

    def test_candidates_round_trip(self, tmp_path):
        cands = {"q1": ["d3", "d1"], "q0": ["d2"]}
        path = tmp_path / "c.jsonl"
        save_candidates(cands, path)
        assert load_candidates(path) == cands

    def test_candidates_parse_error(self, tmp_path):
        path = tmp_path / "bad.jsonl"
        path.write_text('{"qid": "q1", "docs": ["d1"]}\nnot json\n')
        with pytest.raises(ParseError, match=":2"):
            load_candidates(path)

    def test_candidates_missing_keys(self, tmp_path):
        path = tmp_path / "bad.jsonl"
        path.write_text('{"qid": "q1"}\n')
        with pytest.raises(ParseError, match="docs"):
            load_candidates(path)


@pytest.fixture(scope="module")
def workspace(tmp_path_factory):
    """Scenario + fitted whitening + raw/whitened runs + eval reports."""
    base = tmp_path_factory.mktemp("pipeline")
    src = base / "src"
    assert run(["scenario", "--out-dir", str(src), "--seed", "7",
                "--n-queries", "16", "--n-docs", "8", "--dim", "32"]) == 0
    assert run(["fit-whiten", "--source-corpus", str(src / "corpus.emb"),
                "--out", str(base / "white.wht")]) == 0
    for post, extra in (("none", []), ("whiten", ["--post-path", str(base / "white.wht")])):
        assert run(["rerank", "--target-corpus", str(src / "corpus.emb"),
                    "--candidates", str(src / "candidates.jsonl"),
                    "--scorer", "colbert", "--post", post,
                    "--out", str(base / f"{post}.run"), *extra]) == 0
        assert run(["eval", "--run", str(base / f"{post}.run"),
                    "--qrels", str(src / "qrels.txt"),
                    "--out", str(base / f"{post}.json")]) == 0
    return base


class TestCli:
    def test_gen_writes_loadable_corpus(self, tmp_path):
        out = tmp_path / "c.emb"
        assert run(["gen", "--out", str(out), "--seed", "3", "--n-queries", "2",
                    "--n-docs", "6", "--tokens-per-query", "2", "--tokens-per-doc", "2",
                    "--dim", "8", "--offset-magnitude", "4", "--outlier-dims", "1",
                    "--outlier-scale", "5"]) == 0
        corpus = load_corpus(out)
        assert corpus.dim == 8
        assert corpus.n_rows == 2 * 2 + 6 * 2

    def test_measure_outputs(self, tmp_path, workspace):
        report_path = tmp_path / "m.json"
        csv_path = tmp_path / "m.csv"
        assert run(["measure", "--corpus", str(workspace / "src" / "corpus.emb"),
                    "--out", str(report_path), "--csv", str(csv_path)]) == 0
        payload = json.loads(report_path.read_text())
        assert set(payload) >= {"i_w", "avg_cos", "n_rows", "dim", "outlier_dimensions"}
        lines = csv_path.read_text().splitlines()
        assert lines[0] == "dimension,max_abs,mean,std,outlier"
        assert len(lines) == 1 + payload["dim"]

    def test_whitening_improves_scenario(self, workspace):
        raw = json.loads((workspace / "none.json").read_text())
        white = json.loads((workspace / "whiten.json").read_text())
        assert white["ndcg_at_10"] > raw["ndcg_at_10"]

    def test_compare_report(self, workspace, tmp_path):
        out = tmp_path / "cmp.json"
        assert run(["compare", "--baseline", str(workspace / "none.json"),
                    "--candidate", str(workspace / "whiten.json"),
                    "--out", str(out)]) == 0
        payload = json.loads(out.read_text())
        assert payload["ndcg_at_10"]["delta_pct"] > 0
        assert 0.0 <= payload["ndcg_at_10"]["p_one_tailed"] <= 1.0

    def test_rerun_is_byte_identical(self, workspace, tmp_path):
        src = workspace / "src"
        first, second = tmp_path / "a.run", tmp_path / "b.run"
        for out in (first, second):
            assert run(["rerank", "--target-corpus", str(src / "corpus.emb"),
                        "--candidates", str(src / "candidates.jsonl"),
                        "--scorer", "repbert", "--granularity", "sequence_wise",
                        "--post", "none", "--seed", "5", "--out", str(out)]) == 0
        assert first.read_bytes() == second.read_bytes()

    def test_scenario_rerun_byte_identical(self, tmp_path):
        dirs = [tmp_path / "s1", tmp_path / "s2"]
        for d in dirs:
            assert run(["scenario", "--out-dir", str(d), "--seed", "9",
                        "--n-queries", "4", "--n-docs", "5", "--dim", "16"]) == 0
        for name in ("corpus.emb", "qrels.txt", "candidates.jsonl", "manifest.json"):
            assert (dirs[0] / name).read_bytes() == (dirs[1] / name).read_bytes()

    def test_provenance_names_source_not_target(self, workspace, tmp_path):
        """Fitting reads only the source corpus; the persisted transform
        records the source path and content hash."""
        import hashlib

        target_dir = tmp_path / "tgt"
        assert run(["scenario", "--out-dir", str(target_dir), "--seed", "11",
                    "--n-queries", "4", "--n-docs", "5", "--dim", "32",
                    "--offset-tilt", "0.1", "--scale-factor", "1.3"]) == 0
        prov = json.loads((workspace / "white.wht.provenance.json").read_text())
        source_bytes = (workspace / "src" / "corpus.emb").read_bytes()
        target_bytes = (target_dir / "corpus.emb").read_bytes()
        assert prov["source_sha256"] == hashlib.sha256(source_bytes).hexdigest()
        assert prov["source_sha256"] != hashlib.sha256(target_bytes).hexdigest()
        assert prov["source_corpus"].endswith("corpus.emb")

    def test_colbert_sequence_wise_is_config_error(self, workspace, tmp_path):
        out = tmp_path / "never.run"
        src = workspace / "src"
        code = run(["rerank", "--target-corpus", str(src / "corpus.emb"),
                    "--candidates", str(src / "candidates.jsonl"),
                    "--scorer", "colbert", "--granularity", "sequence_wise",
                    "--post", "none", "--out", str(out)])
        assert code == 2
        assert not out.exists()

    def test_missing_corpus_is_data_error(self, tmp_path):
        code = run(["measure", "--corpus", str(tmp_path / "absent.emb"),
                    "--out", str(tmp_path / "r.json")])
        assert code == 3

    def test_corrupt_corpus_is_data_error(self, tmp_path):
        bad = tmp_path / "bad.emb"
        bad.write_bytes(b"JUNKJUNKJUNKJUNKJUNKJUNKJUNKJUNK")
        assert run(["measure", "--corpus", str(bad), "--out", str(tmp_path / "r.json")]) == 3

    def test_fit_flow_and_rerank(self, workspace, tmp_path):
        src = workspace / "src"
        model_path = tmp_path / "model.flw"
        assert run(["fit-flow", "--source-corpus", str(src / "corpus.emb"),
                    "--arch", "glow", "--levels", "2", "--depth", "1",
                    "--hidden", "8", "--epochs", "1", "--batch-size", "64",
                    "--seed", "3", "--out", str(model_path)]) == 0
        assert model_path.exists()
        train_log = json.loads((tmp_path / "model.flw.train.json").read_text())
        assert train_log["steps"] >= 1
        out = tmp_path / "glow.run"
        assert run(["rerank", "--target-corpus", str(src / "corpus.emb"),
                    "--candidates", str(src / "candidates.jsonl"),
                    "--scorer", "colbert", "--post", "glow",
                    "--post-path", str(model_path), "--out", str(out)]) == 0
        assert out.exists()

    def test_post_without_path_is_config_error(self, workspace, tmp_path):
        src = workspace / "src"
        code = run(["rerank", "--target-corpus", str(src / "corpus.emb"),
                    "--candidates", str(src / "candidates.jsonl"),
                    "--scorer", "colbert", "--post", "whiten",
                    "--out", str(tmp_path / "x.run")])
        assert code == 2

    def test_post_arch_mismatch_is_config_error(self, workspace, tmp_path):
        src = workspace / "src"
        model_path = tmp_path / "nice.flw"
        assert run(["fit-flow", "--source-corpus", str(src / "corpus.emb"),
                    "--arch", "nice", "--couplings", "2", "--hidden", "8",
                    "--epochs", "1", "--batch-size", "64", "--out", str(model_path)]) == 0
        code = run(["rerank", "--target-corpus", str(src / "corpus.emb"),
                    "--candidates", str(src / "candidates.jsonl"),
                    "--scorer", "colbert", "--post", "glow",
                    "--post-path", str(model_path), "--out", str(tmp_path / "x.run")])
        assert code == 2

    def test_config_file_with_flag_override(self, workspace, tmp_path):
        src = workspace / "src"
        cfg = tmp_path / "cfg.json"
        cfg.write_text(json.dumps({
            "target_corpus": str(src / "corpus.emb"),
            "candidates": str(src / "candidates.jsonl"),
            "scorer": "repbert",
            "granularity": "token_wise",
            "post": "none",
            "out": str(tmp_path / "from_config.run"),
        }))
        assert run(["rerank", "--config", str(cfg)]) == 0
        assert (tmp_path / "from_config.run").exists()
        # flag overrides config value
        assert run(["rerank", "--config", str(cfg), "--out", str(tmp_path / "flag.run")]) == 0
        assert (tmp_path / "flag.run").exists()

    def test_unknown_config_key_rejected(self, workspace, tmp_path):
        cfg = tmp_path / "cfg.json"
        cfg.write_text(json.dumps({"mystery_knob": 1}))
        assert run(["rerank", "--config", str(cfg)]) == 2

    @pytest.mark.parametrize("content", [None, "5", '["corpus"]', "{not json", b"\xff\xfe"])
    def test_unusable_config_file_is_config_error(self, workspace, tmp_path, content):
        cfg = tmp_path / "cfg.json"
        if isinstance(content, str):
            cfg.write_text(content)
        elif content is not None:
            cfg.write_bytes(content)
        out = tmp_path / "m.json"
        code = run(["measure", "--config", str(cfg),
                    "--corpus", str(workspace / "src" / "corpus.emb"), "--out", str(out)])
        assert code == 2
        assert not out.exists()

    @pytest.mark.parametrize("command,values", [
        ("fit-flow", {"epochs": "2"}),
        ("fit-flow", {"epochs": True}),
        ("fit-flow", {"epochs": 2.0}),
        ("fit-flow", {"shuffle": "no"}),
        ("fit-flow", {"shuffle": 0}),
        ("fit-flow", {"learning_rate": False}),
        ("fit-flow", {"arch": "realnvp"}),
        ("fit-flow", {"batch_size": None}),
        ("scenario", {"n_queries": "x"}),
        ("scenario", {"token_noise": "0.5"}),
        ("measure", {"cosine_mode": "bogus"}),
        ("fit-whiten", {"fit_on": "rows"}),
        ("rerank", {"granularity": 1}),
        ("gen", {"axis_scales": 5}),
        ("gen", {"axis_scales": "1,2"}),
        ("gen", {"axis_scales": [1, 2, 0, 4]}),
        ("gen", {"axis_scales": [1, 2, -3, 4]}),
        ("gen", {"axis_scales": [1, 2, "3", 4]}),
        ("gen", {"axis_scales": [1, 2, True, 4]}),
        ("gen", {"axis_scales": [1, 2, float("nan"), 4]}),
        ("gen", {"axis_scales": [1, 2, float("inf"), 4]}),
        ("measure", {"batch_size": [16]}),
        ("measure", {"batch_size": 0}),
        ("measure", {"batch_size": -4}),
        ("measure", {"batch_size": 16.0}),
        ("measure", {"batch_size": True}),
        ("measure", {"batch_size": "sixteen"}),
        ("measure", {"batch_size": None}),
    ])
    def test_config_value_of_wrong_type_or_choice_is_config_error(
        self, workspace, tmp_path, command, values
    ):
        corpus = str(workspace / "src" / "corpus.emb")
        inputs = {
            "fit-flow": {"source_corpus": corpus},
            "gen": {"n_queries": 2, "n_docs": 2, "dim": 4},
            "scenario": {},
            "measure": {"corpus": corpus},
            "fit-whiten": {"source_corpus": corpus},
            "rerank": {"target_corpus": corpus,
                       "candidates": str(workspace / "src" / "candidates.jsonl")},
        }[command]
        out_key = "out_dir" if command == "scenario" else "out"
        out = tmp_path / "never"
        cfg = tmp_path / "cfg.json"
        cfg.write_text(json.dumps({**inputs, **values, out_key: str(out)}))
        assert run([command, "--config", str(cfg)]) == 2
        assert not out.exists()

    @pytest.mark.parametrize("text", ["0", "-1", "sixteen", ""])
    def test_bad_measure_batch_size_flag_is_config_error(self, workspace, tmp_path, text):
        out = tmp_path / "m.json"
        code = run(["measure", "--corpus", str(workspace / "src" / "corpus.emb"),
                    "--batch-size", text, "--out", str(out)])
        assert code == 2
        assert not out.exists()

    @pytest.mark.parametrize("command,values", [
        ("gen", {"axis_scales": []}),
        ("measure", {"batch_size": "full"}),
        ("measure", {"batch_size": "16"}),
    ])
    def test_config_value_its_command_parses_is_accepted(
        self, workspace, tmp_path, command, values
    ):
        inputs = {
            "gen": {"n_queries": 2, "n_docs": 2, "dim": 4},
            "measure": {"corpus": str(workspace / "src" / "corpus.emb")},
        }[command]
        out = tmp_path / "written"
        cfg = tmp_path / "cfg.json"
        cfg.write_text(json.dumps({**inputs, **values, "out": str(out)}))
        assert run([command, "--config", str(cfg)]) == 0
        assert out.exists()

    def test_output_under_a_file_is_data_error(self, workspace, tmp_path):
        blocker = tmp_path / "file"
        blocker.write_text("not a directory")
        code = run(["measure", "--corpus", str(workspace / "src" / "corpus.emb"),
                    "--out", str(blocker / "x.json")])
        assert code == 3
        assert blocker.read_text() == "not a directory"

    def test_run_tag_embeds_config_hash_and_seed(self, workspace):
        from isoembed import load_run

        tag = load_run(workspace / "none.run").tag
        assert ".c" in tag and ".s" in tag
        assert tag.startswith("colbert.none.token_wise")

    def test_fit_on_kind_and_separate_doc_transform(self, workspace, tmp_path):
        """Per-kind fitting plus a document-specific transform at rerank."""
        src = workspace / "src"
        q_wht, d_wht = tmp_path / "q.wht", tmp_path / "d.wht"
        assert run(["fit-whiten", "--source-corpus", str(src / "corpus.emb"),
                    "--fit-on", "queries", "--out", str(q_wht)]) == 0
        assert run(["fit-whiten", "--source-corpus", str(src / "corpus.emb"),
                    "--fit-on", "documents", "--out", str(d_wht)]) == 0
        from isoembed import load_corpus as load_c
        from isoembed.store import KIND_QUERY, rows_of_kind
        from isoembed.whitening import load_whitening

        corpus = load_c(src / "corpus.emb")
        assert load_whitening(q_wht).fitted_on == rows_of_kind(corpus, KIND_QUERY).shape[0]
        assert load_whitening(q_wht).fitted_on < load_whitening(d_wht).fitted_on
        out = tmp_path / "split.run"
        assert run(["rerank", "--target-corpus", str(src / "corpus.emb"),
                    "--candidates", str(src / "candidates.jsonl"),
                    "--scorer", "colbert", "--post", "whiten",
                    "--post-path", str(q_wht), "--post-path-docs", str(d_wht),
                    "--out", str(out)]) == 0
        assert out.exists()

    def test_gen_writes_manifest(self, tmp_path):
        out = tmp_path / "g.emb"
        assert run(["gen", "--out", str(out), "--seed", "4", "--n-queries", "1",
                    "--n-docs", "1", "--tokens-per-query", "1",
                    "--tokens-per-doc", "1", "--dim", "4"]) == 0
        manifest = json.loads((tmp_path / "g.emb.manifest.json").read_text())
        assert manifest["seed"] == 4
        assert "config_sha256" in manifest

    def test_module_entry_point_runs_without_warnings(self):
        """``python -m isoembed.pipeline.cli`` must not find the CLI module
        already imported by its package (runpy's RuntimeWarning)."""
        import subprocess
        import sys
        from pathlib import Path

        import isoembed

        env = dict(os.environ)
        src = str(Path(isoembed.__file__).resolve().parents[1])
        env["PYTHONPATH"] = os.pathsep.join(filter(None, [src, env.get("PYTHONPATH")]))
        done = subprocess.run(
            [sys.executable, "-W", "error", "-m", "isoembed.pipeline.cli", "--help"],
            env=env, capture_output=True, text=True, timeout=60,
        )
        assert done.returncode == 0, done.stderr
        assert "usage" in done.stdout
