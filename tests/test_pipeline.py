"""Designed scenario and CLI subcommands: end-to-end flows, determinism,
provenance, exit codes."""

import hashlib
import json
import os

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from conftest import table_corpus, table_of
from isoembed import load_corpus, scoring
from isoembed.errors import IsoembedError, ParseError
from isoembed.rng import PinnedRng
from isoembed.store import KIND_DOCUMENT, KIND_QUERY, save_corpus
from isoembed.whitening import fit_whitening, save_whitening
from isoembed.pipeline import (
    ScenarioParams,
    build_designed_scenario,
    cli,
    load_candidates,
    run,
    save_candidates,
)


class TestScenario:
    def test_deterministic(self):
        a_corpus, a_qrels, a_cands = build_designed_scenario(seed=3, n_queries=4, n_docs=5, dim=16)
        b_corpus, b_qrels, b_cands = build_designed_scenario(seed=3, n_queries=4, n_docs=5, dim=16)
        assert np.array_equal(a_corpus.matrix, b_corpus.matrix)
        assert table_of(a_corpus) == table_of(b_corpus)
        assert a_qrels.grades == b_qrels.grades
        assert a_cands == b_cands

    def test_structure(self):
        corpus, qrels, cands = build_designed_scenario(seed=1, n_queries=3, n_docs=4, dim=12)
        assert len(cands) == 3
        assert all(len(docs) == 4 for docs in cands.values())
        for qid, docs in cands.items():
            grades = [qrels.grade(qid, d) for d in docs]
            assert sum(grades) == 1  # exactly one relevant candidate
        assert len(corpus.ids) == 3 + 12

    def test_relevant_doc_shares_topic(self):
        """With the masking offset removed, the relevant document's mean is
        closer to its query in the signal dimensions than any distractor."""
        params = ScenarioParams(dominant_dims=4, offset_magnitude=0.0)
        corpus, qrels, cands = build_designed_scenario(
            seed=5, n_queries=6, n_docs=8, dim=24, params=params
        )
        hits = 0
        for qid, docs in cands.items():
            q_rows, _ = corpus.take(corpus.locate(KIND_QUERY, [qid]))
            q_mean = q_rows.mean(axis=0)[4:]
            sims = {}
            for doc_id in docs:
                d_rows, _ = corpus.take(corpus.locate(KIND_DOCUMENT, [doc_id]))
                d_mean = d_rows.mean(axis=0)[4:]
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

    @pytest.mark.parametrize(
        "line, message",
        [
            ('{"qid": [1], "docs": ["a"]}', "qid must be a string"),
            ('{"qid": "q1", "docs": 5}', "docs must be a list of strings"),
            ('{"qid": "q1", "docs": ["a", 2]}', "docs must be a list of strings"),
            ('{"qid": null, "docs": []}', "qid must be a string"),
        ],
    )
    def test_candidates_wrong_json_types(self, tmp_path, line, message):
        path = tmp_path / "bad.jsonl"
        path.write_text('{"qid": "q0", "docs": ["d0"]}\n' + line + "\n")
        with pytest.raises(ParseError, match=f"bad.jsonl:2: {message}"):
            load_candidates(path)

    def test_candidates_duplicate_doc_id(self, tmp_path):
        path = tmp_path / "bad.jsonl"
        path.write_text('{"qid": "q0", "docs": ["d0"]}\n{"qid": "q1", "docs": ["d1", "d2", "d1"]}\n')
        with pytest.raises(ParseError, match="bad.jsonl:2: query 'q1': duplicate doc id 'd1'"):
            load_candidates(path)

    def test_candidates_invalid_utf8(self, tmp_path):
        path = tmp_path / "bad.jsonl"
        path.write_bytes(b'{"qid": "q\xe9", "docs": []}\n')
        with pytest.raises(ParseError, match="bad.jsonl: not UTF-8"):
            load_candidates(path)

    @settings(max_examples=150, deadline=None)
    @given(
        st.dictionaries(
            st.text(max_size=4), st.lists(st.text(max_size=4), max_size=3, unique=True), max_size=4
        ),
        st.lists(st.tuples(st.integers(0), st.integers(1, 255)), min_size=1, max_size=3),
        st.integers(0),
    )
    def test_candidates_round_trip_and_corruption(self, tmp_path_factory, cands, flips, cut):
        """Every saved file loads back equal; every flipped or truncated one
        loads or raises an IsoembedError."""
        directory = tmp_path_factory.mktemp("cands")
        save_candidates(cands, directory / "whole.jsonl")
        assert load_candidates(directory / "whole.jsonl") == cands
        blob = bytearray((directory / "whole.jsonl").read_bytes())
        if not blob:
            return
        for position, mask in flips:
            blob[position % len(blob)] ^= mask
        for data in (bytes(blob), bytes(blob[: cut % len(blob)])):
            (directory / "bad.jsonl").write_bytes(data)
            try:
                load_candidates(directory / "bad.jsonl")
            except IsoembedError:
                pass


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

    def test_colbert_placement_is_checked_before_any_input(self, tmp_path, capsys):
        """With no corpus or candidates file to read, the placement rule
        still decides the exit, with the message ``rank_candidates`` gives."""
        message = "colbert requires token_wise granularity; sequence_wise applies only to repbert"
        code = run(["rerank", "--target-corpus", str(tmp_path / "absent.emb"),
                    "--candidates", str(tmp_path / "absent.jsonl"),
                    "--scorer", "colbert", "--granularity", "sequence_wise",
                    "--out", str(tmp_path / "never.run")])
        assert code == 2
        assert capsys.readouterr().err == f"configuration error: {message}\n"
        corpus = table_corpus(np.ones((2, 2)), [("q", "query", 0, 1), ("d", "document", 1, 1)])
        with pytest.raises(IsoembedError, match=f"^{message}$"):
            scoring.rank_candidates(corpus, {"q": ["d"]}, "colbert",
                                    scoring.PostProcessor(None, scoring.SEQUENCE_WISE))

    def test_missing_corpus_is_data_error(self, tmp_path):
        code = run(["measure", "--corpus", str(tmp_path / "absent.emb"),
                    "--out", str(tmp_path / "r.json")])
        assert code == 3

    @pytest.mark.parametrize(
        "line",
        ['{"qid": [1], "docs": ["a"]}', '{"qid": "q1", "docs": 5}'],
        ids=["list-qid", "int-docs"],
    )
    def test_wrong_json_type_in_candidates_is_data_error(self, workspace, tmp_path, line, capsys):
        bad = tmp_path / "cands.jsonl"
        bad.write_text(line + "\n")
        out = tmp_path / "never.run"
        assert run(["rerank", "--target-corpus", str(workspace / "src" / "corpus.emb"),
                    "--candidates", str(bad), "--scorer", "colbert", "--post", "none",
                    "--out", str(out)]) == 3
        assert "cands.jsonl:1" in capsys.readouterr().err
        assert not out.exists()

    def test_nan_score_in_run_is_data_error(self, workspace, tmp_path, capsys):
        bad = tmp_path / "nan.run"
        bad.write_text("q1 Q0 d1 1 nan t\nq1 Q0 d2 2 5.0 t\n")
        out = tmp_path / "never.json"
        assert run(["eval", "--run", str(bad), "--qrels", str(workspace / "src" / "qrels.txt"),
                    "--out", str(out)]) == 3
        assert "nan.run:1" in capsys.readouterr().err
        assert not out.exists()

    def test_corrupt_corpus_is_data_error(self, tmp_path):
        bad = tmp_path / "bad.emb"
        bad.write_bytes(b"JUNKJUNKJUNKJUNKJUNKJUNKJUNKJUNK")
        assert run(["measure", "--corpus", str(bad), "--out", str(tmp_path / "r.json")]) == 3

    def test_zero_row_in_measured_corpus_is_data_error(self, tmp_path, capsys):
        """A zero row has no cosine: ZeroNormError, a data error naming the row."""
        matrix = np.array([[1.0, 0.5], [0.5, 1.0], [0.0, 0.0], [2.0, 1.0]])
        table = [("q0", KIND_QUERY, 0, 1), ("d0", KIND_DOCUMENT, 1, 3)]
        save_corpus(table_corpus(matrix, table), tmp_path / "c.emb")
        out = tmp_path / "never.json"
        assert run(["measure", "--corpus", str(tmp_path / "c.emb"), "--out", str(out)]) == 3
        assert "data error: row 2 has zero norm" in capsys.readouterr().err
        assert not out.exists()

    def test_zero_row_named_by_corpus_row_under_batches(self, tmp_path, capsys):
        """With --batch-size below the row count, the error names the
        corpus row, not the row inside its batch."""
        matrix = np.random.default_rng(13).normal(size=(8, 3))
        matrix[6] = 0.0
        table = [("q0", KIND_QUERY, 0, 2), ("d0", KIND_DOCUMENT, 2, 6)]
        save_corpus(table_corpus(matrix, table), tmp_path / "c.emb")
        out = tmp_path / "never.json"
        assert run(["measure", "--corpus", str(tmp_path / "c.emb"), "--batch-size", "4",
                    "--out", str(out)]) == 3
        assert "data error: row 6 has zero norm" in capsys.readouterr().err
        assert not out.exists()

    def test_non_finite_whitening_file_is_data_error(self, workspace, tmp_path):
        """A NaN in a fitted transform's mean would score every candidate NaN."""
        src = workspace / "src"
        blob = bytearray((workspace / "white.wht").read_bytes())
        blob[28:36] = np.float64(np.nan).tobytes()  # mu[0]
        bad = tmp_path / "nan.wht"
        bad.write_bytes(bytes(blob))
        out = tmp_path / "nan.run"
        assert run(["rerank", "--target-corpus", str(src / "corpus.emb"),
                    "--candidates", str(src / "candidates.jsonl"),
                    "--scorer", "colbert", "--post", "whiten",
                    "--post-path", str(bad), "--out", str(out)]) == 3
        assert not out.exists()

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
        ("fit-flow", {"source_corpus": 0}),
        ("measure", {"corpus": 0}),
        ("measure", {"csv": 5}),
        ("fit-whiten", {"source_corpus": ["corpus.emb"]}),
        ("rerank", {"post_path": 1}),
        ("fit-flow", {"hidden": [1.7, 2.9]}),
        ("fit-flow", {"hidden": [True]}),
        ("fit-flow", {"hidden": ["a"]}),
        ("fit-flow", {"hidden": [0]}),
        ("fit-flow", {"hidden": [64, -1]}),
        ("fit-flow", {"hidden": 64}),
        ("fit-flow", {"hidden": "64,0"}),
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

    @pytest.mark.parametrize("command,flags", [
        ("fit-flow", ["--epochs", "0"]),
        ("fit-flow", ["--learning-rate", "-1"]),
        ("fit-flow", ["--learning-rate", "nan"]),
        ("fit-flow", ["--learning-rate", "inf"]),
        ("fit-flow", ["--batch-size", "0"]),
        ("fit-flow", ["--arch", "nice", "--couplings", "0"]),
        ("fit-flow", ["--arch", "glow", "--levels", "0"]),
        ("fit-flow", ["--arch", "glow", "--depth", "0"]),
        ("gen", ["--dim", "0"]),
        ("gen", ["--outlier-scale", "0.5"]),
        ("scenario", ["--n-docs", "1"]),
        ("scenario", ["--n-queries", "0"]),
        ("scenario", ["--dim", "8"]),
        ("scenario", ["--scale-factor", "0"]),
        ("measure", ["--batch-size", "1"]),
        # Float settings whose range check NaN or an infinity once passed.
        ("gen", ["--offset-magnitude", "nan"]),
        ("gen", ["--offset-magnitude", "inf"]),
        ("gen", ["--outlier-scale", "nan"]),
        ("scenario", ["--offset-tilt", "nan"]),
        ("scenario", ["--offset-tilt", "-1"]),
        ("fit-whiten", ["--eps-rel", "-1"]),
        ("fit-whiten", ["--eps-rel", "0"]),
        ("fit-whiten", ["--eps-rel", "nan"]),
        ("measure", ["--outlier-factor", "nan"]),
        ("measure", ["--outlier-factor", "-1"]),
        ("measure", ["--outlier-factor", "inf"]),
    ])
    def test_setting_out_of_range_is_config_error(self, workspace, tmp_path, command, flags):
        corpus = str(workspace / "src" / "corpus.emb")
        inputs = {
            "fit-flow": ["--source-corpus", corpus, "--hidden", "4"],
            "fit-whiten": ["--source-corpus", corpus],
            "gen": [],
            "scenario": [],
            "measure": ["--corpus", corpus],
        }[command]
        out = tmp_path / "never"
        out_flag = "--out-dir" if command == "scenario" else "--out"
        assert run([command, *inputs, *flags, out_flag, str(out)]) == 2
        assert not out.exists()

    @pytest.mark.parametrize("text", ["0", "64,-1", "64,,x", "1.5", "a"])
    def test_bad_hidden_flag_is_config_error(self, workspace, tmp_path, text):
        out = tmp_path / "f.flw"
        code = run(["fit-flow", "--source-corpus", str(workspace / "src" / "corpus.emb"),
                    "--arch", "nice", "--couplings", "2", "--epochs", "1",
                    "--hidden", text, "--out", str(out)])
        assert code == 2
        assert not out.exists()

    @pytest.mark.parametrize("command,values", [
        ("gen", {"axis_scales": []}),
        ("measure", {"batch_size": "full"}),
        ("measure", {"batch_size": "16"}),
        ("measure", {"batch_size": 16, "csv": None}),
        ("fit-flow", {"hidden": [4]}),
        ("fit-flow", {"hidden": "4,4"}),
    ])
    def test_config_value_its_command_parses_is_accepted(
        self, workspace, tmp_path, command, values
    ):
        corpus = str(workspace / "src" / "corpus.emb")
        inputs = {
            "gen": {"n_queries": 2, "n_docs": 2, "dim": 4},
            "measure": {"corpus": corpus},
            "fit-flow": {"source_corpus": corpus, "arch": "nice", "couplings": 2, "epochs": 1},
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


class TestSequenceTableInCommands:
    def test_fit_on_queries_reads_rows_in_table_order(self, tmp_path):
        """The queries' rows are fitted in table order, which here is not
        row order; the digest was recorded from the per-record code."""
        matrix = PinnedRng(11).gaussians(18 * 4).reshape(18, 4) * [1.0, 3.0, 0.5, 7.0] + 2.5
        table = (
            ("q0", KIND_QUERY, 13, 5),
            ("d0", KIND_DOCUMENT, 7, 3),
            ("q1", KIND_QUERY, 3, 4),
            ("d1", KIND_DOCUMENT, 0, 3),
            ("q2", KIND_QUERY, 10, 3),
        )
        corpus = table_corpus(matrix, table)
        save_corpus(corpus, tmp_path / "c.emb")
        assert run(["fit-whiten", "--source-corpus", str(tmp_path / "c.emb"),
                    "--fit-on", "queries", "--out", str(tmp_path / "q.wht")]) == 0
        digest = hashlib.sha256((tmp_path / "q.wht").read_bytes()).hexdigest()
        assert digest == "dea90d99486acc34e4e0af7f5e9debbfa56472d71e6c75f24d6d6cca670c1b7f"
        # The order shows in the bytes: row order fits another transform.
        save_whitening(fit_whitening(matrix[[*range(3, 7), *range(10, 18)]]),
                       tmp_path / "rows.wht")
        assert (tmp_path / "rows.wht").read_bytes() != (tmp_path / "q.wht").read_bytes()


class TestRerankRunBytes:
    """The rerank run files of a small fixed scenario, pinned by digest.

    The digests were recorded from the code that ranked with a per-query
    Python sort and per-candidate objects. Paths are relative to the
    working directory, so the run tags (which hash the settings) repeat.
    """

    DIGESTS = {
        "colbert/none": "17aa57b4432c668b583963095e549c1df98013617fc6bc4874e6de3301fbea5b",
        "colbert/whiten": "b09c3a373958ec5c0c2473bf6dc33a9de36cd236d44bce00da0904ee65f0def5",
        "repbert/whiten/token_wise": "a574f62253a7ad46c90fd99509ead497a17a54d89f804c71b2c41d76a5927397",
        "repbert/whiten/sequence_wise": "96e1703f418f49cac61c03d55daa5b403ce3810576cdb517c633d41cd7fb028e",
    }

    def test_run_files_are_byte_identical(self, tmp_path, monkeypatch):
        monkeypatch.chdir(tmp_path)
        assert run(["scenario", "--out-dir", ".", "--seed", "7",
                    "--n-queries", "4", "--n-docs", "8", "--dim", "16"]) == 0
        assert run(["fit-whiten", "--source-corpus", "corpus.emb", "--out", "w.wht"]) == 0
        # Each query's own last five documents, reversed, then the next
        # query's first three: the lists overlap and none is in id order.
        with open("shared.jsonl", "w", encoding="utf-8") as fh:
            for q in range(4):
                own = [f"d{8 * q + k}" for k in range(7, 2, -1)]
                following = [f"d{8 * ((q + 1) % 4) + k}" for k in range(3)]
                fh.write(json.dumps({"qid": f"q{q}", "docs": own + following}) + "\n")
        whiten = ["--post", "whiten", "--post-path", "w.wht"]
        cases = {
            "colbert/none": ["--scorer", "colbert", "--post", "none"],
            "colbert/whiten": ["--scorer", "colbert", *whiten],
            "repbert/whiten/token_wise": ["--scorer", "repbert", *whiten],
            "repbert/whiten/sequence_wise": ["--scorer", "repbert", *whiten,
                                             "--granularity", "sequence_wise"],
        }
        digests = {}
        for name, flags in cases.items():
            assert run(["rerank", "--target-corpus", "corpus.emb", "--candidates",
                        "shared.jsonl", "--out", "r.run", *flags]) == 0
            digests[name] = hashlib.sha256((tmp_path / "r.run").read_bytes()).hexdigest()
        assert digests == self.DIGESTS

    # Recorded from the code that whitened all gathered rows in one call. At
    # seed 3, whitening the last row alone changes both token-wise files.
    BLOCK_DIGESTS = {
        "colbert/whiten": "c1db765db9424c736d4888712c470de3d732e26276c7803c2726a7bf53399495",
        "repbert/whiten/token_wise": "41c1530578acac355d5f116f51552e6846b309501d14afcbbc862a0d6f44ec1c",
        "repbert/whiten/sequence_wise": "d8b0f58901a0eb1eafcf2dbf0ab3e5d0de54cff837fb81dbff4bc5ac3298d8ee",
    }

    def test_gathered_rows_span_blocks_and_a_one_row_tail(self, tmp_path, monkeypatch):
        """29 queries x 113 candidates of 5 tokens at width 64: the 16,385
        gathered document rows are two whitening blocks plus one row."""
        monkeypatch.chdir(tmp_path)
        with open("cfg.json", "w", encoding="utf-8") as fh:
            json.dump({"tokens_per_doc": 5}, fh)
        assert run(["scenario", "--config", "cfg.json", "--out-dir", ".", "--seed", "3",
                    "--n-queries", "29", "--n-docs", "113", "--dim", "64"]) == 0
        assert 29 * 113 * 5 == 2 * scoring._block_rows(64) + 1
        assert run(["fit-whiten", "--source-corpus", "corpus.emb", "--out", "w.wht"]) == 0
        whiten = ["--post", "whiten", "--post-path", "w.wht"]
        cases = {
            "colbert/whiten": ["--scorer", "colbert", *whiten],
            "repbert/whiten/token_wise": ["--scorer", "repbert", *whiten],
            "repbert/whiten/sequence_wise": ["--scorer", "repbert", *whiten,
                                             "--granularity", "sequence_wise"],
        }
        digests = {}
        for name, flags in cases.items():
            assert run(["rerank", "--target-corpus", "corpus.emb", "--candidates",
                        "candidates.jsonl", "--out", "r.run", *flags]) == 0
            digests[name] = hashlib.sha256((tmp_path / "r.run").read_bytes()).hexdigest()
        assert digests == self.BLOCK_DIGESTS

    # Recorded from the code that cut a flow's rows into 4,096-row chunks,
    # joined their outputs and copied them back, and that whitened rows at
    # width 256 in blocks of 4,096.
    CHUNK_DIGESTS = {
        "colbert/glow/token_wise": "09c19cd12155f739c86f17654d1fbde1519db3befa84e0151f72864f12f34c39",
        "repbert/nice/sequence_wise": "59970bf784283ad55ccb920bf4715424b92bca53f5179ac3ecfc2b1e2b67315b",
        "colbert/whiten/dim256": "14f9f832fb336ff108a71bbae896295defa46a9c4485c827ba25333db34f467b",
    }

    def test_flow_chunks_and_wide_blocks(self, tmp_path, monkeypatch):
        """37 queries x 241 candidates of 2 tokens at width 16: the glow
        maps 17,834 gathered document rows (four 4,096-row chunks and a
        tail of 1,450), the NICE 8,917 pooled ones (two chunks and 725).
        At width 256, 5,335 gathered rows are whitened in 2,048-row blocks."""
        monkeypatch.chdir(tmp_path)
        with open("cfg.json", "w", encoding="utf-8") as fh:
            json.dump({"tokens_per_doc": 2}, fh)
        assert run(["scenario", "--config", "cfg.json", "--out-dir", ".", "--seed", "5",
                    "--n-queries", "37", "--n-docs", "241", "--dim", "16"]) == 0
        fit = ["fit-flow", "--source-corpus", "corpus.emb", "--epochs", "1",
               "--learning-rate", "1e-3", "--hidden", "16", "--seed", "2"]
        assert run([*fit, "--arch", "glow", "--levels", "2", "--depth", "1",
                    "--out", "g.flw"]) == 0
        assert run([*fit, "--arch", "nice", "--couplings", "2", "--out", "n.flw"]) == 0
        cases = {
            "colbert/glow/token_wise": ["--scorer", "colbert", "--post", "glow",
                                        "--post-path", "g.flw"],
            "repbert/nice/sequence_wise": ["--scorer", "repbert", "--post", "nice",
                                           "--post-path", "n.flw",
                                           "--granularity", "sequence_wise"],
        }
        digests = {}
        for name, flags in cases.items():
            assert run(["rerank", "--target-corpus", "corpus.emb", "--candidates",
                        "candidates.jsonl", "--out", "r.run", *flags]) == 0
            digests[name] = hashlib.sha256((tmp_path / "r.run").read_bytes()).hexdigest()
        with open("cfg.json", "w", encoding="utf-8") as fh:
            json.dump({"tokens_per_doc": 5}, fh)
        assert run(["scenario", "--config", "cfg.json", "--out-dir", "wide", "--seed", "5",
                    "--n-queries", "11", "--n-docs", "97", "--dim", "256"]) == 0
        assert 11 * 97 * 5 == 2 * 2048 + 1239
        assert run(["fit-whiten", "--source-corpus", "wide/corpus.emb", "--out", "w.wht"]) == 0
        assert run(["rerank", "--target-corpus", "wide/corpus.emb", "--candidates",
                    "wide/candidates.jsonl", "--out", "r.run", "--scorer", "colbert",
                    "--post", "whiten", "--post-path", "w.wht"]) == 0
        digests["colbert/whiten/dim256"] = hashlib.sha256(
            (tmp_path / "r.run").read_bytes()).hexdigest()
        assert digests == self.CHUNK_DIGESTS


class TestRerankDataErrors:
    def rerank(self, corpus, candidates, out, scorer="colbert"):
        return run(["rerank", "--target-corpus", str(corpus), "--candidates", str(candidates),
                    "--scorer", scorer, "--post", "none", "--out", str(out)])

    def test_unknown_document_id_exits_3_and_names_it(self, workspace, tmp_path, capsys):
        cands = tmp_path / "cands.jsonl"
        cands.write_text(json.dumps({"qid": "q0", "docs": ["d0", "d-unknown"]}) + "\n")
        out = tmp_path / "never.run"
        assert self.rerank(workspace / "src" / "corpus.emb", cands, out) == 3
        assert "no document with id 'd-unknown' in corpus" in capsys.readouterr().err
        assert not out.exists()

    def test_duplicate_document_id_exits_3_before_other_inputs_are_read(
        self, workspace, tmp_path, capsys, monkeypatch
    ):
        def unread(path):
            raise AssertionError(f"read {path}")

        monkeypatch.setattr(cli, "load_corpus", unread)
        monkeypatch.setattr(cli, "load_whitening", unread)
        cands = tmp_path / "cands.jsonl"
        cands.write_text(json.dumps({"qid": "q0", "docs": ["d0", "d1", "d0"]}) + "\n")
        out = tmp_path / "never.run"
        code = run(["rerank", "--target-corpus", str(workspace / "src" / "corpus.emb"),
                    "--candidates", str(cands), "--post", "whiten", "--post-path",
                    str(workspace / "white.wht"), "--out", str(out)])
        assert code == 3
        assert f"{cands}:1: query 'q0': duplicate doc id 'd0'" in capsys.readouterr().err
        assert not out.exists()

    @pytest.mark.parametrize("scorer", ["colbert", "repbert"])
    def test_zero_norm_token_exits_3_and_names_it(self, tmp_path, capsys, scorer):
        matrix = np.array([[1.0, 0.5], [0.5, 1.0], [0.0, 0.0]])
        corpus = table_corpus(matrix, [
            ("q0", KIND_QUERY, 0, 1),
            ("d0", KIND_DOCUMENT, 1, 1),
            ("d-zero", KIND_DOCUMENT, 2, 1),
        ])
        save_corpus(corpus, tmp_path / "c.emb")
        cands = tmp_path / "cands.jsonl"
        cands.write_text(json.dumps({"qid": "q0", "docs": ["d0", "d-zero"]}) + "\n")
        out = tmp_path / "never.run"
        assert self.rerank(tmp_path / "c.emb", cands, out, scorer) == 3
        err = capsys.readouterr().err
        assert "'d-zero'" in err and "zero norm" in err
        assert not out.exists()
