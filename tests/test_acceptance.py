"""Acceptance suite: one test per release criterion, each printing a
pass/fail line with its measured values (run with -s to see them inline).

Criteria cover: whitening isotropy and exactness on the canonical
anisotropic corpus, flow invertibility / log-determinants / gradients,
flow training gains, ranking-metric and scoring oracles, isotropy metric
anchors, the designed re-ranking scenario in-distribution and under a
source/target shift, the significance-test anchor, and byte-level
determinism of the command-line pipeline.
"""

import hashlib
import json
import math
import time

import numpy as np
import pytest

import isoembed as ie
from isoembed.evaluation import RankingRun, evaluate, ndcg_at_k, precision_at_k
from isoembed.flows import (
    FlowTrainConfig,
    GlowSpec,
    NiceSpec,
    apply_flow,
    build_model,
    flow_forward,
    flow_inverse,
    load_flow,
    model_checksum,
    nll,
    nll_gradient,
    save_flow,
    train_flow,
)
from isoembed.pipeline import build_designed_scenario, run
from isoembed.scoring import IDENTITY, PostProcessor, TOKEN_WISE, rank_candidates


def report(criterion: str, detail: str) -> None:
    print(f"PASS {criterion}: {detail}")


def rerank_all(corpus, qrels, candidates, post, scorer="colbert"):
    ranked = rank_candidates(corpus, candidates, scorer=scorer, post=post)
    return evaluate(RankingRun(ranked, tag="acceptance"), qrels)


# -------------------------------------------------------------------------
# 1-2: whitening on the canonical anisotropic corpus
# -------------------------------------------------------------------------


class TestCriterion1WhiteningIsotropy:
    def test_whitening_restores_isotropy(self, aniso_matrix):
        start = time.perf_counter()
        raw_cos = ie.avg_pairwise_cosine(aniso_matrix)
        raw_ratio = ie.partition_ratio(aniso_matrix)
        transform = ie.fit_whitening(aniso_matrix)
        whitened = ie.apply_whitening(transform, aniso_matrix)
        white_cos = ie.avg_pairwise_cosine(whitened)
        white_ratio = ie.partition_ratio(whitened)
        elapsed = time.perf_counter() - start
        assert raw_cos >= 0.2
        assert raw_ratio <= 0.7
        assert abs(white_cos) <= 0.02
        assert white_ratio >= 0.95
        assert elapsed <= 10.0
        report(
            "criterion 1 (whitening isotropy)",
            f"avgcos {raw_cos:.4f}->{white_cos:.5f}, "
            f"partition ratio {raw_ratio:.3g}->{white_ratio:.4f}, {elapsed:.2f}s",
        )


class TestCriterion2WhiteningExactness:
    def test_fitting_data_maps_to_standard_moments(self, aniso_matrix):
        start = time.perf_counter()
        transform = ie.fit_whitening(aniso_matrix)
        z = ie.apply_whitening(transform, aniso_matrix)
        mean_err = np.abs(z.mean(axis=0)).max()
        centered = z - z.mean(axis=0)
        cov = centered.T @ centered / (len(z) - 1)
        keep = transform.eigenvalues > transform.eps_rel * transform.eigenvalues[-1]
        cov_err = np.abs(cov[np.ix_(keep, keep)] - np.eye(int(keep.sum()))).max()
        elapsed = time.perf_counter() - start
        assert mean_err <= 1e-10
        assert cov_err <= 1e-8
        assert elapsed <= 5.0
        report(
            "criterion 2 (whitening exactness)",
            f"|mean| {mean_err:.2e} <= 1e-10, |cov - I| {cov_err:.2e} <= 1e-8, "
            f"{elapsed:.2f}s",
        )


# -------------------------------------------------------------------------
# 3: flow correctness
# -------------------------------------------------------------------------


def perturb(model, seed: int, scale: float):
    rng = np.random.default_rng(seed)
    for p in model.parameters():
        p.data += rng.normal(0.0, scale, p.data.shape)
    return model


@pytest.mark.parametrize(
    "spec", [NiceSpec(couplings=2, hidden=(8,)), GlowSpec(levels=2, depth=1, hidden=(8,))],
    ids=["nice", "glow"],
)
def test_perturb_moves_the_slab(spec, tmp_path):
    """``perturb`` writes the parameters in their slab: the checksum moves
    with them, and an FLW1 round trip transforms as the perturbed model."""
    model = perturb(build_model(6, spec, seed=5), 6, 0.3)
    assert model_checksum(model) != model_checksum(build_model(6, spec, seed=5))
    save_flow(model, tmp_path / "model.flw")
    loaded = load_flow(tmp_path / "model.flw")
    x = np.random.default_rng(7).normal(size=(5, 6))
    for a, b in zip(flow_forward(model, x), flow_forward(loaded, x)):
        assert a.tobytes() == b.tobytes()


class TestCriterion3FlowCorrectness:
    def test_roundtrip_logdet_and_gradients(self):
        start = time.perf_counter()

        # (a) inverse round trips on 1024 vectors with |x|_inf <= 10
        x = np.random.default_rng(100).uniform(-10, 10, size=(1024, 10))
        nice = perturb(build_model(10, NiceSpec(couplings=4, hidden=(16, 16)), seed=1), 2, 0.3)
        z, _ = flow_forward(nice, x)
        nice_err = np.abs(flow_inverse(nice, z) - x).max()
        assert nice_err <= 1e-9
        glow = perturb(build_model(10, GlowSpec(levels=2, depth=2, hidden=(16,)), seed=3), 4, 0.05)
        z, _ = flow_forward(glow, x)
        glow_err = np.abs(flow_inverse(glow, z) - x).max()
        assert glow_err <= 1e-6

        # (b) analytic log-determinant vs central-difference Jacobian, D=6,
        # 20 random parameterizations
        rng = np.random.default_rng(101)
        worst_logdet = 0.0
        for trial in range(20):
            if trial % 2 == 0:
                model = perturb(
                    build_model(6, NiceSpec(couplings=2, hidden=(8, 8)), seed=trial), 50 + trial, 0.3
                )
            else:
                model = perturb(
                    build_model(6, GlowSpec(levels=2, depth=2, hidden=(8,)), seed=trial), 50 + trial, 0.1
                )
            x0 = rng.normal(size=6)
            _, logdet = flow_forward(model, x0[None, :])
            jac = np.zeros((6, 6))
            for j in range(6):
                step = np.zeros(6)
                step[j] = 1e-5
                plus, _ = flow_forward(model, (x0 + step)[None, :])
                minus, _ = flow_forward(model, (x0 - step)[None, :])
                jac[:, j] = (plus[0] - minus[0]) / 2e-5
            _, numeric = np.linalg.slogdet(jac)
            rel = abs(logdet[0] - numeric) / max(abs(numeric), 1e-8)
            worst_logdet = max(worst_logdet, rel)
            assert rel <= 1e-4

        # (c) every parameter gradient vs central finite differences
        worst_grad = 0.0
        for spec, pscale in (
            (NiceSpec(couplings=2, hidden=(8, 8)), 0.2),
            (GlowSpec(levels=2, depth=2, hidden=(8,)), 0.1),
        ):
            model = perturb(build_model(6, spec, seed=7), 8, pscale)
            batch = np.random.default_rng(102).normal(size=(4, 6))
            analytic = nll_gradient(model, batch)
            for p, grad in zip(model.parameters(), analytic):
                flat = p.data.ravel()
                for k in range(flat.size):
                    keep = flat[k]
                    flat[k] = keep + 1e-5
                    up = nll(model, batch)
                    flat[k] = keep - 1e-5
                    down = nll(model, batch)
                    flat[k] = keep
                    fd = (up - down) / 2e-5
                    got = grad.ravel()[k]
                    diff = abs(got - fd)
                    if diff > 1e-8:
                        rel = diff / max(abs(got), abs(fd))
                        worst_grad = max(worst_grad, rel)
                        assert rel <= 1e-4

        elapsed = time.perf_counter() - start
        assert elapsed <= 120.0
        report(
            "criterion 3 (flow correctness)",
            f"roundtrip nice {nice_err:.2e} glow {glow_err:.2e}, "
            f"logdet rel <= {worst_logdet:.2e}, grad rel <= {worst_grad:.2e}, "
            f"{elapsed:.1f}s",
        )


# -------------------------------------------------------------------------
# 4: flow training
# -------------------------------------------------------------------------


class TestCriterion4FlowTraining:
    @pytest.mark.parametrize(
        "label, spec, cfg",
        [
            (
                "nice",
                NiceSpec(couplings=4, hidden=(64, 64)),
                FlowTrainConfig(epochs=40, learning_rate=1e-4, batch_size=64, seed=7),
            ),
            (
                "glow",
                GlowSpec(levels=2, depth=3, hidden=(64, 64)),
                FlowTrainConfig(epochs=10, learning_rate=1e-4, batch_size=64, seed=7),
            ),
        ],
    )
    def test_training_reduces_nll_and_cosine(self, aniso_matrix, label, spec, cfg):
        start = time.perf_counter()
        raw_cos = ie.avg_pairwise_cosine(aniso_matrix)
        model, train_report = train_flow(aniso_matrix, spec, cfg)
        final_nll = train_report.epoch_nll[-1]
        flowed = apply_flow(model, aniso_matrix)
        flow_cos = ie.avg_pairwise_cosine(flowed)
        reduction = 1.0 - abs(flow_cos) / abs(raw_cos)
        elapsed = time.perf_counter() - start
        assert train_report.steps >= 200
        assert final_nll <= 0.9 * train_report.initial_nll
        assert reduction >= 0.5
        assert elapsed <= 300.0
        report(
            f"criterion 4 ({label} training)",
            f"{train_report.steps} steps at lr 1e-4, nll {train_report.initial_nll:.1f}"
            f"->{final_nll:.1f} (<= 0.9x), |avgcos| {abs(raw_cos):.4f}->{abs(flow_cos):.4f} "
            f"(-{100 * reduction:.0f}%), {elapsed:.1f}s",
        )


# -------------------------------------------------------------------------
# 5: ranking-metric oracles
# -------------------------------------------------------------------------


def brute_precision(ranked_ids, grades, k, threshold=1):
    return sum(1 for d in ranked_ids[:k] if grades.get(d, 0) >= threshold) / k


def brute_ndcg(ranked_ids, grades, k):
    dcg = 0.0
    for pos, doc in enumerate(ranked_ids[:k], start=1):
        dcg += (2 ** grades.get(doc, 0) - 1) / math.log2(pos + 1)
    idcg = 0.0
    for pos, g in enumerate(sorted(grades.values(), reverse=True)[:k], start=1):
        idcg += (2**g - 1) / math.log2(pos + 1)
    return None if idcg == 0 else dcg / idcg


class TestCriterion5MetricOracles:
    def test_fifty_instances_and_hand_anchor(self):
        rng = np.random.default_rng(500)
        checked = 0
        for _ in range(50):
            rankings, grades = {}, {}
            for qi in range(int(rng.integers(1, 5))):
                qid = f"q{qi}"
                n_docs = int(rng.integers(1, 31))
                ids = [f"d{qi}_{j}" for j in range(n_docs)]
                scores = np.sort(rng.normal(size=n_docs))[::-1]
                rankings[qid] = list(zip(ids, scores.tolist()))
                for doc in ids:
                    if rng.random() < 0.7:
                        grades[(qid, doc)] = int(rng.integers(0, 4))
            qrels = ie.Qrels(grades)
            run_obj = RankingRun(rankings, tag="oracle")
            per_p = precision_at_k(run_obj, qrels, k=20)
            per_n = ndcg_at_k(run_obj, qrels, k=10)
            for qid, ranked in rankings.items():
                doc_grades = {d: g for (q, d), g in grades.items() if q == qid}
                ids = [d for d, _ in ranked]
                expected = brute_ndcg(ids, doc_grades, 10)
                if expected is None:
                    assert qid not in per_n
                    continue
                assert per_n[qid] == pytest.approx(expected, abs=1e-12)
                if any(g >= 1 for g in doc_grades.values()):
                    assert per_p[qid] == pytest.approx(
                        brute_precision(ids, doc_grades, 20), abs=1e-12
                    )
                checked += 1
        anchor_run = RankingRun({"q": [("a", 3.0), ("b", 2.0), ("c", 1.0)]})
        anchor_qrels = ie.Qrels({("q", "a"): 1, ("q", "b"): 0, ("q", "c"): 2})
        anchor = ndcg_at_k(anchor_run, anchor_qrels)["q"]
        assert anchor == pytest.approx(0.68853, abs=1e-5)
        report(
            "criterion 5 (metric oracles)",
            f"{checked} query evaluations match brute force to 1e-12, "
            f"hand anchor {anchor:.5f} ~ 0.68853",
        )


# -------------------------------------------------------------------------
# 6: scoring oracles
# -------------------------------------------------------------------------


class TestCriterion6ScoringOracles:
    def test_oracles_and_anchors(self):
        rng = np.random.default_rng(600)
        for _ in range(100):
            q = rng.normal(size=(int(rng.integers(1, 6)), 5))
            d = rng.normal(size=(int(rng.integers(1, 7)), 5))
            enum = sum(
                max(
                    float(qt @ dt / (np.linalg.norm(qt) * np.linalg.norm(dt)))
                    for dt in d
                )
                for qt in q
            )
            assert ie.colbert_score(q, d) == pytest.approx(enum, abs=1e-12)
            qm, dm = q.mean(axis=0), d.mean(axis=0)
            pooled = float(qm @ dm / (np.linalg.norm(qm) * np.linalg.norm(dm)))
            assert ie.repbert_score(q, d) == pytest.approx(pooled, abs=1e-12)
        anchor = ie.colbert_score([[1.0, 0.0], [0.0, 1.0]], [[1.0, 1.0]])
        assert anchor == pytest.approx(1.414214, abs=1e-6)
        assert ie.repbert_score([[1.0, 0.0], [0.0, 1.0]], [[1.0, 1.0]]) == pytest.approx(
            1.0, abs=1e-6
        )
        assert ie.repbert_score([[1.0, 0.0]], [[0.0, 1.0]]) == pytest.approx(0.0, abs=1e-6)
        report(
            "criterion 6 (scoring oracles)",
            f"100 random pairs match enumeration/pooling to 1e-12, "
            f"anchors ({anchor:.6f}, 1.0, 0.0)",
        )


# -------------------------------------------------------------------------
# 7: isotropy metric anchors
# -------------------------------------------------------------------------


class TestCriterion7IsotropyAnchors:
    def test_anchors(self):
        cross = ie.partition_ratio([[1.0, 0.0], [-1.0, 0.0], [0.0, 1.0], [0.0, -1.0]])
        assert cross == pytest.approx(1.0, abs=1e-9)
        single = ie.partition_ratio([[1.0, 0.0]])
        assert single == pytest.approx(math.exp(-2.0), abs=1e-6)
        three = ie.avg_pairwise_cosine([[1.0, 0.0], [0.0, 1.0], [-1.0, 0.0]])
        assert three == -1.0 / 3.0
        report(
            "criterion 7 (isotropy anchors)",
            f"cross {cross:.9f}, single row {single:.6f} ~ e^-2, "
            f"three-row avgcos {three} == -1/3",
        )


# -------------------------------------------------------------------------
# 8-9: designed-scenario re-ranking, in-distribution and shifted
# -------------------------------------------------------------------------


class TestCriterion8DesignedScenario:
    def test_whitening_and_glow_beat_raw(self):
        start = time.perf_counter()
        corpus, qrels, candidates = build_designed_scenario(
            seed=7, n_queries=64, n_docs=20, dim=64
        )
        raw = rerank_all(corpus, qrels, candidates, IDENTITY)
        transform = ie.fit_whitening(corpus.matrix)
        white = rerank_all(corpus, qrels, candidates, PostProcessor(transform, TOKEN_WISE))
        assert white.ndcg_at_10 >= 1.2 * raw.ndcg_at_10
        model, _ = train_flow(
            corpus.matrix,
            GlowSpec(levels=2, depth=3, hidden=(32, 32)),
            FlowTrainConfig(epochs=2, learning_rate=1e-4, batch_size=64, seed=7),
        )
        glow = rerank_all(corpus, qrels, candidates, PostProcessor(model, TOKEN_WISE))
        assert glow.ndcg_at_10 > raw.ndcg_at_10
        elapsed = time.perf_counter() - start
        assert elapsed <= 300.0
        report(
            "criterion 8 (designed scenario)",
            f"ndcg@10 raw {raw.ndcg_at_10:.4f}, whitened {white.ndcg_at_10:.4f} "
            f"(x{white.ndcg_at_10 / raw.ndcg_at_10:.2f} >= 1.2), "
            f"glow {glow.ndcg_at_10:.4f} > raw, {elapsed:.1f}s",
        )


class TestCriterion9SourceTargetShift:
    def test_whitening_transfers_and_fit_never_saw_target(self, tmp_path):
        start = time.perf_counter()
        src_dir, tgt_dir = tmp_path / "src", tmp_path / "tgt"
        assert run(["scenario", "--out-dir", str(src_dir), "--seed", "7"]) == 0
        assert run(["scenario", "--out-dir", str(tgt_dir), "--seed", "11",
                    "--offset-tilt", "0.1", "--scale-factor", "1.3"]) == 0
        wht = tmp_path / "source.wht"
        assert run(["fit-whiten", "--source-corpus", str(src_dir / "corpus.emb"),
                    "--out", str(wht)]) == 0

        # provenance: the transform records the source bytes, not the target's
        prov = json.loads((tmp_path / "source.wht.provenance.json").read_text())
        src_hash = hashlib.sha256((src_dir / "corpus.emb").read_bytes()).hexdigest()
        tgt_hash = hashlib.sha256((tgt_dir / "corpus.emb").read_bytes()).hexdigest()
        assert prov["source_sha256"] == src_hash
        assert prov["source_sha256"] != tgt_hash

        for post, extra in (("none", []), ("whiten", ["--post-path", str(wht)])):
            assert run(["rerank", "--target-corpus", str(tgt_dir / "corpus.emb"),
                        "--candidates", str(tgt_dir / "candidates.jsonl"),
                        "--scorer", "colbert", "--post", post,
                        "--out", str(tmp_path / f"{post}.run"), *extra]) == 0
            assert run(["eval", "--run", str(tmp_path / f"{post}.run"),
                        "--qrels", str(tgt_dir / "qrels.txt"),
                        "--out", str(tmp_path / f"{post}.json")]) == 0
        raw = json.loads((tmp_path / "none.json").read_text())["ndcg_at_10"]
        white = json.loads((tmp_path / "whiten.json").read_text())["ndcg_at_10"]
        elapsed = time.perf_counter() - start
        assert white >= 1.1 * raw
        assert elapsed <= 300.0
        report(
            "criterion 9 (source/target shift)",
            f"target ndcg@10 raw {raw:.4f}, source-whitened {white:.4f} "
            f"(x{white / raw:.2f} >= 1.1), provenance hash matches source only, "
            f"{elapsed:.1f}s",
        )


# -------------------------------------------------------------------------
# 10: significance-test anchor
# -------------------------------------------------------------------------


def student_tail_quadrature(t: float, df: int, points: int = 2_000_001) -> float:
    theta = np.linspace(math.atan(t / math.sqrt(df)), math.pi / 2.0, points)
    const = math.exp(math.lgamma((df + 1) / 2) - math.lgamma(df / 2)) / math.sqrt(
        df * math.pi
    )
    return const * math.sqrt(df) * np.trapezoid(np.cos(theta) ** (df - 1), theta)


class TestCriterion10TTestAnchor:
    def test_hand_samples(self):
        t, p = ie.ttest_one_tailed([2.0, 3.0, 4.0], [1.0, 2.0, 3.0])
        assert t == pytest.approx(1.224745, abs=1e-6)
        oracle = student_tail_quadrature(t, df=4)
        assert p == pytest.approx(oracle, abs=1e-3)
        assert p == pytest.approx(0.1438, abs=1e-3)
        report(
            "criterion 10 (t-test anchor)",
            f"t {t:.6f} ~ 1.224745, p {p:.6f} vs quadrature {oracle:.6f}",
        )


# -------------------------------------------------------------------------
# 11: determinism of the pipeline
# -------------------------------------------------------------------------


class TestCriterion11Determinism:
    def test_repeat_runs_are_byte_identical(self, tmp_path):
        # generation and fitting rerun into separate directories
        scen_dirs = [tmp_path / "scen1", tmp_path / "scen2"]
        for scen in scen_dirs:
            assert run(["scenario", "--out-dir", str(scen), "--seed", "13",
                        "--n-queries", "8", "--n-docs", "6", "--dim", "16"]) == 0
        transforms = []
        for i, scen in enumerate(scen_dirs):
            wht = tmp_path / f"w{i}.wht"
            assert run(["fit-whiten", "--source-corpus", str(scen / "corpus.emb"),
                        "--out", str(wht)]) == 0
            transforms.append(wht.read_bytes())

        # rerank and eval rerun with identical config (same inputs, same
        # seed); only the output location differs, which is not part of
        # the experiment identity
        runs, reports = [], []
        for trial in ("one", "two"):
            run_path = tmp_path / f"{trial}.run"
            assert run(["rerank", "--target-corpus", str(scen_dirs[0] / "corpus.emb"),
                        "--candidates", str(scen_dirs[0] / "candidates.jsonl"),
                        "--scorer", "colbert", "--post", "whiten",
                        "--post-path", str(tmp_path / "w0.wht"), "--seed", "13",
                        "--out", str(run_path)]) == 0
            runs.append(run_path.read_bytes())
        for trial in ("one", "two"):
            report_path = tmp_path / f"{trial}.json"
            assert run(["eval", "--run", str(tmp_path / "one.run"),
                        "--qrels", str(scen_dirs[0] / "qrels.txt"),
                        "--out", str(report_path)]) == 0
            reports.append(report_path.read_bytes())

        mismatched = []
        for name in ("corpus.emb", "qrels.txt", "candidates.jsonl", "manifest.json"):
            if (scen_dirs[0] / name).read_bytes() != (scen_dirs[1] / name).read_bytes():
                mismatched.append(name)
        if transforms[0] != transforms[1]:
            mismatched.append("whitening transform")
        if runs[0] != runs[1]:
            mismatched.append("run file")
        if reports[0] != reports[1]:
            mismatched.append("eval report")
        assert not mismatched
        report(
            "criterion 11 (determinism)",
            "scenario artifacts, transform, run file, and report all "
            "byte-identical across repeat runs",
        )
