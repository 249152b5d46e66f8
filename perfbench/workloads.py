"""The benchmark's workloads: inputs made from the seed, one pass of CLI
commands, and the checks on what those commands wrote.

Every workload is a closed loop: one process runs one command at a time
through ``isoembed.pipeline.cli.run`` and waits for it to return. Each
workload stresses a different layer, and each is the "no change" side for
another's optimisations (see README.md for the reasoning behind each).
"""

from __future__ import annotations

import hashlib
import json
import math
import struct
from dataclasses import dataclass, field
from pathlib import Path
from typing import Callable

import numpy as np

TOKENS_PER_QUERY = 4  # scenario defaults; row counts below depend on them
TOKENS_PER_DOC = 6
PAPER_HIDDEN = "1000,1000,1000,1000,1000"
SHIFT = ("--offset-tilt", "0.1", "--scale-factor", "1.3")


def scenario_rows(n_queries: int, n_docs: int) -> int:
    return n_queries * TOKENS_PER_QUERY + n_queries * n_docs * TOKENS_PER_DOC


@dataclass(frozen=True)
class Scenario:
    """One `isoembed scenario` call: output dir name, size, seed offset."""

    name: str
    n_queries: int
    n_docs: int
    seed_offset: int = 0
    shifted: bool = False

    def argv(self, out_dir: Path, seed: int) -> list[str]:
        argv = [
            "scenario", "--out-dir", str(out_dir / self.name),
            "--seed", str(seed + self.seed_offset),
            "--n-queries", str(self.n_queries), "--n-docs", str(self.n_docs),
        ]
        return argv + list(SHIFT) if self.shifted else argv

    @property
    def rows(self) -> int:
        return scenario_rows(self.n_queries, self.n_docs)

    @property
    def judgments(self) -> int:
        return self.n_queries * self.n_docs


@dataclass
class Step:
    """One CLI command of a pass.

    ``kind`` groups steps for the throughput metrics and ``work`` is what
    the step processes in that metric's unit (rows, row-epochs, candidates
    or judgments). ``outputs`` are the files the step writes, hashed for
    the repeat-pass check.
    """

    label: str
    argv: list[str]
    kind: str
    work: int = 0
    outputs: list[Path] = field(default_factory=list)


@dataclass(frozen=True)
class Workload:
    """Why each workload exists is recorded in BENCHMARK.json and README.md."""

    name: str
    inputs: tuple[Scenario, ...]
    build_pass: Callable[[Path, Path, int], list[Step]]  # (inputs dir, pass dir, seed)
    # Seed-independent floors on NDCG@10 per eval label: the designed
    # scenario hides relevance where raw cosine cannot see it, so these
    # hold for any seed unless a change breaks the pipeline.
    ndcg_floors: dict = field(default_factory=dict)
    ndcg_ceilings: dict = field(default_factory=dict)


def _measure(corpus: Path, out: Path, rows: int, csv: bool = False) -> Step:
    argv = ["measure", "--corpus", str(corpus), "--out", str(out / "measure.json")]
    outputs = [out / "measure.json"]
    if csv:
        argv += ["--csv", str(out / "profile.csv")]
        outputs.append(out / "profile.csv")
    return Step("measure", argv, "measure", work=rows, outputs=outputs)


def _fit_whiten(corpus: Path, out: Path, rows: int) -> Step:
    path = out / "white.wht"
    return Step(
        "fit-whiten",
        ["fit-whiten", "--source-corpus", str(corpus), "--out", str(path)],
        "fit",
        work=rows,
        outputs=[path, Path(f"{path}.provenance.json")],
    )


def _fit_flow(corpus: Path, out: Path, arch: str, args: list[str], row_epochs: int, seed: int) -> Step:
    path = out / f"{arch}.flw"
    argv = ["fit-flow", "--source-corpus", str(corpus), "--arch", arch, *args,
            "--seed", str(seed), "--out", str(path)]
    outputs = [path, Path(f"{path}.provenance.json"), Path(f"{path}.train.json")]
    return Step(f"fit-flow {arch}", argv, "fit", work=row_epochs, outputs=outputs)


def _rerank(target: Path, out: Path, scorer: str, post: str, candidates: int,
            granularity: str = "token_wise") -> Step:
    name = f"{scorer}.{post}"
    argv = ["rerank", "--target-corpus", str(target / "corpus.emb"),
            "--candidates", str(target / "candidates.jsonl"),
            "--scorer", scorer, "--post", post, "--granularity", granularity,
            "--out", str(out / f"{name}.run")]
    if post == "whiten":
        argv += ["--post-path", str(out / "white.wht")]
    elif post != "none":
        argv += ["--post-path", str(out / f"{post}.flw")]
    return Step(f"rerank {name}", argv, "rerank", work=candidates, outputs=[out / f"{name}.run"])


def _eval(target: Path, out: Path, name: str, judgments: int) -> Step:
    argv = ["eval", "--run", str(out / f"{name}.run"), "--qrels", str(target / "qrels.txt"),
            "--out", str(out / f"{name}.json")]
    return Step(f"eval {name}", argv, "eval", work=judgments, outputs=[out / f"{name}.json"])


def _rerank_and_eval(target: Path, out: Path, scorer: str, post: str, candidates: int,
                     granularity: str = "token_wise") -> list[Step]:
    """A rerank followed at once by its eval. Spreading the short evals
    through the pass, rather than running them back to back, samples the
    machine's fast and slow spells more evenly."""
    return [_rerank(target, out, scorer, post, candidates, granularity),
            _eval(target, out, f"{scorer}.{post}", candidates)]


def _compare(out: Path, baseline: str, candidate: str) -> Step:
    path = out / f"compare.{baseline}.{candidate}.json"
    argv = ["compare", "--baseline", str(out / f"{baseline}.json"),
            "--candidate", str(out / f"{candidate}.json"), "--out", str(path)]
    return Step(f"compare {baseline} {candidate}", argv, "compare", outputs=[path])


# -- walkthrough: the README CLI walkthrough at its documented size ---------

WT_SRC = Scenario("src", 64, 20)
WT_TGT = Scenario("tgt", 64, 20, seed_offset=4, shifted=True)
WT_EPOCHS = 10


def walkthrough_pass(inputs: Path, out: Path, seed: int) -> list[Step]:
    steps = []
    for sc in (WT_SRC, WT_TGT):
        files = [out / sc.name / f for f in ("corpus.emb", "qrels.txt", "candidates.jsonl", "manifest.json")]
        steps.append(Step(f"scenario {sc.name}", sc.argv(out, seed), "scenario", outputs=files))
    src, tgt = out / "src" / "corpus.emb", out / "tgt"
    steps.append(_measure(src, out, WT_SRC.rows, csv=True))
    steps.append(_fit_whiten(src, out, WT_SRC.rows))
    steps.append(_fit_flow(
        src, out, "glow",
        ["--levels", "2", "--depth", "3", "--hidden", "64,64",
         "--epochs", str(WT_EPOCHS), "--batch-size", "64"],
        WT_SRC.rows * WT_EPOCHS, seed,
    ))
    for scorer in ("colbert", "repbert"):
        for post in ("none", "whiten", "glow"):
            steps += _rerank_and_eval(tgt, out, scorer, post, WT_TGT.judgments)
    steps.append(_compare(out, "colbert.none", "colbert.whiten"))
    steps.append(_compare(out, "colbert.none", "colbert.glow"))
    return steps


# -- paper-width: flows at the paper's 5x1000 hidden widths ----------------

PW_SRC = Scenario("src", 4, 20)
PW_TGT = Scenario("tgt", 2, 20, seed_offset=4, shifted=True)
# Two epochs of two batches each. The training steps then take about 60%
# of fit-flow's time; the rest is model init, the initial dataset NLL and
# saving the model.
PW_EPOCHS = 2


def paper_width_pass(inputs: Path, out: Path, seed: int) -> list[Step]:
    src, tgt = inputs / "src" / "corpus.emb", inputs / "tgt"
    common = ["--hidden", PAPER_HIDDEN, "--epochs", str(PW_EPOCHS), "--batch-size", "256"]
    row_epochs = PW_SRC.rows * PW_EPOCHS
    steps = [
        _measure(src, out, PW_SRC.rows),
        _fit_flow(src, out, "nice", ["--couplings", "4", *common], row_epochs, seed),
        _fit_flow(src, out, "glow", ["--levels", "2", "--depth", "3", *common], row_epochs, seed),
        *_rerank_and_eval(tgt, out, "colbert", "glow", PW_TGT.judgments),
        *_rerank_and_eval(tgt, out, "repbert", "nice", PW_TGT.judgments, granularity="sequence_wise"),
    ]
    return steps


# -- rerank-scale: many queries, no flows, no autodiff ---------------------

RS = Scenario("scale", 200, 100)


def rerank_scale_pass(inputs: Path, out: Path, seed: int) -> list[Step]:
    corpus_dir = inputs / RS.name
    corpus = corpus_dir / "corpus.emb"
    steps = [_measure(corpus, out, RS.rows), _fit_whiten(corpus, out, RS.rows)]
    for scorer, post in (("colbert", "none"), ("colbert", "whiten"), ("repbert", "whiten")):
        steps += _rerank_and_eval(corpus_dir, out, scorer, post, RS.judgments)
    steps.append(_compare(out, "colbert.none", "colbert.whiten"))
    return steps


# -- warm-up: the cheap commands once on a small scenario, untimed ---------

WARMUP = Scenario("warmup", 4, 20)


def warmup_pass(out: Path, seed: int) -> list[Step]:
    """Runs each cheap command once so that first-call costs (lazy
    imports, LAPACK set-up, allocator growth) fall outside the timed
    passes. The flow commands are left out: their first call is a few
    percent of a long command."""
    corpus_dir = out / WARMUP.name
    corpus = corpus_dir / "corpus.emb"
    steps = [
        Step("warm-up scenario", WARMUP.argv(out, seed), "scenario"),
        _measure(corpus, out, WARMUP.rows, csv=True),
        _fit_whiten(corpus, out, WARMUP.rows),
    ]
    for scorer in ("colbert", "repbert"):
        steps += _rerank_and_eval(corpus_dir, out, scorer, "whiten", WARMUP.judgments)
    steps.append(_compare(out, "colbert.whiten", "repbert.whiten"))
    return steps


WORKLOADS = {
    "walkthrough": Workload(
        "walkthrough",
        (WT_SRC, WT_TGT),
        walkthrough_pass,
        ndcg_floors={"colbert.whiten": 0.5, "colbert.glow": 0.5, "repbert.whiten": 0.85, "repbert.glow": 0.85},
        ndcg_ceilings={"colbert.none": 0.5, "repbert.none": 0.5},
    ),
    "paper-width": Workload(
        "paper-width",
        (PW_SRC, PW_TGT),
        paper_width_pass,
    ),
    "rerank-scale": Workload(
        "rerank-scale",
        (RS,),
        rerank_scale_pass,
        ndcg_floors={"colbert.whiten": 0.8, "repbert.whiten": 0.9},
        ndcg_ceilings={"colbert.none": 0.3},
    ),
}


# -- output checks ----------------------------------------------------------


def file_digest(path: Path) -> str:
    digest = hashlib.sha256()
    with open(path, "rb") as fh:
        for chunk in iter(lambda: fh.read(1 << 20), b""):
            digest.update(chunk)
    return digest.hexdigest()


def _read_qrels(path: Path) -> dict[str, dict[str, int]]:
    grades: dict[str, dict[str, int]] = {}
    with open(path, encoding="utf-8") as fh:
        for line in fh:
            if line.strip():
                qid, _, doc, grade = line.split()
                grades.setdefault(qid, {})[doc] = int(grade)
    return grades


def _read_run(path: Path) -> dict[str, list[str]]:
    ranked: dict[str, list[str]] = {}
    with open(path, encoding="utf-8") as fh:
        for line in fh:
            if line.strip():
                fields = line.split()
                ranked.setdefault(fields[0], []).append(fields[2])
    return ranked


def reference_ndcg10(run_path: Path, qrels_path: Path) -> float:
    """NDCG@10 with gain 2^g - 1, computed here independently of isoembed."""
    grades = _read_qrels(qrels_path)
    per_query = []
    for qid, docs in _read_run(run_path).items():
        judged = grades.get(qid, {})
        ideal = sorted(judged.values(), reverse=True)[:10]
        idcg = sum((2.0**g - 1.0) / math.log2(i + 2) for i, g in enumerate(ideal))
        if idcg == 0.0:
            continue
        dcg = sum((2.0 ** judged.get(d, 0) - 1.0) / math.log2(i + 2) for i, d in enumerate(docs[:10]))
        per_query.append(dcg / idcg)
    return sum(per_query) / len(per_query) if per_query else 0.0


def _read_emb1(path: Path) -> tuple[np.ndarray, dict[tuple[int, str], slice]]:
    """Token matrix and (kind code, sequence id) -> rows, read from the
    EMB1 layout in the project README without using isoembed."""
    data = Path(path).read_bytes()
    _, _, dim, n_rows, n_seq = struct.unpack_from("<4sIIQQ", data, 0)
    offset = 28 + 8 * dim * n_rows
    matrix = np.frombuffer(data, dtype="<f8", count=dim * n_rows, offset=28).reshape(n_rows, dim)
    rows = {}
    for _ in range(n_seq):
        (id_len,) = struct.unpack_from("<H", data, offset)
        seq_id = data[offset + 2 : offset + 2 + id_len].decode("utf-8")
        kind, row, count = struct.unpack_from("<BQI", data, offset + 2 + id_len)
        rows[(kind, seq_id)] = slice(row, row + count)
        offset += 2 + id_len + 13
    return matrix, rows


REFERENCE_RTOL = 1e-6  # relative tolerance against reference.json
RAW_SCORE_QUERIES = 5  # queries whose raw scores are recomputed per rerank


def raw_score_problems(step: Step) -> list[str]:
    """Recompute untransformed colbert (sum of per-query-token max cosine)
    and repbert (cosine of token means) scores for the first queries of a
    ``--post none`` rerank, and compare them with the run file's scores."""
    matrix, rows = _read_emb1(_arg(step.argv, "--target-corpus"))
    scorer = _arg(step.argv, "--scorer")
    problems = []
    with open(step.outputs[0], encoding="utf-8") as fh:
        scored = [line.split() for line in fh if line.strip()]
    for qid in sorted({f[0] for f in scored})[:RAW_SCORE_QUERIES]:
        q = matrix[rows[(0, qid)]]
        for fields in (f for f in scored if f[0] == qid):
            d = matrix[rows[(1, fields[2])]]
            if scorer == "colbert":
                qn = q / np.linalg.norm(q, axis=1, keepdims=True)
                dn = d / np.linalg.norm(d, axis=1, keepdims=True)
                expected = float((qn @ dn.T).max(axis=1).sum())
            else:
                qm, dm = q.mean(axis=0), d.mean(axis=0)
                expected = float(qm @ dm / (np.linalg.norm(qm) * np.linalg.norm(dm)))
            if abs(float(fields[4]) - expected) > 1e-9 * max(1.0, abs(expected)):
                problems.append(f"{qid}/{fields[2]} score {fields[4]} != recomputed {expected!r}")
    return problems[:3]


def quality_of(step: Step) -> dict[str, float]:
    """Result values a step reported: NDCG@10, isotropy, final NLL."""
    if step.kind == "eval":
        report = json.loads(step.outputs[0].read_text(encoding="utf-8"))
        return {f"ndcg10.{step.label.split()[1]}": report["ndcg_at_10"]}
    if step.kind == "measure":
        report = json.loads(step.outputs[0].read_text(encoding="utf-8"))
        return {"measure.i_w": report["i_w"], "measure.avg_cos": report["avg_cos"]}
    if step.label.startswith("fit-flow"):
        report = json.loads(step.outputs[2].read_text(encoding="utf-8"))
        return {f"nll_final.{step.label.split()[1]}": report["epoch_nll"][-1]}
    return {}


def _arg(argv: list[str], flag: str) -> str:
    return argv[argv.index(flag) + 1]


def check_step(workload: Workload, step: Step, reference: dict | None) -> list[str]:
    """Problems with one finished step's outputs (empty when all is well)."""
    problems = [f"missing output {p.name}" for p in step.outputs if not p.exists()]
    if problems:
        return problems
    quality = quality_of(step)
    if step.kind == "rerank":
        expected = {}
        with open(_arg(step.argv, "--candidates"), encoding="utf-8") as fh:
            for line in fh:
                record = json.loads(line)
                expected[record["qid"]] = sorted(record["docs"])
        ranked = {qid: sorted(docs) for qid, docs in _read_run(step.outputs[0]).items()}
        if ranked != expected:
            problems.append("run does not rank exactly each query's candidates")
        elif _arg(step.argv, "--post") == "none":
            problems += raw_score_problems(step)
    if step.kind == "eval":
        name = step.label.split()[1]
        reported = quality[f"ndcg10.{name}"]
        recomputed = reference_ndcg10(_arg(step.argv, "--run"), _arg(step.argv, "--qrels"))
        if abs(reported - recomputed) > 1e-9:
            problems.append(f"ndcg10 {reported!r} != independent {recomputed!r}")
        if name in workload.ndcg_floors and reported < workload.ndcg_floors[name]:
            problems.append(f"ndcg10.{name} {reported:.4f} below floor {workload.ndcg_floors[name]}")
        if name in workload.ndcg_ceilings and reported > workload.ndcg_ceilings[name]:
            problems.append(f"ndcg10.{name} {reported:.4f} above ceiling {workload.ndcg_ceilings[name]}")
    for key, value in quality.items():
        if not math.isfinite(value):
            problems.append(f"{key} is not finite")
        if reference is not None:
            expected = reference.get(key)
            # relative: the measure.i_w references are near 1e-43
            if expected is None or abs(value - expected) > REFERENCE_RTOL * abs(expected):
                problems.append(f"{key} {value!r} != reference {expected!r}")
    return problems
