"""isoembed benchmark: end-to-end and per-layer metrics of the CLI pipeline.

    python3 perfbench/run.py --workload walkthrough --seed 7 --seconds 30 --trace 0

Run from the root of a source checkout; the program is imported from its
``src/``. Set-up makes the workload's inputs from ``--seed`` (three times,
reporting the median) and warms up the cheap commands; then passes of the
workload's command sequence run
in this process through ``isoembed.pipeline.cli.run`` until ``--seconds``
are used (at least two passes). ``--trace 0`` reports the end-to-end
metrics. ``--trace 1`` alternates untraced and traced passes, reports the
per-layer metrics from the traced ones plus the tracing overhead, and
times each flow layer type at test and paper widths. ``--workload all``
runs every workload in turn, each in a child process.

The last line of standard output is one JSON object with the keys
``correct``, ``attempted``, ``failed`` and ``metrics``. A command that
exits non-zero, or whose outputs fail a check, counts as failed. The full
result, with provenance and per-command samples, is written under
``perfbench/.work/results/``; traced runs also write their spans there.
"""

from __future__ import annotations

import argparse
import contextlib
import gc
import hashlib
import io
import json
import os
import platform
import resource
import shutil
import statistics
import subprocess
import sys
import time
import traceback
from pathlib import Path

BENCH_DIR = Path(__file__).resolve().parent
ROOT = BENCH_DIR.parent
SRC = ROOT / "src"
WORK = BENCH_DIR / ".work"
MIN_PASSES = 2
SETUP_REPEATS = 3
# One BLAS thread: on a 2-CPU machine shared with other tenants, a second
# thread waits on whatever runs on the other CPU, which makes small BLAS
# calls several times slower and far less steady.
BLAS_THREADS = "1"
for _var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
    os.environ[_var] = BLAS_THREADS

# end-to-end throughput metric -> step kind it divides work by time for
THROUGHPUT_KINDS = {
    "fit_rows_per_s": "fit",
    "rerank_candidates_per_s": "rerank",
    "eval_judgments_per_s": "eval",
    "measure_rows_per_s": "measure",
}
COMMANDS = ("scenario", "measure", "fit-whiten", "fit-flow", "rerank", "eval", "compare")
LAYERS = ("store", "scenario", "isotropy", "whitening", "autodiff", "flows", "scoring", "evaluation")


def _fail(message: str) -> None:
    print(f"perfbench: {message}", file=sys.stderr)
    sys.exit(2)


def _import_program():
    if not (SRC / "isoembed" / "__init__.py").is_file():
        _fail(f"no isoembed sources under {SRC}; run from a source checkout")
    sys.path.insert(0, str(SRC))
    import isoembed
    from isoembed.pipeline import cli

    if Path(isoembed.__file__).resolve().parent != SRC / "isoembed":
        _fail(f"imported isoembed from {isoembed.__file__}, not from {SRC}")
    return cli


def tail_percentile(samples: list[float]):
    """(p, value) for the highest of p90/p99/p99.9 with >= 10 samples
    beyond it, or None when there are too few samples."""
    n, ordered = len(samples), sorted(samples)
    best = None
    for p in (0.9, 0.99, 0.999):
        if n * (1 - p) >= 10:
            best = (p, ordered[min(n - 1, int(p * n))])
    return best


# -- provenance -------------------------------------------------------------


def _git_sha() -> str:
    head = ROOT / ".git" / "HEAD"
    try:
        ref = head.read_text().strip()
        if not ref.startswith("ref: "):
            return ref
        name = ref[5:]
        loose = ROOT / ".git" / name
        if loose.is_file():
            return loose.read_text().strip()
        for line in (ROOT / ".git" / "packed-refs").read_text().splitlines():
            if line.endswith(" " + name):
                return line.split()[0]
    except OSError:
        pass
    return "unknown (not a git checkout)"


def _source_digest() -> str:
    """SHA-256 over every source file, for checkouts without git metadata."""
    digest = hashlib.sha256()
    for path in sorted(SRC.rglob("*.py")):
        digest.update(str(path.relative_to(SRC)).encode() + b"\0" + path.read_bytes())
    return digest.hexdigest()


def provenance(workload: str, seed: int) -> dict:
    import numpy as np

    blas = np.show_config(mode="dicts").get("Build Dependencies", {}).get("blas", {})
    return {
        "git_sha": _git_sha(),
        "src_sha256": _source_digest(),
        "nproc": os.cpu_count(),
        "cpus_usable": len(os.sched_getaffinity(0)),
        "python": platform.python_version(),
        "numpy": np.__version__,
        "blas": f"{blas.get('name', '?')} {blas.get('version', '?')}",
        "blas_threads": int(BLAS_THREADS),
        "machine": platform.machine(),
        "workload": workload,
        "seed": seed,
    }


# -- one pass ---------------------------------------------------------------


def run_step(cli, step, tracer):
    """Run one CLI command; returns (exit code, wall seconds, captured text).

    Garbage left by the previous command is collected first, outside the
    timed region, so a command's time does not depend on what ran before.
    """
    out = io.StringIO()
    call = cli.run if tracer is None else tracer.span(f"cli.{step.argv[0]}", cli.run)
    gc.collect()
    start = time.perf_counter()
    try:
        with contextlib.redirect_stdout(out), contextlib.redirect_stderr(out):
            code = call(step.argv)
    except Exception:  # a crash inside the program is a failed operation
        code = -1
        out.write(traceback.format_exc())
    return code, time.perf_counter() - start, out.getvalue()


def run_pass(cli, workload, inputs: Path, seed: int, tracer, first_digests: dict, input_digests: dict, reference):
    from workloads import check_step, file_digest, quality_of

    pass_dir = WORK / workload.name / "pass"
    shutil.rmtree(pass_dir, ignore_errors=True)
    pass_dir.mkdir(parents=True)
    steps = workload.build_pass(inputs, pass_dir, seed)
    if tracer is not None:
        tracer.install()
    try:
        results = [run_step(cli, step, tracer) for step in steps]
    finally:
        if tracer is not None:
            tracer.uninstall()

    records, quality = [], {}
    for step, (code, seconds, text) in zip(steps, results):
        problems = [] if code == 0 else [f"exit code {code}: {text.strip()[-300:]}"]
        if code == 0:
            problems += check_step(workload, step, reference)
        if not problems:
            quality.update(quality_of(step))
            for path in step.outputs:
                key = str(path.relative_to(pass_dir))
                digest = file_digest(path)
                if first_digests.setdefault(key, digest) != digest:
                    problems.append(f"{key} differs from the first pass")
                if step.kind == "scenario" and input_digests.get(key, digest) != digest:
                    problems.append(f"{key} differs from the set-up inputs")
        records.append({"label": step.label, "kind": step.kind, "command": step.argv[0],
                        "work": step.work, "seconds": seconds, "problems": problems})
    shutil.rmtree(pass_dir, ignore_errors=True)
    return records, quality


def pass_metrics(records: list[dict]) -> dict[str, float]:
    metrics = {"pipeline_s": sum(r["seconds"] for r in records)}
    for name, kind in THROUGHPUT_KINDS.items():
        steps = [r for r in records if r["kind"] == kind]
        seconds = sum(r["seconds"] for r in steps)
        metrics[name] = sum(r["work"] for r in steps) / seconds if seconds else 0.0
    return metrics


# -- per-layer metrics from one traced pass ---------------------------------


def _command_of(spans: list[tuple]) -> dict[int, str]:
    """Span id -> name of its top-level span (the ``cli.<command>`` it ran under).

    A parent's id is lower than its children's, so one pass in id order
    sees every parent first."""
    root = {}
    for s in sorted(spans):
        root[s[0]] = root[s[4]] if s[4] in root else s[1]
    return root


def layer_metrics(spans: list[tuple], counts: dict, pipeline_s: float) -> dict[str, float]:
    from tracing import self_times

    own = self_times(spans)
    total = {}
    calls = {}
    attrs = {}
    for s in spans:
        total[s[1]] = total.get(s[1], 0.0) + (s[3] - s[2])
        calls[s[1]] = calls.get(s[1], 0) + 1
        for key, value in (s[5] or {}).items():
            attrs[(s[1], key)] = attrs.get((s[1], key), 0) + value

    def t(name):
        return total.get(name, 0.0)

    def per_call_ms(name):
        return 1e3 * t(name) / calls[name] if calls.get(name) else 0.0

    m = {}
    for command in COMMANDS:
        m[f"cli.{command}.self_s"] = sum(own[s[0]] for s in spans if s[1] == f"cli.{command}")
    for layer in LAYERS:
        # a span's layer is its name up to the first dot
        m[f"{layer}.self_s"] = sum(own[s[0]] for s in spans if s[1].split(".", 1)[0] == layer)
    # share of the pass spent inside module spans rather than in cli.run itself
    cli_self_s = sum(m[f"cli.{command}.self_s"] for command in COMMANDS)
    m["trace.module_pct"] = 100.0 * (1.0 - cli_self_s / pipeline_s)
    m["store.load_corpus_s"] = t("store.load_corpus")
    m["store.save_corpus_s"] = t("store.save_corpus")
    m["store.bytes_read"] = attrs.get(("store.load_corpus", "bytes"), 0)
    m["store.bytes_written"] = attrs.get(("store.save_corpus", "bytes"), 0)
    m["scenario.build_s"] = t("scenario.build")
    m["isotropy.partition_ratio_s"] = t("isotropy.partition_ratio")
    m["isotropy.avg_pairwise_cosine_s"] = t("isotropy.avg_pairwise_cosine")
    m["isotropy.dimension_profile_s"] = t("isotropy.dimension_profile")
    m["whitening.fit_s"] = t("whitening.fit")
    m["whitening.apply_ms"] = 1e3 * t("whitening.apply")
    m["whitening.apply_calls"] = calls.get("whitening.apply", 0)
    m["autodiff.backward_ms"] = per_call_ms("autodiff.backward")
    m["autodiff.backward_calls"] = calls.get("autodiff.backward", 0)
    steps = calls.get("flows.adam_step", 0)
    per_fit = sum(t(n) for n in ("flows.build_model", "flows.dataset_nll", "flows.actnorm_init", "flows.checksum"))
    m["flows.train_steps"] = steps
    m["flows.train_step_ms"] = 1e3 * (t("flows.train_flow") - per_fit) / steps if steps else 0.0
    m["flows.adam_ms"] = per_call_ms("flows.adam_step")
    m["flows.build_model_s"] = t("flows.build_model")
    m["flows.dataset_nll_s"] = t("flows.dataset_nll")
    # Flow forwards run both in training (fit-flow) and in reranking
    # (apply_flow); split them by the command they ran under.
    command_of = _command_of(spans)
    for layer in ("actnorm", "lulinear", "affine_coupling", "coupling_net", "nice"):
        for command, label in (("cli.fit-flow", "fit"), ("cli.rerank", "rerank")):
            m[f"flows.{layer}.{label}_fwd_ms"] = 1e3 * sum(
                s[3] - s[2] for s in spans if s[1] == f"flows.{layer}.forward" and command_of[s[0]] == command
            )
    apply_calls = calls.get("flows.apply_flow", 0)
    m["flows.apply_flow_calls"] = apply_calls
    m["flows.rows_per_apply_call"] = attrs.get(("flows.apply_flow", "rows"), 0) / apply_calls if apply_calls else 0.0
    m["flows.apply_flow_ms"] = 1e3 * t("flows.apply_flow")
    m["flows.save_flow_s"] = t("flows.save_flow")
    m["flows.load_flow_s"] = t("flows.load_flow")
    m["flows.bytes_written"] = attrs.get(("flows.save_flow", "bytes"), 0)
    m["flows.bytes_read"] = attrs.get(("flows.load_flow", "bytes"), 0)
    m["scoring.rank_candidates_ms"] = per_call_ms("scoring.rank_candidates")
    m["scoring.rank_calls"] = calls.get("scoring.rank_candidates", 0)
    m["scoring.score_calls"] = counts.get("scoring.score_calls", 0)
    m["scoring.transform_ms"] = 1e3 * (t("whitening.apply") + t("flows.apply_flow"))
    m["evaluation.evaluate_s"] = t("evaluation.evaluate")
    m["evaluation.load_qrels_s"] = t("evaluation.load_qrels")
    m["evaluation.load_run_s"] = t("evaluation.load_run")
    m["evaluation.save_run_s"] = t("evaluation.save_run")
    m["evaluation.ttest_ms"] = 1e3 * t("evaluation.ttest")
    return m


# -- one workload -----------------------------------------------------------


IMPORT_PROBE = (
    "import sys, time; sys.path.insert(0, sys.argv[1]); start = time.perf_counter(); "
    "import numpy, isoembed.pipeline.cli; print(time.perf_counter() - start)"
)


def _import_seconds() -> float:
    """Time to import numpy and the CLI in a fresh interpreter."""
    done = subprocess.run([sys.executable, "-c", IMPORT_PROBE, str(SRC)], capture_output=True,
                          text=True, check=False, timeout=120)
    if done.returncode != 0:
        _fail(f"import probe failed: {done.stderr.strip()}")
    return float(done.stdout)


def setup_inputs(cli, workload, seed: int) -> tuple[Path, list[float], dict]:
    """Set up SETUP_REPEATS times: a fresh import plus making the
    workload's inputs. Returns the input dir, the time of each repeat and
    the digests of the files made."""
    from workloads import Step, file_digest

    inputs = WORK / workload.name / "inputs"
    times = []
    for _ in range(SETUP_REPEATS):
        shutil.rmtree(inputs, ignore_errors=True)
        inputs.mkdir(parents=True)
        import_s = _import_seconds()
        start = time.perf_counter()
        for scenario in workload.inputs:
            code, _, text = run_step(cli, Step("setup", scenario.argv(inputs, seed), "scenario"), None)
            if code != 0:
                _fail(f"set-up command failed ({code}): {text.strip()}")
        times.append(import_s + time.perf_counter() - start)
    digests = {str(p.relative_to(inputs)): file_digest(p) for p in sorted(inputs.rglob("*")) if p.is_file()}
    return inputs, times, digests


def warm_up(cli, seed: int) -> None:
    from workloads import warmup_pass

    out = WORK / "warmup"
    shutil.rmtree(out, ignore_errors=True)
    out.mkdir(parents=True)
    for step in warmup_pass(out, seed):
        code, _, text = run_step(cli, step, None)
        if code != 0:
            _fail(f"warm-up command {step.label} failed ({code}): {text.strip()}")
    shutil.rmtree(out, ignore_errors=True)


def run_workload(name: str, seed: int, seconds: float, trace: bool) -> dict:
    cli = _import_program()
    from workloads import WORKLOADS

    workload = WORKLOADS[name]
    reference = None
    refs = json.loads((BENCH_DIR / "reference.json").read_text())
    if seed == refs["seed"]:
        reference = refs["workloads"][name]

    inputs, setup_times, input_digests = setup_inputs(cli, workload, seed)
    setup_s = statistics.median(setup_times)
    warm_up(cli, seed)

    from tracing import Tracer

    tracer = Tracer() if trace else None
    passes = []  # (traced, records, quality, per-layer metrics or None)
    first_digests: dict = {}
    started = time.perf_counter()
    while True:
        traced = trace and len(passes) % 2 == 1
        mark = tracer.mark() if traced else None
        records, quality = run_pass(
            cli, workload, inputs, seed, tracer if traced else None, first_digests, input_digests, reference
        )
        layer = None
        if traced:
            spans = tracer.spans[mark[0]:]
            counts = {k: v - mark[1].get(k, 0) for k, v in tracer.counts.items()}
            layer = layer_metrics(spans, counts, pass_metrics(records)["pipeline_s"])
        passes.append((traced, records, quality, layer))
        if len(passes) == 1:
            # A CLI user runs each command in a fresh process. Later passes
            # in this process can peak higher only because earlier passes
            # fragmented the heap, so the peak is taken after the first.
            peak_rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0
        elapsed = time.perf_counter() - started
        if len(passes) >= MIN_PASSES and elapsed * (len(passes) + 1) / len(passes) > seconds:
            break

    untraced = [pass_metrics(r) for t, r, _, _ in passes if not t]
    e2e = {key: statistics.median(p[key] for p in untraced) for key in untraced[0]}
    e2e["setup_s"] = setup_s
    e2e["peak_rss_mb"] = peak_rss_mb
    attempted = sum(len(r) for _, r, _, _ in passes)
    failed = sum(1 for _, r, _, _ in passes for rec in r if rec["problems"])

    if trace:
        from layers import run_layer_bench

        layered = [layer for t, _, _, layer in passes if t]
        per_layer = {key: statistics.median(p[key] for p in layered) for key in layered[0]}
        traced_s = statistics.median(pass_metrics(r)["pipeline_s"] for t, r, _, _ in passes if t)
        per_layer["pipeline.traced_s"] = traced_s
        per_layer["pipeline.untraced_s"] = e2e["pipeline_s"]
        per_layer["trace.overhead_pct"] = 100.0 * (traced_s / e2e["pipeline_s"] - 1.0)
        per_layer.update(run_layer_bench())
        metrics = per_layer
    else:
        metrics = e2e

    units = {m["name"]: m["unit"] for m in _declared()["per_layer" if trace else "end_to_end"]}
    missing = sorted(set(units) - set(metrics))
    if missing or (trace and set(metrics) != set(units)):
        _fail(f"metrics differ from BENCHMARK.json: missing {missing}, "
              f"undeclared {sorted(set(metrics) - set(units))}")
    # Throughputs of stages that last milliseconds on some workloads are
    # reported but not declared: see README.md, "End-to-end metrics".
    reported = {k: metrics[k] for k in sorted(set(metrics) - set(units))}

    result = {
        "correct": failed == 0,
        "attempted": attempted,
        "failed": failed,
        "metrics": {k: {"value": metrics[k], "unit": units[k]} for k in sorted(units)},
    }
    details = {
        "provenance": provenance(name, seed),
        "setup_repeats_s": setup_times,
        "passes": [{"traced": t, "steps": r, "quality": q} for t, r, q, _ in passes],
        "reported_not_declared": reported,
        "result": result,
    }
    if trace:
        details["provenance"]["trace_overhead_pct"] = metrics["trace.overhead_pct"]
    results_dir = WORK / "results"
    results_dir.mkdir(parents=True, exist_ok=True)
    stem = f"{name}-seed{seed}-trace{int(trace)}"
    (results_dir / f"{stem}.json").write_text(json.dumps(details, indent=1, default=str) + "\n")
    if trace:
        spans = [{"id": s[0], "name": s[1], "start": s[2], "end": s[3], "parent": s[4], "attrs": s[5]}
                 for s in tracer.spans]
        (results_dir / f"{stem}-spans.json").write_text(json.dumps(spans) + "\n")
    shutil.rmtree(WORK / workload.name, ignore_errors=True)
    _print_summary(details, passes, {k: metrics[k] for k in units}, units, reported)
    return result


def _declared() -> dict:
    return json.loads((ROOT / "BENCHMARK.json").read_text())


def _print_summary(details: dict, passes, metrics: dict, units: dict, reported: dict) -> None:
    prov = details["provenance"]
    print("provenance " + " ".join(f"{k}={v}" for k, v in prov.items()))
    for kind in ("scenario", "measure", "fit", "rerank", "eval", "compare"):
        samples = [rec["seconds"] for t, r, _, _ in passes if not t for rec in r if rec["kind"] == kind]
        if samples:
            tail = tail_percentile(samples)
            text = f" p{100 * tail[0]:g} {tail[1]:.4f} s" if tail else " (too few samples for a tail percentile)"
            print(f"command {kind}: median {statistics.median(samples):.4f} s{text} n={len(samples)}")
    last_quality = passes[-1][2]
    for key in sorted(last_quality):
        print(f"quality {key} {last_quality[key]:.6g}")
    for t, r, _, _ in passes:
        for rec in r:
            for problem in rec["problems"]:
                print(f"check FAILED {rec['label']}: {problem}")
    result = details["result"]
    print(f"checks: {result['attempted'] - result['failed']}/{result['attempted']} commands passed; "
          f"ops_failed_ratio {result['failed'] / result['attempted']:.4f}")
    for key in sorted(metrics):
        print(f"metric {key} {metrics[key]:.6g} {units[key]}")
    for key, value in reported.items():
        print(f"metric {key} {value:.6g} 1/s (reported, not declared in BENCHMARK.json)")


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, default=7)
    parser.add_argument("--seconds", type=float, default=30.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args()
    if args.seed < 0:
        _fail("--seed must be >= 0")
    from workloads import WORKLOADS

    if args.workload == "all":
        status = 0
        for name in WORKLOADS:
            argv = [sys.executable, str(Path(__file__).resolve()), "--workload", name,
                    "--seed", str(args.seed), "--seconds", str(args.seconds), "--trace", str(args.trace)]
            print(f"== {name}", flush=True)
            status |= subprocess.run(argv, check=False).returncode
        return status
    if args.workload not in WORKLOADS:
        _fail(f"unknown workload {args.workload!r}; choose from {sorted(WORKLOADS)} or 'all'")
    result = run_workload(args.workload, args.seed, args.seconds, bool(args.trace))
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
