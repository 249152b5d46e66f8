"""Golden values of the CLI's surface and of its run identities.

``cli_golden.json`` holds values recorded from the hand-written parser that
preceded the ``COMMANDS`` table: every subcommand's options, and the
``config_sha256`` of every artifact of a small walkthrough. A difference
means an option changed or the same experiment no longer hashes the same,
which would orphan every run tag already written. Do not re-record the file
to make this test pass.
"""

import json
import re
from pathlib import Path

from isoembed import load_run
from isoembed.pipeline import cli

GOLDEN = json.loads(Path(__file__).with_name("cli_golden.json").read_text())


def parser_surface() -> dict:
    """Subcommand -> sorted (option_strings, dest, type, choices, help,
    default, required) of each of its parser actions."""
    parser = cli.build_parser()
    (subparsers,) = [a for a in parser._actions if a.dest == "command"]
    surface = {}
    for name, sub in subparsers.choices.items():
        rows = [
            [
                list(a.option_strings),
                a.dest,
                getattr(a.type, "__name__", None),
                None if a.choices is None else list(a.choices),
                a.help,
                a.default,
                a.required,
            ]
            for a in sub._actions
        ]
        surface[name] = sorted(rows, key=lambda row: (row[0], row[1]))
    return surface


def walkthrough_hashes(root: Path) -> dict:
    """Run a small walkthrough in ``root`` with relative paths and collect
    the config hash each artifact records."""
    def call(*argv):
        assert cli.run(list(argv)) == 0, argv

    def config(name, payload):
        (root / name).write_text(json.dumps(payload))
        return name

    call("gen", "--out", "gen.emb", "--seed", "3", "--n-queries", "2", "--n-docs", "3",
         "--tokens-per-query", "2", "--tokens-per-doc", "2", "--dim", "4",
         "--config", config("gen.json", {"axis_scales": [1, 2.0, 3, 4], "outlier_dims": 1}))
    call("scenario", "--out-dir", "src", "--seed", "7", "--n-queries", "6",
         "--n-docs", "4", "--dim", "12")
    call("scenario", "--out-dir", "tgt", "--seed", "11", "--n-queries", "6", "--n-docs", "4",
         "--dim", "12", "--offset-tilt", "0.1", "--scale-factor", "1.3",
         "--config", config("scenario.json", {"token_noise": 0.5, "dominant_dims": 2}))
    call("measure", "--corpus", "src/corpus.emb", "--out", "measure.json", "--csv", "profile.csv")
    call("measure", "--config", config("measure_settings.json", {
        "corpus": "tgt/corpus.emb", "batch_size": 16, "cosine_mode": "exact",
        "outlier_factor": 3, "seed": 2, "out": "measure_cfg.json"}))
    call("measure", "--corpus", "tgt/corpus.emb", "--batch-size", "16", "--out", "measure_flag.json")
    call("fit-whiten", "--source-corpus", "src/corpus.emb", "--out", "white.wht")
    call("fit-flow", "--source-corpus", "src/corpus.emb", "--arch", "glow", "--levels", "2",
         "--depth", "1", "--hidden", "8", "--epochs", "1", "--batch-size", "32",
         "--seed", "7", "--out", "glow.flw")
    call("fit-flow", "--source-corpus", "src/corpus.emb", "--arch", "nice", "--couplings", "2",
         "--hidden", "8,8", "--epochs", "1", "--batch-size", "16", "--fit-on", "queries",
         "--out", "nice.flw", "--config", config("nice.json", {"shuffle": False}))
    runs = {
        "raw.run": ["--scorer", "colbert", "--post", "none"],
        "white.run": ["--scorer", "colbert", "--post", "whiten", "--post-path", "white.wht"],
        "glow.run": ["--scorer", "repbert", "--granularity", "sequence_wise", "--post", "glow",
                     "--post-path", "glow.flw", "--seed", "5"],
    }
    for out, extra in runs.items():
        call("rerank", "--target-corpus", "tgt/corpus.emb", "--candidates",
             "tgt/candidates.jsonl", "--out", out, *extra)
    for name in ("raw", "white"):
        call("eval", "--run", f"{name}.run", "--qrels", "tgt/qrels.txt", "--out", f"{name}.eval.json")
    call("compare", "--baseline", "raw.eval.json", "--candidate", "white.eval.json",
         "--out", "cmp.json")

    hashed = [
        "gen.emb.manifest.json", "src/manifest.json", "tgt/manifest.json", "measure.json",
        "measure_cfg.json", "measure_flag.json", "white.wht.provenance.json",
        "glow.flw.provenance.json", "glow.flw.train.json", "nice.flw.provenance.json",
        "nice.flw.train.json", "raw.eval.json", "white.eval.json", "cmp.json",
    ]
    hashes = {name: json.loads((root / name).read_text())["config_sha256"] for name in hashed}
    for name in runs:
        tag = load_run(root / name).tag
        hashes[name] = re.search(r"\.c([0-9a-f]{8})\.s", tag).group(1)
    return hashes


def test_parser_surface_is_unchanged():
    assert parser_surface() == GOLDEN["parser"]


def test_config_hashes_are_unchanged(tmp_path, monkeypatch):
    monkeypatch.chdir(tmp_path)
    assert walkthrough_hashes(tmp_path) == GOLDEN["config_sha256"]

