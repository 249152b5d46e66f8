"""All-or-nothing artifact writes: a writer that fails part-way leaves the
previous file intact and no temporary file behind."""

import numpy as np
import pytest

from conftest import table_corpus
from isoembed import atomic
from isoembed.atomic import atomic_write
from isoembed.evaluation import Qrels, RankingRun, save_qrels, save_run
from isoembed.flows import NiceSpec, build_model, save_flow
from isoembed.pipeline import cli, run
from isoembed.pipeline.cli import write_json
from isoembed.pipeline.scenario import save_candidates
from isoembed.store import KIND_DOCUMENT, KIND_QUERY, save_corpus
from isoembed.whitening import fit_whitening, save_whitening


class _FailingFile:
    """Passes the first write through, then raises as a full disk would: on
    the second write, or on closing a file written in one call (as when
    its buffered contents are flushed at close)."""

    def __init__(self, fh):
        self.fh = fh
        self.writes = 0

    def write(self, data):
        self.writes += 1
        if self.writes > 1:
            raise OSError("no space left on device")
        return self.fh.write(data)

    def __enter__(self):
        return self

    def __exit__(self, *exc):
        self.fh.close()
        if exc[0] is None and self.writes == 1:
            raise OSError("no space left on device")


def fail_writes(monkeypatch, name_part: str = "") -> None:
    """Make files opened by atomic_write whose path contains ``name_part``
    fail on their second write (see ``_FailingFile``)."""
    real_open = open

    def opener(path, *args, **kwargs):
        fh = real_open(path, *args, **kwargs)
        return _FailingFile(fh) if name_part in str(path) else fh

    monkeypatch.setattr(atomic, "open", opener, raising=False)


def _corpus():
    matrix = np.arange(12.0).reshape(6, 2)
    return table_corpus(matrix, [("q", KIND_QUERY, 0, 2), ("d", KIND_DOCUMENT, 2, 4)])


WRITERS = {
    "save_corpus": lambda path: save_corpus(_corpus(), path),
    "save_whitening": lambda path: save_whitening(fit_whitening(_corpus().matrix), path),
    "save_flow": lambda path: save_flow(build_model(4, NiceSpec(1, (3,)), seed=1), path),
    "write_json": lambda path: write_json({"a": [1, 2, 3], "b": "x"}, path),
    "save_run": lambda path: save_run(
        RankingRun({"q1": [("d1", 2.0), ("d2", 1.0)], "q2": [("d3", 0.5)]}), path
    ),
    "save_qrels": lambda path: save_qrels(Qrels({("q1", "d1"): 1, ("q2", "d3"): 0}), path),
    "save_candidates": lambda path: save_candidates({"q1": ["d1"], "q2": ["d2", "d3"]}, path),
}


@pytest.mark.parametrize("writer", sorted(WRITERS))
def test_failed_write_keeps_previous_file(tmp_path, monkeypatch, writer):
    path = tmp_path / "artifact"
    path.write_bytes(b"previous contents")
    fail_writes(monkeypatch)
    with pytest.raises(OSError, match="no space"):
        WRITERS[writer](path)
    assert path.read_bytes() == b"previous contents"
    assert sorted(p.name for p in tmp_path.iterdir()) == ["artifact"]


@pytest.mark.parametrize("writer", sorted(WRITERS))
def test_successful_write_replaces_file(tmp_path, writer):
    path = tmp_path / "artifact"
    path.write_bytes(b"previous contents")
    WRITERS[writer](path)
    fresh = tmp_path / "fresh"
    WRITERS[writer](fresh)
    assert path.read_bytes() == fresh.read_bytes() != b"previous contents"
    assert sorted(p.name for p in tmp_path.iterdir()) == ["artifact", "fresh"]


def test_exception_in_body_removes_temp_file(tmp_path):
    path = tmp_path / "out.txt"
    with pytest.raises(KeyboardInterrupt):
        with atomic_write(path, text=True) as fh:
            fh.write("partial")
            raise KeyboardInterrupt
    assert list(tmp_path.iterdir()) == []


def test_text_mode_writes_utf8_with_unix_newlines(tmp_path):
    path = tmp_path / "out.txt"
    with atomic_write(path, text=True) as fh:
        fh.write("é\n")
    assert path.read_bytes() == "é\n".encode("utf-8")


def test_measure_csv_failure_keeps_previous_profile(tmp_path, monkeypatch):
    corpus_path = tmp_path / "c.emb"
    save_corpus(_corpus(), corpus_path)
    csv_path = tmp_path / "profile.csv"
    csv_path.write_text("previous profile\n")
    fail_writes(monkeypatch, "profile.csv")
    assert run(["measure", "--corpus", str(corpus_path), "--out", str(tmp_path / "m.json"),
                "--csv", str(csv_path)]) == 3
    assert csv_path.read_text() == "previous profile\n"
    assert sorted(p.name for p in tmp_path.iterdir()) == ["c.emb", "m.json", "profile.csv"]


def test_provenance_follows_its_artifact(tmp_path, monkeypatch):
    """A transform whose write fails gets no provenance sidecar."""
    corpus_path = tmp_path / "c.emb"
    save_corpus(_corpus(), corpus_path)

    def fail(transform, path):
        raise OSError("no space left on device")

    monkeypatch.setattr(cli, "save_whitening", fail)
    out = tmp_path / "white.wht"
    assert run(["fit-whiten", "--source-corpus", str(corpus_path), "--out", str(out)]) == 3
    assert sorted(p.name for p in tmp_path.iterdir()) == ["c.emb"]
