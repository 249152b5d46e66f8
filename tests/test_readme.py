"""The README's "Library quick start" block runs as written, and the values
its comments state hold."""

import contextlib
import io
import json
import re
from pathlib import Path

import pytest

README = Path(__file__).resolve().parents[1] / "README.md"


def quick_start() -> str:
    text = README.read_text(encoding="utf-8")
    section = text.split("## Library quick start", 1)[1]
    return re.search(r"```python\n(.*?)```", section, re.S).group(1)


def test_quick_start_runs_and_its_comments_hold():
    out = io.StringIO()
    with contextlib.redirect_stdout(out):
        exec(compile(quick_start(), str(README), "exec"), {})
    lines = out.getvalue().splitlines()
    raw, white = (json.loads(line) for line in lines[:2])
    assert raw["i_w"] < 1e-3
    assert raw["avg_cos"] == pytest.approx(0.81, abs=0.01)
    assert white["i_w"] > 0.9
    assert abs(white["avg_cos"]) < 0.01
    initial_nll, final_nll = map(float, lines[2].split())
    assert final_nll < initial_nll
