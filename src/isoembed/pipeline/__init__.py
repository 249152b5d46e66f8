"""Experiment orchestration: designed scenarios and the CLI entry points.

The CLI names are imported on first access, so that running
``python -m isoembed.pipeline.cli`` does not find the module already
imported by its own package.
"""

from .scenario import (
    ScenarioParams,
    build_designed_scenario,
    load_candidates,
    save_candidates,
)

_CLI_NAMES = ("build_parser", "main", "run")

__all__ = [
    "ScenarioParams",
    "build_designed_scenario",
    "build_parser",
    "load_candidates",
    "main",
    "run",
    "save_candidates",
]


def __getattr__(name):
    if name in _CLI_NAMES:
        from . import cli

        return getattr(cli, name)
    raise AttributeError(f"module {__name__!r} has no attribute {name!r}")
