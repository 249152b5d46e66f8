"""In-memory spans around calls into isoembed's modules.

A traced pass replaces each public function listed in ``TARGETS`` at the
name where its caller looks it up (``isoembed.pipeline.cli.load_corpus``,
``isoembed.scoring.apply_flow``, a class attribute for methods) with a
wrapper that records a span: name, start, end, parent span and optional
attributes such as the bytes of the file it read. Nothing under ``src/``
changes, and ``Tracer.uninstall`` puts every original back, so untraced
passes in the same process run the unmodified code.

A span's self time is its duration minus the durations of its direct
children. Calls are nested and single-threaded, so children never
overlap and the self times of all spans in a pass add up to the duration
of its top-level ``cli.<command>`` spans.
"""

from __future__ import annotations

import importlib
import os
import time


def _path_size(path) -> int:
    try:
        return os.path.getsize(path)
    except OSError:
        return 0


def _bytes_of_arg(index):
    """Attribute probe: size of the file named by positional arg ``index``."""

    def probe(args, kwargs, result):
        return {"bytes": _path_size(args[index])} if len(args) > index else {}

    return probe


def _rows_of_arg(index):
    def probe(args, kwargs, result):
        return {"rows": int(args[index].shape[0])} if len(args) > index else {}

    return probe


# (module, attribute, span name, attribute probe). ``attribute`` may be
# "Class.method". Every caller in isoembed resolves these names at call
# time (module globals or class attributes), so replacing them reroutes
# every call made while a traced pass runs.
TARGETS = (
    # store
    ("isoembed.pipeline.cli", "load_corpus", "store.load_corpus", _bytes_of_arg(0)),
    ("isoembed.pipeline.cli", "save_corpus", "store.save_corpus", _bytes_of_arg(1)),
    # pipeline.scenario
    ("isoembed.pipeline.cli", "build_designed_scenario", "scenario.build", None),
    ("isoembed.pipeline.cli", "save_candidates", "scenario.save_candidates", None),
    ("isoembed.pipeline.cli", "load_candidates", "scenario.load_candidates", None),
    # isotropy
    ("isoembed.pipeline.cli", "measure", "isotropy.measure", None),
    ("isoembed.isotropy", "partition_ratio", "isotropy.partition_ratio", None),
    ("isoembed.isotropy", "avg_pairwise_cosine", "isotropy.avg_pairwise_cosine", None),
    ("isoembed.pipeline.cli", "dimension_profile", "isotropy.dimension_profile", None),
    # whitening
    ("isoembed.pipeline.cli", "fit_whitening", "whitening.fit", None),
    ("isoembed.pipeline.cli", "save_whitening", "whitening.save", None),
    ("isoembed.pipeline.cli", "load_whitening", "whitening.load", None),
    ("isoembed.scoring", "apply_whitening", "whitening.apply", _rows_of_arg(1)),
    # flows.training and the autodiff engine it drives
    ("isoembed.pipeline.cli", "train_flow", "flows.train_flow", None),
    ("isoembed.flows.training", "build_model", "flows.build_model", None),
    ("isoembed.flows.training", "dataset_nll", "flows.dataset_nll", None),
    ("isoembed.flows.training", "nll_tensor", "flows.nll_forward", None),
    ("isoembed.flows.training", "model_checksum", "flows.checksum", None),
    ("isoembed.flows.training", "Adam.step", "flows.adam_step", None),
    ("isoembed.flows.glow", "GlowModel.initialize_actnorms", "flows.actnorm_init", None),
    ("isoembed.autodiff", "Tensor.backward", "autodiff.backward", None),
    # flows.glow / flows.nice / flows.coupling forward calls
    ("isoembed.flows.glow", "ActNorm.forward", "flows.actnorm.forward", None),
    ("isoembed.flows.glow", "LuLinear.forward", "flows.lulinear.forward", None),
    ("isoembed.flows.glow", "AffineCoupling.forward", "flows.affine_coupling.forward", None),
    ("isoembed.flows.coupling", "CouplingNet.tensor_apply", "flows.coupling_net.forward", None),
    ("isoembed.flows.nice", "NiceModel.forward_tensors", "flows.nice.forward", None),
    # flows.serialize
    ("isoembed.pipeline.cli", "save_flow", "flows.save_flow", _bytes_of_arg(1)),
    ("isoembed.pipeline.cli", "load_flow", "flows.load_flow", _bytes_of_arg(0)),
    # scoring
    ("isoembed.pipeline.cli", "rank_candidates", "scoring.rank_candidates", None),
    ("isoembed.scoring", "apply_flow", "flows.apply_flow", _rows_of_arg(1)),
    # evaluation
    ("isoembed.pipeline.cli", "load_qrels", "evaluation.load_qrels", None),
    ("isoembed.pipeline.cli", "save_qrels", "evaluation.save_qrels", None),
    ("isoembed.pipeline.cli", "load_run", "evaluation.load_run", None),
    ("isoembed.pipeline.cli", "save_run", "evaluation.save_run", None),
    ("isoembed.pipeline.cli", "evaluate", "evaluation.evaluate", None),
    ("isoembed.pipeline.cli", "ttest_one_tailed", "evaluation.ttest", None),
)

# Called tens of thousands of times per rerank: counted, not spanned, so
# that tracing stays cheap. Their time stays in the rank_candidates span.
COUNTED = (
    ("isoembed.scoring", "colbert_score", "scoring.score_calls"),
    ("isoembed.scoring", "repbert_score", "scoring.score_calls"),
)


def _resolve(module_name: str, attribute: str):
    owner = importlib.import_module(module_name)
    *outer, leaf = attribute.split(".")
    for part in outer:
        owner = getattr(owner, part)
    return owner, leaf


class Tracer:
    """Span recorder; ``install`` patches the targets, ``uninstall`` restores."""

    def __init__(self):
        # (span id, name, start, end, parent id or -1, attrs or None)
        self.spans: list[tuple] = []
        self.counts: dict[str, int] = {}
        self._stack: list[int] = []
        self._saved: list[tuple] = []

    def span(self, name: str, fn, probe=None):
        spans, stack = self.spans, self._stack
        clock = time.perf_counter

        def traced(*args, **kwargs):
            span_id = len(spans)
            spans.append(None)  # reserve the id; children append after it
            parent = stack[-1] if stack else -1
            stack.append(span_id)
            start = clock()
            try:
                result = fn(*args, **kwargs)
            finally:
                end = clock()
                stack.pop()
                spans[span_id] = (span_id, name, start, end, parent, None)
            if probe is not None:
                spans[span_id] = spans[span_id][:5] + (probe(args, kwargs, result),)
            return result

        return traced

    def _counted(self, key: str, fn):
        counts = self.counts

        def counted(*args, **kwargs):
            counts[key] = counts.get(key, 0) + 1
            return fn(*args, **kwargs)

        return counted

    def install(self) -> None:
        if self._saved:
            raise RuntimeError("tracer already installed")
        for module_name, attribute, name, probe in TARGETS:
            owner, leaf = _resolve(module_name, attribute)
            original = owner.__dict__[leaf]
            self._saved.append((owner, leaf, original))
            setattr(owner, leaf, self.span(name, original, probe))
        for module_name, attribute, key in COUNTED:
            owner, leaf = _resolve(module_name, attribute)
            original = owner.__dict__[leaf]
            self._saved.append((owner, leaf, original))
            setattr(owner, leaf, self._counted(key, original))

    def uninstall(self) -> None:
        while self._saved:
            owner, leaf, original = self._saved.pop()
            setattr(owner, leaf, original)

    def mark(self) -> tuple[int, dict]:
        """Position to slice one pass's spans and counts from."""
        return len(self.spans), dict(self.counts)


def self_times(spans: list[tuple]) -> dict[int, float]:
    """Span id -> duration minus its direct children's durations."""
    own = {s[0]: s[3] - s[2] for s in spans}
    for s in spans:
        if s[4] in own:
            own[s[4]] -= s[3] - s[2]
    return own
