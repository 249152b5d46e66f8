"""FLW1 binary persistence for flow models.

Layout (little-endian): magic "FLW1" | version u32 | arch u8 (0 additive,
1 multi-level affine) | dim u32 | architecture block | parameters as f64 in
parameter-traversal order.

Architecture blocks:
  arch 0: couplings u32 | n_hidden u32 | hidden u32[n_hidden]
  arch 1: levels u32 | depth u32 | n_hidden u32 | hidden u32[n_hidden]
          | per step (level-major): perm u32[active] | signs i8[active]
          | actnorm_initialized u8

Parameter traversal order:
  arch 0: per coupling in order: weight then bias per layer; finally the
          per-dimension log-scale vector.
  arch 1: per level, per step: actnorm shift, actnorm log-scale, LU strict
          lower, LU log-diagonal, LU strict upper, then the coupling net's
          weight/bias per layer.
Matrices are row-major; coupling mask parities are implicit (step index
modulo 2) and not stored.

Loading assembles the model from the file's arrays and never runs the
seeded initialization. The widths in the architecture block fix the file
size, which is checked before any array is allocated; every permutation
must be a permutation of range(active), every sign +1 or -1 and every
actnorm flag 0 or 1. Any violation raises CorpusFormatError.
"""

from __future__ import annotations

import struct

import numpy as np

from ..atomic import atomic_write
from ..bounded import BoundedReader, open_bounded
from ..errors import CorpusFormatError
from .coupling import ParameterSlab
from .glow import GlowModel, GlowSpec, active_sizes
from .nice import NiceModel, NiceSpec
from .training import FlowModel

MAGIC = b"FLW1"
FORMAT_VERSION = 1

_HEADER = struct.Struct("<4sIBI")
_F64 = np.dtype("<f8")


def _arch_block(model: FlowModel) -> bytes:
    if isinstance(model, NiceModel):
        hidden = model.spec.hidden
        return struct.pack(
            f"<II{len(hidden)}I", model.spec.couplings, len(hidden), *hidden
        )
    hidden = model.spec.hidden
    parts = [
        struct.pack(
            f"<III{len(hidden)}I", model.spec.levels, model.spec.depth, len(hidden), *hidden
        )
    ]
    for steps in model.levels:
        for step in steps:
            parts.append(step.linear.permutation.astype("<u4").tobytes())
            parts.append(step.linear.signs.astype("<i1").tobytes())
            parts.append(struct.pack("<B", int(step.actnorm.initialized)))
    return b"".join(parts)


def save_flow(model: FlowModel, path) -> None:
    """Write the FLW1 encoding of ``model`` to ``path``; the parameter slab,
    which holds every parameter in traversal order, is handed to the file
    as one buffer, without an intermediate copy."""
    with atomic_write(path) as fh:
        fh.write(_HEADER.pack(MAGIC, FORMAT_VERSION, model.arch_tag, model.dim))
        fh.write(_arch_block(model))
        fh.write(np.ascontiguousarray(model.slab, dtype=_F64))


def _read_glow_steps(reader: BoundedReader, sizes: list[int], depth: int) -> list[tuple]:
    """Per step: (permutation, signs as float64, actnorm initialized)."""
    steps = []
    for k in range(len(sizes) * depth):
        size = sizes[k // depth]
        perm = reader.array(size, "<u4").astype(np.int64)
        if not np.array_equal(np.sort(perm), np.arange(size)):
            raise CorpusFormatError(
                f"{reader.label}: step {k} permutation is not a permutation of range({size})"
            )
        signs = reader.array(size, "<i1")
        if not ((signs == 1) | (signs == -1)).all():
            raise CorpusFormatError(f"{reader.label}: step {k} has a sign other than +1/-1")
        (initialized,) = reader.unpack("<B")
        if initialized > 1:
            raise CorpusFormatError(
                f"{reader.label}: step {k} actnorm flag is {initialized}, not 0 or 1"
            )
        steps.append((perm, signs.astype(np.float64), bool(initialized)))
    return steps


def _read_flow(reader: BoundedReader) -> FlowModel:
    label, size = reader.label, reader.size
    magic, version, arch, dim = reader.unpack(_HEADER.format)
    if magic != MAGIC:
        raise CorpusFormatError(f"{label}: bad magic {magic!r}, expected {MAGIC!r}")
    if version != FORMAT_VERSION:
        raise CorpusFormatError(f"{label}: unsupported version {version}")
    if arch not in (0, 1):
        raise CorpusFormatError(f"{label}: unknown architecture tag {arch}")
    try:
        if arch == 0:
            couplings, n_hidden = reader.unpack("<II")
            spec = NiceSpec(couplings=couplings, hidden=reader.unpack(f"<{n_hidden}I"))
            step_bytes, n_params = 0, NiceModel.parameter_count(dim, spec)
        else:
            levels, depth, n_hidden = reader.unpack("<III")
            hidden = reader.unpack(f"<{n_hidden}I")
            spec = GlowSpec(levels=levels, depth=depth, hidden=hidden)
            sizes = active_sizes(dim, spec.levels)
            # per step: permutation u32, signs i8, actnorm flag u8
            step_bytes = sum(spec.depth * (5 * size + 1) for size in sizes)
            n_params = GlowModel.parameter_count(dim, spec)
    except ValueError as exc:
        raise CorpusFormatError(f"{label}: invalid architecture: {exc}") from None
    expected = reader.pos + step_bytes + _F64.itemsize * n_params
    if expected > size:
        raise CorpusFormatError(
            f"{label}: truncated flow file: the architecture needs {expected} bytes, got {size}"
        )
    if expected < size:
        raise CorpusFormatError(f"{label}: {size - expected} trailing bytes")
    if arch == 1:
        steps = _read_glow_steps(reader, sizes, spec.depth)
    slab = np.empty(n_params, dtype=_F64)
    reader.read_into(slab)
    params = ParameterSlab(slab)
    if arch == 0:
        return NiceModel.assemble(dim, spec, params)
    return GlowModel.assemble(dim, spec, steps, params)


def load_flow(path) -> FlowModel:
    """Read an FLW1 file; the parameters are read straight into the model's
    arrays, without seeding a model first."""
    with open_bounded(path, "flow file") as reader:
        return _read_flow(reader)
