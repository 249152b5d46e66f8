"""Golden results of ``train_flow``, recorded from the per-parameter Adam
that kept each parameter, gradient and moment in its own array.

Training now runs on flat slabs with a blocked in-place update; the values
below must not move by a single bit. Every case shuffles, runs several
batches per epoch and ends each epoch on a short batch (50 rows in batches
of 16 leave 2; 40 in batches of 16 leave 8). The wide glow holds 76,560
parameters, more than two Adam blocks. Do not re-record these values to
make this test pass.
"""

import numpy as np
import pytest

from isoembed.flows import FlowTrainConfig, GlowSpec, NiceSpec, train_flow
from isoembed.rng import PinnedRng


def small_matrix() -> np.ndarray:
    x = PinnedRng(5).gaussians(50 * 6).reshape(50, 6)
    return x * np.array([3.0, 0.5, 1.0, 2.0, 0.25, 1.5]) + np.array([1.0, -2.0, 0, 0.5, 0, 3.0])


def wide_matrix() -> np.ndarray:
    return PinnedRng(6).gaussians(40 * 16).reshape(40, 16) * np.linspace(0.5, 3.0, 16)


CASES = {
    "nice": (
        small_matrix,
        NiceSpec(couplings=3, hidden=(8, 8)),
        FlowTrainConfig(epochs=3, learning_rate=1e-2, batch_size=16, seed=11),
        {
            "checksum": "9707f2b11ab64e62d154bf49fc9c86cf431c45147b4206bf340b6a8a4fe1c94a",
            "initial_nll": 17.60649685097154,
            "epoch_nll": (16.457043717384277, 15.596271034449286, 11.878483999807464),
            "steps": 12,
        },
    ),
    "glow": (
        small_matrix,
        GlowSpec(levels=2, depth=2, hidden=(8,)),
        FlowTrainConfig(epochs=3, learning_rate=1e-2, batch_size=16, seed=12),
        {
            "checksum": "da002cd5662de75274eb321c3a1631ceaa692399b6dd79d02b1bf621e8616482",
            "initial_nll": 17.60649685097154,
            "epoch_nll": (8.221009601710598, 7.656875500927644, 7.27735447286023),
            "steps": 12,
        },
    ),
    "glow_wide": (
        wide_matrix,
        GlowSpec(levels=2, depth=2, hidden=(128, 128)),
        FlowTrainConfig(epochs=2, learning_rate=1e-3, batch_size=16, seed=13),
        {
            "checksum": "9eae8999ba91c8c1eb05dc4cab24c9424369d06f7a0ae2db968a8ea937e34384",
            "initial_nll": 43.46974426875101,
            "epoch_nll": (29.470570943189472, 28.000322243262985),
            "steps": 6,
        },
    ),
}


@pytest.mark.parametrize("name", sorted(CASES))
def test_train_flow_matches_golden(name):
    make_matrix, spec, cfg, golden = CASES[name]
    _, report = train_flow(make_matrix(), spec, cfg)
    assert report.checksum == golden["checksum"]
    assert report.initial_nll == golden["initial_nll"]
    assert report.epoch_nll == golden["epoch_nll"]
    assert report.steps == golden["steps"]
