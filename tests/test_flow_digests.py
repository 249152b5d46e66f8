"""Bitwise guards on the flow entry points: ``nll_gradient``, ``flow_forward``,
``nll`` and ``flow_inverse`` over a grid of NICE and glow models (glow at 1-3
levels, odd and even dims, 1-, 5- and 33-row batches), each with a randomized
parameter slab. The forward and gradient digests were recorded from the
per-op autodiff graph that built the likelihood before the flows ran as one
kernel chain; a refactor of the chain must not move a single bit.
"""

import hashlib

import numpy as np
import pytest

from isoembed import autodiff as ad
from isoembed.flows import (
    GlowSpec,
    NiceSpec,
    build_model,
    flow_forward,
    flow_inverse,
    nll,
    nll_gradient,
)
from isoembed.rng import PinnedRng

ROWS = (1, 5, 33)
# (dim, spec): NICE with 1-3 couplings, glow with 1-3 levels and depth 1-3.
MODELS = {
    "nice_d3_c1": (3, NiceSpec(couplings=1, hidden=(5,))),
    "nice_d7_c2": (7, NiceSpec(couplings=2, hidden=(6, 4))),
    "nice_d10_c3": (10, NiceSpec(couplings=3, hidden=(5,))),
    "glow_d3_l1": (3, GlowSpec(levels=1, depth=2, hidden=(5,))),
    "glow_d5_l1": (5, GlowSpec(levels=1, depth=3, hidden=(6, 4))),
    "glow_d8_l1": (8, GlowSpec(levels=1, depth=1, hidden=(7,))),
    "glow_d5_l2": (5, GlowSpec(levels=2, depth=1, hidden=(5,))),
    "glow_d9_l2": (9, GlowSpec(levels=2, depth=2, hidden=(6, 4))),
    "glow_d12_l2": (12, GlowSpec(levels=2, depth=3, hidden=(7,))),
    "glow_d9_l3": (9, GlowSpec(levels=3, depth=1, hidden=(5,))),
    "glow_d11_l3": (11, GlowSpec(levels=3, depth=2, hidden=(6, 4))),
    "glow_d16_l3": (16, GlowSpec(levels=3, depth=3, hidden=(7,))),
}


def case(name: str, rows: int):
    """The model with every slab element moved by a seeded Gaussian, and a
    batch whose first row is scaled up so that some coupling scales clamp."""
    dim, spec = MODELS[name]
    seed = sum(map(ord, name)) + rows
    model = build_model(dim, spec, seed=seed)
    rng = PinnedRng(seed + 1)
    model.slab += rng.gaussians(model.slab.size) * 0.3
    x = rng.gaussians(rows * dim).reshape(rows, dim) * 1.5 + 0.25
    x[0] *= 4.0
    return model, x


def digest(name: str, rows: int) -> str:
    model, x = case(name, rows)
    h = hashlib.sha256()
    for grad in nll_gradient(model, x):
        h.update(np.ascontiguousarray(grad).tobytes())
    for array in flow_forward(model, x):
        h.update(np.ascontiguousarray(array).tobytes())
    h.update(np.float64(nll(model, x)).tobytes())
    return h.hexdigest()


def graph_digest(name: str) -> str:
    """Gradients of every parameter and of the input through
    ``forward_tensors``, the model as one fused node, for a loss that
    weights each output and log-det entry."""
    model, x = case(name, 5)
    rng = PinnedRng(len(name))
    weights = rng.gaussians(x.size).reshape(x.shape)
    x_param = ad.parameter(x)
    z, logdet = model.forward_tensors(x_param)
    loss = ad.add(ad.total(ad.mul(z, weights)), ad.total(ad.mul(logdet, rng.gaussians(len(x)))))
    loss.backward()
    h = hashlib.sha256()
    for p in [*model.parameters(), x_param]:
        h.update(np.ascontiguousarray(p.grad).tobytes())
    return h.hexdigest()


def inverse_digest(name: str, rows: int) -> str:
    """``flow_inverse`` of the case's forward output and of its batch."""
    model, x = case(name, rows)
    h = hashlib.sha256()
    for z in (flow_forward(model, x)[0], x):
        h.update(np.ascontiguousarray(flow_inverse(model, z)).tobytes())
    return h.hexdigest()


DIGESTS = {
    ("glow_d11_l3", 1): "e67506aef6f74bb84729a8ff4980a4b246e0719ebacebb4be72caaad6b3158fd",
    ("glow_d11_l3", 5): "56a007852f610ec55584b7e3729127f8c484bf1e4ce9d1baba0cf6aeb5c4cd2e",
    ("glow_d11_l3", 33): "3a2d72bebd655086a3ce15e35092e8b05ca974244b8c76c55d07d39704dce42e",
    ("glow_d12_l2", 1): "7cbad058dd0d5869f220cf5f4ddf1214ae2c366c333638cb6b0d2a944e05374c",
    ("glow_d12_l2", 5): "b27817ae7cca6ac00739fea79da3a39253e9c93f7957298e49200d0e2d96bf0a",
    ("glow_d12_l2", 33): "638f1d2ca087a6c6fbfdb45352f5edcd3b927fc72f0315f8382c8ba088561bcf",
    ("glow_d16_l3", 1): "24ecdf38f78916899b2fc71b9f53e4d3560f6d8423b5357f81bd053f40cf6810",
    ("glow_d16_l3", 5): "b9da154c5a07e8f57e41001407be0bc0a1bb8646ed19561ff64ae56c375252b6",
    ("glow_d16_l3", 33): "c5722b01b10373a611ac9ae67cca6be7039050e28c5887c91201744768b9120a",
    ("glow_d3_l1", 1): "b5ce9163168eeef828587c2437b57a14c56f058353901d3564997b5036d07418",
    ("glow_d3_l1", 5): "8500083ab378d3980b249d7d7fd36f61cd7b7c0b993dee33dd95bc898fd66ca2",
    ("glow_d3_l1", 33): "42bdd4c9af4b9dc04618b330aba3ad5989a74de564fd43839013e8b6ad5a0068",
    ("glow_d5_l1", 1): "be79a92e5cb24d0b47690810bb565ed4752192d07e352e0e70e749baf4ba973b",
    ("glow_d5_l1", 5): "30b075043e68a5d2c1dc62ed1b399288c92c188c55b3903fe284d5162e3f6084",
    ("glow_d5_l1", 33): "d40e857fde8b7352c22dd855a4790f0b63f8aa0efa1736228ebf1225d4e3e4f6",
    ("glow_d5_l2", 1): "7fc203946faf51202e4c7c0df72a0532f5f21778a295897265a3ca985a10a4d9",
    ("glow_d5_l2", 5): "65ef1d3cf39f63ec6ebde183ff1f633b8272e50e3a1b4efcf3127216ca3cca62",
    ("glow_d5_l2", 33): "399a6aa426d635300d511693a4d40824a14350a3736cd139102a0416366501d6",
    ("glow_d8_l1", 1): "e36859835a33fe7de573290db9dc44b8ffb4d234c25b24c7eee7d0cf538dc114",
    ("glow_d8_l1", 5): "84ca52b755561ea849e79fa117184abbea7ce9c2e53a64385e73dc4aec38fc97",
    ("glow_d8_l1", 33): "78e60d2118a0874f24319ee9459abdd1eec98df56119ef13be99caa34bee8408",
    ("glow_d9_l2", 1): "36e3b1ab2f3c4539df17a63c19fdd0f30b9160f73bfc3123253812ad4e7ca366",
    ("glow_d9_l2", 5): "1189f180b442a39f86794a4ea8ffdd70c0c86093642ca86c8839ece9da569d15",
    ("glow_d9_l2", 33): "a7fbf75ce1efd7db1319d2b2301bb289d3fad9c36fc95a901e37d776843d2cc9",
    ("glow_d9_l3", 1): "208b324074ee5fc17b6e172d36a760fcacfd2752bf253f406da33a2a6dcf64ff",
    ("glow_d9_l3", 5): "ad38176d50e2ecd83d0d15aeb626bbf078d750f4fdda72e8945a9e26180dfc2e",
    ("glow_d9_l3", 33): "0e9de69b7dee3ac5c22d347037b1163a3c460797523bf69f7e456371dddf7548",
    ("nice_d10_c3", 1): "0d434a4a28d9151502d6b8f48fcfd5cda9c354ce9d25ff9aa7e785b5ac272948",
    ("nice_d10_c3", 5): "4aa2645433d20e7cc96084b32cb6fdb2846068cac7d995430f54ce76eb6114d4",
    ("nice_d10_c3", 33): "1a914a93342195ab5b9dde6d9fd5742479ccc5239892cf08cf3a82dfdfe0049c",
    ("nice_d3_c1", 1): "3820e3ee4faf3822ce5bb4488dd34484c0f286fb7aab893a33b6130b22c4de33",
    ("nice_d3_c1", 5): "e464b9bd3ff30de2c0e48a2b80daf02b3b9999094363a17fa072fcad85f6cdf6",
    ("nice_d3_c1", 33): "e9142bf2116eae09dc0b57c891301a5365db498c858ca6587cfce1a54e2d9cb8",
    ("nice_d7_c2", 1): "d263785626f44f6c9f83db4155f0460b0082073ff2352cb5175da1becd4abd06",
    ("nice_d7_c2", 5): "499f81237af87bba2530acbc87a95634665fc26c0e31ce9e6cd950b3e81af4a4",
    ("nice_d7_c2", 33): "40be81e358cb644ac8f68e0e70797e02c705d7fee384858a2b5c56a0156cea2c",
}
# Through ``forward_tensors`` on 5 rows, see ``graph_digest``.
GRAPH_DIGESTS = {
    "glow_d11_l3": "6d14f394e971082730a6ec416439f25393251051059954ed1a70f4ac8d353332",
    "glow_d12_l2": "f60ed36847fda3c3aa0c7ce75e8a1b82246b3eb63dd735206b8eaffe7153a464",
    "glow_d16_l3": "c59ff0d19a48a69e180e0ca6fc845a4d2215100433f6ec2b03cc5dc4508876e3",
    "glow_d3_l1": "cddbdb47e1e788f2411ac2937495786b75b4b942784f489cb25155069df7fbbd",
    "glow_d5_l1": "59cd0bcfde16755bdf2b10c335dd46b17347d5d46eda39c3f023f325bb59921a",
    "glow_d5_l2": "52dfc52bef05a37a4762b255504904d9d205929341fa610b965a46e25359f62c",
    "glow_d8_l1": "f53871cf3362c5b47cba9ddf247eb786ee0c32dce333912e24264fd10a824ad2",
    "glow_d9_l2": "e21191d33242ca3f4f5e1cd8c6dd8b58be1204e33d16e6a8b2aacff12f39f758",
    "glow_d9_l3": "f64dddf96172bcfd15e2a64ecf9d8653a22201374eb0cdf65d100c493b78ebc8",
    "nice_d10_c3": "035359dd039c0c1bf5ebb83815c2c04e7bf2d031e4ed3272a95dbcac06679267",
    "nice_d3_c1": "c267c8108d355260759cdc5b9a7e9bd9063765cbf9b8804286c3bf395db2a241",
    "nice_d7_c2": "60895ec665ad41e3c18ef329b5e90ed701b8ffa1786f487247541559aebb9e2c",
}

# Recorded from the separate NICE and glow inverses, before both models ran
# one shared layer chain.
INVERSE_DIGESTS = {
    ("glow_d11_l3", 1): "055867efb5387a1ea60793e8f9cf7c728b5bf56b03b3041054bf0b54cef7bb7f",
    ("glow_d11_l3", 5): "8cdf21c6d85c883afe9c891d4fb56fa373bfc33a86790d2535592a3239d48863",
    ("glow_d11_l3", 33): "571522036d415bf5fa0e79baaf65f70dd6fdaca7f8d400553f6e5a50fcb961ca",
    ("glow_d12_l2", 1): "2184c2ce218a366bbfd166615fce278e64a903b194b048da2f93b87c60393d6a",
    ("glow_d12_l2", 5): "3ee697bf90c297d30a55493c1f2f07a0d170b845afb4a055c467afa3427dbb57",
    ("glow_d12_l2", 33): "6704ae54d8b295101c7770e44d42a0d490bfab1820815106d86ad856f2e080f5",
    ("glow_d16_l3", 1): "22e0ba913b73831682cdc6e952ac0fae6ccfaa6e704d76d50c2a092d2fde6dc5",
    ("glow_d16_l3", 5): "db00b564b9aadcf9214ebd57cf097411e2f3258fd7c1885af6d16d7610361c69",
    ("glow_d16_l3", 33): "b8431b99f2ccec067afa3c40d88ee605e6da63f9ce8b31849613e23b48875964",
    ("glow_d3_l1", 1): "ab8eceb0658c1ce1c3f4ebaa5a9d8a2ef9214caaea7936e0c546e60c6c667336",
    ("glow_d3_l1", 5): "8ce0250f8b9c0b0f035aaa3d4f3b35784722d4edc5f5fbc3f36067328f350e66",
    ("glow_d3_l1", 33): "b06d7623b6a0345a3f17308372bb7d9464f6262eaedd52b4aacf5cfc0ab1e63e",
    ("glow_d5_l1", 1): "756916f6e16c960a95f09f5eb5c6f9436ac828ea8db3a30838c058827ee345dd",
    ("glow_d5_l1", 5): "557e96f1bb1b2d76ec24f1cb9ed01884ac1e44b67964104c2c2dfa4e75be65af",
    ("glow_d5_l1", 33): "21f95d83580899ef6d923d92582e609860fcac70cd3bf3c5a931b920806a730c",
    ("glow_d5_l2", 1): "f666b41ad1cdead2bcba5d54e6f68954223326d49ba40e0f93d172fc6d407f35",
    ("glow_d5_l2", 5): "0593a45a38055b9473b3c56cb6e841724c66ccef5190cd538a58ce2d9bbe3398",
    ("glow_d5_l2", 33): "b0ef7380f1b6caa9e29913c70bdb79537332daecfbbff09df4836dfe782289ab",
    ("glow_d8_l1", 1): "58f703fa524cbcd47ef6eeddabd70518d882a6ea293348b6f75701a82c53a70e",
    ("glow_d8_l1", 5): "743066b1587830b4588ebaa09d258d6a7818b274e5c693afbbc4989abc078e9e",
    ("glow_d8_l1", 33): "92f6f7c230580fb86fb8bfadae1f2ec77bd55bb3722a46be94bd5704af55be91",
    ("glow_d9_l2", 1): "1de70eeab566c2cd1ad479509edb9ce0b67c295be80147edb42aca8816a1c893",
    ("glow_d9_l2", 5): "511dd8c3a2b21a0212ff7364ed3cfa8989e0d46a113bb8a8220145cb2d7411ea",
    ("glow_d9_l2", 33): "751f337e02e5bfe7165d78ab5c3e61d941108d84102867b289b242390c9c891b",
    ("glow_d9_l3", 1): "066079d43fc19238814eab2bab4efb0e419d94cc8fc3977e32de13ab1a75c38c",
    ("glow_d9_l3", 5): "fd5759f66ceb96bf7448ef34c5c6aeed67bd08181e2c181884b8a125ead4d6e4",
    ("glow_d9_l3", 33): "babb00611b9b7431d3be3b77e76ad535b435338aff537c6c9192180f743103b8",
    ("nice_d10_c3", 1): "072acf4e8670527311135309bfb9ff269162a0a88109a27d471a808e2b3c3add",
    ("nice_d10_c3", 5): "601e7424e32a0e106237695b067c0d597714d083eed57c8ece6b868e15a28f50",
    ("nice_d10_c3", 33): "34fdf2f7d3bed3e820f53f29f3b19760ec84c83d68009a81b8fe0217d8a2a998",
    ("nice_d3_c1", 1): "cbbc2a2f3ae7fe9c5055e3ca7d3a98e36f1a3bdf3dfd5d6630a0d9c71f0c6190",
    ("nice_d3_c1", 5): "12875833c06bf08fe99e6b3f1e2d0af5adfc1d4abc443901cc5dce354da456cf",
    ("nice_d3_c1", 33): "f91ad213e98301b2a358ab5d0b64624c900e925b79a2da296c79612bbf6e1be9",
    ("nice_d7_c2", 1): "4951c4265043cb848b0e60fc030f0f5b6018dd1d56abf6b510a2e27210e7fb54",
    ("nice_d7_c2", 5): "bcd84f0aad0ef5bc7d55883a565a6a09d0ff21e9e42c257fc14a441bd450747e",
    ("nice_d7_c2", 33): "10ce9908a7f94d95eea74adb152357338f5318e5cfaeb51d3ca2cf93b8bb5238",
}


@pytest.mark.parametrize("rows", ROWS)
@pytest.mark.parametrize("name", sorted(MODELS))
def test_entry_points_match_the_recorded_bits(name, rows):
    assert digest(name, rows) == DIGESTS[name, rows]


@pytest.mark.parametrize("name", sorted(MODELS))
def test_graph_gradients_match_the_recorded_bits(name):
    assert graph_digest(name) == GRAPH_DIGESTS[name]


@pytest.mark.parametrize("rows", ROWS)
@pytest.mark.parametrize("name", sorted(MODELS))
def test_inverse_matches_the_recorded_bits(name, rows):
    assert inverse_digest(name, rows) == INVERSE_DIGESTS[name, rows]
