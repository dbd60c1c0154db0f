"""Report bytes pinned at fixed seeds other than the benchmark's seed 0.

Each digest is the sha256 of json.dumps(report.to_jsonable(), sort_keys=True),
recorded before the trial loop moved from Fraction to integer arithmetic; a
speedup must leave every one of them in place.  golden, tribonacci and
plastic have Z_beta = {0}, so their tail rows read 1.0 whatever is sampled;
the quartic's tail rows and the sampled points of the injectivity trials
(buckets, exact values and float coordinates) pin the sampler and the
window-to-torus map directly.  The chunk keeps a word in place of the values
of a trial its float pre-filter places, and the coordinates of no window, so
tests/oracles.rebuilt_chunk rebuilds both before hashing.
"""

import hashlib
import json

import pytest

from pisotcoding import (
    HomoclinicSpec,
    check_weak_finitarity,
    injectivity_experiment,
    kernel_values,
    tail_invariance_experiment,
)
from oracles import rebuilt_chunk

SEEDS = (3, 11)

INJECTIVITY = {  # (field, xi, seed) -> digest; 48 digits and 40 trials for xi = 1, else 36 and 60
    ("golden", "one", 3): "43cf9cb9593b61028fff4fa71021d5c250d766963d7fa3cccf0f238a87d6aca4",
    ("golden", "xi0", 3): "dd939aef12b4ae35fb6421548f778d7e592d643d144078fe651f332ffedebb68",
    ("tribonacci", "xi0", 3): "14c1a1c0b94257f97280a67b348da87bf14ded192accc9f453ec1e0a161c4936",
    ("plastic", "xi0", 3): "f8f3b975ad0f20d0b42c7534fe71f39c46a4df52fdf436b2ed11218c64800a97",
    ("golden", "one", 11): "b180240eeaaeb485262ea11ef33edab1ade7050d536060c74b1160a4f08b71ce",
    ("golden", "xi0", 11): "fc2fbcfa13a05c1402d8302da98836eb729b57e6f1897b2c6f245aea9be924b1",
    ("tribonacci", "xi0", 11): "1599eafc58b2b00e6c78f93336c95702aaf67bf77466a51b1ae0dd7031020902",
    ("plastic", "xi0", 11): "1599eafc58b2b00e6c78f93336c95702aaf67bf77466a51b1ae0dd7031020902",
}

TAILS = {  # (field, seed) -> digest; n = 20, 40 and 60 trials
    ("golden", 3): "6d7e659f876d31cdce391a03da798b277ac442437724961d3804fa123f67efe4",
    ("tribonacci", 3): "d28103dbbab2cd67f99345194bb531a11019cf4bf527659617e4a7a73c26570f",
    ("plastic", 3): "80454d73fef432695c7fc23262496362c668c05efc6582015dd515f1d330357c",
    ("quartic", 3): "1695743d5097e86f99a9d5734c61c0db4450f14fc07191056119829c51ad2f72",
    ("golden", 11): "6d7e659f876d31cdce391a03da798b277ac442437724961d3804fa123f67efe4",
    ("tribonacci", 11): "d28103dbbab2cd67f99345194bb531a11019cf4bf527659617e4a7a73c26570f",
    ("plastic", 11): "80454d73fef432695c7fc23262496362c668c05efc6582015dd515f1d330357c",
    ("quartic", 11): "035e50cd3be1afab9e6c91cc51f30faeaa7f41fe420542ed5e80b881b0ed97bb",
}

POINTS = {  # (field, xi, seed) -> digest of 40 trials of 36 digits, tolerance 2^-22
    ("golden", "one", 3): "d8173f1dbc861d26f5849cda7bb33d07b93cb54b947ee744cbcc4fb4fa3014e5",
    ("golden", "xi0", 3): "c5331babc4098b5e23ee1b2e5e86fed4853404a9eabadd62d6abf1050dbe617a",
    ("tribonacci", "xi0", 3): "200ddde8f8c6a0faff2f7d4ead6a48c465ee29c1c61cf194edec5e3988b4caf7",
    ("plastic", "xi0", 3): "9e92803919e9445d6ae47a4b741d3a0021653136c42b89dd7fbb85e4a3846f87",
    ("golden", "one", 11): "c6173949737d797e702743a9e0e245f979939c06d7fc6e7f881216b8e9be57bd",
    ("golden", "xi0", 11): "23e7fb8cb8f2d7607bfab87d1cc1ab1ce0c06c77df250a7b1a9592b895966295",
    ("tribonacci", "xi0", 11): "0fdefc5e61e825c4376c1156576792e7bae30c8f84dc461c1f6d31a60fd58ff5",
    ("plastic", "xi0", 11): "7bcec73da549e9536dfd0d4af863dace7031e602749a29ed9b211b05c8ebcb25",
}


def _sha(doc):
    return hashlib.sha256(json.dumps(doc, sort_keys=True).encode()).hexdigest()


def _spec(field, xi):
    return HomoclinicSpec(field, field.one if xi == "one" else field.xi0)


@pytest.fixture(scope="module")
def certs(request):
    names = ("golden", "tribonacci", "plastic", "quartic")
    return {n: check_weak_finitarity(request.getfixturevalue(n)) for n in names}


@pytest.mark.parametrize("name, xi, seed", sorted(INJECTIVITY))
def test_injectivity_report_digest(name, xi, seed, certs, request):
    n_digits, trials = (48, 40) if xi == "one" else (36, 60)
    spec = _spec(request.getfixturevalue(name), xi)
    rep = injectivity_experiment(spec, n_digits, trials, seed=seed, certificate=certs[name])
    assert _sha(rep.to_jsonable()) == INJECTIVITY[(name, xi, seed)]


@pytest.mark.parametrize("name, seed", sorted(TAILS))
def test_tail_report_digest(name, seed, certs, request):
    rep = tail_invariance_experiment(request.getfixturevalue(name), [20, 40], 60, seed,
                                     certificate=certs[name])
    assert _sha(rep.to_jsonable()) == TAILS[(name, seed)]


@pytest.mark.parametrize("name, xi, seed", sorted(POINTS))
def test_trial_points_digest(name, xi, seed, request):
    spec = _spec(request.getfixturevalue(name), xi)
    kernel = [a.coords for a, _ in kernel_values(spec) if not a.is_zero]
    entries, points, _ = rebuilt_chunk((spec, range(40), seed, 36, 2.0 ** -22, 2.0 ** -20, 10 ** 6, kernel))
    doc = [[list(b), [str(c) for c in vt.coords], [str(c) for c in vu.coords]] for b, vt, vu in entries]
    doc.append([[repr(c) for c in p] for p in points])
    assert hashlib.sha256(json.dumps(doc).encode()).hexdigest() == POINTS[(name, xi, seed)]
