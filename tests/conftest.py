import random

import pytest

from mcgverify.homology import abelianize, vector_period
from mcgverify.mcg import (
    Automorphism,
    Inner,
    NotInner,
    _compose_pairs,
    _unpacked,
    evaluate,
    identity_status,
    is_inner,
    power_pairs,
)
from mcgverify.words import get_presentation


@pytest.fixture(scope="session")
def pres3():
    return get_presentation(3)


@pytest.fixture(scope="session")
def pres4():
    return get_presentation(4)


@pytest.fixture(scope="session")
def pres5():
    return get_presentation(5)


@pytest.fixture()
def rng():
    return random.Random(0xC0FFEE)


def random_word(rng, genus, max_len, min_len=0):
    letters = [i for i in range(1, genus + 1)] + [-i for i in range(1, genus + 1)]
    return tuple(rng.choice(letters) for _ in range(rng.randrange(min_len, max_len + 1)))


def mcg_equal(catalog, w1, w2):
    """True iff the two mapping-class words define the same mapping class,
    by ``identity_status`` of ``w1 = w2``."""
    status = identity_status(catalog, (tuple(w1), 1), (tuple(w2), 1))
    return {Inner: True, NotInner: False}[type(status)]


def identity_automorphism(genus):
    return Automorphism(genus, [(i,) for i in range(1, genus + 1)])


def scan_order(catalog, word, limit):
    """Reference: the least n <= limit with evaluate(word)^n inner, or None.
    Only the multiples of the probe period p of v = (1, ..., g-1) under the
    homology matrix can be inner; T^p is read from the power table and each
    later multiple 2p, 3p, ... composes the last power with T^p."""
    word = tuple(word)
    pres = catalog.presentation
    period = vector_period(abelianize(evaluate(catalog, word)), range(1, catalog.genus), limit)
    if period is None:
        return None
    pairs = step = power_pairs(catalog, word, period)
    for n in range(period, limit + 1, period):
        if n > period:
            pairs = _compose_pairs(pres, pairs, step)
        if isinstance(is_inner(pres, Automorphism(catalog.genus, _unpacked(pairs))), Inner):
            return n
    return None
