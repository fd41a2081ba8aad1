import random

import pytest

from mcgverify.mcg import Automorphism, Inner, NotInner, identity_status
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
