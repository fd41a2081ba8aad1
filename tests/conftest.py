import functools
import random

import pytest

from mcgverify.homology import abelianize, vector_period
from mcgverify.mcg import (
    Automorphism,
    Inner,
    NotInner,
    _common_power,
    _compose_pairs,
    _packed,
    evaluate,
    identity_status,
    inverse_word,
    is_inner,
    power_pairs,
)
from mcgverify.words import (
    _cancel,
    conjugator,
    get_presentation,
    inverse,
    invert,
    is_conjugate,
    is_trivial,
    mul,
)


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


def word_power(word, n):
    """The flat mapping-class word of ``word^n``; n < 0 repeats the inverse."""
    if n < 0:
        return inverse_word(word) * (-n)
    return tuple(word) * n


def mcg_equal(catalog, w1, w2):
    """True iff the two mapping-class words define the same mapping class,
    by ``identity_status`` of ``w1 = w2``."""
    status = identity_status(catalog, (tuple(w1), 1), (tuple(w2), 1))
    return {Inner: True, NotInner: False}[type(status)]


def identity_automorphism(genus):
    return Automorphism(genus, [(i,) for i in range(1, genus + 1)])


def automorphism(catalog, symbol):
    """The generator's automorphism, built from the images it moves."""
    images = [(i,) for i in range(1, catalog.genus + 1)]
    for j, im in catalog.moves(symbol):
        images[j] = im
    return Automorphism(catalog.genus, images)


@functools.lru_cache(maxsize=None)
def relator_rotations(genus):
    """The 2g rotations of the relator, then the 2g of its inverse, as
    tuples: the oracle for ``SurfacePresentation._rotations``."""
    relator = get_presentation(genus).relator
    rotations = []
    for base in (relator, inverse(relator)):
        rotations += [base[k:] + base[:k] for k in range(len(base))]
    return tuple(rotations)


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
        if isinstance(is_inner(pres, pairs), Inner):
            return n
    return None


def packed_table(auto):
    """The packed image pairs of an automorphism, the table ``is_inner``
    takes."""
    return tuple(_packed(auto.images))


def tuple_is_inner(pres, a):
    """Reference for ``is_inner`` on an :class:`Automorphism` of tuple
    images: the same homology check, classes and one candidate conjugator,
    with the candidate checked by ``is_trivial`` of the tuple word
    ``c x_i c^-1 a(x_i)^-1``."""
    g = pres.genus
    for i in range(1, g + 1):
        if pres.abelianized(a.images[i - 1]) != pres.abelianized((i,)):
            return NotInner(f"homology class of image of x{i} moved")
    for i in (1, 2):
        if not is_conjugate(pres, (i,), a.images[i - 1]):
            return NotInner(f"image of x{i} not conjugate to x{i}")
    b1 = conjugator(pres, (1,), a.images[0])
    k = _common_power(pres, b1, conjugator(pres, (2,), a.images[1]))
    if k is None:
        return NotInner("x1 and x2 have no common conjugator")
    c = mul(b1, (1 if k > 0 else -1,) * abs(k))
    c_inv = inverse(c)
    for i in range(2, g + 1):
        if not is_trivial(pres, mul(c, (i,), c_inv, inverse(a.images[i - 1]))):
            return NotInner(f"the one candidate conjugator fails on x{i}")
    return Inner(c)


def rescan_strict_pass(pres, w):
    """Reference: strict Dehn reduction of a freely reduced packed word
    that rescans from the start after every replacement, under the
    ``_doubled`` prefilter of the whole word."""
    g = pres.genus
    full = 2 * g
    rotations = pres._rotations
    while len(w) > g and pres._doubled(w):
        for i in range(len(w) - g):
            rotation = rotations.get(w[i : i + g])
            if rotation is not None and w[i + g] == rotation[g]:
                break
        else:
            return w
        m = g + 1
        n = len(w)
        while m < full and i + m < n and w[i + m] == rotation[m]:
            m += 1
        out = bytearray(w[:i])
        tail = rotation[m:]
        _cancel(out, invert(tail), tail)
        rest = w[i + m :]
        _cancel(out, rest, invert(rest))
        w = bytes(out)
    return w
