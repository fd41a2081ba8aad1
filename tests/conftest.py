import functools
import random

import pytest

from mcgverify.homology import abelianize, vector_period
from mcgverify.mcg import (
    BETA_WORD,
    Inner,
    NotInner,
    compose,
    evaluate,
    identity_status,
    inverse_word,
    is_inner,
    power_pairs,
)
from mcgverify.words import (
    SurfacePresentation,
    _cancel,
    common_power,
    compose_pairs,
    conjugator,
    free_reduce,
    inverse,
    invert,
    is_conjugate,
    is_trivial,
    mul,
    pack,
    unpack,
)


@pytest.fixture(scope="session")
def pres3():
    return SurfacePresentation(3)


@pytest.fixture(scope="session")
def pres4():
    return SurfacePresentation(4)


@pytest.fixture(scope="session")
def pres5():
    return SurfacePresentation(5)


@pytest.fixture()
def rng():
    return random.Random(0xC0FFEE)


def random_word(rng, genus, max_len, min_len=0):
    letters = [i for i in range(1, genus + 1)] + [-i for i in range(1, genus + 1)]
    return tuple(rng.choice(letters) for _ in range(rng.randrange(min_len, max_len + 1)))


def catalog_symbols(catalog):
    """All positive-direction generator symbols of the catalog's genus."""
    g = catalog.genus
    out = [("a", i, 1) for i in range(1, g)]
    out += [("u", i, 1) for i in range(1, g)]
    if g >= 4:
        out.append(("b", 0, 1))
    out += [("e", 0, 1), ("y", 0, 1)]
    return out


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


def packed_table(images):
    """The packed table, ``(image, inverse)`` pairs, of a list of tuple
    images: the mapping-class value the package computes on."""
    return tuple((pack(im), pack(inverse(im))) for im in images)


def unpacked(pairs):
    """The tuple images of a packed table."""
    return tuple(unpack(b) for b, _ in pairs)


def generator_table(catalog, symbol):
    """The generator's packed table, built from the images it moves."""
    images = [(i,) for i in range(1, catalog.genus + 1)]
    for j, im in catalog.moves(symbol):
        images[j] = im
    return packed_table(images)


def _letter_images(genus):
    return [(i,) for i in range(1, genus + 1)]


def legacy_chain_twist_images(genus, i, sign=1):
    """Reference for ``chain_twist_images``: all g images of t_alpha_i."""
    ims = _letter_images(genus)
    if sign > 0:
        ims[i - 1] = (i, i, i + 1)
        ims[i] = (-(i + 1), -i, i + 1)
    else:
        ims[i - 1] = (i, -(i + 1), -i)
        ims[i] = (i, i + 1, i + 1)
    return ims


def legacy_transposition_images(genus, i, sign=1):
    """Reference for ``transposition_images``: all g images of u_i."""
    ims = _letter_images(genus)
    if sign > 0:
        ims[i - 1] = (i + 1,)
        ims[i] = (-(i + 1), -(i + 1), i, i + 1, i + 1)
    else:
        ims[i - 1] = (i, i, i + 1, -i, -i)
        ims[i] = (i,)
    return ims


def legacy_beta_twist_images(genus, sign=1):
    """Reference for ``beta_twist_images``: all g images of t_beta."""
    B = BETA_WORD if sign > 0 else inverse(BETA_WORD)
    Bi = inverse(B)
    ims = _letter_images(genus)
    ims[0] = free_reduce((1,) + B)
    ims[1] = free_reduce(Bi + (2,))
    ims[2] = free_reduce((-2,) + B + (2, 3))
    ims[3] = free_reduce((-3, -2) + Bi + (2, 3, 4))
    return ims


def legacy_moved(images):
    """(index, image) of every image that differs from its generator."""
    return tuple((j, im) for j, im in enumerate(images) if im != (j + 1,))


def legacy_catalog_moves(genus):
    """Reference for every symbol's ``moves`` in ``build_catalog(genus)``:
    each t_alpha_i, u_i and t_beta from its full list of g images with the
    unmoved ones dropped, one formula per index, and y = t_alpha_{g-1} u_{g-1}
    and t_eps = y^-1 t_alpha_{g-2} y by ``compose`` of those tables."""
    g = genus
    moves = {}
    for i in range(1, g):
        for s in (1, -1):
            moves[("a", i, s)] = legacy_moved(legacy_chain_twist_images(g, i, s))
            moves[("u", i, s)] = legacy_moved(legacy_transposition_images(g, i, s))
    if g >= 4:
        for s in (1, -1):
            moves[("b", 0, s)] = legacy_moved(legacy_beta_twist_images(g, s))

    def table(symbol):
        images = _letter_images(g)
        for j, im in moves[symbol]:
            images[j] = im
        return packed_table(images)

    y = compose(table(("a", g - 1, 1)), table(("u", g - 1, 1)))
    y_inv = compose(table(("u", g - 1, -1)), table(("a", g - 1, -1)))
    moves[("y", 0, 1)] = legacy_moved(unpacked(y))
    moves[("y", 0, -1)] = legacy_moved(unpacked(y_inv))
    for s in (1, -1):
        conj = compose(y_inv, compose(table(("a", g - 2, s)), y))
        moves[("e", 0, s)] = legacy_moved(unpacked(conj))
    return moves


def tuple_abelianize(images):
    """Reference for ``abelianize``: the H_1 matrix counted off a list of
    tuple images, exponent by exponent, with c_g eliminated."""
    g = len(images)
    columns = []
    for image in images[:-1]:
        counts = [0] * (g + 1)
        for letter in image:
            counts[abs(letter)] += 1 if letter > 0 else -1
        columns.append([counts[i] - counts[g] for i in range(1, g)])
    return tuple(zip(*columns))


@functools.lru_cache(maxsize=None)
def relator_rotations(genus):
    """The 2g rotations of the relator, then the 2g of its inverse, as
    tuples: the oracle for ``SurfacePresentation._rotations``."""
    relator = SurfacePresentation(genus).relator
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
            pairs = compose_pairs(pres, pairs, step)
        if isinstance(is_inner(pres, pairs), Inner):
            return n
    return None


def tuple_is_inner(pres, images):
    """Reference for ``is_inner`` on a list of tuple images: the same
    classes and one candidate conjugator, with the candidate checked by
    ``is_trivial`` of the tuple word ``c x_i c^-1 a(x_i)^-1``."""
    g = pres.genus
    for i in (1, 2):
        if not is_conjugate(pres, (i,), images[i - 1]):
            return NotInner(f"image of x{i} not conjugate to x{i}")
    b1 = conjugator(pres, (1,), images[0])
    k = common_power(pres, pack(b1), pack(conjugator(pres, (2,), images[1])))
    if k is None:
        return NotInner("x1 and x2 have no common conjugator")
    c = mul(b1, (1 if k > 0 else -1,) * abs(k))
    c_inv = inverse(c)
    for i in range(2, g + 1):
        if not is_trivial(pres, mul(c, (i,), c_inv, inverse(images[i - 1]))):
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
