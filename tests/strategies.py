"""Hypothesis strategies for drawing inputs the bundled examples do not cover."""

from hypothesis import reject
from hypothesis import strategies as st

from fgindex.automorphism import validate
from fgindex.errors import NotPrimitive
from fgindex.words import Alphabet, invert

import oracles


def _elementary_move(n):
    """One elementary positive automorphism of rank n and its inverse, as
    (images, inverse_images) over letters 1..n."""
    ident = [(a,) for a in range(1, n + 1)]
    transvection = st.tuples(
        st.sampled_from(["right", "left"]),
        st.integers(1, n),
        st.integers(1, n - 1),
    )

    def transvect(move):
        kind, i, shift = move
        j = (i - 1 + shift) % n + 1
        images, inverse = list(ident), list(ident)
        if kind == "right":  # a_i -> a_i a_j, inverse a_i -> a_i a_j^-1
            images[i - 1], inverse[i - 1] = (i, j), (i, -j)
        else:  # a_i -> a_j a_i, inverse a_i -> a_j^-1 a_i
            images[i - 1], inverse[i - 1] = (j, i), (-j, i)
        return images, inverse

    def relabel(perm):
        back = [0] * n
        for a, b in enumerate(perm, start=1):
            back[b - 1] = a
        return [(b,) for b in perm], [(a,) for a in back]

    return st.one_of(
        transvection.map(transvect),
        st.permutations(range(1, n + 1)).map(relabel),
    )


def _substitute(table, word):
    """Image of a word under the substitution given by table, reduced."""
    out = []
    for x in word:
        out.extend(table[x - 1] if x > 0 else invert(table[-x - 1]))
    return oracles.reduce_word(out)


def relabelled(phi, perm):
    """phi conjugated by the generator permutation a -> perm[a - 1]."""

    def move(word):
        return tuple(perm[abs(x) - 1] if x > 0 else -perm[abs(x) - 1] for x in word)

    images, inverse = [None] * phi.rank, [None] * phi.rank
    for a in phi.alphabet.letters():
        images[perm[a - 1] - 1] = move(phi.images[a - 1])
        inverse[perm[a - 1] - 1] = move(phi.inverse_images[a - 1])
    return validate(phi.alphabet, images, inverse)


def reversed_map(phi):
    """tau phi tau, for tau the reversal of words: every image and every
    inverse image read backwards."""
    images = [w[::-1] for w in phi.images]
    inverse = [w[::-1] for w in phi.inverse_images]
    return validate(phi.alphabet, images, inverse)


@st.composite
def positive_automorphisms(draw, max_rank=4):
    """A product phi = e_1 . e_2 ... e_m of 2-8 elementary positive moves on
    rank 2 to max_rank, with phi^-1 = e_m^-1 ... e_1^-1 in closed form.
    Only primitive products pass validate; the rest are rejected."""
    n = draw(st.integers(2, max_rank), label="rank")
    moves = draw(st.lists(_elementary_move(n), min_size=2, max_size=8), label="moves")
    images = [(a,) for a in range(1, n + 1)]
    inverse = list(images)
    for e, e_inv in moves:
        images = [_substitute(images, w) for w in e]  # phi . e
        inverse = [_substitute(e_inv, w) for w in inverse]  # e^-1 . phi^-1
    try:
        return validate(Alphabet([f"x{i}" for i in range(n)]), images, inverse)
    except NotPrimitive:
        reject()
