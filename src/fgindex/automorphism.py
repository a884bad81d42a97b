"""Positive primitive substitutions on a free group, with user-supplied inverse.

An automorphism is given by the images of the generators (all pure positive
words) together with the images of the generators under the inverse
automorphism.  validate() checks positivity, that the two substitutions are
mutually inverse, and primitivity of the incidence matrix via the classical
(N-1)^2 + 1 bound on the power needed for strict positivity.
"""

from __future__ import annotations

from itertools import chain
from operator import itemgetter

from .errors import CapExceeded, NotInverse, NotPositive, NotPrimitive, ParseError
from .words import (
    Alphabet,
    EPSILON,
    Purity,
    concat,
    invert,
    purity,
    require_nonempty,
)


class Automorphism:
    """A validated positive automorphism.  Construct through validate()."""

    def __init__(self, alphabet, images, inverse_images):
        self.alphabet = alphabet
        self.rank = alphabet.size
        self.images = tuple(tuple(w) for w in images)
        self.inverse_images = tuple(tuple(w) for w in inverse_images)
        # incidence[a-1][b-1] = occurrences of letter a in the image of b
        self.incidence = tuple(
            tuple(self.images[b].count(a) for b in range(self.rank))
            for a in range(1, self.rank + 1)
        )
        sources = [[] for _ in self.images]
        for b, img in enumerate(self.images):
            for x in img:
                sources[x - 1].append(b)
        # Row c of M.M^j adds the rows of the letters whose images hold c.
        self._row_sources = tuple((itemgetter(*s), len(s) > 1) for s in sources)
        self._img_cache = {}
        self._len_cache = {0: (1,) * self.rank}
        self._occ_cache = {1: self.incidence}
        self._affix_cache = {}
        self.two_factor_cache = None
        self._cycle_cache = {}
        self.inverse_blocks = None  # phi^-j(a) as gamma_bound encodes them

    # -- letter-level tables -------------------------------------------------

    def image_of_letter(self, a):
        return self.images[a - 1] if a > 0 else invert(self.images[-a - 1])

    def inverse_image_of_letter(self, a):
        if a > 0:
            return self.inverse_images[a - 1]
        return invert(self.inverse_images[-a - 1])

    def first_letter_map(self):
        return {a: self.images[a - 1][0] for a in self.alphabet.letters()}

    def last_letter_map(self):
        return {a: self.images[a - 1][-1] for a in self.alphabet.letters()}

    def letter_image(self, a, k, budget=None):
        """phi^k(a) for a positive letter a, memoized.  Missing levels are
        stepped up from the highest cached one.  Each level is charged to a
        budget once (Budget.charge_levels, key a), built level by level as it
        is charged, so a deep first request stops at the budget."""
        if budget is not None:
            budget.charge_levels(a, k, lambda j: len(self.letter_image(a, j)))
        cache = self._img_cache
        i = k
        while i > 0 and (a, i) not in cache:
            i -= 1
        word = cache[(a, i)] if i else (a,)
        for j in range(i + 1, k + 1):
            out = []
            for x in word:
                out.extend(self.images[x - 1])
            word = cache[(a, j)] = tuple(out)
        return word

    # -- arithmetic on counts, no materialization ----------------------------

    # Missing levels are stepped up in a loop from a cached one, so a deep
    # first request cannot exhaust the stack.

    def image_lengths(self, k):
        """Tuple of |phi^k(a)| over positive letters, exact integers."""
        cache = self._len_cache
        for i in range(len(cache), k + 1):
            last = cache[i - 1]
            cache[i] = tuple(sum(last[x - 1] for x in img) for img in self.images)
        return cache[k]

    def occurrence_matrix(self, k):
        """occ[a-1][b-1] = occurrences of a in phi^k(b); level j+1 is M.M^j.

        Only level 1 and the highest level requested so far are kept: the
        sweep reads no other, and each is rank^2 integers that grow with k.
        A lower level is stepped from level 0 again; a negative one is a KeyError.
        """
        cache = self._occ_cache
        if k in cache or k < 0:
            return cache[k]
        top = max(cache)
        start = top if top < k else 0
        r = range(self.rank)
        occ = cache[top] if start else tuple(tuple(int(a == b) for b in r) for a in r)
        for _ in range(start, k):
            occ = tuple(
                tuple(map(sum, zip(*rows(occ)))) if add else rows(occ)
                for rows, add in self._row_sources
            )
        if k > top:
            if top > 1:
                del cache[top]
            cache[k] = occ
        return occ

    def word_image_length(self, u, k):
        """|phi^k(u)| for a pure positive or pure negative word u, without
        materializing: no image cancels, and |phi^k(x^-1)| = |phi^k(x)|."""
        lens = self.image_lengths(k)
        return sum(lens[abs(x) - 1] for x in u)

    # -- whole-word application ----------------------------------------------

    def apply(self, u, k=1, budget=None):
        """phi^k(u) for a reduced word u, reduced."""
        if k < 0:
            raise ValueError("k must be nonnegative")
        word = tuple(u)
        if purity(word) is Purity.PURE_POSITIVE:
            # No cancellation can occur between pure positive images.
            out = []
            for x in word:
                out.extend(self.letter_image(x, k, budget))
            if budget is not None:
                budget.charge(len(out))
            return tuple(out)
        for _ in range(k):
            word = concat(*map(self.image_of_letter, word))
            if budget is not None:
                budget.charge(len(word))
        return word

    def conjugator_power(self, w, k, h, budget=None):
        """Word v with (inner(w) . phi^k)^h = inner(v) . phi^(k*h).

        inner(w) is conjugation u -> w^-1 u w.  v is
        phi^(k(h-1))(w) ... phi^k(w) w, computed incrementally.
        """
        if h < 0:
            raise ValueError("h must be nonnegative")
        acc = EPSILON
        for _ in range(h):
            acc = concat(self.apply(acc, k, budget=budget), w)
        return acc

    # -- periodic structure of the letter maps -------------------------------

    def cycle_letters(self, side):
        """Letters lying on a cycle of the first- or last-letter map.

        side 'first' uses the first letters of images, 'last' the last
        letters.  Returns {letter: cycle_length}, computed once per side;
        callers must not mutate it.
        """
        on_cycle = self._cycle_cache.get(side)
        if on_cycle is not None:
            return on_cycle
        func = self.first_letter_map() if side == "first" else self.last_letter_map()
        on_cycle = {}
        for start in self.alphabet.letters():
            seen = {}
            x = start
            step = 0
            while x not in seen:
                seen[x] = step
                x = func[x]
                step += 1
            if x == start:
                on_cycle[start] = step - seen[x]
        self._cycle_cache[side] = on_cycle
        return on_cycle

    # -- growing rays for periodic points ------------------------------------

    def ray(self, x, need, head):
        """The first `need` letters of the rightward-periodic ray starting at
        x, or with head=False the last `need` of the leftward one ending in x.

        For l the cycle length of x under the first- or last-letter map, the
        ray is the limit of phi^(l t)(x): each image starts (ends) with the
        previous one.  It is read through image_affix, t growing until it has
        `need` letters, so no whole image is built or cached.
        """
        cycle_len = self.cycle_letters("first" if head else "last")[x]
        word, i = (x,), 0
        while len(word) < need:
            i += cycle_len
            grown = self.image_affix(x, i, need, head)
            if len(grown) == len(word):
                raise CapExceeded("letter images do not grow under iteration")
            word = grown
        return word

    def image_affix(self, a, i, r, first):
        """The first r letters of phi^i(a) for a positive letter a, or with
        first=False its last r.  Each letter and side keeps its levels at one
        length, doubled when an r outgrows it, each level built from the one
        below, so nothing longer is built.  Read off points, not charged."""
        length, levels = self._affix_cache.get((a, first), (0, None))
        if r > length:
            length, levels = max(r, 2 * length), [(a,)]
            self._affix_cache[(a, first)] = (length, levels)
        while len(levels) <= i:
            word = tuple(chain.from_iterable(self.images[x - 1] for x in levels[-1]))
            levels.append(word[:length] if first else word[-length:])
        return levels[i][:r] if first else levels[i][-r:]


def parse_automorphism(text):
    """Parse the text format: a letters: line, then map/inv lines."""
    names = None
    maps = {}
    invs = {}
    for lineno, raw in enumerate(text.splitlines(), start=1):
        line = raw.split("#", 1)[0].strip()
        if not line:
            continue
        if line.startswith("letters:"):
            if names is not None:
                raise ParseError("duplicate letters: line", lineno)
            names = line[len("letters:"):].split()
            if not names:
                raise ParseError("letters: line lists no generators", lineno)
            continue
        parts = line.split("=", 1)
        if len(parts) != 2:
            raise ParseError(f"expected 'map x = ...' or 'inv x = ...', got {line!r}", lineno)
        head = parts[0].split()
        if len(head) != 2 or head[0] not in ("map", "inv"):
            raise ParseError(f"bad line head {parts[0].strip()!r}", lineno)
        if names is None:
            raise ParseError("letters: line must come first", lineno)
        target = maps if head[0] == "map" else invs
        if head[1] in target:
            raise ParseError(f"duplicate {head[0]} for {head[1]!r}", lineno)
        target[head[1]] = parts[1].strip()
    if names is None:
        raise ParseError("missing letters: line")
    alphabet = Alphabet(names)
    images = []
    inverse_images = []
    for name in names:
        if name not in maps:
            raise ParseError(f"missing map for generator {name!r}")
        if name not in invs:
            raise ParseError(f"missing inv for generator {name!r}")
        images.append(alphabet.parse_word(maps[name]))
        inverse_images.append(alphabet.parse_word(invs[name]))
    extra = (set(maps) | set(invs)) - set(names)
    if extra:
        raise ParseError(f"map/inv lines for unknown generators {sorted(extra)}")
    return alphabet, tuple(images), tuple(inverse_images)


def validate(alphabet, images, inverse_images):
    """Check the defining data and build an Automorphism."""
    n = alphabet.size
    if len(images) != n or len(inverse_images) != n:
        raise ParseError("need exactly one map and one inv per generator")
    for a, w in enumerate(images, start=1):
        require_nonempty(w, f"image of {alphabet.format_letter(a)}")
        if purity(tuple(w)) is not Purity.PURE_POSITIVE:
            raise NotPositive(
                f"image of {alphabet.format_letter(a)} is not pure positive: "
                f"{alphabet.format_word(tuple(w))}"
            )
    phi = Automorphism(alphabet, images, inverse_images)
    for a in alphabet.letters():
        back = concat(*map(phi.image_of_letter, phi.inverse_images[a - 1]))
        if back != (a,):
            raise NotInverse(
                f"phi(inv({alphabet.format_letter(a)})) = "
                f"{alphabet.format_word(back)}, expected {alphabet.format_letter(a)}"
            )
        forth = concat(*map(phi.inverse_image_of_letter, phi.images[a - 1]))
        if forth != (a,):
            raise NotInverse(
                f"inv(phi({alphabet.format_letter(a)})) = "
                f"{alphabet.format_word(forth)}, expected {alphabet.format_letter(a)}"
            )
    _check_primitive(phi)
    return phi


def _check_primitive(phi):
    n = phi.rank
    # Row a of the reachability relation as a bitmask over columns.
    base = [0] * n
    for a in range(n):
        for b in range(n):
            if phi.incidence[a][b] > 0:
                base[a] |= 1 << b
    full = (1 << n) - 1
    limit = (n - 1) ** 2 + 1 if n > 1 else 1
    # If any power is strictly positive, the one at Wielandt's limit is, and
    # so is every later one: no column is zero, since every image is
    # nonempty.  So repeated squaring decides once it passes the limit.
    cur, power = base, 1
    while not all(row == full for row in cur):
        if power >= limit:
            raise NotPrimitive(
                f"no power of the incidence matrix is strictly positive "
                f"(checked up to exponent {limit + 1})"
            )
        cur = [_bool_row_mul(row, cur, n) for row in cur]
        power *= 2


def _bool_row_mul(row_mask, base, n):
    out = 0
    for c in range(n):
        if row_mask >> c & 1:
            out |= base[c]
    return out


def load_automorphism(path):
    with open(path, "r", encoding="utf-8") as fh:
        text = fh.read()
    alphabet, images, inverse_images = parse_automorphism(text)
    return validate(alphabet, images, inverse_images)
