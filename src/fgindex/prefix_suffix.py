"""Prefix-suffix machinery for the attracting subshift of a positive automorphism.

A development is a sequence of triplets (p_i, a_i, s_i) with
phi(a_{i+1}) = p_i * a_i * s_i; it records the desubstitution history of a
marked bi-infinite word.  Points of the subshift are represented symbolically,
either by an eventually periodic development (generic case, where the
development determines the point) or by periodic-ray seed letters when one
side of the development is blank.
"""

from __future__ import annotations

from collections import namedtuple
from itertools import chain, cycle

from .errors import InvariantViolation, UndefinedShift
from .gamma import encoded_level
from .words import EPSILON, invert


class Triplet(namedtuple("Triplet", "image pos level parent")):
    """One decomposition phi^level(parent) = p * a * s, held as the position
    of a in the image: p, a and s are read off the image, which loops and
    level-1 triplets share with phi's caches instead of copying."""

    __slots__ = ()

    @property
    def a(self):
        return self.image[self.pos]

    @property
    def p(self):
        return self.image[:self.pos]

    @property
    def s(self):
        return self.image[self.pos + 1:]

    def body(self):
        w, i = self.image, self.pos
        return (w[:i], w[i], w[i + 1:])

    def render(self, alphabet):
        parts = []
        for w in (self.p, (self.a,), self.s):
            parts.append(alphabet.format_word(tuple(w)) if w else "e")
        return f"({parts[0]}, {parts[1]}, {parts[2]})"


def loops(phi, k):
    """One Triplet per occurrence of a letter a in phi^k(a), so per
    phi^k(a) = p*a*s, on the cached image phi.letter_image(a, k).

    The occurrences are found in level k's encoded images (see
    gamma.encoded_level), which the affix grouping of a full level reads
    too.  Found by letter and then by position, each p a proper prefix of
    the next, they come out sorted by (a, p, s) for deterministic iteration.
    Their number is the trace of the level's occurrence matrix.
    """
    level = encoded_level(phi, k)
    out = []
    for a in phi.alphabet.letters():
        image = phi.letter_image(a, k)
        out += [Triplet(image, pos, k, a) for pos in level.positions(a)]
    occ = phi.occurrence_matrix(k)
    if len(out) != sum(occ[a][a] for a in range(phi.rank)):
        raise InvariantViolation("loop census disagrees with the occurrence matrix")
    return tuple(out)


def two_factors(phi):
    """Length-2 factors of the subshift language, as ordered letter pairs.

    Closure of "factors of images of current factors", seeded with the
    interior factors of every generator image.  The iteration count is capped
    as a safety net; the set stabilizes far sooner.
    """
    if phi.two_factor_cache is not None:
        return phi.two_factor_cache
    factors = set()
    for a in phi.alphabet.letters():
        img = phi.images[a - 1]
        factors.update(zip(img, img[1:]))
    cap = phi.rank * phi.rank + 2
    for _ in range(cap):
        new = set(factors)
        for (x, y) in factors:
            joined = phi.images[x - 1] + phi.images[y - 1]
            new.update(zip(joined, joined[1:]))
        if new == factors:
            break
        factors = new
    phi.two_factor_cache = frozenset(factors)
    return phi.two_factor_cache


def desubstitute(phi, t):
    """Refine a level-k triplet into its chain of k level-1 triplets.

    The chain is returned innermost first: element 0 carries the same marked
    letter as t, element k-1 decomposes phi(t.parent).
    """
    chain = _split(phi, t.parent, t.pos, t.level)
    if chain[0].a != t.a:
        raise InvariantViolation("refinement lost the marked letter")
    return chain


def _split(phi, parent, pos, k):
    """Chain of k level-1 triplets, innermost first, marking the letter at
    offset pos of phi^k(parent).  Offsets are tracked with image lengths
    only; nothing above level 1 is materialized, and each triplet points
    into its parent's level-1 image."""
    chain = [None] * k
    for i in range(k - 1, -1, -1):
        w = phi.images[parent - 1]
        lens = phi.image_lengths(i)
        m = 0
        while m < len(w) and pos >= lens[w[m] - 1]:
            pos -= lens[w[m] - 1]
            m += 1
        if m >= len(w):
            raise InvariantViolation("marker fell outside the refined image")
        chain[i] = Triplet(w, m, 1, parent)
        parent = w[m]
    return chain


class Development(namedtuple("Development", "pre per")):
    """Eventually periodic development at level 1: pre, then per repeating."""

    __slots__ = ()

    def at(self, i):
        if i < len(self.pre):
            return self.pre[i]
        return self.per[(i - len(self.pre)) % len(self.per)]

    def key(self):
        return (
            tuple(t.body() for t in self.pre),
            tuple(t.body() for t in self.per),
        )


def make_development(pre, per):
    return canonicalize(Development(tuple(pre), tuple(per)))


def canonicalize(dev):
    """Primitive period, then absorb matching tail triplets into the cycle."""
    per = list(dev.per)
    n = len(per)
    for d in range(1, n):
        if n % d == 0 and per == per[:d] * (n // d):
            per = per[:d]
            break
    pre = list(dev.pre)
    while pre and pre[-1].body() == per[-1].body():
        per = [per[-1]] + per[:-1]
        pre.pop()
    return Development(tuple(pre), tuple(per))


def constant_development(phi, t):
    """Level-1 development of the point with constant level-k development t*."""
    chain = desubstitute(phi, t)
    return make_development((), chain)


def _aligned_period(dev, n):
    """dev.per rotated so the cycle picks up at level n of the old chain."""
    r = (n - len(dev.pre)) % len(dev.per)
    return dev.per[r:] + dev.per[:r]


def shift_dev(phi, dev, n):
    """Development of S^n of any point developing as dev.

    The marker sits at offset sum |phi^i(p_i)| over i < L in phi^L(a_L).
    Walk up to the first L where that offset plus n stays inside
    phi^L(a_L), keep levels L and up, and split the new offset back down.
    """
    if n == 0:
        return dev
    side = (lambda t: t.s) if n > 0 else (lambda t: t.p)
    endless = any(side(t) for t in dev.per)
    off = reach = level = 0
    while reach < abs(n):
        if level >= len(dev.pre) and not endless:
            direction = "forward" if n > 0 else "backward"
            raise UndefinedShift(f"development carries no {direction} letters")
        t = dev.at(level)
        lens = phi.image_lengths(level)
        off += sum(lens[x - 1] for x in t.p)
        reach += sum(lens[x - 1] for x in side(t))
        level += 1
    low = _split(phi, dev.at(level).a, off + n, level)
    per = _aligned_period(dev, max(level, len(dev.pre)))
    out = canonicalize(Development(tuple(low) + dev.pre[level:], per))
    check_chain(phi, out)
    return out


def check_chain(phi, dev):
    """Assert the defining relation phi(a_{i+1}) = p_i * a_i * s_i."""
    horizon = len(dev.pre) + len(dev.per) + 1
    for i in range(horizon):
        t = dev.at(i)
        nxt = dev.at(i + 1)
        if t.parent != nxt.a:
            raise InvariantViolation("development chain is broken")
        if t.image != phi.images[t.parent - 1]:
            raise InvariantViolation("development triplet mismatch")


class SymbolicPoint:
    """A point of the subshift: S^shift of the point with development anchor*,
    for a level-k triplet anchor with letters on both sides.  Periodic points
    come from periodic_point, with no anchor.
    """

    __slots__ = ("phi", "anchor", "shift", "_key", "_dev", "_firsts")

    def __init__(self, phi, anchor, shift):
        self.phi = phi
        self.anchor = anchor
        self.shift = shift
        self._key = None
        self._dev = None
        self._firsts = None

    def __repr__(self):
        if self.anchor is None:
            return f"SymbolicPoint{self._key}"
        return f"SymbolicPoint(anchor={self.anchor.body()}, shift={self.shift})"

    # -- canonical identity ---------------------------------------------------

    def key(self):
        """A complete, hashable invariant of the denoted point: ("per", c, b,
        n) for S^n of the periodic point with left ray from c and right ray
        from b, or ("dev", ...) holding the canonical level-1 development with
        the shift folded in.
        """
        if self._key is None:
            self._key = ("dev",) + self.dev().key()
        return self._key

    def kind(self):
        return self.key()[0]

    def per_data(self):
        kind, c, b, n = self.key()
        if kind != "per":
            raise InvariantViolation("not a periodic-seed point")
        return c, b, n

    def dev(self):
        """Canonical level-1 development of the point itself (generic only)."""
        if self._dev is None:
            base = constant_development(self.phi, self.anchor)
            self._dev = shift_dev(self.phi, base, self.shift)
        return self._dev

    # -- coordinate access ----------------------------------------------------

    def window(self, lo, hi):
        """Letters of the underlying bi-infinite word at positions [lo, hi)."""
        if lo >= hi:
            return EPSILON
        if self.kind() == "per":
            c, b, n = self.per_data()
            lo += n
            hi += n
            left = self.phi.ray(c, -lo, False) if lo < 0 else EPSILON
            right = self.phi.ray(b, hi, True) if hi > 0 else EPSILON
            out = []
            if lo < 0:
                out.extend(left[: min(hi, 0) - lo])
            if hi > 0:
                out.extend(right[max(lo, 0): hi])
            return tuple(out)
        u, v = self.expand(max(hi, 0) + max(-lo, 0) + 1)
        out = []
        for pos in range(lo, hi):
            out.append(v[pos] if pos >= 0 else -u[-pos - 1])
        return tuple(out)

    def expand(self, length):
        """First `length` letters of both coordinates of the point."""
        if self.kind() == "per":
            u = invert(self.window(-length, 0))
            v = self.window(0, length)
            return u, v
        dev, phi = self.dev(), self.phi
        v = (dev.at(0).a,) + _ray_letters(phi, dev, length - 1, True)
        return _ray_letters(phi, dev, length, False), v

    def first_letters(self):
        """Both first letters, read once: every stage after the sweep asks."""
        if self._firsts is None:
            u, v = self.expand(1)
            self._firsts = (u[0], v[0])
        return self._firsts

    def rho_power(self):
        """Minimal period of the level-1 development."""
        if self.kind() == "per":
            c, b, n = self.per_data()
            side = "first" if n >= 0 else "last"
            letter = b if n >= 0 else c
            return self.phi.cycle_letters(side)[letter]
        return len(self.dev().per)

    def sort_key(self):
        key = self.key()
        if key[0] == "per":
            return (0, key[1], key[2], key[3])
        return (1, key[1], key[2])

    def to_json(self, alphabet):
        key = self.key()
        u0, v0 = self.first_letters()
        out = {
            "U0": alphabet.format_letter(u0),
            "V0": alphabet.format_letter(v0),
        }
        if key[0] == "per":
            c, b, n = key[1], key[2], key[3]
            out["kind"] = "periodic"
            out["seed"] = {
                "left": alphabet.format_letter(c),
                "right": alphabet.format_letter(b),
            }
            out["shift"] = n
        else:
            dev = self.dev()
            out["kind"] = "development"
            out["development"] = {
                "preperiod": [t.render(alphabet) for t in dev.pre],
                "period": [t.render(alphabet) for t in dev.per],
            }
        return out


def _ray_letters(phi, dev, r, right):
    """The first r letters of the right ray s_0 phi(s_1) phi^2(s_2) ... of
    dev, or with right=False the inverse of the last r of its left ray
    ... phi^2(p_2) phi(p_1) p_0.  Each level reads its letters' affixes
    from Automorphism.image_affix, which keeps them across reads, so the
    cost is linear in the levels and letters read."""
    cap = len(dev.pre) + len(dev.per) * (r + 2)
    out = []
    for i, t in zip(range(cap), chain(dev.pre, cycle(dev.per))):
        for x in t.s if right else t.p[::-1]:
            if len(out) == r:
                break
            piece = phi.image_affix(x, i, r - len(out), right)
            out += piece if right else invert(piece)
        if len(out) == r:
            break
    if len(out) < r:
        raise InvariantViolation("development failed to fill its rays")
    return tuple(out)


def periodic_point(phi, c, b, n=0):
    """The point S^n of the periodic point with left ray from c and right ray
    from b, the one kind of point with no anchor."""
    point = SymbolicPoint(phi, None, n)
    point._key = ("per", c, b, n)
    return point


def complete_for_anchor(phi, t, shift):
    """All points S^shift(W) over points W developing as the anchor t*.

    A generic anchor pins a single point, a blank-sided one the periodic
    points of seed_points; a blank-suffix anchor's marked letter sits one to
    the left of the periodic point's origin.
    """
    blank_p, blank_s = t.pos == 0, t.pos == len(t.image) - 1
    if blank_p and blank_s:
        raise InvariantViolation("single-letter image in a primitive map")
    if not (blank_p or blank_s):
        return [SymbolicPoint(phi, t, shift)]
    return seed_points(phi, t.a, blank_p, shift if blank_p else shift - 1)


def seed_points(phi, a, blank_prefix, shift):
    """The points S^shift of the periodic points seeded by the anchor letter
    a: on the right, with every left seed on the last-letter cycles, for a
    blank prefix, else on the left with every right seed on the first-letter
    cycles; only seed pairs forming an admissible 2-factor count."""
    end = "last" if blank_prefix else "first"
    pairs = [(x, a) if blank_prefix else (a, x) for x in sorted(phi.cycle_letters(end))]
    admissible = two_factors(phi)
    return [periodic_point(phi, c, b, shift) for c, b in pairs if (c, b) in admissible]


# -- action of the substitution on canonical keys ------------------------------


def _cycle_step(phi, side, letter, m):
    cycles = phi.cycle_letters(side)
    if letter not in cycles:
        raise InvariantViolation("seed letter left its cycle")
    func = (
        phi.first_letter_map() if side == "first" else phi.last_letter_map()
    )
    out = letter
    for _ in range(m % cycles[letter]):
        out = func[out]
    return out


def apply_phi_power_key(phi, key, m):
    """Key of the image of a periodic point's key ("per", c, b, n) under m
    applications of the substitution: a shifted periodic point lands at the
    image length of its offset window.  Developments move by _power_dev.
    """
    _, c, b, n = key
    c2 = _cycle_step(phi, "last", c, m)
    b2 = _cycle_step(phi, "first", b, m)
    if n == 0:
        return ("per", c2, b2, 0)
    lens = phi.image_lengths(m)
    window = phi.ray(b, n, True) if n > 0 else phi.ray(c, -n, False)
    total = sum(lens[x - 1] for x in window)
    return ("per", c2, b2, total if n > 0 else -total)


def _power_dev(phi, dev, m):
    """Development of phi^m of the point: m blank-prefix triplets in front."""
    heads, front = [], dev.at(0).a
    for _ in range(m):
        w = phi.images[front - 1]
        heads.append(Triplet(w, 0, 1, front))
        front = w[0]
    heads.reverse()
    return canonicalize(Development(tuple(heads) + dev.pre, dev.per))


def shift_key(phi, key, delta):
    """Key of S^delta of a periodic point's key; developments move by
    shift_dev."""
    return ("per", key[1], key[2], key[3] + delta)


def point_fixed_by(phi, point, wh, m):
    """Whether the point is fixed by u -> wh^-1 phi^m(u) wh: the h-th power
    of conj(w) . phi^k for wh = phi.conjugator_power(w, k, h) and m = k*h."""
    d = len(wh)
    delta = -d if d and wh[0] > 0 else d
    if point.kind() == "per":
        key = point.key()
        moved = apply_phi_power_key(phi, key, m) == shift_key(phi, key, delta)
    else:
        dev = point.dev()
        moved = _power_dev(phi, dev, m).key() == shift_dev(phi, dev, delta).key()
    if not moved or not d:
        return moved
    u, v = point.expand(d) if d > 1 else [(x,) for x in point.first_letters()]
    return (u if wh[0] > 0 else v) == invert(wh)
