"""Plain reference implementations the tests cross-check the package against.

Everything here favors obviousness over speed: stack-based reduction, images
substituted letter by letter, scans instead of incremental state.  Keep it
that way; these functions are the ground truth for the optimized paths.
"""

import math
import weakref
import zlib
from collections import deque

from fgindex import gamma, singularities
from fgindex.errors import InvariantViolation, NotPrimitive
from fgindex.errors import UndefinedShift
from fgindex.prefix_suffix import (
    Development,
    Triplet,
    _power_dev,
    apply_phi_power_key,
    canonicalize,
    check_chain,
    periodic_point,
    shift_dev,
    shift_key,
    two_factors,
)
from fgindex.words import EPSILON, concat, invert, require_nonempty


def reduce_word(seq):
    out = []
    for x in seq:
        if out and out[-1] == -x:
            out.pop()
        else:
            out.append(x)
    return tuple(out)


def apply_once(phi, u):
    out = []
    for x in u:
        out.extend(phi.images[x - 1] if x > 0 else invert(phi.images[-x - 1]))
    return reduce_word(out)


def apply_power(phi, u, k):
    u = tuple(u)
    for _ in range(k):
        u = apply_once(phi, u)
    return u


def unapply_once(phi, u):
    out = []
    for x in u:
        out.extend(
            phi.inverse_images[x - 1]
            if x > 0
            else invert(phi.inverse_images[-x - 1])
        )
    return reduce_word(out)


def unapply_power(phi, u, k):
    u = tuple(u)
    for _ in range(k):
        u = unapply_once(phi, u)
    return u


def loops_scan(phi, k):
    """All (prefix, letter, suffix) splittings of phi^k(a) around an a."""
    found = []
    for a in phi.alphabet.letters():
        image = apply_power(phi, (a,), k)
        for i, x in enumerate(image):
            if x == a:
                found.append((image[:i], a, image[i + 1:]))
    return found


def gamma_step(phi, k, side, u):
    if side == "minus":
        return apply_power(phi, (u[-1],), k) + tuple(u[:-1])
    return tuple(u[1:]) + apply_power(phi, (u[0],), k)


def gamma_iterates(phi, k, side, u, depth):
    out = [tuple(u)]
    for _ in range(depth):
        out.append(gamma_step(phi, k, side, out[-1]))
    return out


def _sign_runs(u):
    runs = []
    for x in u:
        s = x > 0
        if runs and runs[-1][0] == s:
            runs[-1][1] += 1
        else:
            runs.append([s, 1])
    return runs


def overhang_bound(phi, k, side):
    """Definition-level recomputation of gamma_bound."""
    best = 0
    for a in phi.alphabet.letters():
        image = apply_power(phi, (a,), k)
        if side == "minus":
            affixes = [image[i:] for i in range(1, len(image))]
        else:
            affixes = [image[:i] for i in range(1, len(image))]
        for y in affixes:
            runs = _sign_runs(unapply_power(phi, y, k))
            if side == "minus":
                if len(runs) == 1 and runs[0][0]:
                    best = max(best, 0)
                elif len(runs) == 2 and not runs[0][0]:
                    best = max(best, runs[0][1])
            else:
                if len(runs) == 1 and runs[0][0]:
                    best = max(best, 0)
                elif len(runs) == 2 and runs[0][0]:
                    best = max(best, runs[1][1])
    return best


class _SignTracker:
    """Reduced word in a deque plus an orientation-change counter."""

    def __init__(self):
        self.dq = deque()
        self.changes = 0

    def _same_sign(self, x, y):
        return (x > 0) == (y > 0)

    def push_left(self, y):
        if self.dq and self.dq[0] == -y:
            old = self.dq.popleft()
            if self.dq and not self._same_sign(old, self.dq[0]):
                self.changes -= 1
        else:
            if self.dq and not self._same_sign(y, self.dq[0]):
                self.changes += 1
            self.dq.appendleft(y)

    def push_right(self, y):
        if self.dq and self.dq[-1] == -y:
            old = self.dq.pop()
            if self.dq and not self._same_sign(old, self.dq[-1]):
                self.changes -= 1
        else:
            if self.dq and not self._same_sign(y, self.dq[-1]):
                self.changes += 1
            self.dq.append(y)


def encode_block(seq, rank):
    """The encoded block (enc, inv) of a reduced word, as
    fgindex.gamma._push_block takes it: each letter x is the base-128 digits
    of |x| - 1, as many as the largest letter of the rank needs, with the high
    bit set when x is positive; inv encodes the inverse word."""
    width = 1
    while 128**width < rank:
        width += 1

    def letter(x):
        v, digits = abs(x) - 1, []
        for _ in range(width):
            digits.append(v % 128 + (128 if x > 0 else 0))
            v //= 128
        return bytes(reversed(digits))

    enc = b"".join([letter(x) for x in seq])
    inv = b"".join([letter(-x) for x in reversed(seq)])
    return enc, inv


# Inverse letter images by map, {(a, k): phi^-k(a)}, and the highest level of
# each letter charged by budget, {a: k}, for gamma_bound_by_letters.
_INVERSE_IMAGES = weakref.WeakKeyDictionary()
_CHARGED = weakref.WeakKeyDictionary()


def inverse_letter_image(phi, a, k, budget=None):
    """phi^-k(a) for a positive letter a, stepped up from the highest cached
    level by substituting phi^-1 and cached per map.  Each level is charged
    once per budget, lowest first, as gamma_bound does, whichever budget's
    read built it."""
    cache = _INVERSE_IMAGES.setdefault(phi, {})
    i = k
    while i > 0 and (a, i) not in cache:
        i -= 1
    word = cache[(a, i)] if i else (a,)
    for j in range(i + 1, k + 1):
        word = cache[(a, j)] = unapply_once(phi, word)
    if budget is not None:
        charged = _CHARGED.setdefault(budget, {})
        for j in range(charged.get(a, 0) + 1, k + 1):
            budget.charge(len(cache[(a, j)]))
            charged[a] = j
    return word


def gamma_bound_by_letters(phi, k, side, budget=None):
    """gamma_bound with every preimage letter pushed through a deque.

    Same scan and same image calls as fgindex.gamma.gamma_bound, and the
    same budget charges: the images, and the inverse blocks of the side's
    scanned letters.  So both values and Budget.used must agree.
    """
    if side not in ("minus", "plus"):
        raise ValueError(f"bad side {side!r}")
    best = 0
    for a in phi.alphabet.letters():
        image = phi.letter_image(a, k, budget)
        tracker = _SignTracker()
        if side == "minus":
            order = range(len(image) - 1, 0, -1)
        else:
            order = range(0, len(image) - 1)
        for pos in order:
            block = inverse_letter_image(phi, image[pos], k, budget)
            if side == "minus":
                for y in reversed(block):
                    tracker.push_left(y)
            else:
                for y in block:
                    tracker.push_right(y)
            dq = tracker.dq
            if not dq:
                raise InvariantViolation("affix preimage reduced to nothing")
            if side == "minus":
                if tracker.changes == 0 and dq[0] > 0:
                    overhang = 0
                elif tracker.changes == 1 and dq[0] < 0:
                    overhang = 0
                    for x in dq:
                        if x > 0:
                            break
                        overhang += 1
                else:
                    continue
            else:
                if tracker.changes == 0 and dq[-1] > 0:
                    overhang = 0
                elif tracker.changes == 1 and dq[0] > 0 and dq[-1] < 0:
                    overhang = 0
                    for x in reversed(dq):
                        if x > 0:
                            break
                        overhang += 1
                else:
                    continue
            best = max(best, overhang)
    return best


def gamma_bound_charges_per_image(phi, k, side, budget):
    """The charges of gamma_bound made the way it first made them: every
    image, in letter order, then Budget.charge_levels for each distinct
    letter of that image's scanned positions, in scan order, on every image.
    A key already charged to level k charges nothing, so gamma_bound, which
    charges each block once per call, must make the same charges in the
    same order."""
    for a in phi.alphabet.letters():
        image = phi.letter_image(a, k, budget)
        scan = image[:-1] if side == "plus" else image[:0:-1]
        for c in dict.fromkeys(scan):
            budget.charge_levels(
                -c, k, lambda j: len(inverse_letter_image(phi, c, j))
            )


_POSITIVE_BYTES, _NEGATIVE_BYTES = bytes(range(128, 256)), bytes(range(128))


def overhangs_flat(phi, k, inverse):
    """{"minus": g, "plus": g} for level k, as fgindex.gamma._overhangs
    returns it, from the same walk over the sorted images with each
    preimage held flat: a bytearray that gamma._push_block reduces in place,
    copied at every depth a later image resumes from, with every sign check
    a strip over the whole preimage."""
    width = inverse.width
    letters = inverse.levels[0]
    walk = sorted((phi.letter_image(a, k), a) for a in phi.alphabet.letters())
    n = len(walk)
    shared = [0] + [
        gamma._common_prefix(x, y) for (x, _), (y, _) in zip(walk, walk[1:])
    ]
    saves = [set() for _ in walk]
    for j in range(1, n):
        if shared[j]:
            i = j - 1
            while shared[i] >= shared[j]:
                i -= 1
            saves[i].add(shared[j])

    def opens_own_image(w, j, depth):
        for t in range(j, n):
            if t > j and shared[t] < depth:
                return False
            if w.startswith(letters[walk[t][1]][0]):
                return True
        return False

    minus = plus = 0
    stack, blocks = [(0, b"")], {}
    for j, (image, _) in enumerate(walk):
        r, save = shared[j], saves[j]
        while stack[-1][0] > r:
            stack.pop()
        w = bytearray(stack[-1][1])
        last = len(image) - 1
        first = r if r and r == len(walk[j - 1][0]) else r + 1
        for depth in range(first, max(last, max(save, default=0)) + 1):
            if depth > r:
                c = image[depth - 1]
                block = blocks.get(c)
                if block is None:
                    block = blocks[c] = inverse.block(c, k)
                gamma._push_block(w, block, width)
                if depth in save:
                    stack.append((depth, bytes(w)))
                if depth > last:
                    continue
            size = len(w)
            if size <= width and (
                not w or (w[0] & 0x80 and opens_own_image(w, j, depth))
            ):
                raise InvariantViolation("affix preimage reduced to nothing")
            tail = (plus + 1) * width
            if size > tail and w[0] & 0x80 and not w[-tail:].lstrip(_NEGATIVE_BYTES):
                rest = w.rstrip(_NEGATIVE_BYTES)
                if not rest.lstrip(_POSITIVE_BYTES):
                    plus = (size - len(rest)) // width
            tail = (minus + 1) * width
            if size >= tail and not w[-tail:].lstrip(_POSITIVE_BYTES):
                rest = w.rstrip(_POSITIVE_BYTES)
                if not rest.lstrip(_NEGATIVE_BYTES) or (
                    rest[0] & 0x80
                    and not rest[width:].lstrip(_NEGATIVE_BYTES)
                    and opens_own_image(rest, j, depth)
                ):
                    minus = (size - len(rest)) // width
    return {"minus": minus, "plus": plus}


def peel_depth(phi, k, side, v):
    """Most image blocks strippable off the rotation-fed end of v."""
    letters = list(phi.alphabet.letters())
    if side == "minus":
        word = tuple(v)
        blocks = [apply_power(phi, (a,), k) for a in letters]
    else:
        word = tuple(reversed(v))
        blocks = [tuple(reversed(apply_power(phi, (a,), k))) for a in letters]
    frontier = {0}
    depth = 0
    while True:
        nxt = set()
        for p in frontier:
            for blk in blocks:
                q = p + len(blk)
                if q <= len(word) and word[p:q] == blk:
                    nxt.add(q)
        if not nxt:
            return depth
        depth += 1
        frontier = nxt


def star_scan(phi, k, side, x, g, depth=30):
    """First iterate whose value peels deeper than g, by direct search."""
    u = tuple(x)
    for i in range(1, depth + 1):
        u = gamma_step(phi, k, side, u)
        if peel_depth(phi, k, side, u) > g:
            return i
    raise AssertionError("no qualifying iterate within scan depth")


def match_scan(phi, k, side, x, y, depth=12):
    """Componentwise-least (i, j) with equal rotation values, or None."""
    xs = gamma_iterates(phi, k, side, x, depth)
    ys = gamma_iterates(phi, k, side, y, depth)
    hits = [
        (i, j)
        for i in range(depth + 1)
        for j in range(depth + 1)
        if xs[i] == ys[j]
    ]
    if not hits:
        return None
    i, j = min(hits)
    return i, j, xs[i]


class StreamByLetters:
    """Lazy rotation orbit of one affix, one letter per list item.

    Rotation always consumes at the front of the stored array and appends the
    substituted block at the back; the minus side stores words reversed so
    both sides share this shape.  Window i (the i-th rotation value, in
    stream coordinates) is data[i : i + lens[i]].

    The per-letter form of gamma.Stream, the reference for its byte-encoded
    windows.
    """

    def __init__(self, phi, k, side, start, budget=None):
        require_nonempty(tuple(start), "stream start")
        self.phi = phi
        self.k = k
        self.side = side
        self.budget = budget
        word = tuple(start) if side == "plus" else tuple(reversed(start))
        self.data = list(word)
        self.lens = [len(word)]
        self._blocks = {}

    def block(self, c):
        got = self._blocks.get(c)
        if got is None:
            img = self.phi.letter_image(c, self.k, self.budget)
            got = img if self.side == "plus" else tuple(reversed(img))
            self._blocks[c] = got
        return got

    def steps(self):
        return len(self.lens) - 1

    def _advance(self):
        t = self.steps()
        blk = self.block(self.data[t])
        if self.budget is not None:
            self.budget.charge(len(blk))
        self.data.extend(blk)
        self.lens.append(self.lens[t] - 1 + len(blk))

    def ensure_steps(self, i):
        while self.steps() < i:
            self._advance()

    def ensure_len(self, bound):
        """Grow until the newest window is strictly longer than bound."""
        while self.lens[-1] <= bound:
            self._advance()

    def window_equal(self, i, other, j):
        if self.lens[i] != other.lens[j]:
            return False
        return (
            self.data[i: i + self.lens[i]]
            == other.data[j: j + other.lens[j]]
        )

    def word_at(self, i):
        """The i-th rotation value as an actual word."""
        raw = self.data[i: i + self.lens[i]]
        if self.side == "minus":
            raw = reversed(raw)
        return tuple(raw)


def peelable_by_letters(stream, i, depth_needed):
    """Can more than depth_needed full letter images be peeled off the
    substituted end of window i of a StreamByLetters, leaving a pure positive
    remainder?  A breadth-first search over every parse, one list slice per
    block and offset: the reference for gamma._peelable."""
    lens_i = stream.lens[i]
    end = i + lens_i
    data = stream.data
    blocks = [list(stream.block(c)) for c in stream.phi.alphabet.letters()]
    reached = {0: 0}
    frontier = [0]
    while frontier:
        new_frontier = []
        for off in frontier:
            depth = reached[off]
            for blk in blocks:
                w = len(blk)
                if off + w > lens_i:
                    continue
                if data[end - off - w: end - off] != blk:
                    continue
                nxt = off + w
                if nxt in reached and reached[nxt] >= depth + 1:
                    continue
                reached[nxt] = depth + 1
                if depth + 1 > depth_needed:
                    return True
                new_frontier.append(nxt)
        frontier = new_frontier
    return False


def natural_peel_depth(stream, i):
    """How many of the blocks the rotation appended, last first, lie whole
    inside window i of a StreamByLetters: the depth of the natural parse."""
    depth = 0
    # The block appended at step t starts at letter t + lens[t].
    while depth < i and i - depth - 1 + stream.lens[i - depth - 1] >= i:
        depth += 1
    return depth


def all_matches_by_windows(phi, k, side, starts, budget):
    """gamma.all_matches by a hash join over every window of every stream.

    Windows are bucketed by (length, CRC-32 of their bytes); every pair of
    windows of two streams in one bucket is charged one letter, and
    window_equal decides whether it proposes a match.  Each pair of streams
    keeps its least equal windows: were windows i - 1 and j - 1 equal, they
    would share a bucket and be less.  Without a CRC-32 collision the charge
    is one letter per pair of equal windows.  The streams, star indices and
    horizon are gamma's own; the cutoff box is not checked.
    """
    if any(n == 0 for _, n in starts):
        raise ValueError("empty affixes are matched separately")
    if len(starts) < 2:
        return {}
    g = gamma.gamma_bound(phi, k, side, budget)
    table = gamma._block_table(phi, k, side)
    streams = [gamma.Stream(table, a, n, budget) for a, n in starts]
    stars = [gamma.star_index(s, g) for s in streams]
    horizon = max(s.lens[i] for s, i in zip(streams, stars))
    buckets = {}
    for idx, s in enumerate(streams):
        s.ensure_len(horizon)
        for i, n in enumerate(s.lens):
            window = bytes(s.data[i * s.width:(i + n) * s.width])
            buckets.setdefault((n, zlib.crc32(window)), []).append((idx, i))
    candidates = {}
    for entries in buckets.values():
        for pos, (xi, m) in enumerate(entries):
            for yi, n in entries[pos + 1:]:
                if xi == yi:
                    continue
                budget.charge(1)
                pair = (xi, yi) if xi < yi else (yi, xi)
                cand = (m, n) if xi < yi else (n, m)
                old = candidates.get(pair)
                if old is not None and old <= cand:
                    continue
                if streams[pair[0]].window_equal(
                    cand[0], streams[pair[1]], cand[1]
                ):
                    candidates[pair] = cand
    out = {}
    for (xi, yi), (i, j) in sorted(candidates.items()):
        w = streams[xi].word_at(i)
        out[(xi, yi)] = (i, j, invert(w) if side == "plus" else w[::-1])
    return out


def two_factor_scan(phi, cap=40, length_cap=300_000):
    """Two-letter factors of high images, scanned until stable."""
    prev = None
    streak = 0
    words = [(a,) for a in phi.alphabet.letters()]
    for _ in range(cap):
        words = [apply_once(phi, w) for w in words]
        if sum(len(w) for w in words) > length_cap:
            break
        cur = set()
        for w in words:
            cur.update(zip(w, w[1:]))
        if cur == prev:
            streak += 1
            if streak >= 3:
                return cur
        else:
            streak = 0
        prev = cur
    return prev


def conjugator_iterate(phi, w, k, h):
    acc = EPSILON
    for _ in range(h):
        acc = reduce_word(apply_power(phi, acc, k) + tuple(w))
    return acc


def twisted_apply(phi, w, k, u):
    """Image of u under conjugation-by-w composed with the k-th power."""
    return reduce_word(invert(w) + apply_power(phi, u, k) + tuple(w))


def ray_fixed_at_power(phi, point, w, k, h, length=200):
    """Expansion-level fixedness: both rays reproduce themselves.

    Only usable when phi^(k*h) of a length-`length` word stays tractable.
    """
    wh = conjugator_iterate(phi, w, k, h)
    u, v = point.expand(length)
    m = length // 2
    lhs_v = reduce_word(invert(wh) + apply_power(phi, v, k * h))
    lhs_u = reduce_word(invert(wh) + apply_power(phi, u, k * h))
    assert len(lhs_v) >= m and len(lhs_u) >= m
    return lhs_v[:m] == v[:m] and lhs_u[:m] == u[:m]


def head_letter(phi, b, m):
    for _ in range(m):
        b = phi.images[b - 1][0]
    return b


def tail_letter(phi, c, m):
    for _ in range(m):
        c = phi.images[c - 1][-1]
    return c


def periodic_pair_power(phi, c, b, cap=200):
    """Least m with both boundary letter walks back at their start."""
    for m in range(1, cap + 1):
        if tail_letter(phi, c, m) == c and head_letter(phi, b, m) == b:
            return m
    raise AssertionError("no common return within cap")


def periodic_seeds(phi, k):
    """Seed pairs (c, b): phi^k(c) ends with c, phi^k(b) starts with b,
    and cb is an admissible factor.  Each pair pins one periodic point."""
    tails = phi.cycle_letters("last")
    heads = phi.cycle_letters("first")
    admissible = two_factors(phi)
    out = [
        (c, b)
        for c, lc in sorted(tails.items())
        if k % lc == 0
        for b, lb in sorted(heads.items())
        if k % lb == 0 and (c, b) in admissible
    ]
    return tuple(out)


def blank_anchors_every_level(phi, top):
    """{side: {k: anchors}} for every level k up to top: the letters on the
    side's cycles (first letters on the minus side, last letters on the
    plus side) whose length divides k, however few."""
    return {
        side: {
            k: sorted(a for a, n in phi.cycle_letters(end).items() if k % n == 0)
            for k in range(1, top + 1)
        }
        for side, end in (("minus", "first"), ("plus", "last"))
    }


def merge_every_blank_class(phi, k, registry, schedule):
    """Merge each side's class of level k's blank-affix loops whenever its
    anchors in schedule are two or more, skipping none already merged."""
    for side, end in (("minus", "last"), ("plus", "first")):
        anchors = schedule[side][k]
        if len(anchors) < 2:
            continue
        seeds, admissible = sorted(phi.cycle_letters(end)), two_factors(phi)
        pairs = [(x, a) if side == "minus" else (a, x) for a in anchors for x in seeds]
        pts = [periodic_point(phi, c, b) for c, b in pairs if (c, b) in admissible]
        singularities.merge(
            phi, registry, singularities.Singularity(singularities.Label(EPSILON, k), pts)
        )


def recompose(phi, chain, budget=None):
    """Inverse of desubstitute: collapse a level-1 chain to one triplet."""
    k = len(chain)
    p_parts = []
    s_parts = []
    for i in range(k - 1, -1, -1):
        p_parts.append(phi.apply(chain[i].p, i, budget=budget))
    for i in range(k):
        s_parts.append(phi.apply(chain[i].s, i, budget=budget))
    p = concat(*p_parts)
    return Triplet(p + (chain[0].a,) + concat(*s_parts), len(p), k, chain[-1].parent)


def minimal_phi_power(phi, point, cap=10**6):
    """Smallest m >= 1 with the point fixed by m substitution steps."""
    if point.kind() == "per":
        c, b, n = point.per_data()
        if n != 0:
            return None
        lc = phi.cycle_letters("last")[c]
        lb = phi.cycle_letters("first")[b]
        return math.lcm(lc, lb)
    dev = point.dev()
    for m in range(1, cap + 1):
        if _power_dev(phi, dev, m).key() == dev.key():
            return m
    return None


def check_primitive_by_stepping(phi):
    """automorphism._check_primitive one power at a time: raise NotPrimitive
    unless some power of the incidence matrix up to exponent
    (N-1)^2 + 2 is strictly positive."""
    n = phi.rank
    base = [0] * n
    for a in range(n):
        for b in range(n):
            if phi.incidence[a][b] > 0:
                base[a] |= 1 << b
    full = (1 << n) - 1
    cur = list(base)
    limit = (n - 1) ** 2 + 1 if n > 1 else 1
    for _ in range(limit):
        if all(row == full for row in cur):
            return
        cur = [_bool_row_mul(cur[a], base, n) for a in range(n)]
    if all(row == full for row in cur):
        return
    raise NotPrimitive(
        f"no power of the incidence matrix is strictly positive "
        f"(checked up to exponent {limit + 1})"
    )


def _bool_row_mul(row_mask, base, n):
    out = 0
    for c in range(n):
        if row_mask >> c & 1:
            out |= base[c]
    return out


# -- the level gate's tables, recomputed the slow way ---------------------------


def occurrence_matrices_by_product(phi, k):
    """[occ_1, ..., occ_k], each level the dense product of the one before
    with the incidence matrix: occ[a-1][b-1] = occurrences of a in phi^j(b)."""
    base = phi.incidence
    n = phi.rank
    out = [base]
    for _ in range(k - 1):
        prev = out[-1]
        out.append(
            tuple(
                tuple(
                    sum(prev[a][c] * base[c][b] for c in range(n))
                    for b in range(n)
                )
                for a in range(n)
            )
        )
    return out


def inverse_length_bounds(phi, k):
    """Upper bounds on reduced inverse image lengths, by unreduced counts."""
    cur = [len(w) for w in phi.inverse_images]
    for _ in range(k - 1):
        cur = [
            sum(cur[abs(x) - 1] for x in phi.inverse_images[c])
            for c in range(phi.rank)
        ]
    return cur


def level_estimate(phi, k, occ):
    """The level gate's projected cost of level k as (floor, stream), from
    occ = occ_k and the inverse bounds rebuilt from level 1."""
    lens = [sum(col) for col in zip(*occ)]
    mat = sum(lens)
    inv_bounds = inverse_length_bounds(phi, k)
    gb = sum(
        sum(occ[c][a] for a in range(phi.rank)) * inv_bounds[c]
        for c in range(phi.rank)
    )
    n_loops = sum(occ[a][a] for a in range(phi.rank))
    stream = n_loops * 2 * (max(inv_bounds) + 2) * max(lens)
    return mat + gb, stream


# -- symbolic points moved one letter or one substitution step at a time --------


def _aligned_period(dev, n):
    """dev.per rotated so the cycle picks up at level n of the old chain."""
    r = (n - len(dev.pre)) % len(dev.per)
    return dev.per[r:] + dev.per[:r]


def _shift_once(phi, dev, forward):
    """Development of the point one letter right (forward) or left of dev's:
    the lowest level with a letter on that side steps onto it, and every
    level below restarts at the matching end of its parent's image."""
    horizon = len(dev.pre) + len(dev.per)
    side = (lambda t: t.s) if forward else (lambda t: t.p)
    i0 = next((i for i in range(horizon) if side(dev.at(i)) != EPSILON), None)
    if i0 is None:
        direction = "forward" if forward else "backward"
        raise UndefinedShift(f"development carries no {direction} letters")
    n = max(len(dev.pre), i0 + 1)
    work = [dev.at(i) for i in range(n)]
    t = work[i0]
    work[i0] = Triplet(t.image, t.pos + (1 if forward else -1), 1, t.parent)
    for i in range(i0 - 1, -1, -1):
        w = phi.images[work[i + 1].a - 1]
        work[i] = Triplet(w, 0 if forward else len(w) - 1, 1, work[i + 1].a)
    return canonicalize(Development(tuple(work), _aligned_period(dev, n)))


def shift_dev_by_steps(phi, dev, n):
    """fgindex.prefix_suffix.shift_dev as |n| one-letter shifts, each
    canonicalized: the reference for the carry through level offsets."""
    out = dev
    for _ in range(abs(n)):
        out = _shift_once(phi, out, n > 0)
    if n != 0:
        check_chain(phi, out)
    return out


def power_key_by_steps(phi, dev, m):
    """Key of phi^m of the point developing as dev, one blank-prefix triplet
    prepended and canonicalized per substitution step."""
    for _ in range(m):
        front = dev.at(0).a
        w = phi.images[front - 1]
        head = Triplet(w, 0, 1, front)
        dev = canonicalize(Development((head,) + dev.pre, dev.per))
    return ("dev",) + dev.key()


def expand_by_images(phi, dev, length):
    """First `length` letters of both coordinates of the point developing as
    dev, from whole images phi^i(s_i) and phi^i(p_i)."""
    period = len(dev.per)
    cap = len(dev.pre) + period * (length + 2)
    v = [dev.at(0).a]
    i = 0
    while len(v) < length and i < cap:
        v.extend(phi.apply(dev.at(i).s, i))
        i += 1
    u = []
    i = 0
    while len(u) < length and i < cap:
        u.extend(invert(phi.apply(dev.at(i).p, i)))
        i += 1
    if len(v) < length or len(u) < length:
        raise InvariantViolation("development failed to fill its rays")
    return tuple(u[:length]), tuple(v[:length])


# -- rays read level by level, and fixing powers point by point -----------------


def ray_letters_from_level_zero(phi, word, i, r, from_end):
    """The first r letters of phi^i(word) for a positive word, or with
    from_end its last r: phi applied i times from level 0, r letters kept."""
    images = phi.images
    for _ in range(i):
        word = word[-r:] if from_end else word[:r]
        word = [y for x in word for y in images[x - 1]]
    return word[-r:] if from_end else word[:r]


def expand_from_level_zero(point, length):
    """SymbolicPoint.expand with each level's ray letters read from level 0.
    A periodic-seed point reads its windows, as the package does."""
    if point.kind() == "per":
        return invert(point.window(-length, 0)), point.window(0, length)
    dev, phi = point.dev(), point.phi
    cap = len(dev.pre) + len(dev.per) * (length + 2)
    v = [dev.at(0).a]
    i = 0
    while len(v) < length and i < cap:
        s = dev.at(i).s
        if s:
            v += ray_letters_from_level_zero(phi, s, i, length - len(v), False)
        i += 1
    u = []
    i = 0
    while len(u) < length and i < cap:
        p = dev.at(i).p
        if p:
            u += invert(ray_letters_from_level_zero(phi, p, i, length - len(u), True))
        i += 1
    if len(v) < length or len(u) < length:
        raise InvariantViolation("development failed to fill its rays")
    return tuple(u), tuple(v[:length])


def point_fixed_by_power(phi, point, w, k, h):
    """Whether the point is fixed by the h-th power of conj(w) . phi^k, with
    its own conjugator and rays read from level 0."""
    wh = conjugator_iterate(phi, w, k, h)
    d = len(wh)
    delta = -d if d and wh[0] > 0 else d
    if point.kind() == "per":
        key = point.key()
        moved = apply_phi_power_key(phi, key, k * h) == shift_key(phi, key, delta)
    else:
        dev = point.dev()
        moved = _power_dev(phi, dev, k * h).key() == shift_dev(phi, dev, delta).key()
    if not moved or not d:
        return moved
    u, v = expand_from_level_zero(point, d)
    return (u if wh[0] > 0 else v) == invert(wh)


def fixing_power_per_point(phi, sing, cap=512):
    """Least h fixing every point of the class: each point tries its own
    candidates (multiples of its seed cycles' lcm over k for a periodic
    point) and builds every conjugator afresh."""
    w, k = sing.label.w, sing.label.k
    total = 1
    for p in sing.point_list():
        step = 1
        if p.kind() == "per":
            c, b, _ = p.per_data()
            big = math.lcm(phi.cycle_letters("last")[c], phi.cycle_letters("first")[b])
            step = big // math.gcd(big, k)
        for h in range(step, step * cap + 1, step):
            if point_fixed_by_power(phi, p, w, k, h):
                total = math.lcm(total, h)
                break
        else:
            raise AssertionError(f"no fixing power below cap for {p!r}")
    return total
