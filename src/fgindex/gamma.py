"""Rotation iteration on loop affixes and the bound that makes it terminate.

The rotation gamma moves one letter out of a pure positive word and
substitutes its image back on the other end; a Stream holds the orbit of one
affix.  Two affixes that reach a common rotation value witness a pair of
singular points; the cutoff indices computed here bound how far the
iteration must be pushed before giving up, so the search is finite.
"""

from __future__ import annotations

import zlib
from collections import Counter

from .errors import CapExceeded, InvariantViolation
from .words import invert

# Safety valve for the cutoff search; the peel condition is always reached
# long before this for a primitive map.
_STAR_CAP = 10_000

# The bytes of positive and of negative letters, as _InverseBlocks encodes them.
_POSITIVE, _NEGATIVE = bytes(range(128, 256)), bytes(range(128))


def _push_block(w, block, width):
    """Freely reduce the bytearray w in place to w . enc, for an encoded block
    (enc, inv) of width-byte letters, in the encoding of _InverseBlocks.

    w and enc are reduced, so exactly the longest c with w ending in the last
    c letters of inv cancels; cancelling is prefix-closed, so c is found by
    bisection on endswith, which compares without copying, once the last
    letter is seen to cancel and the whole overlap is seen not to.
    """
    enc, inv = block
    inv, size = memoryview(inv), len(inv)
    n = min(len(w), size) // width
    if not n or not w.endswith(inv[size - width:]):
        c = 0
    elif w.endswith(inv[size - n * width:]):
        c = n
    else:
        lo, hi = 1, n
        while hi - lo > 1:
            # The last lo letters match: compare only the ones before them.
            mid = (lo + hi) // 2
            done = lo * width
            if w.endswith(inv[size - mid * width: size - done], 0, len(w) - done):
                lo = mid
            else:
                hi = mid
        c = lo
    del w[len(w) - c * width:]
    w += memoryview(enc)[c * width:]


class _InverseBlocks:
    """Encoded blocks (enc, inv) of phi^-j(x) for signed letters x, built on
    demand, one level from the one below, and kept on phi, together with the
    two gamma_bound values of each level whose walk has run.

    A letter x is `width` bytes, the base-128 digits of |x| - 1 with the high
    bit set when x is positive, so every byte carries its letter's sign; inv
    encodes the inverse word.  Level j of c is the reduced product, by
    _push_block, of the level j-1 blocks over the letters of phi^-1(c); the
    block of c^-1 is built alongside it from the inverted letters in reverse.
    A level of a letter is charged once, by the first read that reaches it;
    a block built by block() alone is charged by the first read after it.
    bounds is {k: {"minus": g, "plus": g}}.
    """

    def __init__(self, phi):
        # Not phi: a cycle through it would outlive phi's last reference.
        self.inverse_images = phi.inverse_images
        self.width = width = max(1, ((phi.rank - 1).bit_length() + 6) // 7)
        letters = {}
        for a in phi.alphabet.letters():
            neg = bytes((a - 1) >> 7 * i & 0x7F for i in reversed(range(width)))
            pos = bytes(b | 0x80 for b in neg)
            letters[a], letters[-a] = (pos, neg), (neg, pos)
        self.levels = [letters]
        self.charged = {}  # the highest level of each letter charged so far
        self.bounds = {}

    def read(self, x, k, budget):
        """Level k of x.  Each level j of |x| no earlier read charged is
        built and then charged |phi^-j(|x|)|."""
        c = abs(x)
        for j in range(self.charged.get(c, 0) + 1, k + 1):
            budget.charge(len(self.block(c, j)[0]) // self.width)
            self.charged[c] = j
        return self.block(x, k)

    def block(self, x, k):
        """Level k of x, built uncharged if it is missing."""
        self.levels += [{} for _ in range(len(self.levels), k + 1)]
        if x not in self.levels[k]:
            self._build(abs(x), k)
        return self.levels[k][x]

    def _build(self, c, j):
        """Level j of c and every lower level it needs, depth first."""
        levels, stack = self.levels, [(c, j)]
        while stack:
            y, i = stack.pop()
            if y in levels[i]:
                continue
            prev, word = levels[i - 1], self.inverse_images[y - 1]
            missing = [(abs(x), i - 1) for x in word if x not in prev]
            if missing:
                stack += [(y, i)] + missing
                continue
            w, w_inv = bytearray(), bytearray()
            for x in word:
                _push_block(w, prev[x], self.width)
            for x in reversed(word):
                _push_block(w_inv, prev[-x], self.width)
            enc, inv = bytes(w), bytes(w_inv)
            levels[i][y], levels[i][-y] = (enc, inv), (inv, enc)


def _inverse_blocks(phi):
    """phi's _InverseBlocks, made on first use."""
    phi.inverse_blocks = phi.inverse_blocks or _InverseBlocks(phi)
    return phi.inverse_blocks


def gamma_bound(phi, k, side, budget):
    """Largest mixed-sign overhang among qualifying affix preimages.

    On the minus side: over all strict nonempty suffixes y of any phi^k(a)
    whose reduced preimage splits as (negatives)(positives+), the maximum
    count of leading negatives.  Plus side mirrors with prefixes and
    (positives+)(negatives).  Zero when no suffix qualifies.

    Both sides come from one walk over the proper prefixes x of the images:
    where phi^k(a) = x y, phi^-k(y)^-1 = a^-1 phi^-k(x), so each prefix's
    preimage serves both (see _overhangs).  The first call at a level runs
    the walk and keeps both values on phi's _InverseBlocks; a later call at
    that level reads its side's value there.  Every call charges the budget
    only for its own side, before any walk, and exactly what a scan of that
    side's affixes pushing one block per position costs: in letter order,
    the image of each letter, the levels of the inverse blocks its scanned
    positions read that no earlier read charged, and one block per scanned
    position.
    """
    if side not in ("minus", "plus"):
        raise ValueError(f"bad side {side!r}")
    plus = side == "plus"
    inverse = _inverse_blocks(phi)
    for a in phi.alphabet.letters():
        image = phi.letter_image(a, k, budget)
        # The scanned positions, each letter first met where the scan meets
        # it (a Counter keeps that order), so the reads charge in scan order:
        # the plus side scans prefixes left to right, the minus side
        # suffixes right to left.
        size = 0
        for c, n in Counter(image[:-1] if plus else image[:0:-1]).items():
            size += n * len(inverse.read(c, k, budget)[0])
        budget.charge(size // inverse.width)
    bounds = inverse.bounds.get(k)
    if bounds is None:
        bounds = inverse.bounds[k] = _overhangs(phi, k, inverse)
    return bounds[side]


def _common_prefix(x, y):
    """The length of the longest common prefix of two tuples."""
    differ = (i for i, (p, q) in enumerate(zip(x, y)) if p != q)
    return next(differ, min(len(x), len(y)))


def _overhangs(phi, k, inverse):
    """{"minus": g, "plus": g} for level k, from one walk over the distinct
    proper prefixes x of the images phi^k(a), each preimage P = phi^-k(x)
    built once by _push_block.

    The plus side asks whether P is (positives+)(negatives).  The minus side
    asks the same of a^-1 P, the inverse of the suffix preimage, as
    (negatives+)(positives), for any letter a whose image has x as a proper
    prefix: if P starts with such an a, a^-1 P is P without its first letter;
    otherwise it is P with a^-1 in front, and P must be (negatives)
    (positives).  An all-positive P never starts with such an a, since then
    phi^k(P), which is x, would be at least as long as phi^k(a).  Both
    overhangs are the last run of P, so only a last run longer than the best
    so far is looked at.

    The images are walked in sorted order, each resuming from its common
    prefix with the one before it.  The preimage is copied only at the depths
    where a later image resumes, by the last image to reach that depth before
    it, so at most N - 1 copies are kept at once.
    """
    width = inverse.width
    letters = inverse.levels[0]
    walk = sorted((phi.letter_image(a, k), a) for a in phi.alphabet.letters())
    n = len(walk)
    shared = [0] + [_common_prefix(x, y) for (x, _), (y, _) in zip(walk, walk[1:])]
    # The depths each image copies its preimage at: image j resumes from the
    # last image before it that walked its depth shared[j].
    saves = [set() for _ in walk]
    for j in range(1, n):
        if shared[j]:
            i = j - 1
            while shared[i] >= shared[j]:
                i -= 1
            saves[i].add(shared[j])

    def opens_own_image(w, j, depth):
        """Whether w starts with a letter whose image has the first depth
        letters of image j as a proper prefix: the images from j on that
        share them."""
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
        # The common prefix was checked by the image before, unless it is
        # that whole image; a depth past the last proper prefix is walked
        # only for a later image to resume from.
        first = r if r and r == len(walk[j - 1][0]) else r + 1
        for depth in range(first, max(last, max(save, default=0)) + 1):
            if depth > r:
                c = image[depth - 1]
                block = blocks.get(c)
                if block is None:
                    block = blocks[c] = inverse.block(c, k)
                _push_block(w, block, width)
                if depth in save:
                    stack.append((depth, bytes(w)))
                if depth > last:
                    continue
            size = len(w)
            if size <= width and (
                not w or (w[0] & 0x80 and opens_own_image(w, j, depth))
            ):
                raise InvariantViolation("affix preimage reduced to nothing")
            # Plus: P is (positives+)(negatives).
            tail = (plus + 1) * width
            if size > tail and w[0] & 0x80 and not w[-tail:].lstrip(_NEGATIVE):
                rest = w.rstrip(_NEGATIVE)
                if not rest.lstrip(_POSITIVE):
                    plus = (size - len(rest)) // width
            # Minus: a^-1 P is (negatives+)(positives).
            tail = (minus + 1) * width
            if size >= tail and not w[-tail:].lstrip(_POSITIVE):
                rest = w.rstrip(_POSITIVE)
                if not rest.lstrip(_NEGATIVE) or (
                    rest[0] & 0x80
                    and not rest[width:].lstrip(_NEGATIVE)
                    and opens_own_image(rest, j, depth)
                ):
                    minus = (size - len(rest)) // width
    return {"minus": minus, "plus": plus}


def _suffix_trie(blocks):
    """Distinct nonempty blocks as a compressed trie on their reversed bytes.

    A node is (n, block, children): every block below it ends with the same n
    bytes, block is the one that is exactly those n bytes (or None), and
    children is {byte: node}, keyed by the byte before those n.
    """
    shortest = min(blocks, key=len)
    n = len(shortest)
    for blk in blocks:
        # The common suffix is the longest one of shortest that blk ends with.
        lo, hi = 0, n
        while lo < hi:
            mid = (lo + hi + 1) // 2
            if blk.endswith(memoryview(shortest)[len(shortest) - mid:]):
                lo = mid
            else:
                hi = mid - 1
        n = lo
    groups = {}
    for blk in blocks:
        if len(blk) > n:
            groups.setdefault(blk[-n - 1], []).append(blk)
    terminal = shortest if len(shortest) == n else None
    return n, terminal, {b: _suffix_trie(group) for b, group in groups.items()}


def _block_table(phi, k, side, budget):
    """(table, trie, letters) for the blocks phi^k(c) of every letter c in
    stream order (reversed on the minus side), letters encoded as
    _InverseBlocks encodes them.

    table is {code: (c, block, n)}: code is the encoding of c read as a
    big-endian integer, and n counts the block's letters.  trie is the
    blocks' _suffix_trie, and letters is _InverseBlocks' encoding
    {x: (enc(x), enc(x^-1))} of signed letters.
    """
    letters = _inverse_blocks(phi).levels[0]
    table = {}
    for c in phi.alphabet.letters():
        img = phi.letter_image(c, k, budget)
        if side == "minus":
            img = img[::-1]
        blk = b"".join([letters[x][0] for x in img])
        table[int.from_bytes(letters[c][0], "big")] = (c, blk, len(img))
    return table, _suffix_trie([entry[1] for entry in table.values()]), letters


class Stream:
    """Lazy rotation orbit of one loop affix.

    Rotation always consumes at the front of the stored bytes and appends the
    substituted block at the back; the minus side stores words reversed so
    both sides share this shape.  Letters are `width` bytes each, encoded as
    _InverseBlocks encodes them; positions and lengths count letters.
    Window i (the i-th rotation value, in stream order) is the letters
    i .. i + lens[i] - 1.  Windows start at 0..steps and each ends one block
    after the previous one.

    A loop phi^k(a) = p a s starts the stream of its affix (p on the minus
    side, s on the plus side), which is the last n letters of a's block in
    stream order: the start's bytes are sliced from the block table.
    """

    def __init__(self, table, letter, n, budget):
        self.table, self.trie, letters = table
        self.budget = budget
        enc = letters[letter][0]
        self.width = len(enc)
        _, blk, m = self.table[int.from_bytes(enc, "big")]
        if n >= m:
            raise InvariantViolation("affix is not a suffix of its loop block")
        self.data = bytearray(memoryview(blk)[(m - n) * self.width:])
        self.lens = [n]

    def steps(self):
        return len(self.lens) - 1

    def _code(self, t):
        """The table key of stored letter t."""
        w = self.width
        if w == 1:
            return self.data[t]
        return int.from_bytes(self.data[t * w:(t + 1) * w], "big")

    def _advance(self):
        t = len(self.lens) - 1
        _, blk, n = self.table[self._code(t)]
        self.budget.charge(n)
        self.data += blk
        self.lens.append(self.lens[t] - 1 + n)

    def ensure_steps(self, i):
        while self.steps() < i:
            self._advance()

    def ensure_len(self, bound):
        """Grow until the newest window is strictly longer than bound."""
        while self.lens[-1] <= bound:
            self._advance()

    def window_hash(self, i):
        """(length, CRC-32 of the bytes) of window i, read in place.  Equal
        windows share it; it only proposes a pair, and window_equal decides."""
        n, w = self.lens[i], self.width
        return n, zlib.crc32(memoryview(self.data)[i * w:(i + n) * w])

    def window_equal(self, i, other, j):
        n = self.lens[i]
        if n != other.lens[j]:
            return False
        w = self.width
        return self.data[i * w:(i + n) * w] == other.data[j * w:(j + n) * w]

    def word_at(self, i):
        """The letters of the i-th rotation value, in stream order."""
        return tuple(
            self.table[self._code(t)][0] for t in range(i, i + self.lens[i])
        )


def _peelable(stream, i, depth_needed):
    """Can more than depth_needed full letter images be peeled off the
    substituted end of window i, leaving a pure positive remainder?

    Any parse counts, not only the one the rotation appended.  Positions are
    letter-aligned byte offsets into the stream.  The blocks that can end at
    a position are found by walking the suffix trie back from it; endswith,
    bounded below by the window's start, compares each in place and fails
    when it does not fit.  A block that fails stops the walk, since every
    block below it in the trie ends with it.
    """
    w = stream.width
    start, end = i * w, (i + stream.lens[i]) * w
    data = stream.data
    reached = {end: 0}
    frontier = [end]
    while frontier:
        new_frontier = []
        for pos in frontier:
            depth = reached[pos] + 1
            node = stream.trie
            while node is not None:
                n, blk, children = node
                if blk is not None:
                    if not data.endswith(blk, start, pos):
                        break
                    nxt = pos - n
                    if reached.get(nxt, -1) < depth:
                        reached[nxt] = depth
                        if depth > depth_needed:
                            return True
                        new_frontier.append(nxt)
                if pos - n <= start:
                    break
                node = children.get(data[pos - n - 1])
        frontier = new_frontier
    return False


def star_index(stream, g, budget):
    """Smallest positive step whose window peels deeper than g."""
    for i in range(1, _STAR_CAP + 1):
        stream.ensure_steps(i)
        budget.charge(1)
        if _peelable(stream, i, g):
            return i
    raise CapExceeded("rotation never reached the peel condition")


def _first_longer(stream, bound):
    i = 0
    while True:
        stream.ensure_steps(i)
        if stream.lens[i] > bound:
            return i
        i += 1
        if i > _STAR_CAP:
            raise CapExceeded("rotation lengths failed to grow")


def all_matches(phi, k, side, starts, budget):
    """Minimal matches for every unordered pair of distinct nonempty affixes.

    starts holds one (a, n) per affix: a is the letter of a loop
    phi^k(a) = p a s with that affix (p on the minus side, s on the plus
    side), and n is the affix's length.  Shares one stream per affix and one
    hash join across all windows, so the whole level costs little more than
    growing each stream to the common horizon.  Returns {(xi, yi): (i, j, w)}
    indexed by positions in starts, with w the common rotation value as a
    label word: reversed on the minus side, inverted on the plus side.
    """
    if any(n == 0 for _, n in starts):
        raise ValueError("empty affixes are matched separately")
    if len(starts) < 2:
        return {}
    g = gamma_bound(phi, k, side, budget)
    table = _block_table(phi, k, side, budget)
    streams = [Stream(table, a, n, budget) for a, n in starts]
    stars = [star_index(s, g, budget) for s in streams]
    horizon = max(s.lens[i] for s, i in zip(streams, stars))
    for s in streams:
        s.ensure_len(horizon)
    buckets = {}
    for idx, s in enumerate(streams):
        for i in range(s.steps() + 1):
            buckets.setdefault(s.window_hash(i), []).append((idx, i))
    candidates = {}
    for entries in buckets.values():
        if len(entries) < 2:
            continue
        for pos, (xi, m) in enumerate(entries):
            for (yi, n) in entries[pos + 1:]:
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
    # Each pair keeps its least equal windows (i, j).  Windows i - 1 and
    # j - 1, were they equal, would share a key and be less, so (i, j) is
    # where the two orbits first meet.
    out = {}
    for (xi, yi), (i, j) in sorted(candidates.items()):
        sx, sy = streams[xi], streams[yi]
        lx = sx.lens[stars[xi]]
        ly = sy.lens[stars[yi]]
        if lx > ly:
            i0, j0 = stars[xi], _first_longer(sy, lx)
        elif ly > lx:
            i0, j0 = _first_longer(sx, ly), stars[yi]
        else:
            i0, j0 = _first_longer(sx, lx), _first_longer(sy, ly)
        if i > i0 or j > j0:
            raise InvariantViolation("common rotation root escaped its cutoff box")
        w = sx.word_at(i)
        out[(xi, yi)] = (i, j, invert(w) if side == "plus" else w[::-1])
    return out
