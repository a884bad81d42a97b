"""Rotation iteration on loop affixes and the bound that makes it terminate.

The rotation gamma moves one letter out of a pure positive word and
substitutes its image back on the other end; a Stream holds the orbit of one
affix.  Two affixes that reach a common rotation value witness a pair of
singular points; the cutoff indices computed here bound how far the
iteration must be pushed before giving up, so the search is finite.
"""

from __future__ import annotations

import re
import zlib
from bisect import bisect_right
from functools import cached_property
from math import inf

from .errors import CapExceeded, InvariantViolation
from .words import invert

# Safety valve for the cutoff search; the peel condition is always reached
# long before this for a primitive map.
_STAR_CAP = 10_000

# For bytes.translate: positive letters 1..128 to one-byte codes; sign flips.
_ENCODE_ONE_BYTE = b"\0" + bytes(range(128, 256)) + bytes(127)
_FLIP_SIGNS = bytes(b ^ 0x80 for b in range(256))


def _common_suffix(x, end, y, size, n, width):
    """The most letters, at most n, that x[:end] and the memoryview y[:size]
    share at their ends, in width-byte letters.  Sharing a suffix is
    prefix-closed: bisect on endswith, which compares in place, once the
    last letter is seen to agree and the whole overlap is seen not to."""
    if not n or not x.endswith(y[size - width:size], 0, end):
        return 0
    if x.endswith(y[size - n * width:size], 0, end):
        return n
    lo, hi = 1, n
    while hi - lo > 1:
        # The last lo letters match: compare only the ones before them.
        mid = (lo + hi) // 2
        done = lo * width
        if x.endswith(y[size - mid * width: size - done], 0, end - done):
            lo = mid
        else:
            hi = mid
    return lo


def _push_block(w, block, width):
    """Freely reduce the bytearray w in place to w . enc, for an encoded block
    (enc, inv) of width-byte letters, in the encoding of _InverseBlocks: w
    and enc are reduced, so the longest common suffix of w and inv cancels."""
    enc, inv = block
    n = min(len(w), len(inv)) // width
    c = _common_suffix(w, len(w), memoryview(inv), len(inv), n, width)
    del w[len(w) - c * width:]
    w += memoryview(enc)[c * width:]


# The first four sign runs of a word, a group each, so lastindex counts its
# runs up to 4: every byte carries its letter's sign (see _letter_codes).
_RUN = rb"([\x80-\xff]+|[\x00-\x7f]+)"
_RUNS = re.compile(_RUN + (_RUN + b"?") * 3)


def _letter_codes(rank):
    """(width, letters): the letter encoding of every encoded word here.

    A letter x of a rank-`rank` alphabet is `width` bytes, the big-endian
    base-128 digits of |x| - 1 with the high bit set when x is positive, so
    every byte carries its letter's sign.  letters is {x: (enc(x),
    enc(x^-1))} over the signed letters.
    """
    width = max(1, ((rank - 1).bit_length() + 6) // 7)
    letters = {}
    for a in range(1, rank + 1):
        neg = bytes((a - 1) >> 7 * i & 0x7F for i in reversed(range(width)))
        pos = bytes(b | 0x80 for b in neg)
        letters[a], letters[-a] = (pos, neg), (neg, pos)
    return width, letters


def _encode(word, letters, width):
    """A positive word in the encoding of _letter_codes."""
    if width == 1:
        return bytes(word).translate(_ENCODE_ONE_BYTE)
    return b"".join([letters[x][0] for x in word])


def _positions(block, code, width):
    """The letter positions of the encoded letter code in an encoded block.
    A match at an offset that is not a multiple of width straddles two
    letters, and is skipped."""
    out, pos = [], block.find(code)
    while pos >= 0:
        if pos % width:
            pos = block.find(code, pos + 1)
        else:
            out.append(pos // width)
            pos = block.find(code, pos + width)
    return out


class EncodedLevel:
    """The images phi^k(a) of one level, each encoded once: blocks[a - 1] is
    phi^k(a) in the encoding of _letter_codes.  The loop census, the affix
    grouping of a full level and both sides' block tables read these."""

    def __init__(self, phi, k, inverse):
        self.width, self.letters = inverse.width, inverse.levels[0]
        self.blocks = tuple(
            _encode(phi.letter_image(a, k), self.letters, self.width)
            for a in phi.alphabet.letters()
        )

    def positions(self, a):
        """The positions of the letter a in phi^k(a)."""
        return _positions(self.blocks[a - 1], self.letters[a][0], self.width)


def encoded_level(phi, k, budget=None):
    """Level k's EncodedLevel, kept on phi's _InverseBlocks.  Every call,
    cached or not, charges what reading every image of the level in letter
    order charges."""
    if budget is not None:
        for a in phi.alphabet.letters():
            phi.letter_image(a, k, budget)
    inverse = _inverse_blocks(phi)
    level = inverse.images.get(k)
    if level is None:
        level = inverse.images[k] = EncodedLevel(phi, k, inverse)
    return level


class _InverseBlocks:
    """Encoded blocks (enc, inv) of phi^-j(x) for signed letters x, built on
    demand, one level from the one below, and kept on phi, together with the
    two gamma_bound values of each level whose walk has run, and the
    EncodedLevel of each forward level read so far.

    Letters are encoded as _letter_codes encodes them; inv encodes the
    inverse word.  Blocks are flat bytes, which gamma_bound's walk slices
    in place.  Level j of c is the reduced product, by _push_block, of the
    level j-1 blocks over the letters of phi^-1(c); the block of c^-1 is its
    letters reversed with every byte's sign bit flipped.  Nothing here is
    charged: gamma_bound charges each level of a block to its budget (see
    Budget.charge_levels).  bounds is {k: {"minus": g, "plus": g}}, and
    images is {k: EncodedLevel}.
    """

    def __init__(self, phi):
        # Not phi: a cycle through it would outlive phi's last reference.
        self.inverse_images = phi.inverse_images
        self.width, letters = _letter_codes(phi.rank)
        self.levels = [letters]
        self.bounds = {}
        self.images = {}

    def block(self, x, k):
        """Level k of x, built if it is missing."""
        try:
            return self.levels[k][x]
        except (IndexError, KeyError):
            self.levels += [{} for _ in range(len(self.levels), k + 1)]
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
            # Each product starts from its first block, which nothing cancels.
            w = bytearray(prev[word[0]][0])
            for x in word[1:]:
                _push_block(w, prev[x], self.width)
            enc = bytes(w)
            inv = _reversed(enc, self.width).translate(_FLIP_SIGNS)
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
    preimage, held as a stack of inverse-block slices, serves both (see
    _overhangs).  The first call at a level runs the walk and keeps both
    values on phi's _InverseBlocks; a later call at that level reads its
    side's value there.  Every call charges the budget, before any walk, for
    the words its own side reads: in letter order, the image of each letter,
    then the levels of the inverse blocks of its scanned letters that this
    budget has not been charged for (Budget.charge_levels, key -c for
    phi^-j(c)), each once per call; once every letter has been scanned, no
    later image is.
    """
    if side not in ("minus", "plus"):
        raise ValueError(f"bad side {side!r}")
    plus = side == "plus"
    inverse = _inverse_blocks(phi)
    scanned = set()
    for a in phi.alphabet.letters():
        image = phi.letter_image(a, k, budget)
        if len(scanned) == phi.rank:
            continue
        # Blocks charge in scan order: plus scans image[:-1] left to right,
        # minus image[1:] right to left.
        for c in dict.fromkeys(image[:-1] if plus else image[:0:-1]):
            if c not in scanned:
                scanned.add(c)
                budget.charge_levels(
                    -c, k, lambda j: len(inverse.block(c, j)[0]) // inverse.width
                )
    bounds = inverse.bounds.get(k)
    if bounds is None:
        bounds = inverse.bounds[k] = _overhangs(phi, k, inverse)
    return bounds[side]


def _common_prefix(x, y):
    """The length of the longest common prefix of two tuples."""
    lo, hi = 0, min(len(x), len(y))
    while lo < hi:
        mid = (lo + hi + 1) // 2
        if x[:mid] == y[:mid]:
            lo = mid
        else:
            hi = mid - 1
    return lo


def _overhangs(phi, k, inverse):
    """{"minus": g, "plus": g} for level k, from one walk over the distinct
    proper prefixes x of the images phi^k(a), each preimage P = phi^-k(x)
    reached from the one before it by one block.

    The plus side asks whether P is (positives+)(negatives).  The minus side
    asks the same of a^-1 P, the inverse of the suffix preimage, as
    (negatives+)(positives), for any letter a whose image has x as a proper
    prefix: if P starts with such an a, a^-1 P is P without its first letter;
    otherwise it is P with a^-1 in front, and P must be (negatives)
    (positives).  An all-positive P never starts with such an a, since then
    phi^k(P), which is x, would be at least as long as phi^k(a).  Both
    overhangs are the last run of P, so only a last run longer than the best
    so far is looked at.

    P is a persistent stack of slices of the level's inverse blocks, nothing
    copied: a node (blk, off, end, below, size, runs, first, last, head, c)
    puts blk[off:end], a slice of c's block, on top of the preimage below,
    with all the two sides ask of the whole preimage: its byte size, its
    sign runs (4 standing for 4 or more), the byte lengths of its first and
    last runs, and its first letter.  A push cancels whole slices off the
    top, cuts the one it stops in, and puts the block's uncancelled tail on
    top.  Each cancellation is read from a table kept for the walk, keyed
    by (letter of the slice's block, slice end, c, position in c's inverse
    block), which holds the overlap capped only by those two ends: each
    pair of ends is compared once, however many prefixes push it.

    The images are walked in sorted order, each resuming from its common
    prefix with the one before it: the node at each depth where a later
    image resumes is kept, by the last image to reach that depth before it.
    """
    width = inverse.width
    letters = inverse.levels[0]
    walk = sorted((phi.letter_image(a, k), a) for a in phi.alphabet.letters())
    n = len(walk)
    shared = [0] + [_common_prefix(x, y) for (x, _), (y, _) in zip(walk, walk[1:])]
    # The depths each image keeps its preimage at: image j resumes from the
    # last image before it that walked its depth shared[j].
    saves = [set() for _ in walk]
    for j in range(1, n):
        if shared[j]:
            i = j - 1
            while shared[i] >= shared[j]:
                i -= 1
            saves[i].add(shared[j])

    def opens_own_image(head, j, depth):
        """Whether head, a preimage's first letter, is a letter whose image
        has the first depth letters of image j as a proper prefix: the
        images from j on that share them."""
        for t in range(j, n):
            if t > j and shared[t] < depth:
                return False
            if head == letters[walk[t][1]][0]:
                return True
        return False

    blocks, overlaps = {}, {}

    def slice_node(blk, off, end, below, c):
        """The node of blk[off:end], a slice of c's block, on top of below."""
        m = _RUNS.match(blk, off, end)
        runs = m.lastindex
        first, last = m.end(1) - off, end - m.start(runs)
        if below is None:
            head = blk[off:off + width]
            return blk, off, end, None, end - off, runs, first, last, head, c
        b, _, e, _, size, r, f, t, head, _ = below
        if not (b[e - 1] ^ blk[off]) & 0x80:  # one run across the seam
            f += first if r == 1 else 0
            last += t if runs == 1 else 0
            runs -= 1
        size += end - off
        return blk, off, end, below, size, min(4, r + runs), f, last, head, c

    def push(node, c):
        """node's preimage times c's block, freely reduced: cancelled slices
        go, a partly cancelled one is cut, the block's tail goes on top."""
        enc, inv, far = blocks[c]
        pos = size = len(inv)
        while node and pos:
            blk, off, end, below = node[:4]
            span = end - off
            n = (span if span < pos else pos) // width
            if blk[end - 1] != inv[pos - 1]:
                m = 0  # the last letters differ in their last bytes
            else:
                key = node[9], end, c, pos
                m = overlaps.get(key)
                if m is None:
                    most = (end if end < pos else pos) // width
                    m = overlaps[key] = _common_suffix(blk, end, inv, pos, most, width)
                m = m if m < n else n
            pos -= m * width
            if m * width < span:
                if m:
                    node = slice_node(blk, off, end - m * width, below, node[9])
                break
            node = below
        cut = size - pos
        if cut < far and node:
            # The tail has four sign runs or more, and so has the preimage.
            return enc, cut, size, node, node[4] + size - cut, 4, 0, 0, node[8], c
        return slice_node(enc, cut, size, node, c) if cut < size else node

    minus = plus = 0
    stack = [(0, None)]
    for j, (image, _) in enumerate(walk):
        r, save = shared[j], saves[j]
        while stack[-1][0] > r:
            stack.pop()
        node = stack[-1][1]
        last = len(image) - 1
        # The common prefix was checked by the image before, unless it is
        # that whole image; a depth past the last proper prefix is walked
        # only for a later image to resume from.
        first = r if r and r == len(walk[j - 1][0]) else r + 1
        for depth in range(first, max(last, max(save, default=0)) + 1):
            if depth > r:
                c = image[depth - 1]
                if c not in blocks:
                    # A tail of enc has four sign runs or more if it starts
                    # before far, the start of enc's third run from the end:
                    # where inv's third run ends, as inv is enc reversed.
                    enc, inv = inverse.block(c, k)
                    m = _RUNS.match(inv)
                    far = len(enc) - m.end(3) if m.lastindex > 2 else 0
                    blocks[c] = enc, memoryview(inv), far
                node = push(node, c)
                if depth in save:
                    stack.append((depth, node))
                if depth > last:
                    continue
            if node is None or node[4] <= width and opens_own_image(node[8], j, depth):
                raise InvariantViolation("affix preimage reduced to nothing")
            if node[5] == 4:
                continue
            blk, _, end, _, _, runs, first_run, last_run, head, _ = node
            if blk[end - 1] & 0x80:
                # Minus: a^-1 P is (negatives+)(positives).
                if last_run > minus * width and (
                    runs < 3 or first_run == width and opens_own_image(head, j, depth)
                ):
                    minus = last_run // width
            elif runs == 2 and head[0] & 0x80 and last_run > plus * width:
                # Plus: P is (positives+)(negatives).
                plus = last_run // width
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
        # The common suffix, in bytes: one-byte letters to _common_suffix.
        n = _common_suffix(blk, len(blk), memoryview(shortest), len(shortest), n, 1)
    groups = {}
    for blk in blocks:
        if len(blk) > n:
            groups.setdefault(blk[-n - 1], []).append(blk)
    terminal = shortest if len(shortest) == n else None
    return n, terminal, {b: _suffix_trie(group) for b, group in groups.items()}


def _reversed(block, width):
    """An encoded word with its letters in reverse order."""
    if width == 1:
        return block[::-1]
    return b"".join([block[i:i + width] for i in range(len(block) - width, -1, -width)])


class _BlockTable:
    """The blocks phi^k(c) of every letter c in stream order (reversed on the
    minus side), sliced from level k's EncodedLevel.

    codes is {code: (c, block, n)}: code is the encoding of c read as a
    big-endian integer, and n counts the block's letters; lengths is
    {code: n}, letters is the encoding {x: (enc(x), enc(x^-1))} of signed
    letters, and trie, the blocks' _suffix_trie, is built on first read.
    """

    def __init__(self, level, side):
        self.letters, width, self.codes = level.letters, level.width, {}
        for c, blk in enumerate(level.blocks, 1):
            if side == "minus":
                blk = _reversed(blk, width)
            code = int.from_bytes(self.letters[c][0], "big")
            self.codes[code] = (c, blk, len(blk) // width)
        self.lengths = {code: e[2] for code, e in self.codes.items()}

    @cached_property
    def trie(self):
        return _suffix_trie([entry[1] for entry in self.codes.values()])


def _block_table(phi, k, side):
    """Level k's _BlockTable on one side."""
    return _BlockTable(encoded_level(phi, k), side)


class Stream:
    """Lazy rotation orbit of one loop affix.

    Rotation always consumes at the front of the stored bytes and appends the
    substituted block at the back; the minus side stores words reversed so
    both sides share this shape.  Letters are `width` bytes each, encoded as
    _letter_codes encodes them; positions and lengths count letters.
    Window i (the i-th rotation value, in stream order) is the letters
    i .. i + lens[i] - 1.  Windows start at 0..steps and each ends one block
    after the previous one, so the newest ends with the bytes; lens never
    falls, since every block has a letter.

    A loop phi^k(a) = p a s starts the stream of its affix (p on the minus
    side, s on the plus side), which is the last n letters of a's block in
    stream order: the start's bytes are sliced from the level's _BlockTable,
    which every stream of a level and side shares.
    """

    def __init__(self, blocks, letter, n, budget):
        self.blocks, self.table, self.lengths = blocks, blocks.codes, blocks.lengths
        self.budget = budget
        enc = blocks.letters[letter][0]
        self.width = len(enc)
        _, blk, m = self.table[int.from_bytes(enc, "big")]
        if n >= m:
            raise InvariantViolation("affix is not a suffix of its loop block")
        self.data = bytearray(memoryview(blk)[(m - n) * self.width:])
        self.lens = [n]

    def ensure_steps(self, i):
        self._grow(i, 0)

    def ensure_len(self, bound):
        """Grow until the newest window is strictly longer than bound."""
        self._grow(0, bound)

    def _grow(self, steps, bound):
        """Rotate until there are at least steps steps and the newest window
        is longer than bound, then charge what was appended, in one sum."""
        table, data, lens, w = self.table, self.data, self.lens, self.width
        t, size = len(lens) - 1, len(data)
        while t < steps or lens[t] <= bound:
            code = data[t] if w == 1 else int.from_bytes(data[t * w:(t + 1) * w], "big")
            _, blk, n = table[code]
            data += blk
            lens.append(lens[t] - 1 + n)
            t += 1
        if len(data) > size:
            self.budget.charge((len(data) - size) // w)

    def peek_len(self, i):
        """The length of window i, read off the stored letters 0 .. i - 1
        without growing; i must not pass the start's length."""
        data, w = self.data, self.width
        if w == 1:
            codes = data[:i]
        else:
            codes = [int.from_bytes(data[t * w:(t + 1) * w], "big") for t in range(i)]
        return self.lens[0] - i + sum(map(self.lengths.__getitem__, codes))

    def last_key(self):
        """(length, CRC-32 of the bytes) of the newest window, which runs to
        the end of the stored bytes.  Equal windows share a key; it only
        proposes a pair, and window_equal decides."""
        n = self.lens[-1]
        return n, zlib.crc32(self.data[len(self.data) - n * self.width:])

    def window_equal(self, i, other, j):
        n = self.lens[i]
        if n != other.lens[j]:
            return False
        w = self.width
        return self.data[i * w:(i + n) * w] == other.data[j * w:(j + n) * w]

    def word_at(self, i):
        """The letters of the i-th rotation value, in stream order."""
        w = self.width
        return tuple(
            self.table[int.from_bytes(self.data[t * w:(t + 1) * w], "big")][0]
            for t in range(i, i + self.lens[i])
        )


def _peelable(stream, i, depth_needed, ends):
    """Can more than depth_needed full letter images be peeled off the
    substituted end of window i, leaving a pure positive remainder?

    Any parse counts.  The one the rotation appended is tried first: the
    block of step t ends at letter t + lens[t], and the i - t blocks after it
    lie in window i when that is at least i.  Otherwise the parses are
    searched depth first, over letter-aligned byte offsets.  Each offset
    keeps the fewest blocks still needed by a parse that reached it, and
    one that reaches it needing as many or more is dropped: whatever it
    could peel, the earlier one peels too.  The byte lengths of the blocks
    ending at an offset, shortest first, are found by walking the suffix
    trie back from it (the block table builds it on the first such search);
    endswith compares in place, and a block that fails stops the walk, since
    every block below it in the trie ends with it.  ends keeps them by
    offset: the stream only appends, so they hold for every later window,
    which takes the ones that stay inside it.
    """
    t = i - depth_needed - 1
    if t >= 0 and stream.lens[t] > depth_needed:
        return True
    data, start = stream.data, i * stream.width
    end = start + stream.lens[i] * stream.width
    stack, fewest = [(end, depth_needed + 1)], {}
    while stack:
        pos, need = stack.pop()  # need: the blocks still to peel off pos
        lengths = ends.get(pos)
        if lengths is None:
            lengths = ends[pos] = []
            node = stream.blocks.trie
            while node is not None:
                n, blk, children = node
                if blk is not None:
                    if not data.endswith(blk, 0, pos):
                        break
                    lengths.append(n)
                if pos <= n:
                    break
                node = children.get(data[pos - n - 1])
        for n in lengths:
            nxt = pos - n
            if nxt < start:
                break
            if need == 1:
                return True
            if fewest.get(nxt, inf) >= need:
                fewest[nxt] = need - 1
                stack.append((nxt, need - 1))
    return False


def star_index(stream, g, horizon=0, bound=None):
    """Smallest positive step whose window peels deeper than g, or None if
    that window is no longer than horizon.  Peeling is monotone in the step:
    a chain of more than g blocks ending window i, less its first block,
    plus the block of step i, ends window i + 1.  So once the stream is
    grown past horizon, a check of the last window within it (none past
    _STAR_CAP) settles the star there or starts the search after it, which
    takes a step bound proved to peel without a check.  The block ends
    found are kept for this search only.  Growing the stream is charged; a
    peel check is not, since it reads only grown bytes."""
    stream.ensure_len(horizon)
    ends = {}
    last = min(bisect_right(stream.lens, horizon) - 1, _STAR_CAP)
    if last > 0 and _peelable(stream, last, g, ends):
        return None
    for i in range(max(last, 0) + 1, _STAR_CAP + 1):
        if i == bound:
            return i
        stream.ensure_steps(i)
        if _peelable(stream, i, g, ends):
            return i
    raise CapExceeded("rotation never reached the peel condition")


def _first_longer(stream, bound):
    """The first window longer than bound, in a stream whose newest window
    is."""
    i = bisect_right(stream.lens, bound)
    if i > _STAR_CAP:
        raise CapExceeded("rotation lengths failed to grow")
    return i


def _horizon(streams, g):
    """(horizon, stars, bounds): the longest star window of the streams,
    the star index of each stream that raised it, None for the others, and
    a step that peels deeper than g for each stream.

    Each stream visited is settled by star_index against the horizon so
    far, and one that does not raise it peels at its last window within it.
    An affix longer than g peels its natural parse deeper than g at step
    g + 1, its bound until visited, so its star window is at most its window
    g + 1, a cap read off the affix.  The uncapped streams go first, then
    the capped ones by falling cap while a cap beats the horizon, a tier of
    equal caps at a time, so that the streams visited do not depend on their
    order.  Past _STAR_CAP nothing is capped, so CapExceeded still fires.
    """
    tiers = {}
    for idx, s in enumerate(streams):
        capped = s.lens[0] > g and g < _STAR_CAP
        tiers.setdefault(s.peek_len(g + 1) if capped else inf, []).append(idx)
    stars, bounds, horizon = [None] * len(streams), [g + 1] * len(streams), 0
    for cap in sorted(tiers, reverse=True):
        if cap <= horizon:
            break
        for idx in tiers[cap]:
            s = streams[idx]
            stars[idx] = star_index(s, g, horizon)
            if stars[idx] is None:
                bounds[idx] = bisect_right(s.lens, horizon) - 1
            else:
                horizon = s.lens[stars[idx]]
    return horizon, stars, bounds


def all_matches(phi, k, side, starts, budget):
    """Minimal matches for every unordered pair of distinct nonempty affixes.

    starts holds one (a, n) per affix: a is the letter of a loop
    phi^k(a) = p a s with that affix (p on the minus side, s on the plus
    side), and n is the affix's length.  Shares one stream per affix and one
    hash join on the streams' last windows, so the whole level costs little
    more than growing each stream to the common horizon, the longest star
    window.  Only the streams that raise the horizon are searched for their
    stars (see _horizon), and a matched pair's unsearched stars, uncharged,
    below their bounds, for its cutoff box.  Returns {(xi, yi): (i, j, w)}
    indexed by positions in starts, with w the common rotation value as a
    label word: reversed on the minus side, inverted on the plus side.
    """
    if any(n == 0 for _, n in starts):
        raise ValueError("empty affixes are matched separately")
    if len(starts) < 2:
        return {}
    g = gamma_bound(phi, k, side, budget)  # charges the images the table reads
    table = _block_table(phi, k, side)
    streams = [Stream(table, a, n, budget) for a, n in starts]
    horizon, stars, bounds = _horizon(streams, g)
    for s in streams:
        s.ensure_len(horizon)
    # Rotation is deterministic, so once windows x_i and y_j are equal so
    # are x_{i+m} and y_{j+m}, with equal lengths.  No stream repeats a
    # window (its orbit would be periodic, its lengths would stop growing
    # and ensure_len could not pass the horizon), and every stream ends at
    # its first window longer than the horizon.  So the equal windows of
    # two streams are one diagonal that ends at both last windows: only
    # the last windows are keyed, and a pair whose last windows are equal
    # walks back to where the two orbits first meet, its least equal
    # windows, charging one letter per pair of equal windows.
    groups = {}
    for idx, s in enumerate(streams):
        groups.setdefault(s.last_key(), []).append(idx)
    candidates = {}
    for group in groups.values():
        for pos, xi in enumerate(group):
            sx, tx = streams[xi], len(streams[xi].lens) - 1
            for yi in group[pos + 1:]:
                sy, j = streams[yi], len(streams[yi].lens) - 1
                if not sx.window_equal(tx, sy, j):
                    continue
                i = tx
                while i and j and sx.window_equal(i - 1, sy, j - 1):
                    i, j = i - 1, j - 1
                budget.charge(tx - i + 1)
                candidates[(xi, yi)] = (i, j)
    out = {}
    for (xi, yi), (i, j) in sorted(candidates.items()):
        sx, sy = streams[xi], streams[yi]
        # An unsearched star window is no longer than the horizon, which
        # the stream has grown past: finding it now grows nothing.
        for idx in (xi, yi):
            if stars[idx] is None:
                stars[idx] = star_index(streams[idx], g, 0, bounds[idx])
        lx, ly = sx.lens[stars[xi]], sy.lens[stars[yi]]
        i0 = stars[xi] if lx > ly else _first_longer(sx, max(lx, ly))
        j0 = stars[yi] if ly > lx else _first_longer(sy, max(lx, ly))
        if i > i0 or j > j0:
            raise InvariantViolation("common rotation root escaped its cutoff box")
        w = sx.word_at(i)
        out[(xi, yi)] = (i, j, invert(w) if side == "plus" else w[::-1])
    return out
