"""Bicolored words: necklaces, ornaments, banners, and the maps between them.

The alphabet is the set of barred and unbarred positive integers, written
here with a trailing apostrophe for the bar (3' is barred 3).  Circular-word
machinery orders this alphabet by 1 < 1' < 2 < 2' < ...; note this differs
from the order used to define excedance descent sets in permstats.
"""

import functools
import itertools
from collections import namedtuple

from .permstats import CapacityError, DEFAULT_CAP, Partition, Permutation, statistics
from .symfunc import MonExpansion, _weakly_decreasing_sequences


class Letter(namedtuple("Letter", "value barred", defaults=(False,))):
    """A positive integer value, barred or not."""

    __slots__ = ()

    def render(self):
        return "%d'" % self.value if self.barred else "%d" % self.value


def letter_key(a):
    """Sort key realizing the order 1 < 1' < 2 < 2' < ..."""
    return (a.value, 1 if a.barred else 0)


def word_key(word):
    return tuple(letter_key(a) for a in word)


def render_word(word):
    """Compact text form; commas only when a value needs several digits."""
    parts = [a.render() for a in word]
    if any(a.value > 9 for a in word):
        return ",".join(parts)
    return "".join(parts)


def parse_word(text):
    text = text.strip()
    if not text:
        return ()
    letters = []
    if "," in text:
        for tok in text.split(","):
            tok = tok.strip()
            if tok.endswith("'"):
                letters.append(Letter(int(tok[:-1]), True))
            else:
                letters.append(Letter(int(tok), False))
        return tuple(letters)
    i = 0
    while i < len(text):
        ch = text[i]
        if not ch.isdigit():
            raise ValueError("bad letter %r in %r" % (ch, text))
        i += 1
        if i < len(text) and text[i] == "'":
            letters.append(Letter(int(ch), True))
            i += 1
        else:
            letters.append(Letter(int(ch), False))
    return tuple(letters)


def _pair_ok(a, b):
    """Local condition: may letter b follow letter a?"""
    if a.barred:
        return b.value <= a.value
    return b.value >= a.value


class Necklace:
    """A primitive circular word stored as its largest rotation.

    Size-1 necklaces must be unbarred; larger ones satisfy the local
    conditions (barred letters are followed by weakly smaller values,
    unbarred by weakly larger) at every position, wrapping around.
    """

    __slots__ = ("word",)

    def __init__(self, letters):
        w = tuple(Letter(v, bool(b)) for v, b in letters)
        if not w:
            raise ValueError("necklace must be nonempty")
        if any(a.value < 1 for a in w):
            raise ValueError("letter values must be positive")
        n = len(w)
        if n == 1:
            if w[0].barred:
                raise ValueError("singleton necklace must be unbarred")
        else:
            for i in range(n):
                if not _pair_ok(w[i], w[(i + 1) % n]):
                    raise ValueError("invalid necklace %s" % render_word(w))
        rotations = [w[i:] + w[:i] for i in range(n)]
        if len(set(rotations)) != n:
            raise ValueError("necklace not primitive: %s" % render_word(w))
        self.word = max(rotations, key=word_key)

    @property
    def size(self):
        return len(self.word)

    @property
    def bars(self):
        return sum(1 for a in self.word if a.barred)

    def values(self):
        return sorted(a.value for a in self.word)

    def render(self):
        return "(%s)" % render_word(self.word)

    def __eq__(self, other):
        return isinstance(other, Necklace) and self.word == other.word

    def __hash__(self):
        return hash(self.word)

    def __lt__(self, other):
        return (-self.size, word_key(self.word)) < (-other.size, word_key(other.word))

    def __repr__(self):
        return "Necklace(%s)" % render_word(self.word)


class Ornament:
    """A multiset of necklaces, stored sorted (largest sizes first)."""

    __slots__ = ("necklaces",)

    def __init__(self, necklaces):
        self.necklaces = tuple(sorted(necklaces))
        if not all(isinstance(k, Necklace) for k in self.necklaces):
            raise TypeError("ornament takes necklaces")

    @property
    def size(self):
        return sum(k.size for k in self.necklaces)

    @property
    def bars(self):
        return sum(k.bars for k in self.necklaces)

    def type(self):
        return Partition(k.size for k in self.necklaces)

    def values(self):
        out = []
        for k in self.necklaces:
            out.extend(k.values())
        return sorted(out)

    def render(self):
        return "".join(k.render() for k in self.necklaces)

    def __eq__(self, other):
        return isinstance(other, Ornament) and self.necklaces == other.necklaces

    def __hash__(self):
        return hash(self.necklaces)

    def __repr__(self):
        return "Ornament(%s)" % self.render()


def parse_ornament(text):
    text = text.strip()
    if not text:
        return Ornament(())
    if not (text.startswith("(") and text.endswith(")")):
        raise ValueError("ornament text must be (...)(...)")
    chunks = text[1:-1].split(")(")
    return Ornament(Necklace(parse_word(c)) for c in chunks)


class Banner:
    """A linear bicolored word whose last letter is unbarred.

    Interior letters obey the same local conditions as necklaces but
    without wraparound.  The empty word is a banner.
    """

    __slots__ = ("word",)

    def __init__(self, letters):
        w = tuple(Letter(v, bool(b)) for v, b in letters)
        if any(a.value < 1 for a in w):
            raise ValueError("letter values must be positive")
        if w:
            if w[-1].barred:
                raise ValueError("banner must end unbarred")
            for i in range(len(w) - 1):
                if not _pair_ok(w[i], w[i + 1]):
                    raise ValueError("invalid banner %s" % render_word(w))
        self.word = w

    @property
    def length(self):
        return len(self.word)

    @property
    def bars(self):
        return sum(1 for a in self.word if a.barred)

    def values(self):
        return sorted(a.value for a in self.word)

    def lyndon_type(self):
        return Partition(len(f) for f in lyndon_factorize(self.word))

    def render(self):
        return render_word(self.word)

    def __eq__(self, other):
        return isinstance(other, Banner) and self.word == other.word

    def __hash__(self):
        return hash(("banner", self.word))

    def __repr__(self):
        return "Banner(%s)" % (self.render() or "empty")


def parse_banner(text):
    return Banner(parse_word(text))


def lyndon_factorize(word):
    """Factor into words each strictly larger than all their rotations.

    The factor sequence is weakly increasing and the factorization is
    unique; this is Duval's algorithm run against the reversed order.
    """
    w = tuple(word)
    n = len(w)
    out = []
    k = 0
    while k < n:
        i, j = k, k + 1
        while j < n and letter_key(w[i]) >= letter_key(w[j]):
            i = k if letter_key(w[i]) > letter_key(w[j]) else i + 1
            j += 1
        while k <= i:
            out.append(w[k:k + j - i])
            k += j - i
    return out


def increasing_factorize(word):
    """Split into blocks of the form a^j u with every letter of u below a.

    Block heads must weakly increase.  Returns None when no such
    factorization exists, which happens exactly when the Lyndon type
    has a part of size 1.  The factorization is unique when it exists.
    """
    w = tuple(word)
    n = len(w)
    out = []
    i = 0
    while i < n:
        a = w[i]
        j = i
        while j < n and w[j] == a:
            j += 1
        if j == n or letter_key(w[j]) >= letter_key(a):
            return None
        k = j
        while k < n and letter_key(w[k]) < letter_key(a):
            k += 1
        out.append(w[i:k])
        i = k
    return out


class CompatiblePair(namedtuple("CompatiblePair", "sigma s")):
    """A permutation with a weakly decreasing sequence dropping at Exd."""

    __slots__ = ()

    def __new__(cls, sigma, s):
        s = tuple(s)
        n = len(sigma.word)
        if len(s) != n:
            raise ValueError("sequence length must match permutation size")
        if any(v < 1 for v in s):
            raise ValueError("sequence values must be positive")
        exd = statistics(sigma).exd_set
        for i in range(1, n):
            if s[i - 1] < s[i]:
                raise ValueError("sequence must be weakly decreasing")
            if i in exd and s[i - 1] <= s[i]:
                raise ValueError("sequence must drop at position %d" % i)
        return super().__new__(cls, sigma, s)


def compatible_sequences(sigma, max_value):
    """All sigma-compatible sequences with values in 1..max_value: the
    monomials of F_{Exd(sigma)} in x_1..x_max_value, as weakly decreasing
    index sequences in reverse lexicographic order."""
    exd = statistics(sigma).exd_set
    return list(_weakly_decreasing_sequences(len(sigma.word), max_value, exd))


def gr_phi(pair):
    """Pair to ornament: cycle form, bar the excedances, relabel by s."""
    sigma, s = pair.sigma, pair.s
    necks = []
    for cyc in sigma.cycles():
        m = len(cyc)
        letters = []
        for idx, elem in enumerate(cyc):
            nxt = cyc[(idx + 1) % m]
            letters.append(Letter(s[elem - 1], nxt > elem))
        necks.append(Necklace(letters))
    return Ornament(necks)


def gr_eta(orn):
    """Ornament back to its compatible pair.

    Positions are ranked by their infinite clockwise readings under the
    order 1 < 1' < 2 < 2' < ...; the i-th largest position is labeled i
    and the labeled circular words become the cycles.  Comparing readings
    to length 2n suffices: readings from necklaces of sizes a and b are
    periodic with those periods, so they either differ within a + b
    letters or agree everywhere.  Ties (equal necklaces) go to the copy
    listed first, which does not affect the resulting permutation.
    """
    necks = orn.necklaces
    n = orn.size
    bound = 2 * n

    def reading(ni, off):
        w = necks[ni].word
        m = len(w)
        return tuple(letter_key(w[(off + i) % m]) for i in range(bound))

    positions = [(ni, off) for ni, k in enumerate(necks) for off in range(k.size)]
    positions.sort(key=lambda pos: (reading(*pos), -pos[0]), reverse=True)
    label = {pos: i + 1 for i, pos in enumerate(positions)}

    word = [0] * n
    values = [0] * n
    for ni, k in enumerate(necks):
        m = k.size
        for off in range(m):
            here = label[(ni, off)]
            word[here - 1] = label[(ni, (off + 1) % m)]
            values[here - 1] = k.word[off].value
    return CompatiblePair(Permutation(word), tuple(values))


def banner_to_ornament(banner):
    """Close up each Lyndon factor of the banner into a necklace."""
    return Ornament(Necklace(f) for f in lyndon_factorize(banner.word))


def ornament_to_banner(orn):
    """Concatenate the necklace words in weakly increasing order.

    Increasing here means by infinite repetition (u before v when uv < vu),
    not plain prefix-smaller lexicographic order; sorting a factor before a
    longer word it is a prefix of would merge the factors on re-reading.
    """
    def cmp(u, v):
        a, b = word_key(u + v), word_key(v + u)
        return -1 if a < b else (1 if a > b else 0)

    words = sorted((k.word for k in orn.necklaces), key=functools.cmp_to_key(cmp))
    flat = []
    for w in words:
        flat.extend(w)
    return Banner(flat)


class MarkedSequence(namedtuple("MarkedSequence", "values mark")):
    """A weakly increasing sequence with a mark before its last element."""

    __slots__ = ()

    def __new__(cls, values, mark):
        values = tuple(values)
        if len(values) < 2:
            raise ValueError("marked sequence needs length at least 2")
        if any(v < 1 for v in values):
            raise ValueError("values must be positive")
        if list(values) != sorted(values):
            raise ValueError("values must weakly increase")
        if not 1 <= mark < len(values):
            raise ValueError("mark must lie in 1..length-1")
        return super().__new__(cls, values, mark)


def _run_length(word, idx):
    j = idx
    while j < len(word) and word[j] == word[idx]:
        j += 1
    return j - idx


def gamma(banner):
    """Peel a marked sequence off a banner with no 1-part Lyndon factors.

    Returns (shorter banner, marked sequence); weights multiply and bar
    counts add across the two pieces.
    """
    w = banner.word
    n = len(w)
    if n < 2:
        raise ValueError("banner too short")
    factors = increasing_factorize(w)
    if factors is None:
        raise ValueError("banner has a Lyndon factor of size 1")
    last = factors[-1]
    a = last[0]
    p = _run_length(last, 0)
    tail = last[p:]
    l = len(tail)
    r = 1
    while tail[r - 1].barred:
        r += 1
    prev = tail[r - 2] if r >= 2 else a
    s = r
    while s < l and not tail[s].barred and letter_key(tail[s]) < letter_key(prev):
        s += 1
    if s < l and tail[s].barred and letter_key(tail[s]) <= letter_key(prev):
        s += 1
    head = []
    for f in factors[:-1]:
        head.extend(f)
    if s == l:
        chunk = last
        rest = head
    else:
        chunk = tail[:s]
        rest = head + list((a,) * p) + list(tail[s:])
    omega = tuple(sorted(x.value for x in chunk))
    b = sum(1 for x in chunk if x.barred)
    if s == l and not p <= b < p + l:
        raise AssertionError("bar count out of range")
    out = Banner(rest)
    if out.word and increasing_factorize(out.word) is None:
        raise AssertionError("remainder banner lost its factorization")
    return out, MarkedSequence(omega, b)


def gamma_inverse(banner, mseq):
    """Graft a marked sequence back onto a banner."""
    om = mseq.values
    b = mseq.mark
    d = len(om)
    barred_desc = [Letter(om[d - 1 - i], True) for i in range(b)]
    plain = [Letter(v, False) for v in om[:d - b]]
    w = banner.word
    if not w:
        return Banner(barred_desc + plain)
    factors = increasing_factorize(w)
    if factors is None:
        raise ValueError("banner has a Lyndon factor of size 1")
    lastf = factors[-1]
    a = lastf[0]
    if a.value <= om[-1]:
        return Banner(list(w) + barred_desc + plain)
    p = _run_length(lastf, 0)
    js = list(lastf[p:])
    pivot = barred_desc[-1]
    if letter_key(js[0]) > letter_key(pivot):
        middle = barred_desc + plain
    else:
        middle = barred_desc[:-1] + plain + [pivot]
    head = []
    for f in factors[:-1]:
        head.extend(f)
    return Banner(head + list((a,) * p) + middle + js)


def _swap_segment_even(letters, k, circular):
    """Swap values k and k+1 in place, then repair bars at the switches."""
    kk = k + 1
    new_vals = [kk if a.value == k else k for a in letters]
    bars = [a.barred for a in letters]
    m = len(letters)
    last = m if circular else m - 1
    for i in range(last):
        v, nv = new_vals[i], new_vals[(i + 1) % m]
        if v == kk and nv == k and not bars[i]:
            bars[i] = True
        elif v == k and nv == kk and bars[i]:
            bars[i] = False
    return [Letter(v, bar) for v, bar in zip(new_vals, bars)]


def _swap_segment_odd(letters, k):
    """Swap block lengths pairwise; bars stay positional except at the
    new block boundary, where a misplaced bar trades with its partner."""
    blocks = []
    for a in letters:
        if blocks and blocks[-1][0] == a.value:
            blocks[-1][1] += 1
        else:
            blocks.append([a.value, 1])
    if len(blocks) % 2 != 0:
        raise AssertionError("odd segment must have an even block count")
    bars = [a.barred for a in letters]
    new_vals = []
    pos = 0
    for t in range(0, len(blocks), 2):
        (v1, m1), (v2, m2) = blocks[t], blocks[t + 1]
        new_vals.extend([v1] * m2 + [v2] * m1)
        edge = pos + m2 - 1
        mirror = pos + m1 - 1
        if v1 == k:
            if bars[edge]:
                if bars[mirror] and mirror != edge:
                    raise AssertionError("bar landing spot occupied")
                bars[edge] = False
                bars[mirror] = True
        else:
            if not bars[edge]:
                if not bars[mirror]:
                    raise AssertionError("no bar available to move")
                bars[mirror] = False
                bars[edge] = True
        pos += m1 + m2
    return [Letter(v, bar) for v, bar in zip(new_vals, bars)]


def _swap_necklace(neck, k):
    kk = k + 1
    w = neck.word
    n = len(w)
    if not any(a.value in (k, kk) for a in w):
        return neck
    if all(a.value in (k, kk) for a in w):
        if n == 1:
            return Necklace([Letter(kk if w[0].value == k else k, False)])
        return Necklace(_swap_segment_even(list(w), k, circular=True))
    starts = [i for i in range(n)
              if w[i].value in (k, kk) and w[(i - 1) % n].value not in (k, kk)]
    out = list(w)
    for start in starts:
        idxs = []
        i = start
        while w[i % n].value in (k, kk):
            idxs.append(i % n)
            i += 1
        letters = [w[i] for i in idxs]
        switches = sum(1 for t in range(len(letters) - 1)
                       if letters[t].value != letters[t + 1].value)
        if switches % 2 == 0:
            fixed = _swap_segment_even(letters, k, circular=False)
        else:
            fixed = _swap_segment_odd(letters, k)
        for i, a in zip(idxs, fixed):
            out[i] = a
    return Necklace(out)


def involution_swap_values(orn, k):
    """Exchange how often values k and k+1 occur, preserving bars.

    Applied necklace by necklace; an involution, and the reason the
    ornament weight sums are symmetric functions.
    """
    return Ornament(_swap_necklace(neck, k) for neck in orn.necklaces)


def involution_complement(orn):
    """Flip every bar on nonsingleton necklaces and reverse all values.

    Sends an ornament with j bars to one with n - k - j bars, where k
    counts the singleton necklaces.
    """
    present = sorted({a.value for neck in orn.necklaces for a in neck.word})
    remap = {v: present[len(present) - 1 - i] for i, v in enumerate(present)}
    necks = []
    for neck in orn.necklaces:
        if neck.size == 1:
            necks.append(Necklace([Letter(remap[neck.word[0].value], False)]))
        else:
            necks.append(Necklace(
                [Letter(remap[a.value], not a.barred) for a in neck.word]))
    return Ornament(necks)


def involution_complement_banner(banner):
    """Banner version: flip all bars except the last letter, reverse values."""
    w = banner.word
    if not w:
        return banner
    present = sorted({a.value for a in w})
    remap = {v: present[len(present) - 1 - i] for i, v in enumerate(present)}
    out = [Letter(remap[a.value], not a.barred) for a in w[:-1]]
    out.append(Letter(remap[w[-1].value], False))
    return Banner(out)


def letters_upto(max_value):
    out = []
    for v in range(1, max_value + 1):
        out.append(Letter(v, False))
        out.append(Letter(v, True))
    return out


def _linked_words(n, max_value):
    """The words of length n >= 1 over 1..max_value, barred and unbarred, in
    which each letter may follow the one before it (_pair_ok), in the
    lexicographic order of letters_upto."""
    alphabet = letters_upto(max_value)
    word = []

    def rec():
        if len(word) == n:
            yield tuple(word)
            return
        for a in alphabet:
            if not word or _pair_ok(word[-1], a):
                word.append(a)
                yield from rec()
                word.pop()

    return rec()


def enumerate_necklaces(size, max_value):
    """All necklaces of the given size over values 1..max_value."""
    if size > DEFAULT_CAP or max_value > DEFAULT_CAP + 2:
        raise CapacityError("necklace enumeration capped at %d" % DEFAULT_CAP)
    if size < 1:
        return []
    if size == 1:
        return [Necklace([Letter(v, False)]) for v in range(1, max_value + 1)]
    found = set()
    for word in _linked_words(size, max_value):
        if _pair_ok(word[-1], word[0]):
            rotations = [word[i:] + word[:i] for i in range(size)]
            if len(set(rotations)) == size:
                found.add(max(rotations, key=word_key))
    return sorted((Necklace(w) for w in found))


def enumerate_ornaments(lam, max_value):
    """All ornaments of type lam over values 1..max_value."""
    lam = Partition(lam)
    if lam.n > DEFAULT_CAP:
        raise CapacityError("ornament enumeration capped at %d" % DEFAULT_CAP)
    pools = []
    for part, mult in sorted(lam.multiplicities().items()):
        necks = enumerate_necklaces(part, max_value)
        pools.append(list(itertools.combinations_with_replacement(necks, mult)))
    out = []
    for combo in itertools.product(*pools):
        flat = [k for group in combo for k in group]
        out.append(Ornament(flat))
    return out


def enumerate_banners(n, max_value):
    """All banners of length n over values 1..max_value."""
    if n > DEFAULT_CAP or max_value > DEFAULT_CAP + 2:
        raise CapacityError("banner enumeration capped at %d" % DEFAULT_CAP)
    if n == 0:
        return [Banner(())]
    return [Banner(w) for w in _linked_words(n, max_value) if not w[-1].barred]


def enumerate_seamless_banners(n, max_value):
    """Banners of length n whose Lyndon type has no parts of size 1."""
    return [b for b in enumerate_banners(n, max_value)
            if n > 0 and increasing_factorize(b.word) is not None]


def _weight_terms(items, max_value):
    terms = {}
    for obj in items:
        exp = [0] * max_value
        for v in obj.values():
            exp[v - 1] += 1
        key = tuple(exp)
        terms[key] = terms.get(key, 0) + 1
    return MonExpansion(max_value, terms)


def ornament_weight_sum(lam, j, max_value):
    """Sum of weights of ornaments of type lam with j bars, as a
    polynomial in x_1..x_max_value."""
    items = [r for r in enumerate_ornaments(lam, max_value) if r.bars == j]
    return _weight_terms(items, max_value)


def banner_weight_sum(lam, j, max_value):
    """Sum of weights of banners of Lyndon type lam with j bars."""
    lam = Partition(lam)
    items = [b for b in enumerate_banners(lam.n, max_value)
             if b.bars == j and b.lyndon_type() == lam]
    return _weight_terms(items, max_value)
