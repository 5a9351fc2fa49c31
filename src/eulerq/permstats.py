"""Permutations, integer partitions, and the statistics everything else is built on.

For a permutation sigma of [n] written in one line notation sigma_1 .. sigma_n:

    DES(sigma)   descent set {i in [n-1] : sigma_i > sigma_{i+1}}
    EXC(sigma)   excedance set {i in [n-1] : sigma_i > i}
    des, exc     the sizes of those sets
    maj          sum of DES(sigma)
    comaj        binomial(n, 2) - maj
    inv          number of inversions
    fix          number of fixed points

The bridge statistic EXD(sigma) is the descent set of the barred word obtained
by putting a bar on sigma_i for every excedance position i, where barred
letters compare under the total order

    1' < 2' < ... < n' < 1 < 2 < ... < n.

EXD drives the quasisymmetric constructions: sum(EXD) = maj - exc, and
|EXD| = des when sigma_1 = 1, |EXD| = des - 1 otherwise.

The unique permutation of the empty set has every statistic equal to zero.

`statistics` gives every statistic of one permutation.  Brute force over a
whole group counts compact integer rows (exc, fix, des, maj, inv, exd_mask)
instead, where exd_mask has bit i set for i in EXD.  `census(n, fields)`
counts the rows over S_n projected to the fields asked for, by a dynamic
program over word prefixes that lists no word.  `class_census(lam)` counts
full rows over one conjugacy class; cycle type is not a property of a
prefix, so one pass over the words of S_n keys each row by its cycle type
and serves every class of S_n.  Other modules read a row only through
`row_stat`, so the row layout is known to this module alone.
"""
import itertools
from collections import Counter, namedtuple
from functools import lru_cache
from math import comb, factorial, gcd
from types import MappingProxyType

DEFAULT_CAP = 10


class CapacityError(ValueError):
    """An enumeration request exceeded the size cap DEFAULT_CAP."""


def _check_cap(n):
    if n > DEFAULT_CAP:
        raise CapacityError(f"n={n} exceeds cap {DEFAULT_CAP}")


class Partition(tuple):
    """Integer partition as a weakly decreasing tuple of positive parts."""

    def __new__(cls, parts=()):
        if type(parts) is cls:
            return parts
        parts = tuple(int(x) for x in parts)
        if any(x <= 0 for x in parts):
            raise ValueError(f"partition parts must be positive: {parts!r}")
        return super().__new__(cls, sorted(parts, reverse=True))

    @property
    def n(self):
        return sum(self)

    @property
    def length(self):
        return len(self)

    def mult(self, i):
        """Multiplicity of the part i."""
        return sum(1 for x in self if x == i)

    def multiplicities(self):
        out = {}
        for x in self:
            out[x] = out.get(x, 0) + 1
        return out

    def concat(self, other):
        """Multiset union of parts; other is validated unless it is a Partition."""
        return tuple.__new__(Partition, sorted(self + Partition(other), reverse=True))

    def conjugate(self):
        if not self:
            return Partition()
        return Partition(tuple(sum(1 for x in self if x >= i) for i in range(1, self[0] + 1)))

    def gcd_of_parts(self):
        g = 0
        for x in self:
            g = gcd(g, x)
        return g

    def z(self):
        """Centralizer order prod_i i^{m_i} m_i!."""
        out = 1
        for i, m in self.multiplicities().items():
            out *= i**m * factorial(m)
        return out

    def __repr__(self):
        return f"Partition({tuple(self)})"


def z_lambda(lam) -> int:
    return Partition(lam).z()


def _partitions_into(remaining, length, largest):
    """The partitions of remaining into length parts of at most largest, as
    tuples in descending lex order: the first part leaves each later part at
    least 1 and at most itself, so every branch yields."""
    if length == 1:
        yield (remaining,)
        return
    for first in range(min(largest, remaining - length + 1), -(-remaining // length) - 1, -1):
        for rest in _partitions_into(remaining - first, length - 1, first):
            yield (first,) + rest


@lru_cache(maxsize=None)
def partitions(n) -> tuple:
    """All partitions of n, ordered by (length, descending lex)."""
    if n <= 0:
        return () if n else (Partition(),)
    return tuple(tuple.__new__(Partition, p) for length in range(1, n + 1)
                 for p in _partitions_into(n, length, n))


class Permutation:
    """A permutation of [n] in one line notation."""

    __slots__ = ("word",)

    def __init__(self, word):
        word = tuple(int(x) for x in word)
        if sorted(word) != list(range(1, len(word) + 1)):
            raise ValueError(f"not a permutation word: {word!r}")
        object.__setattr__(self, "word", word)

    def __setattr__(self, *a):
        raise AttributeError("Permutation is immutable")

    @property
    def n(self):
        return len(self.word)

    def __call__(self, i):
        return self.word[i - 1]

    def __eq__(self, other):
        return isinstance(other, Permutation) and self.word == other.word

    def __hash__(self):
        return hash(self.word)

    def __repr__(self):
        return f"Permutation({''.join(map(str, self.word)) if self.n and max(self.word) < 10 else self.word})"

    @classmethod
    def identity(cls, n):
        return cls(range(1, n + 1))

    def cycles(self):
        """Cycle decomposition, each cycle rotated smallest first, cycles sorted by minimum."""
        seen = [False] * self.n
        out = []
        for start in range(1, self.n + 1):
            if seen[start - 1]:
                continue
            cyc = [start]
            seen[start - 1] = True
            x = self(start)
            while x != start:
                cyc.append(x)
                seen[x - 1] = True
                x = self(x)
            out.append(tuple(cyc))
        return tuple(out)

    def cycle_type(self):
        return Partition(len(c) for c in self.cycles())


# order on barred letters used by EXD: 1' < 2' < ... < n' < 1 < 2 < ... < n
def _exd_key(value, barred):
    return (0, value) if barred else (1, value)


# word (tuple), des_set, exc_set and exd_set (frozensets), the six counts and
# the cycle type (a Partition) of one permutation
PermStats = namedtuple(
    "PermStats", "word des_set exc_set exd_set des exc maj comaj inv fix cycle_type")


def statistics(sigma) -> PermStats:
    """All statistics of sigma in one pass."""
    if not isinstance(sigma, Permutation):
        sigma = Permutation(sigma)
    w = sigma.word
    n = len(w)
    des_set = frozenset(i for i in range(1, n) if w[i - 1] > w[i])
    exc_set = frozenset(i for i in range(1, n + 1) if w[i - 1] > i)
    barred = [_exd_key(w[i], (i + 1) in exc_set) for i in range(n)]
    exd_set = frozenset(i for i in range(1, n) if barred[i - 1] > barred[i])
    maj = sum(des_set)
    inv = sum(1 for i in range(n) for j in range(i + 1, n) if w[i] > w[j])
    return PermStats(
        word=w,
        des_set=des_set,
        exc_set=exc_set,
        exd_set=exd_set,
        des=len(des_set),
        exc=len(exc_set),
        maj=maj,
        comaj=comb(n, 2) - maj,
        inv=inv,
        fix=sum(1 for i in range(1, n + 1) if w[i - 1] == i),
        cycle_type=sigma.cycle_type(),
    )


def exd_set(sigma) -> frozenset:
    return statistics(sigma).exd_set


def enumerate_permutations(n):
    """All of S_n in lexicographic order of one line words."""
    _check_cap(n)
    for w in itertools.permutations(range(1, n + 1)):
        yield Permutation(w)


def enumerate_by_cycle_type(lam):
    """All permutations of cycle type lam, n!/z_lambda of them, in
    lexicographic order of one line words: S_n filtered by cycle type."""
    lam = Partition(lam)
    for sigma in enumerate_permutations(lam.n):
        if sigma.cycle_type() == lam:
            yield sigma


def derangements(n):
    for sigma in enumerate_permutations(n):
        if all(sigma(i) != i for i in range(1, n + 1)):
            yield sigma


# ---------------------------------------------------------------------------
# the census: the statistics over a group, counted as integer rows
# ---------------------------------------------------------------------------

CENSUS_FIELDS = ("exc", "fix", "des", "maj", "inv", "exd_mask")


def _row(w):
    """(exc, fix, des, maj, inv, exd_mask) of the one line word w, in one
    left-to-right scan; barred letters v' sort as v, unbarred ones as v + n."""
    n = len(w)
    exc = fix = des = maj = inv = mask = seen = prev = prev_key = 0
    for i, v in enumerate(w, 1):
        if v > i:
            exc += 1
            key = v
        else:
            key = v + n
            fix += v == i
        inv += (seen >> v).bit_count()
        seen |= 1 << v
        if prev > v:
            des += 1
            maj += i - 1
        if prev_key > key:
            mask |= 1 << (i - 1)
        prev, prev_key = v, key
    return exc, fix, des, maj, inv, mask


@lru_cache(maxsize=None)
def _mask_set(mask):
    """The set of bit positions of an EXD bitmask."""
    return frozenset(i for i in range(1, mask.bit_length()) if mask >> i & 1)


def stat_field(name):
    """The census field the statistic `name` is read from: itself for a
    field, "maj" for "comaj" and "exd_mask" for "exd_set"."""
    return {"comaj": "maj", "exd_set": "exd_mask"}.get(name, name)


def row_stat(name, n, fields=CENSUS_FIELDS):
    """A function reading the statistic `name` off a row of census(n, fields)
    (or of class_census, whose rows hold every field): one of
    CENSUS_FIELDS, "comaj" (binomial(n, 2) - maj) or "exd_set" (EXD as a
    frozenset)."""
    index = fields.index(stat_field(name))
    if name == "comaj":
        top = comb(n, 2)
        return lambda row: top - row[index]
    if name == "exd_set":
        return lambda row: _mask_set(row[index])
    return lambda row: row[index]


def _field_bits(name, n):
    """Width in bits of the field `name` in a packed row of S_n."""
    if name in ("maj", "inv"):
        return comb(n, 2).bit_length()
    return n if name == "exd_mask" else n.bit_length()


def census(n, fields=CENSUS_FIELDS) -> MappingProxyType:
    """Read-only Counter, over S_n, of the rows of the statistics `fields`
    (a sub-tuple of CENSUS_FIELDS, in any order), each row in `fields`
    order.  census(n) counts the full rows (exc, fix, des, maj, inv,
    exd_mask).

    No word is listed: a dynamic program walks the words left to right
    over the states (used letters, last letter), and the last letter is
    kept only when des, maj or exd_mask is asked for.  The result is
    cached per projection and shared by every caller.
    """
    fields = tuple(fields)
    unknown = [f for f in fields if f not in CENSUS_FIELDS]
    if unknown or len(set(fields)) != len(fields):
        raise ValueError(f"census fields must be distinct names from {CENSUS_FIELDS}: {fields}")
    return _census(n, fields)


@lru_cache(maxsize=None)
def _census(n, fields):
    _check_cap(n)
    # each field is an int in its own bits of one packed row, so adding a
    # letter adds one int; no field overflows its bits, so none carries
    shifts, at = {}, 0
    for f in fields:
        shifts[f] = at
        at += _field_bits(f, n)
    unit = {f: 1 << shifts[f] if f in shifts else 0 for f in CENSUS_FIELDS}
    inv_at = shifts.get("inv")
    keep_last = any(f in shifts for f in ("des", "maj", "exd_mask"))
    # states (used-letter bitmask, last letter or 0) -> {packed row: count}
    layer = {(0, 0): {0: 1}}
    for i in range(1, n + 1):
        # the letter v at position i: its excedance or fixed point, and its
        # EXD key (barred v' sorts as v, unbarred v as v + n)
        own = [0] + [unit["exc"] if v > i else unit["fix"] if v == i else 0
                     for v in range(1, n + 1)]
        key = [0] + [v if v > i else v + n for v in range(1, n + 1)]
        descent = unit["des"] + (i - 1) * unit["maj"]
        exd_bit = unit["exd_mask"] << (i - 1) if i > 1 else 0
        nxt = {}
        for (used, p), rows in layer.items():
            # the layer lets go of this state's rows, which are freed once
            # its transitions are added, so the layer shrinks as nxt grows
            layer[used, p] = None
            # the EXD key of the last letter p, placed at position i - 1
            p_key = p if p > i - 1 else p + n
            for v in range(1, n + 1):
                bit = 1 << v
                if used & bit:
                    continue
                step = own[v]
                if p > v:
                    step += descent
                if p_key > key[v]:
                    step += exd_bit
                if inv_at is not None:
                    step += (used >> v).bit_count() << inv_at
                state = (used | bit, v if keep_last else 0)
                out = nxt.get(state)
                if out is None:
                    nxt[state] = {r + step: c for r, c in rows.items()}
                else:
                    for r, c in rows.items():
                        r += step
                        out[r] = out.get(r, 0) + c
        layer = nxt
    packed = Counter()
    for state, rows in layer.items():
        layer[state] = None
        packed.update(rows)
    spans = [(shifts[f], (1 << _field_bits(f, n)) - 1) for f in fields]
    return MappingProxyType(Counter(
        {tuple(r >> s & m for s, m in spans): c for r, c in packed.items()}))


def _cycle_type(w):
    """The cycle type of the one line word w as a weakly decreasing tuple,
    by walking each cycle from its least unvisited letter; the visited
    letters are the bits of one int."""
    seen = 0
    lengths = []
    for start in range(1, len(w) + 1):
        if seen >> start & 1:
            continue
        length = 0
        x = start
        while not seen >> x & 1:
            seen |= 1 << x
            x = w[x - 1]
            length += 1
        lengths.append(length)
    lengths.sort(reverse=True)
    return tuple(lengths)


@lru_cache(maxsize=None)
def _class_censuses(n):
    """{cycle type: read-only Counter of census rows} over S_n, in one pass
    over its words.  Each word's row goes straight into the Counter of its
    cycle type, a plain tuple; the Partition is built once per class."""
    classes = {}
    for w in itertools.permutations(range(1, n + 1)):
        lam = _cycle_type(w)
        rows = classes.get(lam)
        if rows is None:
            rows = classes[lam] = Counter()
        rows[_row(w)] += 1
    return {Partition(lam): MappingProxyType(rows) for lam, rows in classes.items()}


def class_census(lam) -> MappingProxyType:
    """Read-only Counter of census rows over the permutations of cycle type
    lam.  Cycle type is not a property of a prefix, so every class of S_n is
    counted together, in one pass over the n! words, cached per n."""
    lam = Partition(lam)
    _check_cap(lam.n)
    return _class_censuses(lam.n)[lam]


@lru_cache(maxsize=None)
def eulerian_counts(n) -> tuple:
    """Coefficients (a_{n,0}, ..., a_{n,n-1}) of the Eulerian polynomial
    A_n(t), by the classical recurrence.  The tests compare it with the
    descent and the excedance distributions over S_n."""
    if n == 0:
        return (1,)
    prev = eulerian_counts(n - 1)
    cur = [0] * n
    for j in range(n):
        a = (j + 1) * prev[j] if j < len(prev) else 0
        b = (n - j) * prev[j - 1] if j >= 1 else 0
        cur[j] = a + b
    return tuple(cur)


def eulerian_number(n, j) -> int:
    counts = eulerian_counts(n)
    return counts[j] if 0 <= j < len(counts) else 0


def eulerian_poly(n):
    """The Eulerian polynomial A_n(t) as a sparse polynomial in t."""
    from .polyalg import Poly

    return Poly({(0, 0, j, 0): c for j, c in enumerate(eulerian_counts(n)) if c})
