"""Partition combinatorics of the symmetric group.

Partitions index the irreducible representations of S_n; the canonical
ordering used everywhere in this package is descending lexicographic,
so the list for a given n starts with (n) (the trivial representation)
and the nontrivial tail is what vectors over "Gamma star" are indexed by.
"""

import itertools
import math
import operator
from functools import lru_cache

from .exact import _MEMO_SIZE, OutOfRange


class WeightMismatch(ValueError):
    pass


class InvalidPartition(ValueError):
    """Parts that are not positive and weakly decreasing."""


class Partition:
    """A weakly decreasing tuple of positive integers.

    Immutable value type; weight and length are computed on
    construction.  The dimension is memoised per shape, not per object.
    """

    __slots__ = ("parts", "weight", "length")

    def __init__(self, parts):
        parts = tuple(map(_part, parts))
        if any(p <= 0 for p in parts) or list(parts) != sorted(parts, reverse=True):
            raise InvalidPartition("parts must be positive and weakly decreasing: %r"
                                   % (parts,))
        self.parts = parts
        self.weight = sum(parts)
        self.length = len(parts)

    @classmethod
    def _from_parts(cls, parts):
        # for a tuple of parts the package built itself and knows to be
        # positive and weakly decreasing: skips __init__'s checks
        lam = cls.__new__(cls)
        lam.parts = parts
        lam.weight = sum(parts)
        lam.length = len(parts)
        return lam

    def __eq__(self, other):
        return isinstance(other, Partition) and self.parts == other.parts

    def __hash__(self):
        return hash(self.parts)

    def __repr__(self):
        return "Partition(%r)" % (self.parts,)

    def conjugate(self):
        return Partition._from_parts(_conjugate_parts(self.parts))

    def dimension(self):
        """Irreducible dimension by the hook length formula."""
        return _dimension(self.parts)

    def content_multiset(self):
        """Contents j - i over the cells of the diagram."""
        return [j - i for i, row in enumerate(self.parts) for j in range(row)]

    def to_json(self):
        return list(self.parts)


def _part(p):
    # operator.index, not int: int would truncate 2.7 and parse "3"
    try:
        return operator.index(p)
    except TypeError:
        raise InvalidPartition("part %r is not an integer" % (p,)) from None


def _conjugate_parts(parts):
    # column lengths, longest first: the step parts[i - 1] - parts[i] of
    # the diagram's right edge ends that many columns of length i
    conj = []
    for i in range(len(parts), 0, -1):
        conj.extend([i] * (parts[i - 1] - (parts[i] if i < len(parts) else 0)))
    return tuple(conj)


@lru_cache(maxsize=_MEMO_SIZE)
def _dimension(parts):
    # |lam|! over the product of the hook lengths, memoised per shape as
    # _strips is: the table's dim column, G and a read it for one shape
    conj = _conjugate_parts(parts)
    return math.factorial(sum(parts)) // math.prod(
        row - j + conj[j] - i - 1 for i, row in enumerate(parts) for j in range(row))


def enumerate_partitions(n):
    """All partitions of n in descending lexicographic order."""
    if n < 1:
        raise OutOfRange("need n >= 1, got %d" % n)
    # each successor: take off the trailing 1s, lower the last part left
    # to x, and refill the cells taken off with copies of x and a remainder
    parts = [n]
    found = [Partition._from_parts((n,))]
    while parts[0] > 1:
        ones = parts.count(1)
        if ones:
            del parts[-ones:]
        x = parts.pop() - 1
        copies, rest = divmod(ones + 1, x)
        parts += [x] * (copies + 1)
        if rest:
            parts.append(rest)
        found.append(Partition._from_parts(tuple(parts)))
    return found


def partition_count(n):
    """p(n) without listing the partitions, by Euler's pentagonal number
    theorem: p(m) is the sum over k >= 1 of (-1)^(k + 1) (p(m - g) +
    p(m - g - k)), g = k(3k - 1)/2 the k-th pentagonal number, and p of
    a negative number 0.  About sqrt(m) terms per m, so O(n^1.5)
    additions in all."""
    if n < 1:
        raise OutOfRange("need n >= 1, got %d" % n)
    p = [1]
    for m in range(1, n + 1):
        total, k, g = 0, 1, 1
        while g <= m:
            t = p[m - g] + (p[m - g - k] if g + k <= m else 0)
            total += t if k % 2 else -t
            g += 3 * k + 1  # the next pentagonal number, (k + 1)(3k + 2)/2
            k += 1
        p.append(total)
    return p[n]


@lru_cache(maxsize=_MEMO_SIZE)
def _partitions_of(n):
    return tuple(enumerate_partitions(n))


def gamma_star(n):
    """Nontrivial representations: canonical list minus its head (n)."""
    return list(_partitions_of(n)[1:])


def hook_partition(n, m):
    """The hook (m, 1^(n-m))."""
    if not 1 <= m <= n:
        raise OutOfRange("need 1 <= m <= n, got m = %d, n = %d" % (m, n))
    return Partition._from_parts((m,) + (1,) * (n - m))


@lru_cache(maxsize=_MEMO_SIZE)
def _counts(shape):
    # the one list of tableau counts per shape that _ssyt_counts extends
    return [0 if shape else 1]


def _ssyt_counts(shape, top):
    # [s_shape(1^j) for j = 0..top] at least, extended in place: the
    # number of SSYT of the shape with entries <= j, counted by peeling
    # the horizontal strip of j's (the branching rule, Macdonald I.5),
    # s_shape(1^j) = s_shape(1^(j-1)) + the sum of s_inner(1^(j-1)) over
    # the proper inner shapes, the empty strip giving the first term
    counts = _counts(shape)
    if len(counts) > top:
        return counts
    # no tableau fits in fewer letters than rows: nothing to peel there
    counts += [0] * (min(len(shape), top + 1) - len(counts))
    start = len(counts) - 1
    if start < top:
        if not shape:
            counts += [1] * (top - start)
            return counts
        # shape itself is the last strip: every row at its top
        inners = [_ssyt_counts(inner, top - 1)[start:top] for inner in _strips(shape)[:-1]]
        total = counts[-1]
        for column in zip(*inners):
            total += sum(column)
            counts.append(total)
    return counts


@lru_cache(maxsize=_MEMO_SIZE)
def _strips(shape):
    """Every partition inner <= shape of a nonempty shape with shape/inner
    a horizontal strip (rows interlace: shape[i+1] <= inner[i] <= shape[i]),
    in the order of one itertools.product over the row ranges, so shape
    itself comes last, as a tuple enumerated once per shape: kostka and
    _ssyt_counts read it.  Only the last row's range starts at 0, so only
    the last part of an inner shape can be 0, and it is sliced off."""
    ranges = (range(lo, hi + 1) for hi, lo in zip(shape, shape[1:] + (0,)))
    return tuple([inner if inner[-1] else inner[:-1] for inner in itertools.product(*ranges)])


def kostka(lam, sigma):
    """Number of semistandard Young tableaux of shape lam, content sigma,
    counted by peeling the horizontal strip of each letter from the top
    letter down: `ways` maps each shape left to its number of peelings."""
    if lam.weight != sigma.weight:
        raise WeightMismatch("shape and content must have equal weight")
    ways = {lam.parts: 1}
    weight = lam.weight
    for count in reversed(sigma.parts):
        weight -= count
        left = {}
        for shape, k in ways.items():
            for inner in _strips(shape):
                if sum(inner) == weight:
                    left[inner] = left.get(inner, 0) + k
        ways = left
    return ways.get((), 0)


def _schur_strips(lam, ks):
    # [s_lam(1^k) for k in ks] as tableau counts: the reference route for
    # schur_eval_ones and for the Schur form of the a-coefficients
    counts = _ssyt_counts(lam.parts, max(ks, default=0))
    return [counts[k] for k in ks]


def schur_eval_ones(lam, k):
    """Schur function of lam at k ones, by the hook-content product
    prod over the cells of (k + content)/hook (Macdonald, Symmetric
    Functions and Hall Polynomials, I.3 Ex. 4).  The product vanishes
    when lam has more than k rows.  The tests compare it with the
    independent tableau count in _schur_strips.
    """
    if k < 0:
        raise OutOfRange("need k >= 0, got %d" % k)
    num = lam.dimension()  # = |lam|! / prod of hooks
    for c in lam.content_multiset():
        num *= k + c
    return num // math.factorial(lam.weight)
