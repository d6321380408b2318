import itertools
import math
from fractions import Fraction

import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st

from euclid_oracle import Reduced, monic, poly_gcd
from morita import exact, linalg
from morita.classify import KTheoryVector, build_f
from morita.exact import (DegreeError, NonIntegerPole, NonSimplePoles,
                          NotMonicInteger, PartialFraction, PoleNotRoot, Poly,
                          RationalFunction, ZeroDenominator, partial_fractions,
                          quotient, rational, rational_roots)
from morita.partitions import gamma_star
from morita.poisson import MultiPoly


def test_poly_eval_square():
    p = Poly([0, 0, 1])
    assert p(-3) == 9


def test_poly_eval_expanded_product():
    # (x+4)(x+5) expanded
    p = Poly([20, 9, 1])
    assert p == Poly.from_roots([-4, -5])
    assert p(-4) == 0


def test_poly_eval_zero_poly():
    assert Poly()(Fraction(7, 3)) == 0


def test_poly_divmod_roundtrip():
    a = Poly([1, 2, 0, 5, 3])
    b = Poly([4, 1, 2])
    q, r = divmod(a, b)
    assert q * b + r == a
    assert r.degree < b.degree


def test_rf_normalize_common_factor():
    # no gcd is taken: 2x/x^2 is stored as given and equals its reduced form
    with pytest.raises(ValueError):
        RationalFunction(Poly([0, 2]), Poly([0, 0, 2]))
    rf = RationalFunction(Poly([0, 2]), Poly([0, 0, 1]))
    assert (rf.num, rf.den) == (Poly([0, 2]), Poly([0, 0, 1]))
    assert rf == RationalFunction(Poly([2]), Poly([0, 1]))
    assert rf != RationalFunction(Poly([1]), Poly([0, 1]))


def test_rf_normalize_coprime_unchanged():
    num = Poly([0, 6])
    den = Poly.from_roots([-1, -2])
    rf = RationalFunction(num, den)
    assert rf.num == num and rf.den == den


def test_rf_normalize_gcd_x():
    num, den = Poly.from_roots([0, 1]), Poly.from_roots([0, -1])
    rf = RationalFunction(num, den)
    assert rf.num is num and rf.den is den
    # == cross-multiplies, so the unreduced form equals the reduced one
    reduced = RationalFunction(Poly([-1, 1]), Poly([1, 1]))
    assert rf == reduced and reduced == rf
    assert rf != RationalFunction(Poly([1, 1]), Poly([1, 1]))


def test_rf_normalize_zero_denominator():
    with pytest.raises(ZeroDenominator):
        RationalFunction(Poly([1]), Poly())
    for den in (Poly([2]), Poly([1, 3]), Poly([0, Fraction(1, 2)])):
        with pytest.raises(ValueError):
            RationalFunction(Poly([1]), den)


def test_rf_normalize_idempotent():
    rf = RationalFunction(Poly([0, 6]), Poly.from_roots([-1, -2]))
    again = RationalFunction(rf.num, rf.den)
    assert (again.num, again.den) == (rf.num, rf.den) and again == rf


def test_partial_fractions_two_poles():
    pf = partial_fractions(Poly([0, 6]), [-1, -2])
    assert pf.residues == {-1: -6, -2: 12}


def test_partial_fractions_zero_numerator():
    pf = partial_fractions(Poly(), [-1])
    # the pole of 0/(x+1) is kept with residue 0
    assert pf.residues == {-1: 0}


def test_partial_fractions_single_pole():
    pf = partial_fractions(Poly([2]), [-1])
    assert pf.residues == {-1: 2}


def test_partial_fractions_recombination():
    rf = RationalFunction(Poly([7, -3, 2]), Poly.from_roots([-1, -2, -5]))
    pf = partial_fractions(rf.num, [-1, -2, -5])
    assert pf.to_rational_function() == rf


def test_partial_fractions_degree_error():
    with pytest.raises(DegreeError):
        partial_fractions(Poly([0, 0, 1]), [-1])


def test_partial_fractions_repeated_pole():
    with pytest.raises(NonSimplePoles):
        partial_fractions(Poly([1]), [-1, -1])


def test_partial_fractions_non_integer_pole():
    with pytest.raises(NonIntegerPole):
        partial_fractions(Poly([1]), [Fraction(1, 2), -1])


def test_rational_roots_splits():
    roots, rem = rational_roots(Poly([20, 9, 1]))
    assert roots == [-5, -4]
    assert rem == Poly([1])


def test_rational_roots_none():
    p = Poly([1, 1, 1])
    roots, rem = rational_roots(p)
    assert roots == []
    assert rem == p


def test_rational_roots_small():
    roots, rem = rational_roots(Poly([2, 3, 1]))
    assert roots == [-2, -1]
    assert rem == Poly([1])


def test_rational_roots_multiplicity_and_product():
    p = Poly.from_roots([2, 2, -3, 0]) * Poly([1, 1, 1])
    roots, rem = rational_roots(p)
    assert sorted(roots) == [-3, 0, 2, 2]
    assert Poly.from_roots(roots) * rem == p


def test_rational_roots_not_monic():
    with pytest.raises(NotMonicInteger):
        rational_roots(Poly([1, 2]))
    with pytest.raises(NotMonicInteger):
        rational_roots(Poly([Fraction(1, 2), 1]))


def test_rational_string_roundtrip():
    for r in (Fraction(3), Fraction(-7, 2), Fraction(0)):
        assert rational(str(rational(r))) == r


def test_partial_fraction_explicit_zero_residue():
    pf = PartialFraction({-1: Fraction(0)})
    assert pf.to_rational_function() == RationalFunction(Poly())


def test_partial_fraction_rejects_non_integer_pole():
    # int(p) used to truncate these to the poles 0 and 2
    for residues in ({Fraction(1, 2): 3, 2.7: 1}, {Fraction(1, 2): 3}, {2.7: 1}):
        with pytest.raises(NonIntegerPole):
            PartialFraction(residues)
    assert issubclass(NonIntegerPole, ValueError)
    pf = PartialFraction({Fraction(6, 3): 1, -1.0: Fraction(1, 2)})
    assert pf.residues == {2: 1, -1: Fraction(1, 2)}
    assert all(type(p) is int for p in pf.residues)


def _per_term_sum(pf):
    """The per-pole RationalFunction sum (one gcd per term) that
    to_rational_function replaced, kept as its oracle."""
    total = Reduced(Poly())
    for p, r in pf.residues.items():
        total = total + Reduced(Poly.constant(r), Poly([-p, 1]))
    return total


_RESIDUE = st.integers(-30, 30) | st.fractions(-30, 30, max_denominator=12) | st.just(0)


@settings(max_examples=200, deadline=None)
@given(residues=st.dictionaries(st.integers(-12, 12), _RESIDUE, max_size=8))
def test_to_rational_function_matches_per_term_sum(residues):
    rf = PartialFraction(residues).to_rational_function()
    oracle = _per_term_sum(PartialFraction(residues))
    assert (rf.num, rf.den) == (oracle.num, oracle.den)
    assert rf.den.is_monic()
    assert poly_gcd(rf.num, rf.den) == Poly([1])
    _check_scalars(rf.num.coeffs + rf.den.coeffs)


@settings(max_examples=200, deadline=None)
@given(residues=st.dictionaries(st.integers(-12, 12), _RESIDUE, max_size=8),
       extra=st.lists(st.integers(-12, 12), max_size=3))
def test_numerator_over_any_common_denominator(residues, extra):
    # den may carry extra roots, also repeated poles
    pf = PartialFraction(residues)
    den = Poly.from_roots([p for p, r in pf.residues.items() if r] + extra)
    num = pf.numerator_over(den)
    assert num.degree < max(den.degree, 1)
    assert RationalFunction(num, den) == _per_term_sum(pf)


def test_numerator_over_requires_den_to_vanish_at_poles():
    # _divide_root drops its remainder, so a pole off den must raise
    den = Poly.from_roots([-1, -2])
    for residues, d in (({-3: 1}, den), ({-1: 2, 5: Fraction(1, 3)}, den),
                        ({0: 1}, Poly([4]))):
        with pytest.raises(PoleNotRoot):
            PartialFraction(residues).numerator_over(d)
    assert issubclass(PoleNotRoot, ValueError)
    # a zero residue needs no root, and den = 0 gives 0
    assert PartialFraction({-1: 2, -3: 0}).numerator_over(den) == Poly([4, 2])
    assert PartialFraction({-1: 2}).numerator_over(Poly()) == Poly()


def _scan_rational_roots(p):
    """The linear scan that rational_roots replaced, kept as its oracle:
    every d = 1..|c0| is tried, +d before -d, by Fraction evaluation,
    and the candidates restart from d = 1 after each root."""
    if not (p.is_monic() and p.has_integer_coeffs()):
        raise NotMonicInteger("need a monic polynomial with integer coefficients")
    roots = []
    cur = p
    while cur.degree >= 1 and cur.coeffs[0] == 0:
        roots.append(0)
        cur = divmod(cur, Poly.x())[0]
    while cur.degree >= 1:
        c0 = abs(int(cur.coeffs[0]))
        found = None
        for d in range(1, c0 + 1):
            if c0 % d:
                continue
            for r in (d, -d):
                if cur(r) == 0:
                    found = r
                    break
            if found is not None:
                break
        if found is None:
            break
        roots.append(found)
        cur = divmod(cur, Poly([-found, 1]))[0]
    roots.sort()
    return roots, cur


def _divisors(m):
    """The positive divisors of m > 0 in ascending order, by trial
    division up to sqrt(m)."""
    small, large = [], []
    d = 1
    while d * d <= m:
        if m % d == 0:
            small.append(d)
            if d * d != m:
                large.append(m // d)
        d += 1
    return small + large[::-1]


def _divisor_rational_roots(p):
    """The divisor-candidate root finder that rational_roots replaced,
    kept as its oracle: every divisor of the original |c0| is listed by
    trial division up to sqrt|c0| before any is tried, +d before -d, by
    integer synthetic division."""
    if not (p.is_monic() and p.has_integer_coeffs()):
        raise NotMonicInteger("need a monic polynomial with integer coefficients")
    cs = list(p.coeffs)
    roots = []
    while len(cs) > 1 and cs[0] == 0:
        roots.append(0)
        cs = cs[1:]
    for d in _divisors(abs(cs[0])):
        for r in (d, -d):
            while len(cs) > 1 and cs[0] % d == 0:
                quot, rem = exact._divide_root(cs, r)
                if rem:
                    break
                roots.append(r)
                cs = quot
    roots.sort()
    return roots, Poly(cs)


def _trial_division_rational_roots(p):
    """The trial division that rational_roots replaced, kept as its
    oracle: after the roots at zero, d = 1, 2, ... while d^2 <= |c0| of
    the current quotient, trying +d and -d whenever d divides c0, each as
    often as it divides; then the cofactors |c0|/e of the divisors e met,
    which leave at most one root above sqrt|c0|."""
    if not (p.is_monic() and p.has_integer_coeffs()):
        raise NotMonicInteger("need a monic polynomial with integer coefficients")

    def peel(cs, d):
        for r in (d, -d):
            while len(cs) > 1 and cs[0] % d == 0:
                quot, rem = exact._divide_root(cs, r)
                if rem:
                    break
                roots.append(r)
                cs = quot
        return cs

    cs = list(p.coeffs)
    roots = []
    while len(cs) > 1 and cs[0] == 0:
        roots.append(0)
        cs = cs[1:]
    met, d = [], 1
    while len(cs) > 1 and d * d <= abs(cs[0]):
        if cs[0] % d == 0:
            met.append(d)
            cs = peel(cs, d)
        d += 1
    for e in reversed(met):
        if len(cs) > 1 and cs[0] % e == 0 and abs(cs[0]) // e >= d:
            cs = peel(cs, abs(cs[0]) // e)
    roots.sort()
    return roots, Poly(cs)


@settings(max_examples=300, deadline=None)
@given(roots=st.lists(st.integers(-30, 30), max_size=4),
       repeats=st.integers(0, 2),
       zeros=st.integers(0, 2),
       far=st.one_of(st.none(), st.integers(-10 ** 9, 10 ** 9)),
       cofactor=st.lists(st.integers(-5, 5), max_size=2))
def test_rational_roots_matches_trial_division(roots, repeats, zeros, far, cofactor):
    # repeated and zero roots, and at most one far root on a small
    # cofactor, which the oracle still reaches through its cofactor pass
    planted = roots + roots[:repeats] + [0] * zeros + ([] if far is None else [far])
    p = Poly.from_roots(planted) * Poly(cofactor + [1])
    assume(p.degree <= 8)
    assert rational_roots(p) == _trial_division_rational_roots(p)


@settings(max_examples=200, deadline=None)
@given(root=st.integers(2, 10 ** 9), negative=st.booleans(),
       units=st.lists(st.sampled_from([1, -1]), max_size=4),
       cofactor=st.lists(st.integers(-5, 5), max_size=2),
       last=st.sampled_from([1, -1]))
def test_rational_roots_root_at_the_bound(root, negative, units, cofactor, last):
    # every other root is +-1 and the cofactor's constant term is +-1, so
    # |f(0)| = |root|: the root sits at an end of [-B, B]
    r = -root if negative else root
    p = Poly.from_roots([r] + units) * Poly([last] + cofactor + [1])
    assert abs(p.coeffs[0]) == root
    found, rem = rational_roots(p)
    assert r in found
    assert (found, rem) == _trial_division_rational_roots(p)


def test_rational_roots_two_critical_points_in_one_unit_step():
    # f' has two roots in (0, 1) and equal signs at 0 and 1, so f is not
    # monotone between the breakpoints 0 and 1 that f'' gives; both must
    # reach f.  The root at 0 is divided out before the search, which
    # moves the critical points of the quotient apart, so f(x - 3), whose
    # roots are not 0, is searched with the two critical points in (3, 4)
    p = Poly([0, -142912, 661492, -501137, -18972, 1448, 80, 1])
    shifted = Poly([18080400, -15118684, 3848374, -183518, -30837, 197, 59, 1])
    assert all(shifted(x) == p(x - 3) for x in range(-10, 11))
    for poly, left, roots in ((p, 0, [-29, -28, 0, 1, 16]),
                              (shifted, 3, [-26, -25, 3, 4, 19])):
        deriv = Poly([i * c for i, c in enumerate(poly.coeffs)][1:])
        grid = [left + Fraction(k, 16) for k in range(17)]
        changes = sum((deriv(a) > 0) != (deriv(b) > 0) for a, b in zip(grid, grid[1:]))
        assert changes == 2 and deriv(left) < 0 and deriv(left + 1) < 0
        found, rem = rational_roots(poly)
        assert found == roots
        assert Poly.from_roots(found) * rem == poly
        assert (found, rem) == _trial_division_rational_roots(poly)


@settings(max_examples=300, deadline=None)
@given(roots=st.lists(st.integers(-40, 40), max_size=5),
       zeros=st.integers(0, 2),
       cofactor=st.lists(st.integers(-50, 50), max_size=4))
def test_rational_roots_matches_divisor_oracle(roots, zeros, cofactor):
    p = Poly.from_roots(roots + [0] * zeros) * Poly(cofactor + [1])
    assert rational_roots(p) == _divisor_rational_roots(p)


@pytest.mark.parametrize("roots", [[-1], [5, 7], [-12, 1], [3, 3, -3],
                                   [-997], [2, 1009], [-13, -13, 17]])
def test_rational_roots_large_cofactor_root(roots):
    # a root far above sqrt|c0| is found through the cofactor of a small
    # divisor, also after other roots have shrunk c0
    for tail in ([1], [2, 0, 1], [-7, 1, 1]):
        p = Poly.from_roots(roots) * Poly(tail)
        assert rational_roots(p) == _divisor_rational_roots(p)


def test_rational_roots_factorial_constant_term(monkeypatch):
    # prod_{k=1}^{29} (x + k): c0 = 29! ~ 8.8e30, so trial division up to
    # sqrt|c0| never ends; the bisection finds the 29 roots and divides
    # each out once, with one failed division each for its multiplicity
    calls = []
    divide = exact._divide_root

    def counted(cs, r):
        calls.append(r)
        return divide(cs, r)

    monkeypatch.setattr(exact, "_divide_root", counted)
    p = Poly.from_roots(range(-29, 0))
    assert rational_roots(p) == (list(range(-29, 0)), Poly([1]))
    assert len(calls) <= 3 * 29


# The boxes the classify-search tests and the benchmark use.
BOXES = ((3, 6), (4, 2), (5, 1))

# Vectors whose f has no integer root and |f(0)| near 1e5.
ROOT_FREE_1E5 = ((3, (16666, -3)), (4, (1, -2, -3, 8335)),
                 (5, (2, 2, 1, 827, 1, 1)), (6, (3, 2, -2, -3, 1, 1, 2, -2, 204, -3)))


def _box_vectors():
    for n, bound in BOXES:
        for point in itertools.product(range(-bound, bound + 1),
                                       repeat=len(gamma_star(n))):
            yield n, KTheoryVector.from_list(n, list(point))
    for n, point in ROOT_FREE_1E5:
        yield n, KTheoryVector.from_list(n, list(point))


def _f_by_products(n, a):
    """prod_k (x+k) + sum a_k prod_{j!=k} (x+j), each product expanded: the
    _f_basis sum that build_f replaced with numerator_over, kept as its
    oracle."""
    f = Poly.from_roots([-k for k in range(1, n)])
    for k in range(1, n):
        f = f + a[k - 1] * Poly.from_roots([-j for j in range(1, n) if j != k])
    return f


def test_build_f_matches_direct_products():
    for n, v in _box_vectors():
        f, a = build_f(n, v)
        assert f == _f_by_products(n, a)


@settings(max_examples=200, deadline=None)
@given(data=st.data(), n=st.integers(2, 7))
def test_build_f_matches_f_basis_sum(data, n):
    size = len(gamma_star(n))
    values = data.draw(st.lists(st.integers(-10 ** 6, 10 ** 6), min_size=size,
                                max_size=size))
    f, a = build_f(n, KTheoryVector.from_list(n, values))
    assert f == _f_by_products(n, a)
    _check_scalars(f.coeffs)


def test_rational_roots_matches_linear_scan():
    checked = 0
    for n, v in _box_vectors():
        f, _ = build_f(n, v)
        roots, rem = rational_roots(f)
        want_roots, want_rem = _scan_rational_roots(f)
        assert roots == want_roots
        assert rem == want_rem
        checked += 1
    assert checked == 13 ** 2 + 5 ** 4 + 3 ** 6 + len(ROOT_FREE_1E5)


def test_root_free_vectors_are_large_and_root_free():
    for n, point in ROOT_FREE_1E5:
        f, _ = build_f(n, KTheoryVector.from_list(n, list(point)))
        assert 5 * 10 ** 4 <= abs(f.coeffs[0]) <= 2 * 10 ** 5
        assert rational_roots(f) == ([], f)


@settings(max_examples=200, deadline=None)
@given(roots=st.lists(st.integers(-60, 60), max_size=6),
       zeros=st.integers(0, 2),
       cofactor=st.lists(st.integers(-20, 20), max_size=4))
def test_rational_roots_recovers_planted_roots(roots, zeros, cofactor):
    planted = roots + [0] * zeros
    cof = Poly(cofactor + [1])
    p = Poly.from_roots(planted) * cof
    found, rem = rational_roots(p)
    # the cofactor may bring integer roots of its own; the oracle finds them
    extra, cof_rem = _scan_rational_roots(cof)
    assert found == sorted(planted + extra)
    assert rem == cof_rem
    assert Poly.from_roots(found) * rem == p


def _frontier_poly(kind):
    if kind == "cubic":
        # x^3 + c0 with c0 = 2^6 3^4 5^2 7^2 11 13 17 19 23, which is no
        # cube (11 divides it once), so there is no integer root
        c0 = 963761198400
        r = round(c0 ** (1 / 3))
        assert all(k ** 3 != c0 for k in (r - 1, r, r + 1))
        return Poly([c0, 0, 0, 1])
    # f for n = 3: a quadratic with no integer root iff its discriminant
    # is no perfect square
    f, _ = build_f(3, KTheoryVector.from_list(3, [166666666666, 1]))
    c, b, _ = (int(x) for x in f.coeffs)
    disc = b * b - 4 * c
    assert disc < 0 or math.isqrt(disc) ** 2 != disc
    return f


@pytest.mark.parametrize("kind", ["cubic", "quadratic"])
def test_rational_roots_frontier_candidate_count(kind, monkeypatch):
    # no integer root and |c0| ~ 1e12: trial division would try 1e6
    # divisors; the bisection evaluates O(deg^3 + deg^2 log |c0|) times
    # and divides nothing out
    p = _frontier_poly(kind)
    c0 = abs(int(p.coeffs[0]))
    assert 10 ** 11 <= c0 <= 10 ** 13
    calls, evals = [], []
    divide, value = exact._divide_root, exact._value

    def counted_divide(cs, r):
        calls.append(r)
        return divide(cs, r)

    def counted_value(rcs, x):
        evals.append(x)
        return value(rcs, x)

    monkeypatch.setattr(exact, "_divide_root", counted_divide)
    monkeypatch.setattr(exact, "_value", counted_value)
    assert rational_roots(p) == ([], p)
    assert calls == []
    d = p.degree
    assert 0 < len(evals) <= d ** 3 + d ** 2 * (2 * c0).bit_length()
    assert all(abs(x) <= c0 for x in evals)


# The scalar rule: every exact value is an int when it is integral and a
# Fraction otherwise, never a float.

def _check_scalars(values):
    for v in values:
        assert type(v) in (int, Fraction), repr(v)
        assert type(v) is int or v.denominator != 1, repr(v)


# st.fractions also draws integral Fractions such as Fraction(3, 1)
_SCALAR = st.integers(-20, 20) | st.fractions(-20, 20, max_denominator=6)
_POINT = st.integers(-9, 9) | st.fractions(-9, 9, max_denominator=6)


@settings(max_examples=200, deadline=None)
@given(a=st.lists(_SCALAR, max_size=5), b=st.lists(_SCALAR, min_size=1, max_size=4),
       lead=st.integers(2, 7) | st.fractions(1, 7, max_denominator=6),
       poles=st.sets(st.integers(-6, 6), min_size=1, max_size=4), x=_POINT)
def test_scalar_rule_poly(a, b, lead, poles, x):
    p, q = Poly(a), Poly(b + [lead])  # q is not monic
    quot, rem = divmod(p, q)
    _check_scalars(p.coeffs + q.coeffs + (p * q).coeffs + quot.coeffs + rem.coeffs
                   + monic(q).coeffs)
    _check_scalars([p(x), p(int(x)), q(x)])
    den = Poly.from_roots(sorted(poles))
    num = Poly(a[:len(poles) - 1])
    oracle = Reduced(num, den * lead)
    rf = RationalFunction(num * quotient(1, lead), den)
    _check_scalars(rf.num.coeffs + rf.den.coeffs + oracle.num.coeffs + oracle.den.coeffs)
    if x not in poles:
        _check_scalars([rf(x)])
    _check_scalars(partial_fractions(rf.num, rational_roots(rf.den)[0]).residues.values())


# entries without units, so that every pivot is a non-unit at first
_ENTRY = st.sampled_from([-6, -4, -3, -2, 0, 2, 3, 4, 6])


@settings(max_examples=150, deadline=None)
@given(rows=st.integers(1, 4), cols=st.integers(1, 5), data=st.data())
def test_scalar_rule_linalg(rows, cols, data):
    m = data.draw(st.lists(st.lists(_ENTRY, min_size=cols, max_size=cols),
                           min_size=rows, max_size=rows))
    red, _ = linalg.rref(m)
    _check_scalars(x for row in red for x in row.values())
    _check_scalars(x for v in linalg.nullspace(m, cols) for x in v)
    square = [row[:rows] + [0] * (rows - len(row)) for row in m]
    try:
        inverse = linalg.invert(square)
    except linalg.SingularMatrix:
        assume(False)
    _check_scalars(x for row in inverse for x in row)
    _check_scalars(x for row in linalg.mat_mul(inverse, square) for x in row)


@settings(max_examples=100, deadline=None)
@given(terms=st.dictionaries(st.tuples(st.integers(0, 3), st.integers(0, 3)),
                             _SCALAR, max_size=5),
       matrix=st.lists(st.lists(_SCALAR, min_size=2, max_size=2), min_size=2,
                       max_size=2))
def test_scalar_rule_multipoly(terms, matrix):
    p = MultiPoly(2, terms)
    _check_scalars(p.terms.values())
    _check_scalars(p.substitute(matrix).terms.values())
