"""The dual check on orbit sums, kept as a test oracle.

`poisson.functional_solutions_dim` counts the degree-n P with sum over
g of (u, g v) P(u + g v) = 0 from the invariant bases alone, with no
sum over the group.  The code it replaced -- every element's images of
every monomial through degree n + 1, summed over the group into orbit
sums, the functional rows read on them and their early-stopping rank --
lives on here, unchanged up to names and imports, so that the tests
compare against the rows and counts that ran before.
"""

import math
from itertools import product

from morita import linalg
from morita.polynomials import _exact_nonzero, _Packing, _Substitution, monomials


def orbit_sums(action, top):
    """The `_Packing` of degrees 0..top and, per degree d, the map from
    each packed degree-d monomial b to its orbit sum
    T(b) = sum over g of (g x)^b, read at the leading monomials of the
    echelon form of all of them (nonzero coefficients only).  These span
    the degree-d invariants, so that restriction is injective on them.

    The elements are taken one at a time, each climbing the degrees, so
    that only one element's images are alive at once."""
    packing = _Packing(action.dim, top)
    levels = [list(map(packing.pack, monomials(action.dim, d))) for d in range(top + 1)]
    totals = [[{} for _ in level] for level in levels]
    for g in action.elements:
        sub = _Substitution(g, packing)
        for level, level_totals in zip(levels, totals):
            for total, img in zip(level_totals, sub.images(level)):
                get = total.get
                for e, x in img.items():
                    total[e] = get(e, 0) + x
    sums = []
    for level, level_totals in zip(levels, totals):
        echelon = linalg.Echelon()
        for total in level_totals:
            echelon.add(total)
        sums.append({b: _exact_nonzero({e: total.get(e, 0) for e in echelon.pivots})
                     for b, total in zip(level, level_totals)})
    return packing, sums


def functional_matrix(action, degree, sums=None):
    """Sparse rows over the monomials of a degree-n P: the coefficients
    of sum over g of (u, g v) P(u + g v) at the monomials u^a v^c, sorted,
    whose v^c leads the orbit sums of its degree.  For P = x^e, Q_P has
    the terms J[a][c] C(e, f) u^(f + e_a) w^(e - f + e_c), f <= e, and
    each w^b sums over the group to T(b).

    `sums` is the output of `orbit_sums` through degree n + 1 or more;
    computed here when not given."""
    p_monos = monomials(action.dim, degree)
    packing, sums = orbit_sums(action, degree + 1) if sums is None else sums
    pack, units = packing.pack, packing.units
    pairing = [(units[a], units[c], x) for a, row in enumerate(action.form)
               for c, x in enumerate(row) if x]
    rows = {}
    for col, e in enumerate(p_monos):
        terms = {}
        get = terms.get
        packed = pack(e)
        for f in product(*(range(k + 1) for k in e)):
            scale = math.prod(map(math.comb, e, f))
            low = pack(f)
            level = sums[degree + 1 - sum(f)]
            for a, c, x in pairing:
                for v, y in level[packed - low + c].items():
                    key = (low + a, v)
                    terms[key] = get(key, 0) + scale * x * y
        for key, x in _exact_nonzero(terms).items():
            rows.setdefault(key, {})[col] = x
    return [rows[key] for key in sorted(rows)], p_monos


def solutions_dim(action, degree, sums=None):
    """The solution count of the orbit-sum rows: the number of monomials
    of P less the rank of `functional_matrix` (`sums` as there)."""
    matrix, p_monos = functional_matrix(action, degree, sums)
    echelon = linalg.Echelon()
    for row in matrix:
        if echelon.add(row) and echelon.rank == len(p_monos):
            break
    return len(p_monos) - echelon.rank
