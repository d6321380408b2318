"""Finite symplectic group actions and 0-th Poisson homology at desk scale.

A group of exact rational symplectic matrices acts on polynomials.  Its
closure records the Cayley table, off which the power traces tr(g^k)
are read with no matrix power taken.  The degree-d invariants number
Molien's count (`linalg.MolienSeries`, on those power traces), and
their basis is built from products of lower-degree invariants: the
products g b of each generator g with the basis of degree d - deg g go
into an incremental echelon, which stops once its rank is that count.
Only in degrees where the products fall short (new generators exist,
and never above |G|, by Noether's bound) do fixed spaces of the
generators, nullspaces of the stacked Sym^d(g) - I, join the same
echelon to reach that count; the basis is its pivot rows.

When every generator is M = diag(g_h, g_y) on the two halves x, y of
the coordinates (h and h*), the invariants of h alone, a nullspace over
the h-monomials only, come first, and then their polarizations.  Let N
be the block matrix [[0, B], [0, 0]] and D p(x) = (N x) . grad p(x),
which is E_B = sum over i, l of B[i][l] y_l d/dx_i.  As
grad (p o M)(x) = M^T (grad p)(M x),
    D(p o M)(x) = (M N x) . (grad p)(M x),
    ((D p) o M)(x) = (N M x) . (grad p)(M x),
and the two agree for every p exactly when M N = N M, that is
g_h B = B g_y.  So
each such B gives a derivation that maps invariants to invariants, in
the same degree.  By Weyl (multisymmetric functions) polarization
generates the invariants of S_n, and by Hunziker those of type B and
of the dihedral groups, not of type D; the nullspace over every
monomial runs only where the count is still short.

Bracket spans are measured by exact rank on invariant coordinates, and
the graded dimensions of the quotient of invariants by brackets are
compared with a dual count: the degree-n polynomials P with
sum over g of (u, g v) P(u + g v) = 0 identically in u, v.  Those P
are the dual of A/{A, A^G}, for A the polynomial ring and A^G its
invariants.  The dual of HP_0 = A^G/{A^G, A^G} is their invariant
part, so every solution that is not invariant makes the count too
large (S_3 in degree 2: dual 1 against hp0 0); counting over
invariant P is ROADMAP item 3 step A.  The Reynolds operator (the
group average) lives in the tests, as the reference the invariant
bases are compared against.

Every substitution x -> M x goes through one kernel, `_Substitution`,
on packed exponents (`polynomials._Packing`), where multiplying
monomials adds ints: the image of x^e is the image of x^(e - e_i),
taken from the degree below, times the linear form of row i of M.  An
action is a plain value and keeps no images.  The bases of a run keep
one substitution per generator, and each nullspace grows its invariance
rows' images from those the one before built, so every image is built
once per run.  An `hp0_dims` run packs on one packing: the invariance
rows and the nullspace rows of each fallback degree, the
polarizations, the bases, their products and brackets, and with a dual
check the brackets of the dual.  No `MultiPoly` is built, and no
gradient is kept: every bracket sums -J^-1[a][b] d_a p d_b q straight
into one term map, reading both derivatives off the packed rows p and q
(`_bracket_at`), so a span pairs the basis rows as they are and the
dual pairs them with one-term monomial rows.

Every generator is checked symplectic, so the group preserves J and
hence the bivector J^-1, and a bracket of invariants is invariant.  The
degree-d brackets therefore lie in the span of the degree-d basis rows,
on which restriction to their leading monomials K is injective (the
rows are in echelon form): a bracket sums only its products at those
len(basis) monomials, and its span is full once its rank reaches
len(basis).

The dual takes no sum over the group.  For fixed u, let
F(w) = (u, w) P(u + w); the condition is that sum over g of F(g v)
vanishes.  Under the apolar pairing <x^a, x^b> = a! [a = b],
substituting g has adjoint substituting g^T, and g^T = J g^-1 J^-1
because g^T J g = J; so the group sum of F vanishes exactly when F
pairs to 0 with q(J^-1 x) for every invariant q.  By Leibniz, that
pairing is the sum over c of (u, e_c) ((d_c s)(d) P)(u), s = q(J^-1 x).
Scaled by m! at u^m, and with P read in the coordinates e! P_e, its
coefficient at u^m is the pairing of P with the bracket of bivector J
of x^m and s, and that bracket is {x^m(J x), q} (the bracket above) at
J^-1 x.  Substituting J and J^-1 is invertible in each degree, so the
solutions of degree n number the degree-n monomials less the rank of
the brackets {x^m, q}, x^m of degree n + 2 - k and q in the basis of
the degree-k invariants, k = 1..n + 1: the codimension of the brackets
of polynomials with invariants.  These are read off the bases of the
run, with no substitution and no group element, and go one at a time
into an incremental echelon that stops at full rank.
"""

import math

from . import linalg
from .exact import OutOfRange, _check_degree, rational
# no code here uses MultiPoly: bench/spans.py traces MultiPoly.substitute
# through this module
from .polynomials import (MultiPoly, ShapeMismatch, _Packing, _Substitution,
                          _add_packed_product, monomials)


class NotSymplectic(ValueError):
    pass


class OrderCapExceeded(ValueError):
    pass


class NegativeDimension(AssertionError):
    """A graded dimension came out negative: an internal bug, not bad input."""


class InvariantCountMismatch(AssertionError):
    """An invariant basis disagrees with Molien's count: an internal bug,
    not bad input."""


def _freeze(m):
    return tuple(tuple(x if type(x) is int else rational(x) for x in row) for row in m)


def standard_form(d):
    """Block form [[0, I], [-I, 0]] on 2d coordinates."""
    n = 2 * d
    j = [[0] * n for _ in range(n)]
    for i in range(d):
        j[i][d + i] = 1
        j[d + i][i] = -1
    return _freeze(j)


def _is_symplectic(g, j):
    """g^T J g = J, exactly (an integral Fraction equals its int): row a
    of g^T J g is column a of g times J g."""
    jg = [linalg._row_times(row, g) for row in j]
    return all(linalg._row_times(col, jg) == list(row) for col, row in zip(zip(*g), j))


class SymplecticAction:
    """A finite group of symplectic matrices: its form, the form's
    inverse, its elements, the generators it was closed from, each
    element's power traces (tr g^k, k = 1..dim) and its Molien count
    (`linalg.MolienSeries`, built when first asked for).  It keeps no
    Cayley table and no monomial images."""

    def __init__(self, dim, form, form_inverse, elements, generators, power_traces):
        self.dim = dim
        self.form = form
        self.form_inverse = form_inverse
        self.elements = elements
        self.generators = generators
        self.power_traces = power_traces
        self._molien = None

    def molien(self, degree):
        """The dimension of the degree-d invariants, by Molien's formula;
        raises OutOfRange for a negative degree."""
        if self._molien is None:
            self._molien = linalg.MolienSeries(self.power_traces)
        return self._molien.count(degree)

    @property
    def order(self):
        return len(self.elements)


def close_group(generators, form, cap=10000):
    """Breadth-first closure of the generators under multiplication.

    The form is checked skew (else its bracket is not Poisson) and
    invertible (inverted once here, for every bracket), and the
    generators symplectic, exactly: then g^T J g = J forces det g = +-1,
    so the closure is a group.  Closure past cap signals an infinite or
    mis-entered group.  A skew J with J^2 = -I (J J^T = I, as for the
    block form) has inverse -J (`linalg._minus_if_inverse`), read with
    no elimination; any other form goes through `linalg.invert`.

    The search records the Cayley table, table[i][s] = the index of
    elements[i] gens[s], and each element's word (its parent's word and
    the generator s that reached it).  A product is built row by row:
    the rows of the elements form a small set (S_6's 720 elements have
    92), each held as an id, with a memo of row times g per generator
    (`linalg._RowTimes`).  The elements are returned sorted, with the
    power traces read off the table (`linalg._power_traces`).
    """
    form = _freeze(form)
    n = len(form)
    if any(len(row) != n for row in form):
        raise ShapeMismatch("form is not square")
    if any(form[i][k] != -form[k][i] for i in range(n) for k in range(i, n)):
        raise NotSymplectic("form fails J^T = -J: %r" % (form,))
    form_inverse = linalg._minus_if_inverse(form)
    if form_inverse is None:
        try:
            form_inverse = linalg.invert(form)
        except linalg.SingularMatrix:
            raise NotSymplectic("form is degenerate: %r" % (form,)) from None
    gens = [_freeze(g) for g in generators]
    for g in gens:
        if len(g) != n or any(len(row) != n for row in g):
            raise ShapeMismatch("generator size does not match the form")
        if not _is_symplectic(g, form):
            raise NotSymplectic("generator fails g^T J g = J: %r" % (g,))
    integral = all(type(x) is int for g in gens for row in g for x in row)
    rows = [tuple(int(i == k) for k in range(n)) for i in range(n)]
    ids = {r: i for i, r in enumerate(rows)}
    memos = [linalg._RowTimes(g, integral, rows, ids) for g in gens]
    elements = [tuple(range(n))]  # each element as the ids of its rows
    index = {elements[0]: 0}
    table = []
    words = [()]
    # `elements` grows while it is read: it is the queue of the search
    for i, a in enumerate(elements):
        row = []
        for s, memo in enumerate(memos):
            b = tuple(map(memo.__getitem__, a))
            j = index.get(b)
            if j is None:
                j = index[b] = len(elements)
                elements.append(b)
                words.append(words[i] + (s,))
                if len(elements) > cap:
                    raise OrderCapExceeded("group order exceeds cap %d" % cap)
            row.append(j)
        table.append(row)
    elements = [tuple(rows[r] for r in a) for a in elements]
    pairs = sorted(zip(elements, linalg._power_traces(elements, table, words)))
    return SymplecticAction(dim=n, form=form, form_inverse=form_inverse,
                            elements=[g for g, _ in pairs], generators=gens,
                            power_traces=[p for _, p in pairs])


def symmetric_group_action(n):
    """S_n on reflection representation plus its dual, with the canonical
    pairing as the form.  All matrices are rational."""
    if n < 2:
        raise OutOfRange("S_n needs n >= 2, got %d" % n)
    d = n - 1
    # adjacent transposition s_i in the basis f_i = e_i - e_{i+1}
    gens = []
    for i in range(d):
        m = [[int(a == b) for b in range(d)] for a in range(d)]
        m[i][i] = -1
        if i > 0:
            m[i - 1][i] = 1
        if i < d - 1:
            m[i + 1][i] = 1
        gens.append(m)
    # diag(m, m^-T) on h + h*, where m^-T = m^T since m^2 = I
    big = [[row + [0] * d for row in m]
           + [[0] * d + list(col) for col in zip(*m)]
           for m in gens]
    return close_group(big, standard_form(d), cap=math.factorial(n) + 1)


def _bivector(j_inv):
    """The nonzero entries (a, b, -J^-1[a][b]) of the bracket's bivector."""
    return [(a, b, -x) for a, row in enumerate(j_inv) for b, x in enumerate(row) if x]


def _bracket_at(p, q, bivector, keys, packing):
    """The terms (unnormalised) at the packed monomials `keys` of sum
    over the entries (a, b, x) of `bivector` of x d_a p d_b q, for the
    packed rows p and q on `packing`: of the products only those whose
    key is in `keys` are summed.  No gradient is built: only d_a of the
    smaller row is listed (p and q swap, and so do a and b, when q is the
    smaller), and d_b q at k2 is e_b q[k2 + u_b], its exponent e_b read
    off k2 + u_b by shift and mask.  Where the keys are fewer than the
    terms of q, each key k reads q at k - k1 + u_b for each term k1 of
    d_a p; elsewhere every product is formed, its e_b read only when its
    key is in `keys`.  A key reached by borrowing across fields never
    counts, as the rows are homogeneous: a term k2 + u_b of q with
    e_b >= 1 makes k1 + k2 a sum of exponents whose total degree is the
    keys', so it adds with no carry and is k only as exponents."""
    if len(p) > len(q):
        p, q = q, p
        bivector = [(b, a, x) for a, b, x in bivector]
    shifts, units, mask = packing.shifts, packing.units, packing.mask
    pairs, terms = p.items(), q.items()
    out = {}
    get = out.get
    for a, b, x in bivector:
        s, u = shifts[b], units[b]
        # the terms of d_a p, each key less u_b
        small = [(k - units[a] - u, c * e) for k, c in pairs if (e := k >> shifts[a] & mask)]
        if not small:
            continue
        if len(keys) < len(q):
            read = q.get
            for k in keys:
                t = 0
                for k1, c1 in small:
                    c2 = read(k - k1)
                    if c2 is not None:
                        t += c1 * c2 * ((k - k1) >> s & mask)
                if t:
                    out[k] = get(k, 0) + x * t
        else:
            for k1, c1 in small:
                c1 *= x
                for k2, c2 in terms:
                    k = k1 + k2
                    if k in keys and (e := k2 >> s & mask):
                        out[k] = get(k, 0) + c1 * c2 * e
    return out


def _invariance_rows(packed, substitutions):
    """Nonzero rows of Sym^d(g) - I stacked over the generators g, as maps
    column -> entry, where column c is the degree-d monomial packed[c].
    A polynomial fixed by every generator is fixed by the group they
    generate.  The images come from `substitutions`, one `_Substitution`
    per generator on the packing of `packed`, which a run keeps across
    its degrees: a degree's images grow from those the degree before
    built."""
    index = {e: r for r, e in enumerate(packed)}
    rows = []
    for sub in substitutions:
        block = [{} for _ in packed]
        for c, img in enumerate(sub.images(packed)):
            for e, x in img.items():
                block[index[e]][c] = x
        for r, row in enumerate(block):
            x = row.pop(r, 0) - 1
            if x:
                row[r] = x
            if row:
                rows.append(row)
    return rows


def _fixed_rows(packed, substitutions):
    """The nullspace of `_invariance_rows` over the monomials `packed`:
    primitive integer rows, as maps packed monomial -> entry."""
    rows = _invariance_rows(packed, substitutions)
    return [{packed[c]: x for c, x in v.items()} for v in linalg.nullspace(rows, len(packed))]


def invariant_basis(action, degree, packing, substitutions):
    """A basis of the degree-d invariants, the common fixed space of the
    generators on the degree-d monomials: primitive integer rows, as maps
    packed monomial -> entry on `packing` (which has room for degree d).
    `substitutions` are those of `_invariance_rows`."""
    _check_degree(degree)
    packed = [packing.pack(e) for e in monomials(action.dim, degree)]
    return _fixed_rows(packed, substitutions)


def _polarizations(action, packing):
    """The derivations E_B = sum over i, l of B[i][l] y_l d/dx_i (x the
    first half of the coordinates, y the second), for B in a basis of
    the solutions of g_h B = B g_y over the generators g = diag(g_h, g_y)
    (module docstring), each as one (shift, unit, [(unit of y_l,
    B[i][l]), ...]) per nonzero row i of B, where shift and unit are
    those of x_i on `packing`; None when a generator is not block
    diagonal."""
    r = action.dim // 2
    rows = []  # unknown B[i][l] in column i * r + l
    for g in action.generators:
        if any(x for row in g[:r] for x in row[r:]) or any(x for row in g[r:] for x in row[:r]):
            return None
        for i in range(r):
            for m in range(r):  # entry (i, m) of g_h B - B g_y
                row = {}
                for t in range(r):
                    row[t * r + m] = row.get(t * r + m, 0) + g[i][t]
                    row[i * r + t] = row.get(i * r + t, 0) - g[r + t][r + m]
                rows.append(row)
    derivations = []
    for b in linalg.nullspace(rows, r * r):
        forms = [[] for _ in range(r)]
        for c, x in sorted(b.items()):
            forms[c // r].append((packing.units[r + c % r], x))
        derivations.append([(packing.shifts[i], packing.units[i], form)
                            for i, form in enumerate(forms) if form])
    return derivations


def _polarize(terms, derivation, mask):
    """E_B of the packed terms `terms`, for one derivation of
    `_polarizations` on a packing with field `mask`: unnormalised."""
    out = {}
    get = out.get
    for shift, unit, form in derivation:
        for k, c in terms.items():
            e = k >> shift & mask
            if e:
                k -= unit
                c *= e
                for v, x in form:
                    out[k + v] = get(k + v, 0) + c * x
    return out


def _h_block_generators(action, degree, packing, substitutions, derivations, echelon, size):
    """The new generators of degree d that the h block and polarization
    give, each the pivot row it raised `echelon` by; the echelon is left
    at rank `size` or short of it.

    The invariants of the first half of the coordinates alone (h, which
    block-diagonal generators keep closed; `pack` reads the first half of
    a full exponent) are the nullspace of their invariance rows, on the
    run's packing and substitutions, and go into the echelon first.
    Each row that raises its rank joins the generators as the new pivot
    row, and that pivot's images under every derivation of
    `_polarizations` are queued behind the rows still to come."""
    packed = [packing.pack(e) for e in monomials(action.dim // 2, degree)]
    queue = _fixed_rows(packed, substitutions)
    new = []
    for row in queue:  # `queue` grows while it is read
        if echelon.add(row):  # which put its new pivot row last
            new.append(next(reversed(echelon.pivots.values())))
            if echelon.rank == size:
                break
            queue += [_polarize(new[-1], b, packing.mask) for b in derivations]
    return new


def _invariant_bases(action, top):
    """The `_Packing` of d = 0..top and, per degree d, the pivot rows of
    the echelon that certified the degree-d invariants: their basis.

    Products of invariants are invariant.  In degree d the products g b
    of each generator g (an invariant that the products of its degree
    could not build) with each b in the basis of degree d - deg g go one
    at a time into an echelon, which stops once its rank is the Molien
    count.  Where they fall short and every group generator is block
    diagonal, the h block and its polarizations follow
    (`_h_block_generators`).  Where the count is still short the rows of
    the nullspace basis, `invariant_basis` on the same packing and the
    run's one `_Substitution` per group generator, go into the same
    echelon, which must then reach the count, and those that raise its
    rank join the generators.  A degree whose count is 0 takes no work."""
    packing = _Packing(action.dim, top)
    substitutions = [_Substitution(g, packing) for g in action.generators]
    derivations = _polarizations(action, packing)
    bases = [[{0: 1}]]
    generators = []  # (degree, packed terms), by degree
    for d in range(1, top + 1):
        size = action.molien(d)
        echelon = linalg.Echelon()
        if size:
            products = (_add_packed_product({}, g, b)
                        for k, g in generators for b in bases[d - k])
            for row in products:
                if echelon.add(row) and echelon.rank == size:
                    break
        if echelon.rank < size and derivations is not None:
            generators += [(d, row) for row in _h_block_generators(
                action, d, packing, substitutions, derivations, echelon, size)]
        if echelon.rank < size:
            generators += [(d, row) for row in
                           invariant_basis(action, d, packing, substitutions)
                           if echelon.add(row)]
            if echelon.rank != size:
                raise InvariantCountMismatch("degree %d: %d invariants, Molien count %s"
                                             % (d, echelon.rank, size))
        bases.append(list(echelon.pivots.values()))
    return packing, bases


def bracket_span_dim(action, degree, bases=None):
    """Dimension of the span of brackets of positive-degree invariants
    landing in degree d (inputs of degrees i + j = d + 2).

    `bases` is the output of `_invariant_bases` through degree d + 1 (d
    when there are no degree-1 invariants); computed here when not given.

    The group preserves the bracket, so every bracket of invariants is
    a degree-d invariant, in the span of the degree-d basis rows.  Their
    leading columns K are distinct, so restriction to K is injective on
    that span, and the brackets' rank is the rank of their coefficients
    at K, the only terms of a bracket that are summed (`_bracket_at`).
    The brackets are taken one at a time into an incremental echelon on
    those coordinates, which stops as soon as its rank reaches the
    number of basis rows, the most it can be."""
    _check_degree(degree)
    packing, bases = _invariant_bases(action, degree + 1) if bases is None else bases
    keys = {min(row) for row in bases[degree]}
    if not keys:
        return 0
    bivector = _bivector(action.form_inverse)
    span = linalg.Echelon()
    # each degree k is paired in one pass of this loop only; within one
    # degree only one order of each pair is taken, since {q, p} = -{p, q}
    for i in range(1, degree // 2 + 2):
        j = degree + 2 - i
        if not bases[i] or not bases[j]:
            continue
        for a, p in enumerate(bases[i]):
            for q in bases[j][a + 1:] if i == j else bases[j]:
                if span.add(_bracket_at(p, q, bivector, keys, packing)) \
                        and span.rank == len(keys):
                    return span.rank
    return span.rank


class GradedDims:
    """Per-degree dimensions of the bracket quotient up to a cutoff, and
    the invariant bases they were read on when kept for a dual check."""

    def __init__(self, dims, max_degree, stabilized=False, bases=None):
        self.dims = dims
        self.max_degree = max_degree
        self.stabilized = stabilized
        self.bases = bases

    @property
    def total(self):
        return sum(self.dims.values())

    def to_json(self):
        return {"dims": {str(k): v for k, v in sorted(self.dims.items())},
                "max_degree": self.max_degree,
                "total_up_to_cutoff": self.total,
                "stabilized": self.stabilized}


def hp0_dims(action, max_degree, dual=False):
    """dim(invariants_n) - dim(bracket span in degree n) for n <= cutoff.

    The bracket span in degree n pairs degrees i + j = n + 2 with i, j >= 1,
    so the degree cutoff + 1 basis is built only when something pairs
    with it: at cutoff 0, or when there are degree-1 invariants.  With
    `dual` it is always built, and the bases are kept on the result for
    `duality_check`, which reads them through that degree.

    The stabilization flag only records that the trailing quarter of the
    window is zero; it is a heuristic, not a finiteness proof.
    """
    _check_degree(max_degree)
    packing, bases = _invariant_bases(
        action, max_degree + (dual or max_degree == 0 or action.molien(1) > 0))
    dims = {}
    for n in range(max_degree + 1):
        dims[n] = len(bases[n]) - bracket_span_dim(action, n, (packing, bases))
        if dims[n] < 0:
            raise NegativeDimension("degree %d: bracket span exceeds invariants" % n)
    tail = max(1, -(-max_degree // 4))
    stable = all(dims[n] == 0 for n in range(max_degree - tail + 1, max_degree + 1))
    return GradedDims(dims=dims, max_degree=max_degree, stabilized=stable,
                      bases=(packing, bases) if dual else None)


def functional_solutions_dim(action, degree, bases=None):
    """Dimension of the space of degree-n polynomials P with
    sum over g of (u, g v) P(u + g v) = 0 identically: the number of
    degree-n monomials less the rank of the brackets {x^m, q} of each
    monomial x^m of degree n + 2 - k with each basis row q of the
    degree-k invariants, k = 1..n + 1 (module docstring).  That space is
    the degree-n dual of A/{A, A^G}, not of HP_0: HP_0's dual is its
    invariant part, so the count is too large wherever a solution is not
    invariant (ROADMAP item 3 step A).

    `bases` is the output of `_invariant_bases` through degree n + 1 or
    more, which a dual check shares across its degrees; computed here
    when not given.  Each monomial is the one-term row {x^m: 1}.  The
    brackets, read at every degree-n monomial, go one at a time into an
    incremental echelon, which stops once its rank reaches the number of
    monomials of P."""
    _check_degree(degree)
    packing, bases = _invariant_bases(action, degree + 1) if bases is None else bases
    keys = {packing.pack(e) for e in monomials(action.dim, degree)}
    size = len(keys)
    bivector = _bivector(action.form_inverse)
    echelon = linalg.Echelon()
    for k in range(1, degree + 2):
        if not bases[k]:
            continue
        monos = [{packing.pack(e): 1} for e in monomials(action.dim, degree + 2 - k)]
        for q in bases[k]:
            for m in monos:
                if echelon.add(_bracket_at(m, q, bivector, keys, packing)) \
                        and echelon.rank == size:
                    return 0
    return size - echelon.rank


def duality_check(action, graded):
    """Per-degree comparison of the bracket-quotient dimensions `graded`
    (as returned by hp0_dims) with the dual functional-equation solution
    counts."""
    bases = graded.bases or _invariant_bases(action, graded.max_degree + 1)
    rows = []
    ok = True
    for n in range(graded.max_degree + 1):
        dual = functional_solutions_dim(action, n, bases)
        match = (graded.dims[n] == dual)
        ok = ok and match
        rows.append({"degree": n, "hp0": graded.dims[n], "dual": dual,
                     "match": match})
    return {"pass": ok, "rows": rows}
