"""The Poisson bracket of two `MultiPoly`s, kept as a test oracle.

The package sums each bracket it needs only at the monomials it reads,
reading its derivatives off the packed rows (`poisson._bracket_at`),
and builds no `MultiPoly`.
The whole bracket, which no command called, lives on here, unchanged up
to imports, so that the tests compare against every term of it.
"""

from morita import linalg
from morita.polynomials import MultiPoly, _add_product, _exact_nonzero


def bracket(p, q, form):
    """Poisson bracket of the symplectic form: constant bivector -J^{-1},
    normalized so that {x_i, x_{d+i}} = 1 for the standard block form."""
    dp, dq = ([f.diff(a).terms for a in range(f.nvars)] for f in (p, q))
    terms = {}
    for a, row in enumerate(linalg.invert(form)):
        for b, x in enumerate(row):
            if x:
                _add_product(terms, dp[a], dq[b], -x)
    return MultiPoly._raw(p.nvars, _exact_nonzero(terms))
