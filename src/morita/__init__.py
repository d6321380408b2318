"""Exact-arithmetic toolkit: symmetric group trace formulas, parameter
classification from K-theory data, and 0-th Poisson homology of finite
symplectic group invariants."""

from .exact import (Poly, RationalFunction, PartialFraction,
                    partial_fractions, rational_roots)
from .partitions import (Partition, enumerate_partitions, gamma_star,
                         hook_partition, kostka, schur_eval_ones)
from .traces import (content_polynomial, f_trivial, g_function,
                     a_coefficients, chi_H, chi_B, morita_phi_factor,
                     verify_sum_identity, trace_table)
from .classify import (KTheoryVector, Relation, Rejection, hook_matrix,
                       invert_hook_matrix, build_f, derive_relation,
                       remark_identity_check, search_relations,
                       iso_obstruction)
from .poisson import (SymplecticAction, GradedDims, close_group,
                      symmetric_group_action, standard_form, bracket_span_dim,
                      hp0_dims, functional_solutions_dim, duality_check)

__all__ = [name for name in dir() if not name.startswith("_")]
