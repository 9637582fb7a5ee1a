"""Exact decomposition of polynomial solution sets over projective-line
coordinates: lex Groebner bases, saturation, leading-coefficient case
splits, and brute-force finite-field verification."""

from .fields import GF, QQ, Field, FieldError
from .poly import (
    Layout, Polynomial, ProjLayout, derivative, exact_div, lead_split, poly_gcd,
    squarefree_part, support_level, to_canonical_text,
)
from .parser import ParseError, ProblemError, ProblemSpec, parse_polynomial, parse_problem
from .groebner import (
    ExponentOverflowError, IdealBasis, buchberger, elimination_subbasis,
    heuristic_radical, ideal_saturate, normal_form, principal_saturate,
    radical_membership,
)
from .multiproj import (
    MaxNodesExceeded, Part, PartTree, SplitFinding, canonical_constraints,
    homogenized_generators, leaf_parts, multihomogenize, normalize_neq,
    partition_variety, reduced_lead_coefficient, root_part, split_scan,
)
from .oracle import (
    EnumerationCapExceeded, PartitionReport, ProjTuple, check_extension,
    check_partition, enumerate_proj_space, part_members, variety_points,
)

__version__ = "0.1.0"
