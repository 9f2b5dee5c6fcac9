"""Exact toolkit for generalized Pell equations and D(n)-tuples."""

__version__ = "0.1.0"

from .arith import is_perfect_square, is_prime, isqrt
from .contfrac import (
    CFExpansion,
    QuadIrr,
    convergents,
    expand,
    lemma_db_check,
    worley_candidates,
)
from .pellian import (
    PellianOutcome,
    PellianProblem,
    PellUnit,
    all_solutions_stream,
    case2_residue_search,
    decide_paper_equation,
    fujita_fast_path,
    pell_fundamental,
    solve_brute,
    solve_complete,
)
from .zring import (
    ExtensionData,
    RingElem,
    TupleReport,
    check_tuple,
    find_admissible_pairs,
    integer_quadruple_search,
    lemma3_extend_data,
    prop_family,
    remark2_reduction,
    sqrt_in_ring,
    theorem3_classify,
)

__all__ = [
    "__version__",
    "isqrt", "is_perfect_square", "is_prime",
    "QuadIrr", "CFExpansion", "expand", "convergents",
    "lemma_db_check", "worley_candidates",
    "PellianProblem", "PellianOutcome", "PellUnit",
    "pell_fundamental", "solve_brute", "solve_complete", "fujita_fast_path",
    "decide_paper_equation", "case2_residue_search",
    "all_solutions_stream",
    "RingElem", "TupleReport", "ExtensionData", "sqrt_in_ring",
    "check_tuple", "lemma3_extend_data", "prop_family",
    "find_admissible_pairs", "remark2_reduction", "theorem3_classify",
    "integer_quadruple_search",
]
