"""Certified upper and lower bounds on the capacity of the iid binary
deletion channel, built from genie-aided auxiliary channels and a
two-sided capacity solver."""

from .baa import (DEFAULT_MAX_ITERATIONS, DEFAULT_TOLERANCE, BaaResult,
                  mutual_information, solve_capacity)
from .bounds import (BOUND_KINDS, LOWER_KINDS, UPPER_KINDS, BoundCurve,
                     BoundSpec, bound_c1_star, bound_c2_star, bound_c3,
                     bound_c4, c1_star_tail, compose_best_upper,
                     conjecture1_report, d_grid, evaluate_bound,
                     limit_large_d_c2, limit_small_d_c2, limit_small_d_c3,
                     lower_bound, resolve_l_max, sweep_bound)
from .channel import (DEFAULT_ENTRY_BUDGET, L_CAP, SparseChannel,
                      build_binomial_deletion_channel,
                      build_fixed_deletion_channel, dump_channel)
from .combinatorics import (MAX_BITSTRING_LENGTH, BitString, Weight, binomial,
                            binomial_weight, binomial_weight_tilde,
                            embedding_count, pascal_weight)
from .errors import (DelcapError, ExtrapolationRequiredError, ParameterError,
                     ResourceLimitError, SolverNotConvergedError,
                     TableChecksumError, TableFormatError, TableRowError,
                     TableVersionError)
from .lemmas import (LEMMA_IDS, LemmaInstance, LemmaReport, binary_entropy,
                     conjecture2_report, verify_lemma, verify_lemma_suite)
from .tables import (DEFAULT_DIAGONAL_L_MAX, DEFAULT_L_MAX, CoefficientTable,
                     TableEntry, alpha, alpha_tilde, build_default_table,
                     closed_form_f, extrapolate_alpha_lemma2,
                     extrapolate_tilde_alpha_lemma4, f_tilde_value, f_value,
                     load_table, populate_table, save_table, serialize_table)

__version__ = "0.1.0"

__all__ = [
    "BOUND_KINDS", "BaaResult", "BitString", "BoundCurve", "BoundSpec",
    "CoefficientTable", "DEFAULT_DIAGONAL_L_MAX", "DEFAULT_ENTRY_BUDGET",
    "DEFAULT_L_MAX", "DEFAULT_MAX_ITERATIONS", "DEFAULT_TOLERANCE",
    "DelcapError", "ExtrapolationRequiredError", "LEMMA_IDS", "LOWER_KINDS",
    "L_CAP", "LemmaInstance", "LemmaReport", "MAX_BITSTRING_LENGTH",
    "ParameterError", "ResourceLimitError", "SolverNotConvergedError",
    "SparseChannel", "TableChecksumError", "TableEntry", "TableFormatError",
    "TableRowError", "TableVersionError", "UPPER_KINDS", "Weight", "alpha",
    "alpha_tilde", "binary_entropy", "binomial", "binomial_weight",
    "binomial_weight_tilde", "bound_c1_star", "bound_c2_star", "bound_c3",
    "bound_c4", "build_binomial_deletion_channel", "build_default_table",
    "build_fixed_deletion_channel", "c1_star_tail", "closed_form_f",
    "compose_best_upper", "conjecture1_report", "conjecture2_report", "d_grid",
    "dump_channel", "embedding_count", "evaluate_bound",
    "extrapolate_alpha_lemma2", "extrapolate_tilde_alpha_lemma4",
    "f_tilde_value", "f_value", "limit_large_d_c2", "limit_small_d_c2",
    "limit_small_d_c3", "load_table", "lower_bound", "mutual_information",
    "pascal_weight", "populate_table", "resolve_l_max", "save_table",
    "serialize_table", "solve_capacity", "sweep_bound", "verify_lemma",
    "verify_lemma_suite",
]
