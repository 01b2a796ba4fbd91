"""Exact partitioned-matrix products and set-theoretic braided solutions,
with desk-scale verifiers tying the two together."""

from .blockmat import (BlockPartition, Matrix, PartitionedMatrix,
                       commutation_matrix, format_matrix_csv, hadamard,
                       identity, inverse, is_permutation_matrix, khatri_rao,
                       kronecker, parse_matrix_csv, parse_partitioned_csv,
                       permutation_matrix, tracy_singh)
from .enumeration import (EnumerationConfig, EnumerationLimitError,
                          enumerate_solutions, iso_classes)
from .errors import AxiomError, ParseError, ShapeError, SingularMatrixError
from .repmat import (BlockPosition, TheoremAResult, block_nonzero_position,
                     compose_flip, conjugate_check, direct_rep_position,
                     embed_on_factors, flip_matrix, qybe_check, representing_matrix,
                     tracy_block_source, verify_theorem_a, ybe_check_matrix,
                     ybe_check_scalar)
from .setsolutions import (CheckReport, CheckResult, Permutation, SetSolution,
                           apply_r, axiom_failure, check_solution, direct_product,
                           index_to_pair, is_braided, is_involutive, is_nondegenerate,
                           is_square_free, is_trivial, isomorphic_set, pair_to_index,
                           solution_from_json, solution_to_json)

__version__ = "0.1.0"
