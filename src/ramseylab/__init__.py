"""A workbench for partition-regularity experiments on [1..N]:
pattern schemas, colorings, monochromatic-instance search, avoidance
thresholds, finite-sums witnesses, and finite-semigroup algebra."""

from .colorings import Coloring, ColoringSpec, enumerate_colorings, make_coloring
from .errors import (BudgetExceededError, CompositionOutOfBoxError,
                     MalformedInputError, OutOfBoxError, RamseyError,
                     ValueOverflowError)
from .hindman import (Bundle, CutGrid, OpTable, builtin_op, check_bundle,
                      check_composed_witness, check_depth_indexed_witness,
                      check_fs_witness, check_grid_witness,
                      check_scaled_quad, check_shifted_quad,
                      composed_color_by_depth, find_fs_witness_detailed,
                      find_grid_witness_detailed, find_scaled_bundle_detailed,
                      find_scaled_quad_detailed, find_shifted_bundle_detailed,
                      find_shifted_quad_detailed, grid_common_color,
                      load_op_table, load_witness, make_witness, op_from_json,
                      save_witness, verify_witness)
from .patterns import (PatternSchema, format_pattern, instantiate,
                       parse_pattern)
from .search import (AvoidanceResult, InstanceQuery, ThresholdResult,
                     find_all_instances_detailed, find_avoiding_coloring,
                     find_instance, find_instance_detailed, threshold_number)
from .semigroups import (CayleyTable, algebra_report, is_central,
                         minimal_idempotents, minimal_left_ideals,
                         table_from_rows)
from .structures import (contains_kap, contains_kfp, contains_kfs,
                         contains_kgp, fs_values)

__version__ = "0.1.0"

__all__ = [
    "AvoidanceResult", "BudgetExceededError", "Bundle", "CayleyTable",
    "Coloring", "ColoringSpec", "CompositionOutOfBoxError", "CutGrid",
    "InstanceQuery", "MalformedInputError", "OpTable",
    "OutOfBoxError", "PatternSchema", "RamseyError", "ThresholdResult",
    "ValueOverflowError", "algebra_report", "builtin_op", "check_bundle",
    "check_composed_witness", "check_depth_indexed_witness",
    "check_fs_witness", "check_grid_witness", "check_scaled_quad",
    "check_shifted_quad",
    "composed_color_by_depth", "contains_kap", "contains_kfp",
    "contains_kfs", "contains_kgp", "enumerate_colorings",
    "find_all_instances_detailed", "find_avoiding_coloring",
    "find_fs_witness_detailed", "find_grid_witness_detailed",
    "find_instance", "find_instance_detailed", "find_scaled_bundle_detailed",
    "find_scaled_quad_detailed", "find_shifted_bundle_detailed",
    "find_shifted_quad_detailed", "format_pattern", "fs_values",
    "grid_common_color", "instantiate", "is_central",
    "load_op_table", "load_witness", "make_coloring", "make_witness",
    "minimal_idempotents", "minimal_left_ideals", "op_from_json",
    "parse_pattern", "save_witness", "table_from_rows",
    "threshold_number", "verify_witness",
]
