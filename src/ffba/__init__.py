"""Exact arithmetic for badly approximable targets over F_q((1/t)).

The package constructs target vectors gamma for which the inhomogeneous
approximation quantity inf_N |N| |<N theta - gamma>| (and its weighted,
higher-dimensional analogues) stays bounded away from zero, and verifies
such claims independently from replayable certificates.  Everything is
exact: field elements are table-driven codes, series tails are streamed
coefficient sources, and values are powers of q carried as exponents.
"""

from __future__ import annotations

from .cantor import (ConstructionSchedule, CylinderSet, TreeReport,
                     as_schedule, dimension_lower_bound, measure_after_stages,
                     validate_tree_like)
from .errors import (BudgetExhaustedError, CertificateFormatError,
                     DegenerateScheduleError, ElementCodeError, FfbaError,
                     InsufficientPrecisionError, InvalidScheduleError,
                     MissingModulusError, NonPrimeError, ReducibleModulusError,
                     TooLargeToEnumerateError)
from .field import Field, elem_arith, field_new
from .hankel import (HankelView, delta_entry, left_null_vector, rank_profile,
                     square_invertibility_spectrum)
from .indices import (IndicesTrace, RationalityVerdict, Stage, StageStatus,
                      indices_sequence, rationality_probe)
from .polynomial import Poly, poly_arith
from .qval import BelowLimit, QVal, ZERO, qexp
from .series import (CoefficientSource, FiniteSource, LaurentSeries,
                     PeriodicSource, RationalSource, RuleSource, expand_rational,
                     frac_abs, parse_series, poly_times_series_frac,
                     register_rule, rule_source, series_from_json,
                     series_roundtrip_check, series_to_text)
from .targets import (CertStage, Certificate, CertificateReport, ExtensionCount,
                      extension_counts, gamma_prefix,
                      schedule_from_certificate, survivor_cylinders,
                      verify_certificate)
from .verify import (ComparisonReport, DepthBoundedConstant, LiminfReport,
                     M0Report, MatrixConditionReport, WitnessReport,
                     alternation_pairs, c_depth, c_depth_weighted,
                     c_liminf_depth, compare_constants,
                     compare_weighted_constants,
                     find_witness_small, liminf_structure, m0_structure,
                     make_liminf_theta, matrix_condition_check, merge_reports)
from .weights import (GeneralizedWeight, deviation_range, induced_weight,
                      parse_weight, weight_eval)

__version__ = "0.1.0"

__all__ = [
    "BelowLimit", "BudgetExhaustedError", "CertStage", "Certificate",
    "CertificateFormatError", "CertificateReport", "CoefficientSource", "ComparisonReport",
    "ConstructionSchedule", "CylinderSet", "DegenerateScheduleError",
    "DepthBoundedConstant", "ElementCodeError", "ExtensionCount", "FfbaError", "Field",
    "FiniteSource", "GeneralizedWeight", "HankelView", "IndicesTrace",
    "InsufficientPrecisionError", "InvalidScheduleError", "LaurentSeries",
    "LiminfReport", "M0Report", "MatrixConditionReport",
    "MissingModulusError", "NonPrimeError", "PeriodicSource", "Poly", "QVal",
    "RationalSource", "RationalityVerdict", "ReducibleModulusError",
    "RuleSource", "Stage", "StageStatus", "TooLargeToEnumerateError",
    "TreeReport", "WitnessReport", "ZERO", "alternation_pairs", "as_schedule",
    "c_depth", "c_depth_weighted", "c_liminf_depth", "compare_constants",
    "compare_weighted_constants", "delta_entry", "dimension_lower_bound",
    "elem_arith", "expand_rational", "extension_counts", "field_new",
    "find_witness_small", "frac_abs", "gamma_prefix", "indices_sequence",
    "induced_weight", "left_null_vector", "liminf_structure", "m0_structure",
    "make_liminf_theta", "matrix_condition_check", "measure_after_stages",
    "merge_reports", "parse_series", "parse_weight", "poly_arith",
    "poly_times_series_frac", "qexp", "rank_profile", "rationality_probe",
    "register_rule", "rule_source", "schedule_from_certificate",
    "series_from_json", "series_roundtrip_check", "series_to_text",
    "square_invertibility_spectrum", "survivor_cylinders",
    "validate_tree_like", "verify_certificate", "weight_eval",
]
