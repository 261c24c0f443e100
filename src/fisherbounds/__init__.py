"""Exact one-sided dependency p-values for 2x2 contingency tables,
with constant-time upper bounds and checkable error guarantees.

The exact tail probability of a positive dependency is a sum of J + 1
terms where J can reach n/4; the certified sum stops as soon as the
remaining terms provably cannot change the double result.  The bound
family here costs O(1), encloses the exact value from above, and
carries guarantees that make the approximation error checkable from
the table's counts alone.
"""

from .batch import (
    INPUT_HEADER,
    OUTPUT_HEADER,
    REJECT_HEADER,
    BatchRecord,
    Reject,
    format_float,
    format_pvalue,
    read_table_csv,
    run_batch,
    write_batch_csv,
)
from .bench import (
    DEFAULT_REPETITIONS,
    DEFAULT_SIZES,
    BenchResult,
    bounds_flat_within,
    exact_grows,
    large_scale_terms,
    run_bench,
)
from .bounds import (
    ApproxReport,
    GuaranteeFlags,
    error_bound_ub2,
    error_bound_ub_k,
    guarantees,
    report,
    ub1,
    ub2,
    ub_k,
)
from .chi2 import Chi2Result, chi2_one_sided, normal_upper_tail
from .contingency import (
    ContingencyTable,
    DerivedStats,
    build_table,
    derive_stats,
    negate_consequent,
)
from .errors import (
    CapacityExceeded,
    DegenerateMargin,
    InvalidK,
    MarginViolation,
    NegativeDependency,
    OutOfRange,
)
from .exact import (
    PValue,
    TermEngine,
    exact_fisher,
    exact_fisher_certified,
    exact_fisher_oracle,
    log_binomial,
    log_factorial,
    make_term_engine,
)
from .ranking import (
    MEASURES,
    AgreementReport,
    PairAgreement,
    RankedRow,
    rank_agreement,
    ranking,
    rows_from_batch_csv,
    rows_from_records,
    top_ids,
)
from .reftables import (
    ROWS,
    STATUS_ANNOTATED,
    STATUS_FAIL,
    STATUS_PASS,
    CellCheck,
    RefRow,
    check_rows,
    rows_for_case,
)
from .sweep import SweepPoint, SweepSpec, run_sweep, sweep_header, write_sweep_csv

__version__ = "0.1.0"

__all__ = [
    "__version__",
    "ContingencyTable",
    "DerivedStats",
    "build_table",
    "derive_stats",
    "negate_consequent",
    "PValue",
    "TermEngine",
    "log_factorial",
    "log_binomial",
    "make_term_engine",
    "exact_fisher",
    "exact_fisher_certified",
    "exact_fisher_oracle",
    "ub1",
    "ub2",
    "ub_k",
    "error_bound_ub2",
    "error_bound_ub_k",
    "guarantees",
    "GuaranteeFlags",
    "ApproxReport",
    "report",
    "Chi2Result",
    "chi2_one_sided",
    "normal_upper_tail",
    "MarginViolation",
    "DegenerateMargin",
    "OutOfRange",
    "CapacityExceeded",
    "NegativeDependency",
    "InvalidK",
    "BatchRecord",
    "Reject",
    "INPUT_HEADER",
    "OUTPUT_HEADER",
    "REJECT_HEADER",
    "read_table_csv",
    "run_batch",
    "write_batch_csv",
    "format_float",
    "format_pvalue",
    "SweepSpec",
    "SweepPoint",
    "run_sweep",
    "sweep_header",
    "write_sweep_csv",
    "RefRow",
    "CellCheck",
    "ROWS",
    "STATUS_PASS",
    "STATUS_ANNOTATED",
    "STATUS_FAIL",
    "check_rows",
    "rows_for_case",
    "RankedRow",
    "PairAgreement",
    "AgreementReport",
    "MEASURES",
    "ranking",
    "top_ids",
    "rank_agreement",
    "rows_from_records",
    "rows_from_batch_csv",
    "BenchResult",
    "DEFAULT_SIZES",
    "DEFAULT_REPETITIONS",
    "run_bench",
    "large_scale_terms",
    "bounds_flat_within",
    "exact_grows",
]
