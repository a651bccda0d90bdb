"""Exact partition and plane-partition tables, leading-digit search, and
certified bounds on where a given digit string first appears.

The library answers questions of the form "what is the smallest n such
that p(n), the number of partitions of n, starts with the digits 2026 in
base 10?" exactly, and verifies a priori first-hit bounds for the two
counting functions it ships: partitions p(n) and plane partitions PL(n).
"""

from .asymptotics import (
    Constants,
    LogEstimate,
    eval_constants,
    instantiate_p,
    instantiate_pl,
    log_p_estimate,
    log_pl_estimate,
    theorem_bound,
)
from .certified import DEFAULT_PRECISION, as_interval
from .digits import (
    DigitString,
    TargetInterval,
    all_digit_strings,
    digit_count,
    frac_log,
    leading_digits,
    log_value_interval,
    target_interval,
)
from .engines import (
    DEFAULT_MEMORY_BUDGET,
    CacheFormatError,
    ResourceLimitError,
    SequenceKind,
    SequenceTable,
    brute_force_p,
    brute_force_pl,
    sigma2,
)
from .framework import (
    FrameworkBounds,
    FrameworkParams,
    UndecidableMembershipError,
    compute_bounds,
    find_m_a_delta,
)
from .search import (
    SearchResult,
    VerificationReport,
    decide_membership,
    digit_census,
    find_min_n,
    verify_theorem,
)

__version__ = "0.1.0"

__all__ = [
    "CacheFormatError",
    "Constants",
    "DEFAULT_MEMORY_BUDGET",
    "DEFAULT_PRECISION",
    "DigitString",
    "FrameworkBounds",
    "FrameworkParams",
    "LogEstimate",
    "ResourceLimitError",
    "SearchResult",
    "SequenceKind",
    "SequenceTable",
    "TargetInterval",
    "UndecidableMembershipError",
    "VerificationReport",
    "all_digit_strings",
    "as_interval",
    "brute_force_p",
    "brute_force_pl",
    "compute_bounds",
    "decide_membership",
    "digit_census",
    "digit_count",
    "eval_constants",
    "find_m_a_delta",
    "find_min_n",
    "frac_log",
    "instantiate_p",
    "instantiate_pl",
    "leading_digits",
    "log_p_estimate",
    "log_pl_estimate",
    "log_value_interval",
    "sigma2",
    "target_interval",
    "theorem_bound",
    "verify_theorem",
]
