"""
Exact and asymptotic record statistics of permutations.

A record of a permutation is an entry larger than everything before
it.  The package computes, exactly and at scale, the distribution of
the number of records (the unsigned Stirling numbers of the first
kind) and of the sum of the record positions, the exact rational
probabilities behind them, the extremal minimum product that bounds
the latter distribution, the scaled limit shapes 1 - x and
sqrt(1 - x) with certified uniform-convergence rates, and Temme-style
saddle-point estimates of the Stirling numbers.
"""

from .extremal import (
    ExtremalResult,
    GammaBounds,
    gamma_bounds,
    i0_closed,
    min_product,
    srec_count_bounds,
)
from .oracles import brute_force_tables, i0_greedy, rec_prob_sum, srec_prob_sum
from .perm import (
    Permutation,
    RecordProfile,
    iter_uniform,
    lehmer_decode,
    lehmer_encode,
    records,
    sample_uniform,
    sample_uniform_many,
)
from .probabilities import (
    PatternSpec,
    pattern_probability,
    rec_prob_bounds,
    srec_prob_bounds,
)
from .scaling import (
    DeviationReport,
    ScaledCurve,
    curve_samples,
    fn_value,
    phin_value,
    sup_deviation,
    tau_series,
)
from .tables import (
    REC,
    SREC,
    CountTable,
    big_ln,
    rec_count,
    rec_table,
    srec_max,
    srec_table,
)
from .temme import (
    TemmeEstimate,
    digamma,
    log_gamma,
    phi_prime,
    scaled_limit_table,
    solve_u1,
    temme_estimate,
    trigamma,
)

__version__ = "0.1.0"

__all__ = [
    "CountTable",
    "DeviationReport",
    "ExtremalResult",
    "GammaBounds",
    "PatternSpec",
    "Permutation",
    "REC",
    "RecordProfile",
    "SREC",
    "ScaledCurve",
    "TemmeEstimate",
    "big_ln",
    "brute_force_tables",
    "curve_samples",
    "digamma",
    "fn_value",
    "gamma_bounds",
    "i0_closed",
    "i0_greedy",
    "iter_uniform",
    "lehmer_decode",
    "lehmer_encode",
    "log_gamma",
    "min_product",
    "pattern_probability",
    "phi_prime",
    "phin_value",
    "rec_prob_bounds",
    "rec_prob_sum",
    "rec_count",
    "rec_table",
    "records",
    "sample_uniform",
    "sample_uniform_many",
    "scaled_limit_table",
    "solve_u1",
    "srec_count_bounds",
    "srec_max",
    "srec_prob_bounds",
    "srec_prob_sum",
    "srec_table",
    "sup_deviation",
    "tau_series",
    "temme_estimate",
    "trigamma",
]
