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

The layers load on first use, because a one-shot command-line call
should compile and run only the modules its command needs: ``records``
has no use for ``verify``, ``oracles`` or ``fractions``.  Each layer is
registered here with ``importlib.util.LazyLoader``, not imported inside
the functions that use it, so that it sits in ``sys.modules`` and is an
attribute of the package from the start; tools that look the layers up
there, or patch their attributes, see the module objects an eager
import gives.  A layer's code runs when one of its attributes is first
read.  The names in ``__all__`` resolve in their home layer on each
read (PEP 562 ``__getattr__``), so ``from recstats import min_product``
loads ``extremal`` and the layers it imports, not the rest.  On
Python 3.11 and earlier the lazy loader takes no lock: two threads that
first touch the same layer at once can both run its code, so read an
attribute of each layer a program uses before it shares the package
across threads.
"""

import importlib.util
import sys

__version__ = "0.1.0"

_LAYERS = ("tables", "perm", "temme", "extremal", "probabilities", "scaling", "oracles", "verify")

# public name -> the layer that defines it
_HOMES = {
    name: layer
    for layer, names in (
        ("extremal", ("ExtremalResult", "GammaBounds", "gamma_bounds", "i0_closed",
                      "min_product", "srec_count_bounds")),
        ("oracles", ("brute_force_tables", "i0_greedy", "rec_prob_sum", "srec_prob_sum")),
        ("perm", ("Permutation", "RecordProfile", "iter_uniform", "lehmer_decode",
                  "lehmer_encode", "records", "sample_uniform", "sample_uniform_many")),
        ("probabilities", ("PatternSpec", "pattern_probability", "rec_prob_bounds",
                           "srec_prob_bounds")),
        ("scaling", ("DeviationReport", "ScaledCurve", "curve_samples", "fn_value",
                     "phin_value", "sup_deviation", "tau_series")),
        ("tables", ("REC", "SREC", "CountTable", "big_ln", "rec_count", "rec_table",
                    "srec_max", "srec_table")),
        ("temme", ("TemmeEstimate", "digamma", "log_gamma", "phi_prime", "scaled_limit_table",
                   "solve_u1", "temme_estimate", "trigamma")),
    )
    for name in names
}

__all__ = sorted(_HOMES)

for _layer in _LAYERS:
    _spec = importlib.util.find_spec(f"{__name__}.{_layer}")
    _spec.loader = importlib.util.LazyLoader(_spec.loader)
    _module = importlib.util.module_from_spec(_spec)
    sys.modules[_spec.name] = _module
    _spec.loader.exec_module(_module)
    globals()[_layer] = _module
del _layer, _spec, _module


def __getattr__(name: str):
    """Resolve a name of ``__all__`` in its home layer, loading that layer on first use."""
    try:
        layer = _HOMES[name]
    except KeyError:
        raise AttributeError(f"module {__name__!r} has no attribute {name!r}") from None
    return getattr(globals()[layer], name)


def __dir__() -> list[str]:
    return sorted({*globals(), *__all__})
