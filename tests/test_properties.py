"""Property tests of the accept-or-refuse contract over extreme scenarios.

Every drawn scenario is either refused with a ValueError, by ScenarioParams
or by its table's check, or it yields a table on which every solver returns
a valid allocation whose finite sum-rate is its evaluate replay, the
exhaustive optimum is within 2K ulps of the best of them, and
check_proposition1 accepts that optimum. Draws span the extreme ranges:
sides of 1e-300..1e300 m, bandwidths of 1e-300 Hz up to 1e308 Hz (past
1e306 Hz a sum-rate can overflow, which the table check refuses), powers of
+-3000 dBm, noise PSDs of -3000..300 dBm/Hz, exponents just above 2 up to
300, K <= 9 and I <= 16. Each real field is drawn as its default, an end of
its range or anywhere in it, so ordinary tables are drawn too. Runs are
derandomized and keep no example database, so they are repeatable; conftest
moves Hypothesis's cache out of the checkout.
"""

import math

from hypothesis import example, given, settings, strategies as st

from dcalloc import (Allocation, ScenarioParams, check_proposition1, evaluate, make_instance,
                     solve_1a_only, solve_3c_only, solve_brute_force, solve_proposed,
                     solve_stronger)

SOLVERS = {"optimal": solve_brute_force, "proposed": solve_proposed,
           "3c_only": solve_3c_only, "1a_only": solve_1a_only, "stronger": solve_stronger}


def _spanning(name, lo, hi, values):
    """name's default, either end of [lo, hi] or any of values, which span it."""
    return st.one_of(st.just(getattr(ScenarioParams(), name)), st.sampled_from((lo, hi)), values)


def _decades(name, lo, hi):
    """_spanning over 10 ** e for e in [lo, hi]: magnitudes spread over decades."""
    return _spanning(name, 10.0 ** lo, 10.0 ** hi, st.floats(lo, hi).map(lambda e: 10.0 ** e))


def _floats(name, lo, hi):
    return _spanning(name, lo, hi, st.floats(lo, hi))


SCENARIOS = st.fixed_dictionaries({
    "area_side_m": _decades("area_side_m", -300, 300),
    "num_sbs": st.integers(1, 16),
    "num_ue": st.integers(1, 9),
    "p_macro_dbm": _floats("p_macro_dbm", -3000.0, 3000.0),
    "p_small_dbm": _floats("p_small_dbm", -3000.0, 3000.0),
    "alpha_macro": _floats("alpha_macro", 2.0 + 1e-9, 300.0),
    "alpha_small": _floats("alpha_small", 2.0 + 1e-9, 300.0),
    "bw_macro_hz": _decades("bw_macro_hz", -300, 308),
    "bw_small_hz": _decades("bw_small_hz", -300, 308),
    "n_macro_dbm_hz": _floats("n_macro_dbm_hz", -3000.0, 300.0),
    "n_small_dbm_hz": _floats("n_small_dbm_hz", -3000.0, 300.0),
    "seed": st.integers(0, 2 ** 64 - 1),
})


@settings(derandomize=True, database=None, max_examples=200, deadline=None)
@given(SCENARIOS)
# the SBS tier's 2K rate terms could sum past a double: the table refuses it
@example({"num_ue": 3, "p_small_dbm": 3000.0, "bw_small_hz": 1e308, "n_small_dbm_hz": -3000.0})
def test_a_scenario_is_refused_or_solved_exactly(fields):
    try:
        table = make_instance(ScenarioParams(**fields))[1]
    except ValueError:
        return
    k_ues = table.num_ue
    results = {name: solve(table) for name, solve in SOLVERS.items()}
    for name, res in results.items():
        assert isinstance(res.alloc, Allocation) and res.alloc.num_ue == k_ues, name
        assert math.isfinite(res.sum_rate), name
        assert res.sum_rate == evaluate(res.alloc, table), name
    best = results["optimal"].sum_rate
    slack = 2 * k_ues * math.ulp(best)
    for name, res in results.items():
        assert best >= res.sum_rate - slack, name
    assert check_proposition1(table, results["optimal"].alloc) == (True, None)
