"""Two-tier downlink simulator and solver suite for dual-connectivity
profile allocation: one macro station overlaid with small stations on a
separate carrier, equal bandwidth sharing per station, and per-UE serving
profiles chosen to maximize the network sum-rate."""

from .topology import (ScenarioParams, Topology, ChannelTable, channel_gain,
                       dbm_to_watts, generate_topology, build_channel_table,
                       make_instance)
from .allocation import (DIGIT_BOTH, DIGIT_MACRO_ONLY, DIGIT_SMALL_ONLY,
                         Allocation, RateCalcCounter, evaluate, share_rate)
from .kernels import (DEFAULT_BRUTE_CAP, BruteForceCapError, ENV_BACKEND,
                      available_backends, get_backend, brute_force_scan,
                      subset_degradations)
from .solvers import (SolverResult, build_sorted_matrix, check_proposition1,
                      solve_brute_force, solve_proposed, solve_3c_only,
                      solve_1a_only, solve_stronger)
from .harness import (ALGORITHM_ORDER, DEFAULT_MASTER_SEED, ExperimentConfig,
                      TrialRecord, analytic_brute_count, capacity_config,
                      emit_csv, load_config, load_records, ratio_config,
                      run_experiment, run_trial, summarize, trial_seed)

__version__ = "0.1.0"

__all__ = [
    "ScenarioParams", "Topology", "ChannelTable", "channel_gain", "dbm_to_watts",
    "generate_topology", "build_channel_table", "make_instance",
    "DIGIT_BOTH", "DIGIT_MACRO_ONLY", "DIGIT_SMALL_ONLY",
    "Allocation", "RateCalcCounter", "evaluate", "share_rate",
    "ENV_BACKEND", "available_backends", "get_backend",
    "brute_force_scan", "subset_degradations",
    "DEFAULT_BRUTE_CAP", "BruteForceCapError", "SolverResult",
    "build_sorted_matrix", "check_proposition1", "solve_brute_force",
    "solve_proposed", "solve_3c_only", "solve_1a_only", "solve_stronger",
    "ALGORITHM_ORDER", "DEFAULT_MASTER_SEED", "ExperimentConfig", "TrialRecord",
    "analytic_brute_count", "capacity_config", "emit_csv", "load_config",
    "load_records", "ratio_config", "run_experiment", "run_trial", "summarize",
    "trial_seed",
]
