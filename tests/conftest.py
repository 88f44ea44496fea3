"""Shared fixtures and independent oracles.

The oracles here are deliberately plain Python (math module, lists, no
vectorization) so they cannot share a bug with the package's numpy paths.
The one exception is chunked_scan, the row-at-a-time enumeration the block
scan replaced, kept as its bit-exact reference. Tolerances: oracle
comparisons allow 1e-12 relative error for the different summation orders;
identities that must hold exactly (counters, serialization round-trips,
scan value bits against the reference) are compared with ==.
"""

import math

import numpy as np
import pytest

from dcalloc import ChannelTable, ScenarioParams, make_instance
from dcalloc.kernels import objective_chunk

ACCEPTANCE_LINES = []


def pytest_terminal_summary(terminalreporter):
    if ACCEPTANCE_LINES:
        terminalreporter.section("acceptance criteria")
        for line in ACCEPTANCE_LINES:
            terminalreporter.write_line(line)


def seeded_table(num_ue: int, num_sbs: int = 4, seed: int = 0) -> ChannelTable:
    params = ScenarioParams(num_sbs=num_sbs, num_ue=num_ue, seed=seed)
    return make_instance(params)[1]


def python_rates(digits, snr, sinr, assoc, num_sbs, bw_m, bw_s):
    """Per-UE (macro, small) rates of one profile digit vector, plain Python."""
    n_macro = sum(1 for d in digits if d != 2)
    n_small = [0] * num_sbs
    for k, d in enumerate(digits):
        if d != 1:
            n_small[assoc[k]] += 1
    rates_m, rates_s = [], []
    for k, d in enumerate(digits):
        rates_m.append(bw_m / n_macro * math.log2(1.0 + snr[k]) if d != 2 else 0.0)
        rates_s.append(bw_s / n_small[assoc[k]] * math.log2(1.0 + sinr[k]) if d != 1 else 0.0)
    return rates_m, rates_s


def python_objective(digits, table: ChannelTable) -> float:
    rates_m, rates_s = python_rates(
        list(digits), table.snr_macro.tolist(), table.sinr_small.tolist(),
        table.assoc_sbs.tolist(), table.num_sbs,
        table.params.bw_macro_hz, table.params.bw_small_hz)
    return sum(rates_m) + sum(rates_s)


def python_brute(table: ChannelTable):
    """Exhaustive optimum with the canonical enumeration: UE 0 is the least
    significant base-3 digit, first maximizer kept."""
    k_ues = table.num_ue
    best_val, best_idx, best_digits = -1.0, -1, None
    for idx in range(3 ** k_ues):
        digits = [(idx // 3 ** k) % 3 for k in range(k_ues)]
        val = python_objective(digits, table)
        if val > best_val:
            best_val, best_idx, best_digits = val, idx, digits
    return best_val, best_idx, best_digits


def chunked_scan(table: ChannelTable, heads=()):
    """Exhaustive scan by scoring every digit row with objective_chunk.

    Returns (best_val, best_idx, flags): the maximum, its first index in
    enumeration order, and for each (ue, excluded_digit) pair whether some
    maximizer row gives that UE another digit. Maximizer rows are those
    within 2*K ulps of the maximum, the bound on the rounding difference of
    two sums of the same 2K nonnegative terms in different orders."""
    k_ues = table.num_ue
    idx = np.arange(3 ** k_ues, dtype=np.int64)
    digits = (idx[:, None] // 3 ** np.arange(k_ues, dtype=np.int64)) % 3
    vals = objective_chunk(digits, table.log_macro, table.log_small,
                           table.assoc_sbs.astype(np.int64), table.num_sbs,
                           table.params.bw_macro_hz, table.params.bw_small_hz)
    j = int(np.argmax(vals))
    best = float(vals[j])
    rows = digits[vals >= best - 2 * k_ues * math.ulp(best)]
    return best, j, [bool(np.any(rows[:, ue] != e)) for ue, e in heads]


def twin_table(table: ChannelTable, pairs) -> ChannelTable:
    """Copy of table where UE b takes UE a's SNR, SINR and SBS for every
    (a, b) in pairs, so that swapping their digits ties exactly."""
    snr = table.snr_macro.copy()
    sinr = table.sinr_small.copy()
    assoc = table.assoc_sbs.copy()
    for a, b in pairs:
        snr[b], sinr[b], assoc[b] = snr[a], sinr[a], assoc[a]
    return ChannelTable(snr_macro=snr, assoc_sbs=assoc, sinr_small=sinr,
                        params=table.params)


def python_subset_table(pool_logs, cs_logsum, cs_size, bw):
    """Degradation, post-adoption log sum and size of every subset of a
    candidate window, by plain enumeration of the 2^w bitmasks (bit b set
    means pool_logs[b] joins). Mask 0, the empty subset, is priced +inf."""
    degs, csums, pcnts = [], [], []
    bef = bw / cs_size * cs_logsum if cs_size >= 1 else 0.0
    for mask in range(1 << len(pool_logs)):
        bits = [b for b in range(len(pool_logs)) if (mask >> b) & 1]
        total = cs_logsum
        for b in bits:
            total += pool_logs[b]
        csums.append(total)
        pcnts.append(len(bits))
        degs.append(float("inf") if mask == 0
                    else bef - bw / (cs_size + len(bits)) * total)
    return degs, csums, pcnts


def adversarial_table(num_ue: int) -> ChannelTable:
    """Instance family whose greedy run funnels every post-initialization
    commit to SBS 0 while the MBS candidate window widens by one row per
    pass. With N = 3 stations (2 SBSs + the MBS) the subset evaluations sum
    to 2^(K-1) - 2^(N-1) + (K-N)(N-1) exactly.

    Layout: UE 0 heads the MBS column but sits uselessly on SBS 1; UE 1
    heads SBS 0; UE 2 heads SBS 1 (its column ends there because UE 0 is
    macro-served at initialization). UEs 3..K-1 tie at SINR 1.0 on SBS 0,
    so joining t of them costs SBS 0 exactly nothing per join, while their
    descending macro SNRs keep them between the MBS cursor and UE 2."""
    if num_ue < 4:
        raise ValueError("the family needs at least 4 UEs")
    snr = np.empty(num_ue)
    sinr = np.empty(num_ue)
    assoc = np.empty(num_ue, dtype=np.int64)
    snr[0], sinr[0], assoc[0] = 1e6, 1e-9, 1
    snr[1], sinr[1], assoc[1] = 100.0, 1.0, 0
    snr[2], sinr[2], assoc[2] = 1e-6, 0.5, 1
    for t in range(1, num_ue - 2):
        k = t + 2
        snr[k], sinr[k], assoc[k] = 50.0 / t, 1.0, 0
    params = ScenarioParams(num_sbs=2, num_ue=num_ue, seed=0)
    return ChannelTable(snr_macro=snr, assoc_sbs=assoc, sinr_small=sinr, params=params)


@pytest.fixture
def small_table() -> ChannelTable:
    return seeded_table(num_ue=6, num_sbs=4, seed=7)
