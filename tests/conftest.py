"""Shared fixtures and independent oracles.

The oracles here are deliberately plain Python (math module, lists, no
vectorization) so they cannot share a bug with the package's numpy paths.
The exceptions are chunked_scan and exact_maximizers, which score every
combination with objective_chunk, kept as the exhaustive scan's bit-exact
reference. Tolerances: oracle comparisons allow 1e-12 relative error for
the different summation orders; identities that must hold exactly
(counters, serialization round-trips, scan value bits against the
reference) are compared with ==.
"""

import math

import numpy as np
import pytest

import dcalloc.kernels as kernels
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


def synthetic_table(snr, sinr, assoc, params: ScenarioParams) -> ChannelTable:
    """A table with the given SNRs and SINRs: received powers snr * noise and
    sinr * noise with no interference, from which the table derives them
    again (possibly a last bit off)."""
    return ChannelTable(rx_macro_w=np.multiply(snr, params.noise_macro_w),
                        rx_small_w=np.multiply(sinr, params.noise_small_w),
                        interference_w=np.zeros(len(snr)), assoc_sbs=assoc, params=params)


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


def python_row_sum(digits, table: ChannelTable) -> float:
    """Sum-rate of one digit row in objective_chunk's documented order: UE
    0..K-1, macro term then small term, each bw / load * log, added left to
    right from 0.0, with the terms of unserved tiers skipped."""
    log_m, log_s = table.log_macro.tolist(), table.log_small.tolist()
    assoc, num_sbs = table.assoc_sbs.tolist(), table.num_sbs
    bw_m, bw_s = table.params.bw_macro_hz, table.params.bw_small_hz
    n_macro = sum(1 for d in digits if d != 2)
    n_small = [0] * num_sbs
    for d, i in zip(digits, assoc):
        if d != 1:
            n_small[i] += 1
    total = 0.0
    for d, i, x_m, x_s in zip(digits, assoc, log_m, log_s):
        if d != 2:
            total += bw_m / n_macro * x_m
        if d != 1:
            total += bw_s / n_small[i] * x_s
    return total


def python_brute(table: ChannelTable):
    """Exhaustive optimum with the canonical enumeration: UE 0 is the least
    significant base-3 digit, first maximizer kept. Returns (best_val,
    best_digits), the digits a tuple of ints."""
    k_ues = table.num_ue
    best_val, best_digits = -1.0, None
    for idx in range(3 ** k_ues):
        digits = tuple((idx // 3 ** k) % 3 for k in range(k_ues))
        val = python_objective(digits, table)
        if val > best_val:
            best_val, best_digits = val, digits
    return best_val, best_digits


def chunked_scan(table: ChannelTable):
    """Exhaustive scan by scoring every digit row with objective_chunk.

    Returns (best_val, best_digits, macro_served, small_served): the
    maximum, the digit row (a tuple of ints) of its first maximizer in
    enumeration order, and per UE whether some maximizer row serves it at
    the MBS (digit != 2) and at its SBS (digit != 1).
    Maximizer rows are those within 2*K ulps of the maximum, the bound on
    the rounding difference of two sums of the same 2K nonnegative terms in
    different orders."""
    k_ues = table.num_ue
    digits = _every_digit_row(k_ues)
    vals = objective_chunk(digits, table)
    j = int(np.argmax(vals))
    best = float(vals[j])
    rows = digits[vals >= best - 2 * k_ues * math.ulp(best)]
    return (best, tuple(digits[j].tolist()), tuple(np.any(rows != 2, axis=0).tolist()),
            tuple(np.any(rows != 1, axis=0).tolist()))


def exact_maximizers(table: ChannelTable) -> set:
    """Every digit row (a tuple of ints) whose objective_chunk score equals
    the maximum bit for bit: the rows the exhaustive scan may return."""
    digits = _every_digit_row(table.num_ue)
    vals = objective_chunk(digits, table)
    return set(map(tuple, digits[vals == vals.max()].tolist()))


def _every_digit_row(k_ues: int) -> np.ndarray:
    """All 3^K digit rows in enumeration order, UE 0 the least significant
    base-3 digit."""
    idx = np.arange(3 ** k_ues, dtype=np.int64)
    return (idx[:, None] // 3 ** np.arange(k_ues, dtype=np.int64)) % 3


@pytest.fixture
def scan_calls(monkeypatch):
    """Chunk size of every _block_scan call the test makes, in order. The
    scan memo starts empty, so a table an earlier test scanned is not
    skipped."""
    calls = []
    scan = kernels._block_scan

    def counted(*args):
        calls.append(kernels._CHUNK_ROWS)
        return scan(*args)

    monkeypatch.setattr(kernels, "_block_scan", counted)
    kernels._table_scan.cache_clear()
    return calls


def twin_table(table: ChannelTable, pairs) -> ChannelTable:
    """Copy of table where UE b takes UE a's received powers, interference
    and SBS for every (a, b) in pairs, so that swapping their digits ties
    exactly."""
    arrays = [table.rx_macro_w.copy(), table.rx_small_w.copy(), table.interference_w.copy(),
              table.assoc_sbs.copy()]
    for a, b in pairs:
        for arr in arrays:
            arr[b] = arr[a]
    return ChannelTable(*arrays, params=table.params)


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


def _every_subset(pool_logs, cs_logsum, cs_size, bw):
    """Every nonempty subset of a window as (degradation, window offsets,
    post-adoption log sum), priced by python_subset_table, and the window's
    ticks: one per UE the station would serve under each of its subsets."""
    degs, sums, sizes = python_subset_table(pool_logs, cs_logsum, cs_size, bw)
    subsets = [(degs[m], [b for b in range(len(pool_logs)) if (m >> b) & 1], sums[m])
               for m in range(1, len(degs))]
    return subsets, sum(cs_size + n for n in sizes)


def _every_prefix(pool_logs, cs_logsum, cs_size, bw):
    """Every prefix of a window, as _every_subset prices subsets, each with
    the prefix's log sum accumulated left to right. The ticks still charge
    every subset, in closed form: cs*2^w + w*2^(w-1)."""
    w = len(pool_logs)
    bef = bw / cs_size * cs_logsum if cs_size >= 1 else 0.0
    prefixes, total = [], cs_logsum
    for s in range(1, w + 1):
        total += pool_logs[s - 1]
        prefixes.append((bef - bw / (cs_size + s) * total, list(range(s)), total))
    return prefixes, cs_size * 2 ** w + w * 2 ** (w - 1)


def python_greedy(table: ChannelTable, candidates=_every_subset, windows=None):
    """The paper's greedy allocation in plain Python, by default by full
    subset enumeration rather than prefix pricing. Columns hold each SBS's
    UEs by descending SINR and all UEs by descending SNR for the MBS (last),
    equal values by ascending index. Heads are committed first. Each pass
    takes every live station's window (the rows below its deepest committed
    row, down to the first unserved UE, found by scanning from that row),
    prices the window's candidates afresh and picks the least degradation,
    ties to the highest rate total after adoption, then the fewest rows,
    then the least window offsets; across stations a later one wins only by
    a strictly smaller degradation. Each window charges the ticks its
    pricer reports and 2^w subset evaluations, and the end one tick per
    served (UE, tier) pair. Appends (station, committed count, width) of
    every examined window to windows, if given. Returns (digits, ticks,
    notes)."""
    k_ues, mbs = table.num_ue, table.num_sbs
    snr, sinr = table.snr_macro.tolist(), table.sinr_small.tolist()
    assoc = table.assoc_sbs.tolist()
    columns = [sorted((u for u in range(k_ues) if assoc[u] == i), key=lambda u: (-sinr[u], u))
               for i in range(mbs)]
    columns.append(sorted(range(k_ues), key=lambda u: (-snr[u], u)))
    logs = [table.log_small.tolist()] * mbs + [table.log_macro.tolist()]
    bws = [table.params.bw_small_hz] * mbs + [table.params.bw_macro_hz]

    committed = [col[:1] for col in columns]
    logsum = [logs[bs][col[0]] if col else 0.0 for bs, col in enumerate(columns)]
    deepest = [0] * len(columns)
    live = [bool(col) for col in columns]
    served = {col[0] for col in columns if col}
    ticks = 0
    notes = {"passes": 0, "commits": 0, "initial_commits": sum(live), "subset_evaluations": 0}
    while len(served) < k_ues:
        notes["passes"] += 1
        best = None
        for bs, col in enumerate(columns):
            if not live[bs]:
                continue
            unserved = [r for r in range(deepest[bs] + 1, len(col)) if col[r] not in served]
            if not unserved:
                live[bs] = False
                continue
            window = col[deepest[bs] + 1:unserved[0] + 1]
            cs = len(committed[bs])
            if windows is not None:
                windows.append((bs, cs, len(window)))
            priced, window_ticks = candidates(
                [logs[bs][u] for u in window], logsum[bs], cs, bws[bs])
            notes["subset_evaluations"] += 2 ** len(window)
            ticks += window_ticks
            least = min(c[0] for c in priced)
            deg, rows, total = min((c for c in priced if c[0] == least),
                                   key=lambda c: (-(bws[bs] / (cs + len(c[1])) * c[2]),
                                                  len(c[1]), c[1]))
            if best is None or deg < best[0]:
                best = (deg, bs, [window[b] for b in rows], deepest[bs] + 1 + max(rows), total)
        _, bs, ues, last_row, total = best
        committed[bs] += ues
        deepest[bs], logsum[bs] = last_row, total
        served.update(ues)
        notes["commits"] += 1

    macro = set(committed[mbs])
    small = {u for ues in committed[:mbs] for u in ues}
    ticks += len(macro) + len(small)
    digits = [0 if u in macro and u in small else 1 if u in macro else 2 for u in range(k_ues)]
    return digits, ticks, notes


def python_prefix_greedy(table: ChannelTable, windows=None):
    """python_greedy pricing only the w prefixes of each window, so that it
    runs where windows are too wide to enumerate (dozens of rows at K >= 30).
    It still prices every live window on every pass and finds each window
    by a fresh scan: no memo, no pointer."""
    return python_greedy(table, _every_prefix, windows)


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
    return synthetic_table(snr, sinr, assoc, params)

