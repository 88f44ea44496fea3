"""Two-tier network geometry, pathloss gains, and per-UE link quality tables.

One macro base station (MBS) sits at the exact center of a square region;
small base stations (SBSs) on a separate carrier and user terminals (UEs) are
drawn i.i.d. uniform over the square, SBSs first, then UEs, so an instance is
a pure function of (parameters, seed).

Powers enter in dBm and noise densities in dBm/Hz; ScenarioParams converts
each once, when built, and everything downstream works in linear watts and
hertz. The channel is a bare log-distance law g(d) = max(d, 1 m)^-alpha with
a 1 m reference and no fading or shadowing. One pass applies it to a run
of drops and one derives their tables; make_instance and the ChannelTable
constructor are runs of one, make_instances of many.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from operator import attrgetter

import numpy as np

__all__ = [
    "MIN_GAIN_DISTANCE_M",
    "ScenarioParams",
    "ChannelTable",
    "dbm_to_watts",
    "make_instance",
    "make_instances",
]

# _links clamps distances below this, so a UE sitting on top of a station
# receives its transmit power and no unbounded gain.
MIN_GAIN_DISTANCE_M = 1.0


def dbm_to_watts(value_dbm: float) -> float:
    """Convert dBm to linear watts: 10 ** ((x - 30) / 10)."""
    return 10.0 ** ((value_dbm - 30.0) / 10.0)


def _integer(name: str, value) -> int:
    """value as an int, refused with a ValueError naming `name` unless it is
    an integer (numpy integers included) and not a bool."""
    if isinstance(value, bool) or not isinstance(value, (int, np.integer)):
        raise ValueError(f"{name} must be an integer, got {value!r}")
    return int(value)


def _real(name: str, value) -> float:
    """value as a float, refused with a ValueError naming `name` unless it is
    an integer or a float (numpy ones included) and not a bool."""
    if isinstance(value, bool) or not isinstance(value, (int, float, np.integer, np.floating)):
        raise ValueError(f"{name} must be an integer or a float, got {value!r}")
    return float(value)


@dataclass(frozen=True)
class ScenarioParams:
    """Scenario knobs for one simulated drop.

    Defaults are the reference parameter set used across the experiment
    harness. Power/noise fields carry dBm units; the *_w fields, derived
    when an instance is built, hold the linear watts all rate math reads.
    An instance checks itself when built and is frozen, so every instance
    in hand is valid.
    """

    area_side_m: float = 500.0      # square side, meters
    num_sbs: int = 4                # SBS count (I)
    num_ue: int = 10                # UE count (K)
    p_macro_dbm: float = 46.0       # MBS transmit power
    p_small_dbm: float = 20.0       # SBS transmit power
    alpha_macro: float = 4.5        # macro-tier pathloss exponent
    alpha_small: float = 5.0        # small-tier pathloss exponent
    bw_macro_hz: float = 10e6       # macro carrier bandwidth
    bw_small_hz: float = 10e6      # small-cell carrier bandwidth
    n_macro_dbm_hz: float = -90.0   # macro noise PSD, dBm/Hz
    n_small_dbm_hz: float = -140.0  # small-cell noise PSD, dBm/Hz
    seed: int = 0                   # drop seed, 64-bit unsigned
    # derived by validate, not passed: transmit powers and total noise powers
    # (bandwidth times noise PSD), in watts
    p_macro_w: float = field(init=False, repr=False)
    p_small_w: float = field(init=False, repr=False)
    noise_macro_w: float = field(init=False, repr=False)
    noise_small_w: float = field(init=False, repr=False)

    def __post_init__(self):
        self.validate()

    def validate(self) -> None:
        # exponents <= 2 break the far-field decay assumptions baked into the tests
        for name, least in (("area_side_m", 0), ("bw_macro_hz", 0), ("bw_small_hz", 0),
                            ("alpha_macro", 2), ("alpha_small", 2)):
            value = _real(name, getattr(self, name))
            if not (value > least and math.isfinite(value)):
                raise ValueError(f"{name} must be finite and exceed {least}, got {value}")
        if _integer("num_sbs", self.num_sbs) < 1:
            raise ValueError(f"num_sbs must be >= 1, got {self.num_sbs}")
        if _integer("num_ue", self.num_ue) < 1:
            raise ValueError(f"num_ue must be >= 1, got {self.num_ue}")
        for name, bw, derived in (("p_macro_dbm", None, "p_macro_w"),
                                  ("p_small_dbm", None, "p_small_w"),
                                  ("n_macro_dbm_hz", "bw_macro_hz", "noise_macro_w"),
                                  ("n_small_dbm_hz", "bw_small_hz", "noise_small_w")):
            value = _real(name, getattr(self, name))
            try:
                watts = dbm_to_watts(value)
            except OverflowError:  # 10 ** (x / 10) overflows a float for x above about 3110
                watts = math.inf
            if not (math.isfinite(value) and math.isfinite(watts)):
                raise ValueError(f"{name} must be finite and give finite watts, got {value}")
            if bw is None and watts == 0.0:
                raise ValueError(f"{name} must give positive watts, got {value}")
            if bw is not None:
                watts = getattr(self, bw) * watts
                # a total noise that underflows to 0.0 is the table's to refuse
                if not math.isfinite(watts):
                    raise ValueError(f"{name} must give a finite noise power over {bw}, "
                                     f"got {value} and {getattr(self, bw)}")
            object.__setattr__(self, derived, watts)
        if not (0 <= _integer("seed", self.seed) < 2 ** 64):
            raise ValueError("seed must fit in an unsigned 64-bit integer")


def _small_ints(values, dtype, stop: int, message: str) -> np.ndarray:
    """values as a new contiguous `dtype` array of at least one dimension,
    refused with ValueError(message) unless every entry is a bool, integer or
    float holding an integer in [0, stop). The check reads the values before
    the cast, which would truncate fractions and wrap negatives."""
    arr = np.asarray(values)
    kind = arr.dtype.kind
    if kind not in "biuf":
        raise ValueError(message)
    if kind == "f":
        ok = (arr >= 0) & (arr < stop) & (arr == np.trunc(arr))
    else:  # a negative integer casts to an unsigned one of at least 2 ** 63
        ok = arr.astype(np.uint64) < stop
    if not ok.all():
        raise ValueError(message)
    return np.array(arr, dtype=dtype, order="C", ndmin=1)


def _sites(params_seq) -> np.ndarray:
    """(T, 1 + I + K, 2) positions of the drops of params_seq, which share
    area_side_m, num_sbs and num_ue: per drop the MBS at the center, then
    its SBSs and UEs drawn from its own seed."""
    first = params_seq[0]
    side = first.area_side_m
    sites = np.empty((len(params_seq), 1 + first.num_sbs + first.num_ue, 2))
    sites[:, 0] = side / 2.0
    draws = sites[:, 1:]
    for row, params in zip(draws, params_seq):
        # one draw gives the stream of an SBS draw followed by a UE draw
        np.random.default_rng(params.seed).random(out=row)
    # Generator.uniform(0, side) returns 0.0 + side * random(), so these are its draws
    draws *= side
    return sites


# ChannelTable's stored and derived arrays, the rows of its block in this order
_ROWS = ("rx_macro_w", "rx_small_w", "interference_w", "snr_macro", "sinr_small",
         "log_macro", "log_small")
_NOISE = attrgetter("noise_macro_w", "noise_small_w")
# ChannelTable's refusals, in the order of its checked rows
_REFUSED = ("rx_macro_w must be finite and strictly positive",
            "rx_small_w must be finite and strictly positive",
            "interference_w must be finite and non-negative",
            "snr_macro = rx_macro_w / noise_macro_w must be finite and strictly positive",
            "sinr_small = rx_small_w / (interference_w + noise_small_w) "
            "must be finite and strictly positive")


@dataclass(frozen=True, eq=False)
class ChannelTable:
    """Per-UE link quality snapshot, the sole input the solvers see.

    Stored, what the geometry produces (watts): rx_macro_w[k], the MBS power
    received at UE k; rx_small_w[k], the power from assoc_sbs[k], the SBS whose
    power is largest at k; interference_w[k], the other SBSs' summed power.
    Derived when built: snr_macro = rx_macro_w / noise_macro_w, sinr_small =
    rx_small_w / (interference_w + noise_small_w), and log_macro / log_small =
    log2(1 + x), which every rate path reads so that identical allocations
    evaluate to bit-identical sums, and columns, the sorted matrix: a tuple
    of num_sbs + 1 tuples of ints, each SBS's UEs by descending SINR, then
    every UE by descending SNR, equal values in ascending UE index. A
    column's first UE is its station's head. A table checks itself when
    built and is frozen. Its float arrays are read-only row views of one
    block, its own when built alone and shared by the tables of one
    make_instances run, and assoc_sbs a read-only copy; dataclasses.replace,
    pickle and deepcopy build a new checked table from the inputs and
    derive the rest again.
    """

    rx_macro_w: np.ndarray
    rx_small_w: np.ndarray
    interference_w: np.ndarray
    assoc_sbs: np.ndarray
    params: ScenarioParams
    snr_macro: np.ndarray = field(init=False)
    sinr_small: np.ndarray = field(init=False)
    log_macro: np.ndarray = field(init=False, repr=False)
    log_small: np.ndarray = field(init=False, repr=False)
    columns: tuple = field(init=False, repr=False)

    def __post_init__(self):
        _settle(self, self.params, _derive((self.params,), self.assoc_sbs, (
            self.rx_macro_w, self.rx_small_w, self.interference_w)), 0)

    def __reduce__(self):
        # pickle and deepcopy rebuild through the check, and the copy stays read-only
        return (type(self), (self.rx_macro_w, self.rx_small_w, self.interference_w,
                             self.assoc_sbs, self.params))

    @property
    def num_ue(self) -> int:
        return int(self.snr_macro.shape[0])

    @property
    def num_sbs(self) -> int:
        return int(self.params.num_sbs)


def _derive(params_seq, assoc, inputs):
    """The table state of the T drops of params_seq, which share num_sbs and
    num_ue, in one pass. assoc and inputs (rx_macro_w, rx_small_w,
    interference_w) hold each drop's K values in turn, T * K in all; their
    shapes and the association are checked here, each drop's values at its
    own _settle. Returns the read-only (7, T, K) block of _ROWS as 7 * T
    rows of K, drop i's row r at r * T + i; the rows' lows (5 * T) and highs
    (7 * T) in that order; the SNR then SINR orders (2 * T); and the
    read-only (T, K) association with its lists."""
    first = params_seq[0]
    t, k = len(params_seq), first.num_ue
    assoc = _small_ints(assoc, np.int64, first.num_sbs,
                        "assoc_sbs entries must index a valid SBS")
    if assoc.shape != (t * k,):
        raise ValueError("assoc_sbs must have shape (num_ue,)")
    flat = np.empty((len(_ROWS), t * k))   # a copy the caller cannot reach
    for row, name, values in zip(flat, _ROWS, inputs):
        arr = np.asarray(values, dtype=np.float64)
        if arr.shape != row.shape:
            raise ValueError(f"{name} must have shape (num_ue,)")
        row[:] = arr
    # each drop's noise powers, as two floats if the drops share them, else
    # each repeated over its drop's K values: numpy divides by either faster
    # than it broadcasts a (T, 1) column
    noise = set(map(_NOISE, params_seq))
    noise_m, noise_s = (noise.pop() if len(noise) == 1 else
                        np.array(list(map(_NOISE, params_seq))).T.repeat(k, axis=1))
    # _settle refuses an overflow, a noise underflowed to 0.0 and the log of
    # a bad ratio; no warning first
    with np.errstate(all="ignore"):
        np.divide(flat[0], noise_m, out=flat[3])
        np.divide(flat[1], flat[2] + noise_s, out=flat[4])
        np.log2(np.add(1.0, flat[3:5], out=flat[5:]), out=flat[5:])
    flat.flags.writeable = False
    rows = flat.reshape(len(_ROWS) * t, k)
    assoc = assoc.reshape(t, k)
    assoc.flags.writeable = False
    # a stable sort keeps ascending UE index among equal values; each row's
    # least and greatest entry are NaN if any entry is
    return (rows, assoc, assoc.tolist(), np.minimum.reduce(rows[:5 * t], axis=1).tolist(),
            np.maximum.reduce(rows, axis=1).tolist(),
            np.negative(rows[3 * t:5 * t]).argsort(axis=1, kind="stable").tolist())


def _settle(table: ChannelTable, params: ScenarioParams, state, i: int) -> ChannelTable:
    """Check drop i of _derive's state against params, make it table's
    fields and return table."""
    rows, assoc, stations, lows, highs, orders = state
    t = len(assoc)
    low, high = lows[i::t], highs[i::t]
    for row, message in enumerate(_REFUSED):
        # NaN fails every comparison; a lone SBS has no interferer
        if not ((low[row] > 0.0 or row == 2 and low[row] == 0.0) and high[row] < math.inf):
            raise ValueError(message)
    # a sum-rate adds at most 2K terms bw / load * log, none above bw * log
    bw_m, bw_s = params.bw_macro_hz, params.bw_small_hz
    if not math.isfinite(2 * params.num_ue * max(bw_m * high[5], bw_s * high[6])):
        raise ValueError(f"2 * num_ue * bw * log2(1 + x) must be finite on both tiers, "
                         f"got bw_macro_hz={bw_m} and bw_small_hz={bw_s}")
    # dealing the SINR order out by SBS keeps it in each group
    columns = [[] for _ in range(params.num_sbs)]
    stations = stations[i]
    for ue in orders[t + i]:
        columns[stations[ue]].append(ue)
    columns.append(orders[i])
    # a frozen dataclass keeps its fields in its __dict__
    vars(table).update(zip(_ROWS, rows[i::t]), params=params, assoc_sbs=assoc[i],
                       columns=tuple(map(tuple, columns)))
    return table


def _links(sites: np.ndarray, params: ScenarioParams):
    """Received powers, association and interference of T drops at once,
    from their (T, 1 + I + K, 2) sites under params' exponents and powers.
    Returns assoc_sbs and (rx_macro_w, rx_small_w, interference_w) as
    _derive takes them. Each step is element-wise or reads one UE's row, so
    a drop's values are the same bits at any T."""
    num_sbs = params.num_sbs
    # (T, K, 1 + I) distances, gains and powers from every station to every
    # UE, the MBS in column 0
    diff = sites[:, 1 + num_sbs:, None, :] - sites[:, None, :1 + num_sbs, :]
    alphas = np.array([-params.alpha_macro] + [-params.alpha_small] * num_sbs)
    powers = np.array([params.p_macro_w] + [params.p_small_w] * num_sbs)
    rx = np.maximum(np.hypot(diff[..., 0], diff[..., 1]), MIN_GAIN_DISTANCE_M) ** alphas
    rx *= powers

    # strongest received power wins; argmax takes the lowest index on ties
    others = rx[..., 1:].copy()
    assoc = others.argmax(axis=2).reshape(-1)
    flat = others.reshape(-1)
    serving = np.arange(0, flat.size, num_sbs) + assoc   # indices into flat
    rx_small = flat[serving]
    flat[serving] = 0.0        # summing the zeroed copy avoids cancellation
    return assoc, (rx[..., 0].reshape(-1), rx_small, others.sum(axis=2).reshape(-1))


def _table(params: ScenarioParams, state, i: int) -> ChannelTable:
    """Drop i of _derive's state as the checked table of params."""
    return _settle(object.__new__(ChannelTable), params, state, i)


# the params fields the geometry reads, which the drops of one run share
_SHARED = attrgetter("area_side_m", "num_sbs", "num_ue", "alpha_macro", "alpha_small",
                     "p_macro_w", "p_small_w")


def make_instances(params_seq):
    """Yield make_instance(params) for each params of params_seq, bit for bit.

    The params must agree on every field the geometry reads: area_side_m,
    num_sbs, num_ue, both exponents and both transmit powers. The first
    advance draws every drop from its own seed and computes all their links
    and table arrays in one pass; each advance checks its own drop's table,
    so a refused drop raises at its own advance.
    """
    params_seq = list(params_seq)
    if len(set(map(_SHARED, params_seq))) > 1:
        raise ValueError("make_instances needs params that agree on area_side_m, num_sbs, "
                         "num_ue, both exponents and both transmit powers")
    if not params_seq:
        return
    sites = _sites(params_seq)
    state = _derive(params_seq, *_links(sites, params_seq[0]))
    for i, params in enumerate(params_seq):
        yield sites[i], _table(params, state, i)


def make_instance(params: ScenarioParams):
    """Draw the drop of params' seed and build its table in one call, the
    one drop of make_instances((params,)) without the generator. Returns
    (sites, table): sites is the drop's (1 + I + K, 2) row of _sites, the
    MBS in row 0, the SBSs in rows 1..I and the UEs in the rest."""
    sites = _sites((params,))
    return sites[0], _table(params, _derive((params,), *_links(sites, params)), 0)
