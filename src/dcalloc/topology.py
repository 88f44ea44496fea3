"""Two-tier network geometry, pathloss gains, and per-UE link quality tables.

One macro base station (MBS) sits at the exact center of a square region;
small base stations (SBSs) on a separate carrier and user terminals (UEs) are
drawn i.i.d. uniform over the square, SBSs first, then UEs, so an instance is
a pure function of (parameters, seed).

Powers enter in dBm and noise densities in dBm/Hz; ScenarioParams converts
each once, when built, and everything downstream works in linear watts and
hertz. The channel is a bare log-distance law g(d) = max(d, 1 m)^-alpha with
a 1 m reference and no fading or shadowing, applied by build_channel_table.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field

import numpy as np

__all__ = [
    "MIN_GAIN_DISTANCE_M",
    "ScenarioParams",
    "Topology",
    "ChannelTable",
    "dbm_to_watts",
    "generate_topology",
    "build_channel_table",
    "make_instance",
]

# build_channel_table clamps distances below this, so a UE sitting on top of
# a station receives its transmit power and no unbounded gain.
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
        for name in ("area_side_m", "bw_macro_hz", "bw_small_hz"):
            value = getattr(self, name)
            if not (value > 0.0 and math.isfinite(value)):
                raise ValueError(f"{name} must be positive and finite, got {value}")
        if _integer("num_sbs", self.num_sbs) < 1:
            raise ValueError(f"num_sbs must be >= 1, got {self.num_sbs}")
        if _integer("num_ue", self.num_ue) < 1:
            raise ValueError(f"num_ue must be >= 1, got {self.num_ue}")
        for name in ("alpha_macro", "alpha_small"):
            value = getattr(self, name)
            # exponents <= 2 break the far-field decay assumptions baked into the tests
            if not (value > 2.0 and math.isfinite(value)):
                raise ValueError(f"{name} must be finite and exceed 2, got {value}")
        for name, bw, derived in (("p_macro_dbm", None, "p_macro_w"),
                                  ("p_small_dbm", None, "p_small_w"),
                                  ("n_macro_dbm_hz", "bw_macro_hz", "noise_macro_w"),
                                  ("n_small_dbm_hz", "bw_small_hz", "noise_small_w")):
            value = getattr(self, name)
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


@dataclass(frozen=True)
class Topology:
    """Node positions, all in meters on the same plane."""

    mbs_pos: np.ndarray   # shape (2,)
    sbs_pos: np.ndarray   # shape (I, 2)
    ue_pos: np.ndarray    # shape (K, 2)

    def __post_init__(self):
        object.__setattr__(self, "mbs_pos", np.asarray(self.mbs_pos, dtype=np.float64))
        object.__setattr__(self, "sbs_pos", np.asarray(self.sbs_pos, dtype=np.float64))
        object.__setattr__(self, "ue_pos", np.asarray(self.ue_pos, dtype=np.float64))
        if self.mbs_pos.shape != (2,):
            raise ValueError("mbs_pos must have shape (2,)")
        if self.sbs_pos.ndim != 2 or self.sbs_pos.shape[1] != 2 or self.sbs_pos.shape[0] < 1:
            raise ValueError("sbs_pos must have shape (I, 2) with I >= 1")
        if self.ue_pos.ndim != 2 or self.ue_pos.shape[1] != 2 or self.ue_pos.shape[0] < 1:
            raise ValueError("ue_pos must have shape (K, 2) with K >= 1")


def _small_ints(values, dtype, stop: int, message: str) -> np.ndarray:
    """values as a new contiguous `dtype` array of at least one dimension,
    refused with ValueError(message) unless every entry is a bool, integer or
    float holding an integer in [0, stop). The check reads the values before
    the cast, which would truncate fractions and wrap negatives."""
    arr = np.asarray(values)
    kind = arr.dtype.kind
    if kind not in "biuf":
        raise ValueError(message)
    ok = (arr >= 0) & (arr < stop)
    if kind == "f":
        ok &= arr == np.trunc(arr)
    if not ok.all():
        raise ValueError(message)
    return np.array(arr, dtype=dtype, order="C", ndmin=1)


def generate_topology(params: ScenarioParams) -> Topology:
    """Draw SBS then UE positions uniformly over the square.

    Seeded from params.seed, with a fixed draw order (SBS block first,
    row-major, then the UE block), so the drop is a pure function of params.
    """
    side = params.area_side_m
    # one draw gives the stream of an SBS draw followed by a UE draw
    pos = np.random.default_rng(params.seed).uniform(0.0, side,
                                                     size=(params.num_sbs + params.num_ue, 2))
    return Topology(mbs_pos=np.array([side / 2.0, side / 2.0]),
                    sbs_pos=pos[:params.num_sbs], ue_pos=pos[params.num_sbs:])


# ChannelTable's stored and derived arrays, the rows of its block in this order
_ROWS = ("rx_macro_w", "rx_small_w", "interference_w", "snr_macro", "sinr_small",
         "log_macro", "log_small")
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
    evaluate to bit-identical sums. A table checks itself when built and is
    frozen. Its float arrays are read-only rows of one block it owns, and
    assoc_sbs a read-only copy; dataclasses.replace builds a new checked
    table from new inputs and derives the rest again.
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

    def __post_init__(self):
        params = self.params
        k = params.num_ue
        assoc = _small_ints(self.assoc_sbs, np.int64, params.num_sbs,
                            "assoc_sbs entries must index a valid SBS")
        if assoc.shape != (k,):
            raise ValueError("assoc_sbs must have shape (num_ue,)")
        block = np.empty((len(_ROWS), k))   # a copy the caller cannot reach
        for row, name in zip(block, _ROWS[:3]):
            arr = np.asarray(getattr(self, name), dtype=np.float64)
            if arr.shape != (k,):
                raise ValueError(f"{name} must have shape (num_ue,)")
            row[:] = arr
        rx_m, rx_s, interference, snr, sinr = block[:5]
        # the check below refuses an overflow, a noise underflowed to 0.0 and
        # the log of a bad ratio; no warning first
        with np.errstate(all="ignore"):
            np.divide(rx_m, params.noise_macro_w, out=snr)
            np.divide(rx_s, interference + params.noise_small_w, out=sinr)
            np.log2(np.add(1.0, block[3:5], out=block[5:]), out=block[5:])
        # each row's least and greatest entry, which are NaN if any entry is
        lows = block[:5].min(axis=1).tolist()
        highs = block.max(axis=1).tolist()
        for row, message in enumerate(_REFUSED):
            # NaN fails every comparison; a lone SBS has no interferer
            if not ((lows[row] > 0.0 or row == 2 and lows[row] == 0.0) and highs[row] < math.inf):
                raise ValueError(message)
        # a sum-rate adds at most 2K terms bw / load * log, none above bw * log
        bw_m, bw_s = params.bw_macro_hz, params.bw_small_hz
        top_m, top_s = highs[5:]
        if not math.isfinite(2 * k * max(bw_m * top_m, bw_s * top_s)):
            raise ValueError(f"2 * num_ue * bw * log2(1 + x) must be finite on both tiers, "
                             f"got bw_macro_hz={bw_m} and bw_small_hz={bw_s}")
        block.flags.writeable = False
        assoc.flags.writeable = False
        object.__setattr__(self, "assoc_sbs", assoc)
        for name, row in zip(_ROWS, block):
            object.__setattr__(self, name, row)

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


def build_channel_table(topo: Topology, params: ScenarioParams) -> ChannelTable:
    """Compute received powers, association and interference for every UE of
    a drop; the table derives the SNRs and SINRs from them."""
    if topo.ue_pos.shape[0] != params.num_ue or topo.sbs_pos.shape[0] != params.num_sbs:
        raise ValueError("topology does not match params (num_ue / num_sbs)")

    # (K, 1 + I) distances, gains and powers from every station to every UE,
    # the MBS in column 0
    stations = np.concatenate((topo.mbs_pos[None, :], topo.sbs_pos))
    diff = topo.ue_pos[:, None, :] - stations[None, :, :]
    alphas = np.array([-params.alpha_macro] + [-params.alpha_small] * params.num_sbs)
    powers = np.array([params.p_macro_w] + [params.p_small_w] * params.num_sbs)
    rx = np.maximum(np.hypot(diff[:, :, 0], diff[:, :, 1]), MIN_GAIN_DISTANCE_M) ** alphas
    rx *= powers

    # strongest received power wins; argmax takes the lowest index on ties
    others = rx[:, 1:].copy()
    assoc = others.argmax(axis=1)
    rows = np.arange(params.num_ue)
    rx_small = others[rows, assoc]
    others[rows, assoc] = 0.0        # summing the zeroed copy avoids cancellation
    return ChannelTable(rx_macro_w=rx[:, 0], rx_small_w=rx_small,
                        interference_w=others.sum(axis=1), assoc_sbs=assoc, params=params)


def make_instance(params: ScenarioParams):
    """Draw the topology of params' seed and build its table in one call."""
    topo = generate_topology(params)
    return topo, build_channel_table(topo, params)

