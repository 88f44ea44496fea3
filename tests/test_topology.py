"""Geometry, unit conversion, channel table construction."""

import copy
import dataclasses
import hashlib
import math
import pickle
import re
import warnings
from dataclasses import replace

import numpy as np
import pytest

import dcalloc.topology as topology
from dcalloc import (ChannelTable, ScenarioParams, Topology, brute_force_scan,
                     build_channel_table, dbm_to_watts, evaluate, generate_topology,
                     load_config, make_instance, solve_stronger)

from conftest import python_objective, seeded_table


def test_dbm_to_watts_known_values():
    assert dbm_to_watts(30.0) == pytest.approx(1.0, rel=1e-15)
    assert dbm_to_watts(0.0) == pytest.approx(1e-3, rel=1e-15)
    assert dbm_to_watts(20.0) == pytest.approx(0.1, rel=1e-15)
    assert dbm_to_watts(46.0) == pytest.approx(10.0 ** 1.6, rel=1e-15)
    assert dbm_to_watts(-140.0) == pytest.approx(1e-17, rel=1e-12)


def test_default_noise_floors_in_watts():
    p = ScenarioParams()
    # -90 dBm/Hz over 10 MHz and -140 dBm/Hz over 10 MHz
    assert p.noise_macro_w == pytest.approx(1e-5, rel=1e-12)
    assert p.noise_small_w == pytest.approx(1e-10, rel=1e-12)
    assert p.p_macro_w == pytest.approx(dbm_to_watts(46.0), rel=1e-15)
    assert p.p_small_w == pytest.approx(0.1, rel=1e-15)


@pytest.mark.parametrize("field,value", [
    ("area_side_m", 0.0),
    ("area_side_m", -5.0),
    ("num_sbs", 0),
    ("num_ue", 0),
    ("alpha_macro", 2.0),
    ("alpha_small", 1.5),
    ("bw_macro_hz", 0.0),
    ("bw_small_hz", -1.0),
    ("bw_macro_hz", math.inf),
    ("bw_small_hz", math.inf),
    ("alpha_macro", math.inf),
    ("alpha_small", math.inf),
    ("p_macro_dbm", float("nan")),
    # finite, but the watts overflow a float
    ("p_macro_dbm", 4000.0),
    ("p_small_dbm", 4000.0),
    ("n_macro_dbm_hz", 4000.0),
    ("n_small_dbm_hz", 4000.0),
    ("seed", -1),
    ("num_sbs", 2.5),
    ("num_ue", 3.5),
    ("seed", 0.5),
    ("seed", True),
])
def test_params_validation_rejects(field, value):
    kwargs = {field: value}
    with pytest.raises(ValueError, match=field):
        ScenarioParams(**kwargs).validate()


def test_params_refuse_a_channel_out_of_range():
    """A total noise power that overflows names its dBm field and its
    bandwidth, and a transmit power whose watts underflow to 0.0 names its
    field. A total noise that underflows to 0.0 is left to the table."""
    for tier in ("macro", "small"):
        noise = rf"n_{tier}_dbm_hz must give a finite noise power over bw_{tier}_hz"
        with pytest.raises(ValueError, match=rf"^{noise}, got 3100\.0 and 10000000\.0$"):
            ScenarioParams(**{f"n_{tier}_dbm_hz": 3100.0})
        with pytest.raises(ValueError, match=f"p_{tier}_dbm must give positive watts"):
            ScenarioParams(**{f"p_{tier}_dbm": -4000.0})
    # 1e304 W of noise over 1 Hz is finite
    ScenarioParams(n_macro_dbm_hz=3070.0, n_small_dbm_hz=3070.0, bw_macro_hz=1.0,
                   bw_small_hz=1.0)
    params = ScenarioParams(bw_macro_hz=1e-300, n_macro_dbm_hz=-300.0)
    assert params.noise_macro_w == 0.0


def test_params_check_themselves_at_construction():
    with pytest.raises(ValueError, match="num_ue"):
        ScenarioParams(num_ue=0)
    with pytest.raises(ValueError, match="seed"):
        replace(ScenarioParams(), seed=2 ** 64)


def test_params_accept_numpy_integers():
    params = ScenarioParams(num_sbs=np.int64(2), num_ue=np.int32(3), seed=np.uint64(2 ** 63))
    assert make_instance(params)[1].num_ue == 3


def test_params_derive_watts_once_when_built(tmp_path, monkeypatch):
    """The watts are dbm_to_watts of each dBm field, times its bandwidth for
    the noise fields, bit for bit. replace derives them again; pickle and
    deepcopy keep them. They are not inputs: neither the constructor nor a
    config file takes them. Building params converts each field once, and
    make_instance converts none."""
    params = ScenarioParams(p_macro_dbm=43.0, p_small_dbm=23.0, bw_macro_hz=20e6,
                            bw_small_hz=5e6, n_macro_dbm_hz=-100.0, n_small_dbm_hz=-120.0)

    def watts(p):
        return (dbm_to_watts(p.p_macro_dbm), dbm_to_watts(p.p_small_dbm),
                p.bw_macro_hz * dbm_to_watts(p.n_macro_dbm_hz),
                p.bw_small_hz * dbm_to_watts(p.n_small_dbm_hz))

    def derived(p):
        return (p.p_macro_w, p.p_small_w, p.noise_macro_w, p.noise_small_w)

    assert [w.hex() for w in derived(params)] == [w.hex() for w in watts(params)]
    moved = replace(params, p_small_dbm=30.0, n_macro_dbm_hz=-90.0, bw_small_hz=1e6)
    assert [w.hex() for w in derived(moved)] == [w.hex() for w in watts(moved)]
    assert moved.p_small_w == 1.0 and moved.p_macro_w == params.p_macro_w
    for twin in (copy.deepcopy(params), pickle.loads(pickle.dumps(params))):
        assert twin == params and derived(twin) == derived(params)
    with pytest.raises(TypeError):
        ScenarioParams(noise_macro_w=1.0)
    cfg = tmp_path / "derived.cfg"
    cfg.write_text("ue_sweep = 4\nalgorithms = proposed\nnoise_macro_w = 1\n")
    with pytest.raises(ValueError, match=r":3: unknown key 'noise_macro_w'$"):
        load_config(str(cfg))

    calls = []
    monkeypatch.setattr(topology, "dbm_to_watts",
                        lambda value: calls.append(value) or dbm_to_watts(value))
    params = ScenarioParams(num_ue=5, seed=4)
    assert calls == [46.0, 20.0, -90.0, -140.0]
    calls.clear()
    make_instance(params)
    assert calls == []


def test_channel_table_clamps_gains_within_one_meter():
    """A UE 0.5 m from its SBS and a UE on the MBS site are inside the 1 m
    clamp, so each receives its station's transmit power."""
    params = ScenarioParams(num_sbs=2, num_ue=2)
    topo = Topology(mbs_pos=np.array([250.0, 250.0]),
                    sbs_pos=np.array([[100.0, 100.0], [400.0, 100.0]]),
                    ue_pos=np.array([[100.5, 100.0], [250.0, 250.0]]))
    table = build_channel_table(topo, params)
    assert table.assoc_sbs[0] == 0
    assert table.rx_small_w[0] == params.p_small_w
    assert table.rx_macro_w[1] == params.p_macro_w


def test_generate_topology_matches_draw_law():
    params = ScenarioParams(num_sbs=3, num_ue=5, seed=99)
    topo = generate_topology(params)
    rng = np.random.default_rng(99)
    sbs = rng.uniform(0.0, params.area_side_m, size=(3, 2))
    ue = rng.uniform(0.0, params.area_side_m, size=(5, 2))
    assert np.array_equal(topo.sbs_pos, sbs)
    assert np.array_equal(topo.ue_pos, ue)
    assert np.array_equal(topo.mbs_pos, [250.0, 250.0])
    assert topo.sbs_pos.min() >= 0.0 and topo.sbs_pos.max() <= 500.0


def test_generate_topology_deterministic_per_seed():
    params = ScenarioParams(num_sbs=4, num_ue=10, seed=5)
    a = generate_topology(params)
    b = generate_topology(params)
    assert np.array_equal(a.ue_pos, b.ue_pos)
    c = generate_topology(ScenarioParams(num_sbs=4, num_ue=10, seed=6))
    assert not np.array_equal(a.ue_pos, c.ue_pos)


def test_association_picks_max_power_lowest_index_on_tie():
    params = ScenarioParams(num_sbs=2, num_ue=2)
    # UE 0 equidistant from both SBSs -> tie -> SBS 0; UE 1 next to SBS 1
    topo = Topology(mbs_pos=np.array([250.0, 250.0]),
                    sbs_pos=np.array([[100.0, 100.0], [300.0, 100.0]]),
                    ue_pos=np.array([[200.0, 100.0], [296.0, 100.0]]))
    table = build_channel_table(topo, params)
    assert table.assoc_sbs.tolist() == [0, 1]


def test_channel_table_against_hand_computation():
    """Tiny fixed drop recomputed with scalar math end to end."""
    params = ScenarioParams(num_sbs=2, num_ue=1)
    topo = Topology(mbs_pos=np.array([250.0, 250.0]),
                    sbs_pos=np.array([[60.0, 80.0], [400.0, 420.0]]),
                    ue_pos=np.array([[90.0, 120.0]]))
    table = build_channel_table(topo, params)

    d_m = math.hypot(90.0 - 250.0, 120.0 - 250.0)
    d_s0 = math.hypot(90.0 - 60.0, 120.0 - 80.0)
    d_s1 = math.hypot(90.0 - 400.0, 120.0 - 420.0)
    p_m = dbm_to_watts(46.0)
    p_s = dbm_to_watts(20.0)
    snr = p_m * d_m ** -4.5 / (params.bw_macro_hz * dbm_to_watts(-90.0))
    rx0 = p_s * d_s0 ** -5.0
    rx1 = p_s * d_s1 ** -5.0
    sinr = rx0 / (rx1 + params.bw_small_hz * dbm_to_watts(-140.0))

    assert table.assoc_sbs[0] == 0
    assert table.snr_macro[0] == pytest.approx(snr, rel=1e-12)
    assert table.sinr_small[0] == pytest.approx(sinr, rel=1e-12)
    assert table.rx_small_w[0] == pytest.approx(rx0, rel=1e-12)
    assert table.rx_macro_w[0] == pytest.approx(p_m * d_m ** -4.5, rel=1e-12)
    assert table.log_macro[0] == np.log2(1.0 + table.snr_macro[0])
    assert table.log_small[0] == np.log2(1.0 + table.sinr_small[0])


def test_interference_excludes_serving_sbs():
    """With a single SBS there is no interference at all."""
    params = ScenarioParams(num_sbs=1, num_ue=3, seed=3)
    topo = generate_topology(params)
    table = build_channel_table(topo, params)
    d = np.hypot(*(topo.ue_pos - topo.sbs_pos[0]).T)
    rx = params.p_small_w * np.maximum(d, 1.0) ** -5.0
    assert table.sinr_small == pytest.approx(rx / params.noise_small_w, rel=1e-12)
    assert table.interference_w.tolist() == [0.0, 0.0, 0.0]


def test_sinr_improves_moving_toward_serving_sbs():
    """Pulling a UE straight toward its serving SBS (staying above the 1 m
    clamp) must raise its SINR and keep the association."""
    checked = 0
    for seed in range(40):
        params = ScenarioParams(num_sbs=4, num_ue=6, seed=1000 + seed)
        topo = generate_topology(params)
        table = build_channel_table(topo, params)
        k = seed % params.num_ue
        sbs = topo.sbs_pos[table.assoc_sbs[k]]
        pulled = sbs + 0.7 * (topo.ue_pos[k] - sbs)
        dists = np.hypot(*(pulled - topo.sbs_pos).T)
        if dists.min() <= 1.5 or np.hypot(*(pulled - topo.mbs_pos)) <= 1.5:
            continue
        ue2 = topo.ue_pos.copy()
        ue2[k] = pulled
        table2 = build_channel_table(
            Topology(topo.mbs_pos, topo.sbs_pos, ue2), params)
        assert table2.assoc_sbs[k] == table.assoc_sbs[k]
        assert table2.sinr_small[k] > table.sinr_small[k]
        checked += 1
    assert checked >= 30


def _good_inputs(**params):
    return dict(rx_macro_w=np.array([1e-5, 2e-5]), rx_small_w=np.array([1e-10, 2e-10]),
                interference_w=np.array([0.0, 1e-11]), assoc_sbs=np.array([0, 1]),
                params=ScenarioParams(num_sbs=2, num_ue=2, **params))


def test_channel_table_validation():
    """Each stored input is refused by name unless it has one entry per UE
    and is finite and positive, or for interference_w non-negative: zero,
    a lone SBS's interference, leaves the SINR signal over noise. An SNR or
    SINR that comes out infinite or zero from such inputs is refused, and
    the message names the inputs it derives from, with no warning first."""
    good = _good_inputs()
    ChannelTable(**good)
    with pytest.raises(ValueError, match="assoc_sbs"):
        ChannelTable(**{**good, "assoc_sbs": np.array([0, 2])})
    with pytest.raises(ValueError, match="assoc_sbs"):
        ChannelTable(**{**good, "assoc_sbs": np.array([0.7, 1.0])})
    with pytest.raises(ValueError, match="assoc_sbs"):
        ChannelTable(**{**good, "assoc_sbs": np.array([0])})
    for bad in (np.array(["0", "1"]), [None, None], np.array([0, 1], dtype=object)):
        with pytest.raises(ValueError, match="assoc_sbs"):
            ChannelTable(**{**good, "assoc_sbs": bad})
    for name in ("rx_macro_w", "rx_small_w", "interference_w"):
        for bad in (np.array([1.0]), np.ones((2, 1)), np.array([np.nan, 1.0]),
                    np.array([-1e-30, 1.0]), np.array([1.0, np.inf])):
            with pytest.raises(ValueError, match=name):
                ChannelTable(**{**good, name: bad})
    for name in ("rx_macro_w", "rx_small_w"):
        with pytest.raises(ValueError, match=name):
            ChannelTable(**{**good, name: np.array([1.0, 0.0])})
    quiet = ChannelTable(**{**good, "interference_w": np.zeros(2)})
    noise = quiet.params.noise_small_w
    assert quiet.sinr_small.tobytes() == (good["rx_small_w"] / noise).tobytes()

    snr = "snr_macro = rx_macro_w / noise_macro_w"
    sinr = re.escape("sinr_small = rx_small_w / (interference_w + noise_small_w)")
    one_watt = np.array([1.0, 1.0])
    derived = [  # a finite power over a noise of 1e-312 W (macro) or 1e-317 W (small)
               (dict(_good_inputs(bw_macro_hz=1e-300), rx_macro_w=one_watt), snr),
               (dict(_good_inputs(bw_small_hz=1e-300), rx_small_w=one_watt), sinr),
               # ... or over a noise that underflows to 0.0
               (dict(_good_inputs(bw_macro_hz=1e-300, n_macro_dbm_hz=-300.0),
                     rx_macro_w=one_watt), snr),
               (dict(_good_inputs(bw_small_hz=1e-300, n_small_dbm_hz=-300.0),
                     rx_small_w=one_watt, interference_w=np.zeros(2)), sinr),
               # 0 W over it is 0/0, refused as the stored input it is
               (dict(_good_inputs(bw_macro_hz=1e-300, n_macro_dbm_hz=-300.0),
                     rx_macro_w=np.zeros(2)), "rx_macro_w"),
               # the least subnormal power over a noise of 1e4 W, or over 1e300 W
               (dict(_good_inputs(n_macro_dbm_hz=0.0), rx_macro_w=np.array([5e-324, 1.0])), snr),
               (dict(good, rx_small_w=np.array([1.0, 5e-324]),
                     interference_w=np.array([0.0, 1e300])), sinr),
               # several bad at once: the first array in the stored order is named
               (dict(good, rx_small_w=np.array([np.nan, 1.0]),
                     interference_w=np.array([-1.0, 0.0])), "rx_small_w"),
               (dict(good, rx_macro_w=np.array([1.0, np.inf]),
                     rx_small_w=np.array([np.nan, 1.0])), "rx_macro_w"),
               (dict(good, rx_small_w=np.array([1e300, 1.0]),
                     interference_w=np.array([0.0, -1.0])), "interference_w")]
    for inputs, match in derived:
        # the ValueError is the only signal: no RuntimeWarning from the division
        with warnings.catch_warnings(), pytest.raises(ValueError, match=match):
            warnings.simplefilter("error")
            ChannelTable(**inputs)


def test_make_instance_matches_pipeline():
    params = ScenarioParams(num_sbs=3, num_ue=4, seed=11)
    topo, table = make_instance(params)
    topo2 = generate_topology(params)
    table2 = build_channel_table(topo2, params)
    assert np.array_equal(topo.ue_pos, topo2.ue_pos)
    assert np.array_equal(table.sinr_small, table2.sinr_small)
    assert seeded_table(4, 3, 11).snr_macro == pytest.approx(table.snr_macro, rel=0)


# sha256 of every drop's arrays in _pinned_drops, recorded from the code before
# make_instance built a drop in one pass
_PINNED_DROP_DIGEST = "36858c32d1d4763fa125db0b06db202444a74019841b5d5b6a22cb0bd9ef4ccf"
_TABLE_ARRAYS = ("rx_macro_w", "rx_small_w", "interference_w", "assoc_sbs",
                 "snr_macro", "sinr_small", "log_macro", "log_small")


def _pinned_drops():
    """1,935 drops: K = 1..40, 50, 100, 200 x 1, 2, 4, 8, 16 SBSs x sides of
    250, 500 and 1000 m x 3 seeds."""
    for k_ues in (*range(1, 41), 50, 100, 200):
        for num_sbs in (1, 2, 4, 8, 16):
            for side in (250.0, 500.0, 1000.0):
                for s in range(3):
                    yield ScenarioParams(area_side_m=side, num_sbs=num_sbs, num_ue=k_ues,
                                         seed=100000 * k_ues + 1000 * num_sbs + int(side) + s)


def test_make_instance_pinned_past_the_goldens():
    """The goldens cover a few sweep shapes. Every drop's positions and table,
    dtype, shape and bytes of each array, is pinned by one digest over 1,935
    drops. Every table array is C-contiguous and read-only, and a table
    built from a caller's arrays shares no memory with them."""
    digest = hashlib.sha256()
    drops = 0
    for params in _pinned_drops():
        topo, table = make_instance(params)
        drops += 1
        arrays = [topo.mbs_pos, topo.sbs_pos, topo.ue_pos,
                  *(getattr(table, name) for name in _TABLE_ARRAYS)]
        for arr in arrays:
            digest.update(repr((arr.dtype.str, arr.shape)).encode())
            digest.update(arr.tobytes())
        inputs = {name: np.array(getattr(table, name)) for name in _TABLE_ARRAYS[:4]}
        twin = ChannelTable(**inputs, params=params)
        for name in _TABLE_ARRAYS:
            for built in (table, twin):
                arr = getattr(built, name)
                assert arr.flags.c_contiguous and not arr.flags.writeable, name
                assert not any(np.shares_memory(arr, mine) for mine in inputs.values()), name
            assert getattr(twin, name).tobytes() == getattr(table, name).tobytes(), name
    assert drops == 1935
    assert digest.hexdigest() == _PINNED_DROP_DIGEST


def test_channel_table_is_frozen():
    """A table's arrays are read-only copies and its fields cannot be
    reassigned, so no table in hand can disagree with itself: the SNR cannot
    leave its log term stale, nor params its association."""
    table = make_instance(ScenarioParams(num_ue=6, seed=3))[1]
    snr = table.snr_macro.copy()
    for name in ("snr_macro", "sinr_small", "rx_macro_w", "rx_small_w", "interference_w",
                 "log_macro", "log_small", "assoc_sbs"):
        arr = getattr(table, name)
        assert not arr.flags.writeable, name
        with pytest.raises(ValueError, match="read-only"):
            arr[:] = arr[::-1]
    assert np.array_equal(table.snr_macro, snr)
    with pytest.raises(dataclasses.FrozenInstanceError):
        table.params = replace(table.params, num_sbs=1)
    with pytest.raises(dataclasses.FrozenInstanceError):
        table.log_macro = table.log_macro * 2
    # the constructor copies: the caller's array stays writeable and unshared
    rx = table.rx_macro_w.copy()
    built = replace(table, rx_macro_w=rx)
    rx[0] *= 2
    assert built.rx_macro_w[0] == table.rx_macro_w[0]
    assert built.snr_macro[0] == table.snr_macro[0]


def test_channel_table_copies_stay_checked_and_read_only():
    """pickle and deepcopy rebuild a table through its constructor, so the
    copy is read-only and scans to the same result; replace builds a new
    checked table whose SINRs and log terms derive from the new powers."""
    table = make_instance(ScenarioParams(num_ue=6, seed=3))[1]
    scan = brute_force_scan(table)
    for twin in (copy.deepcopy(table), pickle.loads(pickle.dumps(table))):
        assert twin is not table
        for name in ("snr_macro", "assoc_sbs", "sinr_small", "rx_macro_w", "rx_small_w",
                     "interference_w", "log_macro", "log_small"):
            arr = getattr(twin, name)
            assert not arr.flags.writeable, name
            assert np.array_equal(arr, getattr(table, name)), name
        assert twin.params == table.params
        assert brute_force_scan(twin) == scan
    rx = table.rx_small_w * 2.0
    doubled = replace(table, rx_small_w=rx)
    assert not doubled.sinr_small.flags.writeable
    sinr = rx / (table.interference_w + table.params.noise_small_w)
    assert np.array_equal(doubled.sinr_small, sinr)
    assert np.array_equal(doubled.log_small, np.log2(1.0 + sinr))
    assert np.array_equal(doubled.log_macro, table.log_macro)
    with pytest.raises(ValueError, match="rx_small_w"):
        replace(table, rx_small_w=-rx)
    with pytest.raises(ValueError, match="assoc_sbs"):
        replace(table, params=replace(table.params, num_sbs=1))


def test_replace_derives_the_channel_from_the_new_powers():
    """A table built by replace from new MBS powers derives its SNRs from
    them, so solve_stronger, which decides on the powers, and evaluate, which
    reads the SNRs' log terms, see one channel. The derived fields
    themselves cannot be replaced."""
    table = make_instance(ScenarioParams(num_ue=6, seed=3))[1]
    rx = table.rx_macro_w[::-1].copy()
    flipped = replace(table, rx_macro_w=rx)
    assert flipped.snr_macro.tobytes() == (rx / table.params.noise_macro_w).tobytes()
    assert flipped.log_macro.tobytes() == np.log2(1.0 + flipped.snr_macro).tobytes()
    assert not np.array_equal(flipped.log_macro, table.log_macro)
    assert flipped.sinr_small.tobytes() == table.sinr_small.tobytes()
    # MBS powers above and below each UE's serving SBS power
    mixed = replace(table, rx_macro_w=table.rx_small_w * np.array([2.0, 0.5] * 3))
    stronger = solve_stronger(mixed)
    assert stronger.alloc.digits.tolist() == [1, 2] * 3
    assert stronger.sum_rate == evaluate(stronger.alloc, mixed)
    assert stronger.sum_rate == pytest.approx(python_objective(stronger.alloc.digits, mixed),
                                              rel=1e-12)
    for name in ("snr_macro", "sinr_small", "log_macro", "log_small"):
        with pytest.raises(ValueError, match=name):
            replace(table, **{name: getattr(table, name)})
