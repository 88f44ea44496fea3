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
from dcalloc import (ChannelTable, ScenarioParams, brute_force_scan, dbm_to_watts, evaluate,
                     load_config, make_instance, make_instances, solve_stronger)

from conftest import python_objective, seeded_table, sited_table


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
    # an integer past the float range
    ("area_side_m", 10 ** 400),
    ("p_macro_dbm", 10 ** 400),
    ("seed", -1),
    ("num_sbs", 2.5),
    ("num_ue", 3.5),
    ("seed", 0.5),
    ("seed", True),
    # a real-valued field takes no bool, None or string
    ("area_side_m", True),
    ("bw_macro_hz", True),
    ("p_macro_dbm", None),
    ("area_side_m", "500"),
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
    table = sited_table([[250.0, 250.0], [100.0, 100.0], [400.0, 100.0],
                         [100.5, 100.0], [250.0, 250.0]], params)
    assert table.assoc_sbs[0] == 0
    assert table.rx_small_w[0] == params.p_small_w
    assert table.rx_macro_w[1] == params.p_macro_w


def test_drop_sites_match_draw_law():
    """A drop's sites are the MBS at the center, then an SBS draw and a UE
    draw from its seed, as make_instance returns them."""
    params = ScenarioParams(num_sbs=3, num_ue=5, seed=99)
    sites = make_instance(params)[0]
    assert sites.tobytes() == topology._sites(params, [params.seed])[0].tobytes()
    rng = np.random.default_rng(99)
    sbs = rng.uniform(0.0, params.area_side_m, size=(3, 2))
    ue = rng.uniform(0.0, params.area_side_m, size=(5, 2))
    assert sites.shape == (1 + 3 + 5, 2)
    assert np.array_equal(sites[1:4], sbs)
    assert np.array_equal(sites[4:], ue)
    assert np.array_equal(sites[0], [250.0, 250.0])
    assert sites[1:4].min() >= 0.0 and sites[1:4].max() <= 500.0


def test_drop_sites_deterministic_per_seed():
    params = ScenarioParams(num_sbs=4, num_ue=10, seed=5)
    a = make_instance(params)[0]
    b = make_instance(params)[0]
    assert np.array_equal(a[5:], b[5:])
    c = make_instance(ScenarioParams(num_sbs=4, num_ue=10, seed=6))[0]
    assert not np.array_equal(a[5:], c[5:])


def test_association_picks_max_power_lowest_index_on_tie():
    params = ScenarioParams(num_sbs=2, num_ue=2)
    # UE 0 equidistant from both SBSs -> tie -> SBS 0; UE 1 next to SBS 1
    table = sited_table([[250.0, 250.0], [100.0, 100.0], [300.0, 100.0],
                         [200.0, 100.0], [296.0, 100.0]], params)
    assert table.assoc_sbs.tolist() == [0, 1]


def test_channel_table_against_hand_computation():
    """Tiny fixed drop recomputed with scalar math end to end."""
    params = ScenarioParams(num_sbs=2, num_ue=1)
    table = sited_table([[250.0, 250.0], [60.0, 80.0], [400.0, 420.0], [90.0, 120.0]], params)

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
    sites, table = make_instance(params)
    d = np.hypot(*(sites[2:] - sites[1]).T)
    rx = params.p_small_w * np.maximum(d, 1.0) ** -5.0
    assert table.sinr_small == pytest.approx(rx / params.noise_small_w, rel=1e-12)
    assert table.interference_w.tolist() == [0.0, 0.0, 0.0]


def test_sinr_improves_moving_toward_serving_sbs():
    """Pulling a UE straight toward its serving SBS (staying above the 1 m
    clamp) must raise its SINR and keep the association."""
    checked = 0
    for seed in range(40):
        params = ScenarioParams(num_sbs=4, num_ue=6, seed=1000 + seed)
        sites, table = make_instance(params)
        k = seed % params.num_ue
        sbs = sites[1 + table.assoc_sbs[k]]
        pulled = sbs + 0.7 * (sites[5 + k] - sbs)
        dists = np.hypot(*(pulled - sites[1:5]).T)
        if dists.min() <= 1.5 or np.hypot(*(pulled - sites[0])) <= 1.5:
            continue
        moved = sites.copy()
        moved[5 + k] = pulled
        table2 = sited_table(moved, params)
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
    # a negative index is refused at any dtype, even below a stop past its range
    with pytest.raises(ValueError, match="assoc_sbs"):
        ChannelTable(**{**good, "assoc_sbs": np.array([-1, 0], dtype=np.int8),
                        "params": ScenarioParams(num_sbs=300, num_ue=2)})
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
    sites, table = make_instance(params)
    sites2 = topology._sites(params, [params.seed])[0]
    table2 = sited_table(sites2, params)
    assert np.array_equal(sites, sites2)
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
        sites, table = make_instance(params)
        drops += 1
        for arr in _drop_arrays(sites, table):
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


def _drop_arrays(sites, table):
    """The MBS's, the SBSs' and the UEs' rows of a drop's sites, then its
    table arrays."""
    i = 1 + table.num_sbs
    return [sites[0], sites[1:i], sites[i:], *(getattr(table, name) for name in _TABLE_ARRAYS)]


def test_make_instances_pinned_in_runs():
    """The pinned drops built in runs, one run of three seeds per (K, I,
    side), meet the digest that make_instance's drops meet."""
    digest = hashlib.sha256()
    drops = list(_pinned_drops())
    built = 0
    for start in range(0, len(drops), 3):
        run = drops[start:start + 3]
        assert len({replace(p, seed=0) for p in run}) == 1
        for sites, table in make_instances(run[0], [p.seed for p in run]):
            built += 1
            for arr in _drop_arrays(sites, table):
                digest.update(repr((arr.dtype.str, arr.shape)).encode())
                digest.update(arr.tobytes())
    assert built == 1935
    assert digest.hexdigest() == _PINNED_DROP_DIGEST


@pytest.mark.parametrize("num_sbs", [1, 4, 8, 16])
def test_make_instances_equal_make_instance_per_seed(num_sbs):
    """A run of 1, 7 or 20 seeds gives each seed the drop make_instance
    gives it alone, which is its own _sites row and the table of those
    sites, byte for byte. From 8 SBSs on, numpy's pairwise sum unrolls,
    which pins the interference sum, the one float reduction."""
    for k_ues in (1, 2, 10, 20, 40):
        for length in (1, 7, 20):
            scenario = ScenarioParams(num_sbs=num_sbs, num_ue=k_ues)
            seeds = [1000 * k_ues + 50 * length + s for s in range(length)]
            run = [replace(scenario, seed=seed) for seed in seeds]
            for params, drop in zip(run, make_instances(scenario, seeds), strict=True):
                sites = topology._sites(params, [params.seed])[0]
                for twin in (make_instance(params), (sites, sited_table(sites, params))):
                    for got, want in zip(_drop_arrays(*drop), _drop_arrays(*twin)):
                        assert got.dtype == want.dtype and got.shape == want.shape
                        assert got.tobytes() == want.tobytes()
                    assert drop[1].columns == twin[1].columns


def _assert_same_table(got, want):
    for name in _TABLE_ARRAYS:
        a, b = getattr(got, name), getattr(want, name)
        assert a.dtype == b.dtype and a.shape == b.shape, name
        assert a.tobytes() == b.tobytes(), name
    assert got.columns == want.columns
    assert got.params == want.params


def test_make_instances_take_one_scenario_and_its_seeds():
    """A run is one scenario at its seeds, Python or NumPy integers: each
    drop equals make_instance's at that seed in all eight table arrays and
    its columns, and its params are the scenario at the seed. A bad seed is
    refused with ScenarioParams' message at the first advance, and no seeds
    yield nothing."""
    scenario = ScenarioParams(num_ue=5, n_small_dbm_hz=-120.0, bw_macro_hz=5e6)
    seeds = [1, np.uint64(2 ** 63), 3, np.int64(4), 2 ** 64 - 1, 6]
    for length in (1, 2, len(seeds)):
        run = make_instances(scenario, seeds[:length])
        for seed, (sites, table) in zip(seeds[:length], run, strict=True):
            params = replace(scenario, seed=seed)
            twin = make_instance(params)
            assert sites.tobytes() == twin[0].tobytes()
            _assert_same_table(table, twin[1])
            assert table.params == params
    instances = make_instances(scenario, (1, -1))
    with pytest.raises(ValueError, match="seed must fit in an unsigned 64-bit integer"):
        next(instances)
    assert list(make_instances(scenario, [])) == []


@pytest.mark.parametrize("scenario, first, message", [
    # a subnormal MBS power underflows rx_macro_w only at UEs far from the MBS
    (ScenarioParams(p_macro_dbm=-3100.0, num_ue=3), 2,
     "rx_macro_w must be finite and strictly positive"),
    # 1e306 Hz over a -3200 dBm/Hz floor: at some drops 2K rate terms could
    # sum past a double
    (ScenarioParams(num_ue=3, bw_macro_hz=1e306, bw_small_hz=1e306, n_macro_dbm_hz=-3200.0,
                    n_small_dbm_hz=-3200.0), 4,
     "must be finite on both tiers")], ids=["rx_macro_w", "bandwidth"])
def test_a_refused_drop_raises_at_its_own_advance(scenario, first, message):
    """One drop in the middle of a run (the three seeds from first pass,
    the fourth is refused) raises at its own advance, with make_instance's
    message and no warning first; the drops before it equal make_instance's."""
    seeds = range(first, first + 6)
    run = [replace(scenario, seed=seed) for seed in seeds]
    with pytest.raises(ValueError, match=message) as alone:
        make_instance(run[3])
    instances = make_instances(scenario, seeds)
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        for params in run[:3]:
            _assert_same_table(next(instances)[1], make_instance(params)[1])
        with pytest.raises(ValueError) as in_run:
            next(instances)
    assert str(in_run.value) == str(alone.value)


def test_a_run_derives_its_tables_once(monkeypatch):
    """A run of 20 drops derives every table in one call of the helper, and
    make_instance one call per drop. A run's tables are read-only
    C-contiguous rows, and pickle, deepcopy and replace rebuild each with
    equal bits."""
    calls = []
    derive = topology._derive
    monkeypatch.setattr(topology, "_derive",
                        lambda params, t, *args: calls.append(t) or derive(params, t, *args))
    drops = list(make_instances(ScenarioParams(num_ue=7), range(20)))
    assert calls == [20]
    for seed in range(3):
        make_instance(ScenarioParams(num_ue=7, seed=seed))
    assert calls == [20, 1, 1, 1]
    for _, table in drops:
        for name in _TABLE_ARRAYS:
            arr = getattr(table, name)
            assert arr.flags.c_contiguous and not arr.flags.writeable, name
        for twin in (pickle.loads(pickle.dumps(table)), copy.deepcopy(table),
                     replace(table)):
            _assert_same_table(twin, table)
    assert calls == [20, 1, 1, 1] + [1] * 60


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
    with pytest.raises(dataclasses.FrozenInstanceError):
        table.columns = table.columns[::-1]
    # the constructor copies: the caller's array stays writeable and unshared
    rx = table.rx_macro_w.copy()
    built = replace(table, rx_macro_w=rx)
    rx[0] *= 2
    assert built.rx_macro_w[0] == table.rx_macro_w[0]
    assert built.snr_macro[0] == table.snr_macro[0]


def test_channel_table_copies_stay_checked_and_read_only():
    """pickle and deepcopy rebuild a table through its constructor, so the
    copy is read-only, has the same columns and scans to the same result;
    replace builds a new checked table whose SINRs, log terms and columns
    derive from the new powers."""
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
        assert twin.columns == table.columns
        assert brute_force_scan(twin) == scan
    assert replace(table).columns == table.columns
    rx = table.rx_small_w * 2.0
    doubled = replace(table, rx_small_w=rx)
    assert not doubled.sinr_small.flags.writeable
    sinr = rx / (table.interference_w + table.params.noise_small_w)
    assert np.array_equal(doubled.sinr_small, sinr)
    assert np.array_equal(doubled.log_small, np.log2(1.0 + sinr))
    assert np.array_equal(doubled.log_macro, table.log_macro)
    # doubling every SINR keeps their order
    assert doubled.columns == table.columns
    with pytest.raises(ValueError, match="rx_small_w"):
        replace(table, rx_small_w=-rx)
    with pytest.raises(ValueError, match="assoc_sbs"):
        replace(table, params=replace(table.params, num_sbs=1))


def test_replace_derives_the_channel_from_the_new_powers():
    """A table built by replace from new MBS powers derives its SNRs from
    them, so solve_stronger, which decides on the powers, and evaluate, which
    reads the SNRs' log terms, see one channel, and the MBS column is
    sorted by the new SNRs. The derived fields themselves cannot be
    replaced."""
    table = make_instance(ScenarioParams(num_ue=6, seed=3))[1]
    rx = table.rx_macro_w[::-1].copy()
    flipped = replace(table, rx_macro_w=rx)
    assert flipped.snr_macro.tobytes() == (rx / table.params.noise_macro_w).tobytes()
    assert flipped.log_macro.tobytes() == np.log2(1.0 + flipped.snr_macro).tobytes()
    assert not np.array_equal(flipped.log_macro, table.log_macro)
    assert flipped.sinr_small.tobytes() == table.sinr_small.tobytes()
    assert flipped.columns[-1] == tuple(np.argsort(-flipped.snr_macro, kind="stable").tolist())
    assert flipped.columns[-1] != table.columns[-1]
    assert flipped.columns[:-1] == table.columns[:-1]
    # MBS powers above and below each UE's serving SBS power
    mixed = replace(table, rx_macro_w=table.rx_small_w * np.array([2.0, 0.5] * 3))
    stronger = solve_stronger(mixed)
    assert stronger.alloc.digits.tolist() == [1, 2] * 3
    assert stronger.sum_rate == evaluate(stronger.alloc, mixed)
    assert stronger.sum_rate == pytest.approx(python_objective(stronger.alloc.digits, mixed),
                                              rel=1e-12)
    for name in ("snr_macro", "sinr_small", "log_macro", "log_small", "columns"):
        with pytest.raises(ValueError, match=name):
            replace(table, **{name: getattr(table, name)})
