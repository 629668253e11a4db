"""Harness tests: seeded trial reproducibility, the column reducer,
sweep assembly, failure accounting, and the bounds of fig2 and crb."""

import math
import threading
from dataclasses import astuple, replace
from types import SimpleNamespace

import numpy as np
import numpy.testing as npt
import pytest
from hypothesis import example, given, settings, strategies as st

from ofdm_sync_lab import (
    QPSK_ALPHABET,
    Estimates,
    GridSpec,
    OfdmConfig,
    channel_taps,
    demodulate_rows,
    inspect_trial,
    make_experiment,
    make_grid,
    noise_variance_from_snr,
    noiseless_burst,
    pair_residual_rows,
    run_crb_sweep,
    run_mse_sweep,
    run_noise_variance_sweep,
    synthesize_rows,
)
from ofdm_sync_lab import harness, ofdm_model
from reference import derive_rng
from sweep_helpers import burst_chunks

# 11 x 11 lattice holding the operating point; keeps sweep tests fast.
COARSE_GRID = make_grid(0.1, 0.5, 1e-4, 5e-4)


def tiny_experiment(**overrides):
    defaults = dict(n_trials=3, snr_points_db=(10.0, 20.0), grid=COARSE_GRID)
    defaults.update(overrides)
    return make_experiment(**defaults)


# ------------------------------------------------------------ experiment


def test_make_experiment_defaults():
    cfg = make_experiment()
    assert cfg.ofdm == OfdmConfig(64, 52, 16)
    assert cfg.cfo == 0.212
    assert cfg.sfo == 0.000112
    assert cfg.n_taps == 5
    assert cfg.snr_points_db == (0.0, 5.0, 10.0, 15.0, 20.0, 25.0, 30.0)
    assert cfg.n_trials == 500
    assert cfg.master_seed == 12345
    default_grid = make_grid()
    npt.assert_array_equal(cfg.grid.cfo_values, default_grid.cfo_values)
    npt.assert_array_equal(cfg.grid.sfo_values, default_grid.sfo_values)


def test_experiment_config_validation():
    with pytest.raises(ValueError, match="ascending"):
        make_experiment(snr_points_db=(10.0, 10.0))
    with pytest.raises(ValueError, match="ascending"):
        make_experiment(snr_points_db=(10.0, 5.0))
    with pytest.raises(ValueError, match="empty"):
        make_experiment(snr_points_db=())
    with pytest.raises(ValueError, match="finite"):
        make_experiment(snr_points_db=(10.0, float("inf")))
    # the noise variance must stay a positive float at both ends
    with pytest.raises(ValueError, match="3300 dB gives the noise variance "
                                         "0.0, which must be positive"):
        make_experiment(snr_points_db=(10.0, 3300.0))
    with pytest.raises(ValueError, match="-3100 dB gives the noise variance "
                                         "inf, which must be positive"):
        make_experiment(snr_points_db=(-3100.0, 10.0))
    assert make_experiment(snr_points_db=(-3000.0, 3000.0)).snr_points_db \
        == (-3000.0, 3000.0)
    # checked before the milli-dB stream keys, which overflow out there
    with pytest.raises(ValueError, match="1e\\+306 dB gives the noise "
                                         "variance 0.0"):
        make_experiment(snr_points_db=(0.0, 1e306))
    with pytest.raises(ValueError, match="-1e\\+306 dB gives the noise "
                                         "variance inf"):
        make_experiment(snr_points_db=(-1e306, 0.0))
    with pytest.raises(ValueError, match="n_trials"):
        make_experiment(n_trials=0)
    with pytest.raises(ValueError, match="n_taps"):
        make_experiment(n_taps=0)
    for sfo in (-1.0, 1.0):
        with pytest.raises(ValueError, match="sfo must exceed -1"):
            make_experiment(sfo=sfo)
    # the bound is (-1, 1) itself, with no margin inside it
    for sfo in (-0.999999999, 0.99999999):
        assert make_experiment(sfo=sfo, cfo=0.0,
                               grid=make_grid(cfo_max=1e-3)).sfo == sfo
    # the cost repeats every N/((N+N_g)(1+sfo)) = 0.79991 in cfo here, so
    # |cfo| >= 0.3 puts an alias on the default [-0.5, 0.5] grid
    for cfo in (0.3, -0.3, 0.35):
        with pytest.raises(ValueError, match="alias"):
            make_experiment(cfo=cfo)
    assert make_experiment(cfo=0.35, grid=make_grid(cfo_max=0.4)).cfo == 0.35
    # aliases two and three periods away count too: at -1.4 and 1.8 every
    # estimate once landed on the alias near 0.2 (MSE 2.56 at 30 dB)
    for cfo, alias in ((-1.4, "0.199821"), (1.8, "0.200179"),
                       (-2.2, "0.199731")):
        with pytest.raises(ValueError, match=f"alias {alias} "):
            make_experiment(cfo=cfo)
    assert make_experiment(cfo=1.8, grid=make_grid(cfo_max=0.15)).cfo == 1.8
    # a CFO of N subcarrier spacings turns the phase once per sample; far
    # beyond it the alias check above reads rounding noise
    for cfo in (64.0, -64.0, 1e154, -1e308):
        with pytest.raises(ValueError, match=r"cfo must lie inside \(-N, N\) "
                                             r"= \(-64, 64\)"):
            make_experiment(cfo=cfo)
    assert make_experiment(cfo=63.9, grid=make_grid(cfo_max=1e-3)).cfo == 63.9
    # period exactly 1 (cp = 0, sfo = 0): an alias on a grid end counts
    with pytest.raises(ValueError, match="alias -0.5 "):
        make_experiment(cp_len=0, sfo=0.0, cfo=0.5)
    assert make_experiment(cp_len=0, sfo=0.0, cfo=0.49).cfo == 0.49
    # (N + cp)(1 + sfo) would overflow near cp = 1.8e308 and zero the
    # period: OfdmConfig bounds N + cp first
    with pytest.raises(ValueError,
                       match=r"N \+ cp_len must be below 2\*\*1000"):
        make_experiment(cp_len=int(1.7976e308))
    # a directly built OfdmConfig checks its own fields: an
    # odd K once died mid-sweep, and K > N wrote residuals of 80 bins
    with pytest.raises(ValueError, match="n_active \\(K\\) must be even"):
        replace(make_experiment(), ofdm=OfdmConfig(64, 51, 16))
    with pytest.raises(ValueError, match="K exceeds N"):
        replace(make_experiment(), ofdm=OfdmConfig(64, 80, 16))


def test_equal_grids_and_experiments_compare_and_hash_equal():
    """Grids and experiments key the per-experiment caches by value."""
    grid, cfg = make_grid(), make_experiment()
    assert (grid, cfg) == (make_grid(), make_experiment())
    assert hash((grid, cfg)) == hash((make_grid(), make_experiment()))
    assert grid != make_grid(cfo_max=0.4)
    assert cfg != make_experiment(grid=make_grid(sfo_max=0.0))
    assert not grid.cfo_values.flags.writeable


@pytest.mark.parametrize("field, value", [
    ("cfo", float("nan")), ("cfo", float("inf")), ("sfo", float("-inf")),
    ("sfo", float("nan")),
])
def test_experiment_config_rejects_non_finite_offsets(field, value):
    with pytest.raises(ValueError, match=f"{field} must be finite"):
        make_experiment(**{field: value})


def test_experiment_config_rejects_snr_stream_key_collisions():
    with pytest.raises(ValueError, match="share the random stream key"):
        make_experiment(snr_points_db=(5.0, 10.0, 10.0004))
    # one milli-dB apart is the finest resolution that keeps streams apart
    assert make_experiment(snr_points_db=(10.0, 10.001)).snr_points_db == (
        10.0, 10.001)


def test_experiment_config_rejects_trial_counts_past_one_word():
    """A trial index enters the stream entropy as one 32-bit word."""
    with pytest.raises(ValueError, match=r"n_trials must be below 2\*\*32"):
        make_experiment(n_trials=2 ** 32)
    assert make_experiment(n_trials=2 ** 32 - 1).n_trials == 2 ** 32 - 1


def test_master_seed_must_fit_64_bits():
    """The stream keys keep a seed's low 64 bits, so -1 once shared every
    stream with 2**64 - 1, and 2**64 with 0."""
    for seed in (-1, -2 ** 64, 2 ** 64, 2 ** 64 + 5):
        with pytest.raises(ValueError,
                           match=r"master_seed must lie in \[0, 2\*\*64\)"):
            make_experiment(master_seed=seed)
    for seed in (0, 2 ** 64 - 1):
        assert make_experiment(master_seed=seed).master_seed == seed


def test_counts_and_seed_must_be_integers():
    """make_experiment once cut 2.5 trials down to 2 and ran them."""
    for field in ("n_trials", "n_taps", "master_seed"):
        with pytest.raises(ValueError, match=f"{field} must be an integer"):
            make_experiment(**{field: 2.5})
    cfg = make_experiment(n_trials=np.int64(7))
    assert type(cfg.n_trials) is int and cfg.n_trials == 7


@pytest.mark.parametrize("build, sign", [
    (lambda: make_experiment(n_taps=10 ** 5000), ""),
    (lambda: make_experiment(n_trials=10 ** 5000), ""),
    (lambda: make_experiment(master_seed=10 ** 5000), ""),
    (lambda: GridSpec(0.01, range(0, 10 ** 5000), 1e-5, range(0, 1)), ""),
    (lambda: make_experiment(n_trials=-10 ** 5000), "-"),
    (lambda: make_experiment(n_taps=-10 ** 5000), "-"),
    (lambda: make_experiment(dft_size=-10 ** 5000), "-"),
    (lambda: make_experiment(cp_len=-10 ** 5000), "-"),
    (lambda: make_experiment(n_active=10 ** 5000), ""),
], ids=["n_taps", "n_trials", "master_seed", "grid-span", "n_trials-below",
        "n_taps-below", "dft_size-below", "cp_len-below", "n_active"])
def test_ints_past_the_str_limit_get_the_checks_own_message(build, sign):
    """An int of more digits than Python converts to str (4300 by default)
    is printed by its magnitude, so its check raises its own message,
    not the interpreter's "Exceeds the limit"."""
    with pytest.raises(ValueError, match=rf"~{sign}10\*\*5000"):
        build()


def test_default_and_test_experiments_sit_far_below_the_array_budget():
    """The default experiment, and one past the largest geometry any test
    draws (N 80, K 64, 20 taps, 199 points per lattice axis), keep every
    flag-sized array under 1/64 of the budget, which rejects experiments
    no desk run should allocate: N = K = 8192 needs a 1 GiB synthesis
    basis, 2**40 taps terabytes of DFT phases. Both once built."""
    largest = make_experiment(dft_size=80, n_active=64, cp_len=0, n_taps=20,
                              grid=make_grid(0.005, 0.495, 5e-6, 4.95e-4))
    assert largest.grid.shape == (199, 199)
    for cfg in (make_experiment(), largest):
        for array, flags, size in cfg._array_bytes():
            assert size <= harness._ARRAY_BUDGET / 64, (array, flags, size)
    for overrides, array in ((dict(dft_size=8192, n_active=8192),
                              "synthesis basis"),
                             (dict(n_taps=2 ** 40), "channel DFT phases")):
        with pytest.raises(ValueError, match=f"the {array} at .* bytes, "
                                             f"more than the array budget"):
            make_experiment(**overrides)


def test_snr_points_coerced_to_float():
    cfg = make_experiment(snr_points_db=(0, 10, 20))
    assert cfg.snr_points_db == (0.0, 10.0, 20.0)
    assert all(type(s) is float for s in cfg.snr_points_db)


@pytest.mark.parametrize("snr_db, fragment", [
    (math.nan, "snr_points_db must be finite"),
    (math.inf, "snr_points_db must be finite"),
    (-math.inf, "snr_points_db must be finite"),
    (-3100.0, "-3100 dB gives the noise variance inf"),
    (1e300, "1e+300 dB gives the noise variance 0.0"),
])
def test_inspect_trial_checks_its_snr_as_a_sweep_does(snr_db, fragment):
    """A trial's SNR fails with the message its experiment would give as
    a sweep point: these once raised OverflowError, a NaN-to-integer
    error, or a Fisher error after the burst was synthesized."""
    with pytest.raises(ValueError) as as_point:
        tiny_experiment(snr_points_db=(snr_db,))
    assert fragment in str(as_point.value)
    with pytest.raises(ValueError) as as_trial:
        inspect_trial(tiny_experiment(), snr_db, 0)
    assert str(as_trial.value) == str(as_point.value)


# ----------------------------------------------------------------- trials


def column_record(cols, snr_db, i):
    """Row i of a chunk's columns as a plain dict of that trial's outcome:
    None where its stage was skipped, its value dropped or its search
    failed, and whether each search failed (a NaN row)."""
    def value(column, dropped=None):
        if column is None or dropped is not None and dropped[i]:
            return None
        return float(column[i])

    def estimate(found):
        if found is None or failed(found):
            return None
        return SimpleNamespace(cfo=float(found.cfo[i]),
                               sfo=float(found.sfo[i]),
                               cost=float(found.cost[i]))

    def failed(found):
        return found is not None and bool(np.isnan(found.cfo[i]))

    bounded = cols.crb_cfo is not None
    return dict(
        trial_index=cols.indices[i], snr_db=snr_db,
        residual_n_sq=value(cols.n_sq),
        residual_e_sq=value(cols.e_sq, cols.degenerate),
        proposed=estimate(cols.proposed), nguyenle=estimate(cols.nguyenle),
        crb_cfo=value(cols.crb_cfo, cols.singular),
        crb_sfo=value(cols.crb_sfo, cols.singular),
        estimated=cols.proposed is not None, crb_evaluated=bounded,
        proposed_failed=failed(cols.proposed),
        nguyenle_failed=failed(cols.nguyenle),
        singular=bounded and bool(cols.singular[i]))


def one_trial(cfg, snr_db, t, **options):
    """Trial t run as a chunk of one, as its row's dict."""
    cols = next(burst_chunks(cfg, snr_db, (t,), **options))
    return column_record(cols, snr_db, 0)


def test_run_trial_is_bitwise_repeatable():
    cfg = tiny_experiment()
    first = one_trial(cfg, 10.0, 2)
    second = one_trial(cfg, 10.0, 2)
    assert first == second
    assert first["estimated"] and first["crb_evaluated"]


def test_trial_streams_keyed_by_snr_value():
    """Substreams hang off the SNR value itself, not its position in the
    sweep, so the same (seed, snr, trial) triple reproduces everywhere."""
    a = tiny_experiment(snr_points_db=(5.0, 15.0))
    b = tiny_experiment(snr_points_db=(15.0, 25.0))
    assert one_trial(a, 15.0, 1) == one_trial(b, 15.0, 1)


def sweep_records(monkeypatch, sweep, cfg):
    """Every row of the columns a sweep reduces, as its dict keyed by
    (snr_db, trial_index)."""
    records = {}
    real_reduce = harness._reduce

    def capture(chunks, snr_db, cfo, sfo):
        chunks = list(chunks)
        for cols in chunks:
            records.update(((snr_db, t), column_record(cols, snr_db, i))
                           for i, t in enumerate(cols.indices))
        return real_reduce(chunks, snr_db, cfo, sfo)

    with monkeypatch.context() as patch:
        patch.setattr(harness, "_reduce", capture)
        sweep(cfg)
    return records


# Out of order, and past the 3 trials of the config one_trial is given.
DIRECT_ORDER = (4, 2, 0, 3, 1)


def test_direct_trials_match_the_mse_sweep(monkeypatch):
    swept = sweep_records(monkeypatch, run_mse_sweep,
                          tiny_experiment(n_trials=5))
    cfg = tiny_experiment()
    for snr_db in cfg.snr_points_db:
        for t in DIRECT_ORDER:
            assert one_trial(cfg, snr_db, t) == swept[(snr_db, t)]


def test_direct_trials_match_the_residual_and_crb_sweeps(monkeypatch):
    big = tiny_experiment(n_trials=5)
    residuals = sweep_records(monkeypatch, run_noise_variance_sweep, big)
    bounds = sweep_records(monkeypatch, run_crb_sweep, big)
    cfg = tiny_experiment()
    for snr_db in cfg.snr_points_db:
        for t in DIRECT_ORDER:
            assert one_trial(cfg, snr_db, t, residuals_only=True) \
                == residuals[(snr_db, t)]
            direct = one_trial(cfg, snr_db, t)
            assert (direct["crb_cfo"], direct["crb_sfo"]) == (
                bounds[(snr_db, t)]["crb_cfo"], bounds[(snr_db, t)]["crb_sfo"])


def test_near_noiseless_trial_recovers_lattice_truth():
    cfg = make_experiment(cfo=0.21, sfo=0.0)
    rec = one_trial(cfg, 200.0, 3)
    truth = float(cfg.grid.cfo_values[71])
    assert (rec["proposed"].cfo, rec["proposed"].sfo) == (truth, 0.0)
    assert (rec["nguyenle"].cfo, rec["nguyenle"].sfo) == (truth, 0.0)
    assert rec["residual_n_sq"] < 1e-12


def test_frozen_trial_at_30db():
    """Seeded end-to-end trial at the default operating point."""
    rec = one_trial(make_experiment(), 30.0, 0)
    assert rec["proposed"].cfo == pytest.approx(0.21, rel=1e-15)
    assert rec["proposed"].sfo == pytest.approx(0.0002, rel=1e-15)
    assert rec["nguyenle"].cfo == pytest.approx(0.21, rel=1e-15)
    assert rec["nguyenle"].sfo == pytest.approx(8e-05, rel=1e-15)
    assert rec["residual_n_sq"] == pytest.approx(0.10127522148144345,
                                                 rel=1e-12)
    assert rec["residual_e_sq"] == pytest.approx(0.5305751026935671,
                                                 rel=1e-12)
    assert rec["crb_cfo"] == pytest.approx(6.153606862798734e-08, rel=1e-12)
    assert rec["crb_sfo"] == pytest.approx(3.215184071244001e-10, rel=1e-12)


def test_proposed_tracks_truth_over_trials():
    cfg = make_experiment()
    records = [one_trial(cfg, 30.0, t) for t in range(50)]
    for rec in records:
        assert rec["proposed"].cfo == pytest.approx(0.21, rel=1e-15)
    mean_sfo_err = np.mean([abs(r["proposed"].sfo - cfg.sfo)
                            for r in records])
    assert mean_sfo_err <= 1e-4


def test_skipped_stages_leave_none_fields():
    rec = one_trial(tiny_experiment(), 10.0, 0, residuals_only=True)
    assert rec["proposed"] is None and rec["nguyenle"] is None
    assert rec["crb_cfo"] is None and rec["crb_sfo"] is None
    assert not rec["estimated"] and not rec["crb_evaluated"]
    assert rec["residual_n_sq"] > 0.0
    assert rec["residual_e_sq"] is not None
    assert not rec["proposed_failed"]
    assert not rec["nguyenle_failed"]
    assert not rec["singular"]


def poison_first_r0_bin(monkeypatch, value, trial=None):
    """Make every drawn observation, or only trial ``trial``'s, carry
    ``value`` in its first R0 bin."""
    real_observe = harness._observe

    def poisoned(cfg, snr_db, draws, burst):
        spectra = real_observe(cfg, snr_db, draws, burst)
        indices, *_ = draws
        rows = [i for i, t in enumerate(indices)
                if trial is None or t == trial]
        spectra[rows, 0, 0] = value
        return spectra

    monkeypatch.setattr(harness, "_observe", poisoned)


def test_degenerate_observation_marks_ratio_route_failed(monkeypatch):
    poison_first_r0_bin(monkeypatch, 0.0)
    cfg = tiny_experiment()
    cols = next(burst_chunks(cfg, 10.0, (0,)))
    rec = column_record(cols, 10.0, 0)
    assert rec["residual_e_sq"] is None and cols.degenerate[0]
    assert rec["nguyenle"] is None and rec["nguyenle_failed"]
    assert inspect_trial(cfg, 10.0, 0).failures == {
        "nguyenle": "degenerate observation (subcarriers [-26])"}
    assert rec["proposed"] is not None and not rec["proposed_failed"]
    assert rec["crb_cfo"] is not None

    row = harness._reduce([cols], 10.0, cfg.cfo, cfg.sfo)
    assert row.degenerate_observations == 1
    assert row.fail_nguyenle == 1
    assert row.fail_proposed == 0
    assert row.mse_cfo_nguyenle is None
    assert row.mse_sfo_nguyenle is None
    assert row.mean_residual_e_sq is None
    assert row.var_e_db is None


def test_non_finite_surface_counts_as_failure(monkeypatch):
    poison_first_r0_bin(monkeypatch, np.nan)
    cfg = tiny_experiment()
    with np.errstate(invalid="ignore"):
        sweep = run_mse_sweep(cfg)
        rec = one_trial(cfg, 10.0, 0)
        reasons = inspect_trial(cfg, 10.0, 0).failures
    assert rec["proposed_failed"] and rec["nguyenle_failed"]
    assert reasons == dict.fromkeys(("proposed", "nguyenle"),
                                    "non-finite cost surface")
    for row in sweep.rows:
        assert row.fail_proposed == cfg.n_trials
        assert row.fail_nguyenle == cfg.n_trials
        assert row.mse_cfo_proposed is None and row.mse_cfo_nguyenle is None
        assert row.crb_cfo is not None


CHUNK = harness._CHUNK


# One trial, a single chunk filled just past half, and both sides of the
# first and second chunk edges.
@pytest.mark.parametrize("n_trials", [1, CHUNK // 2 + 1, CHUNK - 1, CHUNK,
                                      CHUNK + 1, 2 * CHUNK + 1])
def test_sweeps_equal_one_trial_calls_across_chunk_edges(monkeypatch,
                                                         n_trials):
    """Every row of the fig2, fig1 and crb sweeps, however the trials
    fall into chunks, is the row of that trial run as a chunk of one."""
    cfg = tiny_experiment(n_trials=n_trials)
    swept = sweep_records(monkeypatch, run_mse_sweep, cfg)
    residuals = sweep_records(monkeypatch, run_noise_variance_sweep, cfg)
    bounds = sweep_records(monkeypatch, run_crb_sweep, cfg)
    for snr_db in cfg.snr_points_db:
        for t in range(n_trials):
            key = (snr_db, t)
            direct = one_trial(cfg, snr_db, t)
            assert direct == swept[key]
            assert one_trial(cfg, snr_db, t, residuals_only=True) \
                == residuals[key]
            scenario = column_record(harness._Columns((t,)), snr_db, 0)
            assert bounds[key] == dict(
                scenario, crb_cfo=direct["crb_cfo"],
                crb_sfo=direct["crb_sfo"], crb_evaluated=True,
                singular=direct["singular"])
    assert sorted(swept) == sorted(residuals) == sorted(bounds)
    assert len(swept) == n_trials * len(cfg.snr_points_db)


# Both sides of the first edge of the crb sweep's chunks, which take
# twice a burst chunk's rows: draws of the scenario alone.
@pytest.mark.parametrize("n_trials", [2 * CHUNK - 1, 2 * CHUNK,
                                      2 * CHUNK + 1])
def test_crb_rows_equal_one_trial_rows_across_scenario_chunk_edges(
        monkeypatch, n_trials):
    """Every row of the crb sweep is the row of that trial's scenario
    bounded as a chunk of one."""
    cfg = tiny_experiment(n_trials=n_trials)
    bounds = sweep_records(monkeypatch, run_crb_sweep, cfg)
    for snr_db in cfg.snr_points_db:
        for t in range(n_trials):
            ((_, x, taps, _),) = harness._chunks(
                cfg, (harness.snr_stream_key(snr_db),), (t,),
                harness._SCENARIO_STREAMS)[0]
            burst = noiseless_burst(cfg.ofdm, x, taps, cfg.sfo)
            direct = harness._Columns(
                (t,), **harness._crb_fields(cfg, snr_db, burst))
            assert bounds[snr_db, t] == column_record(direct, snr_db, 0)
    assert len(bounds) == n_trials * len(cfg.snr_points_db)


# One chunk, both sides of a crb chunk edge, and past the first block of
# _GROUP_ROWS trials, whose streams are derived together.
@pytest.mark.parametrize("n_trials", [1, 128, 129, 1100])
def test_chunk_rows_follow_what_a_row_holds(monkeypatch, n_trials):
    """A crb point of T trials bounds its scenarios in ceil(T / 128)
    chunks, and a fig1 point synthesizes its bursts in ceil(T / 64)."""
    calls = []

    def counted(fn, n_rows):
        def wrapper(cfg, snr_db, rows, *args, **options):
            calls.append((fn.__name__, snr_db, n_rows(rows)))
            return fn(cfg, snr_db, rows, *args, **options)
        return wrapper

    monkeypatch.setattr(harness, "_crb_fields", counted(
        harness._crb_fields, lambda burst: len(burst[0])))
    monkeypatch.setattr(harness, "_burst_columns", counted(
        harness._burst_columns, lambda draws: len(draws[0])))
    cfg = tiny_experiment(n_trials=n_trials)
    run_crb_sweep(cfg)
    run_noise_variance_sweep(cfg)
    for name, rows in (("_crb_fields", 128), ("_burst_columns", 64)):
        for snr_db in cfg.snr_points_db:
            sizes = [n for fn, s, n in calls if (fn, s) == (name, snr_db)]
            assert len(sizes) == math.ceil(n_trials / rows)
            assert sum(sizes) == n_trials


@pytest.mark.parametrize("value, failed", [
    (0.0, {"nguyenle": "degenerate observation (subcarriers [-26])"}),
    (np.nan, {"proposed": "non-finite cost surface",
              "nguyenle": "non-finite cost surface"}),
])
def test_poisoned_trial_fails_alone_in_its_chunk(monkeypatch, value, failed):
    cfg = tiny_experiment(n_trials=CHUNK + 1)
    poisoned = CHUNK // 2

    def rows():
        return [column_record(cols, 10.0, i)
                for cols in burst_chunks(cfg, 10.0, range(cfg.n_trials))
                for i in range(len(cols.indices))]

    clean = rows()
    poison_first_r0_bin(monkeypatch, value, trial=poisoned)
    with np.errstate(invalid="ignore"):
        dirty = rows()
        reasons = inspect_trial(cfg, 10.0, poisoned).failures
    assert [r["trial_index"] for r in dirty] == list(range(cfg.n_trials))
    for rec, ref in zip(dirty, clean):
        if rec["trial_index"] != poisoned:
            assert rec == ref
    rec, ref = dirty[poisoned], clean[poisoned]
    for name in ("proposed", "nguyenle"):
        assert rec[f"{name}_failed"] == (name in failed)
    assert reasons == failed
    assert rec["nguyenle"] is None
    assert (rec["proposed"] is None) == ("proposed" in failed)
    assert rec["residual_e_sq"] is None or np.isnan(rec["residual_e_sq"])
    # the bound reads the draws, not the observation
    assert (rec["crb_cfo"], rec["crb_sfo"]) == (ref["crb_cfo"],
                                                ref["crb_sfo"])


def test_failure_kinds_fall_out_of_the_masks(monkeypatch):
    """One chunk with a degenerate row (a 0 bin) and a non-finite one (a
    NaN bin): the NaN rows and the degenerate mask alone split the
    Nguyen-Le failures by kind, and the pair fit fails only on NaN."""
    cfg = tiny_experiment(n_trials=8)
    poison_first_r0_bin(monkeypatch, 0.0, trial=2)
    poison_first_r0_bin(monkeypatch, np.nan, trial=5)
    with np.errstate(invalid="ignore"):
        (cols,) = burst_chunks(cfg, 10.0, range(cfg.n_trials))
    row = harness._reduce([cols], 10.0, cfg.cfo, cfg.sfo)
    only = [[t == trial for t in range(cfg.n_trials)] for trial in (2, 5)]
    non_finite = np.isnan(cols.nguyenle.cfo) & ~cols.degenerate
    assert cols.degenerate.tolist() == only[0]
    assert non_finite.tolist() == only[1]
    assert np.isnan(cols.proposed.cfo).tolist() == only[1]
    assert row.degenerate_observations == 1
    assert row.fail_nguyenle - row.degenerate_observations \
        == non_finite.sum() == 1
    assert row.fail_proposed == 1


# ---------------------------------------------------------------- reducer


def reference_aggregate(trials, snr_db, cfo, sfo):
    """The trial-by-trial reduction the column reducer must equal: every
    mean a sequential sum in ascending trial order, every squared error
    Python's ``(v - truth) ** 2``. ``trials`` are the outcome rows of
    :func:`outcomes_to_chunks`, in trial order."""
    def mean(values):
        if not values:
            return None
        acc = 0.0
        for v in values:
            acc += v
        return acc / len(values)

    observed = [row for (ran, *_), row in trials if ran]
    e_values = [e for _, e, *_ in observed if e is not None]
    estimated = [row for (_, ran, _), row in trials if ran]
    bounded = [crb for (*_, ran), (*_, crb) in trials if ran]

    def mse(at, truth, param):
        return mean([(found[param] - truth) ** 2
                     for found in (row[at] for row in estimated)
                     if found is not None])

    return harness.SweepRow(
        snr_db=snr_db, n_trials=len(trials),
        mean_residual_n_sq=mean([n for n, *_ in observed]),
        mean_residual_e_sq=mean(e_values),
        mse_cfo_proposed=mse(2, cfo, 0), mse_cfo_nguyenle=mse(3, cfo, 0),
        mse_sfo_proposed=mse(2, sfo, 1), mse_sfo_nguyenle=mse(3, sfo, 1),
        crb_cfo=mean([c[0] for c in bounded if c is not None]),
        crb_sfo=mean([c[1] for c in bounded if c is not None]),
        fail_proposed=sum(row[2] is None for row in estimated),
        fail_nguyenle=sum(row[3] is None for row in estimated),
        crb_excluded=sum(c is None for c in bounded),
        degenerate_observations=len(observed) - len(e_values))


def bits(row):
    """A sweep row with every float as its exact hex form."""
    return tuple(v.hex() if isinstance(v, float) else v for v in astuple(row))


def outcomes_to_chunks(chunks):
    """The columns of hand-made trial outcomes, and each trial's stages
    and outcome row in trial order.

    ``chunks`` is a list of ((observed, estimated, bounded), rows); a row
    is (n_sq, e_sq, proposed, nguyenle, crb) where e_sq None is a
    degenerate observation, an estimate None a failed search and crb
    None a singular draw. A failed search is a NaN row of its estimator's
    columns, and any other value the columns must ignore is inf there.
    """
    columns, trials, start = [], [], 0
    for stages, rows in chunks:
        observed, estimated, bounded = stages
        indices = tuple(range(start, start + len(rows)))
        start += len(rows)
        n_sq, e_sq, proposed, nguyenle, crb = zip(*rows)

        def column(values, *, at=None):
            return np.array([np.inf if v is None else
                             v if at is None else v[at] for v in values])

        def estimates(found):
            return Estimates(*(
                np.array([np.nan if f is None else f[k] for f in found])
                for k in range(3)))

        fields = {}
        if observed:
            fields.update(n_sq=column(n_sq), e_sq=column(e_sq),
                          degenerate=np.array([e is None for e in e_sq]))
        if estimated:
            fields.update(proposed=estimates(proposed),
                          nguyenle=estimates(nguyenle))
        if bounded:
            fields.update(crb_cfo=column(crb, at=0),
                          crb_sfo=column(crb, at=1),
                          singular=np.array([c is None for c in crb]))
        columns.append(harness._Columns(indices, **fields))
        trials += [(stages, row) for row in rows]
    return columns, trials


def reduced(chunks, cfo, sfo):
    """The column reducer's row over hand-made outcomes at 10 dB."""
    return harness._reduce(iter(outcomes_to_chunks(chunks)[0]), 10.0, cfo,
                           sfo)


ALL_STAGES = (True, True, True)


def test_aggregate_single_record_identity():
    row = reduced([(ALL_STAGES, [(2.0, 8.0, (0.25, 2e-4, 0.0),
                                  (0.3, -1e-4, 0.0), (1e-7, 1e-9))])],
                  0.2, 1e-4)
    assert row.snr_db == 10.0
    assert row.n_trials == 1
    assert row.mean_residual_n_sq == 2.0
    assert row.mean_residual_e_sq == 8.0
    assert row.mse_cfo_proposed == (0.25 - 0.2) ** 2
    assert row.mse_sfo_proposed == (2e-4 - 1e-4) ** 2
    assert row.mse_cfo_nguyenle == (0.3 - 0.2) ** 2
    assert row.mse_sfo_nguyenle == (-1e-4 - 1e-4) ** 2
    assert row.crb_cfo == 1e-7 and row.crb_sfo == 1e-9
    assert row.fail_proposed == 0 and row.fail_nguyenle == 0
    assert row.crb_excluded == 0 and row.degenerate_observations == 0


def test_aggregate_two_record_means():
    row = reduced([((True, True, False),
                    [(1.0, 2.0, (0.3, 0.0, 0.0), None, None),
                     (3.0, 6.0, (0.1, 0.0, 0.0), None, None)])], 0.2, 0.0)
    assert row.mean_residual_n_sq == 2.0
    assert row.mean_residual_e_sq == 4.0
    expected = ((0.3 - 0.2) ** 2 + (0.1 - 0.2) ** 2) / 2
    assert row.mse_cfo_proposed == expected


def test_aggregate_failure_accounting():
    row = reduced([
        (ALL_STAGES, [(1.0, None, (0.2, 0.0, 0.0), None, None),
                      (1.0, 4.0, (0.3, 0.0, 0.0), (0.25, 0.0, 0.0),
                       (2e-7, 2e-9))]),
        ((True, False, False), [(1.0, 4.0, None, None, None)]),
    ], 0.2, 0.0)
    assert row.n_trials == 3
    assert row.fail_nguyenle == 1
    # the residual-only trial never ran the estimators, so it is not a
    # failure even though its estimates are empty
    assert row.fail_proposed == 0
    assert row.degenerate_observations == 1
    assert row.crb_excluded == 1
    assert row.mse_cfo_nguyenle == (0.25 - 0.2) ** 2
    assert row.crb_cfo == 2e-7
    assert row.mean_residual_e_sq == 4.0


TRUTH = (0.212, 0.000112)
POSITIVE = st.floats(1e-12, 1e3)
ESTIMATES = st.tuples(
    st.one_of(st.floats(-0.5, 0.5), st.sampled_from([0.212, 0.21, 0.0])),
    st.one_of(st.floats(-5e-4, 5e-4), st.sampled_from([0.000112, 0.0])),
    POSITIVE)
OUTCOMES = st.tuples(POSITIVE, st.none() | POSITIVE, st.none() | ESTIMATES,
                     st.none() | ESTIMATES,
                     st.none() | st.tuples(POSITIVE, POSITIVE))
CHUNKS = st.lists(st.tuples(st.tuples(st.booleans(), st.booleans(),
                                      st.booleans()),
                            st.lists(OUTCOMES, min_size=1, max_size=10)),
                  min_size=1, max_size=4)

# Estimates whose error against TRUTH squares differently under Python's
# ``(v - truth) ** 2`` (libm pow) and numpy's ``x ** 2`` (x * x) with
# glibc, found by a scan of random doubles.
POW_CFOS = (0.061530290928601516, -0.1354087858528611, 0.4694390808572304)
POW_SFOS = (-0.00036779054716807734, -8.800900511234642e-05,
            0.00045154714754491417)


@settings(max_examples=60, deadline=None, database=None)
@given(chunks=CHUNKS)
@example(chunks=[(ALL_STAGES, [(1.0, 2.0, (POW_CFOS[0], POW_SFOS[0], 1.0),
                                (POW_CFOS[1], POW_SFOS[1], 1.0),
                                (1e-7, 1e-9))])])
@example(chunks=[(ALL_STAGES, [(1.0, 2.0, (POW_CFOS[2], POW_SFOS[2], 1.0),
                                None, (1e-7, 1e-9))])])
@example(chunks=[(ALL_STAGES, [(0.1, 0.1, (0.1, 0.1, 0.1), (0.1, 0.1, 0.1),
                                (0.1, 0.1))] * 16)])
@example(chunks=[(ALL_STAGES, [(1.0, None, None, None, None)] * 3),
                 ((False, True, False), [(1.0, None, None, None, None)]),
                 ((True, False, True), [(2.0, 3.0, None, None, (1.0, 2.0))])])
def test_column_reducer_equals_reference_aggregate(chunks):
    """The sweeps' reducer over trial-major columns gives the
    trial-by-trial reduction of the same outcomes, bit for bit:
    degenerate, failed, singular and all-failed rows, and stages that
    ran on only some trials."""
    columns, trials = outcomes_to_chunks(chunks)
    assert bits(harness._reduce(iter(columns), 10.0, *TRUTH)) \
        == bits(reference_aggregate(trials, 10.0, *TRUTH))


# ----------------------------------------------------------------- sweeps


def test_mse_sweep_matches_manual_aggregation():
    cfg = tiny_experiment()
    sweep = run_mse_sweep(cfg)
    assert sweep.config is cfg
    assert len(sweep.rows) == 2
    for row, snr_db in zip(sweep.rows, cfg.snr_points_db):
        trials = (next(burst_chunks(cfg, snr_db, (t,)))
                  for t in range(cfg.n_trials))
        assert harness._reduce(trials, snr_db, cfg.cfo, cfg.sfo) == row


# (trials, row budget): one group over points of both signs; groups of
# two points and one, crossing a chunk edge; one point per group, its
# trials above the budget.
@pytest.mark.parametrize("n_trials, group_rows", [
    (3, harness._GROUP_ROWS), (CHUNK + 6, 2 * CHUNK + 12), (5, 4)])
def test_grouped_sweep_rows_equal_per_point_chunks(monkeypatch, n_trials,
                                                   group_rows):
    """Points that share one derivation and pick pass get the rows they
    get alone: the per-point reduction of
    :func:`sweep_helpers.burst_chunks`."""
    monkeypatch.setattr(harness, "_GROUP_ROWS", group_rows)
    cfg = tiny_experiment(n_trials=n_trials, snr_points_db=(-5.0, 0.0, 5.0))
    mse, residual, bounds = (run_mse_sweep(cfg), run_noise_variance_sweep(cfg),
                             run_crb_sweep(cfg))
    for i, snr_db in enumerate(cfg.snr_points_db):
        for sweep, options in ((mse, {}),
                               (residual, dict(residuals_only=True))):
            assert sweep.rows[i] == harness._reduce(
                burst_chunks(cfg, snr_db, range(n_trials), **options),
                snr_db, cfg.cfo, cfg.sfo)
        assert (bounds.rows[i].crb_cfo, bounds.rows[i].crb_sfo,
                bounds.rows[i].crb_excluded) == (
            mse.rows[i].crb_cfo, mse.rows[i].crb_sfo,
            mse.rows[i].crb_excluded)


# Blocks of one row, of a row count that divides no chunk, and of one
# burst chunk.
@pytest.mark.parametrize("group_rows", [1, 5, CHUNK])
def test_blocks_of_derived_streams_move_no_row(monkeypatch, group_rows):
    """A point of more trials than ``_GROUP_ROWS`` derives its streams
    block by block, and every row of every sweep, trial index included,
    is the row it has when the whole point is one block."""
    cfg = tiny_experiment(n_trials=CHUNK + 7)
    sweeps = (run_mse_sweep, run_noise_variance_sweep, run_crb_sweep)
    whole = [sweep_records(monkeypatch, sweep, cfg) for sweep in sweeps]
    monkeypatch.setattr(harness, "_GROUP_ROWS", group_rows)
    assert [sweep_records(monkeypatch, sweep, cfg)
            for sweep in sweeps] == whole


def test_fig2_sweep_derives_its_bursts_streams_in_one_pass(monkeypatch):
    """A default-size fig2 sweep of 6 x 60 trials derives the streams of
    all its bursts with one mixing pass and one pick pass, and derives
    nothing else."""
    calls = {"derive": [], "picks": []}

    def counted(name, fn):
        def wrapper(*args):
            calls[name].append(args)
            return fn(*args)
        return wrapper

    monkeypatch.setattr(harness, "_derive_tables",
                        counted("derive", harness._derive_tables))
    monkeypatch.setattr(harness, "_qpsk_picks",
                        counted("picks", harness._qpsk_picks))
    cfg = make_experiment(snr_points_db=(5.0, 10.0, 15.0, 20.0, 25.0, 30.0),
                          n_trials=60, master_seed=4242)
    assert [row.n_trials for row in run_mse_sweep(cfg).rows] == [60] * 6
    assert [tuple(args[1]) for args in calls["derive"]] == [
        (5000, 10000, 15000, 20000, 25000, 30000)]
    assert [len(args[0]) for args in calls["picks"]] == [360]


def test_concurrent_sweeps_equal_their_serial_runs(monkeypatch):
    """Two fig2 sweeps on different seeds, run at once in two threads,
    each get their serial run's rows bit for bit. Each thread stops at its
    first fill, its PCG64 aimed at its first row, and the first resumes
    only once the second has aimed its own: a PCG64 that two draws shared
    would fill the first sweep's row from the second's state."""
    cfgs = [tiny_experiment(master_seed=seed) for seed in (11, 12)]
    serial = [[bits(row) for row in run_mse_sweep(cfg).rows] for cfg in cfgs]
    threaded = [None, None]
    paused = [threading.Event(), threading.Event()]
    resume = [threading.Event(), threading.Event()]

    def pausing(fill):
        def pausing_fill(*args):
            i = threads.index(threading.current_thread())
            if not paused[i].is_set():
                paused[i].set()
                resume[i].wait(timeout=60)
            fill(*args)
        return pausing_fill

    def sweep(i):
        threaded[i] = [bits(row) for row in run_mse_sweep(cfgs[i]).rows]

    for name in ("_RAW_FILL", "_NORMALS_FILL"):
        monkeypatch.setattr(ofdm_model, name,
                            pausing(getattr(ofdm_model, name)))
    threads = [threading.Thread(target=sweep, args=(i,)) for i in (0, 1)]
    for thread, stopped in zip(threads, paused):
        thread.start()
        assert stopped.wait(timeout=60)
    for thread, go in zip(threads, resume):
        go.set()
        thread.join(timeout=120)
    assert not any(thread.is_alive() for thread in threads)
    assert threaded == serial


def test_noise_variance_sweep_rows():
    cfg = tiny_experiment(n_trials=5)
    sweep = run_noise_variance_sweep(cfg)
    assert [row.snr_db for row in sweep.rows] == [10.0, 20.0]
    for row in sweep.rows:
        assert row.n_trials == 5
        assert row.mse_cfo_proposed is None
        assert row.crb_cfo is None
        assert row.fail_proposed == 0 and row.fail_nguyenle == 0
        assert row.var_n_db == pytest.approx(
            10.0 * np.log10(row.mean_residual_n_sq), rel=1e-15)
        assert row.mean_residual_e_sq is not None
    assert sweep.rows[0].mean_residual_n_sq > sweep.rows[1].mean_residual_n_sq


def test_residual_noise_scaling_and_floor():
    """Mean pair-residual power tracks the noise variance until the
    deterministic inter-carrier leakage floor takes over."""
    cfg = OfdmConfig(64, 52, 16)
    x = QPSK_ALPHABET[derive_rng(21, "training").integers(0, 4, 52)]
    taps = channel_taps(derive_rng(21, "channel").standard_normal((2, 5)))

    def residual_powers(noise_var, normals, n=1):
        """Pair-residual power of n bursts of the one scenario."""
        xs = np.tile(x, (n, 1))
        burst = noiseless_burst(cfg, xs, np.tile(taps, (n, 1)), 0.000112)
        spectra = demodulate_rows(synthesize_rows(cfg, burst, 0.212, noise_var,
                                                  normals), cfg)
        v = pair_residual_rows(spectra[:, 0], spectra[:, 1], 0.212, 0.000112,
                               cfg)
        return [float(np.sum(np.abs(row) ** 2)) for row in v]

    def mean_power(snr_db, seed, n=200):
        # Burst t reads both symbols' (2, N) normals in turn from one stream.
        normals = derive_rng(seed, "noise").standard_normal((n, 2, 2, 64))
        return sum(residual_powers(noise_variance_from_snr(cfg, snr_db),
                                   normals, n)) / n

    (floor,) = residual_powers(0.0, None)
    assert floor > 0.0
    assert mean_power(90.0, 5) == pytest.approx(floor, rel=0.01)
    ratio = (mean_power(0.0, 6) - floor) / (mean_power(10.0, 7) - floor)
    assert ratio == pytest.approx(10.0, rel=0.05)
