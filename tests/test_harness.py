"""Harness tests: seeded trial reproducibility, the column reducer,
sweep assembly, failure accounting, and the CRB backend plumbing."""

from dataclasses import astuple, replace

import numpy as np
import numpy.testing as npt
import pytest
from hypothesis import example, given, settings, strategies as st

from ofdm_sync_lab import (
    QPSK_ALPHABET,
    EstimationResult,
    OfdmConfig,
    channel_taps,
    demodulate_rows,
    derive_rng,
    inspect_trial,
    make_config,
    make_experiment,
    make_grid,
    noise_variance_from_snr,
    pair_residual_rows,
    run_crb_sweep,
    run_mse_sweep,
    run_noise_variance_sweep,
    synthesize_rows,
)
from ofdm_sync_lab import harness
from ofdm_sync_lab.estimators import _Estimates

# 11 x 11 lattice holding the operating point; keeps sweep tests fast.
COARSE_GRID = make_grid(0.1, 0.5, 1e-4, 5e-4)


def tiny_experiment(**overrides):
    defaults = dict(n_trials=3, snr_points_db=(10.0, 20.0), grid=COARSE_GRID)
    defaults.update(overrides)
    return make_experiment(**defaults)


# ------------------------------------------------------------ experiment


def test_make_experiment_defaults():
    cfg = make_experiment()
    assert cfg.ofdm == make_config(64, 52, 16)
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
    with pytest.raises(ValueError, match="n_trials"):
        make_experiment(n_trials=0)
    with pytest.raises(ValueError, match="n_taps"):
        make_experiment(n_taps=0)
    with pytest.raises(ValueError, match="sfo must exceed -1"):
        make_experiment(sfo=-1.0)
    # the numeric Fisher oracle steps the sfo by SFO_STEP_DEFAULT
    for sfo in (-0.999999999, 0.99999999):
        with pytest.raises(ValueError, match="numeric Fisher oracle's step"):
            make_experiment(sfo=sfo)
    assert make_experiment(sfo=-0.99999998, cfo=0.0,
                           grid=make_grid(cfo_max=1e-3)).sfo == -0.99999998
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
    # period exactly 1 (cp = 0, sfo = 0): an alias on a grid end counts
    with pytest.raises(ValueError, match="alias -0.5 "):
        make_experiment(cp_len=0, sfo=0.0, cfo=0.5)
    assert make_experiment(cp_len=0, sfo=0.0, cfo=0.49).cfo == 0.49
    # one symbol: the estimators and the CRB need the repeated pair
    with pytest.raises(ValueError, match="n_symbols must be 2, got 1"):
        replace(make_experiment(), ofdm=make_config(64, 52, 16, n_symbols=1))
    # a directly built OfdmConfig is checked as make_config checks it: an
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


def test_snr_points_coerced_to_float():
    cfg = make_experiment(snr_points_db=(0, 10, 20))
    assert cfg.snr_points_db == (0.0, 10.0, 20.0)
    assert all(type(s) is float for s in cfg.snr_points_db)


# ----------------------------------------------------------------- trials


def column_record(cols, snr_db, i):
    """Row i of a chunk's columns as a plain dict of that trial's outcome:
    None where its stage was skipped, its value dropped or its search
    failed, and each failed search's reason."""
    def value(column, dropped=None):
        if column is None or dropped is not None and dropped[i]:
            return None
        return float(column[i])

    def estimate(found):
        if found is None or i in found.failures:
            return None
        return EstimationResult(cfo=float(found.cfo[i]),
                                sfo=float(found.sfo[i]),
                                cost=float(found.cost[i]),
                                method=found.method)

    def failure(found):
        return None if found is None else found.failures.get(i)

    bounded = cols.crb_cfo is not None
    return dict(
        trial_index=cols.indices[i], snr_db=snr_db,
        residual_n_sq=value(cols.n_sq),
        residual_e_sq=value(cols.e_sq, cols.degenerate),
        proposed=estimate(cols.proposed), nguyenle=estimate(cols.nguyenle),
        crb_cfo=value(cols.crb_cfo, cols.singular),
        crb_sfo=value(cols.crb_sfo, cols.singular),
        estimated=cols.proposed is not None, crb_evaluated=bounded,
        proposed_failure=failure(cols.proposed),
        nguyenle_failure=failure(cols.nguyenle),
        singular=bounded and bool(cols.singular[i]))


def one_trial(cfg, snr_db, t, **options):
    """Trial t run as a chunk of one, as its row's dict."""
    cols = next(harness._burst_chunks(cfg, snr_db, (t,), **options))
    return column_record(cols, snr_db, 0)


def test_run_trial_is_bitwise_repeatable():
    cfg = tiny_experiment()
    first = one_trial(cfg, 10.0, 2)
    second = one_trial(cfg, 10.0, 2)
    assert first == second
    assert first["estimated"] and first["crb_evaluated"]
    assert first["proposed"].method == "proposed"
    assert first["nguyenle"].method == "nguyen_le"


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
            assert one_trial(cfg, snr_db, t, with_estimates=False,
                             with_crb=False) == residuals[(snr_db, t)]
            direct = one_trial(cfg, snr_db, t, with_estimates=False)
            assert (direct["crb_cfo"], direct["crb_sfo"]) == (
                bounds[(snr_db, t)]["crb_cfo"], bounds[(snr_db, t)]["crb_sfo"])


def test_near_noiseless_trial_recovers_lattice_truth():
    cfg = make_experiment(cfo=0.21, sfo=0.0)
    rec = one_trial(cfg, 200.0, 3, with_crb=False)
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
    records = [one_trial(cfg, 30.0, t, with_crb=False) for t in range(50)]
    for rec in records:
        assert rec["proposed"].cfo == pytest.approx(0.21, rel=1e-15)
    mean_sfo_err = np.mean([abs(r["proposed"].sfo - cfg.sfo)
                            for r in records])
    assert mean_sfo_err <= 1e-4


def test_skipped_stages_leave_none_fields():
    rec = one_trial(tiny_experiment(), 10.0, 0, with_estimates=False,
                    with_crb=False)
    assert rec["proposed"] is None and rec["nguyenle"] is None
    assert rec["crb_cfo"] is None and rec["crb_sfo"] is None
    assert not rec["estimated"] and not rec["crb_evaluated"]
    assert rec["residual_n_sq"] > 0.0
    assert rec["residual_e_sq"] is not None
    assert rec["proposed_failure"] is None
    assert rec["nguyenle_failure"] is None
    assert not rec["singular"]


def poison_first_r0_bin(monkeypatch, value, trial=None):
    """Make every drawn observation, or only trial ``trial``'s, carry
    ``value`` in its first R0 bin."""
    real_observe = harness._observe

    def poisoned(cfg, snr_db, draws, burst):
        spectra = real_observe(cfg, snr_db, draws, burst)
        rows = [i for i, t in enumerate(draws.indices)
                if trial is None or t == trial]
        spectra[rows, 0, 0] = value
        return spectra

    monkeypatch.setattr(harness, "_observe", poisoned)


def test_degenerate_observation_marks_ratio_route_failed(monkeypatch):
    poison_first_r0_bin(monkeypatch, 0.0)
    cfg = tiny_experiment()
    cols = next(harness._burst_chunks(cfg, 10.0, (0,)))
    rec = column_record(cols, 10.0, 0)
    assert rec["residual_e_sq"] is None
    assert rec["nguyenle"] is None
    assert rec["nguyenle_failure"] == \
        "degenerate observation (subcarriers [-26])"
    assert rec["proposed"] is not None and rec["proposed_failure"] is None
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
    assert rec["proposed_failure"] == rec["nguyenle_failure"] == \
        "non-finite cost surface"
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
            assert one_trial(cfg, snr_db, t) == swept[key]
            assert one_trial(cfg, snr_db, t, with_estimates=False,
                             with_crb=False) == residuals[key]
            direct = one_trial(cfg, snr_db, t, with_estimates=False)
            scenario = column_record(harness._Columns((t,)), snr_db, 0)
            assert bounds[key] == dict(
                scenario, crb_cfo=direct["crb_cfo"],
                crb_sfo=direct["crb_sfo"], crb_evaluated=True,
                singular=direct["singular"])
    assert sorted(swept) == sorted(residuals) == sorted(bounds)
    assert len(swept) == n_trials * len(cfg.snr_points_db)


@pytest.mark.parametrize("value, failed", [
    (0.0, {"nguyenle_failure":
           "degenerate observation (subcarriers [-26])"}),
    (np.nan, {"proposed_failure": "non-finite cost surface",
              "nguyenle_failure": "non-finite cost surface"}),
])
def test_poisoned_trial_fails_alone_in_its_chunk(monkeypatch, value, failed):
    cfg = tiny_experiment(n_trials=CHUNK + 1)
    poisoned = CHUNK // 2

    def rows():
        return [column_record(cols, 10.0, i)
                for cols in harness._burst_chunks(cfg, 10.0,
                                                  range(cfg.n_trials))
                for i in range(len(cols.indices))]

    clean = rows()
    poison_first_r0_bin(monkeypatch, value, trial=poisoned)
    with np.errstate(invalid="ignore"):
        dirty = rows()
    assert [r["trial_index"] for r in dirty] == list(range(cfg.n_trials))
    for rec, ref in zip(dirty, clean):
        if rec["trial_index"] != poisoned:
            assert rec == ref
    rec, ref = dirty[poisoned], clean[poisoned]
    for field in ("proposed_failure", "nguyenle_failure"):
        assert rec[field] == failed.get(field)
    assert rec["nguyenle"] is None
    assert (rec["proposed"] is None) == ("proposed_failure" in failed)
    assert rec["residual_e_sq"] is None or np.isnan(rec["residual_e_sq"])
    # the bound reads the draws, not the observation
    assert (rec["crb_cfo"], rec["crb_sfo"]) == (ref["crb_cfo"],
                                                ref["crb_sfo"])


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
    None a singular draw. A value the columns must ignore is inf there.
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

        def estimates(found, method):
            return _Estimates(method, *(column(found, at=k)
                                        for k in range(3)),
                              {t: harness._NON_FINITE
                               for t, f in enumerate(found) if f is None})

        fields = {}
        if observed:
            fields.update(n_sq=column(n_sq), e_sq=column(e_sq),
                          degenerate=np.array([e is None for e in e_sq]))
        if estimated:
            fields.update(proposed=estimates(proposed, "proposed"),
                          nguyenle=estimates(nguyenle, "nguyen_le"))
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
    assert sweep.crb_backend == "closed_form"
    assert sweep.crb_discrepancy is None
    assert len(sweep.rows) == 2
    for row, snr_db in zip(sweep.rows, cfg.snr_points_db):
        trials = (next(harness._burst_chunks(cfg, snr_db, (t,)))
                  for t in range(cfg.n_trials))
        assert harness._reduce(trials, snr_db, cfg.cfo, cfg.sfo) == row


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
    cfg = make_config(64, 52, 16)
    x = QPSK_ALPHABET[derive_rng(21, "training").integers(0, 4, 52)]
    taps = channel_taps(derive_rng(21, "channel").standard_normal((2, 5)))

    def residual_powers(noise_var, normals, n=1):
        """Pair-residual power of n bursts of the one scenario."""
        xs = np.tile(x, (n, 1))
        spectra = demodulate_rows(synthesize_rows(
            cfg, (xs, xs), np.tile(taps, (n, 1)), 0.212, 0.000112,
            noise_var, normals), cfg)
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


# ---------------------------------------------------------------- backend


def test_backend_probe_selects_closed_form():
    cfg = tiny_experiment(n_trials=1)
    fisher_fn, backend, report = harness._select_crb_backend(cfg)
    assert fisher_fn is harness.fisher_closed_form
    assert backend == "closed_form"
    assert report is None


def test_backend_probe_falls_back_to_oracle(monkeypatch):
    monkeypatch.setattr(harness, "CRB_AGREEMENT_RTOL", 0.0)
    cfg = tiny_experiment(n_trials=2, snr_points_db=(15.0,))
    fisher_fn, backend, report = harness._select_crb_backend(cfg)
    assert fisher_fn is harness.fisher_numeric_oracle
    assert backend == "numeric_oracle"
    assert "max relative error" in report

    sweep = run_mse_sweep(cfg)
    assert sweep.crb_backend == "numeric_oracle"
    assert "fisher closed-form vs numeric oracle" in sweep.crb_discrepancy
    row = sweep.rows[0]
    assert row.crb_cfo is not None and row.crb_cfo > 0.0
    assert row.crb_excluded == 0
    # the CRB sweep follows the same probe
    crb_sweep = run_crb_sweep(cfg)
    assert crb_sweep.crb_backend == "numeric_oracle"
    assert crb_sweep.crb_discrepancy == sweep.crb_discrepancy
    assert (crb_sweep.rows[0].crb_cfo, crb_sweep.rows[0].crb_sfo) == \
        (row.crb_cfo, row.crb_sfo)
    # and so do the one-trial routes: a chunk of one and trial
    swept = sweep_records(monkeypatch, run_mse_sweep, cfg)
    for t in range(cfg.n_trials):
        assert one_trial(cfg, 15.0, t) == swept[(15.0, t)]
        diag = inspect_trial(cfg, 15.0, t)
        assert column_record(diag.columns, diag.snr_db, 0) \
            == swept[(15.0, t)]

    # Under the closed form, the backend at the default tolerance, fig2
    # bounds each chunk from the burst it synthesized and crb from its
    # scenario draws alone; their bounds agree all the same, over two
    # chunks of trials.
    monkeypatch.undo()
    cfg = tiny_experiment(n_trials=40, snr_points_db=(5.0, 30.0))
    assert harness._select_crb_backend(cfg)[1] == "closed_form"
    sweep, crb_sweep = run_mse_sweep(cfg), run_crb_sweep(cfg)
    assert crb_sweep.crb_backend == sweep.crb_backend == "closed_form"
    assert [(r.crb_cfo, r.crb_sfo, r.crb_excluded) for r in crb_sweep.rows] \
        == [(r.crb_cfo, r.crb_sfo, r.crb_excluded) for r in sweep.rows]
