"""Bound tests: the closed-form Fisher matrix against the
finite-difference oracle, the 2x2 inversion, and the scenario-averaged
bound of the harness's CRB sweep."""

import numpy as np
import numpy.testing as npt
import pytest
from hypothesis import example, given, settings, strategies as st

from ofdm_sync_lab import (
    QPSK_ALPHABET,
    ChannelRealization,
    FisherMatrix,
    OfdmConfig,
    TrainingSymbols,
    channel_taps,
    compare_fisher,
    crb_rows,
    derive_rng,
    fisher_closed_form,
    fisher_numeric_oracle,
    invertible,
    make_config,
    make_experiment,
    noise_variance_from_snr,
    run_crb_sweep,
    synthesize_rows,
)
from ofdm_sync_lab import crb, harness, ofdm_model
from ofdm_sync_lab.harness import CRB_AGREEMENT_RTOL

CFG = make_config(64, 52, 16)
CFO_OP = 0.212
SFO_OP = 0.000112

# Single unit tap + all-ones training: every tested route must agree here.
FLAT_TRAINING = TrainingSymbols(np.ones(52, dtype=complex),
                                np.ones(52, dtype=complex))
FLAT_CHANNEL = ChannelRealization(np.array([1.0 + 0.0j]))


def draw_scenario(training_rng, channel_rng, config=CFG, n_taps=5):
    """A repeated QPSK training pair and Rayleigh taps, drawn as the
    harness draws a trial's scenario from its two streams."""
    x = QPSK_ALPHABET[training_rng.integers(0, 4, config.n_active)]
    taps = channel_taps(channel_rng.standard_normal((2, n_taps)))
    return TrainingSymbols(x, x), ChannelRealization(taps)


def scenario(seed):
    return draw_scenario(derive_rng(seed, "training"),
                         derive_rng(seed, "channel"))


def crb_pair(fisher):
    """(crb_cfo, crb_sfo) of one Fisher matrix, which must be invertible."""
    crb_cfo, crb_sfo, det = crb_rows(fisher.f00, fisher.f01, fisher.f10,
                                     fisher.f11)
    assert invertible(det)
    return float(crb_cfo), float(crb_sfo)


# ------------------------------------------------------------- dataclasses


def test_fisher_matrix_as_array():
    fisher = FisherMatrix(f00=4.0, f01=1.0, f10=1.0, f11=9.0)
    npt.assert_array_equal(fisher.as_array(), [[4.0, 1.0], [1.0, 9.0]])


def test_noise_var_must_be_positive():
    with pytest.raises(ValueError):
        fisher_closed_form(CFG, FLAT_TRAINING, FLAT_CHANNEL, 0.0, 0.0, 0.0)
    with pytest.raises(ValueError):
        fisher_numeric_oracle(CFG, FLAT_TRAINING, FLAT_CHANNEL, 0.0, 0.0,
                              -0.1)


# ------------------------------------------------------------- closed form


def test_flat_channel_frozen_values():
    fisher = fisher_closed_form(CFG, FLAT_TRAINING, FLAT_CHANNEL,
                                0.0, 0.0, 0.1)
    assert fisher.f00 == pytest.approx(115475.22521342454, rel=1e-12)
    assert fisher.f01 == pytest.approx(-57737.612606712566, rel=1e-12)
    assert fisher.f11 == pytest.approx(46336930.598625384, rel=1e-12)
    assert fisher.f10 == fisher.f01


def test_flat_channel_matches_oracle():
    comparison = compare_fisher(CFG, FLAT_TRAINING, FLAT_CHANNEL,
                                0.0, 0.0, 0.1)
    assert comparison.max_rel_error < 1e-8


def test_operating_point_matches_oracle():
    training, channel = scenario(7)
    noise_var = noise_variance_from_snr(CFG, 15.0)
    comparison = compare_fisher(CFG, training, channel, CFO_OP, SFO_OP,
                                noise_var)
    assert comparison.max_rel_error < 1e-3
    # the agreement is in fact far tighter than the acceptance bar
    assert comparison.max_rel_error < 1e-6


@pytest.mark.parametrize("seed", range(10))
def test_random_scenarios_match_oracle(seed):
    rng = np.random.default_rng(1000 + seed)
    training, channel = scenario(300 + seed)
    cfo = float(rng.uniform(-0.4, 0.4))
    sfo = float(rng.uniform(-4e-4, 4e-4))
    noise_var = noise_variance_from_snr(CFG, float(rng.uniform(0.0, 30.0)))
    comparison = compare_fisher(CFG, training, channel, cfo, sfo, noise_var)
    assert comparison.max_rel_error < 1e-3


def test_entries_scale_inversely_with_noise():
    training, channel = scenario(9)
    a = fisher_closed_form(CFG, training, channel, CFO_OP, SFO_OP, 0.05)
    b = fisher_closed_form(CFG, training, channel, CFO_OP, SFO_OP, 0.10)
    for name in ("f00", "f01", "f11"):
        assert getattr(b, name) == pytest.approx(getattr(a, name) / 2.0,
                                                 rel=1e-12)


def test_information_is_positive_definite():
    training, channel = scenario(10)
    fisher = fisher_closed_form(CFG, training, channel, CFO_OP, SFO_OP,
                                noise_variance_from_snr(CFG, 20.0))
    assert fisher.f00 > 0.0
    assert fisher.f11 > 0.0
    assert fisher.f00 * fisher.f11 - fisher.f01 * fisher.f10 > 0.0


def test_second_symbol_adds_information():
    """The m=1 symbol sits further from the time origin, so the two-symbol
    burst carries strictly more CFO information than symbol 0 alone."""
    single = OfdmConfig(64, 52, 16, n_symbols=1)
    both = fisher_closed_form(CFG, FLAT_TRAINING, FLAT_CHANNEL,
                              0.0, 0.0, 0.1)
    first = fisher_closed_form(single, FLAT_TRAINING, FLAT_CHANNEL,
                               0.0, 0.0, 0.1)
    assert both.f00 > first.f00
    assert both.f11 > first.f11


def test_single_symbol_config_matches_oracle():
    single = OfdmConfig(64, 52, 16, n_symbols=1)
    training, channel = scenario(13)
    comparison = compare_fisher(single, training, channel, CFO_OP, SFO_OP,
                                noise_variance_from_snr(single, 15.0))
    assert comparison.max_rel_error < CRB_AGREEMENT_RTOL


@st.composite
def fisher_scenarios(draw):
    """Random geometry (cp = 0 and K = N included), channel and offsets."""
    dft_size = draw(st.sampled_from([16, 32, 64, 128]))
    config = make_config(dft_size, 2 * draw(st.integers(1, dft_size // 2)),
                         draw(st.integers(0, dft_size // 4)))
    seed = draw(st.integers(0, 2 ** 32 - 1))
    training, channel = draw_scenario(
        derive_rng(seed, "training"), derive_rng(seed, "channel"), config,
        draw(st.integers(1, 8)))
    cfo = draw(st.floats(-0.4, 0.4, exclude_min=True, exclude_max=True))
    sfo = draw(st.floats(-5e-4, 5e-4, exclude_min=True, exclude_max=True))
    noise_var = draw(st.floats(1e-3, 1.0))
    return config, training, channel, cfo, sfo, noise_var


@settings(max_examples=40, deadline=None, database=None)
@given(scenario_args=fisher_scenarios())
@example(scenario_args=(make_config(16, 2, 0),
                        TrainingSymbols(np.ones(2), np.ones(2)),
                        FLAT_CHANNEL, 0.0, 0.0, 1e-3))
def test_closed_form_matches_oracle_over_random_geometries(scenario_args):
    comparison = compare_fisher(*scenario_args)
    assert comparison.max_rel_error < CRB_AGREEMENT_RTOL


# ---------------------------------------------------- reference arithmetic


def reference_fisher_rows(config, symbols, taps, cfo, sfo, noise_var):
    """The closed form as sums of complex-weighted summands, with x H,
    k x H, g and d formed afresh for every symbol."""
    h = ofdm_model._channel_gains(config, taps)
    ks = config.subcarrier_indices
    f00 = f01 = f11 = 0.0
    for m, x in enumerate(symbols):
        w = 2.0 * np.pi / config.dft_size * (config.symbol_start(m)
                                             + np.arange(config.dft_size))
        basis = ofdm_model._warped_basis(config, sfo, m)
        xh = x * h
        g = (basis @ xh[..., None])[..., 0]
        d = (basis @ (ks * xh)[..., None])[..., 0]
        g_sq = g.real ** 2 + g.imag ** 2
        d_conj_g = d * np.conj(g)
        f00 = f00 + ofdm_model._sum_last((w * (1.0 + sfo)) ** 2 * g_sq)
        phi = (1.0 + 1j * w * (1.0 + sfo) * cfo) * g_sq
        psi = 1j * w * (1.0 + sfo) * d_conj_g
        f01 = f01 + ofdm_model._sum_last((1j * w * (phi + psi)).real)
        gamma = -(w ** 2) * (cfo ** 2) * g_sq
        theta = -2.0 * cfo * (w ** 2) * d_conj_g
        pi_term = -(w ** 2) * (d.real ** 2 + d.imag ** 2)
        f11 = f11 + ofdm_model._sum_last((gamma + theta + pi_term).real)
    scale = 2.0 / (noise_var * config.dft_size)
    return f00 * scale, f01 * -scale, f11 * -scale


@st.composite
def training_stacks(draw):
    """A one- or two-symbol geometry and a chunk of 1-40 bursts whose two
    symbols are one shared array or differ in every entry; offsets may
    be exactly 0."""
    dft_size = draw(st.sampled_from([16, 32, 64]))
    config = make_config(dft_size, 2 * draw(st.integers(1, dft_size // 2)),
                         draw(st.integers(0, dft_size // 4)),
                         draw(st.integers(1, 2)))
    n_trials = draw(st.integers(1, 40))
    rng = np.random.default_rng(draw(st.integers(0, 2 ** 32 - 1)))
    picks = rng.integers(0, 4, (n_trials, config.n_active))
    x0 = QPSK_ALPHABET[picks]
    x1 = x0 if draw(st.booleans()) else \
        QPSK_ALPHABET[(picks + rng.integers(1, 4, picks.shape)) % 4]
    taps = channel_taps(rng.standard_normal(
        (n_trials, 2, draw(st.integers(1, 8)))))
    cfo = draw(st.just(0.0) | st.floats(-0.4, 0.4))
    sfo = draw(st.just(0.0) | st.floats(-5e-4, 5e-4))
    noise_var = draw(st.sampled_from([0.0, 0.5]))
    normals = rng.standard_normal(
        (n_trials, config.n_symbols, 2, dft_size))
    return (config, (x0, x1)[:config.n_symbols], taps, cfo, sfo, noise_var,
            normals)


@settings(max_examples=60, deadline=None, database=None)
@given(stack=training_stacks())
def test_fisher_rows_equal_the_complex_weight_formula(stack):
    """Bit for bit, through the public function and through a noiseless
    burst that synthesis has read first, as a fig2 chunk shares it; that
    synthesis equals ``synthesize_rows`` called alone."""
    config, symbols, taps, cfo, sfo, noise_var, normals = stack
    expected = reference_fisher_rows(config, symbols, taps, cfo, sfo, 0.1)
    burst = ofdm_model._noiseless_burst(config, symbols, taps, sfo)
    samples = ofdm_model._synthesized(config, burst, cfo, sfo, noise_var,
                                      normals)
    for entries in (crb.fisher_rows(config, symbols, taps, cfo, sfo, 0.1),
                    crb._fisher_entries(config, burst, cfo, sfo, 0.1)):
        for got, want in zip(entries, expected):
            assert got.tobytes() == want.tobytes()
    alone = synthesize_rows(config, symbols, taps, cfo, sfo, noise_var,
                            normals)
    assert samples.tobytes() == alone.tobytes()


# --------------------------------------------------------- memoized arrays


@settings(max_examples=40, deadline=None, database=None)
@given(scenario_args=fisher_scenarios())
def test_cached_basis_matches_fresh_build_over_random_geometries(
        scenario_args):
    """Bit for bit, on the miss that fills the cache and on a hit."""
    config, _, channel, _, sfo, _ = scenario_args
    ks = config.subcarrier_indices
    n = np.arange(config.dft_size)
    h_fresh = np.exp(-1j * 2.0 * np.pi * ks[:, None]
                     * np.arange(channel.n_taps) / config.dft_size) \
        @ channel.taps
    for m in range(config.n_symbols):
        warp = n * (1.0 + sfo) + sfo * config.symbol_start(m)
        fresh = np.exp(1j * 2.0 * np.pi / config.dft_size
                       * np.outer(warp, ks))
        for _ in range(2):
            basis = ofdm_model._warped_basis(config, sfo, m)
            h = ofdm_model._channel_gains(config, channel.taps)
            assert basis.tobytes() == fresh.tobytes()
            assert h.tobytes() == h_fresh.tobytes()


def test_fisher_weights_are_read_only():
    for weight in crb._fisher_weights(CFG, CFO_OP, SFO_OP, 1):
        with pytest.raises(ValueError, match="read-only"):
            weight[0] = 0


def test_offset_keyed_caches_stay_bounded():
    training, channel = scenario(3)
    caches = (ofdm_model._warped_basis, ofdm_model._cfo_lead,
              crb._fisher_weights)
    for i in range(max(c.cache_info().maxsize for c in caches) + 8):
        sfo = i * 1e-6
        synthesize_rows(CFG, (training.x0[None], training.x1[None]),
                        channel.taps[None], CFO_OP, sfo)
        fisher_closed_form(CFG, training, channel, CFO_OP, sfo, 0.1)
    for cache in caches:
        info = cache.cache_info()
        assert 0 < info.currsize <= info.maxsize


# ------------------------------------------------------------------ oracle


def test_oracle_cfo_derivative_matches_analytic_ramp():
    """d/d cfo of the noiseless mean is j (2 pi / N)(N_m + n)(1 + sfo) s,
    because cfo enters only through the leading phase ramp."""
    training, channel = scenario(11)
    noise_var = 0.1
    oracle = fisher_numeric_oracle(CFG, training, channel, CFO_OP, SFO_OP,
                                   noise_var)
    rows = []
    samples = synthesize_rows(CFG, (training.x0[None], training.x1[None]),
                              channel.taps[None], CFO_OP, SFO_OP)[0]
    for m, s in enumerate(samples):
        n = np.arange(64)
        slope = 2 * np.pi / 64 * (CFG.symbol_start(m) + n) * (1 + SFO_OP)
        rows.append(1j * slope * s)
    d_cfo = np.concatenate(rows)
    f00 = 2.0 / noise_var * float(np.sum(np.abs(d_cfo) ** 2))
    assert oracle.f00 == pytest.approx(f00, rel=1e-6)


def test_oracle_is_step_insensitive():
    training, channel = scenario(12)
    noise_var = noise_variance_from_snr(CFG, 10.0)
    fine = fisher_numeric_oracle(CFG, training, channel, CFO_OP, SFO_OP,
                                 noise_var, cfo_step=1e-6, sfo_step=1e-8)
    coarse = fisher_numeric_oracle(CFG, training, channel, CFO_OP, SFO_OP,
                                   noise_var, cfo_step=1e-5, sfo_step=1e-7)
    for name in ("f00", "f01", "f11"):
        a, b = getattr(fine, name), getattr(coarse, name)
        assert abs(a - b) / max(abs(a), abs(b)) < 1e-4


def test_oracle_rejects_bad_steps():
    with pytest.raises(ValueError, match="cfo_step"):
        fisher_numeric_oracle(CFG, FLAT_TRAINING, FLAT_CHANNEL, 0.0, 0.0,
                              0.1, cfo_step=0.0)
    with pytest.raises(ValueError, match="sfo_step"):
        fisher_numeric_oracle(CFG, FLAT_TRAINING, FLAT_CHANNEL, 0.0, 0.0,
                              0.1, sfo_step=-1e-8)
    # Offsets the signal model rejects: every perturbed point is checked.
    for cfo, sfo in ((np.nan, 0.0), (np.inf, 0.0), (-np.inf, 0.0),
                     (0.0, np.nan), (0.0, -1.0), (0.0, -1.5)):
        with pytest.raises(ValueError):
            fisher_numeric_oracle(CFG, FLAT_TRAINING, FLAT_CHANNEL, cfo,
                                  sfo, 0.1)


def test_comparison_report_contents():
    comparison = compare_fisher(CFG, FLAT_TRAINING, FLAT_CHANNEL,
                                0.0, 0.0, 0.1)
    report = comparison.report()
    assert "fisher closed-form vs numeric oracle" in report
    assert "f00: closed=" in report
    assert "max relative error:" in report


# --------------------------------------------------------------- inversion


def test_crb_from_diagonal_fisher():
    crb_cfo, crb_sfo = crb_pair(FisherMatrix(f00=4.0, f01=0.0, f10=0.0,
                                             f11=8.0))
    assert crb_cfo == pytest.approx(0.25, rel=1e-15)
    assert crb_sfo == pytest.approx(0.125, rel=1e-15)


def test_crb_from_coupled_fisher():
    crb_cfo, crb_sfo = crb_pair(FisherMatrix(f00=2.0, f01=1.0, f10=1.0,
                                             f11=2.0))
    assert crb_cfo == pytest.approx(2.0 / 3.0, rel=1e-15)
    assert crb_sfo == pytest.approx(2.0 / 3.0, rel=1e-15)


def test_coupling_never_tightens_the_bound():
    training, channel = scenario(13)
    fisher = fisher_closed_form(CFG, training, channel, CFO_OP, SFO_OP,
                                noise_variance_from_snr(CFG, 15.0))
    crb_cfo, crb_sfo = crb_pair(fisher)
    assert crb_cfo >= 1.0 / fisher.f00
    assert crb_sfo >= 1.0 / fisher.f11


def test_singular_fisher_is_not_invertible():
    """Singular, zero and infinite Fisher matrices, one row each, have no
    usable bound; the invertible rows beside them keep theirs."""
    f00, f01, f11 = (np.array([1.0, 0.0, np.inf, 4.0]),
                     np.array([1.0, 0.0, 0.0, 0.0]),
                     np.array([1.0, 0.0, 1.0, 8.0]))
    crb_cfo, crb_sfo, det = crb_rows(f00, f01, f01, f11)
    npt.assert_array_equal(invertible(det), [False, False, False, True])
    assert (crb_cfo[3], crb_sfo[3]) == (0.25, 0.125)


def test_crb_scales_linearly_with_noise():
    """10 dB less SNR means exactly 10x the noise variance and exactly 10x
    both bounds."""
    training, channel = scenario(14)
    low = crb_pair(fisher_closed_form(
        CFG, training, channel, CFO_OP, SFO_OP,
        noise_variance_from_snr(CFG, 20.0)))
    high = crb_pair(fisher_closed_form(
        CFG, training, channel, CFO_OP, SFO_OP,
        noise_variance_from_snr(CFG, 10.0)))
    assert high[0] == pytest.approx(10.0 * low[0], rel=1e-12)
    assert high[1] == pytest.approx(10.0 * low[1], rel=1e-12)


# ----------------------------------------------------------- averaged CRB


def averaged_crb(snr_db, n_trials, seed, cfo=CFO_OP, sfo=SFO_OP):
    """The CRB sweep's single row at one SNR point."""
    sweep = run_crb_sweep(make_experiment(
        cfo=cfo, sfo=sfo, snr_points_db=(snr_db,), n_trials=n_trials,
        master_seed=seed))
    assert sweep.crb_backend == "closed_form"
    (row,) = sweep.rows
    return row


def test_average_crb_frozen_and_repeatable():
    row = averaged_crb(15.0, 50, 12345)
    assert row.crb_excluded == 0
    assert row.crb_cfo == pytest.approx(2.421319471684429e-06, rel=1e-12)
    assert row.crb_sfo == pytest.approx(1.1001685849797752e-08, rel=1e-12)
    again = averaged_crb(15.0, 50, 12345)
    assert again.crb_cfo == row.crb_cfo
    assert again.crb_sfo == row.crb_sfo


def test_average_crb_single_trial_identity():
    """One trial is exactly the per-realization bound of the substream's
    scenario draw."""
    seed, snr_db = 777, 10.0
    row = averaged_crb(snr_db, 1, seed)
    assert row.crb_excluded == 0
    skey = 10000
    training, channel = draw_scenario(derive_rng(seed, skey, 0, "training"),
                                      derive_rng(seed, skey, 0, "channel"))
    direct = crb_pair(fisher_closed_form(
        CFG, training, channel, CFO_OP, SFO_OP,
        noise_variance_from_snr(CFG, snr_db)))
    assert (row.crb_cfo, row.crb_sfo) == direct


def test_average_crb_fixed_draw_identity(monkeypatch):
    """A scenario draw ignoring its streams makes the average equal the
    single realization regardless of the trial count."""
    def fixed_draw(cfg, indices, seeds):
        rows = (len(indices), 1)
        return harness._Draws(tuple(indices),
                              np.tile(FLAT_TRAINING.x0, rows),
                              np.tile(FLAT_CHANNEL.taps, rows))

    monkeypatch.setattr(harness, "_draw", fixed_draw)
    row = averaged_crb(15.0, 5, 1, cfo=0.0, sfo=0.0)
    crb_cfo, crb_sfo = crb_pair(fisher_closed_form(
        CFG, FLAT_TRAINING, FLAT_CHANNEL, 0.0, 0.0,
        noise_variance_from_snr(CFG, 15.0)))
    assert row.crb_cfo == pytest.approx(crb_cfo, rel=1e-15)
    assert row.crb_sfo == pytest.approx(crb_sfo, rel=1e-15)


def test_average_crb_seed_stability():
    """At 500 scenario draws the channel average is seed-stable to 5%."""
    a = averaged_crb(15.0, 500, 12345)
    b = averaged_crb(15.0, 500, 99999)
    assert a.crb_cfo == pytest.approx(2.100105184899364e-06, rel=1e-12)
    assert a.crb_sfo == pytest.approx(9.72102756168252e-09, rel=1e-12)
    assert abs(a.crb_cfo - b.crb_cfo) / a.crb_cfo < 0.05
    assert abs(a.crb_sfo - b.crb_sfo) / a.crb_sfo < 0.05


def test_average_crb_counts_singular_realizations(monkeypatch):
    calls = {"n": 0}

    def flaky_fisher(config, training, channel, cfo, sfo, noise_var):
        calls["n"] += 1
        if calls["n"] == 1:
            return FisherMatrix(f00=1.0, f01=1.0, f10=1.0, f11=1.0)
        return fisher_closed_form(config, training, channel, cfo, sfo,
                                  noise_var)

    monkeypatch.setattr(harness, "_select_crb_backend",
                        lambda cfg: (flaky_fisher, "closed_form", None))
    row = averaged_crb(15.0, 4, 12345)
    assert row.crb_excluded == 1
    assert calls["n"] == 4
    assert np.isfinite(row.crb_cfo)


# A zero trial count is rejected by ExperimentConfig before any sweep
# runs: tests/test_harness.py::test_experiment_config_validation.
