"""Signal-model tests: geometry, training, channel, synthesis, demodulation,
the inter-carrier coupling decomposition, and the random substreams'
derivation. The tests of the streams against numpy's own are in
``tests/test_streams.py``."""

import math
import warnings

import numpy as np
import numpy.testing as npt
import pytest
from hypothesis import example, given, settings, strategies as st

from ofdm_sync_lab import (
    QPSK_ALPHABET,
    OfdmConfig,
    carrier_gain,
    channel_taps,
    coupling_coefficient,
    demodulate_rows,
    exponential_power_profile,
    noise_variance_from_snr,
    noiseless_burst,
    snr_stream_key,
    synthesize_rows,
)
from ofdm_sync_lab import (
    GridEvaluator,
    estimate_nguyenle,
    estimate_proposed,
    fisher_rows,
    make_grid,
    nguyenle_cost,
    ofdm_model,
    proposed_cost,
    ratio_observable_rows,
)
from reference import derive_rng, ici_term
from test_streams import (LABELS, MASTER_SEEDS, STREAM_KEYS,
                          TRIAL_INDICES, oracle_stream)

CFO_OP = 0.212
SFO_OP = 0.000112

# Exponential profile for five taps, decay constant 5 samples, unit sum.
PDP_5 = [0.286763726302377, 0.2347822815909934, 0.19222347421636085,
         0.15737926980442712, 0.1288512480858415]


def paper_config():
    return OfdmConfig(64, 52, 16)


def scenario(seed=7, n_taps=5):
    """The paper geometry, a QPSK training row x that both symbols repeat,
    and a row of Rayleigh taps."""
    cfg = paper_config()
    x = QPSK_ALPHABET[derive_rng(seed, "training").integers(0, 4, 52)]
    taps = channel_taps(derive_rng(seed, "channel").standard_normal(
        (2, n_taps)))
    return cfg, x, taps


def synthesize(cfg, x, taps, cfo, sfo):
    """One noiseless burst as a stack of one, (2, N)."""
    return synthesize_rows(cfg, noiseless_burst(cfg, x[None], taps[None], sfo),
                           cfo)[0]


def observe(cfg, x, taps, cfo, sfo):
    """The demodulated pair (r0, r1) of one noiseless burst."""
    return demodulate_rows(synthesize(cfg, x, taps, cfo, sfo), cfg)


def gains(cfg, taps):
    """H(k) on the active subcarriers of one row of taps."""
    return ofdm_model._channel_gains(cfg, np.asarray(taps, dtype=complex))


# ---------------------------------------------------------------- geometry


def test_config_fields_and_symbol_starts():
    cfg = paper_config()
    assert cfg.dft_size == 64
    assert cfg.n_active == 52
    assert cfg.cp_len == 16
    assert cfg.symbol_len == 80
    assert cfg.symbol_start(0) == 16
    assert cfg.symbol_start(1) == 96


def test_symbol_start_range_checked():
    cfg = paper_config()
    with pytest.raises(ValueError):
        cfg.symbol_start(2)
    with pytest.raises(ValueError):
        cfg.symbol_start(-1)


def test_subcarrier_sets():
    npt.assert_array_equal(paper_config().subcarrier_indices,
                           np.arange(-26, 26))
    npt.assert_array_equal(OfdmConfig(64, 2, 16).subcarrier_indices, [-1, 0])
    npt.assert_array_equal(OfdmConfig(64, 4, 16).subcarrier_indices,
                           [-2, -1, 0, 1])


def test_no_cp_full_band_config_is_valid():
    cfg = OfdmConfig(64, 64, 0)
    assert cfg.cp_len == 0
    assert cfg.symbol_start(0) == 0
    assert cfg.symbol_start(1) == 64
    npt.assert_array_equal(cfg.subcarrier_indices, np.arange(-32, 32))


@pytest.mark.parametrize("args, fragment", [
    ((64, 70, 16), "K exceeds N"),
    ((63, 52, 16), "even"),
    ((64, 51, 16), "even"),
    ((64, 52, -1), ">= 0"),
    ((0, 52, 16), "positive"),
    ((64, 0, 16), "positive"),
    ((64, 80, 16), "K exceeds N"),
    ((64.0, 52, 16), "integer"),
    ((64, 52, 2 ** 1000 - 64), "must be below"),
])
def test_ofdm_config_rejects_what_make_config_rejects(args, fragment):
    """The checks live in the config itself, so a directly built config
    (as ``ExperimentConfig(ofdm=...)`` takes one) cannot skip them."""
    with pytest.raises(ValueError, match=fragment):
        OfdmConfig(*args)


def test_symbol_length_stays_a_float():
    """N + cp_len up to 2**1000 - 1 passes; past it (N + cp)(1 + sfo)
    could leave the float range."""
    assert OfdmConfig(64, 52, 2 ** 1000 - 65).symbol_len == 2 ** 1000 - 1


def test_config_fields_are_plain_ints():
    cfg = OfdmConfig(np.int64(64), np.int32(52), np.uint8(16))
    assert cfg == OfdmConfig(64, 52, 16) == OfdmConfig()
    assert all(type(v) is int for v in (cfg.dft_size, cfg.n_active,
                                         cfg.cp_len))


# ---------------------------------------------------------------- training


def test_training_symbols_identical_and_unit_modulus():
    x = QPSK_ALPHABET[derive_rng(3, "training").integers(0, 4, 52)]
    assert x.shape == (52,)
    npt.assert_allclose(np.abs(x), 1.0, rtol=0, atol=1e-15)
    alphabet = np.array([1 + 1j, 1 - 1j, -1 + 1j, -1 - 1j]) / np.sqrt(2.0)
    for value in x:
        assert np.min(np.abs(alphabet - value)) < 1e-15


def test_training_symbol_frequencies_uniform():
    """Each QPSK point appears with frequency 0.25 +/- 0.02."""
    rng = derive_rng(11, "training")
    draws = np.concatenate([QPSK_ALPHABET[rng.integers(0, 4, 52)]
                            for _ in range(200)])
    assert draws.size == 10400
    alphabet = np.array([1 + 1j, 1 - 1j, -1 + 1j, -1 - 1j]) / np.sqrt(2.0)
    for point in alphabet:
        freq = np.mean(np.abs(draws - point) < 1e-12)
        assert 0.23 < freq < 0.27


def test_training_symbols_length_mismatch():
    """Training rows of another length than K are a ValueError where the
    burst that synthesis and the bounds read is formed."""
    cfg = OfdmConfig(8, 4, 2)
    taps = np.ones((1, 1))
    with pytest.raises(ValueError, match="length 5"):
        synthesize_rows(cfg, noiseless_burst(cfg, np.ones((1, 5)), taps, 0.0),
                        0.0)
    with pytest.raises(ValueError, match="length 5"):
        fisher_rows(cfg, noiseless_burst(cfg, np.ones((1, 5)), taps, 0.0),
                    0.0, 0.1)


# ----------------------------------------------------------------- channel


def test_power_profile_values_and_normalization():
    profile = exponential_power_profile(5)
    npt.assert_allclose(profile, PDP_5, rtol=1e-13)
    assert abs(profile.sum() - 1.0) < 1e-15
    npt.assert_array_equal(exponential_power_profile(1), [1.0])
    # direct formula: p_l proportional to exp(-l/5)
    raw = np.exp(-np.arange(5) / 5.0)
    npt.assert_allclose(profile, raw / raw.sum(), rtol=1e-15)


def test_power_profile_rejects_bad_args():
    # 2.5 taps once gave a profile of 3
    for n_taps in (0, 2.5):
        with pytest.raises(ValueError):
            exponential_power_profile(n_taps)


def test_channel_tap_power_matches_profile():
    """Mean |h_l|^2 over 1e5 draws lands within 2% of each profile weight.

    The draws are one (1e5, 2, 5) block of the stream, and give the same
    taps bit for bit as 1e5 draws of (2, 5) normals in turn.
    """
    n = 100_000
    taps = channel_taps(derive_rng(5, "channel").standard_normal((n, 2, 5)))
    per_call = derive_rng(5, "channel")
    npt.assert_array_equal(
        taps[:1000], np.stack([channel_taps(per_call.standard_normal((2, 5)))
                               for _ in range(1000)]))
    power = np.sum(np.abs(taps) ** 2, axis=0) / n
    npt.assert_allclose(power, PDP_5, rtol=0.02)


def test_channel_realization_validation():
    """An empty tap axis is a ValueError wherever taps become H(k)."""
    cfg, x, _ = scenario()
    with pytest.raises(ValueError, match="at least one tap"):
        synthesize_rows(cfg, noiseless_burst(cfg, x[None], np.zeros((1, 0)),
                                             0.0), 0.0)
    with pytest.raises(ValueError, match="at least one tap"):
        fisher_rows(cfg, noiseless_burst(cfg, x[None], np.zeros((1, 0)), 0.0),
                    0.0, 0.1)
    with pytest.raises(ValueError, match="at least one tap"):
        ici_term(0, 0, x, np.array([]), 0.0, 0.0, cfg)
    assert gains(cfg, np.array([1.0, 2.0])).shape == (52,)


def test_synthesis_checks_its_cfo():
    """A NaN cfo once gave NaN samples with no error."""
    cfg, x, taps = scenario()
    burst = noiseless_burst(cfg, x[None], taps[None], SFO_OP)
    for cfo, fragment in ((math.nan, "cfo must be finite"),
                          (64.0, "cfo must lie inside")):
        with pytest.raises(ValueError, match=fragment):
            synthesize_rows(cfg, burst, cfo)


def test_noise_variance_needs_a_finite_snr():
    """A NaN SNR once gave a NaN noise variance; past the float range the
    variance is inf or 0, which the experiment checks reject."""
    cfg = paper_config()
    for snr_db in (math.nan, math.inf, -math.inf):
        with pytest.raises(ValueError, match="snr_db must be finite"):
            noise_variance_from_snr(cfg, snr_db)
    assert noise_variance_from_snr(cfg, -3100.0) == math.inf
    assert noise_variance_from_snr(cfg, 3300.0) == 0.0


def test_carrier_gain_rejects_non_finite_offsets():
    """A NaN cfo once made numpy warn and returned NaN gains."""
    cfg = paper_config()
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        for cfo, sfo, name in ((math.nan, 0.0, "cfo"), (math.inf, 0.0, "cfo"),
                               (0.0, math.nan, "sfo")):
            with pytest.raises(ValueError, match=f"{name} must be finite"):
                carrier_gain(cfg.subcarrier_indices, 0, cfo, sfo, cfg)


def test_frequency_response_flat_for_single_tap():
    npt.assert_allclose(gains(paper_config(), [1.0]), np.ones(52), rtol=0,
                        atol=1e-15)


def test_frequency_response_dc_is_tap_sum():
    rng = np.random.default_rng(123)
    taps = rng.standard_normal(5) + 1j * rng.standard_normal(5)
    dc = 26  # subcarrier 0 of -26 .. 25
    assert abs(gains(paper_config(), taps)[dc] - taps.sum()) < 1e-12


def test_frequency_response_matches_fft():
    rng = np.random.default_rng(42)
    taps = rng.standard_normal(5) + 1j * rng.standard_normal(5)
    padded = np.zeros(64, dtype=complex)
    padded[:5] = taps
    full = np.fft.fft(padded)
    ks = np.arange(-26, 26)
    npt.assert_allclose(gains(paper_config(), taps), full[ks % 64],
                        rtol=1e-12)


def test_frequency_response_conjugate_symmetry_for_real_taps():
    h = gains(paper_config(), [0.5, 0.3, 0.2])
    h_pos, h_neg = h[26 + 9], h[26 - 9]
    assert abs(h_neg - np.conj(h_pos)) < 1e-14


# ------------------------------------------------------------------- noise


def test_noise_variance_values():
    cfg = paper_config()
    assert noise_variance_from_snr(cfg, 0.0) == pytest.approx(0.8125,
                                                              rel=1e-15)
    assert noise_variance_from_snr(cfg, 15.0) == pytest.approx(
        0.02569350598886808, rel=1e-15)
    assert noise_variance_from_snr(cfg, 30.0) == pytest.approx(
        0.0008125000000000001, rel=1e-15)


def test_impairment_validation():
    with pytest.raises(ValueError, match="cfo must be finite"):
        ofdm_model._check_offsets(np.nan, 0.0)
    with pytest.raises(ValueError, match="sfo must be finite"):
        ofdm_model._check_offsets(0.0, np.inf)
    with pytest.raises(ValueError):
        ofdm_model._check_offsets(0.0, -1.0)
    with pytest.raises(ValueError, match="stay below 1"):
        ofdm_model._check_offsets(0.0, 1.0)
    ofdm_model._check_offsets(-3.0, -0.5)
    cfg, x, taps = scenario()
    with pytest.raises(ValueError, match="noise_var"):
        synthesize_rows(cfg, noiseless_burst(cfg, x[None], taps[None], 0.0),
                        0.0, noise_var=-0.1, normals=np.zeros((1, 2, 2, 64)))


@pytest.mark.parametrize("sfo", [np.nan, 5.0, -1.0])
def test_noiseless_burst_rejects_bad_sfo_before_caching(sfo):
    """An invalid sfo raises before any basis is built: a NaN key never
    equals itself, so each call once added two cache entries and evicted
    real ones."""
    cfg, x, taps = scenario()
    before = ofdm_model._warped_basis.cache_info().currsize
    for _ in range(3):
        with pytest.raises(ValueError, match="sfo must"):
            noiseless_burst(cfg, x[None], taps[None], sfo)
    assert ofdm_model._warped_basis.cache_info().currsize == before


@pytest.mark.parametrize("noise_var", [-0.1, np.nan, np.inf, -np.inf])
def test_synthesis_rejects_invalid_noise_variance(noise_var):
    """A negative or non-finite noise variance once gave the noiseless
    burst back; with normals given or not, it is a ValueError."""
    cfg, x, taps = scenario()
    burst = noiseless_burst(cfg, x[None], taps[None], SFO_OP)
    for normals in (None, np.ones((1, 2, 2, 64))):
        with pytest.raises(ValueError, match="noise_var must be finite "
                                             "and >= 0"):
            synthesize_rows(cfg, burst, CFO_OP, noise_var, normals)


# --------------------------------------------------------------- synthesis


def test_synthesis_zero_offsets_matches_unitary_idft():
    cfg, x, taps = scenario()
    h = gains(cfg, taps)
    spectrum = np.zeros(64, dtype=complex)
    spectrum[cfg.subcarrier_indices % 64] = x * h
    expected = np.fft.ifft(spectrum) * np.sqrt(64.0)
    for got in synthesize(cfg, x, taps, 0.0, 0.0):
        npt.assert_allclose(got, expected, rtol=0, atol=1e-12)


def test_synthesis_cfo_is_a_pure_phase_ramp():
    """With sfo = 0 the offset factors out of the subcarrier sum."""
    cfg, x, taps = scenario(seed=9)
    base = synthesize(cfg, x, taps, 0.0, 0.0)[1]
    shifted = synthesize(cfg, x, taps, CFO_OP, 0.0)[1]
    n = np.arange(64)
    ramp = np.exp(1j * 2 * np.pi * (cfg.symbol_start(1) + n) * CFO_OP / 64)
    npt.assert_allclose(shifted, ramp * base, rtol=0, atol=1e-12)


def test_synthesis_noise_requires_rng():
    """Noise needs its standard normals; synthesis draws none itself."""
    cfg, x, taps = scenario()
    with pytest.raises(ValueError, match="normals"):
        synthesize_rows(cfg, noiseless_burst(cfg, x[None], taps[None], 0.0),
                        0.0, noise_var=0.1)


def test_synthesis_noise_calibration():
    """Sample variance of a signal-free burst matches noise_var within 2%:
    800 bursts of two symbols, each symbol's (2, N) normals drawn in turn
    from one stream."""
    cfg = paper_config()
    zeros = np.zeros((800, 52), dtype=complex)
    normals = derive_rng(17, "noise0").standard_normal((800, 2, 2, 64))
    burst = noiseless_burst(cfg, zeros, np.ones((800, 1)), 0.0)
    samples = synthesize_rows(cfg, burst, 0.0, 0.1, normals).ravel()
    assert samples.size == 102400
    measured = np.mean(np.abs(samples) ** 2)
    assert measured == pytest.approx(0.1, rel=0.02)
    # split evenly between quadratures
    assert np.var(samples.real) == pytest.approx(0.05, rel=0.03)
    assert np.var(samples.imag) == pytest.approx(0.05, rel=0.03)


def test_synthesize_rows_shape():
    cfg, x, taps = scenario()
    burst = noiseless_burst(cfg, x[None], taps[None], SFO_OP)
    assert synthesize_rows(cfg, burst, CFO_OP).shape == (1, 2, 64)


def test_memoized_arrays_are_read_only():
    """Cached arrays are shared by every trial, so none may be written;
    what synthesis returns is the caller's own."""
    cfg, x, taps = scenario()
    memoized = {
        "basis": ofdm_model._warped_basis(cfg, SFO_OP, 1),
        "dft phases": ofdm_model._dft_phases(cfg, taps.size),
        "cfo lead": ofdm_model._cfo_lead(cfg, CFO_OP, SFO_OP, 1),
        "tap scale": ofdm_model._tap_scale(5),
    }
    for name, array in memoized.items():
        with pytest.raises(ValueError, match="read-only"):
            array[0] = 0
    assert synthesize(cfg, x, taps, CFO_OP, SFO_OP).flags.writeable


# ------------------------------------------------------------ demodulation


def test_demodulation_round_trip_zero_offsets():
    cfg, x, taps = scenario(seed=21)
    r0, r1 = observe(cfg, x, taps, 0.0, 0.0)
    h = gains(cfg, taps)
    npt.assert_allclose(r0, x * h, rtol=0, atol=1e-12)
    npt.assert_allclose(r1, x * h, rtol=0, atol=1e-12)


def test_demodulate_zeros_and_shape_check():
    cfg = paper_config()
    npt.assert_array_equal(
        demodulate_rows(np.zeros((1, 64), dtype=complex), cfg),
        np.zeros((1, 52)))
    with pytest.raises(ValueError, match="samples"):
        demodulate_rows(np.zeros((1, 63), dtype=complex), cfg)


def test_demodulate_is_unitary_on_full_band():
    """With K = N the restriction keeps every bin, so energy is preserved."""
    cfg = OfdmConfig(64, 64, 0)
    rng = np.random.default_rng(31)
    samples = rng.standard_normal(64) + 1j * rng.standard_normal(64)
    spectrum = demodulate_rows(samples[None], cfg)
    assert np.sum(np.abs(spectrum) ** 2) == pytest.approx(
        np.sum(np.abs(samples) ** 2), rel=1e-12)


def test_observation_length_checked():
    """Spectra rows of another length than K, or than the training rows,
    are a ValueError in every estimator function."""
    cfg, grid = paper_config(), make_grid()
    x, r = np.ones(52), np.ones(4, dtype=complex)
    with pytest.raises(ValueError, match="length"):
        proposed_cost(r, r, 0.0, 0.0, cfg)
    with pytest.raises(ValueError, match="length"):
        nguyenle_cost(r, 0.0, 0.0, cfg)
    for call in (lambda: ratio_observable_rows(x, r, r),
                 lambda: estimate_nguyenle(x[None], r[None], r[None], grid,
                                           cfg),
                 lambda: estimate_proposed(r[None], r[None], grid, cfg),
                 lambda: GridEvaluator(grid, cfg).proposed_surface(r, r)):
        with pytest.raises(ValueError):
            call()


# ---------------------------------------------------------------- coupling


def test_coupling_orthogonality_at_zero_offsets():
    ks = np.arange(-26, 26, dtype=float)
    delta = coupling_coefficient(ks[:, None], ks[None, :], 0.0, 0.0, 64)
    npt.assert_allclose(delta, np.eye(52), rtol=0, atol=1e-14)


def test_coupling_closed_form_matches_direct_sum():
    rng = np.random.default_rng(77)
    n = np.arange(64)
    cases = [(3, 7, CFO_OP, SFO_OP)]
    cases += [(int(rng.integers(-26, 26)), int(rng.integers(-26, 26)),
               float(rng.uniform(-0.5, 0.5)), float(rng.uniform(-5e-4, 5e-4)))
              for _ in range(25)]
    for k, i, cfo, sfo in cases:
        a = i * sfo + cfo * (1.0 + sfo) + i - k
        direct = np.mean(np.exp(1j * 2 * np.pi * n * a / 64))
        closed = coupling_coefficient(k, i, cfo, sfo, 64)
        assert abs(closed - direct) <= 1e-12


def test_coupling_frozen_values_at_operating_point():
    delta = coupling_coefficient(3, 7, CFO_OP, SFO_OP, 64)
    assert delta.real == pytest.approx(0.042229989057468616, rel=1e-12)
    assert delta.imag == pytest.approx(0.021015421394291536, rel=1e-12)
    self_gain = abs(coupling_coefficient(0, 0, CFO_OP, SFO_OP, 64))
    assert self_gain == pytest.approx(0.9276934716930486, rel=1e-12)
    assert self_gain < 1.0


def test_carrier_gain_properties():
    cfg = paper_config()
    assert carrier_gain(5, 0, 0.0, 0.0, cfg) == pytest.approx(1.0 + 0.0j)
    # the start-phase rotation never changes the magnitude
    for k in (-26, -3, 0, 11, 25):
        for m in (0, 1):
            gain = carrier_gain(k, m, CFO_OP, SFO_OP, cfg)
            self_coupling = coupling_coefficient(k, k, CFO_OP, SFO_OP, 64)
            assert abs(abs(gain) - abs(self_coupling)) < 1e-14


def test_carrier_gain_start_phase():
    cfg = paper_config()
    k = -9
    gain = carrier_gain(k, 1, CFO_OP, SFO_OP, cfg)
    self_coupling = coupling_coefficient(k, k, CFO_OP, SFO_OP, 64)
    phase = np.exp(1j * 2 * np.pi * 96 * (k * SFO_OP + CFO_OP
                                          * (1 + SFO_OP)) / 64)
    assert abs(gain - self_coupling * phase) < 1e-14


def test_ici_vanishes_at_zero_offsets():
    cfg, x, taps = scenario(seed=13)
    for m in (0, 1):
        for k in (-26, 0, 25):
            assert abs(ici_term(k, m, x, taps, 0.0, 0.0, cfg)) < 1e-14


def test_ici_zeroed_interferer():
    """With K = 2 the only interferer of bin -1 is bin 0; nulling it nulls
    the interference."""
    cfg = OfdmConfig(64, 2, 16)
    x = np.array([1.0 + 0j, 0.0 + 0j])
    taps = np.array([1.0 + 0j])
    assert ici_term(-1, 0, x, taps, CFO_OP, SFO_OP, cfg) == 0.0
    assert abs(ici_term(0, 0, x, taps, CFO_OP, SFO_OP, cfg)) > 1e-3


def test_ici_term_rows_equal_one_row_each():
    """On (T, K) training rows and (T, L) taps the interference is (T,),
    each entry bit for bit that of the trial's rows alone."""
    cfg = paper_config()
    x, taps = (np.stack(rows) for rows in zip(
        *(scenario(seed=40 + t)[1:] for t in range(3))))
    for m in (0, 1):
        for k in (-26, 3):
            stacked = ici_term(k, m, x, taps, CFO_OP, SFO_OP, cfg)
            assert stacked.shape == (3,)
            for t in range(3):
                assert stacked[t] == ici_term(k, m, x[t], taps[t], CFO_OP,
                                              SFO_OP, cfg)


def test_received_spectrum_decomposition():
    """Demodulated bin equals carrier gain times the wanted symbol plus the
    coupled interference of every other active subcarrier."""
    worst = 0.0
    for trial in range(10):
        cfg, x, taps = scenario(seed=100 + trial)
        rng = np.random.default_rng(trial)
        cfo = float(rng.uniform(-0.5, 0.5))
        sfo = float(rng.uniform(-5e-4, 5e-4))
        ks = cfg.subcarrier_indices
        h = gains(cfg, taps)
        for m, r in enumerate(observe(cfg, x, taps, cfo, sfo)):
            gain = carrier_gain(ks, m, cfo, sfo, cfg)
            ici = np.array([ici_term(k, m, x, taps, cfo, sfo, cfg)
                            for k in ks])
            recon = gain * x * h + ici
            worst = max(worst, float(np.max(np.abs(r - recon))))
    assert worst <= 1e-10


def test_decomposition_collapses_at_zero_offsets():
    cfg, x, taps = scenario(seed=33)
    _, r1 = observe(cfg, x, taps, 0.0, 0.0)
    h = gains(cfg, taps)
    npt.assert_allclose(r1, x * h, rtol=0, atol=1e-12)


# --------------------------------------------------------------- substreams


def test_derive_rng_frozen_draws():
    stream = derive_rng(42, 7, "training")
    npt.assert_array_equal(
        stream.integers(0, 2 ** 63, 3),
        [3104810275668962696, 496711412429716735, 488722387183745485])
    assert derive_rng(42, 7, "channel").standard_normal() == pytest.approx(
        1.064993621927635, rel=1e-15)


def test_derive_rng_repeatable_and_label_sensitive():
    a = derive_rng(3, 15000, 2, "noise0").integers(0, 2 ** 31, 4)
    b = derive_rng(3, 15000, 2, "noise0").integers(0, 2 ** 31, 4)
    c = derive_rng(3, 15000, 2, "noise1").integers(0, 2 ** 31, 4)
    npt.assert_array_equal(a, b)
    assert not np.array_equal(a, c)


def test_derive_rng_masks_wide_seeds():
    a = derive_rng(2 ** 64 + 5, "x").integers(0, 100, 8)
    b = derive_rng(5, "x").integers(0, 100, 8)
    npt.assert_array_equal(a, b)


def test_derive_rng_rejects_unhashable_key_types():
    with pytest.raises(TypeError):
        derive_rng(1, 2.5)


@settings(max_examples=40, deadline=None, database=None)
@given(seed=MASTER_SEEDS, key=STREAM_KEYS,
       labels=st.lists(st.one_of(LABELS, st.integers(-(2 ** 40), 2 ** 40),
                                 st.text(max_size=3)),
                       min_size=1, max_size=6, unique=True),
       trials=TRIAL_INDICES)
@example(seed=12345, key=-7500, labels=["training", "channel", "noise0",
                                        "noise1", 7, -1], trials=[0, 5, 2])
@example(seed=1, key=15000, labels=[3, "noise0"], trials=[9])
def test_label_tables_in_one_pass_match_derive_states(seed, key, labels,
                                                       trials):
    """The tables of several labels mixed in one pass, int labels (one
    word, or two when negative) and str labels (two words) among them,
    equal each label's table derived alone, at one trial and at many."""
    tables = ofdm_model._derive_tables(seed, [key], trials, labels)
    assert sorted(tables, key=labels.index) == labels
    for label in labels:
        npt.assert_array_equal(tables[label], ofdm_model._derive_tables(
            seed, (key,), trials, (label,))[label])
        assert tables[label].flags.c_contiguous


@pytest.mark.parametrize("keys", [
    (), ("x",), (0,), (2 ** 70,), (-1, "noise0"), (1, 2, 3, 4, 5, 6, 7, 8),
    (15000, 2 ** 32, "channel"),
])
def test_derive_rng_matches_numpy_seeding_for_any_key_path(keys):
    assert derive_rng(7, *keys).bit_generator.state \
        == oracle_stream(7, *keys).bit_generator.state


@pytest.mark.parametrize("trials", [[-1], [2 ** 32], [0.5], [[0, 1]]])
def test_derive_states_rejects_indices_outside_one_word(trials):
    with pytest.raises(ValueError, match="trial"):
        ofdm_model._derive_tables(1, (15000,), trials, ("noise0",))


def test_snr_stream_key():
    assert snr_stream_key(15.0) == 15000
    assert snr_stream_key(0.0) == 0
    assert snr_stream_key(29.999) == 29999
    assert snr_stream_key(-7.5) == -7500
