"""Bound tests: the closed-form Fisher matrix against the
finite-difference oracle, the 2x2 inversion, and the scenario-averaged
bound of the harness's CRB sweep."""

import math

import numpy as np
import numpy.testing as npt
import pytest
from hypothesis import assume, example, given, settings, strategies as st

from ofdm_sync_lab import (
    QPSK_ALPHABET,
    OfdmConfig,
    channel_taps,
    crb_rows,
    fisher_rows,
    invertible,
    make_experiment,
    make_grid,
    noise_variance_from_snr,
    noiseless_burst,
    run_crb_sweep,
    synthesize_rows,
)
from ofdm_sync_lab import crb, harness, ofdm_model
import reference
from reference import compare_fisher, derive_rng, fisher_numeric_oracle

CFG = OfdmConfig(64, 52, 16)
CFO_OP = 0.212
SFO_OP = 0.000112

# Largest relative error the closed-form Fisher entries may show against
# the numeric oracle: the sweeps bound every trial with the closed form,
# and these tests are what hold it to the oracle.
CRB_AGREEMENT_RTOL = 1e-3

# Single unit tap + all-ones training, one burst: every tested route must
# agree here.
FLAT_X = np.ones((1, 52), dtype=complex)
FLAT_TAPS = np.ones((1, 1), dtype=complex)


def flat_burst(sfo=0.0):
    return noiseless_burst(CFG, FLAT_X, FLAT_TAPS, sfo)


def draw_scenario(training_rng, channel_rng, config=CFG, n_taps=5):
    """A QPSK training row, which both symbols repeat, and Rayleigh taps,
    drawn as the harness draws a trial's scenario from its two streams,
    as a stack of one burst: (x, taps)."""
    x = QPSK_ALPHABET[training_rng.integers(0, 4, config.n_active)][None]
    taps = channel_taps(channel_rng.standard_normal((1, 2, n_taps)))
    return x, taps


def scenario(seed):
    return draw_scenario(derive_rng(seed, "training"),
                         derive_rng(seed, "channel"))


def scenario_burst(seed, sfo=SFO_OP):
    """The noiseless burst of :func:`scenario` at ``sfo``."""
    return noiseless_burst(CFG, *scenario(seed), sfo)


def one_row(entries):
    """The entries of a stack of one burst, as Python floats."""
    return tuple(f.item() for f in entries)


def crb_pair(f00, f01, f11):
    """(crb_cfo, crb_sfo) of one Fisher matrix, which must be invertible."""
    crb_cfo, crb_sfo, det = crb_rows(f00, f01, f01, f11)
    assert invertible(det).all()
    return crb_cfo.item(), crb_sfo.item()


def test_noise_var_must_be_positive():
    with pytest.raises(ValueError):
        fisher_rows(CFG, flat_burst(), 0.0, 0.0)
    with pytest.raises(ValueError):
        fisher_numeric_oracle(CFG, flat_burst(), 0.0, -0.1)
    # One noise variance per row: every one must be positive.
    burst = noiseless_burst(CFG, np.ones((2, 52)), np.ones((2, 1)), 0.0)
    for fn in (fisher_rows, fisher_numeric_oracle, compare_fisher):
        with pytest.raises(ValueError):
            fn(CFG, burst, 0.0, np.array([0.1, 0.0]))


# ------------------------------------------------------------- closed form


def test_flat_channel_frozen_values():
    f00, f01, f11 = one_row(fisher_rows(CFG, flat_burst(), 0.0, 0.1))
    assert f00 == pytest.approx(115475.22521342454, rel=1e-12)
    assert f01 == pytest.approx(-57737.612606712566, rel=1e-12)
    assert f11 == pytest.approx(46336930.598625384, rel=1e-12)


def test_flat_channel_matches_oracle():
    rel, _ = compare_fisher(CFG, flat_burst(), 0.0, 0.1)
    assert rel.max() < 1e-8


def test_operating_point_matches_oracle():
    noise_var = noise_variance_from_snr(CFG, 15.0)
    rel, _ = compare_fisher(CFG, scenario_burst(7), CFO_OP, noise_var)
    assert rel.max() < 1e-3
    # the agreement is in fact far tighter than the acceptance bar
    assert rel.max() < 1e-6


@pytest.mark.parametrize("seed", range(10))
def test_random_scenarios_match_oracle(seed):
    rng = np.random.default_rng(1000 + seed)
    cfo = float(rng.uniform(-0.4, 0.4))
    sfo = float(rng.uniform(-4e-4, 4e-4))
    noise_var = noise_variance_from_snr(CFG, float(rng.uniform(0.0, 30.0)))
    rel, _ = compare_fisher(CFG, scenario_burst(300 + seed, sfo), cfo,
                            noise_var)
    assert rel.max() < 1e-3


def test_closed_form_checks_its_cfo():
    """A cfo of 1e300 once raised OverflowError from the Fisher weights, and
    a NaN cfo gave NaN entries with no error."""
    burst = scenario_burst(7)
    for cfo, fragment in ((1e300, "cfo must lie inside"),
                          (-64.0, "cfo must lie inside"),
                          (math.nan, "cfo must be finite"),
                          (math.inf, "cfo must be finite")):
        with pytest.raises(ValueError, match=fragment):
            fisher_rows(CFG, burst, cfo, 1.0)
    assert np.isfinite(fisher_rows(CFG, burst, 63.9, 1.0)).all()


def test_entries_scale_inversely_with_noise():
    burst = scenario_burst(9)
    a = one_row(fisher_rows(CFG, burst, CFO_OP, 0.05))
    b = one_row(fisher_rows(CFG, burst, CFO_OP, 0.10))
    for entry_a, entry_b in zip(a, b):
        assert entry_b == pytest.approx(entry_a / 2.0, rel=1e-12)


def test_information_is_positive_definite():
    f00, f01, f11 = one_row(fisher_rows(CFG, scenario_burst(10), CFO_OP,
                                        noise_variance_from_snr(CFG, 20.0)))
    assert f00 > 0.0
    assert f11 > 0.0
    assert f00 * f11 - f01 * f01 > 0.0


@st.composite
def fisher_scenarios(draw):
    """Random geometry (cp = 0 and K = N included), channel and offsets."""
    dft_size = draw(st.sampled_from([16, 32, 64, 128]))
    config = OfdmConfig(dft_size, 2 * draw(st.integers(1, dft_size // 2)),
                        draw(st.integers(0, dft_size // 4)))
    seed = draw(st.integers(0, 2 ** 32 - 1))
    x, taps = draw_scenario(
        derive_rng(seed, "training"), derive_rng(seed, "channel"), config,
        draw(st.integers(1, 8)))
    cfo = draw(st.floats(-0.4, 0.4, exclude_min=True, exclude_max=True))
    sfo = draw(st.floats(-5e-4, 5e-4, exclude_min=True, exclude_max=True))
    noise_var = draw(st.floats(1e-3, 1.0))
    return config, x, taps, cfo, sfo, noise_var


@settings(max_examples=40, deadline=None, database=None)
@given(scenario_args=fisher_scenarios())
@example(scenario_args=(OfdmConfig(16, 2, 0),
                        np.ones((1, 2), dtype=complex),
                        FLAT_TAPS, 0.0, 0.0, 1e-3))
def test_closed_form_matches_oracle_over_random_geometries(scenario_args):
    config, x, taps, cfo, sfo, noise_var = scenario_args
    rel, _ = compare_fisher(config, noiseless_burst(config, x, taps, sfo), cfo,
                            noise_var)
    assert rel.max() < CRB_AGREEMENT_RTOL


# Extreme geometries and offsets, each an experiment the sweeps accept:
# K = 2 and K = N, cp = 0 and cp = N / 4, 1 to 64 taps, |cfo| up to 60
# subcarrier spacings and sfo from -0.999 to 0.99, some at SNR ends far
# past the defaults. Measured: 1.1e-9 to 1.7e-8. N stays <= 512 so the
# cases take well under a second together.
@pytest.mark.parametrize("geometry", [
    dict(dft_size=16, n_active=2, cp_len=0, cfo=0.0, sfo=0.0, n_taps=1),
    dict(dft_size=16, n_active=16, cp_len=4, cfo=-15.9, sfo=0.5, n_taps=8,
         snr_points_db=(-40.0, 80.0)),
    dict(dft_size=64, n_active=52, cp_len=16, cfo=0.212, sfo=0.000112,
         n_taps=5),
    dict(dft_size=128, n_active=2, cp_len=32, cfo=-0.4, sfo=-0.999,
         n_taps=3, snr_points_db=(-40.0, 80.0)),
    dict(dft_size=256, n_active=256, cp_len=64, cfo=0.3, sfo=0.99,
         n_taps=64),
    dict(dft_size=512, n_active=512, cp_len=128, cfo=-60.0, sfo=-0.9,
         n_taps=32),
    dict(dft_size=512, n_active=500, cp_len=0, cfo=30.1, sfo=0.5, n_taps=5,
         snr_points_db=(-40.0, 80.0)),
])
def test_closed_form_matches_oracle_at_extreme_experiments(geometry):
    """The closed form the sweeps use agrees with the oracle on two seeded
    scenario draws of an experiment, under a str stream key that no SNR
    point shares, one at each end of its SNR axis."""
    cfg = make_experiment(**{"snr_points_db": (0.0, 30.0), **geometry},
                          grid=make_grid(1e-3, 1e-3, 1e-4, 1e-4))
    _, x, taps, _ = next(harness._chunks(cfg, ("crb-backend-probe",),
                                         range(2), ("training", "channel"))[0])
    noise_var = np.array([noise_variance_from_snr(cfg.ofdm, snr_db) for
                          snr_db in (cfg.snr_points_db[0],
                                     cfg.snr_points_db[-1])])
    burst = noiseless_burst(cfg.ofdm, x, taps, cfg.sfo)
    rel, report = compare_fisher(cfg.ofdm, burst, cfg.cfo, noise_var)
    assert rel.max() < CRB_AGREEMENT_RTOL, report


# ---------------------------------------------------- reference arithmetic


def reference_fisher_rows(config, x, taps, cfo, sfo, noise_var):
    """The closed form as sums of complex-weighted summands, with x H,
    k x H, g and d formed afresh for every symbol."""
    h = ofdm_model._channel_gains(config, taps)
    ks = config.subcarrier_indices
    f00 = f01 = f11 = 0.0
    for m in range(2):
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
    """A geometry and a chunk of 1-40 bursts; offsets may be exactly 0."""
    dft_size = draw(st.sampled_from([16, 32, 64]))
    config = OfdmConfig(dft_size, 2 * draw(st.integers(1, dft_size // 2)),
                        draw(st.integers(0, dft_size // 4)))
    n_trials = draw(st.integers(1, 40))
    rng = np.random.default_rng(draw(st.integers(0, 2 ** 32 - 1)))
    x = QPSK_ALPHABET[rng.integers(0, 4, (n_trials, config.n_active))]
    taps = channel_taps(rng.standard_normal(
        (n_trials, 2, draw(st.integers(1, 8)))))
    cfo = draw(st.just(0.0) | st.floats(-0.4, 0.4))
    sfo = draw(st.just(0.0) | st.floats(-5e-4, 5e-4))
    noise_var = draw(st.sampled_from([0.0, 0.5]))
    normals = rng.standard_normal((n_trials, 2, 2, dft_size))
    return config, x, taps, cfo, sfo, noise_var, normals


@settings(max_examples=60, deadline=None, database=None)
@given(stack=training_stacks())
def test_fisher_rows_equal_the_complex_weight_formula(stack):
    """Bit for bit, on a noiseless burst that synthesis has read first, as
    a fig2 chunk shares it; that synthesis equals ``synthesize_rows`` of a
    fresh burst."""
    config, x, taps, cfo, sfo, noise_var, normals = stack
    expected = reference_fisher_rows(config, x, taps, cfo, sfo, 0.1)
    burst = noiseless_burst(config, x, taps, sfo)
    samples = synthesize_rows(config, burst, cfo, noise_var, normals)
    for got, want in zip(fisher_rows(config, burst, cfo, 0.1), expected):
        assert got.tobytes() == want.tobytes()
    alone = synthesize_rows(config, noiseless_burst(config, x, taps, sfo),
                            cfo, noise_var, normals)
    assert samples.tobytes() == alone.tobytes()


def reference_samples(config, x, taps, cfo, sfo):
    """The time-domain model of ``synthesize_rows``' docstring, with each
    symbol's lead and warped basis formed afresh, (T, 2, N)."""
    xh = x * ofdm_model._channel_gains(config, taps)
    n = np.arange(config.dft_size)
    symbols = []
    for m in range(2):
        start = config.symbol_start(m)
        lead = np.exp(2j * np.pi * (start + n) * (1.0 + sfo) * cfo
                      / config.dft_size)
        basis = np.exp(2j * np.pi / config.dft_size * np.outer(
            n * (1.0 + sfo) + sfo * start, config.subcarrier_indices))
        symbols.append(lead * (basis @ xh[..., None])[..., 0]
                       / np.sqrt(config.dft_size))
    return np.stack(symbols, axis=1)


@pytest.mark.parametrize("sfo", [-3e-4, 4e-4])
def test_a_burst_is_synthesized_and_bounded_at_its_own_sfo(sfo):
    """A burst warped at an sfo other than the experiment's carries it:
    synthesis, the closed form and the oracle all read the burst there,
    never at the experiment's sfo."""
    cfg = make_experiment()
    assert sfo != cfg.sfo
    x, taps = scenario(15)
    burst = noiseless_burst(cfg.ofdm, x, taps, sfo)
    assert burst[2] == sfo
    npt.assert_allclose(synthesize_rows(cfg.ofdm, burst, cfg.cfo),
                        reference_samples(cfg.ofdm, x, taps, cfg.cfo, sfo),
                        rtol=0, atol=1e-12)
    expected = reference_fisher_rows(cfg.ofdm, x, taps, cfg.cfo, sfo, 0.1)
    for got, want in zip(fisher_rows(cfg.ofdm, burst, cfg.cfo, 0.1),
                         expected):
        assert got.tobytes() == want.tobytes()
    npt.assert_allclose(
        fisher_numeric_oracle(cfg.ofdm, burst, cfg.cfo, 0.1), expected,
        rtol=1e-6)
    at_cfg = reference_fisher_rows(cfg.ofdm, x, taps, cfg.cfo, cfg.sfo, 0.1)
    assert not np.allclose(expected, at_cfg, rtol=1e-4, atol=0)


@settings(max_examples=40, deadline=None, database=None)
@given(stack=training_stacks(), per_row_noise=st.booleans())
def test_oracle_rows_equal_stacks_of_one(stack, per_row_noise):
    """The numeric oracle on a stack of T bursts gives each row's entries
    bit for bit as that row run as a stack of one, at one noise variance
    or one per row; so does the comparison's relative error, and its
    report is that of the first row with the largest."""
    config, x, taps, cfo, sfo, _, _ = stack
    n_trials = len(taps)
    noise_var = (np.linspace(0.05, 0.5, n_trials) if per_row_noise
                 else 0.1)
    burst = noiseless_burst(config, x, taps, sfo)
    stacked = fisher_numeric_oracle(config, burst, cfo, noise_var)
    rel, report = compare_fisher(config, burst, cfo, noise_var)
    reports = []
    for t in range(n_trials):
        row = slice(t, t + 1)
        row_noise = noise_var[row] if per_row_noise else noise_var
        burst_alone = noiseless_burst(config, x[row], taps[row], sfo)
        alone = fisher_numeric_oracle(config, burst_alone, cfo, row_noise)
        for got, want in zip(stacked, alone):
            assert got[t:t + 1].tobytes() == want.tobytes()
        rel_alone, report_alone = compare_fisher(config, burst_alone, cfo,
                                                 row_noise)
        assert rel[t:t + 1].tobytes() == rel_alone.tobytes()
        reports.append(report_alone)
    assert report == reports[int(np.argmax(rel))]


# --------------------------------------------------------- memoized arrays


@settings(max_examples=40, deadline=None, database=None)
@given(scenario_args=fisher_scenarios())
def test_cached_basis_matches_fresh_build_over_random_geometries(
        scenario_args):
    """Bit for bit, on the miss that fills the cache and on a hit."""
    config, _, taps, _, sfo, _ = scenario_args
    taps = taps[0]
    ks = config.subcarrier_indices
    n = np.arange(config.dft_size)
    h_fresh = np.exp(-1j * 2.0 * np.pi * ks[:, None]
                     * np.arange(taps.size) / config.dft_size) @ taps
    for m in range(2):
        warp = n * (1.0 + sfo) + sfo * config.symbol_start(m)
        fresh = np.exp(1j * 2.0 * np.pi / config.dft_size
                       * np.outer(warp, ks))
        for _ in range(2):
            basis = ofdm_model._warped_basis(config, sfo, m)
            h = ofdm_model._channel_gains(config, taps)
            assert basis.tobytes() == fresh.tobytes()
            assert h.tobytes() == h_fresh.tobytes()


def test_fisher_weights_are_read_only():
    for weight in crb._fisher_weights(CFG, CFO_OP, SFO_OP, 1):
        with pytest.raises(ValueError, match="read-only"):
            weight[0] = 0


def test_offset_keyed_caches_stay_bounded():
    caches = (ofdm_model._warped_basis, ofdm_model._cfo_lead,
              crb._fisher_weights)
    for i in range(max(c.cache_info().maxsize for c in caches) + 8):
        burst = scenario_burst(3, i * 1e-6)
        synthesize_rows(CFG, burst, CFO_OP)
        fisher_rows(CFG, burst, CFO_OP, 0.1)
    for cache in caches:
        info = cache.cache_info()
        assert 0 < info.currsize <= info.maxsize


# ------------------------------------------------------------------ oracle


def test_oracle_cfo_derivative_matches_analytic_ramp():
    """d/d cfo of the noiseless mean is j (2 pi / N)(N_m + n)(1 + sfo) s,
    because cfo enters only through the leading phase ramp."""
    burst = scenario_burst(11)
    noise_var = 0.1
    oracle = one_row(fisher_numeric_oracle(CFG, burst, CFO_OP, noise_var))
    rows = []
    samples = synthesize_rows(CFG, burst, CFO_OP)[0]
    for m, s in enumerate(samples):
        n = np.arange(64)
        slope = 2 * np.pi / 64 * (CFG.symbol_start(m) + n) * (1 + SFO_OP)
        rows.append(1j * slope * s)
    d_cfo = np.concatenate(rows)
    f00 = 2.0 / noise_var * float(np.sum(np.abs(d_cfo) ** 2))
    assert oracle[0] == pytest.approx(f00, rel=1e-6)


def test_oracle_is_step_insensitive():
    burst = scenario_burst(12)
    noise_var = noise_variance_from_snr(CFG, 10.0)
    fine = one_row(fisher_numeric_oracle(CFG, burst, CFO_OP, noise_var,
                                         cfo_step=1e-6, sfo_step=1e-8))
    coarse = one_row(fisher_numeric_oracle(CFG, burst, CFO_OP, noise_var,
                                           cfo_step=1e-5, sfo_step=1e-7))
    for a, b in zip(fine, coarse):
        assert abs(a - b) / max(abs(a), abs(b)) < 1e-4


def test_oracle_rejects_bad_steps():
    with pytest.raises(ValueError, match="cfo_step"):
        fisher_numeric_oracle(CFG, flat_burst(), 0.0, 0.1, cfo_step=0.0)
    with pytest.raises(ValueError, match="sfo_step"):
        fisher_numeric_oracle(CFG, flat_burst(), 0.0, 0.1, sfo_step=-1e-8)
    # Offsets the signal model rejects: every perturbed point is checked,
    # so a burst just inside (-1, 1) fails on the sfo step past the end.
    for cfo, sfo in ((np.nan, 0.0), (np.inf, 0.0), (-np.inf, 0.0),
                     (0.0, np.nan), (0.0, -1.0), (0.0, -1.5),
                     (0.0, -0.999999995), (0.0, 0.999999995)):
        with pytest.raises(ValueError):
            fisher_numeric_oracle(CFG, flat_burst(sfo), cfo, 0.1)


def test_oracle_rewarps_only_at_the_perturbed_sfos(monkeypatch):
    """The CFO-perturbed means read the burst's own g_m, so the oracle
    warps the x H rows twice, once per sfo step, and not at the burst's
    sfo again."""
    warped = []

    def counted(config, xh, sfo):
        warped.append(sfo)
        return ofdm_model._warped(config, xh, sfo)

    monkeypatch.setattr(reference, "_warped", counted)
    fisher_numeric_oracle(CFG, scenario_burst(5), CFO_OP, 0.1)
    assert warped == [SFO_OP + reference.SFO_STEP_DEFAULT,
                      SFO_OP - reference.SFO_STEP_DEFAULT]


def test_comparison_report_contents():
    _, report = compare_fisher(CFG, flat_burst(), 0.0, 0.1)
    assert "fisher closed-form vs numeric oracle" in report
    assert "f00: closed=" in report
    assert "max relative error:" in report


# --------------------------------------------------------------- inversion


def test_crb_from_diagonal_fisher():
    crb_cfo, crb_sfo = crb_pair(4.0, 0.0, 8.0)
    assert crb_cfo == pytest.approx(0.25, rel=1e-15)
    assert crb_sfo == pytest.approx(0.125, rel=1e-15)


def test_crb_from_coupled_fisher():
    crb_cfo, crb_sfo = crb_pair(2.0, 1.0, 2.0)
    assert crb_cfo == pytest.approx(2.0 / 3.0, rel=1e-15)
    assert crb_sfo == pytest.approx(2.0 / 3.0, rel=1e-15)


def test_coupling_never_tightens_the_bound():
    f00, f01, f11 = one_row(fisher_rows(CFG, scenario_burst(13), CFO_OP,
                                        noise_variance_from_snr(CFG, 15.0)))
    crb_cfo, crb_sfo = crb_pair(f00, f01, f11)
    assert crb_cfo >= 1.0 / f00
    assert crb_sfo >= 1.0 / f11


def test_singular_fisher_is_not_invertible():
    """Singular, zero and infinite Fisher matrices, one row each, have no
    usable bound; the invertible rows beside them keep theirs."""
    f00, f01, f11 = (np.array([1.0, 0.0, np.inf, 4.0]),
                     np.array([1.0, 0.0, 0.0, 0.0]),
                     np.array([1.0, 0.0, 1.0, 8.0]))
    crb_cfo, crb_sfo, det = crb_rows(f00, f01, f01, f11)
    npt.assert_array_equal(invertible(det), [False, False, False, True])
    assert (crb_cfo[3], crb_sfo[3]) == (0.25, 0.125)


# Either sign of a mantissa in [1, 2) times 2**e, -1074 <= e <= 510: no
# product of two entries overflows, so most determinants are normal, and
# entries of far different sizes still meet in one row, where a row scaled
# by its largest entry would lose the small ones' bits.
ENTRIES = st.builds(lambda sign, m, e: sign * math.ldexp(m, e),
                    st.sampled_from([1.0, -1.0]),
                    st.floats(1.0, 2.0, exclude_max=True),
                    st.integers(-1074, 510))


@settings(max_examples=300, deadline=None, database=None)
@given(f00=ENTRIES, f01=ENTRIES, f10=ENTRIES, f11=ENTRIES)
@example(f00=1e-200, f01=1e-201, f10=1e-201, f11=1e-200)
@example(f00=2.0, f01=0.5, f10=0.5, f11=3.0)
@example(f00=1e154, f01=0.0, f10=0.0, f11=1e154)
@example(f00=0.0, f01=1e300, f10=4e-296, f11=0.0)
def test_scaled_inversion_keeps_every_normal_determinants_bits(f00, f01,
                                                               f10, f11):
    """Wherever the determinant is a normal float, the bounds are
    f11 / det and f00 / det bit for bit, and det has its sign: only rows
    whose det underflows or overflows are scaled."""
    with np.errstate(all="ignore"):
        det = np.float64(f00) * f11 - np.float64(f01) * f10
        plain = (np.float64(f11) / det, np.float64(f00) / det)
    assume(np.isfinite(det) and abs(det) >= np.finfo(float).tiny)
    crb_cfo, crb_sfo, scaled_det = crb_rows(f00, f01, f10, f11)
    assert (crb_cfo.tobytes(), crb_sfo.tobytes()) == (plain[0].tobytes(),
                                                      plain[1].tobytes())
    assert np.sign(scaled_det) == np.sign(det)


@pytest.mark.parametrize("noise_var", [1e200, 1e-300])
def test_bounds_at_extreme_noise_are_finite(noise_var):
    """Fisher entries near 1e-200 or 1e300 have a determinant that
    underflows or overflows, but the bounds scale with the noise."""
    f00, f01, f11 = fisher_rows(CFG, flat_burst(SFO_OP), CFO_OP, noise_var)
    reference = fisher_rows(CFG, flat_burst(SFO_OP), CFO_OP, 1.0)
    with np.errstate(all="ignore"):
        assert not invertible(f00 * f11 - f01 * f01).any()
    bounds = np.array(crb_pair(f00, f01, f11)) / noise_var
    npt.assert_allclose(bounds, crb_pair(*reference), rtol=1e-12)


def test_crb_scales_linearly_with_noise():
    """10 dB less SNR means exactly 10x the noise variance and exactly 10x
    both bounds."""
    burst = scenario_burst(14)
    low = crb_pair(*fisher_rows(CFG, burst, CFO_OP,
                                noise_variance_from_snr(CFG, 20.0)))
    high = crb_pair(*fisher_rows(CFG, burst, CFO_OP,
                                 noise_variance_from_snr(CFG, 10.0)))
    assert high[0] == pytest.approx(10.0 * low[0], rel=1e-12)
    assert high[1] == pytest.approx(10.0 * low[1], rel=1e-12)


# ----------------------------------------------------------- averaged CRB


def averaged_crb(snr_db, n_trials, seed, cfo=CFO_OP, sfo=SFO_OP):
    """The CRB sweep's single row at one SNR point."""
    sweep = run_crb_sweep(make_experiment(
        cfo=cfo, sfo=sfo, snr_points_db=(snr_db,), n_trials=n_trials,
        master_seed=seed))
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
    x, taps = draw_scenario(derive_rng(seed, skey, 0, "training"),
                                  derive_rng(seed, skey, 0, "channel"))
    direct = crb_pair(*fisher_rows(CFG, noiseless_burst(CFG, x, taps, SFO_OP),
                                   CFO_OP,
                                   noise_variance_from_snr(CFG, snr_db)))
    assert (row.crb_cfo, row.crb_sfo) == direct


def test_average_crb_fixed_draw_identity(monkeypatch):
    """A scenario draw ignoring its streams makes the average equal the
    single realization regardless of the trial count."""
    def fixed_draw(cfg, indices, picks, seeds):
        rows = (len(indices), 1)
        return (tuple(indices), np.tile(FLAT_X[0], rows),
                np.tile(FLAT_TAPS[0], rows), None)

    monkeypatch.setattr(harness, "_draw", fixed_draw)
    row = averaged_crb(15.0, 5, 1, cfo=0.0, sfo=0.0)
    crb_cfo, crb_sfo = crb_pair(*fisher_rows(
        CFG, flat_burst(), 0.0, noise_variance_from_snr(CFG, 15.0)))
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
    calls = []

    def flaky_fisher(config, burst, cfo, noise_var):
        """The closed form with the chunk's first row made singular."""
        calls.append(len(burst[0]))
        entries = fisher_rows(config, burst, cfo, noise_var)
        for f in entries:
            f[0] = 1.0
        return entries

    monkeypatch.setattr(harness, "fisher_rows", flaky_fisher)
    row = averaged_crb(15.0, 4, 12345)
    assert row.crb_excluded == 1
    assert calls == [4]  # one Fisher call bounds the chunk's four trials
    assert np.isfinite(row.crb_cfo)


# A zero trial count is rejected by ExperimentConfig before any sweep
# runs: tests/test_harness.py::test_experiment_config_validation.
