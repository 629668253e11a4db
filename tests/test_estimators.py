"""Estimator tests: phase-ramp model, both cost functions, the lattice
search and its correlation kernel, refinement, and the two residual
diagnostics."""

import numpy as np
import numpy.testing as npt
import pytest
from hypothesis import example, given, settings, strategies as st

from ofdm_sync_lab import (
    DegenerateObservationError,
    GridEvaluator,
    GridSpec,
    NonFiniteSurfaceError,
    PreambleObservation,
    QPSK_ALPHABET,
    TrainingSymbols,
    channel_taps,
    demodulate_rows,
    derive_rng,
    estimate_nguyenle,
    estimate_proposed,
    make_config,
    make_grid,
    nguyenle_cost,
    nguyenle_observable,
    noise_variance_from_snr,
    pair_residual,
    pair_residual_rows,
    proposed_cost,
    ratio_residual,
    symbol_phase_ramp,
    synthesize_rows,
)
from ofdm_sync_lab.estimators import _argmin_lattice

CFG = make_config(64, 52, 16)
GRID = make_grid()


def training(seed):
    """A seeded QPSK training symbol."""
    return QPSK_ALPHABET[derive_rng(seed, "training").integers(0, 4, 52)]


def observation(seed, cfo, sfo, snr_db=None):
    """Seeded demodulated preamble; noiseless when snr_db is None."""
    x = training(seed)
    taps = channel_taps(derive_rng(seed, "channel").standard_normal((2, 5)))
    noise_var, normals = 0.0, None
    if snr_db is not None:
        noise_var = noise_variance_from_snr(CFG, snr_db)
        normals = np.stack([derive_rng(seed, label).standard_normal((2, 64))
                            for label in ("noise0", "noise1")])[None]
    r0, r1 = demodulate_rows(synthesize_rows(
        CFG, (x[None], x[None]), taps[None], cfo, sfo, noise_var, normals),
        CFG)[0]
    return PreambleObservation(r0, r1, TrainingSymbols(x, x))


# -------------------------------------------------------------------- grid


def test_default_grid_axes():
    assert GRID.shape == (101, 101)
    npt.assert_array_equal(GRID.cfo_values, 0.01 * np.arange(-50, 51))
    npt.assert_array_equal(GRID.sfo_values, 1e-5 * np.arange(-50, 51))
    assert GRID.cfo_values[50] == 0.0
    assert GRID.sfo_values[50] == 0.0
    assert GRID.cfo_values[0] == pytest.approx(-0.5, rel=1e-15)
    assert GRID.cfo_values[-1] == pytest.approx(0.5, rel=1e-15)
    assert GRID.sfo_values[0] == pytest.approx(-5e-4, rel=1e-15)


def test_zero_max_pins_axis():
    grid = make_grid(cfo_max=0.0)
    npt.assert_array_equal(grid.cfo_values, [0.0])
    assert grid.sfo_values.size == 101
    grid2 = make_grid(sfo_max=0.0)
    npt.assert_array_equal(grid2.sfo_values, [0.0])


def test_make_grid_rejects_bad_steps():
    with pytest.raises(ValueError):
        make_grid(cfo_step=0.0)
    with pytest.raises(ValueError):
        make_grid(sfo_step=-1e-5)
    with pytest.raises(ValueError):
        make_grid(cfo_max=-0.1)
    for kwargs in ({"cfo_step": np.inf}, {"cfo_step": np.nan},
                   {"sfo_step": np.inf}, {"sfo_step": np.nan},
                   {"cfo_max": np.inf}, {"cfo_max": np.nan},
                   {"sfo_max": np.inf}, {"sfo_max": np.nan}):
        (name,) = kwargs
        with pytest.raises(ValueError, match=f"{name} must be finite"):
            make_grid(**kwargs)
    # finite, but more points than an array index can count
    for kwargs in ({"cfo_step": 1e-320}, {"sfo_step": 1e-300}):
        with pytest.raises(ValueError, match="overflows"):
            make_grid(**kwargs)


def test_grid_spec_validation():
    with pytest.raises(ValueError, match="ascending"):
        GridSpec(np.array([0.1, 0.0]), np.array([0.0]))
    with pytest.raises(ValueError, match="non-empty"):
        GridSpec(np.array([]), np.array([0.0]))
    with pytest.raises(ValueError, match="non-finite"):
        GridSpec(np.array([0.0, np.nan]), np.array([0.0]))
    assert GridSpec(np.array([0.0]), np.array([-1.0, 1.0])).shape == (1, 2)


# -------------------------------------------------------------------- ramp


def test_ramp_is_one_at_zero_offsets():
    ks = CFG.subcarrier_indices
    npt.assert_array_equal(symbol_phase_ramp(ks, 0.0, 0.0, CFG),
                           np.ones(52))


def test_ramp_unit_modulus():
    ks = CFG.subcarrier_indices
    for cfo, sfo in ((0.212, 0.000112), (-0.5, 5e-4), (0.37, -2e-4)):
        ramp = symbol_phase_ramp(ks, cfo, sfo, CFG)
        npt.assert_allclose(np.abs(ramp), 1.0, rtol=0, atol=1e-14)


def test_ramp_frozen_phase():
    """k=0, cfo=0.25, sfo=0: phase is 2 pi (N+N_g) 0.25 / N = 2 pi 20/64."""
    ramp = symbol_phase_ramp(0, 0.25, 0.0, CFG)
    assert np.angle(ramp) == pytest.approx(1.9634954084936207, rel=1e-12)


def test_ramp_sfo_phase_scales_with_subcarrier():
    sfo = 3e-4
    for k in (-26, -1, 10, 25):
        ramp = symbol_phase_ramp(k, 0.0, sfo, CFG)
        expected = 2 * np.pi * 80.0 / 64.0 * k * sfo
        assert np.angle(ramp) == pytest.approx(expected, abs=1e-13)


# ----------------------------------------------------------- proposed cost


def test_proposed_cost_zero_at_exact_model_match():
    rng = np.random.default_rng(2)
    x = training(2)
    tr = TrainingSymbols(x, x)
    r0 = rng.standard_normal(52) + 1j * rng.standard_normal(52)
    cfo, sfo = 0.17, -3e-5
    r1 = symbol_phase_ramp(CFG.subcarrier_indices, cfo, sfo, CFG) * r0
    obs = PreambleObservation(r0, r1, tr)
    assert proposed_cost(obs, cfo, sfo, CFG) < 1e-25


def test_proposed_cost_nonnegative_and_scalar():
    obs = observation(4, 0.212, 0.000112, snr_db=10.0)
    value = proposed_cost(obs, -0.3, 2e-4, CFG)
    assert isinstance(value, float)
    assert value >= 0.0


def test_proposed_cost_matches_direct_formula():
    obs = observation(5, 0.212, 0.000112, snr_db=10.0)
    ks = CFG.subcarrier_indices
    for cfo, sfo in ((0.0, 0.0), (0.212, 0.000112), (-0.41, -4.7e-4)):
        ramp = np.exp(1j * 2 * np.pi * 80.0 / 64.0
                      * (ks * sfo + cfo * (1.0 + sfo)))
        direct = float(np.sum(np.abs(obs.r1 - ramp * obs.r0) ** 2))
        assert proposed_cost(obs, cfo, sfo, CFG) == pytest.approx(
            direct, rel=1e-12)


def test_proposed_cost_broadcasts_like_scalar_calls():
    obs = observation(6, 0.1, 1e-4, snr_db=15.0)
    cfos = np.array([-0.2, 0.0, 0.1])
    sfos = np.array([-1e-4, 0.0, 1e-4, 3e-4])
    surface = proposed_cost(obs, cfos[:, None], sfos[None, :], CFG)
    assert surface.shape == (3, 4)
    for i, cfo in enumerate(cfos):
        for j, sfo in enumerate(sfos):
            assert surface[i, j] == pytest.approx(
                proposed_cost(obs, float(cfo), float(sfo), CFG), rel=1e-12)


def test_noiseless_truth_is_strict_surface_minimum():
    """eta=0, eps*=0.21: the truth lattice point beats every other point of
    the full default surface (its +/-0.8 CFO alias falls outside the grid)."""
    eps_true = float(GRID.cfo_values[71])
    obs = observation(7, eps_true, 0.0)
    surface = GridEvaluator(GRID, CFG).proposed_surface(obs)
    i, j = np.unravel_index(np.argmin(surface), surface.shape)
    assert (i, j) == (71, 50)
    flat = np.sort(surface.ravel())
    assert flat[0] < 1e-25
    assert flat[1] > 1e-6


# ------------------------------------------------------------ ratio branch


def test_observable_is_one_for_identical_symbols():
    obs = observation(8, 0.0, 0.0)
    npt.assert_allclose(nguyenle_observable(obs, CFG), 1.0,
                        rtol=0, atol=1e-12)


def test_observable_constant_ramp_when_sfo_is_zero():
    cfo = 0.21
    obs = observation(9, cfo, 0.0)
    y = nguyenle_observable(obs, CFG)
    expected = np.exp(1j * 2 * np.pi * 80.0 * cfo / 64.0)
    npt.assert_allclose(y, expected, rtol=0, atol=1e-12)
    # and the ratio residual at the truth is zero to the same tolerance
    npt.assert_allclose(ratio_residual(obs, cfo, 0.0, CFG), 0.0,
                        rtol=0, atol=1e-12)


def test_observable_flags_degenerate_bins():
    obs = observation(10, 0.1, 1e-4, snr_db=20.0)
    r0 = obs.r0.copy()
    r0[3] = 0.0
    broken = PreambleObservation(r0, obs.r1, obs.training)
    with pytest.raises(DegenerateObservationError) as excinfo:
        nguyenle_observable(broken, CFG)
    assert excinfo.value.subcarriers == (-23,)
    with pytest.raises(DegenerateObservationError):
        ratio_residual(broken, 0.1, 1e-4, CFG)
    # the pair residual does not divide, so it stays usable
    assert np.all(np.isfinite(pair_residual(broken, 0.1, 1e-4, CFG)))


def test_nguyenle_cost_zeros():
    ones = np.ones(52, dtype=complex)
    assert nguyenle_cost(ones, 0.0, 0.0, CFG) == 0.0
    eps = float(GRID.cfo_values[71])
    y = np.full(52, np.exp(1j * 2 * np.pi * 80.0 * eps / 64.0))
    assert nguyenle_cost(y, eps, 0.0, CFG) < 1e-25
    obs = observation(11, 0.2, 2e-4, snr_db=5.0)
    assert nguyenle_cost(nguyenle_observable(obs, CFG), -0.1, 1e-4,
                         CFG) >= 0.0


def test_nguyenle_cost_matches_direct_formula():
    obs = observation(12, 0.212, 0.000112, snr_db=10.0)
    y = nguyenle_observable(obs, CFG)
    ks = CFG.subcarrier_indices
    cfo, sfo = -0.07, 2.3e-4
    ramp = np.exp(1j * 2 * np.pi * 80.0 / 64.0
                  * (ks * sfo + cfo * (1.0 + sfo)))
    direct = float(np.sum(np.abs(y - ramp) ** 2))
    assert nguyenle_cost(y, cfo, sfo, CFG) == pytest.approx(direct,
                                                            rel=1e-12)


# ------------------------------------------------------------- grid search


def bowl(cfo, sfo):
    return (cfo - 0.21) ** 2 + (sfo * 1e4) ** 2


def lattice_surface(fn, grid):
    return fn(grid.cfo_values[:, None], grid.sfo_values[None, :])


def test_grid_search_finds_separable_bowl_minimum():
    i, j = _argmin_lattice(lattice_surface(bowl, GRID), GRID)
    assert GRID.cfo_values[i] == 0.21
    assert GRID.sfo_values[j] == 0.0


def test_grid_search_tie_breaks_to_first_lattice_point():
    assert _argmin_lattice(np.ones(GRID.shape), GRID) == (0, 0)
    # a signal-free pair makes the whole kernel surface exactly zero
    zeros = np.zeros(52, dtype=complex)
    silent = PreambleObservation(zeros, zeros, TrainingSymbols(zeros, zeros))
    result = GridEvaluator(GRID, CFG).search_proposed(silent)
    assert (result.cfo, result.sfo) == (GRID.cfo_values[0],
                                        GRID.sfo_values[0])
    assert result.cost == 0.0


def test_grid_search_rejects_non_finite_cost():
    surface = lattice_surface(bowl, GRID)
    surface[3, 7] = np.nan
    with pytest.raises(NonFiniteSurfaceError, match="non-finite cost"):
        _argmin_lattice(surface, GRID)
    obs = observation(29, 0.1, 1e-4, snr_db=10.0)
    r0 = obs.r0.copy()
    r0[5] = np.inf
    poisoned = PreambleObservation(r0, obs.r1, obs.training)
    with pytest.raises(NonFiniteSurfaceError, match="non-finite cost"), \
            np.errstate(invalid="ignore"):
        GridEvaluator(GRID, CFG).search_proposed(poisoned)


def test_grid_search_single_point_grid():
    grid = GridSpec(np.array([0.3]), np.array([0.0]))
    obs = observation(30, 0.2, 1e-4, snr_db=10.0)
    result = GridEvaluator(grid, CFG).search_proposed(obs)
    assert (result.cfo, result.sfo) == (0.3, 0.0)
    assert result.method == "proposed"
    assert result.cost == pytest.approx(proposed_cost(obs, 0.3, 0.0, CFG),
                                        rel=1e-12)


def test_degenerate_grid_collapses_to_cfo_only_search():
    """Pinning the SFO axis turns the joint search into the classic
    one-dimensional CFO ramp fit."""
    grid = make_grid(sfo_max=0.0)
    obs = observation(13, 0.21, 0.0, snr_db=25.0)
    result = estimate_proposed(obs, grid, CFG)
    assert result.sfo == 0.0
    line = proposed_cost(obs, grid.cfo_values, 0.0, CFG)
    assert result.cfo == grid.cfo_values[np.argmin(line)]


def test_fully_pinned_grid_returns_pair_mismatch_energy():
    grid = make_grid(cfo_max=0.0, sfo_max=0.0)
    obs = observation(14, 0.1, 1e-4, snr_db=10.0)
    result = estimate_proposed(obs, grid, CFG)
    assert (result.cfo, result.sfo) == (0.0, 0.0)
    assert result.cost == pytest.approx(
        float(np.sum(np.abs(obs.r1 - obs.r0) ** 2)), rel=1e-12)


# ------------------------------------------------- evaluator and estimates


def energy(*vectors):
    return sum(float(np.sum(np.abs(v) ** 2)) for v in vectors)


def assert_kernel_matches_oracle(kernel, oracle, reported, grid, c):
    """The kernel surface equals the direct-formula surface to 1e-12 of
    its constant term c, and the reported cost is the oracle's value at
    the kernel's argmin, within that tolerance of the oracle minimum."""
    tol = 1e-12 * c
    assert kernel.shape == oracle.shape == grid.shape
    npt.assert_allclose(kernel, oracle, rtol=0, atol=tol)
    i = int(np.searchsorted(grid.cfo_values, reported.cfo))
    j = int(np.searchsorted(grid.sfo_values, reported.sfo))
    assert reported.cost == pytest.approx(oracle[i, j], rel=0, abs=tol)
    assert reported.cost <= oracle.min() + 2 * tol


def test_evaluator_matches_oracle_surface():
    obs = observation(15, 0.212, 0.000112, snr_db=10.0)
    ev = GridEvaluator(GRID, CFG)
    oracle = proposed_cost(obs, GRID.cfo_values[:, None],
                           GRID.sfo_values[None, :], CFG)
    got = ev.search_proposed(obs)
    assert_kernel_matches_oracle(ev.proposed_surface(obs), oracle, got, GRID,
                                 energy(obs.r0, obs.r1))
    assert np.unravel_index(np.argmin(oracle), GRID.shape) == (
        np.searchsorted(GRID.cfo_values, got.cfo),
        np.searchsorted(GRID.sfo_values, got.sfo))

    y = nguyenle_observable(obs, CFG)
    oracle_nl = nguyenle_cost(y, GRID.cfo_values[:, None],
                              GRID.sfo_values[None, :], CFG)
    got_nl = ev.search_nguyenle(obs)
    assert_kernel_matches_oracle(ev.nguyenle_surface(y), oracle_nl, got_nl,
                                 GRID, energy(y) + y.size)
    assert np.unravel_index(np.argmin(oracle_nl), GRID.shape) == (
        np.searchsorted(GRID.cfo_values, got_nl.cfo),
        np.searchsorted(GRID.sfo_values, got_nl.sfo))


@st.composite
def geometries(draw):
    """Random (config, grid): cp = 0 and K = N included, either axis of
    the lattice possibly pinned to the single value 0."""
    dft_size = 2 * draw(st.integers(1, 32))
    n_active = 2 * draw(st.integers(1, dft_size // 2))
    cp_len = draw(st.sampled_from([0, draw(st.integers(0, dft_size))]))
    config = make_config(dft_size, n_active, cp_len)
    cfo_max = draw(st.sampled_from([0.0, 0.5]))
    sfo_max = draw(st.sampled_from([0.0, 5e-4, 3e-3]))
    grid = make_grid(cfo_step=cfo_max / draw(st.integers(1, 8)) or 0.1,
                     cfo_max=cfo_max,
                     sfo_step=sfo_max / draw(st.integers(1, 8)) or 1e-5,
                     sfo_max=sfo_max)
    return config, grid


@settings(max_examples=60, deadline=None, database=None)
@given(geometry=geometries(), seed=st.integers(0, 2 ** 32 - 1),
       scale=st.sampled_from([1e-3, 1.0, 1e3]))
@example(geometry=(make_config(8, 8, 0), make_grid(cfo_max=0.0, sfo_max=0.0)),
         seed=1, scale=1.0)
@example(geometry=(CFG, make_grid(sfo_max=0.0)), seed=2, scale=1.0)
@example(geometry=(make_config(16, 16, 0), GRID), seed=3, scale=1e3)
def test_kernel_matches_oracle_over_random_geometries(geometry, seed, scale):
    config, grid = geometry
    rng = np.random.default_rng(seed)
    k = config.n_active
    r0, r1 = scale * (rng.standard_normal((2, k))
                      + 1j * rng.standard_normal((2, k)))
    obs = PreambleObservation(r0, r1, TrainingSymbols(r0, r0))
    ev = GridEvaluator(grid, config)
    e, h = grid.cfo_values[:, None], grid.sfo_values[None, :]

    assert_kernel_matches_oracle(ev.proposed_surface(obs),
                                 proposed_cost(obs, e, h, config),
                                 ev.search_proposed(obs), grid,
                                 energy(r0, r1))
    y = nguyenle_observable(obs, config)
    assert_kernel_matches_oracle(ev.nguyenle_surface(y),
                                 nguyenle_cost(y, e, h, config),
                                 ev.search_nguyenle(obs), grid,
                                 energy(y) + k)


def test_estimates_at_zero_offsets():
    obs = observation(16, 0.0, 0.0)
    prop = estimate_proposed(obs, GRID, CFG)
    nl = estimate_nguyenle(obs, GRID, CFG)
    assert (prop.cfo, prop.sfo) == (0.0, 0.0)
    assert (nl.cfo, nl.sfo) == (0.0, 0.0)
    assert prop.method == "proposed"
    assert nl.method == "nguyen_le"


@pytest.mark.parametrize("lattice_index", [21, 38, 50, 71, 79])
def test_noiseless_on_lattice_recovery_is_exact(lattice_index):
    """eta=0, |eps*| < 0.3: the unique zero-cost lattice point is the truth
    and both estimators return it exactly."""
    eps_true = float(GRID.cfo_values[lattice_index])
    assert abs(eps_true) < 0.3
    obs = observation(17, eps_true, 0.0)
    prop = estimate_proposed(obs, GRID, CFG)
    nl = estimate_nguyenle(obs, GRID, CFG)
    assert (prop.cfo, prop.sfo) == (eps_true, 0.0)
    assert (nl.cfo, nl.sfo) == (eps_true, 0.0)
    assert prop.cost < 1e-25
    assert nl.cost < 1e-25


def test_cfo_alias_beyond_0p3_is_a_cost_tie():
    """The eta=0 cost is periodic in eps with period N/(N+N_g) = 0.8, so
    eps* = 0.35 and its in-grid alias -0.45 are analytically tied; the
    search lands on one of the two with (numerically) zero cost."""
    eps_true = float(GRID.cfo_values[85])   # 0.35
    alias = float(GRID.cfo_values[5])       # -0.45
    obs = observation(19, eps_true, 0.0)
    result = estimate_proposed(obs, GRID, CFG)
    assert result.cfo in (eps_true, alias)
    assert result.sfo == 0.0
    assert result.cost < 1e-25
    assert proposed_cost(obs, eps_true, 0.0, CFG) < 1e-25
    assert proposed_cost(obs, alias, 0.0, CFG) < 1e-25


def test_estimate_nguyenle_propagates_degenerate_error():
    obs = observation(20, 0.1, 1e-4, snr_db=15.0)
    r0 = obs.r0.copy()
    r0[0] = 0.0
    broken = PreambleObservation(r0, obs.r1, obs.training)
    with pytest.raises(DegenerateObservationError):
        estimate_nguyenle(broken, GRID, CFG)
    # the pair fit is division-free and survives the same observation
    result = estimate_proposed(broken, GRID, CFG)
    assert np.isfinite(result.cost)


# ------------------------------------------------------------- invariances


def test_costs_invariant_under_common_rotation():
    obs = observation(21, 0.212, 0.000112, snr_db=10.0)
    phase = np.exp(1j * 1.234)
    rotated = PreambleObservation(phase * obs.r0, phase * obs.r1,
                                  obs.training)
    a = estimate_proposed(obs, GRID, CFG)
    b = estimate_proposed(rotated, GRID, CFG)
    assert (a.cfo, a.sfo) == (b.cfo, b.sfo)
    assert b.cost == pytest.approx(a.cost, rel=1e-12)
    for cfo, sfo in ((0.0, 0.0), (-0.2, 3e-4)):
        assert proposed_cost(rotated, cfo, sfo, CFG) == pytest.approx(
            proposed_cost(obs, cfo, sfo, CFG), rel=1e-12)


def test_proposed_cost_scales_quadratically_with_amplitude():
    obs = observation(22, 0.212, 0.000112, snr_db=10.0)
    scale = 3.7
    scaled = PreambleObservation(scale * obs.r0, scale * obs.r1,
                                 obs.training)
    a = estimate_proposed(obs, GRID, CFG)
    b = estimate_proposed(scaled, GRID, CFG)
    assert (a.cfo, a.sfo) == (b.cfo, b.sfo)
    assert b.cost == pytest.approx(scale ** 2 * a.cost, rel=1e-12)


# -------------------------------------------------------------- refinement


def test_refine_moves_toward_off_lattice_truth():
    eps_true, eta_true = 0.212, 0.000112
    obs = observation(23, eps_true, eta_true)
    lattice = estimate_proposed(obs, GRID, CFG)
    refined = estimate_proposed(obs, GRID, CFG, refine=True)
    assert abs(refined.cfo - lattice.cfo) <= 0.005 + 1e-12
    assert abs(refined.sfo - lattice.sfo) <= 5e-6 + 1e-15
    assert abs(refined.cfo - eps_true) < abs(lattice.cfo - eps_true)
    assert abs(refined.sfo - eta_true) < abs(lattice.sfo - eta_true)


def test_refine_keeps_lattice_point_at_grid_edge():
    obs = observation(24, -0.5, 0.0)
    refined = estimate_proposed(obs, GRID, CFG, refine=True)
    assert refined.cfo == -0.5


def test_nguyenle_refine_moves_toward_off_lattice_truth():
    eps_true, eta_true = 0.212, 0.000112
    obs = observation(23, eps_true, eta_true)
    lattice = estimate_nguyenle(obs, GRID, CFG)
    refined = estimate_nguyenle(obs, GRID, CFG, refine=True)
    assert abs(refined.cfo - lattice.cfo) <= 0.005 + 1e-12
    assert abs(refined.sfo - lattice.sfo) <= 5e-6 + 1e-15
    assert abs(refined.cfo - eps_true) < abs(lattice.cfo - eps_true)
    assert abs(refined.sfo - eta_true) < abs(lattice.sfo - eta_true)
    assert refined.method == "nguyen_le"
    assert refined.cost == nguyenle_cost(nguyenle_observable(obs, CFG),
                                         refined.cfo, refined.sfo, CFG)


@pytest.mark.parametrize("estimate", [estimate_proposed, estimate_nguyenle])
@pytest.mark.parametrize("eps_true", [0.2137, -0.1234])
def test_refine_recovers_off_lattice_cfo_at_pinned_sfo(estimate, eps_true):
    """Noiseless and at a lattice SFO, the closed-form CFO step is exact:
    Moose's correlator phase at sfo = 0."""
    obs = observation(30, eps_true, 0.0)
    grid = make_grid(sfo_max=0.0)
    refined = estimate(obs, grid, CFG, refine=True)
    assert refined.sfo == 0.0
    assert abs(refined.cfo - eps_true) <= 1e-12
    assert refined.cost < 1e-20


@pytest.mark.parametrize("estimate", [estimate_proposed, estimate_nguyenle])
def test_refine_is_exact_on_a_model_exact_pair(estimate):
    """R1 = ramp(cfo, sfo) R0 exactly, at a lattice SFO far from zero and
    a CFO past half a period: the step must scale the phase by (1 + sfo)
    and move it by whole periods back to the lattice's branch."""
    rng = np.random.default_rng(3)
    x = training(3)
    tr = TrainingSymbols(x, x)
    r0 = rng.standard_normal(52) + 1j * rng.standard_normal(52)
    cfo, sfo = 0.6543, 4e-3
    r1 = symbol_phase_ramp(CFG.subcarrier_indices, cfo, sfo, CFG) * r0
    grid = GridSpec(cfo_values=0.01 * np.arange(30, 91),
                    sfo_values=np.array([sfo]))
    refined = estimate(PreambleObservation(r0, r1, tr), grid, CFG,
                       refine=True)
    assert refined.sfo == sfo
    assert abs(refined.cfo - cfo) <= 1e-12


def test_default_estimate_is_a_lattice_point():
    obs = observation(25, 0.212, 0.000112, snr_db=10.0)
    result = estimate_proposed(obs, GRID, CFG)
    assert result.cfo in GRID.cfo_values
    assert result.sfo in GRID.sfo_values


# --------------------------------------------------------------- residuals


def test_pair_residual_vanishes_without_sfo():
    obs = observation(26, 0.37, 0.0)
    npt.assert_allclose(pair_residual(obs, 0.37, 0.0, CFG), 0.0,
                        rtol=0, atol=1e-12)


def test_pair_residual_zero_offsets_noiseless():
    obs = observation(27, 0.0, 0.0)
    npt.assert_allclose(pair_residual(obs, 0.0, 0.0, CFG), 0.0,
                        rtol=0, atol=1e-13)


def test_pair_residual_noise_only_power():
    """Signal-free preamble: E ||N||^2 = 2 K sigma_w^2 (the ramp is unit
    modulus, so the two noise spectra add in power)."""
    n_trials = 2000
    zeros = np.zeros((n_trials, 52), dtype=complex)
    taps = channel_taps(derive_rng(28, "channel").standard_normal((2, 5)))
    noise_var = 0.1
    # Trial t reads the t-th (2, N) block of each symbol's stream.
    normals = np.stack([derive_rng(28, label).standard_normal(
        (n_trials, 2, 64)) for label in ("noise0", "noise1")], axis=1)
    spectra = demodulate_rows(synthesize_rows(
        CFG, (zeros, zeros), np.tile(taps, (n_trials, 1)), 0.212, 0.000112,
        noise_var, normals), CFG)
    n_vecs = pair_residual_rows(spectra[:, 0], spectra[:, 1], 0.212,
                                0.000112, CFG)
    total = 0.0
    for n_vec in n_vecs:
        total += float(np.sum(np.abs(n_vec) ** 2))
    mean = total / n_trials
    assert mean == pytest.approx(2 * 52 * noise_var, rel=0.05)
