"""Estimator tests: phase-ramp model, both cost functions, the lattice
search and its correlation kernel, refinement, and the two residual
diagnostics."""

import re
from types import SimpleNamespace

import numpy as np
import numpy.testing as npt
import pytest
from hypothesis import example, given, settings, strategies as st

from ofdm_sync_lab import (
    GridEvaluator,
    GridSpec,
    QPSK_ALPHABET,
    channel_taps,
    demodulate_rows,
    derive_rng,
    estimate_nguyenle,
    estimate_proposed,
    make_config,
    make_grid,
    nguyenle_cost,
    noise_variance_from_snr,
    pair_residual_rows,
    proposed_cost,
    ratio_observable_rows,
    ratio_residual_rows,
    symbol_phase_ramp,
    synthesize_rows,
)
from ofdm_sync_lab import estimators

CFG = make_config(64, 52, 16)
GRID = make_grid()
EV = GridEvaluator(GRID, CFG)


def training(seed):
    """A seeded QPSK training symbol."""
    return QPSK_ALPHABET[derive_rng(seed, "training").integers(0, 4, 52)]


def observation(seed, cfo, sfo, snr_db=None):
    """Seeded demodulated preamble as rows (x, r0, r1): the training that
    both symbols repeat and their spectra; noiseless when snr_db is
    None."""
    x = training(seed)
    taps = channel_taps(derive_rng(seed, "channel").standard_normal((2, 5)))
    noise_var, normals = 0.0, None
    if snr_db is not None:
        noise_var = noise_variance_from_snr(CFG, snr_db)
        normals = np.stack([derive_rng(seed, label).standard_normal((2, 64))
                            for label in ("noise0", "noise1")])[None]
    r0, r1 = demodulate_rows(synthesize_rows(
        CFG, x[None], taps[None], cfo, sfo, noise_var, normals),
        CFG)[0]
    return x, r0, r1


def row(found):
    """The one row of the estimates of a stack of one, as floats."""
    return SimpleNamespace(method=found.method, **{
        name: float(getattr(found, name)[0])
        for name in ("cfo", "sfo", "cost")})


def proposed(r0, r1, grid=GRID, **options):
    """One trial's proposed estimate, as a stack of one."""
    return row(estimate_proposed(r0[None], r1[None], grid, CFG, **options))


def nguyenle(x, r0, r1, grid=GRID, **options):
    """One trial's Nguyen-Le estimate, as a stack of one."""
    return row(estimate_nguyenle(x[None], r0[None], r1[None], grid, CFG,
                                 **options))


def observable(x, r0, r1):
    """One trial's ratio observable row, asserted non-degenerate."""
    y, bad = ratio_observable_rows(x, r0, r1)
    assert not bad.any()
    return y


def estimate(method, x, r0, r1, grid, **options):
    """One trial's estimate by the estimate function named ``method``."""
    if method == "estimate_proposed":
        return proposed(r0, r1, grid, **options)
    return nguyenle(x, r0, r1, grid, **options)


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


def test_make_grid_holds_the_lead_table_to_its_budget():
    """The (n_cfo, n_sfo) complex lead table of a lattice fits
    ``_LATTICE_BUDGET`` bytes, checked before an axis is built; the
    default lattice and the largest the tests build sit far below it."""
    budget = estimators._LATTICE_BUDGET
    assert make_grid(1.0, 1023.0, 1e-4, 0.1024).shape == (2047, 2049)
    assert 16 * 2047 * 2049 <= budget < 16 * 2049 * 2049
    message = ("2049 x 2049 lattice, whose complex lead table needs "
               "6.72e+07 bytes, more than the lattice budget of 67108864 "
               "bytes")
    with pytest.raises(ValueError, match=re.escape(message)):
        make_grid(1.0, 1024.0, 1e-4, 0.1024)
    # more points than any machine could hold, but an array index counts
    # them: rejected before the axes, not by a failed allocation
    with pytest.raises(ValueError, match="20000000000000001 x 101 lattice"):
        make_grid(cfo_step=1e-16, cfo_max=1.0)
    for points in (make_grid().shape, (201, 201)):
        assert 16 * points[0] * points[1] * 100 < budget


def test_grid_spec_validation():
    for span in (range(0), range(0, 4, 2), np.arange(3)):
        with pytest.raises(ValueError, match="cfo_span must be a non-empty "
                                             "range of step 1"):
            GridSpec(0.01, span, 1e-5, range(1))
    with pytest.raises(ValueError, match="sfo_step must be positive"):
        GridSpec(0.01, range(1), -1e-5, range(1))
    with pytest.raises(ValueError, match="cfo_step must be finite"):
        GridSpec(np.nan, range(1), 1e-5, range(1))
    # At SFO -1 the CFO slope a (1 + sfo) is 0, and below it negative.
    for span in (range(-1, 1), range(0, 2), range(-2, 3)):
        with pytest.raises(ValueError, match=re.escape(
                "every one must lie inside (-1, 1)")):
            GridSpec(0.01, range(1), 1.0, span)
    with pytest.raises(ValueError, match="overflows the lattice CFOs"):
        GridSpec(1e308, range(-2, 3), 1e-5, range(1))
    # A span len() cannot count is the budget's, not an OverflowError.
    with pytest.raises(ValueError, match="20000000000000000000 x 1 lattice"):
        GridSpec(1e-20, range(-10 ** 19, 10 ** 19), 1e-5, range(1))
    assert GridSpec(0.01, range(1), 0.5, range(-1, 2)).shape == (1, 3)


@settings(max_examples=100, deadline=None, database=None)
@given(steps=st.tuples(st.floats(1e-6, 1.0), st.floats(1e-8, 1e-2)),
       counts=st.tuples(st.integers(0, 200), st.integers(0, 90)),
       slack=st.tuples(st.floats(0.0, 0.49), st.floats(0.0, 0.49)))
def test_make_grid_axes_are_integer_multiples_of_the_step(steps, counts,
                                                         slack):
    """Each axis is step * arange(-n, n + 1), bit for bit, for a max
    anywhere within half a step of n steps; equal lattices compare and
    hash equal."""
    grid = make_grid(steps[0], steps[0] * (counts[0] + slack[0]),
                     steps[1], steps[1] * (counts[1] + slack[1]))
    for axis, step, n in zip((grid.cfo_values, grid.sfo_values), steps,
                             counts):
        assert axis.tobytes() == (step * np.arange(-n, n + 1)).tobytes()
        assert not axis.flags.writeable
    assert make_grid(0.01, 0.5) == make_grid(0.01, 0.504) == GRID
    assert hash(make_grid(0.01, 0.5)) == hash(make_grid(0.01, 0.504))


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
    r0 = rng.standard_normal(52) + 1j * rng.standard_normal(52)
    cfo, sfo = 0.17, -3e-5
    r1 = symbol_phase_ramp(CFG.subcarrier_indices, cfo, sfo, CFG) * r0
    assert proposed_cost(r0, r1, cfo, sfo, CFG) < 1e-25


def test_proposed_cost_nonnegative_and_scalar():
    _, r0, r1 = observation(4, 0.212, 0.000112, snr_db=10.0)
    value = proposed_cost(r0, r1, -0.3, 2e-4, CFG)
    assert isinstance(value, float)
    assert value >= 0.0


def test_proposed_cost_matches_direct_formula():
    _, r0, r1 = observation(5, 0.212, 0.000112, snr_db=10.0)
    ks = CFG.subcarrier_indices
    for cfo, sfo in ((0.0, 0.0), (0.212, 0.000112), (-0.41, -4.7e-4)):
        ramp = np.exp(1j * 2 * np.pi * 80.0 / 64.0
                      * (ks * sfo + cfo * (1.0 + sfo)))
        direct = float(np.sum(np.abs(r1 - ramp * r0) ** 2))
        assert proposed_cost(r0, r1, cfo, sfo, CFG) == pytest.approx(
            direct, rel=1e-12)


def test_proposed_cost_broadcasts_like_scalar_calls():
    _, r0, r1 = observation(6, 0.1, 1e-4, snr_db=15.0)
    cfos = np.array([-0.2, 0.0, 0.1])
    sfos = np.array([-1e-4, 0.0, 1e-4, 3e-4])
    surface = proposed_cost(r0, r1, cfos[:, None], sfos[None, :], CFG)
    assert surface.shape == (3, 4)
    for i, cfo in enumerate(cfos):
        for j, sfo in enumerate(sfos):
            assert surface[i, j] == pytest.approx(
                proposed_cost(r0, r1, float(cfo), float(sfo), CFG),
                rel=1e-12)


def test_noiseless_truth_is_strict_surface_minimum():
    """eta=0, eps*=0.21: the truth lattice point beats every other point of
    the full default surface (its +/-0.8 CFO alias falls outside the grid)."""
    eps_true = float(GRID.cfo_values[71])
    _, r0, r1 = observation(7, eps_true, 0.0)
    surface = EV.proposed_surface(r0, r1)
    i, j = np.unravel_index(np.argmin(surface), surface.shape)
    assert (i, j) == (71, 50)
    flat = np.sort(surface.ravel())
    assert flat[0] < 1e-25
    assert flat[1] > 1e-6


# ------------------------------------------------------------ ratio branch


def test_observable_is_one_for_identical_symbols():
    x, r0, r1 = observation(8, 0.0, 0.0)
    npt.assert_allclose(observable(x, r0, r1), 1.0,
                        rtol=0, atol=1e-12)


def test_observable_constant_ramp_when_sfo_is_zero():
    cfo = 0.21
    x, r0, r1 = observation(9, cfo, 0.0)
    y = observable(x, r0, r1)
    expected = np.exp(1j * 2 * np.pi * 80.0 * cfo / 64.0)
    npt.assert_allclose(y, expected, rtol=0, atol=1e-12)
    # and the ratio residual at the truth is zero to the same tolerance
    npt.assert_allclose(ratio_residual_rows(y, cfo, 0.0, CFG), 0.0,
                        rtol=0, atol=1e-12)


def test_observable_flags_degenerate_bins():
    x, r0, r1 = observation(10, 0.1, 1e-4, snr_db=20.0)
    r0[3] = 0.0
    # the row form marks the bin, and divides the row by ones
    y, bad = ratio_observable_rows(x[None], r0[None], r1[None])
    assert CFG.subcarrier_indices[bad[0]].tolist() == [-23]
    npt.assert_array_equal(np.flatnonzero(bad[0]), [3])
    assert np.isfinite(y).all()
    # and the Nguyen-Le fit of that row is a NaN row
    result = nguyenle(x, r0, r1)
    assert np.isnan([result.cfo, result.sfo, result.cost]).all()
    # the pair residual does not divide, so it stays usable
    assert np.all(np.isfinite(pair_residual_rows(r0, r1, 0.1, 1e-4, CFG)))


def test_nguyenle_cost_zeros():
    ones = np.ones(52, dtype=complex)
    assert nguyenle_cost(ones, 0.0, 0.0, CFG) == 0.0
    eps = float(GRID.cfo_values[71])
    y = np.full(52, np.exp(1j * 2 * np.pi * 80.0 * eps / 64.0))
    assert nguyenle_cost(y, eps, 0.0, CFG) < 1e-25
    x, r0, r1 = observation(11, 0.2, 2e-4, snr_db=5.0)
    assert nguyenle_cost(observable(x, r0, r1), -0.1, 1e-4,
                         CFG) >= 0.0


def test_nguyenle_cost_matches_direct_formula():
    x, r0, r1 = observation(12, 0.212, 0.000112, snr_db=10.0)
    y = observable(x, r0, r1)
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
    i, j = EV._result(lattice_surface(bowl, GRID))
    assert GRID.cfo_values[i] == 0.21
    assert GRID.sfo_values[j] == 0.0


def test_grid_search_tie_breaks_to_first_lattice_point():
    assert EV._result(np.ones(GRID.shape)) == (0, 0)
    # a signal-free pair makes the whole kernel surface exactly zero
    zeros = np.zeros(52, dtype=complex)
    result = row(EV.search_proposed(zeros[None], zeros[None]))
    assert (result.cfo, result.sfo) == (GRID.cfo_values[0],
                                        GRID.sfo_values[0])
    assert result.cost == 0.0


def test_grid_search_rejects_non_finite_cost():
    """A row with a non-finite bin is a NaN row of the search; the other
    rows of its stack are searched as if alone."""
    _, r0, r1 = observation(29, 0.1, 1e-4, snr_db=10.0)
    bad = r0.copy()
    bad[5] = np.inf
    with np.errstate(invalid="ignore"):
        found = EV.search_proposed(np.stack([bad, r0]), np.stack([r1, r1]))
    assert np.isnan([found.cfo[0], found.sfo[0], found.cost[0]]).all()
    alone = row(EV.search_proposed(r0[None], r1[None]))
    assert (found.cfo[1], found.sfo[1], found.cost[1]) == (
        alone.cfo, alone.sfo, alone.cost)


def test_grid_search_single_point_grid():
    grid = GridSpec(0.3, range(1, 2), 1e-5, range(1))
    _, r0, r1 = observation(30, 0.2, 1e-4, snr_db=10.0)
    result = row(GridEvaluator(grid, CFG).search_proposed(r0[None],
                                                          r1[None]))
    assert (result.cfo, result.sfo) == (0.3, 0.0)
    assert result.method == "proposed"
    assert result.cost == pytest.approx(
        proposed_cost(r0, r1, 0.3, 0.0, CFG), rel=1e-12)


def test_degenerate_grid_collapses_to_cfo_only_search():
    """Pinning the SFO axis turns the joint search into the classic
    one-dimensional CFO ramp fit."""
    grid = make_grid(sfo_max=0.0)
    _, r0, r1 = observation(13, 0.21, 0.0, snr_db=25.0)
    result = proposed(r0, r1, grid)
    assert result.sfo == 0.0
    line = proposed_cost(r0, r1, grid.cfo_values, 0.0, CFG)
    assert result.cfo == grid.cfo_values[np.argmin(line)]


def test_fully_pinned_grid_returns_pair_mismatch_energy():
    grid = make_grid(cfo_max=0.0, sfo_max=0.0)
    _, r0, r1 = observation(14, 0.1, 1e-4, snr_db=10.0)
    result = proposed(r0, r1, grid)
    assert (result.cfo, result.sfo) == (0.0, 0.0)
    assert result.cost == pytest.approx(
        float(np.sum(np.abs(r1 - r0) ** 2)), rel=1e-12)


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
    x, r0, r1 = observation(15, 0.212, 0.000112, snr_db=10.0)
    ev = GridEvaluator(GRID, CFG)
    oracle = proposed_cost(r0, r1, GRID.cfo_values[:, None],
                           GRID.sfo_values[None, :], CFG)
    got = row(ev.search_proposed(r0[None], r1[None]))
    assert_kernel_matches_oracle(ev.proposed_surface(r0, r1), oracle, got,
                                 GRID, energy(r0, r1))
    assert np.unravel_index(np.argmin(oracle), GRID.shape) == (
        np.searchsorted(GRID.cfo_values, got.cfo),
        np.searchsorted(GRID.sfo_values, got.sfo))

    y = observable(x, r0, r1)
    oracle_nl = nguyenle_cost(y, GRID.cfo_values[:, None],
                              GRID.sfo_values[None, :], CFG)
    got_nl = row(ev.search_nguyenle(y[None], [False]))
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
    ev = GridEvaluator(grid, config)
    e, h = grid.cfo_values[:, None], grid.sfo_values[None, :]

    assert_kernel_matches_oracle(ev.proposed_surface(r0, r1),
                                 proposed_cost(r0, r1, e, h, config),
                                 row(ev.search_proposed(r0[None],
                                                        r1[None])), grid,
                                 energy(r0, r1))
    # r0 is its own training: Y = R1 / R0
    y = ratio_observable_rows(r0, r0, r1)[0]
    assert_kernel_matches_oracle(ev.nguyenle_surface(y),
                                 nguyenle_cost(y, e, h, config),
                                 row(ev.search_nguyenle(y[None],
                                                        [False])), grid,
                                 energy(y) + k)


def test_estimates_at_zero_offsets():
    x, r0, r1 = observation(16, 0.0, 0.0)
    prop = proposed(r0, r1)
    nl = nguyenle(x, r0, r1)
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
    x, r0, r1 = observation(17, eps_true, 0.0)
    prop = proposed(r0, r1)
    nl = nguyenle(x, r0, r1)
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
    _, r0, r1 = observation(19, eps_true, 0.0)
    result = proposed(r0, r1)
    assert result.cfo in (eps_true, alias)
    assert result.sfo == 0.0
    assert result.cost < 1e-25
    assert proposed_cost(r0, r1, eps_true, 0.0, CFG) < 1e-25
    assert proposed_cost(r0, r1, alias, 0.0, CFG) < 1e-25


def test_estimate_nguyenle_degenerate_row_is_nan():
    x, r0, r1 = observation(20, 0.1, 1e-4, snr_db=15.0)
    r0[0] = 0.0
    for refine in (False, True):
        result = nguyenle(x, r0, r1, refine=refine)
        assert np.isnan([result.cfo, result.sfo, result.cost]).all()
    # the pair fit is division-free and survives the same observation
    result = proposed(r0, r1)
    assert np.isfinite(result.cost)


# ------------------------------------------------------------- invariances


def test_costs_invariant_under_common_rotation():
    _, r0, r1 = observation(21, 0.212, 0.000112, snr_db=10.0)
    phase = np.exp(1j * 1.234)
    a = proposed(r0, r1)
    b = proposed(phase * r0, phase * r1)
    assert (a.cfo, a.sfo) == (b.cfo, b.sfo)
    assert b.cost == pytest.approx(a.cost, rel=1e-12)
    for cfo, sfo in ((0.0, 0.0), (-0.2, 3e-4)):
        assert proposed_cost(phase * r0, phase * r1, cfo, sfo, CFG) == \
            pytest.approx(proposed_cost(r0, r1, cfo, sfo, CFG), rel=1e-12)


def test_proposed_cost_scales_quadratically_with_amplitude():
    _, r0, r1 = observation(22, 0.212, 0.000112, snr_db=10.0)
    scale = 3.7
    a = proposed(r0, r1)
    b = proposed(scale * r0, scale * r1)
    assert (a.cfo, a.sfo) == (b.cfo, b.sfo)
    assert b.cost == pytest.approx(scale ** 2 * a.cost, rel=1e-12)


# -------------------------------------------------------------- refinement


def test_refine_moves_toward_off_lattice_truth():
    eps_true, eta_true = 0.212, 0.000112
    _, r0, r1 = observation(23, eps_true, eta_true)
    lattice = proposed(r0, r1)
    refined = proposed(r0, r1, refine=True)
    assert abs(refined.cfo - lattice.cfo) <= 0.005 + 1e-12
    assert abs(refined.sfo - lattice.sfo) <= 5e-6 + 1e-15
    assert abs(refined.cfo - eps_true) < abs(lattice.cfo - eps_true)
    assert abs(refined.sfo - eta_true) < abs(lattice.sfo - eta_true)


def test_refine_keeps_lattice_point_at_grid_edge():
    _, r0, r1 = observation(24, -0.5, 0.0)
    refined = proposed(r0, r1, refine=True)
    assert refined.cfo == -0.5


def test_nguyenle_refine_moves_toward_off_lattice_truth():
    eps_true, eta_true = 0.212, 0.000112
    x, r0, r1 = observation(23, eps_true, eta_true)
    lattice = nguyenle(x, r0, r1)
    refined = nguyenle(x, r0, r1, refine=True)
    assert abs(refined.cfo - lattice.cfo) <= 0.005 + 1e-12
    assert abs(refined.sfo - lattice.sfo) <= 5e-6 + 1e-15
    assert abs(refined.cfo - eps_true) < abs(lattice.cfo - eps_true)
    assert abs(refined.sfo - eta_true) < abs(lattice.sfo - eta_true)
    assert refined.method == "nguyen_le"
    assert refined.cost == nguyenle_cost(
        observable(x, r0, r1), refined.cfo, refined.sfo,
        CFG)


@pytest.mark.parametrize("method", ["estimate_proposed", "estimate_nguyenle"])
@pytest.mark.parametrize("eps_true", [0.2137, -0.1234])
def test_refine_recovers_off_lattice_cfo_at_pinned_sfo(method, eps_true):
    """Noiseless and at a lattice SFO, the closed-form CFO step is exact:
    Moose's correlator phase at sfo = 0."""
    x, r0, r1 = observation(30, eps_true, 0.0)
    grid = make_grid(sfo_max=0.0)
    refined = estimate(method, x, r0, r1, grid, refine=True)
    assert refined.sfo == 0.0
    assert abs(refined.cfo - eps_true) <= 1e-12
    assert refined.cost < 1e-20


@pytest.mark.parametrize("method", ["estimate_proposed", "estimate_nguyenle"])
def test_refine_is_exact_on_a_model_exact_pair(method):
    """R1 = ramp(cfo, sfo) R0 exactly, at a lattice SFO far from zero and
    a CFO past half a period: the step must scale the phase by (1 + sfo)
    and move it by whole periods back to the lattice's branch."""
    rng = np.random.default_rng(3)
    x = training(3)
    r0 = rng.standard_normal(52) + 1j * rng.standard_normal(52)
    cfo, sfo = 0.6543, 4e-3
    r1 = symbol_phase_ramp(CFG.subcarrier_indices, cfo, sfo, CFG) * r0
    grid = GridSpec(0.01, range(30, 91), 4e-3, range(1, 2))
    refined = estimate(method, x, r0, r1, grid, refine=True)
    assert refined.sfo == sfo
    assert abs(refined.cfo - cfo) <= 1e-12


def test_default_estimate_is_a_lattice_point():
    _, r0, r1 = observation(25, 0.212, 0.000112, snr_db=10.0)
    result = proposed(r0, r1)
    assert result.cfo in GRID.cfo_values
    assert result.sfo in GRID.sfo_values


# ------------------------------------------------------------------ parity


def pinned_rows():
    """Seven trials: noiseless off the lattice, on the CFO edge, at 10,
    25 and 0 dB, a degenerate ratio row and a row with an infinite bin."""
    yield "noiseless", observation(23, 0.212, 0.000112)
    yield "edge", observation(24, -0.5, 0.0)
    yield "snr10", observation(15, 0.212, 0.000112, snr_db=10.0)
    yield "snr25", observation(31, -0.1234, -2.1e-4, snr_db=25.0)
    yield "snr0", observation(32, 0.4, 4.7e-4, snr_db=0.0)
    x, r0, r1 = observation(20, 0.1, 1e-4, snr_db=15.0)
    r0[0] = 0.0
    yield "degenerate", (x, r0, r1)
    x, r0, r1 = observation(29, 0.1, 1e-4, snr_db=10.0)
    r1[5] = np.inf
    yield "inf", (x, r0, r1)


# (cfo, sfo, cost) as float.hex of each pinned row, as the one-trial
# estimate functions returned them when they took one trial's rows and
# raised where the search failed (None here). Refinement pins move only
# when its math changes, as a declared change.
PINNED = {
    ("noiseless", "estimate_proposed", False):
        ("0x1.ae147ae147ae1p-3", "0x1.f75104d551d6ap-16",
         "0x1.0e853731099e1p-7"),
    ("noiseless", "estimate_proposed", True):
        ("0x1.afb429cc09879p-3", "0x1.2599ed7c6fbd3p-15",
         "0x1.3298a89273c72p-8"),
    ("noiseless", "estimate_nguyenle", False):
        ("0x1.ae147ae147ae1p-3", "0x1.cd5f99c38b04bp-14",
         "0x1.9cbb15f2289aap-7"),
    ("noiseless", "estimate_nguyenle", True):
        ("0x1.b21051aa38b4fp-3", "0x1.cf599a1320490p-14",
         "0x1.e18fb2c3c2ddbp-12"),
    ("edge", "estimate_proposed", False):
        ("-0x1.0000000000000p-1", "0x0.0p+0",
         "0x1.f2c7700000000p-98"),
    ("edge", "estimate_proposed", True):
        ("-0x1.0000000000000p-1", "0x0.0p+0",
         "0x1.e8c2600000000p-98"),
    ("edge", "estimate_nguyenle", False):
        ("-0x1.0000000000000p-1", "0x0.0p+0",
         "0x1.8a24000000000p-92"),
    ("edge", "estimate_nguyenle", True):
        ("-0x1.0000000000000p-1", "-0x1.1b7425f58e7d2p-51",
         "0x1.b4ceb60000000p-83"),
    ("snr10", "estimate_proposed", False):
        ("0x1.d70a3d70a3d71p-3", "0x1.e2584f4c6e6dap-12",
         "0x1.ed9b6d0ed91e2p+2"),
    ("snr10", "estimate_proposed", True):
        ("0x1.ceebf25c4a11bp-3", "0x1.dd1a21ea35936p-12",
         "0x1.eb7ccc691f359p+2"),
    ("snr10", "estimate_nguyenle", False):
        ("0x1.c28f5c28f5c29p-3", "0x1.e2584f4c6e6dap-13",
         "0x1.40340b5d1ab98p+4"),
    ("snr10", "estimate_nguyenle", True):
        ("0x1.c8a253b3d80dbp-3", "0x1.d7dbf487fcb92p-13",
         "0x1.3fc56b5424daep+4"),
    ("snr25", "estimate_proposed", False):
        ("-0x1.eb851eb851eb8p-4", "-0x1.64840e1719f80p-13",
         "0x1.590760ca5826cp-2"),
    ("snr25", "estimate_proposed", True):
        ("-0x1.f7cad8982e4ffp-4", "-0x1.6cb320ec5afa4p-13",
         "0x1.450335e446b6ep-2"),
    ("snr25", "estimate_nguyenle", False):
        ("-0x1.eb851eb851eb8p-4", "-0x1.a36e2eb1c432dp-13",
         "0x1.ce858fd4ac948p+0"),
    ("snr25", "estimate_nguyenle", True):
        ("-0x1.f61267434b509p-4", "-0x1.adea897635e74p-13",
         "0x1.c8f6d1cd3f466p+0"),
    ("snr0", "estimate_proposed", False):
        ("-0x1.a3d70a3d70a3ep-2", "0x1.0624dd2f1a9fcp-11",
         "0x1.4970474392550p+6"),
    ("snr0", "estimate_proposed", True):
        ("-0x1.a470a698d0a63p-2", "0x1.0624dd2f1a9fcp-11",
         "0x1.496f06d889ae8p+6"),
    ("snr0", "estimate_nguyenle", False):
        ("0x1.ae147ae147ae1p-2", "-0x1.0624dd2f1a9fcp-11",
         "0x1.81fe80edc1df3p+6"),
    ("snr0", "estimate_nguyenle", True):
        ("0x1.ac5cc277673bap-2", "-0x1.0624dd2f1a9fcp-11",
         "0x1.81f9d38783f34p+6"),
    ("degenerate", "estimate_proposed", False):
        ("0x1.999999999999ap-4", "-0x1.f75104d551d6ap-16",
         "0x1.0483239ce80c1p+2"),
    ("degenerate", "estimate_proposed", True):
        ("0x1.8a913b2dc9019p-4", "-0x1.a36e2eb1c432ep-16",
         "0x1.02b48b29fd62bp+2"),
    ("degenerate", "estimate_nguyenle", False): None,
    ("degenerate", "estimate_nguyenle", True): None,
    ("inf", "estimate_proposed", False): None,
    ("inf", "estimate_proposed", True): None,
    ("inf", "estimate_nguyenle", False): None,
    ("inf", "estimate_nguyenle", True): None,
}


@pytest.mark.parametrize("refine", [False, True])
@pytest.mark.parametrize("method", ["estimate_proposed", "estimate_nguyenle"])
def test_stack_estimates_reproduce_pinned_rows(method, refine):
    """One stack of the pinned rows gives each row's pinned bits, and a
    NaN row wherever the one-trial call raised."""
    names, trials = zip(*pinned_rows())
    x, r0, r1 = (np.stack(a) for a in zip(*trials))
    with np.errstate(invalid="ignore", over="ignore"):
        if method == "estimate_proposed":
            found = estimate_proposed(r0, r1, GRID, CFG, refine=refine)
        else:
            found = estimate_nguyenle(x, r0, r1, GRID, CFG, refine=refine)
    for t, name in enumerate(names):
        got = [float(a[t]) for a in (found.cfo, found.sfo, found.cost)]
        expected = PINNED[name, method, refine]
        if expected is None:
            assert np.isnan(got).all(), name
        else:
            assert tuple(v.hex() for v in got) == expected, name


# --------------------------------------------------------------- residuals


def test_pair_residual_vanishes_without_sfo():
    _, r0, r1 = observation(26, 0.37, 0.0)
    npt.assert_allclose(pair_residual_rows(r0, r1, 0.37, 0.0, CFG), 0.0,
                        rtol=0, atol=1e-12)


def test_pair_residual_zero_offsets_noiseless():
    _, r0, r1 = observation(27, 0.0, 0.0)
    npt.assert_allclose(pair_residual_rows(r0, r1, 0.0, 0.0, CFG), 0.0,
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
        CFG, zeros, np.tile(taps, (n_trials, 1)), 0.212, 0.000112,
        noise_var, normals), CFG)
    n_vecs = pair_residual_rows(spectra[:, 0], spectra[:, 1], 0.212,
                                0.000112, CFG)
    total = 0.0
    for n_vec in n_vecs:
        total += float(np.sum(np.abs(n_vec) ** 2))
    mean = total / n_trials
    assert mean == pytest.approx(2 * 52 * noise_var, rel=0.05)
