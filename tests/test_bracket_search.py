"""The bracket search against the full cost surface.

``GridEvaluator.search_proposed`` and ``search_nguyenle`` read each row's
lattice argmin from the two CFO rows that bracket Moose's closed form in
every SFO column, and run the full surface only for rows whose argmin
that cannot certify. Every row must come out as ``_result``'s argmin of
that row's own full surface with the cost there summed over ascending k
on that row alone: the same (cfo, sfo, cost) bits, or a NaN row where
that surface is not finite or the ratio row is degenerate.
"""

import numpy as np
import pytest
from hypothesis import example, given, settings, strategies as st

from ofdm_sync_lab import (
    QPSK_ALPHABET,
    GridEvaluator,
    GridSpec,
    OfdmConfig,
    harness,
    make_experiment,
    make_grid,
    symbol_phase_ramp,
)
from ofdm_sync_lab.estimators import ratio_observable_rows
from sweep_helpers import burst_chunks

CFG = OfdmConfig(64, 52, 16)

# The CFO period N / (N + N_g) is 0.8 at SFO 0; the last two grids span
# more than one period, so no row of theirs may take the bracket.
GRIDS = (
    make_grid(),
    make_grid(cfo_step=0.05),
    make_grid(cfo_step=0.3),
    make_grid(cfo_max=0.0),
    make_grid(sfo_max=0.0),
    make_grid(cfo_max=0.79),
    # cos(s d) < 0 at the CFO spacing d = 0.25, with a non-empty window.
    make_grid(cfo_step=0.25, cfo_max=0.25),
    # Two CFO rows: every lattice point is a candidate.
    GridSpec(0.35, range(-1, 1), 1e-5, range(-50, 51)),
    make_grid(cfo_max=1.2),
    GridSpec(0.01, range(150, 171), 1e-5, range(0, 1)),
)

# Row kinds: noiseless, noisy, noise only, all zero, one non-finite bin,
# and noiseless at SFO 0 on a lattice CFO whose alias 0.8 away is also a
# lattice CFO of the default grid, so the two tie up to rounding.
KINDS = ("noiseless", "noisy", "noise", "zero", "inf", "nan", "alias")
ALIAS_TIES = (-0.45, -0.4, -0.35, 0.35, 0.4, 0.45)


def reference(ev, c, v, r0, r1):
    """``_result`` on the row's full surface, and the cost at its argmin
    as a sequential sum over ascending k of the row alone, as (cfo, sfo,
    cost); None where that surface is not finite."""
    surface = c - 2.0 * (ev._lead * v[None, :]).real
    if not np.isfinite(surface).all():
        return None
    i, j = ev._result(surface)
    diff = r1 - ev._lead[i, j] * ev._sub[j, :] * r0
    cost = np.add.accumulate(diff.real ** 2 + diff.imag ** 2)[-1]
    return ev.grid.cfo_values[i], ev.grid.sfo_values[j], cost


def assert_same(found, t, expected):
    """Row t of the search ``found`` is ``expected``'s (cfo, sfo, cost)
    bit for bit, or NaN where ``expected`` is a failure (None)."""
    outcome = np.array([found.cfo[t], found.sfo[t], found.cost[t]])
    if expected is None:
        assert np.isnan(outcome).all()
    else:
        assert outcome.tobytes() == np.array(expected).tobytes()


@st.composite
def chunks(draw):
    """A grid and a chunk of rows of mixed kinds."""
    grid = draw(st.sampled_from(GRIDS))
    kinds = draw(st.lists(st.sampled_from(KINDS), min_size=1, max_size=24))
    return grid, kinds, draw(st.integers(0, 2 ** 32 - 1))


def rows(kinds, seed):
    """(x, r0, r1): training and spectra, one row per kind."""
    rng = np.random.default_rng(seed)
    n, k = len(kinds), CFG.n_active
    x = QPSK_ALPHABET[rng.integers(0, 4, (n, k))]
    gain = rng.standard_normal((n, k)) + 1j * rng.standard_normal((n, k))
    r0 = gain * x
    cfo = rng.uniform(-0.45, 0.45, (n, 1))
    sfo = rng.uniform(-5e-4, 5e-4, (n, 1))
    for t, kind in enumerate(kinds):
        if kind == "alias":
            cfo[t], sfo[t] = rng.choice(ALIAS_TIES), 0.0
    ramp = symbol_phase_ramp(CFG.subcarrier_indices, cfo, sfo, CFG)
    noise = rng.standard_normal((n, 2, k)) + 1j * rng.standard_normal(
        (n, 2, k))
    scale = 10.0 ** rng.uniform(-2, 0, (n, 1))
    r1 = ramp * r0
    for t, kind in enumerate(kinds):
        if kind == "noisy":
            r0[t] += scale[t] * noise[t, 0]
            r1[t] += scale[t] * noise[t, 1]
        elif kind == "noise":
            r0[t], r1[t] = noise[t]
        elif kind == "zero":
            r0[t] = r1[t] = 0.0
        elif kind in ("inf", "nan"):
            bad = np.inf if kind == "inf" else np.nan
            (r0, r1)[rng.integers(2)][t, rng.integers(k)] = bad
    return x, r0, r1


@settings(max_examples=80, deadline=None, database=None)
@given(chunk=chunks())
@example(chunk=(GRIDS[0], ["noiseless", "noisy", "noise", "zero", "inf",
                           "nan"], 7))
@example(chunk=(GRIDS[5], ["noiseless"] * 24, 11))
@example(chunk=(GRIDS[0], ["alias"] * 24, 13))
def test_bracket_search_equals_full_surface(chunk):
    grid, kinds, seed = chunk
    x, r0, r1 = rows(kinds, seed)
    ev = GridEvaluator(grid, CFG)
    with np.errstate(invalid="ignore", over="ignore"):
        y, bad = ratio_observable_rows(x, r0, r1)
        proposed = ev.search_proposed(r0, r1)
        nguyenle = ev.search_nguyenle(y, bad.any(axis=-1))
        for t in range(len(kinds)):
            c = np.sum(r0[t].real ** 2 + r0[t].imag ** 2 + r1[t].real ** 2
                       + r1[t].imag ** 2)
            v = ev._sub @ (r0[t] * np.conj(r1[t]))
            assert_same(proposed, t, reference(ev, c, v, r0[t], r1[t]))
            expected = None
            if not bad[t].any():
                c = np.sum(y[t].real ** 2 + y[t].imag ** 2) + y.shape[-1]
                v = ev._sub @ np.conj(y[t])
                expected = reference(ev, c, v, 1.0, y[t])
            assert_same(nguyenle, t, expected)


def test_grid_past_one_period_takes_the_full_surface():
    """Without the guard the bracket would miss the alias two periods
    out: with R1 = R0 the cost is least at every multiple of 0.8, and
    1.6 is the only one on this grid."""
    grid = GRIDS[-1]
    ev = GridEvaluator(grid, CFG)
    r0 = np.exp(0.3j * CFG.subcarrier_indices)[None]
    c, v = ev._pair_terms(r0, r0)
    assert ev._bracket(c, v)[0].size == 0
    result = ev.search_proposed(r0, r0)
    assert result.cfo[0] == grid.cfo_values[10]
    assert abs(result.cfo[0] - 1.6) < 1e-12


def test_bracket_ties_break_to_the_first_lattice_point():
    """R1 is R0 times the mean of the ramps at SFO +/-0.01 and CFO 0, and
    both spectra are real and symmetric in k, so the SFOs +/-0.01 tie
    exactly at CFO 0, both below SFO 0; the certified bracket must keep
    the first."""
    grid = GridSpec(0.01, range(-50, 51), 0.01, range(-1, 2))
    ev = GridEvaluator(grid, CFG)
    k = CFG.subcarrier_indices
    r0 = (1.0 + 0.5 * np.cos(0.3 * k))[None] + 0j
    r1 = r0 * symbol_phase_ramp(k, 0.0, 0.01, CFG).real
    c, v = ev._pair_terms(r0, r1)
    surface = ev._surface(c[0], v[0])
    assert surface[50, 0] == surface[50, 2] == surface.min()
    assert ev._bracket(c, v)[0].tolist() == [0]
    result = ev.search_proposed(r0, r1)
    assert (result.cfo[0], result.sfo[0]) == (0.0, -0.01)


def certified_shares(monkeypatch, snr_db):
    """Per row search of one default chunk: how many rows it searched
    and how many of them the bracket certified."""
    certified = []
    bracket = GridEvaluator._bracket

    def spy(self, c, v):
        found = bracket(self, c, v)
        certified.append((len(c), found[0].size))
        return found

    with monkeypatch.context() as patch:
        patch.setattr(GridEvaluator, "_bracket", spy)
        list(burst_chunks(make_experiment(), snr_db, range(32)))
    return tuple(certified)


def test_default_chunks_take_the_bracket(monkeypatch):
    """A default fig2 chunk never falls back to the full surface for the
    proposed fit at 5 dB, nor for either fit at 20 dB. The ratio fit's
    noise on faded subcarriers leaves a few low-SNR rows to the full
    surface, so its 5 dB share is only bounded from below."""
    proposed, nguyenle = certified_shares(monkeypatch, 5.0)
    assert proposed == (32, 32)
    assert nguyenle[0] == 32 and nguyenle[1] >= 30
    assert certified_shares(monkeypatch, 20.0) == ((32, 32), (32, 32))


@pytest.mark.parametrize("snr_db", [5.0, 10.0, 15.0, 20.0, 25.0, 30.0])
def test_every_default_fig2_chunk_takes_the_bracket(monkeypatch, snr_db):
    """The first chunk at each default fig2 SNR point: the bracket
    certifies every proposed row, and every Nguyen-Le row from 10 dB up
    (at 5 dB the ratio fit's noise leaves one or two to the surface)."""
    proposed, nguyenle = certified_shares(monkeypatch, snr_db)
    assert proposed == (32, 32)
    assert nguyenle[0] == 32 and nguyenle[1] >= (30 if snr_db < 10 else 32)


def test_full_size_fig2_sweep_certifies_as_before(monkeypatch):
    """The default fig2 sweep, 500 trials at each point from 5 to 30 dB:
    the bracket certifies all 3000 proposed searches and 2992 of the 3000
    Nguyen-Le ones, so a weaker certificate fails here instead of only
    costing time."""
    counts = []
    bracket = GridEvaluator._bracket

    def spy(self, c, v):
        found = bracket(self, c, v)
        counts.append((len(c), found[0].size))
        return found

    monkeypatch.setattr(GridEvaluator, "_bracket", spy)
    harness.run_mse_sweep(make_experiment(
        snr_points_db=(5.0, 10.0, 15.0, 20.0, 25.0, 30.0)))
    # Each chunk searches the proposed fit, then the Nguyen-Le fit.
    assert np.sum(counts[0::2], axis=0).tolist() == [3000, 3000]
    assert np.sum(counts[1::2], axis=0).tolist() == [3000, 2992]


LATTICES = (
    make_grid(),
    make_grid(cfo_max=0.0),
    GRIDS[7],
    make_grid(cfo_step=0.05),
    make_grid(cfo_step=0.3),
    make_grid(cfo_step=0.25, cfo_max=0.25),
    make_grid(cfo_step=0.07, cfo_max=0.49),
    make_grid(cfo_step=1e-3, cfo_max=0.3),
    make_grid(cfo_max=0.79),
    make_grid(cfo_max=1.2),
)


@settings(max_examples=60, deadline=None, database=None)
@given(grid=st.sampled_from(LATTICES),
       keys=st.lists(st.floats(-3.0, 3.0), max_size=40))
def test_sort_free_bracket_equals_searchsorted(grid, keys):
    """The bracket's lower CFO row is clip(searchsorted(cfo, p, "right")
    - 1, 0, max(n_cfo - 2, 0)) at every lattice CFO, one ulp to either
    side of it, and at arbitrary keys."""
    cfos = grid.cfo_values
    ev = GridEvaluator(grid, CFG)
    p = np.concatenate([cfos, np.nextafter(cfos, -np.inf),
                        np.nextafter(cfos, np.inf), keys,
                        [-1e15, 1e15]]).reshape(-1, 1)
    expected = np.clip(np.searchsorted(cfos, p, side="right") - 1, 0,
                       max(cfos.size - 2, 0))
    assert np.array_equal(ev._lower(p), expected)


@pytest.mark.parametrize("grid", [GRIDS[3], GRIDS[7]],
                         ids=["one-cfo-row", "two-cfo-rows"])
def test_small_grids_certify_every_finite_row(grid):
    """With one or two CFO rows every lattice point is a candidate, so
    every row with finite terms is certified, and only those."""
    kinds = list(KINDS) * 6
    x, r0, r1 = rows(kinds, 5)
    ev = GridEvaluator(grid, CFG)
    with np.errstate(invalid="ignore", over="ignore"):
        c, v = ev._pair_terms(r0, r1)
        finite = np.isfinite(c) & np.isfinite(v).all(axis=-1)
    assert np.array_equal(ev._bracket(c, v)[0], np.flatnonzero(finite))


# A coarse lattice whose CFO step d makes cos(s d) < 0. On a lattice no
# candidate loses its own column: wherever the window is not empty, the
# nearer candidate lies within d / 2 of p_j and beats every other point
# of that column. What the bound's clamp at 0 holds there is the
# rounding margin.
COARSE = GridSpec(0.25, range(-2, 3), 1e-4, range(-3, 4))


def structured_terms(grid, seed, n=48):
    """(c, v) rows whose Moose CFOs sit anywhere within a period of the
    grid, on lattice CFOs or between them, with column magnitudes spread
    over decades; a sixth of the rows are nearly flat (|v| ~ 1e-15 c)."""
    rng = np.random.default_rng(seed)
    cfos = grid.cfo_values
    n_sfo = grid.shape[1]
    slope = GridEvaluator(grid, CFG)._slope
    centre = np.where(rng.random((n, 1)) < 0.3,
                      rng.choice(cfos, (n, 1)),
                      rng.uniform(cfos[0] - 0.8, cfos[-1] + 0.8, (n, 1)))
    jitter = rng.normal(0.0, 0.01, (n, n_sfo)) * (rng.random((n, 1)) < 0.5)
    mag = np.exp(rng.normal(0.0, 1.5, (n, n_sfo)))
    v = mag * np.exp(-1j * slope * (centre + jitter))
    c = 2.0 * mag.max(axis=-1) * rng.uniform(1.0, 3.0, n)
    flat = rng.random(n) < 1 / 6
    v[flat] *= 1e-15
    return c, v


@settings(max_examples=60, deadline=None, database=None)
@given(grid=st.sampled_from(GRIDS + (COARSE,)),
       seed=st.integers(0, 2 ** 32 - 1))
@example(grid=COARSE, seed=3)
@example(grid=GRIDS[0], seed=4)
def test_certified_rows_hold_the_surface_argmin(grid, seed):
    """Every row the bracket certifies has the full surface's argmin,
    first occurrence included."""
    ev = GridEvaluator(grid, CFG)
    c, v = structured_terms(grid, seed)
    rows, i, j = ev._bracket(c, v)
    for t, at in zip(rows.tolist(), zip(i.tolist(), j.tolist())):
        assert at == ev._result(ev._surface(c[t], v[t]))


def test_negative_cosine_bound_is_clamped():
    """On ``COARSE``'s CFOs, at p = 0.01 in both of two SFO columns, a
    nearly flat row (|v| = 4.5e-13 c) has its best candidate, CFO 0,
    within the rounding margin of c, so its full surface must be formed.
    An unclamped kappa = cos(s d) = -0.38 would raise the bound by
    0.77 |v|max, above that candidate, and certify the row."""
    grid = GridSpec(COARSE.cfo_step, COARSE.cfo_span, 1e-4, range(0, 2))
    ev = GridEvaluator(grid, CFG)
    assert np.cos(ev._slope.min() * COARSE.cfo_step) < -0.38
    v = 4.5e-13 * np.array([[1.0, 0.5]]) * np.exp(-1j * ev._slope * 0.01)
    c = np.array([1.0])
    assert ev._result(ev._surface(c[0], v[0])) == (2, 0)
    assert ev._bracket(c, v)[0].size == 0
