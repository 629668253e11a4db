"""The bracket search against the full cost surface.

``GridEvaluator.search_proposed_rows`` and ``search_nguyenle_rows`` read
each row's lattice argmin from the two CFO rows that bracket Moose's
closed form in every SFO column, and run the full surface only for rows
whose argmin that cannot certify. Every row must come out as
``_argmin_lattice`` plus ``_result`` on that row's own full surface: the
same (cfo, sfo, cost) bits, or the same exception type and message.
"""

import numpy as np
from hypothesis import example, given, settings, strategies as st

from ofdm_sync_lab import (
    QPSK_ALPHABET,
    DegenerateObservationError,
    GridEvaluator,
    GridSpec,
    NonFiniteSurfaceError,
    make_config,
    make_grid,
    symbol_phase_ramp,
)
from ofdm_sync_lab.estimators import ratio_observable_rows
from ofdm_sync_lab.harness import make_experiment, run_trials

CFG = make_config(64, 52, 16)

# The CFO period N / (N + N_g) is 0.8 at SFO 0; the last two grids span
# more than one period, so no row of theirs may take the bracket.
GRIDS = (
    make_grid(),
    make_grid(cfo_step=0.05),
    make_grid(cfo_step=0.3),
    make_grid(cfo_max=0.0),
    make_grid(sfo_max=0.0),
    GridSpec(np.array([-0.47, -0.2, -0.19, 0.0, 0.05, 0.33, 0.41]),
             np.array([-3e-4, 0.0, 1e-4, 4e-4])),
    make_grid(cfo_max=0.79),
    make_grid(cfo_max=1.2),
    GridSpec(0.01 * np.arange(150, 171), np.array([0.0])),
)

# Row kinds: noiseless, noisy, noise only, all zero, one non-finite bin,
# and noiseless at SFO 0 on a lattice CFO whose alias 0.8 away is also a
# lattice CFO of the default grid, so the two tie up to rounding.
KINDS = ("noiseless", "noisy", "noise", "zero", "inf", "nan", "alias")
ALIAS_TIES = (-0.45, -0.4, -0.35, 0.35, 0.4, 0.45)


def reference(ev, c, v, method, r0, r1):
    """``_argmin_lattice`` and ``_result`` on the row's full surface."""
    surface = c - 2.0 * (ev._lead * v[None, :]).real
    try:
        return ev._result(surface, method, r0, r1)
    except NonFiniteSurfaceError as exc:
        return exc


def assert_same(outcome, expected):
    assert type(outcome) is type(expected)
    if isinstance(expected, Exception):
        assert str(outcome) == str(expected)
    else:
        assert outcome.method == expected.method
        assert (np.array([outcome.cfo, outcome.sfo, outcome.cost]).tobytes()
                == np.array([expected.cfo, expected.sfo,
                             expected.cost]).tobytes())


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
@example(chunk=(GRIDS[6], ["noiseless"] * 24, 11))
@example(chunk=(GRIDS[0], ["alias"] * 24, 13))
def test_bracket_search_equals_full_surface(chunk):
    grid, kinds, seed = chunk
    x, r0, r1 = rows(kinds, seed)
    ev = GridEvaluator(grid, CFG)
    with np.errstate(invalid="ignore", over="ignore"):
        y, bad = ratio_observable_rows(x, x, r0, r1)
        proposed = ev.search_proposed_rows(r0, r1)
        nguyenle = ev.search_nguyenle_rows(y, bad)
        ks = CFG.subcarrier_indices
        for t in range(len(kinds)):
            c = np.sum(r0[t].real ** 2 + r0[t].imag ** 2 + r1[t].real ** 2
                       + r1[t].imag ** 2)
            v = ev._sub @ (r0[t] * np.conj(r1[t]))
            assert_same(proposed[t],
                        reference(ev, c, v, "proposed", r0[t], r1[t]))
            if bad[t].any():
                expected = DegenerateObservationError(ks[bad[t]])
            else:
                c = np.sum(y[t].real ** 2 + y[t].imag ** 2) + y.shape[-1]
                v = ev._sub @ np.conj(y[t])
                expected = reference(ev, c, v, "nguyen_le", 1.0, y[t])
            assert_same(nguyenle[t], expected)


def test_grid_past_one_period_takes_the_full_surface():
    """Without the guard the bracket would miss the alias two periods
    out: with R1 = R0 the cost is least at every multiple of 0.8, and
    1.6 is the only one on this grid."""
    grid = GRIDS[-1]
    ev = GridEvaluator(grid, CFG)
    r0 = np.exp(0.3j * CFG.subcarrier_indices)[None]
    c, v = ev._pair_terms(r0, r0)
    assert ev._bracket(c, v)[0].size == 0
    (result,) = ev.search_proposed_rows(r0, r0)
    assert result.cfo == grid.cfo_values[10]
    assert abs(result.cfo - 1.6) < 1e-12


def test_bracket_ties_break_to_the_first_lattice_point():
    """R1 = R0 with a spectrum symmetric in k makes the SFOs +/-1e-4
    tie exactly at CFO 0; the certified bracket must keep the first."""
    grid = GridSpec(make_grid().cfo_values, np.array([-1e-4, 1e-4]))
    ev = GridEvaluator(grid, CFG)
    r0 = (1.0 + 0.5 * np.cos(0.3 * CFG.subcarrier_indices))[None] + 0j
    c, v = ev._pair_terms(r0, r0)
    surface = ev._surface(c[0], v[0])
    assert surface[50, 0] == surface[50, 1] == surface.min()
    assert ev._bracket(c, v)[0].tolist() == [0]
    (result,) = ev.search_proposed_rows(r0, r0)
    assert (result.cfo, result.sfo) == (0.0, -1e-4)


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
        run_trials(make_experiment(), snr_db, range(32), with_crb=False)
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
