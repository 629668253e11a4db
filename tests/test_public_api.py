"""The library contract: every name of ``ofdm_sync_lab.__all__`` that
computes returns or raises ``ValueError``, with no other exception and
no warning.

One derandomized hypothesis test calls each such name with typed but
adversarial arguments: ints near 0 and 2**64, floats at +/-inf, NaN,
1e+/-300 and the ends of each valid range, empty and 1-D arrays where
stacks of rows belong, and stacks of mismatched row counts. The spectra
that the estimators read also carry inf and NaN entries, which fail
their row's search, a NaN row and nothing more. Sizes that set an
allocation (N, K and the tap count of a draw, the trial count of a
sweep) stay small, as in ``test_no_invocation_crashes``: no per-array
memory budget rejects a huge one yet (ROADMAP item 5). Each call that
once broke the contract, or returned a wrong value, is an
``@example``.
"""

import math
import warnings

import numpy as np
from hypothesis import HealthCheck, example, given, settings, strategies as st

import ofdm_sync_lab
from ofdm_sync_lab import (
    QPSK_ALPHABET,
    OfdmConfig,
    carrier_gain,
    channel_taps,
    coupling_coefficient,
    crb_rows,
    demodulate_rows,
    estimate_nguyenle,
    estimate_proposed,
    exponential_power_profile,
    fisher_rows,
    inspect_trial,
    invertible,
    make_experiment,
    make_grid,
    nguyenle_cost,
    noise_variance_from_snr,
    noiseless_burst,
    pair_residual_rows,
    proposed_cost,
    ratio_observable_rows,
    ratio_residual_rows,
    run_crb_sweep,
    run_mse_sweep,
    run_noise_variance_sweep,
    snr_stream_key,
    squared_norms,
    symbol_phase_ramp,
    synthesize_rows,
)

# The sweeps take an experiment: their calls draw make_experiment's
# arguments, and the experiment is built inside the contract.
SWEEPS = (run_mse_sweep, run_noise_variance_sweep, run_crb_sweep)

COMPUTING = (
    OfdmConfig, exponential_power_profile, channel_taps, noiseless_burst,
    synthesize_rows, demodulate_rows, coupling_coefficient, carrier_gain,
    noise_variance_from_snr, snr_stream_key, make_grid, symbol_phase_ramp,
    proposed_cost, ratio_observable_rows, nguyenle_cost, estimate_proposed,
    estimate_nguyenle, pair_residual_rows, ratio_residual_rows,
    squared_norms, fisher_rows, crb_rows, invertible, make_experiment,
    inspect_trial, *SWEEPS)

# The rest of __all__: constants, records, and the classes that the
# make_* calls above build and check, or that the estimate calls run.
NOT_COMPUTING = ("__version__", "MAX_TRIALS", "QPSK_ALPHABET", "GridSpec",
                 "ExperimentConfig", "GridEvaluator", "Estimates",
                 "TrialDiagnostics", "SweepRow", "SweepResult")

CFG = OfdmConfig(16, 8, 4)
GRID = make_grid(0.1, 0.3, 1e-4, 2e-4)
ROWS = 3
X = QPSK_ALPHABET[np.arange(ROWS * CFG.n_active).reshape(ROWS, -1) % 4]
TAPS = np.full((ROWS, 3), 0.5 + 0.25j)
BURST = noiseless_burst(CFG, X, TAPS, 1e-4)
SMALL = dict(dft_size=16, n_active=8, cp_len=4, n_taps=3, n_trials=2,
             snr_points_db=(10.0,), grid=GRID)

INTS = st.one_of(st.integers(-3, 3), st.sampled_from(
    [-2 ** 64, -2 ** 63, 2 ** 32 - 1, 2 ** 32, 2 ** 63, 2 ** 64 - 1, 2 ** 64,
     2 ** 64 + 1]))
# Half the floats are ordinary offsets and SNRs, half are edges.
FLOATS = st.one_of(
    st.sampled_from([0.0, 1e-4, -1e-4, 0.212, -0.3, 15.0]),
    st.sampled_from([-0.0, 1.0, -1.0, 63.9, 1e-300, -1e-300, 1e300, -1e300,
                     math.inf, -math.inf, math.nan]))
SIZES = st.integers(-1, 16)
# Stack shapes for rows of width w: T rows, one row, no rows, an empty
# row, a 1-D row, a wrong width and one row too many.
SHAPES = ((ROWS, None), (1, None), (0, None), (0,), (None,),
          (ROWS, "wide"), (ROWS + 1, None))


@st.composite
def arrays(draw, width, shapes=SHAPES, non_finite=False):
    """A complex array of one of ``shapes``, None standing for ``width``
    and "wide" for ``width + 2``; with ``non_finite``, entries may be
    inf or NaN."""
    shape = tuple(width if n is None else width + 2 if n == "wide" else n
                  for n in draw(st.sampled_from(shapes)))
    values = np.linspace(-1.0, 1.5, max(1, math.prod(shape)))
    values = (values + 1j * values[::-1])[:math.prod(shape)].reshape(shape)
    if non_finite and values.size and draw(st.booleans()):
        spot = draw(st.integers(0, values.size - 1))
        values.flat[spot] = draw(st.sampled_from(
            [math.inf, -math.inf, complex(math.inf, math.inf), math.nan]))
    return values


def spectra(non_finite=True):
    return arrays(CFG.n_active, non_finite=non_finite)


def experiment_args():
    """make_experiment's keyword arguments, each left out or adversarial;
    sizes that set an allocation stay small."""
    return st.fixed_dictionaries({}, optional={
        "cfo": FLOATS, "sfo": FLOATS, "master_seed": INTS,
        "n_taps": st.one_of(st.integers(-1, 8), st.just(2.5)),
        "n_trials": st.one_of(st.integers(-1, 3), st.just(2.5)),
        "snr_points_db": st.lists(FLOATS, min_size=0, max_size=2).map(tuple),
    }).map(lambda args: {**SMALL, **args})


def calls():
    """(function, arguments) for every computing name."""
    noise_vars = st.one_of(FLOATS, st.sampled_from(
        [np.full(ROWS, 0.1), np.full(ROWS + 1, 0.1), np.zeros(0)]))
    normals = st.one_of(st.none(), st.sampled_from(
        [np.ones((ROWS, 2, 2, 16)), np.ones((ROWS, 2, 2, 15)),
         np.ones((2, 16)), np.ones(16), np.ones((ROWS, 3, 16))]))
    bounds = st.one_of(FLOATS, st.sampled_from(
        [np.ones(ROWS), np.ones(ROWS + 1), np.zeros(0)]))
    per_name = {
        OfdmConfig: (INTS, INTS, INTS),
        exponential_power_profile: (st.one_of(SIZES, st.just(2.5)),),
        channel_taps: (st.sampled_from([(ROWS, 2, 3), (2, 3), (3,),
                                        (0, 2, 3), (ROWS, 2, 0),
                                        (ROWS, 3, 3)]).map(np.ones),),
        noiseless_burst: (st.just(CFG), spectra(False), arrays(3), FLOATS),
        synthesize_rows: (st.just(CFG), st.just(BURST), FLOATS, FLOATS,
                          normals),
        demodulate_rows: (arrays(16, shapes=((ROWS, 2, None), (None,),
                                             (0, 2, None), (ROWS, 2, "wide"),
                                             (0,))),
                          st.just(CFG)),
        coupling_coefficient: (INTS, INTS, FLOATS, FLOATS, SIZES),
        carrier_gain: (st.one_of(INTS, st.just(CFG.subcarrier_indices)),
                       INTS, FLOATS, FLOATS, st.just(CFG)),
        noise_variance_from_snr: (st.just(CFG), FLOATS),
        snr_stream_key: (FLOATS,),
        make_grid: (FLOATS, FLOATS, FLOATS, FLOATS),
        symbol_phase_ramp: (st.one_of(INTS, st.just(CFG.subcarrier_indices)),
                            FLOATS, FLOATS, st.just(CFG)),
        proposed_cost: (arrays(8, shapes=((None,), ("wide",), (ROWS, None),
                                          (0,))),
                        arrays(8, shapes=((None,), (0,))), FLOATS, FLOATS,
                        st.just(CFG)),
        ratio_observable_rows: (spectra(False), spectra(), spectra()),
        nguyenle_cost: (arrays(8, shapes=((None,), ("wide",), (0,))),
                        FLOATS, FLOATS, st.just(CFG)),
        estimate_proposed: (spectra(), spectra(), st.just(GRID),
                            st.just(CFG), st.booleans()),
        estimate_nguyenle: (spectra(False), spectra(), spectra(),
                            st.just(GRID), st.just(CFG), st.booleans()),
        pair_residual_rows: (spectra(False), spectra(False), FLOATS, FLOATS,
                             st.just(CFG)),
        ratio_residual_rows: (spectra(False), FLOATS, FLOATS, st.just(CFG)),
        squared_norms: (spectra(False),),
        fisher_rows: (st.just(CFG), st.just(BURST), FLOATS, noise_vars),
        crb_rows: (bounds, bounds, bounds, bounds),
        invertible: (bounds,),
        make_experiment: (experiment_args(),),
        inspect_trial: (st.just(make_experiment(**SMALL)), FLOATS, INTS),
        **{sweep: (experiment_args(),) for sweep in SWEEPS},
    }
    assert set(per_name) == set(COMPUTING)
    return st.one_of(*(st.tuples(st.just(fn), st.tuples(*args))
                       for fn, args in per_name.items()))


def test_computing_names_cover_the_public_api():
    assert sorted(ofdm_sync_lab.__all__) == sorted(
        [fn.__name__ for fn in COMPUTING] + list(NOT_COMPUTING))


@settings(derandomize=True, database=None, deadline=None, max_examples=1000,
          suppress_health_check=[HealthCheck.too_slow])
@given(call=calls())
# A seed outside [0, 2**64) once shared every stream with one inside it,
# and a non-integral trial count was cut short: both now fail.
@example(call=(make_experiment, ({**SMALL, "master_seed": -1},)))
@example(call=(make_experiment, ({**SMALL, "master_seed": 2 ** 64},)))
@example(call=(make_experiment, ({**SMALL, "n_trials": 2.5},)))
# A huge cfo overflowed the Fisher weights (OverflowError), and a NaN cfo
# gave NaN Fisher rows and NaN samples.
@example(call=(fisher_rows, (CFG, BURST, 1e300, 1.0)))
@example(call=(fisher_rows, (CFG, BURST, math.nan, 1.0)))
@example(call=(synthesize_rows, (CFG, BURST, math.nan, 0.0, None)))
# A NaN SNR gave a NaN noise variance, and a NaN cfo warned.
@example(call=(noise_variance_from_snr, (CFG, math.nan)))
@example(call=(carrier_gain, (CFG.subcarrier_indices, 0, math.nan, 0.0,
                              CFG)))
# 1-D rows raised IndexError, and an inf entry warned on its way to the
# NaN row.
@example(call=(estimate_proposed, (X[0], X[0], GRID, CFG, False)))
@example(call=(estimate_nguyenle, (X[0], X[0], X[0], GRID, CFG, False)))
@example(call=(estimate_proposed, (X, np.where(X.real > 0, math.inf, X),
                                   GRID, CFG, False)))
@example(call=(estimate_nguyenle, (X, X, np.where(X.real > 0, math.inf, X),
                                   GRID, CFG, True)))
def test_every_computing_name_returns_or_raises_value_error(call):
    fn, args = call
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        try:
            if fn is make_experiment:
                fn(**args[0])
            elif fn in SWEEPS:
                fn(make_experiment(**args[0]))
            else:
                fn(*args)
        except ValueError:
            pass
