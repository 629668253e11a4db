"""Bit-identity of the trial-major paths against one trial at a time.

The harness runs a chunk of trials as stacked arrays. Each stacked
result must equal, byte for byte, what the same trial gives alone:
synthesis, demodulation, the residual norms, the cost surfaces and their
argmin, and the closed-form Fisher entries. The one-trial references
are the row functions called on a stack of one trial (``[t:t+1]``), the
one-observation estimators and, for the reductions, a 1-D ``np.sum``
over one trial's vector.
"""

import numpy as np
from hypothesis import example, given, settings, strategies as st

from ofdm_sync_lab import (
    QPSK_ALPHABET,
    ChannelRealization,
    GridEvaluator,
    PreambleObservation,
    TrainingSymbols,
    fisher_closed_form,
    make_config,
    make_grid,
    pair_residual,
    ratio_residual,
)
from ofdm_sync_lab.crb import fisher_rows
from ofdm_sync_lab.estimators import (
    pair_residual_rows,
    ratio_observable_rows,
    ratio_residual_rows,
    squared_norms,
)
from ofdm_sync_lab.ofdm_model import (
    channel_taps,
    demodulate_rows,
    synthesize_rows,
)

GRID = make_grid(0.05, 0.5, 5e-5, 5e-4)


@st.composite
def stacks(draw):
    """A geometry, offsets and a stack of T seeded bursts."""
    n_active = 2 * draw(st.integers(1, 20))
    dft_size = 2 * draw(st.integers(n_active // 2, 40))
    config = make_config(dft_size, n_active,
                         draw(st.integers(0, dft_size // 4)))
    n_trials = draw(st.integers(1, 40))
    n_taps = draw(st.integers(1, 8))
    cfo = draw(st.floats(-0.4, 0.4))
    sfo = draw(st.floats(-5e-4, 5e-4))
    noise_var = draw(st.sampled_from([0.0, 1e-3, 0.5]))
    seed = draw(st.integers(0, 2 ** 32 - 1))
    return config, n_trials, n_taps, cfo, sfo, noise_var, seed


def noise_normals(seed, t, n_symbols, dft_size):
    """Trial t's (n_symbols, 2, N) noise normals, one stream per symbol."""
    return np.stack([np.random.default_rng([seed, t, m]).standard_normal(
        (2, dft_size)) for m in range(n_symbols)])


def assert_same_bytes(a, b):
    a, b = np.asarray(a), np.asarray(b)
    assert a.dtype == b.dtype and a.shape == b.shape
    assert a.tobytes() == b.tobytes()


def one_trial_sum(v):
    """The reference reduction: a 1-D ``np.sum`` over one trial."""
    return np.sum(v.real ** 2 + v.imag ** 2)


def one_trial_surface(ev, r0, r1):
    """The reference surface: a 1-D sum and a matrix-vector product."""
    c = np.sum(r0.real ** 2 + r0.imag ** 2 + r1.real ** 2 + r1.imag ** 2)
    v = ev._sub @ (r0 * np.conj(r1))
    return c - 2.0 * (ev._lead * v[None, :]).real


@settings(max_examples=40, deadline=None, database=None)
@given(stack=stacks())
@example(stack=(make_config(64, 52, 16), 1, 5, 0.212, 0.000112, 1e-3, 1))
@example(stack=(make_config(64, 52, 16), 33, 5, 0.212, 0.000112, 0.5, 2))
def test_stacked_trials_equal_one_trial_results(stack):
    config, n_trials, n_taps, cfo, sfo, noise_var, seed = stack
    rng = np.random.default_rng(seed)
    x = QPSK_ALPHABET[rng.integers(0, 4, (n_trials, config.n_active))]
    taps = channel_taps(rng.standard_normal((n_trials, 2, n_taps)))
    normals = np.stack([
        noise_normals(seed, t, config.n_symbols, config.dft_size)
        for t in range(n_trials)])

    # Synthesis and demodulation.
    samples = synthesize_rows(config, (x, x), taps, cfo, sfo, noise_var,
                              normals)
    spectra = demodulate_rows(samples, config)
    assert spectra.flags.c_contiguous
    trials = []
    for t in range(n_trials):
        training = TrainingSymbols(x[t], x[t])
        channel = ChannelRealization(taps[t])
        alone = synthesize_rows(
            config, (x[t:t + 1], x[t:t + 1]), taps[t:t + 1], cfo, sfo,
            noise_var,
            noise_normals(seed, t, config.n_symbols, config.dft_size)[None])
        assert_same_bytes(samples[t], alone[0])
        obs = PreambleObservation(*demodulate_rows(alone, config)[0],
                                  training)
        assert_same_bytes(spectra[t, 0], obs.r0)
        assert_same_bytes(spectra[t, 1], obs.r1)
        trials.append((training, channel, obs))

    # The residual norms, on the contiguous spectra and on a transposed
    # view of the same numbers: the reductions must not depend on layout.
    transposed = np.fft.fft(samples, axis=-1) / np.sqrt(config.dft_size)
    transposed = transposed[..., config.subcarrier_indices
                            % config.dft_size]
    assert n_trials == 1 or not transposed.flags.c_contiguous
    for view in (spectra, transposed):
        r0, r1 = view[:, 0], view[:, 1]
        n_sq = squared_norms(pair_residual_rows(r0, r1, cfo, sfo, config))
        y, bad = ratio_observable_rows(x, x, r0, r1)
        e_sq = squared_norms(ratio_residual_rows(y, cfo, sfo, config))
        for t, (_, _, obs) in enumerate(trials):
            assert_same_bytes(n_sq[t], one_trial_sum(
                pair_residual(obs, cfo, sfo, config)))
            assert not bad[t].any()
            assert_same_bytes(e_sq[t], one_trial_sum(
                ratio_residual(obs, cfo, sfo, config)))

        # Surfaces, argmin and the reported cost.
        ev = GridEvaluator(GRID, config)
        proposed = ev._search_pairs(r0, r1).results()
        nguyenle = ev._search_ratios(y, bad).results()
        c, v = ev._pair_terms(r0, r1)
        for t, (_, _, obs) in enumerate(trials):
            reference = one_trial_surface(ev, obs.r0, obs.r1)
            assert_same_bytes(ev._surface(c[t], v[t]), reference)
            assert_same_bytes(ev.proposed_surface(obs), reference)
            assert proposed[t] == ev.search_proposed(obs)
            assert nguyenle[t] == ev.search_nguyenle(obs)

    # Closed-form Fisher entries.
    f00, f01, f11 = fisher_rows(config, (x, x), taps, cfo, sfo,
                                noise_var or 1e-3)
    for t, (training, channel, _) in enumerate(trials):
        one = fisher_closed_form(config, training, channel, cfo, sfo,
                                 noise_var or 1e-3)
        assert (f00[t], f01[t], f11[t]) == (one.f00, one.f01, one.f11)
