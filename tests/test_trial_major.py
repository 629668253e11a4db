"""Bit-identity of the trial-major paths against one trial at a time.

The harness runs a chunk of trials as stacked arrays. Each stacked
result must equal, byte for byte, what the same trial gives alone:
the noiseless burst, synthesis, demodulation, the residual norms, the
cost surfaces and their argmin, and both routes' Fisher entries. The
one-trial references are
the row functions called on a stack of one trial (``[t:t+1]``) or on
one trial's 1-D rows and, for the reductions, a 1-D ``np.sum`` over one
trial's vector. A stack of 2000 trials must also equal its 64-row
chunks, past the size where numpy starts to reuse temporaries in place.
"""

import numpy as np
from hypothesis import example, given, settings, strategies as st

from ofdm_sync_lab import (
    QPSK_ALPHABET,
    GridEvaluator,
    OfdmConfig,
    estimate_nguyenle,
    estimate_proposed,
    fisher_rows,
    make_grid,
)
from ofdm_sync_lab.estimators import (
    pair_residual_rows,
    ratio_observable_rows,
    ratio_residual_rows,
    squared_norms,
)
from ofdm_sync_lab.ofdm_model import (
    channel_taps,
    demodulate_rows,
    noiseless_burst,
    synthesize_rows,
    _pcg64_states,
    _standard_normals,
)
from reference import fisher_numeric_oracle

GRID = make_grid(0.05, 0.5, 5e-5, 5e-4)


@st.composite
def stacks(draw):
    """A geometry, offsets and a stack of T seeded bursts."""
    n_active = 2 * draw(st.integers(1, 20))
    dft_size = 2 * draw(st.integers(n_active // 2, 40))
    config = OfdmConfig(dft_size, n_active,
                        draw(st.integers(0, dft_size // 4)))
    n_trials = draw(st.integers(1, 40))
    n_taps = draw(st.integers(1, 8))
    cfo = draw(st.floats(-0.4, 0.4))
    sfo = draw(st.floats(-5e-4, 5e-4))
    noise_var = draw(st.sampled_from([0.0, 1e-3, 0.5]))
    seed = draw(st.integers(0, 2 ** 32 - 1))
    return config, n_trials, n_taps, cfo, sfo, noise_var, seed


def noise_normals(seed, t, dft_size):
    """Trial t's (2, 2, N) noise normals, one stream per symbol."""
    return np.stack([np.random.default_rng([seed, t, m]).standard_normal(
        (2, dft_size)) for m in range(2)])


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
@example(stack=(OfdmConfig(64, 52, 16), 1, 5, 0.212, 0.000112, 1e-3, 1))
@example(stack=(OfdmConfig(64, 52, 16), 33, 5, 0.212, 0.000112, 0.5, 2))
def test_stacked_trials_equal_one_trial_results(stack):
    config, n_trials, n_taps, cfo, sfo, noise_var, seed = stack
    rng = np.random.default_rng(seed)
    x = QPSK_ALPHABET[rng.integers(0, 4, (n_trials, config.n_active))]
    taps = channel_taps(rng.standard_normal((n_trials, 2, n_taps)))
    normals = np.stack([
        noise_normals(seed, t, config.dft_size)
        for t in range(n_trials)])

    # Synthesis and demodulation.
    burst = noiseless_burst(config, x, taps, sfo)
    samples = synthesize_rows(config, burst, cfo, noise_var, normals)
    spectra = demodulate_rows(samples, config)
    assert spectra.flags.c_contiguous
    trials, bursts = [], []
    for t in range(n_trials):
        bursts.append(noiseless_burst(config, x[t:t + 1], taps[t:t + 1],
                                      sfo))
        alone = synthesize_rows(config, bursts[-1], cfo, noise_var,
                                noise_normals(seed, t, config.dft_size)[None])
        assert_same_bytes(samples[t], alone[0])
        r0, r1 = demodulate_rows(alone, config)[0]
        assert_same_bytes(spectra[t, 0], r0)
        assert_same_bytes(spectra[t, 1], r1)
        trials.append((r0, r1))

    # The residual norms, on the contiguous spectra and on a transposed
    # view of the same numbers: the reductions must not depend on layout.
    transposed = np.fft.fft(samples, axis=-1) / np.sqrt(config.dft_size)
    transposed = transposed[..., config.subcarrier_indices
                            % config.dft_size]
    assert n_trials == 1 or not transposed.flags.c_contiguous
    for view in (spectra, transposed):
        r0, r1 = view[:, 0], view[:, 1]
        n_sq = squared_norms(pair_residual_rows(r0, r1, cfo, sfo, config))
        y, bad = ratio_observable_rows(x, r0, r1)
        e_sq = squared_norms(ratio_residual_rows(y, cfo, sfo, config))
        for t, (r0_t, r1_t) in enumerate(trials):
            assert_same_bytes(n_sq[t], one_trial_sum(
                pair_residual_rows(r0_t, r1_t, cfo, sfo, config)))
            assert not bad[t].any()
            assert_same_bytes(e_sq[t], one_trial_sum(ratio_residual_rows(
                ratio_observable_rows(x[t], r0_t, r1_t)[0], cfo,
                sfo, config)))

        # Surfaces, argmin and the reported cost.
        ev = GridEvaluator(GRID, config)
        proposed = ev.search_proposed(r0, r1)
        nguyenle = ev.search_nguyenle(y, bad.any(axis=-1))
        c, v = ev._pair_terms(r0, r1)
        for t, (r0_t, r1_t) in enumerate(trials):
            reference = one_trial_surface(ev, r0_t, r1_t)
            assert_same_bytes(ev._surface(c[t], v[t]), reference)
            assert_same_bytes(ev.proposed_surface(r0_t, r1_t), reference)
            y_t, bad_t = ratio_observable_rows(x[t:t + 1], r0_t[None],
                                               r1_t[None])
            for found, alone in (
                    (proposed, ev.search_proposed(r0_t[None], r1_t[None])),
                    (nguyenle, ev.search_nguyenle(y_t, bad_t.any(axis=-1)))):
                assert (found.cfo[t], found.sfo[t], found.cost[t]) == (
                    alone.cfo[0], alone.sfo[0], alone.cost[0])

    # Fisher entries of both routes.
    for route in (fisher_rows, fisher_numeric_oracle):
        stacked = route(config, burst, cfo, noise_var or 1e-3)
        for t in range(n_trials):
            one = route(config, bursts[t], cfo, noise_var or 1e-3)
            for got, want in zip(stacked, one):
                assert_same_bytes(got[t:t + 1], want)


def test_a_large_stack_equals_its_chunks():
    """Every row function on one stack of 2000 trials equals the same
    function on its 64-row chunks, byte for byte: numpy reuses a
    temporary over 256 KiB in place, which must not reorder an operation
    whose rounding depends on operand order."""
    config, n_trials, chunk = OfdmConfig(64, 52, 16), 2000, 64
    cfo, sfo, noise_var = 0.212, 1.12e-4, 0.05
    rng = np.random.default_rng(7)
    x = QPSK_ALPHABET[rng.integers(0, 4, (n_trials, config.n_active))]
    taps = channel_taps(rng.standard_normal((n_trials, 2, 5)))
    normals = rng.standard_normal((n_trials, 2, 2, config.dft_size))
    seeds = rng.integers(0, 2 ** 64, (2, n_trials, 4), dtype=np.uint64,
                         endpoint=False)
    ev = GridEvaluator(make_grid(), config)

    def row_functions(rows):
        x_ = x[rows]
        xh, gs, _ = burst = noiseless_burst(config, x_, taps[rows], sfo)
        samples = synthesize_rows(config, burst, cfo, noise_var, normals[rows])
        spectra = demodulate_rows(samples, config)
        r0, r1 = spectra[:, 0], spectra[:, 1]
        y, bad = ratio_observable_rows(x_, r0, r1)
        out = [xh, *gs, samples, spectra, y, bad,
               squared_norms(pair_residual_rows(r0, r1, cfo, sfo, config)),
               squared_norms(ratio_residual_rows(y, cfo, sfo, config))]
        states = [_pcg64_states(table[rows]) for table in seeds]
        out += [*states, _standard_normals(states, config.dft_size)]
        for route in (fisher_rows, fisher_numeric_oracle):
            out += route(config, burst, cfo, noise_var)
        for found in (ev.search_proposed(r0, r1),
                      ev.search_nguyenle(y, bad.any(axis=-1)),
                      estimate_proposed(r0, r1, ev.grid, config, refine=True),
                      estimate_nguyenle(x_, r0, r1, ev.grid, config,
                                        refine=True)):
            out += [found.cfo, found.sfo, found.cost]
        return out

    whole = row_functions(slice(None))
    chunks = [row_functions(slice(start, start + chunk))
              for start in range(0, n_trials, chunk)]
    for got, parts in zip(whole, zip(*chunks)):
        assert_same_bytes(got, np.concatenate(parts))
