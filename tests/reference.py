"""Test-side references that no ``sync-lab`` command runs.

* :func:`fisher_numeric_oracle` is the numeric route to the 2x2 Fisher
  matrix: central differences of the synthesized noiseless mean under
  the Gaussian-mean Fisher identity (Kay 1993, ch. 3), sharing no
  derivative algebra with ``crb.fisher_rows``, the closed form every
  command bounds with. :func:`compare_fisher` reports the two routes
  entry by entry; criterion 5 and ``tests/test_crb.py`` hold the closed
  form to it.
* :func:`ici_term` is the inter-carrier interference on one bin, which
  criterion 6 adds to the wanted term to rebuild a demodulated symbol.
* :func:`derive_rng` is the one-trial definition of a random substream,
  which the stream tests check ``ofdm_model._derive_tables`` and the
  sweeps' draws against, and which seeds the tests' own data. It seeds
  numpy's own ``PCG64`` through :class:`SeedWords`; the sweeps derive a
  block's seeds as one (labels, points, trials, 4) array, compute the
  same states from it with ``ofdm_model._pcg64_states`` and build no
  generator per trial.

They read the package's private helpers and add nothing to it.
"""

import numpy as np

from ofdm_sync_lab.crb import _check_noise_var, fisher_rows
from ofdm_sync_lab.ofdm_model import (
    OfdmConfig,
    _TWO_PI,
    _channel_gains,
    _check_offsets,
    _hash_pool,
    _key_words,
    _seed_words,
    _sum_last,
    _warped,
    coupling_coefficient,
    synthesize_rows,
)

# Central-difference steps; chosen so truncation and roundoff are both
# orders of magnitude below the 1e-3 agreement requirement.
CFO_STEP_DEFAULT = 1e-6
SFO_STEP_DEFAULT = 1e-8


def fisher_numeric_oracle(config: OfdmConfig, burst: tuple, cfo: float,
                          noise_var, cfo_step: float = CFO_STEP_DEFAULT,
                          sfo_step: float = SFO_STEP_DEFAULT):
    """Fisher entries (f00, f01, f11) of a stack of T bursts at the
    burst's sfo via central differences of the noiseless mean, each as
    (T,).

    For circular Gaussian noise of total per-sample variance sigma^2 the
    Fisher entries are (2/sigma^2) sum Re{conj(ds/dp_i) ds/dp_j}; the
    derivatives here come from the synthesized signal alone: the burst's
    own g_m at its sfo, and its x H rows re-warped at each perturbed sfo,
    so this path is independent of the closed-form algebra. Every
    perturbed offset pair must be a valid (cfo, sfo).
    """
    _check_noise_var(noise_var)
    for name, step in (("cfo_step", cfo_step), ("sfo_step", sfo_step)):
        if not step > 0:
            raise ValueError(f"{name} must be positive, got {step}")
    xh, _, sfo = burst

    def mean(e, h):
        """The (T, 2 N) noiseless samples at offsets (e, h)."""
        _check_offsets(e, h)
        warped = burst if h == sfo else _warped(config, xh, h)
        samples = synthesize_rows(config, warped, e)
        return samples.reshape(len(samples), -1)

    d_cfo = (mean(cfo + cfo_step, sfo) - mean(cfo - cfo_step, sfo)) \
        / (2.0 * cfo_step)
    d_sfo = (mean(cfo, sfo + sfo_step) - mean(cfo, sfo - sfo_step)) \
        / (2.0 * sfo_step)
    scale = 2.0 / noise_var
    return tuple(scale * _sum_last((np.conj(a) * b).real)
                 for a, b in ((d_cfo, d_cfo), (d_cfo, d_sfo), (d_sfo, d_sfo)))


def compare_fisher(config: OfdmConfig, burst: tuple, cfo: float, noise_var,
                   cfo_step: float = CFO_STEP_DEFAULT,
                   sfo_step: float = SFO_STEP_DEFAULT):
    """Both Fisher routes on a stack of T bursts, entry by entry.

    Returns (rel, report): ``rel`` is each row's largest relative error
    |closed - oracle| / max(|closed|, |oracle|) over f00, f01 and f11 (0
    where both are 0), as (T,), and ``report`` lists the entries of the
    row with the largest, the first such on a tie.
    """
    closed = np.array(fisher_rows(config, burst, cfo, noise_var))
    oracle = np.array(fisher_numeric_oracle(config, burst, cfo, noise_var,
                                            cfo_step, sfo_step))
    denom = np.maximum(abs(closed), abs(oracle))
    rels = np.divide(abs(closed - oracle), denom, out=np.zeros_like(denom),
                     where=denom != 0)
    rel = rels.max(axis=0)
    t = int(np.argmax(rel))
    lines = ["fisher closed-form vs numeric oracle"]
    lines += [f"  {name}: closed={a:.17g} oracle={b:.17g} rel={r:.3e}"
              for name, a, b, r in zip(("f00", "f01", "f11"), closed[:, t],
                                       oracle[:, t], rels[:, t])]
    lines.append(f"  max relative error: {rel[t]:.3e}")
    return rel, "\n".join(lines)


def ici_term(k, m: int, x: np.ndarray, taps: np.ndarray, cfo: float,
             sfo: float, config: OfdmConfig):
    """Inter-carrier interference landing on bin k of training symbol m.

    Sums, over every active subcarrier i != k, the coupled and
    phase-rotated contribution delta_{k,i} exp(j 2 pi N_m (i sfo +
    cfo (1 + sfo)) / N) X(i) H(i). ``x`` is the burst's training row (K,)
    and ``taps`` its channel's (L,), giving a complex scalar, or (T, K)
    and (T, L) rows, giving (T,).
    """
    ks = config.subcarrier_indices
    coupling = coupling_coefficient(float(k), ks, cfo, sfo, config.dft_size)
    phase = np.exp(1j * _TWO_PI / config.dft_size * config.symbol_start(m)
                   * (ks * sfo + cfo * (1.0 + sfo)))
    terms = coupling * phase * x * _channel_gains(config, taps)
    return _sum_last(terms[..., ks != k])


class SeedWords(np.random.bit_generator.ISeedSequence):
    """Hands PCG64 four seed words that are already derived, so numpy
    runs its own seeding step on them without a SeedSequence."""

    def __init__(self, words: np.ndarray):
        self.words = words

    def generate_state(self, n_words, dtype=np.uint64):
        return self.words


def derive_rng(master_seed: int, *keys) -> np.random.Generator:
    """Derive an independent substream from a master seed and a key path.

    The stream is numpy's ``PCG64(SeedSequence(words))``, where ``words``
    are the master seed and every key split as
    ``ofdm_model._key_words`` does; ``ofdm_model._derive_tables``
    computes the same seeds for many labels, points and trials at once. The same (seed,
    keys) always yields the same stream.
    """
    entropy = _key_words(int(master_seed))
    for key in keys:
        entropy += _key_words(key)
    words = _seed_words(_hash_pool(entropy), (1,))[0]
    return np.random.Generator(np.random.PCG64(SeedWords(words)))
