"""Cramer-Rao bounds for joint CFO/SFO estimation on the training burst.

The 2x2 Fisher information matrix has one route, the one every command
bounds with: :func:`fisher_rows` evaluates its analytic entries, sums
over both training symbols and their samples of weighted spectra of the
noiseless received signal. The test suite holds it entrywise against a
numeric oracle (``tests/reference.py``) that differentiates the
synthesized noiseless mean by central differences under the
Gaussian-mean Fisher identity, sharing no derivative algebra with the
closed form. The ensemble average over seeded scenario draws is the
harness's CRB sweep, ``harness.run_crb_sweep``.

Every closed-form evaluation of an experiment sits at the same true
offsets, so the real sample factors that depend only on (config, cfo,
sfo, symbol index) are built once and memoized, read-only, in a bounded
``functools.lru_cache``; so are the synthesis basis and the channel-DFT
phases (see :mod:`ofdm_sync_lab.ofdm_model`). The summands are real
products (:func:`fisher_rows`) that equal the usual complex-weighted
ones bit for bit: the weights 1 + j a, j b and j w add only products
with an exact 0 or 1.

The closed form runs on trial-major stacks: it takes the
:func:`ofdm_model.noiseless_burst` of T bursts, the one synthesis also
reads, so fig2's chunks hand over the one they synthesized, and bounds
it at the sfo it carries. It returns the entries (f00, f01, f11) as
(T,) arrays, each row equal bit for bit to that row run as a stack of
one.
``noise_var`` is a scalar or one value per row. The 2x2 inversion is
elementwise (:func:`crb_rows`), and :func:`invertible` marks the rows
whose bounds mean something.
"""

import functools

import numpy as np

from .ofdm_model import (
    OfdmConfig,
    _CACHE_SIZE,
    _check_offsets,
    _read_only,
    _sum_last,
    _warped_basis,
)

__all__ = [
    "fisher_rows",
    "crb_rows",
    "invertible",
]

_TWO_PI = 2.0 * np.pi


def _check_noise_var(noise_var):
    if not np.greater(noise_var, 0).all():
        raise ValueError(f"noise_var must be positive, got {noise_var}")


@functools.lru_cache(maxsize=_CACHE_SIZE)
def _fisher_weights(config: OfdmConfig, cfo: float, sfo: float, m: int):
    """Offset-only real factors of symbol m's Fisher summands, read-only:
    with the angular sample weights w[n] = (2 pi / N) (N_m + n), (w (1+sfo))^2,
    -w, a = w (1+sfo) cfo, b = w (1+sfo), gamma = -w^2 cfo^2,
    theta = -2 cfo w^2 and pi = -w^2."""
    w = _TWO_PI / config.dft_size * (config.symbol_start(m)
                                     + np.arange(config.dft_size))
    b, w_sq = w * (1.0 + sfo), w ** 2
    return tuple(_read_only(a) for a in (
        b ** 2, -w, b * cfo, b, -w_sq * (cfo ** 2), -2.0 * cfo * w_sq, -w_sq))


def fisher_rows(config: OfdmConfig, burst: tuple, cfo: float, noise_var):
    """Analytic Fisher entries (f00, f01, f11) of a stack of T bursts at
    the burst's sfo, each as (T,).

    All three entries are sums over both training symbols and the N
    samples of each: the CFO-CFO entry weighs |g|^2 by the squared
    sample phase slope, the cross entry combines g with the
    index-weighted spectrum d, and the SFO-SFO entry accumulates the
    three quadratic combinations of g and d. Here
    g[n] = sum_k X(k) H(k) exp(j 2 pi k (n (1+sfo) + sfo N_m) / N) is the
    burst's g_m and d[n] carries an extra factor k inside the sum. With
    p = Re(d conj(g)), symbol m adds (w (1+sfo))^2 |g|^2 to f00,
    -w (a |g|^2 + b p) to f01 and (gamma |g|^2 + theta p) + pi |d|^2 to
    f11, in the factors of :func:`_fisher_weights`. cfo must be finite
    with |cfo| < N.
    """
    _check_noise_var(noise_var)
    xh, gs, sfo = burst
    _check_offsets(cfo, sfo, config.dft_size)
    kxh = config.subcarrier_indices * xh
    f00 = f01 = f11 = 0.0
    for m, g in enumerate(gs):
        d = (_warped_basis(config, sfo, m) @ kxh[..., None])[..., 0]
        slope_sq, neg_w, a, b, gamma, theta, pi = \
            _fisher_weights(config, cfo, sfo, m)
        p = np.conj(g)
        p = np.multiply(d, p, out=p).real  # d conj(g), formed in place
        d = d.real ** 2 + d.imag ** 2  # |d|^2 takes d's place
        g_sq = g.real ** 2 + g.imag ** 2
        f00 = f00 + _sum_last(slope_sq * g_sq)
        f01 = f01 + _sum_last(neg_w * (a * g_sq + b * p))
        f11 = f11 + _sum_last(gamma * g_sq + theta * p + pi * d)
        del p, g_sq  # before the next symbol's d
    scale = 2.0 / (noise_var * config.dft_size)
    return f00 * scale, f01 * -scale, f11 * -scale


def crb_rows(f00, f01, f10, f11):
    """Invert 2x2 Fisher matrices elementwise into per-parameter bounds.

    Returns (crb_cfo, crb_sfo, det) as arrays. A row whose det is not a
    finite normal float (entries near 1e-200 at -2000 dB, 1e300 at
    3000 dB) is inverted again scaled by 2**-e, e the exponent of its
    largest entry, which is exact: det is then the scaled row's. A row is
    singular where det is non-positive or non-finite.
    """
    def invert(f00, f01, f10, f11):
        det = f00 * f11 - f01 * f10
        return f11 / det, f00 / det, det

    entries = [np.asarray(f, dtype=float) for f in (f00, f01, f10, f11)]
    with np.errstate(all="ignore"):
        crb_cfo, crb_sfo, det = invert(*entries)
        redo = ~(abs(det) >= np.finfo(float).tiny) | np.isinf(det)
        if redo.any():
            e = -np.frexp(functools.reduce(np.maximum, map(abs, entries)))[1]
            cfo, sfo, scaled = invert(*(np.ldexp(f, e) for f in entries))
            crb_cfo, crb_sfo, det = (np.where(redo, new, old) for new, old in (
                (np.ldexp(cfo, e), crb_cfo), (np.ldexp(sfo, e), crb_sfo),
                (scaled, det)))
        return crb_cfo, crb_sfo, det


def invertible(det) -> np.ndarray:
    """Where a Fisher determinant from :func:`crb_rows` is positive and
    finite."""
    return np.isfinite(det) & (det > 0.0)
