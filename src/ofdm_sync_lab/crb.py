"""Cramer-Rao bounds for joint CFO/SFO estimation on the training burst.

Two independent routes to the 2x2 Fisher information matrix are kept:

* ``fisher_rows`` evaluates the analytic entries (sums over both
  training symbols and their samples of weighted spectra of the
  noiseless received signal);
* ``fisher_numeric_oracle`` differentiates the synthesized noiseless
  mean numerically (central differences) and applies the Gaussian-mean
  Fisher identity, sharing no derivative algebra with the closed form.

The oracle is the reference; the closed form is the fast path used per
trial and is cross-checked against the oracle by :func:`compare_fisher`
and the test suite. The ensemble average over seeded scenario draws is
the harness's CRB sweep, ``harness.run_crb_sweep``.

Every closed-form evaluation of an experiment sits at the same true
offsets, so the real sample factors that depend only on (config, cfo,
sfo, symbol index) are built once and memoized, read-only, in a bounded
``functools.lru_cache``; so are the synthesis basis and the channel-DFT
phases (see :mod:`ofdm_sync_lab.ofdm_model`). The summands are real
products (:func:`fisher_rows`) that equal the usual complex-weighted
ones bit for bit: the weights 1 + j a, j b and j w add only products
with an exact 0 or 1.

Both routes run on trial-major stacks: each takes the
:func:`ofdm_model.noiseless_burst` of T bursts, the one synthesis also
reads, so fig2's chunks hand over the one they synthesized, and bounds
it at the sfo it carries. Each returns the entries (f00, f01, f11) as
(T,) arrays, each row equal bit for bit to that row run as a stack of
one; the oracle reads the burst's own g_m at its sfo and re-warps its
x H rows at each perturbed sfo.
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
    _warped,
    _warped_basis,
    synthesize_rows,
)

__all__ = [
    "fisher_rows",
    "fisher_numeric_oracle",
    "compare_fisher",
    "crb_rows",
    "invertible",
]

_TWO_PI = 2.0 * np.pi

# Central-difference steps; chosen so truncation and roundoff are both
# orders of magnitude below the 1e-3 agreement requirement.
CFO_STEP_DEFAULT = 1e-6
SFO_STEP_DEFAULT = 1e-8


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
    f11, in the factors of :func:`_fisher_weights`.
    """
    _check_noise_var(noise_var)
    xh, gs, sfo = burst
    kxh = config.subcarrier_indices * xh
    f00 = f01 = f11 = 0.0
    for m, g in enumerate(gs):
        d = (_warped_basis(config, sfo, m) @ kxh[..., None])[..., 0]
        slope_sq, neg_w, a, b, gamma, theta, pi = \
            _fisher_weights(config, cfo, sfo, m)
        g_sq = g.real ** 2 + g.imag ** 2
        p = (d * np.conj(g)).real
        f00 = f00 + _sum_last(slope_sq * g_sq)
        f01 = f01 + _sum_last(neg_w * (a * g_sq + b * p))
        f11 = f11 + _sum_last(gamma * g_sq + theta * p
                              + pi * (d.real ** 2 + d.imag ** 2))
    scale = 2.0 / (noise_var * config.dft_size)
    return f00 * scale, f01 * -scale, f11 * -scale


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
