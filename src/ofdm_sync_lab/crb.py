"""Cramer-Rao bounds for joint CFO/SFO estimation on the training burst.

Two independent routes to the 2x2 Fisher information matrix are kept:

* ``fisher_closed_form`` evaluates the analytic entries (sums over
  training symbols and samples of weighted spectra of the noiseless
  received signal);
* ``fisher_numeric_oracle`` differentiates the synthesized noiseless
  mean numerically (central differences) and applies the Gaussian-mean
  Fisher identity, sharing no derivative algebra with the closed form.

The oracle is the reference; the closed form is the fast path used per
trial and is cross-checked against the oracle by the test suite. The
ensemble average over seeded scenario draws is the harness's CRB sweep,
``harness.run_crb_sweep``.

Every closed-form evaluation of an experiment sits at the same true
offsets, so the real sample factors that depend only on (config, cfo,
sfo, symbol index) are built once and memoized, read-only, in a bounded
``functools.lru_cache``; so are the synthesis basis and the channel-DFT
phases (see :mod:`ofdm_sync_lab.ofdm_model`). The summands are real
products (:func:`_fisher_entries`) that equal the usual complex-weighted
ones bit for bit: the weights 1 + j a, j b and j w add only products
with an exact 0 or 1.

The closed form runs on trial-major stacks, one pass per training symbol
over the noiseless burst that synthesis also forms (fig2's chunks reuse
the one they synthesized); :func:`fisher_closed_form` is its one-row view
and equals it bit for bit. The 2x2 inversion is elementwise
(:func:`crb_rows`), and :func:`invertible` marks the rows whose bounds
mean something. The numeric oracle stays a one-trial computation, and
synthesizes its mean with :func:`ofdm_sync_lab.ofdm_model.synthesize_rows`
on a stack of one.
"""

import functools
from dataclasses import dataclass

import numpy as np

from .ofdm_model import (
    ChannelRealization,
    ImpairmentParams,
    OfdmConfig,
    TrainingSymbols,
    _CACHE_SIZE,
    _noiseless_burst,
    _read_only,
    _sum_last,
    _warped_basis,
    synthesize_rows,
)

__all__ = [
    "FisherMatrix",
    "fisher_closed_form",
    "fisher_rows",
    "fisher_numeric_oracle",
    "FisherComparison",
    "compare_fisher",
    "crb_rows",
    "invertible",
]

_TWO_PI = 2.0 * np.pi

# Central-difference steps; chosen so truncation and roundoff are both
# orders of magnitude below the 1e-3 agreement requirement.
CFO_STEP_DEFAULT = 1e-6
SFO_STEP_DEFAULT = 1e-8


@dataclass(frozen=True)
class FisherMatrix:
    """2x2 Fisher information for the parameter order (cfo, sfo)."""

    f00: float
    f01: float
    f10: float
    f11: float

    def as_array(self) -> np.ndarray:
        return np.array([[self.f00, self.f01], [self.f10, self.f11]])


def _check_noise_var(noise_var: float):
    if not noise_var > 0:
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


def _fisher_entries(config: OfdmConfig, burst, cfo: float, sfo: float,
                    noise_var: float):
    """:func:`fisher_rows` of a noiseless burst: with p = Re(d conj(g)),
    symbol m adds (w (1+sfo))^2 |g|^2 to f00, -w (a |g|^2 + b p) to f01
    and (gamma |g|^2 + theta p) + pi |d|^2 to f11."""
    _check_noise_var(noise_var)
    ks = config.subcarrier_indices
    f00 = f01 = f11 = 0.0
    for m, (xh, g) in enumerate(burst):
        kxh = kxh if m and xh is burst[m - 1][0] else ks * xh
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


def fisher_rows(config: OfdmConfig, symbols, taps: np.ndarray,
                cfo: float, sfo: float, noise_var: float):
    """Analytic Fisher entries (f00, f01, f11) of a stack of T bursts.

    All three entries are sums over the training symbols and the N
    samples of each: the CFO-CFO entry weighs |g|^2 by the squared
    sample phase slope, the cross entry combines g with the
    index-weighted spectrum d, and the SFO-SFO entry accumulates the
    three quadratic combinations of g and d. Here
    g[n] = sum_k X(k) H(k) exp(j 2 pi k (n (1+sfo) + sfo N_m) / N) and
    d[n] carries an extra factor k inside the sum.

    ``symbols`` holds one (T, K) array of training rows per training
    symbol and ``taps`` is (T, L); each entry is returned as (T,).
    """
    burst = _noiseless_burst(config, symbols, taps, sfo)
    return _fisher_entries(config, burst, cfo, sfo, noise_var)


def fisher_closed_form(config: OfdmConfig, training: TrainingSymbols,
                       channel: ChannelRealization, cfo: float, sfo: float,
                       noise_var: float) -> FisherMatrix:
    """Analytic Fisher information of the two-symbol burst: the one-row
    view of :func:`fisher_rows`."""
    f00, f01, f11 = fisher_rows(
        config, [training.symbol(m)[None] for m in range(config.n_symbols)],
        channel.taps[None], cfo, sfo, noise_var)
    f01 = float(f01[0])
    return FisherMatrix(f00=float(f00[0]), f01=f01, f10=f01,
                        f11=float(f11[0]))


def fisher_numeric_oracle(config: OfdmConfig, training: TrainingSymbols,
                          channel: ChannelRealization, cfo: float,
                          sfo: float, noise_var: float,
                          cfo_step: float = CFO_STEP_DEFAULT,
                          sfo_step: float = SFO_STEP_DEFAULT
                          ) -> FisherMatrix:
    """Fisher information via central differences of the noiseless mean.

    For circular Gaussian noise of total per-sample variance sigma^2 the
    Fisher entries are (2/sigma^2) sum Re{conj(ds/dp_i) ds/dp_j}; the
    derivatives here come from the synthesized signal alone, so this
    path is independent of the closed-form algebra.
    """
    _check_noise_var(noise_var)
    for name, step in (("cfo_step", cfo_step), ("sfo_step", sfo_step)):
        if not step > 0:
            raise ValueError(f"{name} must be positive, got {step}")

    symbols = [training.symbol(m)[None] for m in range(config.n_symbols)]

    def mean(e, h):
        ImpairmentParams(e, h)  # finite, sfo > -1
        return synthesize_rows(config, symbols, channel.taps[None], e,
                               h)[0].ravel()

    d_cfo = (mean(cfo + cfo_step, sfo) - mean(cfo - cfo_step, sfo)) \
        / (2.0 * cfo_step)
    d_sfo = (mean(cfo, sfo + sfo_step) - mean(cfo, sfo - sfo_step)) \
        / (2.0 * sfo_step)

    scale = 2.0 / noise_var
    f00 = scale * float(np.sum((np.conj(d_cfo) * d_cfo).real))
    f01 = scale * float(np.sum((np.conj(d_cfo) * d_sfo).real))
    f11 = scale * float(np.sum((np.conj(d_sfo) * d_sfo).real))
    return FisherMatrix(f00=f00, f01=f01, f10=f01, f11=f11)


@dataclass(frozen=True)
class FisherComparison:
    """Entrywise comparison of the two Fisher routes."""

    closed: FisherMatrix
    oracle: FisherMatrix

    def rel_errors(self) -> dict:
        """Per entry f00, f01, f11: |closed - oracle| over the larger of
        the two magnitudes, 0 where both are 0."""
        rels = {}
        for name in ("f00", "f01", "f11"):
            a, b = getattr(self.closed, name), getattr(self.oracle, name)
            denom = max(abs(a), abs(b))
            rels[name] = abs(a - b) / denom if denom else 0.0
        return rels

    @property
    def max_rel_error(self) -> float:
        return float(max(self.rel_errors().values()))

    def report(self) -> str:
        lines = ["fisher closed-form vs numeric oracle"]
        for name, rel in self.rel_errors().items():
            lines.append(f"  {name}: closed={getattr(self.closed, name):.17g}"
                         f" oracle={getattr(self.oracle, name):.17g}"
                         f" rel={rel:.3e}")
        lines.append(f"  max relative error: {self.max_rel_error:.3e}")
        return "\n".join(lines)


def compare_fisher(config, training, channel, cfo, sfo, noise_var,
                   cfo_step: float = CFO_STEP_DEFAULT,
                   sfo_step: float = SFO_STEP_DEFAULT) -> FisherComparison:
    """Evaluate both Fisher routes for their entrywise comparison."""
    return FisherComparison(
        closed=fisher_closed_form(config, training, channel, cfo, sfo,
                                  noise_var),
        oracle=fisher_numeric_oracle(config, training, channel, cfo, sfo,
                                     noise_var, cfo_step, sfo_step))


def crb_rows(f00, f01, f10, f11):
    """Invert 2x2 Fisher matrices elementwise into per-parameter bounds.

    Returns (crb_cfo, crb_sfo, det) as arrays. A row is singular where
    det is non-positive or non-finite; its bounds are then meaningless.
    """
    f00, f01, f10, f11 = (np.asarray(f, dtype=float)
                          for f in (f00, f01, f10, f11))
    with np.errstate(all="ignore"):
        det = f00 * f11 - f01 * f10
        return f11 / det, f00 / det, det


def invertible(det) -> np.ndarray:
    """Where a Fisher determinant from :func:`crb_rows` is positive and
    finite."""
    return np.isfinite(det) & (det > 0.0)
