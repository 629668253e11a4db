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
offsets, so the sample weights that depend only on (config, cfo, sfo,
symbol index) are built once and memoized, read-only, in a bounded
``functools.lru_cache``; so are the synthesis basis and the channel-DFT
phases (see :mod:`ofdm_sync_lab.ofdm_model`). Only the spectra of the
trials' training and channel are computed per call.

The closed form runs on trial-major stacks (:func:`fisher_rows`, one
stacked pass per training symbol) and the 2x2 inversion is elementwise
(:func:`crb_rows`); :func:`fisher_closed_form` and
:func:`crb_from_fisher` are their one-row views and equal them bit for
bit. The numeric oracle stays a one-trial computation.
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
    _channel_gains,
    _read_only,
    _sum_last,
    _warped_basis,
    synthesize_frame,
)

__all__ = [
    "SingularInformationError",
    "FisherMatrix",
    "CrbPair",
    "fisher_closed_form",
    "fisher_rows",
    "fisher_numeric_oracle",
    "compare_fisher",
    "crb_from_fisher",
    "crb_rows",
    "invertible",
]

_TWO_PI = 2.0 * np.pi

# Central-difference steps; chosen so truncation and roundoff are both
# orders of magnitude below the 1e-3 agreement requirement.
CFO_STEP_DEFAULT = 1e-6
SFO_STEP_DEFAULT = 1e-8


class SingularInformationError(ValueError):
    """Raised when the Fisher matrix cannot be inverted meaningfully."""


@dataclass(frozen=True)
class FisherMatrix:
    """2x2 Fisher information for the parameter order (cfo, sfo)."""

    f00: float
    f01: float
    f10: float
    f11: float

    def as_array(self) -> np.ndarray:
        return np.array([[self.f00, self.f01], [self.f10, self.f11]])


@dataclass(frozen=True)
class CrbPair:
    """Variance lower bounds for the two offsets."""

    crb_cfo: float
    crb_sfo: float


def _check_noise_var(noise_var: float):
    if not noise_var > 0:
        raise ValueError(f"noise_var must be positive, got {noise_var}")


@functools.lru_cache(maxsize=_CACHE_SIZE)
def _fisher_weights(config: OfdmConfig, cfo: float, sfo: float, m: int):
    """Offset-only weights of symbol m's Fisher entries, read-only.

    With the angular sample weights w[n] = (2 pi / N) (N_m + n), returns
    (w (1+sfo))^2, 1 + j w (1+sfo) cfo, j w (1+sfo), j w, -w^2 cfo^2,
    -2 cfo w^2 and -w^2, in the order :func:`fisher_closed_form` applies
    them.
    """
    w = _TWO_PI / config.dft_size * (config.symbol_start(m)
                                     + np.arange(config.dft_size))
    return tuple(_read_only(a) for a in (
        (w * (1.0 + sfo)) ** 2,
        1.0 + 1j * w * (1.0 + sfo) * cfo,
        1j * w * (1.0 + sfo),
        1j * w,
        -(w ** 2) * (cfo ** 2),
        -2.0 * cfo * (w ** 2),
        -(w ** 2),
    ))


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
    _check_noise_var(noise_var)
    h = _channel_gains(config, taps)
    ks = config.subcarrier_indices
    f00 = f01 = f11 = 0.0
    for m, x in enumerate(symbols):
        basis = _warped_basis(config, sfo, m)
        xh = x * h
        g = (basis @ xh[..., None])[..., 0]
        d = (basis @ (ks * xh)[..., None])[..., 0]
        slope_sq, phi_w, psi_w, jw, gamma_w, theta_w, pi_w = \
            _fisher_weights(config, cfo, sfo, m)
        g_sq = g.real ** 2 + g.imag ** 2
        d_conj_g = d * np.conj(g)

        f00 = f00 + _sum_last(slope_sq * g_sq)

        phi = phi_w * g_sq
        psi = psi_w * d_conj_g
        f01 = f01 + _sum_last((jw * (phi + psi)).real)

        gamma = gamma_w * g_sq
        theta = theta_w * d_conj_g
        pi_term = pi_w * (d.real ** 2 + d.imag ** 2)
        f11 = f11 + _sum_last((gamma + theta + pi_term).real)

    scale = 2.0 / (noise_var * config.dft_size)
    return f00 * scale, f01 * -scale, f11 * -scale


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

    def mean(e, h):
        return synthesize_frame(config, training, channel,
                                ImpairmentParams(e, h, 0.0)).samples.ravel()

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
    max_rel_error: float

    def report(self) -> str:
        lines = ["fisher closed-form vs numeric oracle"]
        for name in ("f00", "f01", "f11"):
            a = getattr(self.closed, name)
            b = getattr(self.oracle, name)
            denom = max(abs(a), abs(b))
            rel = abs(a - b) / denom if denom else 0.0
            lines.append(
                f"  {name}: closed={a:.17g} oracle={b:.17g} rel={rel:.3e}")
        lines.append(f"  max relative error: {self.max_rel_error:.3e}")
        return "\n".join(lines)


def compare_fisher(config, training, channel, cfo, sfo, noise_var,
                   cfo_step: float = CFO_STEP_DEFAULT,
                   sfo_step: float = SFO_STEP_DEFAULT) -> FisherComparison:
    """Evaluate both Fisher routes and their worst entrywise deviation."""
    closed = fisher_closed_form(config, training, channel, cfo, sfo,
                                noise_var)
    oracle = fisher_numeric_oracle(config, training, channel, cfo, sfo,
                                   noise_var, cfo_step, sfo_step)
    rels = []
    for name in ("f00", "f01", "f11"):
        a = getattr(closed, name)
        b = getattr(oracle, name)
        denom = max(abs(a), abs(b))
        rels.append(abs(a - b) / denom if denom else 0.0)
    return FisherComparison(closed=closed, oracle=oracle,
                            max_rel_error=float(max(rels)))


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


def crb_from_fisher(fisher: FisherMatrix) -> CrbPair:
    """Invert the 2x2 Fisher matrix into per-parameter bounds: the one-row
    view of :func:`crb_rows`.

    Raises
    ------
    SingularInformationError
        If the determinant is non-positive or non-finite.
    """
    crb_cfo, crb_sfo, det = crb_rows(fisher.f00, fisher.f01, fisher.f10,
                                     fisher.f11)
    if not invertible(det):
        raise SingularInformationError(
            f"fisher determinant must be positive and finite, got "
            f"{float(det)}")
    return CrbPair(crb_cfo=float(crb_cfo), crb_sfo=float(crb_sfo))
