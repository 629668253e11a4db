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
trial's training and channel are computed per call.
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
    _read_only,
    _synthesis_basis,
    synthesize_frame,
)

__all__ = [
    "SingularInformationError",
    "FisherMatrix",
    "CrbPair",
    "fisher_closed_form",
    "fisher_numeric_oracle",
    "compare_fisher",
    "crb_from_fisher",
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


def _weighted_spectra(config, training, channel, sfo, m):
    """Per-sample spectra driving the Fisher entries for symbol m.

    Returns (g, d): the plain spectrum
    g[n] = sum_k X(k) H(k) exp(j 2 pi k (n (1+sfo) + sfo N_m) / N),
    and the index-weighted spectrum d[n] with an extra factor k inside
    the sum.
    """
    basis, h = _synthesis_basis(config, channel, sfo, m)
    xh = training.symbol(m) * h
    g = basis @ xh
    d = basis @ (config.subcarrier_indices * xh)
    return g, d


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


def fisher_closed_form(config: OfdmConfig, training: TrainingSymbols,
                       channel: ChannelRealization, cfo: float, sfo: float,
                       noise_var: float) -> FisherMatrix:
    """Analytic Fisher information of the two-symbol burst.

    All three entries are sums over the training symbols and the N
    samples of each: the CFO-CFO entry weighs |g|^2 by the squared
    sample phase slope, the cross entry combines g with the
    index-weighted spectrum d, and the SFO-SFO entry accumulates the
    three quadratic combinations of g and d.
    """
    _check_noise_var(noise_var)
    f00 = 0.0
    f01 = 0.0
    f11 = 0.0
    for m in range(config.n_symbols):
        g, d = _weighted_spectra(config, training, channel, sfo, m)
        slope_sq, phi_w, psi_w, jw, gamma_w, theta_w, pi_w = \
            _fisher_weights(config, cfo, sfo, m)
        g_sq = g.real ** 2 + g.imag ** 2
        d_conj_g = d * np.conj(g)

        f00 += float(np.sum(slope_sq * g_sq))

        phi = phi_w * g_sq
        psi = psi_w * d_conj_g
        f01 += float(np.sum((jw * (phi + psi)).real))

        gamma = gamma_w * g_sq
        theta = theta_w * d_conj_g
        pi_term = pi_w * (d.real ** 2 + d.imag ** 2)
        f11 += float(np.sum((gamma + theta + pi_term).real))

    scale = 2.0 / (noise_var * config.dft_size)
    f00 *= scale
    f01 *= -scale
    f11 *= -scale
    return FisherMatrix(f00=f00, f01=f01, f10=f01, f11=f11)


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


def crb_from_fisher(fisher: FisherMatrix) -> CrbPair:
    """Invert the 2x2 Fisher matrix into per-parameter bounds.

    Raises
    ------
    SingularInformationError
        If the determinant is non-positive or non-finite.
    """
    det = fisher.f00 * fisher.f11 - fisher.f01 * fisher.f10
    if not np.isfinite(det) or det <= 0.0:
        raise SingularInformationError(
            f"fisher determinant must be positive and finite, got {det}")
    return CrbPair(crb_cfo=fisher.f11 / det, crb_sfo=fisher.f00 / det)
