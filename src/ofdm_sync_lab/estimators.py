"""Joint CFO/SFO estimators operating on a demodulated training pair.

Two competing maximum-likelihood-style grid estimators are provided:

* ``estimate_proposed`` fits the second symbol's spectrum as a
  phase-ramped copy of the first (no division, so deep channel fades
  only down-weight their subcarriers);
* ``estimate_nguyenle`` (after Nguyen-Le et al.'s CFO/SFO tracker) first
  forms the per-subcarrier ratio observable Y(k) = X0(k) R1(k) /
  (X1(k) R0(k)) and fits a pure phase ramp to it, which amplifies noise
  on faded subcarriers.

Both share the same inter-symbol phase ramp and the same exhaustive
lattice search with a deterministic tie rule. The residuals evaluate the
ramp at the true offsets of every trial of an experiment, so that ramp
is built once and memoized, read-only, in a bounded
``functools.lru_cache`` as :mod:`ofdm_sync_lab.ofdm_model` does.
"""

import functools
from dataclasses import dataclass

import numpy as np

from .ofdm_model import (
    OfdmConfig,
    PreambleObservation,
    _CACHE_SIZE,
    _read_only,
)

__all__ = [
    "DegenerateObservationError",
    "GridSpec",
    "make_grid",
    "EstimationResult",
    "GridEvaluator",
    "NonFiniteSurfaceError",
    "symbol_phase_ramp",
    "proposed_cost",
    "nguyenle_observable",
    "nguyenle_cost",
    "estimate_proposed",
    "estimate_nguyenle",
    "pair_residual",
    "ratio_residual",
]

_TWO_PI = 2.0 * np.pi

# |X1(k) R0(k)| below this is treated as an unusable observation rather
# than risking a catastrophic division.
DEGENERATE_MAGNITUDE = 1e-30


class DegenerateObservationError(Exception):
    """Raised when the ratio observable would divide by a (near-)zero."""

    def __init__(self, subcarriers):
        self.subcarriers = tuple(int(k) for k in np.atleast_1d(subcarriers))
        super().__init__(
            "ratio observable is degenerate at subcarrier(s) "
            f"{list(self.subcarriers)}")


class NonFiniteSurfaceError(ValueError):
    """Raised when a cost surface holds a non-finite lattice value."""


@dataclass(frozen=True)
class GridSpec:
    """Search lattice: ascending CFO and SFO candidate values."""

    cfo_values: np.ndarray
    sfo_values: np.ndarray

    def __post_init__(self):
        for name in ("cfo_values", "sfo_values"):
            values = np.asarray(getattr(self, name), dtype=float)
            if values.ndim != 1 or values.size == 0:
                raise ValueError(f"{name} must be a non-empty 1-D vector")
            if not np.isfinite(values).all():
                raise ValueError(f"{name} contains non-finite entries")
            if values.size > 1 and not (np.diff(values) > 0).all():
                raise ValueError(f"{name} must be strictly ascending")
            object.__setattr__(self, name, values)

    @property
    def shape(self) -> tuple:
        return (self.cfo_values.size, self.sfo_values.size)


def make_grid(cfo_step: float = 0.01, cfo_max: float = 0.5,
              sfo_step: float = 1e-5, sfo_max: float = 5e-4) -> GridSpec:
    """Symmetric lattice of integer multiples of each step.

    The default spans CFO in [-0.5, 0.5] at step 0.01 and SFO in
    [-5e-4, 5e-4] at step 1e-5 (101 x 101 points). ``cfo_max``/``sfo_max``
    are rounded to a whole number of steps; a max of zero pins that axis
    to the single value 0.
    """
    for name, step in (("cfo_step", cfo_step), ("sfo_step", sfo_step)):
        if not step > 0:
            raise ValueError(f"{name} must be positive, got {step}")
    for name, bound in (("cfo_max", cfo_max), ("sfo_max", sfo_max)):
        if bound < 0:
            raise ValueError(f"{name} must be >= 0, got {bound}")
    n_cfo = int(round(cfo_max / cfo_step))
    n_sfo = int(round(sfo_max / sfo_step))
    return GridSpec(
        cfo_values=cfo_step * np.arange(-n_cfo, n_cfo + 1),
        sfo_values=sfo_step * np.arange(-n_sfo, n_sfo + 1),
    )


@dataclass(frozen=True)
class EstimationResult:
    """Estimate returned by a grid search."""

    cfo: float
    sfo: float
    cost: float
    method: str


def symbol_phase_ramp(k, cfo: float, sfo: float, config: OfdmConfig):
    """Phase advance of subcarrier k between consecutive training symbols.

    Equals exp(j 2 pi (N + cp_len) (k sfo + cfo (1 + sfo)) / N); this is
    the factor by which the second symbol's spectrum leads the first.
    Broadcasts over arrays of k (and over array-valued cfo/sfo, which the
    vectorized grid search relies on).
    """
    stride = config.symbol_len
    return np.exp(1j * _TWO_PI * stride / config.dft_size
                  * (np.asarray(k) * np.asarray(sfo)
                     + np.asarray(cfo) * (1.0 + np.asarray(sfo))))


def proposed_cost(obs: PreambleObservation, cfo, sfo,
                  config: OfdmConfig):
    """Sum over active subcarriers of |R1(k) - ramp(k) R0(k)|^2.

    Accepts scalar or broadcastable array cfo/sfo (e.g. a column of CFO
    candidates against a row of SFO candidates evaluates the full cost
    surface in one call). Accumulation over k runs in ascending order.
    This direct formula is the reference the lattice search's
    correlation kernel is tested against.
    """
    return _pair_cost(obs.r0, obs.r1, cfo, sfo, config)


def _pair_cost(r0, r1, cfo, sfo, config: OfdmConfig):
    a = _TWO_PI * config.symbol_len / config.dft_size
    cfo = np.asarray(cfo, dtype=float)
    sfo = np.asarray(sfo, dtype=float)
    lead = np.exp(1j * a * cfo * (1.0 + sfo))
    total = np.zeros(np.broadcast(cfo, sfo).shape)
    for idx, k in enumerate(config.subcarrier_indices):
        ramp_k = lead * np.exp(1j * a * k * sfo)
        diff = r1[idx] - ramp_k * r0[idx]
        total = total + (diff.real ** 2 + diff.imag ** 2)
    if total.ndim == 0:
        return float(total)
    return total


def nguyenle_observable(obs: PreambleObservation,
                        config: OfdmConfig) -> np.ndarray:
    """Per-subcarrier ratio observable Y(k) = X0(k) R1(k) / (X1(k) R0(k)).

    Raises
    ------
    DegenerateObservationError
        If |X1(k) R0(k)| falls below ``DEGENERATE_MAGNITUDE`` anywhere.
    """
    denom = obs.training.x1 * obs.r0
    bad = np.abs(denom) < DEGENERATE_MAGNITUDE
    if bad.any():
        raise DegenerateObservationError(config.subcarrier_indices[bad])
    return obs.training.x0 * obs.r1 / denom


def nguyenle_cost(y: np.ndarray, cfo, sfo, config: OfdmConfig):
    """Sum over active subcarriers of |Y(k) - ramp(k)|^2.

    The pair cost of :func:`proposed_cost` with R0 = 1 and R1 = Y, under
    the same broadcasting and accumulation-order conventions.
    """
    return _pair_cost(np.ones(y.shape), y, cfo, sfo, config)


def _argmin_lattice(surface: np.ndarray, grid: GridSpec):
    """First-occurrence argmin over the row-major (cfo, sfo) surface.

    Ties resolve to the smallest CFO candidate, then the smallest SFO
    candidate, which is exactly the first occurrence in row-major order.
    """
    if not np.isfinite(surface).all():
        i, j = np.unravel_index(
            int(np.argmin(np.isfinite(surface))), surface.shape)
        raise NonFiniteSurfaceError(
            "non-finite cost at lattice point "
            f"(cfo={grid.cfo_values[i]!r}, sfo={grid.sfo_values[j]!r})")
    flat = int(np.argmin(surface))
    i, j = divmod(flat, grid.sfo_values.size)
    return i, j


class GridEvaluator:
    """Reusable lattice evaluator for repeated searches on one grid.

    The ramp has unit modulus, so each pair cost expands to
    sum_k |R1 - ramp R0|^2 = c - 2 Re(lead(cfo, sfo) sum_k sub_k(sfo) z_k)
    with z = R0 conj(R1) and c = sum_k |R0|^2 + |R1|^2. The lead factors
    and the (n_sfo, K) per-subcarrier ramps are precomputed once per
    (grid, config), so a whole surface costs one matrix-vector product.
    The reported cost is recomputed at the argmin as the direct sum over
    ascending k from the same factors, so it does not carry the kernel's
    rounding.
    """

    def __init__(self, grid: GridSpec, config: OfdmConfig):
        self.grid = grid
        self.config = config
        a = _TWO_PI * config.symbol_len / config.dft_size
        e = grid.cfo_values[:, None]
        h = grid.sfo_values[None, :]
        self._lead = np.exp(1j * a * e * (1.0 + h))
        # (n_sfo, K) per-subcarrier ramps; column k matches
        # exp(j a k sfo) evaluated on the SFO axis.
        self._sub = np.exp(
            1j * a * grid.sfo_values[:, None] * config.subcarrier_indices)

    def _correlate(self, z: np.ndarray, c: float) -> np.ndarray:
        return c - 2.0 * (self._lead * (self._sub @ z)[None, :]).real

    def proposed_surface(self, obs: PreambleObservation) -> np.ndarray:
        r0, r1 = obs.r0, obs.r1
        c = np.sum(r0.real ** 2 + r0.imag ** 2 + r1.real ** 2 + r1.imag ** 2)
        return self._correlate(r0 * np.conj(r1), c)

    def nguyenle_surface(self, y: np.ndarray) -> np.ndarray:
        c = np.sum(y.real ** 2 + y.imag ** 2) + y.size
        return self._correlate(np.conj(y), c)

    def _result(self, surface, method, r0, r1):
        i, j = _argmin_lattice(surface, self.grid)
        diff = r1 - self._lead[i, j] * self._sub[j, :] * r0
        # Sequential accumulation over ascending k, as the direct formula.
        cost = np.add.accumulate(diff.real ** 2 + diff.imag ** 2)[-1]
        return EstimationResult(cfo=float(self.grid.cfo_values[i]),
                                sfo=float(self.grid.sfo_values[j]),
                                cost=float(cost), method=method)

    def search_proposed(self, obs: PreambleObservation) -> EstimationResult:
        return self._result(self.proposed_surface(obs), "proposed",
                            obs.r0, obs.r1)

    def search_nguyenle(self, obs: PreambleObservation) -> EstimationResult:
        y = nguyenle_observable(obs, self.config)
        return self._result(self.nguyenle_surface(y), "nguyen_le", 1.0, y)


def _refine_axis(cost, values, i, j, axis):
    """Parabolic vertex through three lattice points along one axis.

    Returns the refined coordinate, clamped to half a step around the
    argmin; falls back to the lattice value at the grid boundary.
    """
    if axis == 0:
        coords = values.cfo_values
        at = lambda ii: cost(coords[ii], values.sfo_values[j])
        idx = i
    else:
        coords = values.sfo_values
        at = lambda jj: cost(values.cfo_values[i], coords[jj])
        idx = j
    if idx == 0 or idx == coords.size - 1:
        return float(coords[idx])
    c_minus, c_mid, c_plus = at(idx - 1), at(idx), at(idx + 1)
    curvature = c_minus - 2.0 * c_mid + c_plus
    if curvature <= 0:
        return float(coords[idx])
    step = coords[idx + 1] - coords[idx]
    offset = 0.5 * (c_minus - c_plus) / curvature
    offset = float(np.clip(offset, -0.5, 0.5))
    return float(coords[idx] + offset * step)


def estimate_proposed(obs: PreambleObservation, grid: GridSpec,
                      config: OfdmConfig,
                      refine: bool = False) -> EstimationResult:
    """Joint CFO/SFO estimate from the phase-ramped pair fit.

    With ``refine=False`` (the default) the estimate is exactly a lattice
    point; ``refine=True`` additionally interpolates a parabola through
    the argmin's neighbours along each axis.
    """
    result = GridEvaluator(grid, config).search_proposed(obs)
    if not refine:
        return result
    cost = lambda e, h: proposed_cost(obs, e, h, config)
    return _refined(cost, grid, result, "proposed")


def estimate_nguyenle(obs: PreambleObservation, grid: GridSpec,
                      config: OfdmConfig,
                      refine: bool = False) -> EstimationResult:
    """Joint CFO/SFO estimate from the ratio-observable fit.

    Propagates :class:`DegenerateObservationError` from the observable.
    """
    result = GridEvaluator(grid, config).search_nguyenle(obs)
    if not refine:
        return result
    y = nguyenle_observable(obs, config)
    cost = lambda e, h: nguyenle_cost(y, e, h, config)
    return _refined(cost, grid, result, "nguyen_le")


def _refined(cost, grid, result, method):
    i = int(np.searchsorted(grid.cfo_values, result.cfo))
    j = int(np.searchsorted(grid.sfo_values, result.sfo))
    cfo = _refine_axis(cost, grid, i, j, axis=0)
    sfo = _refine_axis(cost, grid, i, j, axis=1)
    return EstimationResult(cfo=cfo, sfo=sfo, cost=float(cost(cfo, sfo)),
                            method=method)


@functools.lru_cache(maxsize=_CACHE_SIZE)
def _subcarrier_ramp(config: OfdmConfig, cfo: float,
                     sfo: float) -> np.ndarray:
    """:func:`symbol_phase_ramp` over the active subcarriers."""
    return _read_only(symbol_phase_ramp(config.subcarrier_indices, cfo, sfo,
                                        config))


def pair_residual(obs: PreambleObservation, cfo: float, sfo: float,
                  config: OfdmConfig) -> np.ndarray:
    """Model residual N(k) = R1(k) - ramp(k) R0(k) at the given offsets."""
    return obs.r1 - _subcarrier_ramp(config, cfo, sfo) * obs.r0


def ratio_residual(obs: PreambleObservation, cfo: float, sfo: float,
                   config: OfdmConfig) -> np.ndarray:
    """Ratio residual E(k) = Y(k) - ramp(k) at the given offsets.

    Raises :class:`DegenerateObservationError` when Y is unusable.
    """
    return nguyenle_observable(obs, config) - _subcarrier_ramp(config, cfo,
                                                               sfo)
