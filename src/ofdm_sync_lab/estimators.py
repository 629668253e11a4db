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
lattice search with a deterministic tie rule. What depends only on the
experiment is built once and memoized, read-only, in a bounded
``functools.lru_cache`` as :mod:`ofdm_sync_lab.ofdm_model` does: the
residuals' ramp at the true offsets, and the one :class:`GridEvaluator`
of each (grid, config) that the harness and both estimate functions
search with. A :class:`GridSpec` is hashable for that: its axes are
read-only and it compares by their bits.

The residuals, the ratio observable and the lattice searches run on
trial-major (T, K) spectra, and the one-observation functions are their
one-row views. The residual norms and the surfaces' constant terms are
reductions along the last axis, and each estimator's correlations are
one stacked matvec per stack. At a fixed SFO the cost is a cosine in
CFO whose minimum is Moose's closed form, so each trial's lattice argmin
is read, for the whole stack at once, from the two CFO rows that
bracket that closed form in every SFO column, certified by one bound
per trial; a trial whose argmin this cannot certify forms its full
101 x 101 surface, its finiteness check and its argmin on its own.
Either way the result is the full surface's, bit for bit. The row
searches return trial-major columns (``_Estimates``) that the harness
reduces directly; ``GridEvaluator.search_proposed`` and
``search_nguyenle`` read the one row of a stack of one.
``refine=True`` moves a lattice estimate off the lattice from the same
correlations: Moose's closed-form CFO at the argmin's SFO, and the SFO
vertex of the profile over SFO. The direct formulas
:func:`proposed_cost` and :func:`nguyenle_cost` steer no search: they
report a cost at a given point and are the tests' reference.
"""

import functools
from dataclasses import dataclass, replace

import numpy as np

from .ofdm_model import (
    OfdmConfig,
    PreambleObservation,
    _CACHE_SIZE,
    _read_only,
    _sum_last,
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
    "ratio_observable_rows",
    "nguyenle_cost",
    "estimate_proposed",
    "estimate_nguyenle",
    "pair_residual",
    "pair_residual_rows",
    "ratio_residual",
    "ratio_residual_rows",
    "squared_norms",
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


@dataclass(frozen=True, eq=False)
class GridSpec:
    """Search lattice: ascending CFO and SFO candidate values, held as
    read-only copies; grids with the same axis bits compare and hash
    equal."""

    cfo_values: np.ndarray
    sfo_values: np.ndarray

    def __post_init__(self):
        for name in ("cfo_values", "sfo_values"):
            values = np.array(getattr(self, name), dtype=float)
            if values.ndim != 1 or values.size == 0:
                raise ValueError(f"{name} must be a non-empty 1-D vector")
            if not np.isfinite(values).all():
                raise ValueError(f"{name} contains non-finite entries")
            if values.size > 1 and not (np.diff(values) > 0).all():
                raise ValueError(f"{name} must be strictly ascending")
            object.__setattr__(self, name, _read_only(values))

    def _key(self) -> tuple:
        return self.cfo_values.tobytes(), self.sfo_values.tobytes()

    def __eq__(self, other):
        return isinstance(other, GridSpec) and self._key() == other._key()

    def __hash__(self):
        return hash(self._key())

    @property
    def shape(self) -> tuple:
        return (self.cfo_values.size, self.sfo_values.size)


def make_grid(cfo_step: float = 0.01, cfo_max: float = 0.5,
              sfo_step: float = 1e-5, sfo_max: float = 5e-4) -> GridSpec:
    """Symmetric lattice of integer multiples of each step.

    The default spans CFO in [-0.5, 0.5] at step 0.01 and SFO in
    [-5e-4, 5e-4] at step 1e-5 (101 x 101 points). ``cfo_max``/``sfo_max``
    are rounded to a whole number of steps; a max of zero pins that axis
    to the single value 0. Steps must be finite and positive, maxima
    finite and non-negative, and each max / step ratio must leave a
    point count that fits an array index.
    """
    axes = []
    for axis, step, bound in (("cfo", cfo_step, cfo_max),
                              ("sfo", sfo_step, sfo_max)):
        for name, value in ((f"{axis}_step", step), (f"{axis}_max", bound)):
            if not np.isfinite(value):
                raise ValueError(f"{name} must be finite, got {value}")
        if not step > 0:
            raise ValueError(f"{axis}_step must be positive, got {step}")
        if bound < 0:
            raise ValueError(f"{axis}_max must be >= 0, got {bound}")
        # The 2 n + 1 points must fit an array index.
        if not bound / step < np.iinfo(np.intp).max // 4:
            raise ValueError(
                f"{axis}_max / {axis}_step = {bound / step:g} overflows "
                f"the {axis} grid's point count")
        n = round(bound / step)
        axes.append(step * np.arange(-n, n + 1))
    return GridSpec(cfo_values=axes[0], sfo_values=axes[1])


@dataclass(frozen=True)
class EstimationResult:
    """Estimate returned by a grid search."""

    cfo: float
    sfo: float
    cost: float
    method: str


@dataclass(frozen=True)
class _Estimates:
    """One estimator's searches of a stack of rows, trial-major: each
    row's lattice ``cfo``, ``sfo`` and ``cost`` (NaN where it failed),
    and ``failures``, the failure of each failed row by row index."""

    method: str
    cfo: np.ndarray
    sfo: np.ndarray
    cost: np.ndarray
    failures: dict

    def results(self) -> list:
        """Each row's :class:`EstimationResult`, or its failure."""
        rows = zip(self.cfo.tolist(), self.sfo.tolist(), self.cost.tolist())
        return [self.failures[t] if t in self.failures else
                EstimationResult(*row, self.method)
                for t, row in enumerate(rows)]


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


def ratio_observable_rows(x0, x1, r0, r1):
    """Rows of the ratio observable Y(k) = X0(k) R1(k) / (X1(k) R0(k)).

    Returns (y, bad): bad marks where |X1(k) R0(k)| falls below
    ``DEGENERATE_MAGNITUDE``. A row with any bad entry is degenerate and
    its y row is meaningless (it is divided by ones, so a degenerate
    trial raises no division warning).
    """
    denom = x1 * r0
    bad = np.abs(denom) < DEGENERATE_MAGNITUDE
    denom[bad.any(axis=-1)] = 1.0
    return x0 * r1 / denom, bad


def nguyenle_observable(obs: PreambleObservation,
                        config: OfdmConfig) -> np.ndarray:
    """Per-subcarrier ratio observable Y(k) = X0(k) R1(k) / (X1(k) R0(k)).

    Raises
    ------
    DegenerateObservationError
        If |X1(k) R0(k)| falls below ``DEGENERATE_MAGNITUDE`` anywhere.
    """
    (y,), (bad,) = ratio_observable_rows(
        obs.training.x0[None], obs.training.x1[None], obs.r0[None],
        obs.r1[None])
    if bad.any():
        raise DegenerateObservationError(config.subcarrier_indices[bad])
    return y


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

    A search rarely needs the whole surface. In SFO column j the cost
    c - 2 |v_j| cos(s_j cfo + arg v_j), with s_j = a (1 + sfo_j) > 0, is
    least at Moose's closed form p_j = -arg v_j / s_j and repeats every
    P_j = 2 pi / s_j. The row searches evaluate only the two lattice
    CFOs that bracket p_j in every column, exactly as the surface would,
    and take their first-occurrence minimum. Every other lattice CFO is
    at least d = min(diff(cfo)) from p_j, and, while p_j lies in its
    column's window [cfo[-1] + d - P_j, cfo[0] - d + P_j], from both
    aliases p_j +/- P_j; so its cost is at least c - 2 kappa max_j |v_j|,
    kappa = max(cos(min(s_min d, pi)), 0). A row with every p_j in its
    window and a best candidate below that bound, less a rounding margin
    of 1e-12 (|c| + 2 max_j |v_j|), is certified, as is every finite row
    of a grid with at most two CFO rows (all candidates). Any other row
    (non-finite or huge c or v, or a p_j outside its window) and every
    row of a grid with an sfo <= -1 forms the full surface.

    The reported cost is recomputed at the argmin as the direct sum over
    ascending k from the same factors, so it does not carry the kernel's
    rounding. The factors are read-only: one evaluator per (grid,
    config) is shared through :func:`_evaluator`.
    """

    def __init__(self, grid: GridSpec, config: OfdmConfig):
        self.grid = grid
        self.config = config
        a = _TWO_PI * config.symbol_len / config.dft_size
        e = grid.cfo_values[:, None]
        h = grid.sfo_values[None, :]
        self._lead = _read_only(np.exp(1j * a * e * (1.0 + h)))
        # (n_sfo, K) per-subcarrier ramps; column k matches
        # exp(j a k sfo) evaluated on the SFO axis.
        self._sub = _read_only(np.exp(
            1j * a * grid.sfo_values[:, None] * config.subcarrier_indices))
        # Per SFO column: Moose's slope s_j and the certificate's window.
        # A grid of two or fewer CFO rows has no window and no bound; a
        # uniform lattice (each CFO within half a step of its index) finds
        # the bracket by index arithmetic, its end CFOs padded to -/+inf.
        self._slope = _read_only(a * (1.0 + grid.sfo_values))
        self._bracketed = bool((self._slope > 0).all())
        cfos = grid.cfo_values
        self._window = _read_only(np.array([[-np.inf], [np.inf]]))
        self._kappa, self._step = 0.0, None
        if cfos.size > 2 and self._bracketed:
            gap = np.diff(cfos).min()
            period = _TWO_PI / self._slope
            self._window = _read_only(np.stack([cfos[-1] + gap - period,
                                                cfos[0] - gap + period]))
            self._kappa = max(np.cos(min(self._slope.min() * gap, np.pi)), 0.)
            step = (cfos[-1] - cfos[0]) / (cfos.size - 1)
            offset = (cfos - cfos[0]) / step - np.arange(cfos.size)
            if np.abs(offset).max() < 0.5:
                self._step = step
                self._edges = _read_only(np.r_[-np.inf, cfos[1:-1], np.inf])

    def _correlate(self, z: np.ndarray) -> np.ndarray:
        """sub(sfo) . z for every row of z, (T, n_sfo): one stacked matvec
        (a plain GEMM would round differently from one trial's)."""
        return (self._sub @ z[..., None])[..., 0]

    def _surface(self, c, v: np.ndarray) -> np.ndarray:
        """One trial's (n_cfo, n_sfo) surface from its c and correlations."""
        return c - 2.0 * (self._lead * v[None, :]).real

    def _pair_terms(self, r0, r1):
        c = _sum_last(r0.real ** 2 + r0.imag ** 2 + r1.real ** 2
                      + r1.imag ** 2)
        return c, self._correlate(r0 * np.conj(r1))

    def _ratio_terms(self, y):
        c = _sum_last(y.real ** 2 + y.imag ** 2) + y.shape[-1]
        return c, self._correlate(np.conj(y))

    def proposed_surface(self, obs: PreambleObservation) -> np.ndarray:
        (c,), (v,) = self._pair_terms(obs.r0[None], obs.r1[None])
        return self._surface(c, v)

    def nguyenle_surface(self, y: np.ndarray) -> np.ndarray:
        (c,), (v,) = self._ratio_terms(y[None])
        return self._surface(c, v)

    def _result(self, surface, method, r0, r1):
        i, j = _argmin_lattice(surface, self.grid)
        diff = r1 - self._lead[i, j] * self._sub[j, :] * r0
        # Sequential accumulation over ascending k, as the direct formula.
        cost = np.add.accumulate(diff.real ** 2 + diff.imag ** 2)[-1]
        return EstimationResult(cfo=float(self.grid.cfo_values[i]),
                                sfo=float(self.grid.sfo_values[j]),
                                cost=float(cost), method=method)

    def _lower(self, moose):
        """clip(searchsorted(cfo_values, moose, "right") - 1, 0, n_cfo - 2);
        on a uniform lattice, the nearest CFO row, less one if above."""
        cfos = self.grid.cfo_values
        if self._step is None:
            return np.clip(np.searchsorted(cfos, moose, side="right") - 1,
                           0, max(cfos.size - 2, 0))
        near = np.clip(np.rint((moose - cfos[0]) / self._step), 0,
                       cfos.size - 1).astype(np.intp)
        return near - (self._edges[near] > moose)

    def _bracket(self, c, v):
        """The rows of (c, v) whose lattice argmin the bracket certifies,
        and that argmin's (cfo, sfo) indices, as three index vectors."""
        n_cfo, n_sfo = self.grid.shape
        if not self._bracketed:
            none = np.zeros(0, dtype=np.intp)
            return none, none, none
        # Finite c and v, small enough that no surface entry overflows; a
        # huge p_j may overflow _lower's arithmetic, which clips it.
        with np.errstate(over="ignore", invalid="ignore"):
            peak = np.abs(v).max(axis=-1)
            rows = np.flatnonzero(np.abs(c) + 2.0 * peak < 1e300)
            c, v, peak = c[rows], v[rows], peak[rows]
            moose = -np.angle(v) / self._slope
            lo = self._lower(moose)
        # The candidates' row-major flat indices (rows lo and lo + 1, or
        # row 0 twice) and their costs, as the surface forms them.
        flat = lo * n_sfo + np.arange(n_sfo)
        flat = np.concatenate([flat, flat + n_sfo * (n_cfo > 1)], axis=-1)
        values = c[:, None] - 2.0 * (np.take(self._lead, flat)
                                     * np.concatenate([v, v], axis=-1)).real
        best = values.min(axis=-1)
        # Ties go to the smallest flat index, as in _argmin_lattice.
        pick = np.where(values == best[:, None], flat,
                        n_cfo * n_sfo).min(axis=-1)
        # The class docstring's certificate; no bound on <= 2 CFO rows.
        bound = c - 1e-12 * np.abs(c) - 2.0 * (self._kappa + 1e-12) * peak
        sure = ((best < bound) | (n_cfo <= 2)) & (
            (moose >= self._window[0]) & (moose <= self._window[1])).all(-1)
        return (rows[sure],) + divmod(pick[sure], n_sfo)

    def _search_rows(self, c, v, method, r0, r1,
                     failures=()) -> _Estimates:
        """Search every row of the terms (c, v) of the spectra r0, r1; r0
        is an array of rows or the scalar 1.0 of the ratio fit. Rows
        already in ``failures`` (with a NaN c) are not searched.

        Certified rows take the bracket's argmin and report their costs
        in one pass; every other row, still NaN, forms its full surface.
        """
        rows, i, j = self._bracket(c, v)
        scalar = np.ndim(r0) == 0
        diff = r1[rows] - (self._lead[i, j][:, None] * self._sub[j]
                           * (r0 if scalar else r0[rows]))
        found = np.full((3, len(c)), np.nan)
        # Sequential accumulation over ascending k, as in _result.
        found[:, rows] = (self.grid.cfo_values[i], self.grid.sfo_values[j],
                          np.add.accumulate(diff.real ** 2 + diff.imag ** 2,
                                            axis=-1)[:, -1])
        failures = dict(failures)
        for t in np.flatnonzero(np.isnan(found[0])).tolist():
            try:
                if t not in failures:
                    result = self._result(self._surface(c[t], v[t]), method,
                                          r0 if scalar else r0[t], r1[t])
                    found[:, t] = result.cfo, result.sfo, result.cost
            except NonFiniteSurfaceError as exc:
                failures[t] = exc
        return _Estimates(method, *found, failures)

    def _search_pairs(self, r0, r1) -> _Estimates:
        """The proposed fit of every row of the (T, K) spectra r0, r1."""
        c, v = self._pair_terms(r0, r1)
        return self._search_rows(c, v, "proposed", r0, r1)

    def _search_ratios(self, y, bad) -> _Estimates:
        """The Nguyen-Le fit of every row of the ratio observable (y, bad)
        of :func:`ratio_observable_rows`; a degenerate row fails with
        :class:`DegenerateObservationError` unsearched."""
        c, v = self._ratio_terms(y)
        degenerate = np.flatnonzero(bad.any(axis=-1))
        c[degenerate] = np.nan  # which the bracket never certifies
        ks = self.config.subcarrier_indices
        return self._search_rows(c, v, "nguyen_le", 1.0, y, {
            t: DegenerateObservationError(ks[bad[t]])
            for t in degenerate.tolist()})

    def search_proposed(self, obs: PreambleObservation) -> EstimationResult:
        return _raised(self._search_pairs(obs.r0[None],
                                          obs.r1[None]).results()[0])

    def search_nguyenle(self, obs: PreambleObservation) -> EstimationResult:
        return _raised(self._search_ratios(*ratio_observable_rows(
            obs.training.x0[None], obs.training.x1[None], obs.r0[None],
            obs.r1[None])).results()[0])

    def _moose_step(self, v: np.ndarray, result: EstimationResult):
        """Off-lattice (cfo, sfo) from one trial's correlations v and the
        lattice argmin ``result`` found on them.

        At a fixed SFO h the cost c - 2 Re(lead(cfo, h) v(h)) is least at
        Moose's correlator phase cfo*(h) = -arg v(h) / (a (1 + h)), with
        a = 2 pi (N + N_g) / N, and repeats every N / ((N + N_g)(1 + h)).
        The CFO is cfo* at the argmin's SFO, on the branch nearest the
        lattice CFO. The SFO is the vertex of the parabola through the
        profile c - 2|v| at the argmin's SFO and its two neighbours,
        clamped to half a step; c is the same at every SFO, so only |v|
        enters. An axis keeps its lattice value when the argmin lies on
        its edge, and the SFO also when the profile has no curvature.
        """
        cfos, sfos = self.grid.cfo_values, self.grid.sfo_values
        i = int(np.searchsorted(cfos, result.cfo))
        j = int(np.searchsorted(sfos, result.sfo))
        cfo, sfo = result.cfo, result.sfo
        if 0 < i < cfos.size - 1:
            moose = -np.angle(v[j]) / self._slope[j]
            period = _TWO_PI / self._slope[j]
            cfo = float(moose + period * np.round((cfo - moose) / period))
        if 0 < j < sfos.size - 1:
            below, mid, above = np.abs(v[j - 1:j + 2])
            curvature = 2.0 * mid - below - above
            if curvature > 0:
                offset = np.clip(0.5 * (above - below) / curvature, -0.5, 0.5)
                sfo = float(sfo + offset * (sfos[j + 1] - sfo))
        return cfo, sfo


@functools.lru_cache(maxsize=_CACHE_SIZE)
def _evaluator(grid: GridSpec, config: OfdmConfig) -> GridEvaluator:
    """The one :class:`GridEvaluator` of (grid, config), memoized."""
    return GridEvaluator(grid, config)


def _raised(outcome):
    """A row's search result, or raise the failure it holds."""
    if isinstance(outcome, Exception):
        raise outcome
    return outcome


def estimate_proposed(obs: PreambleObservation, grid: GridSpec,
                      config: OfdmConfig,
                      refine: bool = False) -> EstimationResult:
    """Joint CFO/SFO estimate from the phase-ramped pair fit.

    With ``refine=False`` (the default) the estimate is exactly a lattice
    point; ``refine=True`` moves it off the lattice by
    :meth:`GridEvaluator._moose_step` and reports :func:`proposed_cost`
    there.
    """
    evaluator = _evaluator(grid, config)
    r0, r1 = obs.r0[None], obs.r1[None]
    c, v = evaluator._pair_terms(r0, r1)
    result = _raised(evaluator._search_rows(c, v, "proposed", r0,
                                            r1).results()[0])
    if not refine:
        return result
    cfo, sfo = evaluator._moose_step(v[0], result)
    return replace(result, cfo=cfo, sfo=sfo,
                   cost=proposed_cost(obs, cfo, sfo, config))


def estimate_nguyenle(obs: PreambleObservation, grid: GridSpec,
                      config: OfdmConfig,
                      refine: bool = False) -> EstimationResult:
    """Joint CFO/SFO estimate from the ratio-observable fit.

    ``refine`` as for :func:`estimate_proposed`, reporting
    :func:`nguyenle_cost`. Propagates :class:`DegenerateObservationError`
    from the observable.
    """
    y = nguyenle_observable(obs, config)
    evaluator = _evaluator(grid, config)
    c, v = evaluator._ratio_terms(y[None])
    result = _raised(evaluator._search_rows(c, v, "nguyen_le", 1.0,
                                            y[None]).results()[0])
    if not refine:
        return result
    cfo, sfo = evaluator._moose_step(v[0], result)
    return replace(result, cfo=cfo, sfo=sfo,
                   cost=nguyenle_cost(y, cfo, sfo, config))


@functools.lru_cache(maxsize=_CACHE_SIZE)
def _subcarrier_ramp(config: OfdmConfig, cfo: float,
                     sfo: float) -> np.ndarray:
    """:func:`symbol_phase_ramp` over the active subcarriers."""
    return _read_only(symbol_phase_ramp(config.subcarrier_indices, cfo, sfo,
                                        config))


def squared_norms(v: np.ndarray) -> np.ndarray:
    """sum_k |v(k)|^2 of every row of v."""
    return _sum_last(v.real ** 2 + v.imag ** 2)


def pair_residual_rows(r0, r1, cfo: float, sfo: float,
                       config: OfdmConfig) -> np.ndarray:
    """Rows of the model residual N(k) = R1(k) - ramp(k) R0(k)."""
    return r1 - _subcarrier_ramp(config, cfo, sfo) * r0


def ratio_residual_rows(y, cfo: float, sfo: float,
                        config: OfdmConfig) -> np.ndarray:
    """Rows of the ratio residual E(k) = Y(k) - ramp(k)."""
    return y - _subcarrier_ramp(config, cfo, sfo)


def pair_residual(obs: PreambleObservation, cfo: float, sfo: float,
                  config: OfdmConfig) -> np.ndarray:
    """Model residual N(k) = R1(k) - ramp(k) R0(k) at the given offsets."""
    return pair_residual_rows(obs.r0, obs.r1, cfo, sfo, config)


def ratio_residual(obs: PreambleObservation, cfo: float, sfo: float,
                   config: OfdmConfig) -> np.ndarray:
    """Ratio residual E(k) = Y(k) - ramp(k) at the given offsets.

    Raises :class:`DegenerateObservationError` when Y is unusable.
    """
    return ratio_residual_rows(nguyenle_observable(obs, config), cfo, sfo,
                               config)
