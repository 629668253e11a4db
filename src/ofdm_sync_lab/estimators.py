"""Joint CFO/SFO estimators operating on a demodulated training pair.

Two competing maximum-likelihood-style grid estimators are provided:

* ``estimate_proposed`` fits the second symbol's spectrum as a
  phase-ramped copy of the first (no division, so deep channel fades
  only down-weight their subcarriers);
* ``estimate_nguyenle`` (after Nguyen-Le et al.'s CFO/SFO tracker) first
  forms the per-subcarrier ratio observable Y(k) = X(k) R1(k) /
  (X(k) R0(k)) and fits a pure phase ramp to it, which amplifies noise
  on faded subcarriers.

Both share the same inter-symbol phase ramp and the same exhaustive
lattice search with a deterministic tie rule. What depends only on the
experiment is built once and memoized, read-only, in a bounded
``functools.lru_cache`` as :mod:`ofdm_sync_lab.ofdm_model` does: the
residuals' ramp at the true offsets, and the one :class:`GridEvaluator`
of each (grid, config) that the harness and both estimate functions
search with. A :class:`GridSpec` is hashable for that: a frozen step
and index range per axis.

Both fits run on trial-major (T, K) stacks of spectra: a trial is a
row, never a record. :meth:`GridEvaluator.search_proposed` and
:meth:`~GridEvaluator.search_nguyenle` search every row of a stack, and
the estimate functions are those searches with an optional refinement;
the sweeps call the same methods, chunk by chunk. Each returns the
trial-major columns of :class:`Estimates`, and a failed search (a
degenerate ratio row or a non-finite surface) is a NaN row there and
nothing more. The residual norms and the surfaces' constant terms are
reductions along the last axis, and each estimator's correlations are
one stacked matvec per stack. At a fixed SFO the cost is a cosine in
CFO whose minimum is Moose's closed form, so each trial's lattice argmin
is read, for the whole stack at once, from the two CFO rows that
bracket that closed form in every SFO column, certified by one bound
per trial; a trial whose argmin this cannot certify forms its full
101 x 101 surface, its finiteness check and its argmin on its own.
Either way the argmin is the full surface's, bit for bit; one pass
forms the cost of every row found where it is read.
``refine=True`` moves every estimate of a stack to the concentrated ML
from the same correlations: the CFO drops out of the pair cost, so the
SFO maximizes the correlation's magnitude, with Moose's CFO there. The
direct formulas :func:`proposed_cost` and :func:`nguyenle_cost` take
one trial's rows and steer no search: they report a cost at a given
point and are the tests' reference.
"""

import functools
from dataclasses import dataclass

import numpy as np

from .ofdm_model import (
    OfdmConfig,
    _CACHE_SIZE,
    _TWO_PI,
    _check_offsets,
    _int_text,
    _read_only,
    _sum_last,
)

__all__ = [
    "GridSpec",
    "make_grid",
    "Estimates",
    "GridEvaluator",
    "symbol_phase_ramp",
    "proposed_cost",
    "ratio_observable_rows",
    "nguyenle_cost",
    "estimate_proposed",
    "estimate_nguyenle",
    "pair_residual_rows",
    "ratio_residual_rows",
    "squared_norms",
]

# |X(k) R0(k)| below this is treated as an unusable observation rather
# than risking a catastrophic division.
DEGENERATE_MAGNITUDE = 1e-30

# Most bytes of a lattice's (n_cfo, n_sfo) complex lead table, the largest
# per-grid array: 64 MiB, about 4.2 million points. The default 101 x 101
# lattice takes 163 KB; a fallback surface's temporaries take about twice
# the table again.
_LATTICE_BUDGET = 2 ** 26


@dataclass(frozen=True)
class GridSpec:
    """Search lattice: each axis is ``step * np.arange(span.start,
    span.stop)``, built once, read-only, when first read; each span is a
    non-empty ``range`` of step 1. Steps must be finite and positive, the
    lead table must fit ``_LATTICE_BUDGET`` bytes and every lattice SFO
    must lie in (-1, 1), where the CFO slope a (1 + sfo) is positive."""

    cfo_step: float
    cfo_span: range
    sfo_step: float
    sfo_span: range

    def __post_init__(self):
        for axis, step, span in (("cfo", self.cfo_step, self.cfo_span),
                                 ("sfo", self.sfo_step, self.sfo_span)):
            if not np.isfinite(step):
                raise ValueError(f"{axis}_step must be finite, got {step}")
            if not step > 0:
                raise ValueError(f"{axis}_step must be positive, got {step}")
            if not (isinstance(span, range) and span.step == 1 and span):
                raise ValueError(f"{axis}_span must be a non-empty range of "
                                 f"step 1, got {span!r}")
        # stop - start, not len(): len() of a span past sys.maxsize raises.
        n_cfo, n_sfo = (s.stop - s.start for s in (self.cfo_span,
                                                   self.sfo_span))
        table = 16 * n_cfo * n_sfo
        if table > _LATTICE_BUDGET:
            table = f"{table:.3g}" if table < 1e308 else "over 1e+308"
            raise ValueError(
                f"cfo_max / cfo_step and sfo_max / sfo_step (the --grid-* "
                f"flags) give a {_int_text(n_cfo)} x {_int_text(n_sfo)} "
                f"lattice, whose complex lead table needs {table} bytes, "
                f"more than the lattice budget of {_LATTICE_BUDGET} bytes")
        with np.errstate(over="ignore"):
            ends = self.cfo_values[[0, -1]]
        if not np.isfinite(ends).all():
            raise ValueError(f"cfo_step {self.cfo_step:g} overflows the "
                             f"lattice CFOs")
        lo, hi = self.sfo_values[[0, -1]]
        if not (-1.0 < lo and hi < 1.0):
            raise ValueError(
                f"the lattice SFOs (the --grid-sfo-* flags) run from {lo:g} "
                f"to {hi:g}; every one must lie inside (-1, 1)")

    @functools.cached_property
    def cfo_values(self) -> np.ndarray:
        return _read_only(self.cfo_step * np.arange(self.cfo_span.start,
                                                    self.cfo_span.stop))

    @functools.cached_property
    def sfo_values(self) -> np.ndarray:
        return _read_only(self.sfo_step * np.arange(self.sfo_span.start,
                                                    self.sfo_span.stop))

    @property
    def shape(self) -> tuple:
        return (len(self.cfo_span), len(self.sfo_span))


def make_grid(cfo_step: float = 0.01, cfo_max: float = 0.5,
              sfo_step: float = 1e-5, sfo_max: float = 5e-4) -> GridSpec:
    """Symmetric lattice of integer multiples of each step.

    The default spans CFO in [-0.5, 0.5] at step 0.01 and SFO in
    [-5e-4, 5e-4] at step 1e-5 (101 x 101 points). ``cfo_max``/``sfo_max``
    are rounded to a whole number of steps; a max of zero pins that axis
    to the single value 0. Maxima must be finite and non-negative, and
    each max / step ratio must leave a point count that fits an array
    index; :class:`GridSpec` checks the steps and the lattice.
    """
    spans = []
    for axis, step, bound in (("cfo", cfo_step, cfo_max),
                              ("sfo", sfo_step, sfo_max)):
        if not np.isfinite(bound):
            raise ValueError(f"{axis}_max must be finite, got {bound}")
        if bound < 0:
            raise ValueError(f"{axis}_max must be >= 0, got {bound}")
        # The 2 n + 1 points must fit an array index; a step that
        # GridSpec rejects counts none here.
        ratio = bound / step if step > 0 else 0.0
        if not ratio < np.iinfo(np.intp).max // 4:
            raise ValueError(
                f"{axis}_max / {axis}_step = {ratio:g} overflows the {axis} "
                f"grid's point count")
        spans.append(range(-round(ratio), round(ratio) + 1))
    return GridSpec(cfo_step, spans[0], sfo_step, spans[1])


class Estimates:
    """One estimator's fit of a stack of rows, trial-major: each row's
    ``cfo``, ``sfo`` and ``cost``, all NaN where its search failed.
    ``cost`` is an array, or a function that forms it when it is first
    read: no sweep reads it."""

    def __init__(self, cfo, sfo, cost):
        self.cfo, self.sfo, self._cost = cfo, sfo, cost

    @functools.cached_property
    def cost(self) -> np.ndarray:
        return self._cost() if callable(self._cost) else self._cost


def symbol_phase_ramp(k, cfo: float, sfo: float, config: OfdmConfig):
    """Phase advance of subcarrier k between consecutive training symbols.

    Equals exp(j 2 pi (N + cp_len) (k sfo + cfo (1 + sfo)) / N); this is
    the factor by which the second symbol's spectrum leads the first.
    Broadcasts over arrays of k, cfo and sfo; every offset must be
    finite, with sfo in (-1, 1) and |cfo| < N.
    """
    _check_offsets(cfo, sfo, config.dft_size)
    stride = config.symbol_len
    return np.exp(1j * _TWO_PI * stride / config.dft_size
                  * (np.asarray(k) * np.asarray(sfo)
                     + np.asarray(cfo) * (1.0 + np.asarray(sfo))))


def proposed_cost(r0, r1, cfo, sfo, config: OfdmConfig):
    """Sum over active subcarriers of |R1(k) - ramp(k) R0(k)|^2 of one
    trial's spectra, the rows r0 and r1 (K,).

    Accepts scalar or broadcastable array cfo/sfo (e.g. a column of CFO
    candidates against a row of SFO candidates evaluates the full cost
    surface in one call). Accumulation over k runs in ascending order.
    This direct formula is the reference the lattice search's
    correlation kernel is tested against. Offsets are checked as
    :func:`symbol_phase_ramp` checks them.
    """
    _check_offsets(cfo, sfo, config.dft_size)
    if not np.shape(r0) == np.shape(r1) == (config.n_active,):
        raise ValueError(f"spectra rows of length {np.shape(r0)} and "
                         f"{np.shape(r1)} do not match n_active "
                         f"{config.n_active}")
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


def ratio_observable_rows(x, r0, r1):
    """Rows of the ratio observable Y(k) = X(k) R1(k) / (X(k) R0(k)) of
    the training rows x, which both symbols repeat.

    Returns (y, bad): bad marks where |X(k) R0(k)| falls below
    ``DEGENERATE_MAGNITUDE``. A row with any bad entry is degenerate and
    its y row is meaningless (it is divided by ones, so a degenerate
    trial raises no division warning). A row with an inf or NaN entry
    gives a non-finite y row, with no warning either. X stays in both
    terms: R1 / R0 rounds differently and would move the datasets.
    """
    with np.errstate(invalid="ignore", over="ignore"):
        denom = x * r0
        bad = np.abs(denom) < DEGENERATE_MAGNITUDE
        denom[bad.any(axis=-1)] = 1.0
        return x * r1 / denom, bad


def nguyenle_cost(y: np.ndarray, cfo, sfo, config: OfdmConfig):
    """Sum over active subcarriers of |Y(k) - ramp(k)|^2.

    The pair cost of :func:`proposed_cost` with R0 = 1 and R1 = Y, under
    the same broadcasting and accumulation-order conventions.
    """
    return proposed_cost(np.ones(y.shape), y, cfo, sfo, config)


def _pair_costs(ramp, r0, r1) -> np.ndarray:
    """sum_k |R1 - ramp R0|^2 of every row, over ascending k."""
    diff = r1 - np.multiply(ramp, r0)
    return np.add.accumulate(diff.real ** 2 + diff.imag ** 2, axis=-1)[:, -1]


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
    of a lattice with at most two CFO rows (all candidates). Any other
    row (non-finite or huge c or v, or a p_j outside its window) forms
    the full surface.

    The reported cost is recomputed at the argmin as the direct sum over
    ascending k from the same factors, so it does not carry the kernel's
    rounding. The factors are read-only: one evaluator per (grid,
    config) is shared through :func:`_evaluator`.
    """

    def __init__(self, grid: GridSpec, config: OfdmConfig):
        self.grid = grid
        self.config = config
        a = _TWO_PI * config.symbol_len / config.dft_size
        cfos, sfos = grid.cfo_values, grid.sfo_values
        self._lead = _read_only(np.exp(1j * a * cfos[:, None] * (1.0 + sfos)))
        # (n_sfo, K) per-subcarrier ramps; column k matches
        # exp(j a k sfo) evaluated on the SFO axis.
        self._sub = _read_only(np.exp(
            1j * a * sfos[:, None] * config.subcarrier_indices))
        # Per SFO column: Moose's slope s_j > 0 and the certificate's
        # window. A lattice of two or fewer CFO rows has no window and no
        # bound. _lower finds the bracket by index arithmetic, the end
        # CFOs padded to -/+inf.
        self._slope = _read_only(a * (1.0 + sfos))
        self._edges = _read_only(np.r_[-np.inf, cfos[1:-1], np.inf])
        self._window = _read_only(np.array([[-np.inf], [np.inf]]))
        self._kappa = 0.0
        if cfos.size > 2:
            gap = np.diff(cfos).min()
            period = _TWO_PI / self._slope
            self._window = _read_only(np.stack([cfos[-1] + gap - period,
                                                cfos[0] - gap + period]))
            self._kappa = max(np.cos(min(self._slope.min() * gap, np.pi)), 0.)

    def _correlate(self, z: np.ndarray) -> np.ndarray:
        """sub(sfo) . z for every row of z, (T, n_sfo): one stacked matvec
        (a plain GEMM would round differently from one trial's)."""
        return (self._sub @ z[..., None])[..., 0]

    def _surface(self, c, v: np.ndarray) -> np.ndarray:
        """One trial's (n_cfo, n_sfo) surface from its c and correlations."""
        return c - 2.0 * (self._lead * v[None, :]).real

    def _check_rows(self, *stacks):
        """Raise ``ValueError`` unless the stacks share one (T, K) shape."""
        shape = np.shape(stacks[0])
        if len(shape) != 2 or shape[1] != self.config.n_active or any(
                np.shape(rows) != shape for rows in stacks):
            raise ValueError(
                f"expected (T, {self.config.n_active}) stacks of rows, got "
                f"shapes {', '.join(str(np.shape(rows)) for rows in stacks)}")

    def _pair_terms(self, r0, r1):
        self._check_rows(r0, r1)
        # A row with an inf or NaN entry gets non-finite terms, so its
        # search fails, a NaN row, with no warning on the way.
        with np.errstate(invalid="ignore", over="ignore"):
            c = _sum_last(r0.real ** 2 + r0.imag ** 2 + r1.real ** 2
                          + r1.imag ** 2)
            # np.multiply, not *: on a temporary over 256 KiB the operator
            # computes conj(r1) * r0 in place, whose imaginary parts round
            # differently, so a large stack's rows would not be its chunks'.
            v = self._correlate(np.multiply(r0, np.conj(r1)))
        return c, v

    def _ratio_terms(self, y, degenerate):
        self._check_rows(y)
        with np.errstate(invalid="ignore", over="ignore"):  # see _pair_terms
            c = _sum_last(y.real ** 2 + y.imag ** 2) + y.shape[-1]
            v = self._correlate(np.conj(y))
        c[degenerate] = np.nan  # so the row is neither certified nor searched
        return c, v

    def proposed_surface(self, r0, r1) -> np.ndarray:
        (c,), (v,) = self._pair_terms(r0[None], r1[None])
        return self._surface(c, v)

    def nguyenle_surface(self, y: np.ndarray) -> np.ndarray:
        (c,), (v,) = self._ratio_terms(y[None], False)
        return self._surface(c, v)

    def _result(self, surface):
        """First-occurrence argmin (i, j) of a finite row-major (cfo, sfo)
        surface.

        Ties resolve to the smallest CFO candidate, then the smallest SFO
        candidate, which is exactly the first occurrence in row-major
        order.
        """
        return divmod(int(np.argmin(surface)), self.grid.shape[1])

    def _lower(self, moose):
        """The lower bracket row of each moose: the last CFO row at or
        below it, clipped to [0, max(n_cfo - 2, 0)]; without a sort, the
        nearest CFO row, less one if it lies above."""
        cfos = self.grid.cfo_values
        near = np.clip(np.rint((moose - cfos[0]) / self.grid.cfo_step), 0,
                       cfos.size - 1).astype(np.intp)
        return near - (self._edges[near] > moose)

    def _bracket(self, c, v):
        """The rows of (c, v) whose lattice argmin the bracket certifies,
        and that argmin's (cfo, sfo) indices, as three index vectors."""
        n_cfo, n_sfo = self.grid.shape
        # Finite c and v, small enough that no surface entry overflows; a
        # huge p_j may overflow _lower's arithmetic, which clips it.
        with np.errstate(over="ignore", invalid="ignore"):
            peak = np.abs(v).max(axis=-1)
            rows = np.flatnonzero(np.abs(c) + 2.0 * peak < 1e300)
            if rows.size < len(c):  # no copy when every row passes
                c, v, peak = c[rows], v[rows], peak[rows]
            moose = -np.angle(v) / self._slope
            flat = self._lower(moose) * n_sfo + np.arange(n_sfo)
        # Rows lo and lo + 1 (or row 0 twice), a pass each, costed as the
        # surface forms them; a tie keeps the smallest flat index, as _result.
        best, pick = np.full(len(c), np.inf), np.zeros(len(c), np.intp)
        for step in (0, n_sfo * (n_cfo > 1)):
            flat += step
            values = c[:, None] - 2.0 * (np.take(self._lead, flat) * v).real
            low = values.min(axis=-1)
            first = np.where(values == low[:, None], flat,
                             n_cfo * n_sfo).min(axis=-1)
            del values
            pick = np.where(low < best, first, pick)
            best = np.minimum(best, low)
        # The class docstring's certificate; no bound on <= 2 CFO rows.
        bound = c - 1e-12 * np.abs(c) - 2.0 * (self._kappa + 1e-12) * peak
        sure = ((best < bound) | (n_cfo <= 2)) & (
            (moose >= self._window[0]) & (moose <= self._window[1])).all(-1)
        return (rows[sure],) + divmod(pick[sure], n_sfo)

    def _search_rows(self, c, v, r0, r1) -> Estimates:
        """Search every row of the terms (c, v) of the spectra r0, r1; r0
        is an array of rows or the scalar 1.0 of the ratio fit.

        Certified rows take the bracket's argmin and every other row forms
        its full surface. The cost of every row found, recomputed at its
        argmin as the direct sum over ascending k, is formed in one pass
        when the result's ``cost`` is first read.
        A row whose surface is not finite stays NaN. A row with a
        non-finite c, such as a degenerate ratio row's NaN, has no finite
        entry, so its surface is never formed.
        """
        rows, i, j = self._bracket(c, v)
        todo = np.isfinite(c)
        todo[rows] = False
        found_alone = []
        for t in np.flatnonzero(todo).tolist():
            surface = self._surface(c[t], v[t])
            if np.isfinite(surface).all():
                found_alone.append((t, *self._result(surface)))
        if found_alone:
            rows, i, j = (np.append(a, b)
                          for a, b in zip((rows, i, j), zip(*found_alone)))
        found = np.full((3, len(c)), np.nan)
        found[:2, rows] = self.grid.cfo_values[i], self.grid.sfo_values[j]

        def cost():
            found[2, rows] = _pair_costs(
                self._lead[i, j][:, None] * self._sub[j],
                r0[rows] if np.ndim(r0) else r0, r1[rows])
            return found[2]
        return Estimates(found[0], found[1], cost)

    def search_proposed(self, r0, r1) -> Estimates:
        """The proposed fit of every row of the (T, K) spectra r0, r1."""
        return self._search_rows(*self._pair_terms(r0, r1), r0, r1)

    def search_nguyenle(self, y, degenerate) -> Estimates:
        """The Nguyen-Le fit of every row of the ratio observable y of
        :func:`ratio_observable_rows`; a ``degenerate`` row stays NaN."""
        return self._search_rows(*self._ratio_terms(y, degenerate), 1.0, y)

    def _refine(self, c, v, r0, r1) -> Estimates:
        """The fit of :meth:`_search_rows` moved to the concentrated ML; a
        row that search fails stays NaN. Least over cfo, the pair cost
        c - 2 Re(lead(cfo, h) V(h)), V(h) = sub(h) . z, is c - 2 |V(h)|, at
        Moose's CFO -arg V(h) / (a (1 + h)) (Moose 1994; Kay 1993, ch. 7).
        h is the vertex of the parabola through |v|^2 at the three SFO
        columns nearest its first argmax, clipped to the axis, or that
        argmax without positive curvature or on an axis of at most two
        points. The CFO takes the branch nearest the lattice CFO, which an
        argmin on the CFO axis's edge keeps."""
        cfos, sfos = self.grid.cfo_values, self.grid.sfo_values
        lattice = self._search_rows(c, v, r0, r1).cfo
        rows = np.flatnonzero(~np.isnan(lattice))
        power = v.real[rows] ** 2 + v.imag[rows] ** 2
        col = np.argmax(power, axis=-1)
        sfo = sfos[col]
        if sfos.size > 2:
            mid = np.clip(col, 1, sfos.size - 2)
            below, centre, above = np.take_along_axis(
                power, mid[:, None] + [-1, 0, 1], axis=-1).T
            bend = 2.0 * centre - below - above
            up = bend > 0
            sfo[up] = np.clip(sfos[mid[up]] + 0.5 * self.grid.sfo_step
                              * (above - below)[up] / bend[up],
                              sfos[0], sfos[-1])
        a = _TWO_PI * self.config.symbol_len / self.config.dft_size
        sub = np.exp(1j * a * sfo[:, None] * self.config.subcarrier_indices)
        r0, r1 = (r0[rows] if np.ndim(r0) else r0), r1[rows]
        big_v = _sum_last(np.multiply(sub, np.multiply(r0, np.conj(r1))))
        slope, cfo = a * (1.0 + sfo), lattice[rows]
        inner = (cfo != cfos[0]) & (cfo != cfos[-1])
        cfo[inner] -= (np.angle(np.multiply(np.exp(1j * slope * cfo), big_v))
                       / slope)[inner]
        refined = np.full((3, len(v)), np.nan)
        refined[:, rows] = cfo, sfo, _pair_costs(
            np.multiply(np.exp(1j * slope * cfo)[:, None], sub), r0, r1)
        return Estimates(*refined)


@functools.lru_cache(maxsize=_CACHE_SIZE)
def _evaluator(grid: GridSpec, config: OfdmConfig) -> GridEvaluator:
    """The one :class:`GridEvaluator` of (grid, config), memoized."""
    return GridEvaluator(grid, config)


def estimate_proposed(r0, r1, grid: GridSpec, config: OfdmConfig,
                      refine: bool = False) -> Estimates:
    """Joint CFO/SFO estimates from the phase-ramped pair fit of every row
    of the (T, K) spectra r0, r1.

    With ``refine=False`` (the default) each estimate is exactly a
    lattice point, as :meth:`GridEvaluator.search_proposed` finds it;
    ``refine=True`` moves it to the concentrated ML of
    :meth:`GridEvaluator._refine` (the SFO that maximizes the pair
    correlation's magnitude, Moose's CFO there) and reports its cost.
    """
    evaluator = _evaluator(grid, config)
    fit = evaluator._refine if refine else evaluator._search_rows
    return fit(*evaluator._pair_terms(r0, r1), r0, r1)


def estimate_nguyenle(x, r0, r1, grid: GridSpec, config: OfdmConfig,
                      refine: bool = False) -> Estimates:
    """Joint CFO/SFO estimates from the ratio-observable fit of every row
    of the (T, K) training x and spectra r0, r1.

    ``refine`` as for :func:`estimate_proposed`, reporting
    :func:`nguyenle_cost`. A row whose observable is degenerate (see
    :func:`ratio_observable_rows`) is a NaN row.
    """
    evaluator = _evaluator(grid, config)
    evaluator._check_rows(x, r0, r1)
    y, bad = ratio_observable_rows(x, r0, r1)
    fit = evaluator._refine if refine else evaluator._search_rows
    return fit(*evaluator._ratio_terms(y, bad.any(axis=-1)), 1.0, y)


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
