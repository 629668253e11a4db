"""Deterministic Monte-Carlo harness for the estimator comparisons.

Every trial decision lives here. Each ``sync-lab`` command is one call:
the fig1, fig2 and crb sweeps below, and :func:`inspect_trial` for
``trial``.

Trials run serially in the calling thread, in fixed chunks held as
trial-major arrays: ``_CHUNK`` (64) bursts, or twice that many draws of
the scenario alone, whose rows peak at 8.6 KB, a burst's at 12.5. Each
chunk frees its temporaries and the next one allocates them again, so
every sweep first has glibc keep freed heap pages (:func:`_retain_heap`,
a process-wide setting): otherwise the blocks over 128 KB go back to the
kernel after every chunk, and the next chunk faults them back in page by
page. Every trial draws from its own labeled random substreams, keyed by
the master seed, the SNR point, the trial index and the label, so
results are reproducible bit for bit regardless of chunking, grouping or
execution order. A sweep groups consecutive SNR points of at most
``_GROUP_ROWS`` trials, and derives a group's streams in one mixing pass
(:func:`ofdm_model._derive_tables`, numpy's ``SeedSequence`` vectorized
over points, trials and labels), then its QPSK picks and its normal
streams' PCG64 states in one pass each (:func:`ofdm_model._qpsk_picks`,
:func:`ofdm_model._pcg64_states`), each costing about as much for a
group as for one point. A point of more trials derives them in blocks
of ``_GROUP_ROWS``, so no array grows with the trial count. Each chunk
fills its rows' normals from those states with numpy's C fill: the
one-trial draws, bit for bit (``tests/reference.py``). A chunk then
makes one synthesis of both symbols, one FFT, one stacked correlation
per estimator and one stacked Fisher pass over the synthesis's noiseless
burst, which equal the one-trial computations bit for bit (see
:mod:`ofdm_sync_lab.ofdm_model` for the rules that make them equal), so
a trial run as a chunk of one (:func:`inspect_trial`) gets its row of
any sweep.

A chunk's outcomes stay trial-major columns (:class:`_Columns`): the
residual norms, each estimator's lattice cfo, sfo and cost, the bounds
and a mask per failure kind, where a failed search is a NaN row of its
estimator's columns. They are the only form a trial's outcome takes: a
sweep reduces each SNR point's columns with :func:`_reduce` as its
chunks stream past, and ``trial`` prints the one-row columns of
:func:`inspect_trial`, which alone words the reason of a failed search.
The reduction equals a loop over the trials bit for bit under two rules:
every mean is a sequential sum in ascending trial order (``np.sum`` sums
pairwise), and every squared error is the Python float
``(v - truth) ** 2``, which is libm's ``pow`` (numpy's ``x ** 2`` is
``x * x``, which rounds differently on about one input in a thousand).
The grid evaluator depends only on the experiment, so it is derived
from it, memoized, and never passed in. Every bound is the closed form
:func:`crb.fisher_rows`; the test suite holds its agreement with the
numeric oracle of ``tests/reference.py``.
"""

import ctypes
import functools
from dataclasses import dataclass, replace

import numpy as np

from .crb import crb_rows, fisher_rows, invertible
from .estimators import (
    Estimates,
    GridSpec,
    _evaluator,
    _int_text,
    make_grid,
    nguyenle_cost,
    pair_residual_rows,
    proposed_cost,
    ratio_observable_rows,
    ratio_residual_rows,
    squared_norms,
)
from .ofdm_model import (
    MAX_TRIALS,
    QPSK_ALPHABET,
    OfdmConfig,
    carrier_gain,
    channel_taps,
    demodulate_rows,
    noise_variance_from_snr,
    noiseless_burst,
    snr_stream_key,
    synthesize_rows,
    _check_offsets,
    _derive_tables,
    _pcg64_states,
    _qpsk_picks,
    _standard_normals,
)

__all__ = [
    "ExperimentConfig",
    "TrialDiagnostics",
    "SweepRow",
    "SweepResult",
    "make_experiment",
    "inspect_trial",
    "run_mse_sweep",
    "run_noise_variance_sweep",
    "run_crb_sweep",
]

# Failure reason that ``trial`` prints for a search whose cost surface
# is not finite.
_NON_FINITE = "non-finite cost surface"

# Labeled streams of one trial: a burst draws all four; a CRB draw
# draws only the scenario's first two.
_BURST_STREAMS = ("training", "channel", "noise0", "noise1")
_SCENARIO_STREAMS = _BURST_STREAMS[:2]

# Largest squared noisy bin a residual norm or cost may meet, in noise
# variances: a residual bin is a difference of two bins, each at most
# 2500 noise variances (exceeded with probability e**-2500).
_NOISE_HEADROOM = 1e4

# Bursts per chunk; crb's chunks of scenario draws take twice as many.
# Each chunk pays a fixed numpy-call cost (about 0.8 ms for a burst
# chunk, 0.3 ms for a scenario chunk), so fig2's 60-trial SNR points run
# in one chunk each at 64. Traced peaks per row (tests/test_memory.py):
# a burst 9.1 KB (fig1) or 9.2 KB (fig2) plus 3.3 KB of draws, a scenario
# 7.4 KB plus 1.3 KB; the rare 101 x 101 surface (0.5 MB of temporaries)
# is formed one trial at a time. Twice both sizes cut fig1's and crb's
# CPU at their perfbench sizes by 5 % and 10 % (fig2's not at all) but
# raise their peak RSS by 0.7 and 1.0 MB (fig2's by 0.2 MB). Those sizes
# were measured with the heap policy of :func:`_retain_heap`, which every
# sweep sets before its first chunk.
_CHUNK = 64

# Most bytes of any per-experiment array that a flag sizes
# (:meth:`ExperimentConfig._array_bytes`), as the lattice's lead table has
# its own budget: 64 MiB. The default experiment's largest takes 128 KB.
_ARRAY_BUDGET = 2 ** 26

# Most trials of consecutive SNR points whose streams share one derivation
# and one pick pass (together about 0.45 ms of fixed cost); fig2's default
# sweep is one group. A group holds about 150 bytes per trial. A point of
# more trials derives them in blocks of this many, a multiple of both
# chunk sizes, so that every chunk but a point's last is full.
_GROUP_ROWS = 1024


@dataclass(frozen=True)
class ExperimentConfig:
    """Complete, self-describing experiment setup."""

    ofdm: OfdmConfig
    cfo: float
    sfo: float
    n_taps: int
    snr_points_db: tuple
    n_trials: int
    master_seed: int
    grid: GridSpec

    def __post_init__(self):
        for name in ("n_taps", "n_trials", "master_seed"):
            value = getattr(self, name)
            if not isinstance(value, (int, np.integer)):
                raise ValueError(f"{name} must be an integer, got {value!r}")
            object.__setattr__(self, name, int(value))
        if self.n_taps < 1:
            raise ValueError(f"n_taps must be >= 1, got {self.n_taps}")
        if self.n_trials < 1:
            raise ValueError(f"n_trials must be >= 1, got {self.n_trials}")
        # A trial index enters the stream entropy as one 32-bit word.
        if self.n_trials >= MAX_TRIALS:
            raise ValueError(f"n_trials must be below 2**32, got "
                             f"{_int_text(self.n_trials)}")
        # The stream keys keep the seed's low 64 bits, so a seed outside
        # [0, 2**64) would share every stream with one inside it.
        if not 0 <= self.master_seed < 2 ** 64:
            raise ValueError(f"master_seed must lie in [0, 2**64), got "
                             f"{_int_text(self.master_seed)}")
        for array, flags, size in self._array_bytes():
            if size > _ARRAY_BUDGET:
                size = f"{size:.3g}" if size < 1e308 else "over 1e+308"
                raise ValueError(
                    f"the {array} at {flags} would take {size} bytes, "
                    f"more than the array budget of {_ARRAY_BUDGET} bytes")
        _check_offsets(self.cfo, self.sfo, self.ofdm.dft_size)
        # At a fixed SFO the pair cost is periodic in cfo: with no noise,
        # every alias cfo + k period (k != 0) costs what truth does. The
        # lowest one on the grid has k within one of (lo - cfo) / period,
        # or two when that k is 0: five k from the floor - 1 cover it.
        period = self.ofdm.dft_size / (self.ofdm.symbol_len
                                       * (1.0 + self.sfo))
        lo, hi = map(float, self.grid.cfo_values[[0, -1]])
        start = (lo - self.cfo) // period
        for alias in (self.cfo + (start + k) * period
                      for k in (-1.0, 0.0, 1.0, 2.0, 3.0) if start + k):
            if lo <= alias <= hi:
                raise ValueError(
                    f"cfo {self.cfo} has the alias {alias:.6g} inside the "
                    f"CFO search grid [{lo:g}, {hi:g}] (the cost repeats "
                    f"every N/((N+N_g)(1+sfo)) = {period:.6g})")
        if len(self.snr_points_db) == 0:
            raise ValueError("snr_points_db must not be empty")
        points = tuple(float(s) for s in self.snr_points_db)
        if not np.isfinite(points).all():
            raise ValueError(f"snr_points_db must be finite, got {points}")
        if any(b <= a for a, b in zip(points, points[1:])):
            raise ValueError(
                f"snr_points_db must be strictly ascending, got {points}")
        # The noise variance falls with the SNR and must stay a positive
        # float: the noise scales by it and the Fisher matrix divides by it.
        # The residual norms and cost surfaces sum K squared noisy bins, so
        # it must also leave _NOISE_HEADROOM noise variances per bin.
        limit = np.finfo(float).max / (_NOISE_HEADROOM * self.ofdm.n_active)
        for snr_db in (points[0], points[-1]):
            noise_var = noise_variance_from_snr(self.ofdm, snr_db)
            if not 0.0 < noise_var <= limit:
                raise ValueError(
                    f"snr point {snr_db:g} dB gives the noise variance "
                    f"{noise_var}, which must be positive and finite, and "
                    f"at most {limit:.4g} so that a sum of K squared noisy "
                    f"bins stays finite")
        # Random streams are keyed by the milli-dB SNR key, so two points
        # sharing a key would silently share every stream.
        for a, b in zip(points, points[1:]):
            if snr_stream_key(a) == snr_stream_key(b):
                raise ValueError(
                    f"snr points {a} and {b} share the random stream key "
                    f"{snr_stream_key(a)} (milli-dB resolution)")
        object.__setattr__(self, "snr_points_db", points)

    def _array_bytes(self) -> tuple:
        """(array, flags, bytes) of each per-experiment array that a flag
        sizes: the cached tables, and one chunk's draws, spectra and
        correlations. A chunk's rows are fixed, so the trial count sizes
        none."""
        n, k, taps = self.ofdm.dft_size, self.ofdm.n_active, self.n_taps
        n_sfo = self.grid.shape[1]
        sfos = f"{n_sfo} lattice SFOs (the --grid-sfo-* flags)"
        return (
            ("synthesis basis", f"--n {n} and --k {k}", 16 * n * k),
            ("channel DFT phases", f"--k {k} and --taps {_int_text(taps)}",
             16 * k * taps),
            ("correlation ramps", f"--k {k} and {sfos}", 16 * k * n_sfo),
            ("noise draws and FFT of a chunk", f"--n {n}", 32 * _CHUNK * n),
            ("channel draws of a chunk", f"--taps {_int_text(taps)}",
             32 * _CHUNK * taps),
            ("correlations of a chunk", sfos, 16 * _CHUNK * n_sfo))


def make_experiment(dft_size: int = 64, n_active: int = 52, cp_len: int = 16,
                    cfo: float = 0.212, sfo: float = 0.000112,
                    n_taps: int = 5,
                    snr_points_db=(0.0, 5.0, 10.0, 15.0, 20.0, 25.0, 30.0),
                    n_trials: int = 500, master_seed: int = 12345,
                    grid: GridSpec | None = None) -> ExperimentConfig:
    """Build an :class:`ExperimentConfig` with the default desk setup."""
    return ExperimentConfig(
        ofdm=OfdmConfig(dft_size, n_active, cp_len),
        cfo=float(cfo), sfo=float(sfo), n_taps=n_taps,
        snr_points_db=tuple(snr_points_db), n_trials=n_trials,
        master_seed=master_seed,
        grid=grid if grid is not None else make_grid(),
    )


@dataclass(frozen=True)
class _Columns:
    """Outcomes of trials at one SNR point, trial-major: row i is trial
    ``indices[i]``. A stage that did not run leaves its columns None;
    ``degenerate`` and ``singular`` mask the rows without a usable
    ``e_sq`` or bound, and a failed search is a NaN row of its
    estimator's columns (every degenerate row fails the ratio fit)."""

    indices: tuple
    n_sq: np.ndarray | None = None
    e_sq: np.ndarray | None = None
    degenerate: np.ndarray | None = None
    proposed: Estimates | None = None
    nguyenle: Estimates | None = None
    crb_cfo: np.ndarray | None = None
    crb_sfo: np.ndarray | None = None
    singular: np.ndarray | None = None


def _draw(cfg: ExperimentConfig, indices, picks: np.ndarray,
          states: dict) -> tuple:
    """Draw a chunk's trials, each from its own streams, trial-major: the
    tuple ``(indices, x, taps, noise)``, whose row i is trial indices[i].

    ``x`` (T, K) is each trial's first training symbol, which the second
    repeats; ``taps`` is (T, L); ``noise`` holds the (T, 2, 2, N)
    standard normals of both symbols' noise, or None for a draw of the
    scenario alone. ``picks`` holds the chunk's rows of the SNR point's
    QPSK picks and ``states`` maps every other label to the chunk's rows
    of its PCG64 states, from which :func:`ofdm_model._standard_normals`
    draws the one-trial ``Generator.standard_normal`` draws, bit for bit.
    """
    taps = _standard_normals([states["channel"]], cfg.n_taps)[:, 0]
    noise = None if "noise0" not in states else _standard_normals(
        [states["noise0"], states["noise1"]], cfg.ofdm.dft_size)
    return tuple(indices), QPSK_ALPHABET.take(picks), channel_taps(taps), noise


def _chunks(cfg: ExperimentConfig, stream_keys, indices, labels) -> list:
    """Per stream key, a generator of the draws of ``indices`` chunk by
    chunk: ``_CHUNK`` rows of bursts, or twice that of the scenario alone.
    The streams of every key come from one :func:`ofdm_model._derive_tables`,
    pick pass and state pass per block of at most ``_GROUP_ROWS`` indices,
    derived as the first key reaches it, so no table grows with the trials."""
    size = _CHUNK if "noise0" in labels else 2 * _CHUNK
    shape, k = (len(stream_keys), -1), cfg.ofdm.n_active

    @functools.lru_cache(maxsize=1)
    def block(start):
        ids = indices[start:start + _GROUP_ROWS]
        tables = _derive_tables(cfg.master_seed, stream_keys, ids, labels)
        picks = _qpsk_picks(tables.pop("training"), k).reshape(*shape, k)
        return ids, picks, {label: _pcg64_states(t).reshape(*shape, 4)
                            for label, t in tables.items()}

    def point(s):
        for start in range(0, len(indices), _GROUP_ROWS):
            if start:  # a point of several blocks is alone in its group
                block.cache_clear()
            ids, picks, states = block(start)
            for offset in range(0, len(ids), size):
                rows = slice(offset, offset + size)
                yield _draw(cfg, ids[rows], picks[s, rows],
                            {label: t[s, rows] for label, t in states.items()})
            del ids, picks, states

    return [point(s) for s in range(len(stream_keys))]


def _observe(cfg: ExperimentConfig, snr_db: float, draws: tuple,
             burst) -> np.ndarray:
    """Add noise to a chunk's burst and demodulate: (T, 2, K) spectra."""
    *_, noise = draws
    samples = synthesize_rows(cfg.ofdm, burst, cfg.cfo,
                              noise_variance_from_snr(cfg.ofdm, snr_db),
                              noise)
    return demodulate_rows(samples, cfg.ofdm)


def _crb_fields(cfg: ExperimentConfig, snr_db: float, burst) -> dict:
    """Each trial's bounds at the true offsets, as :class:`_Columns` fields:
    one closed-form Fisher pass over the chunk's noiseless burst, the one
    it synthesized (fig2) or drew for its bounds (crb)."""
    f00, f01, f11 = fisher_rows(cfg.ofdm, burst, cfg.cfo,
                                noise_variance_from_snr(cfg.ofdm, snr_db))
    crb_cfo, crb_sfo, det = crb_rows(f00, f01, f01, f11)
    return {"crb_cfo": crb_cfo, "crb_sfo": crb_sfo,
            "singular": ~invertible(det)}


def _burst_columns(cfg: ExperimentConfig, snr_db: float, draws: tuple, *,
                   residuals_only: bool = False):
    """The columns of a chunk of bursts, and the chunk's spectra: the
    residual norms, and unless ``residuals_only`` both searches and the
    bounds."""
    indices, x, taps, _ = draws
    burst = noiseless_burst(cfg.ofdm, x, taps, cfg.sfo)
    spectra = _observe(cfg, snr_db, draws, burst)
    fields = {} if residuals_only else _crb_fields(cfg, snr_db, burst)
    del burst  # the searches' temporaries reuse its memory
    r0, r1 = spectra[:, 0], spectra[:, 1]
    y, bad = ratio_observable_rows(x, r0, r1)
    degenerate = bad.any(axis=-1)
    fields.update(
        n_sq=squared_norms(pair_residual_rows(r0, r1, cfg.cfo, cfg.sfo,
                                              cfg.ofdm)),
        e_sq=squared_norms(ratio_residual_rows(y, cfg.cfo, cfg.sfo,
                                               cfg.ofdm)),
        degenerate=degenerate)
    if not residuals_only:
        evaluator = _evaluator(cfg.grid, cfg.ofdm)
        fields.update(proposed=evaluator.search_proposed(r0, r1),
                      nguyenle=evaluator.search_nguyenle(y, degenerate))
    return _Columns(indices, **fields), spectra


@dataclass(frozen=True)
class TrialDiagnostics:
    """One trial at one SNR point: its one-row :class:`_Columns`, which
    are its row of any sweep's columns, plus the values only ``trial``
    prints: ``failures`` maps each failed search ("proposed",
    "nguyenle") to its reason, and the Nguyen-Le cost at truth is None
    where that search failed."""

    snr_db: float
    columns: _Columns
    failures: dict
    noise_var: float
    channel_taps: np.ndarray
    carrier_gain_abs_min: float
    carrier_gain_abs_max: float
    proposed_cost_at_truth: float
    nguyenle_cost_at_truth: float | None


def inspect_trial(cfg: ExperimentConfig, snr_db: float,
                  trial_index: int = 0) -> TrialDiagnostics:
    """Run one trial as a chunk of one and add its diagnostics.

    ``snr_db`` is checked as a sweep's SNR point is, by
    :class:`ExperimentConfig`. The burst is drawn once: the diagnostics
    read the observation and channel of that chunk. The costs at truth are
    evaluated here and never in the sweeps, where they would add two cost
    evaluations to every trial.
    """
    replace(cfg, snr_points_db=(snr_db,))
    draws = next(_chunks(cfg, (snr_stream_key(snr_db),), (trial_index,),
                         _BURST_STREAMS)[0])
    cols, spectra = _burst_columns(cfg, snr_db, draws)
    _, (x,), (taps,), _ = draws
    r0, r1 = spectra[0]
    y, bad = ratio_observable_rows(x, r0, r1)
    failures = {name: _NON_FINITE for name in ("proposed", "nguyenle")
                if np.isnan(getattr(cols, name).cfo[0])}
    if cols.degenerate[0]:
        failures["nguyenle"] = (
            f"degenerate observation (subcarriers "
            f"{cfg.ofdm.subcarrier_indices[bad].tolist()})")
    gains = np.abs(carrier_gain(cfg.ofdm.subcarrier_indices, 0, cfg.cfo,
                                cfg.sfo, cfg.ofdm))
    return TrialDiagnostics(
        snr_db=snr_db, columns=cols, failures=failures,
        noise_var=noise_variance_from_snr(cfg.ofdm, snr_db),
        channel_taps=taps,
        carrier_gain_abs_min=float(gains.min()),
        carrier_gain_abs_max=float(gains.max()),
        proposed_cost_at_truth=proposed_cost(r0, r1, cfg.cfo, cfg.sfo,
                                             cfg.ofdm),
        nguyenle_cost_at_truth=None if "nguyenle" in failures else
        nguyenle_cost(y, cfg.cfo, cfg.sfo, cfg.ofdm))


@dataclass(frozen=True)
class SweepRow:
    """Aggregated results for one SNR point."""

    snr_db: float
    n_trials: int
    mean_residual_n_sq: float | None
    mean_residual_e_sq: float | None
    mse_cfo_proposed: float | None = None
    mse_cfo_nguyenle: float | None = None
    mse_sfo_proposed: float | None = None
    mse_sfo_nguyenle: float | None = None
    crb_cfo: float | None = None
    crb_sfo: float | None = None
    fail_proposed: int = 0
    fail_nguyenle: int = 0
    crb_excluded: int = 0
    degenerate_observations: int = 0

    @property
    def var_n_db(self) -> float:
        return 10.0 * np.log10(self.mean_residual_n_sq)

    @property
    def var_e_db(self) -> float | None:
        if self.mean_residual_e_sq is None:
            return None
        return 10.0 * np.log10(self.mean_residual_e_sq)


@dataclass(frozen=True)
class SweepResult:
    """All rows of one sweep plus the config that produced them."""

    config: ExperimentConfig
    rows: tuple


def _reduce(chunks, snr_db: float, cfo: float, sfo: float) -> SweepRow:
    """Reduce one SNR point's :class:`_Columns`, in ascending trial order,
    to a sweep row, under the module's sum and square rules, as they
    stream past: each mean is one running (sum, count) pair. MSEs average
    over the trials where the estimator succeeded, and a NaN row is a
    failed search; a None mean means no trial contributed."""
    sums = dict.fromkeys(("mean_residual_n_sq", "mean_residual_e_sq"),
                         (0.0, 0))
    counts = dict.fromkeys(("fail_proposed", "fail_nguyenle",
                            "crb_excluded"), 0)

    def add(name, values: list):
        acc, n = sums.get(name, (0.0, 0))
        for v in values:
            acc += v
        sums[name] = acc, n + len(values)

    n_trials = 0
    for cols in chunks:
        n_trials += len(cols.indices)
        if cols.n_sq is not None:
            add("mean_residual_n_sq", cols.n_sq.tolist())
            add("mean_residual_e_sq", cols.e_sq[~cols.degenerate].tolist())
        for name in ("proposed", "nguyenle"):
            found = getattr(cols, name)
            if found is not None:
                failed = np.isnan(found.cfo)
                counts[f"fail_{name}"] += int(failed.sum())
                add(f"mse_cfo_{name}",
                    [(v - cfo) ** 2 for v in found.cfo[~failed].tolist()])
                add(f"mse_sfo_{name}",
                    [(v - sfo) ** 2 for v in found.sfo[~failed].tolist()])
        if cols.crb_cfo is not None:
            add("crb_cfo", cols.crb_cfo[~cols.singular].tolist())
            add("crb_sfo", cols.crb_sfo[~cols.singular].tolist())
            counts["crb_excluded"] += int(cols.singular.sum())
        del cols  # freed before the next chunk is drawn
    return SweepRow(
        snr_db=snr_db, n_trials=n_trials, degenerate_observations=(
            sums["mean_residual_n_sq"][1] - sums["mean_residual_e_sq"][1]),
        **counts,
        **{name: acc / n if n else None for name, (acc, n) in sums.items()})


def worker_count() -> int:
    """Always 1: trials run serially in the calling thread."""
    return 1


def _retain_heap() -> bool:
    """Have glibc keep freed heap pages (M_TRIM_THRESHOLD = -1 and
    M_MMAP_THRESHOLD = -3, both at 32 MB), so each chunk reuses the last
    one's pages: by default glibc unmaps freed blocks over 128 KB or trims
    them off the heap top, and the next chunk faults them in again. False
    where ``mallopt`` is missing or refuses."""
    try:
        mallopt = ctypes.CDLL(None).mallopt
    except (AttributeError, OSError, TypeError):
        return False
    return all(mallopt(option, 32 << 20) for option in (-1, -3))


def _sweep(cfg: ExperimentConfig, labels, columns) -> SweepResult:
    """One row per SNR point, reducing ``columns(snr_db, draws)`` of its
    chunks; consecutive points of at most ``_GROUP_ROWS`` trials (or one
    point) share a :func:`_chunks` call. The heap policy of
    :func:`_retain_heap` is set first."""
    _retain_heap()
    points, step = cfg.snr_points_db, max(1, _GROUP_ROWS // cfg.n_trials)
    groups = (points[i:i + step] for i in range(0, len(points), step))
    return SweepResult(config=cfg, rows=tuple(
        _reduce(map(functools.partial(columns, snr_db), draws), snr_db,
                cfg.cfo, cfg.sfo)
        for group in groups for snr_db, draws in zip(group, _chunks(
            cfg, [snr_stream_key(s) for s in group], range(cfg.n_trials),
            labels))))


def run_mse_sweep(cfg: ExperimentConfig) -> SweepResult:
    """Full estimator comparison: per-SNR MSEs, failures, and mean CRBs."""
    return _sweep(cfg, _BURST_STREAMS,
                  lambda s, d: _burst_columns(cfg, s, d)[0])


def run_noise_variance_sweep(cfg: ExperimentConfig) -> SweepResult:
    """Residual-only sweep: mean squared norms of the two residuals."""
    return _sweep(cfg, _BURST_STREAMS, lambda s, d: _burst_columns(
        cfg, s, d, residuals_only=True)[0])


def run_crb_sweep(cfg: ExperimentConfig) -> SweepResult:
    """Ensemble-averaged CRBs per SNR point, without synthesizing bursts.

    Each trial draws only the training symbol and channel of its burst,
    so the rows' CRB columns equal :func:`run_mse_sweep`'s.
    """
    def columns(snr_db, draws):
        indices, x, taps, _ = draws
        return _Columns(indices, **_crb_fields(cfg, snr_db, noiseless_burst(
            cfg.ofdm, x, taps, cfg.sfo)))

    return _sweep(cfg, _SCENARIO_STREAMS, columns)
