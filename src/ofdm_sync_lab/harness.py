"""Deterministic Monte-Carlo harness for the estimator comparisons.

Every trial decision lives here. Each ``sync-lab`` command is one call:
the fig1, fig2 and crb sweeps below, and :func:`inspect_trial` for
``trial``.

Trials run serially in the calling thread, in fixed chunks of ``_CHUNK``
(64) trials held as trial-major arrays (:func:`_chunks`). Each chunk
frees its temporaries and the next one allocates them again, so
``cli.main`` has glibc keep freed heap pages: otherwise the blocks over
128 KB go back to the kernel after every chunk, and the next chunk
faults them back in page by page. Every trial draws from its own
labeled random substreams, keyed by the master seed, the SNR point, the
trial index and the label, so results are reproducible bit for bit
regardless of chunking or execution order. A
sweep derives the streams of an SNR point in one mixing pass
(:func:`ofdm_model._derive_tables`, numpy's ``SeedSequence`` vectorized
over the trials and labels) and right after it reads every trial's QPSK
picks from the training table in one vectorized PCG64 pass
(:func:`ofdm_model._qpsk_picks`). Each chunk takes its rows of the picks
and of the other seed tables and, per trial and label, seeds a fresh
``PCG64`` from its row and draws the normals through ``Generator`` into
the chunk's arrays. These are the draws of
:func:`ofdm_model.derive_rng`'s streams, bit for bit, and only the
current SNR point's seed tables and picks are held. A chunk then
makes one synthesis of both symbols, one FFT, one stacked correlation
per estimator and one stacked Fisher pass over the synthesis's noiseless
burst, which equal the one-trial computations bit for bit (see
:mod:`ofdm_sync_lab.ofdm_model` for the rules that make them equal), so
a trial run as a chunk of one (:func:`inspect_trial`) gets its row of
any sweep.

A chunk's outcomes stay trial-major columns (:class:`_Columns`): the
residual norms, each estimator's lattice cfo, sfo and cost, the bounds,
a mask per failure kind and the reason of each failed search. They are
the only form a trial's outcome takes: a sweep reduces each SNR point's
columns with :func:`_reduce`, and ``trial`` prints the one-row columns
of :func:`inspect_trial`. The reduction equals a loop over the trials
bit for bit under two rules: every mean is a sequential sum in
ascending trial order (``np.sum`` sums pairwise), and every squared
error is the Python float ``(v - truth) ** 2``, which is libm's ``pow``
(numpy's ``x ** 2`` is ``x * x``, which rounds differently on about one
input in a thousand).
The grid evaluator and the CRB backend depend only on the experiment, so
they are derived from it, memoized, and never passed in: fig2, crb and
``trial`` all use one probe result per experiment.
"""

import functools
from dataclasses import dataclass, replace

import numpy as np

from .crb import (
    SFO_STEP_DEFAULT,
    _fisher_entries,
    compare_fisher,
    crb_rows,
    fisher_closed_form,
    fisher_numeric_oracle,
    fisher_rows,
    invertible,
)
from .estimators import (
    GridSpec,
    NonFiniteSurfaceError,
    _Estimates,
    _evaluator,
    make_grid,
    nguyenle_cost,
    nguyenle_observable,
    pair_residual_rows,
    proposed_cost,
    ratio_observable_rows,
    ratio_residual_rows,
    squared_norms,
)
from .ofdm_model import (
    MAX_TRIALS,
    QPSK_ALPHABET,
    ChannelRealization,
    ImpairmentParams,
    OfdmConfig,
    PreambleObservation,
    TrainingSymbols,
    carrier_gain,
    channel_taps,
    demodulate_rows,
    make_config,
    noise_variance_from_snr,
    snr_stream_key,
    _CACHE_SIZE,
    _SeedWords,
    _derive_tables,
    _noiseless_burst,
    _qpsk_picks,
    _synthesized,
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

# Relative agreement required of the closed-form Fisher matrix against
# the numeric oracle before the closed form is used for CRB curves.
CRB_AGREEMENT_RTOL = 1e-3

# Failure reason of a search whose cost surface is not finite.
_NON_FINITE = "non-finite cost surface"

# Labeled streams of one trial: a burst draws all four; a CRB draw and
# the backend probe draw only the scenario's first two.
_BURST_STREAMS = ("training", "channel", "noise0", "noise1")
_SCENARIO_STREAMS = _BURST_STREAMS[:2]

# Largest squared noisy bin a residual norm or cost may meet, in noise
# variances: a residual bin is a difference of two bins, each at most
# 2500 noise variances (exceeded with probability e**-2500).
_NOISE_HEADROOM = 1e4

# Trials per chunk. Every chunk pays about 0.8 ms of fixed numpy-call
# cost, so fig2's 60-trial SNR points run in one chunk each at 64 and in
# two at 32. A chunk's draws and spectra are a few KB per trial, and the
# rare 101 x 101 surface (about 0.5 MB of temporaries) is formed one
# trial at a time; at 128, fig1's peak RSS rose about 5 % over 32.
_CHUNK = 64


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
        # The estimators and the CRB need the repeated pair of symbols.
        if self.ofdm.n_symbols != 2:
            raise ValueError(
                f"ofdm.n_symbols must be 2, got {self.ofdm.n_symbols}")
        if self.n_taps < 1:
            raise ValueError(f"n_taps must be >= 1, got {self.n_taps}")
        if self.n_trials < 1:
            raise ValueError(f"n_trials must be >= 1, got {self.n_trials}")
        # A trial index enters the stream entropy as one 32-bit word.
        if self.n_trials >= MAX_TRIALS:
            raise ValueError(
                f"n_trials must be below 2**32, got {self.n_trials}")
        ImpairmentParams(self.cfo, self.sfo)  # finite, -1 < sfo < 1
        # The backend probe's numeric oracle evaluates the burst at sfo
        # plus and minus its step, and each must be an sfo too.
        if not (-1.0 < self.sfo - SFO_STEP_DEFAULT
                and self.sfo + SFO_STEP_DEFAULT < 1.0):
            raise ValueError(
                f"sfo must stay the numeric Fisher oracle's step "
                f"SFO_STEP_DEFAULT = {SFO_STEP_DEFAULT:g} inside (-1, 1), "
                f"got {self.sfo}")
        # At a fixed SFO the pair cost is periodic in cfo: with no noise,
        # every alias cfo + k period (k != 0) costs what truth does. The
        # lowest one on the grid has k within one of (lo - cfo) / period,
        # or two when that k is 0: five k from the floor - 1 cover it.
        period = self.ofdm.dft_size / (self.ofdm.symbol_len
                                       * (1.0 + self.sfo))
        lo, hi = map(float, self.grid.cfo_values[[0, -1]])
        start = (lo - self.cfo) // period if period else 1.0
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
        # Random streams are keyed by the milli-dB SNR key, so two points
        # sharing a key would silently share every stream.
        for a, b in zip(points, points[1:]):
            if snr_stream_key(a) == snr_stream_key(b):
                raise ValueError(
                    f"snr points {a} and {b} share the random stream key "
                    f"{snr_stream_key(a)} (milli-dB resolution)")
        # The noise variance falls with the SNR and must stay a positive
        # float: the noise scales by it and the Fisher matrix divides by it.
        # The residual norms and cost surfaces sum K squared noisy bins, so
        # it must also leave _NOISE_HEADROOM noise variances per bin.
        limit = np.finfo(float).max / (_NOISE_HEADROOM * self.ofdm.n_active)
        for snr_db in (points[0], points[-1]):
            try:
                noise_var = noise_variance_from_snr(self.ofdm, snr_db)
            except OverflowError:
                noise_var = np.inf
            if not 0.0 < noise_var <= limit:
                raise ValueError(
                    f"snr point {snr_db:g} dB gives the noise variance "
                    f"{noise_var}, which must be positive and finite, and "
                    f"at most {limit:.4g} so that a sum of K squared noisy "
                    f"bins stays finite")
        object.__setattr__(self, "snr_points_db", points)


def make_experiment(dft_size: int = 64, n_active: int = 52, cp_len: int = 16,
                    cfo: float = 0.212, sfo: float = 0.000112,
                    n_taps: int = 5,
                    snr_points_db=(0.0, 5.0, 10.0, 15.0, 20.0, 25.0, 30.0),
                    n_trials: int = 500, master_seed: int = 12345,
                    grid: GridSpec | None = None) -> ExperimentConfig:
    """Build an :class:`ExperimentConfig` with the default desk setup."""
    return ExperimentConfig(
        ofdm=make_config(dft_size, n_active, cp_len),
        cfo=float(cfo), sfo=float(sfo), n_taps=int(n_taps),
        snr_points_db=tuple(snr_points_db), n_trials=int(n_trials),
        master_seed=int(master_seed),
        grid=grid if grid is not None else make_grid(),
    )


@dataclass(frozen=True)
class _Draws:
    """One chunk's draws, trial-major: row i belongs to trial indices[i].

    ``training`` (T, K) is each trial's first training symbol, which the
    second repeats; ``taps`` is (T, L); ``noise`` holds the (T, 2, 2, N)
    standard normals of both symbols' noise, or None for a draw of the
    scenario alone.
    """

    indices: tuple
    training: np.ndarray
    taps: np.ndarray
    noise: np.ndarray | None = None


@dataclass(frozen=True)
class _Columns:
    """Outcomes of trials at one SNR point, trial-major: row i is trial
    ``indices[i]``. A stage that did not run leaves its columns None;
    ``degenerate`` and ``singular`` mask the rows without a usable
    ``e_sq`` or bound, and estimator failures map rows to reasons."""

    indices: tuple
    n_sq: np.ndarray | None = None
    e_sq: np.ndarray | None = None
    degenerate: np.ndarray | None = None
    proposed: _Estimates | None = None
    nguyenle: _Estimates | None = None
    crb_cfo: np.ndarray | None = None
    crb_sfo: np.ndarray | None = None
    singular: np.ndarray | None = None


def _draw(cfg: ExperimentConfig, indices, picks: np.ndarray,
          seeds: dict) -> _Draws:
    """Draw a chunk's trials, each from its own streams.

    ``picks`` holds the chunk's rows of the SNR point's QPSK picks and
    ``seeds`` maps every other label to the chunk's rows of its seed
    table. Each normal draw is the one-trial draw of that label through
    a ``Generator`` on a ``PCG64`` seeded from its row.
    """
    def normals(label, n):
        """(T, 2, n): one trial's (2, n) standard normals per row."""
        out = np.empty((len(indices), 2, n))
        for row, words in zip(out, seeds[label]):
            np.random.Generator(np.random.PCG64(_SeedWords(words))) \
                .standard_normal(out=row)
        return out

    noise = None
    if "noise0" in seeds:
        noise = np.stack([normals(label, cfg.ofdm.dft_size)
                          for label in _BURST_STREAMS[2:]], axis=1)
    return _Draws(indices=tuple(indices), training=QPSK_ALPHABET.take(picks),
                  taps=channel_taps(normals("channel", cfg.n_taps)),
                  noise=noise)


def _chunks(cfg: ExperimentConfig, stream_key, indices, labels):
    """Yield the draws of ``indices`` chunk by chunk, in index order.

    Each label's seed table is derived (and checked) once over all the
    indices, and the QPSK picks of every index are read from the training
    table in one vectorized pass (:func:`ofdm_model._qpsk_picks`); each
    chunk takes its rows of the picks and hands its rows of the other
    tables to ``PCG64`` unchecked.
    """
    tables = _derive_tables(cfg.master_seed, stream_key, indices, labels)
    picks = _qpsk_picks(tables.pop("training"), cfg.ofdm.n_active)
    for start in range(0, len(indices), _CHUNK):
        rows = slice(start, start + _CHUNK)
        yield _draw(cfg, indices[rows], picks[rows],
                    {label: table[rows] for label, table in tables.items()})


def _observe(cfg: ExperimentConfig, snr_db: float, draws: _Draws,
             burst) -> np.ndarray:
    """Add noise to a chunk's burst and demodulate: (T, 2, K) spectra."""
    samples = _synthesized(cfg.ofdm, burst, cfg.cfo, cfg.sfo,
                           noise_variance_from_snr(cfg.ofdm, snr_db),
                           draws.noise)
    return demodulate_rows(samples, cfg.ofdm)


def _crb_fields(cfg: ExperimentConfig, snr_db: float, draws: _Draws,
                burst=None) -> dict:
    """Each trial's bounds at the true offsets, as :class:`_Columns` fields:
    the closed form once over the chunk's burst, any other backend (the
    numeric oracle on a failed probe) one trial at a time."""
    fisher_fn = _select_crb_backend(cfg)[0]
    noise_var = noise_variance_from_snr(cfg.ofdm, snr_db)
    if fisher_fn is fisher_closed_form:
        f00, f01, f11 = (
            _fisher_entries(cfg.ofdm, burst, cfg.cfo, cfg.sfo, noise_var)
            if burst is not None else
            fisher_rows(cfg.ofdm, (draws.training,) * 2, draws.taps,
                        cfg.cfo, cfg.sfo, noise_var))
        f10 = f01
    else:
        entries = [fisher_fn(cfg.ofdm, TrainingSymbols(x, x),
                             ChannelRealization(taps), cfg.cfo, cfg.sfo,
                             noise_var)
                   for x, taps in zip(draws.training, draws.taps)]
        f00, f01, f10, f11 = (np.array([getattr(f, name) for f in entries])
                              for name in ("f00", "f01", "f10", "f11"))
    crb_cfo, crb_sfo, det = crb_rows(f00, f01, f10, f11)
    return {"crb_cfo": crb_cfo, "crb_sfo": crb_sfo,
            "singular": ~invertible(det)}


def _burst_columns(cfg: ExperimentConfig, snr_db: float, draws: _Draws, *,
                   with_estimates: bool = True, with_crb: bool = True):
    """The columns of a chunk of bursts, and the chunk's spectra."""
    burst = _noiseless_burst(cfg.ofdm, (draws.training,) * 2, draws.taps,
                             cfg.sfo)
    spectra = _observe(cfg, snr_db, draws, burst)
    r0, r1 = spectra[:, 0], spectra[:, 1]
    y, bad = ratio_observable_rows(draws.training, draws.training, r0, r1)
    fields = {
        "n_sq": squared_norms(pair_residual_rows(r0, r1, cfg.cfo, cfg.sfo,
                                                 cfg.ofdm)),
        "e_sq": squared_norms(ratio_residual_rows(y, cfg.cfo, cfg.sfo,
                                                  cfg.ofdm)),
        "degenerate": bad.any(axis=-1)}
    if with_estimates:
        evaluator = _evaluator(cfg.grid, cfg.ofdm)
        for name, found in (("proposed", evaluator._search_pairs(r0, r1)),
                            ("nguyenle", evaluator._search_ratios(y, bad))):
            fields[name] = replace(found, failures={
                t: _NON_FINITE if isinstance(e, NonFiniteSurfaceError)
                else f"degenerate observation (subcarriers "
                     f"{list(e.subcarriers)})"
                for t, e in found.failures.items()})
    if with_crb:
        fields.update(_crb_fields(cfg, snr_db, draws, burst))
    return _Columns(draws.indices, **fields), spectra


def _burst_chunks(cfg: ExperimentConfig, snr_db: float, indices, **options):
    """The columns of ``indices``' bursts, chunk by chunk in index order."""
    for draws in _chunks(cfg, snr_stream_key(snr_db), indices,
                         _BURST_STREAMS):
        yield _burst_columns(cfg, snr_db, draws, **options)[0]


@dataclass(frozen=True)
class TrialDiagnostics:
    """One trial at one SNR point: its one-row :class:`_Columns`, which
    are its row of any sweep's columns, plus the values only ``trial``
    prints. The Nguyen-Le cost at truth is None where that search failed."""

    snr_db: float
    columns: _Columns
    noise_var: float
    channel_taps: np.ndarray
    carrier_gain_abs_min: float
    carrier_gain_abs_max: float
    proposed_cost_at_truth: float
    nguyenle_cost_at_truth: float | None


def inspect_trial(cfg: ExperimentConfig, snr_db: float,
                  trial_index: int = 0) -> TrialDiagnostics:
    """Run one trial as a chunk of one and add its diagnostics.

    The burst is drawn once: the diagnostics read the observation and
    channel of that chunk. The costs at truth are evaluated here and never
    in the sweeps, where they would add two cost evaluations to every
    trial.
    """
    draws = next(_chunks(cfg, snr_stream_key(snr_db), (trial_index,),
                         _BURST_STREAMS))
    cols, spectra = _burst_columns(cfg, snr_db, draws)
    x = draws.training[0]
    obs = PreambleObservation(r0=spectra[0, 0], r1=spectra[0, 1],
                              training=TrainingSymbols(x, x))
    gains = np.abs(carrier_gain(cfg.ofdm.subcarrier_indices, 0, cfg.cfo,
                                cfg.sfo, cfg.ofdm))
    nguyenle_truth = None
    if 0 not in cols.nguyenle.failures:
        nguyenle_truth = nguyenle_cost(nguyenle_observable(obs, cfg.ofdm),
                                       cfg.cfo, cfg.sfo, cfg.ofdm)
    return TrialDiagnostics(
        snr_db=snr_db, columns=cols,
        noise_var=noise_variance_from_snr(cfg.ofdm, snr_db),
        channel_taps=draws.taps[0],
        carrier_gain_abs_min=float(gains.min()),
        carrier_gain_abs_max=float(gains.max()),
        proposed_cost_at_truth=proposed_cost(obs, cfg.cfo, cfg.sfo,
                                             cfg.ofdm),
        nguyenle_cost_at_truth=nguyenle_truth)


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
    crb_backend: str = "closed_form"
    crb_discrepancy: str | None = None


def _mean(values):
    """The sequential mean of Python floats, in the given order."""
    if not values:
        return None
    acc = 0.0
    for v in values:
        acc += v
    return acc / len(values)


def _reduce(chunks, snr_db: float, cfo: float, sfo: float) -> SweepRow:
    """Reduce one SNR point's :class:`_Columns`, in ascending trial order,
    to a sweep row, under the module's sum and square rules. MSEs average
    over the trials where the estimator succeeded; a None mean means no
    trial contributed."""
    n_trials, n_sq, e_sq, crb_cfo, crb_sfo = 0, [], [], [], []
    errors = {name: ([], []) for name in ("proposed", "nguyenle")}
    counts = dict.fromkeys(("fail_proposed", "fail_nguyenle",
                            "crb_excluded"), 0)
    for cols in chunks:
        n_trials += len(cols.indices)
        if cols.n_sq is not None:
            n_sq += cols.n_sq.tolist()
            e_sq += cols.e_sq[~cols.degenerate].tolist()
        for name, (cfo_errors, sfo_errors) in errors.items():
            found = getattr(cols, name)
            if found is not None:
                counts[f"fail_{name}"] += len(found.failures)
                ok = np.ones(len(cols.indices), dtype=bool)
                ok[list(found.failures)] = False
                cfo_errors += [(v - cfo) ** 2 for v in found.cfo[ok].tolist()]
                sfo_errors += [(v - sfo) ** 2 for v in found.sfo[ok].tolist()]
        if cols.crb_cfo is not None:
            crb_cfo += cols.crb_cfo[~cols.singular].tolist()
            crb_sfo += cols.crb_sfo[~cols.singular].tolist()
            counts["crb_excluded"] += int(cols.singular.sum())
    return SweepRow(
        snr_db=snr_db, n_trials=n_trials, mean_residual_n_sq=_mean(n_sq),
        mean_residual_e_sq=_mean(e_sq),
        mse_cfo_proposed=_mean(errors["proposed"][0]),
        mse_cfo_nguyenle=_mean(errors["nguyenle"][0]),
        mse_sfo_proposed=_mean(errors["proposed"][1]),
        mse_sfo_nguyenle=_mean(errors["nguyenle"][1]),
        crb_cfo=_mean(crb_cfo), crb_sfo=_mean(crb_sfo),
        degenerate_observations=len(n_sq) - len(e_sq), **counts)


def worker_count() -> int:
    """Always 1: trials run serially in the calling thread."""
    return 1


@functools.lru_cache(maxsize=_CACHE_SIZE)
def _probe(cfg: ExperimentConfig):
    """The worst closed-form/oracle Fisher comparison over two seeded
    scenarios, at the experiment's extreme SNR points."""
    snrs = (min(cfg.snr_points_db), max(cfg.snr_points_db))
    draws = next(_chunks(cfg, "crb-backend-probe", range(2),
                         _SCENARIO_STREAMS))
    return max((compare_fisher(cfg.ofdm, TrainingSymbols(x, x),
                               ChannelRealization(taps), cfg.cfo, cfg.sfo,
                               noise_variance_from_snr(cfg.ofdm, snr_db))
                for x, taps, snr_db in zip(draws.training, draws.taps,
                                           snrs)),
               key=lambda comparison: comparison.max_rel_error)


def _select_crb_backend(cfg: ExperimentConfig):
    """(fisher_fn, name, report) of the experiment's CRB backend: the
    closed form if its probe agrees within ``CRB_AGREEMENT_RTOL``, else
    the numeric oracle with the probe's per-entry discrepancy report."""
    worst = _probe(cfg)
    if worst.max_rel_error < CRB_AGREEMENT_RTOL:
        return fisher_closed_form, "closed_form", None
    return fisher_numeric_oracle, "numeric_oracle", worst.report()


def _sweep_rows(cfg: ExperimentConfig, columns) -> tuple:
    """One row per SNR point, reducing the chunk columns that
    ``columns(snr_db, indices)`` yields over all the trial indices."""
    indices = range(cfg.n_trials)
    return tuple(_reduce(columns(snr_db, indices), snr_db, cfg.cfo, cfg.sfo)
                 for snr_db in cfg.snr_points_db)


def _crb_sweep(cfg: ExperimentConfig, columns) -> SweepResult:
    """The rows of ``columns``, which carry CRBs, and the name and report
    of the backend that bounded them."""
    rows = _sweep_rows(cfg, columns)
    _, backend, report = _select_crb_backend(cfg)
    return SweepResult(config=cfg, rows=rows, crb_backend=backend,
                       crb_discrepancy=report)


def run_mse_sweep(cfg: ExperimentConfig) -> SweepResult:
    """Full estimator comparison: per-SNR MSEs, failures, and mean CRBs."""
    return _crb_sweep(cfg, functools.partial(_burst_chunks, cfg))


def run_noise_variance_sweep(cfg: ExperimentConfig) -> SweepResult:
    """Residual-only sweep: mean squared norms of the two residuals."""
    rows = _sweep_rows(cfg, functools.partial(
        _burst_chunks, cfg, with_estimates=False, with_crb=False))
    return SweepResult(config=cfg, rows=rows)


def run_crb_sweep(cfg: ExperimentConfig) -> SweepResult:
    """Ensemble-averaged CRBs per SNR point, without synthesizing bursts.

    Each trial draws only the training symbol and channel of its burst,
    so the rows' CRB columns equal :func:`run_mse_sweep`'s.
    """
    def columns(snr_db, indices):
        for draws in _chunks(cfg, snr_stream_key(snr_db), indices,
                             _SCENARIO_STREAMS):
            yield _Columns(draws.indices, **_crb_fields(cfg, snr_db, draws))

    return _crb_sweep(cfg, columns)
