"""Deterministic Monte-Carlo harness for the estimator comparisons.

Every trial decision lives here. Each ``sync-lab`` command is one call:
the fig1, fig2 and crb sweeps below, each reduced by :func:`aggregate`,
and :func:`inspect_trial` for ``trial``.

Trials run serially in the calling thread, in fixed chunks of
``_CHUNK`` trials held as trial-major arrays (:func:`run_trials`). Every
trial draws from its own labeled random substreams, keyed by the master
seed, the SNR point, the trial index and the label, so results are
reproducible bit for bit regardless of chunking or execution order. A
sweep derives the streams of an SNR point in one pass per label
(:func:`ofdm_model.derive_states`, numpy's ``SeedSequence`` vectorized
over the trials); each chunk reads its rows of that seed table and, per
trial and label, seeds a fresh ``PCG64`` from its row and draws into the
chunk's arrays: the QPSK picks from its raw words
(:func:`ofdm_model._qpsk_picks`), the normals through ``Generator``.
These are the draws of :func:`ofdm_model.derive_rng`'s streams, bit for
bit, and only the current SNR point's seed table is held. A chunk then
makes one synthesis of both symbols, one FFT, one stacked correlation
per estimator and one stacked Fisher pass, which equal the one-trial
computations bit for bit (see :mod:`ofdm_sync_lab.ofdm_model` for the
rules that make them equal), so :func:`run_trial` is the one-trial view
of the same code. Aggregation always runs in ascending trial order.
The grid evaluator and the CRB backend depend only on the experiment,
so they are derived from it, memoized, and never passed in: fig2, crb,
:func:`run_trial` and ``trial`` all use one probe result per experiment.
"""

import functools
from dataclasses import dataclass

import numpy as np

from .crb import (
    compare_fisher,
    crb_rows,
    fisher_closed_form,
    fisher_numeric_oracle,
    fisher_rows,
    invertible,
)
from .estimators import (
    DegenerateObservationError,
    EstimationResult,
    GridSpec,
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
    derive_states,
    make_config,
    noise_variance_from_snr,
    snr_stream_key,
    synthesize_rows,
    _CACHE_SIZE,
    _SeedWords,
    _qpsk_picks,
)

__all__ = [
    "ExperimentConfig",
    "TrialRecord",
    "TrialDiagnostics",
    "SweepRow",
    "SweepResult",
    "make_experiment",
    "run_trial",
    "run_trials",
    "inspect_trial",
    "run_mse_sweep",
    "run_noise_variance_sweep",
    "run_crb_sweep",
    "aggregate",
]

# Relative agreement required of the closed-form Fisher matrix against
# the numeric oracle before the closed form is used for CRB curves.
CRB_AGREEMENT_RTOL = 1e-3

# Failure reasons a TrialRecord carries.
_NON_FINITE = "non-finite cost surface"
_SINGULAR = "singular information matrix"

# Labeled streams of one trial: a burst draws all four; a CRB draw and
# the backend probe draw only the scenario's first two.
_BURST_STREAMS = ("training", "channel", "noise0", "noise1")
_SCENARIO_STREAMS = _BURST_STREAMS[:2]

# Trials per chunk. A chunk's draws and spectra are a few KB per trial;
# the 101 x 101 surfaces (about 0.5 MB of temporaries) are formed one
# trial at a time, so a larger chunk would buy little and cost memory.
_CHUNK = 32


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
        ImpairmentParams(self.cfo, self.sfo)  # finite, sfo > -1
        # At a fixed SFO the pair cost is periodic in cfo: with no noise,
        # an alias of the true cfo on the search grid costs what truth does.
        period = self.ofdm.dft_size / (self.ofdm.symbol_len
                                       * (1.0 + self.sfo))
        lo, hi = self.grid.cfo_values[0], self.grid.cfo_values[-1]
        for alias in (self.cfo - period, self.cfo + period):
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
class TrialRecord:
    """Outcome of one seeded trial at one SNR point.

    Residual fields are None when the trial evaluated no residuals (the
    CRB sweep's draws), and ``residual_e_sq`` also when the ratio
    observable was degenerate. Estimator fields are None either because
    estimation was skipped (``estimated`` False) or because that
    estimator failed on this trial; CRB fields are None when skipped or
    singular. A failure leaves its reason in the matching ``*_failure``
    field.
    """

    trial_index: int
    snr_db: float
    residual_n_sq: float | None = None
    residual_e_sq: float | None = None
    proposed: EstimationResult | None = None
    nguyenle: EstimationResult | None = None
    crb_cfo: float | None = None
    crb_sfo: float | None = None
    estimated: bool = False
    crb_evaluated: bool = False
    proposed_failure: str | None = None
    nguyenle_failure: str | None = None
    crb_failure: str | None = None


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


def _draw(cfg: ExperimentConfig, indices, seeds: dict) -> _Draws:
    """Draw a chunk's trials, each from its own streams.

    ``seeds`` maps each label to the chunk's rows of its seed table. Each
    draw is the one-trial draw of that label from a ``PCG64`` seeded from
    its row: QPSK picks from raw words, normals through ``Generator``.
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
    picks = _qpsk_picks(seeds["training"], cfg.ofdm.n_active)
    return _Draws(indices=tuple(indices), training=QPSK_ALPHABET[picks],
                  taps=channel_taps(normals("channel", cfg.n_taps)),
                  noise=noise)


def _chunks(cfg: ExperimentConfig, stream_key, indices, labels):
    """Yield the draws of ``indices`` chunk by chunk, in index order.

    Each label's seed table is derived (and checked) once over all the
    indices, and each chunk hands its rows to ``PCG64`` unchecked.
    """
    tables = {label: derive_states(cfg.master_seed, stream_key, indices,
                                   label) for label in labels}
    for start in range(0, len(indices), _CHUNK):
        rows = slice(start, start + _CHUNK)
        yield _draw(cfg, indices[rows],
                    {label: table[rows] for label, table in tables.items()})


def _observe(cfg: ExperimentConfig, snr_db: float,
             draws: _Draws) -> np.ndarray:
    """Synthesize and demodulate a chunk's bursts: (T, 2, K) spectra."""
    samples = synthesize_rows(
        cfg.ofdm, (draws.training, draws.training), draws.taps, cfg.cfo,
        cfg.sfo, noise_variance_from_snr(cfg.ofdm, snr_db), draws.noise)
    return demodulate_rows(samples, cfg.ofdm)


def _crb_fields(cfg: ExperimentConfig, snr_db: float,
                draws: _Draws) -> list:
    """Each trial's bounds at the true offsets, as record fields.

    The closed form runs once over the chunk; any other backend (the
    numeric oracle on a failed probe) is called one trial at a time.
    """
    fisher_fn = _select_crb_backend(cfg)[0]
    noise_var = noise_variance_from_snr(cfg.ofdm, snr_db)
    if fisher_fn is fisher_closed_form:
        f00, f01, f11 = fisher_rows(
            cfg.ofdm, (draws.training,) * cfg.ofdm.n_symbols, draws.taps,
            cfg.cfo, cfg.sfo, noise_var)
        f10 = f01
    else:
        entries = [fisher_fn(cfg.ofdm, TrainingSymbols(x, x),
                             ChannelRealization(taps), cfg.cfo, cfg.sfo,
                             noise_var)
                   for x, taps in zip(draws.training, draws.taps)]
        f00, f01, f10, f11 = (np.array([getattr(f, name) for f in entries])
                              for name in ("f00", "f01", "f10", "f11"))
    crb_cfo, crb_sfo, det = crb_rows(f00, f01, f10, f11)
    return [{"crb_evaluated": True, "crb_cfo": float(a), "crb_sfo": float(b)}
            if ok else {"crb_evaluated": True, "crb_failure": _SINGULAR}
            for a, b, ok in zip(crb_cfo, crb_sfo, invertible(det))]


def _estimate_fields(name: str, outcome) -> dict:
    """Record fields of one search outcome: the estimate or its failure."""
    if isinstance(outcome, EstimationResult):
        return {name: outcome}
    failure = _NON_FINITE
    if isinstance(outcome, DegenerateObservationError):
        failure = (f"degenerate observation "
                   f"(subcarriers {list(outcome.subcarriers)})")
    return {f"{name}_failure": failure}


def _burst_records(cfg: ExperimentConfig, snr_db: float, draws: _Draws, *,
                   with_estimates: bool = True, with_crb: bool = True):
    """The records of a chunk of bursts, and the chunk's spectra."""
    spectra = _observe(cfg, snr_db, draws)
    r0, r1 = spectra[:, 0], spectra[:, 1]
    n_sq = squared_norms(pair_residual_rows(r0, r1, cfg.cfo, cfg.sfo,
                                            cfg.ofdm))
    y, bad = ratio_observable_rows(draws.training, draws.training, r0, r1)
    e_sq = squared_norms(ratio_residual_rows(y, cfg.cfo, cfg.sfo, cfg.ofdm))
    fields = [{"trial_index": t, "snr_db": snr_db,
               "residual_n_sq": float(n),
               "residual_e_sq": None if degenerate else float(e),
               "estimated": with_estimates}
              for t, n, e, degenerate in zip(draws.indices, n_sq, e_sq,
                                             bad.any(axis=-1))]
    if with_estimates:
        evaluator = _evaluator(cfg.grid, cfg.ofdm)
        for f, proposed, nguyenle in zip(
                fields, evaluator.search_proposed_rows(r0, r1),
                evaluator.search_nguyenle_rows(y, bad)):
            f.update(_estimate_fields("proposed", proposed))
            f.update(_estimate_fields("nguyenle", nguyenle))
    if with_crb:
        for f, crb in zip(fields, _crb_fields(cfg, snr_db, draws)):
            f.update(crb)
    return [TrialRecord(**f) for f in fields], spectra


def run_trials(cfg: ExperimentConfig, snr_db: float, indices, *,
               with_estimates: bool = True, with_crb: bool = True) -> list:
    """Run fully seeded trials at one SNR point, one record per index.

    Residual norms are always evaluated at the true offsets. Grid
    searches and the per-realization CRB can be skipped for residual-only
    sweeps. A degenerate ratio observable marks the ratio residual and
    the nguyen_le estimate as failed, and a non-finite cost surface marks
    that search's estimate as failed, only on its own trial.

    ``indices`` is any sequence of trial indices in [0, 2**32); each
    record is the one that trial gets in any sweep or chunk.
    """
    records = []
    for draws in _chunks(cfg, snr_stream_key(snr_db), indices,
                         _BURST_STREAMS):
        records += _burst_records(cfg, snr_db, draws,
                                  with_estimates=with_estimates,
                                  with_crb=with_crb)[0]
    return records


def run_trial(cfg: ExperimentConfig, snr_db: float, trial_index: int,
              **options) -> TrialRecord:
    """Run one fully seeded trial: ``run_trials`` of that index alone,
    with the same options."""
    return run_trials(cfg, snr_db, (trial_index,), **options)[0]


@dataclass(frozen=True)
class TrialDiagnostics:
    """One trial's record plus the values only ``trial`` prints; the
    Nguyen-Le cost at truth is None where that estimate failed."""

    record: TrialRecord
    noise_var: float
    channel_taps: np.ndarray
    carrier_gain_abs_min: float
    carrier_gain_abs_max: float
    proposed_cost_at_truth: float
    nguyenle_cost_at_truth: float | None


def inspect_trial(cfg: ExperimentConfig, snr_db: float,
                  trial_index: int = 0) -> TrialDiagnostics:
    """Run one trial as :func:`run_trial` does and add its diagnostics.

    The burst is drawn once: the diagnostics read the observation and
    channel of the trial's one-trial chunk. The costs at truth are
    evaluated here and never in the sweeps, where they would add two
    cost evaluations to every trial.
    """
    draws = next(_chunks(cfg, snr_stream_key(snr_db), (trial_index,),
                         _BURST_STREAMS))
    (record,), spectra = _burst_records(cfg, snr_db, draws)
    x = draws.training[0]
    obs = PreambleObservation(r0=spectra[0, 0], r1=spectra[0, 1],
                              training=TrainingSymbols(x, x))
    gains = np.abs(carrier_gain(cfg.ofdm.subcarrier_indices, 0, cfg.cfo,
                                cfg.sfo, cfg.ofdm))
    nguyenle_truth = None
    if record.nguyenle is not None:
        nguyenle_truth = nguyenle_cost(nguyenle_observable(obs, cfg.ofdm),
                                       cfg.cfo, cfg.sfo, cfg.ofdm)
    return TrialDiagnostics(
        record=record, noise_var=noise_variance_from_snr(cfg.ofdm, snr_db),
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
    if not values:
        return None
    acc = 0.0
    for v in values:
        acc += v
    return acc / len(values)


def aggregate(records, cfo: float, sfo: float) -> SweepRow:
    """Reduce one SNR point's trial records to a sweep row.

    Records are sorted by trial index before any mean is taken, so the
    result does not depend on completion order. MSEs average over the
    trials where the estimator succeeded; a None MSE means it never did.
    """
    if not records:
        raise ValueError("no records to aggregate")
    records = sorted(records, key=lambda r: r.trial_index)
    snrs = {r.snr_db for r in records}
    if len(snrs) > 1:
        raise ValueError(f"records span multiple SNR points: {sorted(snrs)}")

    observed = [r for r in records if r.residual_n_sq is not None]
    e_values = [r.residual_e_sq for r in observed
                if r.residual_e_sq is not None]
    estimated = [r for r in records if r.estimated]

    def mse_over(selector, truth, param):
        errors = []
        for r in estimated:
            est = selector(r)
            if est is not None:
                errors.append((getattr(est, param) - truth) ** 2)
        return _mean(errors)

    crb_records = [r for r in records if r.crb_evaluated]
    crb_cfo_values = [r.crb_cfo for r in crb_records if r.crb_cfo is not None]
    crb_sfo_values = [r.crb_sfo for r in crb_records if r.crb_sfo is not None]

    return SweepRow(
        snr_db=records[0].snr_db,
        n_trials=len(records),
        mean_residual_n_sq=_mean([r.residual_n_sq for r in observed]),
        mean_residual_e_sq=_mean(e_values),
        mse_cfo_proposed=mse_over(lambda r: r.proposed, cfo, "cfo"),
        mse_cfo_nguyenle=mse_over(lambda r: r.nguyenle, cfo, "cfo"),
        mse_sfo_proposed=mse_over(lambda r: r.proposed, sfo, "sfo"),
        mse_sfo_nguyenle=mse_over(lambda r: r.nguyenle, sfo, "sfo"),
        crb_cfo=_mean(crb_cfo_values),
        crb_sfo=_mean(crb_sfo_values),
        fail_proposed=sum(1 for r in estimated if r.proposed is None),
        fail_nguyenle=sum(1 for r in estimated if r.nguyenle is None),
        crb_excluded=sum(1 for r in crb_records if r.crb_cfo is None),
        degenerate_observations=len(observed) - len(e_values),
    )


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


def _sweep_rows(cfg: ExperimentConfig, records) -> tuple:
    """One aggregated row per SNR point of ``records(snr_db, indices)``
    over all the experiment's trial indices."""
    indices = range(cfg.n_trials)
    return tuple(aggregate(records(snr_db, indices), cfg.cfo, cfg.sfo)
                 for snr_db in cfg.snr_points_db)


def _crb_sweep(cfg: ExperimentConfig, records) -> SweepResult:
    """The rows of ``records``, which carry CRBs, and the name and report
    of the backend that bounded them."""
    rows = _sweep_rows(cfg, records)
    _, backend, report = _select_crb_backend(cfg)
    return SweepResult(config=cfg, rows=rows, crb_backend=backend,
                       crb_discrepancy=report)


def run_mse_sweep(cfg: ExperimentConfig) -> SweepResult:
    """Full estimator comparison: per-SNR MSEs, failures, and mean CRBs."""
    return _crb_sweep(cfg, lambda snr_db, indices: run_trials(
        cfg, snr_db, indices))


def run_noise_variance_sweep(cfg: ExperimentConfig) -> SweepResult:
    """Residual-only sweep: mean squared norms of the two residuals."""
    rows = _sweep_rows(cfg, lambda snr_db, indices: run_trials(
        cfg, snr_db, indices, with_estimates=False, with_crb=False))
    return SweepResult(config=cfg, rows=rows)


def run_crb_sweep(cfg: ExperimentConfig) -> SweepResult:
    """Ensemble-averaged CRBs per SNR point, without synthesizing bursts.

    Each trial draws only :func:`run_trial`'s training pair and channel,
    so the rows' CRB columns equal :func:`run_mse_sweep`'s.
    """
    def records(snr_db, indices):
        return [TrialRecord(trial_index=t, snr_db=snr_db, **crb)
                for draws in _chunks(cfg, snr_stream_key(snr_db), indices,
                                     _SCENARIO_STREAMS)
                for t, crb in zip(draws.indices,
                                  _crb_fields(cfg, snr_db, draws))]

    return _crb_sweep(cfg, records)
