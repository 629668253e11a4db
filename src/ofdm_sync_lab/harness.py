"""Deterministic Monte-Carlo harness for the estimator comparisons.

Every trial decision lives here. Each ``sync-lab`` command is one call:
the fig1, fig2 and crb sweeps below, each reduced by :func:`aggregate`,
and :func:`inspect_trial` for ``trial``.

Trials run serially in the calling thread. Every trial draws from its
own labeled random substreams, keyed by the master seed, the SNR point,
the trial index and the label, so results are reproducible bit for bit
regardless of execution order. A sweep derives the streams of an SNR
point in one pass per label (:func:`ofdm_model.derive_states`, numpy's
``SeedSequence`` vectorized over the trials) and re-seeds one reused
``PCG64`` generator per label for each trial; the streams are those of
:func:`ofdm_model.derive_rng`, bit for bit, and only the current SNR
point's seed table is held. Aggregation always runs in ascending trial
order.
"""

from dataclasses import dataclass

import numpy as np

from .crb import (
    SingularInformationError,
    compare_fisher,
    crb_from_fisher,
    fisher_closed_form,
    fisher_numeric_oracle,
)
from .estimators import (
    DegenerateObservationError,
    EstimationResult,
    GridEvaluator,
    GridSpec,
    NonFiniteSurfaceError,
    make_grid,
    nguyenle_cost,
    nguyenle_observable,
    pair_residual,
    proposed_cost,
    ratio_residual,
)
from .ofdm_model import (
    MAX_TRIALS,
    ImpairmentParams,
    OfdmConfig,
    carrier_gain,
    demodulate_frame,
    derive_states,
    generate_training_symbols,
    make_config,
    new_generator,
    noise_variance_from_snr,
    sample_channel,
    seed_generator,
    snr_stream_key,
    synthesize_frame,
)

__all__ = [
    "ExperimentConfig",
    "TrialRecord",
    "TrialDiagnostics",
    "SweepRow",
    "SweepResult",
    "make_experiment",
    "run_trial",
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
        if self.n_taps < 1:
            raise ValueError(f"n_taps must be >= 1, got {self.n_taps}")
        if self.n_trials < 1:
            raise ValueError(f"n_trials must be >= 1, got {self.n_trials}")
        # A trial index enters the stream entropy as one 32-bit word.
        if self.n_trials >= MAX_TRIALS:
            raise ValueError(
                f"n_trials must be below 2**32, got {self.n_trials}")
        for name in ("cfo", "sfo"):
            if not np.isfinite(getattr(self, name)):
                raise ValueError(
                    f"{name} must be finite, got {getattr(self, name)}")
        if self.sfo <= -1.0:
            raise ValueError(f"sfo must exceed -1, got {self.sfo}")
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


def _trial_streams(cfg: ExperimentConfig, stream_key, trial_indices,
                   labels):
    """Yield each trial's generators, label -> generator, in index order.

    Each label's seeds come from one :func:`derive_states` pass over all
    the trials, and each label has one generator, re-seeded per trial:
    a trial's draws must be made before the next trial is taken.
    """
    tables = [derive_states(cfg.master_seed, stream_key, trial_indices,
                            label) for label in labels]
    rngs = [new_generator() for _ in labels]
    for seeds in zip(*tables):
        yield {label: seed_generator(rng, seed)
               for label, rng, seed in zip(labels, rngs, seeds)}


def _one_trial_streams(cfg: ExperimentConfig, snr_db: float,
                       trial_index: int) -> dict:
    """The burst streams of one trial, as a sweep would seed them."""
    return next(_trial_streams(cfg, snr_stream_key(snr_db), (trial_index,),
                               _BURST_STREAMS))


def _draw_scenario(cfg: ExperimentConfig, streams: dict):
    """Draw one trial's training pair and channel from its streams."""
    training = generate_training_symbols(streams["training"], cfg.ofdm)
    channel = sample_channel(streams["channel"], cfg.n_taps)
    return training, channel


def _draw_observation(cfg: ExperimentConfig, snr_db: float, streams: dict):
    """Draw one trial's training, channel, and demodulated burst."""
    training, channel = _draw_scenario(cfg, streams)
    impairments = ImpairmentParams(
        cfg.cfo, cfg.sfo, noise_variance_from_snr(cfg.ofdm, snr_db))
    frame = synthesize_frame(cfg.ofdm, training, channel, impairments,
                             (streams["noise0"], streams["noise1"]))
    obs = demodulate_frame(frame, cfg.ofdm, training)
    return obs, training, channel, impairments


def _trial_crb(cfg: ExperimentConfig, snr_db: float, training, channel,
               fisher_fn) -> dict:
    """The per-realization bounds at the true offsets, as record fields."""
    fisher = fisher_fn(cfg.ofdm, training, channel, cfg.cfo, cfg.sfo,
                       noise_variance_from_snr(cfg.ofdm, snr_db))
    try:
        pair = crb_from_fisher(fisher)
    except SingularInformationError:
        return {"crb_evaluated": True, "crb_failure": _SINGULAR}
    return {"crb_evaluated": True, "crb_cfo": pair.crb_cfo,
            "crb_sfo": pair.crb_sfo}


def run_trial(cfg: ExperimentConfig, snr_db: float, trial_index: int, *,
              with_estimates: bool = True, with_crb: bool = True,
              evaluator: GridEvaluator | None = None,
              fisher_fn=fisher_closed_form,
              streams: dict | None = None) -> TrialRecord:
    """Run one fully seeded trial.

    Residual norms are always evaluated at the true offsets. Grid
    searches and the per-realization CRB can be skipped for residual-only
    sweeps. A degenerate ratio observable marks the ratio residual and
    the nguyen_le estimate as failed, and a non-finite cost surface marks
    that search's estimate as failed, without aborting the trial.

    ``streams`` are the trial's seeded generators as a sweep passes
    them; None derives them for this trial alone, so a direct call at
    any index in [0, 2**32) returns the record a sweep would.
    """
    if streams is None:
        streams = _one_trial_streams(cfg, snr_db, trial_index)
    obs, training, channel, _ = _draw_observation(cfg, snr_db, streams)

    n_vec = pair_residual(obs, cfg.cfo, cfg.sfo, cfg.ofdm)
    residual_n_sq = float(np.sum(n_vec.real ** 2 + n_vec.imag ** 2))
    try:
        e_vec = ratio_residual(obs, cfg.cfo, cfg.sfo, cfg.ofdm)
        residual_e_sq = float(np.sum(e_vec.real ** 2 + e_vec.imag ** 2))
    except DegenerateObservationError:
        residual_e_sq = None

    proposed = nguyenle = proposed_failure = nguyenle_failure = None
    if with_estimates:
        ev = evaluator if evaluator is not None \
            else GridEvaluator(cfg.grid, cfg.ofdm)
        try:
            proposed = ev.search_proposed(obs)
        except NonFiniteSurfaceError:
            proposed_failure = _NON_FINITE
        try:
            nguyenle = ev.search_nguyenle(obs)
        except DegenerateObservationError as exc:
            nguyenle_failure = (f"degenerate observation "
                                f"(subcarriers {list(exc.subcarriers)})")
        except NonFiniteSurfaceError:
            nguyenle_failure = _NON_FINITE

    crb = _trial_crb(cfg, snr_db, training, channel, fisher_fn) \
        if with_crb else {}
    return TrialRecord(
        trial_index=trial_index, snr_db=snr_db,
        residual_n_sq=residual_n_sq, residual_e_sq=residual_e_sq,
        proposed=proposed, nguyenle=nguyenle, estimated=with_estimates,
        proposed_failure=proposed_failure, nguyenle_failure=nguyenle_failure,
        **crb)


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
    """Run one trial with :func:`run_trial` and add its diagnostics.

    The costs at truth are evaluated here and never in the sweeps,
    where they would add two cost evaluations to every trial.
    """
    record = run_trial(cfg, snr_db, trial_index)
    # The draw is seeded, so this is the burst run_trial just scored.
    obs, _, channel, impairments = _draw_observation(
        cfg, snr_db, _one_trial_streams(cfg, snr_db, trial_index))
    gains = np.abs(carrier_gain(cfg.ofdm.subcarrier_indices, 0, cfg.cfo,
                                cfg.sfo, cfg.ofdm))
    nguyenle_truth = None
    if record.nguyenle is not None:
        nguyenle_truth = nguyenle_cost(nguyenle_observable(obs, cfg.ofdm),
                                       cfg.cfo, cfg.sfo, cfg.ofdm)
    return TrialDiagnostics(
        record=record, noise_var=impairments.noise_var,
        channel_taps=channel.taps,
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


def _select_crb_backend(cfg: ExperimentConfig):
    """Probe closed-form/oracle agreement at this experiment's settings.

    Compares the two Fisher routes on a few seeded scenarios at the
    sweep's extreme SNR points. On agreement the closed form is used for
    the per-trial CRBs; otherwise the sweep falls back to the numeric
    oracle and carries a per-entry discrepancy report.
    """
    snrs = (min(cfg.snr_points_db), max(cfg.snr_points_db))
    worst = None
    probes = _trial_streams(cfg, "crb-backend-probe", range(2),
                            _SCENARIO_STREAMS)
    for probe_index, streams in enumerate(probes):
        training, channel = _draw_scenario(cfg, streams)
        noise_var = noise_variance_from_snr(
            cfg.ofdm, snrs[probe_index % len(snrs)])
        comparison = compare_fisher(cfg.ofdm, training, channel,
                                    cfg.cfo, cfg.sfo, noise_var)
        if worst is None or comparison.max_rel_error > worst.max_rel_error:
            worst = comparison
    if worst.max_rel_error < CRB_AGREEMENT_RTOL:
        return fisher_closed_form, "closed_form", None
    return fisher_numeric_oracle, "numeric_oracle", worst.report()


def _sweep_rows(cfg: ExperimentConfig, labels, trial) -> tuple:
    """One aggregated row per SNR point of ``trial(snr_db, index,
    streams)``, where ``streams`` holds the trial's ``labels`` streams."""
    indices = range(cfg.n_trials)
    return tuple(
        aggregate([trial(snr_db, t, streams) for t, streams in zip(
            indices, _trial_streams(cfg, snr_stream_key(snr_db), indices,
                                    labels))],
                  cfg.cfo, cfg.sfo)
        for snr_db in cfg.snr_points_db)


def run_mse_sweep(cfg: ExperimentConfig) -> SweepResult:
    """Full estimator comparison: per-SNR MSEs, failures, and mean CRBs."""
    evaluator = GridEvaluator(cfg.grid, cfg.ofdm)
    fisher_fn, backend, report = _select_crb_backend(cfg)
    rows = _sweep_rows(cfg, _BURST_STREAMS, lambda snr_db, t, streams:
                       run_trial(cfg, snr_db, t, evaluator=evaluator,
                                 fisher_fn=fisher_fn, streams=streams))
    return SweepResult(config=cfg, rows=rows, crb_backend=backend,
                       crb_discrepancy=report)


def run_noise_variance_sweep(cfg: ExperimentConfig) -> SweepResult:
    """Residual-only sweep: mean squared norms of the two residuals."""
    rows = _sweep_rows(cfg, _BURST_STREAMS, lambda snr_db, t, streams:
                       run_trial(cfg, snr_db, t, with_estimates=False,
                                 with_crb=False, streams=streams))
    return SweepResult(config=cfg, rows=rows)


def run_crb_sweep(cfg: ExperimentConfig) -> SweepResult:
    """Ensemble-averaged CRBs per SNR point, without synthesizing bursts.

    Each trial draws only :func:`run_trial`'s training pair and channel,
    so the rows' CRB columns equal :func:`run_mse_sweep`'s.
    """
    fisher_fn, backend, report = _select_crb_backend(cfg)

    def trial(snr_db, t, streams):
        training, channel = _draw_scenario(cfg, streams)
        return TrialRecord(trial_index=t, snr_db=snr_db,
                           **_trial_crb(cfg, snr_db, training, channel,
                                        fisher_fn))

    return SweepResult(config=cfg,
                       rows=_sweep_rows(cfg, _SCENARIO_STREAMS, trial),
                       crb_backend=backend, crb_discrepancy=report)
