"""Acceptance gate.

Each test enforces one release criterion at its stated tolerance and
prints a single pass/fail line (visible even without ``-s``)."""

import numpy as np
import pytest

import ofdm_sync_lab.cli as cli
from ofdm_sync_lab import (
    QPSK_ALPHABET,
    ChannelRealization,
    GridEvaluator,
    PreambleObservation,
    TrainingSymbols,
    carrier_gain,
    channel_taps,
    compare_fisher,
    coupling_coefficient,
    demodulate_rows,
    derive_rng,
    harness,
    ici_term,
    make_config,
    make_experiment,
    make_grid,
    noise_variance_from_snr,
    ofdm_model,
    pair_residual,
    run_mse_sweep,
    run_noise_variance_sweep,
    synthesize_rows,
)


def announce(capsys, label, passed, detail):
    verdict = "PASS" if passed else "FAIL"
    with capsys.disabled():
        print(f"[{verdict}] {label}: {detail}")
    assert passed, f"{label}: {detail}"


def scenario(cfg, seed):
    """A repeated QPSK training pair and five Rayleigh taps, drawn from
    the seed's training and channel streams."""
    x = QPSK_ALPHABET[derive_rng(seed, "training").integers(0, 4,
                                                            cfg.n_active)]
    taps = channel_taps(derive_rng(seed, "channel").standard_normal((2, 5)))
    return TrainingSymbols(x, x), ChannelRealization(taps)


def noiseless_observation(cfg, training, channel, cfo, sfo):
    """Both demodulated symbols of one noiseless burst."""
    r0, r1 = demodulate_rows(synthesize_rows(
        cfg, (training.x0[None], training.x1[None]), channel.taps[None], cfo,
        sfo), cfg)[0]
    return PreambleObservation(r0, r1, training)


@pytest.fixture(scope="module")
def fig1_sweep():
    return run_noise_variance_sweep(make_experiment(n_trials=2000))


@pytest.fixture(scope="module")
def fig2_sweep():
    return run_mse_sweep(make_experiment(
        n_trials=500, snr_points_db=(5.0, 10.0, 15.0, 20.0, 25.0, 30.0)))


def test_criterion_1_residual_gap_at_15_db(fig1_sweep, capsys):
    row = next(r for r in fig1_sweep.rows if r.snr_db == 15.0)
    gap = row.var_e_db - row.var_n_db
    announce(capsys, "criterion 1", 11.5 <= gap <= 15.5,
             f"ratio-residual power exceeds pair-residual power by "
             f"{gap:.2f} dB at 15 dB over 2000 trials "
             f"(required 13.5 +/- 2.0)")


def test_criterion_2_residual_ordering(fig1_sweep, capsys):
    rows = fig1_sweep.rows
    snrs = [row.snr_db for row in rows]
    ordered = all(row.mean_residual_n_sq < row.mean_residual_e_sq
                  for row in rows)
    min_gap = min(row.var_e_db - row.var_n_db for row in rows)
    announce(capsys, "criterion 2",
             ordered and snrs == [0.0, 5.0, 10.0, 15.0, 20.0, 25.0, 30.0],
             f"pair residual below ratio residual at all 7 SNR points, "
             f"2000 trials each (min gap {min_gap:.2f} dB)")


def test_criterion_3_mse_dominance(fig2_sweep, capsys):
    rows = fig2_sweep.rows
    dominated = all(row.mse_cfo_proposed < row.mse_cfo_nguyenle
                    and row.mse_sfo_proposed < row.mse_sfo_nguyenle
                    for row in rows)
    worst = max(max(row.mse_cfo_proposed / row.mse_cfo_nguyenle,
                    row.mse_sfo_proposed / row.mse_sfo_nguyenle)
                for row in rows)
    announce(capsys, "criterion 3", dominated and len(rows) == 6,
             f"proposed MSE below nguyen_le MSE for both offsets at all 6 "
             f"SNR points, 500 trials each (worst MSE ratio {worst:.2f})")


def test_criterion_4_crb_sandwich(fig2_sweep, capsys):
    rows = fig2_sweep.rows
    ratios = []
    for row in rows:
        ratios += [row.mse_cfo_proposed / row.crb_cfo,
                   row.mse_cfo_nguyenle / row.crb_cfo,
                   row.mse_sfo_proposed / row.crb_sfo,
                   row.mse_sfo_nguyenle / row.crb_sfo]
    floor_row = next(r for r in rows if r.snr_db == 30.0)
    passed = min(ratios) >= 1.0 and floor_row.mse_cfo_proposed >= 4e-6
    announce(capsys, "criterion 4", passed,
             f"every MSE at or above its mean CRB (min MSE/CRB ratio "
             f"{min(ratios):.2f}); proposed CFO MSE at 30 dB "
             f"{floor_row.mse_cfo_proposed:.3e} respects the 4e-06 "
             f"lattice floor")


def test_criterion_5_fisher_oracle_agreement(capsys):
    cfg = make_config(64, 52, 16)
    snrs = (0.0, 10.0, 20.0, 30.0)
    worst = None
    for i in range(50):
        training, channel = scenario(cfg, 4000 + i)
        draws = np.random.default_rng(8600 + i)
        cfo = float(draws.uniform(-0.4, 0.4))
        sfo = float(draws.uniform(-4e-4, 4e-4))
        noise_var = noise_variance_from_snr(cfg, snrs[i % 4])
        comparison = compare_fisher(cfg, training, channel, cfo, sfo,
                                    noise_var)
        if worst is None or comparison.max_rel_error > worst.max_rel_error:
            worst = comparison
    passed = worst.max_rel_error < 1e-3
    detail = (f"closed-form Fisher matches the numeric oracle to "
              f"{worst.max_rel_error:.3e} max entrywise relative error "
              f"over 50 scenarios (required < 1e-03)")
    if not passed:
        with capsys.disabled():
            print(worst.report())
        _, backend, report = harness._select_crb_backend(make_experiment())
        passed = backend == "numeric_oracle" and bool(report)
        detail += (f"; sweep CRB path fell back to {backend} with the "
                   f"discrepancy report above")
    announce(capsys, "criterion 5", passed, detail)


def test_criterion_6_analytic_identities(capsys):
    cfg = make_config(64, 52, 16)

    ks = np.arange(-26, 26, dtype=float)
    delta = coupling_coefficient(ks[:, None], ks[None, :], 0.0, 0.0, 64)
    orth_dev = float(np.max(np.abs(delta - np.eye(52))))

    decomp_rel = 0.0
    for i in range(100):
        training, channel = scenario(cfg, 5200 + i)
        draws = np.random.default_rng(7300 + i)
        cfo = float(draws.uniform(-0.5, 0.5))
        sfo = float(draws.uniform(-5e-4, 5e-4))
        obs = noiseless_observation(cfg, training, channel, cfo, sfo)
        idx = cfg.subcarrier_indices
        h = ofdm_model._channel_gains(cfg, channel.taps)
        m = i % 2
        r = obs.r0 if m == 0 else obs.r1
        recon = (carrier_gain(idx, m, cfo, sfo, cfg) * training.symbol(m)
                 * h + np.array([ici_term(k, m, training, channel, cfo,
                                          sfo, cfg) for k in idx]))
        decomp_rel = max(decomp_rel, float(
            np.linalg.norm(r - recon) / np.linalg.norm(recon)))

    # noiseless sfo=0 identities over the uniquely identifiable lattice
    # offsets (|cfo| < 0.3; beyond that the cost is periodic in cfo and
    # an equal-cost alias sits inside the grid)
    grid = make_grid()
    evaluator = GridEvaluator(grid, cfg)
    lattice = [i for i in range(len(grid.cfo_values))
               if abs(float(grid.cfo_values[i])) < 0.3]
    residual_dev = 0.0
    recovered = 0
    for j, index in enumerate(lattice):
        eps = float(grid.cfo_values[index])
        training, channel = scenario(cfg, 6100 + j)
        obs = noiseless_observation(cfg, training, channel, eps, 0.0)
        residual_dev = max(residual_dev, float(
            np.max(np.abs(pair_residual(obs, eps, 0.0, cfg)))))
        prop = evaluator.search_proposed(obs)
        ratio = evaluator.search_nguyenle(obs)
        if ((prop.cfo, prop.sfo) == (eps, 0.0)
                and (ratio.cfo, ratio.sfo) == (eps, 0.0)):
            recovered += 1

    passed = (orth_dev <= 1e-14 and decomp_rel <= 1e-10
              and residual_dev <= 1e-12 and recovered == len(lattice))
    announce(capsys, "criterion 6", passed,
             f"coupling orthogonality dev {orth_dev:.1e} (<= 1e-14); "
             f"spectrum decomposition rel {decomp_rel:.1e} over 100 "
             f"scenarios (<= 1e-10); noiseless sfo=0 residual max "
             f"{residual_dev:.1e} (<= 1e-12); exact noiseless recovery by "
             f"both estimators at {recovered}/{len(lattice)} identifiable "
             f"lattice offsets")


def test_criterion_7_deterministic_datasets(tmp_path, capsys):
    def run(name):
        out = tmp_path / name
        assert cli.main(["fig2", "--trials", "25", "--out", str(out)]) == 0
        return out.read_bytes()

    first = run("a.csv")
    second = run("b.csv")
    passed = first == second
    announce(capsys, "criterion 7", passed,
             f"fig2 dataset (25 trials x 6 SNR points) byte-identical "
             f"across reruns ({len(first)} bytes)")
