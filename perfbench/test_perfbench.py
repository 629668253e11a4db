"""Tests of the benchmark's own logic (percentiles, spans, output checks).

Run with ``PYTHONPATH=src python -m pytest perfbench``.
"""

import json
import statistics
import threading
import types
from concurrent.futures import ThreadPoolExecutor
from pathlib import Path

import numpy as np
import pytest

import checks
import run
import stats
import tracing


# ---------------------------------------------------------------- stats

@pytest.mark.parametrize("q", [0, 1, 25, 50, 90, 99, 100])
def test_percentile_matches_numpy_linear(q):
    values = [5.0, 1.0, 9.5, 3.25, 7.0, 2.0, 8.0]
    assert stats.percentile(values, q) == pytest.approx(
        float(np.percentile(values, q)), rel=1e-12)


def test_percentile_edges():
    assert stats.percentile([], 50) == 0.0
    assert stats.percentile([4.0], 99) == 4.0
    assert stats.percentile([1.0, 3.0], 50) == 2.0
    with pytest.raises(ValueError):
        stats.percentile([1.0], 101)


def test_spread_is_quartile_distance_over_median():
    values = [10.0, 11.0, 9.0, 10.5, 9.5, 12.0, 8.0, 10.0, 10.2, 9.8]
    q1, _, q3 = statistics.quantiles(values, n=4)
    assert stats.spread(values) == pytest.approx(
        (q3 - q1) / statistics.median(values))
    assert stats.spread([3.0]) == 0.0


def test_scaled_divides_out_the_machine_speed():
    times, refs = [2.0, 2.0, 3.2], [0.2, 0.2, 0.32]
    assert stats.scaled(times, refs, 0.2) == pytest.approx(2.4 * 0.2 / 0.24)
    # A run that spends more of its time in the slow state reads the same.
    slower = [2.0, 3.2, 3.2], [0.2, 0.32, 0.32]
    assert stats.scaled(*slower, 0.2) == pytest.approx(
        stats.scaled(times, refs, 0.2))
    assert stats.scaled([], refs, 0.2) == 0.0


def test_change_share_counts_either_direction():
    assert stats.change_share(10.0, 11.0) == pytest.approx(0.1)
    assert stats.change_share(10.0, 6.0) == pytest.approx(0.4)
    assert stats.change_share(0.0, 0.0) == 0.0


# ---------------------------------------------------------------- spans

def span(id_, start, end, parent=None, name="x"):
    return tracing.Span(id_, name, start, end, parent, None, 0, True)


def test_self_time_subtracts_union_of_children():
    spans = [
        span(0, 0.0, 10.0),
        span(1, 1.0, 3.0, parent=0),
        span(2, 2.0, 5.0, parent=0),    # overlaps child 1
        span(3, 8.0, 12.0, parent=0),   # runs past the parent's end
        span(4, 1.5, 2.5, parent=1),    # grandchild
    ]
    selfs = tracing.self_times(spans)
    assert selfs[0] == pytest.approx(10.0 - 4.0 - 2.0)
    assert selfs[1] == pytest.approx(2.0 - 1.0)
    assert selfs[4] == pytest.approx(1.0)
    assert selfs[3] == pytest.approx(4.0)


def test_within_finds_descendants_only():
    spans = [span(0, 0, 9, name="harness.run_trial"),
             span(1, 1, 2, parent=0), span(2, 1.1, 1.5, parent=1),
             span(3, 3, 4, name="other")]
    assert tracing.within(spans, tracing.TRIAL_SPANS) == {1, 2}


def _fake_layers():
    """Two modules shaped like the lab's: one binds the other's function."""
    model = types.ModuleType("fake.ofdm_model")
    harness = types.ModuleType("fake.harness")

    def derive_rng(seed, *keys):
        return seed

    derive_rng.__module__ = model.__name__
    model.derive_rng = derive_rng
    model.__all__ = ["derive_rng"]

    def run_trial(cfg, snr_db, index):
        return harness.derive_rng(cfg, snr_db, index)

    def _map_trials(fn, n_trials):
        with ThreadPoolExecutor(max_workers=2) as pool:
            return list(pool.map(fn, range(n_trials)))

    for fn in (run_trial, _map_trials):
        fn.__module__ = harness.__name__
        setattr(harness, fn.__name__, fn)
    harness.derive_rng = derive_rng          # imported by name
    harness.__all__ = ["run_trial"]
    return model, harness


def test_install_wraps_every_binding_and_parents_pool_threads():
    model, harness = _fake_layers()
    tracer = tracing.Tracer()
    tracing.install(tracer, {"ofdm_model": model, "harness": harness})
    assert harness.derive_rng is model.derive_rng

    results = harness._map_trials(
        lambda t: harness.run_trial(7, 15.0, t), 4)
    assert results == [7, 7, 7, 7]

    by_name = {}
    for s in tracer.spans:
        by_name.setdefault(s.name, []).append(s)
    (pool_span,) = by_name["harness._map_trials"]
    trials = by_name["harness.run_trial"]
    assert sorted(s.trial for s in trials) == [(15.0, t) for t in range(4)]
    assert all(s.parent == pool_span.id for s in trials)
    assert len({s.thread for s in trials} - {threading.get_ident()}) >= 1
    trial_of = {s.id: s.trial for s in trials}
    rngs = by_name["ofdm_model.derive_rng"]
    assert len(rngs) == 4
    assert all(trial_of[s.parent] == s.trial for s in rngs)


def test_failed_call_is_recorded_and_reraised():
    tracer = tracing.Tracer()

    def boom():
        raise KeyError("x")

    wrapped = tracer.wrap("m.boom", boom)
    with pytest.raises(KeyError):
        wrapped()
    summary = tracing.summarize(tracer.spans)
    assert summary["names"]["m.boom"]["failed"] == 1


# ---------------------------------------------------------------- checks

@pytest.fixture(scope="module")
def crb_csv(tmp_path_factory):
    from ofdm_sync_lab import cli
    out = tmp_path_factory.mktemp("crb") / "crb.csv"
    assert cli.main(["crb", "--trials", "20", "--snr-max", "15",
                     "--seed", "7", "--out", str(out)]) == 0
    return out.read_bytes()


SNRS = (0.0, 5.0, 10.0, 15.0)


def test_checker_accepts_real_output(crb_csv):
    found = checks.check_dataset(crb_csv, "crb", 7, SNRS)
    assert found == checks.digest(crb_csv)
    assert checks.check_dataset(crb_csv, "crb", 7, SNRS, found) == found


def _tamper(data, old, new):
    text = data.decode()
    assert old in text
    return text.replace(old, new, 1).encode()


def _last_row(data):
    return data.decode().rstrip("\n").splitlines()[-1]


def test_checker_rejects_tampered_csv(crb_csv):
    pinned = checks.digest(crb_csv)
    row = _last_row(crb_csv)
    snr, cfo, sfo, excluded = row.split(",")
    tampered = {
        "digest": _tamper(crb_csv, row, f"{snr},{cfo},{sfo}0,{excluded}"),
        "increasing": _tamper(crb_csv, row, f"{snr},1,{sfo},{excluded}"),
        "row count": _tamper(crb_csv, row + "\n", ""),
        "seed": _tamper(crb_csv, "# seed = 7", "# seed = 8"),
        "columns": _tamper(crb_csv, "crb_sfo,", "crb_sf0,"),
    }
    for what, data in tampered.items():
        with pytest.raises(checks.CheckError):
            checks.check_dataset(data, "crb", 7, SNRS, pinned)
    # Without a pinned digest the invariants alone still catch these.
    for what in ("increasing", "row count", "seed", "columns"):
        with pytest.raises(checks.CheckError):
            checks.check_dataset(tampered[what], "crb", 7, SNRS)


def _dataset(command, columns, rows):
    lines = [f"# command = {command}", "# seed = 1", ",".join(columns)]
    lines += [",".join(str(v) for v in row) for row in rows]
    return ("\n".join(lines) + "\n").encode()


def test_fig2_and_fig1_invariants():
    cols2 = checks.COLUMNS["fig2"]
    good = (5, 2e-5, 3e-5, 1e-5, 2e-7, 3e-7, 1e-7, 0, 0)
    bad = (5, 2e-5, 0.9e-5, 1e-5, 2e-7, 3e-7, 1e-7, 0, 0)
    checks.check_dataset(_dataset("fig2", cols2, [good]), "fig2", 1, (5,))
    with pytest.raises(checks.CheckError, match="mse_cfo_nguyenle"):
        checks.check_dataset(_dataset("fig2", cols2, [bad]), "fig2", 1, (5,))
    cols1 = checks.COLUMNS["fig1"]
    checks.check_dataset(_dataset("fig1", cols1, [(0, 19.3, 25.6)]),
                         "fig1", 1, (0,))
    with pytest.raises(checks.CheckError, match="var_e_db"):
        checks.check_dataset(_dataset("fig1", cols1, [(0, 19.3, 19.3)]),
                             "fig1", 1, (0,))


# ------------------------------------------------------- BENCHMARK.json

def test_benchmark_json_names_what_run_prints():
    spec = json.loads(
        (Path(run.__file__).parent.parent / "BENCHMARK.json").read_text())
    assert [w["name"] for w in spec["workloads"]] == list(run.WORKLOADS)
    assert [(m["name"], m["unit"]) for m in spec["end_to_end"]] \
        == list(run.END_TO_END)
    report = {"trace": {"names": {}, "cfr_calls_in_trials": 0},
              "counters": dict.fromkeys(
                  ("degenerate_observations", "crb_excluded",
                   "fail_nguyenle", "lattice_points", "surfaces"), 0),
              "main_s": 1.0, "main_cpu_s": 1.0, "csv_bytes": 1}
    layers = run.layer_metrics([report], [report],
                               run.WORKLOADS["crb-default"])
    assert [(m["name"], m["unit"]) for m in spec["per_layer"]] \
        == [(name, unit) for name, (_, unit) in layers.items()]
