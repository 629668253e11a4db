"""Benchmark of the lab's three dataset sweeps, end to end and per layer.

Run from the repository root:

    python3 perfbench/run.py --workload fig2-default --seed 1 --seconds 30 --trace 0
    python3 perfbench/run.py --steadiness
    python3 perfbench/run.py --full-digests

A run of a workload invokes ``sync-lab <command>`` (``child.py`` calls
``ofdm_sync_lab.cli.main`` as the console script does) in fresh child
processes, one at a time, with BLAS pinned to one thread and
``SYNC_LAB_THREADS`` left unset, until ``--seconds`` have passed. The first
child runs at the pinned master seed and its CSV must match a pinned
SHA-256; the others run at the workload seed and must all write the same
bytes. Every CSV also passes the checks in :mod:`checks`. A failed check,
a non-zero exit or a timeout counts as a failed run and the benchmark
carries on.

``--trace 0`` reports the end-to-end metrics over the children at the
workload seed that passed every check (the pinned child and failed
children are left out). The run also times the fixed computation of
:mod:`speed` after each child and each set-up child, and reports each
time as its mean over the run scaled to a machine that runs that
computation in ``speed.REFERENCE_S`` (see :func:`stats.scaled`):
``setup_s``, the wall time of import plus ``cli.parse`` in a fresh
interpreter, once after each child; ``cpu_cal_s``, the CPU time of the
invocation; and ``trials_per_cpu_s``, trials per CPU second inside
``cli.main``. ``peak_rss_mb`` is the median peak memory. The raw means,
wall time and trials per wall second among them, are printed beside
them; they are not gated, because the host's steal time makes the wall
time of the two-thread fig1 and fig2 children unsteady.
``--trace 1`` alternates untraced
and traced children and reports the per-layer metrics from the traced
ones (see :mod:`tracing`); the untraced ones give the tracing overhead
and the CPU-per-wall ratio. The last line of stdout is one JSON object
with ``correct``, ``attempted``, ``failed`` and ``metrics``.

``--steadiness`` runs two sets of runs of every workload through this
script and reports, per metric, each set's median and quartile spread, and
whether the two medians lie within the metric's bound in BENCHMARK.json of
each other, in either direction. ``--full-digests`` checks
the three commands at their full default sizes against pinned digests.
"""

import argparse
import json
import os
import platform
import shutil
import subprocess
import sys
import tempfile
import threading
import time
from pathlib import Path
from typing import NamedTuple

import checks
import speed
import stats
import tracing

BENCH_DIR = Path(__file__).resolve().parent
ROOT = BENCH_DIR.parent
OUT_DIR = BENCH_DIR / ".out"
PACKAGE_CLI = ROOT / "src" / "ofdm_sync_lab" / "cli.py"

# The CLI's default master seed; the pinned digests are taken at it.
PINNED_SEED = 12345

RUNS_PER_SET = 5          # runs per workload in each --steadiness set
MIN_CHILDREN = 3          # pinned child plus two at the workload seed
MIN_TRACE_PAIRS = 2
CHILD_TIMEOUT_S = 60.0
# No child starts, and none runs on, past this many seconds into a run.
HARD_LIMIT_S = 150.0

BLAS_PIN = {"OPENBLAS_NUM_THREADS": "1", "OMP_NUM_THREADS": "1",
            "MKL_NUM_THREADS": "1"}


class Workload(NamedTuple):
    command: str
    trials: int
    snr_points: tuple
    pinned_digest: str


# Default geometry (N=64, K=52, cp=16), 101x101 lattice and each
# command's default SNR axis; trial counts are cut so that one child
# takes about 2-3 s here and a run holds about ten of them. crb runs at
# its full default size. BENCHMARK.json says why each workload is there.
WORKLOADS = {
    "fig2-default": Workload(
        "fig2", 60, (5.0, 10.0, 15.0, 20.0, 25.0, 30.0),
        "9cfc91fe87a7b16297690e7ad1799a94788b92a4dd241c5836717e5ffd7e4bd3"),
    "fig1-default": Workload(
        "fig1", 400, (0.0, 5.0, 10.0, 15.0, 20.0, 25.0, 30.0),
        "34039246d29de198838eeb329deee2c8c009ed290e6c4a66a8056f108dc49b50"),
    "crb-default": Workload(
        "crb", 500, (0.0, 5.0, 10.0, 15.0, 20.0, 25.0, 30.0),
        "f7eb5cb6de63c3c4d736ecda9ae2ce1ad4d9b2f4ad1a1adf9e2e45144817d20f"),
}

# SHA-256 of each command's CSV at its full default size and the pinned
# seed, checked by --full-digests.
FULL_DIGESTS = {
    "fig1": "4aa9a52bcba18969818129824a6bebf276090fc0342044fe6ba55f6ebd9a47c3",
    "fig2": "1a23fad73528010c3bdff36b4e9f44b9195578206d5e68ee7d10384226ab969d",
    "crb": "f7eb5cb6de63c3c4d736ecda9ae2ce1ad4d9b2f4ad1a1adf9e2e45144817d20f",
}

END_TO_END = (
    ("setup_s", "s"), ("trials_per_cpu_s", "1/s"), ("cpu_cal_s", "s"),
    ("peak_rss_mb", "MB"),
)

RESIDUAL_SPANS = ("estimators.pair_residual", "estimators.ratio_residual",
                  "estimators.nguyenle_observable",
                  "estimators.symbol_phase_ramp")
SEARCH_SPANS = ("estimators.GridEvaluator.search_proposed",
                "estimators.GridEvaluator.search_nguyenle")


# --------------------------------------------------------------- children

def child_env():
    env = dict(os.environ)
    env.pop("SYNC_LAB_THREADS", None)
    env.update(BLAS_PIN)
    src = str(ROOT / "src")
    env["PYTHONPATH"] = src + (os.pathsep + env["PYTHONPATH"]
                               if env.get("PYTHONPATH") else "")
    return env


class Spawned(NamedTuple):
    exit: int
    timed_out: bool
    wall_s: float
    cpu_s: float
    peak_rss_mb: float
    stderr: str


def spawn(cmd, timeout, stderr_path):
    """Run ``cmd`` to exit; wall time from spawn to reap, and its rusage."""
    timed_out = threading.Event()
    with open(stderr_path, "wb") as err:
        start = time.perf_counter()
        proc = subprocess.Popen(cmd, cwd=ROOT, env=child_env(),
                                stdin=subprocess.DEVNULL,
                                stdout=subprocess.DEVNULL, stderr=err)

        def kill():
            timed_out.set()
            proc.kill()

        timer = threading.Timer(max(timeout, 0.1), kill)
        timer.start()
        try:
            _, status, usage = os.wait4(proc.pid, 0)
        finally:
            timer.cancel()
        wall = time.perf_counter() - start
    proc.returncode = os.waitstatus_to_exitcode(status)
    tail = Path(stderr_path).read_text(errors="replace")[-600:]
    return Spawned(proc.returncode, timed_out.is_set(), wall,
                   usage.ru_utime + usage.ru_stime, usage.ru_maxrss / 1024.0,
                   tail)


class Child(NamedTuple):
    spawned: Spawned
    report: dict | None
    digest: str | None
    failure: str | None


def invoke(workload, master_seed, mode, tmp, index, timeout,
           expect_digest=None):
    """One ``sync-lab`` child; its CSV is checked and then removed."""
    out = tmp / f"{index}.csv"
    report_path = tmp / f"{index}.json"
    cmd = [sys.executable, str(BENCH_DIR / "child.py"), str(report_path),
           mode, workload.command, "--trials", str(workload.trials),
           "--seed", str(master_seed), "--out", str(out)]
    spawned = spawn(cmd, timeout, tmp / f"{index}.err")
    report = digest = failure = None
    if spawned.timed_out:
        failure = f"timed out after {spawned.wall_s:.1f} s"
    elif spawned.exit != 0:
        failure = f"exit {spawned.exit}: {spawned.stderr.strip()}"
    else:
        try:
            report = json.loads(report_path.read_text())
            data = out.read_bytes()
            report["csv_bytes"] = len(data)
            digest = checks.check_dataset(
                data, workload.command, master_seed, workload.snr_points,
                expect_digest)
        except (OSError, ValueError, checks.CheckError) as exc:
            failure = f"{type(exc).__name__}: {exc}"
    for path in (out, report_path):
        path.unlink(missing_ok=True)
    return Child(spawned, report, digest, failure)


def setup_time(command, tmp, index, timeout):
    """Fresh interpreter: import the package and run ``cli.parse`` only."""
    code = ("import sys; from ofdm_sync_lab import cli; "
            "cli.parse(sys.argv[1:])")
    spawned = spawn([sys.executable, "-c", code, command], timeout,
                    tmp / f"setup{index}.err")
    if spawned.exit != 0:
        raise RuntimeError(f"set-up child failed: {spawned.stderr.strip()}")
    return spawned.wall_s


# ------------------------------------------------------------------- runs

class Clock:
    """A run's time budget: the measuring window and the hard limit."""

    def __init__(self):
        self.begin = time.perf_counter()
        self.deadline = self.begin

    def start_measuring(self, seconds):
        self.deadline = time.perf_counter() + seconds

    def left(self):
        return self.begin + HARD_LIMIT_S - time.perf_counter()

    def timeout(self):
        return min(CHILD_TIMEOUT_S, self.left())

    def more(self, done, minimum):
        """Start another child? Until the window ends and ``minimum`` ran."""
        if self.left() <= 0:
            return False
        return done < minimum or time.perf_counter() < self.deadline


def mark_repeats(children, first_digest):
    """Fail a child at the workload seed whose bytes differ from the first."""
    marked = []
    for child in children:
        if child.failure is None and first_digest is not None \
                and child.digest != first_digest:
            child = child._replace(
                failure=f"sha256 {child.digest} differs from {first_digest} "
                        "written earlier at the same seed")
        marked.append(child)
    return marked


def first_digest(children):
    return next((c.digest for c in children if c.digest is not None), None)


def run_plain(workload, seed, seconds, tmp, clock):
    speed.reference()                     # warm-up, not counted
    clock.start_measuring(seconds)
    references = [speed.reference()]
    pinned = invoke(workload, PINNED_SEED, "plain", tmp, 0, clock.timeout(),
                    workload.pinned_digest)
    children, setup = [], []
    while clock.more(1 + len(children), MIN_CHILDREN):
        children.append(invoke(workload, seed, "plain", tmp,
                               1 + len(children), clock.timeout()))
        references.append(speed.reference())
        setup.append(setup_time(workload.command, tmp, len(setup),
                                clock.timeout()))
        references.append(speed.reference())
    children = mark_repeats(children, first_digest(children))
    # The pinned child is a check only; failed children count in `failed`
    # but their times would skew the means.
    good = [c for c in children if c.failure is None]
    samples = {
        "wall_s": [c.spawned.wall_s for c in good],
        "setup_s": setup,
        "main_s": [c.report["main_s"] for c in good],
        "main_cpu_s": [c.report["main_cpu_s"] for c in good],
        "cpu_s": [c.spawned.cpu_s for c in good],
        "peak_rss_mb": [c.spawned.peak_rss_mb for c in good],
        "reference_s": [r.wall_s for r in references],
        "reference_cpu_s": [r.cpu_s for r in references],
    }
    trials = workload.trials * len(workload.snr_points)

    def per_second(main_s):
        return trials / main_s if main_s else 0.0

    def scaled(key, reference_key):
        return stats.scaled(samples[key], samples[reference_key],
                            speed.REFERENCE_S)

    metrics = {
        "setup_s": (scaled("setup_s", "reference_s"), "s"),
        "trials_per_cpu_s": (
            per_second(scaled("main_cpu_s", "reference_cpu_s")), "1/s"),
        "cpu_cal_s": (scaled("cpu_s", "reference_cpu_s"), "s"),
        "peak_rss_mb": (stats.median(samples["peak_rss_mb"]), "MB"),
    }
    raw = {
        "wall_s": (stats.mean(samples["wall_s"]), "s"),
        "setup_s": (stats.mean(setup), "s"),
        "trials_per_s": (per_second(stats.mean(samples["main_s"])), "1/s"),
        "cpu_s": (stats.mean(samples["cpu_s"]), "s"),
        "reference_s": (stats.mean(samples["reference_s"]), "s"),
        "reference_cpu_s": (stats.mean(samples["reference_cpu_s"]), "s"),
    }
    return [pinned] + children, metrics, samples, raw


def run_traced(workload, seed, seconds, tmp, clock):
    clock.start_measuring(seconds)
    plain, traced = [], []
    while clock.more(len(plain) + len(traced), 2 * MIN_TRACE_PAIRS):
        index = len(plain) + len(traced)
        plain.append(invoke(workload, seed, "plain", tmp, index,
                            clock.timeout()))
        traced.append(invoke(workload, seed, "trace", tmp, index + 1,
                             clock.timeout()))
    children = mark_repeats(plain + traced, first_digest(plain + traced))
    plain, traced = children[:len(plain)], children[len(plain):]
    metrics = layer_metrics(
        [c.report for c in traced if c.failure is None],
        [c.report for c in plain if c.failure is None], workload)
    return children, metrics, {}, {}


def layer_metrics(traced, plain, workload):
    """Per-layer metrics: counts and sums per traced child, then medians.

    Percentiles pool the per-call durations of all traced children.
    """
    if not traced or not plain:
        raise RuntimeError("no traced and untraced pair of runs completed")
    def names(report):
        return report["trace"]["names"]

    def per_child(fn):
        return stats.median([fn(r) for r in traced])

    def field(name, key):
        return per_child(lambda r: names(r).get(name, {}).get(key, 0))

    def fields(span_names, key):
        return per_child(lambda r: sum(names(r).get(n, {}).get(key, 0)
                                       for n in span_names))

    def pct_us(name, q):
        pooled = [d for r in traced
                  for d in names(r).get(name, {}).get("durations_s", ())]
        return stats.percentile(pooled, q) * 1e6

    def counter(key):
        return per_child(lambda r: r["counters"][key])

    def search_ok_ratio(report):
        calls = sum(names(report).get(n, {}).get("calls", 0)
                    for n in SEARCH_SPANS)
        failed = sum(names(report).get(n, {}).get("failed", 0)
                     for n in SEARCH_SPANS)
        return (calls - failed) / calls if calls else 0.0

    def lattice_points(report):
        c = report["counters"]
        return c["lattice_points"] / c["surfaces"] if c["surfaces"] else 0.0

    trials = workload.trials * len(workload.snr_points)
    m = {}
    for surface in ("proposed_surface", "nguyenle_surface"):
        span = f"estimators.GridEvaluator.{surface}"
        m[f"estimators.{surface}.calls"] = (field(span, "calls"), "count")
        m[f"estimators.{surface}.self_s"] = (field(span, "self_s"), "s")
        m[f"estimators.{surface}.p50_us"] = (pct_us(span, 50), "us")
    m["estimators.GridEvaluator.init_s"] = (
        field("estimators.GridEvaluator.__init__", "total_s"), "s")
    m["estimators.lattice_points_per_search"] = (
        per_child(lattice_points), "count")
    m["estimators.search_ok_ratio"] = (per_child(search_ok_ratio), "ratio")
    m["estimators.residuals.self_s"] = (fields(RESIDUAL_SPANS, "self_s"), "s")
    m["ofdm_model.synthesize_received_symbol.calls"] = (
        field("ofdm_model.synthesize_received_symbol", "calls"), "count")
    m["ofdm_model.synthesize_received_symbol.self_s"] = (
        field("ofdm_model.synthesize_received_symbol", "self_s"), "s")
    m["ofdm_model.demodulate.self_s"] = (
        field("ofdm_model.demodulate", "self_s"), "s")
    m["ofdm_model.derive_rng.calls"] = (
        field("ofdm_model.derive_rng", "calls"), "count")
    m["ofdm_model.derive_rng.self_s"] = (
        field("ofdm_model.derive_rng", "self_s"), "s")
    m["ofdm_model.channel_frequency_response.calls_per_trial"] = (
        per_child(lambda r: r["trace"]["cfr_calls_in_trials"]) / trials,
        "count")
    m["crb.fisher_closed_form.calls"] = (
        field("crb.fisher_closed_form", "calls"), "count")
    m["crb.fisher_closed_form.self_s"] = (
        field("crb.fisher_closed_form", "self_s"), "s")
    m["crb.fisher_closed_form.p50_us"] = (
        pct_us("crb.fisher_closed_form", 50), "us")
    m["crb.fisher_numeric_oracle.calls"] = (
        field("crb.fisher_numeric_oracle", "calls"), "count")
    m["harness.backend_probe_s"] = (
        field("harness._select_crb_backend", "total_s"), "s")
    m["harness.run_trial.calls"] = (field("harness.run_trial", "calls"),
                                    "count")
    m["harness.run_trial.p50_us"] = (pct_us("harness.run_trial", 50), "us")
    m["harness.run_trial.p99_us"] = (pct_us("harness.run_trial", 99), "us")
    m["harness.aggregate_s"] = (field("harness.aggregate", "total_s"), "s")
    m["harness.cpu_per_wall"] = (
        stats.median([r["main_cpu_s"] / r["main_s"] for r in plain]),
        "ratio")
    for key in ("degenerate_observations", "crb_excluded", "fail_nguyenle"):
        m[f"harness.{key}"] = (counter(key), "count")
    m["cli.parse_s"] = (field("cli.parse", "total_s"), "s")
    m["cli.write_csv.s"] = (field("cli.write_csv", "total_s"), "s")
    m["cli.write_csv.bytes"] = (
        per_child(lambda r: r["csv_bytes"]), "bytes")
    for layer in tracing.LAYERS:
        m[f"{layer}.self_s"] = (per_child(
            lambda r, p=layer + ".": sum(
                e["self_s"] for n, e in names(r).items()
                if n.startswith(p))), "s")
    m["trace.overhead_share"] = (
        stats.median([r["main_s"] for r in traced])
        / stats.median([r["main_s"] for r in plain]) - 1.0, "ratio")
    return m


# ---------------------------------------------------------------- reports

def git_sha():
    """HEAD's commit read from ``.git`` without running git; None outside."""
    git = ROOT / ".git"
    try:
        head = (git / "HEAD").read_text().strip()
        if not head.startswith("ref: "):
            return head
        ref = head[5:]
        if (git / ref).exists():
            return (git / ref).read_text().strip()
        for line in (git / "packed-refs").read_text().splitlines():
            if line.endswith(" " + ref):
                return line.split()[0]
    except OSError:
        pass
    return None


def environment(seed, children):
    import numpy
    try:
        blas = numpy.__config__.CONFIG["Build Dependencies"]["blas"]
        blas = f"{blas['name']} {blas['version']}"
    except (AttributeError, KeyError, TypeError):
        blas = None
    workers = sorted({c.report["workers"] for c in children
                      if c.report is not None})
    return {
        "git_sha": git_sha(),
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "blas": blas,
        "nproc": os.cpu_count(),
        "affinity_cpus": len(os.sched_getaffinity(0))
        if hasattr(os, "sched_getaffinity") else None,
        "blas_pin": BLAS_PIN,
        "SYNC_LAB_THREADS": "unset (program default)",
        "worker_count": workers[0] if len(workers) == 1 else workers,
        "workload_seed": seed,
        "pinned_seed": PINNED_SEED,
        "machine": platform.machine(),
    }


def print_layer_table(children):
    """Per span name, self time summed over the traced children."""
    totals = {}
    for child in children:
        if child.report is None or "trace" not in child.report:
            continue
        for name, entry in child.report["trace"]["names"].items():
            calls, self_s = totals.get(name, (0, 0.0))
            totals[name] = (calls + entry["calls"], self_s + entry["self_s"])
    grand = sum(s for _, s in totals.values()) or 1.0
    print(f"{'span':<48} {'calls':>9} {'self_s':>10} {'share':>7}")
    for name, (calls, self_s) in sorted(totals.items(),
                                        key=lambda kv: -kv[1][1]):
        print(f"{name:<48} {calls:>9} {self_s:>10.4f} "
              f"{100 * self_s / grand:>6.1f}%")


def run_workload(name, seed, seconds, trace):
    workload = WORKLOADS[name]
    clock = Clock()
    OUT_DIR.mkdir(exist_ok=True)
    tmp = Path(tempfile.mkdtemp(prefix=f"{name}-", dir=OUT_DIR))
    try:
        runner = run_traced if trace else run_plain
        children, metrics, samples, raw = runner(workload, seed, seconds,
                                                 tmp, clock)
    finally:
        shutil.rmtree(tmp, ignore_errors=True)
    failures = [c.failure for c in children if c.failure is not None]
    env = environment(seed, children)
    print(f"workload {name}: sync-lab {workload.command} --trials "
          f"{workload.trials}, seed {seed} (pinned child at {PINNED_SEED}), "
          f"{len(children)} runs in {time.perf_counter() - clock.begin:.1f} s")
    print("env: " + json.dumps(env, sort_keys=True))
    for reason in failures:
        print(f"FAILED: {reason}")
    print(f"failed_share = {len(failures) / len(children):.4f} "
          f"({len(failures)}/{len(children)})")
    if trace:
        print_layer_table(children)
    for key, values in samples.items():
        print(f"samples {key} (n={len(values)}): "
              + " ".join(f"{v:.4f}" for v in values))
    for key, (value, unit) in raw.items():
        print(f"raw {key} = {value:.6g} {unit}")
    for key, (value, unit) in metrics.items():
        print(f"{key} = {value:.6g} {unit}")
    metrics = {k: {"value": v, "unit": u} for k, (v, u) in metrics.items()}
    record = {"workload": name, "trace": trace, "env": env,
              "metrics": metrics, "raw": raw, "samples": samples,
              "failures": failures}
    (OUT_DIR / f"{name}-seed{seed}-trace{int(trace)}.json").write_text(
        json.dumps(record, indent=1))
    return {"correct": not failures, "attempted": len(children),
            "failed": len(failures), "metrics": metrics}


# ------------------------------------------------------------ other modes

def bench_once(name, seed, seconds, trace):
    """One run of this script as its own process; its final JSON or {}."""
    proc = subprocess.run(
        [sys.executable, str(BENCH_DIR / "run.py"), "--workload", name,
         "--seed", str(seed), "--seconds", str(seconds),
         "--trace", str(int(trace))],
        cwd=ROOT, capture_output=True, text=True, check=False)
    last = proc.stdout.strip().splitlines()[-1:] or ["{}"]
    result = json.loads(last[0]) if proc.returncode == 0 else {}
    print(f"{name} seed {seed} trace {int(trace)}: exit {proc.returncode} "
          + " ".join(f"{k}={v['value']:.4g}"
                     for k, v in result.get("metrics", {}).items()),
          flush=True)
    return result


def steadiness(seconds, first_seed, record=None):
    """Two sets of RUNS_PER_SET runs per workload; compare their medians.

    With ``record``, one traced run per workload follows, and the medians,
    spreads and per-layer metrics go to that file with the environment.
    """
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    bounds = {m["name"]: m for m in spec["end_to_end"]}
    workloads = list(WORKLOADS)
    sets = ([], [])
    for set_index, results in enumerate(sets):
        for i in range(RUNS_PER_SET):
            for name in workloads:
                seed = first_seed + set_index * RUNS_PER_SET + i
                results.append(
                    (name, seed, bench_once(name, seed, seconds, False)))
    steady = True
    summary = {}
    print(f"{'workload':<14} {'metric':<14} {'median1':>10} {'spread1':>8} "
          f"{'median2':>10} {'spread2':>8} {'spread':>7} {'apart':>7} "
          f"{'bound':>6}  verdict")
    for name in workloads:
        for metric, spec_m in bounds.items():
            per_set = [[r["metrics"][metric]["value"] for n, _, r in res
                        if n == name and r.get("correct")] for res in sets]
            if not all(per_set):
                steady = False
                print(f"{name:<14} {metric:<14} missing runs")
                continue
            both = per_set[0] + per_set[1]
            med = [stats.median(v) for v in per_set]
            apart = stats.change_share(med[0], med[1])
            spreads = [stats.spread(v) for v in per_set]
            # As in the acceptance gate of BENCHMARK.json, setup_s has its
            # medians compared but not its spread.
            ok = apart <= spec_m["bound"] and (
                metric == "setup_s"
                or max(spreads) <= spec_m["bound"])
            steady &= ok
            # Aim for spreads under a third of the bound, for headroom.
            tight = stats.spread(both) < spec_m["bound"] / 3
            summary[f"{name}/{metric}"] = {
                "medians": med, "spreads": spreads,
                "spread_all": stats.spread(both), "apart_share": apart,
                "bound": spec_m["bound"], "ok": ok, "tight": tight,
                "values": per_set}
            verdict = ("ok" if tight else "ok, loose") if ok \
                else "NOT STEADY"
            print(f"{name:<14} {metric:<14} {med[0]:>10.4f} "
                  f"{spreads[0]:>8.4f} {med[1]:>10.4f} {spreads[1]:>8.4f} "
                  f"{stats.spread(both):>7.4f} {apart:>7.4f} "
                  f"{spec_m['bound']:>6}  {verdict}")
    OUT_DIR.mkdir(exist_ok=True)
    (OUT_DIR / "steadiness.json").write_text(json.dumps(summary, indent=1))
    if record is not None:
        layers = {name: bench_once(name, first_seed, seconds, True)
                  for name in workloads}
        envs = {name: json.loads((OUT_DIR / f"{name}-seed{first_seed}-"
                                  "trace1.json").read_text())["env"]
                for name in workloads}
        Path(record).write_text(json.dumps(
            {"run_seconds": seconds, "runs_per_set": RUNS_PER_SET,
             "env": envs, "end_to_end": summary,
             "per_layer": {n: r.get("metrics") for n, r in layers.items()},
             "steady": steady}, indent=1) + "\n")
    return 0 if steady else 1


def full_digests():
    """Each command once at its full default size and the pinned seed."""
    OUT_DIR.mkdir(exist_ok=True)
    tmp = Path(tempfile.mkdtemp(prefix="full-", dir=OUT_DIR))
    failed = 0
    try:
        for command, expected in FULL_DIGESTS.items():
            out = tmp / f"{command}.csv"
            spawned = spawn([sys.executable, "-m", "ofdm_sync_lab.cli",
                             command, "--out", str(out)],
                            HARD_LIMIT_S, tmp / f"{command}.err")
            found = checks.digest(out.read_bytes()) \
                if spawned.exit == 0 else None
            ok = found == expected
            failed += not ok
            print(f"{command}: {'ok' if ok else 'MISMATCH'} {found} "
                  f"({spawned.wall_s:.1f} s)")
    finally:
        shutil.rmtree(tmp, ignore_errors=True)
    return 1 if failed else 0


def main(argv=None):
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--workload", choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--seconds", type=int, default=None)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--steadiness", action="store_true")
    parser.add_argument("--record", default=None,
                        help="with --steadiness: also trace each workload "
                             "once and write everything to this JSON file")
    parser.add_argument("--full-digests", action="store_true")
    args = parser.parse_args(argv)
    if not PACKAGE_CLI.is_file():
        print(f"error: {PACKAGE_CLI.relative_to(ROOT)} not found; run from "
              "a checkout of the repository", file=sys.stderr)
        return 2
    seconds = args.seconds
    if seconds is None:
        seconds = json.loads((ROOT / "BENCHMARK.json").read_text())[
            "run_seconds"]
    if args.steadiness:
        return steadiness(seconds, args.seed, args.record)
    if args.full_digests:
        return full_digests()
    if args.workload is None:
        parser.error("--workload is required")
    result = run_workload(args.workload, args.seed, seconds,
                          bool(args.trace))
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
