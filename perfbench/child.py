"""One ``sync-lab`` invocation in a fresh interpreter, timed from inside.

    python3 child.py REPORT.json plain|trace COMMAND [OPTIONS...]

Runs ``ofdm_sync_lab.cli.main`` on the given arguments exactly as the
``sync-lab`` console script does, and writes a JSON report with its exit
code, the wall and CPU time spent inside ``cli.main`` and the resolved
worker count. With ``trace`` the layer wrappers of :mod:`tracing` are
installed first and the report adds the per-name span summary and the
counters read from the returned sweep results.
"""

import importlib
import json
import sys
import time

from ofdm_sync_lab import cli, harness

import tracing

COUNTERS = ("degenerate_observations", "crb_excluded", "fail_nguyenle")


def _row_counts(result):
    return {name: sum(getattr(row, name) for row in result.rows)
            for name in COUNTERS}


def _excluded_draws(pair_and_excluded):
    return {"crb_excluded": pair_and_excluded[1]}


def _surface_size(surface):
    return int(surface.size)


SWEEPS = ("harness.run_mse_sweep", "harness.run_noise_variance_sweep")
SURFACES = ("estimators.GridEvaluator.proposed_surface",
            "estimators.GridEvaluator.nguyenle_surface")

# Reducers over return values: the counters the harness computes, and
# the lattice size of every cost surface.
CAPTURE = {SWEEPS[0]: _row_counts, SWEEPS[1]: _row_counts,
           "crb.average_crb": _excluded_draws,
           SURFACES[0]: _surface_size, SURFACES[1]: _surface_size}

# Span names whose per-call durations are kept for percentiles.
PERCENTILE_SPANS = ("harness.run_trial", *SURFACES, "crb.fisher_closed_form")


def _counters(captured):
    counts = dict.fromkeys(COUNTERS, 0)
    for name in (*SWEEPS, "crb.average_crb"):
        for found in captured.get(name, ()):
            for key, value in found.items():
                counts[key] += value
    surfaces = [size for name in SURFACES for size in captured.get(name, ())]
    counts["lattice_points"] = sum(surfaces)
    counts["surfaces"] = len(surfaces)
    return counts


def main(argv):
    report_path, mode, cli_args = argv[0], argv[1], argv[2:]
    workers = harness.worker_count()
    tracer = None
    if mode == "trace":
        tracer = tracing.Tracer(capture=CAPTURE)
        tracing.install(tracer, {
            layer: importlib.import_module(f"ofdm_sync_lab.{layer}")
            for layer in tracing.LAYERS})
    cpu0 = time.process_time()
    t0 = time.perf_counter()
    code = cli.main(cli_args)
    main_s = time.perf_counter() - t0
    main_cpu_s = time.process_time() - cpu0
    report = {"exit": code, "main_s": main_s, "main_cpu_s": main_cpu_s,
              "workers": workers}
    if tracer is not None:
        report["trace"] = tracing.summarize(tracer.spans, PERCENTILE_SPANS)
        report["counters"] = _counters(tracer.captured)
    with open(report_path, "w", encoding="utf-8") as fh:
        json.dump(report, fh)
    return code


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
