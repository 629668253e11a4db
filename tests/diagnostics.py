"""Where the sync-lab commands spend CPU time and memory, section by
section: ``PYTHONPATH=src python3 tests/diagnostics.py``. A section that
measures a fresh interpreter starts ``python -m ofdm_sync_lab.cli`` or
this file, whose module level thus imports only what the package does;
``tests/test_diagnostics.py`` runs each section at its smallest size."""

import os
import sys

import ofdm_sync_lab

PACKAGE = os.path.dirname(ofdm_sync_lab.__file__)
# Fresh interpreters import the package this one does, installed or not.
ENV = dict(os.environ, PYTHONPATH=os.path.dirname(PACKAGE))
# One trial shows a sweep's fixed cost beside its perfbench size; 2000 and
# 20000 trials of one SNR point show any memory held per trial.
COMMANDS = ("fig1 --trials 400", "fig1 --trials 1", "fig2 --trials 60",
            "fig2 --trials 1", "crb", "crb --trials 1",
            *(f"{command} --trials {trials} --snr-min 0 --snr-max 0"
              for command, trials in (("crb", 20000), ("fig1", 20000),
                                      ("crb", 2000), ("fig1", 2000))))


def _spawn(*argv, env=ENV) -> tuple:
    """Run ``python *argv`` to its end: its exit code and own rusage."""
    argv = (sys.executable, *argv)
    _, status, usage = os.wait4(os.posix_spawn(argv[0], argv, env), 0)
    return os.waitstatus_to_exitcode(status), usage


def command_usage(commands=COMMANDS):
    """CPU, peak RSS and minor faults per command: heap pages given back
    and faulted in again chunk after chunk would show as thousands."""
    for args in commands:
        code, use = _spawn("-m", "ofdm_sync_lab.cli", *args.split(),
                           "--out", os.devnull)
        print(f"sync-lab {args}: exit {code}, cpu "
              f"{use.ru_utime + use.ru_stime:.2f} s, peak rss "
              f"{use.ru_maxrss / 1024:.1f} MB, minor faults {use.ru_minflt}")


def library_sweep(trials=500):
    """The second of two crb sweeps in a fresh interpreter that imports
    only the package: its faults show whether a sweep keeps its pages."""
    import subprocess
    proc = subprocess.run((sys.executable, __file__, "library", str(trials)),
                          env=ENV, capture_output=True, text=True)
    print(f"library run_crb_sweep at {trials} trials, second of two in one "
          f"fresh interpreter: exit {proc.returncode}, "
          f"{proc.stdout.strip() or proc.stderr.strip()}")


def import_cpu(runs=5):
    """CPU of importing the cli and parsing fig2 (perfbench's setup_s path)
    with bytecode cached, and under PYTHONDONTWRITEBYTECODE=1 (perfbench's
    children inherit it) with the package or all compiled at each start."""
    import shutil, statistics, tempfile
    with tempfile.TemporaryDirectory() as tmp:
        shutil.copytree(PACKAGE, f"{tmp}/ofdm_sync_lab",
                        ignore=shutil.ignore_patterns("__pycache__"))
        uncached = dict(ENV, PYTHONDONTWRITEBYTECODE="1")
        for bytecode, env in (
                ("cached", ENV),
                ("package from source", dict(uncached, PYTHONPATH=tmp)),
                ("all from source",
                 dict(uncached, PYTHONPYCACHEPREFIX=f"{tmp}/empty"))):
            done = [_spawn(__file__, "parse", env=env) for _ in range(runs)]
            cpu_ms = [(use.ru_utime + use.ru_stime) * 1e3 for _, use in done]
            print(f"import + cli.parse(['fig2']), bytecode {bytecode}: exit "
                  f"{done[-1][0]}, cpu median {statistics.median(cpu_ms):.0f} "
                  f"ms, min {min(cpu_ms):.0f} ms over {runs} interpreters")


def import_times(top=5):
    """That path's largest ``-X importtime`` entries, and those outside numpy
    and the package: argparse once cost 3 ms of every start there."""
    import subprocess
    proc = subprocess.run((sys.executable, "-X", "importtime", __file__,
                           "parse"), env=ENV, capture_output=True, text=True)
    entries = sorted(((int(fields[1]), fields[2].strip()) for fields in (
        line.split("|") for line in proc.stderr.splitlines())
        if len(fields) == 3 and fields[1].strip().isdigit()), reverse=True)
    print(f"python -X importtime, import + cli.parse(['fig2']): "
          f"exit {proc.returncode}")
    for title, listed in (("cumulative entries", entries), (
            "outside numpy and the package", [
                (us, name) for us, name in entries
                if name.split(".")[0] not in ("numpy", "ofdm_sync_lab")])):
        print(f"  {top} largest {title}:")
        for us, name in listed[:top]:
            print(f"    {us / 1e3:8.1f} ms  {name}")


def unreached(trials=2):
    """The package's functions that one small fig1, fig2, crb and trial run
    never enters. Run it first: a warm cache hides what is behind it."""
    import contextlib, glob, inspect, io, types
    from ofdm_sync_lab import cli
    codes, entered = [], set()
    for path in glob.glob(f"{PACKAGE}/*.py"):
        with open(path, encoding="utf-8") as fh:
            codes.append(compile(fh.read(), os.path.realpath(path), "exec"))
    for code in codes:  # grows by each code's nested codes as it goes
        codes += [c for c in code.co_consts if isinstance(c, types.CodeType)]
    defs = {(c.co_filename, c.co_firstlineno): os.path.basename(
        c.co_filename)[:-3] + "." + getattr(c, "co_qualname", c.co_name)
        .replace("<locals>.", "") for c in codes  # functions, not <lambda>
        if c.co_flags & inspect.CO_NEWLOCALS and c.co_name.isidentifier()}

    def profile(frame, event, arg):
        if event == "call":
            entered.add((os.path.realpath(frame.f_code.co_filename),
                         frame.f_code.co_firstlineno))

    previous = sys.getprofile()
    sizes = ["--trials", str(trials), "--out", os.devnull]
    with contextlib.redirect_stdout(io.StringIO()):
        sys.setprofile(profile)
        try:
            for argv in (["fig1", *sizes], ["fig2", *sizes],
                         ["crb", *sizes], ["trial"]):
                if cli.main(argv):
                    raise RuntimeError(f"sync-lab {' '.join(argv)} failed")
        finally:
            sys.setprofile(previous)
    missed = sorted(name for key, name in defs.items() if key not in entered)
    print(f"package functions that one small fig1, fig2, crb and trial run "
          f"never enter (sys.setprofile): {len(missed)} of {len(defs)}: "
          f"{', '.join(missed)}")


def stage_high_water(fig1=400, fig2=60, crb=500):
    """Each sweep's traced high-water, caches warm, and each chunk stage's,
    starred where it sets the sweep's; the stages are patched meanwhile."""
    import contextlib, tracemalloc
    from dataclasses import replace
    from unittest import mock
    from ofdm_sync_lab import harness
    cfg, search = ofdm_sync_lab.make_experiment(), ofdm_sync_lab.GridEvaluator
    peaks, top = {}, 0

    def traced(real, stage):
        def wrapper(*args, **kwargs):
            nonlocal top
            top = max(top, tracemalloc.get_traced_memory()[1])
            tracemalloc.reset_peak()
            try:
                return real(*args, **kwargs)
            finally:
                peak = tracemalloc.get_traced_memory()[1]
                peaks[stage] = max(peaks.get(stage, 0), peak)
                top = max(top, peak)
        return wrapper

    print("traced high-water of each sweep, caches warm, and within each "
          "chunk stage (MB; * sets the sweep's):")
    with contextlib.ExitStack() as patches:
        patches.callback(tracemalloc.stop)  # should a sweep raise
        for owner, name, stage in (
                (harness, "_derive_tables", "derive"),
                (harness, "_pcg64_states", "states"),
                (harness, "_qpsk_picks", "picks"), (harness, "_draw", "draw"),
                (harness, "_observe", "observe"),
                (search, "search_proposed", "searches"),
                (search, "search_nguyenle", "searches"),
                (harness, "_crb_fields", "Fisher")):
            patches.enter_context(mock.patch.object(
                owner, name, traced(getattr(owner, name), stage)))
        for label, sweep, experiment in (
                ("fig1", harness.run_noise_variance_sweep,
                 replace(cfg, n_trials=fig1)),
                ("fig2", harness.run_mse_sweep, replace(
                    cfg, n_trials=fig2, snr_points_db=range(5, 35, 5))),
                ("crb", harness.run_crb_sweep, replace(cfg, n_trials=crb))):
            sweep(experiment)
            peaks.clear()
            tracemalloc.start()
            top = 0
            sweep(experiment)
            top = max(top, tracemalloc.get_traced_memory()[1])
            tracemalloc.stop()
            print(f"{label} --trials {experiment.n_trials}: traced high-water "
                  f"{top / 1e6:.3f} MB; by stage: " + ", ".join(
                      f"{stage} {peak / 1e6:.3f}" + "*" * (peak == top)
                      for stage, peak in peaks.items()))


def fill_overhead(rows=1024, repeats=20):
    """Microseconds per row of the row fills behind a chunk's draws,
    through ``ofdm_model._each_row`` (one ctypes call per row), beside one
    C fill of the same count from one state: the difference is the per-row
    call cost that only a native row loop would remove."""
    import ctypes, time
    import numpy as np
    from ofdm_sync_lab import ofdm_model as om
    states = om._pcg64_states(om._derive_tables(12345, (15000,), range(rows),
                                                ("row",)))[0, 0]

    def normals(n):
        return ctypes.c_ssize_t(n),

    def raw(n):  # the full uint64 range, unmasked, as _qpsk_picks draws
        return (ctypes.c_uint64(0), ctypes.c_uint64(2 ** 64 - 1),
                ctypes.c_ssize_t(n), ctypes.c_bool(False))

    # A channel row's 2 L normals, a noise row's 2 N and a pick row's K/2
    # raw words, at the default L = 5, N = 64 and K = 52.
    cases = (("taps", "normals", 10, np.float64, om._NORMALS_FILL, normals),
             ("noise", "normals", 128, np.float64, om._NORMALS_FILL, normals),
             ("picks", "raw words", 26, np.uint64, om._RAW_FILL, raw))

    def per_row(table, out, fill, args):
        best = np.inf
        for _ in range(repeats):
            start = time.perf_counter()
            om._each_row(table.copy(), out, fill, *args)
            best = min(best, time.perf_counter() - start)
        return best / rows * 1e6

    print(f"fill_overhead, {rows} rows, best of {repeats} (us per row):")
    for name, unit, count, dtype, fill, args in cases:
        out = np.empty((rows, count), dtype)
        each = per_row(states, out, fill, args(count))
        one = per_row(states[:1], out, fill, args(rows * count))
        print(f"  {name} ({count} {unit} a row): {each:.3f} through "
              f"_each_row, {one:.3f} as one C fill, {each - one:.3f} of "
              f"call overhead")


def package_size():
    """The package's lines, names in ``__all__`` and dataclasses."""
    import pathlib, re
    text = "".join(path.read_text(encoding="utf-8")
                   for path in pathlib.Path(PACKAGE).glob("*.py"))
    lines, classes = text.count("\n"), re.findall(r"^@dataclass\b", text, re.M)
    print(f"src/ofdm_sync_lab: {lines} lines, {len(ofdm_sync_lab.__all__)} "
          f"names in __all__, {len(classes)} @dataclass classes")


if __name__ == "__main__" and sys.argv[1:] == ["parse"]:
    from ofdm_sync_lab import cli
    cli.parse(["fig2"])
elif __name__ == "__main__" and sys.argv[1:2] == ["library"]:
    import resource
    cfg = ofdm_sync_lab.make_experiment(n_trials=int(sys.argv[2]))
    ofdm_sync_lab.run_crb_sweep(cfg)
    first = resource.getrusage(resource.RUSAGE_SELF)
    ofdm_sync_lab.run_crb_sweep(cfg)
    last = resource.getrusage(resource.RUSAGE_SELF)
    cpu = last.ru_utime + last.ru_stime - first.ru_utime - first.ru_stime
    print(f"cpu {cpu * 1e3:.0f} ms, minor faults "
          f"{last.ru_minflt - first.ru_minflt}, "
          f"cli imported {'ofdm_sync_lab.cli' in sys.modules}")
elif __name__ == "__main__":
    for section in (command_usage, library_sweep, import_cpu, import_times,
                    unreached, stage_high_water, fill_overhead,
                    package_size):
        section()
