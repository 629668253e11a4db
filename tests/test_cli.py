"""CLI tests: option resolution, config files, CSV datasets, and the
single-trial debug command."""

import contextlib
import gc
import hashlib
import io
import math
import os
import subprocess
import sys
import tempfile
import warnings
from dataclasses import replace
from pathlib import Path

import numpy as np
import numpy.testing as npt
import pytest
from hypothesis import (HealthCheck, assume, example, given, settings,
                        strategies as st)

import ofdm_sync_lab.cli as cli
from ofdm_sync_lab import __version__, harness
from ofdm_sync_lab.cli import CliError, format_value, parse, write_csv

TINY_GRID_FLAGS = ["--grid-cfo-step", "0.1", "--grid-cfo-max", "0.5",
                   "--grid-sfo-step", "1e-4", "--grid-sfo-max", "5e-4"]

FLAG_NAMES = tuple(flag for flag, _ in cli._FIELDS)


def metadata_flags(path):
    """Reconstruct the flag list echoed in a dataset's header."""
    argv = []
    for line in path.read_text().splitlines():
        if not line.startswith("# "):
            break
        key, sep, value = line[2:].partition(" = ")
        if sep and key in FLAG_NAMES:
            argv.extend([f"--{key}", value])
    return argv


def trial_output(capsys, argv):
    assert cli.main(argv) == 0
    entries = {}
    for line in capsys.readouterr().out.strip().splitlines():
        key, _, value = line.partition(" = ")
        entries[key] = value
    return entries


# ---------------------------------------------------------------- parsing


def test_command_defaults():
    fig1 = parse(["fig1"])
    assert fig1.command == "fig1"
    assert fig1.out == "fig1.csv"
    assert fig1.experiment.n_trials == 2000
    assert fig1.experiment.snr_points_db == (0.0, 5.0, 10.0, 15.0, 20.0,
                                             25.0, 30.0)

    fig2 = parse(["fig2"])
    assert fig2.out == "fig2.csv"
    assert fig2.experiment.n_trials == 500
    assert fig2.experiment.snr_points_db == (5.0, 10.0, 15.0, 20.0, 25.0,
                                             30.0)

    crb = parse(["crb"])
    assert crb.out == "crb.csv"
    assert crb.experiment.n_trials == 500
    assert crb.experiment.snr_points_db[0] == 0.0

    trial = parse(["trial"])
    assert trial.out is None
    assert trial.experiment.n_trials == 1
    assert trial.experiment.snr_points_db == (15.0,)


def test_shared_defaults_match_operating_point():
    inv = parse(["fig2"])
    assert inv.experiment.cfo == 0.212
    assert inv.experiment.sfo == 0.000112
    assert inv.experiment.n_taps == 5
    assert inv.experiment.master_seed == 12345
    assert inv.experiment.ofdm.dft_size == 64
    assert inv.experiment.ofdm.n_active == 52
    assert inv.experiment.ofdm.cp_len == 16
    assert len(inv.experiment.grid.cfo_values) == 101
    assert len(inv.experiment.grid.sfo_values) == 101


def test_flags_override_defaults():
    inv = parse(["fig1", "--cfo", "0.21", "--trials", "9", "--seed", "7",
                 "--snr-min", "10", "--snr-max", "20", "--snr-step", "10"])
    assert inv.experiment.cfo == 0.21
    assert inv.experiment.n_trials == 9
    assert inv.experiment.master_seed == 7
    assert inv.experiment.snr_points_db == (10.0, 20.0)
    # The flags may also come before the command.
    before = parse(["--cfo", "0.21", "--trials", "9", "--seed", "7",
                    "--snr-min", "10", "--snr-max", "20", "--snr-step",
                    "10", "fig1"])
    assert (before.command, before.values) == (inv.command, inv.values)


@pytest.mark.parametrize("flag, value", [
    ("sfo", "-3e-4"), ("cfo", "-2.5E-1"), ("snr-min", "-1e1"),
    ("snr-max", "-5e0"),
])
def test_exponent_form_negative_values(flag, value):
    """A value may begin with ``-`` in any spelling, exponent form
    included, spaced from its flag or joined to it by ``=``."""
    spaced = parse(["trial", f"--{flag}", value])
    joined = parse(["trial", f"--{flag}={value}"])
    assert spaced.values == joined.values
    assert spaced.values[flag] == float(value)
    a, b = spaced.experiment, joined.experiment
    assert (a.ofdm, a.cfo, a.sfo, a.n_taps, a.snr_points_db, a.n_trials,
            a.master_seed) == (b.ofdm, b.cfo, b.sfo, b.n_taps,
                               b.snr_points_db, b.n_trials, b.master_seed)
    npt.assert_array_equal(a.grid.cfo_values, b.grid.cfo_values)
    npt.assert_array_equal(a.grid.sfo_values, b.grid.sfo_values)


def test_zero_grid_half_range_pins_axis():
    inv = parse(["trial", "--grid-cfo-max", "0"])
    npt.assert_array_equal(inv.experiment.grid.cfo_values, [0.0])


def assert_usage_error(argv, fragment, out, capsys):
    """``cli.main(argv)`` returns 2, prints one ``error:`` line holding
    ``fragment`` and writes nothing to ``out``."""
    assert cli.main(argv) == 2
    captured = capsys.readouterr()
    assert captured.err.startswith("error: ") and fragment in captured.err
    assert captured.err.count("\n") == 1
    assert captured.out == ""
    assert not out.exists()


def test_unknown_flag_exits_2(tmp_path, capsys):
    out = tmp_path / "out.csv"
    assert_usage_error(["fig1", "--bogus", "1", "--out", str(out)],
                       "unrecognized option --bogus", out, capsys)


@pytest.mark.parametrize("argv, fragment", [
    (["fig1", "--trials"], "--trials expects a value"),
    (["fig1", "--trials", "1.5"], "--trials: invalid int value '1.5'"),
    (["fig1", "--trials=1.5"], "--trials: invalid int value '1.5'"),
    (["fig1", "--n", "x"], "--n: invalid int value 'x'"),
    (["fig1", "--cfo", "fast"], "--cfo: invalid float value 'fast'"),
    ([], "expected one command of fig1, fig2, crb, trial, got none"),
    (["--seed", "7"], "got none"),
    (["fig1", "fig2"], "got fig1 fig2"),
    (["fig1", "stray"], "got fig1 stray"),
    (["stray"], "got stray"),
    (["fig1", "--snr", "5"],
     "ambiguous option --snr: could match --snr-min, --snr-max, "
     "--snr-step"),
    (["fig1", "-x"], "unrecognized option -x"),
    (["fig1", "--", "5"], "unrecognized option --"),
])
def test_usage_errors_exit_2(argv, fragment, tmp_path, capsys):
    """A malformed command line exits 2 with one ``error:`` line before
    anything runs, and writes no file."""
    out = tmp_path / "out.csv"
    assert_usage_error(["--out", str(out), *argv], fragment, out, capsys)


@pytest.mark.parametrize("argv, command, changed, out", [
    (["--seed", "7", "--trials", "9", "fig2"], "fig2",
     {"seed": 7, "trials": 9}, "fig2.csv"),
    (["trial", "--sfo=-3e-4"], "trial", {"sfo": -0.0003}, None),
    (["trial", "--sfo", "-3e-4"], "trial", {"sfo": -0.0003}, None),
    (["fig1", "--trials", "3", "--out", "a.csv", "--trials", "4", "--out",
      "b.csv"], "fig1", {"trials": 4}, "b.csv"),
    (["crb", "--tri", "5"], "crb", {"trials": 5}, "crb.csv"),
    (["fig2", "--config", "LAB", "--cfo", "0.25"], "fig2",
     {"cfo": 0.25, "trials": 7}, "fig2.csv"),
    (["--snr-min", "-5", "fig1", "--cfo=-0.2", "--grid-cfo-m", "0"], "fig1",
     {"cfo": -0.2, "grid-cfo-max": 0.0, "snr-min": -5.0}, "fig1.csv"),
])
def test_command_lines_resolve_as_pinned(argv, command, changed, out,
                                         tmp_path):
    """Command lines resolve to the command, values and output that they
    resolved to under the argparse parser this one replaced. ``LAB``
    names a config file of ``cfo = 0.3`` and ``trials = 7``."""
    lab = tmp_path / "lab.cfg"
    lab.write_text("cfo = 0.3\ntrials = 7\n")
    inv = parse([str(lab) if token == "LAB" else token for token in argv])
    values = {**cli._COMMON_DEFAULTS, **cli._COMMAND_DEFAULTS[command],
              **changed}
    del values["out"]
    assert (inv.command, inv.values, inv.out) == (command, values, out)
    for flag, value in changed.items():
        assert type(inv.values[flag]) is type(value)


@pytest.mark.parametrize("argv", [["--help"], ["-h"], ["fig2", "--help"],
                                  ["--seed", "7", "-h", "fig1"], ["--he"]])
def test_help_lists_every_option_and_exits_0(argv, monkeypatch, tmp_path,
                                             capsys):
    monkeypatch.chdir(tmp_path)
    with pytest.raises(SystemExit) as excinfo:
        cli.main(argv)
    assert excinfo.value.code == 0
    printed = capsys.readouterr()
    assert printed.out.startswith("usage: sync-lab") and printed.err == ""
    for name in (*FLAG_NAMES, "out", "config"):
        line = next(line for line in printed.out.splitlines()
                    if line.split()[:1] == [f"--{name}"])
        assert line.split(None, 1)[1] == cli._HELPS[name]
    assert list(tmp_path.iterdir()) == []
    assert gc.get_freeze_count() == 0


def test_parse_imports_no_argparse():
    """The command line is read without argparse, so neither it nor the
    gettext and locale modules it pulls in load."""
    assert fresh_python(
        "import sys\n"
        "from ofdm_sync_lab import cli\n"
        "cli.parse(['fig2'])\n"
        "print(sorted({'argparse', 'gettext', 'locale'} & set(sys.modules)))"
    ) == "[]\n"


def test_main_freezes_import_objects_for_the_run(monkeypatch, tmp_path):
    """cli.main keeps what existed before it out of its collections and
    leaves nothing frozen when it returns, run after run."""
    seen = []
    real = harness._sweep

    def sweep(*args):
        seen.append(gc.get_freeze_count())
        return real(*args)

    monkeypatch.setattr(harness, "_sweep", sweep)
    for _ in range(2):
        assert cli.main(["crb", "--trials", "1", "--snr-max", "0", "--out",
                         str(tmp_path / "crb.csv")]) == 0
        assert gc.get_freeze_count() == 0
    assert len(seen) == 2 and min(seen) > 0


def serial_ids(entries):
    """Parameters of (serial, argv, fragment) entries, each with the id
    ``argv<serial>-<fragment>``. A serial stays with its entry, so that
    inserting or deleting an entry renames no other; a new entry takes
    the next unused serial (57)."""
    return [pytest.param(argv, fragment, id=f"argv{serial}-{fragment}")
            for serial, argv, fragment in entries]


@pytest.mark.parametrize("argv, fragment", serial_ids([
    (0, ["fig1", "--k", "70"], "exceeds"),
    (1, ["fig1", "--trials", "0"], "trials must be >= 1"),
    (2, ["fig1", "--taps", "0"], "taps must be >= 1"),
    (3, ["fig1", "--cfo", "inf"], "cfo must be finite"),
    (4, ["fig1", "--snr-min", "20", "--snr-max", "10"], "below snr-min"),
    (5, ["fig1", "--snr-step", "0"], "snr-step must be positive"),
    (6, ["fig2", "--sfo", "nan"], "sfo must be finite"),
    (7, ["fig1", "--snr-min", "10", "--snr-max", "10.001",
         "--snr-step", "0.0004"], "share the random stream key"),
    (8, ["fig1", "--snr-max", "inf"], "must be finite"),
    (9, ["trial", "--snr-min", "nan"], "snr_points_db must be finite"),
    (10, ["crb", "--sfo", "-1"], "sfo must exceed -1"),
    (11, ["fig2", "--cfo", "0.35"], "alias -0.44991"),
    (12, ["fig1", "--trials", "4294967296"], "n_trials must be below 2**32"),
    (13, ["fig2", "--grid-cfo-max", "inf"], "cfo_max must be finite"),
    (14, ["fig2", "--grid-sfo-max", "inf"], "sfo_max must be finite"),
    (15, ["fig2", "--grid-cfo-max", "nan"], "cfo_max must be finite"),
    (16, ["fig2", "--grid-sfo-step", "nan"], "sfo_step must be finite"),
    (17, ["fig2", "--grid-cfo-step", "1e-320"],
     "cfo_max / cfo_step = inf overflows"),
    (18, ["fig1", "--snr-step", "1e-5"],
     "3000001 points on 30001 milli-dB keys"),
    (19, ["fig1", "--snr-step", "1e-320"],
     "inf points on 30001 milli-dB keys"),
    # the noise variance underflows to 0 at 3300 dB and overflows at
    # -3100 dB; every command once died there with a traceback
    *[(20 + 2 * i + j, [command, "--snr-min", snr, "--snr-max", snr],
       f"snr point {snr} dB gives the noise variance {noise_var}, which "
       f"must be positive and finite")
      for i, command in enumerate(("fig1", "fig2", "crb", "trial"))
      for j, (snr, noise_var) in enumerate((("3300", "0.0"),
                                            ("-3100", "inf")))],
    # a finite noise variance this large once overflowed the squared
    # residual samples, and fig1 wrote var_n_db = inf
    (28, ["fig1", "--snr-min", "-3080", "--snr-max", "-3080", "--trials", "2"],
     "snr point -3080 dB gives the noise variance 8.125e+307, which must "
     "be positive and finite, and at most 3.457e+302"),
    # an SFO this large once overflowed the Fisher weights and left every
    # fig2 cell blank
    (29, ["fig2", "--sfo", "1e307", "--cfo", "3", "--trials", "2"],
     "sfo must exceed -1 and stay below 1, got 1e+307"),
    (30, ["fig2", "--sfo", "1"],
     "sfo must exceed -1 and stay below 1, got 1.0"),
    # the sfo bound is (-1, 1) itself, with no margin inside it: an end,
    # or the first float past one, fails fig2 and trial alike
    *[(31 + 2 * i + j, [command, "--sfo", sfo],
       f"sfo must exceed -1 and stay below 1, got {float(sfo)}")
      for i, command in enumerate(("fig2", "trial"))
      for j, sfo in enumerate(("-1", "1.0000000000000002"))],
    # an output the sweep could not write once ran the whole sweep first,
    # then died with a traceback
    (35, ["fig1", "--trials", "2", "--out", "/nonexistent/x.csv"],
     "--out /nonexistent/x.csv: no directory /nonexistent"),
    (36, ["fig1", "--trials", "2", "--out", "/"],
     "--out / names a directory, not a file"),
    (37, ["crb", "--trials", "2", "--out", "/nonexistent/"],
     "--out /nonexistent/ names a directory, not a file"),
    # an axis this long once raised peak RSS from 36 to 95 MB building
    # its tuple before any trial ran
    (38, ["fig1", "--snr-max", "1000000", "--snr-step", "1"],
     "snr axis from 0 to 1e+06 dB at step 1 has 1000001 points, more "
     "than 10000"),
    # an SNR end this large once overflowed its milli-dB stream key
    (39, ["fig1", "--snr-max", "1e308", "--snr-step", "1e308",
          "--trials", "1"],
     "snr-max 1e+308 dB has no milli-dB random stream key"),
    (40, ["crb", "--snr-min", "-1e308", "--trials", "1"],
     "snr-min -1e+308 dB has no milli-dB random stream key"),
    # a CFO this large once overflowed the Fisher weights, and 1e154
    # passed the alias check only because its rounding noise missed it
    (41, ["fig2", "--n", "8", "--k", "2", "--cfo", "1e308", "--trials", "2"],
     "cfo must lie inside (-N, N) = (-8, 8) subcarrier spacings, got "
     "1e+308"),
    (42, ["fig2", "--n", "8", "--k", "2", "--cp", "19", "--cfo", "1e154",
          "--trials", "2"],
     "cfo must lie inside (-N, N) = (-8, 8) subcarrier spacings, got "
     "1e+154"),
    # a lattice this fine once died allocating its CFO axis (142 PiB), and
    # one of a million CFO rows would hold 1.6 GB in its lead table
    (43, ["fig2", "--grid-cfo-max", "1", "--grid-cfo-step", "1e-16",
          "--trials", "1"],
     "cfo_max / cfo_step and sfo_max / sfo_step (the --grid-* flags) give "
     "a 20000000000000001 x 101 lattice, whose complex lead table needs "
     "3.23e+19 bytes"),
    (44, ["fig2", "--grid-cfo-step", "1e-6"],
     "give a 1000001 x 101 lattice, whose complex lead table needs "
     "1.62e+09 bytes, more than the lattice budget of 67108864 bytes"),
    # a lattice SFO of -1 zeroes the CFO slope a (1 + sfo), and these
    # once searched it (and -2) and exited 0
    (45, ["fig2", "--grid-sfo-max", "1", "--grid-sfo-step", "1"],
     "the lattice SFOs (the --grid-sfo-* flags) run from -1 to 1; every "
     "one must lie inside (-1, 1)"),
    (46, ["fig2", "--grid-sfo-max", "2", "--grid-sfo-step", "1"],
     "the lattice SFOs (the --grid-sfo-* flags) run from -2 to 2"),
    (47, ["trial", "--grid-sfo-max", "1", "--grid-sfo-step", "0.5"],
     "the lattice SFOs (the --grid-sfo-* flags) run from -1 to 1"),
    # the stream keys keep a seed's low 64 bits: these seeds once wrote the
    # data rows of --seed 0, 0 and 18446744073709551615, and only the
    # "# seed" header line told them apart
    *[(48 + i, ["crb", "--trials", "3", "--snr-min", "0", "--snr-max", "0",
                "--seed", seed],
       f"master_seed must lie in [0, 2**64), got {seed}")
      for i, seed in enumerate(("18446744073709551616",
                                "-18446744073709551616", "-1"))],
    # each array that a flag sizes has one budget: these once built their
    # experiment and met the size only when allocating (N = K = 8192
    # needs a 1 GiB basis, 2**40 taps terabytes of phases)
    (51, ["fig1", "--n", "8192", "--k", "8192"],
     "the synthesis basis at --n 8192 and --k 8192 would take 1.07e+09 "
     "bytes, more than the array budget of 67108864 bytes"),
    (52, ["crb", "--taps", "1099511627776"],
     "the channel DFT phases at --k 52 and --taps 1099511627776 would take "
     "9.15e+14 bytes"),
    (53, ["fig2", "--grid-cfo-max", "0", "--grid-sfo-step", "1e-9",
          "--grid-sfo-max", "1e-3"],
     "the correlation ramps at --k 52 and 2000001 lattice SFOs (the "
     "--grid-sfo-* flags) would take 1.66e+09 bytes"),
    (54, ["fig1", "--n", "1048576", "--k", "2"],
     "the noise draws and FFT of a chunk at --n 1048576 would take "
     "2.15e+09 bytes"),
    (55, ["crb", "--k", "2", "--taps", "40000"],
     "the channel draws of a chunk at --taps 40000 would take 8.19e+07 "
     "bytes"),
    (56, ["fig2", "--k", "2", "--grid-cfo-max", "0", "--grid-sfo-step",
          "1e-8"],
     "the correlations of a chunk at 100001 lattice SFOs (the --grid-sfo-* "
     "flags) would take 1.02e+08 bytes"),
]))
def test_invalid_values_exit_2(argv, fragment, capsys):
    assert cli.main(argv) == 2
    err = capsys.readouterr().err
    assert err.startswith("error:")
    assert fragment in err
    if "--out" in argv:
        assert not os.path.isfile(argv[argv.index("--out") + 1])


def test_unwritable_out_fails_before_the_sweep(monkeypatch, tmp_path,
                                               capsys):
    """A path without write access exits 2 naming it, before the sweep
    runs, and nothing is written."""
    def no_sweep(*args):
        raise AssertionError("the sweep ran")

    monkeypatch.setattr(harness, "_sweep", no_sweep)
    monkeypatch.setattr(cli.os, "access", lambda path, mode: False)
    path = tmp_path / "x.csv"
    assert cli.main(["fig2", "--out", str(path)]) == 2
    assert capsys.readouterr().err == f"error: --out {path} is not writable\n"
    assert list(tmp_path.iterdir()) == []


# Float flag values at and past the edges of every valid range.
EDGES = st.sampled_from([0.0, -0.0, 5e-324, -5e-324, 1e-8, 1.0, -1.0,
                         1e154, -1e154, 1e308, -1e308, math.inf, -math.inf,
                         math.nan])


def flag_values(lo, hi):
    """A float from [lo, hi] (half the time), an edge value or any
    float."""
    inside = st.floats(lo, hi)
    return st.one_of(inside, inside, EDGES, st.floats())


@st.composite
def invocations(draw):
    """A command and a dict of some of its flags, each omitted (two times
    in three) or drawn across the boundary of its valid range."""
    n = draw(st.integers(2, 64))
    snr_min = draw(flag_values(-40.0, 60.0))
    drawn = {
        "n": st.just(n),
        "k": st.one_of(st.integers(1, n // 2).map(lambda h: 2 * h),
                       st.integers(0, n + 1)),
        "cp": st.integers(-1, n), "taps": st.integers(0, 20),
        "trials": st.integers(0, 3),
        "seed": st.one_of(st.integers(0, 2 ** 64 - 1),
                          st.integers(-2 ** 70, 2 ** 70)),
        "cfo": flag_values(-0.3, 0.3), "sfo": flag_values(-1e-3, 1e-3),
        "snr-min": st.just(snr_min),
        "snr-max": st.one_of(flag_values(-40.0, 60.0),
                             st.floats(0.0, 20.0).map(lambda d: snr_min + d)),
        "snr-step": flag_values(5.0, 60.0),
        "grid-cfo-step": flag_values(0.01, 0.5),
        "grid-cfo-max": flag_values(0.0, 0.6),
        "grid-sfo-step": flag_values(1e-5, 1e-3),
        "grid-sfo-max": flag_values(0.0, 1e-3),
    }
    flags = {flag: draw(values) for flag, values in drawn.items()
             if draw(st.integers(0, 2)) == 0}
    command = draw(st.sampled_from(cli._COMMANDS))
    if draw(st.integers(0, 3)):
        return command, flags
    return command, flags, (draw(st.integers(0, 40)),
                            draw(st.sampled_from(MALFORMED)))


# Tokens that make any command line malformed wherever they stand: an
# unknown or ambiguous option, a value its flag cannot take, a flag
# whose value is missing or is the next token, which it cannot take
# either, a second command and a stray word.
MALFORMED = ("--bogus", "--snr", "-x", "--trials=1.5", "--n=x", "--seed",
             "fig1", "fig2", "stray")


def small_enough(command, flags):
    """Whether a run of these flags stays small: a valid grid of at most
    201 points per axis and a valid SNR axis of at most 7 points. The
    CLI itself rejects every invalid grid or axis before allocating it."""
    values = {**cli._COMMON_DEFAULTS, **cli._COMMAND_DEFAULTS[command],
              **flags}
    for axis in ("cfo", "sfo"):
        step, bound = values[f"grid-{axis}-step"], values[f"grid-{axis}-max"]
        if math.isfinite(step) and math.isfinite(bound) and step > 0 \
                and bound >= 0 and not bound / step < 100:
            return False
    lo, hi, step = values["snr-min"], values["snr-max"], values["snr-step"]
    return command == "trial" or not (
        math.isfinite(lo) and math.isfinite(hi) and math.isfinite(step)
        and step > 0 and hi >= lo and not (hi - lo) / step < 7)


@settings(derandomize=True, database=None, deadline=None, max_examples=150,
          suppress_health_check=[HealthCheck.filter_too_much,
                                 HealthCheck.too_slow])
@given(invocation=invocations())
@example(invocation=("fig1", {"snr-max": 1e308, "snr-step": 1e308,
                              "trials": 1}))
@example(invocation=("fig2", {"n": 8, "k": 2, "cfo": 1e308, "trials": 2}))
@example(invocation=("fig2", {"n": 8, "k": 2, "cp": 19, "cfo": 1e154,
                              "trials": 2}))
def test_no_invocation_crashes(invocation):
    """Any flags, valid or not, exit 0 or 2 without a warning: 2 with one
    ``error:`` line and no file, 0 with a CSV of finite or blank cells.
    A line with a malformed token inserted exits 2."""
    command, flags, *malformed = invocation
    assume(small_enough(command, flags))
    argv = [command] + [f"--{flag}={value!r}" for flag, value in
                        flags.items()]
    with tempfile.TemporaryDirectory() as tmp:
        out = os.path.join(tmp, "out.csv")
        if command != "trial":
            argv += ["--out", out]
        for position, token in malformed:
            argv.insert(position, token)
        err = io.StringIO()
        with warnings.catch_warnings(), contextlib.redirect_stderr(err), \
                contextlib.redirect_stdout(io.StringIO()):
            warnings.simplefilter("error")
            status = cli.main(argv)
        assert status in ((2,) if malformed else (0, 2)), argv
        if status == 2:
            assert err.getvalue().startswith("error: "), argv
            assert err.getvalue().count("\n") == 1, argv
            assert not os.path.exists(out), argv
        elif command != "trial":
            with open(out, encoding="utf-8") as fh:
                rows = [line.split(",") for line in fh.read().splitlines()
                        if not line.startswith("#")][1:]
            assert rows, argv
            for cell in (cell for row in rows for cell in row):
                assert cell == "" or math.isfinite(float(cell)), argv


# ------------------------------------------------------------ config file


def test_config_file_precedence(tmp_path):
    cfg = tmp_path / "lab.cfg"
    cfg.write_text(
        "# experiment overrides\n"
        "cfo = 0.3\n"
        "snr_min = 10  # underscores are accepted\n"
        "trials=7\n")
    inv = parse(["fig2", "--config", str(cfg), "--cfo", "0.25"])
    # flag beats file, file beats default
    assert inv.experiment.cfo == 0.25
    assert inv.experiment.snr_points_db[0] == 10.0
    assert inv.experiment.n_trials == 7


def test_config_file_errors(tmp_path):
    unknown = tmp_path / "unknown.cfg"
    unknown.write_text("n = 64\nwidgets = 3\n")
    with pytest.raises(CliError, match="unknown key 'widgets'") as excinfo:
        parse(["fig1", "--config", str(unknown)])
    assert f"{unknown}:2" in str(excinfo.value)

    bad_value = tmp_path / "bad.cfg"
    bad_value.write_text("cfo = fast\n")
    with pytest.raises(CliError, match="bad value for 'cfo'"):
        parse(["fig1", "--config", str(bad_value)])

    no_equals = tmp_path / "noeq.cfg"
    no_equals.write_text("just words\n")
    with pytest.raises(CliError, match="expected 'key = value'"):
        parse(["fig1", "--config", str(no_equals)])

    with pytest.raises(CliError, match="cannot read config file"):
        parse(["fig1", "--config", str(tmp_path / "missing.cfg")])


def test_config_file_error_exits_2(tmp_path, capsys):
    cfg = tmp_path / "bad.cfg"
    cfg.write_text("widgets = 3\n")
    assert cli.main(["fig1", "--config", str(cfg)]) == 2
    assert "unknown key" in capsys.readouterr().err


# ------------------------------------------------------------- formatting


def test_format_value():
    assert format_value(None) == ""
    assert format_value(True) == "1"
    assert format_value(False) == "0"
    assert format_value(7) == "7"
    assert format_value(np.int64(7)) == "7"
    assert format_value(10.0) == "10"
    assert format_value(0.1) == "0.10000000000000001"
    assert format_value(np.float64(0.5)) == "0.5"


def test_write_csv(tmp_path):
    path = tmp_path / "out.csv"
    write_csv(str(path), ("a", "b"), [(1, None), (0.1, True)],
              ["# note = x"])
    assert path.read_text() == ("# note = x\n"
                                "a,b\n"
                                "1,\n"
                                "0.10000000000000001,1\n")


def test_write_csv_empty_rows(tmp_path):
    path = tmp_path / "empty.csv"
    write_csv(str(path), ("a",), [], ["# m = 1"])
    assert path.read_text() == "# m = 1\na\n"


def test_write_csv_rejects_ragged_rows(tmp_path):
    with pytest.raises(ValueError, match="row width"):
        write_csv(str(tmp_path / "x.csv"), ("a", "b"), [(1,)], [])


# ----------------------------------------------------------- csv datasets


def test_fig2_dataset_layout(tmp_path):
    out = tmp_path / "f2.csv"
    argv = ["fig2", "--trials", "2", "--snr-min", "10", "--snr-max", "15",
            "--out", str(out)] + TINY_GRID_FLAGS
    assert cli.main(argv) == 0

    lines = out.read_text().splitlines()
    assert lines[0] == f"# tool-version = {__version__}"
    assert lines[1] == "# command = fig2"
    meta = [line for line in lines if line.startswith("# ")]
    for flag in FLAG_NAMES:
        assert any(line.startswith(f"# {flag} = ") for line in meta)
    assert "# crb-backend = closed_form" in meta

    header_index = len(meta)
    assert lines[header_index] == ",".join(cli._FIG2_COLUMNS)
    data = lines[header_index + 1:]
    assert len(data) == 2
    first = data[0].split(",")
    assert len(first) == len(cli._FIG2_COLUMNS)
    assert float(first[0]) == 10.0
    assert float(data[1].split(",")[0]) == 15.0
    # failure columns are integer counts
    assert first[7] == "0" and first[8] == "0"
    # every numeric cell round-trips
    assert all(np.isfinite(float(cell)) for cell in first)


def test_fig1_dataset_layout(tmp_path):
    out = tmp_path / "f1.csv"
    argv = ["fig1", "--trials", "3", "--snr-min", "0", "--snr-max", "10",
            "--out", str(out)]
    assert cli.main(argv) == 0
    lines = out.read_text().splitlines()
    meta = [line for line in lines if line.startswith("# ")]
    assert lines[len(meta)] == "snr_db,var_n_db,var_e_db"
    data = [line.split(",") for line in lines[len(meta) + 1:]]
    assert [row[0] for row in data] == ["0", "5", "10"]
    # residual variances fall with SNR on both routes
    assert float(data[0][1]) > float(data[2][1])
    assert float(data[0][2]) > float(data[2][2])


def test_crb_dataset_layout(tmp_path):
    out = tmp_path / "c.csv"
    argv = ["crb", "--trials", "3", "--snr-min", "10", "--snr-max", "20",
            "--snr-step", "10", "--out", str(out)]
    assert cli.main(argv) == 0
    lines = out.read_text().splitlines()
    meta = [line for line in lines if line.startswith("# ")]
    assert "# crb-backend = closed_form" in meta
    assert lines[len(meta)] == "snr_db,crb_cfo,crb_sfo,excluded"
    data = [line.split(",") for line in lines[len(meta) + 1:]]
    assert len(data) == 2
    assert all(row[3] == "0" for row in data)
    # each SNR point averages its own scenario draws, so the 10x-per-10dB
    # law holds only in expectation; the ordering is still strict
    assert float(data[0][1]) > float(data[1][1]) > 0.0
    assert float(data[0][2]) > float(data[1][2]) > 0.0


def csv_columns(path):
    """Data cells of a dataset by column name, as written."""
    lines = [line for line in path.read_text().splitlines()
             if not line.startswith("# ")]
    names = lines[0].split(",")
    cells = [line.split(",") for line in lines[1:]]
    return {name: [row[i] for row in cells] for i, name in enumerate(names)}


def test_crb_matches_fig2_crb_columns(tmp_path):
    """At one seed, trial count and SNR axis, crb.csv and fig2.csv carry
    the same CRB cells byte for byte."""
    shared = ["--trials", "4", "--seed", "7", "--snr-min", "5",
              "--snr-max", "30"]
    fig2, crb = tmp_path / "fig2.csv", tmp_path / "crb.csv"
    assert cli.main(["fig2", *shared, "--out", str(fig2)]
                    + TINY_GRID_FLAGS) == 0
    assert cli.main(["crb", *shared, "--out", str(crb)]) == 0
    fig2_cells, crb_cells = csv_columns(fig2), csv_columns(crb)
    assert len(crb_cells["snr_db"]) == 6
    for column in ("snr_db", "crb_cfo", "crb_sfo"):
        assert crb_cells[column] == fig2_cells[column]


def test_crb_all_singular_draws_leave_blank_cells(monkeypatch, tmp_path):
    """Every draw singular: blank bounds and excluded = trials, as fig2
    leaves its CRB cells, instead of aborting the sweep."""
    def dead_fisher(config, burst, cfo, noise_var):
        zeros = np.zeros(len(burst[0]))
        return zeros, zeros, zeros

    monkeypatch.setattr(harness, "fisher_rows", dead_fisher)
    out = tmp_path / "c.csv"
    assert cli.main(["crb", "--trials", "3", "--snr-min", "10",
                     "--snr-max", "15", "--out", str(out)]) == 0
    cells = csv_columns(out)
    assert cells["crb_cfo"] == cells["crb_sfo"] == ["", ""]
    assert cells["excluded"] == ["3", "3"]


@pytest.mark.parametrize("argv, columns", [
    (["crb", "--trials", "5", "--snr-min", "-2000", "--snr-max", "-2000"],
     {"crb_cfo": "5.2463949068087993e+195",
      "crb_sfo": "2.7836605869857201e+193", "excluded": "0"}),
    (["crb", "--trials", "5", "--snr-min", "3000", "--snr-max", "3000"],
     {"crb_cfo": "1.0747517142120941e-304",
      "crb_sfo": "5.0841468768994891e-307", "excluded": "0"}),
    (["fig2", "--trials", "3", "--snr-min", "2900", "--snr-max", "2900"],
     {"crb_cfo": "3.6762389284068919e-295",
      "crb_sfo": "1.7641086382313994e-297"}),
])
def test_crb_at_extreme_snr_is_finite(tmp_path, argv, columns):
    """Fisher entries near 1e-200 (at -2000 dB) or 1e300 (at 2900 dB and
    up) once gave a determinant that underflowed or overflowed, and every
    draw counted as singular with blank CRB cells."""
    out = tmp_path / "c.csv"
    assert cli.main([*argv, "--out", str(out)]) == 0
    cells = csv_columns(out)
    assert {name: cells[name] for name in columns} == {
        name: [value] for name, value in columns.items()}


def test_reruns_are_byte_identical(tmp_path):
    a, b = tmp_path / "a.csv", tmp_path / "b.csv"
    argv = ["fig1", "--trials", "3", "--snr-min", "0", "--snr-max", "10"]
    assert cli.main(argv + ["--out", str(a)]) == 0
    assert cli.main(argv + ["--out", str(b)]) == 0
    assert a.read_bytes() == b.read_bytes()


def test_metadata_reproduces_dataset(tmp_path):
    """A dataset can be regenerated byte for byte from its own header."""
    first, second = tmp_path / "a.csv", tmp_path / "b.csv"
    argv = ["fig1", "--trials", "4", "--snr-min", "5", "--snr-max", "15",
            "--seed", "99", "--cfo", "0.17", "--out", str(first)]
    assert cli.main(argv) == 0
    replay = ["fig1"] + metadata_flags(first) + ["--out", str(second)]
    assert cli.main(replay) == 0
    assert first.read_bytes() == second.read_bytes()


# ---------------------------------------------------------- trial command


def test_trial_reports_full_diagnostics(capsys):
    entries = trial_output(capsys, ["trial"])
    expected = {
        "snr_db", "noise_var", "channel_taps",
        "carrier_gain_abs_min", "carrier_gain_abs_max",
        "proposed_cost_at_truth", "proposed_cost_at_argmin",
        "proposed_cfo", "proposed_sfo", "residual_n_sq",
        "nguyenle_cost_at_truth", "nguyenle_cost_at_argmin",
        "nguyenle_cfo", "nguyenle_sfo", "residual_e_sq",
        "crb_cfo", "crb_sfo",
    }
    assert expected <= set(entries)
    assert entries["snr_db"] == "15"
    # nonzero offsets attenuate every carrier below unity
    gain_max = float(entries["carrier_gain_abs_max"])
    assert 0.0 < float(entries["carrier_gain_abs_min"]) <= gain_max < 1.0
    assert float(entries["proposed_cost_at_argmin"]) <= float(
        entries["proposed_cost_at_truth"])
    assert float(entries["crb_cfo"]) > 0.0


def test_trial_at_zero_offsets_has_vanishing_cost(capsys):
    entries = trial_output(capsys, ["trial", "--cfo", "0", "--sfo", "0",
                                    "--snr-min", "200", "--snr-max", "200"])
    assert float(entries["carrier_gain_abs_min"]) == 1.0
    assert float(entries["carrier_gain_abs_max"]) == 1.0
    assert float(entries["proposed_cost_at_truth"]) < 1e-12
    assert float(entries["nguyenle_cost_at_truth"]) < 1e-12
    assert float(entries["proposed_cfo"]) == 0.0
    assert float(entries["proposed_sfo"]) == 0.0


@pytest.mark.parametrize("sfo", ["-0.999999999", "0.99999999"])
def test_trial_runs_at_an_sfo_just_inside_the_bound(capsys, sfo):
    """No margin inside (-1, 1): a trial this close to either end runs and
    bounds both offsets (a CFO and a grid that keep the aliases off)."""
    entries = trial_output(capsys, ["trial", "--sfo", sfo, "--cfo", "0",
                                    "--grid-cfo-max", "1e-3"])
    assert float(entries["crb_cfo"]) > 0.0
    assert float(entries["crb_sfo"]) > 0.0


def test_trial_uses_snr_min_alone(capsys):
    """'trial' runs at --snr-min even above the default --snr-max, and
    ignores the sweep's --snr-max / --snr-step."""
    assert parse(["trial", "--snr-min", "20"]).experiment.snr_points_db \
        == (20.0,)
    entries = trial_output(capsys, ["trial", "--snr-min", "20"])
    assert entries["snr_db"] == "20"
    assert trial_output(capsys, ["trial", "--snr-min", "20", "--snr-max",
                                 "30", "--snr-step", "0"]) == entries
    assert trial_output(capsys, ["trial", "--snr-min", "5"]) == \
        trial_output(capsys, ["trial", "--snr-min", "5", "--snr-max", "5"])


# The printout's SHA-256 away from the default test_golden pins: the
# lowest and the highest default SNR point under other seeds, and an
# off-grid SNR with a negative CFO and SFO.
@pytest.mark.parametrize("flags, digest", [
    (["--seed", "1", "--snr-min", "0"],
     "a3d3a0bca674810031dce0a500b293149fd12455300009a4f32b4d8e4c1ca385"),
    (["--seed", "987654", "--snr-min", "30"],
     "6b55f9758e3434b98ffbd2d946dd7704d28ff0c70083fe941678fedd4a7d211e"),
    (["--seed", "42", "--snr-min", "7.5", "--cfo", "-0.1", "--sfo", "-3e-4"],
     "297551f50a672cd09d301c3a6f32fb0700e49267faeb4086c7407ae1a50e7779"),
])
def test_trial_printout_digests(capsys, flags, digest):
    assert cli.main(["trial", *flags]) == 0
    out = capsys.readouterr().out.encode("utf-8")
    assert hashlib.sha256(out).hexdigest() == digest


def swept_trial_zero(monkeypatch, cfg):
    """Trial 0's columns as the fig2 sweep reduces them."""
    captured = []
    real_reduce = harness._reduce

    def capture(chunks, snr_db, cfo, sfo):
        chunks = list(chunks)
        captured.extend(chunks)
        return real_reduce(chunks, snr_db, cfo, sfo)

    with monkeypatch.context() as patch:
        patch.setattr(harness, "_reduce", capture)
        harness.run_mse_sweep(replace(cfg, n_trials=1))
    (cols,) = captured
    assert cols.indices == (0,)
    return cols


@pytest.mark.parametrize("snr_db", ["5", "15", "30"])
def test_trial_prints_its_record(monkeypatch, capsys, snr_db):
    """The printout is that trial's row of the fig2 sweep's columns, digit
    for digit: the residuals are the values the fig1 sweep averages."""
    for seed in range(1, 11):
        argv = ["trial", "--seed", str(seed), "--snr-min", snr_db]
        entries = trial_output(capsys, argv)
        cols = swept_trial_zero(monkeypatch, parse(argv).experiment)
        assert not (np.isnan(cols.proposed.cfo[0])
                    or np.isnan(cols.nguyenle.cfo[0])
                    or cols.degenerate[0] or cols.singular[0])
        fields = {
            "proposed_cfo": cols.proposed.cfo,
            "proposed_sfo": cols.proposed.sfo,
            "proposed_cost_at_argmin": cols.proposed.cost,
            "nguyenle_cfo": cols.nguyenle.cfo,
            "nguyenle_sfo": cols.nguyenle.sfo,
            "nguyenle_cost_at_argmin": cols.nguyenle.cost,
            "residual_n_sq": cols.n_sq,
            "residual_e_sq": cols.e_sq,
            "crb_cfo": cols.crb_cfo,
            "crb_sfo": cols.crb_sfo,
        }
        for key, column in fields.items():
            assert entries[key] == format_value(column[0]), (seed, key)


def poison_first_r0_bin(monkeypatch, value):
    """Make every drawn observation carry ``value`` in its first R0 bin."""
    real_observe = harness._observe

    def poisoned(cfg, snr_db, draws, burst):
        spectra = real_observe(cfg, snr_db, draws, burst)
        spectra[:, 0, 0] = value
        return spectra

    monkeypatch.setattr(harness, "_observe", poisoned)


def test_trial_reports_degenerate_ratio(monkeypatch, capsys):
    poison_first_r0_bin(monkeypatch, 0.0)
    entries = trial_output(capsys, ["trial"])
    assert "nguyenle_failed" in entries
    assert "degenerate observation" in entries["nguyenle_failed"]
    assert "-26" in entries["nguyenle_failed"]
    assert "nguyenle_cfo" not in entries
    # the pair route and the bound still report
    assert "proposed_cfo" in entries
    assert "crb_cfo" in entries


def test_trial_reports_non_finite_surfaces(monkeypatch, capsys):
    poison_first_r0_bin(monkeypatch, np.nan)
    with np.errstate(invalid="ignore"):
        entries = trial_output(capsys, ["trial"])
    assert entries["proposed_failed"] == "non-finite cost surface"
    assert entries["nguyenle_failed"] == "non-finite cost surface"
    assert "proposed_cfo" not in entries and "nguyenle_cfo" not in entries
    assert "crb_cfo" in entries


# Runs ``trial`` once per flag set, in order, in one interpreter; a form
# feed line ends each printout.
_TRIALS_IN_ONE_PROCESS = """
import sys
from ofdm_sync_lab import cli
for flags in sys.argv[1:]:
    cli.main(["trial", *flags.split()])
    print("\\f", flush=True)
"""


def fresh_python(script, *args):
    """Standard output of ``script`` run with ``args`` in a fresh process."""
    src = str(Path(__file__).resolve().parents[1] / "src")
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(
        filter(None, (src, os.environ.get("PYTHONPATH")))))
    return subprocess.run(
        [sys.executable, "-c", script, *args], capture_output=True,
        text=True, env=env, timeout=120, check=True).stdout


def trial_printouts(*flag_sets):
    """``trial`` printouts of each flag set, run in one fresh process."""
    printouts = fresh_python(_TRIALS_IN_ONE_PROCESS, *flag_sets).split("\f\n")
    assert printouts[-1] == ""
    return printouts[:-1]


def test_signed_zero_offsets_share_cache_entries_safely():
    """-0.0 and 0.0 hash to one cache key, so whichever sign fills the
    synthesis and Fisher caches first serves the other: each printout
    must still equal the one of the same command alone."""
    neg, pos = "--cfo -0 --sfo -0", "--cfo 0 --sfo 0"
    alone = trial_printouts(neg) + trial_printouts(pos)
    assert trial_printouts(neg, pos) == alone
    assert trial_printouts(pos, neg) == alone[::-1]


# Runs a sweep twice in one interpreter, then prints the minor page faults
# of the second run and whether glibc took the sweeps' heap setting. The
# sweep is ``cli.main``'s fig1 or, in a process that never imports ``cli``,
# a library crb sweep of the default experiment.
_SWEEP_TWICE = """
import resource, sys
from ofdm_sync_lab import harness
if sys.argv[1] == "cli":
    from ofdm_sync_lab import cli
    argv = ["fig1", "--trials", "400", "--out", sys.argv[2]]
    sweep = lambda: cli.main(argv)
else:
    sweep = lambda: harness.run_crb_sweep(harness.make_experiment())
sweep()
before = resource.getrusage(resource.RUSAGE_SELF).ru_minflt
sweep()
print(resource.getrusage(resource.RUSAGE_SELF).ru_minflt - before,
      harness._retain_heap(), "ofdm_sync_lab.cli" in sys.modules)
"""


def test_repeated_sweep_reuses_freed_heap_pages(tmp_path):
    """Every sweep keeps freed heap pages, so a second sweep reuses the
    first one's chunk temporaries, run from cli.main or from the library:
    without it, glibc hands them back after every chunk and a second fig1
    faults about 4370 pages back in, a second library crb sweep about
    6860."""
    pytest.importorskip("resource")
    for caller, imports_cli in (("cli", "True"), ("library", "False")):
        faults, retained, imported = fresh_python(
            _SWEEP_TWICE, caller, str(tmp_path / "fig1.csv")).split()
        if retained != "True":
            pytest.skip("glibc's mallopt is not available")
        assert imported == imports_cli, caller
        assert int(faults) < 100, caller
