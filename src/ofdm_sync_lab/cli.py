"""Command-line interface producing the figure datasets as CSV.

Commands
--------
fig1   residual-variance sweep (mean |N|^2 and |E|^2 in dB per SNR)
fig2   estimator MSE sweep with mean CRB columns
crb    ensemble-averaged CRBs per SNR
trial  one seeded trial end to end, printed for debugging

Option precedence is built-in defaults, then an optional ``--config``
file of ``key = value`` lines (``#`` starts a comment), then flags.
Every resolved experiment field is echoed in the CSV ``#`` metadata
header with flag spelling, so a dataset is reproducible from its own
header. Each command parses its options, calls one harness function
(``run_noise_variance_sweep``, ``run_mse_sweep``, ``run_crb_sweep`` or
``inspect_trial``) and formats what it returns; every trial decision is
the harness's. Output is deterministic for a given configuration.
:func:`parse` reads argv in one loop, without argparse's costly parser:
the command anywhere, each option as ``--flag VALUE``, ``--flag=VALUE``
or a unique prefix, its last value winning, even one led by ``-``. A
malformed line exits 2 with one ``error:`` line; ``--help`` exits 0.
"""

import gc
import os
import sys

import numpy as np

from . import __version__
from .estimators import make_grid
from .harness import (
    ExperimentConfig,
    inspect_trial,
    run_crb_sweep,
    run_mse_sweep,
    run_noise_variance_sweep,
)
from .ofdm_model import OfdmConfig, snr_stream_key

__all__ = ["main", "parse", "write_csv", "CliError", "CliInvocation"]


class CliError(Exception):
    """Usage-level error; reported on stderr with exit status 2."""


# Every option, in the order --help lists them: (type, shared default,
# help). The int and float options are the experiment fields, the str ones
# not: a --config file sets only fields, and the CSV header echoes every
# field in this order. A None default is each command's own.
_OPTIONS = {
    "n": (int, 64, "DFT size N"),
    "k": (int, 52, "active subcarrier count K"),
    "cp": (int, 16, "cyclic prefix length in samples"),
    "cfo": (float, 0.212,
            "true carrier frequency offset (subcarrier spacings)"),
    "sfo": (float, 0.000112, "true sampling frequency offset (fractional)"),
    "taps": (int, 5, "channel tap count"),
    "snr-min": (float, None,
                "first SNR point in dB (also the SNR used by 'trial')"),
    "snr-max": (float, None, "last SNR point in dB (ignored by 'trial')"),
    "snr-step": (float, None, "SNR step in dB (ignored by 'trial')"),
    "trials": (int, None, "Monte-Carlo trials per SNR point"),
    "seed": (int, 12345, "master seed for all substreams"),
    "grid-cfo-step": (float, 0.01, "CFO lattice step"),
    "grid-cfo-max": (float, 0.5,
                     "CFO lattice half-range (0 pins the axis to 0)"),
    "grid-sfo-step": (float, 1e-5, "SFO lattice step"),
    "grid-sfo-max": (float, 5e-4,
                     "SFO lattice half-range (0 pins the axis to 0)"),
    "out": (str, None, "output CSV path"),
    "config": (str, None,
               "key = value file applied between defaults and flags"),
    "help": (str, None, "show this help and exit (also -h)"),
}

_COMMAND_DEFAULTS = {
    "fig1": {"snr-min": 0.0, "snr-max": 30.0, "snr-step": 5.0,
             "trials": 2000, "out": "fig1.csv"},
    "fig2": {"snr-min": 5.0, "snr-max": 30.0, "snr-step": 5.0,
             "trials": 500, "out": "fig2.csv"},
    "crb": {"snr-min": 0.0, "snr-max": 30.0, "snr-step": 5.0,
            "trials": 500, "out": "crb.csv"},
    "trial": {"snr-min": 15.0, "snr-max": 15.0, "snr-step": 5.0,
              "trials": 1, "out": None},
}

_FIG2_COLUMNS = (
    "snr_db",
    "mse_cfo_proposed", "mse_cfo_nguyenle", "crb_cfo",
    "mse_sfo_proposed", "mse_sfo_nguyenle", "crb_sfo",
    "fail_proposed", "fail_nguyenle",
)

# The header line of fig2 and crb that names their bound: the closed-form
# Fisher matrix, whose agreement with the numeric oracle the tests hold.
_CRB_BACKEND_LINE = ("crb-backend = closed_form",)

# Most points an SNR axis may hold; the axis is checked before its tuple
# is built, which at a million points costs about 60 MB.
_MAX_SNR_POINTS = 10_000


def format_value(value) -> str:
    """Render a cell: 17 significant digits for floats, blank for None."""
    if value is None:
        return ""
    if isinstance(value, (int, np.integer, np.bool_)):
        return str(int(value))
    return format(float(value), ".17g")


class CliInvocation:
    """Resolved command plus the experiment it describes."""

    def __init__(self, command: str, experiment: ExperimentConfig,
                 values: dict, out: str | None):
        self.command = command
        self.experiment = experiment
        self.values = values
        self.out = out


def _option(token: str) -> str:
    """The option that ``-h``, ``--name`` or a unique prefix of it names."""
    key = "help" if token == "-h" else token[2:] if token[:2] == "--" else ""
    matches = [key] if key in _OPTIONS else [
        name for name in _OPTIONS if key and name.startswith(key)]
    if not matches:
        raise CliError(f"unrecognized option {token}")
    if len(matches) > 1:
        raise CliError(f"ambiguous option {token}: could match "
                       + ", ".join(f"--{name}" for name in matches))
    return matches[0]


def _load_config_file(path: str) -> dict:
    try:
        with open(path, "r", encoding="utf-8") as fh:
            lines = fh.readlines()
    except OSError as exc:
        raise CliError(f"cannot read config file {path}: {exc}") from exc
    entries = {}
    for lineno, raw in enumerate(lines, 1):
        line = raw.split("#", 1)[0].strip()
        if not line:
            continue
        if "=" not in line:
            raise CliError(
                f"{path}:{lineno}: expected 'key = value', got {raw.strip()!r}")
        key, _, value = line.partition("=")
        key, value = key.strip().replace("_", "-"), value.strip()
        if _OPTIONS.get(key, (str,))[0] is str:
            raise CliError(f"{path}:{lineno}: unknown key {key!r}")
        try:
            entries[key] = _OPTIONS[key][0](value)
        except ValueError as exc:
            raise CliError(
                f"{path}:{lineno}: bad value for {key!r}: {value!r}") from exc
    return entries


def _snr_axis(lo: float, hi: float, step: float) -> tuple:
    if not np.isfinite([lo, hi, step]).all():
        raise CliError(
            f"snr-min, snr-max and snr-step must be finite, got "
            f"{lo}, {hi}, {step}")
    if step <= 0:
        raise CliError(f"snr-step must be positive, got {step}")
    if hi < lo:
        raise CliError(f"snr-max ({hi}) is below snr-min ({lo})")
    span = np.floor((hi - lo) / step + 1e-9)
    last = lo + span * step if np.isfinite(span) else hi
    # Each point's random streams are keyed by its milli-dB integer.
    for flag, value in (("snr-min", lo), ("snr-max", last)):
        if not abs(value) < np.finfo(float).max / 1000.0:
            raise CliError(f"{flag} {value:g} dB has no milli-dB random "
                           f"stream key")
    # More points than milli-dB keys from lo to last: two must share one.
    keys = snr_stream_key(last) - snr_stream_key(lo) + 1
    if not span < keys:
        raise CliError(f"snr-step {step} puts {span + 1:.15g} points on "
                       f"{keys} milli-dB keys from {lo:g} to {last:g} dB: "
                       f"points would share the random stream key")
    if not span < _MAX_SNR_POINTS:
        raise CliError(f"snr axis from {lo:g} to {hi:g} dB at step {step:g} "
                       f"has {span + 1:.15g} points, more than "
                       f"{_MAX_SNR_POINTS}")
    return tuple(lo + i * step for i in range(int(span) + 1))


def parse(argv) -> CliInvocation:
    """Resolve argv (defaults < config file < flags) into an invocation;
    each value is converted as it is read."""
    commands, given = [], {}
    tokens = iter(argv)
    for token in tokens:
        if not token.startswith("-"):
            commands.append(token)
            continue
        name, has_value, value = token.partition("=")
        name = _option(name)
        if name == "help":
            print(f"usage: sync-lab {{{','.join(_COMMAND_DEFAULTS)}}} "
                  f"[--option VALUE ...]\n\nOFDM CFO/SFO estimator comparison"
                  f" datasets\n\noptions (--option VALUE, --option=VALUE or a"
                  f" unique prefix):", *(f"  --{name:<14} {text}" for name,
                                         (_, _, text) in _OPTIONS.items()),
                  sep="\n")
            raise SystemExit(0)
        if not has_value:
            value = next(tokens, None)
            if value is None:
                raise CliError(f"--{name} expects a value")
        convert = _OPTIONS[name][0]
        try:
            given[name] = convert(value)
        except ValueError:
            raise CliError(f"--{name}: invalid {convert.__name__} value "
                           f"{value!r}") from None
    if len(commands) != 1 or commands[0] not in _COMMAND_DEFAULTS:
        raise CliError(f"expected one command of "
                       f"{', '.join(_COMMAND_DEFAULTS)}, got "
                       f"{' '.join(commands) or 'none'}")
    command = commands[0]

    values = {name: default for name, (kind, default, _) in _OPTIONS.items()
              if kind is not str} | _COMMAND_DEFAULTS[command]
    out = given.pop("out", values.pop("out"))
    if "config" in given:
        values.update(_load_config_file(given.pop("config")))
    values.update(given)

    try:
        if command == "trial":
            snr_points = (values["snr-min"],)
        else:
            snr_points = _snr_axis(values["snr-min"], values["snr-max"],
                                   values["snr-step"])
        experiment = ExperimentConfig(
            ofdm=OfdmConfig(values["n"], values["k"], values["cp"]),
            cfo=values["cfo"], sfo=values["sfo"], n_taps=values["taps"],
            snr_points_db=snr_points,
            n_trials=values["trials"], master_seed=values["seed"],
            grid=make_grid(values["grid-cfo-step"], values["grid-cfo-max"],
                           values["grid-sfo-step"], values["grid-sfo-max"]),
        )
    except ValueError as exc:
        raise CliError(str(exc)) from exc
    return CliInvocation(command, experiment, values, out)


def _metadata_lines(invocation: CliInvocation, extra=()) -> list:
    return [f"# tool-version = {__version__}",
            f"# command = {invocation.command}",
            *(f"# {name} = {format_value(invocation.values[name])}"
              for name, (kind, _, _) in _OPTIONS.items() if kind is not str),
            *(f"# {line}" for line in extra)]


def write_csv(path: str, columns, rows, metadata_lines) -> None:
    """Write a dataset with a ``#`` metadata header, deterministically.

    Floats render with 17 significant digits (exact round trip); None
    renders as an empty cell.
    """
    out = [*metadata_lines, ",".join(columns)]
    for row in rows:
        if len(row) != len(columns):
            raise ValueError(
                f"row width {len(row)} does not match {len(columns)} columns")
        out.append(",".join(format_value(v) for v in row))
    with open(path, "w", encoding="utf-8", newline="\n") as fh:
        fh.write("\n".join(out) + "\n")


def _run_sweep(invocation: CliInvocation) -> int:
    # Per sweep command: the harness sweep, the CSV columns mapped to the
    # SweepRow field behind each, and the extra header lines. Built per
    # call, so a rebinding of a sweep's name (perfbench's tracer) holds.
    sweep, columns, extra = {
        "fig1": (run_noise_variance_sweep,
                 {name: name for name in ("snr_db", "var_n_db", "var_e_db")},
                 ()),
        "fig2": (run_mse_sweep, {name: name for name in _FIG2_COLUMNS},
                 _CRB_BACKEND_LINE),
        "crb": (run_crb_sweep, {"snr_db": "snr_db", "crb_cfo": "crb_cfo",
                                "crb_sfo": "crb_sfo",
                                "excluded": "crb_excluded"},
                _CRB_BACKEND_LINE),
    }[invocation.command]
    rows = [[getattr(row, field) for field in columns.values()]
            for row in sweep(invocation.experiment).rows]
    write_csv(invocation.out, tuple(columns), rows,
              _metadata_lines(invocation, extra))
    return 0


def _run_one_trial(invocation: CliInvocation) -> int:
    cfg = invocation.experiment
    diag = inspect_trial(cfg, cfg.snr_points_db[0], 0)
    cols = diag.columns

    def emit(key, value):
        print(f"{key} = "
              f"{value if isinstance(value, str) else format_value(value)}")

    def emit_estimate(name, found, cost_at_truth) -> bool:
        if name in diag.failures:
            emit(f"{name}_failed", diag.failures[name])
            return False
        emit(f"{name}_cost_at_truth", cost_at_truth)
        emit(f"{name}_cost_at_argmin", found.cost[0])
        emit(f"{name}_cfo", found.cfo[0])
        emit(f"{name}_sfo", found.sfo[0])
        return True

    emit("snr_db", diag.snr_db)
    emit("noise_var", diag.noise_var)
    taps = ", ".join(
        f"{format_value(t.real)}{'+' if t.imag >= 0 else '-'}"
        f"{format_value(abs(t.imag))}j" for t in diag.channel_taps)
    emit("channel_taps", f"[{taps}]")
    emit("carrier_gain_abs_min", diag.carrier_gain_abs_min)
    emit("carrier_gain_abs_max", diag.carrier_gain_abs_max)
    emit_estimate("proposed", cols.proposed, diag.proposed_cost_at_truth)
    emit("residual_n_sq", cols.n_sq[0])
    if emit_estimate("nguyenle", cols.nguyenle, diag.nguyenle_cost_at_truth):
        emit("residual_e_sq", cols.e_sq[0])
    if cols.singular[0]:
        emit("crb_failed", "singular information matrix")
    else:
        emit("crb_cfo", cols.crb_cfo[0])
        emit("crb_sfo", cols.crb_sfo[0])
    return 0


def _check_out(path: str) -> None:
    """Fail before any sweep on an output path that cannot be written."""
    directory = os.path.dirname(path) or os.curdir
    if os.path.isdir(path) or not os.path.basename(path):
        raise CliError(f"--out {path} names a directory, not a file")
    if not os.path.isdir(directory):
        raise CliError(f"--out {path}: no directory {directory}")
    if not os.access(path if os.path.exists(path) else directory, os.W_OK):
        raise CliError(f"--out {path} is not writable")


def main(argv=None) -> int:
    if argv is None:
        argv = sys.argv[1:]
    # Import's objects sit out the run's collections, so one that import
    # left pending scans only the run's own objects.
    gc.freeze()
    try:
        invocation = parse(list(argv))
        if invocation.out is not None:
            _check_out(invocation.out)
        if invocation.command == "trial":
            return _run_one_trial(invocation)
        return _run_sweep(invocation)
    except CliError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    finally:
        gc.unfreeze()


if __name__ == "__main__":
    sys.exit(main())
