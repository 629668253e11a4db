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
Numeric flags take negative values in any spelling, exponent form
included (``--sfo -3e-4``).
"""

import argparse
import ctypes
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
from .ofdm_model import make_config, snr_stream_key

__all__ = ["main", "parse", "write_csv", "CliError", "CliInvocation"]


class CliError(Exception):
    """Usage-level error; reported on stderr with exit status 2."""


_COMMANDS = ("fig1", "fig2", "crb", "trial")

# (flag, type) in canonical metadata order.
_FIELDS = (
    ("n", int), ("k", int), ("cp", int),
    ("cfo", float), ("sfo", float), ("taps", int),
    ("snr-min", float), ("snr-max", float), ("snr-step", float),
    ("trials", int), ("seed", int),
    ("grid-cfo-step", float), ("grid-cfo-max", float),
    ("grid-sfo-step", float), ("grid-sfo-max", float),
)
_FIELD_TYPES = dict(_FIELDS)

_COMMON_DEFAULTS = {
    "n": 64, "k": 52, "cp": 16,
    "cfo": 0.212, "sfo": 0.000112, "taps": 5,
    "seed": 12345,
    "grid-cfo-step": 0.01, "grid-cfo-max": 0.5,
    "grid-sfo-step": 1e-5, "grid-sfo-max": 5e-4,
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
_FIG1_COLUMNS = ("snr_db", "var_n_db", "var_e_db")
_CRB_COLUMNS = ("snr_db", "crb_cfo", "crb_sfo", "excluded")


def format_value(value) -> str:
    """Render a cell: 17 significant digits for floats, blank for None."""
    if value is None:
        return ""
    if isinstance(value, (bool, np.bool_)):
        return str(int(value))
    if isinstance(value, (int, np.integer)):
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


def _build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="sync-lab",
        description="OFDM CFO/SFO estimator comparison datasets")
    parser.add_argument("command", choices=_COMMANDS)
    helps = {
        "n": "DFT size N",
        "k": "active subcarrier count K",
        "cp": "cyclic prefix length in samples",
        "cfo": "true carrier frequency offset (subcarrier spacings)",
        "sfo": "true sampling frequency offset (fractional)",
        "taps": "channel tap count",
        "snr-min": "first SNR point in dB (also the SNR used by 'trial')",
        "snr-max": "last SNR point in dB (ignored by 'trial')",
        "snr-step": "SNR step in dB (ignored by 'trial')",
        "trials": "Monte-Carlo trials per SNR point",
        "seed": "master seed for all substreams",
        "grid-cfo-step": "CFO lattice step",
        "grid-cfo-max": "CFO lattice half-range (0 pins the axis to 0)",
        "grid-sfo-step": "SFO lattice step",
        "grid-sfo-max": "SFO lattice half-range (0 pins the axis to 0)",
    }
    for flag, ftype in _FIELDS:
        parser.add_argument(f"--{flag}", type=ftype, help=helps[flag])
    parser.add_argument("--out", help="output CSV path")
    parser.add_argument("--config", help="key = value file applied between "
                                          "defaults and flags")
    return parser


def _attach_negative_values(argv) -> list:
    """Spell ``--flag -VALUE`` as ``--flag=-VALUE`` for numeric flags.

    argparse takes a dash-led token for an option unless it reads as a
    plain negative integer or decimal (``-3``, ``-0.5``), so without
    this ``--sfo -3e-4`` would leave the flag without a value.
    """
    numeric = {f"--{flag}" for flag, _ in _FIELDS}
    out = []
    for token in argv:
        if out and out[-1] in numeric and token.startswith("-") \
                and _is_number(token):
            out[-1] = f"{out[-1]}={token}"
        else:
            out.append(token)
    return out


def _is_number(text: str) -> bool:
    try:
        float(text)
    except ValueError:
        return False
    return True


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
        key = key.strip().replace("_", "-")
        value = value.strip()
        if key not in _FIELD_TYPES:
            raise CliError(f"{path}:{lineno}: unknown key {key!r}")
        try:
            entries[key] = _FIELD_TYPES[key](value)
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
    # More points than milli-dB keys from lo to last: two must share one.
    keys = snr_stream_key(last) - snr_stream_key(lo) + 1
    if not span < keys:
        raise CliError(f"snr-step {step} puts {span + 1:.15g} points on "
                       f"{keys} milli-dB keys from {lo:g} to {last:g} dB: "
                       f"points would share the random stream key")
    return tuple(lo + i * step for i in range(int(span) + 1))


def parse(argv) -> CliInvocation:
    """Resolve argv (defaults < config file < flags) into an invocation."""
    namespace = _build_parser().parse_args(_attach_negative_values(argv))
    command = namespace.command

    values = dict(_COMMON_DEFAULTS)
    values.update({k: v for k, v in _COMMAND_DEFAULTS[command].items()
                   if k != "out"})
    out = _COMMAND_DEFAULTS[command]["out"]

    if namespace.config is not None:
        values.update(_load_config_file(namespace.config))

    for flag, _ in _FIELDS:
        given = getattr(namespace, flag.replace("-", "_"))
        if given is not None:
            values[flag] = given
    if namespace.out is not None:
        out = namespace.out

    try:
        if command == "trial":
            snr_points = (values["snr-min"],)
        else:
            snr_points = _snr_axis(values["snr-min"], values["snr-max"],
                                   values["snr-step"])
        experiment = ExperimentConfig(
            ofdm=make_config(values["n"], values["k"], values["cp"]),
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
    lines = [f"# tool-version = {__version__}",
             f"# command = {invocation.command}"]
    for flag, _ in _FIELDS:
        lines.append(f"# {flag} = {format_value(invocation.values[flag])}")
    lines.extend(f"# {line}" for line in extra)
    return lines


def write_csv(path: str, columns, rows, metadata_lines) -> None:
    """Write a dataset with a ``#`` metadata header, deterministically.

    Floats render with 17 significant digits (exact round trip); None
    renders as an empty cell.
    """
    out = []
    out.extend(metadata_lines)
    out.append(",".join(columns))
    for row in rows:
        if len(row) != len(columns):
            raise ValueError(
                f"row width {len(row)} does not match {len(columns)} columns")
        out.append(",".join(format_value(v) for v in row))
    with open(path, "w", encoding="utf-8", newline="\n") as fh:
        fh.write("\n".join(out) + "\n")


def _run_fig1(invocation: CliInvocation) -> int:
    result = run_noise_variance_sweep(invocation.experiment)
    rows = [(row.snr_db, row.var_n_db, row.var_e_db)
            for row in result.rows]
    write_csv(invocation.out, _FIG1_COLUMNS, rows,
              _metadata_lines(invocation))
    return 0


def _crb_backend_lines(result) -> list:
    lines = [f"crb-backend = {result.crb_backend}"]
    if result.crb_discrepancy:
        lines.extend(result.crb_discrepancy.splitlines())
    return lines


def _run_fig2(invocation: CliInvocation) -> int:
    result = run_mse_sweep(invocation.experiment)
    rows = [(row.snr_db,
             row.mse_cfo_proposed, row.mse_cfo_nguyenle, row.crb_cfo,
             row.mse_sfo_proposed, row.mse_sfo_nguyenle, row.crb_sfo,
             row.fail_proposed, row.fail_nguyenle)
            for row in result.rows]
    write_csv(invocation.out, _FIG2_COLUMNS, rows,
              _metadata_lines(invocation, _crb_backend_lines(result)))
    return 0


def _run_crb(invocation: CliInvocation) -> int:
    result = run_crb_sweep(invocation.experiment)
    rows = [(row.snr_db, row.crb_cfo, row.crb_sfo, row.crb_excluded)
            for row in result.rows]
    write_csv(invocation.out, _CRB_COLUMNS, rows,
              _metadata_lines(invocation, _crb_backend_lines(result)))
    return 0


def _run_one_trial(invocation: CliInvocation) -> int:
    cfg = invocation.experiment
    diag = inspect_trial(cfg, cfg.snr_points_db[0], 0)
    cols = diag.columns

    def emit(key, value):
        print(f"{key} = "
              f"{value if isinstance(value, str) else format_value(value)}")

    def emit_estimate(name, found, cost_at_truth) -> bool:
        if 0 in found.failures:
            emit(f"{name}_failed", found.failures[0])
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


def _retain_heap() -> bool:
    """Have glibc keep freed heap pages (M_TRIM_THRESHOLD = -1 and
    M_MMAP_THRESHOLD = -3, both at 32 MB), so each chunk reuses the last
    one's pages: by default glibc unmaps freed blocks over 128 KB or trims
    them off the heap top, and the next chunk faults them in again. False
    where ``mallopt`` is missing or refuses."""
    try:
        mallopt = ctypes.CDLL(None).mallopt
    except (AttributeError, OSError, TypeError):
        return False
    return all(mallopt(option, 32 << 20) for option in (-1, -3))


def main(argv=None) -> int:
    if argv is None:
        argv = sys.argv[1:]
    try:
        invocation = parse(list(argv))
        _retain_heap()
        runner = {"fig1": _run_fig1, "fig2": _run_fig2, "crb": _run_crb,
                  "trial": _run_one_trial}[invocation.command]
        return runner(invocation)
    except CliError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())
