"""Output checks for the lab's CSV datasets.

Every check here holds for any seed at the benchmark's sizes, by a wide
margin, so a failure points at the program and not at the draw:

* the ``#`` header echoes the command and the seed;
* the column set and the row count (one row per SNR point) match;
* fig2: every MSE column is at least its mean CRB;
* fig1: ``var_e_db`` exceeds ``var_n_db`` in every row;
* crb: both bounds are positive and strictly decreasing in SNR.
"""

import hashlib
import math

COLUMNS = {
    "fig1": ("snr_db", "var_n_db", "var_e_db"),
    "fig2": ("snr_db",
             "mse_cfo_proposed", "mse_cfo_nguyenle", "crb_cfo",
             "mse_sfo_proposed", "mse_sfo_nguyenle", "crb_sfo",
             "fail_proposed", "fail_nguyenle"),
    "crb": ("snr_db", "crb_cfo", "crb_sfo", "excluded"),
}


class CheckError(Exception):
    """The dataset breaks a check; the message says which."""


def digest(data: bytes) -> str:
    return hashlib.sha256(data).hexdigest()


def parse_csv(text: str):
    """Split a dataset into its ``key = value`` header and typed rows."""
    header = {}
    lines = text.splitlines()
    body = []
    for line in lines:
        if line.startswith("#"):
            key, sep, value = line[1:].partition("=")
            if not sep:
                raise CheckError(f"malformed header line {line!r}")
            header[key.strip()] = value.strip()
        else:
            body.append(line)
    if not body:
        raise CheckError("no column line")
    columns = tuple(body[0].split(","))
    rows = []
    for line in body[1:]:
        cells = line.split(",")
        if len(cells) != len(columns):
            raise CheckError(f"row {line!r} has {len(cells)} cells, "
                             f"expected {len(columns)}")
        try:
            rows.append({c: float(v) if v else None
                         for c, v in zip(columns, cells)})
        except ValueError as exc:
            raise CheckError(f"non-numeric cell in {line!r}") from exc
    return header, columns, rows


def _require(ok, message):
    if not ok:
        raise CheckError(message)


def _check_fig2(rows):
    for row in rows:
        for param in ("cfo", "sfo"):
            crb = row[f"crb_{param}"]
            _require(crb is not None and crb > 0,
                     f"snr {row['snr_db']}: crb_{param} missing or <= 0")
            for method in ("proposed", "nguyenle"):
                mse = row[f"mse_{param}_{method}"]
                _require(mse is not None and mse >= crb,
                         f"snr {row['snr_db']}: mse_{param}_{method} "
                         f"{mse} below crb_{param} {crb}")


def _check_fig1(rows):
    for row in rows:
        n_db, e_db = row["var_n_db"], row["var_e_db"]
        _require(n_db is not None and e_db is not None and e_db > n_db,
                 f"snr {row['snr_db']}: var_e_db {e_db} not above "
                 f"var_n_db {n_db}")


def _check_crb(rows):
    for param in ("crb_cfo", "crb_sfo"):
        values = [row[param] for row in rows]
        _require(all(v is not None and v > 0 and math.isfinite(v)
                     for v in values), f"{param} not positive: {values}")
        _require(all(b < a for a, b in zip(values, values[1:])),
                 f"{param} not strictly decreasing in SNR: {values}")


_INVARIANTS = {"fig1": _check_fig1, "fig2": _check_fig2, "crb": _check_crb}


def check_dataset(data: bytes, command: str, seed: int, snr_points,
                  expect_digest: str | None = None) -> str:
    """Check one dataset; return its SHA-256 or raise :class:`CheckError`."""
    found = digest(data)
    if expect_digest is not None and found != expect_digest:
        raise CheckError(f"sha256 {found} differs from pinned "
                         f"{expect_digest}")
    header, columns, rows = parse_csv(data.decode("utf-8"))
    _require(header.get("command") == command,
             f"header command {header.get('command')!r} != {command!r}")
    _require(header.get("seed") == str(seed),
             f"header seed {header.get('seed')!r} != {seed}")
    _require(columns == COLUMNS[command],
             f"columns {columns} != {COLUMNS[command]}")
    _require(len(rows) == len(snr_points),
             f"{len(rows)} rows for {len(snr_points)} SNR points")
    _require([row["snr_db"] for row in rows] == [float(s) for s in snr_points],
             "snr_db column does not match the SNR axis")
    _INVARIANTS[command](rows)
    return found
