"""Golden-dataset gate: the SHA-256 of reduced-size fig1/fig2/crb CSVs
and of the default ``trial`` printout.

Criterion 7 only compares reruns of the same code; these digests pin the
dataset bytes across versions, so a change that moves any number (a
rounding change in a kernel, a reordered sum, a re-keyed random stream)
fails here. A deliberate dataset change updates the digests in the same
commit and says so in CHANGES.md.
"""

import hashlib

import pytest

import ofdm_sync_lab.cli as cli

DATASETS = {
    "fig2": (["--trials", "25"],
             "c5bb9b7681ed96eb3f4643ce4a947fd029d9bef63ab6856869f159a3d00b0071"),
    "fig1": (["--trials", "50"],
             "243d2573e44476e54fa6871018f68e8c03dc4835ae39e56f41105a7ae40fb7d7"),
    "crb": (["--trials", "20"],
            "e11e6b2beee3ba7b71010d03de7c5307fa04aae5a9317bf95bc3b3fd4fc34748"),
}

TRIAL_DIGEST = \
    "1d0182f1a6468156825fb8cbc6c6c95d1316f33169b9e14d3ef6e62e57f63e52"


def sha256(data: bytes) -> str:
    return hashlib.sha256(data).hexdigest()


@pytest.mark.parametrize("command", sorted(DATASETS))
def test_dataset_digest(command, tmp_path):
    flags, digest = DATASETS[command]
    out = tmp_path / f"{command}.csv"
    assert cli.main([command, *flags, "--out", str(out)]) == 0
    assert sha256(out.read_bytes()) == digest


def test_trial_printout_digest(capsys):
    assert cli.main(["trial"]) == 0
    assert sha256(capsys.readouterr().out.encode("utf-8")) == TRIAL_DIGEST
