"""The random streams against numpy's own: the package's vectorized
PCG64 step against numpy's raw words, its pick rule against
``Generator.integers``, its stream derivation against ``SeedSequence``
seeding, its PCG64 states and C fill against ``Generator.standard_normal``,
the PCG64 C struct layout it writes, and normals pinned to literals.

The fill symbol and the struct layout are numpy internals that no release
promises to keep, and NEP 19 keeps only the raw stream stable, so this
file alone also runs under the newest numpy release, beside the pinned
one. The other tests share its strategies and ``oracle_stream``.
"""

import hashlib
import os
import subprocess
import sys
from pathlib import Path

import numpy as np
import numpy.testing as npt
import pytest
from hypothesis import example, given, settings, strategies as st

from ofdm_sync_lab import ofdm_model
from reference import SeedWords, derive_rng


def oracle_stream(*keys):
    """numpy's own seeding of a key path: each int masked to 64 bits, each
    str its SHA-256 digest's first 8 bytes, big-endian."""
    words = [int.from_bytes(hashlib.sha256(k.encode("utf-8")).digest()[:8],
                            "big") if isinstance(k, str)
             else k & (2 ** 64 - 1) for k in keys]
    return np.random.Generator(
        np.random.PCG64(np.random.SeedSequence(words)))


MASTER_SEEDS = st.one_of(
    st.sampled_from([0, 1, 12345, 2 ** 32 - 1, 2 ** 32, 2 ** 64 - 1,
                     2 ** 64, 2 ** 64 + 5, -1, -12345, -(2 ** 63)]),
    st.integers(-(2 ** 70), 2 ** 70))
# SNR keys of both signs, 0 among them, and the str key that
# tests/test_crb.py draws its extreme-experiment Fisher scenarios under.
STREAM_KEYS = st.one_of(st.sampled_from([0, -7500, 15000, "crb-backend-probe"]),
                        st.integers(-(2 ** 63), 2 ** 63 - 1))
LABELS = st.sampled_from(("training", "channel", "noise0", "noise1"))
TRIAL_INDICES = st.lists(st.integers(0, 2 ** 32 - 1), max_size=4).map(
    lambda extra: [0, 2 ** 32 - 1, *extra])


@settings(max_examples=60, deadline=None, database=None)
@given(seed=MASTER_SEEDS, key=STREAM_KEYS, label=LABELS,
       trials=TRIAL_INDICES)
@example(seed=12345, key=-7500, label="noise1", trials=[0, 2 ** 32 - 1])
@example(seed=2 ** 64, key="crb-backend-probe", label="training",
         trials=[0, 2 ** 32 - 1, 1])
def test_derived_states_match_numpy_seeding(seed, key, label, trials):
    """Every trial's seeded generator has the state and the first draws of
    a fresh PCG64(SeedSequence(words)), bit for bit, in one pass or one
    trial at a time, and via derive_rng."""
    table = ofdm_model._derive_tables(seed, (key,), trials, (label,))[label]
    assert table.shape == (len(trials), 4) and table.dtype == np.uint64
    for row, t in enumerate(trials):
        npt.assert_array_equal(
            ofdm_model._derive_tables(seed, (key,), [t], (label,))[label][0],
            table[row])
        oracle = oracle_stream(seed, key, t, label)
        rng = np.random.Generator(np.random.PCG64(
            SeedWords(table[row])))
        assert rng.bit_generator.state == oracle.bit_generator.state
        assert derive_rng(seed, key, t, label).bit_generator.state \
            == oracle.bit_generator.state
        npt.assert_array_equal(rng.integers(0, 4, 52),
                               oracle.integers(0, 4, 52))
        npt.assert_array_equal(rng.standard_normal(64),
                               oracle.standard_normal(64))


@settings(max_examples=40, deadline=None, database=None)
@given(seed=MASTER_SEEDS,
       keys=st.lists(STREAM_KEYS, min_size=1, max_size=5, unique=True).map(
           lambda keys: [0, -5000, 5000, "crb-backend-probe", *keys]),
       labels=st.lists(LABELS, min_size=1, max_size=4, unique=True),
       trials=st.one_of(st.just([7]), TRIAL_INDICES))
@example(seed=12345, keys=[-5000, 0, 5000, "crb-backend-probe"],
         labels=["training", "channel", "noise0", "noise1"], trials=[0])
@example(seed=1, keys=[0, -5000, 5000, "crb-backend-probe", 2 ** 40],
         labels=["channel"], trials=[0, 2 ** 32 - 1, 1])
def test_multi_key_tables_match_derive_states(seed, keys, labels, trials):
    """Tables of several stream keys in one call, keys of one word (0 dB
    and up) and of two (below 0 dB, and a str key) among them,
    hold each key's table derived alone in its block of rows, at one trial
    and at many."""
    keys = list(dict.fromkeys(keys))
    tables = ofdm_model._derive_tables(seed, keys, trials, labels)
    assert sorted(tables, key=labels.index) == labels
    for label in labels:
        table = tables[label]
        assert table.shape == (len(keys) * len(trials), 4)
        assert table.dtype == np.uint64 and table.flags.c_contiguous
        for s, key in enumerate(keys):
            npt.assert_array_equal(
                table[s * len(trials):(s + 1) * len(trials)],
                ofdm_model._derive_tables(seed, (key,), trials,
                                          (label,))[label])


# The words of _derive_tables(12345, (15000,), [0], ("channel",)), written out
# so that only numpy's Generator.standard_normal is under test, and the
# first normals it draws from them under numpy 2.4.6.
PINNED_SEED_ROW = [0x3A780CFB11C8F9D3, 0x006BA928412C934E,
                   0x8314FA376704B51F, 0x35FA48B9AA5AF008]
PINNED_NORMALS = ("0x1.be0dc7d704814p-7", "-0x1.ab99f49e172aep+0",
                  "0x1.27509dd011422p+0", "0x1.c07723254e2b4p-3",
                  "-0x1.fef48cd12b38ep-1", "0x1.db558c857d6f6p-1")


def test_standard_normal_draws_are_pinned():
    """Channel and noise draws go through Generator.standard_normal,
    which numpy's NEP 19 does not keep stable across releases; a numpy
    that draws other normals from the same PCG64 state fails here."""
    row = np.array(PINNED_SEED_ROW, dtype=np.uint64)
    rng = np.random.Generator(np.random.PCG64(SeedWords(row)))
    drawn = rng.standard_normal(len(PINNED_NORMALS))
    assert [float(v).hex() for v in drawn] == list(PINNED_NORMALS)


SEED_ROWS = st.lists(st.lists(st.integers(0, 2 ** 64 - 1), min_size=4,
                              max_size=4), min_size=1, max_size=40)


def _integers_oracle(words, n_active):
    """``Generator.integers(0, 4, K)`` of a fresh PCG64 seeded with one row."""
    return np.random.Generator(np.random.PCG64(
        SeedWords(words))).integers(0, 4, n_active)


@settings(max_examples=80, deadline=None, database=None)
@given(rows=SEED_ROWS, half=st.integers(1, 160))
@example(rows=[[0] * 4], half=1)
@example(rows=[[2 ** 64 - 1] * 4], half=26)
@example(rows=[[0] * 4, [2 ** 64 - 1] * 4, [0, 2 ** 64 - 1, 0, 1]],
         half=128)
def test_qpsk_picks_match_generator_integers(rows, half):
    """The picks read from raw PCG64 words are, row for row, the numbers
    ``Generator.integers(0, 4, K)`` draws from the same seed."""
    table = np.array(rows, dtype=np.uint64)
    picks = ofdm_model._qpsk_picks(table, 2 * half)
    assert picks.shape == (len(rows), 2 * half)
    for row, words in zip(picks, table):
        npt.assert_array_equal(row, _integers_oracle(words, 2 * half))


@settings(max_examples=80, deadline=None, database=None)
@given(rows=SEED_ROWS, n=st.integers(1, 300))
@example(rows=[[0] * 4], n=1)
@example(rows=[[2 ** 64 - 1] * 4], n=300)
@example(rows=[[0] * 4, [2 ** 64 - 1] * 4, [0, 2 ** 64 - 1, 2 ** 64 - 1, 0],
               [2 ** 64 - 1, 0, 0, 2 ** 64 - 1]], n=26)
def test_pcg64_raw_matches_numpy_random_raw(rows, n):
    """The vectorized 128-bit step draws, row for row, the raw words of
    numpy's PCG64 seeded from the same words, which NEP 19 keeps stable."""
    table = np.array(rows, dtype=np.uint64)
    raw = ofdm_model._pcg64_raw(table, n)
    assert raw.shape == (len(rows), n) and raw.dtype == np.uint64
    for row, words in zip(raw, table):
        npt.assert_array_equal(
            row, np.random.PCG64(SeedWords(words)).random_raw(n))


@settings(max_examples=80, deadline=None, database=None)
@given(rows=SEED_ROWS)
@example(rows=[[0] * 4])
@example(rows=[[2 ** 64 - 1] * 4])
@example(rows=[[0] * 4, [2 ** 64 - 1] * 4, [0, 2 ** 64 - 1, 2 ** 64 - 1, 0],
               [2 ** 64 - 1, 0, 0, 2 ** 64 - 1]])
def test_pcg64_states_match_numpy_seeding(rows):
    """Each row's [state_lo, state_hi, inc_lo, inc_hi] words are the
    state numpy's PCG64 seeds from the same words."""
    table = np.array(rows, dtype=np.uint64)
    states = ofdm_model._pcg64_states(table)
    assert states.shape == (len(rows), 4) and states.dtype == np.uint64
    for (lo, hi, inc_lo, inc_hi), words in zip(states.tolist(), table):
        assert {"state": hi << 64 | lo, "inc": inc_hi << 64 | inc_lo} \
            == np.random.PCG64(SeedWords(words)).state["state"]


@pytest.mark.parametrize("n", [64, 5, 1])
def test_standard_normal_fill_matches_generator_per_row(n):
    """The C fill draws, for each of 20000 rows (two tables of 10000),
    the 2 n normals ``Generator.standard_normal`` draws from a PCG64
    seeded from that row, bit for bit, at a noise row's 2 N = 128, a
    channel row's 2 L = 10 and at 2."""
    seeds = np.random.default_rng(n).integers(
        0, 2 ** 64, (2, 10000, 4), dtype=np.uint64, endpoint=False)
    seeds[0, :2] = [[0] * 4, [2 ** 64 - 1] * 4]
    drawn = ofdm_model._standard_normals(
        [ofdm_model._pcg64_states(table) for table in seeds], n)
    assert drawn.shape == (10000, 2, 2, n)
    for i, table in enumerate(seeds):
        expected = [np.random.Generator(np.random.PCG64(SeedWords(words)))
                    .standard_normal((2, n)) for words in table]
        assert drawn[:, i].tobytes() == np.array(expected).tobytes()


def test_state_layout_check(monkeypatch):
    """The import-time layout check passes under this numpy and names the
    numpy version when a state written to the C struct does not read
    back through ``PCG64.state``."""
    assert ofdm_model._load_fill() is not None

    class Moved(np.random.PCG64):
        state = property(lambda self: {"state": {"state": 0, "inc": 0}})

    monkeypatch.setattr(np.random, "PCG64", Moved)
    with pytest.raises(RuntimeError, match=f"numpy {np.__version__}: unknown"):
        ofdm_model._load_fill()


def test_package_import_imports_numpy_random():
    """``import ofdm_sync_lab`` imports numpy.random (about 14 ms), so a
    command's first draw does not."""
    env = dict(os.environ,
               PYTHONPATH=str(Path(ofdm_model.__file__).parents[1]))
    script = "import sys, ofdm_sync_lab; print('numpy.random' in sys.modules)"
    assert subprocess.run([sys.executable, "-c", script], env=env, timeout=120,
                          capture_output=True, text=True,
                          check=True).stdout == "True\n"


@pytest.mark.parametrize("n_rows", [511, 512, 513])
def test_qpsk_picks_across_the_block_edge(n_rows, monkeypatch):
    """Rows on either side of a 512-row block edge get their own picks,
    and no PCG64 is built to draw them."""
    table = ofdm_model._derive_tables(12345, (15000,), range(n_rows),
                                      ("training",))["training"]
    expected = [_integers_oracle(words, 52) for words in table]
    monkeypatch.setattr(np.random, "PCG64", None)
    npt.assert_array_equal(ofdm_model._qpsk_picks(table, 52), expected)


def test_qpsk_picks_match_generator_integers_for_every_even_k():
    table = np.vstack([
        ofdm_model._derive_tables(12345, (15000,), range(3),
                                  ("training",))["training"],
        np.array([[0] * 4, [2 ** 64 - 1] * 4], dtype=np.uint64)])
    for n_active in range(2, 258, 2):
        picks = ofdm_model._qpsk_picks(table, n_active)
        for row, words in zip(picks, table):
            npt.assert_array_equal(row, _integers_oracle(words, n_active))
