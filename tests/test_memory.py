"""Traced high-water of the chunk stages that set a sweep's own peak.

numpy reports each array it allocates to ``tracemalloc``, so once the
caches are warm a stage's reading repeats to within a few hundred bytes
of Python objects. Each bound sits above the reading of the in-place
stages (in the comment beside it, at numpy 2.4) and far below that of
the (rows, n) temporaries they replaced, so a stage that starts holding
such a pile again fails here by name. A whole sweep's reading must not
grow with its trial count.
"""

import tracemalloc
from dataclasses import replace

import pytest

from ofdm_sync_lab import harness, make_experiment, noiseless_burst
from ofdm_sync_lab import snr_stream_key
from ofdm_sync_lab.ofdm_model import (_derive_tables, _pcg64_states,
                                      _qpsk_picks)

CFG = make_experiment()
SNR_DB = 20.0
KEYS = (snr_stream_key(SNR_DB),)


def high_water(run) -> int:
    """Bytes that ``run()`` allocates at its peak, after a first call has
    filled every cache it reads."""
    run()
    tracing = tracemalloc.is_tracing()
    if not tracing:
        tracemalloc.start()
    try:
        tracemalloc.reset_peak()
        base = tracemalloc.get_traced_memory()[0]
        run()
        return tracemalloc.get_traced_memory()[1] - base
    finally:
        if not tracing:
            tracemalloc.stop()


def fig2_chunk():
    """A full fig2 chunk of 64 bursts: draws, observation, both searches
    and the bounds."""
    draws = next(harness._chunks(CFG, KEYS, range(harness._CHUNK),
                                 harness._BURST_STREAMS)[0])
    return lambda: harness._burst_columns(CFG, SNR_DB, draws)


def pick_block():
    """One ``_GROUP_ROWS`` block of QPSK picks at K = 52."""
    table = _derive_tables(CFG.master_seed, KEYS, range(harness._GROUP_ROWS),
                           ("training",))["training"]
    states = _pcg64_states(table)
    return lambda: _qpsk_picks(states, 52)


def crb_chunk():
    """A crb chunk of 128 scenario rows: its noiseless burst and bounds,
    as ``run_crb_sweep`` forms them."""
    _, x, taps, _ = next(harness._chunks(CFG, KEYS, range(2 * harness._CHUNK),
                                         harness._SCENARIO_STREAMS)[0])
    return lambda: harness._crb_fields(CFG, SNR_DB, noiseless_burst(
        CFG.ofdm, x, taps, CFG.sfo))


@pytest.mark.parametrize("stage, bound", [
    # 591 KB; the bracket's concatenated candidates took it to 1.39 MB
    (fig2_chunk, 700_000),
    # 480 KB (the raw words, the picks and one shifted copy); a dozen
    # (512, 26) uint64 temporaries once took half this block to 1.22 MB
    (pick_block, 850_000),
    # 940 KB; the Fisher pass's complex products took it to 1.07 MB
    (crb_chunk, 1_000_000),
], ids=["fig2-chunk", "pick-block", "crb-chunk"])
def test_chunk_stage_high_water(stage, bound):
    assert high_water(stage()) < bound


@pytest.mark.parametrize("sweep", [harness.run_noise_variance_sweep,
                                   harness.run_crb_sweep], ids=["fig1", "crb"])
def test_sweep_high_water_does_not_grow_with_trials(sweep):
    """A point of three blocks of derived streams peaks within 32 KiB of
    a point of one: a sweep lets go of each chunk's draws and columns, and
    of each block, before it makes the next. Holding the last chunk and
    block while making the next took fig1 358 KB higher."""
    def at(n_trials):
        cfg = replace(CFG, n_trials=n_trials, snr_points_db=(SNR_DB,))
        return high_water(lambda: sweep(cfg))

    assert at(3 * harness._GROUP_ROWS) - at(harness._GROUP_ROWS) < 32 * 1024
