"""Helpers the harness tests share: one SNR point's sweep columns."""

from ofdm_sync_lab import harness, snr_stream_key


def burst_chunks(cfg, snr_db, indices, **options):
    """One SNR point's burst columns for ``indices``, chunk by chunk, as a
    sweep group of one point forms them; ``options`` go to
    ``harness._burst_columns``."""
    for draws in harness._chunks(cfg, (snr_stream_key(snr_db),), indices,
                                 harness._BURST_STREAMS)[0]:
        yield harness._burst_columns(cfg, snr_db, draws, **options)[0]
