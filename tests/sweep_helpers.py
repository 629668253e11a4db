"""Helpers the harness tests share: one SNR point's sweep columns."""

from ofdm_sync_lab import harness


def burst_chunks(cfg, snr_db, indices, **options):
    """One SNR point's burst columns for ``indices``, chunk by chunk, as a
    sweep of that point alone forms them; ``options`` go to
    ``harness._burst_columns``."""
    for _, draws in harness._chunks(cfg, (snr_db,), indices,
                                    harness._BURST_STREAMS):
        yield harness._burst_columns(cfg, snr_db, draws, **options)[0]
