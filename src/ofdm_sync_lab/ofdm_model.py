"""Baseband model of a two-symbol OFDM training preamble.

The transmitter sends two identical QPSK training symbols back to back.
The receiver suffers a normalized carrier-frequency offset (CFO, in units
of the subcarrier spacing) and a sampling-frequency offset (SFO, the
fractional sampling-clock error), and observes the burst through a
quasi-static multipath channel plus white Gaussian noise.

Conventions used throughout the package:

* unitary DFT scaling: demodulation divides by sqrt(N);
* the active subcarriers occupy the centred set {-K/2, ..., K/2 - 1};
* training symbol m spans samples N_m + n for n in [0, N), where
  N_m = cp_len + m * (dft_size + cp_len) counts from the burst start
  (the cyclic prefix itself is never materialized, only its offset);
* an SFO stretches the receiver time base by (1 + sfo), which both skews
  the per-subcarrier phase ramps and scales the CFO rotation; the CFO is
  in subcarrier spacings, the SFO a fraction in (-1, 1);
* ``noise_var`` is the total variance of the complex noise per received
  sample, split evenly between the real and imaginary parts.

Arrays that depend only on the experiment, never on a trial's draws, are
built once and memoized in bounded ``functools.lru_cache`` helpers: the
SFO-warped synthesis basis (keyed on config, sfo and symbol index), the
channel-DFT phases (config and tap count), the CFO lead of a symbol
(config, cfo, sfo and symbol index) and the tap scale of the power
profile (tap count). Every cached array is read-only, so a
caller that tried to modify one in place would get a ``ValueError``
instead of corrupting later trials.

A trial is a row, never a record: its training symbol is a (K,) row,
which both symbols of its burst repeat, its channel a (L,) row of taps
and its spectra (K,) rows, and a stack of T trials is a (T, K) or (T, L)
array. Synthesis and demodulation run only on stacks
(:func:`synthesize_rows`, :func:`demodulate_rows`); one burst is a stack
of one row (``x[None]``). Synthesis and both Fisher routes take the
:func:`noiseless_burst`, which carries the sfo it was warped at; a fig2
chunk forms it once for both. A stack equals its rows computed one at a
time, bit for bit, under four rules: matrix products are stacked
matvecs ``A @ Z[..., None]`` (a plain GEMM ``A @ Z`` rounds
differently), the FFT runs along the last axis, every reduction runs
along the last axis of a C-contiguous array (:func:`_sum_last`), and a
complex product of two stacks is ``np.multiply(a, b)`` where an operand
is a temporary (on one over 256 KiB, ``a * b`` computes ``b * a`` in
place, whose imaginary parts round differently under FMA). So a stack
also equals its chunks of any size.

Random substreams are numpy's ``PCG64(SeedSequence(words))``, where the
words are a key path (master seed, SNR key, trial index, label) split
into 32-bit words as ``SeedSequence`` splits integers.
:func:`_derive_tables` runs ``SeedSequence``'s mixing over whole axes of
labels, SNR keys and trial indices at once, into one (labels, keys,
trials, 4) array of seed words, and :func:`_pcg64_states` seeds PCG64
from it: each row's one-trial state, bit for bit. That
one-trial definition, ``derive_rng``, lives in ``tests/reference.py``,
where the stream tests check both against numpy's own ``SeedSequence``.
A trial index must lie in [0, 2**32), where it is exactly one word.
Every draw is one of numpy's C fills run on those states, with no
generator built per row or call: :func:`_each_row` aims its thread's one
PCG64's C state pointer at each row, restoring it after every call. The
QPSK picks (:func:`_qpsk_picks`) are read from raw PCG64 words, which NEP
19 keeps stable across numpy versions, drawn by the fill behind
``Generator.integers`` over the full uint64 range; the normals
(:func:`_standard_normals`) are the fill behind ``Generator.standard_normal``.
"""

import ctypes
import functools
import hashlib
import threading
from dataclasses import dataclass

import numpy as np

__all__ = [
    "OfdmConfig",
    "exponential_power_profile",
    "channel_taps",
    "noiseless_burst",
    "synthesize_rows",
    "demodulate_rows",
    "coupling_coefficient",
    "carrier_gain",
    "noise_variance_from_snr",
    "snr_stream_key",
    "MAX_TRIALS",
    "QPSK_ALPHABET",
]

_TWO_PI = 2.0 * np.pi

# Gray-ordered QPSK alphabet with unit average power.
QPSK_ALPHABET = np.array([1 + 1j, 1 - 1j, -1 + 1j, -1 - 1j]) / np.sqrt(2.0)

# Exponential power-delay-profile time constant, in tap periods.
PDP_DECAY_TAPS = 5.0

# Entries per memoized helper. A sweep keys at most two entries in any
# one cache, one per symbol, and the tests' numeric Fisher oracle at most
# eight more (it steps each offset both ways on both symbols), so this
# bound only evicts across experiments.
_CACHE_SIZE = 32


def _read_only(array: np.ndarray) -> np.ndarray:
    """Mark an array read-only: a cached array is shared by every caller."""
    array.flags.writeable = False
    return array


def _sum_last(array: np.ndarray) -> np.ndarray:
    """Sum along the last axis, each row exactly as a 1-D ``np.sum``.

    The sum runs on a C-contiguous copy: on another layout numpy may
    reduce the rows in a different order and move their last digit.
    """
    return np.sum(np.ascontiguousarray(array), axis=-1)


def _int_text(value: int) -> str:
    """An int's digits, or past 2000 bits (str() may refuse) ~10**digits."""
    bits, sign = value.bit_length(), "-" * (value < 0)
    return str(value) if bits < 2000 else f"~{sign}10**{int(bits * 0.30103)}"


def _normal_planes(normals: np.ndarray) -> tuple:
    """Rows 0 and 1 of (..., 2, n) normals; other shapes are a ValueError."""
    if np.ndim(normals) < 2 or np.shape(normals)[-2] != 2:
        raise ValueError(f"normals must be (..., 2, n), got shape "
                         f"{np.shape(normals)}")
    return normals[..., 0, :], normals[..., 1, :]


def _complex_normal(scale, normals: np.ndarray) -> np.ndarray:
    """``scale * (re + 1j * im)`` of :func:`_normal_planes`, in place."""
    re, im = _normal_planes(normals)
    z = np.multiply(1j, im)
    return np.multiply(scale, np.add(re, z, out=z), out=z)


@dataclass(frozen=True)
class OfdmConfig:
    """Static preamble geometry; invalid fields raise ``ValueError``.

    Attributes
    ----------
    dft_size : int, default 64
        DFT length N (even, positive).
    n_active : int, default 52
        Number of active subcarriers K (even, positive, at most N).
    cp_len : int, default 16
        Cyclic prefix length in samples (non-negative, N + cp_len < 2**1000).
    """

    dft_size: int = 64
    n_active: int = 52
    cp_len: int = 16

    def __post_init__(self):
        for name in ("dft_size", "n_active", "cp_len"):
            value = getattr(self, name)
            if not isinstance(value, (int, np.integer)):
                raise ValueError(f"{name} must be an integer, got {value!r}")
            value = int(value)
            if value <= 0 and name != "cp_len":
                raise ValueError(f"{name} must be positive, got "
                                 f"{_int_text(value)}")
            object.__setattr__(self, name, value)
        n, k = map(_int_text, (self.dft_size, self.n_active))
        if self.cp_len < 0:
            raise ValueError(f"cp_len must be >= 0, got "
                             f"{_int_text(self.cp_len)}")
        if self.symbol_len >= 2 ** 1000:  # so (N + cp)(1 + sfo) is a float
            raise ValueError("N + cp_len must be below 2**1000")
        if self.dft_size % 2:
            raise ValueError(f"dft_size (N) must be even, got {n}")
        if self.n_active % 2:
            raise ValueError(f"n_active (K) must be even, got {k}")
        if self.n_active > self.dft_size:
            raise ValueError(f"K exceeds N ({k} > {n})")

    @property
    def subcarrier_indices(self) -> np.ndarray:
        """Active subcarrier indices, ascending: -K/2 .. K/2 - 1."""
        half = self.n_active // 2
        return np.arange(-half, half)

    @property
    def symbol_len(self) -> int:
        return self.dft_size + self.cp_len

    def symbol_start(self, m: int) -> int:
        """Sample index N_m at which the useful part of symbol m begins."""
        if m not in (0, 1):
            raise ValueError(f"symbol index {m} outside [0, 2)")
        return self.cp_len + m * self.symbol_len


def _check_offsets(cfo, sfo, dft_size: int | None = None):
    """Raise ``ValueError`` unless cfo and sfo, scalars or arrays, are
    finite, sfo lies in (-1, 1) and, given the DFT size N, |cfo| < N. At
    sfo 1 the clock runs twice as fast; a CFO of N subcarrier spacings
    turns the phase once per sample, so cfo and cfo + N give the same
    samples; and a far larger offset overflows the Fisher weights."""
    if type(cfo) is type(sfo) is float and abs(sfo) < 1.0 and (
            abs(cfo) < np.inf if dft_size is None else
            type(dft_size) is int and abs(cfo) < dft_size <= 2 ** 53):
        return  # as numpy, which compares float(N): N itself to 2**53
    for name, value in (("cfo", cfo), ("sfo", sfo)):
        if not np.isfinite(value).all():
            raise ValueError(f"{name} must be finite, got {value}")
    if not (np.abs(sfo) < 1.0).all():
        raise ValueError(f"sfo must exceed -1 and stay below 1, got {sfo}")
    if dft_size is not None and not (np.abs(cfo) < dft_size).all():
        raise ValueError(f"cfo must lie inside (-N, N) = (-{dft_size}, "
                         f"{dft_size}) subcarrier spacings, got {cfo}")


def exponential_power_profile(n_taps: int) -> np.ndarray:
    """Power-delay profile decaying with time constant ``PDP_DECAY_TAPS``,
    normalized to unit sum; ``n_taps`` must be an integer of at least 1."""
    integral = isinstance(n_taps, (int, np.integer))
    if not integral or n_taps < 1:
        shown = _int_text(int(n_taps)) if integral else repr(n_taps)
        raise ValueError(f"n_taps must be an integer >= 1, got {shown}")
    weights = np.exp(-np.arange(n_taps) / PDP_DECAY_TAPS)
    return weights / weights.sum()


@functools.lru_cache(maxsize=_CACHE_SIZE)
def _tap_scale(n_taps: int) -> np.ndarray:
    """Per-tap standard deviation of the real and imaginary parts."""
    return _read_only(np.sqrt(exponential_power_profile(n_taps) / 2.0))


def channel_taps(normals: np.ndarray) -> np.ndarray:
    """Rayleigh taps with the exponential power profile, (..., L), from
    (..., 2, L) standard normals: real parts, then imaginary parts."""
    return _complex_normal(_tap_scale(normals.shape[-1]), normals)


def noise_variance_from_snr(config: OfdmConfig, snr_db: float) -> float:
    """Complex noise variance for a given SNR in dB.

    The SNR is defined against the mean received sample power, which is
    K/N for unit-power training symbols and a unit-energy average power
    profile, so noise_var = (K/N) * 10**(-snr_db/10). A non-finite SNR
    is a ``ValueError``; past the float range the variance is inf.
    """
    if not np.isfinite(snr_db):
        raise ValueError(f"snr_db must be finite, got {snr_db}")
    try:
        power = 10.0 ** (-snr_db / 10.0)
    except OverflowError:
        power = np.inf
    return (config.n_active / config.dft_size) * power


@functools.lru_cache(maxsize=_CACHE_SIZE)
def _warped_basis(config: OfdmConfig, sfo: float, m: int) -> np.ndarray:
    """The (N x K) basis exp(j 2 pi k (n (1 + sfo) + sfo N_m) / N)."""
    n = np.arange(config.dft_size)
    warp = n * (1.0 + sfo) + sfo * config.symbol_start(m)
    return _read_only(np.exp(1j * _TWO_PI / config.dft_size
                             * np.outer(warp, config.subcarrier_indices)))


@functools.lru_cache(maxsize=_CACHE_SIZE)
def _dft_phases(config: OfdmConfig, n_taps: int) -> np.ndarray:
    """The (K x L) phases exp(-j 2 pi k l / N) that map taps to H(k)."""
    ks = config.subcarrier_indices
    l = np.arange(n_taps)
    return _read_only(np.exp(-1j * _TWO_PI * ks[:, None] * l
                             / config.dft_size))


@functools.lru_cache(maxsize=_CACHE_SIZE)
def _cfo_lead(config: OfdmConfig, cfo: float, sfo: float,
              m: int) -> np.ndarray:
    """CFO rotation exp(j 2 pi (N_m + n) (1 + sfo) cfo / N) of symbol m."""
    n = np.arange(config.dft_size)
    return _read_only(np.exp(1j * _TWO_PI / config.dft_size
                             * (config.symbol_start(m) + n) * (1.0 + sfo)
                             * cfo))


def _channel_gains(config: OfdmConfig, taps: np.ndarray) -> np.ndarray:
    """H(k) = sum_l h_l exp(-j 2 pi k l / N) on the active subcarriers
    for each row of taps, (..., K): one stacked matvec over
    :func:`_dft_phases`, so a row's H(k) has the same bytes alone or in a
    stack. An empty tap axis is a ``ValueError``.
    """
    if taps.shape[-1] == 0:
        raise ValueError("taps must hold at least one tap per row")
    return (_dft_phases(config, taps.shape[-1]) @ taps[..., None])[..., 0]


def noiseless_burst(config: OfdmConfig, x: np.ndarray, taps: np.ndarray,
                    sfo: float) -> tuple:
    """The noiseless burst (x H, (g0, g1), sfo) of the (T, K) training
    rows x, which both symbols repeat, and (T, L) taps: x H as (T, K)
    rows, g_m = B_m (x H) as (T, N) rows and the sfo of the warp B_m.
    The sfo is checked before any basis is built or cached."""
    _check_offsets(0.0, sfo)
    if x.shape[-1] != config.n_active:
        raise ValueError(f"training length {x.shape[-1]} does not match "
                         f"n_active {config.n_active}")
    return _warped(config, np.multiply(x, _channel_gains(config, taps)),
                   sfo)


def _warped(config: OfdmConfig, xh: np.ndarray, sfo: float) -> tuple:
    """The :func:`noiseless_burst` of the x H rows at ``sfo``."""
    return xh, tuple((_warped_basis(config, sfo, m) @ xh[..., None])[..., 0]
                     for m in (0, 1)), sfo


def synthesize_rows(config: OfdmConfig, burst: tuple, cfo: float,
                    noise_var: float = 0.0,
                    normals: np.ndarray | None = None) -> np.ndarray:
    """Simulate a stack of T bursts at once, (T, 2, N).

    Evaluates the time-domain model of both training symbols m:

        r[n] = exp(j 2 pi (N_m + n) (1 + sfo) cfo / N) / sqrt(N)
               * sum_k X(k) H(k) exp(j 2 pi k (n (1 + sfo) + sfo N_m) / N)
               + w[n]

    where the sum over the active subcarriers is the burst's g_m, sfo is
    the burst's own, cfo is finite with |cfo| < N, and w is circular
    Gaussian noise of total variance ``noise_var`` (finite and >= 0).
    The noise is added as ``scale * re`` and ``scale * im`` on the real
    and imaginary planes of the samples: bit for bit the complex noise of
    :func:`_complex_normal`, as a real scale rounds each part on its own.

    Parameters
    ----------
    burst : tuple
        The :func:`noiseless_burst` of the T rows.
    normals : numpy.ndarray, optional
        (T, 2, 2, N) standard normals of each symbol's noise, real parts
        then imaginary parts; required when ``noise_var > 0``.
    """
    if not 0.0 <= noise_var < np.inf:
        raise ValueError(f"noise_var must be finite and >= 0, got "
                         f"{noise_var}")
    _, gs, sfo = burst
    _check_offsets(cfo, sfo, config.dft_size)
    samples = np.empty((*gs[0].shape[:-1], 2, config.dft_size), dtype=complex)
    for m, g in enumerate(gs):
        np.multiply(_cfo_lead(config, cfo, sfo, m), g, out=samples[..., m, :])
    samples /= np.sqrt(config.dft_size)
    if noise_var > 0.0:
        if normals is None:
            raise ValueError("normals are required when noise_var > 0")
        scale = np.sqrt(noise_var / 2.0)
        for part, plane in zip((samples.real, samples.imag),
                               _normal_planes(normals)):
            part += scale * plane
    return samples


def demodulate_rows(samples: np.ndarray, config: OfdmConfig) -> np.ndarray:
    """Unitary DFT of every row of samples, restricted to the active set.

    Returns R(k) = (1/sqrt(N)) sum_n r[n] exp(-j 2 pi k n / N) for k in
    the ascending active subcarrier set, (..., K), C-contiguous and scaled
    in place: an index, not ``np.take``, would leave a transposed layout
    that :func:`_sum_last` would have to copy.
    """
    if samples.shape[-1] != config.dft_size:
        raise ValueError(
            f"expected {config.dft_size} samples, got shape {samples.shape}")
    spectrum = np.take(np.fft.fft(samples, axis=-1),
                       config.subcarrier_indices % config.dft_size, axis=-1)
    return np.divide(spectrum, np.sqrt(config.dft_size), out=spectrum)


def coupling_coefficient(k, i, cfo: float, sfo: float, dft_size: int):
    """Inter-carrier coupling delta_{k,i} of modulated subcarrier i into
    demodulated bin k under the given offsets.

    Defined as (1/N) sum_n exp(j 2 pi n a / N) with
    a = i sfo + cfo (1 + sfo) + i - k; evaluated in closed form as a
    Dirichlet kernel, with an explicit-sum fallback where the kernel
    denominator degenerates (a near a multiple of N). Broadcasts over
    arrays of k and i. The offsets must be finite, with sfo in (-1, 1)
    and |cfo| < N.
    """
    _check_offsets(cfo, sfo, dft_size)
    k = np.asarray(k, dtype=float)
    i = np.asarray(i, dtype=float)
    a = i * sfo + cfo * (1.0 + sfo) + i - k
    scalar = a.ndim == 0
    a = np.atleast_1d(a)

    denom = np.sin(np.pi * a / dft_size)
    out = np.empty(a.shape, dtype=complex)
    singular = np.abs(denom) < 1e-9
    regular = ~singular
    if regular.any():
        ar = a[regular]
        out[regular] = (np.exp(1j * np.pi * ar * (dft_size - 1) / dft_size)
                        * np.sin(np.pi * ar)
                        / (dft_size * denom[regular]))
    if singular.any():
        n = np.arange(dft_size)
        phases = np.exp(1j * _TWO_PI / dft_size
                        * np.outer(a[singular], n))
        out[singular] = phases.mean(axis=1)
    return out[0] if scalar else out


def carrier_gain(k, m: int, cfo: float, sfo: float, config: OfdmConfig):
    """Multiplicative gain on the wanted symbol at demodulated bin k of
    training symbol m: the self-coupling delta_{k,k} rotated by the
    symbol-start phase exp(j 2 pi N_m (k sfo + cfo (1 + sfo)) / N)."""
    start = config.symbol_start(m)
    karr = np.asarray(k, dtype=float)
    self_coupling = coupling_coefficient(karr, karr, cfo, sfo,
                                         config.dft_size)
    phase = np.exp(1j * _TWO_PI / config.dft_size * start
                   * (karr * sfo + cfo * (1.0 + sfo)))
    gain = self_coupling * phase
    return complex(gain) if karr.ndim == 0 else gain


def snr_stream_key(snr_db: float) -> int:
    """Stable integer key for an SNR point (milli-dB resolution); an SNR
    whose milli-dB value is not finite has none (``ValueError``)."""
    milli_db = float(snr_db) * 1000.0
    if not np.isfinite(milli_db):
        raise ValueError(f"snr {snr_db} dB has no milli-dB stream key")
    return int(round(milli_db))


# numpy's SeedSequence constants (pool size 4, 32-bit words).
_MASK32 = 0xFFFFFFFF
_MASK64 = 0xFFFFFFFFFFFFFFFF
_POOL_SIZE = 4
_INIT_A, _MULT_A = 0x43B0D7E5, 0x931E8875
_INIT_B, _MULT_B = 0x8B51F9DD, 0x58F38DED
_MIX_MULT_L, _MIX_MULT_R = 0xCA01F9DD, 0x4973F715
_XSHIFT = 16

# Trial indices below this enter the entropy as exactly one 32-bit word,
# so every trial of a sweep shares one word layout.
MAX_TRIALS = 2 ** 32

# PCG64's 128-bit LCG multiplier 0x2360ED051FC65DA44385DF649FCCF645
# (O'Neill, HMC-CS-2014-0905): its high and low words, and the low word's
# high and low 32-bit halves.
_MULT_HI = np.uint64(0x2360ED051FC65DA4)
_MULT_LO = np.uint64(0x4385DF649FCCF645)
_MULT_LO_1, _MULT_LO_0 = np.uint64(0x4385DF64), np.uint64(0x9FCCF645)


def _key_words(key) -> list:
    """The 32-bit entropy words of one stream key, as SeedSequence splits it.

    An int is masked to 64 bits and a str is its SHA-256 digest's first
    8 bytes (big-endian), so the mapping is stable across processes and
    platforms. The value is split least significant word first, 0 being
    the single word 0.
    """
    if isinstance(key, str):
        value = int.from_bytes(
            hashlib.sha256(key.encode("utf-8")).digest()[:8], "big")
    elif isinstance(key, (int, np.integer)):
        value = int(key) & _MASK64
    else:
        raise TypeError(f"rng key must be int or str, got {key!r}")
    words = [value & _MASK32]
    while value > _MASK32:
        value >>= 32
        words.append(value & _MASK32)
    return words


def _hash_pool(entropy) -> list:
    """SeedSequence's pool of 4 words mixed from the entropy words.

    A word is a Python int or a uint32 array (over keys, trials or
    labels); int arithmetic is masked to 32 bits and array arithmetic
    wraps, so words can differ along broadcast axes.
    """
    hash_const = _INIT_A

    def hashmix(value):
        nonlocal hash_const
        value = value ^ hash_const
        hash_const = (hash_const * _MULT_A) & _MASK32
        value = (value * hash_const) & _MASK32
        return value ^ (value >> _XSHIFT)

    def mix(x, y):
        result = (((_MIX_MULT_L * x) & _MASK32)
                  - ((_MIX_MULT_R * y) & _MASK32)) & _MASK32
        return result ^ (result >> _XSHIFT)

    padded = list(entropy) + [0] * (_POOL_SIZE - len(entropy))
    pool = [hashmix(word) for word in padded[:_POOL_SIZE]]
    for i_src in range(_POOL_SIZE):
        for i_dst in range(_POOL_SIZE):
            if i_src != i_dst:
                pool[i_dst] = mix(pool[i_dst], hashmix(pool[i_src]))
    for word in entropy[_POOL_SIZE:]:
        for i_dst in range(_POOL_SIZE):
            pool[i_dst] = mix(pool[i_dst], hashmix(word))
    return pool


def _seed_words(pool, shape) -> np.ndarray:
    """SeedSequence's ``generate_state(4, uint64)`` of every entry of a
    pool broadcast to ``shape``, as a ``shape + (4,)`` array."""
    words = np.empty((*shape, 2 * _POOL_SIZE), dtype="<u4")
    hash_const = _INIT_B
    for i_dst in range(2 * _POOL_SIZE):
        value = pool[i_dst % _POOL_SIZE] ^ hash_const
        hash_const = (hash_const * _MULT_B) & _MASK32
        value = (value * hash_const) & _MASK32
        words[..., i_dst] = value ^ (value >> _XSHIFT)
    return words.view("<u8").astype(np.uint64, copy=False)


def _word_groups(keys, trailing: int):
    """(positions, words) of ``keys`` per entropy word count: one key's
    words as Python ints, or per word a uint32 column over the keys with
    ``trailing`` unit axes."""
    groups = {}
    for i, key in enumerate(keys):
        groups.setdefault(len(_key_words(key)), []).append(i)
    for group in groups.values():
        words = np.array([_key_words(keys[i]) for i in group], np.uint32).T
        yield group, (words[:, 0].tolist() if len(group) == 1 else
                      list(words.reshape(*words.shape, *(1,) * trailing)))


def _derive_tables(master_seed: int, stream_keys, trial_indices,
                   labels) -> np.ndarray:
    """Seed words of the streams (master_seed, key, t, label) for every
    label, stream key and trial index t, as one C-contiguous
    (labels, keys, trials, 4) uint64 array in label order. Runs
    SeedSequence's mixing once per entropy word count of the keys (0 dB
    and up is one word, below 0 dB two) and of the labels (a str is two):
    key words enter as (S, 1) columns, label words as (L, 1, 1) columns,
    against the (T,) trial words.

    Raises
    ------
    ValueError
        If a trial index is not an integer in [0, MAX_TRIALS).
    """
    trials = np.asarray(trial_indices)
    if trials.ndim != 1 or (trials.size and trials.dtype.kind not in "iu"):
        raise ValueError("trial_indices must be a 1-D sequence of integers")
    if trials.size and (trials.min() < 0 or trials.max() >= MAX_TRIALS):
        raise ValueError(
            f"trial indices must lie in [0, 2**32), got {trials.min()} .. "
            f"{trials.max()}")
    # One trial's, key's and label's words stay Python ints: scalar
    # arithmetic beats size-1 array arithmetic by an order of magnitude.
    trial_word = int(trials[0]) if trials.size == 1 \
        else trials.astype(np.uint32)
    labels = list(labels)
    seeds = np.empty((len(labels), len(stream_keys), trials.size, 4),
                     np.uint64)
    for keys, key_words in _word_groups(stream_keys, 1):
        head = _key_words(int(master_seed)) + key_words + [trial_word]
        for group, label_words in _word_groups(labels, 2):
            seeds[np.ix_(group, keys)] = _seed_words(
                _hash_pool(head + label_words),
                (len(group), len(keys), trials.size))
    return seeds


def _times(hi, lo):
    """(hi, lo) * PCG64's multiplier mod 2**128, elementwise over uint64
    arrays, whose arithmetic wraps (numpy scalars warn on overflow)."""
    x1, x0 = lo >> 32, lo & _MASK32
    top, mid = x1 * _MULT_LO_1, (x0 * _MULT_LO_0) >> 32
    for part in (x0 * _MULT_LO_1, x1 * _MULT_LO_0):
        top += part >> 32
        mid += part & _MASK32
    top += (mid >> 32) + lo * _MULT_HI + hi * _MULT_LO
    return top, lo * _MULT_LO


def _pcg64_states(seeds: np.ndarray) -> np.ndarray:
    """PCG64's C ``pcg64_random_t`` seeded from each row of 4 uint64 seed
    words (initstate its first two words, high first; initseq its last
    two), as rows of the same shape [state_lo, state_hi, inc_lo, inc_hi]:
    inc = 2 initseq + 1 and state = (inc + initstate) M + inc, M PCG64's
    multiplier, each a (hi, lo) array pair."""
    init_hi, init_lo, seq_hi, seq_lo = np.moveaxis(seeds, -1, 0)
    inc_hi, inc_lo = (seq_hi << 1) | (seq_lo >> 63), (seq_lo << 1) | 1
    u_lo = inc_lo + init_lo
    u_hi = inc_hi + init_hi + (u_lo < inc_lo)
    hi, lo = _times(u_hi, u_lo)
    lo += inc_lo
    hi += inc_hi + (lo < inc_lo)
    return np.stack((lo, hi, inc_lo, inc_hi), axis=-1)


def _load_fill():
    """numpy's C fills behind ``Generator.standard_normal`` and, over the
    full uint64 range, ``Generator.integers``, once PCG64 reads back a
    state written where :func:`_each_row` aims its state pointer."""
    bitgen, words = np.random.PCG64(0), np.array([1, 2, 3, 5], np.uint64)
    pointer = ctypes.c_void_p.from_address(bitgen.ctypes.state_address)
    ctypes.memmove(pointer.value, words.ctypes.data, 32)
    if bitgen.state["state"] != {"state": 2 << 64 | 1, "inc": 5 << 64 | 3}:
        raise RuntimeError(f"numpy {np.__version__}: unknown PCG64 C layout")
    library = ctypes.CDLL(np.random._generator.__file__)
    normals = library.random_standard_normal_fill
    normals.argtypes = ctypes.c_void_p, ctypes.c_ssize_t, ctypes.c_void_p
    raw = library.random_bounded_uint64_fill
    raw.argtypes = (ctypes.c_void_p, ctypes.c_uint64, ctypes.c_uint64,
                    ctypes.c_ssize_t, ctypes.c_bool, ctypes.c_void_p)
    normals.restype = raw.restype = None
    return normals, raw


_NORMALS_FILL, _RAW_FILL = _load_fill()
_THREAD = threading.local()  # .handle: this thread's :func:`_each_row` PCG64


def _each_row(states: np.ndarray, out: np.ndarray, fill, *args) -> np.ndarray:
    """``out``, filled row by row: ``fill(bitgen, *args, place)`` runs once
    per row of a C-contiguous (..., 4) uint64 :func:`_pcg64_states` array,
    with the calling thread's one PCG64 aiming its C state pointer at the
    row, which the fill advances, and ``place`` the address of the row's
    equal share of ``out``. ``args`` are ctypes objects, converted once.
    The pointer is restored after every call, and the rows leave the
    PCG64's buffered 32-bit word unused: both fills draw 64-bit words."""
    if (states.shape[-1:] != (4,) or states.dtype != np.uint64
            or not states.flags.c_contiguous
            or states.ctypes.data % 16):  # numpy's 128-bit C fields
        raise ValueError("state arrays must be aligned C uint64 rows of 4")
    if not hasattr(_THREAD, "handle"):
        bitgen = np.random.PCG64(0)
        pointer = ctypes.c_void_p.from_address(bitgen.ctypes.state_address)
        _THREAD.handle = (bitgen, pointer, pointer.value,
                          ctypes.c_void_p(bitgen.ctypes.bit_generator.value))
    _, pointer, own, address = _THREAD.handle
    size = max(out.nbytes // max(states.size // 4, 1), 1)
    src, dst = states.ctypes.data, out.ctypes.data
    try:
        for row, place in zip(range(src, src + states.nbytes, 32),
                              range(dst, dst + out.nbytes, size)):
            pointer.value = row
            fill(address, *args, place)
    finally:
        pointer.value = own  # the PCG64 frees the state it points to
    return out


def _qpsk_picks(states: np.ndarray, n_active: int) -> np.ndarray:
    """``integers(0, 4, K)`` of each row of a (..., 4) :func:`_pcg64_states`
    array, (..., K) uint8, from the K/2 raw words numpy's C fill draws from
    a copy of it: for a range of 4 Lemire's method never rejects and takes
    the top two bits of each 32-bit half, low half first (K even)."""
    raw = np.empty((*states.shape[:-1], n_active // 2), np.uint64)
    _each_row(states.copy(), raw, _RAW_FILL, ctypes.c_uint64(0),
              ctypes.c_uint64(_MASK64), ctypes.c_ssize_t(n_active // 2),
              ctypes.c_bool(False))
    picks = np.empty((*states.shape[:-1], n_active), dtype=np.uint8)
    picks[..., 1::2] = raw >> 62
    raw >>= 30
    picks[..., 0::2] = np.bitwise_and(raw, 3, out=raw)
    return picks


def _standard_normals(states: np.ndarray, n: int) -> np.ndarray:
    """(T, m, 2, n): at [t, i] the 2 n ``standard_normal`` draws of the
    state at [t, i] of a (T, m, 4) :func:`_pcg64_states` array, bit for
    bit, filled from a copy of it, which the fill advances."""
    return _each_row(states.copy(), np.empty((*states.shape[:-1], 2, n)),
                     _NORMALS_FILL, ctypes.c_ssize_t(2 * n))
