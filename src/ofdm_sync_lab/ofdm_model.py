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
  the per-subcarrier phase ramps and scales the CFO rotation.

Arrays that depend only on the experiment, never on a trial's draws, are
built once and memoized in bounded ``functools.lru_cache`` helpers: the
SFO-warped synthesis basis (keyed on config, sfo and symbol index), the
channel-DFT phases (config and tap count), the CFO lead of a symbol
(config, cfo, sfo and symbol index) and the tap scale of the power
profile (tap count and decay). Every cached array is read-only, so a
caller that tried to modify one in place would get a ``ValueError``
instead of corrupting later trials.

Synthesis and demodulation run only on trial-major stacks of bursts
(:func:`synthesize_rows`, :func:`demodulate_rows`); one burst is a stack
of one row (``x[None]``). Synthesis reads the noiseless burst
g_m = B_m (x H) of :func:`_noiseless_burst`, which a fig2 chunk also
hands to the closed-form Fisher pass. A stack equals its rows computed
one at a time, bit for bit, under three rules: matrix products are
stacked matvecs ``A @ Z[..., None]`` (a plain GEMM ``A @ Z`` rounds
differently), the FFT runs along the last axis, and every reduction runs
along the last axis of a C-contiguous array (:func:`_sum_last`).

Random substreams are numpy's ``PCG64(SeedSequence(words))``, where the
words are a key path (master seed, SNR key, trial index, label) split
into 32-bit words as ``SeedSequence`` splits integers.
:func:`derive_states` runs ``SeedSequence``'s mixing over a whole axis
of trial indices at once, and :func:`seed_generator` hands one trial's
seed words to numpy's own PCG64 seeding; both reproduce
:func:`derive_rng`'s stream bit for bit, which numpy's own
``SeedSequence`` checks in the tests. A trial index must lie in
[0, 2**32), where it is exactly one word. QPSK picks come from raw PCG64
words (:func:`_qpsk_picks`), stable across numpy versions by NEP 19.
"""

import functools
import hashlib
from dataclasses import dataclass

import numpy as np

__all__ = [
    "OfdmConfig",
    "TrainingSymbols",
    "ChannelRealization",
    "ImpairmentParams",
    "PreambleObservation",
    "make_config",
    "exponential_power_profile",
    "channel_taps",
    "synthesize_rows",
    "demodulate_rows",
    "coupling_coefficient",
    "ici_term",
    "carrier_gain",
    "noise_variance_from_snr",
    "derive_rng",
    "derive_states",
    "seed_generator",
    "snr_stream_key",
    "MAX_TRIALS",
    "QPSK_ALPHABET",
]

_TWO_PI = 2.0 * np.pi

# Gray-ordered QPSK alphabet with unit average power.
QPSK_ALPHABET = np.array([1 + 1j, 1 - 1j, -1 + 1j, -1 - 1j]) / np.sqrt(2.0)

# Exponential power-delay-profile time constant, in tap periods.
PDP_DECAY_TAPS = 5.0

# Entries per memoized helper. A default sweep keys at most 10 entries in
# any one cache (the CRB backend probe's oracle perturbs each offset both
# ways on both symbols), so this bound only evicts across experiments.
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


def _complex_normal(scale, normals: np.ndarray) -> np.ndarray:
    """``scale * (re + 1j * im)`` from (..., 2, n) standard normals, the
    real parts in row 0 and the imaginary parts in row 1."""
    return scale * (normals[..., 0, :] + 1j * normals[..., 1, :])


@dataclass(frozen=True)
class OfdmConfig:
    """Static preamble geometry; invalid fields raise ``ValueError``.

    Attributes
    ----------
    dft_size : int
        DFT length N (even, positive).
    n_active : int
        Number of active subcarriers K (even, positive, at most N).
    cp_len : int
        Cyclic prefix length in samples (non-negative).
    n_symbols : int
        Number of training symbols in the burst. The estimators in this
        package consume exactly two.
    """

    dft_size: int
    n_active: int
    cp_len: int
    n_symbols: int = 2

    def __post_init__(self):
        for name in ("dft_size", "n_active", "cp_len", "n_symbols"):
            value = getattr(self, name)
            if not isinstance(value, (int, np.integer)):
                raise ValueError(f"{name} must be an integer, got {value!r}")
            if value <= 0 and name != "cp_len":
                raise ValueError(f"{name} must be positive, got {value}")
            object.__setattr__(self, name, int(value))
        if self.cp_len < 0:
            raise ValueError(f"cp_len must be >= 0, got {self.cp_len}")
        if self.n_symbols > 2:
            raise ValueError(f"n_symbols must be 1 or 2, got {self.n_symbols}")
        if self.dft_size % 2:
            raise ValueError(f"dft_size (N) must be even, got {self.dft_size}")
        if self.n_active % 2:
            raise ValueError(f"n_active (K) must be even, got {self.n_active}")
        if self.n_active > self.dft_size:
            raise ValueError(f"K exceeds N ({self.n_active} > "
                             f"{self.dft_size})")

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
        if not 0 <= m < self.n_symbols:
            raise ValueError(f"symbol index {m} outside [0, {self.n_symbols})")
        return self.cp_len + m * self.symbol_len


def make_config(dft_size: int = 64, n_active: int = 52, cp_len: int = 16,
                n_symbols: int = 2) -> OfdmConfig:
    """Build an :class:`OfdmConfig`, which validates its fields."""
    return OfdmConfig(dft_size, n_active, cp_len, n_symbols)


@dataclass(frozen=True)
class TrainingSymbols:
    """Frequency-domain training pair, one length-K vector per symbol."""

    x0: np.ndarray
    x1: np.ndarray

    def __post_init__(self):
        x0 = np.asarray(self.x0, dtype=complex)
        x1 = np.asarray(self.x1, dtype=complex)
        if x0.ndim != 1 or x1.ndim != 1:
            raise ValueError("training symbols must be 1-D vectors")
        if x0.shape != x1.shape:
            raise ValueError(
                f"training symbols differ in length ({x0.size} vs {x1.size})")
        object.__setattr__(self, "x0", x0)
        object.__setattr__(self, "x1", x1)

    def symbol(self, m: int) -> np.ndarray:
        return (self.x0, self.x1)[m]


@dataclass(frozen=True)
class ChannelRealization:
    """Quasi-static multipath channel, one complex gain per tap."""

    taps: np.ndarray

    def __post_init__(self):
        taps = np.asarray(self.taps, dtype=complex)
        if taps.ndim != 1 or taps.size == 0:
            raise ValueError("taps must be a non-empty 1-D vector")
        object.__setattr__(self, "taps", taps)

    @property
    def n_taps(self) -> int:
        return self.taps.size


@dataclass(frozen=True)
class ImpairmentParams:
    """Synchronization impairments and the noise level of one burst.

    cfo is the carrier-frequency offset normalized to the subcarrier
    spacing; sfo is the fractional sampling-clock offset; noise_var is the
    total variance of the complex noise per received sample (split evenly
    between the real and imaginary parts).
    """

    cfo: float
    sfo: float
    noise_var: float = 0.0

    def __post_init__(self):
        for name in ("cfo", "sfo", "noise_var"):
            value = getattr(self, name)
            if not np.isfinite(value):
                raise ValueError(f"{name} must be finite, got {value}")
        if self.sfo <= -1.0:
            raise ValueError(f"sfo must exceed -1, got {self.sfo}")
        if self.noise_var < 0.0:
            raise ValueError(f"noise_var must be >= 0, got {self.noise_var}")


@dataclass(frozen=True)
class PreambleObservation:
    """Demodulated preamble: K-point spectra of both symbols plus the
    training pair that produced them."""

    r0: np.ndarray
    r1: np.ndarray
    training: TrainingSymbols

    def __post_init__(self):
        r0 = np.asarray(self.r0, dtype=complex)
        r1 = np.asarray(self.r1, dtype=complex)
        if r0.shape != r1.shape or r0.ndim != 1:
            raise ValueError("r0 and r1 must be 1-D vectors of equal length")
        if r0.size != self.training.x0.size:
            raise ValueError(
                f"observation length {r0.size} does not match training "
                f"length {self.training.x0.size}")
        object.__setattr__(self, "r0", r0)
        object.__setattr__(self, "r1", r1)


def exponential_power_profile(n_taps: int,
                              decay: float = PDP_DECAY_TAPS) -> np.ndarray:
    """Exponentially decaying power-delay profile normalized to unit sum."""
    if n_taps < 1:
        raise ValueError(f"n_taps must be >= 1, got {n_taps}")
    if decay <= 0:
        raise ValueError(f"decay must be positive, got {decay}")
    weights = np.exp(-np.arange(n_taps) / decay)
    return weights / weights.sum()


@functools.lru_cache(maxsize=_CACHE_SIZE)
def _tap_scale(n_taps: int, decay: float) -> np.ndarray:
    """Per-tap standard deviation of the real and imaginary parts."""
    return _read_only(np.sqrt(exponential_power_profile(n_taps, decay) / 2.0))


def channel_taps(normals: np.ndarray,
                 decay: float = PDP_DECAY_TAPS) -> np.ndarray:
    """Rayleigh taps with the exponential power profile, (..., L), from
    (..., 2, L) standard normals: real parts, then imaginary parts."""
    return _complex_normal(_tap_scale(normals.shape[-1], decay), normals)


def noise_variance_from_snr(config: OfdmConfig, snr_db: float) -> float:
    """Complex noise variance for a given SNR in dB.

    The SNR is defined against the mean received sample power, which is
    K/N for unit-power training symbols and a unit-energy average power
    profile, so noise_var = (K/N) * 10**(-snr_db/10).
    """
    return (config.n_active / config.dft_size) * 10.0 ** (-snr_db / 10.0)


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
    stack.
    """
    return (_dft_phases(config, taps.shape[-1]) @ taps[..., None])[..., 0]


def _noiseless_burst(config: OfdmConfig, symbols, taps: np.ndarray,
                     sfo: float) -> list:
    """Per training symbol m, (x H, B_m (x H)) as (T, K) and (T, N) rows,
    with H(k) formed once and x H once per distinct training array."""
    h = _channel_gains(config, taps)
    burst = []
    for m, x in enumerate(symbols):
        if x.shape[-1] != config.n_active:
            raise ValueError(f"training length {x.shape[-1]} does not "
                             f"match n_active {config.n_active}")
        xh = burst[-1][0] if m and x is symbols[m - 1] else x * h
        burst.append((xh, (_warped_basis(config, sfo, m)
                           @ xh[..., None])[..., 0]))
    return burst


def _synthesized(config: OfdmConfig, burst, cfo: float, sfo: float,
                 noise_var: float, normals) -> np.ndarray:
    """The (T, n_symbols, N) samples of a :func:`_noiseless_burst`."""
    samples = np.stack([_cfo_lead(config, cfo, sfo, m) * g
                        / np.sqrt(config.dft_size)
                        for m, (_, g) in enumerate(burst)], axis=1)
    if noise_var > 0.0:
        if normals is None:
            raise ValueError("normals are required when noise_var > 0")
        samples = samples + _complex_normal(np.sqrt(noise_var / 2.0),
                                            normals)
    return samples


def synthesize_rows(config: OfdmConfig, symbols, taps: np.ndarray,
                    cfo: float, sfo: float, noise_var: float = 0.0,
                    normals: np.ndarray | None = None) -> np.ndarray:
    """Simulate a stack of T bursts at once, (T, n_symbols, N).

    Evaluates the time-domain model of every training symbol m:

        r[n] = exp(j 2 pi (N_m + n) (1 + sfo) cfo / N) / sqrt(N)
               * sum_k X(k) H(k) exp(j 2 pi k (n (1 + sfo) + sfo N_m) / N)
               + w[n]

    where the sum runs over the active subcarriers and w is circular
    Gaussian noise of total variance ``noise_var``.

    Parameters
    ----------
    symbols : sequence of numpy.ndarray
        One (T, K) array of training rows per training symbol.
    taps : numpy.ndarray
        (T, L) channel taps.
    normals : numpy.ndarray, optional
        (T, n_symbols, 2, N) standard normals of each symbol's noise, real
        parts then imaginary parts; required when ``noise_var > 0``.
    """
    return _synthesized(config, _noiseless_burst(config, symbols, taps, sfo),
                        cfo, sfo, noise_var, normals)


def demodulate_rows(samples: np.ndarray, config: OfdmConfig) -> np.ndarray:
    """Unitary DFT of every row of samples, restricted to the active set.

    Returns R(k) = (1/sqrt(N)) sum_n r[n] exp(-j 2 pi k n / N) for k in
    the ascending active subcarrier set, (..., K), C-contiguous: picking
    the bins out of a stacked spectrum leaves a transposed layout that
    :func:`_sum_last` would otherwise have to copy.
    """
    if samples.shape[-1] != config.dft_size:
        raise ValueError(
            f"expected {config.dft_size} samples, got shape {samples.shape}")
    spectrum = np.fft.fft(samples, axis=-1) / np.sqrt(config.dft_size)
    return np.ascontiguousarray(
        spectrum[..., config.subcarrier_indices % config.dft_size])


def coupling_coefficient(k, i, cfo: float, sfo: float, dft_size: int):
    """Inter-carrier coupling delta_{k,i} of modulated subcarrier i into
    demodulated bin k under the given offsets.

    Defined as (1/N) sum_n exp(j 2 pi n a / N) with
    a = i sfo + cfo (1 + sfo) + i - k; evaluated in closed form as a
    Dirichlet kernel, with an explicit-sum fallback where the kernel
    denominator degenerates (a near a multiple of N). Broadcasts over
    arrays of k and i.
    """
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


def ici_term(k, m: int, training: TrainingSymbols,
             channel: ChannelRealization, cfo: float, sfo: float,
             config: OfdmConfig) -> complex:
    """Inter-carrier interference landing on bin k of training symbol m.

    Sums, over every active subcarrier i != k, the coupled and
    phase-rotated contribution delta_{k,i} exp(j 2 pi N_m (i sfo +
    cfo (1 + sfo)) / N) X_m(i) H(i), in ascending i order.
    """
    ks = config.subcarrier_indices
    x = training.symbol(m)
    start = config.symbol_start(m)
    h = _channel_gains(config, channel.taps)
    coupling = coupling_coefficient(float(k), ks, cfo, sfo, config.dft_size)
    phase = np.exp(1j * _TWO_PI / config.dft_size * start
                   * (ks * sfo + cfo * (1.0 + sfo)))
    terms = coupling * phase * x * h
    keep = ks != k
    return complex(terms[keep].sum())


def snr_stream_key(snr_db: float) -> int:
    """Stable integer key for an SNR point (milli-dB resolution)."""
    return int(round(float(snr_db) * 1000.0))


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

    A word is a Python int or a uint32 array over trials; int arithmetic
    is masked to 32 bits and array arithmetic wraps, so one word of the
    entropy can differ per trial while the rest stay scalars.
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
    words = np.empty((*shape, 2 * _POOL_SIZE), dtype=np.uint32)
    hash_const = _INIT_B
    for i_dst in range(2 * _POOL_SIZE):
        value = pool[i_dst % _POOL_SIZE] ^ hash_const
        hash_const = (hash_const * _MULT_B) & _MASK32
        value = (value * hash_const) & _MASK32
        words[..., i_dst] = value ^ (value >> _XSHIFT)
    return words.astype("<u4").view("<u8").astype(np.uint64)


def derive_states(master_seed: int, stream_key, trial_indices,
                  label) -> np.ndarray:
    """Seed words of ``derive_rng(master_seed, stream_key, t, label)`` for
    every trial index t, as a (T, 4) uint64 array: the one-label view of
    :func:`_derive_tables`, whose ValueError it raises."""
    return _derive_tables(master_seed, stream_key, trial_indices,
                          (label,))[label]


def _derive_tables(master_seed: int, stream_key, trial_indices,
                   labels) -> dict:
    """:func:`derive_states` of every label, as a dict by label.

    Runs SeedSequence's mixing and :func:`_seed_table`'s check once over
    the trial axis and the labels of each entropy word count (an int
    label below 2**32 is one word, a str label two): their words enter
    as (L, 1) columns against the (T,) trial words.
    :func:`seed_generator` turns a row into the generator.

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
    # One trial's and one label's words stay Python ints: scalar
    # arithmetic beats size-1 array arithmetic by an order of magnitude.
    trial_word = int(trials[0]) if trials.size == 1 \
        else trials.astype(np.uint32)
    head = _key_words(int(master_seed)) + _key_words(stream_key)
    groups = {}
    for label in labels:
        groups.setdefault(len(_key_words(label)), []).append(label)
    tables = {}
    for group in groups.values():
        words = _key_words(group[0]) if len(group) == 1 else list(np.array(
            [_key_words(label) for label in group], dtype=np.uint32).T[
                ..., None])
        seeds = _seed_words(_hash_pool(head + [trial_word] + words),
                            (len(group), trials.size))
        tables.update(zip(group, map(_seed_table, seeds)))
    return tables


class _SeedWords(np.random.bit_generator.ISeedSequence):
    """Hands PCG64 four seed words that are already derived, so numpy
    runs its own seeding step on them without a SeedSequence."""

    def __init__(self, words: np.ndarray):
        self.words = words

    def generate_state(self, n_words, dtype=np.uint64):
        return self.words


def _seed_table(seed_words) -> np.ndarray:
    """Seed words as a C-contiguous 2-D uint64 table with rows of four:
    PCG64 reads four words from a row's buffer, whatever its length."""
    words = np.asarray(seed_words)
    if words.dtype.kind not in "iu":  # Python ints >= 2**63 are not int64
        words = np.asarray(seed_words, dtype=object)
    if (words.ndim != 2 or words.shape[-1] != 4 or words.dtype == object
            and not all(isinstance(w, (int, np.integer)) for w in words.flat)
            or words.size and (words.min() < 0 or words.max() > _MASK64)):
        raise ValueError(f"seed rows need 4 ints in [0, 2**64): {words!r}")
    return np.ascontiguousarray(words, dtype=np.uint64)


def _qpsk_picks(seeds: np.ndarray, n_active: int) -> np.ndarray:
    """``integers(0, 4, K)`` of each :func:`_seed_table` row, (T, K), from
    raw PCG64 words: for a range of 4 Lemire's method never rejects and
    takes the top two bits of each 32-bit half, low half first (K even)."""
    raw = np.empty((len(seeds), n_active // 2), dtype=np.uint64)
    for out, words in zip(raw, seeds):
        out[:] = np.random.PCG64(_SeedWords(words)).random_raw(out.size)
    picks = np.empty((len(seeds), n_active), dtype=np.intp)
    picks[:, 0::2] = (raw >> 30) & 3
    picks[:, 1::2] = raw >> 62
    return picks


def seed_generator(seed_words) -> np.random.Generator:
    """A PCG64 generator freshly seeded with four 64-bit words, as
    ``PCG64`` seeds itself from ``SeedSequence.generate_state(4,
    uint64)``; anything but four integers in [0, 2**64) is a ValueError."""
    words = _seed_table([seed_words])[0]
    return np.random.Generator(np.random.PCG64(_SeedWords(words)))


def derive_rng(master_seed: int, *keys) -> np.random.Generator:
    """Derive an independent substream from a master seed and a key path.

    The stream is numpy's ``PCG64(SeedSequence(words))``, where ``words``
    are the master seed and every key split as :func:`_key_words` does;
    :func:`derive_states` computes the same seeds for many trials at
    once. The same (seed, keys) always yields the same stream.
    """
    entropy = _key_words(int(master_seed))
    for key in keys:
        entropy += _key_words(key)
    return seed_generator(_seed_words(_hash_pool(entropy), (1,))[0])
