"""Stochastic estimation of the Hessian diagonal.

For a Rademacher probe z (i.i.d. entries, +1 or -1 with probability 1/2),
E[z * (Hz)] equals diag(H) for symmetric H, so averaging z * Hz over probes
estimates the diagonal using only Hessian-vector products. A single probe is
exact whenever H is diagonal.

Estimates may be computed on a reduced schedule: every iteration during
warmup, then once every ``frequency`` iterations. Skipped iterations reuse
the most recent estimate; the caller's moment accumulators still advance
every iteration so bias corrections see the true iteration count.

Randomness comes from numpy's Philox generator (counter-based, explicitly
seeded), so estimates are reproducible bit-for-bit across platforms for a
given (seed, stream) pair. :func:`rademacher` draws one probe or a whole
``(n, d)`` batch of them in one call; the batch's rows are the probes that n
one-probe calls would have drawn, in order.

Each estimate takes its probes from one of two sources: the ``(n, d)``
probes themselves, or a Generator that :func:`estimate_diag` reads through
``rademacher`` in blocks of at most ``_BLOCK_ENTRIES`` (65,536) entries.
A run derives the keys of its iterations once, before its loop:
:func:`probe_keys` hashes every (seed, t) in one vectorized pass, to the keys
of :func:`probe_rng`'s generators. :func:`probe_pass` then yields a source
for each iteration that :func:`should_compute` selects: for an estimate of at
most ``_BLOCK_ENTRIES`` entries, its ``(n, d)`` rows of a chunk of estimates
drawn at once from raw Philox words into one buffer; for a larger one, the
Generator of ``probe_rng(seed, t)``. Either way they are the probes that
``rademacher`` draws from ``probe_rng(seed, t)``, and a run holds one chunk
or one block at a time. The hash is numpy's SeedSequence, and
:func:`seed_words` is its one copy: the minibatch pass
(``DifferentiableProblem.sample_batches``) seeds its PCG64 lanes with it too.
``probe_rng`` and ``rademacher`` stay the numpy reference that the oracle and
the tests call.
"""

from __future__ import annotations

import functools
import operator
from dataclasses import dataclass

import numpy as np

from .autodiff import NumericError, all_finite, as_float64

__all__ = [
    "HutchinsonConfig",
    "DiagEstimate",
    "probe_rng",
    "probe_keys",
    "seed_words",
    "rademacher",
    "probe_pass",
    "estimate_diag",
    "should_compute",
]

# numpy's SeedSequence hash (numpy/random/bit_generator.pyx): entropy words are
# hashed into a pool of 4 uint32 words with multipliers that evolve from these
# constants independently of the data, then the pool is hashed into the state.
_POOL = 4
_INIT_A, _MULT_A = 0x43B0D7E5, 0x931E8875
_INIT_B, _MULT_B = 0x8B51F9DD, 0x58F38DED
_MIX_L, _MIX_R = np.uint32(0xCA01F9DD), np.uint32(0x4973F715)
_MASK32 = 0xFFFFFFFF

# Probe entries that one draw holds: a run's chunk of several estimates' probes,
# or a block of one estimate's probes read from a Generator.
_BLOCK_ENTRIES = 1 << 16
# Every keyed draw sets this generator's whole state before it draws, so no
# draw depends on an earlier one (within one thread: nothing here locks it).
_PHILOX = np.random.Philox(0)
_SIGNS = np.array([-1.0, 1.0])


@dataclass(frozen=True)
class HutchinsonConfig:
    """Estimation schedule and sampling parameters.

    Attributes:
        samples_per_estimate: probes averaged per estimate (>= 1).
        frequency: compute a fresh estimate every n-th iteration after warmup.
        warmup_steps: compute every iteration while t <= warmup_steps.
        seed: unused; ``estimate_diag`` takes the probes or the Generator it
            is passed, and a run keys its probes by ``RunConfig.seed`` and t.
    """

    samples_per_estimate: int = 1
    frequency: int = 1
    warmup_steps: int = 0
    seed: int = 0

    def __post_init__(self):
        if self.samples_per_estimate < 1:
            raise ValueError("samples_per_estimate must be >= 1")
        if self.frequency < 1:
            raise ValueError("frequency must be >= 1")
        if self.warmup_steps < 0:
            raise ValueError("warmup_steps must be >= 0")


@dataclass
class DiagEstimate:
    """A Hessian-diagonal estimate.

    Entries may be negative in non-convex regions; the sign is preserved.
    """

    values: np.ndarray

    def __post_init__(self):
        self.values = as_float64(self.values)
        if not all_finite(self.values):
            raise ValueError("diagonal estimate contains non-finite entries")


def probe_rng(seed: int, stream: int = 0) -> np.random.Generator:
    """Philox generator keyed by (seed, stream).

    Philox is counter-based: the same key always reproduces the same draws,
    independent of platform or call history, which is what makes trajectory
    files byte-identical across reruns.
    """
    return np.random.Generator(np.random.Philox(np.random.SeedSequence([seed, stream])))


def rademacher(shape: int | tuple[int, int], rng: np.random.Generator) -> np.ndarray:
    """I.i.d. entries drawn uniformly from {-1.0, +1.0}.

    ``shape`` is an int ``d`` for one probe of length d, or a pair ``(n, d)``
    for n probes stacked as rows. Row i of an ``(n, d)`` draw equals the i-th
    of n successive ``rademacher(d, rng)`` calls on an identically keyed
    generator, and leaves the generator in the same state: the batch consumes
    the same Philox output words in the same order.
    """
    # Plain-Python checks: np.atleast_1d would add microseconds to every probe.
    if type(shape) is tuple:
        if len(shape) != 2 or shape[0] < 1 or shape[1] < 1:
            raise ValueError(f"shape must be d or (n, d) with n, d >= 1, got {shape!r}")
    elif shape < 1:
        raise ValueError("d must be >= 1")
    z = rng.integers(0, 2, size=shape).astype(np.float64)
    z *= 2.0
    z -= 1.0
    return z


def probe_keys(seed: int, streams) -> np.ndarray:
    """The Philox keys of ``probe_rng(seed, s)`` for every s in ``streams``:
    ``seed_words(seed, streams, 2)``."""
    return seed_words(seed, streams, 2)


def seed_words(seed: int, streams, words: int) -> np.ndarray:
    """``SeedSequence([seed, s]).generate_state(words, np.uint64)`` for every s
    in ``streams``, as the rows of a ``(len(streams), words)`` uint64 array.

    It is computed for all streams in one vectorized uint32 pass per entropy
    length (a stream below 2**32 adds one 32-bit word, a larger one two).
    Streams lie in [0, 2**64).
    """
    seed = operator.index(seed)
    if seed < 0:
        raise ValueError(f"seed must be >= 0, got {seed}")
    streams = np.asarray(streams, dtype=np.uint64).reshape(-1)
    seed_parts = [seed >> shift & _MASK32 for shift in range(0, max(seed.bit_length(), 1), 32)]
    state = np.empty((streams.size, words), dtype=np.uint64)
    wide = streams > _MASK32
    for rows, stream_words in ((~wide, (0,)), (wide, (0, 32))):
        chosen = streams[rows]
        if chosen.size:
            entropy = np.empty((len(seed_parts) + len(stream_words), chosen.size), np.uint32)
            entropy[:len(seed_parts)] = np.array(seed_parts, np.uint32)[:, None]
            for i, shift in enumerate(stream_words, start=len(seed_parts)):
                entropy[i] = chosen >> np.uint64(shift) & np.uint64(_MASK32)
            state[rows] = _seed_sequence_state(entropy, words)
    return state


@functools.cache
def _multipliers(init: int, mult: int, n: int) -> np.ndarray:
    """``init`` and the n multipliers that follow it, as a read-only (n + 1, 1) column."""
    out = [init]
    for _ in range(n):
        out.append(out[-1] * mult & _MASK32)
    column = np.array(out, dtype=np.uint32)[:, None]
    column.flags.writeable = False
    return column


def _hashmix(values: np.ndarray, consts: np.ndarray) -> np.ndarray:
    """numpy's hashmix, with step i xoring ``consts[i]`` and multiplying by ``consts[i + 1]``."""
    values = (values ^ consts[:-1]) * consts[1:]
    return values ^ values >> np.uint32(16)


def _mix(x: np.ndarray, y: np.ndarray) -> np.ndarray:
    result = _MIX_L * x - _MIX_R * y
    return result ^ result >> np.uint32(16)


def _seed_sequence_state(entropy: np.ndarray, words: int) -> np.ndarray:
    """``generate_state(words, np.uint64)`` of the SeedSequence of each column
    of ``entropy`` (a (width, n) uint32 array), every step applied to all columns."""
    width = len(entropy)
    a = _multipliers(_INIT_A, _MULT_A, _POOL * _POOL + _POOL * max(width - _POOL, 0))
    pool = np.zeros((_POOL, entropy.shape[1]), np.uint32)
    pool[:width] = entropy[:_POOL]
    pool = _hashmix(pool, a[:_POOL + 1])
    k = _POOL
    for src in range(_POOL):  # mix each pool word into every other one
        dst = [i for i in range(_POOL) if i != src]
        pool[dst] = _mix(pool[dst], _hashmix(pool[src], a[k:k + _POOL]))
        k += _POOL - 1
    for word in entropy[_POOL:]:  # entropy beyond the pool joins every word
        pool = _mix(pool, _hashmix(word, a[k:k + _POOL + 1]))
        k += _POOL
    # the output's 2 * words uint32 words cycle through the pool
    state = _hashmix(pool[np.arange(2 * words) % _POOL],
                     _multipliers(_INIT_B, _MULT_B, 2 * words)).astype(np.uint64)
    return (state[0::2] | state[1::2] << np.uint64(32)).T  # little-endian word pairs


def _keyed_probes(keys: np.ndarray, n: int, d: int, out: np.ndarray) -> np.ndarray:
    """The n probes of length d of each key of ``keys`` (a ``(k, 2)`` array from
    :func:`probe_keys`), written into ``out``, a ``(k, n, d)`` array. Key j's
    probes are ``rademacher((n, d), Generator(Philox(key=keys[j])))``:
    ``integers(0, 2)`` on a fresh generator takes a 32-bit Lemire draw whose
    rejection threshold (2**32 - 2) mod 2 is 0, so entry i is the top bit of
    the i-th 32-bit half of the raw 64-bit words, low half first. Each key's
    generator is set to counter 0 in turn, then the signs of every key are
    read in one pass.
    """
    count = (n * d + 1) // 2
    words = np.empty((len(keys), count), dtype="<u8")
    inner = {"counter": (0, 0, 0, 0), "key": None}
    state = {"bit_generator": "Philox", "state": inner, "buffer": (0, 0, 0, 0),
             "buffer_pos": 4, "has_uint32": 0, "uinteger": 0}
    for row, key in zip(words, keys):
        inner["key"] = key
        _PHILOX.state = state
        row[:] = _PHILOX.random_raw(count)
    tops = words.view("<u4")[:, :n * d] >> 31
    _SIGNS.take(tops, out=out.reshape(len(keys), n * d), mode="clip")
    return out


def probe_pass(keys: np.ndarray, n: int, d: int):
    """Yield, for each key of ``keys`` in turn, the source that
    :func:`estimate_diag` takes for that key's n probes of length d: the
    ``(n, d)`` probes, or, if they exceed ``_BLOCK_ENTRIES`` entries, the
    key's Generator, ``Generator(Philox(key=key))``, which is the one
    :func:`probe_rng` builds for that key.

    The probes of as many keys as fit in ``_BLOCK_ENTRIES`` entries are drawn
    at once, each chunk when the first of its keys is asked for, into one
    buffer that the next chunk overwrites: a key's probes are valid until the
    probes of the next chunk are asked for.
    """
    if d < 1:
        raise ValueError("d must be >= 1")
    if n * d > _BLOCK_ENTRIES:
        for key in keys:
            yield np.random.Generator(np.random.Philox(key=key))
        return
    step = max(1, min(len(keys), _BLOCK_ENTRIES // (n * d)))
    buffer = np.empty((step, n, d))
    for first in range(0, len(keys), step):
        chunk = keys[first:first + step]
        yield from _keyed_probes(chunk, n, d, buffer[:len(chunk)])


def estimate_diag(problem, theta, batch, cfg: HutchinsonConfig, source,
                  hvp=None) -> DiagEstimate:
    """Mean of z * (Hz) over ``cfg.samples_per_estimate`` Rademacher probes.

    ``source`` is the ``(samples_per_estimate, d)`` probes themselves (as
    :func:`probe_pass` yields them), or a Generator that they are drawn from
    through :func:`rademacher` in blocks of at most ``_BLOCK_ENTRIES``
    entries; any other source is a ValueError. ``hvp`` may be a prebuilt
    ``z -> Hz`` callable (for example the harness's per-iteration tape);
    otherwise one is built from the problem at ``theta`` over ``batch``. All
    probes share the same tape and batch. Raises NumericError (phase ``hvp``)
    if the probes' sum overflows.
    """
    d = as_float64(theta).shape[0]
    n = cfg.samples_per_estimate
    if isinstance(source, np.random.Generator):
        rows = max(1, _BLOCK_ENTRIES // d)
        blocks = (rademacher((min(rows, n - start), d), source) for start in range(0, n, rows))
    elif isinstance(source, np.ndarray) and source.shape == (n, d):
        blocks = (source,)
    else:
        raise ValueError(f"expected {n} probes of length {d}, got shape {np.shape(source)}")
    if hvp is None:
        hvp = problem.hvp_operator(theta, batch)
    acc = np.zeros(d)
    for block in blocks:
        for z in block:
            acc += z * hvp(z)
    if not all_finite(acc):
        raise NumericError(f"non-finite value in {problem.name} Hutchinson sum of "
                           f"{n} probes", phase="hvp")
    return DiagEstimate(acc / n)


def should_compute(t: int, cfg: HutchinsonConfig) -> bool:
    """Whether iteration t (1-based) gets a fresh diagonal estimate.

    True during warmup (t <= warmup_steps) and then once every
    ``frequency`` iterations, starting immediately after warmup ends.
    """
    if t < 1:
        raise ValueError("iterations are 1-based")
    if t <= cfg.warmup_steps:
        return True
    return (t - cfg.warmup_steps - 1) % cfg.frequency == 0
