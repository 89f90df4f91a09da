"""Bitset coverage kernel: element sets as arbitrary-precision int masks.

The greedy algorithms spend almost all of their time asking two questions
about element sets: "how many elements of cov(c) are not yet covered?" and
"what is the sum of their values?".  A ``frozenset`` of element indices
(what :mod:`repro.core.reference` uses) answers both with interpreted
loops.  This module provides the bitset representation used by the
default kernel: the covered set of a cluster (and the running covered union ``T``
of a solution) is an ``int`` whose bit *i* is set iff element *i* (by rank
in the :class:`~repro.core.answers.AnswerSet`) is covered.  Then

* membership is ``(mask >> i) & 1``,
* set difference is ``a & ~b``,
* the marginal *count* is ``(cand & ~covered).bit_count()``,

all of which run at C speed on machine words.  Value *sums* over a mask
cannot be answered by popcount; :func:`mask_value_sum` iterates only the
set bits (sparse masks) or only the non-zero bytes (dense masks), which in
practice is 1-2 orders of magnitude faster than iterating a Python set.
With numpy available, :meth:`repro.core.answers.AnswerSet.mask_value_sum`
sends int masks of more than 8 set bits through the dense kernel's
vectorized sequential reduction instead (same floats; see
:func:`repro.core.dense.int_mask_value_sum`); this module stays the
stdlib path, the one every value sum takes without numpy.

Kernels are named: ``"bitset"`` (this module, the default) and
``"dense"`` (fixed-width uint64 block masks with numpy-vectorized
primitives — :mod:`repro.core.dense` — built for n >= 10^5..10^6).
``"auto"`` is a *policy*, not a kernel: :func:`resolve_kernel` maps it
to ``"dense"`` from :data:`DENSE_AUTO_THRESHOLD` elements up and to the
default below.  The dense kernel needs numpy: without it, ``"dense"``
and ``"auto"`` both resolve to ``"bitset"``.  Both kernels run one
greedy code path, sum values in ascending element-index order, and are
float-identical to each other.  (``"python"``, the set-based kernel of
versions before 4.0.0, is gone; its role as the kernel ablation's
baseline passed to :mod:`repro.core.reference`.)

The three primitives in one glance::

    >>> from repro.core.bitset import bitset_of, iter_bits, mask_value_sum
    >>> mask = bitset_of([0, 2, 5])
    >>> bin(mask)
    '0b100101'
    >>> list(iter_bits(mask))
    [0, 2, 5]
    >>> mask_value_sum([1.0, 9.0, 2.0, 9.0, 9.0, 3.0], mask)
    6.0

``mask_value_sum`` always adds in ascending index order, which is what
makes subset sums float-monotone — the property the merge engine's lazy
heap argmax leans on for its upper bounds (:mod:`repro.core.merge`).
"""

from __future__ import annotations

from typing import Iterable, Iterator, Sequence

from repro.common.errors import InvalidParameterError

#: The optimized int-mask kernel (default).
BITSET_KERNEL = "bitset"
#: The packed uint64-block kernel (numpy only; bitset runs without numpy).
DENSE_KERNEL = "dense"
#: Every concrete kernel name the engines accept.
KERNELS = (BITSET_KERNEL, DENSE_KERNEL)
#: What engines run when no kernel is requested.
DEFAULT_KERNEL = BITSET_KERNEL
#: The size-based kernel policy: resolved per instance, never run as-is.
AUTO_KERNEL = "auto"
#: What requests/CLI may carry: every kernel plus the auto policy.
KERNEL_CHOICES = KERNELS + (AUTO_KERNEL,)
#: ``kernel="auto"`` selects the dense kernel at or above this answer-set
#: size, provided numpy is importable.  Set on the served path:
#: ``Engine.submit_dict``, Hybrid, warm pools, 18 (k, L, D) cells x 3
#: passes over ``synthetic_answer_set(n, m=6, domain_size=32, seed)``,
#: 2-core host.  Summary p50 in ms, bitset vs dense, two runs each:
#:
#:   n       seed 5                      seed 6
#:   10^5    16.4 / 17.7, 12.7 / 13.8    7.0 / 8.5,   8.5 / 9.7
#:   2x10^5  23.8 / 20.0, 25.8 / 20.8    17.8 / 13.2, 20.6 / 16.4
#:   5x10^5  48.7 / 33.4, 47.1 / 31.3    37.7 / 25.2, 30.1 / 19.5
#:   10^6    64.9 / 43.1, 91.0 / 52.4    73.9 / 42.8, 81.2 / 45.9
#:
#: 2x10^5 is the smallest size measured where dense wins on both seeds.
DENSE_AUTO_THRESHOLD = 200_000

#: Bit offsets set in each possible byte value; drives the dense-sum path.
_BYTE_BITS: tuple[tuple[int, ...], ...] = tuple(
    tuple(b for b in range(8) if (value >> b) & 1) for value in range(256)
)

#: Masks with at most this many set bits take the per-bit (sparse) path.
_SPARSE_LIMIT = 96


def resolve_kernel(kernel: str | None, n: int | None = None) -> str:
    """Resolve a kernel request to the concrete kernel an engine will run.

    ``None`` resolves to :data:`DEFAULT_KERNEL`.  ``"auto"`` applies the
    size policy: :data:`DENSE_KERNEL` when the instance size *n* is known
    and at least :data:`DENSE_AUTO_THRESHOLD` — otherwise the default.
    Concrete names pass through after validation, except that
    :data:`DENSE_KERNEL` (asked for or picked by ``"auto"``) resolves to
    :data:`BITSET_KERNEL` when numpy is not importable.  Every layer that
    resolves (pool construction, merge engine, service cache keys) passes
    the same *n*, so one request resolves identically everywhere.
    """
    if kernel is None:
        return DEFAULT_KERNEL
    if kernel == AUTO_KERNEL:
        if n is None or n < DENSE_AUTO_THRESHOLD:
            return DEFAULT_KERNEL
        kernel = DENSE_KERNEL
    elif kernel not in KERNELS:
        raise InvalidParameterError(
            "unknown kernel %r; expected one of %r" % (kernel, KERNEL_CHOICES)
        )
    if kernel == DENSE_KERNEL:
        from repro.core import dense

        if not dense.HAVE_NUMPY:
            return BITSET_KERNEL
    return kernel


def bitset_of(indices: Iterable[int]) -> int:
    """The int mask with exactly the bits in *indices* set.

    Built through a ``bytearray`` so the cost is O(max_index / 8 + len),
    independent of how the indices are ordered; much faster than folding
    ``1 << i`` shifts for large index sets.
    """
    ids = indices if isinstance(indices, (list, tuple)) else list(indices)
    if not ids:
        return 0
    buf = bytearray((max(ids) >> 3) + 1)
    for index in ids:
        buf[index >> 3] |= 1 << (index & 7)
    return int.from_bytes(buf, "little")


def iter_bits(mask: int) -> Iterator[int]:
    """The indices of set bits, in ascending order.

    Takes the two paths of :func:`mask_value_sum`: sparse masks peel the
    lowest bit per step; denser ones walk the mask's bytes and skip zero
    bytes, O(n/8) plus one step per set bit instead of one n-bit shift
    per set bit.
    """
    if mask.bit_count() <= _SPARSE_LIMIT:
        bits = []
        while mask:
            low = mask & -mask
            bits.append(low.bit_length() - 1)
            mask ^= low
        return iter(bits)
    byte_bits = _BYTE_BITS
    return iter([
        (position << 3) + offset
        for position, byte in enumerate(
            mask.to_bytes((mask.bit_length() + 7) >> 3, "little")
        )
        if byte
        for offset in byte_bits[byte]
    ])


def mask_value_sum(values: Sequence[float], mask: int) -> float:
    """Sum ``values[i]`` over the set bits of *mask*, in ascending order.

    Sparse masks (popcount <= ~100) iterate bit by bit; dense masks walk
    the mask's bytes and skip zero bytes, giving O(n/8) plus one add per
    set bit.  Both paths add in ascending index order, so the result is
    deterministic for a given mask.
    """
    if not mask:
        return 0.0
    total = 0.0
    if mask.bit_count() <= _SPARSE_LIMIT:
        while mask:
            low = mask & -mask
            total += values[low.bit_length() - 1]
            mask ^= low
        return total
    base = 0
    byte_bits = _BYTE_BITS
    for byte in mask.to_bytes((mask.bit_length() + 7) >> 3, "little"):
        if byte:
            for offset in byte_bits[byte]:
                total += values[base + offset]
        base += 8
    return total
