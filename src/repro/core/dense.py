"""Dense packed-array coverage kernel: fixed-width uint64 block masks.

The bitset kernel (:mod:`repro.core.bitset`) made marginal *counts* one
machine-word operation, but its value *sums* still walk the mask's bytes in
an interpreted loop — the cost the ROADMAP flags as the bottleneck once the
answer set grows to n >= 10^5..10^6.  This module provides the third
kernel, ``"dense"``: the element universe is packed into fixed-width
64-bit blocks, and the four coverage primitives — AND, AND-NOT, popcount,
and masked value sum — run *block-level*:

* with **numpy** importable, masks are contiguous ``uint64`` arrays and
  the primitives are vectorized (``bitwise_and``/``bitwise_count`` — or a
  byte popcount LUT on older numpy — and boolean-indexed value sums over
  the contiguous float64 view of the answer set's value table);
* without numpy, the **pure-stdlib fallback** keeps the packed-block
  storage (materializable as ``array('Q')`` via :meth:`BitBlocks.blocks`)
  but routes the primitives through Python's arbitrary-precision ``int``
  view of the same bytes — itself a packed word array operated on at C
  speed — so the fallback is never slower than the bitset kernel beyond
  thin wrapper overhead.

Value tables live on the :class:`~repro.core.answers.AnswerSet` as one
contiguous ``array('d')`` row (:class:`ValueTable`); the numpy path views
that buffer zero-copy.  The bitset kernel's int masks share the same
vectorized value sum (:func:`int_mask_value_sum`, above 8 set bits), so
with numpy every kernel sums dense masks in C.

**Summation order is load-bearing.**  Every value-sum primitive adds in
ascending element-index order, exactly like the bitset kernel:

* the vectorized path selects values by boolean indexing (which preserves
  ascending order) and reduces them with ``np.add.accumulate`` — the
  ufunc *accumulate* is sequential by definition (``r[i] = r[i-1] + a[i]``),
  unlike ``np.sum``'s pairwise tree, so the floats are bit-identical to
  the scalar loop;
* the sparse path iterates set bits block by block, low bit first.

Ascending sequential summation is what makes subset sums float-monotone
for non-negative values — the soundness precondition of the lazy
upper-bound heap argmax (:mod:`repro.core.merge`) — and what makes the
``dense`` kernel bit-identical to ``bitset``/``python`` whenever sums are
exact (property-tested on dyadic-rational values).

Backend selection is process-wide: numpy is used when importable unless
the ``REPRO_DISABLE_NUMPY`` environment variable is set (the CI no-numpy
leg) or :class:`numpy_disabled` is active (tests and the benchmark's
fallback leg).  The flag is consulted at *mask construction* time; a
built mask carries its backend for its lifetime, so a pool and the masks
derived from it always agree.

>>> from repro.core.dense import ValueTable, blocks_of
>>> mask = blocks_of([0, 2, 5], nbits=8)
>>> mask.bit_count(), list(mask.indices())
(3, [0, 2, 5])
>>> mask.value_sum(ValueTable([1.0, 9.0, 2.0, 9.0, 9.0, 3.0, 9.0, 9.0]))
6.0
"""

from __future__ import annotations

import os
from array import array
from typing import Iterable, Iterator, Sequence

from repro.core.bitset import bitset_of, iter_bits, mask_value_sum

#: Environment variable that disables numpy even when it is importable —
#: the switch behind the CI no-numpy matrix leg and the benchmark's
#: array-fallback measurements.
DISABLE_NUMPY_ENV = "REPRO_DISABLE_NUMPY"

try:
    if os.environ.get(DISABLE_NUMPY_ENV, "").strip() not in ("", "0"):
        raise ImportError("numpy disabled via %s" % DISABLE_NUMPY_ENV)
    import numpy as _np
except ImportError:  # pragma: no cover - exercised by the no-numpy CI leg
    _np = None

#: True when the numpy backend could ever be used in this process.
HAVE_NUMPY = _np is not None

#: Runtime switch (see :func:`numpy_enabled` / :class:`numpy_disabled`).
_numpy_active = HAVE_NUMPY

if HAVE_NUMPY:
    #: Per-byte popcounts; the LUT path for numpy < 2.0 (no bitwise_count).
    _POPCOUNT8 = _np.array(
        [bin(value).count("1") for value in range(256)], dtype=_np.uint16
    )
    _HAVE_BITWISE_COUNT = hasattr(_np, "bitwise_count")
else:
    _POPCOUNT8 = None
    _HAVE_BITWISE_COUNT = False

#: Value sums over masks with at most this many non-zero blocks take the
#: scalar per-bit path (cheaper than a full unpackbits over the universe).
_SPARSE_BLOCK_LIMIT = 48

#: Int-mask value sums with more set bits than this take the vectorized
#: reduction (below it, peeling bits one by one is cheaper; measured at
#: n = 2*10^4, 5*10^4 and 10^6).
_NUMPY_SUM_MIN_BITS = 8

#: Cache of all-ones ints per universe size (the fallback's ~ operand).
_ONES_CACHE: dict[int, int] = {}


def numpy_enabled() -> bool:
    """True when new dense masks will use the vectorized numpy backend."""
    return _numpy_active and HAVE_NUMPY


class numpy_disabled:
    """Context manager forcing the stdlib fallback for masks built inside.

    Used by the kernel-equivalence tests and by ``run_bench.py`` to
    measure the array-fallback leg in a process that *does* have numpy.
    Masks built before entry keep their backend; only construction is
    affected, so build everything under test inside the context.
    """

    def __enter__(self) -> "numpy_disabled":
        global _numpy_active
        self._previous = _numpy_active
        _numpy_active = False
        return self

    def __exit__(self, *exc_info) -> None:
        global _numpy_active
        _numpy_active = self._previous


def _ones(nbits: int) -> int:
    """The all-ones int over *nbits* (cached; the fallback invert mask)."""
    mask = _ONES_CACHE.get(nbits)
    if mask is None:
        mask = (1 << nbits) - 1
        if len(_ONES_CACHE) > 16:  # a handful of live universe sizes
            _ONES_CACHE.clear()
        _ONES_CACHE[nbits] = mask
    return mask


class ValueTable:
    """The answer set's values as one contiguous ``array('d')`` row.

    ``values`` keeps the original boxed-float list (fastest for scalar
    indexing in the sparse/fallback paths); ``packed`` is the contiguous
    C-double row; ``np_view`` is the zero-copy float64 numpy view of
    ``packed`` when numpy is importable (built lazily so a numpy-less
    process never touches it).
    """

    __slots__ = ("values", "packed", "_np_view")

    def __init__(self, values: Sequence[float]) -> None:
        self.values = values if isinstance(values, list) else list(values)
        self.packed = array("d", self.values)
        self._np_view = None

    @property
    def np_view(self):
        """Zero-copy float64 view of :attr:`packed` (numpy path only)."""
        if self._np_view is None:
            if _np is None:  # pragma: no cover - numpy-less guard
                raise RuntimeError(
                    "ValueTable.np_view requires numpy; install the "
                    "repro[numpy] extra"
                )
            self._np_view = _np.frombuffer(self.packed, dtype=_np.float64)
        return self._np_view

    def __len__(self) -> int:
        return len(self.packed)

    def __repr__(self) -> str:
        return "ValueTable(n=%d)" % len(self.packed)


class BitBlocks:
    """An immutable element-set mask packed into fixed-width uint64 blocks.

    Supports the operator surface the merge engine's mask-kernel branch
    uses on int masks — ``&``, ``|``, ``~``, truthiness, ``bit_count()`` —
    so the same greedy code runs unchanged on either representation.
    Instances are immutable: operators return new objects, which is what
    keeps the engine's covered-union history log safe to share.

    Exactly one backend is populated per instance: ``_arr`` (a
    ``numpy.uint64`` array) on the vectorized backend, ``_int`` (the
    packed little-endian integer view of the same blocks) on the stdlib
    fallback.  ``_count`` lazily caches the popcount.
    """

    __slots__ = ("nbits", "_arr", "_int", "_count")

    def __init__(self) -> None:  # use the factory classmethods
        raise TypeError(
            "construct BitBlocks via blocks_of()/zero_blocks(), not directly"
        )

    # -- construction --------------------------------------------------------

    @classmethod
    def _from_array(cls, arr, nbits: int) -> "BitBlocks":
        self = object.__new__(cls)
        self.nbits = nbits
        self._arr = arr
        self._int = None
        self._count = None
        return self

    @classmethod
    def _from_int(cls, value: int, nbits: int) -> "BitBlocks":
        self = object.__new__(cls)
        self.nbits = nbits
        self._arr = None
        self._int = value
        self._count = None
        return self

    # -- backend views -------------------------------------------------------

    @property
    def nblocks(self) -> int:
        """Number of 64-bit blocks covering the universe."""
        return (self.nbits + 63) >> 6

    def _as_int(self) -> int:
        """The packed little-endian integer view (cached on demand)."""
        value = self._int
        if value is None:
            value = int.from_bytes(self._arr.tobytes(), "little")
            self._int = value
        return value

    def blocks(self) -> array:
        """The mask as a stdlib ``array('Q')`` of little-endian blocks."""
        if self._arr is not None:
            return array("Q", self._arr.tobytes())
        return array(
            "Q", self._int.to_bytes(self.nblocks * 8, "little")
        )

    # -- the block-level primitives ------------------------------------------

    def __and__(self, other: "BitBlocks") -> "BitBlocks":
        if self._arr is not None and other._arr is not None:
            return BitBlocks._from_array(self._arr & other._arr, self.nbits)
        # Fallback fast path: read the cached ints directly; _as_int()
        # only on a (rare) mixed-backend operand.
        a = self._int
        b = other._int
        if a is None:
            a = self._as_int()
        if b is None:
            b = other._as_int()
        return BitBlocks._from_int(a & b, self.nbits)

    def __or__(self, other: "BitBlocks") -> "BitBlocks":
        if self._arr is not None and other._arr is not None:
            return BitBlocks._from_array(self._arr | other._arr, self.nbits)
        a = self._int
        b = other._int
        if a is None:
            a = self._as_int()
        if b is None:
            b = other._as_int()
        return BitBlocks._from_int(a | b, self.nbits)

    def __xor__(self, other: "BitBlocks") -> "BitBlocks":
        if self._arr is not None and other._arr is not None:
            return BitBlocks._from_array(self._arr ^ other._arr, self.nbits)
        a = self._int
        b = other._int
        if a is None:
            a = self._as_int()
        if b is None:
            b = other._as_int()
        return BitBlocks._from_int(a ^ b, self.nbits)

    def __invert__(self) -> "BitBlocks":
        """Complement within the universe (tail bits stay clear)."""
        if self._arr is not None:
            inverted = _np.bitwise_not(self._arr)
            tail = self.nbits & 63
            if tail:
                inverted[-1] &= _np.uint64((1 << tail) - 1)
            return BitBlocks._from_array(inverted, self.nbits)
        return BitBlocks._from_int(
            _ones(self.nbits) & ~self._int, self.nbits
        )

    def __bool__(self) -> bool:
        if self._count is not None:
            return self._count > 0
        if self._arr is not None:
            return bool(self._arr.any())
        return self._int != 0

    def __eq__(self, other: object) -> bool:
        if not isinstance(other, BitBlocks):
            return NotImplemented
        if self.nbits != other.nbits:
            return False
        return self._as_int() == other._as_int()

    __hash__ = None  # mutable-adjacent semantics: masks are not dict keys

    def bit_count(self) -> int:
        """Popcount over all blocks (cached)."""
        count = self._count
        if count is None:
            if self._arr is None:
                count = self._int.bit_count()
            elif _HAVE_BITWISE_COUNT:
                count = int(_np.bitwise_count(self._arr).sum())
            else:  # pragma: no cover - numpy < 2.0 only
                count = int(_POPCOUNT8[self._arr.view(_np.uint8)].sum())
            self._count = count
        return count

    def test(self, index: int) -> bool:
        """Membership of element *index* (one block load + shift)."""
        if self._arr is not None:
            return bool((int(self._arr[index >> 6]) >> (index & 63)) & 1)
        return bool((self._int >> index) & 1)

    def indices(self) -> Iterator[int]:
        """Set-bit indices in ascending order."""
        if self._arr is not None:
            flat = _np.flatnonzero(
                _np.unpackbits(
                    self._arr.view(_np.uint8),
                    count=self.nbits,
                    bitorder="little",
                )
            )
            return iter(flat.tolist())
        return iter_bits(self._int)

    def lowest_bit(self) -> int:
        """Index of the lowest set bit (-1 when empty)."""
        if self._arr is not None:
            nonzero = _np.flatnonzero(self._arr)
            if nonzero.size == 0:
                return -1
            block_index = int(nonzero[0])
            block = int(self._arr[block_index])
            return (block_index << 6) + ((block & -block).bit_length() - 1)
        if not self._int:
            return -1
        return (self._int & -self._int).bit_length() - 1

    def value_sum(self, table: ValueTable) -> float:
        """Sum ``table[i]`` over set bits, in ascending index order.

        The vectorized path unpacks the mask to a boolean row, selects
        (order-preserving) from the contiguous float64 view, and reduces
        with the *sequential* ``np.add.accumulate``; sparse masks (few
        non-zero blocks) iterate bits scalar-side instead.  Both paths
        produce the exact floats of :func:`repro.core.bitset.mask_value_sum`.
        """
        if self._arr is None:
            return mask_value_sum(table.values, self._int)
        arr = self._arr
        nonzero = _np.flatnonzero(arr)
        if nonzero.size == 0:
            return 0.0
        if nonzero.size <= _SPARSE_BLOCK_LIMIT:
            values = table.values
            total = 0.0
            for block_index in nonzero.tolist():
                block = int(arr[block_index])
                base = block_index << 6
                while block:
                    low = block & -block
                    total += values[base + (low.bit_length() - 1)]
                    block ^= low
            return total
        return _sum_set_bits(table, arr.view(_np.uint8), self.nbits)

    def __repr__(self) -> str:
        backend = "numpy" if self._arr is not None else "array"
        return "BitBlocks(nbits=%d, count=%d, backend=%s)" % (
            self.nbits, self.bit_count(), backend
        )


def _sum_set_bits(table: ValueTable, raw, nbits: int) -> float:
    """Sum ``table`` over the set bits of *raw* (a little-endian uint8
    row holding at least one set bit), in ascending index order.

    Unpacks the bits to a boolean row, selects (order-preserving) from
    the contiguous float64 view, and reduces with ``np.add.accumulate``:
    the ufunc accumulate is sequential by definition, so the floats are
    those of the scalar loop in :func:`repro.core.bitset.mask_value_sum`,
    while ``np.sum``'s pairwise tree would not be.
    """
    selected = table.np_view[
        _np.unpackbits(raw, count=nbits, bitorder="little").view(_np.bool_)
    ]
    return float(_np.add.accumulate(selected)[-1])


def int_mask_value_sum(table: ValueTable, mask: int) -> float:
    """:func:`repro.core.bitset.mask_value_sum` of an int *mask* over
    *table* on the numpy backend: through the vectorized reduction when
    the mask has more than :data:`_NUMPY_SUM_MIN_BITS` set bits (the
    measured crossover), through the scalar loop otherwise.  Both routes
    return the same float."""
    if mask.bit_count() <= _NUMPY_SUM_MIN_BITS:
        return mask_value_sum(table.values, mask)
    nbits = len(table)
    raw = _np.frombuffer(mask.to_bytes((nbits + 7) >> 3, "little"),
                         dtype=_np.uint8)
    return _sum_set_bits(table, raw, nbits)


def zero_blocks(nbits: int) -> BitBlocks:
    """The empty mask over a universe of *nbits* elements."""
    if numpy_enabled():
        return BitBlocks._from_array(
            _np.zeros((nbits + 63) >> 6, dtype=_np.uint64), nbits
        )
    return BitBlocks._from_int(0, nbits)


def blocks_of(indices: Iterable[int], nbits: int) -> BitBlocks:
    """Pack *indices* into a :class:`BitBlocks` mask over *nbits* elements.

    The numpy path scatters into a byte-per-bit row and ``packbits`` it —
    O(n) vectorized regardless of how many indices there are — which is
    what makes dense pools cheap to build at n = 10^6; the fallback
    reuses :func:`repro.core.bitset.bitset_of`.
    """
    if numpy_enabled():
        nblocks = (nbits + 63) >> 6
        flags = _np.zeros(nblocks << 6, dtype=_np.uint8)
        if not isinstance(indices, (list, tuple)):
            indices = list(indices)
        if indices:
            flags[_np.array(indices, dtype=_np.int64)] = 1
        return BitBlocks._from_array(
            _np.packbits(flags, bitorder="little").view(_np.uint64),
            nbits,
        )
    return BitBlocks._from_int(bitset_of(indices), nbits)


def blocks_from_int(value: int, nbits: int) -> BitBlocks:
    """The int mask *value* (below ``2**nbits``) as a :class:`BitBlocks`
    mask over *nbits* elements."""
    if numpy_enabled():
        raw = value.to_bytes(((nbits + 63) >> 6) << 3, "little")
        return BitBlocks._from_array(
            _np.frombuffer(raw, dtype=_np.uint64).copy(), nbits
        )
    return BitBlocks._from_int(value, nbits)


def first_n_blocks(count: int, nbits: int) -> BitBlocks:
    """The mask of elements ``0..count-1`` (the brute-force top-L mask)."""
    return blocks_from_int((1 << count) - 1, nbits)


def mask_indices(mask) -> Iterator[int]:
    """Ascending set-bit indices of either mask representation.

    Accepts an int (bitset kernel) or a :class:`BitBlocks` (dense kernel);
    pools, clusters and solutions derive their element sets through this,
    and the engine lists a cluster's elements with it.
    """
    if isinstance(mask, int):
        return iter_bits(mask)
    return mask.indices()


class _DenseMaskOps:
    """Cold-path mask helpers the merge engine dispatches per kernel."""

    __slots__ = ()

    @staticmethod
    def empty(nbits: int) -> BitBlocks:
        return zero_blocks(nbits)

    @staticmethod
    def test(mask: BitBlocks, index: int) -> bool:
        return mask.test(index)

    @staticmethod
    def indices(mask: BitBlocks) -> Iterator[int]:
        return mask.indices()


#: The dense kernel's engine-facing mask helpers (cold paths only; hot
#: paths use the BitBlocks operators directly).
DENSE_MASK_OPS = _DenseMaskOps()
