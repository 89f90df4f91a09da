"""Dense packed-array coverage kernel: fixed-width uint64 block masks.

The bitset kernel (:mod:`repro.core.bitset`) made marginal *counts* one
machine-word operation, but its value *sums* still walk the mask's bytes in
an interpreted loop — the cost that dominates once the answer set grows to
n >= 10^5..10^6.  This module provides the third kernel, ``"dense"``: the
element universe is packed into fixed-width 64-bit blocks held in a
contiguous numpy ``uint64`` array, and the four coverage primitives — AND,
AND-NOT, popcount, and masked value sum — run vectorized
(``bitwise_and``/``bitwise_count`` — or a byte popcount LUT on older numpy
— and boolean-indexed value sums over the answer set's float64 value
array).

The kernel needs numpy.  Without it, :data:`HAVE_NUMPY` is false and
:func:`repro.core.bitset.resolve_kernel` maps ``"dense"`` and ``"auto"``
to ``"bitset"``, so no dense mask is ever built; the int-mask helpers
here (:func:`mask_indices`, :func:`int_mask_value_sum`) are what the other
kernels use from this module.

Value tables live on the :class:`~repro.core.answers.AnswerSet`
(:class:`ValueTable`): the value list, plus a float64 array built from it
on first vectorized use.  The bitset kernel's int masks share the same
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
``dense`` kernel bit-identical to ``bitset``, always.

>>> from repro.core.bitset import bitset_of
>>> from repro.core.dense import ValueTable, int_to_blocks
>>> mask = int_to_blocks(bitset_of([0, 2, 5]), nbits=8)
>>> mask.bit_count(), list(mask.indices())
(3, [0, 2, 5])
>>> mask.value_sum(ValueTable([1.0, 9.0, 2.0, 9.0, 9.0, 3.0, 9.0, 9.0]))
6.0
"""

from __future__ import annotations

from typing import Iterator, Sequence

from repro.core.bitset import iter_bits, mask_value_sum

try:
    import numpy as _np
except ImportError:  # pragma: no cover - exercised by the no-numpy CI job
    _np = None

#: True when numpy is importable: the dense kernel runs only then.
HAVE_NUMPY = _np is not None

if HAVE_NUMPY:
    #: Per-byte popcounts; the LUT path for numpy < 2.0 (no bitwise_count).
    _POPCOUNT8 = _np.array(
        [bin(value).count("1") for value in range(256)], dtype=_np.uint16
    )
    _HAVE_BITWISE_COUNT = hasattr(_np, "bitwise_count")

#: Value sums over masks with at most this many non-zero blocks take the
#: scalar per-bit path (cheaper than a full unpackbits over the universe).
_SPARSE_BLOCK_LIMIT = 48

#: Int-mask value sums with more set bits than this take the vectorized
#: reduction (below it, peeling bits one by one is cheaper; measured at
#: n = 2*10^4, 5*10^4 and 10^6).
_NUMPY_SUM_MIN_BITS = 8


class ValueTable:
    """The answer set's values for the mask kernels' value sums.

    ``values`` keeps the original boxed-float list (fastest for scalar
    indexing in the sparse paths); ``np_view`` is a contiguous float64
    numpy array of the same values, built on first vectorized use.
    """

    __slots__ = ("values", "_np_view")

    def __init__(self, values: Sequence[float]) -> None:
        self.values = values if isinstance(values, list) else list(values)
        self._np_view = None

    @property
    def np_view(self):
        """The values as a contiguous float64 array (built once)."""
        view = self._np_view
        if view is None:
            view = _np.array(self.values, dtype=_np.float64)
            self._np_view = view
        return view

    def __len__(self) -> int:
        return len(self.values)

    def __repr__(self) -> str:
        return "ValueTable(n=%d)" % len(self.values)


class BitBlocks:
    """An immutable element-set mask packed into fixed-width uint64 blocks.

    Supports the operator surface the merge engine's mask-kernel branch
    uses on int masks — ``&``, ``|``, ``~``, truthiness, ``bit_count()``,
    ``bit_length()`` —
    so the same greedy code runs unchanged on either representation.
    Instances are immutable: operators return new objects, which is what
    keeps the engine's covered-union history log safe to share.

    ``_arr`` holds the blocks as a ``numpy.uint64`` array (bits past
    ``nbits`` stay clear); ``_count`` lazily caches the popcount.  Build
    masks with :func:`int_to_blocks`.
    """

    __slots__ = ("nbits", "_arr", "_count")

    def __init__(self, arr, nbits: int) -> None:
        self.nbits = nbits
        self._arr = arr
        self._count = None

    def _as_int(self) -> int:
        """The packed little-endian integer view of the blocks."""
        return int.from_bytes(self._arr.tobytes(), "little")

    # -- the block-level primitives ------------------------------------------

    def __and__(self, other: "BitBlocks") -> "BitBlocks":
        return BitBlocks(self._arr & other._arr, self.nbits)

    def __or__(self, other: "BitBlocks") -> "BitBlocks":
        return BitBlocks(self._arr | other._arr, self.nbits)

    def __xor__(self, other: "BitBlocks") -> "BitBlocks":
        return BitBlocks(self._arr ^ other._arr, self.nbits)

    def __invert__(self) -> "BitBlocks":
        """Complement within the universe (tail bits stay clear)."""
        inverted = _np.bitwise_not(self._arr)
        tail = self.nbits & 63
        if tail:
            inverted[-1] &= _np.uint64((1 << tail) - 1)
        return BitBlocks(inverted, self.nbits)

    def __bool__(self) -> bool:
        if self._count is not None:
            return self._count > 0
        return bool(self._arr.any())

    def __eq__(self, other: object) -> bool:
        if not isinstance(other, BitBlocks):
            return NotImplemented
        return self.nbits == other.nbits and bool(
            _np.array_equal(self._arr, other._arr)
        )

    __hash__ = None  # mutable-adjacent semantics: masks are not dict keys

    def bit_count(self) -> int:
        """Popcount over all blocks (cached)."""
        count = self._count
        if count is None:
            if _HAVE_BITWISE_COUNT:
                count = int(_np.bitwise_count(self._arr).sum())
            else:  # pragma: no cover - numpy < 2.0 only
                count = int(_POPCOUNT8[self._arr.view(_np.uint8)].sum())
            self._count = count
        return count

    def indices(self) -> Iterator[int]:
        """Set-bit indices in ascending order."""
        flat = _np.flatnonzero(
            _np.unpackbits(
                self._arr.view(_np.uint8), count=self.nbits, bitorder="little"
            )
        )
        return iter(flat.tolist())

    def bit_length(self) -> int:
        """Index of the highest set bit + 1 (0 when empty), as
        ``int.bit_length()`` of the packed integer view."""
        nonzero = _np.flatnonzero(self._arr)
        if nonzero.size == 0:
            return 0
        block_index = int(nonzero[-1])
        return (block_index << 6) + int(self._arr[block_index]).bit_length()

    def value_sum(self, table: ValueTable) -> float:
        """Sum ``table[i]`` over set bits, in ascending index order.

        The vectorized path unpacks the mask to a boolean row, selects
        (order-preserving) from the contiguous float64 array, and reduces
        with the *sequential* ``np.add.accumulate``; sparse masks (few
        non-zero blocks) iterate bits scalar-side instead.  Both paths
        produce the exact floats of :func:`repro.core.bitset.mask_value_sum`.
        """
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
        return "BitBlocks(nbits=%d, count=%d)" % (self.nbits, self.bit_count())


def _sum_set_bits(table: ValueTable, raw, nbits: int) -> float:
    """Sum ``table`` over the set bits of *raw* (a little-endian uint8
    row holding at least one set bit), in ascending index order.

    Unpacks the bits to a boolean row, selects (order-preserving) from
    the contiguous float64 array, and reduces with ``np.add.accumulate``:
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
    *table*, for a process with numpy: through the vectorized reduction
    when the mask has more than :data:`_NUMPY_SUM_MIN_BITS` set bits (the
    measured crossover), through the scalar loop otherwise.  Both routes
    return the same float."""
    if mask.bit_count() <= _NUMPY_SUM_MIN_BITS:
        return mask_value_sum(table.values, mask)
    nbits = len(table)
    raw = _np.frombuffer(mask.to_bytes((nbits + 7) >> 3, "little"),
                         dtype=_np.uint8)
    return _sum_set_bits(table, raw, nbits)


def int_to_blocks(value: int, nbits: int) -> BitBlocks:
    """The int mask *value* (below ``2**nbits``) as a :class:`BitBlocks`
    mask over *nbits* elements."""
    raw = value.to_bytes(((nbits + 63) >> 6) << 3, "little")
    return BitBlocks(_np.frombuffer(raw, dtype=_np.uint64).copy(), nbits)


def mask_has_bit(mask, index: int) -> bool:
    """Whether bit *index* of either mask representation is set, with no
    n-bit temporary: an int ANDs with ``1 << index`` (its cost grows with
    *index*, not with n), and blocks read one block."""
    if isinstance(mask, int):
        return bool(mask & 1 << index)
    return bool(int(mask._arr[index >> 6]) >> (index & 63) & 1)


def mask_indices(mask) -> Iterator[int]:
    """Ascending set-bit indices of either mask representation.

    Accepts an int (bitset kernel) or a :class:`BitBlocks` (dense kernel);
    pools, clusters and solutions derive their element sets through this,
    and the engine lists a cluster's elements with it.
    """
    if isinstance(mask, int):
        return iter_bits(mask)
    return mask.indices()
