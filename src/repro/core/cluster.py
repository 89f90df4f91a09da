"""Cluster (pattern) algebra: coverage, distance, LCA, semilattice order.

A *cluster* (Section 3) is a pattern over the ``m`` grouping attributes where
each position holds either a concrete value code or the don't-care value
``*`` (:data:`~repro.common.interning.STAR`).  A cluster *covers* another
cluster (or an element, which is just a star-free cluster) if it agrees on
every non-star position.  Coverage induces the semilattice of Section 4.2;
the join (least upper bound) of two patterns is their least common ancestor
(LCA), obtained by starring out every attribute where they disagree.

The distance between two clusters (Definition 3.1) is the number of
attributes where they do **not** share a concrete value — i.e. positions
where either side is ``*`` or the values differ.  This distance is a metric
on patterns and is monotone under generalization (Proposition 4.2), which is
what lets the greedy merges of Section 5 never re-violate the distance
constraint.

Patterns are plain ``tuple[int, ...]``: the API and wire type, and what
the functions here operate on.  :class:`Cluster` is the value-carrying
wrapper used in solutions.  It carries its covered set as a mask with a
popcount and a value sum; the element-index frozenset is built on
demand, only when a caller asks for elements.

The merge engine runs on *keys* instead: each pool packs its patterns
into ints with one :class:`Packing`, the only code that knows this
layout.  Field i holds ``code + 1`` of attribute i (so ``*`` is 0) in
``width`` bits under a guard bit that stays 0; attribute 0 takes the
most significant field.  All fields share one width, and ``*`` is the
smallest code, so key order is tuple order.  The LCA, the distance and
the cover test then take a few int operations each (see
:class:`Packing`), where the tuple functions loop over the attributes.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from functools import cached_property
from typing import Any, Iterable, Sequence

from repro.common.interning import STAR
from repro.core.bitset import bitset_of
from repro.core.dense import mask_indices

Pattern = tuple[int, ...]


def is_element(pattern: Pattern) -> bool:
    """True if *pattern* has no stars (i.e., it is a singleton cluster)."""
    return STAR not in pattern


def level(pattern: Pattern) -> int:
    """Semilattice level: the number of ``*`` positions (Section 4.2)."""
    return sum(1 for v in pattern if v == STAR)


def covers(ancestor: Pattern, descendant: Pattern) -> bool:
    """True if *ancestor* covers *descendant* (``descendant <= ancestor``).

    Every non-star position of the ancestor must match the descendant.
    Reflexive: every pattern covers itself.
    """
    for a, d in zip(ancestor, descendant):
        if a != STAR and a != d:
            return False
    return True


def strictly_covers(ancestor: Pattern, descendant: Pattern) -> bool:
    """True if *ancestor* covers *descendant* and they differ."""
    return ancestor != descendant and covers(ancestor, descendant)


def comparable(p1: Pattern, p2: Pattern) -> bool:
    """True if one of the two patterns covers the other."""
    return covers(p1, p2) or covers(p2, p1)


def distance(p1: Pattern, p2: Pattern) -> int:
    """Cluster distance of Definition 3.1.

    The number of attributes where the two patterns do not agree on a
    concrete domain value: positions where either side is ``*`` or the two
    values differ.  For two star-free patterns this degenerates to Hamming
    distance.  Intuitively it is the maximum distance between any pair of
    elements the two clusters may contain.
    """
    d = 0
    for a, b in zip(p1, p2):
        if a == STAR or b == STAR or a != b:
            d += 1
    return d


def lca(p1: Pattern, p2: Pattern) -> Pattern:
    """Least common ancestor: star out every attribute where p1, p2 differ.

    This is the join of the two patterns in the semilattice (the unique
    minimal pattern covering both).
    """
    return tuple(a if a == b else STAR for a, b in zip(p1, p2))


def lca_many(patterns: Iterable[Pattern]) -> Pattern:
    """LCA of a non-empty collection of patterns (associative fold)."""
    iterator = iter(patterns)
    try:
        acc = next(iterator)
    except StopIteration:
        raise ValueError("lca_many() of an empty collection") from None
    for pattern in iterator:
        acc = lca(acc, pattern)
    return acc


def generalizations(pattern: Pattern) -> list[Pattern]:
    """All ``2^s`` patterns obtained by starring subsets of the ``s``
    non-star positions of *pattern* (including *pattern* itself and the
    all-star root).

    For an element tuple this enumerates exactly the clusters that cover it,
    which is the basis of the paper's cluster-generation optimization
    (Section 6.3): generating the pool from the top-L tuples guarantees
    every pool cluster covers at least one top-L tuple.
    """
    positions = [i for i, v in enumerate(pattern) if v != STAR]
    results: list[Pattern] = [pattern]
    for pos in positions:
        starred = []
        for existing in results:
            as_list = list(existing)
            as_list[pos] = STAR
            starred.append(tuple(as_list))
        results.extend(starred)
    return results


def parents(pattern: Pattern) -> list[Pattern]:
    """Immediate ancestors: star out exactly one non-star position."""
    result = []
    for i, v in enumerate(pattern):
        if v != STAR:
            as_list = list(pattern)
            as_list[i] = STAR
            result.append(tuple(as_list))
    return result


def ancestors_at_level(pattern: Pattern, target_level: int) -> list[Pattern]:
    """All ancestors of *pattern* with exactly *target_level* stars.

    Used by the level-(D-1) Bottom-Up variant (Section 5.1), which seeds the
    solution with ancestors of the top-L elements that already satisfy the
    distance constraint.
    """
    own = level(pattern)
    if target_level < own:
        return []
    if target_level == own:
        return [pattern]
    return [
        general
        for general in generalizations(pattern)
        if level(general) == target_level
    ]


def format_pattern(pattern: Pattern, values: Sequence[object] | None = None) -> str:
    """Human-readable rendering, e.g. ``(1980, *, M, *)``."""
    if values is None:
        rendered = ["*" if v == STAR else str(v) for v in pattern]
    else:
        rendered = [str(v) for v in values]
    return "(%s)" % ", ".join(rendered)


class Packing:
    """Packed-int keys for the patterns over one answer set.

    *top_code* is the largest code any attribute can hold; the field
    width is the bit length of ``top_code + 1``.  With ``g`` the guard
    bits of all fields and ``lo`` the value bits, a field's guard bit
    in ``(x + lo) & g`` is set exactly when the field of ``x`` is not 0
    (the carry out of ``field + 2^width - 1`` lands there, and no
    further), and ``h - (h >> width)`` spreads guard bits ``h`` over
    the value bits of their fields.  Hence:

    * ``lca(a, b)`` clears the fields where ``a`` and ``b`` differ;
    * ``distance(a, b)`` is m minus the non-star fields of the LCA;
    * ``covers(a, d)`` holds when ``a ^ d`` is 0 on the non-star fields
      of ``a``.
    """

    __slots__ = ("m", "width", "_shifts", "_low", "_guards")

    def __init__(self, m: int, top_code: int) -> None:
        self.m = m
        self.width = (top_code + 1).bit_length()
        step = self.width + 1
        self._shifts = tuple(step * attr for attr in reversed(range(m)))
        ones = (1 << self.width) - 1
        self._low = sum(ones << shift for shift in self._shifts)
        self._guards = sum(1 << self.width << shift for shift in self._shifts)

    def pack(self, pattern: Pattern) -> int:
        """The key of *pattern*; ``ValueError`` if it has the wrong arity
        or a code whose ``code + 1`` does not fit the field width."""
        if len(pattern) != self.m:
            raise ValueError(
                "pattern arity %d != packing arity %d" % (len(pattern), self.m)
            )
        step = self.width + 1
        limit = 1 << self.width
        key = 0
        for attr, code in enumerate(pattern):
            if not -1 <= code < limit - 1:
                raise ValueError(
                    "code %r of attribute %d does not fit a %d-bit field"
                    % (code, attr, self.width)
                )
            key = key << step | code + 1
        return key

    def unpack(self, key: int) -> Pattern:
        """The pattern whose key is *key*."""
        ones = (1 << self.width) - 1
        return tuple((key >> shift & ones) - 1 for shift in self._shifts)

    def lca(self, a: int, b: int) -> int:
        """Key of the least common ancestor of keys *a* and *b*."""
        differ = ((a ^ b) + self._low) & self._guards
        return a & ~(differ - (differ >> self.width))

    def level(self, key: int) -> int:
        """The number of ``*`` fields of *key* (:func:`level`)."""
        return self.m - ((key + self._low) & self._guards).bit_count()

    def distance(self, a: int, b: int) -> int:
        """Cluster distance (:func:`distance`) between keys *a* and *b*:
        the level of their LCA, which stars exactly the positions the
        distance counts."""
        differ = ((a ^ b) + self._low) & self._guards
        joined = a & ~(differ - (differ >> self.width))
        return self.m - ((joined + self._low) & self._guards).bit_count()

    def covers(self, ancestor: int, descendant: int) -> bool:
        """True if key *ancestor* covers key *descendant* (:func:`covers`)."""
        constant = (ancestor + self._low) & self._guards
        fields = constant - (constant >> self.width)
        return not ((ancestor ^ descendant) & fields)

    def strictly_covered(self, ancestor: int, keys: Iterable[int]) -> list[int]:
        """The keys among *keys* that *ancestor* covers and that differ
        from it (:func:`strictly_covers`), in their order."""
        constant = (ancestor + self._low) & self._guards
        fields = constant - (constant >> self.width)
        return [
            key for key in keys
            if not ((ancestor ^ key) & fields) and key != ancestor
        ]


@dataclass(frozen=True, order=True, init=False)
class Cluster:
    """A cluster together with the elements of S it covers.

    Ordering is by pattern (lexicographic), giving all greedy algorithms a
    deterministic tie-break.  ``mask`` is the covered set as a bitmask
    over the element ranks of the owning
    :class:`~repro.core.answers.AnswerSet` — an int, or packed uint64
    blocks (:class:`~repro.core.dense.BitBlocks`) in a dense pool;
    ``value_sum`` caches the sum of the covered values, and ``size``
    their popcount, so ``avg`` is O(1).

    Pools build clusters from masks alone; the ``covered`` frozenset of
    element indices is derived from the mask on first access only (the
    served path never asks for it).  ``Cluster(pattern, covered=...,
    value_sum=...)`` builds the mask from an index set instead.

    ``key`` is the pattern packed by the pool's :class:`Packing`, which
    the merge engine runs on; a pool gives it to every cluster it
    materializes, and it is None on a cluster built directly.
    """

    pattern: Pattern
    mask: Any = field(compare=False, repr=False)
    value_sum: float = field(compare=False)
    key: int | None = field(default=None, compare=False, repr=False)

    def __init__(
        self,
        pattern: Pattern,
        mask: Any = None,
        value_sum: float = 0.0,
        covered: Iterable[int] | None = None,
        key: int | None = None,
    ) -> None:
        if mask is None:
            covered = frozenset(covered or ())
            mask = bitset_of(covered)
            self.__dict__["covered"] = covered
        object.__setattr__(self, "pattern", pattern)
        object.__setattr__(self, "mask", mask)
        object.__setattr__(self, "value_sum", value_sum)
        object.__setattr__(self, "key", key)
        object.__setattr__(self, "size", mask.bit_count())

    @cached_property
    def covered(self) -> frozenset[int]:
        """The covered element indices, derived from the mask on first
        access (idempotent, so threads racing here agree)."""
        return frozenset(mask_indices(self.mask))

    @property
    def avg(self) -> float:
        """Average value of covered elements, avg(C) (Section 4.1)."""
        if not self.size:
            raise ValueError("avg of a cluster covering no elements")
        return self.value_sum / self.size

    @property
    def level(self) -> int:
        return level(self.pattern)

    def covers_element(self, element: Pattern) -> bool:
        return covers(self.pattern, element)

    def __str__(self) -> str:
        return format_pattern(self.pattern)
