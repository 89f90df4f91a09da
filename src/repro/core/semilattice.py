"""Cluster pool: materializing the relevant part of the semilattice.

A naive implementation of the framework would instantiate every pattern in
``prod_i (D_i + {*})`` — astronomically many.  Section 6.3 of the paper
instead (1) *generates* clusters from the top-L tuples (every generalization
of a top-L tuple, and nothing else, can appear in a solution that covers the
top-L), and (2) maps the tuples of S to the clusters that cover them without
scanning S once per cluster.  The paper reports a 100x–1000x initialization
speedup from this (Figure 8a).

:class:`ClusterPool` does the mapping column-wise.  One pass over each
attribute's column of S packs a *value mask* for every code that occurs
there among the top-L tuples: the set of rows holding that code in that
attribute.  A pool
pattern's mask is the AND of the value masks of its constants, derived in
one AND from the mask of its *parent* — the pattern with its last constant
starred, itself a pool pattern; the all-star root covers all of S.  Two
mappings share the pool:

``"eager"`` (also accepted as ``"lazy"``)
    The build packs the value masks, O(n * m), and the root mask; a
    pattern's mask (with any ancestors not yet derived) is derived on
    first read.  A served pool therefore holds only the masks its
    requests touched; a caller that reads every pattern pays one AND per
    pattern, the same work an up-front pass would do.
    :func:`normalize_mapping` turns ``"lazy"`` into ``"eager"`` before a
    pool or a cache key sees it, so both names share one pool.

``"naive"``
    The unoptimized baseline of the Figure 8a ablation: for every pool
    pattern, scan all n elements and test coverage.  Cost O(|pool| * n * m).

Both produce bit-identical masks, which property tests check against a
direct coverage scan.  Two threads that first read the same pattern at
once both derive the same mask; the dict write is atomic, so either
result may stay.

Independently of the strategy, ``kernel=`` selects the pool's *mask
representation*, which :attr:`ClusterPool.kernel` names: the kernel
:func:`~repro.core.bitset.resolve_kernel` picks, ``"bitset"`` (int
bitmasks, the default) or ``"dense"`` (packed uint64 blocks, the working
representation of :mod:`repro.core.dense`; without numpy, ``"dense"``
resolves to ``"bitset"``).  :meth:`ClusterPool.as_mask` is the one way
to build a mask in that representation.  A
:class:`~repro.core.merge.MergeEngine` requires a pool whose
representation matches its kernel.

No coverage ``frozenset`` is built at initialization, and
:meth:`~ClusterPool.cluster` builds none either: a cluster is its mask
and value sum, and derives its own element set on first access.
:meth:`~ClusterPool.coverage` derives one from the mask on its first
call for a pattern and caches it on the pool; the served path never
calls it, the baselines that probe coverage repeatedly do.

Every build also derives the pool's :class:`~repro.core.cluster.Packing`
from the codes its answers can hold, so an append that widens a domain
gets a wider one.  Each pool cluster carries its packed ``key``, and
:meth:`~ClusterPool.keyed` resolves a key back to its cluster: the merge
engine runs on keys, while callers keep using patterns.
"""

from __future__ import annotations

import copy
from collections import OrderedDict
from itertools import repeat
from operator import itemgetter
from typing import Iterable, Literal

from repro.common.budget import checkpoint as _budget_checkpoint
from repro.common.errors import InvalidParameterError
from repro.common.interning import STAR
from repro.core.answers import AnswerSet
from repro.core.bitset import DENSE_KERNEL, bitset_of, resolve_kernel
from repro.core.cluster import (
    Cluster,
    Packing,
    Pattern,
    covers,
    generalizations,
)
from repro.core.dense import int_to_blocks, mask_indices

MappingStrategy = Literal["eager", "naive", "lazy"]

_VALID_STRATEGIES = ("eager", "naive", "lazy")

#: LRU bound on cached coverage for patterns *outside* the pool.  Pool
#: patterns are a fixed, finite set so their caches are naturally bounded,
#: but baselines/hierarchy code may probe arbitrarily many out-of-pool
#: patterns; without a bound a long-lived service Engine leaks memory.
FALLBACK_CACHE_SIZE = 256


def normalize_mapping(strategy: str) -> str:
    """The canonical name of mapping *strategy*: ``"lazy"`` reads
    ``"eager"`` (one mapping), so pools and cache keys never tell the two
    names apart.  Unknown names raise :class:`InvalidParameterError`."""
    if strategy not in _VALID_STRATEGIES:
        raise InvalidParameterError(
            "unknown mapping strategy %r; expected one of %r"
            % (strategy, _VALID_STRATEGIES)
        )
    return "eager" if strategy == "lazy" else strategy


class ClusterPool:
    """The clusters relevant to a (S, L) instance, with coverage maps.

    The pool contains exactly the generalizations of the top-L elements
    (including the singletons themselves and the all-star root).  Any LCA of
    pool patterns is itself a pool pattern, so every pattern the greedy
    algorithms or the brute-force search can reach is resolvable here.
    """

    def __init__(
        self,
        answers: AnswerSet,
        L: int,
        strategy: MappingStrategy = "eager",
        kernel: str | None = None,
    ) -> None:
        self.strategy = normalize_mapping(strategy)
        if not 1 <= L <= answers.n:
            raise InvalidParameterError(
                "L=%d out of range [1, %d]" % (L, answers.n)
            )
        self.L = L
        #: The mask representation the pool builds, ``"bitset"`` (int
        #: bitmasks) or ``"dense"`` (packed uint64 blocks).
        self.kernel = resolve_kernel(kernel, n=answers.n)
        self._build(answers)

    # -- construction of the coverage maps -----------------------------------

    def _build(self, answers: AnswerSet) -> None:
        """Generate the pool over *answers* and pack the value masks its
        pattern masks derive from (``naive``: scan S for every pattern).
        No pattern mask but the root's is derived before it is read.

        Pool construction is the dominant cold-start cost at large n; every
        loop polls the request budget at a coarse stride so a deadlined
        request abandons the build within milliseconds of expiry instead
        of finishing it.
        """
        self.answers = answers
        self.packing = Packing(answers.m, answers.top_code)
        self._patterns: set[Pattern] = set()
        for count, index in enumerate(answers.top(self.L)):
            if not count % 4096:
                _budget_checkpoint()
            self._patterns.update(generalizations(answers.elements[index]))
        self._coverage: dict[Pattern, frozenset[int]] = {}
        self._masks: dict[Pattern, int] = {}
        self._value_masks: list[dict[int, int]] = []
        self._cluster_cache: dict[Pattern, Cluster] = {}
        self._keyed: dict[int, Cluster] = {}
        # Out-of-pool patterns (probed by baselines and the hierarchy
        # extension) resolve by direct scan; their results live in this
        # small LRU instead of growing self._coverage without bound.
        self._fallback: OrderedDict[Pattern, Cluster] = OrderedDict()
        if self.strategy == "naive":
            self._map_naive()
            return
        self._masks[(STAR,) * answers.m] = self.as_mask((1 << answers.n) - 1)
        self._pack_value_masks()

    def as_mask(self, bits: int):
        """The int mask *bits* as a mask in the pool's representation: the
        int itself, or its packed blocks on a dense pool."""
        if self.kernel == DENSE_KERNEL:
            return int_to_blocks(bits, self.answers.n)
        return bits

    def _pack_value_masks(self) -> None:
        """Per attribute, the value mask of every code that occurs there
        among the top-L elements (pool patterns use no other constants).

        The row loops run in C.  Each row's code becomes one byte, its
        slot among up to 255 wanted codes (0 for any other code); a
        code's mask is then that byte string translated to ``1``/``0``
        digits and parsed as a base-2 int, reversed so row 0 is the low
        bit.  The budget is polled before each pass over the rows.
        """
        elements = self.answers.elements
        n = self.answers.n
        for attr in range(self.answers.m):
            code_of = itemgetter(attr)
            wanted = list(dict.fromkeys(map(code_of, elements[:self.L])))
            masks = {}
            for start in range(0, len(wanted), 255):
                group = wanted[start:start + 255]
                slot_of = {code: slot for slot, code in enumerate(group, 1)}
                _budget_checkpoint()
                slots = bytes(
                    map(slot_of.get, map(code_of, elements), repeat(0, n))
                )
                for slot, code in enumerate(group, 1):
                    _budget_checkpoint()
                    digits = slots.translate(
                        b"0" * slot + b"1" + b"0" * (255 - slot)
                    )
                    masks[code] = self.as_mask(int(digits[::-1], 2))
            self._value_masks.append(masks)

    def _derive(self, pattern: Pattern):
        """Derive and store the mask of pool *pattern*, which has none yet:
        its parent's mask (the pattern with its last constant starred,
        derived first if need be) AND the value mask of that constant."""
        attr = len(pattern) - 1
        while pattern[attr] == STAR:
            attr -= 1
        parent = pattern[:attr] + (STAR,) + pattern[attr + 1:]
        parent_mask = self._masks.get(parent)
        if parent_mask is None:
            parent_mask = self._derive(parent)
        mask = parent_mask & self._value_masks[attr][pattern[attr]]
        self._masks[pattern] = mask
        return mask

    def _map_naive(self) -> None:
        """Per-cluster scan of all of S (the Figure 8a baseline)."""
        elements = self.answers.elements
        for pattern in self._patterns:
            _budget_checkpoint()
            self._masks[pattern] = self.as_mask(bitset_of(
                index
                for index, element in enumerate(elements)
                if covers(pattern, element)
            ))

    # -- append maintenance --------------------------------------------------

    def extended(
        self, new_answers: AnswerSet, delta: Iterable[int]
    ) -> "ClusterPool":
        """The pool for *new_answers*, carried over from this one.

        *new_answers* and *delta* come from
        :meth:`repro.core.answers.AnswerSet.extended`: the grown answer set
        and the final-coordinate rank positions its appended elements
        occupy.  The grown pool keeps this pool's options and is built
        over *new_answers* exactly as a fresh build is: the value masks
        are repacked and no pattern mask is carried or derived until read
        (``naive`` pools rescan S), so it is bit-identical to
        ``ClusterPool(new_answers, L, ...)`` with the same options
        (property-tested on both kernels).
        """
        appended = len(list(delta))
        if new_answers.n != self.answers.n + appended:
            raise InvalidParameterError(
                "delta of %d positions cannot grow n=%d to n=%d"
                % (appended, self.answers.n, new_answers.n)
            )
        grown = copy.copy(self)
        grown._build(new_answers)
        return grown

    # -- public API ---------------------------------------------------------

    def __len__(self) -> int:
        return len(self._patterns)

    def __contains__(self, pattern: Pattern) -> bool:
        return pattern in self._patterns

    def patterns(self) -> Iterable[Pattern]:
        """All pool patterns in a deterministic (sorted) order."""
        return sorted(self._patterns)

    def coverage(self, pattern: Pattern) -> frozenset[int]:
        """Element indices covered by *pattern* (resolved per strategy).

        Patterns outside the pool are still answerable (needed by baselines
        and the hierarchy extension): they fall back to a direct scan whose
        result is kept in a small LRU (:data:`FALLBACK_CACHE_SIZE`) so a
        long-lived :class:`repro.service.Engine` cannot leak through them.
        """
        cached = self._coverage.get(pattern)
        if cached is not None:
            return cached
        if pattern not in self._patterns:
            return self._fallback_cluster(pattern).covered
        ids = frozenset(mask_indices(self.mask(pattern)))
        self._coverage[pattern] = ids
        return ids

    def mask(self, pattern: Pattern):
        """Coverage of *pattern* as a mask in the pool's representation:
        an int bitmask, or packed uint64 blocks when ``kernel="dense"``."""
        cached = self._masks.get(pattern)
        if cached is not None:
            return cached
        if pattern in self._patterns:
            return self._derive(pattern)
        return self._fallback_cluster(pattern).mask

    def _fallback_cluster(self, pattern: Pattern) -> Cluster:
        """Materialize (and LRU-cache) a cluster for an out-of-pool pattern
        by a direct O(n*m) coverage scan.  Its key is packed first, so a
        code no attribute of the answers can hold raises ``ValueError``."""
        cached = self._fallback.get(pattern)
        if cached is not None:
            self._fallback.move_to_end(pattern)
            return cached
        key = self.packing.pack(pattern)
        mask = self.as_mask(bitset_of(
            index
            for index, element in enumerate(self.answers.elements)
            if covers(pattern, element)
        ))
        built = Cluster(
            pattern, mask, self.answers.mask_value_sum(mask), key=key
        )
        self._fallback[pattern] = built
        while len(self._fallback) > FALLBACK_CACHE_SIZE:
            self._fallback.popitem(last=False)
        return built

    def cluster(self, pattern: Pattern) -> Cluster:
        """Materialize the :class:`Cluster` for *pattern* (cached): its
        mask, value sum and key.  No coverage frozenset is derived here;
        the cluster derives its own on first access to ``covered``."""
        cached = self._cluster_cache.get(pattern)
        if cached is not None:
            return cached
        if pattern not in self._patterns:
            return self._fallback_cluster(pattern)
        mask = self.mask(pattern)
        key = self.packing.pack(pattern)
        built = Cluster(
            pattern, mask, self.answers.mask_value_sum(mask), key=key
        )
        self._cluster_cache[pattern] = built
        self._keyed[key] = built
        return built

    def keyed(self, key: int) -> Cluster:
        """The cluster whose key is *key*: one dict lookup for a pool
        pattern whose cluster exists, :meth:`cluster` otherwise."""
        cached = self._keyed.get(key)
        if cached is not None:
            return cached
        return self.cluster(self.packing.unpack(key))

    def singleton(self, index: int) -> Cluster:
        """The singleton cluster for the element at rank *index*."""
        return self.cluster(self.answers.elements[index])

    def root(self) -> Cluster:
        """The all-star cluster covering all of S (the trivial solution)."""
        return self.cluster(tuple([STAR] * self.answers.m))

    def __repr__(self) -> str:
        return "ClusterPool(L=%d, strategy=%s, patterns=%d%s)" % (
            self.L,
            self.strategy,
            len(self._patterns),
            ", kernel=dense" if self.kernel == DENSE_KERNEL else "",
        )
