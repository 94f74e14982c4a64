"""Exhaustive generators for pairings and quasi-pairings, and the census
of indecomposable tournaments they produce when reversed inside a total
order.

Families come out as lexicographically increasing tuples of pairs, each
family exactly once, so runs are deterministic.  Shard (i, k) takes every
k-th one-pair family and depth-two subtree of the walk from the i-th on,
so k shards partition the stream; shard (0, 1) is the whole stream.

Under filter ``irreducible-only`` the walk keeps only the irreducible
families, by their cuts (``pairs._cuts``).  ``enumerate_families`` builds
a family from each tuple of ``_family_tuples``; ``theorems`` reads the
tuples without building any.
"""

from __future__ import annotations

from dataclasses import dataclass
from itertools import chain, count
from typing import Iterator

from .core import (
    GuardError,
    Tournament,
    _pair_bits,
    canonical_form,
    is_indecomposable_rows,
    reversal_rows,
    transitive,
)
from .pairs import (
    PairFamily,
    Pairing,
    QuasiPairing,
    _cuts,
    _invariant_broken,
    _partners,
    is_irreducible_pairing,
    is_irreducible_quasi,
)

KINDS = ("pairing", "partial-pairing", "quasi", "partial-quasi")
FILTERS = ("all", "irreducible-only")

# Partial kinds grow like involution counts; full kinds like double factorials.
PARTIAL_ENUM_LIMIT = 12
FULL_ENUM_LIMIT = 14


@dataclass(frozen=True)
class EnumSpec:
    """What to enumerate: ambient size, family kind, filter, empty-family flag."""

    n: int
    kind: str
    filter: str = "all"
    include_empty: bool = False

    def __post_init__(self) -> None:
        if self.n < 0:
            raise ValueError(f"ambient size must be nonnegative, got {self.n}")
        if self.kind not in KINDS:
            raise ValueError(f"unknown kind {self.kind!r}, want one of {KINDS}")
        if self.filter not in FILTERS:
            raise ValueError(f"unknown filter {self.filter!r}, want one of {FILTERS}")

    @property
    def is_partial(self) -> bool:
        return self.kind.startswith("partial")

    @property
    def is_quasi(self) -> bool:
        return self.kind in ("quasi", "partial-quasi")


def _hub_cuts(pairs: list, hub: int, ends: int) -> list[int]:
    """The cuts before the vertices of ``ends``, from the sorted pairs that
    place the hub and the virtual pair of its two partners."""
    return _cuts(ends, pairs=[*pairs, _partners(pairs, hub)])


def _pair_walk(
    n: int, doubled: int, full_support: bool, shard=(0, 1), irreducible: bool = False
) -> Iterator[tuple]:
    """DFS over families as lexicographically increasing tuples of pairs.

    ``doubled`` is the exact number of vertices allowed in two pairs (0
    for pairings, 1 for quasi-pairings); ``full_support`` restricts the
    output to families covering all of 0..n-1.  Each family is emitted at
    the node that completes it, before any extension, which makes the
    whole stream lexicographic without post-sorting.  Ends are the set bits
    of the free mask and, while a hub is allowed, of the mask covered
    ``once`` (for a second end, only with a free first end), lowest first.
    Each family comes as ``(pairs, support, twice)``: its sorted pairs and
    the bit masks of its support and of its hub (0 for a pairing).  For ``shard``
    (i, k), a node at depth one or two whose ordinal mod k is not i skips its
    family and, at depth two, its subtree.

    With ``irreducible`` a family comes out when the cuts before its support
    vertices but the least are nonzero and pairwise distinct.  The set of
    settled cuts holds 0 and, as none is settled before a hub, starts afresh
    at the node placing it, with the cuts up to its first end a.  From there,
    or from a pairing's first pair, a first end a settles those in (previous
    a, a], each ``covered & -(1 << v)``.  One already in the set skips its
    node, subtree and ordinals; a family's cuts above a are checked so.
    """
    full = (1 << n) - 1
    acc: list[tuple[int, int]] = []
    mine, k = shard
    ordinals = count()
    cuts = {0}

    def rec(pa: int, pb: int, once: int, twice: int, hubs: int, depth: int) -> Iterator[tuple]:
        covered = once | twice
        prune = irreducible and hubs == doubled and covered
        free = full & ~covered
        top = (free & -free).bit_length() - 1 if full_support and free else n - 1
        firsts = (free | once if hubs < doubled else free) & (1 << top + 1) - (1 << pa)
        while firsts:
            low = firsts & -firsts
            firsts ^= low
            a = low.bit_length() - 1
            if prune:
                settled = _cuts(covered & low - 1 | low, covered, pa + 1)
                if not cuts.isdisjoint(settled):
                    continue
                cuts.update(settled)
            seconds = free | once if hubs < doubled and free & low else free
            seconds &= -(2 << (pb if a == pa else a))
            while seconds:
                high = seconds & -seconds
                seconds ^= high
                b = high.bit_length() - 1
                pair = low | high
                # A free end becomes covered once, an end covered once becomes a hub.
                now_once, now_twice = once ^ pair, twice | once & pair
                now_hubs = hubs
                if once & pair:
                    now_hubs += 1
                    if irreducible:
                        ends = (now_once | now_twice) & (2 << a) - 1
                        placed = _hub_cuts([*acc, (a, b)], (once & pair).bit_length() - 1, ends)
                        cuts.clear()
                        cuts.update(placed)
                        if len(cuts) < len(placed):
                            continue
                acc.append((a, b))
                theirs = k > 1 and depth < 3 and next(ordinals) % k != mine
                complete = not full_support or now_once | now_twice == full
                # A node holds a pair at least, and two pairs once it has a hub.
                if complete and now_hubs == doubled and not theirs:
                    now_covered = now_once | now_twice
                    if not irreducible or cuts.isdisjoint(_cuts(now_covered, now_covered, a + 1)):
                        yield tuple(acc), now_covered, now_twice
                if not theirs or depth == 1:
                    yield from rec(a, b, now_once, now_twice, now_hubs, depth + 1)
                acc.pop()
            if prune:
                cuts.difference_update(settled)

    yield from rec(0, 0, 0, 0, 0, 1)


def default_limit(kind: str) -> int:
    """Largest n the enumeration guard allows for the kind without ``max_n``."""
    return PARTIAL_ENUM_LIMIT if kind.startswith("partial") else FULL_ENUM_LIMIT


def check_guard(spec: EnumSpec, max_n: int | None) -> None:
    """Raise GuardError when the spec is past the enumeration guard."""
    limit = default_limit(spec.kind) if max_n is None else max_n
    if spec.n > limit:
        raise GuardError(f"enumeration of kind {spec.kind!r} allows n <= {limit}, got {spec.n}")


def _family_tuples(spec: EnumSpec, max_n: int | None = None, shard=(0, 1)) -> Iterator[tuple]:
    """The walk's ``(pairs, mask, twice)`` for the families matching the spec
    in ``shard`` (i, k), the empty one first in shard 0.  Guard and shard
    are checked at the call, not at the first step."""
    check_guard(spec, max_n)
    if not 0 <= shard[0] < shard[1]:
        raise ValueError(f"shard (i, k) needs 0 <= i < k, got {shard!r}")
    irreducible = spec.filter == "irreducible-only"
    walk = _pair_walk(spec.n, int(spec.is_quasi), not spec.is_partial, shard, irreducible)
    if spec.include_empty and not (shard[0] or spec.is_quasi) and (spec.is_partial or not spec.n):
        return chain([((), 0, 0)], walk)
    return walk


def enumerate_families(
    spec: EnumSpec, max_n: int | None = None, *, shard: tuple[int, int] = (0, 1)
) -> Iterator[PairFamily]:
    """The families matching the spec in ``shard`` (i, k) of the walk, the
    empty one in shard 0, in lexicographic order of pair tuples."""
    build = QuasiPairing._from_walk if spec.is_quasi else Pairing._from_walk
    for pairs, mask, twice in _family_tuples(spec, max_n, shard):
        yield build(spec.n, pairs, mask, twice.bit_length() - 1)


def count_irreducible_pairings(m: int, max_m: int | None = None) -> int:
    """Number of irreducible pairings of the full ground set 0..m-1."""
    if m % 2:
        raise ValueError(f"pairings of a full ground set need an even size, got {m}")
    spec = EnumSpec(m, "pairing", "irreducible-only", include_empty=True)
    return sum(1 for _ in enumerate_families(spec, max_n=max_m))


@dataclass(frozen=True)
class CensusRecord:
    """One enumerated family with its reversed tournament and verdicts."""

    family: PairFamily
    tournament: Tournament
    indecomposable: bool
    irreducible: bool
    class_id: int | None


def census(spec: EnumSpec, max_n: int | None = None) -> Iterator[CensusRecord]:
    """Evaluate every enumerated family against the total order on 0..n-1,
    yielding one record per family as it is made.

    Each record carries the reversed tournament, its indecomposability,
    the family's irreducibility, and, for indecomposable results, an
    isomorphism class id assigned by first occurrence.  The enumeration
    guard is the only size limit.  Distinct families always give distinct
    tournaments; the scan raises RuntimeError otherwise.
    """
    base = transitive(spec.n)
    ground = (1 << spec.n) - 1
    judge = is_irreducible_quasi if spec.is_quasi else is_irreducible_pairing
    class_ids: dict[str, int] = {}
    seen: set[int] = set()
    for family in enumerate_families(spec, max_n=max_n):
        t = Tournament(spec.n, base.bits ^ _pair_bits(spec.n, family.pairs))
        if t.bits in seen:
            what = "reversing distinct families gave the same tournament"
            raise _invariant_broken(spec.n, family.pairs, what)
        seen.add(t.bits)
        indecomposable = is_indecomposable_rows(reversal_rows(spec.n, family.pairs), ground)
        class_id = None
        if indecomposable:
            class_id = class_ids.setdefault(canonical_form(t), len(class_ids))
        yield CensusRecord(family, t, indecomposable, judge(family), class_id)


def indecomposable_census(spec: EnumSpec, max_n: int | None = None) -> list[CensusRecord]:
    """The census restricted to families whose reversed tournament is indecomposable."""
    return [r for r in census(spec, max_n=max_n) if r.indecomposable]
