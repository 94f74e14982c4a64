"""Exhaustive generators for pairings and quasi-pairings, and the census
of indecomposable tournaments they produce when reversed inside a total
order.

Families come out as lexicographically increasing tuples of pairs, each
family exactly once, so runs are deterministic.  The walk hands them on
one depth-two subtree at a time, the unit that shard (i, k) deals: it
takes every k-th one-pair family and depth-two subtree from the i-th on,
so k shards partition the stream; shard (0, 1) is the whole stream.

``enumerate_families`` checks the guard and builds a ``PairFamily`` from
each ``(pairs, mask, hub)`` of ``_family_tuples``; ``theorems`` reads
the tuples unbuilt, once ``verify_range`` has checked the guard, from a
walk that with ``leads`` skips most families after their mirror image
and hands on each kept family's out-rows as a fourth field; it settles
the rest with ``_orbit_lead``.  Filter ``irreducible-only`` keeps the
irreducible families, by their cuts.
"""

from __future__ import annotations

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
    Record,
    _cuts,
    _invariant_broken,
    _partners,
    is_irreducible_pairing,
    is_irreducible_quasi,
    mirror_pairs,
)

KINDS = ("pairing", "partial-pairing", "quasi", "partial-quasi")
FILTERS = ("all", "irreducible-only")

# Partial kinds grow like involution counts; full kinds like double factorials.
PARTIAL_ENUM_LIMIT = 12
FULL_ENUM_LIMIT = 14


class EnumSpec(Record):
    """What to enumerate: ambient size, family kind, filter, empty-family flag."""

    def __init__(self, n: int, kind: str, filter: str = "all", include_empty: bool = False) -> None:
        if n < 0:
            raise ValueError(f"ambient size must be nonnegative, got {n}")
        if kind not in KINDS:
            raise ValueError(f"unknown kind {kind!r}, want one of {KINDS}")
        if filter not in FILTERS:
            raise ValueError(f"unknown filter {filter!r}, want one of {FILTERS}")
        self.__dict__.update(n=n, kind=kind, filter=filter, include_empty=include_empty)

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
    n: int, doubled: int, full_support: bool, shard=(0, 1), irreducible: bool = False,
    leads: bool = False,
) -> Iterator[tuple]:
    """DFS over families as lexicographically increasing tuples of pairs.

    ``doubled`` is the exact number of vertices allowed in two pairs (0 for
    pairings, 1 for quasi-pairings); ``full_support`` keeps the families on all
    of 0..n-1.  Ends are the set bits of the free mask and, while a hub is
    allowed, of the mask covered ``once`` (for a second end, only with a free
    first end), lowest first.  A plain recursion buffers each family at the
    node completing it, before any extension, as ``(pairs, mask, hub)``: its
    sorted pairs, support mask and hub (-1 for a pairing).  Its first pass over
    depths one and two draws every ordinal and leaves a seed at each depth-two
    node, whose subtree is then walked and drained, so a consumer holds at most
    one, the unit of ``shard`` (i, k): a node at depth one or two whose ordinal
    mod k is not i skips its family and, at two, its subtree.

    With ``irreducible`` a family comes out when the cuts before its support
    vertices but the least are nonzero and pairwise distinct.  The settled cuts,
    copied into each seed, hold 0 and, as none is settled before a hub, start
    afresh at the node placing it, with the cuts up to its first end a.  From
    there, or from a pairing's first pair, a first end a settles those in
    (previous a, a], each ``covered & -(1 << v)``.  One already settled skips
    its node, subtree and ordinals; a family's cuts above a are checked so.

    With ``leads`` the walk below depth two keeps only the families that can
    come before their mirror image (x -> n-1-x), whose least pair is
    (n-1-top, n-1-x), top the largest support vertex and x its largest
    partner.  For (a0, b0) the first pair, cap = n-1-a0 and bar = n-1-b0, a
    family can lead its orbit only if (R1) no vertex lies above cap and (R2)
    no pair (a, cap) has a > bar.  A seed that breaks either is dropped; its
    subtree takes ends from the ``ground`` mask of 0..cap, and a first end
    above ``bar`` takes no second end cap.  Depths one and two, and so every
    ordinal, are walked as without it; ``_orbit_lead`` settles the families kept.
    A family then comes out as ``(pairs, mask, hub, rows)``, with a copy of the
    out-rows of T(n, F): one list, set by ``reversal_rows`` at the start and at
    each seed, in which a pair flips its two bits on push and back on pop.
    """
    full = ground = (1 << n) - 1
    bar = n - 1
    acc: list[tuple[int, int]] = []
    out: list[tuple] = []
    mine, k = shard
    ordinals = count()
    cuts = {0}
    rows = reversal_rows(n, ())  # the total order's out-rows

    def rec(pa: int, pb: int, once: int, twice: int, hubs: int, depth: int) -> None:
        covered = once | twice
        prune = irreducible and hubs == doubled and covered
        free = ground & ~covered
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
            if a > bar:  # (R2)
                seconds &= ground >> 1
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
                if leads:
                    rows[a] ^= high
                    rows[b] ^= low
                theirs = k > 1 and depth < 3 and next(ordinals) % k != mine
                complete = not full_support or now_once | now_twice == full
                # A node holds a pair at least, and two pairs once it has a hub.
                if complete and now_hubs == doubled and not theirs:
                    now_covered = now_once | now_twice
                    if not irreducible or cuts.isdisjoint(_cuts(now_covered, now_covered, a + 1)):
                        hub = now_twice.bit_length() - 1
                        out.append((tuple(acc), now_covered, hub, rows[:]) if leads else
                                   (tuple(acc), now_covered, hub))
                if depth != 2:
                    rec(a, b, now_once, now_twice, now_hubs, depth + 1)
                elif not theirs:
                    out.append((acc[:], a, b, now_once, now_twice, now_hubs, irreducible and {*cuts}))
                acc.pop()
                if leads:
                    rows[a] ^= high
                    rows[b] ^= low
            if prune:
                cuts.difference_update(settled)

    rec(0, 0, 0, 0, 0, 1)
    for node in out[:]:
        if len(node) < 7:  # a family of one or two pairs; a seed has seven fields
            yield node
            continue
        out.clear()
        acc[:], a, b, once, twice, hubs, cuts = node  # a plain walk reads no cut
        if leads:
            a0, b0 = acc[0]
            cap, bar = n - 1 - a0, n - 1 - b0
            if (once | twice) >> cap + 1 or b == cap and a > bar:
                continue  # (R1) or (R2) broken at depth two
            ground = (2 << cap) - 1
            rows = reversal_rows(n, acc)
        rec(a, b, once, twice, hubs, 3)
        yield from out


def _orbit_lead(n: int, pairs: tuple, mask: int) -> bool | None:
    """None when the walk meets the mirror image of the family with these
    sorted pairs and support mask first; otherwise whether that image is
    another family.  Least pairs are compared before any image is sorted."""
    top = mask.bit_length() - 1
    # The image's least pair is (n - 1 - top, n - 1 - x), x top's largest partner.
    lead = n - 1 - top - pairs[0][0]
    if lead == 0:
        for x, y in reversed(pairs):
            if y == top:
                break
        lead = n - 1 - x - pairs[0][1]
    if lead > 0:
        return True
    if lead == 0 and pairs <= (image := mirror_pairs(n, pairs)):
        return pairs != image
    return None


def default_limit(kind: str) -> int:
    """Largest n the enumeration guard allows for the kind without an override."""
    return PARTIAL_ENUM_LIMIT if kind.startswith("partial") else FULL_ENUM_LIMIT


def check_guard(spec: EnumSpec, max_n: int | None) -> None:
    """Raise GuardError when the spec is past the enumeration guard."""
    limit = default_limit(spec.kind) if max_n is None else max_n
    if spec.n > limit:
        raise GuardError(f"enumeration of kind {spec.kind!r} allows n <= {limit}, got {spec.n}")


def _family_tuples(spec: EnumSpec, shard=(0, 1), leads: bool = False) -> Iterator[tuple]:
    """The walk's ``(pairs, mask, hub)`` for the families matching the spec
    in ``shard`` (i, k), the empty one first in shard 0; with ``leads``, only
    those the walk's mirror rules keep, a superset of ``_orbit_lead``'s, as
    ``(pairs, mask, hub, rows)`` with their out-rows.  The shard is checked
    at the call, not at the first step; the guard is the caller's."""
    if not 0 <= shard[0] < shard[1]:
        raise ValueError(f"shard (i, k) needs 0 <= i < k, got {shard!r}")
    irreducible = spec.filter == "irreducible-only"
    walk = _pair_walk(spec.n, int(spec.is_quasi), not spec.is_partial, shard, irreducible, leads)
    if spec.include_empty and not (shard[0] or spec.is_quasi) and (spec.is_partial or not spec.n):
        return chain([((), 0, -1, reversal_rows(spec.n, ())) if leads else ((), 0, -1)], walk)
    return walk


def enumerate_families(spec: EnumSpec, max_n: int | None = None) -> Iterator[PairFamily]:
    """The families matching the spec in lexicographic order of pair tuples,
    so the empty one first if asked for.  The guard is checked at the first step."""
    check_guard(spec, max_n)
    build = QuasiPairing._from_walk if spec.is_quasi else Pairing._from_walk
    for node in _family_tuples(spec):
        yield build(spec.n, *node)


def count_irreducible_pairings(m: int, max_m: int | None = None) -> int:
    """Number of irreducible pairings of the full ground set 0..m-1."""
    if m % 2:
        raise ValueError(f"pairings of a full ground set need an even size, got {m}")
    spec = EnumSpec(m, "pairing", "irreducible-only", include_empty=True)
    return sum(1 for _ in enumerate_families(spec, max_m))


class CensusRecord(Record):
    """One enumerated family with its reversed tournament and verdicts."""

    def __init__(self, family: PairFamily, tournament: Tournament, indecomposable: bool,
                 irreducible: bool, class_id: int | None) -> None:
        self.__dict__.update(family=family, tournament=tournament, indecomposable=indecomposable,
                             irreducible=irreducible, class_id=class_id)


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


def indecomposable_census(spec: EnumSpec) -> list[CensusRecord]:
    """The census restricted to families whose reversed tournament is indecomposable."""
    return [r for r in census(spec) if r.indecomposable]
