"""Exhaustive generators for pairings and quasi-pairings, and the census
of indecomposable tournaments they produce when reversed inside a total
order.

Families come out as lexicographically increasing tuples of pairs, each
family exactly once, so runs are deterministic and shardable by rank.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Iterator

from .core import (
    GuardError,
    PERM_SCAN_LIMIT,
    Tournament,
    canonical_form,
    is_indecomposable,
    reverse_pairs,
    transitive,
)
from .pairs import (
    PairFamily,
    Pairing,
    QuasiPairing,
    is_irreducible_pairing,
    is_irreducible_quasi,
)

KINDS = ("pairing", "partial-pairing", "quasi", "partial-quasi")
FILTERS = ("all", "irreducible-only", "indecomposable-inv-only")

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


def _pair_walk(n: int, doubled: int, full_support: bool) -> Iterator[tuple[tuple[int, int], ...]]:
    """DFS over families as lexicographically increasing tuples of pairs.

    ``doubled`` is the exact number of vertices allowed in two pairs (0
    for pairings, 1 for quasi-pairings); ``full_support`` restricts the
    output to families covering all of 0..n-1.  Each family is emitted at
    the node that completes it, before any extension, which makes the
    whole stream lexicographic without post-sorting.
    """
    counts = [0] * n
    acc: list[tuple[int, int]] = []
    min_pairs = 2 if doubled else 1

    def min_uncovered() -> int:
        for v in range(n):
            if counts[v] == 0:
                return v
        return n

    def rec(pa: int, pb: int) -> Iterator[tuple[tuple[int, int], ...]]:
        hubs = sum(1 for c in counts if c == 2)
        top = min(min_uncovered(), n - 1) if full_support else n - 1
        for a in range(pa, top + 1):
            if counts[a] >= 2 or (counts[a] == 1 and hubs >= doubled):
                continue
            b_start = pb + 1 if a == pa else a + 1
            for b in range(max(b_start, a + 1), n):
                if counts[b] >= 2:
                    continue
                if counts[b] == 1 and (counts[a] == 1 or hubs >= doubled):
                    continue
                counts[a] += 1
                counts[b] += 1
                acc.append((a, b))
                now_hubs = hubs + (counts[a] == 2) + (counts[b] == 2)
                covered = not full_support or min_uncovered() == n
                if covered and now_hubs == doubled and len(acc) >= min_pairs:
                    yield tuple(acc)
                yield from rec(a, b)
                acc.pop()
                counts[a] -= 1
                counts[b] -= 1

    yield from rec(0, 0)


def _guard(spec: EnumSpec, max_n: int | None) -> None:
    default = PARTIAL_ENUM_LIMIT if spec.is_partial else FULL_ENUM_LIMIT
    limit = default if max_n is None else max_n
    if spec.n > limit:
        raise GuardError(f"enumeration of kind {spec.kind!r} allows n <= {limit}, got {spec.n}")


def _passes(spec: EnumSpec, family: PairFamily) -> bool:
    if spec.filter == "all":
        return True
    if spec.filter == "irreducible-only":
        if spec.is_quasi:
            return is_irreducible_quasi(family)
        return is_irreducible_pairing(family)
    return is_indecomposable(reverse_pairs(transitive(spec.n), family))


def enumerate_families(spec: EnumSpec, max_n: int | None = None) -> Iterator[PairFamily]:
    """All families matching the spec, in lexicographic order of pair tuples."""
    _guard(spec, max_n)
    if spec.is_quasi:
        walk = _pair_walk(spec.n, 1, not spec.is_partial)
        build = QuasiPairing
    else:
        walk = _pair_walk(spec.n, 0, not spec.is_partial)
        build = Pairing
        empty_valid = spec.kind == "partial-pairing" or spec.n == 0
        if spec.include_empty and empty_valid:
            empty = Pairing(spec.n, ())
            if _passes(spec, empty):
                yield empty
    for pairs in walk:
        family = build(spec.n, pairs)
        if _passes(spec, family):
            yield family


def count_irreducible_pairings(m: int, max_m: int | None = None) -> int:
    """Number of irreducible pairings of the full ground set 0..m-1."""
    if m % 2:
        raise ValueError(f"pairings of a full ground set need an even size, got {m}")
    limit = FULL_ENUM_LIMIT if max_m is None else max_m
    if m > limit:
        raise GuardError(f"irreducible-pairing count allows m <= {limit}, got {m}")
    spec = EnumSpec(m, "pairing", "irreducible-only", include_empty=True)
    return sum(1 for _ in enumerate_families(spec, max_n=limit))


@dataclass(frozen=True)
class CensusRecord:
    """One enumerated family with its reversed tournament and verdicts."""

    family: PairFamily
    tournament: Tournament
    indecomposable: bool
    irreducible: bool
    class_id: int | None


def census(spec: EnumSpec, max_n: int | None = None) -> list[CensusRecord]:
    """Evaluate every enumerated family against the total order on 0..n-1.

    Each record carries the reversed tournament, its indecomposability,
    the family's irreducibility, and, for indecomposable results, an
    isomorphism class id assigned by first occurrence.  Distinct families
    always give distinct tournaments; the scan raises RuntimeError otherwise.
    """
    perm_limit = max_n if max_n is not None else None
    class_limit = PERM_SCAN_LIMIT if perm_limit is None else perm_limit
    if spec.n > class_limit:
        raise GuardError(
            f"census class ids need a permutation scan, so n <= {class_limit}, got {spec.n}"
        )
    base = transitive(spec.n)
    judge = is_irreducible_quasi if spec.is_quasi else is_irreducible_pairing
    class_ids: dict[str, int] = {}
    seen: set[int] = set()
    records = []
    for family in enumerate_families(spec, max_n=max_n):
        t = reverse_pairs(base, family)
        if t.bits in seen:
            raise RuntimeError(
                f"invariant broken at n={spec.n}, pairs {family.serialize()!r}: "
                "reversing distinct families gave the same tournament"
            )
        seen.add(t.bits)
        indecomposable = is_indecomposable(t)
        class_id = None
        if indecomposable:
            key = canonical_form(t, max_n=perm_limit)
            class_id = class_ids.setdefault(key, len(class_ids))
        records.append(CensusRecord(family, t, indecomposable, judge(family), class_id))
    return records


def indecomposable_census(spec: EnumSpec, max_n: int | None = None) -> list[CensusRecord]:
    """The census restricted to families whose reversed tournament is indecomposable."""
    return [r for r in census(spec, max_n=max_n) if r.indecomposable]
