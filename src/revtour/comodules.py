"""Co-modules: vertex sets whose side or complement is a nontrivial module.

For total orders the minimal co-modules and the largest number of
pairwise disjoint co-modules have closed forms; the brute-force scans
here exist to check those forms and to handle arbitrary tournaments at
small sizes.
"""

from __future__ import annotations

from typing import Iterable, Iterator

from .core import (
    GuardError,
    Tournament,
    _is_module_mask,
    _mask_vertices,
    _out_rows,
    _vertex_mask,
    is_indecomposable_rows,
    reversal_rows,
)
from .pairs import PairFamily, Record, _same_size

# Largest n for the minimal co-module subset scan.
MINIMAL_SCAN_LIMIT = 14
# Largest n for the exact maximum-decomposition search.
DECOMPOSITION_SCAN_LIMIT = 9


class ComoduleFamily(Record):
    """A family of distinct vertex subsets of 0..n-1.

    Members are stored as sorted tuples in lexicographic order.  When the
    family represents a co-modular decomposition its members are pairwise
    disjoint; general families (such as the minimal co-modules of a total
    order) may overlap.
    """

    def __init__(self, n: int, members: Iterable[Iterable[int]] = ()) -> None:
        cleaned = set()
        for member in members:
            ordered = tuple(sorted(member))
            if not ordered:
                raise ValueError("family members must be nonempty")
            if ordered[0] < 0 or ordered[-1] >= n:
                raise ValueError(f"member {member!r} out of range 0..{n - 1}")
            cleaned.add(ordered)
        self.__dict__.update(n=n, members=tuple(sorted(cleaned)))

    def __iter__(self) -> Iterator[tuple[int, ...]]:
        return iter(self.members)

    def __len__(self) -> int:
        return len(self.members)

    def serialize(self) -> str:
        return ";".join("{" + ",".join(map(str, m)) + "}" for m in self.members)


def _is_comodule_mask(rows: list[int], n: int, mask: int) -> bool:
    full = (1 << n) - 1
    for side in (mask, full & ~mask):
        size = bin(side).count("1")
        if 2 <= size <= n - 1 and _is_module_mask(rows, n, side):
            return True
    return False


def is_comodule(t: Tournament, members: Iterable[int]) -> bool:
    """True when the set or its complement is a nontrivial module."""
    mask = _vertex_mask(t.n, members)
    return _is_comodule_mask(_out_rows(t), t.n, mask)


def minimal_comodules_bruteforce(t: Tournament) -> ComoduleFamily:
    """Co-modules containing no other co-module, by scanning all subsets."""
    if t.n > MINIMAL_SCAN_LIMIT:
        raise GuardError(f"minimal co-module scan allows n <= {MINIMAL_SCAN_LIMIT}, got {t.n}")
    rows = _out_rows(t)
    masks = [m for m in range(1 << t.n) if _is_comodule_mask(rows, t.n, m)]
    minimal = [
        m
        for m in masks
        if not any(c != m and c & m == c for c in masks)
    ]
    return ComoduleFamily(t.n, tuple(tuple(_mask_vertices(m)) for m in minimal))


def minimal_comodules_total_order(n: int) -> ComoduleFamily:
    """Minimal co-modules of the total order on 0..n-1, n >= 3.

    They are the two end singletons {0} and {n-1} together with the
    adjacent pairs {i, i+1} for 1 <= i <= n-3.
    """
    if n < 3:
        raise ValueError(f"total-order co-module formula needs n >= 3, got {n}")
    members = [(0,), (n - 1,)] + [(i, i + 1) for i in range(1, n - 2)]
    return ComoduleFamily(n, tuple(members))


def comodular_index_total_order(n: int) -> int:
    """Largest number of pairwise disjoint co-modules of the total order on n >= 3."""
    if n < 3:
        raise ValueError(f"total-order co-module formula needs n >= 3, got {n}")
    return (n + 2) // 2


def max_comodular_decomposition_bruteforce(t: Tournament) -> ComoduleFamily:
    """A maximum family of pairwise disjoint co-modules, by exact search.

    Enumerates all co-modules and branches on taking or skipping each,
    memoized on the blocked vertex set, so the reported family size is
    exact.
    """
    if t.n > DECOMPOSITION_SCAN_LIMIT:
        raise GuardError(f"decomposition search allows n <= {DECOMPOSITION_SCAN_LIMIT}, got {t.n}")
    rows = _out_rows(t)
    masks = [m for m in range(1 << t.n) if _is_comodule_mask(rows, t.n, m)]
    memo: dict[tuple[int, int], tuple[int, ...]] = {}

    def search(i: int, used: int) -> tuple[int, ...]:
        if i == len(masks):
            return ()
        key = (i, used)
        if key in memo:
            return memo[key]
        best = search(i + 1, used)
        if not masks[i] & used:
            withal = (masks[i],) + search(i + 1, used | masks[i])
            if len(withal) > len(best):
                best = withal
        memo[key] = best
        return best

    chosen = search(0, 0)
    return ComoduleFamily(t.n, tuple(tuple(_mask_vertices(m)) for m in chosen))


def is_transversal(vertices: Iterable[int], family: Iterable[Iterable[int]]) -> bool:
    """True when the vertex set meets every member of the family."""
    chosen = set(vertices)
    return all(chosen & set(member) for member in family)


def indecomposable_implies_transversal(n: int, family: PairFamily) -> bool:
    """Check one instance of the support-transversal implication.

    Whenever reversing the family inside the total order on 0..n-1 yields
    an indecomposable tournament, the family's support must meet every
    minimal co-module of the total order.  Returns the truth of that
    implication, so decomposable results count as (vacuously) true.
    """
    if n < 1:
        raise ValueError(f"ambient size must be positive, got {n}")
    _same_size(n, family)
    if not is_indecomposable_rows(reversal_rows(n, family.pairs), (1 << n) - 1):
        return True
    # Total orders below 3 vertices have no co-modules at all.
    return n < 3 or family.transversal
