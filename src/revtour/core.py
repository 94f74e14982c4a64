"""Finite tournaments as immutable bit-packed values.

A tournament on vertices 0..n-1 stores one bit per unordered pair {x, y}
with x < y; the bit is set when the arc runs x -> y.  Completeness and
asymmetry are therefore unrepresentable as errors: the bit fixes the arc
direction and there is nothing else to keep consistent.  Every operation
returns a new value, so shared tournaments are safe to read concurrently.

Text format (bit-exact): line 1 holds the decimal vertex count, line 2 a
string of n(n-1)/2 characters over {0,1}, row-major over pairs (i, j)
with i < j, character '1' meaning the arc i -> j is present.
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass
from functools import lru_cache
from typing import Iterable, Iterator, Sequence

from .pairs import _normalize

# Largest n accepted by subset-scanning oracles (2^n subsets).
SUBSET_SCAN_LIMIT = 20
# Largest n accepted by permutation-scanning operations (n! relabelings).
PERM_SCAN_LIMIT = 9


class GuardError(ValueError):
    """A brute-force operation would exceed its size guard."""


def pair_count(n: int) -> int:
    return n * (n - 1) // 2


def pair_index(n: int, x: int, y: int) -> int:
    """Row-major index of the pair {x, y}, x < y, among all pairs of 0..n-1."""
    return x * (2 * n - x - 1) // 2 + (y - x - 1)


@dataclass(frozen=True)
class Tournament:
    """Complete asymmetric digraph on vertices 0..n-1.

    ``bits`` packs the arc table: bit ``pair_index(n, x, y)`` is 1 when
    the arc runs x -> y (for x < y) and 0 when it runs y -> x.
    """

    n: int
    bits: int = 0

    def __post_init__(self) -> None:
        if self.n < 0:
            raise ValueError(f"vertex count must be nonnegative, got {self.n}")
        if not 0 <= self.bits < 1 << pair_count(self.n):
            raise ValueError(f"arc bits out of range for {self.n} vertices")

    def _check_vertex(self, v: int) -> None:
        if not 0 <= v < self.n:
            raise ValueError(f"vertex {v} out of range 0..{self.n - 1}")

    def arc(self, x: int, y: int) -> bool:
        """True when (x, y) is an arc."""
        self._check_vertex(x)
        self._check_vertex(y)
        if x == y:
            raise ValueError(f"no arc from a vertex to itself: {x}")
        if x < y:
            return bool(self.bits >> pair_index(self.n, x, y) & 1)
        return not self.bits >> pair_index(self.n, y, x) & 1

    def arcs(self) -> Iterator[tuple[int, int]]:
        """All arcs, one per unordered vertex pair."""
        k = 0
        for x in range(self.n):
            for y in range(x + 1, self.n):
                yield (x, y) if self.bits >> k & 1 else (y, x)
                k += 1

    def to_text(self) -> str:
        row = "".join(
            "1" if self.bits >> k & 1 else "0" for k in range(pair_count(self.n))
        )
        return f"{self.n}\n{row}\n"

    @classmethod
    def from_text(cls, text: str) -> "Tournament":
        lines = text.splitlines()
        if not lines or not lines[0].strip():
            raise ValueError("empty tournament text")
        try:
            n = int(lines[0].strip())
        except ValueError:
            raise ValueError(f"bad vertex count line {lines[0]!r}") from None
        if n < 0:
            raise ValueError(f"vertex count must be nonnegative, got {n}")
        m = pair_count(n)
        row = lines[1].strip() if len(lines) > 1 else ""
        if len(row) != m or set(row) - {"0", "1"}:
            raise ValueError(f"arc row must be {m} characters over 01, got {row!r}")
        bits = 0
        for k, ch in enumerate(row):
            if ch == "1":
                bits |= 1 << k
        return cls(n, bits)

    def to_dot(self) -> str:
        lines = ["digraph tournament {"]
        lines += [f"  {v};" for v in range(self.n)]
        lines += [f"  {x} -> {y};" for x, y in self.arcs()]
        lines.append("}")
        return "\n".join(lines) + "\n"


def transitive(n: int) -> Tournament:
    """The total order on 0..n-1: arc x -> y exactly when x < y."""
    if n < 0:
        raise ValueError(f"vertex count must be nonnegative, got {n}")
    return Tournament(n, (1 << pair_count(n)) - 1)


def _vertex_mask(n: int, vertices: Iterable[int]) -> int:
    mask = 0
    for v in vertices:
        if not 0 <= v < n:
            raise ValueError(f"vertex {v} out of range 0..{n - 1}")
        mask |= 1 << v
    return mask


def _mask_vertices(mask: int) -> Iterator[int]:
    while mask:
        low = mask & -mask
        yield low.bit_length() - 1
        mask ^= low


def reverse_pairs(t: Tournament, pairs: Iterable) -> Tournament:
    """Flip the arc inside every listed pair, leaving all other arcs alone.

    Applying the same pair set twice restores the original tournament.
    """
    mask = 0
    for x, y in _normalize(t.n, pairs):
        mask |= 1 << pair_index(t.n, x, y)
    return Tournament(t.n, t.bits ^ mask)


def dual(t: Tournament) -> Tournament:
    """The tournament with every arc reversed."""
    return Tournament(t.n, t.bits ^ ((1 << pair_count(t.n)) - 1))


def relabel(t: Tournament, perm: Sequence[int]) -> Tournament:
    """Rename vertex x to perm[x], carrying each arc along."""
    perm = tuple(perm)
    if sorted(perm) != list(range(t.n)):
        raise ValueError(f"not a permutation of 0..{t.n - 1}: {perm!r}")
    bits = 0
    k = 0
    for x in range(t.n):
        for y in range(x + 1, t.n):
            v = t.bits >> k & 1
            k += 1
            a, b = perm[x], perm[y]
            if a > b:
                a, b = b, a
                v ^= 1
            if v:
                bits |= 1 << pair_index(t.n, a, b)
    return Tournament(t.n, bits)


def subtournament(t: Tournament, vertices: Iterable[int]) -> tuple[Tournament, tuple[int, ...]]:
    """Restrict to a vertex subset, relabeling by rank.

    Returns the restricted tournament together with the rank map: entry k
    is the original label of new vertex k.
    """
    ranks = tuple(sorted(_mask_vertices(_vertex_mask(t.n, vertices))))
    bits = 0
    k = 0
    for i in range(len(ranks)):
        for j in range(i + 1, len(ranks)):
            if t.arc(ranks[i], ranks[j]):
                bits |= 1 << k
            k += 1
    return Tournament(len(ranks), bits), ranks


def delete_vertex(t: Tournament, v: int) -> Tournament:
    """The subtournament on all vertices except v, relabeled by rank."""
    t._check_vertex(v)
    sub, _ = subtournament(t, (u for u in range(t.n) if u != v))
    return sub


def _out_rows(t: Tournament) -> list[int]:
    """Out-neighborhood bitmask per vertex: bit u of rows[v] means arc v -> u."""
    rows = [0] * t.n
    k = 0
    for x in range(t.n):
        for y in range(x + 1, t.n):
            if t.bits >> k & 1:
                rows[x] |= 1 << y
            else:
                rows[y] |= 1 << x
            k += 1
    return rows


def _is_module_mask(rows: list[int], n: int, mask: int) -> bool:
    outside = ((1 << n) - 1) & ~mask
    while outside:
        low = outside & -outside
        outside ^= low
        r = rows[low.bit_length() - 1] & mask
        if r and r != mask:
            return False
    return True


def _closure_mask(rows: list[int], n: int, mask: int) -> int:
    """Least module mask containing the seed mask (order-independent fixed point)."""
    full = (1 << n) - 1
    grew = True
    while grew:
        grew = False
        rest = full & ~mask
        while rest:
            low = rest & -rest
            rest ^= low
            r = rows[low.bit_length() - 1] & mask
            if r and r != mask:
                mask |= low
                grew = True
    return mask


def is_module(t: Tournament, members: Iterable[int]) -> bool:
    """True when every outside vertex relates uniformly to all members."""
    mask = _vertex_mask(t.n, members)
    return _is_module_mask(_out_rows(t), t.n, mask)


def module_closure(t: Tournament, seed: Iterable[int]) -> frozenset[int]:
    """Smallest module containing the seed, which must have at least 2 vertices.

    Grows the seed by adding any vertex that distinguishes two current
    members, until no vertex does.  The result is contained in every
    module that contains the seed.
    """
    mask = _vertex_mask(t.n, seed)
    if bin(mask).count("1") < 2:
        raise ValueError("module closure needs a seed of at least 2 vertices")
    return frozenset(_mask_vertices(_closure_mask(_out_rows(t), t.n, mask)))


def is_indecomposable(t: Tournament) -> bool:
    """True when every module is trivial (empty, singleton, or everything).

    Tournaments on at most 2 vertices qualify.  Otherwise every
    nontrivial module contains some vertex pair together with its module
    closure, so it suffices that every pair closes to the full vertex set.
    """
    if t.n <= 2:
        return True
    rows = _out_rows(t)
    full = (1 << t.n) - 1
    for x in range(t.n):
        for y in range(x + 1, t.n):
            if _closure_mask(rows, t.n, 1 << x | 1 << y) != full:
                return False
    return True


def all_modules_bruteforce(t: Tournament, max_n: int | None = None) -> list[frozenset[int]]:
    """Every module, found by scanning all 2^n subsets.

    Oracle counterpart of the closure-based operations.  Results are in
    shortlex order (by size, then by elements).
    """
    limit = SUBSET_SCAN_LIMIT if max_n is None else max_n
    if t.n > limit:
        raise GuardError(f"subset scan allows n <= {limit}, got {t.n}")
    rows = _out_rows(t)
    found = [
        frozenset(_mask_vertices(mask))
        for mask in range(1 << t.n)
        if _is_module_mask(rows, t.n, mask)
    ]
    found.sort(key=lambda s: (len(s), sorted(s)))
    return found


@lru_cache(maxsize=32)
def _pair_order(n: int) -> tuple[tuple[int, int], ...]:
    return tuple((x, y) for x in range(n) for y in range(x + 1, n))


def canonical_form(t: Tournament, max_n: int | None = None) -> str:
    """Lexicographically smallest arc row over all vertex relabelings.

    Two tournaments are isomorphic exactly when their canonical forms are
    equal.  Scans all n! relabelings, hence the size guard.
    """
    limit = PERM_SCAN_LIMIT if max_n is None else max_n
    if t.n > limit:
        raise GuardError(f"permutation scan allows n <= {limit}, got {t.n}")
    m = pair_count(t.n)
    if m == 0:
        return ""
    pairs = _pair_order(t.n)
    n, bits = t.n, t.bits
    best = None
    for sigma in itertools.permutations(range(n)):
        value = 0
        for a, b in pairs:
            x, y = sigma[a], sigma[b]
            if x < y:
                bit = bits >> pair_index(n, x, y) & 1
            else:
                bit = 1 ^ (bits >> pair_index(n, y, x) & 1)
            value = value << 1 | bit
        if best is None or value < best:
            best = value
    return format(best, f"0{m}b")


def is_isomorphic(a: Tournament, b: Tournament, max_n: int | None = None) -> bool:
    """True when some relabeling carries one tournament onto the other."""
    if a.n != b.n:
        return False
    return canonical_form(a, max_n) == canonical_form(b, max_n)
