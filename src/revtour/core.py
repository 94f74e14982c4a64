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

from functools import cache
from typing import Iterable, Iterator, Sequence

from .pairs import Record, _normalize

# Largest n accepted by subset-scanning oracles (2^n subsets).
SUBSET_SCAN_LIMIT = 20


class GuardError(ValueError):
    """A brute-force operation would exceed its size guard."""


def pair_count(n: int) -> int:
    return n * (n - 1) // 2


def pair_index(n: int, x: int, y: int) -> int:
    """Row-major index of the pair {x, y}, x < y, among all pairs of 0..n-1."""
    return x * (2 * n - x - 1) // 2 + (y - x - 1)


class Tournament(Record):
    """Complete asymmetric digraph on vertices 0..n-1.

    ``bits`` packs the arc table: bit ``pair_index(n, x, y)`` is 1 when
    the arc runs x -> y (for x < y) and 0 when it runs y -> x.
    """

    def __init__(self, n: int, bits: int = 0) -> None:
        if n < 0:
            raise ValueError(f"vertex count must be nonnegative, got {n}")
        if not 0 <= bits < 1 << pair_count(n):
            raise ValueError(f"arc bits out of range for {n} vertices")
        self.__dict__.update(n=n, bits=bits)

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
        head = lines[0].strip() if lines else ""
        if not head:
            raise ValueError("empty tournament text")
        if not (head.isascii() and head.isdigit()):
            raise ValueError(f"bad vertex count line {lines[0]!r}")
        n = int(head)
        m = pair_count(n)
        row = lines[1].strip() if len(lines) > 1 else ""
        if len(row) != m or set(row) - {"0", "1"}:
            raise ValueError(f"arc row must be {m} characters over 01, got {row!r}")
        if any(line.strip() for line in lines[2:]):
            raise ValueError("only blank lines may follow the arc row")
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
    return Tournament(t.n, t.bits ^ _pair_bits(t.n, _normalize(t.n, pairs)))


def _pair_bits(n: int, pairs: Iterable[tuple[int, int]]) -> int:
    """The arc bits of distinct pairs (x, y), x < y."""
    bits = 0
    for x, y in pairs:
        bits |= 1 << pair_index(n, x, y)
    return bits


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


@cache
def _order_rows(n: int) -> tuple[int, ...]:
    """Out-rows of the total order on 0..n-1: x beats every y > x."""
    return tuple((1 << n) - (2 << x) for x in range(n))


def reversal_rows(n: int, pairs: Iterable[tuple[int, int]]) -> list[int]:
    """Out-rows of T(n, F): the total order on 0..n-1 with each pair of F reversed.

    Bit u of rows[v] means arc v -> u.  The pairs must be distinct and
    lie in 0..n-1, as a ``PairFamily`` over n stores them.
    """
    rows = list(_order_rows(n))
    for x, y in pairs:
        rows[x] ^= 1 << y
        rows[y] ^= 1 << x
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


def _closure_mask(rows: list[int], ground: int, mask: int) -> int:
    """Least module of the subtournament on ``ground`` containing the seed
    mask.  For v its least vertex, an outside u tells two members apart iff
    x -> u and v -> u differ for some member x, as u -> x is not x -> u.  So
    each member's row is XORed with v's once, and the outside ground
    vertices where they differ join, each XORed in turn."""
    v = mask & -mask
    row, queue = rows[v.bit_length() - 1], mask ^ v
    while queue:
        low = queue & -queue
        new = (rows[low.bit_length() - 1] ^ row) & ground & ~mask
        mask |= new
        queue ^= low | new
    return mask


def is_module(t: Tournament, members: Iterable[int]) -> bool:
    """True when every outside vertex relates uniformly to all members."""
    mask = _vertex_mask(t.n, members)
    return _is_module_mask(_out_rows(t), t.n, mask)


def module_closure(t: Tournament, seed: Iterable[int]) -> frozenset[int]:
    """Smallest module containing the seed, which must have at least 2 vertices.

    Each vertex it adds tells two members apart, so it lies in every module
    that contains the seed."""
    mask = _vertex_mask(t.n, seed)
    if bin(mask).count("1") < 2:
        raise ValueError("module closure needs a seed of at least 2 vertices")
    return frozenset(_mask_vertices(_closure_mask(_out_rows(t), (1 << t.n) - 1, mask)))


def _refined_part(rows: list[int], ground: int, pivot: int) -> int:
    """A nontrivial module of the ground that avoids the vertex bit
    ``pivot``, or 0 when none does.  Each part of the ground less the pivot
    carries the vertices not yet tried on it, at first the pivot; a row that
    splits it into ``out`` and ``rest`` adds each to the other's mask.  No
    module avoiding the pivot is split, so one-vertex pieces are dropped,
    and the first part whose mask empties is returned."""
    parts = [(ground ^ pivot, pivot)]
    while parts:
        part, untried = parts.pop()
        while untried:
            low = untried & -untried
            untried ^= low
            out = part & rows[low.bit_length() - 1]
            if out and out != part:
                rest = part ^ out
                if out & out - 1:
                    parts.append((out, untried | rest))
                if rest & rest - 1:
                    parts.append((rest, untried | out))
                break
        else:
            return part
    return 0


def module_rows(rows: list[int], ground: int) -> int:
    """A nontrivial module of the subtournament on the vertex mask
    ``ground``, as a vertex mask, or 0 when it has only trivial modules.

    For v < w the two least ground vertices, a nontrivial module holds
    both, and so their closure, or it avoids v or w, and the refinement
    from that vertex finds one.  The closure reads each member's row once
    and the refinement tries each vertex once per part.  A screen comes first:
    two ground-consecutive vertices that no other one tells apart are returned."""
    if ground.bit_count() < 3:
        return 0
    v = ground & -ground
    w = (ground ^ v) & -(ground ^ v)
    x, rest = v, ground ^ v
    while rest:
        y = rest & -rest
        if not (rows[x.bit_length() - 1] ^ rows[y.bit_length() - 1]) & ground & ~(x | y):
            return x | y
        x, rest = y, rest ^ y
    closure = _closure_mask(rows, ground, v | w)
    if closure != ground:
        return closure
    return _refined_part(rows, ground, v) or _refined_part(rows, ground, w)


def is_indecomposable_rows(rows: list[int], ground: int) -> bool:
    """True when the subtournament on the vertex mask ``ground`` has only trivial modules."""
    return not module_rows(rows, ground)


def is_indecomposable(t: Tournament) -> bool:
    """True when every module is trivial (empty, singleton, or everything).

    Tournaments on at most 2 vertices qualify.
    """
    return is_indecomposable_rows(_out_rows(t), (1 << t.n) - 1)


def all_modules_bruteforce(t: Tournament) -> list[frozenset[int]]:
    """Every module, found by scanning all 2^n subsets.

    Oracle counterpart of the closure-based operations.  Results are in
    shortlex order (by size, then by elements).
    """
    if t.n > SUBSET_SCAN_LIMIT:
        raise GuardError(f"subset scan allows n <= {SUBSET_SCAN_LIMIT}, got {t.n}")
    rows = _out_rows(t)
    found = [
        frozenset(_mask_vertices(mask))
        for mask in range(1 << t.n)
        if _is_module_mask(rows, t.n, mask)
    ]
    found.sort(key=lambda s: (len(s), sorted(s)))
    return found


def canonical_form(t: Tournament) -> str:
    """Lexicographically smallest arc row over all vertex relabelings.

    Two tournaments are isomorphic exactly when their canonical forms are
    equal.  Position a of a relabeling holds one vertex, and bit (a, b) of
    the row, a < b, is 1 when the vertex at a beats the vertex at b.  Row
    k, the bits (k, b) for b > k, is therefore smallest when the later
    positions list the in-neighbours of the vertex at k before its
    out-neighbours.

    The search fills positions in order and keeps a set of states.  A
    state orders the unplaced vertices into cells, and stands for every
    relabeling that places each cell, in any order, on the next positions.
    Initially one cell holds every vertex.  At step k each vertex of a
    state's first cell is tried at position k: every cell splits into the
    vertex's in-part followed by its out-part, which fixes row k for all
    relabelings of the new state and makes it the least row k among
    relabelings of the old state with that vertex at k.  Only the new
    states whose row k is least over all states survive.  Rows 0..k-1
    already agree on every surviving state, so the states that are
    dropped cannot reach the minimum and the search is exact; it branches
    only where row k ties.  ``tests/oracles.py`` keeps the n! scan that
    this replaces as the reference.
    """
    m = pair_count(t.n)
    if m == 0:
        return ""
    rows = _out_rows(t)
    states = {((1 << t.n) - 1,)}
    value = 0
    for k in range(t.n - 1):
        width = t.n - 1 - k
        best = 1 << width
        survivors: set[tuple[int, ...]] = set()
        for first, *rest in states:
            candidates = first
            while candidates:
                low = candidates & -candidates
                candidates ^= low
                out = rows[low.bit_length() - 1]
                row = 0
                split = []
                for cell in (first ^ low, *rest):
                    beaten = cell & out
                    row = row << cell.bit_count() | (1 << beaten.bit_count()) - 1
                    beating = cell ^ beaten
                    if beating:
                        split.append(beating)
                    if beaten:
                        split.append(beaten)
                if row < best:
                    best = row
                    survivors = {tuple(split)}
                elif row == best:
                    survivors.add(tuple(split))
        states = survivors
        value = value << width | best
    return format(value, f"0{m}b")


def is_isomorphic(a: Tournament, b: Tournament) -> bool:
    """True when some relabeling carries one tournament onto the other."""
    if a.n != b.n:
        return False
    return canonical_form(a) == canonical_form(b)
