"""Pair families over the totally ordered ground set 0..n-1.

A pair family is a set of unordered vertex pairs.  Two cardinality
identities single out the families this package revolves around: a
pairing covers its support with disjoint pairs (|support| = 2 |pairs|),
while a quasi-pairing covers an odd support with exactly one vertex, the
hub, sitting in two pairs (|support| = 2 |pairs| - 1).

Irreducibility is always judged against the support's induced integer
order: a block partition is irreducible when no nontrivial interval of
the ordered support is a union of blocks.  For a quasi-pairing the
blocks are those of the merged partition, where the two hub pairs fuse
into one 3-vertex block.  Every such test reads the cuts of ``_cuts``.

Text format (bit-exact): comma-separated tokens "i-j" with i < j, sorted
by (i, j); the empty family serializes to the empty string.
"""

from __future__ import annotations

from typing import Iterable, Iterator, Sequence


def _partners(pairs: Iterable[tuple[int, int]], hub: int) -> tuple[int, int]:
    """The two partners low < high of ``hub``, from its pairs in sorted order."""
    partners = ()
    for x, y in pairs:
        if x == hub or y == hub:
            partners += (x + y - hub,)
    low, high = partners
    return low, high


def _serialize(pairs: Iterable[tuple[int, int]]) -> str:
    return ",".join([f"{x}-{y}" for x, y in pairs])


def _invariant_broken(n: int, pairs: Iterable[tuple[int, int]], what: str) -> RuntimeError:
    return RuntimeError(f"invariant broken at n={n}, pairs {_serialize(pairs)!r}: {what}")


def _normalize(n: int, pairs: Iterable) -> tuple[tuple[int, int], ...]:
    if n < 0:
        raise ValueError(f"ambient size must be nonnegative, got {n}")
    seen: set[tuple[int, int]] = set()
    for pair in pairs:
        x, y = pair
        if x == y:
            raise ValueError(f"pair endpoints must differ: {pair!r}")
        if x > y:
            x, y = y, x
        if not 0 <= x or not y < n:
            raise ValueError(f"pair {pair!r} out of range 0..{n - 1}")
        seen.add((x, y))
    return tuple(sorted(seen))


def _same_size(n: int, family: PairFamily) -> None:
    if family.n != n:
        raise ValueError(f"family over n={family.n} vertices checked at n={n}")


def is_order_transversal(n: int, mask: int) -> bool:
    """True when the vertex mask meets every minimal co-module of the total
    order on 0..n-1, n >= 3: {0}, {n-1} and each {i, i+1} for 1 <= i <= n-3
    (``comodules.minimal_comodules_total_order``).  So it holds both ends
    and misses no two consecutive vertices."""
    if n < 3:
        raise ValueError(f"total-order co-module formula needs n >= 3, got {n}")
    missing = ~mask & (1 << n) - 1
    return not missing & (1 | 1 << n - 1) and not missing & missing >> 1


class Record:
    """Base of the value types, lighter to import than ``dataclasses``: the fields are the
    ``__init__`` parameters, stored by name with ``self.__dict__.update`` and never assigned
    again.  A record equals, and hashes as, the records of its class with equal fields."""

    def __init_subclass__(cls) -> None:
        code = cls.__init__.__code__
        cls._fields = code.co_varnames[1 : code.co_argcount]

    def _values(self) -> tuple:
        return tuple([getattr(self, name) for name in self._fields])

    def __eq__(self, other: object) -> bool:
        if other.__class__ is not self.__class__:
            return NotImplemented
        return self._values() == other._values()

    def __hash__(self) -> int:
        return hash(self._values())

    def __repr__(self) -> str:
        fields = ", ".join([f"{name}={getattr(self, name)!r}" for name in self._fields])
        return f"{self.__class__.__qualname__}({fields})"

    def __setattr__(self, name: str, value: object = None) -> None:
        raise AttributeError(f"cannot assign to field {name!r}")

    __delattr__ = __setattr__


class PairFamily(Record):
    """A set of unordered vertex pairs over the ambient set 0..n-1.

    Pairs are stored deduplicated, each as (x, y) with x < y, sorted, with
    the support mask ``mask`` and the hub ``_hub`` (-1 for none) folded from
    them as in ``enumeration._pair_walk``, and nothing else: ``support`` and
    ``transversal`` are read off ``mask`` on each use.  Families of any kind
    with equal fields are equal.
    """

    def __init__(self, n: int, pairs: Iterable = ()) -> None:
        pairs = _normalize(n, pairs)
        once = twice = 0
        for x, y in pairs:
            pair = 1 << x | 1 << y
            # A free end becomes covered once, an end covered once becomes a hub.
            once, twice = once ^ pair, twice | once & pair
        self.__dict__.update(n=n, pairs=pairs, mask=once | twice, _hub=twice.bit_length() - 1)
        if error := self._size_error():
            raise ValueError(error)

    @classmethod
    def _from_walk(cls, n: int, pairs: tuple, mask: int, hub: int) -> "PairFamily":
        """Store the walk's sorted, distinct, in-range pairs, support mask and
        hub (-1 for none) as given; only the kind's size rule is checked."""
        family = object.__new__(cls)
        family.__dict__.update(n=n, pairs=pairs, mask=mask, _hub=hub)
        if error := family._size_error():
            raise _invariant_broken(n, pairs, error)
        return family

    def _size_error(self) -> str | None:
        """Why the support's size breaks the kind's rule, or None."""

    def __eq__(self, other: object) -> bool:
        if not isinstance(other, PairFamily):
            return NotImplemented
        return self.n == other.n and self.pairs == other.pairs

    __hash__ = Record.__hash__

    def __iter__(self) -> Iterator[tuple[int, int]]:
        return iter(self.pairs)

    def __len__(self) -> int:
        return len(self.pairs)

    @property
    def support(self) -> frozenset[int]:
        """Union of all pairs, read off the support mask."""
        return frozenset(v for v in range(self.n) if self.mask >> v & 1)

    @property
    def transversal(self) -> bool:
        """True when the support meets every minimal co-module of the total order."""
        return is_order_transversal(self.n, self.mask)

    def serialize(self) -> str:
        return _serialize(self.pairs)

    @classmethod
    def parse(cls, n: int, text: str) -> "PairFamily":
        text = text.strip()
        if not text:
            return cls(n, ())
        pairs = []
        for token in text.split(","):
            left, _, right = token.partition("-")
            if not all(end.isascii() and end.isdigit() for end in (left, right)):
                raise ValueError(f"bad pair token {token!r}")
            x, y = int(left), int(right)
            if x >= y:
                raise ValueError(f"bad pair token {token!r}: want i-j with i < j")
            pairs.append((x, y))
        return cls(n, pairs)


class Pairing(PairFamily):
    """A pair family whose pairs are pairwise disjoint."""

    def _size_error(self) -> str | None:
        if self.mask.bit_count() != 2 * len(self.pairs):
            return "pairs of a pairing must be pairwise disjoint"
        return None


class QuasiPairing(PairFamily):
    """A pair family covering an odd support with a single doubled vertex."""

    def _size_error(self) -> str | None:
        if self.mask.bit_count() != 2 * len(self.pairs) - 1:
            return "a quasi-pairing needs at least 2 pairs with exactly one shared vertex"
        return None


def classify(family: PairFamily) -> str:
    """One of "pairing", "quasi-pairing", or "neither", by support size."""
    s, p = family.mask.bit_count(), len(family.pairs)
    if s == 2 * p:
        return "pairing"
    if s == 2 * p - 1:
        return "quasi-pairing"
    return "neither"


def components(family: PairFamily) -> list[tuple[int, ...]]:
    """Connected components of the graph whose edges are the pairs.

    For a pairing these are exactly its pairs; for a quasi-pairing, the
    hub's component is the triple and the rest are pairs.
    """
    blocks: list[int] = []
    for x, y in family.pairs:
        block = 1 << x | 1 << y
        for other in [b for b in blocks if b & block]:
            blocks.remove(other)
            block |= other
        blocks.append(block)
    return sorted(tuple(v for v in range(family.n) if b >> v & 1) for b in blocks)


def mirror_pairs(n: int, pairs: Iterable[tuple[int, int]]) -> tuple[tuple[int, int], ...]:
    """Sorted pairs (x, y), x < y, under the order-reversing relabeling x -> n-1-x."""
    return tuple(sorted((n - 1 - y, n - 1 - x) for x, y in pairs))


def mirrored(family: PairFamily) -> PairFamily:
    """The family under the order-reversing relabeling x -> n-1-x."""
    return type(family)(family.n, mirror_pairs(family.n, family.pairs))


def _cuts(
    ends: int, covered: int = 0, start: int = 0, pairs: Sequence[tuple[int, int]] = ()
) -> list[int]:
    """The cuts before the vertices u >= start of ``ends``: each the set of
    vertices >= u whose block meets those below u.  When every vertex is
    paired with the least of its block, that is the union of the pairs whose
    first end is below u, masked to the vertices >= u; ``covered`` holds the
    pairs whose first ends are below ``start`` and ``pairs`` the rest."""
    firsts: dict[int, int] = {}
    for x, y in pairs:
        firsts[x] = firsts.get(x, 0) | 1 << x | 1 << y
    cuts = []
    for u in range(start, ends.bit_length()):
        if ends >> u & 1:
            cuts.append(covered >> u << u)
        if u in firsts:
            covered |= firsts[u]
    return cuts


def _irreducible(ends: int, pairs: Sequence[tuple[int, int]]) -> bool:
    """Irreducibility of the blocks the pairs join against the k vertices of
    ``ends``: no two of their cuts, and the 0 after them at k, are equal
    j - i >= 2 apart, but the 0s at (0, k).  Only a one-vertex block
    repeats a cut at j - i = 1."""
    cuts = _cuts(ends, pairs=pairs)
    k = len(cuts)
    return len(set(cuts)) == k or not any(
        cut in cuts[i + 2 :] or 0 < i < k - 1 and not cut for i, cut in enumerate(cuts)
    )


def is_irreducible_partition(vertices: Iterable[int], blocks: Iterable[Iterable[int]]) -> bool:
    """True when no nontrivial interval of the ordered set is a union of blocks."""
    rank = {v: i for i, v in enumerate(sorted(set(vertices)))}
    parts = [sorted(b) for b in blocks]
    if not all(parts) or sorted(v for b in parts for v in b) != list(rank):
        raise ValueError("blocks must partition the ground set")
    pairs = [(rank[b[0]], rank[v]) for b in parts for v in b[1:]]
    return _irreducible((1 << len(rank)) - 1, pairs)


def is_irreducible_pairing(family: PairFamily) -> bool:
    """Irreducibility of a pairing: its pairs (its components) against its ordered support."""
    if classify(family) != "pairing":
        raise ValueError("irreducibility of a pairing needs a pairing")
    return _irreducible(family.mask, family.pairs)


def is_irreducible_quasi(family: PairFamily) -> bool:
    """Irreducibility of a quasi-pairing: its merged partition, which its
    pairs and the virtual pair of the hub's partners join, against its
    ordered support."""
    if classify(family) != "quasi-pairing":
        raise ValueError("irreducibility of a quasi-pairing needs a quasi-pairing")
    return _irreducible(family.mask, [*family.pairs, _partners(family.pairs, family._hub)])
