"""Independent reference implementations used to cross-check results.

Everything here is deliberately naive: straight from the definitions,
sharing nothing with the package internals beyond public data access,
save ``pair_walk_generator``, an older form of the walk, which reuses the
cut helpers ``_cuts`` and ``_hub_cuts``.
"""

from itertools import accumulate, combinations, count, permutations
from math import comb
from typing import Iterator

from revtour.enumeration import _hub_cuts
from revtour.pairs import _cuts


def involution_count(n: int) -> int:
    """I(n) = I(n-1) + (n-1) I(n-2), the involutions of an n-set."""
    prev, cur = 1, 1
    for k in range(2, n + 1):
        prev, cur = cur, cur + (k - 1) * prev
    return cur


def double_factorial(m: int) -> int:
    out = 1
    while m > 1:
        out *= m
        m -= 2
    return out


def quasi_pairing_count(s: int) -> int:
    """Count for a fixed odd support: hub choice, partner pair, then a matching."""
    return s * comb(s - 1, 2) * double_factorial(s - 4)


def partial_quasi_count(n: int) -> int:
    return sum(comb(n, s) * quasi_pairing_count(s) for s in range(3, n + 1, 2))


def all_matchings(items):
    """Perfect matchings of the items, as lists of sorted pairs."""
    items = list(items)
    if not items:
        yield []
        return
    first = items[0]
    for i in range(1, len(items)):
        head = tuple(sorted((first, items[i])))
        for tail in all_matchings(items[1:i] + items[i + 1 :]):
            yield [head] + tail


def all_partial_pairings(ground):
    """Pairings of every even-size subset of the ground set (empty included)."""
    ground = sorted(ground)
    for size in range(0, len(ground) + 1, 2):
        for subset in combinations(ground, size):
            for matching in all_matchings(subset):
                yield tuple(sorted(matching))


def all_quasi_pairings(support):
    """Quasi-pairings of a fixed odd support, by hub and partner choice."""
    support = sorted(support)
    for hub in support:
        rest = [v for v in support if v != hub]
        for low, high in combinations(rest, 2):
            remaining = [v for v in rest if v not in (low, high)]
            hub_pairs = [tuple(sorted((hub, low))), tuple(sorted((hub, high)))]
            for matching in all_matchings(remaining):
                yield tuple(sorted(hub_pairs + matching))


def all_set_partitions(items):
    """Partitions of the items into nonempty blocks, as lists of tuples."""
    items = list(items)
    if not items:
        yield []
        return
    first, rest = items[0], items[1:]
    for partition in all_set_partitions(rest):
        yield [(first,)] + partition
        for i, block in enumerate(partition):
            yield partition[:i] + [(first,) + block] + partition[i + 1 :]


def naive_is_irreducible(support, blocks) -> bool:
    """No union of a subfamily of blocks is a nontrivial interval of the support."""
    ordered = sorted(support)
    position = {v: i for i, v in enumerate(ordered)}
    blocks = [tuple(b) for b in blocks]
    for r in range(1, len(blocks) + 1):
        for chosen in combinations(blocks, r):
            union = sorted(v for b in chosen for v in b)
            if len(union) < 2 or len(union) >= len(ordered):
                continue
            spots = [position[v] for v in union]
            if spots[-1] - spots[0] + 1 == len(spots):
                return False
    return True


def modules_by_definition(t):
    """All modules of a tournament via the raw definition and the public arc test."""
    found = []
    for mask in range(1 << t.n):
        members = [v for v in range(t.n) if mask >> v & 1]
        rest = [v for v in range(t.n) if not mask >> v & 1]
        if all(len({t.arc(v, m) for m in members}) <= 1 for v in rest):
            found.append(frozenset(members))
    return found


def indecomposable_by_pairs(rows, ground) -> bool:
    """True when every vertex pair of the ground mask grows to the whole
    ground by adding, while any is left, a ground vertex whose out-row
    tells two members apart: the all-pairs test that the fixed-vertex
    test replaced, trying pairs close along the ground first.  Bit u of
    rows[v] means arc v -> u."""
    members = [v for v in range(ground.bit_length()) if ground >> v & 1]
    for gap in range(1, len(members)):
        for x, y in zip(members, members[gap:]):
            closure = 1 << x | 1 << y
            grown = True
            while grown:
                grown = False
                for w in members:
                    seen = rows[w] & closure
                    if seen and seen != closure and not closure >> w & 1:
                        closure |= 1 << w
                        grown = True
            if closure != ground:
                return False
    return True


def closure_by_rescan(rows, ground, mask):
    """Least module of the subtournament on ``ground`` containing the seed
    mask, rescanning every outside ground vertex after each growth until
    none tells two members apart: ``revtour.core._closure_mask`` before the
    one-pass closure.  Bit u of rows[v] means arc v -> u."""
    grew = True
    while grew:
        grew = False
        rest = ground & ~mask
        while rest:
            low = rest & -rest
            rest ^= low
            r = rows[low.bit_length() - 1] & mask
            if r and r != mask:
                mask |= low
                grew = True
    return mask


def refined_part_by_rescan(rows, ground, pivot):
    """A nontrivial module of the ground that avoids the vertex bit
    ``pivot``, or 0 when none does: ``revtour.core._refined_part`` before
    the per-part refinement.  The ground less the pivot is split by the
    ground's out-rows until no row splits a part without its vertex; a
    split re-queues its part, and one-vertex parts are dropped."""
    parts, pending = [ground ^ pivot], ground
    while parts and pending:
        low = pending & -pending
        pending ^= low
        row = rows[low.bit_length() - 1]
        split = []
        for part in parts:
            out = part & row
            if part & low or not out or out == part:
                split.append(part)
            else:
                pending |= part
                split += [p for p in (out, part ^ out) if p & p - 1]
        parts = split
    return parts[0] if parts else 0


def canonical_form_by_scan(t) -> str:
    """Least arc row over all n! relabelings, via the public arc test.

    For a relabeling listing vertices in position order, the row holds,
    for every pair of positions a < b in row-major order, '1' when the
    vertex at a beats the vertex at b.
    """
    beats = [["1" if x != y and t.arc(x, y) else "0" for y in range(t.n)] for x in range(t.n)]
    positions = list(combinations(range(t.n), 2))
    return min(
        "".join(beats[order[a]][order[b]] for a, b in positions)
        for order in permutations(range(t.n))
    )


def walk_tuple(pairs):
    """A family as the pair walk yields it, from vertex counts: its pairs,
    the mask of the vertices it covers and its hub, the vertex covered
    twice (-1 for none)."""
    counts = {}
    for pair in pairs:
        for v in pair:
            counts[v] = counts.get(v, 0) + 1
    hub = max((v for v, c in counts.items() if c == 2), default=-1)
    return tuple(pairs), sum(1 << v for v in counts), hub


def lead_by_mirror(n, pairs):
    """``revtour.enumeration._orbit_lead`` by sorting the mirror image
    (x -> n-1-x) of every family: None when the image's pair tuple is the
    smaller, else whether the image is another family."""
    pairs = tuple(pairs)
    image = tuple(sorted((n - 1 - b, n - 1 - a) for a, b in pairs))
    return None if image < pairs else image != pairs


def _hub_and_partners(pairs):
    counts = {}
    for pair in pairs:
        for v in pair:
            counts[v] = counts.get(v, 0) + 1
    hub = next(v for v, c in counts.items() if c == 2)
    low, high = sorted(v for pair in pairs if hub in pair for v in pair if v != hub)
    return hub, low, high


def anatomy_by_sorting(pairs):
    """(hub, low, high, triple, blocks) of a quasi-pairing, each part sorted
    on its own: the hub's partners, the triple, then every block."""
    hub, low, high = _hub_and_partners(pairs)
    triple = tuple(sorted((hub, low, high)))
    blocks = tuple(sorted([p for p in pairs if hub not in p] + [triple]))
    return hub, low, high, triple, blocks


def theorem3_conditions_by_sets(n, pairs):
    """(C1)-(C4) for a quasi-pairing over 0..n-1, quantifying v over every
    vertex with set membership, as the theorem states them."""
    pairset = set(pairs)
    supp = {v for pair in pairs for v in pair}
    hub, low, high = _hub_and_partners(pairs)
    blocks = [p for p in pairs if hub not in p] + [(low, hub, high)]
    comodules = [{0}, {n - 1}] + [{i, i + 1} for i in range(1, n - 2)]
    c1 = naive_is_irreducible(supp, blocks) and all(supp & c for c in comodules)
    c2 = high >= low + 2
    c3 = not any(
        (v, v + 2) in pairset and (v + 1, v + 3) in pairset and hub not in (v, v + 3)
        for v in range(n)
    )
    c4 = not any(
        (v, v + 1) in pairset
        and not (hub in (v, v + 1) and hub - 1 in supp and hub + 1 in supp)
        for v in range(n)
    )
    return c1, c2, c3, c4


def reduced_c4_by_sets(n, pairs):
    """Corollary 3's (C4): every {v, v+1} in the family has its hub in
    {v, v+1} minus the ends of 0..n-1."""
    pairset = set(pairs)
    hub, _, _ = _hub_and_partners(pairs)
    return not any(
        (v, v + 1) in pairset and hub not in {v, v + 1} - {0, n - 1} for v in range(n)
    )


def pair_walk_by_counts(n, doubled, full_support):
    """``revtour.enumeration._pair_walk`` as it stood before the mask walk:
    a per-vertex cover count, rescanned for the least uncovered vertex."""
    counts = [0] * n
    acc = []
    min_pairs = 2 if doubled else 1

    def min_uncovered():
        for v in range(n):
            if counts[v] == 0:
                return v
        return n

    def rec(pa, pb, hubs):
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
                yield from rec(a, b, now_hubs)
                acc.pop()
                counts[a] -= 1
                counts[b] -= 1

    yield from rec(0, 0, 0)


def sweep_by_prefix_sums(parts) -> bool:
    """Irreducibility of sorted blocks partitioning their ordered union:
    ``revtour.pairs._sweep`` as it stood before the cut rule.

    Block k weighs B^k, B the least power of two above twice the largest
    block size.  Its vertices carry +B^k but the largest, -(size - 1) B^k.
    A run of vertices sums to the sum of c_k B^k, where c_k = 0 exactly
    when block k lies wholly inside or outside the run; |c_k| < B/2 makes
    the c_k balanced base-B digits, so the sum is 0 only if all are.  So,
    P_i summing the first i of the k vertices, positions i..j-1 form a
    union of blocks iff P_i = P_j, and the blocks are reducible iff that
    holds for some j - i >= 2 other than (0, k).  A one-vertex block
    weighs 0: the one way for j - i = 1 to repeat a sum.
    """
    shift = (2 * max(map(len, parts), default=0)).bit_length()
    weight = {}
    for k, block in enumerate(parts):
        unit = 1 << shift * k
        for v in block:
            weight[v] = unit
        weight[block[-1]] = (1 - len(block)) * unit
    sums = list(accumulate(map(weight.__getitem__, sorted(weight)), initial=0))
    k = len(sums) - 1
    # Each sum's last position up to j - 2: for P_k, 0 unless P_0 repeats inside.
    last = {}
    for j in range(2, k + 1):
        last[sums[j - 2]] = j - 2
        i = last.get(sums[j])
        if i is not None and (i or j < k):
            return False
    return True


def sweep_by_spans(parts):
    """``revtour.pairs._sweep`` as it stood before the prefix-sum pass
    (``sweep_by_prefix_sums``): from each vertex u, sweep right; the run
    from u to v is a union of blocks iff no block met on the way starts
    below u and the farthest end among them is v."""
    spans = sorted((v, b[0], b[-1]) for b in parts for v in b)
    for i, (u, _, _) in enumerate(spans):
        reach = u
        # From the least vertex the sweep stops short of the whole set, the trivial union.
        for v, first, last in spans[i : len(spans) - (i == 0)]:
            if first < u:
                break
            reach = max(reach, last)
            if v > u and reach == v:
                return False
    return True


# ``revtour.enumeration._pair_walk`` as it stood before the drained walk: each
# node a generator, each family yielded up a chain of ``yield from`` frames.
def pair_walk_generator(
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
    Each family comes as ``(pairs, mask, hub)``: its sorted pairs, the bit
    mask of its support and its hub (-1 for a pairing).  For ``shard``
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
                        yield tuple(acc), now_covered, now_twice.bit_length() - 1
                if not theirs or depth == 1:
                    yield from rec(a, b, now_once, now_twice, now_hubs, depth + 1)
                acc.pop()
            if prune:
                cuts.difference_update(settled)

    yield from rec(0, 0, 0, 0, 0, 1)
