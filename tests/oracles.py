"""Independent reference implementations used to cross-check results.

Everything here is deliberately naive: straight from the definitions,
sharing nothing with the package internals beyond public data access.
"""

from itertools import accumulate, combinations, permutations
from math import comb

from revtour import enumerate_families
from revtour.pairs import mirror_pairs


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
    the mask of the vertices it covers and that of those covered twice."""
    counts = {}
    for pair in pairs:
        for v in pair:
            counts[v] = counts.get(v, 0) + 1
    twice = sum(1 << v for v, c in counts.items() if c == 2)
    return tuple(pairs), sum(1 << v for v in counts), twice


def unreduced_tasks(plan, max_n, shard=(0, 1)):
    """Every family of the walks' shard as a task of its own, with no
    mirror image to stand for: ``revtour.theorems._orbit_tasks`` before the
    mirror-orbit reduction, fed to the same driver."""
    for labels, spec in plan:
        for family in enumerate_families(spec, max_n, shard=shard):
            yield labels, spec.n, walk_tuple(family.pairs), False


def orbit_tasks_by_mirror(plan, max_n, shard=(0, 1)):
    """One task per mirror orbit of the walks' shard, keeping a family whose
    pair tuple is not larger than its mirrored tuple:
    ``revtour.theorems._orbit_tasks`` before its least-pair test, sorting
    the image of every family."""
    for labels, spec in plan:
        for family in enumerate_families(spec, max_n, shard=shard):
            image = mirror_pairs(spec.n, family.pairs)
            if family.pairs <= image:
                yield labels, spec.n, walk_tuple(family.pairs), family.pairs != image


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
