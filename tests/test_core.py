"""Tournament construction, modules, indecomposability, isomorphism."""

import random
from itertools import combinations

import pytest

from revtour import (
    EnumSpec,
    GuardError,
    Tournament,
    all_modules_bruteforce,
    canonical_form,
    delete_vertex,
    dual,
    enumerate_families,
    is_indecomposable,
    is_isomorphic,
    is_module,
    module_closure,
    relabel,
    reverse_pairs,
    subtournament,
    transitive,
)
from revtour.core import (
    _closure_mask,
    _is_module_mask,
    _mask_vertices,
    _out_rows,
    _refined_part,
    is_indecomposable_rows,
    module_rows,
    pair_count,
    reversal_rows,
)

from oracles import (
    closure_by_rescan,
    indecomposable_by_pairs,
    modules_by_definition,
    refined_part_by_rescan,
)


def assert_kernels_match_rescans(rows, n, ground):
    """The closure of every seed pair of the ground is the rescan's: the least
    module holding a seed is unique.  On a ground of 3 vertices or more, the
    refinement from each ground vertex finds a module exactly when the
    rescan does, and what it returns avoids the pivot, has 2 vertices or
    more and is a module of the subtournament on the ground."""
    members = list(_mask_vertices(ground))
    for x, y in combinations(members, 2):
        seed = 1 << x | 1 << y
        assert _closure_mask(rows, ground, seed) == closure_by_rescan(rows, ground, seed), seed
    if len(members) < 3:
        return
    # Vertices off the ground, with empty rows, see every set alike.
    inside = [r if ground >> v & 1 else 0 for v, r in enumerate(rows)]
    for pivot in (1 << v for v in members):
        part = _refined_part(rows, ground, pivot)
        assert (part == 0) == (refined_part_by_rescan(rows, ground, pivot) == 0), pivot
        if part:
            assert not part & (pivot | ~ground) and part.bit_count() >= 2, pivot
            assert _is_module_mask(inside, n, part), pivot


def cycle3() -> Tournament:
    return reverse_pairs(transitive(3), [(0, 2)])


def witness5() -> Tournament:
    """The 5-vertex indecomposable tournament from reversing {0,2} and {1,4}."""
    return reverse_pairs(transitive(5), [(0, 2), (1, 4)])


class TestConstruction:
    def test_transitive_arcs(self):
        assert set(transitive(2).arcs()) == {(0, 1)}
        assert set(transitive(3).arcs()) == {(0, 1), (0, 2), (1, 2)}

    def test_transitive_empty(self):
        t = transitive(0)
        assert t.n == 0 and list(t.arcs()) == []

    def test_negative_size_rejected(self):
        with pytest.raises(ValueError):
            transitive(-1)
        with pytest.raises(ValueError):
            Tournament(-2, 0)

    def test_bits_out_of_range_rejected(self):
        with pytest.raises(ValueError):
            Tournament(3, 1 << 3)

    def test_arc_validation(self):
        t = transitive(3)
        with pytest.raises(ValueError):
            t.arc(0, 0)
        with pytest.raises(ValueError):
            t.arc(0, 3)


class TestReversal:
    def test_cycle3(self):
        assert set(cycle3().arcs()) == {(0, 1), (1, 2), (2, 0)}

    def test_empty_reversal_is_identity(self):
        t = witness5()
        assert reverse_pairs(t, []) == t

    def test_double_reversal_is_identity(self):
        t = transitive(6)
        pairs = [(0, 3), (1, 5), (2, 4)]
        assert reverse_pairs(reverse_pairs(t, pairs), pairs) == t

    def test_out_of_range_pair_rejected(self):
        with pytest.raises(ValueError):
            reverse_pairs(transitive(4), [(0, 4)])
        with pytest.raises(ValueError):
            reverse_pairs(transitive(4), [(2, 2)])

    def test_unordered_and_duplicate_pairs_normalize(self):
        t = transitive(4)
        assert reverse_pairs(t, [(2, 0)]) == reverse_pairs(t, [(0, 2), (2, 0)])


class TestDual:
    def test_dual_of_chain(self):
        assert set(dual(transitive(3)).arcs()) == {(1, 0), (2, 0), (2, 1)}

    def test_dual_involution(self):
        t = witness5()
        assert dual(dual(t)) == t

    def test_dual_commutes_with_reversal(self):
        t = transitive(4)
        pairs = [(0, 3)]
        assert dual(reverse_pairs(t, pairs)) == reverse_pairs(dual(t), pairs)


class TestSubtournament:
    def test_order_restriction(self):
        sub, ranks = subtournament(transitive(5), {1, 3, 4})
        assert sub == transitive(3)
        assert ranks == (1, 3, 4)

    def test_full_subset_is_identity(self):
        t = witness5()
        sub, ranks = subtournament(t, range(5))
        assert sub == t and ranks == (0, 1, 2, 3, 4)

    def test_restriction_commutes_with_reversal(self):
        # Restricting a reversed chain equals reversing the restricted chain
        # under the rank images of the surviving pairs.
        t = reverse_pairs(transitive(5), [(0, 2), (2, 4), (1, 3)])
        sub, ranks = subtournament(t, {0, 2, 3, 4})
        assert ranks == (0, 2, 3, 4)
        assert sub == reverse_pairs(transitive(4), [(0, 1), (1, 3)])

    def test_delete_vertex(self):
        assert delete_vertex(transitive(4), 0) == transitive(3)
        assert delete_vertex(transitive(4), 3) == transitive(3)

    def test_out_of_range_rejected(self):
        with pytest.raises(ValueError):
            subtournament(transitive(3), {0, 5})


class TestModules:
    def test_interval_of_chain_is_module(self):
        assert is_module(transitive(5), {1, 2})

    def test_split_pair_is_not_module(self):
        assert not is_module(transitive(5), {1, 3})

    def test_module_in_reversed_chain(self):
        t = reverse_pairs(transitive(4), [(0, 2), (1, 3)])
        assert is_module(t, {0, 3})

    def test_trivial_modules(self):
        t = cycle3()
        assert is_module(t, set())
        assert is_module(t, {1})
        assert is_module(t, {0, 1, 2})

    def test_chain_modules_are_intervals(self):
        t = transitive(6)
        for mods in range(1 << 6):
            members = sorted(v for v in range(6) if mods >> v & 1)
            contiguous = not members or members[-1] - members[0] + 1 == len(members)
            assert is_module(t, members) == contiguous


class TestModuleClosure:
    def test_fixed_point_of_module(self):
        assert module_closure(transitive(5), {1, 2}) == {1, 2}

    def test_growth_to_enclosing_interval(self):
        assert module_closure(transitive(5), {1, 3}) == {1, 2, 3}

    def test_closure_fills_indecomposable(self):
        assert module_closure(witness5(), {0, 1}) == {0, 1, 2, 3, 4}

    def test_small_seed_rejected(self):
        with pytest.raises(ValueError):
            module_closure(transitive(4), {2})

    def test_minimality_against_subset_oracle(self):
        t = reverse_pairs(transitive(6), [(0, 2), (3, 5)])
        mods = modules_by_definition(t)
        for x in range(6):
            for y in range(x + 1, 6):
                closure = module_closure(t, {x, y})
                assert closure in mods
                for m in mods:
                    if {x, y} <= m:
                        assert closure <= m


class TestIndecomposable:
    def test_chain_is_decomposable(self):
        assert not is_indecomposable(transitive(3))

    def test_cycle_is_indecomposable(self):
        assert is_indecomposable(cycle3())

    def test_witness_is_indecomposable(self):
        assert is_indecomposable(witness5())

    def test_tiny_sizes(self):
        for n in (0, 1, 2):
            assert is_indecomposable(transitive(n))

    def test_agrees_with_bruteforce(self):
        for bits in range(1 << 10):
            t = Tournament(5, bits)
            nontrivial = [
                m for m in all_modules_bruteforce(t) if 2 <= len(m) <= t.n - 1
            ]
            assert is_indecomposable(t) == (not nontrivial)


class TestRowPath:
    """Out-rows built from a family, and the test on a ground mask."""

    def test_rows_are_those_of_the_reversed_order(self):
        for n in range(8):
            for kind in ("partial-pairing", "partial-quasi"):
                for family in enumerate_families(EnumSpec(n, kind)):
                    t = reverse_pairs(transitive(n), family)
                    assert reversal_rows(n, family.pairs) == _out_rows(t), family

    def test_ground_mask_is_the_subtournament(self):
        for n in range(5):
            for bits in range(1 << n * (n - 1) // 2):
                t = Tournament(n, bits)
                for ground in range(1 << n):
                    sub, _ = subtournament(t, _mask_vertices(ground))
                    nontrivial = [
                        m for m in all_modules_bruteforce(sub) if 2 <= len(m) <= sub.n - 1
                    ]
                    assert is_indecomposable_rows(_out_rows(t), ground) == (not nontrivial)

    def test_modules_of_distant_vertices_only(self):
        # Every seed {i, i+1} closes to everything; only the seeds {0, 3}
        # and {1, 4} find the two nontrivial modules.
        t = reverse_pairs(transitive(5), [(0, 2), (1, 3), (2, 4)])
        rows = _out_rows(t)
        assert [module_closure(t, {i, i + 1}) for i in range(4)] == [frozenset(range(5))] * 4
        assert all_modules_bruteforce(t)[6:-1] == [frozenset({0, 3}), frozenset({1, 4})]
        assert not is_indecomposable(t)
        assert not is_indecomposable_rows(rows, 0b11111)
        # 0 -> 1 -> 2 -> 0 is a cycle; 0 beats 1 and 3 in {0, 1, 3}.
        assert is_indecomposable_rows(rows, 0b00111)
        assert not is_indecomposable_rows(rows, 0b01011)


class TestFixedVertex:
    """For v < w the two least ground vertices, one case per search of
    ``module_rows`` past its end test and screen: the closure of {v, w},
    and the refinement from v and from w each find the one nontrivial
    module of a case that neither of the other two finds.  In the first two
    cases the end test of ``module_rows`` returns that module before any of
    them runs: 3 is beaten by all in T(4, {(0, 2)}), and 0 beats all in
    T(4, {(1, 3)}); ``TestModuleRows::test_module_of_each_stage`` has cases
    with both ends in the support.  The screen is never the only search
    that finds a module: its pair avoids v, or avoids w, or is {v, w}."""

    GROUND = 0b1111

    @staticmethod
    def only_module(pairs):
        t = reverse_pairs(transitive(4), pairs)
        nontrivial = [m for m in all_modules_bruteforce(t) if 2 <= len(m) < t.n]
        assert len(nontrivial) == 1
        # No two consecutive vertices form it, so the screen passes.
        assert not any(_is_module_mask(_out_rows(t), 4, 0b11 << x) for x in range(3))
        return sum(1 << u for u in nontrivial[0])

    def searches(self, pairs):
        rows = reversal_rows(4, pairs)
        return (
            _closure_mask(rows, self.GROUND, 0b0011),
            _refined_part(rows, self.GROUND, 0b0001),
            _refined_part(rows, self.GROUND, 0b0010),
        )

    def test_only_a_closure_finds_a_module_holding_v(self):
        # {0, 1, 2} holds v and w, so both refinements pass it by.
        assert self.only_module([(0, 2)]) == 0b0111
        assert self.searches([(0, 2)]) == (0b0111, 0, 0)

    def test_only_the_refinement_finds_a_module_avoiding_v(self):
        # {1, 2, 3} holds w, so the closure is everything and only the
        # refinement from v finds it.
        assert self.only_module([(1, 3)]) == 0b1110
        assert self.searches([(1, 3)]) == (self.GROUND, 0b1110, 0)

    def test_only_the_refinement_from_w_finds_a_module_avoiding_w(self):
        # {0, 3} holds v but not w.
        assert self.only_module([(0, 2), (1, 3)]) == 0b1001
        assert self.searches([(0, 2), (1, 3)]) == (self.GROUND, 0, 0b1001)

    def test_screen_reads_only_the_twin_rows(self):
        # Both ends lie in the support, so the end test reads the rows of 0
        # and 5 and passes.  0 and 1 are consecutive twins, so the screen
        # stops at their rows; they are v and w, so the closure of {v, w}
        # would find them too.
        read = []

        class Rows(list):
            def __getitem__(self, v):
                read.append(v)
                return super().__getitem__(v)

        rows = Rows(reversal_rows(6, [(0, 3), (1, 3), (2, 5)]))
        assert not is_indecomposable_rows(rows, 0b111111)
        assert read == [0, 5, 0, 1]
        assert _closure_mask(rows, 0b111111, 0b000011) == 0b000011

    def test_every_reversal_and_deletion_to_eight_points(self):
        # The exhaustive ground-mask test above stops at 4 vertices; every
        # reversed order to 8 points, whole and less one vertex, is checked
        # here against the all-pairs test.
        for n in range(3, 9):
            whole = (1 << n) - 1
            for kind in ("partial-pairing", "partial-quasi"):
                for family in enumerate_families(EnumSpec(n, kind)):
                    rows = reversal_rows(n, family.pairs)
                    for ground in (whole, *(whole ^ 1 << v for v in range(n))):
                        want = indecomposable_by_pairs(rows, ground)
                        assert is_indecomposable_rows(rows, ground) == want, (family, ground)


class TestModuleRows:
    """``module_rows`` hands back a nontrivial module, or 0 when the
    subscan finds only trivial ones."""

    def test_every_reversal_and_deletion_to_eight_points(self):
        only_trivial = {}
        for n in range(9):
            whole = (1 << n) - 1
            for kind in ("partial-pairing", "partial-quasi"):
                for family in enumerate_families(EnumSpec(n, kind)):
                    rows = reversal_rows(n, family.pairs)
                    for ground in (whole, *(whole ^ 1 << v for v in range(n))):
                        members = list(_mask_vertices(ground))
                        # The subtournament on the ground, relabeled by rank.
                        sub = Tournament(len(members), sum(
                            1 << k for k, (x, y) in enumerate(combinations(members, 2))
                            if rows[x] >> y & 1
                        ))
                        if sub not in only_trivial:
                            only_trivial[sub] = all(
                                len(m) < 2 or len(m) == sub.n for m in all_modules_bruteforce(sub)
                            )
                        module = module_rows(rows, ground)
                        assert (module == 0) == only_trivial[sub], (family, ground)
                        if module:
                            # Vertices off the ground, with empty rows, see every set alike.
                            inside = [r if ground >> v & 1 else 0 for v, r in enumerate(rows)]
                            assert _is_module_mask(inside, n, module), (family, ground)
                            assert not module & ~ground and 2 <= module.bit_count() < len(members)

    def test_drawn_reversals_and_deletions_from_nine_to_twelve_points(self):
        # Past the exhaustive range: seeded partial pairings and partial
        # quasi-pairings, the larger supports drawn more often, whole and
        # less one vertex, against the all-pairs test.
        rng = random.Random(18)
        for n in range(9, 13):
            whole = (1 << n) - 1
            verdicts = set()
            for quasi in (0, 1) * 200:
                low, high = 1 + quasi, (n + quasi) // 2
                size = max(rng.randint(low, high), rng.randint(low, high))
                ends = rng.sample(range(n), 2 * size - quasi)
                if quasi:  # the first two pairs share their first end, the hub
                    ends.insert(2, ends[0])
                pairs = [tuple(sorted(ends[i:i + 2])) for i in range(0, len(ends), 2)]
                rows = reversal_rows(n, pairs)
                for ground in (whole, *(whole ^ 1 << v for v in range(n))):
                    module = module_rows(rows, ground)
                    verdicts.add(module == 0)
                    assert (module == 0) == indecomposable_by_pairs(rows, ground), (n, pairs, ground)
                    if module:
                        inside = [r if ground >> v & 1 else 0 for v, r in enumerate(rows)]
                        assert _is_module_mask(inside, n, module), (n, pairs, ground)
                        assert not module & ~ground
                        assert 2 <= module.bit_count() < ground.bit_count()
            assert verdicts == {False, True}, n

    def test_module_of_each_stage(self):
        # The end test, at the least vertex, a source, and at the greatest, a sink.
        assert module_rows(reversal_rows(4, [(1, 3)]), 0b1111) == 0b1110
        assert module_rows(reversal_rows(4, [(0, 2)]), 0b1111) == 0b0111
        # With both ends in the support: the screen's twins, the closure of
        # {v, w}, then the refinement from v and from w, each the only one of
        # the four to find the module of its case.
        assert module_rows(reversal_rows(6, [(0, 3), (1, 3), (2, 5)]), 0b111111) == 0b000011
        assert module_rows(reversal_rows(4, [(0, 3), (2, 3)]), 0b1111) == 0b1011
        assert module_rows(reversal_rows(4, [(0, 2), (2, 3)]), 0b1111) == 0b1010
        assert module_rows(reversal_rows(4, [(0, 2), (1, 3)]), 0b1111) == 0b1001
        assert module_rows(reversal_rows(5, [(0, 2), (1, 4)]), 0b11111) == 0

    def test_screen_comes_before_the_closure(self):
        # Both ends lie in the support.  {3, 4} are twins, but {0, 1, 2} is
        # a 3-cycle, the closure of {v, w}: only the screen returns the twins.
        rows = reversal_rows(5, [(0, 2), (3, 4)])
        assert _closure_mask(rows, 0b11111, 0b00011) == 0b00111
        assert module_rows(rows, 0b11111) == 0b11000

    def test_an_end_vertex_leaves_the_rest_a_module(self):
        # Drawn tournaments, on the whole ground and less a drawn vertex: a
        # source planted at the least ground vertex, or a sink at the
        # greatest under a least vertex that is no source, and the rest of
        # the ground is the module returned.
        rng = random.Random(32)
        for _ in range(200):
            n = rng.randint(3, 12)
            drawn = _out_rows(Tournament(n, rng.getrandbits(pair_count(n))))
            whole = (1 << n) - 1
            for ground in (whole, whole ^ 1 << rng.randrange(n)):
                members = list(_mask_vertices(ground))
                if len(members) < 3:
                    continue
                for end in (members[0], members[-1]):
                    rows = list(drawn)
                    if end == members[-1]:  # the second ground vertex beats the least
                        rows[members[1]] |= 1 << members[0]
                        rows[members[0]] &= ~(1 << members[1])
                    for u in members:
                        if u != end:  # the least beats u, u beats the greatest
                            x, y = (end, u) if end == members[0] else (u, end)
                            rows[x] |= 1 << y
                            rows[y] &= ~(1 << x)
                    module = module_rows(rows, ground)
                    assert module == ground ^ 1 << end, (n, drawn, ground, end)
                    # Vertices off the ground, with empty rows, see every set alike.
                    inside = [r if ground >> v & 1 else 0 for v, r in enumerate(rows)]
                    assert _is_module_mask(inside, n, module), (n, drawn, ground, end)


class TestOnePassKernels:
    """``_closure_mask`` and ``_refined_part`` against the scans they
    replaced, which reread every outside vertex after each change."""

    def test_every_reversal_and_deletion_to_seven_points(self):
        for n in range(8):
            whole = (1 << n) - 1
            for kind in ("partial-pairing", "partial-quasi"):
                for family in enumerate_families(EnumSpec(n, kind)):
                    rows = reversal_rows(n, family.pairs)
                    for ground in (whole, *(whole ^ 1 << v for v in range(n))):
                        assert_kernels_match_rescans(rows, n, ground)


class TestEveryTournament:
    """``module_rows`` on every labelled tournament on 5 and 6 vertices,
    whole and, when indecomposable, less each vertex, against the all-pairs
    test; ``TestIndecomposable::test_agrees_with_bruteforce`` checks the
    5-vertex ones against the subset scan.  A critical tournament is
    indecomposable, with T - x decomposable for every x."""

    @pytest.mark.parametrize("n, indecomposable, critical", [(5, 264, 264), (6, 10320, 0)])
    def test_indecomposable_and_critical_counts(self, n, indecomposable, critical):
        whole = (1 << n) - 1
        found = []
        for bits in range(1 << pair_count(n)):
            rows = _out_rows(Tournament(n, bits))
            verdict = not module_rows(rows, whole)
            assert verdict == indecomposable_by_pairs(rows, whole), bits
            if verdict:
                less = [not module_rows(rows, whole ^ 1 << x) for x in range(n)]
                assert less == [indecomposable_by_pairs(rows, whole ^ 1 << x) for x in range(n)]
                found.append(not any(less))
        # No tournament on 4 vertices is indecomposable, so on 5 every
        # indecomposable one is critical; critical tournaments have odd order.
        assert (len(found), sum(found)) == (indecomposable, critical)


class TestPairDeletion:
    """The graph layer against Schmerl and Trotter's theorems on critically
    indecomposable structures (Discrete Math. 113, 1993), over the reversed
    orders T(n, F) of every partial pairing and partial quasi-pairing.  Each
    deletion is judged by the all-pairs test, not by ``module_rows``."""

    @staticmethod
    def indecomposable(n):
        """(pairs, rows) of each T(n, F) that ``is_indecomposable_rows`` finds
        indecomposable, which the all-pairs test must confirm."""
        whole = (1 << n) - 1
        found = []
        for kind in ("partial-pairing", "partial-quasi"):
            for family in enumerate_families(EnumSpec(n, kind)):
                rows = reversal_rows(n, family.pairs)
                if is_indecomposable_rows(rows, whole):
                    assert indecomposable_by_pairs(rows, whole), family
                    found.append((family.serialize(), rows))
        return found

    @pytest.mark.parametrize("n, count", [(7, 167), (8, 647), (9, 2707)])
    def test_two_vertices_leave_an_indecomposable_tournament(self, n, count):
        # On at least 7 vertices, some T - {x, y} with x != y is indecomposable.
        whole = (1 << n) - 1
        found = self.indecomposable(n)
        assert len(found) == count
        for pairs, rows in found:
            assert any(
                indecomposable_by_pairs(rows, whole ^ 1 << x ^ 1 << y)
                for x, y in combinations(range(n), 2)
            ), pairs

    @pytest.mark.parametrize("n", range(5, 10))
    def test_critical_reversals(self, n):
        # Critical: indecomposable, and T - x decomposable for every vertex x.
        whole = (1 << n) - 1
        found = self.indecomposable(n)
        critical = [
            pairs for pairs, rows in found
            if not any(indecomposable_by_pairs(rows, whole ^ 1 << x) for x in range(n))
        ]
        # No tournament on 4 vertices is indecomposable, so at n = 5 every one is critical.
        want = {5: [pairs for pairs, _ in found], 7: ["0-2,1-4,1-6", "0-5,2-5,4-6", "0-3,2-4,3-6"]}
        assert found and sorted(critical) == sorted(want.get(n, []))


class TestAllModulesBruteforce:
    def test_chain3_listing(self):
        got = all_modules_bruteforce(transitive(3))
        assert got == [
            frozenset(),
            frozenset({0}),
            frozenset({1}),
            frozenset({2}),
            frozenset({0, 1}),
            frozenset({1, 2}),
            frozenset({0, 1, 2}),
        ]

    def test_cycle3_only_trivial(self):
        got = set(all_modules_bruteforce(cycle3()))
        assert got == {frozenset(), frozenset({0}), frozenset({1}), frozenset({2}),
                       frozenset({0, 1, 2})}

    def test_two_vertices_all_subsets(self):
        assert len(all_modules_bruteforce(transitive(2))) == 4

    def test_guard(self, monkeypatch):
        with pytest.raises(GuardError):
            all_modules_bruteforce(transitive(21))
        monkeypatch.setattr("revtour.core.SUBSET_SCAN_LIMIT", 4)
        with pytest.raises(GuardError, match="n <= 4, got 5"):
            all_modules_bruteforce(transitive(5))


class TestIsomorphism:
    def test_chain_and_its_dual(self):
        assert canonical_form(transitive(3)) == canonical_form(dual(transitive(3)))

    def test_cycle_differs_from_chain(self):
        assert canonical_form(cycle3()) != canonical_form(transitive(3))

    def test_relabel_preserves_class(self):
        t = cycle3()
        assert is_isomorphic(t, relabel(t, (2, 0, 1)))
        assert is_isomorphic(t, relabel(t, (1, 0, 2)))

    def test_reversing_adjacent_pair_keeps_chain(self):
        # Swapping the two smallest elements of a chain yields another chain.
        assert is_isomorphic(transitive(4), reverse_pairs(transitive(4), [(0, 1)]))

    def test_reversing_distant_pair_leaves_chain_class(self):
        t = reverse_pairs(transitive(4), [(0, 2)])
        scores = sorted(sum(t.arc(x, y) for y in range(4) if y != x) for x in range(4))
        assert scores != [0, 1, 2, 3]
        assert not is_isomorphic(transitive(4), t)

    def test_twelve_classes_of_five_vertex_tournaments(self):
        forms = {canonical_form(Tournament(5, bits)) for bits in range(1 << 10)}
        assert len(forms) == 12

    def test_different_sizes_never_isomorphic(self):
        assert not is_isomorphic(transitive(3), transitive(4))

    def test_no_size_guard(self):
        # Canonical labeling takes no size limit: the enumeration guard
        # bounds the census, which is its only exhaustive caller.
        assert is_isomorphic(transitive(10), transitive(10))
        assert canonical_form(transitive(10)) == "0" * 45

    def test_relabel_rejects_non_permutation(self):
        with pytest.raises(ValueError):
            relabel(transitive(3), (0, 0, 2))


class TestTextFormat:
    def test_exact_serialization(self):
        assert transitive(3).to_text() == "3\n111\n"
        assert witness5().to_text() == "5\n1011110111\n"

    def test_round_trip(self):
        for t in (transitive(0), transitive(1), cycle3(), witness5()):
            assert Tournament.from_text(t.to_text()) == t

    def test_empty_row_for_tiny_sizes(self):
        assert Tournament.from_text("1\n\n") == transitive(1)
        assert Tournament.from_text("0\n") == transitive(0)

    def test_bad_inputs(self):
        for text in (
            "", "x\n101\n", "3\n11\n", "3\n112\n", "-1\n\n", "+3\n111\n", " 0_3 \n111\n",
            "3\n111\n3\n000\n", "1\n\nx\n",
        ):
            with pytest.raises(ValueError):
                Tournament.from_text(text)


class TestDotExport:
    def test_cycle3(self):
        dot = cycle3().to_dot()
        assert dot.startswith("digraph tournament {")
        assert "  0 -> 1;" in dot and "  1 -> 2;" in dot and "  2 -> 0;" in dot
        assert dot.rstrip().endswith("}")

    def test_singleton_lists_vertex(self):
        assert "  0;" in transitive(1).to_dot()
