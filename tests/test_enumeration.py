"""Generators, counters, and the indecomposable census."""

import pickle
import tracemalloc
from functools import reduce
from math import comb
from operator import or_

import pytest

import revtour.enumeration
import revtour.pairs
from revtour import (
    EnumSpec,
    GuardError,
    Pairing,
    QuasiPairing,
    canonical_form,
    classify,
    census,
    components,
    count_irreducible_pairings,
    enumerate_families,
    indecomposable_census,
    is_indecomposable,
    is_irreducible_pairing,
    reverse_pairs,
    transitive,
)
from revtour.enumeration import KINDS, _family_tuples, _pair_walk
from revtour.pairs import mirror_pairs

from oracles import (
    all_partial_pairings,
    all_quasi_pairings,
    involution_count,
    naive_is_irreducible,
    pair_walk_by_counts,
    pair_walk_generator,
    partial_quasi_count,
    quasi_pairing_count,
    sweep_by_prefix_sums,
)
from test_theorems import optimized_stdout


def collect(n, kind, **kwargs):
    return list(enumerate_families(EnumSpec(n, kind, **kwargs)))


# OEIS A000699, the connected chord diagrams on 2k points:
# a(1) = 1, a(k) = (k - 1) * sum(a(i) * a(k - i), 0 < i < k).
A000699 = [0, 1]
for _k in range(2, 8):
    A000699.append((_k - 1) * sum(A000699[i] * A000699[_k - i] for i in range(1, _k)))


class TestEnumSpec:
    def test_vocabulary_is_closed(self):
        with pytest.raises(ValueError):
            EnumSpec(5, "matching")
        with pytest.raises(ValueError):
            EnumSpec(5, "pairing", "smallest-only")
        with pytest.raises(ValueError):
            EnumSpec(-1, "pairing")


class TestCounts:
    def test_full_pairings_of_four(self):
        fams = collect(4, "pairing")
        assert len(fams) == 3
        assert {f.pairs for f in fams} == {
            ((0, 1), (2, 3)),
            ((0, 2), (1, 3)),
            ((0, 3), (1, 2)),
        }

    def test_odd_ground_set_has_no_full_pairing(self):
        assert collect(5, "pairing") == []

    def test_partial_pairings_count_involutions(self):
        for n in range(0, 9):
            fams = collect(n, "partial-pairing", include_empty=True)
            assert len(fams) == involution_count(n)

    def test_empty_family_excluded_by_default(self):
        fams = collect(4, "partial-pairing")
        assert len(fams) == involution_count(4) - 1
        assert all(f.pairs for f in fams)

    def test_quasi_pairings_of_three(self):
        fams = collect(3, "quasi")
        assert {f.pairs for f in fams} == {
            ((0, 1), (0, 2)),
            ((0, 1), (1, 2)),
            ((0, 2), (1, 2)),
        }

    def test_quasi_counts_match_formula(self):
        for s in (3, 5, 7):
            assert len(collect(s, "quasi")) == quasi_pairing_count(s)

    def test_even_ground_set_has_no_full_quasi(self):
        assert collect(6, "quasi") == []

    def test_partial_quasi_counts_match_formula(self):
        for n in range(3, 9):
            assert len(collect(n, "partial-quasi")) == partial_quasi_count(n)


class TestStreamShape:
    def test_lexicographic_and_distinct(self):
        for n, kind in ((6, "partial-pairing"), (6, "partial-quasi"), (7, "quasi")):
            seqs = [f.pairs for f in collect(n, kind)]
            assert seqs == sorted(seqs)
            assert len(seqs) == len(set(seqs))

    def test_matches_naive_partial_pairings(self):
        got = {f.pairs for f in collect(5, "partial-pairing", include_empty=True)}
        want = set(all_partial_pairings(range(5)))
        assert got == want

    def test_matches_naive_quasi_pairings(self):
        got = {f.pairs for f in collect(5, "quasi")}
        want = set(all_quasi_pairings(range(5)))
        assert got == want

    @pytest.mark.parametrize("kind", KINDS)
    def test_mask_walk_is_the_count_walk(self, kind):
        for n in range(11):
            spec = EnumSpec(n, kind)
            args = (n, int(spec.is_quasi), not spec.is_partial)
            walk = list(_pair_walk(*args))
            assert [pairs for pairs, _, _ in walk] == list(pair_walk_by_counts(*args)), n
            # Each family comes with its support and the vertex in two pairs.
            for pairs, mask, hub in walk:
                assert mask == reduce(or_, (1 << x | 1 << y for x, y in pairs))
                twice = [v for v in range(n) if sum(v in p for p in pairs) == 2]
                assert [hub] == (twice or [-1])

    def test_families_are_typed(self):
        assert all(isinstance(f, Pairing) for f in collect(4, "partial-pairing"))
        assert all(isinstance(f, QuasiPairing) for f in collect(5, "partial-quasi"))

    def test_guards(self):
        with pytest.raises(GuardError):
            collect(13, "partial-quasi")
        with pytest.raises(GuardError):
            collect(15, "pairing")
        with pytest.raises(GuardError):
            list(enumerate_families(EnumSpec(8, "partial-pairing"), max_n=7))


def shard_pairs(spec, shard):
    """The pair tuples of the families in ``shard`` (i, k) of the spec's walk."""
    return [pairs for pairs, *_ in _family_tuples(spec, shard)]


class TestShards:
    """Shard (i, k) deals the walk's one-pair families and depth-two
    subtrees round-robin, so the k shards partition the stream."""

    @pytest.mark.parametrize("include_empty", [False, True])
    @pytest.mark.parametrize("kind", KINDS)
    def test_shards_partition_the_stream(self, kind, include_empty):
        for n in range(11):
            spec = EnumSpec(n, kind, include_empty=include_empty)
            stream = [f.pairs for f in enumerate_families(spec)]
            for k in range(1, 5):
                shards = [shard_pairs(spec, (i, k)) for i in range(k)]
                dealt = [pairs for shard in shards for pairs in shard]
                # Disjoint, together the stream, and each in the stream's order.
                assert len(set(dealt)) == len(dealt), (n, k)
                assert sorted(dealt) == stream, (n, k)
                assert all(shard == sorted(shard) for shard in shards), (n, k)
                # Shard (0, 1) is the stream itself.
                assert k > 1 or shards == [stream]

    def test_every_shard_gets_work(self):
        spec = EnumSpec(9, "partial-quasi")
        sizes = [len(shard_pairs(spec, (i, 4))) for i in range(4)]
        assert sum(sizes) == 19152 and min(sizes) > 19152 // 5

    # Regression pin: the per-shard sizes of the pruned walks, as dealt when
    # a pruned node takes no ordinal.  Any dealing partitions the stream, so
    # only these sizes show a change in the balance of the shards.
    @pytest.mark.parametrize("spec, sizes", [
        (EnumSpec(12, "pairing", "irreducible-only"), {2: [1398, 1432], 3: [938, 938, 954]}),
        (EnumSpec(9, "partial-quasi", "irreducible-only"),
         {2: [4025, 4048], 3: [2563, 2708, 2802]}),
    ])
    def test_pruned_shard_sizes(self, spec, sizes):
        for k, pinned in sizes.items():
            got = [len(shard_pairs(spec, (i, k))) for i in range(k)]
            assert got == pinned, k

    @pytest.mark.parametrize("shard", [(1, 1), (-1, 2), (0, 0), (2, 2)])
    def test_bad_shard(self, shard):
        with pytest.raises(ValueError, match="0 <= i < k"):
            _family_tuples(EnumSpec(5, "partial-pairing"), shard)


class TestWalkBuiltFamilies:
    """Families from the walk are built unvalidated, so they are checked
    against the families that the validating constructors build."""

    @pytest.mark.parametrize("kind", KINDS)
    def test_equal_to_validated_families(self, kind):
        for n in range(11):
            for family in collect(n, kind):
                built = type(family)(family.n, family.pairs)
                assert family == built
                # The walk and the constructor each fold the pairs into mask and hub.
                assert vars(family) == vars(built)
                assert classify(family) == classify(built)
                if n >= 3:
                    assert family.transversal == built.transversal
                assert components(family) == components(built)

    def test_walk_never_normalizes(self, monkeypatch):
        calls = []
        real = revtour.pairs._normalize
        monkeypatch.setattr(
            "revtour.pairs._normalize", lambda *args: calls.append(args) or real(*args)
        )
        built = sum(len(collect(n, kind, include_empty=True)) for n in (7, 8) for kind in KINDS)
        assert built > 0 and calls == []
        # A family built by hand still goes through it.
        Pairing(4, [(1, 0)])
        assert calls == [(4, [(1, 0)])]

    def test_broken_size_rule_is_an_invariant(self):
        with pytest.raises(RuntimeError, match="n=4, pairs '0-1,1-2': pairs of a pairing"):
            Pairing._from_walk(4, ((0, 1), (1, 2)), 0b111, 1)
        with pytest.raises(RuntimeError, match="n=4, pairs '0-1,2-3': a quasi-pairing"):
            QuasiPairing._from_walk(4, ((0, 1), (2, 3)), 0b1111, -1)

    def test_broken_size_rule_raises_under_optimize(self):
        out = optimized_stdout("""
            import sys
            from revtour import Pairing
            try:
                Pairing._from_walk(4, ((0, 1), (1, 2)), 0b111, 1)
            except RuntimeError as exc:
                print(sys.flags.optimize, exc)
        """)
        assert out.startswith("1 invariant broken at n=4, pairs '0-1,1-2'")

    def test_pickle_round_trip(self):
        # A forked verify shard sends its filed families back this way.
        for family in collect(6, "pairing") + collect(7, "partial-quasi"):
            copy = pickle.loads(pickle.dumps(family))
            assert type(copy) is type(family)
            assert vars(copy) == vars(family)
            assert {"mask", "_hub"} <= vars(copy).keys()
            assert components(copy) == components(family)


class TestFilters:
    def test_irreducible_only_is_a_subset(self):
        spec_all = EnumSpec(6, "pairing")
        spec_irr = EnumSpec(6, "pairing", "irreducible-only")
        everything = list(enumerate_families(spec_all))
        kept = list(enumerate_families(spec_irr))
        assert [f for f in everything if is_irreducible_pairing(f)] == kept

    def test_filters_coincide_on_full_even_ground_sets(self):
        # For full pairings of even size >= 6 the irreducibility filter
        # keeps exactly the families whose reversal is indecomposable.
        for m in (6, 8):
            irreducible = collect(m, "pairing", filter="irreducible-only")
            indecomposable = [
                f for f in collect(m, "pairing")
                if is_indecomposable(reverse_pairs(transitive(m), f))
            ]
            assert irreducible == indecomposable


class TestPrunedWalk:
    """Every walk decides irreducibility by its cuts, a quasi walk from the
    node that places its hub on, so every ``irreducible-only`` stream is
    checked against the prefix-sum sweep that the cut rule replaced."""

    @staticmethod
    def streams(kind, top):
        for n in range(top + 1):
            for include_empty in (False, True):
                yield EnumSpec(n, kind, "irreducible-only", include_empty=include_empty)

    TOPS = [("pairing", 12), ("partial-pairing", 11), ("quasi", 10), ("partial-quasi", 10)]

    @pytest.mark.parametrize("kind, top", TOPS)
    def test_equal_to_the_swept_stream(self, kind, top):
        for spec in self.streams(kind, top):
            every = enumerate_families(EnumSpec(spec.n, kind, "all", spec.include_empty))
            swept = [
                f.pairs for f in every
                if sweep_by_prefix_sums(components(f) if spec.is_quasi else f.pairs)
            ]
            assert [f.pairs for f in enumerate_families(spec)] == swept, spec

    @pytest.mark.parametrize("kind, top", TOPS)
    def test_shards_partition_the_pruned_stream(self, kind, top):
        for spec in self.streams(kind, top):
            if spec.is_quasi and spec.include_empty:
                continue  # the same stream as without: no quasi-pairing is empty
            stream = [f.pairs for f in enumerate_families(spec)]
            for k in range(1, 5):
                shards = [shard_pairs(spec, (i, k)) for i in range(k)]
                dealt = [pairs for shard in shards for pairs in shard]
                assert len(dealt) == len(set(dealt)) and sorted(dealt) == stream, (spec, k)
                assert all(shard == sorted(shard) for shard in shards), (spec, k)

    def test_only_built_quasi_families_are_judged(self, monkeypatch):
        # Since the quasi walks prune too, no built family is judged at all.
        calls = {"pairing": 0, "quasi": 0}
        for name in calls:
            judge = getattr(revtour.enumeration, f"is_irreducible_{name}")

            def counted(family, name=name, judge=judge):
                calls[name] += 1
                return judge(family)

            monkeypatch.setattr(f"revtour.enumeration.is_irreducible_{name}", counted)
        kept = {
            kind: len(collect(8, kind, filter="irreducible-only", include_empty=True))
            for kind in ("pairing", "partial-pairing")
        }
        # Irreducibility depends only on the support's order: C(8, 2k) supports of a(k) each.
        partial = 1 + sum(comb(8, 2 * k) * A000699[k] for k in range(1, 5))
        assert kept == {"pairing": 27, "partial-pairing": partial}
        assert len(collect(7, "partial-quasi", filter="irreducible-only")) > 0
        assert len(collect(9, "quasi", filter="irreducible-only")) > 0
        assert calls == {"pairing": 0, "quasi": 0}

    def test_unfiltered_walk_computes_no_cut(self, monkeypatch):
        calls = []
        real = revtour.pairs._cuts
        for module in (revtour.enumeration, revtour.pairs):
            monkeypatch.setattr(
                module, "_cuts", lambda *args, **kwargs: calls.append(args) or real(*args, **kwargs)
            )
        built = sum(1 for _ in enumerate_families(EnumSpec(7, "partial-quasi")))
        assert built == partial_quasi_count(7) and calls == []
        # The same count sees the pruned walk's cuts.
        assert collect(7, "partial-quasi", filter="irreducible-only") and calls


class TestDrainedWalk:
    """The walk is one plain recursion drained a depth-two subtree at a time,
    so its streams are checked against the generator walk it replaced."""

    @pytest.mark.parametrize("irreducible", [False, True])
    @pytest.mark.parametrize("kind", KINDS)
    def test_equal_to_the_generator_walk(self, kind, irreducible):
        # Full quasi-pairings stop at 9 points: the 51,975 of 11, dealt four
        # ways and walked twice, would take 15 s.
        spec = EnumSpec(0, kind)
        doubled, full_support = int(spec.is_quasi), not spec.is_partial
        for n in range(13 if kind == "pairing" else 10):
            for k in range(1, 5):
                for i in range(k):
                    args = (n, doubled, full_support, (i, k), irreducible)
                    assert list(_pair_walk(*args)) == list(pair_walk_generator(*args)), args
        if spec.is_partial:
            args = (10, doubled, full_support, (0, 1), irreducible)
            assert list(_pair_walk(*args)) == list(pair_walk_generator(*args)), args

    def test_a_consumer_holds_one_subtree(self):
        # Held at once, the 83,520 tuples of n = 10 take about 20 MB, and
        # the largest one-pair subtree about 1.9 MB.  The largest depth-two
        # subtree holds 708 families, and the drained walk peaks near 0.25 MB.
        tracemalloc.start()
        try:
            drained = sum(1 for _ in _family_tuples(EnumSpec(10, "partial-quasi")))
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert drained == 83520 and peak < 1 << 20, peak


class TestLeadWalk:
    """With ``leads`` the walk drops only families whose mirror image it
    meets first; ``_orbit_lead`` settles the rest in ``test_theorems``."""

    # Walk sizes with ``leads``; a walk that filtered its families after
    # building them, or gave a kept subtree every vertex, would yield the same
    # orbits but not these sizes.
    LEADS = {
        "pairing": {10: 585, 12: 6195},
        "partial-pairing": {9: 1710, 10: 5813},
        "quasi": {9: 2280},
        "partial-quasi": {9: 10976, 10: 47274},
    }

    @pytest.mark.parametrize("irreducible", [False, True])
    @pytest.mark.parametrize("kind", KINDS)
    def test_drops_only_families_after_their_image(self, kind, irreducible):
        for n in range(13 if kind == "pairing" else 11):
            spec = EnumSpec(n, kind, "irreducible-only" if irreducible else "all")
            plain = [pairs for pairs, *_ in _family_tuples(spec)]
            leads = [pairs for pairs, *_ in _family_tuples(spec, leads=True)]
            rest = iter(plain)
            # A subsequence of the plain stream, in its order.
            assert all(pairs in rest for pairs in leads), n
            kept = set(leads)
            assert all(mirror_pairs(n, pairs) < pairs for pairs in plain if pairs not in kept), n
            if not irreducible and n in self.LEADS[kind]:
                assert len(leads) == self.LEADS[kind][n], n


class TestIrreducibleCounts:
    def test_frozen_values(self):
        # Computed by the exhaustive scan and confirmed by the naive oracle
        # below; 1, 1, 4, 27 continues as 248, 2830, ...
        assert count_irreducible_pairings(2) == 1
        assert count_irreducible_pairings(4) == 1
        assert count_irreducible_pairings(6) == 4
        assert count_irreducible_pairings(8) == 27
        # Irreducible pairings of 2k points are the connected chord diagrams, A000699.
        assert A000699[5:] == [248, 2830, 38232]
        assert count_irreducible_pairings(10) == A000699[5]
        assert count_irreducible_pairings(12) == A000699[6]
        assert count_irreducible_pairings(14) == A000699[7]

    def test_closed_count_of_transversal_ones(self):
        # An irreducible transversal partial pairing of 0..n-1 is a support
        # holding 0 and n-1 and missing j interior vertices, no two of them
        # consecutive, with an irreducible pairing of its n - j points:
        # I1(n) = sum over j with n - j even of C(n-1-j, j) * a((n - j) / 2).
        closed = {
            n: sum(comb(n - 1 - j, j) * A000699[(n - j) // 2] for j in range(n % 2, n, 2))
            for n in range(5, 12)
        }
        assert list(closed.values()) == [3, 7, 21, 67, 229, 835, 3181]
        for n, count in closed.items():
            kept = collect(n, "partial-pairing", filter="irreducible-only")
            assert sum(f.transversal for f in kept) == count, n

    def test_against_naive_oracle(self):
        from oracles import all_matchings

        for m in (2, 4, 6, 8):
            naive = sum(
                naive_is_irreducible(range(m), matching)
                for matching in all_matchings(range(m))
            )
            assert count_irreducible_pairings(m) == naive

    def test_empty_ground_set(self):
        assert count_irreducible_pairings(0) == 1

    def test_errors(self):
        with pytest.raises(ValueError):
            count_irreducible_pairings(5)
        with pytest.raises(GuardError):
            count_irreducible_pairings(16)
        with pytest.raises(GuardError, match="allows n <= 8, got 10"):
            count_irreducible_pairings(10, max_m=8)


class TestCensus:
    def test_four_vertices_yield_nothing(self):
        for kind in ("pairing", "partial-pairing", "quasi", "partial-quasi"):
            assert indecomposable_census(EnumSpec(4, kind)) == []

    def test_partial_quasi_census_at_five(self):
        records = indecomposable_census(EnumSpec(5, "partial-quasi"))
        assert len(records) == 11
        by_class = {}
        for record in records:
            by_class.setdefault(record.class_id, []).append(record)
        assert sorted(len(v) for v in by_class.values()) == [4, 7]
        witness = reverse_pairs(transitive(5), [(0, 2), (1, 4)])
        witness_key = canonical_form(witness)
        keys = {canonical_form(r.tournament) for r in records}
        assert witness_key in keys and len(keys) == 2
        # No censused tournament is a chain.
        assert canonical_form(transitive(5)) not in keys

    def test_partial_pairing_census_regressions(self):
        # Frozen from the exhaustive scan; the class split at n=5 is the
        # witness class twice plus one more class.
        five = indecomposable_census(EnumSpec(5, "partial-pairing"))
        assert len(five) == 3
        assert sorted(r.class_id for r in five) == [0, 0, 1]
        six = indecomposable_census(EnumSpec(6, "partial-pairing"))
        assert len(six) == 7
        assert len({r.class_id for r in six}) == 6

    def test_census_records_all_families(self):
        records = list(census(EnumSpec(5, "partial-quasi")))
        assert len(records) == 60
        assert sum(r.indecomposable for r in records) == 11
        for record in records:
            assert record.indecomposable == (record.class_id is not None)

    def test_census_irreducibility_flags(self):
        for record in census(EnumSpec(6, "pairing")):
            assert record.irreducible == is_irreducible_pairing(record.family)

    def test_distinct_families_give_distinct_tournaments(self, monkeypatch):
        # The check raises RuntimeError, so it also holds under python -O.
        monkeypatch.setattr("revtour.enumeration._pair_bits", lambda n, pairs: 0)
        with pytest.raises(RuntimeError, match="n=5, pairs '0-1,0-2,3-4'"):
            list(census(EnumSpec(5, "partial-quasi")))

    def test_census_streams(self):
        # The first record comes at once, before the other 1,729,199 partial
        # quasi-pairings of 12 points are enumerated.
        record = next(iter(census(EnumSpec(12, "partial-quasi"))))
        assert record.family.pairs == ((0, 1), (0, 2)) and record.class_id is None

    def test_enumeration_guard_bounds_the_census(self):
        with pytest.raises(GuardError, match="allows n <= 12, got 13"):
            next(iter(census(EnumSpec(13, "partial-quasi"))))
        with pytest.raises(GuardError, match="allows n <= 9, got 10"):
            next(iter(census(EnumSpec(10, "pairing"), max_n=9)))

    def test_class_ids_beyond_nine_vertices(self):
        # Corollary 1: the 248 irreducible pairings of 10 points are the
        # indecomposable ones, and each gets a class id.
        records = indecomposable_census(EnumSpec(10, "pairing"))
        assert len(records) == 248
        assert all(r.irreducible and r.class_id is not None for r in records)
