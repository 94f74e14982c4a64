"""Generators, counters, and the indecomposable census."""

import pytest

from revtour import (
    EnumSpec,
    GuardError,
    Pairing,
    QuasiPairing,
    all_modules_bruteforce,
    canonical_form,
    census,
    count_irreducible_pairings,
    enumerate_families,
    indecomposable_census,
    is_irreducible_pairing,
    reverse_pairs,
    transitive,
)

from oracles import (
    all_partial_pairings,
    all_quasi_pairings,
    involution_count,
    naive_is_irreducible,
    partial_quasi_count,
    quasi_pairing_count,
)


def collect(n, kind, **kwargs):
    return list(enumerate_families(EnumSpec(n, kind, **kwargs)))


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


class TestFilters:
    def test_irreducible_only_is_a_subset(self):
        spec_all = EnumSpec(6, "pairing")
        spec_irr = EnumSpec(6, "pairing", "irreducible-only")
        everything = list(enumerate_families(spec_all))
        kept = list(enumerate_families(spec_irr))
        assert [f for f in everything if is_irreducible_pairing(f)] == kept

    def test_reversal_filter_matches_direct_check(self):
        spec = EnumSpec(5, "partial-quasi", "indecomposable-inv-only")
        got = {f.pairs for f in enumerate_families(spec)}
        want = {
            f.pairs
            for f in collect(5, "partial-quasi")
            if not any(
                2 <= len(m) <= 4
                for m in all_modules_bruteforce(reverse_pairs(transitive(5), f))
            )
        }
        assert got == want

    def test_filters_coincide_on_full_even_ground_sets(self):
        # For full pairings of even size >= 6 the two filters select the
        # same families.
        for m in (6, 8):
            irreducible = collect(m, "pairing", filter="irreducible-only")
            indecomposable = collect(m, "pairing", filter="indecomposable-inv-only")
            assert irreducible == indecomposable


class TestIrreducibleCounts:
    def test_frozen_values(self):
        # Computed by the exhaustive scan and confirmed by the naive oracle
        # below; 1, 1, 4, 27 continues as 248, 2830, ...
        assert count_irreducible_pairings(2) == 1
        assert count_irreducible_pairings(4) == 1
        assert count_irreducible_pairings(6) == 4
        assert count_irreducible_pairings(8) == 27

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
        records = census(EnumSpec(5, "partial-quasi"))
        assert len(records) == 60
        assert sum(r.indecomposable for r in records) == 11
        for record in records:
            assert record.indecomposable == (record.class_id is not None)

    def test_census_irreducibility_flags(self):
        for record in census(EnumSpec(6, "pairing")):
            assert record.irreducible == is_irreducible_pairing(record.family)

    def test_distinct_families_give_distinct_tournaments(self, monkeypatch):
        # The check raises RuntimeError, so it also holds under python -O.
        monkeypatch.setattr("revtour.enumeration.reverse_pairs", lambda base, family: base)
        with pytest.raises(RuntimeError, match="n=5, pairs '0-1,0-2,3-4'"):
            census(EnumSpec(5, "partial-quasi"))
