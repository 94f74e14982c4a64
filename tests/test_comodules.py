"""Co-modules, the total-order formulas, transversals."""

import pytest

from revtour import (
    ComoduleFamily,
    GuardError,
    PairFamily,
    comodular_index_total_order,
    indecomposable_implies_transversal,
    is_comodule,
    is_transversal,
    max_comodular_decomposition_bruteforce,
    minimal_comodules_bruteforce,
    minimal_comodules_total_order,
    reverse_pairs,
    transitive,
)
from revtour.pairs import is_order_transversal


def cycle3():
    return reverse_pairs(transitive(3), [(0, 2)])


class TestComoduleFamily:
    def test_members_normalize(self):
        fam = ComoduleFamily(5, ((4,), (2, 1), (0,)))
        assert fam.members == ((0,), (1, 2), (4,))
        assert len(fam) == 3

    def test_serialize(self):
        fam = ComoduleFamily(5, ((0,), (4,), (1, 2), (2, 3)))
        assert fam.serialize() == "{0};{1,2};{2,3};{4}"

    def test_validation(self):
        with pytest.raises(ValueError):
            ComoduleFamily(3, ((0, 3),))
        with pytest.raises(ValueError):
            ComoduleFamily(3, ((),))


class TestIsComodule:
    def test_endpoint_of_chain(self):
        # The complement of {0} is a nontrivial interval.
        assert is_comodule(transitive(5), {0})

    def test_split_pair_is_not(self):
        assert not is_comodule(transitive(5), {1, 3})

    def test_indecomposable_has_none(self):
        t = cycle3()
        for mask in range(1 << 3):
            members = {v for v in range(3) if mask >> v & 1}
            assert not is_comodule(t, members)


class TestTotalOrderFormulas:
    def test_minimal_comodules_examples(self):
        assert set(minimal_comodules_total_order(5)) == {(0,), (4,), (1, 2), (2, 3)}
        assert set(minimal_comodules_total_order(3)) == {(0,), (2,)}
        assert set(minimal_comodules_total_order(6)) == {
            (0,), (5,), (1, 2), (2, 3), (3, 4),
        }

    def test_index_examples(self):
        assert comodular_index_total_order(5) == 3
        assert comodular_index_total_order(6) == 4
        assert comodular_index_total_order(3) == 2

    def test_small_sizes_rejected(self):
        with pytest.raises(ValueError):
            minimal_comodules_total_order(2)
        with pytest.raises(ValueError):
            comodular_index_total_order(2)

    def test_formula_matches_bruteforce(self):
        for n in range(3, 9):
            assert (
                minimal_comodules_total_order(n).members
                == minimal_comodules_bruteforce(transitive(n)).members
            )

    def test_index_matches_bruteforce(self):
        for n in range(3, 8):
            got = max_comodular_decomposition_bruteforce(transitive(n))
            assert len(got) == comodular_index_total_order(n)


class TestBruteforce:
    def test_cycle_has_no_comodules(self):
        assert minimal_comodules_bruteforce(cycle3()).members == ()
        assert max_comodular_decomposition_bruteforce(cycle3()).members == ()

    def test_minimality_recheck(self):
        t = transitive(7)
        fam = minimal_comodules_bruteforce(t)
        members = [set(m) for m in fam]
        for m in members:
            assert is_comodule(t, m)
            for other in members:
                assert other == m or not other < m

    def test_decomposition_members_disjoint_comodules(self):
        t = transitive(7)
        fam = max_comodular_decomposition_bruteforce(t)
        seen = set()
        for member in fam:
            assert is_comodule(t, member)
            assert not seen & set(member)
            seen |= set(member)

    def test_guards(self):
        with pytest.raises(GuardError):
            minimal_comodules_bruteforce(transitive(15))
        with pytest.raises(GuardError):
            max_comodular_decomposition_bruteforce(transitive(10))


class TestTransversal:
    def test_examples(self):
        mc5 = minimal_comodules_total_order(5)
        assert is_transversal({0, 1, 2, 4}, mc5)
        assert not is_transversal({0, 4}, mc5)

    def test_empty_family_vacuous(self):
        assert is_transversal({3}, ComoduleFamily(5, ()))
        assert is_transversal(set(), [])


class TestOrderTransversal:
    def test_mask_test_equals_the_comodule_test(self):
        for n in range(3, 11):
            comodules = minimal_comodules_total_order(n)
            for mask in range(1 << n):
                support = [v for v in range(n) if mask >> v & 1]
                assert is_order_transversal(n, mask) == is_transversal(support, comodules), (n, mask)

    def test_needs_three_vertices(self):
        for n in (0, 1, 2):
            with pytest.raises(ValueError, match="needs n >= 3, got"):
                is_order_transversal(n, (1 << n) - 1)

    def test_family_transversal_reads_the_support(self):
        assert PairFamily(5, [(0, 2), (1, 4)]).transversal
        assert not PairFamily(5, [(0, 2), (1, 3)]).transversal
        assert not PairFamily(5, [(1, 4), (2, 3)]).transversal


class TestTransversalImplication:
    def test_indecomposable_witness(self):
        assert indecomposable_implies_transversal(5, PairFamily(5, [(0, 2), (1, 4)]))

    def test_vacuous_when_decomposable(self):
        assert indecomposable_implies_transversal(5, PairFamily(5, [(0, 4)]))

    def test_exhaustive_small(self):
        from revtour import EnumSpec, enumerate_families

        for fam in enumerate_families(EnumSpec(6, "partial-pairing")):
            assert indecomposable_implies_transversal(6, fam)

    def test_tiny_sizes(self):
        assert indecomposable_implies_transversal(1, PairFamily(1, []))
        assert indecomposable_implies_transversal(2, PairFamily(2, [(0, 1)]))
        with pytest.raises(ValueError):
            indecomposable_implies_transversal(0, PairFamily(0, []))

    def test_pair_outside_the_ground_set_rejected(self):
        with pytest.raises(ValueError, match="family over n=7 vertices checked at n=5"):
            indecomposable_implies_transversal(5, PairFamily(7, [(0, 2), (1, 6)]))

    def test_family_of_another_size_rejected(self):
        # T(9, F) would be decomposable, so the implication used to hold vacuously.
        with pytest.raises(ValueError, match="family over n=7 vertices checked at n=9"):
            indecomposable_implies_transversal(9, PairFamily(7, [(0, 3), (1, 5), (2, 6)]))
