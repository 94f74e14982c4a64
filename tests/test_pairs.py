"""Pair families, classification, anatomy, and irreducibility."""

import pickle
from functools import cached_property

import pytest

from revtour import (
    EnumSpec,
    PairFamily,
    Pairing,
    QuasiPairing,
    anatomy,
    classify,
    components,
    enumerate_families,
    is_irreducible_pairing,
    is_irreducible_partition,
    is_irreducible_quasi,
    mates,
    mirrored,
    partner,
    support,
)

from oracles import (
    all_set_partitions,
    anatomy_by_sorting,
    naive_is_irreducible,
    sweep_by_prefix_sums,
    sweep_by_spans,
)


class TestPairFamily:
    def test_normalization(self):
        fam = PairFamily(5, [(4, 1), (0, 2), (2, 0)])
        assert fam.pairs == ((0, 2), (1, 4))

    def test_support(self):
        assert support(PairFamily(5, [(0, 2), (1, 4)])) == {0, 1, 2, 4}
        assert support(PairFamily(5, [])) == frozenset()
        assert support(PairFamily(5, [(0, 2), (2, 4), (1, 3)])) == {0, 1, 2, 3, 4}

    def test_validation(self):
        with pytest.raises(ValueError):
            PairFamily(4, [(0, 4)])
        with pytest.raises(ValueError):
            PairFamily(4, [(1, 1)])

    def test_equality_across_subclasses(self):
        assert Pairing(5, [(0, 2)]) == PairFamily(5, [(0, 2)])
        assert PairFamily(5, [(0, 2)]) != PairFamily(6, [(0, 2)])
        fam = PairFamily(5, [(2, 4), (0, 2), (1, 3)])
        assert len(fam) == 3 and list(fam) == [(0, 2), (1, 3), (2, 4)]
        assert hash(fam) == hash(QuasiPairing(5, fam.pairs)) == hash((5, fam.pairs))
        assert fam != fam.pairs and fam != "0-2,1-3,2-4" and fam.__eq__(None) is NotImplemented

    def test_subclass_validation(self):
        with pytest.raises(ValueError):
            Pairing(5, [(0, 2), (2, 4)])
        with pytest.raises(ValueError):
            QuasiPairing(5, [(0, 2), (1, 4)])
        with pytest.raises(ValueError):
            QuasiPairing(5, [(0, 2)])

    def test_serialize_and_parse(self):
        fam = PairFamily(5, [(1, 4), (0, 2)])
        assert fam.serialize() == "0-2,1-4"
        assert PairFamily.parse(5, "0-2,1-4") == fam
        assert PairFamily.parse(5, "").pairs == ()
        assert PairFamily(5, []).serialize() == ""

    def test_parse_errors(self):
        for text in ("0-2,1-x", "2-0", "3", "0-0", "0-9", "+0-2", "0-2, 1-4", "-2", "0-"):
            with pytest.raises(ValueError):
                PairFamily.parse(5, text)
        # int() reads each end of these as 10 and 11.
        for text in ("1_0-1_1", "10-+11", "10- 11"):
            with pytest.raises(ValueError, match="bad pair token"):
                PairFamily.parse(12, text)


class TestClassify:
    def test_pairing(self):
        assert classify(PairFamily(5, [(0, 2), (1, 4)])) == "pairing"
        assert classify(PairFamily(5, [])) == "pairing"

    def test_quasi_pairing(self):
        assert classify(PairFamily(5, [(0, 2), (2, 4), (1, 3)])) == "quasi-pairing"

    def test_neither(self):
        assert classify(PairFamily(4, [(0, 1), (0, 2), (0, 3)])) == "neither"


class TestPartner:
    def test_lookup(self):
        fam = Pairing(5, [(0, 2), (1, 4)])
        assert partner(fam, 2) == 0
        assert partner(fam, 4) == 1

    def test_involution_without_fixed_points(self):
        fam = Pairing(8, [(0, 5), (1, 3), (2, 7)])
        for x in support(fam):
            assert partner(fam, x) != x
            assert partner(fam, partner(fam, x)) == x

    def test_errors(self):
        with pytest.raises(ValueError):
            partner(Pairing(5, [(0, 2), (1, 4)]), 3)
        with pytest.raises(ValueError):
            partner(PairFamily(5, [(0, 2), (2, 4)]), 0)


class TestAnatomy:
    def test_hub_in_middle(self):
        shape = anatomy(QuasiPairing(5, [(0, 2), (2, 4), (1, 3)]))
        assert (shape.hub, shape.low, shape.high) == (2, 0, 4)
        assert shape.triple == (0, 2, 4)
        assert shape.blocks == ((0, 2, 4), (1, 3))

    def test_three_point_path(self):
        shape = anatomy(QuasiPairing(3, [(0, 1), (1, 2)]))
        assert (shape.hub, shape.low, shape.high) == (1, 0, 2)
        assert shape.blocks == ((0, 1, 2),)

    def test_hub_at_bottom(self):
        shape = anatomy(QuasiPairing(5, [(0, 2), (0, 4), (1, 3)]))
        assert (shape.hub, shape.low, shape.high) == (0, 2, 4)
        assert shape.blocks == ((0, 2, 4), (1, 3))

    def test_rejects_non_quasi(self):
        with pytest.raises(ValueError):
            anatomy(PairFamily(5, [(0, 2), (1, 4)]))

    def test_derived_once(self):
        fam = QuasiPairing(5, [(0, 2), (2, 4), (1, 3)])
        assert anatomy(fam) is anatomy(fam)
        # The support is read off the support mask, which is kept.
        assert fam.support == frozenset(range(5)) and "mask" in vars(fam)

    @pytest.mark.parametrize("kind", ["quasi", "partial-quasi"])
    def test_one_pass_matches_sorting(self, kind):
        for n in range(3, 11):
            for fam in enumerate_families(EnumSpec(n, kind)):
                shape = anatomy(fam)
                got = (shape.hub, shape.low, shape.high, shape.triple, shape.blocks)
                assert got == anatomy_by_sorting(fam.pairs), fam


class TestCachedSlot:
    def test_family_slots_land_in_the_instance_dict(self):
        fam = QuasiPairing(5, [(0, 2), (2, 4), (1, 3)])
        # The constructor stores the support mask and the hub from the walk's fold.
        assert vars(fam) == {"n": 5, "pairs": fam.pairs, "mask": 0b11111, "_hub": 2}
        shape, transversal = anatomy(fam), fam.transversal
        assert vars(fam)["_anatomy"] is shape and vars(fam)["transversal"] is transversal
        slots = {
            name for name, value in vars(PairFamily).items() if isinstance(value, cached_property)
        }
        assert slots == {"transversal", "_anatomy"}

    def test_walk_built_family_survives_pickling(self):
        fam = next(iter(enumerate_families(EnumSpec(7, "partial-quasi"))))
        shape = anatomy(fam)
        back = pickle.loads(pickle.dumps(fam))
        assert type(back) is QuasiPairing and back == fam
        assert vars(back) == vars(fam) and anatomy(back) == shape


class TestMates:
    def test_hub_has_two(self):
        fam = QuasiPairing(5, [(0, 2), (2, 4), (1, 3)])
        assert mates(fam, 2) == {0, 4}
        assert mates(fam, 1) == {3}
        assert mates(fam, 5 - 1) == {2}

    def test_off_support_empty(self):
        fam = PairFamily(6, [(0, 2), (2, 4), (1, 3)])
        assert mates(fam, 5) == frozenset()


class TestComponents:
    def test_pairing_components_are_pairs(self):
        assert components(Pairing(5, [(0, 2), (1, 4)])) == [(0, 2), (1, 4)]

    def test_quasi_component_is_triple(self):
        fam = QuasiPairing(5, [(0, 2), (2, 4), (1, 3)])
        assert components(fam) == [(0, 2, 4), (1, 3)]

    def test_empty(self):
        assert components(PairFamily(4, [])) == []

    def test_overlapping_family(self):
        assert components(PairFamily(4, [(0, 1), (0, 2), (0, 3)])) == [(0, 1, 2, 3)]


class TestIrreduciblePartition:
    def test_interleaved_pairs(self):
        assert is_irreducible_partition({0, 1, 2, 3}, [(0, 2), (1, 3)])

    def test_adjacent_block(self):
        assert not is_irreducible_partition({0, 1, 2, 3}, [(0, 1), (2, 3)])

    def test_single_block_vacuous(self):
        assert is_irreducible_partition({0, 1, 2, 3, 4}, [(0, 1, 2, 3, 4)])
        assert is_irreducible_partition({5}, [(5,)])

    def test_empty_ground_set(self):
        assert is_irreducible_partition([], [])

    def test_one_vertex_blocks(self):
        # Alone, a one-vertex block is a trivial interval; beside a union
        # of blocks it makes a longer one.
        assert not is_irreducible_partition([0, 4, 6], [(0,), (4, 6)])
        assert not is_irreducible_partition([0, 4, 6], [(0, 4), (6,)])
        assert is_irreducible_partition([0, 2, 4], [(0, 4), (2,)])
        assert is_irreducible_partition([0, 4], [(0,), (4,)])
        assert not is_irreducible_partition([0, 4, 6], [(0,), (4,), (6,)])
        assert not is_irreducible_partition(range(4), [(0, 3), (1,), (2,)])
        assert is_irreducible_partition(range(5), [(0, 2, 4), (1,), (3,)])

    def test_five_vertex_block(self):
        # Kept from the prefix-sum rule (oracles.sweep_by_prefix_sums):
        # block weights in base 4 would sum the run {4, 5} to 0, +4 for 4,
        # the pair's first vertex, and -4 for 5, the big block's last.
        assert is_irreducible_partition(range(7), [(0, 1, 2, 3, 5), (4, 6)])

    def test_rejects_non_partition(self):
        with pytest.raises(ValueError):
            is_irreducible_partition({0, 1, 2}, [(0, 1)])
        with pytest.raises(ValueError):
            is_irreducible_partition({0, 1, 2}, [(0, 1), (1, 2)])

    def test_matches_naive_oracle(self):
        # Every set partition of 1-8 points, on a ground set with gaps so
        # that neighbours in the order are not consecutive integers: the
        # cut rule against the definition and both sweeps it replaced.
        checked = 0
        for k in range(1, 9):
            ground = [3 * i + i % 2 for i in range(k)]
            for blocks in all_set_partitions(ground):
                want = naive_is_irreducible(ground, blocks)
                parts = [tuple(sorted(b)) for b in blocks]
                assert sweep_by_prefix_sums(parts) == sweep_by_spans(parts) == want, blocks
                assert is_irreducible_partition(ground, blocks) == want, blocks
                checked += 1
        assert checked == 5295


class TestIrreduciblePairing:
    def test_small_cases(self):
        assert is_irreducible_pairing(Pairing(4, [(0, 2), (1, 3)]))
        assert not is_irreducible_pairing(Pairing(4, [(0, 1), (2, 3)]))
        assert is_irreducible_pairing(Pairing(6, [(0, 3), (1, 4), (2, 5)]))

    def test_empty_is_vacuously_irreducible(self):
        assert is_irreducible_pairing(Pairing(5, []))

    def test_rejects_non_pairing(self):
        with pytest.raises(ValueError):
            is_irreducible_pairing(PairFamily(5, [(0, 2), (2, 4)]))

    def test_matches_naive_oracle(self):
        from oracles import all_matchings

        for matching in all_matchings(range(8)):
            fam = Pairing(8, matching)
            want = naive_is_irreducible(support(fam), fam.pairs)
            assert is_irreducible_pairing(fam) == want


class TestIrreducibleQuasi:
    def test_interleaved(self):
        assert is_irreducible_quasi(QuasiPairing(5, [(0, 2), (2, 4), (1, 3)]))

    def test_triple_forms_interval(self):
        assert not is_irreducible_quasi(QuasiPairing(5, [(0, 1), (1, 2), (3, 4)]))
        assert not is_irreducible_quasi(QuasiPairing(5, [(0, 2), (2, 1), (3, 4)]))

    def test_matches_naive_oracle(self):
        from oracles import all_quasi_pairings

        for pairs in all_quasi_pairings(range(7)):
            fam = QuasiPairing(7, pairs)
            want = naive_is_irreducible(support(fam), anatomy(fam).blocks)
            assert is_irreducible_quasi(fam) == want


def test_family_sweep_is_the_partition_test_to_nine_points():
    # The family entry points skip the partition check of
    # is_irreducible_partition, and a quasi-pairing's cuts come from its
    # pairs plus the virtual pair of the hub's partners, not from its
    # merged blocks; all agree with the naive oracle and both sweeps.
    # Every family over fewer points has the pairs, and so the verdict, of
    # one over 9 points.
    for kind, judge in (
        ("partial-pairing", is_irreducible_pairing),
        ("partial-quasi", is_irreducible_quasi),
    ):
        for fam in enumerate_families(EnumSpec(9, kind)):
            blocks = anatomy(fam).blocks if kind == "partial-quasi" else fam.pairs
            want = naive_is_irreducible(fam.support, blocks)
            assert sweep_by_prefix_sums(blocks) == sweep_by_spans(blocks) == want, fam
            assert judge(fam) == is_irreducible_partition(fam.support, blocks) == want, fam


class TestMirrored:
    def test_pairs_flip(self):
        fam = PairFamily(5, [(0, 2), (1, 4)])
        assert mirrored(fam).pairs == ((0, 3), (2, 4))

    def test_preserves_type_and_involutes(self):
        fam = QuasiPairing(5, [(0, 2), (2, 4), (1, 3)])
        image = mirrored(fam)
        assert isinstance(image, QuasiPairing)
        assert mirrored(image) == fam

    def test_preserves_irreducibility(self):
        from oracles import all_quasi_pairings

        for pairs in all_quasi_pairings(range(5)):
            fam = QuasiPairing(5, pairs)
            assert is_irreducible_quasi(fam) == is_irreducible_quasi(mirrored(fam))
