"""Theorem sides, the four quasi conditions, and the verification harness."""

import json
import os
import subprocess
import sys
import textwrap
from pathlib import Path

import pytest

import revtour.theorems
from revtour import (
    PairFamily,
    Pairing,
    QuasiPairing,
    corollaries_range,
    corollary_checks,
    is_irreducible_pairing,
    is_module,
    reverse_pairs,
    theorem1_sides,
    theorem2_sides,
    theorem3_check,
    theorem3_conditions,
    transitive,
    verify_range,
)
from revtour.theorems import CHECKS, check_instance

SRC = Path(__file__).resolve().parents[1] / "src"


class TestTheorem1:
    def test_witness_instance(self):
        assert theorem1_sides(5, Pairing(5, [(0, 2), (1, 4)])) == (True, True)

    def test_adjacent_block_fails_both_sides(self):
        assert theorem1_sides(5, Pairing(5, [(0, 1), (2, 4)])) == (False, False)

    def test_boundary_at_four_vertices(self):
        # Below the stated threshold the equivalence genuinely breaks:
        # this pairing is irreducible but its reversal has module {0, 3}.
        family = Pairing(4, [(0, 2), (1, 3)])
        with pytest.warns(UserWarning):
            lhs, rhs = theorem1_sides(4, family)
        assert (lhs, rhs) == (False, True)
        assert is_irreducible_pairing(family)
        assert is_module(reverse_pairs(transitive(4), family), {0, 3})

    def test_rejects_non_pairing(self):
        with pytest.raises(ValueError):
            theorem1_sides(5, PairFamily(5, [(0, 2), (2, 4)]))


class TestTheorem2:
    def test_missing_left_end_fails_both_sides(self):
        # Support misses the minimal co-module {0}, so the transversal side
        # fails and so do all three deletion checks.
        family = QuasiPairing(6, [(1, 3), (3, 5), (2, 4)])
        assert theorem2_sides(6, family) == (False, False)

    def test_equivalence_sample_at_six(self):
        family = QuasiPairing(6, [(0, 2), (2, 4), (1, 3)])
        lhs, rhs = theorem2_sides(6, family)
        assert lhs == rhs

    def test_converse_can_fail_at_five(self):
        # Irreducible transversal quasi-pairing whose three tournaments are
        # all decomposable; only the right-to-left implication is claimed.
        family = QuasiPairing(5, [(0, 2), (2, 4), (1, 3)])
        assert theorem2_sides(5, family) == (True, False)


class TestTheorem3Conditions:
    def test_interleaving_breaks_c3(self):
        family = QuasiPairing(5, [(0, 2), (2, 4), (1, 3)])
        assert theorem3_conditions(5, family) == (True, True, False, True)

    def test_hub_at_end_satisfies_all(self):
        family = QuasiPairing(5, [(0, 2), (0, 4), (1, 3)])
        assert theorem3_conditions(5, family) == (True, True, True, True)

    def test_adjacent_pair_with_covered_neighbors(self):
        family = QuasiPairing(5, [(0, 1), (1, 3), (2, 4)])
        c1, c2, c3, c4 = theorem3_conditions(5, family)
        assert c4 is True


class TestTheorem3Check:
    def test_indecomposable_instance(self):
        inst = theorem3_check(5, QuasiPairing(5, [(0, 2), (0, 4), (1, 3)]))
        assert inst.lhs is True and inst.rhs is True

    def test_decomposable_instance(self):
        family = QuasiPairing(5, [(0, 2), (2, 4), (1, 3)])
        inst = theorem3_check(5, family)
        assert inst.lhs is False and inst.rhs is False
        assert inst.details["c3"] is False
        assert is_module(reverse_pairs(transitive(5), family), {0, 3})

    def test_adjacent_partners_break_c2(self):
        # Hub partners one apart force the module {low, high}.
        family = QuasiPairing(5, [(0, 2), (1, 2)])
        inst = theorem3_check(5, family)
        assert inst.lhs is False and inst.rhs is False
        assert inst.details["c2"] is False
        assert is_module(reverse_pairs(transitive(5), family), {0, 1})


class TestConditionConsistency:
    def test_c1_is_the_deletion_theorem_left_side(self):
        from revtour import EnumSpec, enumerate_families

        for n in (5, 6):
            for family in enumerate_families(EnumSpec(n, "partial-quasi")):
                c1 = theorem3_conditions(n, family)[0]
                lhs, _ = theorem2_sides(n, family)
                assert c1 == lhs


class TestVerifyRange:
    def test_theorem1_small_range(self):
        report = verify_range(1, 5, 6)
        assert report.passed and report.checked == 25 + 75

    def test_theorem2_small_range_records_converse_failures(self):
        report = verify_range(2, 5, 6)
        assert report.passed
        assert report.checked == 60 + 240
        assert len(report.recorded) == 7
        assert all(i.n == 5 and i.lhs and not i.rhs for i in report.recorded)

    def test_theorem3_small_range(self):
        report = verify_range(3, 5, 6)
        assert report.passed and report.checked == 60 + 240

    def test_below_hypothesis_is_tagged_not_failed(self):
        report = verify_range(1, 4, 4)
        assert report.passed and report.checked == 9

    def test_jobs_do_not_change_the_outcome(self):
        # Corollaries at n = 7 check 315 families per row, enough for the pool.
        for theorem, n_min, n_max in ((2, 5, 6), (3, 5, 6), ("corollaries", 5, 7)):
            serial = verify_range(theorem, n_min, n_max)
            parallel = verify_range(theorem, n_min, n_max, jobs=2)
            assert serial.checked == parallel.checked
            for filed in ("violations", "recorded"):
                assert [i.to_record() for i in getattr(serial, filed)] == [
                    i.to_record() for i in getattr(parallel, filed)
                ]

    def test_jobs_capped_at_cpu_count(self, fake_pool):
        capped = verify_range(3, 6, 6, jobs=10**6)
        assert fake_pool == [4]
        assert capped.checked == 240 and capped.passed

    def test_bad_arguments(self):
        with pytest.raises(ValueError):
            verify_range(4, 5, 6)
        with pytest.raises(ValueError):
            verify_range(1, 6, 5)

    def test_report_json_shape(self):
        report = verify_range(1, 5, 5)
        doc = report.to_json()
        assert doc["theorem"] == 1
        assert doc["n_range"] == [5, 5]
        assert doc["checked"] == 25
        assert doc["violations"] == []
        assert isinstance(doc["ms"], float)
        json.dumps(doc)


class TestCorollaries:
    def test_even_size_checks_full_pairings(self):
        report = corollary_checks(6)
        assert report.passed and report.checked == 15

    def test_odd_size_checks_full_quasis(self):
        assert corollary_checks(5).checked == 30
        assert corollary_checks(7).checked == 630

    def test_below_thresholds_checks_nothing(self):
        assert corollary_checks(4).checked == 0
        assert corollary_checks(3).checked == 0

    def test_range_merge(self):
        merged = corollaries_range(5, 6)
        assert merged.passed and merged.checked == 45


class TestCheckTable:
    def test_rows(self):
        assert [(c.run, c.label, c.kind) for c in CHECKS] == [
            (1, "theorem1", "partial-pairing"),
            (2, "theorem2", "partial-quasi"),
            (3, "theorem3", "partial-quasi"),
            ("corollaries", "corollary1", "pairing"),
            ("corollaries", "corollary3", "quasi"),
            ("corollaries", "corollary2", "quasi"),
        ]
        applies = {c.label: [n for n in range(3, 12) if c.applies(n)] for c in CHECKS}
        assert applies["theorem1"] == applies["theorem3"] == list(range(3, 12))
        assert applies["corollary1"] == [6, 8, 10]
        assert applies["corollary3"] == [5, 7, 9, 11]
        assert applies["corollary2"] == [7, 9, 11]

    # One record per row.  Where the two sides can differ, the family is
    # chosen so that they do, which fixes which side is lhs.
    @pytest.mark.parametrize("label, n, family, record", [
        ("theorem1", 4, Pairing(4, [(0, 2), (1, 3)]), {
            "n": 4, "pairs": "0-2,1-3", "lhs": False, "rhs": True,
            "details": {"irreducible": True, "transversal": True},
            "in_hypothesis": False, "label": "theorem1",
        }),
        ("theorem2", 5, QuasiPairing(5, [(0, 2), (2, 4), (1, 3)]), {
            "n": 5, "pairs": "0-2,1-3,2-4", "lhs": True, "rhs": False,
            "details": {"whole": False, "drop_low": False, "drop_high": False},
            "in_hypothesis": True, "label": "theorem2",
        }),
        ("theorem3", 5, QuasiPairing(5, [(0, 2), (2, 4), (1, 3)]), {
            "n": 5, "pairs": "0-2,1-3,2-4", "lhs": False, "rhs": False,
            "details": {"c1": True, "c2": True, "c3": False, "c4": True},
            "in_hypothesis": True, "label": "theorem3",
        }),
        ("corollary1", 4, Pairing(4, [(0, 2), (1, 3)]), {
            "n": 4, "pairs": "0-2,1-3", "lhs": True, "rhs": False,
            "details": {"transversal": True},
            "in_hypothesis": False, "label": "corollary1",
        }),
        ("corollary2", 5, QuasiPairing(5, [(0, 2), (2, 4), (1, 3)]), {
            "n": 5, "pairs": "0-2,1-3,2-4", "lhs": True, "rhs": False,
            "details": {"whole": False, "drop_low": False, "drop_high": False},
            "in_hypothesis": True, "label": "corollary2",
        }),
        ("corollary3", 5, QuasiPairing(5, [(0, 2), (1, 2), (3, 4)]), {
            "n": 5, "pairs": "0-2,1-2,3-4", "lhs": False, "rhs": False,
            "details": {"c1": False, "c2": False, "c3": True, "c4": False},
            "in_hypothesis": True, "label": "corollary3",
        }),
    ])
    def test_pinned_record(self, label, n, family, record):
        assert check_instance(label, n, family).to_record() == record


class TestInvariants:
    """Checker invariants raise RuntimeError, so they hold under python -O."""

    def test_c4_endpoint(self):
        # Read at n = 5, a family over 0..6 puts the hub 4 at the right
        # end while its neighbour 5 is still in the support, so (C4) holds.
        family = QuasiPairing(7, [(3, 4), (4, 5)])
        with pytest.raises(RuntimeError, match="n=5, pairs '3-4,4-5'.*endpoint"):
            theorem3_conditions(5, family)

    def test_full_support_meets_every_comodule(self, monkeypatch):
        monkeypatch.setattr("revtour.theorems.is_transversal", lambda support, comodules: False)
        for label, n, family in (
            ("corollary1", 6, Pairing(6, [(0, 2), (1, 4), (3, 5)])),
            ("corollary2", 7, QuasiPairing(7, [(0, 2), (2, 4), (1, 5), (3, 6)])),
            ("corollary3", 5, QuasiPairing(5, [(0, 2), (0, 4), (1, 3)])),
        ):
            with pytest.raises(RuntimeError, match=f"n={n}, pairs '{family.serialize()}'"):
                check_instance(label, n, family)
        with pytest.raises(RuntimeError, match="co-module"):
            verify_range("corollaries", 5, 5)

    def test_corollary3_reduced_c4_agrees(self, monkeypatch):
        real = revtour.theorems.theorem3_conditions

        def flipped_c4(n, family):
            c1, c2, c3, c4 = real(n, family)
            return c1, c2, c3, not c4

        monkeypatch.setattr("revtour.theorems.theorem3_conditions", flipped_c4)
        with pytest.raises(RuntimeError, match="n=5, pairs '0-2,0-4,1-3'.*reduced"):
            check_instance("corollary3", 5, QuasiPairing(5, [(0, 2), (0, 4), (1, 3)]))

    def test_raises_under_optimize(self):
        child = textwrap.dedent("""
            import sys
            import revtour.theorems as theorems
            from revtour import Pairing
            theorems.is_transversal = lambda support, comodules: False
            try:
                theorems.check_instance("corollary1", 6, Pairing(6, [(0, 2), (1, 4), (3, 5)]))
            except RuntimeError as exc:
                print(sys.flags.optimize, exc)
        """)
        env = dict(os.environ, PYTHONPATH=str(SRC))
        out = subprocess.run(
            [sys.executable, "-O", "-c", child],
            env=env, capture_output=True, text=True, timeout=60, check=True,
        ).stdout
        assert out.startswith("1 invariant broken at n=6, pairs '0-2,1-4,3-5'")
