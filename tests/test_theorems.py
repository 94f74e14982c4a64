"""Theorem sides, the four quasi conditions, and the verification harness."""

import json
import os
import subprocess
import sys
import textwrap
import time
import warnings
from functools import partial
from pathlib import Path

import pytest

import revtour.theorems
from revtour import (
    EnumSpec,
    GuardError,
    PairFamily,
    Pairing,
    QuasiPairing,
    delete_vertex,
    enumerate_families,
    is_indecomposable,
    is_irreducible_pairing,
    is_module,
    reverse_pairs,
    transitive,
    verify_range,
)
from revtour.core import is_indecomposable_rows, module_rows, reversal_rows
from revtour.enumeration import KINDS, _family_tuples, _orbit_lead
from revtour.pairs import _same_size, mirror_pairs
from revtour.theorems import (
    CHECKS,
    _BY_LABEL,
    Check,
    TheoremInstance,
    _c1,
    _check_shard,
    _reduced_c4,
    _reversal,
    _shape,
    _theorem3_conditions,
    check_instance,
)

from oracles import (
    anatomy_by_sorting,
    indecomposable_by_pairs,
    lead_by_mirror,
    reduced_c4_by_sets,
    theorem3_conditions_by_sets,
    walk_tuple,
)

SRC = Path(__file__).resolve().parents[1] / "src"


def patch_sides(monkeypatch, **sides):
    """Swap the sides of the named table rows for the duration of a test."""
    rows = tuple(Check(**{**vars(c), "sides": sides[c.label]}) if c.label in sides else c
                 for c in CHECKS)
    monkeypatch.setattr("revtour.theorems.CHECKS", rows)
    monkeypatch.setattr("revtour.theorems._BY_LABEL", {c.label: c for c in rows})


def row_sides(label, n, family):
    """The (lhs, rhs) of the table row ``label`` on one family."""
    inst = check_instance(label, n, family)
    return inst.lhs, inst.rhs


def quasi_conditions(n, family):
    """(C1)-(C4) of a partial quasi-pairing, from theorem 3's details."""
    details = check_instance("theorem3", n, family).details
    return details["c1"], details["c2"], details["c3"], details["c4"]


class TestTheorem1:
    def test_witness_instance(self):
        assert row_sides("theorem1", 5, Pairing(5, [(0, 2), (1, 4)])) == (True, True)

    def test_adjacent_block_fails_both_sides(self):
        assert row_sides("theorem1", 5, Pairing(5, [(0, 1), (2, 4)])) == (False, False)

    def test_boundary_at_four_vertices(self):
        # Below the stated threshold the equivalence genuinely breaks:
        # this pairing is irreducible but its reversal has module {0, 3}.
        family = Pairing(4, [(0, 2), (1, 3)])
        inst = check_instance("theorem1", 4, family)
        assert (inst.lhs, inst.rhs) == (False, True)
        assert not inst.in_hypothesis
        assert is_irreducible_pairing(family)
        assert is_module(reverse_pairs(transitive(4), family), {0, 3})

    def test_rejects_non_pairing(self):
        with pytest.raises(ValueError):
            check_instance("theorem1", 5, PairFamily(5, [(0, 2), (2, 4)]))


class TestTheorem2:
    def test_missing_left_end_fails_both_sides(self):
        # Support misses the minimal co-module {0}, so the transversal side
        # fails and so do all three deletion checks.
        family = QuasiPairing(6, [(1, 3), (3, 5), (2, 4)])
        assert row_sides("theorem2", 6, family) == (False, False)

    def test_equivalence_sample_at_six(self):
        family = QuasiPairing(6, [(0, 2), (2, 4), (1, 3)])
        lhs, rhs = row_sides("theorem2", 6, family)
        assert lhs == rhs

    def test_details_are_three_searches_to_nine_points(self):
        # The whole tournament's module settles most deletions without a
        # search; each verdict must be the search's own.
        for n in range(3, 10):
            whole = (1 << n) - 1
            for family in enumerate_families(EnumSpec(n, "partial-quasi")):
                rows = reversal_rows(n, family.pairs)
                _, low, high, *_ = anatomy_by_sorting(family.pairs)
                assert check_instance("theorem2", n, family).details == {
                    "whole": is_indecomposable_rows(rows, whole),
                    "drop_low": is_indecomposable_rows(rows, whole ^ 1 << low),
                    "drop_high": is_indecomposable_rows(rows, whole ^ 1 << high),
                }, family

    def test_converse_can_fail_at_five(self):
        # Irreducible transversal quasi-pairing whose three tournaments are
        # all decomposable; only the right-to-left implication is claimed.
        family = QuasiPairing(5, [(0, 2), (2, 4), (1, 3)])
        assert row_sides("theorem2", 5, family) == (True, False)


class TestTheorem3Conditions:
    def test_interleaving_breaks_c3(self):
        family = QuasiPairing(5, [(0, 2), (2, 4), (1, 3)])
        assert quasi_conditions(5, family) == (True, True, False, True)

    def test_hub_at_end_satisfies_all(self):
        family = QuasiPairing(5, [(0, 2), (0, 4), (1, 3)])
        assert quasi_conditions(5, family) == (True, True, True, True)

    def test_adjacent_pair_with_covered_neighbors(self):
        family = QuasiPairing(5, [(0, 1), (1, 3), (2, 4)])
        c1, c2, c3, c4 = quasi_conditions(5, family)
        assert c4 is True


class TestTheorem3ConditionOracle:
    """The per-pair mask tests against the set-based reading of (C1)-(C4)."""

    def test_every_partial_quasi_pairing(self):
        seen = 0
        for n in range(3, 10):
            for family in enumerate_families(EnumSpec(n, "partial-quasi")):
                shape = _shape(n, family.pairs, family.mask, family._hub)
                assert (_c1(shape), *_theorem3_conditions(n, shape)[:3]) == (
                    theorem3_conditions_by_sets(n, family.pairs)
                ), family
                seen += 1
        assert seen == 24_885

    @pytest.mark.parametrize("n", [3, 5, 7, 9])
    def test_every_full_quasi_pairing_with_the_reduced_c4(self, n):
        for family in enumerate_families(EnumSpec(n, "quasi")):
            shape = _shape(n, family.pairs, family.mask, family._hub)
            *conditions, adjacent = _theorem3_conditions(n, shape)
            hub = anatomy_by_sorting(family.pairs)[0]
            assert (_c1(shape), *conditions, _reduced_c4(n, hub, adjacent)) == (
                *theorem3_conditions_by_sets(n, family.pairs),
                reduced_c4_by_sets(n, family.pairs),
            ), family


class TestTheorem3Check:
    def test_indecomposable_instance(self):
        inst = check_instance("theorem3", 5, QuasiPairing(5, [(0, 2), (0, 4), (1, 3)]))
        assert inst.lhs is True and inst.rhs is True

    def test_decomposable_instance(self):
        family = QuasiPairing(5, [(0, 2), (2, 4), (1, 3)])
        inst = check_instance("theorem3", 5, family)
        assert inst.lhs is False and inst.rhs is False
        assert inst.details["c3"] is False
        assert is_module(reverse_pairs(transitive(5), family), {0, 3})

    def test_adjacent_partners_break_c2(self):
        # Hub partners one apart force the module {low, high}.
        family = QuasiPairing(5, [(0, 2), (1, 2)])
        inst = check_instance("theorem3", 5, family)
        assert inst.lhs is False and inst.rhs is False
        assert inst.details["c2"] is False
        assert is_module(reverse_pairs(transitive(5), family), {0, 1})


class TestTheorem3Warnings:
    # A family of each row's kind below the hypothesis; a full quasi-pairing
    # needs an odd ground set.
    FAMILIES = {
        "partial-pairing": Pairing(4, [(0, 2)]),
        "partial-quasi": QuasiPairing(4, [(0, 2), (2, 3)]),
        "pairing": Pairing(4, [(0, 2), (1, 3)]),
        "quasi": QuasiPairing(3, [(0, 2), (1, 2)]),
    }

    def test_table_row_never_warns(self):
        for check in CHECKS:
            family = self.FAMILIES[check.kind]
            with warnings.catch_warnings():
                warnings.simplefilter("error")
                inst = check_instance(check.label, family.n, family)
            assert not inst.in_hypothesis, check.label


class TestRowPath:
    """The sides built on out-rows agree with the packed tournament and
    ``delete_vertex``."""

    @pytest.mark.parametrize("n", range(3, 9))
    def test_verdicts_match_the_tournament_path(self, n):
        def indecomposable(family, drop=None):
            t = reverse_pairs(transitive(n), family)
            return is_indecomposable(t if drop is None else delete_vertex(t, drop))

        for family in enumerate_families(EnumSpec(n, "partial-pairing")):
            assert check_instance("theorem1", n, family).lhs == indecomposable(family)
        for family in enumerate_families(EnumSpec(n, "partial-quasi")):
            _, low, high, *_ = anatomy_by_sorting(family.pairs)
            assert check_instance("theorem2", n, family).details == {
                "whole": indecomposable(family),
                "drop_low": indecomposable(family, low),
                "drop_high": indecomposable(family, high),
            }, family
            assert check_instance("theorem3", n, family).lhs == indecomposable(family)


class TestShortCircuitedSides:
    """Each row's short-circuited ``sides`` against its ``details``, the
    all-pairs test and the set reading of (C1)-(C4), on every family of the
    row's kind: both members of each mirror orbit."""

    @pytest.mark.parametrize("n", range(5, 9))
    @pytest.mark.parametrize("label", [c.label for c in CHECKS])
    def test_sides_are_the_details_combined(self, label, n):
        check, whole = _BY_LABEL[label], (1 << n) - 1
        for family in enumerate_families(EnumSpec(n, check.kind)):
            shape = _shape(n, family.pairs, family.mask, family._hub)
            reversal = _reversal(n, shape)
            sides, details = check.sides(n, shape, reversal), check.details(n, shape, reversal)
            rows, pairs = reversal[0], family.pairs
            indecomposable = indecomposable_by_pairs(rows, whole)
            if label == "theorem1":
                combined = indecomposable, details["irreducible"] and details["transversal"]
            elif label == "corollary1":
                assert details == {"transversal": True}, family
                theorem1 = _BY_LABEL["theorem1"].details(n, shape, reversal)
                combined = theorem1["irreducible"] and theorem1["transversal"], indecomposable
            elif label in ("theorem2", "corollary2"):
                _, low, high, *_ = anatomy_by_sorting(pairs)
                assert details == {
                    "whole": indecomposable,
                    "drop_low": indecomposable_by_pairs(rows, whole ^ 1 << low),
                    "drop_high": indecomposable_by_pairs(rows, whole ^ 1 << high),
                }, family
                combined = theorem3_conditions_by_sets(n, pairs)[0], (
                    details["whole"] or details["drop_low"] or details["drop_high"]
                )
            else:
                c1, c2, c3, c4 = theorem3_conditions_by_sets(n, pairs)
                assert details == {"c1": c1, "c2": c2, "c3": c3, "c4": c4}, family
                combined = indecomposable, c1 and c2 and c3 and c4
            assert sides == combined, family


class TestConditionConsistency:
    def test_c1_is_the_deletion_theorem_left_side(self):
        from revtour import EnumSpec, enumerate_families

        for n in (5, 6):
            for family in enumerate_families(EnumSpec(n, "partial-quasi")):
                c1 = quasi_conditions(n, family)[0]
                lhs, _ = row_sides("theorem2", n, family)
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
        for theorem, n_min, n_max in ((2, 5, 6), (3, 5, 6), ("corollaries", 5, 7)):
            serial = verify_range(theorem, n_min, n_max)
            parallel = verify_range(theorem, n_min, n_max, jobs=2)
            assert serial.checked == parallel.checked
            for filed in ("violations", "recorded"):
                assert [i.to_record() for i in getattr(serial, filed)] == [
                    i.to_record() for i in getattr(parallel, filed)
                ]

    def test_workers_return_only_filed_instances(self, monkeypatch):
        def check_orbit(labels, n, pairs, paired):
            # A shard whose walk holds one mirror orbit, with ``pairs`` its first member.
            node = walk_tuple(pairs)
            monkeypatch.setattr(
                "revtour.theorems.enumerate_families", lambda spec, shard, leads: iter([node])
            )
            monkeypatch.setattr("revtour.theorems._orbit_lead", lambda n, pairs, mask: paired)
            return _check_shard([(labels, EnumSpec(n, _BY_LABEL[labels[0]].kind))], (0, 1))

        agreeing = QuasiPairing(5, [(0, 2), (0, 4), (1, 3)])
        one_way = QuasiPairing(5, [(0, 2), (2, 4), (1, 3)])
        # The last member flags a mirror image other than the family: both count.
        assert check_orbit(("theorem2",), 5, agreeing.pairs, True) == (2, [])
        assert check_orbit(
            ("corollary3", "corollary2"), 7, [(0, 2), (2, 4), (1, 5), (3, 6)], True
        ) == (4, [])
        # This family is its own mirror image, so it is checked and filed once.
        checked, filed = check_orbit(("theorem2",), 5, one_way.pairs, False)
        assert checked == 1
        assert [i.to_record() for i in filed] == [
            check_instance("theorem2", 5, one_way).to_record()
        ]
        # Below the hypothesis, lhs != rhs is tagged but never filed.
        below = Pairing(4, [(0, 2), (1, 3)])
        assert check_instance("theorem1", 4, below).lhs is False
        assert check_orbit(("theorem1",), 4, below.pairs, False) == (1, [])

    def test_transversal_runs_once_per_family(self, monkeypatch):
        calls = []
        real = revtour.theorems.is_order_transversal

        def counting(n, mask):
            calls.append(n)
            return real(n, mask)

        monkeypatch.setattr("revtour.theorems.is_order_transversal", counting)
        report = verify_range("corollaries", 7, 7)
        # Corollaries 3 and 2 each check the 315 quasi-pairings of 7 points,
        # which form 162 mirror orbits; one family per orbit is tested.
        assert report.checked == 2 * 315 and len(calls) == 162

    def test_corollary_rows_share_the_whole_verdict(self, monkeypatch):
        calls = {}

        def count(name):
            real, calls[name] = getattr(revtour.theorems, name), []

            def counting(rows, ground):
                calls[name].append(ground)
                return real(rows, ground)

            monkeypatch.setattr(f"revtour.theorems.{name}", counting)

        # Per orbit, corollary 3 looks for a module M of T(9, Q), and corollary
        # 2's rhs takes it.  Its deletions are tried, low then high, only when
        # M is trivial; each is searched only when M - d, a module of
        # T(9, Q) - d, is trivial there, and a deletion found indecomposable
        # settles rhs.
        whole, searches = (1 << 9) - 1, 0
        for pairs, mask, _ in _family_tuples(EnumSpec(9, "quasi"), leads=True):
            if _orbit_lead(9, pairs, mask) is None:
                continue
            rows = reversal_rows(9, pairs)
            module = module_rows(rows, whole)
            for d in anatomy_by_sorting(pairs)[1:3] if module else ():
                left = module & (rest := whole ^ 1 << d)
                if left & left - 1 and left != rest:
                    continue
                searches += 1
                if is_indecomposable_rows(rows, rest):
                    break
        count("module_rows")
        count("is_indecomposable_rows")
        report = verify_range("corollaries", 9, 9)
        # The 3,780 quasi-pairings of 9 points form 1,904 mirror orbits.
        assert report.checked == 2 * 3780
        assert calls["module_rows"] == [whole] * 1904
        assert len(calls["is_indecomposable_rows"]) == searches

    def test_corollary_rows_share_one_enumeration(self, monkeypatch):
        enumerated = []
        real = revtour.theorems.enumerate_families

        def counting(spec, shard=(0, 1), leads=False):
            enumerated.append((spec.n, spec.kind))
            return real(spec, shard, leads)

        monkeypatch.setattr("revtour.theorems.enumerate_families", counting)
        report = verify_range("corollaries", 6, 7)
        # Corollary 1 at n = 6; corollaries 3 and 2 both take the 315 quasi-pairings at n = 7.
        assert enumerated == [(6, "pairing"), (7, "quasi")]
        assert report.passed and report.checked == 15 + 2 * 315

    def test_rows_filed_by_n_then_row_then_enumeration(self, monkeypatch, fake_shards):
        # Corollaries 3 and 2 see each quasi-pairing at n = 7 in turn, so
        # their violations arrive interleaved; make every one a violation.
        patch_sides(
            monkeypatch,
            corollary3=lambda n, shape, reversal: (True, False),
            corollary2=lambda n, shape, reversal: (False, True),
        )
        serial = verify_range("corollaries", 5, 7)
        sharded = verify_range("corollaries", 5, 7, jobs=2)
        assert fake_shards == [2]
        quasi = {
            n: [f.serialize() for f in enumerate_families(EnumSpec(n, "quasi"))] for n in (5, 7)
        }
        assert [(i.n, i.label, i.family.serialize()) for i in serial.violations] == (
            [(5, "corollary3", pairs) for pairs in quasi[5]]
            + [(7, "corollary3", pairs) for pairs in quasi[7]]
            + [(7, "corollary2", pairs) for pairs in quasi[7]]
        )
        assert [i.to_record() for i in sharded.violations] == [
            i.to_record() for i in serial.violations
        ]

    @pytest.mark.parametrize("lhs, rhs, filed", [
        (True, False, "recorded"),
        (False, True, "violations"),
    ])
    def test_one_way_row_records_only_lhs_without_rhs(self, monkeypatch, lhs, rhs, filed):
        patch_sides(monkeypatch, theorem2=lambda n, shape, reversal: (lhs, rhs))
        report = verify_range(2, 5, 5)
        assert report.checked == 60 and len(getattr(report, filed)) == 60

    @pytest.mark.parametrize("jobs", [1, 2])
    def test_families_are_checked_as_they_are_enumerated(self, monkeypatch, fake_shards, jobs):
        events = []
        real_walk = revtour.theorems.enumerate_families
        real_rows = revtour.theorems.reversal_rows

        def enumerating(spec, shard=(0, 1), leads=False):
            for node in real_walk(spec, shard, leads):
                events.append("family")
                yield node

        def checking(n, pairs):
            events.append("check")
            return real_rows(n, pairs)

        monkeypatch.setattr("revtour.theorems.enumerate_families", enumerating)
        monkeypatch.setattr("revtour.theorems.reversal_rows", checking)
        report = verify_range(3, 6, 6, jobs=jobs)
        assert report.checked == 240
        # The first family is checked before the second is enumerated.
        assert events[:3] == ["family", "check", "family"]

    def test_guard_fails_before_any_work(self, monkeypatch, fake_shards):
        enumerated = []

        def counting(spec, shard=(0, 1), leads=False):
            enumerated.append(spec.n)
            return iter(())

        monkeypatch.setattr("revtour.theorems.enumerate_families", counting)
        with pytest.raises(GuardError, match="n <= 12, got 13"):
            verify_range(3, 12, 13, jobs=2)
        assert enumerated == [] and fake_shards == []

    def test_guard_is_checked_once_per_walk(self, monkeypatch, fake_shards):
        calls = []
        real = revtour.enumeration.check_guard

        def counting(spec, max_n):
            calls.append((spec.n, spec.kind))
            return real(spec, max_n)

        monkeypatch.setattr("revtour.theorems.check_guard", counting)
        monkeypatch.setattr("revtour.enumeration.check_guard", counting)
        report = verify_range(3, 5, 6, jobs=2)
        # Once for each walk of the run, before any shard; no shard checks it again.
        assert fake_shards == [2] and report.passed
        assert calls == [(5, "partial-quasi"), (6, "partial-quasi")]

    def test_jobs_capped_at_cpu_count(self, fake_shards):
        capped = verify_range(3, 6, 6, jobs=10**6)
        assert fake_shards == [4]
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


class TestForkedShards:
    """The shard runner itself: the caller checks shard 0 and forks a child
    for each other shard.  The autouse ``reaps_every_child`` fixture fails
    any of these tests that leaves a child unreaped."""

    @pytest.fixture(autouse=True)
    def two_cpus(self, monkeypatch):
        monkeypatch.setattr("revtour.theorems.os.cpu_count", lambda: 2)

    @staticmethod
    def patch_shard(monkeypatch, shard, action):
        real = revtour.theorems._check_shard

        def patched(plan, at):
            if at == shard:
                action()
            return real(plan, at)

        monkeypatch.setattr("revtour.theorems._check_shard", patched)

    @staticmethod
    def script_stdout(child):
        """Standard output of the script ``child``, run with a timeout, so
        that a run which waits forever fails the test instead of hanging."""
        env = dict(os.environ, PYTHONPATH=str(SRC))
        done = subprocess.run(
            [sys.executable, "-c", textwrap.dedent(child)],
            env=env, capture_output=True, text=True, timeout=60,
        )
        assert done.returncode == 0, done.stderr
        return done.stdout

    def test_dead_child_is_an_error(self):
        # The child leaves with no result, as one the kernel kills for memory
        # would; a run that waited for it would never return.
        assert self.script_stdout("""
            import os
            import revtour.theorems as theorems
            real = theorems._check_shard
            def dying(plan, shard):
                if shard == (1, 2):
                    os._exit(3)
                return real(plan, shard)
            theorems._check_shard = dying
            os.cpu_count = lambda: 2
            try:
                theorems.verify_range(3, 6, 6, jobs=2)
            except RuntimeError as exc:
                print(exc)
            try:
                print(os.waitpid(-1, os.WNOHANG))
            except ChildProcessError:
                print("no child left")
        """) == "shard (1, 2) exited with status 3 and sent no result\nno child left\n"

    def test_child_exception_reaches_the_caller(self, monkeypatch):
        def fail():
            raise RuntimeError(f"planted in pid {os.getpid()}")

        self.patch_shard(monkeypatch, (1, 2), fail)
        with pytest.raises(RuntimeError, match="planted in pid") as raised:
            verify_range(3, 6, 6, jobs=2)
        assert str(raised.value) != f"planted in pid {os.getpid()}"

    def test_callers_failure_kills_and_reaps_the_child(self, monkeypatch):
        forked = []
        real_fork = os.fork

        def recording_fork():
            pid = real_fork()
            forked.append(pid)
            return pid

        def fail():
            raise ValueError("planted in shard (0, 2)")

        monkeypatch.setattr("os.fork", recording_fork)
        self.patch_shard(monkeypatch, (1, 2), lambda: time.sleep(60))
        self.patch_shard(monkeypatch, (0, 2), fail)
        start = time.monotonic()
        with pytest.raises(ValueError, match="planted"):
            verify_range(3, 6, 6, jobs=2)
        assert time.monotonic() - start < 30
        assert len(forked) == 1
        with pytest.raises(ProcessLookupError):
            os.kill(forked[0], 0)

    def test_shard_zero_runs_in_the_caller(self, monkeypatch, tmp_path):
        log = tmp_path / "pids"
        real = revtour.theorems._check_shard

        def logging(plan, shard):
            with open(log, "a") as out:
                out.write(f"{shard} {os.getpid()}\n")
            return real(plan, shard)

        monkeypatch.setattr("revtour.theorems._check_shard", logging)
        verify_range(3, 6, 6, jobs=2)
        pids = dict(line.rsplit(" ", 1) for line in log.read_text().splitlines())
        assert sorted(pids) == ["(0, 2)", "(1, 2)"]
        assert pids["(0, 2)"] == str(os.getpid()) != pids["(1, 2)"]

    def test_result_larger_than_a_pipe_buffer(self):
        # Every theorem 3 row at n = 8 is then a violation: shard (1, 2)
        # files 2,172 instances, which the child cannot write all at once.
        # A caller that reaped the child before reading its pipe would wait
        # forever.
        assert self.script_stdout("""
            import os, pickle
            import revtour.theorems as theorems
            rows = tuple(
                theorems.Check(**{**vars(c), "sides": lambda n, shape, reversal: (False, True)})
                if c.label == "theorem3" else c for c in theorems.CHECKS
            )
            theorems.CHECKS, theorems._BY_LABEL = rows, {c.label: c for c in rows}
            os.cpu_count = lambda: 2
            plan = [(("theorem3",), theorems.EnumSpec(8, "partial-quasi"))]
            print(len(pickle.dumps(theorems._check_shard(plan, (1, 2)))) > 64 * 1024)
            serial, forked = (theorems.verify_range(3, 8, 8, jobs=j).to_json() for j in (1, 2))
            del serial["ms"], forked["ms"]
            print(forked == serial, len(serial["violations"]))
        """) == "True\nTrue 4368\n"

    def test_guard_override_reaches_the_children(self, monkeypatch):
        # The guard is checked in the caller alone, before it forks.
        forked = []
        real_fork = os.fork
        monkeypatch.setattr("os.fork", lambda: forked.append(None) or real_fork())
        monkeypatch.setattr("revtour.enumeration.PARTIAL_ENUM_LIMIT", 5)
        with pytest.raises(GuardError, match="n <= 5, got 6"):
            verify_range(3, 6, 6, jobs=2)
        assert forked == []
        serial, sharded = (verify_range(3, 6, 6, jobs=j, max_n=6).to_json() for j in (1, 2))
        del serial["ms"], sharded["ms"]
        assert sharded == serial and serial["checked"] == 240 and len(forked) == 1

    def test_jobs_need_fork(self, monkeypatch):
        monkeypatch.delattr("os.fork")
        with pytest.raises(ValueError, match="os.fork"):
            verify_range(3, 6, 6, jobs=2)
        assert verify_range(3, 6, 6).checked == 240


def report_doc(theorem, jobs=1):
    doc = verify_range(theorem, 3, 8, jobs=jobs).to_json()
    del doc["ms"]
    return doc


class TestMirrorOrbits:
    """Checking one family per mirror orbit gives the report of checking
    every family: the plain walk, each family checked alone."""

    @staticmethod
    def unreduced_doc(theorem):
        with pytest.MonkeyPatch.context() as patch:
            patch.setattr(
                "revtour.theorems.enumerate_families",
                lambda spec, shard, leads: _family_tuples(spec, shard),
            )
            patch.setattr("revtour.theorems._orbit_lead", lambda n, pairs, mask: False)
            return report_doc(theorem)

    @pytest.mark.parametrize("theorem", [1, 2, 3, "corollaries"])
    def test_same_report_as_every_family(self, fake_shards, theorem):
        oracle = self.unreduced_doc(theorem)
        assert report_doc(theorem) == oracle
        assert report_doc(theorem, jobs=2) == oracle
        assert fake_shards == [2]

    def test_same_report_with_a_planted_bug(self, monkeypatch, fake_shards):
        real = revtour.theorems._theorem3_conditions

        def flipped_c2(n, shape):
            c2, c3, c4, adjacent = real(n, shape)
            return not c2, c3, c4, adjacent

        monkeypatch.setattr("revtour.theorems._theorem3_conditions", flipped_c2)
        oracles = {theorem: self.unreduced_doc(theorem) for theorem in (3, "corollaries")}
        for theorem, oracle in oracles.items():
            assert report_doc(theorem) == oracle
            # Each shard files its own instances; the merge is the same.
            assert report_doc(theorem, jobs=2) == oracle
            assert report_doc(theorem, jobs=3) == oracle
        # Hundreds filed, from orbits of two families and from self-mirror ones.
        filed = [PairFamily.parse(v["n"], v["pairs"]) for v in oracles[3]["violations"]]
        own_image = [f for f in filed if mirror_pairs(f.n, f.pairs) == f.pairs]
        assert len(filed) > 300 and 0 < len(own_image) < len(filed)


def every_family_doc(theorem):
    """``report_doc(theorem)`` from ``check_instance`` on every family of each
    row's kind, filed as the theorems state it: from n = 5 on, lhs without
    rhs at a row's one-way size recorded and any other disagreement a
    violation, by n, then table row, then walk order."""
    checked, filed = 0, {"violations": [], "recorded": []}
    for n in range(3, 9):
        for check in CHECKS:
            if check.run != theorem or not check.applies(n):
                continue
            for family in enumerate_families(EnumSpec(n, check.kind)):
                inst = check_instance(check.label, n, family)
                checked += 1
                if n >= 5 and inst.lhs != inst.rhs:
                    one_way = inst.lhs and n == check.one_way_at
                    filed["recorded" if one_way else "violations"].append(inst.to_record())
    return {"theorem": theorem, "n_range": [3, 8], "checked": checked, **filed}


class TestDriverAgainstEveryFamily:
    """The driver's report equals the per-family path's: ``check_instance``
    on every family, both members of each mirror orbit.  The planted bugs
    make many rows filed, and in both directions, so the comparison covers
    the orbit filter, the filing, the mirror twins and the sides each plan
    entry binds: corollaries 5..8 runs quasi, pairing, quasi and pairing
    entries in turn, and a row read with another entry's sides files
    other families."""

    @pytest.mark.parametrize("bug", [None, "irreducible", "module"])
    @pytest.mark.parametrize("theorem", [1, 2, 3, "corollaries"])
    def test_same_report_as_check_instance(self, monkeypatch, fake_shards, theorem, bug):
        if bug == "irreducible":
            monkeypatch.setattr("revtour.theorems._irreducible", lambda ends, pairs: True)
        elif bug == "module":
            monkeypatch.setattr("revtour.theorems.module_rows", lambda rows, ground: 0)
        oracle = every_family_doc(theorem)
        assert report_doc(theorem) == oracle
        assert report_doc(theorem, jobs=2) == oracle
        assert fake_shards == [2]
        if bug:
            assert len(oracle["violations"]) + len(oracle["recorded"]) > 20


class TestLeastPairOrbitTest:
    """``_orbit_lead`` compares least pairs before it sorts any image; on
    the walk that drops the subtrees holding no orbit lead, it keeps the
    leads that sorting every image keeps on the plain walk."""

    @pytest.mark.parametrize("kind", KINDS)
    def test_same_verdict_as_the_sorted_image(self, kind):
        for n in range(1, 11):
            for pairs, mask, _ in _family_tuples(EnumSpec(n, kind)):
                assert _orbit_lead(n, pairs, mask) is lead_by_mirror(n, pairs), (n, pairs)

    @pytest.mark.parametrize("kind", KINDS)
    def test_keeps_the_sorted_image_choice(self, kind):
        for n in range(1, 11):
            spec = EnumSpec(n, kind)
            for k in range(1, 5):
                for i in range(k):
                    kept = [
                        (*node, lead) for node in _family_tuples(spec, (i, k), leads=True)
                        if (lead := _orbit_lead(n, *node[:2])) is not None
                    ]
                    assert kept == [
                        (*node, lead) for node in _family_tuples(spec, (i, k))
                        if (lead := lead_by_mirror(n, node[0])) is not None
                    ], (n, i, k)


class TestFiledOnlyInstances:
    """The checker makes a ``TheoremInstance`` only on an orbit with a filed
    row, one per row and member, and files only those whose sides differ."""

    @staticmethod
    def count_instances(monkeypatch):
        made = []

        def counted(*args, **kwargs):
            made.append(TheoremInstance(*args, **kwargs))
            return made[-1]

        monkeypatch.setattr("revtour.theorems.TheoremInstance", counted)
        return made

    def test_none_where_none_is_filed(self, monkeypatch):
        made = self.count_instances(monkeypatch)
        report = verify_range(3, 9, 9)
        assert report.checked == 19152 and report.passed and made == []

    def test_one_per_filed_row(self, monkeypatch):
        made = self.count_instances(monkeypatch)
        report = verify_range(2, 5, 5)
        filed = report.violations + report.recorded
        assert filed and sorted(map(id, made)) == sorted(map(id, filed))

    def test_only_the_filed_rows_of_an_orbit(self, monkeypatch):
        # Corollary 2 files every quasi-pairing at n = 7.  Corollary 3 reads
        # the same orbits and files none, though its instances are made too.
        made = self.count_instances(monkeypatch)
        patch_sides(monkeypatch, corollary2=lambda n, shape, reversal: (True, False))
        report = verify_range("corollaries", 7, 7)
        assert report.checked == 2 * 315 and not report.recorded
        assert [i.label for i in report.violations] == ["corollary2"] * 315
        assert len(made) == 2 * 315

    @staticmethod
    def count_families(monkeypatch):
        made = []
        build, init = PairFamily._from_walk.__func__, PairFamily.__init__

        def from_walk(cls, *args):
            made.append(build(cls, *args))
            return made[-1]

        def counted_init(family, *args, **kwargs):
            init(family, *args, **kwargs)
            made.append(family)

        monkeypatch.setattr(PairFamily, "_from_walk", classmethod(from_walk))
        monkeypatch.setattr(PairFamily, "__init__", counted_init)
        return made

    def test_no_family_where_none_is_filed(self, monkeypatch):
        made = self.count_families(monkeypatch)
        report = verify_range(3, 9, 9)
        assert report.checked == 19152 and report.passed and made == []

    def test_one_family_per_filed_row(self, monkeypatch):
        # A filed row's family, or its mirror twin, each built once.
        made = self.count_families(monkeypatch)
        report = verify_range(2, 5, 5)
        filed = report.violations + report.recorded
        twins = [i for i in filed if mirror_pairs(5, i.family.pairs) != i.family.pairs]
        assert twins and sorted(map(id, made)) == sorted(id(i.family) for i in filed)

    def test_check_instance_makes_an_unfiled_row(self):
        inst = check_instance("theorem3", 5, QuasiPairing(5, [(0, 2), (0, 4), (1, 3)]))
        assert isinstance(inst, TheoremInstance) and inst.lhs == inst.rhs


class TestCorollaries:
    def test_even_size_checks_full_pairings(self):
        report = verify_range("corollaries", 6, 6)
        assert report.passed and report.checked == 15

    def test_odd_size_checks_full_quasis(self):
        assert verify_range("corollaries", 5, 5).checked == 30
        assert verify_range("corollaries", 7, 7).checked == 630

    def test_below_thresholds_checks_nothing(self):
        assert verify_range("corollaries", 4, 4).checked == 0
        assert verify_range("corollaries", 3, 3).checked == 0

    def test_range_merge(self):
        merged = verify_range("corollaries", 5, 6)
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


# Families over 0..5, checked at n = 5 below.
PAIRING6 = Pairing(6, [(0, 2), (1, 4)])
QUASI6 = QuasiPairing(6, [(0, 2), (2, 4), (1, 3)])


class TestSizeMismatch:
    @pytest.mark.parametrize("entry, family", [
        # A family of another kind, too: the size is checked first.
        *[
            (partial(check_instance, label), family)
            for label, family in (("theorem1", QUASI6), ("theorem3", PAIRING6),
                                  ("corollary1", QUASI6))
        ],
        (_same_size, QUASI6),
        *[
            (partial(check_instance, c.label), PAIRING6 if "pairing" in c.kind else QUASI6)
            for c in CHECKS
        ],
    ])
    def test_family_size_must_match_n(self, entry, family):
        with pytest.raises(ValueError, match="family over n=6 vertices checked at n=5"):
            entry(5, family)


class TestRowKind:
    """``check_instance`` takes only a family of its row's kind."""

    @pytest.mark.parametrize("label, n, family, kind", [
        # Support {0, 2, 4} is order-transversal but not full.
        ("corollary3", 5, QuasiPairing(5, [(0, 2), (2, 4)]), "quasi"),
        ("corollary1", 6, Pairing(6, [(0, 2), (1, 4)]), "pairing"),
        ("theorem3", 5, Pairing(5, [(0, 2), (1, 4)]), "partial-quasi"),
        ("theorem1", 5, QuasiPairing(5, [(0, 2), (2, 4), (1, 3)]), "partial-pairing"),
    ])
    def test_wrong_kind(self, label, n, family, kind):
        with pytest.raises(ValueError, match=f"{label} takes a family of kind '{kind}'"):
            check_instance(label, n, family)

    def test_unknown_label(self):
        with pytest.raises(ValueError, match="unknown row 'theorem4'.*'corollary2'"):
            check_instance("theorem4", 5, Pairing(5, [(0, 2), (1, 4)]))


def not_mirror_invariant(n, shape, reversal):
    # The two sides differ on the family that the walk meets first in a
    # mirror orbit, and agree on its image.
    return True, shape[0] > mirror_pairs(n, shape[0])


def optimized_stdout(child):
    """Standard output of the script ``child`` under python -O."""
    env = dict(os.environ, PYTHONPATH=str(SRC))
    return subprocess.run(
        [sys.executable, "-O", "-c", textwrap.dedent(child)],
        env=env, capture_output=True, text=True, timeout=60, check=True,
    ).stdout


class TestInvariants:
    """Checker invariants raise RuntimeError, so they hold under python -O."""

    def test_c4_endpoint(self, monkeypatch):
        # (C4) needs both neighbours of the hub in the support, which no
        # hub at an end of 0..n-1 has.  A hub that compares equal to every
        # vertex, the ends included, stands in for a broken hub.
        class EveryVertex(int):
            def __eq__(self, other):
                return True

            __hash__ = int.__hash__

        real = revtour.theorems._shape

        def every_vertex_hub(*args):
            pairs, mask, hub, *rest = real(*args)
            return pairs, mask, EveryVertex(hub), *rest

        monkeypatch.setattr("revtour.theorems._shape", every_vertex_hub)
        family = QuasiPairing(5, [(0, 2), (2, 3), (1, 4)])
        with pytest.raises(RuntimeError, match="n=5, pairs '0-2,1-4,2-3'.*endpoint"):
            check_instance("theorem3", 5, family)

    def test_full_support_meets_every_comodule(self, monkeypatch):
        monkeypatch.setattr("revtour.theorems.is_order_transversal", lambda n, mask: False)
        for label, n, family in (
            ("corollary1", 6, Pairing(6, [(0, 2), (1, 4), (3, 5)])),
            ("corollary2", 7, QuasiPairing(7, [(0, 2), (2, 4), (1, 5), (3, 6)])),
            ("corollary3", 5, QuasiPairing(5, [(0, 2), (0, 4), (1, 3)])),
            # A partial row on a family whose support is the whole ground.
            ("theorem1", 6, Pairing(6, [(0, 2), (1, 4), (3, 5)])),
        ):
            with pytest.raises(RuntimeError, match=f"n={n}, pairs '{family.serialize()}'"):
                check_instance(label, n, family)
        with pytest.raises(RuntimeError, match="co-module"):
            verify_range("corollaries", 5, 5)

    def test_corollary3_reduced_c4_agrees(self, monkeypatch):
        real = revtour.theorems._theorem3_conditions

        def flipped_c4(n, shape):
            c2, c3, c4, adjacent = real(n, shape)
            return c2, c3, not c4, adjacent

        monkeypatch.setattr("revtour.theorems._theorem3_conditions", flipped_c4)
        with pytest.raises(RuntimeError, match="n=5, pairs '0-2,0-4,1-3'.*reduced"):
            check_instance("corollary3", 5, QuasiPairing(5, [(0, 2), (0, 4), (1, 3)]))

    def test_mirror_image_has_the_same_sides(self, monkeypatch):
        patch_sides(monkeypatch, theorem3=not_mirror_invariant)
        with pytest.raises(RuntimeError, match="n=5, pairs '0-1,0-2'.*mirror image"):
            verify_range(3, 5, 5)

    def test_raises_under_optimize(self):
        out = optimized_stdout("""
            import sys
            import revtour.theorems as theorems
            from revtour import Pairing
            theorems.is_order_transversal = lambda n, mask: False
            try:
                theorems.check_instance("corollary1", 6, Pairing(6, [(0, 2), (1, 4), (3, 5)]))
            except RuntimeError as exc:
                print(sys.flags.optimize, exc)
        """)
        assert out.startswith("1 invariant broken at n=6, pairs '0-2,1-4,3-5'")

    def test_c4_endpoint_raises_under_optimize_where_nothing_is_filed(self):
        # Theorem 3 at n = 5 files no row, so only the sides see the broken hub.
        out = optimized_stdout("""
            import sys
            import revtour.theorems as theorems

            class EveryVertex(int):
                def __eq__(self, other):
                    return True

                __hash__ = int.__hash__

            real = theorems._shape

            def every_vertex_hub(*args):
                pairs, mask, hub, *rest = real(*args)
                return pairs, mask, EveryVertex(hub), *rest

            print(len(theorems.verify_range(3, 5, 5).violations))
            theorems._shape = every_vertex_hub
            try:
                theorems.verify_range(3, 5, 5)
            except RuntimeError as exc:
                print(sys.flags.optimize, exc)
        """)
        assert out == (
            "0\n1 invariant broken at n=5, pairs '0-1,1-2': (C4) holds with the hub at an endpoint\n"
        )

    def test_mirror_invariant_raises_under_optimize(self):
        out = optimized_stdout("""
            import sys
            import revtour.theorems as theorems
            from revtour.pairs import mirror_pairs

            def not_mirror_invariant(n, shape, reversal):
                return True, shape[0] > mirror_pairs(n, shape[0])

            theorems.CHECKS = tuple(
                theorems.Check(**{**vars(c), "sides": not_mirror_invariant})
                for c in theorems.CHECKS
            )
            theorems._BY_LABEL = {c.label: c for c in theorems.CHECKS}
            try:
                theorems.verify_range(3, 5, 5)
            except RuntimeError as exc:
                print(sys.flags.optimize, exc)
        """)
        assert out.startswith("1 invariant broken at n=5, pairs '0-1,0-2'")
        assert "mirror image" in out
