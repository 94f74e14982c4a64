"""Acceptance criteria, one test per criterion, each with its time budget.

Run with ``pytest tests/test_acceptance.py -v -s`` to see one line per
criterion.  Criterion 7 pins 4 irreducible pairings of a 6-point ground
set, listed by hand below, and 27 of an 8-point one, both from the
connected chord diagram recurrence (OEIS A000699).  It once pinned 3,
which counts the 6-point pairings up to the mirror x -> 5 - x (3 orbits),
not the pairings themselves.
"""

import random
import time
import warnings
from itertools import permutations

from revtour import (
    EnumSpec,
    Pairing,
    Tournament,
    all_modules_bruteforce,
    canonical_form,
    comodular_index_total_order,
    dual,
    enumerate_families,
    indecomposable_census,
    indecomposable_implies_transversal,
    is_indecomposable,
    is_irreducible_pairing,
    is_module,
    max_comodular_decomposition_bruteforce,
    minimal_comodules_bruteforce,
    minimal_comodules_total_order,
    mirrored,
    module_closure,
    relabel,
    reverse_pairs,
    theorem1_sides,
    transitive,
    verify_range,
)
from revtour.core import pair_count
from revtour.theorems import check_instance


def report(number: int, ok: bool, detail: str) -> None:
    print(f"criterion {number}: {'PASS' if ok else 'FAIL'} ({detail})")


def witness5() -> Tournament:
    return reverse_pairs(transitive(5), [(0, 2), (1, 4)])


def connected_chord_diagrams(k: int) -> int:
    """Irreducible pairings of 2k points, OEIS A000699 (Stein, 1978).

    a(1) = 1 and a(k) = (k - 1) * sum(a(i) * a(k - i) for i in 1..k-1).
    """
    a = [0, 1]
    for j in range(2, k + 1):
        a.append((j - 1) * sum(a[i] * a[j - i] for i in range(1, j)))
    return a[k]


# The irreducible pairings of {0, ..., 5}, written out by hand: in each,
# no nontrivial interval of 0..5 is a union of pairs.  The mirror
# x -> 5 - x fixes the first two and swaps the last two, so they make up
# 3 mirror orbits.
IRREDUCIBLE_PAIRINGS_OF_SIX = {
    ((0, 2), (1, 4), (3, 5)),
    ((0, 3), (1, 4), (2, 5)),
    ((0, 3), (1, 5), (2, 4)),
    ((0, 4), (1, 3), (2, 5)),
}


def test_criterion_1_small_tournament_census():
    start = time.perf_counter()
    seen: set[int] = set()
    reps: list[Tournament] = []
    perms = list(permutations(range(5)))
    for bits in range(1 << pair_count(5)):
        if bits in seen:
            continue
        t = Tournament(5, bits)
        orbit = {relabel(t, p).bits for p in perms}
        seen |= orbit
        reps.append(t)
    classes = len(reps)
    indecomposable_classes = sum(is_indecomposable(t) for t in reps)
    labeled_total = len(seen)
    four_ok = all(not is_indecomposable(Tournament(4, b)) for b in range(1 << 6))
    elapsed = time.perf_counter() - start
    ok = (
        classes == 12
        and indecomposable_classes == 3
        and labeled_total == 1024
        and four_ok
        and elapsed < 1.0
    )
    report(1, ok, f"{classes} classes, {indecomposable_classes} indecomposable, {elapsed:.2f}s")
    assert labeled_total == 1024
    assert classes == 12
    assert indecomposable_classes == 3
    assert four_ok
    assert elapsed < 1.0


def test_criterion_2_formulas_match_oracles():
    start = time.perf_counter()
    for n in range(3, 11):
        assert (
            minimal_comodules_total_order(n).members
            == minimal_comodules_bruteforce(transitive(n)).members
        )
    for n in range(3, 10):
        exact = len(max_comodular_decomposition_bruteforce(transitive(n)))
        assert comodular_index_total_order(n) == exact
    elapsed = time.perf_counter() - start
    ok = elapsed < 30.0
    report(2, ok, f"minimal families 3..10 and index 3..9 exact, {elapsed:.2f}s")
    assert elapsed < 30.0


def test_criterion_3_support_transversal_implication():
    start = time.perf_counter()
    checked = 0
    violations = 0
    for n in range(3, 9):
        for kind in ("partial-pairing", "partial-quasi"):
            for family in enumerate_families(EnumSpec(n, kind)):
                checked += 1
                if not indecomposable_implies_transversal(n, family):
                    violations += 1
    elapsed = time.perf_counter() - start
    ok = violations == 0 and elapsed < 60.0
    report(3, ok, f"{checked} families, {violations} violations, {elapsed:.2f}s")
    assert violations == 0
    assert elapsed < 60.0


def test_criterion_4_pairing_characterization():
    start = time.perf_counter()
    rep = verify_range(1, 5, 8)
    boundary = Pairing(4, [(0, 2), (1, 3)])
    with warnings.catch_warnings():
        warnings.simplefilter("ignore")
        lhs, rhs = theorem1_sides(4, boundary)
    boundary_ok = (
        (lhs, rhs) == (False, True)
        and is_irreducible_pairing(boundary)
        and is_module(reverse_pairs(transitive(4), boundary), {0, 3})
    )
    elapsed = time.perf_counter() - start
    ok = rep.passed and boundary_ok and elapsed < 60.0
    report(4, ok, f"{rep.checked} instances, {len(rep.violations)} violations, {elapsed:.2f}s")
    assert rep.passed
    assert boundary_ok
    assert elapsed < 60.0


def test_criterion_5_deletion_characterization():
    start = time.perf_counter()
    at_five = list(enumerate_families(EnumSpec(5, "partial-quasi")))
    assert len(at_five) == 60
    rep = verify_range(2, 5, 8)
    elapsed = time.perf_counter() - start
    ok = rep.passed and elapsed < 120.0
    report(
        5,
        ok,
        f"{rep.checked} instances, {len(rep.violations)} violations, "
        f"{len(rep.recorded)} recorded converse gaps at n=5, {elapsed:.2f}s",
    )
    assert rep.passed
    assert elapsed < 120.0


def test_criterion_6_exact_quasi_characterization():
    start = time.perf_counter()
    rep = verify_range(3, 5, 8)
    records = indecomposable_census(EnumSpec(5, "partial-quasi"))
    by_class: dict[int, int] = {}
    for record in records:
        by_class[record.class_id] = by_class.get(record.class_id, 0) + 1
    keys = {canonical_form(r.tournament) for r in records}
    witness_key = canonical_form(witness5())
    census_ok = (
        len(records) == 11
        and len(keys) == 2
        and witness_key in keys
        and canonical_form(transitive(5)) not in keys
        # Frozen multiplicities: 7 in the witness class, 4 in the other.
        and sorted(by_class.values()) == [4, 7]
    )
    elapsed = time.perf_counter() - start
    ok = rep.passed and census_ok and elapsed < 120.0
    report(
        6,
        ok,
        f"{rep.checked} instances, census {len(records)} members in {len(keys)} classes, "
        f"{elapsed:.2f}s",
    )
    assert rep.passed
    assert census_ok
    assert elapsed < 120.0


def test_criterion_7_full_pairing_census_identity():
    start = time.perf_counter()
    counts = {}
    irreducible_at = {}
    for m in (6, 8):
        families = list(enumerate_families(EnumSpec(m, "pairing")))
        irreducible = {f.pairs for f in families if is_irreducible_pairing(f)}
        indecomposable = {
            f.pairs
            for f in families
            if is_indecomposable(reverse_pairs(transitive(m), f))
        }
        assert irreducible == indecomposable
        counts[m] = (len(irreducible), len(indecomposable))
        irreducible_at[m] = irreducible
    elapsed = time.perf_counter() - start
    expected = {m: connected_chord_diagrams(m // 2) for m in (6, 8)}
    ok = (
        irreducible_at[6] == IRREDUCIBLE_PAIRINGS_OF_SIX
        and counts[6] == (expected[6], expected[6])
        and counts[8] == (expected[8], expected[8])
        and elapsed < 10.0
    )
    report(
        7,
        ok,
        f"sets equal at m=6,8; m=6 counts {counts[6]}, m=8 counts {counts[8]}, "
        f"A000699 gives {expected[6]} and {expected[8]}; {elapsed:.2f}s",
    )
    assert elapsed < 10.0
    # Expected values from outside revtour: the hand-listed pairings of
    # 6 points and the A000699 recurrence, which gives 4 and 27.
    assert expected == {6: len(IRREDUCIBLE_PAIRINGS_OF_SIX), 8: 27}
    assert irreducible_at[6] == IRREDUCIBLE_PAIRINGS_OF_SIX
    assert counts[6] == (4, 4)
    assert counts[8] == (27, 27)


def test_criterion_8_property_suite():
    start = time.perf_counter()
    rng = random.Random(20240817)
    cases = 0

    def random_tournament(n: int) -> Tournament:
        return Tournament(n, rng.getrandbits(pair_count(n)))

    def random_pairs(n: int) -> list[tuple[int, int]]:
        every = [(x, y) for x in range(n) for y in range(x + 1, n)]
        return rng.sample(every, rng.randint(0, len(every)))

    # Reversal involution, dual commutation, dual-module invariance.
    for _ in range(10_000):
        n = rng.randint(2, 8)
        t = random_tournament(n)
        pairs = random_pairs(n)
        members = [v for v in range(n) if rng.random() < 0.5]
        assert reverse_pairs(reverse_pairs(t, pairs), pairs) == t
        assert dual(reverse_pairs(t, pairs)) == reverse_pairs(dual(t), pairs)
        assert is_module(t, members) == is_module(dual(t), members)
        cases += 1

    # Module-closure minimality against the subset oracle.
    for _ in range(150):
        n = rng.randint(3, 10)
        t = random_tournament(n)
        modules = all_modules_bruteforce(t)
        for x in range(n):
            for y in range(x + 1, n):
                closure = module_closure(t, {x, y})
                candidates = [m for m in modules if {x, y} <= m]
                least = min(candidates, key=len)
                assert closure in modules
                assert all(closure <= m for m in candidates)
                assert len(closure) == len(least)
                cases += 1

    # Mirror relabeling preserves every theorem side, exhaustively at
    # n = 5..6 and sampled at n = 7.
    def mirror_invariant(label, n, family):
        direct = check_instance(label, n, family)
        image = check_instance(label, n, mirrored(family))
        return (direct.lhs, direct.rhs) == (image.lhs, image.rhs)

    for n in (5, 6):
        for family in enumerate_families(EnumSpec(n, "partial-pairing")):
            assert mirror_invariant("theorem1", n, family)
            cases += 1
        for family in enumerate_families(EnumSpec(n, "partial-quasi")):
            assert mirror_invariant("theorem2", n, family)
            assert mirror_invariant("theorem3", n, family)
            cases += 2
    sampled = list(enumerate_families(EnumSpec(7, "partial-quasi")))
    for family in rng.sample(sampled, 200):
        assert mirror_invariant("theorem2", 7, family)
        assert mirror_invariant("theorem3", 7, family)
        cases += 2

    elapsed = time.perf_counter() - start
    ok = cases >= 10_000 and elapsed < 120.0
    report(8, ok, f"{cases} cases, 0 failures, {elapsed:.2f}s")
    assert cases >= 10_000
    assert elapsed < 120.0
