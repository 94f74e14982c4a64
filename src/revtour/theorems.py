"""Decidable forms of the three characterization theorems, checked
exhaustively over enumerated instances.

Write T(n, F) for the tournament obtained from the total order on
0..n-1 by reversing the pair family F.  The theorems verified here, for
n >= 5 unless noted:

Theorem 1 (partial pairings P).  T(n, P) is indecomposable exactly when
P is an irreducible pairing whose support meets every minimal co-module
of the total order.

Theorem 2 (partial quasi-pairings Q, hub partners low < high).  Q is an
irreducible quasi-pairing whose support meets every minimal co-module
exactly when at least one of T(n, Q), T(n, Q) - low, T(n, Q) - high is
indecomposable; at n = 5 only the right-to-left implication is claimed.

Theorem 3 (partial quasi-pairings Q).  T(n, Q) is indecomposable exactly
when (C1) Q is an irreducible quasi-pairing of such a transversal, (C2)
high >= low + 2, (C3) whenever {v, v+2} and {v+1, v+3} both belong to Q
the hub is v or v+3, and (C4) whenever {v, v+1} belongs to Q the hub is
v or v+1 and both hub-1 and hub+1 lie in the support.

Corollaries restrict to full-support families, where the transversal
clause is automatic: irreducibility alone matches indecomposability for
pairings of even ground sets of size >= 6 (Corollary 1) and matches the
deleted-vertex disjunction for quasi-pairings of odd ground sets of size
>= 7 (Corollary 2); for odd sizes >= 5, indecomposability of T(n, Q)
matches conditions (C1)-(C4) with (C4) reduced to hub membership in
{v, v+1} minus the endpoints (Corollary 3).

``CHECKS`` is the single place where a check is defined: one row per
theorem and corollary, giving its family kind, the ambient sizes where
it applies, its two sides and its filing rule.  One driver,
``verify_range``, runs the rows of a theorem id or of "corollaries".
"""

from __future__ import annotations

import multiprocessing
import os
import time
import warnings
from dataclasses import dataclass, field
from typing import Callable

from .comodules import is_transversal, minimal_comodules_total_order
from .core import delete_vertex, is_indecomposable, reverse_pairs, transitive
from .enumeration import EnumSpec, enumerate_families
from .pairs import (
    PairFamily,
    anatomy,
    classify,
    is_irreducible_pairing,
    is_irreducible_quasi,
)

# The characterizations are stated for ground sets of at least 5 vertices.
CHARACTERIZATION_MIN_N = 5

Sides = tuple[bool, bool, dict[str, bool]]


@dataclass(frozen=True)
class TheoremInstance:
    """Both sides of one theorem check, with per-condition detail booleans."""

    n: int
    family: PairFamily
    lhs: bool
    rhs: bool
    details: dict[str, bool]
    in_hypothesis: bool = True
    label: str = ""

    def to_record(self) -> dict:
        return {
            "n": self.n,
            "pairs": self.family.serialize(),
            "lhs": self.lhs,
            "rhs": self.rhs,
            "details": dict(self.details),
            "in_hypothesis": self.in_hypothesis,
            "label": self.label,
        }


@dataclass
class VerificationReport:
    """Outcome of checking one theorem over a range of ambient sizes."""

    theorem: int | str
    n_min: int
    n_max: int
    checked: int = 0
    violations: list[TheoremInstance] = field(default_factory=list)
    recorded: list[TheoremInstance] = field(default_factory=list)
    ms: float = 0.0

    @property
    def passed(self) -> bool:
        return not self.violations

    def to_json(self) -> dict:
        return {
            "theorem": self.theorem,
            "n_range": [self.n_min, self.n_max],
            "checked": self.checked,
            "violations": [inst.to_record() for inst in self.violations],
            "recorded": [inst.to_record() for inst in self.recorded],
            "ms": round(self.ms, 3),
        }


def _warn_outside_hypothesis(n: int) -> None:
    if n < CHARACTERIZATION_MIN_N:
        warnings.warn(
            f"characterizations are stated for n >= {CHARACTERIZATION_MIN_N}; "
            f"n={n} is computed but outside the hypothesis",
            stacklevel=3,
        )


def _invariant_broken(n: int, family: PairFamily, what: str) -> RuntimeError:
    return RuntimeError(f"invariant broken at n={n}, pairs {family.serialize()!r}: {what}")


def _theorem1_sides(n: int, family: PairFamily) -> Sides:
    if classify(family) != "pairing":
        raise ValueError("theorem 1 takes a partial pairing")
    irreducible = is_irreducible_pairing(family)
    transversal = is_transversal(family.support, minimal_comodules_total_order(n))
    lhs = is_indecomposable(reverse_pairs(transitive(n), family))
    return lhs, irreducible and transversal, {
        "irreducible": irreducible, "transversal": transversal
    }


def _theorem2_sides(n: int, family: PairFamily) -> Sides:
    shape = anatomy(family)
    t = reverse_pairs(transitive(n), family)
    whole = is_indecomposable(t)
    drop_low = is_indecomposable(delete_vertex(t, shape.low))
    drop_high = is_indecomposable(delete_vertex(t, shape.high))
    lhs = is_irreducible_quasi(family) and is_transversal(
        family.support, minimal_comodules_total_order(n)
    )
    return lhs, whole or drop_low or drop_high, {
        "whole": whole, "drop_low": drop_low, "drop_high": drop_high
    }


def theorem1_sides(n: int, family: PairFamily) -> tuple[bool, bool]:
    """(indecomposable, irreducible-transversal) for a partial pairing."""
    _warn_outside_hypothesis(n)
    lhs, rhs, _ = _theorem1_sides(n, family)
    return lhs, rhs


def theorem2_sides(n: int, family: PairFamily) -> tuple[bool, bool]:
    """(irreducible-transversal, some-deletion-indecomposable) for a quasi-pairing."""
    _warn_outside_hypothesis(n)
    lhs, rhs, _ = _theorem2_sides(n, family)
    return lhs, rhs


def theorem3_conditions(n: int, family: PairFamily) -> tuple[bool, bool, bool, bool]:
    """The four conditions (C1)-(C4) for a partial quasi-pairing.

    (C3) and (C4) quantify v over all vertices; membership tests make
    out-of-range references fail the antecedent or the consequent as
    written, so no extra range guards are needed.
    """
    _warn_outside_hypothesis(n)
    shape = anatomy(family)
    supp = family.support
    pairset = set(family.pairs)
    c1 = is_irreducible_quasi(family) and is_transversal(
        supp, minimal_comodules_total_order(n)
    )
    c2 = shape.high >= shape.low + 2
    c3 = not any(
        (v, v + 2) in pairset
        and (v + 1, v + 3) in pairset
        and shape.hub not in (v, v + 3)
        for v in range(n)
    )
    c4 = not any(
        (v, v + 1) in pairset
        and not (
            shape.hub in (v, v + 1)
            and shape.hub - 1 in supp
            and shape.hub + 1 in supp
        )
        for v in range(n)
    )
    if c4 and shape.hub in (0, n - 1) and any((v, v + 1) in pairset for v in range(n)):
        # The containment requirement already rules out the endpoints.
        raise _invariant_broken(n, family, "(C4) holds with the hub at an endpoint")
    return c1, c2, c3, c4


def _theorem3_sides(n: int, family: PairFamily) -> Sides:
    with warnings.catch_warnings():
        warnings.simplefilter("ignore")
        c1, c2, c3, c4 = theorem3_conditions(n, family)
    lhs = is_indecomposable(reverse_pairs(transitive(n), family))
    return lhs, c1 and c2 and c3 and c4, {"c1": c1, "c2": c2, "c3": c3, "c4": c4}


def theorem3_check(n: int, family: PairFamily) -> TheoremInstance:
    """Indecomposability of the reversed tournament against conditions (C1)-(C4)."""
    _warn_outside_hypothesis(n)
    return check_instance("theorem3", n, family)


def _corollary1_sides(n: int, family: PairFamily) -> Sides:
    # Corollary 1 states theorem 1's equivalence with irreducibility on the left.
    indecomposable, irreducible, details = _theorem1_sides(n, family)
    return irreducible, indecomposable, {"transversal": details["transversal"]}


def _corollary3_sides(n: int, family: PairFamily) -> Sides:
    lhs, rhs, details = _theorem3_sides(n, family)
    hub = anatomy(family).hub
    pairset = set(family.pairs)
    reduced_c4 = not any(
        (v, v + 1) in pairset and hub not in {v, v + 1} - {0, n - 1}
        for v in range(n)
    )
    # On full support the two readings of the adjacent-pair condition agree.
    if reduced_c4 != details["c4"]:
        raise _invariant_broken(n, family, "the reduced (C4) disagrees with (C4)")
    return lhs, rhs, details


@dataclass(frozen=True)
class Check:
    """One row of the checker table.

    ``run`` is the ``verify_range`` theorem id whose runs include the row,
    ``kind`` the enumerated family kind, ``applies`` the ambient sizes the
    row is checked at, and ``sides`` returns (lhs, rhs, details).  At
    ``one_way_at`` only rhs => lhs is claimed: an instance with lhs and
    not rhs there is recorded, not counted as a violation.
    """

    run: int | str
    label: str
    kind: str
    applies: Callable[[int], bool]
    sides: Callable[[int, PairFamily], Sides]
    one_way_at: int | None = None


# A "corollaries" run files its rows in table order at each n.
CHECKS = (
    Check(1, "theorem1", "partial-pairing", lambda n: True, _theorem1_sides),
    Check(2, "theorem2", "partial-quasi", lambda n: True, _theorem2_sides, one_way_at=5),
    Check(3, "theorem3", "partial-quasi", lambda n: True, _theorem3_sides),
    Check("corollaries", "corollary1", "pairing",
          lambda n: n % 2 == 0 and n >= 6, _corollary1_sides),
    Check("corollaries", "corollary3", "quasi",
          lambda n: n % 2 == 1 and n >= 5, _corollary3_sides),
    Check("corollaries", "corollary2", "quasi",
          lambda n: n % 2 == 1 and n >= 7, _theorem2_sides),
)
_BY_LABEL = {check.label: check for check in CHECKS}


def check_instance(label: str, n: int, family: PairFamily) -> TheoremInstance:
    """Evaluate the table row ``label`` on one family over 0..n-1."""
    check = _BY_LABEL[label]
    lhs, rhs, details = check.sides(n, family)
    if not check.kind.startswith("partial") and not is_transversal(
        family.support, minimal_comodules_total_order(n)
    ):
        raise _invariant_broken(n, family, "full support misses a minimal co-module")
    return TheoremInstance(
        n, family, lhs, rhs, details,
        in_hypothesis=n >= CHARACTERIZATION_MIN_N, label=label,
    )


def _map_instances(
    label: str, n: int, families: list[PairFamily], jobs: int
) -> list[TheoremInstance]:
    if jobs <= 1 or len(families) < 64:
        return [check_instance(label, n, f) for f in families]
    tasks = [(label, n, f) for f in families]
    with multiprocessing.Pool(jobs) as pool:
        chunk = max(16, len(tasks) // (jobs * 8))
        return pool.starmap(check_instance, tasks, chunksize=chunk)


def _file_instance(report: VerificationReport, check: Check, inst: TheoremInstance) -> None:
    report.checked += 1
    if not inst.in_hypothesis or inst.lhs == inst.rhs:
        return
    if inst.n == check.one_way_at and inst.lhs:
        report.recorded.append(inst)
    else:
        report.violations.append(inst)


def verify_range(
    theorem: int | str,
    n_min: int,
    n_max: int,
    jobs: int = 1,
    max_n: int | None = None,
) -> VerificationReport:
    """Check a theorem (1, 2 or 3) or "corollaries" over every enumerated
    instance with n_min <= n <= n_max.

    Instances outside the stated hypothesis are evaluated and tagged but
    never counted as violations.  Instance order is the enumeration
    order, independent of the job count.  ``jobs`` must be at least 1 and
    is capped at the number of CPUs.
    """
    checks = [check for check in CHECKS if check.run == theorem]
    if not checks:
        raise ValueError(f"unknown theorem id {theorem!r}, want 1, 2, 3, or 'corollaries'")
    if n_min > n_max:
        raise ValueError(f"empty range {n_min}..{n_max}")
    if jobs < 1:
        raise ValueError(f"jobs must be at least 1, got {jobs}")
    jobs = min(jobs, os.cpu_count() or 1)
    start = time.perf_counter()
    report = VerificationReport(theorem, n_min, n_max)
    for n in range(n_min, n_max + 1):
        for check in checks:
            if not check.applies(n):
                continue
            families = list(enumerate_families(EnumSpec(n, check.kind), max_n=max_n))
            for inst in _map_instances(check.label, n, families, jobs):
                _file_instance(report, check, inst)
    report.ms = (time.perf_counter() - start) * 1000
    return report


def corollary_checks(n: int, max_n: int | None = None) -> VerificationReport:
    """Check every corollary applicable at n over full-support families."""
    return verify_range("corollaries", n, n, max_n=max_n)


def corollaries_range(n_min: int, n_max: int, max_n: int | None = None) -> VerificationReport:
    """Check every applicable corollary over a range of ambient sizes."""
    return verify_range("corollaries", n_min, n_max, max_n=max_n)
