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
It reads the pair walk's ``(pairs, mask, twice)`` tuples, and every row
of a family's kind reads one ``Shape`` derived from them once.

The relabeling x -> n-1-x carries T(n, F) to the dual of T(n, mirror F),
which has the same modules, and every side and condition above is
invariant under it.  So ``verify_range`` checks one family per mirror
orbit, the one enumerated first, and counts both members.  A family
object is built only for a filed row; its mirror image is checked too
and filed beside it.

With ``jobs`` = N > 1 the walks are dealt into N shards.  The caller
checks shard 0 itself and forks one child for each other shard, which
sends back its count of checked rows and its filed instances; a child
that fails or dies makes the run fail, never hang.
"""

from __future__ import annotations

import os
import time
import warnings
from dataclasses import dataclass, field
from typing import Callable, Iterator

from .core import is_indecomposable_rows, module_rows, reversal_rows
from .enumeration import EnumSpec, check_guard
# The walk's (pairs, mask, twice) tuples, bound to the name under which
# perfbench/spans.py traces the enumeration layer of this module.
from .enumeration import _family_tuples as enumerate_families
from .pairs import (
    PairFamily,
    Pairing,
    QuasiPairing,
    _invariant_broken,
    _irreducible,
    _partners,
    _same_size,
    classify,
    is_order_transversal,
    mirror_pairs,
    mirrored,
)

# The characterizations are stated for ground sets of at least 5 vertices.
CHARACTERIZATION_MIN_N = 5

Sides = tuple[bool, bool, dict[str, bool]]
# What every row reads of a family: its sorted pairs, support mask, hub, the
# hub's partners low < high (all three -1 without a hub) and transversality.
Shape = tuple[tuple[tuple[int, int], ...], int, int, int, int, bool]
# The out-rows of T(n, F) and a nontrivial module of T(n, F), 0 when it has none.
Reversal = tuple[list[int], int]
# Rows, size, the walk's (pairs, mask, twice) for a mirror orbit's first member,
# and whether its mirror image is another family.
Task = tuple[tuple[str, ...], int, tuple[tuple, int, int], bool]
Plan = list[tuple[tuple[str, ...], EnumSpec]]


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


def _shape(n: int, pairs: tuple, mask: int, hub: int) -> Shape:
    """The ``Shape`` of the family with these sorted pairs, support mask and hub."""
    low, high = _partners(pairs, hub) if hub >= 0 else (-1, -1)
    return pairs, mask, hub, low, high, is_order_transversal(n, mask)


def _theorem1_sides(n: int, shape: Shape, reversal: Reversal) -> Sides:
    pairs, mask, *_, transversal = shape
    irreducible = _irreducible(mask, pairs)
    return not reversal[1], irreducible and transversal, {
        "irreducible": irreducible, "transversal": transversal
    }


def _theorem2_sides(n: int, shape: Shape, reversal: Reversal) -> Sides:
    pairs, mask, _, low, high, transversal = shape
    whole = not reversal[1]
    drop_low = _deletion_indecomposable(n, reversal, low)
    drop_high = _deletion_indecomposable(n, reversal, high)
    lhs = transversal and _irreducible(mask, [*pairs, (low, high)])
    return lhs, whole or drop_low or drop_high, {
        "whole": whole, "drop_low": drop_low, "drop_high": drop_high
    }


def _deletion_indecomposable(n: int, reversal: Reversal, d: int) -> bool:
    """Whether T(n, F) - d is indecomposable.  A module M of T(n, F) leaves
    the module M - d of T(n, F) - d: a search is needed only when that is trivial."""
    rest = (1 << n) - 1 ^ 1 << d
    left = reversal[1] & rest
    return not (left & left - 1 and left != rest) and is_indecomposable_rows(reversal[0], rest)


def theorem1_sides(n: int, family: PairFamily) -> tuple[bool, bool]:
    """(indecomposable, irreducible-transversal) for a partial pairing."""
    _warn_outside_hypothesis(n)
    return _sides(("theorem1",), n, _family_shape("theorem1", n, family))[0][:2]


def theorem2_sides(n: int, family: PairFamily) -> tuple[bool, bool]:
    """(irreducible-transversal, some-deletion-indecomposable) for a quasi-pairing."""
    _warn_outside_hypothesis(n)
    return _sides(("theorem2",), n, _family_shape("theorem2", n, family))[0][:2]


def theorem3_conditions(n: int, family: PairFamily) -> tuple[bool, bool, bool, bool]:
    """The four conditions (C1)-(C4) for a partial quasi-pairing.

    (C3) and (C4) quantify v over all vertices, but only pairs
    {x, x+2} and {x, x+1} can meet their antecedents, so each is a test
    on the bit mask of such pairs' least ends.
    """
    _warn_outside_hypothesis(n)
    return _theorem3_conditions(n, _family_shape("theorem3", n, family))[:4]


def _theorem3_conditions(n: int, shape: Shape) -> tuple[bool, bool, bool, bool, int]:
    """(C1)-(C4), then the bit mask of x over the family's pairs {x, x + 1}."""
    pairs, mask, hub, low, high, transversal = shape
    c1 = transversal and _irreducible(mask, [*pairs, (low, high)])
    c2 = high >= low + 2
    # Bit masks of x over the pairs {x, x + 1} and over the pairs {x, x + 2}.
    adjacent = spans2 = 0
    for x, y in pairs:
        adjacent |= (y - x == 1) << x
        spans2 |= (y - x == 2) << x
    # {x, x+2} and {x+1, x+3} together need the hub at x or x+3.
    c3 = not spans2 & spans2 >> 1 & ~(1 << hub | 1 << hub >> 3)
    # Each {x, x+1} must hold the hub, whose two neighbours lie in the support.
    c4 = not adjacent or (
        not adjacent & ~(1 << hub | 1 << hub >> 1) and mask << 1 >> hub & 5 == 5
    )
    if c4 and adjacent and hub in (0, n - 1):
        # The neighbour requirement already rules out the endpoints.
        raise _invariant_broken(n, pairs, "(C4) holds with the hub at an endpoint")
    return c1, c2, c3, c4, adjacent


def _theorem3_sides(n: int, shape: Shape, reversal: Reversal) -> Sides:
    pairs, mask, hub, *_ = shape
    c1, c2, c3, c4, adjacent = _theorem3_conditions(n, shape)
    # On full support corollary 3's reduced (C4) must agree with (C4).
    if mask == (1 << n) - 1 and _reduced_c4(n, hub, adjacent) != c4:
        raise _invariant_broken(n, pairs, "the reduced (C4) disagrees with (C4)")
    return not reversal[1], c1 and c2 and c3 and c4, {"c1": c1, "c2": c2, "c3": c3, "c4": c4}


def theorem3_check(n: int, family: PairFamily) -> TheoremInstance:
    """Indecomposability of the reversed tournament against conditions (C1)-(C4)."""
    _warn_outside_hypothesis(n)
    return check_instance("theorem3", n, family)


def _corollary1_sides(n: int, shape: Shape, reversal: Reversal) -> Sides:
    # Corollary 1 states theorem 1's equivalence with irreducibility on the left.
    indecomposable, irreducible, details = _theorem1_sides(n, shape, reversal)
    return irreducible, indecomposable, {"transversal": details["transversal"]}


def _reduced_c4(n: int, hub: int, adjacent: int) -> bool:
    """Corollary 3's (C4) from the mask of x over pairs {x, x+1}: the hub, not an end, in each."""
    return not adjacent or (not adjacent & ~(1 << hub | 1 << hub >> 1) and 0 < hub < n - 1)


@dataclass(frozen=True)
class Check:
    """One row of the checker table.

    ``run`` is the ``verify_range`` theorem id whose runs include the row,
    ``kind`` the enumerated family kind, ``applies`` the ambient sizes the
    row is checked at, and ``sides`` returns (lhs, rhs, details) from the
    size, the family's ``Shape`` and the ``Reversal`` that all rows checking
    the family share.  At ``one_way_at`` only rhs => lhs is claimed: an
    instance with lhs and not rhs there is recorded, not counted as a
    violation.  Runs start at ``least_n`` or above: theorem 1 needs 3.
    """

    run: int | str
    label: str
    kind: str
    applies: Callable[[int], bool]
    sides: Callable[[int, Shape, Reversal], Sides]
    one_way_at: int | None = None
    least_n: int = 0


# A "corollaries" run files its rows in table order at each n.
CHECKS = (
    Check(1, "theorem1", "partial-pairing", lambda n: True, _theorem1_sides, least_n=3),
    Check(2, "theorem2", "partial-quasi", lambda n: True, _theorem2_sides, one_way_at=5),
    Check(3, "theorem3", "partial-quasi", lambda n: True, _theorem3_sides),
    Check("corollaries", "corollary1", "pairing",
          lambda n: n % 2 == 0 and n >= 6, _corollary1_sides),
    Check("corollaries", "corollary3", "quasi",
          lambda n: n % 2 == 1 and n >= 5, _theorem3_sides),
    Check("corollaries", "corollary2", "quasi",
          lambda n: n % 2 == 1 and n >= 7, _theorem2_sides),
)
_BY_LABEL = {check.label: check for check in CHECKS}


def _family_shape(label: str, n: int, family: PairFamily) -> Shape:
    """The ``Shape`` of a family given to the table row ``label`` over
    0..n-1; ValueError when the family is not of the row's kind."""
    if label not in _BY_LABEL:
        raise ValueError(f"unknown row {label!r}, want one of {tuple(_BY_LABEL)}")
    _same_size(n, family)
    kind = _BY_LABEL[label].kind
    full = family.mask if kind.startswith("partial") else (1 << n) - 1
    wanted = "quasi-pairing" if "quasi" in kind else "pairing"
    if classify(family) != wanted or family.mask != full:
        raise ValueError(f"{label} takes a family of kind {kind!r}, got {family.serialize()!r}")
    return _shape(n, family.pairs, family.mask, family._hub)


def check_instance(label: str, n: int, family: PairFamily) -> TheoremInstance:
    """Evaluate the table row ``label`` on one family over 0..n-1."""
    sides = _sides((label,), n, _family_shape(label, n, family))[0]
    return TheoremInstance(n, family, *sides, n >= CHARACTERIZATION_MIN_N, label)


def _sides(labels: tuple[str, ...], n: int, shape: Shape) -> list[Sides]:
    """The sides of the named rows, all of one kind, which share T(n, F) and a module of it."""
    pairs, *_, transversal = shape
    if not transversal and not _BY_LABEL[labels[0]].kind.startswith("partial"):
        raise _invariant_broken(n, pairs, "full support misses a minimal co-module")
    rows = reversal_rows(n, pairs)
    reversal = rows, module_rows(rows, (1 << n) - 1)
    return [_BY_LABEL[label].sides(n, shape, reversal) for label in labels]


def _orbit_tasks(plan: Plan, max_n: int | None, shard=(0, 1)) -> Iterator[Task]:
    """One task per mirror orbit in the walks' ``shard``, for the member the walk meets first."""
    for labels, spec in plan:
        n = spec.n
        for node in enumerate_families(spec, max_n, shard):
            pairs, top = node[0], node[1].bit_length() - 1
            # The image's least pair is (n - 1 - top, n - 1 - x), x top's largest partner.
            lead = n - 1 - top - pairs[0][0]
            if lead == 0:
                lead = n - 1 - [x for x, y in pairs if y == top][-1] - pairs[0][1]
            if lead > 0:
                yield labels, n, node, True
            elif lead == 0 and pairs <= (image := mirror_pairs(n, pairs)):
                yield labels, n, node, pairs != image


def _check_orbit(task: Task) -> tuple[int, list[TheoremInstance]]:
    """Rows checked on one mirror orbit, and instances made for the rows filed
    only: a family is built only for them, and for their mirror twin."""
    labels, n, (pairs, mask, twice), paired = task
    hub = twice.bit_length() - 1
    rows = zip(labels, _sides(labels, n, _shape(n, pairs, mask, hub)))
    filed = [(label, s) for label, s in rows if s[0] != s[1] and n >= CHARACTERIZATION_MIN_N]
    if not filed:
        return len(labels) * (1 + paired), []
    family = (QuasiPairing if hub >= 0 else Pairing)._from_walk(n, pairs, mask, hub)
    instances = [TheoremInstance(n, family, *s, label=label) for label, s in filed]
    if paired:
        kept = tuple(label for label, _ in filed)
        image = mirrored(family)
        twins = _sides(kept, n, _shape(n, image.pairs, image.mask, image._hub))
        if [s[:2] for s in twins] != [s[:2] for _, s in filed]:
            raise _invariant_broken(n, pairs, "its mirror image has other sides")
        instances += [TheoremInstance(n, image, *s, label=label) for label, s in zip(kept, twins)]
    return len(labels) * (1 + paired), instances


def _check_shard(plan: Plan, max_n: int | None, shard) -> tuple[int, list[TheoremInstance]]:
    """``_check_orbit`` summed over the mirror orbits in ``shard`` of the plan's walks."""
    checked, filed = 0, []
    for rows, instances in map(_check_orbit, _orbit_tasks(plan, max_n, shard)):
        checked += rows
        filed += instances
    return checked, filed


def _run_shards(
    plan: Plan, max_n: int | None, jobs: int
) -> list[tuple[int, list[TheoremInstance]]]:
    """``_check_shard`` on the shards (0, jobs), ..., (jobs - 1, jobs), in that order.

    The caller checks shard 0 itself, after forking one child for each
    other shard.  A child pickles its result, or the exception it raised,
    into its own pipe and leaves through ``os._exit`` alone, so it never
    returns into the caller's code or flushes the caller's buffered output.
    An exception from a child is raised again here, and a child that exits
    without a result is a RuntimeError.  However this returns or raises,
    every child has been killed or has exited, has been reaped, and every
    pipe is closed.  revtour starts no thread, which keeps forking safe.
    """
    if jobs == 1:
        return [_check_shard(plan, max_n, (0, 1))]
    # Here, so that a serial run never loads them.
    import pickle
    import signal

    pids: dict[int, int] = {}  # children not reaped yet, by shard index
    pipes = {}  # the read end of each child's pipe, by shard index
    try:
        for i in range(1, jobs):
            r, w = os.pipe()
            pipes[i] = open(r, "rb")
            # The caller's copy of the write end closes on leaving this block,
            # so its read reaches EOF once the child exits.
            with open(w, "wb") as sink:
                pid = os.fork()
                if pid == 0:
                    status = 1
                    try:
                        # Without a reader of its own, a child whose caller
                        # died gets EPIPE instead of blocking on a full pipe.
                        for pipe in pipes.values():
                            pipe.close()
                        try:
                            sent = pickle.dumps((True, _check_shard(plan, max_n, (i, jobs))))
                        except Exception as exc:
                            sent = pickle.dumps((False, exc))
                        sink.write(sent)
                        sink.flush()
                        status = 0
                    finally:
                        os._exit(status)
                pids[i] = pid
        results = [_check_shard(plan, max_n, (0, jobs))]
        for i in range(1, jobs):
            # Read to EOF before reaping: a child blocks on a full pipe.
            with pipes[i] as pipe:
                sent = pipe.read()
            status = os.waitpid(pids[i], 0)[1]
            del pids[i]
            if status:
                code = os.waitstatus_to_exitcode(status)
                how = f"status {code}" if code > 0 else f"signal {-code}"
                raise RuntimeError(f"shard ({i}, {jobs}) exited with {how} and sent no result")
            done, value = pickle.loads(sent)
            if not done:
                raise value
            results.append(value)
        return results
    finally:
        for pid in pids.values():
            os.kill(pid, signal.SIGKILL)
            os.waitpid(pid, 0)
        for pipe in pipes.values():
            pipe.close()


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
    never counted as violations.  One family per mirror orbit is checked
    and ``checked`` counts both members.  Filed instances are ordered by
    n, then table row, then enumeration order, whatever the job count.
    ``jobs`` must be at least 1 and is capped at the number of CPUs; more
    than 1 needs ``os.fork``.
    """
    checks = [check for check in CHECKS if check.run == theorem]
    if not checks:
        raise ValueError(f"unknown theorem id {theorem!r}, want 1, 2, 3, or 'corollaries'")
    if n_min > n_max:
        raise ValueError(f"empty range {n_min}..{n_max}")
    if n_min < (least := max(check.least_n for check in checks)):
        raise ValueError(f"theorem {theorem} is checked from n = {least}, got n = {n_min}")
    if jobs < 1:
        raise ValueError(f"jobs must be at least 1, got {jobs}")
    if jobs > 1 and not hasattr(os, "fork"):
        raise ValueError(f"jobs > 1 needs os.fork, which this platform lacks; got {jobs}")
    jobs = min(jobs, os.cpu_count() or 1)
    start = time.perf_counter()
    report = VerificationReport(theorem, n_min, n_max)
    # One enumeration per (n, kind), streamed through every row of that kind.
    plan = [
        (tuple(c.label for c in checks if c.kind == kind and c.applies(n)), EnumSpec(n, kind))
        for n in range(n_min, n_max + 1)
        for kind in dict.fromkeys(c.kind for c in checks if c.applies(n))
    ]
    for _, spec in plan:
        check_guard(spec, max_n)
    for checked, filed in _run_shards(plan, max_n, jobs):
        report.checked += checked
        for inst in filed:
            one_way = inst.lhs and inst.n == _BY_LABEL[inst.label].one_way_at
            (report.recorded if one_way else report.violations).append(inst)
    # Rows arrive interleaved, orbit by orbit and shard by shard; file them in
    # table order at each n, then in the walk's order, that of the pair tuples.
    rows = [check.label for check in checks]
    for filed in (report.violations, report.recorded):
        filed.sort(key=lambda inst: (inst.n, rows.index(inst.label), inst.family.pairs))
    report.ms = (time.perf_counter() - start) * 1000
    return report


def corollary_checks(n: int, max_n: int | None = None) -> VerificationReport:
    """Check every corollary applicable at n over full-support families."""
    return verify_range("corollaries", n, n, max_n=max_n)


def corollaries_range(n_min: int, n_max: int, max_n: int | None = None) -> VerificationReport:
    """Check every applicable corollary over a range of ambient sizes."""
    return verify_range("corollaries", n_min, n_max, max_n=max_n)
