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
it applies, its two sides, its named conditions and its filing rule.
One driver, ``verify_range``, runs the rows of a theorem id or of
"corollaries" on one pair walk per (n, kind), after checking the
enumeration guard for all of them.  The sides of a walk's rows are read
once per walk; each orbit's ``(pairs, mask, hub, rows)``, with the
out-rows the walk carries, gets one ``Shape`` and one ``Reversal``, which
every row reads.  Each side is evaluated in order of cost, bit tests,
then irreducibility, then module searches, and stops once it is known.  ``check_instance`` evaluates one row on one family,
with its details; it is the one public entry to a single row.

The relabeling x -> n-1-x carries T(n, F) to the dual of T(n, mirror F),
which has the same modules, and every side and condition above is
invariant under it.  So one family per mirror orbit is checked, the one
enumerated first, and both members are counted.  The walk is asked for
``leads``, so it skips most of the members that come second;
``_orbit_lead`` drops the rest and settles the ties.  Only an orbit with
a filed row builds a family and its details; its mirror image is checked
too and filed beside it.

With ``jobs`` = N > 1 the walks are dealt into N shards.  The caller
checks shard 0 itself and forks one child for each other shard, which
sends back its count of checked rows and its filed instances; a child
that fails or dies makes the run fail, never hang.
"""

from __future__ import annotations

import os
import time
from typing import Callable

from .core import _order_rows, is_indecomposable_rows, module_rows, reversal_rows
from .enumeration import EnumSpec, _orbit_lead, check_guard
# The walk's (pairs, mask, hub, rows) tuples, bound to the name under which
# perfbench/spans.py traces the enumeration layer of this module.
from .enumeration import _family_tuples as enumerate_families
from .pairs import (
    PairFamily,
    Pairing,
    QuasiPairing,
    Record,
    _invariant_broken,
    _irreducible,
    _same_size,
    classify,
    is_order_transversal,
    mirrored,
)

# The characterizations are stated for ground sets of at least 5 vertices.
CHARACTERIZATION_MIN_N = 5

Sides = tuple[bool, bool]
# What every row reads of a family: its sorted pairs, support mask, hub, the
# hub's partners low < high (all three -1 without a hub) and transversality.
Shape = tuple[tuple[tuple[int, int], ...], int, int, int, int, bool]
# The out-rows of T(n, F) and a nontrivial module of T(n, F), 0 when it has none.
Reversal = tuple[list[int], int]
Plan = list[tuple[tuple[str, ...], EnumSpec]]


class TheoremInstance(Record):
    """Both sides of one theorem check, with per-condition detail booleans."""

    def __init__(self, n: int, family: PairFamily, lhs: bool, rhs: bool, details: dict[str, bool],
                 in_hypothesis: bool = True, label: str = "") -> None:
        self.__dict__.update(n=n, family=family, lhs=lhs, rhs=rhs, details=details,
                             in_hypothesis=in_hypothesis, label=label)

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


class VerificationReport(Record):
    """Outcome of checking one theorem over a range of ambient sizes, filled in by verify_range."""

    __setattr__, __delattr__, __hash__ = object.__setattr__, object.__delattr__, None

    def __init__(self, theorem: int | str, n_min: int, n_max: int, checked: int = 0,
                 violations: list[TheoremInstance] | None = None,
                 recorded: list[TheoremInstance] | None = None, ms: float = 0.0) -> None:
        self.__dict__.update(theorem=theorem, n_min=n_min, n_max=n_max, checked=checked,
                             violations=[] if violations is None else violations,
                             recorded=[] if recorded is None else recorded, ms=ms)

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


def _theorem1_sides(n: int, shape: Shape, reversal: Reversal) -> Sides:
    pairs, mask, *_, transversal = shape
    return not reversal[1], transversal and _irreducible(mask, pairs)


def _theorem1_details(n: int, shape: Shape, reversal: Reversal) -> dict[str, bool]:
    pairs, mask, *_, transversal = shape
    return {"irreducible": _irreducible(mask, pairs), "transversal": transversal}


def _theorem2_sides(n: int, shape: Shape, reversal: Reversal) -> Sides:
    low, high = shape[3:5]
    return _c1(shape), not reversal[1] or (
        _deletion_indecomposable(n, reversal, low) or _deletion_indecomposable(n, reversal, high)
    )


def _theorem2_details(n: int, shape: Shape, reversal: Reversal) -> dict[str, bool]:
    drop_low, drop_high = (_deletion_indecomposable(n, reversal, d) for d in shape[3:5])
    return {"whole": not reversal[1], "drop_low": drop_low, "drop_high": drop_high}


def _deletion_indecomposable(n: int, reversal: Reversal, d: int) -> bool:
    """Whether T(n, F) - d is indecomposable.  A module M of T(n, F) leaves
    the module M - d of T(n, F) - d: a search is needed only when that is trivial."""
    rest = (1 << n) - 1 ^ 1 << d
    left = reversal[1] & rest
    return not (left & left - 1 and left != rest) and is_indecomposable_rows(reversal[0], rest)


def _c1(shape: Shape) -> bool:
    """(C1), which is also theorem 2's lhs: the support is transversal and
    the pairs, with the virtual pair {low, high} for the hub, are irreducible."""
    pairs, mask, _, low, high, transversal = shape
    return transversal and _irreducible(mask, [*pairs, (low, high)])


def _theorem3_conditions(n: int, shape: Shape) -> tuple[bool, bool, bool, int]:
    """(C2)-(C4), the bit tests, then the bit mask of x over the family's pairs {x, x + 1}.

    (C3) and (C4) quantify v over all vertices, but only pairs
    {x, x+2} and {x, x+1} can meet their antecedents, so each is a test
    on the bit mask of such pairs' least ends.
    """
    pairs, mask, hub, low, high, _ = shape
    c2 = high >= low + 2
    # Bit masks of x over the pairs {x, x + 1} and over the pairs {x, x + 2}.
    adjacent = spans2 = 0
    for x, y in pairs:
        if y - x < 3:
            if y - x == 1:
                adjacent |= 1 << x
            else:
                spans2 |= 1 << x
    # {x, x+2} and {x+1, x+3} together need the hub at x or x+3.
    c3 = not spans2 & spans2 >> 1 & ~(1 << hub | 1 << hub >> 3)
    # Each {x, x+1} must hold the hub, whose two neighbours lie in the support.
    c4 = not adjacent or (
        not adjacent & ~(1 << hub | 1 << hub >> 1) and mask << 1 >> hub & 5 == 5
    )
    if c4 and adjacent and hub in (0, n - 1):
        # The neighbour requirement already rules out the endpoints.
        raise _invariant_broken(n, pairs, "(C4) holds with the hub at an endpoint")
    return c2, c3, c4, adjacent


def _theorem3_sides(n: int, shape: Shape, reversal: Reversal) -> Sides:
    """(lhs, rhs) of theorem 3 and corollary 3.  rhs is a conjunction of pure
    tests, so a support that is not transversal, which fails (C1), settles it
    before (C2)-(C4) are read; a full support is always transversal."""
    if not shape[5]:
        return not reversal[1], False
    c2, c3, c4, adjacent = _theorem3_conditions(n, shape)
    # On full support corollary 3's reduced (C4) must agree with (C4).
    if shape[1] == (1 << n) - 1 and _reduced_c4(n, shape[2], adjacent) != c4:
        raise _invariant_broken(n, shape[0], "the reduced (C4) disagrees with (C4)")
    return not reversal[1], c2 and c3 and c4 and _c1(shape)


def _theorem3_details(n: int, shape: Shape, reversal: Reversal) -> dict[str, bool]:
    c2, c3, c4, _ = _theorem3_conditions(n, shape)
    return {"c1": _c1(shape), "c2": c2, "c3": c3, "c4": c4}


def _corollary1_sides(n: int, shape: Shape, reversal: Reversal) -> Sides:
    # Corollary 1 states theorem 1's equivalence with irreducibility on the left.
    indecomposable, irreducible = _theorem1_sides(n, shape, reversal)
    return irreducible, indecomposable


def _reduced_c4(n: int, hub: int, adjacent: int) -> bool:
    """Corollary 3's (C4) from the mask of x over pairs {x, x+1}: the hub, not an end, in each."""
    return not adjacent or (not adjacent & ~(1 << hub | 1 << hub >> 1) and 0 < hub < n - 1)


class Check(Record):
    """One row of the checker table.

    ``run`` is the ``verify_range`` theorem id whose runs include the row,
    ``kind`` the enumerated family kind and ``applies`` the ambient sizes
    the row is checked at.  ``sides`` returns (lhs, rhs) from the size, the
    family's ``Shape`` and the ``Reversal`` that all rows checking the
    family share, each side short-circuited in order of cost: bit tests,
    then irreducibility, then module searches.  ``details`` returns every
    condition the sides combine, by name; it runs only for a filed row,
    its mirror twin and ``check_instance``.  At ``one_way_at`` only
    rhs => lhs is claimed: an instance with lhs and not rhs there is
    recorded, not counted as a violation.  Runs start at ``least_n`` or
    above: theorem 1 needs 3.
    """

    def __init__(self, run: int | str, label: str, kind: str, applies: Callable[[int], bool],
                 sides: Callable[[int, Shape, Reversal], Sides],
                 details: Callable[[int, Shape, Reversal], dict[str, bool]],
                 one_way_at: int | None = None, least_n: int = 0) -> None:
        self.__dict__.update(run=run, label=label, kind=kind, applies=applies, sides=sides,
                             details=details, one_way_at=one_way_at, least_n=least_n)


# A "corollaries" run files its rows in table order at each n.
CHECKS = (
    Check(1, "theorem1", "partial-pairing", lambda n: True, _theorem1_sides, _theorem1_details,
          least_n=3),
    Check(2, "theorem2", "partial-quasi", lambda n: True, _theorem2_sides, _theorem2_details,
          one_way_at=5),
    Check(3, "theorem3", "partial-quasi", lambda n: True, _theorem3_sides, _theorem3_details),
    Check("corollaries", "corollary1", "pairing", lambda n: n % 2 == 0 and n >= 6,
          _corollary1_sides, lambda n, shape, reversal: {"transversal": shape[5]}),
    Check("corollaries", "corollary3", "quasi", lambda n: n % 2 == 1 and n >= 5,
          _theorem3_sides, _theorem3_details),
    Check("corollaries", "corollary2", "quasi", lambda n: n % 2 == 1 and n >= 7,
          _theorem2_sides, _theorem2_details),
)
_BY_LABEL = {check.label: check for check in CHECKS}


def _shape_and_reversal(n: int, pairs: tuple, mask: int, hub: int,
                        rows: list[int]) -> tuple[Shape, Reversal]:
    """The ``Shape`` and ``Reversal`` every row reads, whatever its kind, of the
    family with these sorted pairs, support mask, hub and out-rows.  The hub's
    partners are the bits its pairs flip in its row of the total order.  A
    support equal to the ground meets every minimal co-module."""
    ground = (1 << n) - 1
    transversal = is_order_transversal(n, mask)
    if mask == ground and not transversal:
        raise _invariant_broken(n, pairs, "full support misses a minimal co-module")
    low = high = -1
    if hub >= 0:
        partners = rows[hub] ^ _order_rows(n)[hub]
        low, high = (partners & -partners).bit_length() - 1, partners.bit_length() - 1
    return (pairs, mask, hub, low, high, transversal), (rows, module_rows(rows, ground))


def check_instance(label: str, n: int, family: PairFamily) -> TheoremInstance:
    """Evaluate the table row ``label`` on one family over 0..n-1, with its details.

    The labels are the rows of ``CHECKS``: "theorem1" takes a partial
    pairing, "theorem2" and "theorem3" a partial quasi-pairing,
    "corollary1" a pairing and "corollary2" and "corollary3" a
    quasi-pairing, both on all of 0..n-1.  ValueError for an unknown
    label, a family over another ground set or one of another kind, and
    below n = 3, where the transversal test starts, the limit ``verify
    --theorem 1`` states too.  ``in_hypothesis`` is False below n = 5,
    where the characterizations are not stated; from n = 3 the instance
    is computed all the same.
    """
    if label not in _BY_LABEL:
        raise ValueError(f"unknown row {label!r}, want one of {tuple(_BY_LABEL)}")
    _same_size(n, family)
    if n < 3:
        raise ValueError(f"{label} is checked from n = 3, got n = {n}")
    check = _BY_LABEL[label]
    spec = EnumSpec(n, check.kind)
    full = family.mask if spec.is_partial else (1 << n) - 1
    wanted = "quasi-pairing" if spec.is_quasi else "pairing"
    if classify(family) != wanted or family.mask != full:
        raise ValueError(
            f"{label} takes a family of kind {check.kind!r}, got {family.serialize()!r}"
        )
    rows = reversal_rows(n, family.pairs)
    shape, reversal = _shape_and_reversal(n, family.pairs, family.mask, family._hub, rows)
    sides, details = check.sides(n, shape, reversal), check.details(n, shape, reversal)
    return TheoremInstance(n, family, *sides, details, n >= CHARACTERIZATION_MIN_N, label)


def _filed(labels: tuple[str, ...], n: int, shape: Shape, paired: bool):
    """Instances for the rows of ``labels`` filed on an orbit's first member,
    and for its mirror twin when ``paired``; none below the hypothesis."""
    if n < CHARACTERIZATION_MIN_N:
        return []
    family = (QuasiPairing if shape[2] >= 0 else Pairing)._from_walk(n, *shape[:3])
    instances = [check_instance(label, n, family) for label in labels]
    if paired:
        image = mirrored(family)
        twins = [check_instance(label, n, image) for label in labels]
        if [(i.lhs, i.rhs) for i in twins] != [(i.lhs, i.rhs) for i in instances]:
            raise _invariant_broken(n, shape[0], "its mirror image has other sides")
        instances += twins
    return [inst for inst in instances if inst.lhs != inst.rhs]


def _check_shard(plan: Plan, shard) -> tuple[int, list[TheoremInstance]]:
    """Rows checked on the mirror orbits in ``shard`` of the plan's walks, and the
    filed instances.  Each entry's sides are read once, and the ``Shape`` and
    ``Reversal`` of each family ``_orbit_lead`` keeps once, from the out-rows
    its walk carries; only an orbit with a filed row goes on."""
    checked, filed = 0, []
    for labels, spec in plan:
        n = spec.n
        sides = [_BY_LABEL[label].sides for label in labels]
        for pairs, mask, hub, rows in enumerate_families(spec, shard, leads=True):
            paired = _orbit_lead(n, pairs, mask)
            if paired is None:
                continue
            checked += len(labels) * (1 + paired)
            shape, reversal = _shape_and_reversal(n, pairs, mask, hub, rows)
            for side in sides:
                lhs, rhs = side(n, shape, reversal)
                if lhs != rhs:
                    filed += _filed(labels, n, shape, paired)
                    break
    return checked, filed


def _run_shards(plan: Plan, jobs: int) -> list[tuple[int, list[TheoremInstance]]]:
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
        return [_check_shard(plan, (0, 1))]
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
                            sent = pickle.dumps((True, _check_shard(plan, (i, jobs))))
                        except Exception as exc:
                            sent = pickle.dumps((False, exc))
                        sink.write(sent)
                        sink.flush()
                        status = 0
                    finally:
                        os._exit(status)
                pids[i] = pid
        results = [_check_shard(plan, (0, jobs))]
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

    Families below the stated hypothesis, n < 5, are checked and counted
    in ``checked``, but none is filed: only ``check_instance`` makes an
    instance with ``in_hypothesis`` False.  One family per mirror orbit is
    checked and ``checked`` counts both members.  Filed instances are
    ordered by n, then table row, then enumeration order, whatever the job
    count.
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
    for checked, filed in _run_shards(plan, jobs):
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
