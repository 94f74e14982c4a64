"""The benchmark's fixed CLI workloads and the checks on their output.

Every workload is exhaustive and deterministic: its argv fixes the whole
input, so no seed enters the program.  A run is correct when its exit
status matches and its output, with every ``"ms"`` member removed, hashes
to the digest pinned here from the seed commit.  The facts each digest
encodes are also checked on their own, so a mismatch says what broke.
"""

from __future__ import annotations

import hashlib
import json
import re
from dataclasses import dataclass
from typing import Callable

# A JSON member "ms": <number>, together with the separator that joins it
# to its neighbour, so removing it leaves well-formed JSON.
_MS_MEMBER = re.compile(
    r',\s*"ms":\s*-?[0-9][0-9.eE+-]*|"ms":\s*-?[0-9][0-9.eE+-]*\s*,?\s*'
)


def strip_ms(text: str) -> str:
    """The output with every "ms" member removed, all other bytes kept."""
    return _MS_MEMBER.sub("", text)


def digest(text: str) -> str:
    return hashlib.sha256(strip_ms(text).encode()).hexdigest()


def _verify_facts(text: str) -> list[str]:
    report = json.loads(text)
    problems = []
    if report.get("checked") != 19152:
        problems.append(f"checked {report.get('checked')}, want 19152")
    if report.get("violations") != []:
        problems.append(f"{len(report.get('violations') or [])} violations, want 0")
    return problems


def _census_facts(text: str) -> list[str]:
    lines = [json.loads(line) for line in text.splitlines()]
    indecomposable = sum(1 for r in lines if r["indecomposable"])
    classes = len({r["class"] for r in lines if r["class"] is not None})
    got = (len(lines), indecomposable, classes)
    return [] if got == (1050, 146, 61) else [f"families/indecomposable/classes {got}, want (1050, 146, 61)"]


def _count_facts(text: str) -> list[str]:
    table = json.loads(text)
    return [] if table == {"12": 2830} else [f"count {table}, want {{'12': 2830}}"]


@dataclass(frozen=True)
class Workload:
    name: str
    argv: tuple[str, ...]
    # The argv of the traced pass; child-process spans are not visible
    # from outside, so a pooled workload is traced at one job.
    traced_argv: tuple[str, ...]
    # Pool size of ``argv``, or 0 when it starts no pool.
    jobs: int
    expected_exit: int
    pinned_digest: str
    facts: Callable[[str], list[str]]

    def check(self, exit_code: int, text: str) -> list[str]:
        """Reasons the output is wrong; empty when it is right."""
        problems = []
        if exit_code != self.expected_exit:
            problems.append(f"exit {exit_code}, want {self.expected_exit}")
        if digest(text) != self.pinned_digest:
            problems.append("output digest differs from the pinned reference")
        try:
            problems += self.facts(text)
        except (ValueError, KeyError, TypeError, AttributeError) as exc:
            problems.append(f"unreadable output: {exc!r}")
        return problems


_T3 = ("verify", "--theorem", "3", "--n-range", "9..9")
_T2 = ("verify", "--theorem", "2", "--n-range", "9..9")
_CENSUS = ("census", "--n", "7", "--kind", "partial-quasi")
_COUNT = ("count", "irreducible-pairings", "--m-range", "12..12")

WORKLOADS = {
    w.name: w
    for w in (
        Workload(
            "verify-t3-n9", _T3, _T3, 0, 0,
            "20bf40c8807a45d93b7871bb8b40b1fad16514615b6ba246a203ab957f18932a",
            _verify_facts,
        ),
        Workload(
            "verify-t2-n9-jobs2", _T2 + ("--jobs", "2"), _T2 + ("--jobs", "1"), 2, 0,
            "602a3587b2c90566d07556f07d5f4308693c434d633b3a91eb9a6e354e3c2d6c",
            _verify_facts,
        ),
        Workload(
            "census-pq-n7", _CENSUS, _CENSUS, 0, 0,
            "5ea9d237b56479e4f47a75c1f4939286868d8a6a129c5ec3c6c5036e3a3c7e66",
            _census_facts,
        ),
        Workload(
            "count-m12", _COUNT, _COUNT, 0, 0,
            "f7949246b2c82f064e3ea8de567431d0aeab5b3c5e5b4c4c4a9b60b5b9ab52aa",
            _count_facts,
        ),
    )
}
