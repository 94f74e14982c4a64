"""Benchmark of revtour's command line: four exhaustive workloads.

Usage:
    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1

Run from the root of a source checkout; revtour is imported from its
``src/``.  Every measured CLI call runs ``revtour.cli.main(argv)`` in a
fresh interpreter (``worker.py``), so each one pays what a CLI user pays,
pool start-up included, and has a peak resident set of its own.

``--trace 0`` repeats the workload for S seconds, interleaved with
set-up probes, and reports medians.  The host's CPUs are shared, and for
seconds to minutes at a time it runs all code up to twice as slowly.  So
every worker also times a fixed kernel while it measures (see
``worker.py``), and each time is rescaled to the host's quiet speed:
seconds x KERNEL_REF_S / kernel_s.  The raw times are kept in the
detail file.
``--trace 1`` alternates an untraced and a traced pass of the workload
(for a pooled workload, at one job, plus the pooled run) for at least
two rounds and S seconds, and reports the per-layer metrics.  Either way
every output is checked against the pinned reference in ``workloads.py``.

The inputs are exhaustive, so ``--seed`` never reaches the program: it
only sets the order in which the runs of one invocation interleave.

The last line of stdout is the result: correct, attempted, failed and
metrics.  The line before it holds the run metadata, which is also
written, with every sample, to ``perfbench/out/``.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import random
import signal
import statistics
import subprocess
import sys
import time
from pathlib import Path

from workloads import WORKLOADS, Workload, digest, strip_ms

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
WORKER = HERE / "worker.py"
OUT_DIR = HERE / "out"

# kernel_s of worker.py on the quiet reference host (2-vCPU Xeon, Python 3.11.7).
KERNEL_REF_S = 0.0020
# Whole-invocation budget; a run that would outlast it is cut and counted failed.
DEADLINE_S = 170.0
# Set-up probes per workload run in --trace 0.
SETUP_PROBES = 4
# Traced rounds per --trace 1 invocation, so counts can be compared.
MIN_TRACE_ROUNDS = 2

END_TO_END = {
    "wall_s": "s",
    "setup_s": "s",
    "peak_rss_mib": "MiB",
    "correct_rate": "ratio",
}
PER_LAYER = {
    "enumeration.families": "count",
    "enumeration.busy_s": "s",
    "enumeration.loop.self_s": "s",
    "pairs.irreducible.calls": "count",
    "pairs.irreducible.busy_s": "s",
    "pairs.anatomy.calls": "count",
    "pairs.anatomy.busy_s": "s",
    "pairs.support.calls": "count",
    "comodules.calls": "count",
    "comodules.busy_s": "s",
    "core.build.calls": "count",
    "core.build.busy_s": "s",
    "core.indecomposable.calls": "count",
    "core.indecomposable.busy_s": "s",
    "core.indecomposable.yes_ratio": "ratio",
    "core.delete.calls": "count",
    "core.delete.busy_s": "s",
    "core.canonical.calls": "count",
    "core.canonical.busy_s": "s",
    "core.canonical.classes": "count",
    "theorems.conditions.self_s": "s",
    "theorems.self_s": "s",
    "theorems.pool.efficiency": "ratio",
    "cli.self_s": "s",
    "trace.wall_s": "s",
    "trace.overhead_s": "s",
}


class Cut(Exception):
    """The invocation ran out of its time budget."""


class Launcher:
    """Starts worker processes against one deadline and logs what ran."""

    def __init__(self) -> None:
        self.deadline = time.monotonic() + DEADLINE_S
        self.schedule: list[str] = []
        self.version: str | None = None

    def call(self, label: str, mode: str, argv: tuple[str, ...] = ()) -> dict | None:
        """The worker's record, or None when the worker failed."""
        self.schedule.append(label)
        remaining = self.deadline - time.monotonic()
        if remaining <= 0:
            raise Cut(label)
        proc = subprocess.Popen(
            [sys.executable, str(WORKER), str(ROOT), mode, *argv],
            cwd=ROOT,
            stdout=subprocess.PIPE,
            stderr=subprocess.PIPE,
            text=True,
            start_new_session=True,
        )
        try:
            out, err = proc.communicate(timeout=remaining)
        except subprocess.TimeoutExpired:
            os.killpg(proc.pid, signal.SIGKILL)
            proc.communicate()
            raise Cut(label) from None
        if proc.returncode != 0 or not out.strip():
            sys.stderr.write(f"{label}: worker exited {proc.returncode}\n{err[-2000:]}")
            return None
        record = json.loads(out.splitlines()[-1])
        self.version = record["version"]
        return record

    def setup_probe(self) -> dict:
        record = self.call("setup", "setup")
        if record is None:
            raise RuntimeError("revtour could not be imported from src/")
        return record


def _at_reference_speed(seconds: float, record: dict) -> float:
    """A time measured in the worker, rescaled to the host's quiet speed."""
    return seconds * KERNEL_REF_S / record["kernel_s"]


def measure(workload: Workload, seed: int, seconds: float) -> dict:
    """End-to-end metrics of one workload, untraced, over ``seconds``."""
    rng = random.Random(seed)
    launcher = Launcher()
    launcher.setup_probe()  # warm-up: the first import may compile bytecode
    launcher.schedule.clear()
    walls, rss, setups, problems = [], [], [], []
    raw_walls, raw_setups = [], []
    attempted = failed = 0
    start = time.monotonic()
    try:
        while attempted == 0 or time.monotonic() - start < seconds:
            steps = ["run"] + ["setup"] * SETUP_PROBES
            rng.shuffle(steps)
            for step in steps:
                if step == "setup":
                    record = launcher.setup_probe()
                    setups.append(_at_reference_speed(record["setup_s"], record))
                    raw_setups.append(record["setup_s"])
                    continue
                attempted += 1
                record = launcher.call("run", "pool" if workload.jobs else "run", workload.argv)
                wrong = ["worker failed"] if record is None else workload.check(
                    record["exit"], record["out"]
                )
                if record is not None:
                    setups.append(_at_reference_speed(record["setup_s"], record))
                    walls.append(_at_reference_speed(record["wall_s"], record))
                    raw_setups.append(record["setup_s"])
                    raw_walls.append(record["wall_s"])
                    rss.append(record["peak_rss_mib"])
                if wrong:
                    failed += 1
                    problems.append(f"run {attempted}: " + "; ".join(wrong))
    except Cut as cut:
        if str(cut) == "run":
            failed += 1
        problems.append(f"cut at {cut} by the {DEADLINE_S:.0f} s budget")
    if not walls:
        raise RuntimeError("no run of the workload completed: " + "; ".join(problems))
    metrics = {
        "wall_s": statistics.median(walls),
        "setup_s": statistics.median(setups),
        "peak_rss_mib": statistics.median(rss),
        "correct_rate": (attempted - failed) / attempted,
    }
    samples = {
        "wall_s": walls,
        "setup_s": setups,
        "peak_rss_mib": rss,
        "raw_wall_s": raw_walls,
        "raw_setup_s": raw_setups,
    }
    return _result(launcher, attempted, failed, problems, metrics, END_TO_END, samples)


def _layer_metrics(record: dict) -> dict[str, float]:
    """One traced pass's per-layer metrics, except the wall-time ones.

    ``<span>.busy_s`` and ``<span>.self_s`` are the span's self time and
    ``<span>.calls`` its call count; a span that never ran reports 0.
    """
    metrics: dict[str, float] = {}
    for name in PER_LAYER:
        span, _, field = name.rpartition(".")
        row = record["spans"].get(span, {"calls": 0, "self_s": 0.0})
        if field in ("busy_s", "self_s"):
            metrics[name] = row["self_s"]
        elif field == "calls":
            metrics[name] = row["calls"]
    decided = metrics["core.indecomposable.calls"]
    metrics["enumeration.families"] = record["families"]
    metrics["core.indecomposable.yes_ratio"] = (
        record["indecomposable_yes"] / decided if decided else 0.0
    )
    metrics["core.canonical.classes"] = record["classes"]
    return metrics


def _trace_invariants(record: dict) -> list[str]:
    self_total = sum(row["self_s"] for row in record["spans"].values())
    if self_total > record["wall_s"] + 1e-6:
        return [f"self times sum to {self_total:.6f} s, above the traced wall {record['wall_s']:.6f} s"]
    return []


def trace(workload: Workload, seed: int, seconds: float) -> dict:
    """Per-layer metrics of one workload from alternating traced passes."""
    rng = random.Random(seed)
    launcher = Launcher()
    launcher.setup_probe()
    launcher.schedule.clear()
    passes = [("traced", "trace", workload.traced_argv), ("untraced", "run", workload.traced_argv)]
    if workload.jobs:
        passes.append(("pooled", "pool", workload.argv))
    records: dict[str, list[dict]] = {label: [] for label, _, _ in passes}
    problems: list[str] = []
    attempted = failed = rounds = 0
    start = time.monotonic()
    try:
        while rounds < MIN_TRACE_ROUNDS or time.monotonic() - start < seconds:
            rng.shuffle(passes)
            for label, mode, argv in passes:
                attempted += 1
                record = launcher.call(label, mode, argv)
                if record is None:
                    wrong = ["worker failed"]
                else:
                    wrong = workload.check(record["exit"], record["out"])
                    if mode == "trace":
                        wrong += _trace_invariants(record)
                    records[label].append(record)
                if wrong:
                    failed += 1
                    problems.append(f"{label} pass {attempted}: " + "; ".join(wrong))
            rounds += 1
    except Cut as cut:
        failed += 1
        problems.append(f"cut at {cut} by the {DEADLINE_S:.0f} s budget")
    traced, untraced = records["traced"], records["untraced"]
    if not traced or not untraced:
        raise RuntimeError("no traced and untraced pair completed: " + "; ".join(problems))
    outputs = {strip_ms(r["out"]) for recs in records.values() for r in recs}
    if len(outputs) != 1:
        problems.append("traced and untraced passes print different output")
    per_pass = [_layer_metrics(r) for r in traced]
    counts = [{k: v for k, v in m.items() if PER_LAYER[k] == "count"} for m in per_pass]
    if any(c != counts[0] for c in counts):
        problems.append("span counts differ between traced passes")
    metrics = {name: statistics.median(m[name] for m in per_pass) for name in per_pass[0]}
    metrics.update(counts[0])
    walls = {
        label: [_at_reference_speed(r["wall_s"], r) for r in recs] for label, recs in records.items()
    }
    metrics["trace.wall_s"] = statistics.median(walls["traced"])
    untraced_wall = statistics.median(walls["untraced"])
    metrics["trace.overhead_s"] = metrics["trace.wall_s"] - untraced_wall
    metrics["theorems.pool.efficiency"] = (
        untraced_wall / (workload.jobs * statistics.median(walls["pooled"]))
        if walls.get("pooled") else 0.0
    )
    samples = {
        "wall_s": walls,
        "raw_wall_s": {label: [r["wall_s"] for r in recs] for label, recs in records.items()},
        "output_sha256": {label: [digest(r["out"]) for r in recs] for label, recs in records.items()},
        "counts": counts,
        "spans": [r["spans"] for r in traced],
        "edges": [r["edges"] for r in traced],
    }
    return _result(launcher, attempted, failed, problems, metrics, PER_LAYER, samples)


def _git_commit() -> str | None:
    """HEAD's commit, read from .git without running git; None outside a repository."""
    git = ROOT / ".git"
    try:
        head = (git / "HEAD").read_text().strip()
        if not head.startswith("ref: "):
            return head
        ref = head[len("ref: "):]
        if (git / ref).is_file():
            return (git / ref).read_text().strip()
        for line in (git / "packed-refs").read_text().splitlines():
            if line.endswith(" " + ref):
                return line.split()[0]
    except OSError:
        pass
    return None


def _result(
    launcher: Launcher,
    attempted: int,
    failed: int,
    problems: list[str],
    metrics: dict[str, float],
    units: dict[str, str],
    samples: dict,
) -> dict:
    return {
        "correct": not problems,
        "attempted": attempted,
        "failed": failed,
        "metrics": {name: {"value": metrics[name], "unit": unit} for name, unit in units.items()},
        "problems": problems,
        "samples": samples,
        "schedule": launcher.schedule,
        "version": launcher.version,
    }


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=int, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), required=True)
    args = parser.parse_args(argv)
    if args.seconds < 1:
        parser.error("--seconds must be at least 1")
    if not (ROOT / "src" / "revtour" / "__init__.py").is_file():
        print(f"error: no revtour sources under {ROOT / 'src'}", file=sys.stderr)
        return 2

    meta = {
        "workload": args.workload,
        "seed": args.seed,
        "seed_note": "inputs are exhaustive; the seed only orders the runs of this invocation",
        "seconds": args.seconds,
        "trace": args.trace,
        "nproc": os.cpu_count(),
        "loadavg_1m": os.getloadavg()[0],
        "python": platform.python_version(),
        "git_commit": _git_commit(),
    }
    workload = WORKLOADS[args.workload]
    run = trace if args.trace else measure
    try:
        result = run(workload, args.seed, args.seconds)
    except RuntimeError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1
    meta["revtour_version"] = result.pop("version")
    detail = {"meta": meta, **result}
    OUT_DIR.mkdir(exist_ok=True)
    out_file = OUT_DIR / f"{args.workload}-trace{args.trace}-seed{args.seed}.json"
    out_file.write_text(json.dumps(detail, indent=1) + "\n")
    for problem in result["problems"]:
        print(f"wrong: {problem}", file=sys.stderr)
    print(json.dumps({**meta, "detail": str(out_file.relative_to(ROOT))}))
    print(json.dumps({key: result[key] for key in ("correct", "attempted", "failed", "metrics")}))
    return 0


if __name__ == "__main__":
    sys.exit(main())
