"""One measured process: set-up time, then at most one CLI workload run.

Usage: python3 perfbench/worker.py ROOT MODE [CLI ARGS...]

MODE is ``setup`` (only import revtour and build the parser), ``run``
(then call ``revtour.cli.main(CLI ARGS)`` with stdout captured),
``trace`` (the same call with the span wrappers of ``spans.py``
installed) or ``pool`` (a ``run`` whose CLI call starts worker
processes).  Prints one JSON object on stdout.  Nothing that revtour
imports is imported before the set-up clock starts, so the set-up time
is what a fresh interpreter pays for ``import revtour, revtour.cli``.

``kernel_s`` tells the runner how fast the shared host ran: the mean
time of a fixed pure-Python tick.  During a ``run`` or ``trace`` call a
tick runs every SAMPLE_EVERY_S seconds from a SIGALRM handler, on the
workload's own thread and CPU, so bursts of contention inside the call
are seen.  A ``pool`` call loads both CPUs itself, so its ticks are
taken just before and after it instead, and a ``setup`` probe's after.
"""

import os
import sys
import time


# About 1% of a run's time goes to the ticks.
SAMPLE_EVERY_S = 0.2
BRACKET_TICKS = 10


def _tick() -> float:
    """Seconds for a fixed integer-and-dict loop of about 2 ms."""
    start = time.perf_counter()
    x, table = 1, {}
    for i in range(10_000):
        x = (x * 1103515245 + 12345) & 0x7FFFFFFF
        table[x & 1023] = i
    return time.perf_counter() - start


def _mean(values: list[float]) -> float:
    return sum(values) / len(values)


def _call(entry, argv: list[str]) -> tuple[int, float, str]:
    """Exit status, wall seconds and captured stdout of one CLI call."""
    import io

    buffer = io.StringIO()
    real_stdout = sys.stdout
    sys.stdout = buffer
    try:
        start = time.perf_counter()
        code = entry(argv)
        wall_s = time.perf_counter() - start
    finally:
        sys.stdout = real_stdout
    return code, wall_s, buffer.getvalue()


def main() -> int:
    root, mode, cli_argv = sys.argv[1], sys.argv[2], sys.argv[3:]
    src = os.path.join(root, "src")
    sys.path.insert(0, src)

    start = time.perf_counter()
    import revtour
    import revtour.cli

    revtour.cli._build_parser()
    setup_s = time.perf_counter() - start

    import json

    if not os.path.realpath(revtour.__file__).startswith(os.path.realpath(src) + os.sep):
        print(f"revtour imported from {revtour.__file__}, not from {src}", file=sys.stderr)
        return 1
    record = {"setup_s": setup_s, "version": revtour.__version__}
    if mode == "setup":
        record["kernel_s"] = _mean([_tick() for _ in range(BRACKET_TICKS)])
        print(json.dumps(record))
        return 0

    import contextlib
    import resource
    import signal

    ticks = [_tick() for _ in range(BRACKET_TICKS)] if mode == "pool" else []
    entry = revtour.cli.main
    recorder = None
    tracing = contextlib.nullcontext()
    if mode == "trace":
        import spans

        recorder = spans.Recorder()
        entry = recorder.wrap("cli", entry)
        tracing = spans.traced(recorder)
    if mode != "pool":
        signal.signal(signal.SIGALRM, lambda signum, frame: ticks.append(_tick()))
        signal.setitimer(signal.ITIMER_REAL, SAMPLE_EVERY_S, SAMPLE_EVERY_S)
    try:
        with tracing:
            code, wall_s, out = _call(entry, cli_argv)
    finally:
        signal.setitimer(signal.ITIMER_REAL, 0, 0)
    if mode == "pool" or not ticks:
        ticks += [_tick() for _ in range(BRACKET_TICKS)]
    record["kernel_s"] = _mean(ticks)
    peak_kib = max(
        resource.getrusage(resource.RUSAGE_SELF).ru_maxrss,
        resource.getrusage(resource.RUSAGE_CHILDREN).ru_maxrss,
    )
    record.update(exit=code, wall_s=wall_s, peak_rss_mib=peak_kib / 1024, out=out)
    if recorder is not None:
        record.update(
            spans=recorder.stats(),
            edges=recorder.edges(),
            families=recorder.yields,
            indecomposable_yes=recorder.indecomposable_yes,
            classes=len(recorder.canonical_forms),
        )
    print(json.dumps(record))
    return 0


if __name__ == "__main__":
    sys.exit(main())
