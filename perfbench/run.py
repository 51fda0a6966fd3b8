#!/usr/bin/env python3
"""Run one xplain benchmark workload and print its metrics as JSON.

    python3 perfbench/run.py --workload trees --seed 1 --seconds 20 --trace 0

Run from the root of a source checkout: xplain is imported from ``src/``
of that checkout, never from an installed copy, and the run fails without
printing a result when there is none.  A run sets up its inputs from the
seed (five times, to time set-up), answers one fixed list of queries in a
closed loop (one process, one thread, the next query sent when the previous
one returns), and checks every answer against the benchmark's own reference
after the timed phase.  ``--seconds`` sets how many passes over the list a
run makes, at least one; the clock never cuts a pass short, so every run of
a workload does whole passes of the same queries.

Times are reported at a reference host speed.  The host is shared, and its
speed for the same Python work moves by half and more within a minute, far
beyond any change worth measuring.  So a fixed slice of interpreter work
(the calibration kernel) is timed between consecutive queries and around
every set-up, and each raw time is scaled by the kernel's reference time
over its mean time just before and just after.  The raw figures go to the
result file.

The last line of stdout is one JSON object: ``correct``, ``attempted``,
``failed`` and ``metrics``.  With ``--trace 0`` the metrics are the
end-to-end ones; with ``--trace 1`` every xplain layer the tracer wraps is
timed and the per-layer metrics are printed instead.  The result, and with
tracing the spans, are also written under ``perfbench/out/``.
"""

from __future__ import annotations

import argparse
import gc
import importlib
import json
import resource
import statistics
import sys
import tempfile
import time
from pathlib import Path

BENCH = Path(__file__).resolve().parent
ROOT = Path.cwd()

import cliwork  # noqa: E402  (perfbench/ is on sys.path as the script's directory)
import tracing  # noqa: E402
import work_gadgets  # noqa: E402
import work_rules  # noqa: E402
import work_trees  # noqa: E402

SETUP_REPEATS = 5
# nominal seconds of one pass over the query list at the reference speed;
# a run makes --seconds divided by this, rounded, and at least one pass
PASS_SECONDS = {"trees": 20.0, "rules": 20.0, "gadgets": 20.0}
# the calibration kernel's time on an uncontended core of the 2-core
# reference host (its floor over thousands of runs)
CAL_REF_S = 3.2e-4
_BITS = (1 << 4096) - 1


class _Cell:
    __slots__ = ("key", "value")

    def __init__(self, key: int, value: int) -> None:
        self.key = key
        self.value = value


def calibration_kernel() -> float:
    """Seconds that one fixed slice of interpreter work takes right now.

    Half the slice is plain integer arithmetic and dictionary stores, half
    is what xplain's queries do most: small-object allocation, attribute
    access, tuple slicing and shifts of a 4096-bit integer.  When the host
    was busy, the first half alone slowed less than the queries and the
    second half alone slowed more; together they track the queries.  The
    cyclic garbage collector is held off, so that a collection of the
    queries' garbage never lands inside the kernel; everything the kernel
    allocates is freed by reference counting when it returns."""
    gc.disable()
    start = time.perf_counter()
    acc = 0
    counts: dict[int, int] = {}
    for i in range(2000):
        acc += i * i
        counts[i & 255] = acc
    table = _BITS
    cells: list[_Cell] = []
    slots = {j: _Cell(j, j) for j in range(128)}
    for i in range(175):
        cell = _Cell(i, i * i)
        cells.append(cell)
        slots[i & 127] = cell
        acc += cell.key ^ slots[(i * 7) & 127].value
        table = ((table << 1) | (i & 1)) & _BITS
        recent = tuple(cells[-4:])
        if len(recent) > 3 and recent[0].key in slots:
            acc += 1
    elapsed = time.perf_counter() - start
    gc.enable()
    return elapsed


def calibrated(fn, before: float):
    """Call fn between two kernel timings.  ``before`` is the kernel time
    taken just before the call (the previous call's ``after``); returns
    (result, raw seconds, seconds at reference speed, kernel time after)."""
    start = time.perf_counter()
    result = fn()
    raw = time.perf_counter() - start
    after = calibration_kernel()
    return result, raw, raw * 2.0 * CAL_REF_S / (before + after), after


class Workload:
    """Adapter giving the CLI workloads and the library workload one shape."""

    def __init__(self, name: str) -> None:
        self.name = name
        self.module = {"trees": work_trees, "rules": work_rules,
                       "gadgets": work_gadgets}[name]

    def setup(self, seed: int, workdir: Path, tick):
        return self.module.setup(seed, workdir, tick)

    def execute(self, req):
        if self.name == "gadgets":
            return work_gadgets.execute(req)
        return cliwork.execute(req)

    def failed(self, outcome) -> bool:
        return outcome is None or (self.name != "gadgets" and cliwork.failed(outcome))

    def check(self, inputs, outcomes: list) -> list[str]:
        """Reasons why answers are wrong; failed operations are skipped."""
        problems = []
        if self.name == "gadgets":
            for req, got in zip(inputs.requests, outcomes):
                if got is not None and got != work_gadgets.expected(req.source):
                    problems.append(f"{req.source[0]} {req.query.kind}: answered {got}")
            return problems
        judge = cliwork.Judge(inputs)
        for req, outcome in zip(inputs.requests, outcomes):
            if self.failed(outcome):
                continue
            reason = judge.check(req, outcome)
            if reason is not None:
                problems.append(f"{' '.join(req.argv[:5])}: {reason}")
        return problems + judge.check_pairs(
            inputs.requests, [o if o is not None else (2, "{}") for o in outcomes]
        )


def import_xplain():
    """Import xplain afresh from the checkout's ``src/``, dropping any copy
    a previous set-up imported, so that each set-up pays for the import."""
    for name in [m for m in sys.modules if m == "xplain" or m.startswith("xplain.")]:
        del sys.modules[name]
    x = importlib.import_module("xplain")
    for sub in ("cli", "core", "verify", "explain_dt", "explain_rules",
                "circuits", "gadgets", "modelio", "truth"):
        importlib.import_module(f"xplain.{sub}")
    return x


def answer(workload: Workload, req):
    try:
        return workload.execute(req)
    except Exception:  # counted as a failed operation, never fatal
        return None


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=sorted(PASS_SECONDS))
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--seconds", type=float, default=20.0)
    parser.add_argument("--trace", type=int, choices=[0, 1], default=0)
    args = parser.parse_args(argv)

    src = ROOT / "src"
    if not (src / "xplain" / "__init__.py").is_file():
        print(f"error: no xplain sources under {src}; run from a checkout root",
              file=sys.stderr)
        return 2
    sys.path.insert(0, str(src))
    workload = Workload(args.workload)
    passes = max(1, round(args.seconds / PASS_SECONDS[args.workload]))

    tracer = None
    setups: list[tuple[float, float]] = []  # (raw, at reference speed) seconds
    times: list[tuple[float, float]] = []  # the same per query
    failures = changed = 0
    with tempfile.TemporaryDirectory(prefix=".perfbench-", dir=ROOT) as tmp:
        for rep in range(1 if args.trace else SETUP_REPEATS):
            workdir = Path(tmp) / f"setup{rep}"
            workdir.mkdir()
            # set-up runs long enough for the host to change speed within
            # it, so the kernel is also timed between its models; the
            # kernel's own time is taken out again
            kernels = [calibration_kernel()]
            start = time.perf_counter()
            x = import_xplain()
            if not Path(x.__file__).resolve().is_relative_to(src.resolve()):
                print(f"error: imported xplain from {x.__file__}, not {src}",
                      file=sys.stderr)
                return 2
            if args.trace:  # the traced run traces its one set-up too
                tracer = tracing.Tracer()
                tracer.install()
            inputs = workload.setup(args.seed, workdir,
                                    lambda: kernels.append(calibration_kernel()))
            raw = time.perf_counter() - start - sum(kernels[1:])
            kernels.append(calibration_kernel())
            setups.append((raw, raw * CAL_REF_S / statistics.median(kernels)))
        outcomes: list = []
        kernel = calibration_kernel()
        for p in range(passes):
            for i, req in enumerate(inputs.requests):
                outcome, raw, scaled, kernel = calibrated(lambda: answer(workload, req), kernel)
                times.append((raw, scaled))
                failures += workload.failed(outcome)
                if p == 0:
                    outcomes.append(outcome)
                elif outcome != outcomes[i]:
                    changed += 1
        peak_rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0
        if tracer is not None:
            tracer.uninstall()
        problems = workload.check(inputs, outcomes)
    if changed:
        problems.append(f"{changed} answers differ between passes")
    for reason in problems[:20]:
        print(f"WRONG: {reason}", file=sys.stderr)

    attempted = len(times)
    summary = {}
    for label, col in (("raw", 0), ("scaled", 1)):
        ms = [t[col] * 1000.0 for t in times]
        summary[label] = {
            "queries_per_s": attempted * 1000.0 / sum(ms),
            "query_p50_ms": statistics.median(ms),
            "query_p90_ms": statistics.quantiles(ms, n=10)[8],
            "setup_s": statistics.median(s[col] for s in setups),
        }
    if args.trace:
        measured = tracer.metrics()
        metrics = {name: {"value": measured[name], "unit": unit}
                   for name, unit, _ in tracing.METRICS}
    else:
        units = {"queries_per_s": "1/s", "query_p50_ms": "ms", "query_p90_ms": "ms",
                 "setup_s": "s"}
        metrics = {name: {"value": value, "unit": units[name]}
                   for name, value in summary["scaled"].items()}
        metrics["peak_rss_mb"] = {"value": peak_rss_mb, "unit": "MB"}
    result = {"correct": not problems, "attempted": attempted,
              "failed": failures, "metrics": metrics}
    out = BENCH / "out"
    out.mkdir(exist_ok=True)
    stem = f"{args.workload}-seed{args.seed}-trace{args.trace}"
    slowdown = statistics.median(raw / scaled for raw, scaled in times)
    with open(out / f"{stem}.json", "w") as fh:
        json.dump(dict(result, passes=passes, raw=summary["raw"], scaled=summary["scaled"],
                       host_slowdown=slowdown), fh, indent=1)
    if tracer is not None:
        tracer.dump(out / f"{stem}.spans.json")
    print(f"{args.workload}: {attempted} queries in {passes} pass(es), "
          f"{sum(t[0] for t in times):.2f}s raw, host {slowdown:.2f}x the reference "
          f"time, {failures} failed, {len(problems)} wrong", file=sys.stderr)
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
