#!/usr/bin/env python3
"""coretorus benchmark: time exact verdicts end to end, or layer by layer.

    python3 perfbench/run.py --workload disc-search --seed 1 --seconds 20 --trace 0

Run from the root of a source checkout; the program is imported from
``src/``.  Passes of the workload's units repeat until ``--seconds`` have
been measured.  Every verdict is checked against recorded values.  Beside
and during each unit a fixed pure-Python reference loop is timed, so that
unit times can be read relative to the machine's speed while they ran.

The last line of standard output is one JSON object with the keys
``correct``, ``attempted``, ``failed`` and ``metrics``: the end-to-end
metrics with ``--trace 0``, the per-layer metrics with ``--trace 1``.  The
line before it records the machine facts.  The exit code is 0 when every
verdict matched, 1 when one did not, and 2 when the program cannot be
found or imported.
"""
from __future__ import annotations

import argparse
import gc
import hashlib
import importlib
import json
import os
import platform
import resource
import signal
import sys
from pathlib import Path
from statistics import median
from time import perf_counter

import spans
import workloads

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src"
SETUP_REPEATS = 3
SAMPLE_PERIOD = 0.01
EDGE_SAMPLES = 5

END_TO_END_UNITS = {"pass_ref": "ratio", "setup_s": "s", "peak_rss_mib": "MiB",
                    "ok_frac": "ratio"}


class ProgramMissing(Exception):
    pass


class _Cell:
    __slots__ = ("a", "b")

    def __init__(self, a, b):
        self.a, self.b = a, b

    def step(self, x):
        return (self.a * x + self.b) % 65521


_CELLS = tuple(_Cell(k, 3 * k + 1) for k in range(16))


def reference_loop(rounds=300, cells=_CELLS):
    """Fixed pure-Python work of the kinds the program does (about 0.3 ms):
    method calls on small objects, tuple keys in dicts and sets, a sort with
    a key function, and a depth-first search with a visited set.  A tight
    integer loop slows less than the program when the machine is busy, so
    it is a worse yardstick.  Returns a checksum."""
    acc = 0
    table = {}
    for k in range(rounds):
        acc = cells[k & 15].step(acc + k)
        table.setdefault((k % 7, k % 5, acc & 3), []).append(k)
    keys = sorted(table, key=lambda t: (sum(t), t))
    seen = set()

    def walk(i, depth):
        if depth == 0:
            return 1
        n = 0
        for j in (i * 2 % 29, i * 3 % 29, (i + 7) % 29):
            if (j, depth) not in seen:
                seen.add((j, depth))
                n += walk(j, depth - 1)
        return n
    return acc + walk(1, 5) + len(keys) + sum(1 for k in keys if k[0] > k[1])


class Sampler:
    """Times the reference loop beside a unit: a few times right before and
    after it and, while it runs, on a wall-clock timer signal every
    SAMPLE_PERIOD seconds.  The machine's speed drifts within seconds, so
    only samples taken during the unit say how fast it ran.  The time spent
    sampling is taken out of the unit's time and, when tracing, out of the
    span it interrupted."""

    def __init__(self, tracer=None):
        self.tracer = tracer
        self.samples = []
        self.spent = 0.0

    def _sample(self, *_):
        start = perf_counter()
        reference_loop()
        elapsed = perf_counter() - start
        self.samples.append(elapsed)
        self.spent += elapsed
        if self.tracer is not None:
            self.tracer.exclude(elapsed)

    def time_unit(self, unit):
        """(verdicts, seconds of unit work, mean reference time)"""
        self.samples = []
        for _ in range(EDGE_SAMPLES):
            self._sample()
        self.spent = 0.0
        previous = signal.signal(signal.SIGALRM, self._sample)
        signal.setitimer(signal.ITIMER_REAL, SAMPLE_PERIOD, SAMPLE_PERIOD)
        start = perf_counter()
        try:
            got = run_unit(unit)
        finally:
            elapsed = perf_counter() - start
            signal.setitimer(signal.ITIMER_REAL, 0, 0)
            signal.signal(signal.SIGALRM, previous)
        work = elapsed - self.spent
        for _ in range(EDGE_SAMPLES):
            self._sample()
        return got, work, sum(self.samples) / len(self.samples)


def import_program():
    """A fresh import of coretorus from the checkout's src/."""
    if not (SRC / "coretorus" / "__init__.py").is_file():
        raise ProgramMissing(f"no coretorus package under {SRC}")
    if str(SRC) not in sys.path:
        sys.path.insert(0, str(SRC))
    for name in [m for m in sys.modules if m == "coretorus" or m.startswith("coretorus.")]:
        del sys.modules[name]
    try:
        return importlib.import_module("coretorus")
    except Exception as e:
        raise ProgramMissing(f"coretorus does not import: {e!r}") from e


def setup(workload, seed, size):
    """Import the program and build the inputs; (seconds, workload).  The
    previous import's modules are collected first, untimed, so that memory
    and heap size do not grow with the number of passes."""
    gc.collect()
    start = perf_counter()
    ct = import_program()
    wl = workloads.build(workload, ct, seed, size)
    return perf_counter() - start, wl


def run_unit(unit):
    """The unit's verdicts; an exception or a wrong verdict count fails all."""
    try:
        got = unit.run()
    except Exception as e:
        print(f"unit {unit.name} raised {e!r}", file=sys.stderr)
        return [False] * len(unit.verdicts)
    if len(got) != len(unit.verdicts):
        return [False] * len(unit.verdicts)
    return [bool(v) for v in got]


def one_pass(wl, tracer=None):
    """Every unit once.  Returns the pass time, each unit's time over the
    reference time beside it, the reference times, the verdicts, and the
    tracer's busy times and counts."""
    sampler = Sampler(tracer)
    ratios, refs, verdicts = [], [], []
    total = 0.0
    for unit in wl.units:
        if tracer is not None:
            tracer.install()
        try:
            got, work, ref = sampler.time_unit(unit)
        finally:
            if tracer is not None:
                tracer.uninstall()
        total += work
        ratios.append(work / ref)
        refs.append(ref)
        verdicts.extend(zip(unit.verdicts, got))
    traced = tracer.take() if tracer is not None else None
    return {"pass_s": total, "ratios": ratios, "refs": refs,
            "verdicts": verdicts, "traced": traced}


def measure(workload, seed, size, seconds, trace):
    """Passes until ``seconds`` of passes have run (at least one; with
    tracing at least one traced and one untraced, alternating).  Set-up runs
    SETUP_REPEATS times before the first pass and once more after every
    pass, so its samples spread over the run; each pass uses the inputs of
    the set-up just before it.  Returns the passes, the set-up times and
    the tracer."""
    tracer = spans.Tracer() if trace else None
    setups, plain, traced = [], [], []
    for _ in range(SETUP_REPEATS):
        seconds_taken, wl = setup(workload, seed, size)
        setups.append(seconds_taken)
    start = perf_counter()
    while True:
        use_tracer = tracer is not None and len(traced) < len(plain)
        p = one_pass(wl, tracer if use_tracer else None)
        (traced if use_tracer else plain).append(p)
        if perf_counter() - start >= seconds and (tracer is None or traced):
            break
        seconds_taken, wl = setup(workload, seed, size)
        setups.append(seconds_taken)
    return plain, traced, setups, tracer, wl


def pass_ref(passes):
    """Per unit the median of its time over the reference beside it,
    summed over the units of a pass."""
    return sum(median(p["ratios"][u] for p in passes) for u in range(len(passes[0]["ratios"])))


def end_to_end(plain, setup_s):
    verdicts = [ok for p in plain for _, ok in p["verdicts"]]
    return {
        "pass_ref": pass_ref(plain),
        "setup_s": setup_s,
        "peak_rss_mib": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024,
        "ok_frac": sum(verdicts) / len(verdicts),
    }


PER_LAYER = (
    ("search.busy_s", "s"), ("search.enumerations", "count"),
    ("search.vectors", "count"), ("search.matching_checks", "count"),
    ("search.disc_yield", "ratio"), ("search.inconclusive", "count"),
    ("normal.reconstruct.busy_s", "s"), ("normal.reconstruct.calls", "count"),
    ("normal.trace.busy_s", "s"), ("normal.trace.calls", "count"),
    ("homology.busy_s", "s"), ("homology.calls", "count"),
    ("homology.snf_calls", "count"),
    ("triangulation.busy_s", "s"), ("triangulation.calls", "count"),
    ("boundary.busy_s", "s"),
    ("layered.busy_s", "s"), ("layered.calls", "count"),
    ("curves.busy_s", "s"), ("curves.calls", "count"),
    ("bundle.busy_s", "s"), ("bundle.cells", "count"),
    ("geometry.busy_s", "s"),
    ("unwrapped.busy_s", "s"),
) + tuple((f"{layer}.errors", "count") for layer in spans.LAYERS) + (
    ("pass_s", "s"), ("reference_s", "s"), ("trace_overhead", "ratio"),
)


def per_layer(plain, traced):
    """Per traced pass: self time per span, time outside every span, and
    counts; reported as medians over the traced passes."""
    rows = []
    for p in traced:
        busy, counts = p["traced"]
        row = dict(counts)
        for name, seconds in busy.items():
            row[f"{name}.busy_s"] = seconds
        row["unwrapped.busy_s"] = p["pass_s"] - sum(busy.values())
        found = row.get("search.discs", 0)
        rebuilt = row.get("search.reconstructs", 0)
        row["search.disc_yield"] = found / rebuilt if rebuilt else 0.0
        rows.append(row)
    witnesses = {"pass_s": median(p["pass_s"] for p in plain),
                 "reference_s": median(r for p in plain + traced for r in p["refs"]),
                 "trace_overhead": pass_ref(traced) / pass_ref(plain)}
    out = {name: witnesses[name] if name in witnesses else median(r.get(name, 0) for r in rows)
           for name, _ in PER_LAYER}
    return out, rows


def trace_checks(rows, metrics, wl, tracer):
    """Traced counts repeat exactly between passes, and the enumerator
    admits the recorded number of vectors."""
    checks = [(f"{name} repeats between traced passes", len({r.get(name, 0) for r in rows}) == 1)
              for name, unit in PER_LAYER if unit == "count"]
    if (wl.vectors_per_pass is not None
            and "coretorus.search.enumerate_admissible" not in tracer.absent):
        checks.append((f"search.vectors {metrics['search.vectors']} per pass, "
                       f"recorded {wl.vectors_per_pass}",
                       metrics["search.vectors"] == wl.vectors_per_pass))
    return checks


def src_digest():
    h = hashlib.sha256()
    for path in sorted(SRC.rglob("*.py")):
        h.update(str(path.relative_to(SRC)).encode() + b"\0" + path.read_bytes())
    return h.hexdigest()[:16]


def commit():
    head = ROOT / ".git" / "HEAD"
    try:
        ref = head.read_text().strip()
        if ref.startswith("ref: "):
            return (ROOT / ".git" / ref[5:]).read_text().strip()
        return ref
    except OSError:
        return "unknown"


def cpu_model():
    try:
        for line in Path("/proc/cpuinfo").read_text().splitlines():
            if line.startswith("model name"):
                return line.split(":", 1)[1].strip()
    except OSError:
        pass
    return platform.processor() or "unknown"


def load_average():
    try:
        return list(os.getloadavg())
    except OSError:
        return None


def run(workload, seed, seconds, trace, size="full"):
    """One benchmark run; returns (facts, result) as printed."""
    facts = {"workload": workload, "seed": seed, "seconds": seconds,
             "trace": trace, "size": size, "nproc": os.cpu_count(),
             "cpu": cpu_model(), "python": platform.python_version(),
             "pythonhashseed": os.environ.get("PYTHONHASHSEED", "unset"),
             "load_start": load_average()}
    plain, traced, setups, tracer, wl = measure(workload, seed, size, seconds, trace)
    facts.update(commit=commit(), src_sha256=src_digest(), units=len(wl.units),
                 setups=len(setups))
    checks = [(name, ok) for p in plain + traced for name, ok in p["verdicts"]]
    if trace:
        metrics, rows = per_layer(plain, traced)
        facts["absent"] = tracer.absent
        checks += trace_checks(rows, metrics, wl, tracer)
        units = dict(PER_LAYER)
    else:
        metrics = end_to_end(plain, median(setups))
        units = END_TO_END_UNITS
    failed = [name for name, ok in checks if not ok]
    facts.update(passes=len(plain), traced_passes=len(traced),
                 pass_s=[p["pass_s"] for p in plain],
                 load_end=load_average(), failures=failed[:10])
    result = {
        "correct": not failed,
        "attempted": len(checks),
        "failed": len(failed),
        "metrics": {name: {"value": value, "unit": units[name]}
                    for name, value in metrics.items()},
    }
    return facts, result


def main(argv=None):
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("--workload", required=True, choices=workloads.WORKLOADS)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args(argv)
    try:
        facts, result = run(args.workload, args.seed, args.seconds, bool(args.trace))
    except ProgramMissing as e:
        print(f"perfbench: {e}", file=sys.stderr)
        return 2
    print(json.dumps({"facts": facts}))
    print(json.dumps(result))
    return 0 if result["correct"] else 1


if __name__ == "__main__":
    sys.exit(main())
