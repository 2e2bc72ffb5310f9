"""cgmlab benchmark: time one workload end to end, or per layer when traced.

    python3 cgmbench/run.py --workload interface-sites --seed 1 --seconds 30 --trace 0

Run from the root of a source checkout; cgmlab is imported from ./src.
The run repeats whole rounds of the workload's fixed operations until
--seconds have passed, checks every output, appends a record to
cgmbench/results/runs.jsonl and prints one JSON result as its last line:
the end-to-end metrics with --trace 0, the per-layer metrics with --trace 1.
Compare two record files with cgmbench/compare.py.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import resource
import shutil
import statistics
import subprocess
import sys
import time
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]
RESULTS = ROOT / "cgmbench" / "results"
SETUP_SAMPLES = 7  # this process plus six fresh interpreters spread over the run


def _parse(argv, spec):
    p = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    p.add_argument("--workload", required=True,
                   choices=[w["name"] for w in spec["workloads"]])
    p.add_argument("--seed", type=int, required=True)
    p.add_argument("--seconds", type=float, required=True)
    p.add_argument("--trace", type=int, choices=(0, 1), default=0)
    p.add_argument("--setup-probe", action="store_true",
                   help="only time import plus warm-up and print the seconds")
    return p.parse_args(argv)


def _set_up(name: str, seed: int, tmp_dir: Path):
    """Import cgmlab with its numpy/scipy stack and run one warm-up item;
    returns (seconds taken, workloads module, tracer, workload)."""
    t0 = time.perf_counter()
    sys.path.insert(0, str(ROOT / "src"))
    import cgmlab  # noqa: F401  (the import is what is timed)
    if not Path(cgmlab.__file__).resolve().is_relative_to(ROOT / "src"):
        raise ImportError(f"cgmlab imported from {cgmlab.__file__}, not from ./src")
    import tracing
    import workloads
    tracer = tracing.Tracer()
    failures: list[str] = []
    wl = workloads.WORKLOADS[name](seed, tracer, tmp_dir, failures)
    wl.warm_up()
    return time.perf_counter() - t0, workloads, tracer, wl


def _setup_probe(name: str, seed: int) -> float:
    proc = subprocess.run(
        [sys.executable, str(Path(__file__)), "--workload", name, "--seed", str(seed),
         "--seconds", "0", "--setup-probe"],
        cwd=ROOT, capture_output=True, text=True, timeout=120)
    if proc.returncode != 0:
        raise RuntimeError(f"set-up probe failed: {proc.stderr.strip()[-500:]}")
    return float(proc.stdout.strip().splitlines()[-1])


def _cpu() -> float:
    kids = resource.getrusage(resource.RUSAGE_CHILDREN)
    return time.process_time() + kids.ru_utime + kids.ru_stime


def _machine() -> dict:
    facts = {"nproc": os.cpu_count(), "affinity": len(os.sched_getaffinity(0)),
             "python": platform.python_version(), "cpu": platform.processor() or "unknown"}
    try:
        with open("/proc/cpuinfo") as fh:
            facts["cpu"] = next(line.split(":", 1)[1].strip() for line in fh
                                if line.startswith("model name"))
    except (OSError, StopIteration):
        pass
    import numpy
    import scipy
    facts["numpy"], facts["scipy"] = numpy.__version__, scipy.__version__
    facts["commit"] = _commit()
    return facts


def _commit() -> str:
    """HEAD of the checkout's git directory, read from its files; a
    checkout without one reports 'none'."""
    git = ROOT / ".git"
    try:
        head = (git / "HEAD").read_text().strip()
        if not head.startswith("ref: "):
            return head
        ref = head[5:]
        if (git / ref).is_file():
            return (git / ref).read_text().strip()
        for line in (git / "packed-refs").read_text().splitlines():
            if line.endswith(" " + ref):
                return line.split()[0]
    except OSError:
        pass
    return "none"


def _one_round(wl, tracer, r: int, traced: bool):
    """Run round r with tracing on or off, then its checks; returns wall and
    CPU seconds of the round and the peak RSS in MB before the checks ran."""
    tracer.enabled = traced
    c0, t0 = _cpu(), time.perf_counter()
    wl.run_round(r)
    t1 = time.perf_counter()
    c1 = _cpu()
    peak_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024
    wl.check_round(r, traced)
    tracer.enabled = False
    return t1 - t0, c1 - c0, peak_mb


def main(argv=None) -> int:
    # Workload and metric names and units are declared once, in BENCHMARK.json.
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    args = _parse(sys.argv[1:] if argv is None else argv, spec)
    if not (ROOT / "src" / "cgmlab" / "__init__.py").is_file():
        print(f"error: no cgmlab sources under {ROOT / 'src'}", file=sys.stderr)
        return 2
    tmp_dir = RESULTS / f"tmp-{os.getpid()}"
    tmp_dir.mkdir(parents=True, exist_ok=True)
    try:
        return _run(args, spec, tmp_dir)
    finally:
        shutil.rmtree(tmp_dir, ignore_errors=True)


def _run(args, spec, tmp_dir: Path) -> int:
    end_to_end = {m["name"]: m["unit"] for m in spec["end_to_end"]}
    per_layer = {m["name"]: m["unit"] for m in spec["per_layer"]}
    setup_s, workloads, tracer, wl = _set_up(args.workload, args.seed, tmp_dir)
    if args.setup_probe:
        print(repr(setup_s))
        return 0
    started = time.perf_counter()
    setups = [setup_s]
    probes = 0 if args.trace else SETUP_SAMPLES - 1
    import reference
    wl.failures += [f"reference self-test: {f}" for f in reference.self_test(args.seed)]

    everyone = [wl]
    if args.trace:
        # Layers the workload never reaches are timed on one traced round
        # of the workload that owns them.
        for other in workloads.WORKLOADS:
            if other != args.workload:
                owner = workloads.WORKLOADS[other](args.seed, tracer, tmp_dir, wl.failures)
                _one_round(owner, tracer, 0, True)
                tracer.enabled = True
                owner.finish(True)
                tracer.enabled = False
                everyone.append(owner)

    # Whole rounds until the time is up; a traced run alternates untraced
    # and traced rounds so the trace's own cost can be read off.
    walls = {False: [], True: []}
    cpus = []
    r = 0
    while r == 0 or time.perf_counter() - started < args.seconds or (args.trace and r % 2):
        traced = bool(args.trace and r % 2)
        wall, cpu, peak_mb = _one_round(wl, tracer, r, traced)
        if r == 0:
            # The checks allocate arrays of their own; the peak that counts
            # is the program's, read before the first check runs.
            first_peak_mb = peak_mb
        walls[traced].append(wall)
        if not traced:
            cpus.append(cpu)
        r += 1
        # Fresh-interpreter set-ups are spread evenly over the run, between
        # rounds, so that a slow stretch of the host weighs on a few of them
        # rather than on all; their time counts against --seconds.
        while (len(setups) <= probes and
               time.perf_counter() - started >= args.seconds * len(setups) / (probes + 1)):
            setups.append(_setup_probe(args.workload, args.seed))
    tracer.enabled = bool(args.trace)
    wl.finish(bool(args.trace))
    tracer.enabled = False

    if args.trace:
        values = tracer.layer_metrics(per_layer)
        for owner in everyone:
            for name, vals in owner.derived.items():
                values[name] = statistics.median(vals)
        values["trace.overhead_s"] = (statistics.median(walls[True])
                                      - statistics.median(walls[False]))
        units = per_layer
    else:
        values = {"setup_s": statistics.median(setups),
                  "wall_s": statistics.median(walls[False]),
                  "cpu_s": statistics.median(cpus),
                  "peak_rss_mb": first_peak_mb}
        units = end_to_end
    missing = sorted(set(units) - set(values))
    wl.failures += [f"metric {m} was not measured" for m in missing]

    attempted = sum(o.attempted for o in everyone)
    failed = sum(o.failed for o in everyone)
    result = {"correct": not wl.failures, "attempted": attempted, "failed": failed,
              "metrics": {m: {"value": values[m], "unit": units[m]}
                          for m in units if m in values}}
    record = {"workload": args.workload, "seed": args.seed, "seconds": args.seconds,
              "trace": args.trace, "machine": _machine(),
              "counts": {o.name: o.counts() for o in everyone},
              "rounds": {"untraced_wall_s": walls[False], "traced_wall_s": walls[True],
                         "untraced_cpu_s": cpus},
              "setup_s": setups,
              "failures": wl.failures, **result}
    with open(RESULTS / "runs.jsonl", "a") as fh:
        fh.write(json.dumps(record) + "\n")
    if args.trace:
        tracer.write(RESULTS / f"spans-{args.workload}-seed{args.seed}.jsonl")
    for f in wl.failures:
        print(f"check failed: {f}", file=sys.stderr)
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
