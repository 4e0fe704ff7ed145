"""sexticrank benchmark.

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1

Runs one workload (certify, census, rank, oracle) against the package in
``src/`` of the checkout this file sits in, checks every output against
an independent reference, and prints a JSON line of run facts followed
by the result line:

    {"correct": ..., "attempted": ..., "failed": ..., "metrics": {...}}

``--trace 0`` repeats whole passes over the workload's inputs until S
seconds have passed, and at least the workload's ``passes``, and reports
the end-to-end metrics.  Only the first ``passes`` passes count: an
input's latency is the median of its runs in them, and ``attempted`` and
``failed`` count their ops, so that every run reports the same work
whatever the machine's speed.  p50/p90 are taken over inputs.  The outputs
of every pass are checked.

On a shared machine whose speed drifts by up to 2x for minutes at a time,
raw times spread by 20-40% from run to run, so the gated latency metrics
are calibrated: each op's time is divided by the mean time of a fixed
exact-arithmetic probe run just before and just after its unit of work
(unit "probe").  A single probe takes milliseconds and reads up to 2x
apart from one moment to the next, so each gap between units is probed
for a fixed share of the unit's time, and the samples are averaged.  The raw times are in the run facts, under their ROADMAP
names.

``--trace 1`` runs one pass untraced and then one traced and reports the
per-layer metrics, with the tracing overhead as traced wall time over
untraced wall time.  ``--workload all`` runs every workload in its own
process and prints the end-to-end metrics under their ROADMAP names.  Run
facts, results and spans are also written to ``perfbench/out/``.
"""

import argparse
import gc
import hashlib
import json
import math
import os
import platform
import resource
import statistics
import subprocess
import sys
import tempfile
from fractions import Fraction
from pathlib import Path
from time import perf_counter

import workloads
from tracer import OVERHEAD_METRIC, Tracer, per_layer_metrics

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
OUT = HERE / "out"
SETUP_REPEATS = 7
PROBE_TERMS = 300
#: probe time after a unit, as a share of the unit's time (one probe at least)
PROBE_SHARE = 0.02

#: end-to-end metrics: name -> unit
END_TO_END = {
    "setup_s": "s",
    "peak_rss_mb": "MB",
    "primary_p50": "probe",
    "primary_p90": "probe",
    "secondary_p50": "probe",
    "secondary_p90": "probe",
}


def _p90(values: list) -> float:
    """Nearest-rank 90th percentile (the maximum below ten samples)."""
    ordered = sorted(values)
    return ordered[math.ceil(0.9 * len(ordered)) - 1]


def latency_stats(records: list, kind: str, runs: int, calibrated=False) -> dict:
    """p50 and p90 over inputs of each input's median successful run among
    its first ``runs``, in ms, or in probe times when calibrated."""
    samples = {}
    for r in records:
        if r.kind == kind and r.ok:
            value = r.seconds / r.probe if calibrated else r.seconds * 1e3
            samples.setdefault(r.key, []).append(value)
    if not samples:
        raise RuntimeError(f"no successful {kind} op to time")
    typical = [statistics.median(values[:runs]) for values in samples.values()]
    return {"p50": statistics.median(typical), "p90": _p90(typical),
            "inputs": len(typical), "samples": len(typical) * runs}


def measure_setup(repeats: int = SETUP_REPEATS) -> list:
    """Wall times of fresh processes importing sexticrank and its CLI,
    after one untimed run that writes the bytecode cache."""
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(
        p for p in (str(ROOT / "src"), env.get("PYTHONPATH")) if p)
    cmd = [sys.executable, "-c", "import sexticrank, sexticrank.cli"]
    subprocess.run(cmd, env=env, check=True)
    times = []
    for _ in range(repeats):
        start = perf_counter()
        subprocess.run(cmd, env=env, check=True)
        times.append(perf_counter() - start)
    return times


def peak_rss_mb() -> float:
    """Peak RSS of this process plus that of its largest child."""
    kib = (resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
           + resource.getrusage(resource.RUSAGE_CHILDREN).ru_maxrss)
    return kib / 1024


def run_facts(args) -> dict:
    source = hashlib.sha256()
    for path in sorted((ROOT / "src" / "sexticrank").glob("*.py")):
        source.update(path.read_bytes())
    commit = None
    if (ROOT / ".git").exists():
        try:
            commit = subprocess.run(
                ["git", "rev-parse", "HEAD"], cwd=ROOT, capture_output=True,
                text=True, timeout=30).stdout.strip() or None
        except (OSError, subprocess.SubprocessError):
            commit = None
    return {"workload": args.workload, "seed": args.seed,
            "seconds": args.seconds, "trace": args.trace,
            "nproc": os.cpu_count(), "python": platform.python_version(),
            "platform": platform.platform(), "git_commit": commit,
            "source_sha256": source.hexdigest()}


def probe() -> float:
    """Seconds for a fixed piece of exact arithmetic (Fraction products and
    sums, like the program's own): the machine's current speed."""
    start = perf_counter()
    total = Fraction(0)
    for i in range(1, PROBE_TERMS):
        total += Fraction(i, i + 1) * Fraction(i + 2, i + 3)
    return perf_counter() - start


def probe_after(seconds: float) -> float:
    """Mean probe time over samples that take PROBE_SHARE of ``seconds``,
    the time of the unit just run, and at least one sample."""
    samples = [probe()]
    while sum(samples) < PROBE_SHARE * seconds:
        samples.append(probe())
    return statistics.mean(samples)


def settle():
    """Collect a unit's garbage and freeze what survives, so that the
    collector's passes during the next unit see only that unit's objects,
    as in a fresh process, not everything the benchmark has kept."""
    gc.collect()
    gc.freeze()


def measure(workload, runner, seconds: float):
    """Whole passes until ``seconds`` are up, with a probe between units;
    each record gets its pass and the mean probe time around its unit."""
    start = perf_counter()
    before = probe()
    passes = 0
    while passes < workload.passes or perf_counter() - start < seconds:
        for unit in workload.units():
            first = len(runner.records)
            unit_start = perf_counter()
            workload.run_unit(runner, unit)
            settle()
            after = probe_after(perf_counter() - unit_start)
            for record in runner.records[first:]:
                record.probe = (before + after) / 2
                record.run = passes
            before = after
        passes += 1


def trace(workload, workdir):
    """One pass untraced, then one traced; returns the traced runner, the
    tracer and the overhead ratio."""
    units = workload.units()
    plain = workloads.Runner(workdir)
    start = perf_counter()
    for unit in units:
        workload.run_unit(plain, unit)
        settle()
    untraced = perf_counter() - start
    tracer = Tracer()
    traced = workloads.Runner(workdir, tracer)
    tracer.install()
    try:
        start = perf_counter()
        for unit in units:
            workload.run_unit(traced, unit)
            settle()
        elapsed = perf_counter() - start
    finally:
        tracer.uninstall()
    if [(r.ok, r.digest) for r in plain.records] != [
            (r.ok, r.digest) for r in traced.records]:
        raise RuntimeError("tracing changed the program's outputs")
    return traced, tracer, elapsed / untraced


def judge(workload, records, ref) -> bool:
    """Whether the run's outputs are correct: every failed op is a known
    defect and every output agrees with the reference."""
    from checks import CheckFailed, check_failures

    try:
        check_failures(records, ref)
        workload.check(records, ref, ROOT)
    except CheckFailed as exc:
        print(f"perfbench: wrong output: {exc}", file=sys.stderr)
        return False
    return True


def run_one(args) -> int:
    workload = workloads.WORKLOADS[args.workload](args.seed)
    OUT.mkdir(exist_ok=True)
    facts = run_facts(args)
    with tempfile.TemporaryDirectory(dir=OUT) as workdir:
        workdir = Path(workdir)
        if args.trace:
            runner, tracer, overhead = trace(workload, workdir)
            values = tracer.metrics()
            values[OVERHEAD_METRIC] = overhead
            units = {name: unit for name, unit, _ in per_layer_metrics()}
            spans_path = OUT / f"spans-{args.workload}-seed{args.seed}.jsonl"
            with open(spans_path, "w") as fh:
                for span in tracer.spans:
                    fh.write(json.dumps(dict(zip(
                        ("id", "name", "start", "end", "parent", "op"), span))) + "\n")
        else:
            setup_times = measure_setup()
            runner = workloads.Runner(workdir)
            measure(workload, runner, args.seconds)
            rss = peak_rss_mb()
            kinds = (workload.primary, workload.secondary)
            stats = {kind: latency_stats(runner.records, kind, workload.passes)
                     for kind in kinds}
            prim, sec = (latency_stats(runner.records, kind, workload.passes,
                                       calibrated=True)
                         for kind in kinds)
            values = {"setup_s": statistics.median(setup_times),
                      "peak_rss_mb": rss,
                      "primary_p50": prim["p50"], "primary_p90": prim["p90"],
                      "secondary_p50": sec["p50"], "secondary_p90": sec["p90"]}
            units = END_TO_END
            facts["probe_median_ms"] = statistics.median(
                r.probe for r in runner.records) * 1e3
            facts["samples"] = {kind: {"inputs": s["inputs"], "runs": s["samples"]}
                                for kind, s in stats.items()}
            facts["setup_samples_s"] = setup_times
            facts["named_metrics"] = {
                name: {"value": v, "unit": u}
                for name, (v, u) in workload.named_metrics(stats).items()}
    from reference import sympy_reference

    counted = [r for r in runner.records if r.run < workload.passes]
    failed = [r for r in counted if not r.ok]
    facts["failed_ratio"] = len(failed) / len(counted)
    facts["failures"] = sorted({f"{r.kind}: {r.error}" for r in failed})[:20]
    correct = judge(workload, runner.records, sympy_reference())
    result = {"correct": correct, "attempted": len(counted),
              "failed": len(failed),
              "metrics": {name: {"value": values[name], "unit": unit}
                          for name, unit in units.items()}}
    with open(OUT / f"result-{args.workload}-seed{args.seed}"
              f"-trace{args.trace}.json", "w") as fh:
        json.dump({"facts": facts, "result": result}, fh, indent=2)
    print(json.dumps({"facts": facts}))
    print(json.dumps(result))
    return 0 if correct else 1


def run_all(args) -> int:
    """Every workload in its own process; prints each result and, without
    tracing, the end-to-end metrics under their ROADMAP names."""
    status = 0
    named = {}
    for name in workloads.WORKLOADS:
        proc = subprocess.run(
            [sys.executable, str(HERE / "run.py"), "--workload", name,
             "--seed", str(args.seed), "--seconds", str(args.seconds),
             "--trace", str(args.trace)],
            capture_output=True, text=True)
        lines = proc.stdout.strip().splitlines()
        if proc.returncode or len(lines) < 2:
            print(f"{name}: exit {proc.returncode}\n{proc.stderr}", file=sys.stderr)
            status = 1
            continue
        facts, result = json.loads(lines[-2])["facts"], json.loads(lines[-1])
        print(f"{name}: {json.dumps(result)}")
        if not args.trace:
            for metric in ("setup_s", "peak_rss_mb"):
                named[f"{name}.{metric}"] = result["metrics"][metric]
            named[f"{name}.failed_ratio"] = {"value": facts["failed_ratio"],
                                             "unit": "ratio"}
            named.update(facts["named_metrics"])
            named.update({f"{name}.{kind}.{what}": {"value": n, "unit": "count"}
                          for kind, s in facts["samples"].items()
                          for what, n in s.items()})
    for metric, m in named.items():
        print(f"{metric:40s} {m['value']:14.4f} {m['unit']}")
    return status


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True,
                        choices=sorted(workloads.WORKLOADS) + ["all"])
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    for needed in (ROOT / "src" / "sexticrank" / "cli.py",
                   ROOT / "docs" / "certificate.schema.json"):
        if not needed.is_file():
            print(f"perfbench: {needed} not found; run from a checkout of "
                  "the repository", file=sys.stderr)
            return 2
    if args.workload == "all":
        return run_all(args)
    sys.path.insert(0, str(ROOT / "src"))
    return run_one(args)


if __name__ == "__main__":
    sys.exit(main())
