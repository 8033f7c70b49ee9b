#!/usr/bin/env python3
"""Simulator benchmark: build dqos_bench, run one workload, print metrics.

    python3 dqos_bench/run.py --workload NAME --seed N --seconds S --trace 0|1
    python3 dqos_bench/run.py                  # every workload, interleaved
    python3 dqos_bench/run.py --smoke          # shrunk workloads, self-check

Workloads, metrics and bounds are listed in BENCHMARK.json at the repo root;
dqos_bench/README.md explains them. Each repetition is a fresh dqos_bench
process. With --trace 0 the run repeats timed repetitions for --seconds and
reports the end-to-end metrics (summarize() says how they are taken); with
--trace 1 it spends half the budget on timed repetitions and then makes one
traced repetition, which gives the per-layer metrics. A repetition fails when it crashes, breaks a
model invariant, or its output fingerprint differs from the run's other
repetitions or, at seed 1, from dqos_bench/pins.json.

The last stdout line is one JSON object with the keys correct, attempted,
failed and metrics. The full record (every repetition, quartiles, machine,
commit, build type) goes to --out, by default under the build directory.
"""
import argparse
import json
import os
import platform
import re
import shutil
import statistics
import subprocess
import sys
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
OPTIMIZED = ("Release", "RelWithDebInfo", "MinSizeRel")
REP_TIMEOUT_S = 60
MIN_TIMED_REPS = 3
ALL_REPS = 8  # timed repetitions per workload when running all of them


def log(msg):
    print(msg, file=sys.stderr, flush=True)


def load_spec():
    return json.loads((ROOT / "BENCHMARK.json").read_text())


def load_pins():
    return json.loads((HERE / "pins.json").read_text())


# --- build -------------------------------------------------------------------

def build(build_dir: Path) -> Path:
    """Configures (once) and builds dqos_bench; returns the binary path.
    Exits nonzero on a failed or unoptimized build."""
    cache = build_dir / "CMakeCache.txt"
    if not cache.exists():
        cmd = ["cmake", "-S", str(HERE), "-B", str(build_dir),
               "-DCMAKE_BUILD_TYPE=Release"]
        if shutil.which("ninja"):
            cmd += ["-G", "Ninja"]
        step(cmd)
    build_type = build_type_of(build_dir)
    if build_type not in OPTIMIZED:
        log(f"run.py: refusing {build_dir}: CMAKE_BUILD_TYPE='{build_type}' "
            f"is not optimized ({', '.join(OPTIMIZED)})")
        sys.exit(2)
    jobs = str(min(4, os.cpu_count() or 1))
    step(["cmake", "--build", str(build_dir), "--target", "dqos_bench",
          "-j", jobs])
    return build_dir / "dqos_bench"


def step(cmd):
    proc = subprocess.run(cmd, cwd=ROOT, capture_output=True, text=True)
    if proc.returncode != 0:
        log(proc.stdout + proc.stderr)
        log(f"run.py: build step failed: {' '.join(cmd)}")
        sys.exit(1)


def build_type_of(build_dir: Path) -> str:
    for line in (build_dir / "CMakeCache.txt").read_text().splitlines():
        if line.startswith("CMAKE_BUILD_TYPE:"):
            return line.split("=", 1)[1].strip()
    return ""


# --- provenance --------------------------------------------------------------

def machine_label() -> str:
    """hostname | CPU model, as scripts/bench_report.py labels machines."""
    cpu = ""
    try:
        for line in Path("/proc/cpuinfo").read_text().splitlines():
            if line.lower().startswith("model name"):
                cpu = line.split(":", 1)[1].strip()
                break
    except OSError:
        cpu = platform.machine()
    cpu = re.sub(r"\s+", " ", cpu)
    return f"{platform.node()} | {cpu}"


def commit() -> str:
    if not (ROOT / ".git").exists():
        return "unknown"
    proc = subprocess.run(["git", "-C", str(ROOT), "rev-parse", "--short",
                           "HEAD"], capture_output=True, text=True)
    return proc.stdout.strip() if proc.returncode == 0 else "unknown"


# --- repetitions -------------------------------------------------------------

def repetition(binary, workload, seed, traced=False, smoke=False,
               trace_out=None):
    """Runs one dqos_bench process; returns its record, with `error` set
    when it crashed or printed no result."""
    cmd = [str(binary), f"--workload={workload}", f"--seed={seed}"]
    if traced:
        cmd.append("--trace")
    if smoke:
        cmd.append("--smoke")
    if trace_out:
        cmd.append(f"--trace-out={trace_out}")
    try:
        proc = subprocess.run(cmd, cwd=ROOT, capture_output=True, text=True,
                              timeout=REP_TIMEOUT_S)
    except subprocess.TimeoutExpired:
        return {"error": f"timed out after {REP_TIMEOUT_S} s"}
    lines = proc.stdout.strip().splitlines()
    if proc.returncode != 0 or not lines:
        return {"error": f"exit {proc.returncode}: {proc.stderr.strip()}"}
    try:
        return json.loads(lines[-1])
    except json.JSONDecodeError:
        return {"error": "unparsable output: " + lines[-1][:200]}


def check(rep, reference, pin):
    """Reasons this repetition counts as failed (empty list = passed)."""
    if "error" in rep:
        return [rep["error"]]
    reasons = list(rep["failures"])
    for key in ("events", "report_hash"):
        if reference is not None and rep[key] != reference[key]:
            reasons.append(f"{key} differs between repetitions")
        if pin is not None and rep[key] != pin[key]:
            reasons.append(f"{key} {rep[key]} != pin {pin[key]}")
    if rep.get("traced") and pin is not None \
            and rep["fire_hash"] != pin["fire_hash"]:
        reasons.append(f"fire_hash {rep['fire_hash']} != pin "
                       f"{pin['fire_hash']}")
    return reasons


def quartiles(values):
    if len(values) < 2:
        return values[0], values[0], values[0]
    q1, q2, q3 = statistics.quantiles(values, n=4)
    return q1, q2, q3


def pin_for(workload, seed, smoke):
    pins = load_pins()
    if smoke or seed != pins["seed"]:
        return None
    return pins["workloads"].get(workload)


def summarize(reps):
    """End-to-end metrics over the repetitions that passed, plus the raw
    per-repetition distributions they come from (README.md, "How a run
    measures").

    On a shared host, other tenants slow this process in bursts of a
    fraction of a second and, for minutes at a time, take part of its core.
    Both only ever slow work down. The simulation is deterministic, so
    slice i (the i-th 65536 events) is the same work in every repetition:
    the run time is the sum of each slice's fastest time across the
    repetitions, and setup_s is the fastest setup. Each repetition also
    probes its core speed against the baseline machine's (core_speed, 1.0
    on an idle core there); times are scaled by the run's fastest probe,
    so they read as on an idle baseline core. cpu_ns_per_event is that run
    time times the median CPU-to-wall ratio, which exceeds 1 when shard
    workers spin. peak_rss_mb is the median."""
    good = [r for r in reps if not r["fail_reasons"]]
    if not good:
        return {}, {}
    events = good[0]["events"]
    speed = max(r["core_speed"] for r in good)
    run_s = sum(min(s) for s in zip(*(r["slice_s"] for r in good))) * speed
    cpu_per_wall = statistics.median(r["cpu_s"] / r["run_s"] for r in good)
    metrics = {
        "events_per_s": events / run_s,
        "cpu_ns_per_event": run_s * cpu_per_wall / events * 1e9,
        "setup_s": min(r["setup_s"] for r in good) * speed,
        "peak_rss_mb": statistics.median(r["peak_rss_mb"] for r in good),
    }
    raw = {}
    for key in ("events_per_s", "cpu_s", "run_s", "setup_s", "peak_rss_mb",
                "core_speed"):
        q1, med, q3 = quartiles([r[key] for r in good])
        raw[key] = {"median": med, "q1": q1, "q3": q3, "n": len(good)}
    return metrics, raw


def traced_pass(binary, workload, seed, smoke, trace_out, reference, pin,
                record):
    """One traced repetition; fills record's fingerprint and per_layer
    metrics. Returns the repetition."""
    rep = repetition(binary, workload, seed, traced=True, smoke=smoke,
                     trace_out=trace_out)
    rep["fail_reasons"] = check(rep, reference, pin)
    record["traced_rep"] = rep
    if "error" in rep:
        return rep
    record["fingerprint"] = {k: rep[k] for k in
                             ("events", "report_hash", "fire_hash")}
    layers = dict(rep["layers"])
    timed = [r["events_per_s"] / r["core_speed"]
             for r in record["timed_reps"] if not r["fail_reasons"]]
    if timed:
        layers["trace.overhead"] = \
            rep["events_per_s"] / rep["core_speed"] / statistics.median(timed)
    record["per_layer"] = layers
    return rep


def measure(binary, workload, seed, seconds, traced, smoke, trace_out):
    """Timed repetitions for the budget (half of it when traced), then the
    traced repetition. Returns (record, reps)."""
    pin = pin_for(workload, seed, smoke)
    budget = seconds / 2 if traced else seconds
    min_reps = 1 if smoke else MIN_TIMED_REPS
    start = time.monotonic()
    reps, reference = [], None
    while len(reps) < min_reps or time.monotonic() - start < budget:
        rep = repetition(binary, workload, seed, smoke=smoke)
        rep["fail_reasons"] = check(rep, reference, pin)
        if "error" not in rep and reference is None:
            reference = rep
        reps.append(rep)
        if "error" in rep and len(reps) >= min_reps:
            break
    metrics, raw = summarize(reps)
    record = {"workload": workload, "seed": seed, "smoke": smoke,
              "timed_reps": list(reps), "fingerprint": None,
              "end_to_end": metrics, "raw": raw}
    if reference is not None:
        record["fingerprint"] = {k: reference[k]
                                 for k in ("events", "report_hash")}
    if traced:
        reps.append(traced_pass(binary, workload, seed, smoke, trace_out,
                                reference, pin, record))
    return record, reps


def metric_block(spec, record, traced):
    """The contract's metrics object: every end_to_end metric (timed) or
    every per_layer metric (traced), with its unit."""
    kind = "per_layer" if traced else "end_to_end"
    values = record.get(kind, {})
    return {m["name"]: {"value": values[m["name"]], "unit": m["unit"]}
            for m in spec[kind] if m["name"] in values}


def provenance(build_dir):
    nproc = os.cpu_count() or 1
    info = {"machine": machine_label(), "nproc": nproc, "commit": commit(),
            "build_type": build_type_of(build_dir)}
    if nproc < 4:
        info["note"] = (f"nproc={nproc} < 4: mesh64_shard4 measures the "
                        "sharded engine's inline overhead, not threads")
    return info


def write_out(path: Path, doc):
    path.parent.mkdir(parents=True, exist_ok=True)
    path.write_text(json.dumps(doc, indent=1) + "\n")
    log(f"run.py: wrote {path}")


def print_metrics(spec, workload, record):
    units = {m["name"]: m["unit"]
             for m in spec["end_to_end"] + spec["per_layer"]}
    for kind in ("end_to_end", "per_layer"):
        for name, v in record.get(kind, {}).items():
            log(f"  {workload:18} {name:28} {v:16.6f} {units[name]}")
    for name, v in record.get("raw", {}).items():
        log(f"  {workload:18} {'raw ' + name:28} {v['median']:16.6f} "
            f"q1 {v['q1']:.6f} q3 {v['q3']:.6f} n={v['n']}")
    if record["fingerprint"]:
        log(f"  {workload:18} fingerprint seed={record['seed']} "
            f"{json.dumps(record['fingerprint'])}")


# --- modes -------------------------------------------------------------------

def failed_count(reps):
    return sum(bool(r["fail_reasons"]) for r in reps)


def report_failures(workload, reps):
    for i, rep in enumerate(reps):
        if rep["fail_reasons"]:
            log(f"run.py: {workload}: repetition {i} failed: "
                f"{rep['fail_reasons']}")


def run_one(args, spec, binary, build_dir):
    names = [w["name"] for w in spec["workloads"]]
    if args.workload not in names:
        log(f"run.py: unknown workload '{args.workload}' (have {names})")
        return 2
    traced = args.trace == 1
    out = Path(args.out) if args.out else build_dir / "results" / \
        f"{args.workload}-seed{args.seed}-trace{args.trace}.json"
    out.parent.mkdir(parents=True, exist_ok=True)
    trace_out = out.with_suffix(".spans.json") if traced else None
    record, reps = measure(binary, args.workload, args.seed,
                           args.seconds, traced, False, trace_out)
    record.update(provenance(build_dir))
    write_out(out, record)
    print_metrics(spec, args.workload, record)
    report_failures(args.workload, reps)
    failed = failed_count(reps)
    print(json.dumps({"correct": failed == 0, "attempted": len(reps),
                      "failed": failed,
                      "metrics": metric_block(spec, record, traced)}))
    return 0 if failed == 0 else 1


def run_all(args, spec, binary, build_dir):
    """Every workload: ALL_REPS timed repetitions interleaved round-robin,
    so machine noise lands on all of them alike, then one traced pass per
    workload."""
    names = [w["name"] for w in spec["workloads"]]
    reps = {n: [] for n in names}
    reference = {}
    for _ in range(ALL_REPS):
        for n in names:
            rep = repetition(binary, n, args.seed)
            rep["fail_reasons"] = check(rep, reference.get(n),
                                        pin_for(n, args.seed, False))
            if "error" not in rep:
                reference.setdefault(n, rep)
            reps[n].append(rep)
    results = build_dir / "results"
    results.mkdir(parents=True, exist_ok=True)
    doc = {"seed": args.seed, "workloads": {}}
    doc.update(provenance(build_dir))
    attempted = failed = 0
    for n in names:
        metrics, raw = summarize(reps[n])
        record = {"workload": n, "seed": args.seed, "timed_reps": reps[n],
                  "end_to_end": metrics, "raw": raw, "fingerprint": None}
        all_reps = reps[n] + [traced_pass(
            binary, n, args.seed, False,
            results / f"{n}-seed{args.seed}.spans.json", reference.get(n),
            pin_for(n, args.seed, False), record)]
        record["fail_frac"] = failed_count(all_reps) / len(all_reps)
        attempted += len(all_reps)
        failed += failed_count(all_reps)
        doc["workloads"][n] = record
        print_metrics(spec, n, record)
        log(f"  {n:18} {'fail_frac':28} {record['fail_frac']:14.6g} "
            "failed/runs")
        report_failures(n, all_reps)
    write_out(Path(args.out) if args.out else
              results / f"all-seed{args.seed}.json", doc)
    print(json.dumps({"correct": failed == 0, "attempted": attempted,
                      "failed": failed}))
    return 0 if failed == 0 else 1


def run_smoke(spec, binary):
    """Every workload shrunk to 0.1 ms: each metric in BENCHMARK.json is
    emitted, nothing fails, and the sharded run hashes like its serial
    twin."""
    problems = []
    for w in spec["workloads"]:
        n = w["name"]
        record, reps = measure(binary, n, 1, 0, True, True, None)
        problems += [f"{n}: {why}" for r in reps for why in r["fail_reasons"]]
        for traced, kind in ((False, "end_to_end"), (True, "per_layer")):
            got = metric_block(spec, record, traced)
            problems += [f"{n}: {kind} metric {m['name']} not emitted"
                         for m in spec[kind] if m["name"] not in got]
        rep = record.get("traced_rep", {})
        if rep.get("layers", {}).get("engine.windows", 0) > 0 and \
                rep.get("twin_fire_hash") != rep["fire_hash"]:
            problems.append(f"{n}: sharded fire hash {rep['fire_hash']} != "
                            f"serial twin {rep.get('twin_fire_hash')}")
        log(f"smoke: {n}: {len(reps)} repetitions, {failed_count(reps)} "
            "failed")
    for p in problems:
        log(f"smoke: FAIL {p}")
    print(json.dumps({"smoke": "fail" if problems else "pass",
                      "problems": len(problems)}))
    return 1 if problems else 0


def main():
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", help="one workload (default: all)")
    ap.add_argument("--seed", type=int, default=1)
    ap.add_argument("--seconds", type=float, default=None,
                    help="measuring time of a single-workload run "
                         "(default: run_seconds from BENCHMARK.json)")
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    ap.add_argument("--smoke", action="store_true")
    ap.add_argument("--build", default=str(ROOT / ".bench_build"),
                    help="build directory (default: .bench_build)")
    ap.add_argument("--out", help="result JSON (default: under --build)")
    args = ap.parse_args()

    spec = load_spec()
    build_dir = Path(args.build).resolve()
    binary = build(build_dir)
    if args.smoke:
        return run_smoke(spec, binary)
    if args.workload is None:
        return run_all(args, spec, binary, build_dir)
    if args.seconds is None:
        args.seconds = spec["run_seconds"]
    return run_one(args, spec, binary, build_dir)


if __name__ == "__main__":
    sys.exit(main())
