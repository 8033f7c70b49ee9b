#!/usr/bin/env python3
"""Run a perf-trajectory benchmark, emit/refresh its BENCH_*.json, and
append the run to the perf-trend history.

The committed BENCH_*.json records, per benchmark section, a *baseline*
(the pre-optimization build, captured once per optimization PR) and the
*current* measurement, plus speedup/allocation ratios — so the acceptance
numbers ("N x events/sec, M allocs/event vs the old build") live in one
auditable artifact instead of a PR description.

BENCH_history.jsonl is the long-run trend: one JSON line per full bench
run (machine label + commit + events/s per section). check.sh's Release
gate compares a fresh quick run against the *best-known* entry for the
current machine, so a regression cannot ratchet in between bench-refresh
PRs. Every full (non --quick) run with --history appends a line; quick
runs append too but are marked and never become the best-known reference.

Usage:
  scripts/bench_report.py [--bench build-bench/bench/bench_perf] \
      [--sections kernel_storm,mesh16_advanced] \
      [--baseline old.json] [--out BENCH_kernel.json] [--quick] [--label txt] \
      [--history BENCH_history.jsonl]

The bench binary takes --sections=a,b,c, --quick and --json=PATH (the
sections are forwarded, so only those points run) and emits every section
with the same keys (MEASURE_KEYS).

With --gbench, --bench is a google-benchmark binary instead (e.g.
bench_queue_ops): each selected benchmark case becomes a history section
with events_per_sec taken from items/s. gbench runs are history-only (no
BENCH_*.json document; pass --history).

With --baseline, that file's measurements become the recorded baseline.
Without it, an existing --out file's baseline is carried forward (the usual
CI refresh mode); if neither exists the current run doubles as the baseline.
"""

from __future__ import annotations

import argparse
import json
import platform
import re
import subprocess
import sys
import tempfile
from pathlib import Path

DEFAULT_SECTIONS = "kernel_storm,mesh16_advanced"
MEASURE_KEYS = ("events", "wall_s", "setup_s", "events_per_sec", "allocs",
                "allocs_per_event", "live_bytes", "hosts", "bytes_per_host")


def machine_label() -> str:
    """Stable per-host label: hostname + CPU model. The check.sh gate keys
    best-known lookups on this string, so keep it deterministic."""
    cpu = ""
    try:
        for line in Path("/proc/cpuinfo").read_text().splitlines():
            if line.lower().startswith("model name"):
                cpu = line.split(":", 1)[1].strip()
                break
    except OSError:
        cpu = platform.processor() or platform.machine()
    cpu = re.sub(r"\s+", " ", cpu)
    return f"{platform.node()} | {cpu}"


def git_commit() -> str:
    try:
        sha = subprocess.run(["git", "rev-parse", "--short", "HEAD"],
                             capture_output=True, text=True, check=True,
                             ).stdout.strip()
        dirty = subprocess.run(["git", "status", "--porcelain"],
                               capture_output=True, text=True, check=True,
                               ).stdout.strip()
        return sha + ("-dirty" if dirty else "")
    except (OSError, subprocess.CalledProcessError):
        return "unknown"


def append_history(path: Path, bench_name: str, quick: bool, label: str,
                   events_per_sec: dict) -> None:
    entry = {
        "machine": machine_label(),
        "commit": git_commit(),
        "bench": bench_name,
        "quick": quick,
        "label": label,
        "events_per_sec": {k: round(v, 1) for k, v in events_per_sec.items()},
    }
    with path.open("a") as f:
        f.write(json.dumps(entry) + "\n")
    print(f"appended to {path}: {entry['machine']} @ {entry['commit']}")


def run_bench(bench: Path, quick: bool, sections: tuple) -> dict:
    with tempfile.NamedTemporaryFile(suffix=".json", delete=False) as tmp:
        tmp_path = Path(tmp.name)
    try:
        cmd = [str(bench), f"--json={tmp_path}",
               f"--sections={','.join(sections)}"]
        if quick:
            cmd.append("--quick")
        subprocess.run(cmd, check=True, stdout=sys.stderr)
        return json.loads(tmp_path.read_text())
    finally:
        tmp_path.unlink(missing_ok=True)


def run_gbench(bench: Path, sections: tuple) -> dict:
    """Run a google-benchmark binary; map each selected case name to an
    events/s number (items/s as reported by the benchmark)."""
    with tempfile.NamedTemporaryFile(suffix=".json", delete=False) as tmp:
        tmp_path = Path(tmp.name)
    try:
        subprocess.run([str(bench), f"--benchmark_out={tmp_path}",
                        "--benchmark_out_format=json"],
                       check=True, stdout=sys.stderr)
        doc = json.loads(tmp_path.read_text())
    finally:
        tmp_path.unlink(missing_ok=True)
    # "batch_drain" selects every BM whose name contains it (case folded,
    # underscores match CamelCase word boundaries): the per-arg variants
    # (BM_CalendarBatchDrain/256, ...) become batch_drain/256 sections.
    out = {}
    for b in doc.get("benchmarks", []):
        name = b.get("name", "")
        ips = b.get("items_per_second")
        if ips is None:
            continue
        flat = re.sub(r"(?<=[a-z0-9])(?=[A-Z])", "_", name.replace("BM_", "")).lower()
        for want in sections:
            if want.split("/")[0].replace("_", "") in flat.replace("_", ""):
                suffix = "/" + name.split("/", 1)[1] if "/" in name else ""
                out[want.split("/")[0] + suffix] = float(ips)
    if not out:
        raise SystemExit(f"error: no gbench case matched sections {sections}")
    return out


def section_measurements(doc: dict, source: str, sections: tuple) -> dict:
    out = {}
    for name in sections:
        if name not in doc:
            raise SystemExit(f"error: {source} is missing section '{name}'")
        sec = doc[name]
        missing = [k for k in MEASURE_KEYS if k not in sec]
        if missing:
            raise SystemExit(f"error: {source} section '{name}' lacks {missing}")
        out[name] = {k: sec[k] for k in MEASURE_KEYS}
    return out


def main() -> int:
    ap = argparse.ArgumentParser(description=__doc__)
    ap.add_argument("--bench", type=Path,
                    default=Path("build-bench/bench/bench_perf"),
                    help="bench binary (default: build-bench/bench/bench_perf)")
    ap.add_argument("--baseline", type=Path, default=None,
                    help="JSON from the pre-change build to record as baseline")
    ap.add_argument("--out", type=Path, default=Path("BENCH_kernel.json"))
    ap.add_argument("--sections", default=DEFAULT_SECTIONS,
                    help="comma-separated bench points to run and record "
                         f"(default: {DEFAULT_SECTIONS})")
    ap.add_argument("--quick", action="store_true",
                    help="pass --quick to the bench (CI smoke; noisier numbers)")
    ap.add_argument("--label", default="",
                    help="free-form note stored alongside the current run")
    ap.add_argument("--history", type=Path, default=None,
                    help="append this run (machine/commit/events-per-sec) to the"
                         " given BENCH_history.jsonl")
    ap.add_argument("--gbench", action="store_true",
                    help="treat --bench as a google-benchmark binary; "
                         "history-only (requires --history)")
    ap.add_argument("--speedup-base", default="",
                    help="section to normalize speedups against (scaling "
                         "benches: e.g. shards_1); records a per-section "
                         "'speedup' in the --out document")
    ap.add_argument("--print-machine", action="store_true",
                    help="print this host's machine label (as used in history"
                         " entries) and exit")
    args = ap.parse_args()

    if args.print_machine:
        print(machine_label())
        return 0

    if not args.bench.is_file():
        raise SystemExit(f"error: bench binary not found: {args.bench}")
    sections = tuple(s for s in args.sections.split(",") if s)
    if not sections:
        raise SystemExit("error: --sections is empty")

    if args.gbench:
        if args.history is None:
            raise SystemExit("error: --gbench is history-only; pass --history")
        rates = run_gbench(args.bench, sections)
        append_history(args.history, args.bench.name, False, args.label, rates)
        for name, ips in sorted(rates.items()):
            print(f"  {name:<28} {ips:>14.1f} items/s")
        return 0

    raw = run_bench(args.bench, args.quick, sections)
    current = section_measurements(raw, "bench run", sections)

    if args.baseline is not None:
        baseline = section_measurements(
            json.loads(args.baseline.read_text()), str(args.baseline), sections)
    elif args.out.is_file():
        prior = json.loads(args.out.read_text())
        baseline = {name: prior[name]["baseline"] for name in sections
                    if name in prior and "baseline" in prior[name]}
        if set(baseline) != set(sections):
            baseline = current
    else:
        baseline = current

    doc = {
        "bench": raw.get("bench", str(args.bench.name)),
        "quick": args.quick,
        "label": args.label,
    }
    if args.speedup_base and args.speedup_base not in sections:
        raise SystemExit(f"error: --speedup-base '{args.speedup_base}' is not "
                         "among --sections")
    for name in sections:
        base, cur = baseline[name], current[name]
        doc[name] = {
            "baseline": base,
            "current": cur,
            "events_per_sec_ratio": round(
                cur["events_per_sec"] / base["events_per_sec"], 3)
            if base["events_per_sec"] > 0 else None,
            "allocs_per_event_delta": round(
                cur["allocs_per_event"] - base["allocs_per_event"], 6),
        }
        if args.speedup_base:
            ref = current[args.speedup_base]["events_per_sec"]
            doc[name]["speedup"] = (
                round(cur["events_per_sec"] / ref, 3) if ref > 0 else None)

    args.out.write_text(json.dumps(doc, indent=2) + "\n")
    print(f"wrote {args.out}")
    for name in sections:
        sec = doc[name]
        speedup = (f", {sec['speedup']}x vs {args.speedup_base}"
                   if "speedup" in sec else "")
        print(f"  {name:<18} {sec['current']['events_per_sec']:>12.1f} ev/s "
              f"({sec['events_per_sec_ratio']}x baseline), "
              f"{sec['current']['allocs_per_event']:.4f} allocs/event{speedup}")

    if args.history is not None:
        append_history(
            args.history, doc["bench"], args.quick, args.label,
            {name: current[name]["events_per_sec"] for name in sections})
    return 0


if __name__ == "__main__":
    sys.exit(main())
