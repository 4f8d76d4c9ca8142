"""fanoci benchmark: one workload per invocation, run from the repository root.

    python3 perfbench/run.py --workload audit-sweep|regcheck-deep|regcheck-small \
        --seed N --seconds S --trace 0|1 [--size standard|large|smoke]

The workload runs in a fresh child process (``workload.py``), after five
set-up-only children: ``setup_s`` is the median, over the five, of the
time from spawning the process until its instances are written.  The
child's outputs are checked as they arrive; failed checks count against
the commands attempted.

The benchmark and its children are pinned to one CPU, and every reported
time is wall time rescaled to a reference speed of that CPU, measured by a
calibration loop run before and after each timed span (see
``workload.SpeedLog``).  The wall times themselves are printed too.

Human-readable lines go to stdout first; the last line is one JSON object
with ``correct``, ``attempted``, ``failed`` and ``metrics``.  With
``--trace 0`` the metrics are the end-to-end ones of BENCHMARK.json; with
``--trace 1`` they are the per-layer ones, from a traced pass, and a
per-layer table sorted by self time is printed above them.

Results, set-up timings and (traced runs) the spans are written under
``perfbench/out/``.  Exit code 2 means the benchmark could not run, for
instance outside a checkout of the repository; no result is printed then.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import os
import platform
import shutil
import statistics
import subprocess
import sys
import time
from pathlib import Path

from tracing import PER_LAYER
from workload import REFERENCE_S, SIZES, WORKLOADS, calibrate, load_average, monotonic

HERE = Path(__file__).resolve().parent
ROOT = Path.cwd()
SETUP_REPEATS = 5
DEADLINE_S = 170.0

END_TO_END = (
    ("setup_s", "s"),
    ("cmd1_s", "s"),
    ("cmd2_s", "s"),
    ("peak_rss_mb", "MB"),
)
# What cmd1 and cmd2 are on each workload, as named in the human-readable lines.
SLOT_NAMES = {
    "audit-sweep": ("audit_text_s", "audit_json_s"),
    "regcheck-deep": ("regcheck_exact_s", "rungs_fixed_s"),
    "regcheck-small": ("randomci_s", "regcheck_prob_s"),
}


class BenchError(Exception):
    """The benchmark cannot produce a result."""


def source_digest() -> str:
    digest = hashlib.sha256()
    for path in sorted((ROOT / "src" / "fanoci").glob("*.py")):
        digest.update(path.name.encode() + b"\0" + path.read_bytes())
    return digest.hexdigest()


def git_sha():
    if not (ROOT / ".git").exists():
        return None
    try:
        done = subprocess.run(
            ["git", "rev-parse", "HEAD"], cwd=ROOT, capture_output=True, text=True, timeout=10
        )
    except (OSError, subprocess.TimeoutExpired):
        return None
    return done.stdout.strip() or None


def child_env() -> dict:
    env = dict(os.environ)
    env.pop("FANO_AUDIT_THREADS", None)  # the audit takes its single-threaded path
    env["PYTHONPATH"] = str(ROOT / "src")
    env["PYTHONHASHSEED"] = "0"
    return env


def spawn(args, out: Path, deadline: float, setup_only: bool) -> dict:
    """Run one workload child to completion; returns its JSON record."""
    argv = [
        sys.executable, str(HERE / "workload.py"),
        "--workload", args.workload, "--seed", str(args.seed),
        "--seconds", str(args.seconds), "--trace", str(args.trace),
        "--out", str(out), "--size", args.size,
    ]
    if setup_only:
        argv.append("--setup-only")
    before = calibrate()
    spawned = monotonic()
    child = subprocess.Popen(argv, cwd=ROOT, env=child_env(), stdout=subprocess.DEVNULL)
    try:
        code = child.wait(timeout=max(1.0, deadline - time.monotonic()))
    except subprocess.TimeoutExpired:
        child.kill()
        child.wait()
        raise BenchError("the workload did not finish in time")
    if code != 0:
        raise BenchError(f"the workload process exited with {code}")
    record = json.loads((out / ("setup.json" if setup_only else "result.json")).read_text())
    record["setup_wall_s"] = record["ready"] - spawned
    # Only a set-up-only child ends soon after it is ready, so only its
    # set-up time is bracketed closely enough to be rescaled.
    if setup_only:
        record["setup_s"] = record["setup_wall_s"] * 2 * REFERENCE_S / (before + calibrate())
    return record


def run(args) -> dict:
    if not (ROOT / "src" / "fanoci" / "__init__.py").is_file():
        raise BenchError(f"no fanoci sources under {ROOT / 'src'}; run from the repository root")
    deadline = time.monotonic() + DEADLINE_S
    out = HERE / "out" / f"{args.workload}-{args.size}-seed{args.seed}-trace{args.trace}"
    shutil.rmtree(out, ignore_errors=True)
    out.mkdir(parents=True)
    env_record = {
        "git_sha": git_sha(),
        "source_sha256": source_digest(),
        "python": platform.python_version(),
        "nproc": os.cpu_count(),
        "seed": args.seed,
        "loadavg_start": load_average(),
    }
    setups = []
    if not args.trace:
        for _ in range(SETUP_REPEATS):
            setups.append(spawn(args, out, deadline, setup_only=True))
    result = spawn(args, out, deadline, setup_only=False)
    env_record["loadavg_end"] = load_average()
    result["setup_samples_s"] = [record["setup_s"] for record in setups]
    result["setup_wall_samples_s"] = [record["setup_wall_s"] for record in setups]
    result["env"] = env_record
    (out / "result.json").write_text(json.dumps(result, indent=1) + "\n")
    return result


def report_end_to_end(args, result: dict) -> dict:
    metrics = {
        "setup_s": statistics.median(result["setup_samples_s"]),
        "cmd1_s": result["cmd1_s"],
        "cmd2_s": result["cmd2_s"],
        "peak_rss_mb": result["peak_rss_mb"],
    }
    first, second = SLOT_NAMES[args.workload]
    setup_wall = statistics.median(result["setup_wall_samples_s"])
    print(f"setup_s: {metrics['setup_s']:.4f} s (wall {setup_wall:.4f} s,"
          f" median of {len(result['setup_samples_s'])} set-ups)")
    print(f"{first}: {metrics['cmd1_s']:.4f} s (cmd1_s; wall {result['cmd1_wall_s']:.4f} s,"
          f" median of {len(result['passes'])} passes)")
    print(f"{second}: {metrics['cmd2_s']:.4f} s (cmd2_s; wall {result['cmd2_wall_s']:.4f} s)")
    print(f"peak_rss_mb: {metrics['peak_rss_mb']:.1f} MB")
    ladder = result.get("ladder")
    if ladder:
        for rung in ladder["rungs"]:
            state = rung.get("verdict") if rung["finished"] else f"killed at {ladder['limit_s']} s"
            print(f"  rung M={rung['M']} {tuple(rung['degrees'])}: {rung['s']:.3f} s, {state}")
        print(f"reach_M: {ladder['reach_M']} M (rung limit {ladder['limit_s']} s,"
              f" stopped by M={ladder['stopped_by_M']})")
    return {name: {"value": metrics[name], "unit": unit} for name, unit in END_TO_END}


def report_per_layer(args, result: dict) -> dict:
    print(f"per-layer table, {args.workload} (traced set-up and one traced pass),"
          " sorted by self time:")
    print(f"  {'layer':<45} {'calls':>10} {'incl s':>10} {'self s':>10}")
    for row in result["table"]:
        print(f"  {row['layer']:<45} {row['calls']:>10} {row['s']:>10.4f} {row['self_s']:>10.4f}")
    values = result["per_layer"]
    print("counts:")
    for name, unit in PER_LAYER:
        if unit in ("count", "bytes", "ratio") and not name.endswith(".calls"):
            print(f"  {name}: {values.get(name, 0)}")
    shares = (
        ("proof_audit.check_tail_bounds.s", "proof_audit.audit_range.s"),
        ("groebner.normal_form.s", "cli.run.s"),
    )
    for part, whole in shares:
        if values.get(whole):
            print(f"share: {part} / {whole} = {values.get(part, 0) / values[whole]:.1%}")
    print(f"tracing overhead: {result['traced_s']:.3f} s traced vs"
          f" {result['untraced_s']:.3f} s untraced"
          f" (ratio {values['trace.overhead_ratio']:.3f})")
    return {name: {"value": values.get(name, 0), "unit": unit} for name, unit in PER_LAYER}


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", choices=WORKLOADS, required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--size", choices=tuple(SIZES), default="standard")
    args = parser.parse_args()
    if hasattr(os, "sched_setaffinity"):
        # One CPU for the calibration loop and the commands it brackets.
        os.sched_setaffinity(0, {min(os.sched_getaffinity(0))})
    try:
        result = run(args)
    except BenchError as exc:
        print(f"benchmark error: {exc}", file=sys.stderr)
        return 2
    env = result["env"]
    print(f"workload {args.workload} ({args.size}), seed {env['seed']}, {args.seconds} s;"
          f" git {env['git_sha']}, src sha256 {env['source_sha256'][:16]},"
          f" python {env['python']}, nproc {env['nproc']}")
    print(f"loadavg start {env['loadavg_start']} / end {env['loadavg_end']}")
    if args.trace:
        metrics = report_per_layer(args, result)
    else:
        metrics = report_end_to_end(args, result)
    print(f"ops_failed: {result['failed']}/{result['attempted']} commands")
    for failure in result["failures"]:
        print(f"FAILED: {failure}")
    line = {
        "correct": result["failed"] == 0,
        "attempted": result["attempted"],
        "failed": result["failed"],
        "metrics": metrics,
    }
    print(json.dumps(line))
    return 0


if __name__ == "__main__":
    sys.exit(main())
