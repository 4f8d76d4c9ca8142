"""One benchmark workload, run in a fresh process by ``run.py``.

    python3 perfbench/workload.py --workload NAME --seed N --seconds S \
        --trace 0|1 --out DIR [--size standard|large|smoke] [--setup-only]

Set-up imports fanoci, makes the workload's seeded instances and writes
them as PointedCI JSON under DIR; the commands only ever see those files.
The timed section then calls ``fanoci.cli.run(argv, out=sink)`` one command
at a time (a closed loop with one client) and repeats the workload's pass,
at least three times, while the next pass is likely to end within S
seconds; each command's figure is its median over the passes.  Outputs are
checked as they arrive; the result, with every failed check, is written to
DIR/result.json.  Nothing is printed to stdout.

With ``--trace 1`` the pass runs once untraced and once traced, so that
the tracing overhead is measured in the same process; the per-layer
metrics come from the traced pass plus the traced set-up.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import os
import random
import resource
import statistics
import subprocess
import sys
import time
import traceback
from pathlib import Path

HERE = Path(__file__).resolve().parent
WORKLOADS = ("audit-sweep", "regcheck-deep", "regcheck-small")

# "standard" is what a timed run measures.  Each command in it is short
# (0.3-5 s), so a run holds several passes and reports medians over them:
# the host's speed wanders by up to 25% for seconds at a time, and a single
# long command would carry that straight into its figure.  "large" is the
# scale of one command per pass: the CLI's default audit box (k <= 30,
# M <= 200, tuples k <= 5, M <= 60), 8 sampled forms per regcheck, 100
# randomci trials; one pass of it takes 25-35 s, so it is for traced
# profiles, not for timing.
SIZES = {
    "standard": {
        "audit_args": ["--k-max", "16", "--m-max", "100", "--tuple-k-max", "4",
                       "--tuple-m-max", "40"],
        "fixed": [(4, 4), (3, 5), (2, 6)],
        "ladder": [(2, 3), (3, 3), (3, 4), (4, 4), (4, 5), (5, 5), (5, 6), (6, 6)],
        "regcheck_samples": 1,
        "randomci_trials": 25,
        "prob_samples": 1,
    },
    "large": {
        "audit_args": [],
        "fixed": [(4, 4), (3, 5), (2, 6)],
        "ladder": [(2, 3), (3, 3), (3, 4), (4, 4), (4, 5), (5, 5), (5, 6), (6, 6)],
        "regcheck_samples": 8,
        "randomci_trials": 100,
        "prob_samples": 2,
    },
    "smoke": {
        "audit_args": ["--k-max", "3", "--m-max", "16"],
        "fixed": [(2, 3)],
        "ladder": [(2, 3)],
        "regcheck_samples": 1,
        "randomci_trials": 2,
        "prob_samples": 1,
    },
}
DEEP_FIELD = "gf:32003"
SMALL_FIELD = "gf:5"
RANDOMCI_FIELD = "gf:101"
# The probabilistic regcheck uses one fixed instance and sampling seed,
# whatever --seed is: its run time depends on the random slices it draws,
# and over instance seeds 0-11 it ranged from 3.6 s to 28 s, which no
# useful bound could absorb.
PROB_SEED = 0
# A rung that runs longer than this (child wall time, start-up included)
# is killed and ends the ladder.  At the commit that defined the benchmark
# the M=6 rung took 0.7-1.3 s and the M=7 rung about 31 s, so 5 s leaves
# a margin of about 4x below and 6x above.
RUNG_LIMIT_S = 5.0
# Every run makes at least this many passes, so that its figures are
# medians, and regcheck-small repeats its probabilistic regcheck, whose
# bytes must not change.
MIN_PASSES = 3


# The host's speed wanders: by up to 25% for tens of seconds at a time,
# each of its CPUs on its own, and by several per cent from one 30 ms
# stretch to the next.  So a run's median wall time moves by as much
# between runs.  Each timed command is therefore bracketed by a short fixed
# calibration loop on the same CPU (run.py pins the benchmark to one), and
# its time is also reported rescaled to the speed at which the loop takes
# REFERENCE_S, the loop's median on a 2.1 GHz Intel Xeon vCPU with Python
# 3.11.7.  The speed for a command is the mean of the loop times taken
# within SPEED_WINDOW_S of it, which follows the slow wander and averages
# out the fast jitter.
CALIBRATION_LOOPS = 150_000
REFERENCE_S = 0.027
SPEED_WINDOW_S = 4.0


def calibrate() -> float:
    """Seconds that the fixed calibration loop takes now."""
    start = time.perf_counter()
    table, acc = {}, 0
    for i in range(CALIBRATION_LOOPS):
        acc = (acc * 31 + i) % 32003
        table[acc & 1023] = i
    return time.perf_counter() - start


class SpeedLog:
    """Calibration loop times taken through a run, to rescale command times."""

    def __init__(self) -> None:
        self.samples: list = []  # (perf_counter at the loop's middle, seconds)

    def sample(self) -> None:
        start = time.perf_counter()
        seconds = calibrate()
        self.samples.append((start + seconds / 2, seconds))

    def scaled(self, span) -> float:
        """A (start, end) span's length at the reference speed."""
        start, end = span
        near = [
            seconds for at, seconds in self.samples
            if start - SPEED_WINDOW_S <= at <= end + SPEED_WINDOW_S
        ]
        return (end - start) * REFERENCE_S / statistics.mean(near)


def monotonic() -> float:
    """System-wide monotonic clock, comparable between processes."""
    return time.clock_gettime(time.CLOCK_MONOTONIC)


def instance_seed(seed: int, degrees) -> int:
    return random.Random(f"{seed}/{degrees}").getrandbits(32)


def pass_seed(seed: int, index: int) -> int:
    """Seed of the sampled forms and randomci trials of one pass."""
    return random.Random(f"{seed}/pass{index}").getrandbits(31)


class Sink:
    """Write target for ``cli.run``: hashes and counts the text it is given.

    It keeps a copy only when asked, for the small outputs whose content
    is parsed; the 74 MB audit JSON is never held, nor encoded whole.
    """

    SLICE = 1 << 20

    def __init__(self, keep: bool = False) -> None:
        self._hash = hashlib.sha256()
        self.bytes = 0
        self._parts = [] if keep else None

    def write(self, text: str) -> int:
        for start in range(0, len(text), self.SLICE):
            data = text[start : start + self.SLICE].encode("utf-8")
            self._hash.update(data)
            self.bytes += len(data)
        if self._parts is not None:
            self._parts.append(text)
        return len(text)

    def flush(self) -> None:
        pass

    @property
    def digest(self) -> str:
        return self._hash.hexdigest()

    @property
    def text(self) -> str:
        return "".join(self._parts)


class Workload:
    def __init__(self, args) -> None:
        self.name = args.workload
        self.seed = args.seed
        self.seconds = args.seconds
        self.size = SIZES[args.size]
        self.size_name = args.size
        self.out = Path(args.out)
        self.inst_dir = self.out / "inst"
        self.attempted = 0
        self.failed_ops: set = set()
        self.failures: list = []
        self.tracer = None
        self.tracing_run = bool(args.trace)
        self.tracing = False  # true while the traced pass runs
        self.instances: dict = {}
        self.expected: dict = {}  # audit digests
        self.prob_digests: list = []
        self.prob_verdict = ""
        self.fixed_rungs: dict = {}  # degrees -> the first pass's rung
        self.speed = SpeedLog()

    # -- commands and checks -------------------------------------------------

    def cli(self, argv, keep: bool = False):
        """Run one CLI command; returns (op id, exit code, sink, its span)."""
        from fanoci import cli

        self.attempted += 1
        op = self.attempted
        sink = Sink(keep)

        def call():
            try:
                return cli.run(argv, out=sink)
            except Exception:  # a traceback is a failed command, not a crash
                traceback.print_exc()
                return None

        code, span = self.measure(call)
        if self.tracing:
            self.tracer.counts["cli.output_bytes"] += sink.bytes
        self.check(op, code is not None, f"{' '.join(argv)}: raised")
        return op, code, sink, span

    def measure(self, fn):
        """Call fn between two calibration samples; returns (its result, its span)."""
        self.speed.sample()
        start = time.perf_counter()
        result = fn()
        span = (start, time.perf_counter())
        self.speed.sample()
        return result, span

    def check(self, op: int, ok: bool, what: str) -> None:
        if not ok:
            self.failed_ops.add(op)
            self.failures.append(what)

    def check_verdict(self, op, code, sink, argv_text) -> str:
        try:
            verdict = json.loads(sink.text)["verdict"]
        except (ValueError, KeyError):
            self.check(op, False, f"{argv_text}: output is not a regcheck report")
            return ""
        self.check(
            op,
            (code == 0) == (verdict == "regular") and code in (0, 1),
            f"{argv_text}: exit {code} with verdict {verdict}",
        )
        return verdict

    # -- set-up ----------------------------------------------------------------

    def setup(self) -> None:
        from fanoci.families import DegreeTuple
        from fanoci.fields import FieldSpec
        from fanoci.regularity import random_complete_intersection

        self.inst_dir.mkdir(parents=True, exist_ok=True)
        if self.name == "audit-sweep":
            expected = json.loads((HERE / "expected.json").read_text())
            self.expected = expected["audit"][self.size_name]
            return
        if self.name == "regcheck-deep":
            tag, seed = DEEP_FIELD, self.seed
            wanted = list(dict.fromkeys(self.size["fixed"] + self.size["ladder"]))
        else:
            tag, seed, wanted = SMALL_FIELD, PROB_SEED, [(2, 3)]
        field = FieldSpec.from_json_tag(tag)
        for degrees in wanted:
            ci = random_complete_intersection(
                DegreeTuple(degrees), field, seed=instance_seed(seed, degrees)
            )
            path = self.inst_dir / ("ci_" + "_".join(map(str, degrees)) + ".json")
            path.write_text(json.dumps(ci.to_json()))
            self.instances[degrees] = str(path)

    # -- one pass of the timed commands ---------------------------------------------

    def run_pass(self, index: int) -> dict:
        return {
            "audit-sweep": self.pass_audit,
            "regcheck-deep": self.pass_deep,
            "regcheck-small": self.pass_small,
        }[self.name](index)

    def pass_audit(self, index: int) -> dict:
        spans = {}
        for slot, fmt in (("cmd1", "text"), ("cmd2", "json")):
            argv = ["audit", "--format", fmt, *self.size["audit_args"]]
            op, code, sink, span = self.cli(argv, keep=fmt == "text")
            spans[slot] = [span]
            want = self.expected[fmt]
            self.check(op, code == 0, f"audit {fmt}: exit {code}")
            self.check(
                op,
                sink.digest == want["sha256"] and sink.bytes == want["bytes"],
                f"audit {fmt}: sha256 {sink.digest} ({sink.bytes} bytes) differs from"
                f" the recorded {want['sha256']} ({want['bytes']} bytes)",
            )
            if fmt == "text":
                lines = sink.text.splitlines()
                self.check(op, "aggregate: PASS" in lines, "audit text: no 'aggregate: PASS'")
                self.check(
                    op,
                    f"records: {self.expected['records']}" in lines,
                    f"audit text: record count is not {self.expected['records']}",
                )
        return spans

    def pass_deep(self, index: int) -> dict:
        """A reduced regcheck of each fixed instance, then its first form as a ladder rung.

        Every pass samples other forms.  The rung repeats the regcheck's
        first form with the same seed in a fresh process, so its report must
        equal sample 0 of the regcheck.
        """
        seed = pass_seed(self.seed, index)
        spans = {"cmd1": [], "cmd2": []}
        for degrees in self.size["fixed"]:
            argv = [
                "regcheck", "--input", self.instances[degrees], "--reduce",
                "--samples", str(self.size["regcheck_samples"]), "--seed", str(seed),
            ]
            op, code, sink, span = self.cli(argv, keep=True)
            spans["cmd1"].append(span)
            verdict = self.check_verdict(op, code, sink, f"regcheck {degrees}")
            rung, span = self.measure(lambda: self.rung(degrees, seed))
            spans["cmd2"].append(span)
            first = json.loads(sink.text)["reports"][0] if verdict else None
            self.check(
                rung["op"],
                not rung["finished"] or rung["report"] == first,
                f"rung {degrees}: report differs from sample 0 of the same-seed regcheck",
            )
            self.fixed_rungs.setdefault(degrees, rung)
        return spans

    def pass_small(self, index: int) -> dict:
        """Fresh randomci trials every pass; the probabilistic regcheck is repeated."""
        trials = self.size["randomci_trials"]
        argv = [
            "randomci", "--degrees", "2,3", "--field", RANDOMCI_FIELD,
            "--trials", str(trials), "--seed", str(pass_seed(self.seed, index)),
        ]
        op, code, sink, randomci_span = self.cli(argv, keep=True)
        try:
            stats = json.loads(sink.text)
            ok = (
                code == 0
                and stats["smooth"] + stats["singular"] == stats["trials"] == trials
                and stats["regular"] + stats["irregular"] == stats["smooth"]
            )
        except (ValueError, KeyError, TypeError):
            ok = False
        self.check(op, ok, f"randomci: exit {code}, totals do not add up")

        op, code, sink, prob_span = self.cli(self.prob_argv("probabilistic"), keep=True)
        self.prob_verdict = self.check_verdict(op, code, sink, "regcheck --mode probabilistic")
        self.prob_digests.append(sink.digest)
        self.check(
            op,
            sink.digest == self.prob_digests[0],
            "regcheck --mode probabilistic: output differs when the seed is repeated",
        )
        return {"cmd1": [randomci_span], "cmd2": [prob_span]}

    def prob_argv(self, mode: str) -> list:
        return [
            "regcheck", "--input", self.instances[(2, 3)], "--mode", mode,
            "--samples", str(self.size["prob_samples"]), "--seed", str(PROB_SEED),
        ]

    # -- untimed checks and the reach ladder ------------------------------------------

    def after_passes(self, result: dict) -> None:
        if self.name == "regcheck-small":
            op, code, sink, _ = self.cli(self.prob_argv("exact"), keep=True)
            exact = self.check_verdict(op, code, sink, "regcheck --mode exact")
            self.check(
                op,
                exact == self.prob_verdict,
                f"probabilistic verdict {self.prob_verdict} differs from exact {exact}",
            )
        if self.name == "regcheck-deep" and not self.tracing_run:
            result["ladder"] = self.ladder(self.fixed_rungs, pass_seed(self.seed, 0))
            result["reach_M"] = result["ladder"]["reach_M"]

    def rung(self, degrees, seed: int) -> dict:
        """One reduced, sampled form in a child process, killed at the limit."""
        from fanoci.families import DegreeTuple

        self.attempted += 1
        rung = {"op": self.attempted, "M": DegreeTuple(degrees).M, "degrees": list(degrees)}
        argv = [
            sys.executable, str(HERE / "rung.py"),
            "--input", self.instances[degrees], "--seed", str(seed),
        ]
        start = time.perf_counter()
        child = subprocess.Popen(argv, stdout=subprocess.PIPE, text=True)
        try:
            stdout, _ = child.communicate(timeout=RUNG_LIMIT_S)
            finished = True
        except subprocess.TimeoutExpired:
            child.kill()
            child.communicate()
            finished = False
        rung.update(s=time.perf_counter() - start, finished=finished, report=None)
        if not finished:
            return rung
        try:
            rung["report"] = json.loads(stdout) if child.returncode == 0 else None
        except ValueError:
            pass
        self.check(
            rung["op"],
            rung["report"] is not None,
            f"rung {degrees}: exit {child.returncode}, no report",
        )
        return rung

    def ladder(self, done: dict, seed: int) -> dict:
        """Rungs of growing M until one is killed; ``done`` rungs are reused."""
        rungs, reach, stopped_by = [], 0, None
        for degrees in self.size["ladder"]:
            rung = done[degrees] if degrees in done else self.rung(degrees, seed)
            rungs.append(
                {key: rung[key] for key in ("M", "degrees", "s", "finished")}
                | {"verdict": rung["report"] and rung["report"].get("verdict")}
            )
            if rung["report"] is None:
                stopped_by = rung["M"]
                break
            reach = rung["M"]
        return {"limit_s": RUNG_LIMIT_S, "rungs": rungs, "reach_M": reach,
                "stopped_by_M": stopped_by}

    # -- the run ---------------------------------------------------------------------

    def timed(self) -> dict:
        """Passes until the next one would likely end after S seconds."""
        passes, started = [], time.perf_counter()
        while True:
            passes.append(self.run_pass(len(passes)))
            elapsed = time.perf_counter() - started
            if len(passes) >= MIN_PASSES and elapsed * (1 + 1 / len(passes)) > self.seconds:
                break
        return self.summary(passes)

    def summary(self, passes: list) -> dict:
        """Per-pass and median times of cmd1 and cmd2, rescaled and wall."""
        rows = []
        for spans in passes:
            row = {"spans": spans}
            for slot, slot_spans in spans.items():
                row[slot + "_s"] = sum(self.speed.scaled(span) for span in slot_spans)
                row[slot + "_wall_s"] = sum(end - start for start, end in slot_spans)
            rows.append(row)
        result = {"passes": rows, "calibrations": self.speed.samples}
        for key in ("cmd1_s", "cmd1_wall_s", "cmd2_s", "cmd2_wall_s"):
            result[key] = statistics.median(row[key] for row in rows)
        return result

    def traced(self) -> dict:
        """An untraced pass, then a traced one; their ratio is the overhead."""
        self.tracer.uninstall()
        reference = self.run_pass(0)
        self.tracer.install()
        self.tracing = True
        traced = self.run_pass(0)
        self.tracing = False
        self.tracer.uninstall()
        result = self.summary([reference, traced])
        untraced_s, traced_s = (row["cmd1_s"] + row["cmd2_s"] for row in result["passes"])
        per_layer = self.tracer.metrics()
        per_layer["trace.overhead_ratio"] = traced_s / untraced_s
        self.tracer.write_spans(self.out)
        result.update(
            untraced_s=untraced_s, traced_s=traced_s, per_layer=per_layer,
            table=self.tracer.table(),
        )
        return result


def load_average() -> str:
    try:
        with open("/proc/loadavg", encoding="ascii") as handle:
            return handle.read().strip()
    except OSError:
        return "unavailable"


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", choices=WORKLOADS, required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--out", required=True)
    parser.add_argument("--size", choices=tuple(SIZES), default="standard")
    parser.add_argument("--setup-only", action="store_true")
    args = parser.parse_args()

    import fanoci.cli  # noqa: F401  (the import is part of set-up)

    work = Workload(args)
    if args.trace:
        from tracing import Tracer

        work.tracer = Tracer()
        work.tracer.install()
    work.setup()
    ready = monotonic()
    result = {"ready": ready}
    if not args.setup_only:
        result["loadavg_start"] = load_average()
        result.update(work.traced() if args.trace else work.timed())
        work.after_passes(result)
        result["loadavg_end"] = load_average()
        result["peak_rss_mb"] = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024
        result["attempted"] = work.attempted
        result["failed"] = len(work.failed_ops)
        result["failures"] = work.failures
    for path in work.instances.values():
        os.remove(path)
    name = "setup.json" if args.setup_only else "result.json"
    (work.out / name).write_text(json.dumps(result, indent=1) + "\n")
    return 0


if __name__ == "__main__":
    sys.exit(main())
