"""Benchmark of the bstar CLI: time to verdict, memory and failures.

Usage, from the root of a checkout of the repository::

    python3 bench/run.py --workload check-dense --seed 1 --seconds 20 --trace 0

One client runs in a closed loop: each command of the workload runs in a
fresh ``python -m bstar.cli`` process, and the next starts only after the
previous one has exited.  The workload's commands are run in sequence,
pass after pass, until ``--seconds`` have gone by (the last pass is
finished).  Every output is checked against the expected answers in
``workloads.py``.

With ``--trace 0`` the run reports the end-to-end metrics: the median
pass time ``wall_s``, the median over passes of the highest max-RSS of a
command process ``peak_rss_mb`` (from ``os.wait4``), and ``setup_s``, the
median time of building the input files with ``bstar construct``, which
is done several times.  With ``--trace 1`` untraced and traced passes
alternate, and the run reports the per-layer metrics of ``spans.py``.

A human-readable table goes to standard output first; the last line is
one JSON object with the keys ``correct``, ``attempted``, ``failed`` and
``metrics``.  The program is taken from ``src/`` of the checkout; the run
refuses to start without it.
"""

from __future__ import annotations

import argparse
import json
import os
import shutil
import signal
import statistics
import subprocess
import sys
import threading
import time
from dataclasses import dataclass
from pathlib import Path

import spans
from workloads import WORKLOADS, Command, setup_commands

BENCH = Path(__file__).resolve().parent
ROOT = BENCH.parent
SETUP_REPEATS = 15
# A command slower than this counts as failed.
COMMAND_LIMIT_S = 60.0
# The run stops starting commands after this long, so that it ends in time.
RUN_LIMIT_S = 170.0


@dataclass
class Outcome:
    wall_s: float
    rss_mb: float
    problems: list[str]
    stdout: str


class Runner:
    """Runs bstar commands in fresh processes and keeps the tallies."""

    def __init__(self, work: Path, started: float):
        self.work = work
        self.stop_at = started + RUN_LIMIT_S
        self.attempted = 0
        self.failed = 0
        self.env = {"PATH": os.environ.get("PATH", "/usr/bin:/bin"),
                    "PYTHONPATH": str(ROOT / "src"),
                    "PYTHONHASHSEED": "0"}
        self._n = 0

    def run(self, cmd: Command, traced: bool = False) -> Outcome:
        """Run one command to completion and check its output.  A traced
        command leaves its spans in ``cmd<n>.spans``."""
        self._n += 1
        out_path = self.work / f"cmd{self._n}.out"
        err_path = self.work / f"cmd{self._n}.err"
        if traced:
            argv = [sys.executable, str(BENCH / "tracer.py"),
                    str(self.work / f"cmd{self._n}.spans"), str(self._n), "--",
                    *cmd.argv]
        else:
            argv = [sys.executable, "-m", "bstar.cli", *cmd.argv]
        limit = min(COMMAND_LIMIT_S, self.stop_at - time.perf_counter())
        self.attempted += 1
        if limit <= 0:
            return self._fail(Outcome(0.0, 0.0, ["run time limit reached"], ""))
        with open(out_path, "w") as out, open(err_path, "w") as err:
            start = time.perf_counter()
            proc = subprocess.Popen(argv, stdin=subprocess.DEVNULL, stdout=out,
                                    stderr=err, cwd=self.work, env=self.env)
            status, rusage, timed_out = _wait(proc, limit)
            wall = time.perf_counter() - start
        stdout = out_path.read_text()
        if timed_out:
            problems = [f"exceeded the command time limit of {limit:.0f} s"]
        else:
            problems = cmd.problems(os.waitstatus_to_exitcode(status), stdout)
        if problems:
            stderr = err_path.read_text().strip().splitlines()
            problems += stderr[-3:]
        outcome = Outcome(wall, rusage.ru_maxrss / 1024.0, problems, stdout)
        return self._fail(outcome) if problems else outcome

    def _fail(self, outcome: Outcome) -> Outcome:
        self.failed += 1
        print(f"FAILED: {'; '.join(outcome.problems)}", file=sys.stderr)
        return outcome

    def run_pass(self, commands: list[Command], traced: bool = False):
        """Run the commands in sequence; returns (wall, peak rss, outcomes)."""
        outcomes = [self.run(cmd, traced) for cmd in commands]
        return (sum(o.wall_s for o in outcomes), max(o.rss_mb for o in outcomes),
                outcomes)


def _wait(proc: subprocess.Popen, limit: float):
    """Wait for `proc`, killing it after `limit` seconds.

    Returns (wait status, rusage, timed out).  The exit is awaited without
    reaping first, so the timer can never signal a reused process id.
    """
    lock = threading.Lock()
    state = {"done": False, "killed": False}

    def kill():
        with lock:
            if not state["done"]:
                os.kill(proc.pid, signal.SIGKILL)
                state["killed"] = True

    timer = threading.Timer(limit, kill)
    timer.start()
    try:
        os.waitid(os.P_PID, proc.pid, os.WEXITED | os.WNOWAIT)
        with lock:
            state["done"] = True
    finally:
        timer.cancel()
        timer.join()
    _, status, rusage = os.wait4(proc.pid, 0)
    proc.returncode = os.waitstatus_to_exitcode(status)
    return status, rusage, state["killed"]


def _normalised(stdout: str):
    """Command output without the run-to-run `timings` of `check`."""
    try:
        data = json.loads(stdout)
    except ValueError:
        return stdout
    for report in data.get("reports", []) if isinstance(data, dict) else []:
        if isinstance(report, dict):
            report.pop("timings", None)
    return data


def _setup(runner: Runner, repeats: int) -> tuple[Path, list[float]]:
    """Build the input files `repeats` times; returns the last set and times."""
    times = []
    for k in range(repeats):
        inputs = runner.work / f"inputs{k}"
        inputs.mkdir()
        times.append(sum(runner.run(c).wall_s for c in setup_commands(inputs)))
    return inputs, times


def _with_seed(commands: list[Command], seed: int) -> list[Command]:
    # The seed reaches the program only as --seed, which draws the random
    # placements of the rigidity test.
    return [Command(c.argv + ("--seed", str(seed)), c.project, c.expected)
            for c in commands]


def measure(workload: str, seed: int, seconds: int, work: Path) -> dict:
    runner = Runner(work, time.perf_counter())
    inputs, setup_times = _setup(runner, SETUP_REPEATS)
    commands = _with_seed(WORKLOADS[workload].commands(inputs), seed)
    deadline = time.perf_counter() + seconds
    walls, rss = [], []
    while True:
        wall, peak, _ = runner.run_pass(commands)
        walls.append(wall)
        rss.append(peak)
        if time.perf_counter() >= deadline:
            break
    metrics = {"wall_s": (statistics.median(walls), "s"),
               "peak_rss_mb": (statistics.median(rss), "MB"),
               "setup_s": (statistics.median(setup_times), "s")}
    table = dict(metrics)
    table["failed_share"] = (runner.failed / runner.attempted, "ratio")
    print(f"workload {workload}: {len(walls)} passes, {runner.attempted} commands")
    return _result(runner, metrics, table, True)


def measure_traced(workload: str, seed: int, seconds: int, work: Path) -> dict:
    runner = Runner(work, time.perf_counter())
    inputs, _ = _setup(runner, 1)
    commands = _with_seed(WORKLOADS[workload].commands(inputs), seed)
    deadline = time.perf_counter() + seconds
    untraced, traced, same = [], [], True
    while True:
        wall, _, plain = runner.run_pass(commands)
        untraced.append(wall)
        wall, _, with_trace = runner.run_pass(commands, True)
        traced.append(wall)
        for a, b in zip(plain, with_trace):
            if _normalised(a.stdout) != _normalised(b.stdout):
                same = False
                print("FAILED: traced output differs from untraced output",
                      file=sys.stderr)
        if time.perf_counter() >= deadline:
            break
    dumps = [spans.load_spans(p) for p in sorted(work.glob("*.spans"))]
    overhead = statistics.median(traced) / statistics.median(untraced) - 1
    values = spans.layer_metrics(dumps, len(traced), overhead)
    metrics = {name: (values[name], unit) for name, unit in spans.METRICS}
    print(f"workload {workload} traced: {len(traced)} traced passes, "
          f"{runner.attempted} commands")
    return _result(runner, metrics, metrics, same)


def _result(runner: Runner, metrics: dict, table: dict, same: bool) -> dict:
    for name, (value, unit) in table.items():
        print(f"  {name:<44} {value:>16.6f} {unit}")
    return {"correct": same and runner.failed == 0,
            "attempted": runner.attempted, "failed": runner.failed,
            "metrics": {n: {"value": v, "unit": u} for n, (v, u) in metrics.items()}}


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    ap.add_argument("--seed", type=int, default=1)
    ap.add_argument("--seconds", type=int, default=20)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args(argv)
    if not (ROOT / "src" / "bstar" / "cli.py").is_file():
        print(f"error: no bstar sources under {ROOT / 'src'}", file=sys.stderr)
        return 2
    # Compile once up front so that no timed command pays for it.
    subprocess.run([sys.executable, "-m", "compileall", "-q", str(ROOT / "src")],
                   check=True, stdout=subprocess.DEVNULL)
    work_root = ROOT / ".bench_work"
    work = work_root / str(os.getpid())
    shutil.rmtree(work, ignore_errors=True)
    work.mkdir(parents=True)
    try:
        run = measure_traced if args.trace else measure
        result = run(args.workload, args.seed, args.seconds, work)
    finally:
        shutil.rmtree(work, ignore_errors=True)
        try:
            work_root.rmdir()
        except OSError:
            pass
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
