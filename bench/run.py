"""Benchmark of the eigensample CLI: end-to-end metrics, or a per-layer trace.

    python3 bench/run.py --workload pes-deep --seed 1 --seconds 10 --trace 0

Run from the repository root.  The workload's inputs are generated from
--seed into a working directory under .bench_work/, which is removed at the
end.  Every operation is a real `python -m eigensample` child process,
pinned to one thread and run one at a time (a closed loop with one client).

--trace 0 times whole passes over the workload's operations:
  setup_s      median wall time of SETUP_CALLS `check` calls on the main
               input (process start, imports, parse), after one discarded;
  wall_s       wall time of one pass, summed over its children;
  cpu_s        user + system CPU of those children;
  peak_rss_mb  largest maxrss of any child in the pass.
After one discarded warm-up pass (the workload's operations marked warm),
passes repeat while the next one is expected to end less than half a pass
after --seconds, so the timed passes span about --seconds whatever the
pass length; each metric is the median over those passes.

--trace 1 runs one untraced pass and then the same pass once more, traced,
in a fresh interpreter (bench/trace_pass.py), and reports per-layer
metrics; trace.overhead_s is the traced pass's time minus the untraced one.

Every report is checked against answers known from the generated inputs
and must be byte-identical to the first report of the same operation in
the run.  The last line of stdout is one JSON object with the keys
correct, attempted, failed and metrics.  The exit code is 0 when a result
was printed, and 2 when the repository under test is not present.
"""
from __future__ import annotations

import os

# Pinned before numpy loads, so input generation is single-threaded too.
THREAD_VARS = ("EIGENSAMPLE_THREADS", "OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS")
for _var in THREAD_VARS:
    os.environ[_var] = "1"

import argparse
import json
import platform
import shutil
import statistics
import subprocess
import sys
import threading
import time
from collections import Counter
from pathlib import Path

import numpy as np

import inputs
from workloads import WORKLOADS, Op, setup_op

BENCH_DIR = Path(__file__).resolve().parent
SETUP_CALLS = 7
# Every run ends well inside three minutes, whatever hangs.
RUN_DEADLINE_S = 170.0


class Runner:
    """Runs operations as child processes in `workdir` and checks them."""

    def __init__(self, root: Path, workdir: Path):
        self.workdir = workdir
        self.env = dict(os.environ)
        old = self.env.get("PYTHONPATH")
        self.env["PYTHONPATH"] = str(root / "src") + (os.pathsep + old if old else "")
        self.deadline = time.monotonic() + RUN_DEADLINE_S
        self.attempted = 0
        self.failed = 0
        self.errors: list[str] = []
        self.reference: dict[str, bytes] = {}
        self.outcomes: Counter[str] = Counter()

    def remaining(self) -> float:
        return self.deadline - time.monotonic()

    def run(self, op: Op) -> tuple[float, float, float]:
        """Returns (wall s, CPU s, maxrss MB) of the child."""
        self.attempted += 1
        (self.workdir / op.report).parent.mkdir(parents=True, exist_ok=True)
        if self.remaining() <= 0:
            self.fail(op.report, "run deadline reached before start")
            return 0.0, 0.0, 0.0
        err_path = self.workdir / (op.report + ".stderr")
        cmd = [sys.executable, "-m", "eigensample", *op.argv]
        start = time.perf_counter()
        with open(err_path, "wb") as err:
            proc = subprocess.Popen(cmd, cwd=self.workdir, env=self.env,
                                    stdout=subprocess.DEVNULL, stderr=err)
            timer = threading.Timer(self.remaining(), proc.kill)
            timer.start()
            try:
                _, status, usage = os.wait4(proc.pid, 0)
            finally:
                timer.cancel()
        wall = time.perf_counter() - start
        proc.returncode = os.waitstatus_to_exitcode(status)
        if proc.returncode != 0:
            self.fail(op.report, f"exit {proc.returncode}: {err_path.read_text()[-300:].strip()}")
        else:
            self.check(op)
        return wall, usage.ru_utime + usage.ru_stime, usage.ru_maxrss / 1024.0

    def check(self, op: Op) -> bool:
        path = self.workdir / op.report
        try:
            data = path.read_bytes()
            outcome = op.check(json.loads(data), self.workdir)
        except Exception as exc:  # a malformed report fails this operation only
            return self.fail(op.report, f"{type(exc).__name__}: {exc}")
        if outcome:
            self.outcomes[f"{op.name} {outcome}"] += 1
        first = self.reference.setdefault(op.name, data)
        if data != first:
            return self.fail(op.report, "report differs from the first one of the run")
        return True

    def fail(self, what: str, message: str) -> bool:
        self.failed += 1
        self.errors.append(f"{what}: {message}")
        return False

    def run_pass(self, ops: list[Op]) -> dict:
        children = [self.run(op) for op in ops]
        return {
            "wall_s": sum(c[0] for c in children),
            "cpu_s": sum(c[1] for c in children),
            "peak_rss_mb": max(c[2] for c in children),
            "op_wall_s": {op.name: c[0] for op, c in zip(ops, children)},
        }


def timed_run(runner: Runner, workload: str, seed: int, params: dict, seconds: int):
    ops_for = WORKLOADS[workload]
    setup = [runner.run(setup_op(workload, params, f"setup{i}"))[0] for i in range(SETUP_CALLS + 1)]
    runner.run_pass([op for op in ops_for(seed, params, "warm") if op.warm])
    passes = []
    start = time.monotonic()
    while True:
        passes.append(runner.run_pass(ops_for(seed, params, f"pass{len(passes)}")))
        last = passes[-1]["wall_s"]
        if time.monotonic() - start + last / 2 > seconds or runner.remaining() < 2 * last:
            break
    metrics = {
        "wall_s": (statistics.median(p["wall_s"] for p in passes), "s"),
        "cpu_s": (statistics.median(p["cpu_s"] for p in passes), "s"),
        "peak_rss_mb": (statistics.median(p["peak_rss_mb"] for p in passes), "MB"),
        "setup_s": (statistics.median(setup[1:]), "s"),
    }
    notes = [f"median of {len(passes)} passes after 1 warm-up pass, pass wall_s "
             + " ".join(f"{p['wall_s']:.3f}" for p in passes),
             f"setup_s median of {SETUP_CALLS} check calls after 1 discarded",
             "op median wall_s " + " ".join(
                 f"{name}={statistics.median(p['op_wall_s'][name] for p in passes):.3f}"
                 for name in passes[0]["op_wall_s"])]
    return metrics, notes


def traced_run(runner: Runner, workload: str, seed: int, params: dict):
    untraced = runner.run_pass(WORKLOADS[workload](seed, params, "untraced"))
    ops = WORKLOADS[workload](seed, params, "traced")
    for op in ops:
        (runner.workdir / op.report).parent.mkdir(parents=True, exist_ok=True)
    plan, result = runner.workdir / "plan.json", runner.workdir / "trace.json"
    plan.write_text(json.dumps({"ops": [{"name": op.name, "argv": list(op.argv)} for op in ops]}))
    cmd = [sys.executable, str(BENCH_DIR / "trace_pass.py"), plan.name, result.name]
    try:
        subprocess.run(cmd, cwd=runner.workdir, env=runner.env, check=True,
                       stdout=subprocess.DEVNULL, timeout=max(runner.remaining(), 1.0))
        traced = json.loads(result.read_text())
    except (subprocess.SubprocessError, OSError, ValueError) as exc:
        runner.attempted += 1
        runner.fail("traced pass", f"did not finish: {exc}")
        return {}, []
    for op in ops:
        runner.attempted += 1
        code = traced["exit_codes"].get(op.name)
        if code != 0:
            runner.fail(op.report, f"traced exit {code}")
        else:
            runner.check(op)
    runner.attempted += 1  # the ancilla-law health check
    if traced["problems"]:
        runner.fail("traced health", "; ".join(traced["problems"]))
    metrics = {name: (m["value"], m["unit"]) for name, m in traced["metrics"].items()}
    pass_s = metrics["trace.pass_s"][0]
    metrics["trace.overhead_s"] = (pass_s - untraced["wall_s"], "s")
    notes = [f"{'span':36s} {'calls':>7s} {'total_s':>10s} {'self_s':>10s}"]
    for name, (calls, total, own) in sorted(traced["spans"].items(), key=lambda kv: -kv[1][2]):
        notes.append(f"{name:36s} {calls:7d} {total:10.4f} {own:10.4f}")
    notes.append(f"untraced pass {untraced['wall_s']:.4f} s over child processes, "
                 f"traced pass {pass_s:.4f} s in one interpreter")
    return metrics, notes


def machine_facts() -> dict:
    try:
        cpu_max = Path("/sys/fs/cgroup/cpu.max").read_text().strip()
    except OSError:
        cpu_max = None
    try:
        blas = np.show_config(mode="dicts")["Build Dependencies"]["blas"]["name"]
    except (TypeError, KeyError):
        blas = None
    return {
        "nproc": os.cpu_count(),
        "affinity": len(os.sched_getaffinity(0)),
        "cgroup_cpu_max": cpu_max,
        "python": platform.python_version(),
        "numpy": np.__version__,
        "blas": blas,
        "threads": {var: os.environ[var] for var in THREAD_VARS},
    }


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--workload", choices=sorted(WORKLOADS), required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=int, default=30)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)

    root = Path.cwd()
    if not (root / "src" / "eigensample" / "__init__.py").is_file():
        print(f"no eigensample sources under {root / 'src'}; run from the repository root",
              file=sys.stderr)
        return 2
    seed = args.seed % 2**32  # the CLI takes non-negative seeds
    workdir = root / ".bench_work" / f"{args.workload}-{seed}-{os.getpid()}"
    runner = Runner(root, workdir)
    try:
        params = inputs.make_inputs(args.workload, seed, workdir / "in")
        if args.trace:
            metrics, notes = traced_run(runner, args.workload, seed, params)
        else:
            metrics, notes = timed_run(runner, args.workload, seed, params, args.seconds)
    finally:
        shutil.rmtree(workdir, ignore_errors=True)

    print("facts " + json.dumps(machine_facts()))
    print("inputs " + json.dumps({"workload": args.workload, "seed": seed,
                                  "digests": params["digests"]}))
    for line in notes:
        print(line)
    for outcome, count in sorted(runner.outcomes.items()):
        print(f"outcome {outcome} x{count}")
    for error in runner.errors:
        print("FAILED " + error)
    ratio = runner.failed / runner.attempted if runner.attempted else 1.0
    for name, (value, unit) in metrics.items():
        print(f"{name:36s} {value:.6g} {unit}")
    print(f"{'fail_ratio':36s} {ratio:.6g} 1 ({runner.failed}/{runner.attempted} ops)")
    print(json.dumps({
        "correct": runner.failed == 0 and runner.attempted > 0,
        "attempted": runner.attempted,
        "failed": runner.failed,
        "metrics": {name: {"value": value, "unit": unit} for name, (value, unit) in metrics.items()},
    }))
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
