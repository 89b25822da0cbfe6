"""
The recstats benchmark.

    python3 perfbench/run.py --workload certify --seed 0 --seconds 36 --trace 0

Each workload (see ``workloads.py``) is a fixed list of ``recstats`` CLI
calls.  With ``--trace 0`` the calls run in subprocesses of this one
process, one after another (a closed loop), repeated as whole passes for
``--seconds``; every output is checked.  End-to-end metrics, each a
median over the passes:

* ``wall_s``: wall time of one pass over the workload's calls;
* ``cpu_s``: user plus system CPU time of those calls (``os.wait4``);
* ``peak_rss_mb``: the largest ``ru_maxrss`` among the pass's calls;
* ``setup_s``: wall time of a no-work call (``records --perm 2,1,3``):
  interpreter start, import and argparse.  It runs at the start of the
  run and after every timed call, so its median spans the whole run.

A call fails when it exits non-zero, times out, fails its output check,
or its output digest differs from ``golden.json`` (digests recorded at
the seed commit for the default seed) or from the first pass.
``failed_ops`` is the failed share of the calls attempted.

With ``--trace 1`` the workload is replayed in this process through
``recstats.cli.main`` (see ``spans.py``), untraced and traced; the
result holds the per-layer metrics.  ``--workload all`` runs every
workload in turn and prints one table.

The child processes import ``recstats`` from this checkout's ``src``
with every ``RECSTAT_*`` variable removed from their environment.  The
last line of stdout is one JSON object; a fuller record with machine
information, per-call samples, digests and spans is written under
``.perfbench_out/`` in the checkout.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import os
import platform
import shutil
import signal
import statistics
import subprocess
import sys
import threading
import time
from dataclasses import dataclass
from pathlib import Path

import workloads
from workloads import SETUP_CALL, Call, CheckFailed

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src"
OUT_DIR = ROOT / ".perfbench_out"
GOLDEN = Path(__file__).resolve().parent / "golden.json"

DEFAULT_SEED = 0
SETUP_REPEATS = 10  # at the start of a run
CALL_TIMEOUT_S = 120.0
# a run must end within 180 s; this leaves room for the output checks
RUN_BUDGET_S = 150.0


@dataclass
class Sample:
    """One subprocess call: its measurements and the digest of its output."""

    key: str
    wall: float
    cpu: float
    rss_mb: float
    returncode: int
    timed_out: bool
    digest: str = ""
    error: str = ""


def child_env() -> dict[str, str]:
    env = {k: v for k, v in os.environ.items() if not k.startswith("RECSTAT_")}
    env["PYTHONPATH"] = str(SRC)
    return env


def digest(path: Path) -> str:
    h = hashlib.sha256()
    with path.open("rb") as handle:
        for block in iter(lambda: handle.read(1 << 20), b""):
            h.update(block)
    return h.hexdigest()


def spawn(call: Call, out: Path, timeout: float, env: dict[str, str]) -> Sample:
    """Run one CLI call; stdout (or the --output file) lands at ``out``.

    The child is reaped with ``os.wait4`` for its resource usage.  A
    timer kills it at ``timeout``; the flag ``done`` is set under the
    lock before the reap, so the timer never signals a reaped pid.
    """
    stdout_path = out.with_suffix(".stdout") if call.writes_file else out
    err_path = out.with_suffix(".stderr")
    argv = [sys.executable, "-m", "recstats.cli", *call.argv_for(out)]
    stdout_fd = os.open(stdout_path, os.O_WRONLY | os.O_CREAT | os.O_TRUNC, 0o644)
    err_fd = os.open(err_path, os.O_WRONLY | os.O_CREAT | os.O_TRUNC, 0o644)
    try:
        start = time.perf_counter()
        pid = os.posix_spawn(sys.executable, argv, env, file_actions=[
            (os.POSIX_SPAWN_OPEN, 0, os.devnull, os.O_RDONLY, 0),
            (os.POSIX_SPAWN_DUP2, stdout_fd, 1),
            (os.POSIX_SPAWN_DUP2, err_fd, 2),
        ])
    finally:
        os.close(stdout_fd)
        os.close(err_fd)
    lock = threading.Lock()
    state = {"done": False, "killed": False}

    def kill() -> None:
        with lock:
            if not state["done"]:
                os.kill(pid, signal.SIGKILL)
                state["killed"] = True

    timer = threading.Timer(timeout, kill)
    timer.start()
    try:
        os.waitid(os.P_PID, pid, os.WEXITED | os.WNOWAIT)
        wall = time.perf_counter() - start
        with lock:
            state["done"] = True
    finally:
        timer.cancel()
    _, status, usage = os.wait4(pid, 0)
    sample = Sample(call.key, wall, usage.ru_utime + usage.ru_stime,
                    usage.ru_maxrss * 1024 / 1e6,  # KiB to MB
                    os.waitstatus_to_exitcode(status), state["killed"])
    if sample.returncode != 0 or sample.timed_out:
        sample.error = err_path.read_text(errors="replace")[-500:] or "no stderr"
    elif call.writes_file and stdout_path.stat().st_size:
        sample.error = "stdout not empty with --output"
    else:
        sample.digest = digest(out)
    return sample


def check_pass(calls: list[Call], outputs: list[Path], digests: list[str],
               golden: dict[str, str]) -> list[str]:
    """Check one pass's outputs; returns an error per call ('' when correct)."""
    context: dict = {}
    errors = []
    for call, out, got in zip(calls, outputs, digests):
        error = ""
        if golden.get(call.key, got) != got:
            error = "digest differs from golden.json"
        else:
            try:
                call.check(out, context)
            except (CheckFailed, ValueError, TypeError, KeyError, IndexError, OSError) as exc:
                error = f"check failed: {exc!r}"
        errors.append(error)
    return errors


def machine_info() -> dict[str, str | int]:
    try:
        top, commit = subprocess.run(
            ["git", "rev-parse", "--show-toplevel", "HEAD"], cwd=ROOT, capture_output=True,
            text=True, timeout=10, check=True).stdout.split()
    except (OSError, ValueError, subprocess.SubprocessError):
        top, commit = "", "unknown"
    if Path(top).resolve() != ROOT:  # a checkout inside some other repository
        commit = "unknown"
    return {
        "nproc": os.cpu_count() or 1,
        "python": platform.python_version(),
        "platform": platform.platform(),
        "commit": commit,
    }


def load_golden() -> dict[str, str]:
    with GOLDEN.open() as handle:
        return json.load(handle)


class Run:
    """State of one benchmark run: its deadline, output directory and samples."""

    def __init__(self, workload: str, seed: int, trace: int) -> None:
        self.start = time.perf_counter()
        self.env = child_env()
        self.golden = load_golden()
        self.dir = OUT_DIR / f"{workload}-seed{seed}-trace{trace}"
        shutil.rmtree(self.dir, ignore_errors=True)
        self.dir.mkdir(parents=True)
        self.failures: list[tuple[str, str]] = []
        self.attempted = 0
        self.setup_walls: list[float] = []

    def remaining(self) -> float:
        return RUN_BUDGET_S - (time.perf_counter() - self.start)

    def fail(self, key: str, error: str) -> None:
        self.failures.append((key, error))

    def execute(self, call: Call, out: Path) -> Sample:
        self.attempted += 1
        sample = spawn(call, out, max(1.0, min(CALL_TIMEOUT_S, self.remaining())), self.env)
        if sample.error:
            self.fail(call.key, sample.error)
        return sample

    def setup(self, repeats: int) -> None:
        """Time the no-work call ``repeats`` times, checking its output."""
        out = self.dir / "setup.out"
        for _ in range(repeats):
            sample = self.execute(SETUP_CALL, out)
            if not sample.error:
                self.check([SETUP_CALL], [out], [sample.digest])
            self.setup_walls.append(sample.wall)

    def setup_s(self) -> float:
        return statistics.median(self.setup_walls)

    def check(self, calls: list[Call], outputs: list[Path], digests: list[str]) -> None:
        for call, error in zip(calls, check_pass(calls, outputs, digests, self.golden)):
            if error:
                self.fail(call.key, error)


def measure(run: Run, calls: list[Call], seconds: float) -> dict:
    """Repeat passes over the calls for ``seconds``; check every output.

    A further pass starts only if it is expected (from the last pass)
    to end within ``seconds``, so a run ends near ``seconds`` whatever
    the workload's size.  Outputs of the first pass are kept for the
    content checks, which run after all timing so that this process stays
    small while children are measured: a child's ``ru_maxrss`` counts
    the memory of the process that spawned it.  Every later pass must
    repeat the first pass's digests, so a wrong output fails each call
    that produced it.
    """
    first =[run.dir / f"call{i}.out" for i in range(len(calls))]
    later = [run.dir / f"later{i}.out" for i in range(len(calls))]
    passes: list[list[Sample]] = []
    begin = time.perf_counter()
    while True:
        pass_start = time.perf_counter()
        outputs = first if not passes else later
        samples = []
        for call, out in zip(calls, outputs):
            samples.append(run.execute(call, out))
            run.setup(1)
            if samples[-1].error and run.remaining() <= 1.0:
                break
        passes.append(samples)
        now = time.perf_counter()
        last = now - pass_start
        if len(samples) < len(calls) or now - begin + last > seconds or run.remaining() < 2 * last:
            break
    reference = passes[0]
    valid = [i for i, ref in enumerate(reference) if not ref.error]
    checked = check_pass([calls[i] for i in valid], [first[i] for i in valid],
                         [reference[i].digest for i in valid], run.golden)
    errors = dict(zip(valid, checked))
    for samples in passes:
        for i, sample in enumerate(samples):
            if sample.error:
                continue
            if sample.digest != reference[i].digest:
                run.fail(sample.key, "output differs from the first pass")
            elif errors[i]:
                run.fail(sample.key, errors[i])
    complete = [p for p in passes if len(p) == len(calls)] or passes
    return {
        "wall_s": statistics.median(sum(s.wall for s in p) for p in complete),
        "cpu_s": statistics.median(sum(s.cpu for s in p) for p in complete),
        "peak_rss_mb": statistics.median(max(s.rss_mb for s in p) for p in complete),
        "passes": len(complete),
        "samples": [[vars(s) for s in p] for p in passes],
    }


def traced_run(run: Run, calls: list[Call]) -> dict:
    """Per-layer metrics from replays of the calls in this process.

    Each call first runs once as a subprocess, while this process is
    still small, for its peak RSS; a layer's ``peak_mb`` is the largest
    such peak, less the no-work call's, among the calls that ran the
    layer outside verify.  The replays run untraced, traced, and
    untraced again; ``trace_overhead_s`` compares the last two, which
    both find the heap already grown by the first.
    """
    import spans

    base = run.execute(SETUP_CALL, run.dir / "setup.out").rss_mb
    alone = [run.execute(call, run.dir / f"alone{i}.out") for i, call in enumerate(calls)]
    for key in [k for k in os.environ if k.startswith("RECSTAT_")]:
        del os.environ[key]
    cli = spans.load_package(SRC)
    plain = [run.dir / f"plain{i}.out" for i in range(len(calls))]
    traced_out = [run.dir / f"call{i}.out" for i in range(len(calls))]
    tracer = spans.Tracer()
    first = spans.replay(cli, calls, plain)
    with spans.traced(tracer):
        traced = spans.replay(cli, calls, traced_out, tracer)
    untraced = spans.replay(cli, calls, plain)
    run.attempted += 3 * len(calls)
    digests = []
    for call, sub, *ops, out_a, out_b in zip(calls, alone, first, traced, untraced, plain,
                                             traced_out):
        codes = [op.returncode for op in ops]
        if any(codes):
            run.fail(call.key, f"exit codes {codes} in-process")
        elif not sub.error and not digest(out_a) == digest(out_b) == sub.digest:
            run.fail(call.key, "subprocess, untraced and traced outputs differ")
        digests.append(digest(out_b) if out_b.exists() else "")
    run.check(calls, traced_out, digests)
    peaks = spans.layer_peaks(tracer.spans, [max(0.0, s.rss_mb - base) for s in alone])
    metrics = spans.layer_metrics(tracer.spans, run.setup_s(), peaks)
    metrics["trace_overhead_s"] = sum(r.wall for r in traced) - sum(r.wall for r in untraced)
    return {"metrics": metrics, "spans": [vars(s) for s in tracer.spans]}


def spec() -> dict:
    with (ROOT / "BENCHMARK.json").open() as handle:
        return json.load(handle)


def run_workload(args: argparse.Namespace) -> dict:
    info = machine_info()
    run = Run(args.workload, args.seed, args.trace)
    calls = workloads.build(args.workload, args.seed)
    run.setup(SETUP_REPEATS)
    if args.trace:
        detail = traced_run(run, calls)
        values, declared, note = detail["metrics"], spec()["per_layer"], "traced replay"
    else:
        detail = measure(run, calls, args.seconds)
        values = {k: detail[k] for k in ("wall_s", "cpu_s", "peak_rss_mb")}
        values["setup_s"] = run.setup_s()
        declared, note = spec()["end_to_end"], f"median of {detail['passes']} passes"
    print(f"machine: nproc={info['nproc']} python={info['python']} "
          f"platform={info['platform']} commit={info['commit']}")
    print(f"workload {args.workload}: seed {args.seed}, {len(calls)} calls per pass")
    metrics = {}
    for metric in declared:
        name, unit = metric["name"], metric["unit"]
        if name == "setup_s":
            note = f"median of {len(run.setup_walls)} calls"
        metrics[name] = {"value": values[name], "unit": unit}
        print(f"{args.workload}.{name} = {values[name]:.6g} {unit} ({note})")
    failed = len(run.failures)
    print(f"{args.workload}.failed_ops = {failed / run.attempted:.6g} "
          f"({failed} of {run.attempted} calls)")
    for key, error in run.failures:
        print(f"FAILED {key}: {error}")
    result = {"correct": failed == 0, "attempted": run.attempted, "failed": failed,
              "metrics": metrics}
    record = {"workload": args.workload, "seed": args.seed, "trace": args.trace,
              "machine": info, "result": result, "setup_samples_s": run.setup_walls,
              "failures": run.failures, **{k: v for k, v in detail.items() if k != "metrics"}}
    shutil.rmtree(run.dir, ignore_errors=True)
    with (OUT_DIR / f"{run.dir.name}.json").open("w") as handle:
        json.dump(record, handle)
    return result


def run_all(args: argparse.Namespace) -> dict:
    """Every workload in its own benchmark process, so each starts small; one table."""
    results = {}
    for workload in workloads.WORKLOADS:
        argv = [sys.executable, __file__, "--workload", workload, "--seed", str(args.seed),
                "--seconds", str(args.seconds), "--trace", str(args.trace)]
        out = subprocess.run(argv, capture_output=True, text=True, check=True,
                             timeout=RUN_BUDGET_S + 60).stdout
        print(out, end="")
        results[workload] = json.loads(out.splitlines()[-1])
    print(f"{'workload':<10}" + "".join(f"{name:>16}" for name in next(
        iter(results.values()))["metrics"]) + f"{'failed_ops':>12}")
    for workload, result in results.items():
        cells = "".join(f"{m['value']:>16.6g}" for m in result["metrics"].values())
        print(f"{workload:<10}{cells}{result['failed'] / result['attempted']:>12.6g}")
    return {
        "correct": all(r["correct"] for r in results.values()),
        "attempted": sum(r["attempted"] for r in results.values()),
        "failed": sum(r["failed"] for r in results.values()),
        "metrics": {f"{w}.{name}": m for w, r in results.items()
                    for name, m in r["metrics"].items()},
    }


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description="Benchmark the recstats CLI.")
    parser.add_argument("--workload", required=True, choices=[*workloads.WORKLOADS, "all"])
    parser.add_argument("--seed", type=int, default=DEFAULT_SEED)
    parser.add_argument("--seconds", type=float, default=36.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if not (SRC / "recstats" / "cli.py").is_file():
        print(f"error: no recstats package under {SRC}", file=sys.stderr)
        return 2
    result = run_all(args) if args.workload == "all" else run_workload(args)
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
