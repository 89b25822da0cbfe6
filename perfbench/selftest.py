"""
Self-test of the benchmark at tiny sizes; exits non-zero on the first failure.

    python3 perfbench/selftest.py

Checks that correct outputs pass, that one corrupted output byte and
one corrupted table coefficient each count as a failed call, that a
timed-out call counts as failed, and that the traced replay's spans
nest, with the self times of each span's children summing to at most
its duration.
"""

from __future__ import annotations

import shutil
import sys
from functools import partial

import run
import spans
from workloads import (
    OUT, Call, check_min_product, check_pattern, check_table_csv, check_table_json,
    check_tau, check_verify,
)

CALLS = [
    Call(("rec-table", "--n", "12"), partial(check_table_csv, 12, "rec")),
    Call(("srec-table", "--n", "7", "--format", "json", "--output", OUT),
         partial(check_table_json, 7, "srec")),
    Call(("tau", "--stat", "srec", "--n-min", "2", "--n-max", "12"),
         partial(check_tau, "srec", 2, 12)),
    Call(("min-product", "--n", "12", "--k", "40"), partial(check_min_product, 12, 40)),
    Call(("pattern", "--n", "9", "--marks", "3:Y,7:N"), partial(check_pattern, {3: "Y", 7: "N"})),
    Call(("verify", "--suite", "scaling", "--max-n", "4"), check_verify),
]
TAU, TABLE = 2, 0


def require(ok: bool, message: str) -> None:
    if not ok:
        print(f"selftest FAILED: {message}", file=sys.stderr)
        sys.exit(1)


def failed_ops(outputs, digests, golden) -> int:
    return sum(1 for error in run.check_pass(CALLS, outputs, digests, golden) if error)


def main() -> int:
    directory = run.OUT_DIR / "selftest"
    shutil.rmtree(directory, ignore_errors=True)
    directory.mkdir(parents=True)
    env = run.child_env()
    outputs = [directory / f"call{i}.out" for i in range(len(CALLS))]
    samples = [run.spawn(call, out, 60.0, env) for call, out in zip(CALLS, outputs)]
    require(all(not s.error for s in samples), f"a tiny call failed: {samples}")
    golden = {call.key: s.digest for call, s in zip(CALLS, samples)}
    require(failed_ops(outputs, [s.digest for s in samples], golden) == 0,
            "correct outputs were counted as failed")

    # one output byte: the last digit of the last argmax_x, caught only by the digest
    text = outputs[TAU].read_text()
    outputs[TAU].write_text(text[:-2] + ("1" if text[-2] != "1" else "2") + "\n")
    digests = [run.digest(out) for out in outputs]
    require(failed_ops(outputs, digests, golden) == 1, "a corrupted output byte went unnoticed")
    outputs[TAU].write_text(text)

    # one table coefficient, with no digest to compare against
    lines = outputs[TABLE].read_text().splitlines()
    n, k, count = lines[5].split(",")
    lines[5] = f"{n},{k},{int(count) + 1}"
    outputs[TABLE].write_text("\n".join(lines) + "\n")
    digests = [run.digest(out) for out in outputs]
    require(failed_ops(outputs, digests, {}) == 1, "a corrupted coefficient went unnoticed")

    slow = Call(("tau", "--stat", "srec", "--n-min", "2", "--n-max", "300"), check_verify)
    timed_out = run.spawn(slow, directory / "slow.out", 0.05, env)
    require(timed_out.timed_out and timed_out.error != "", "a timed-out call was not failed")

    cli = spans.load_package(run.SRC)
    tracer = spans.Tracer()
    with spans.traced(tracer):
        replayed = spans.replay(cli, CALLS, outputs, tracer)
    require(all(r.returncode == 0 for r in replayed), "a traced replay call failed")
    by_id = {s.id: s for s in tracer.spans}
    own = spans.self_times(tracer.spans)
    children_self: dict[int, float] = {}
    for s in tracer.spans:
        if s.parent is not None:
            parent = by_id[s.parent]
            require(parent.start <= s.start <= s.end <= parent.end,
                    f"{s.name} does not nest in {parent.name}")
            children_self[s.parent] = children_self.get(s.parent, 0.0) + own[s.id]
    require(all(v <= by_id[i].end - by_id[i].start for i, v in children_self.items()),
            "children's self times exceed their parent's duration")
    names = {s.name for s in tracer.spans}
    require({"tables.iter_srec_rows", "scaling.tau_series", "extremal.min_product",
             "verify.run_suite"} <= names, f"layers missing from the trace: {names}")
    verify_only = [s for s in tracer.spans if s.op == len(CALLS) - 1]
    metrics = spans.layer_metrics(verify_only, 0.0, {})
    require(metrics["verify.run_suite_s"] > 0 and metrics["scaling.tau_self_s"] == 0,
            "spans under verify.run_suite leaked into other layers")
    shutil.rmtree(directory)
    print("selftest passed")
    return 0


if __name__ == "__main__":
    sys.exit(main())
