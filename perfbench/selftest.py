"""Self-test of the benchmark at tiny scale (about half a minute).

    python3 perfbench/selftest.py

Checks that
  * a tampered document counts as a failed operation, while a changed
    ``elapsedMs`` does not;
  * two ``--seed`` values change only the random long-words inputs;
  * every workload passes its gate, and the traced run shows each
    per-layer metric non-zero where it is predicted busy and zero where
    it is predicted idle (``PREDICTED_BUSY``).
Exits 1 on the first failed check.
"""

from __future__ import annotations

import dataclasses
import json
import subprocess
import sys

import run

SF, ALL, LONG, JOBS2 = "sf-universe", "all-words", "long-words", "sf-universe-jobs2"
EVERY = {SF, ALL, LONG, JOBS2}

# Workloads on which each per-layer metric must be non-zero; it must be
# zero on the others.  Spans inside --jobs workers are lost, so on
# sf-universe-jobs2 only the parent's layers show.  The all-words walk is
# itertools.product inside verify, not the square-free enumerator.
PREDICTED_BUSY = {
    "periods.local_periods.calls": {SF, ALL, LONG},
    "periods.local_periods_scan.calls": {SF, ALL, LONG},
    "periods.profile.self_s": {LONG},
    "periods.profile_json_dict.self_s": {LONG},
    "words.border_array.calls": {SF, ALL, LONG},
    "squarefree.enumerate.words": {SF, JOBS2},
    "squarefree.extend_square_free.calls": {SF, LONG, JOBS2},
    "squarefree.extend_square_free.accept_ratio": {SF, LONG, JOBS2},
    "squarefree.is_square_free.calls": EVERY,
    "squarefree.find_square.calls": EVERY,
    "squarefree.has_square.calls": {LONG},
    "squarefree.has_square.self_s": {LONG},
    "thue.m_prefix.letters": {LONG},
    "verify.random_square_free.calls": {LONG},
    "verify.random_square_free.extend_per_letter": {LONG},
    "verify.suite.self_s": EVERY,
    "verify.pool.wall_s": {JOBS2},
    "verify.pool.cpu_s": {JOBS2},
    "verify.pool.efficiency": {JOBS2},
    "cli.run.self_s": {LONG, JOBS2},
    "cli.output_bytes": {LONG, JOBS2},
}


def check(ok: bool, what: str) -> None:
    print(f"{'ok  ' if ok else 'FAIL'} {what}")
    if not ok:
        sys.exit(1)


def test_gate(workloads) -> None:
    inputs = workloads.build_inputs(LONG, 0, "tiny")
    reference = json.loads(run.REFERENCE.read_text())["tiny"][LONG]
    ops = workloads.make_ops(inputs)
    i = next(k for k, op in enumerate(ops) if op.id.startswith("cli profile"))
    code, text = ops[i].call()
    tampered = text.replace('"eta": ', '"eta":  ', 1)
    ops[i] = dataclasses.replace(ops[i], call=lambda: (code, tampered))
    rnd = run.run_round(ops, reference, 30)
    check(rnd.failed == 1 and rnd.attempted == len(ops),
          f"tampered profile document fails 1 of {rnd.attempted} ops: {rnd.problems}")

    jobs_ref = json.loads(run.REFERENCE.read_text())["tiny"][JOBS2]
    op = workloads.make_ops(workloads.build_inputs(JOBS2, 0, "tiny"))[0]
    code, text = op.call()
    retimed = text.replace('"elapsedMs": ', '"elapsedMs": 9', 1)
    rnd = run.run_round([dataclasses.replace(op, call=lambda: (code, retimed))], jobs_ref, 30)
    check(retimed != text and rnd.failed == 0, "a changed elapsedMs passes the gate")


def test_seeds(workloads) -> None:
    for name in workloads.WORKLOADS:
        a = workloads.build_inputs(name, 1, "tiny")
        b = workloads.build_inputs(name, 2, "tiny")
        check(a == workloads.build_inputs(name, 1, "tiny"), f"{name}: same seed, same inputs")
        ra, rb = a.pop("random", None), b.pop("random", None)
        check(a == b, f"{name}: seeds leave the fixed inputs alone")
        check((ra != rb) == (name == LONG), f"{name}: seeds change the random words only on {LONG}")


def bench(workload: str, trace: int) -> dict:
    proc = subprocess.run(
        [sys.executable, str(run.HERE / "run.py"), "--workload", workload, "--seed", "7",
         "--seconds", "0.5", "--trace", str(trace), "--scale", "tiny"],
        capture_output=True, text=True, timeout=170, cwd=run.ROOT,
    )
    check(proc.returncode == 0, f"{workload} --trace {trace} exits 0 {proc.stderr[-300:]}")
    return json.loads(proc.stdout.strip().splitlines()[-1])


def test_runs() -> None:
    for workload in (SF, ALL, LONG, JOBS2):
        for trace in (0, 1):
            res = bench(workload, trace)
            check(res["correct"] and res["failed"] == 0 and res["attempted"] > 0,
                  f"{workload} --trace {trace}: {res['attempted']} ops, none failed")
            if not trace:
                continue
            metrics = {k: v["value"] for k, v in res["metrics"].items()}
            for name, busy in PREDICTED_BUSY.items():
                want_busy = workload in busy
                check((metrics[name] != 0) == want_busy,
                      f"{workload}: {name} = {metrics[name]:.6g} "
                      f"({'busy' if want_busy else 'idle'} predicted)")


def main() -> int:
    workloads = run.import_critfact()
    test_gate(workloads)
    test_seeds(workloads)
    test_runs()
    return 0


if __name__ == "__main__":
    sys.exit(main())
