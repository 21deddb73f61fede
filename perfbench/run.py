"""critfact benchmark: time to a checked verdict on four workloads.

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1
                             [--scale bench|tiny|roadmap]

Run from the root of a checkout; critfact is imported from ``src/``.
Each run repeats the workload's round of operations until ``--seconds``
have passed and prints, as its last line, one JSON object with
``correct``, ``attempted``, ``failed`` and ``metrics``.  The line before
it holds the run's stamp (source, Python, nproc, load average) and the
per-round spread.

With ``--trace 0`` the metrics are the end-to-end ones, averaged over
all timed rounds (the median, 90th percentile and every round time are
in the detail line).  With ``--trace 1`` the first half of the time
runs untraced rounds and the second half traced ones; the metrics are
the per-layer rows of ``tracer.py`` plus the tracing overhead.  See
README.md.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import os
import platform
import resource
import signal
import statistics
import subprocess
import sys
import time
from dataclasses import dataclass, field
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
REFERENCE = HERE / "reference.json"
SETUP_PROBES = 7

workloads = None  # the workloads module, once import_critfact has run


def _fail(message: str) -> None:
    print(f"perfbench: {message}", file=sys.stderr)
    sys.exit(2)


def import_critfact():
    """Import critfact from this checkout's ``src``, and nowhere else;
    returns the workloads module."""
    global workloads
    if not (SRC / "critfact" / "__init__.py").is_file():
        _fail(f"no critfact sources under {SRC}")
    sys.path.insert(0, str(SRC))
    sys.path.insert(0, str(HERE))
    import critfact

    if Path(critfact.__file__).resolve().parent != SRC / "critfact":
        _fail(f"critfact imported from {critfact.__file__}, not {SRC}")
    import workloads as module

    workloads = module
    return module


# -- one round -----------------------------------------------------------------


class OpTimeout(Exception):
    pass


def _on_alarm(signum, frame):
    raise OpTimeout()


def cpu_now() -> float:
    """User + system CPU seconds of this process and its reaped children."""
    s = resource.getrusage(resource.RUSAGE_SELF)
    c = resource.getrusage(resource.RUSAGE_CHILDREN)
    return s.ru_utime + s.ru_stime + c.ru_utime + c.ru_stime


@dataclass
class Round:
    """The outcome of one round: timing, work and gate results."""

    wall_s: float = 0.0
    cpu_s: float = 0.0
    letters: int = 0
    attempted: int = 0
    failed: int = 0
    output_bytes: int = 0
    op_wall_s: list[float] = field(default_factory=list)
    problems: list[str] = field(default_factory=list)
    timed_out: bool = False


def run_round(ops, reference: dict, timeout_s: float) -> Round:
    """Run every op once, timed, then gate each result outside the timed
    region.  An exception, a timeout, a failed check or a document whose
    digest differs from the reference fails the op.  After a timeout the
    remaining ops are not run and count as failed."""
    rnd = Round()
    raws = []
    signal.signal(signal.SIGALRM, _on_alarm)
    cpu0 = cpu_now()
    t0 = time.perf_counter()
    for op in ops:
        if rnd.timed_out:
            raws.append(("error", "not run after a timeout"))
            continue
        signal.setitimer(signal.ITIMER_REAL, timeout_s)
        t_op = time.perf_counter()
        try:
            raws.append(("ok", op.call()))
        except OpTimeout:
            rnd.timed_out = True
            raws.append(("error", f"timeout after {timeout_s} s"))
        except Exception as exc:  # any exception is a failed operation
            raws.append(("error", repr(exc)))
        finally:
            signal.setitimer(signal.ITIMER_REAL, 0)
            rnd.op_wall_s.append(time.perf_counter() - t_op)
    rnd.wall_s = time.perf_counter() - t0
    rnd.cpu_s = cpu_now() - cpu0

    for op, (status, raw) in zip(ops, raws):
        rnd.attempted += 1
        rnd.letters += op.letters
        if status == "error":
            problems = [raw]
        else:
            docs, problems, nbytes = op.inspect(raw)
            rnd.output_bytes += nbytes
            if op.gated:
                want = reference.get(op.id)
                if want is None:
                    problems.append("no reference digest")
                elif [workloads.digest(d) for d in docs] != want:
                    problems.append("digest differs from the reference")
        if problems:
            rnd.failed += 1
            rnd.problems.extend(f"{op.id}: {p}" for p in problems)
    return rnd


def run_rounds(ops, reference, timeout_s, seconds, tracer=None, setup_counts=None):
    """Rounds for ``seconds`` (at least one): no round starts that the
    last round's time says would end past the deadline.  With a tracer,
    each round's per-layer totals (plus the set-up's) are kept too."""
    rounds, layers = [], []
    deadline = time.perf_counter() + seconds
    while True:
        if tracer is not None:
            tracer.install()
        try:
            rnd = run_round(ops, reference, timeout_s)
        finally:
            if tracer is not None:
                tracer.uninstall()
        rounds.append(rnd)
        if tracer is not None:
            totals = tracer.drain()
            totals.update(setup_counts)
            totals["cli.output_bytes"] += rnd.output_bytes
            layers.append(totals)
        if rnd.timed_out or time.perf_counter() + rnd.wall_s > deadline:
            return rounds, layers


# -- set-up --------------------------------------------------------------------


def setup_seconds(workload: str, seed: int, scale: str) -> list[float]:
    """Seconds from starting a fresh interpreter to its inputs being
    ready (``import critfact``, the ``m_prefix`` cache, the inputs), once
    per probe.  The probe prints its monotonic clock when ready."""
    probe = HERE / "setup_probe.py"
    out = []
    for _ in range(SETUP_PROBES):
        t0 = time.monotonic()
        proc = subprocess.run(
            [sys.executable, str(probe), workload, str(seed), scale],
            capture_output=True, text=True, timeout=120, cwd=ROOT,
        )
        if proc.returncode != 0:
            _fail(f"set-up probe failed: {proc.stderr.strip()[-500:]}")
        out.append(float(proc.stdout.split()[-1]) - t0)
    return out


# -- stamp ---------------------------------------------------------------------


def _commit() -> str | None:
    head = ROOT / ".git" / "HEAD"
    try:
        ref = head.read_text().strip()
        if ref.startswith("ref: "):
            return (ROOT / ".git" / ref[5:]).read_text().strip()
        return ref
    except OSError:
        return None


def _source_sha256() -> str:
    h = hashlib.sha256()
    for path in sorted((SRC / "critfact").glob("*.py")):
        h.update(path.name.encode() + b"\0" + path.read_bytes())
    return h.hexdigest()


def stamp_start() -> dict:
    return {
        "commit": _commit(),
        "sourceSha256": _source_sha256(),
        "python": platform.python_version(),
        "nproc": len(os.sched_getaffinity(0)),
        "loadavgStart": list(os.getloadavg()),
    }


def stamp_end(stamp: dict) -> dict:
    stamp["loadavgEnd"] = list(os.getloadavg())
    stamp["overloaded"] = max(stamp["loadavgStart"][0], stamp["loadavgEnd"][0]) > stamp["nproc"]
    return stamp


# -- metrics -------------------------------------------------------------------


PER_LAYER = (
    ("periods.local_periods.calls", "count"),
    ("periods.local_periods.self_s", "s"),
    ("periods.local_periods_scan.calls", "count"),
    ("periods.local_periods_scan.self_s", "s"),
    ("periods.profile.self_s", "s"),
    ("periods.profile_json_dict.self_s", "s"),
    ("words.border_array.calls", "count"),
    ("words.border_array.self_s", "s"),
    ("squarefree.enumerate.words", "count"),
    ("squarefree.enumerate.self_s", "s"),
    ("squarefree.extend_square_free.calls", "count"),
    ("squarefree.extend_square_free.accept_ratio", "ratio"),
    ("squarefree.extend_square_free.self_s", "s"),
    ("squarefree.is_square_free.calls", "count"),
    ("squarefree.is_square_free.self_s", "s"),
    ("squarefree.find_square.calls", "count"),
    ("squarefree.find_square.self_s", "s"),
    ("squarefree.has_square.calls", "count"),
    ("squarefree.has_square.self_s", "s"),
    ("thue.m_prefix.letters", "count"),
    ("thue.m_prefix.self_s", "s"),
    ("verify.random_square_free.calls", "count"),
    ("verify.random_square_free.self_s", "s"),
    ("verify.random_square_free.extend_per_letter", "ratio"),
    ("verify.suite.self_s", "s"),
    ("verify.pool.wall_s", "s"),
    ("verify.pool.cpu_s", "s"),
    ("verify.pool.efficiency", "ratio"),
    ("cli.run.self_s", "s"),
    ("cli.output_bytes", "bytes"),
    ("trace.wall_s", "s"),
    ("trace.overhead_s", "s"),
)


def _ratio(num: float, den: float) -> float:
    return num / den if den else 0.0


def layer_row(totals) -> dict:
    """Every per-layer metric of one traced round, but the ``trace.*``
    ones, which are made from all the rounds."""
    row = {name: totals.get(name, 0) for name, _ in PER_LAYER}
    ext = "squarefree.extend_square_free"
    row[f"{ext}.accept_ratio"] = _ratio(totals.get(f"{ext}.accepted", 0), totals.get(f"{ext}.calls", 0))
    rsf = "verify.random_square_free"
    row[f"{rsf}.extend_per_letter"] = _ratio(
        totals.get(f"{rsf}>{ext}.calls", 0), totals.get(f"{rsf}.letters", 0)
    )
    row["verify.pool.efficiency"] = _ratio(
        totals.get("verify.pool.cpu_s", 0), totals.get("verify.pool.jobs_wall_s", 0)
    )
    return row


def _quartiles(values: list[float]) -> list[float]:
    if len(values) < 2:
        return [values[0]] * 3
    return statistics.quantiles(values, n=4)


def _p90(values: list[float]) -> float:
    if len(values) < 2:
        return values[0]
    return statistics.quantiles(values, n=10)[-1]


def _op_medians(ops, rounds) -> dict:
    """Median untraced seconds of each op (None if it never ran)."""
    out = {}
    for k, op in enumerate(ops):
        walls = [r.op_wall_s[k] for r in rounds if k < len(r.op_wall_s)]
        out[op.id] = statistics.median(walls) if walls else None
    return out


def main(argv: list[str] | None = None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", required=True)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), required=True)
    ap.add_argument("--scale", choices=("bench", "tiny", "roadmap"), default="bench")
    args = ap.parse_args(argv)

    import_critfact()
    if args.workload not in workloads.WORKLOADS:
        _fail(f"unknown workload {args.workload!r}; choose from {', '.join(workloads.WORKLOADS)}")
    try:
        reference = json.loads(REFERENCE.read_text())[args.scale][args.workload]
    except (OSError, KeyError, ValueError) as exc:
        _fail(f"no reference digests for {args.scale}/{args.workload}: {exc!r}")
    timeout_s = workloads.SCALES[args.scale]["timeout_s"]
    stamp = stamp_start()

    if args.trace:
        from tracer import Tracer

        tracer = Tracer()
        tracer.install()
        try:
            inputs = workloads.build_inputs(args.workload, args.seed, args.scale)
        finally:
            tracer.uninstall()
        setup_counts = tracer.drain()
    else:
        setups = setup_seconds(args.workload, args.seed, args.scale)
        inputs = workloads.build_inputs(args.workload, args.seed, args.scale)
    ops = workloads.make_ops(inputs)

    warm = run_round(ops, reference, timeout_s)
    if args.trace:
        timed, _ = run_rounds(ops, reference, timeout_s, args.seconds / 2)
        traced, layers = run_rounds(ops, reference, timeout_s, args.seconds / 2,
                                    tracer, setup_counts)
    else:
        timed, _ = run_rounds(ops, reference, timeout_s, args.seconds)
        traced = []
    rounds = [warm] + timed + traced
    attempted = sum(r.attempted for r in rounds)
    failed = sum(r.failed for r in rounds)
    walls = [r.wall_s for r in timed]

    if args.trace:
        rows = [layer_row(t) for t in layers]
        metrics = {
            name: {"value": statistics.median_low(row[name] for row in rows), "unit": unit}
            for name, unit in PER_LAYER
        }
        # Mean traced round minus mean untraced round, the same
        # statistic as the untraced run's wall_s.
        traced_wall = statistics.fmean(r.wall_s for r in traced)
        metrics["trace.wall_s"]["value"] = traced_wall
        metrics["trace.overhead_s"]["value"] = traced_wall - statistics.fmean(walls)
    else:
        rss_kb = max(resource.getrusage(resource.RUSAGE_SELF).ru_maxrss,
                     resource.getrusage(resource.RUSAGE_CHILDREN).ru_maxrss)
        metrics = {
            "wall_s": {"value": statistics.fmean(walls), "unit": "s"},
            "letters_per_s": {
                "value": sum(r.letters for r in timed) / sum(walls),
                "unit": "letters/s",
            },
            "cpu_s": {"value": statistics.fmean(r.cpu_s for r in timed), "unit": "s"},
            "setup_s": {"value": statistics.median(setups), "unit": "s"},
            "peak_rss_mb": {"value": rss_kb / 1024, "unit": "MB"},
            "ok_ratio": {"value": (attempted - failed) / attempted, "unit": "ratio"},
        }

    for p in [p for r in rounds for p in r.problems][:20]:
        print(f"perfbench: FAILED {p}", file=sys.stderr)
    detail = {
        "workload": args.workload,
        "scale": args.scale,
        "seed": args.seed,
        "trace": args.trace,
        "stamp": stamp_end(stamp),
        "untracedRounds": len(timed),
        "tracedRounds": len(traced),
        "opsPerRound": len(ops),
        "failedRatio": {"failed": failed, "attempted": attempted,
                        "base": "operations (report, profile, has_square or generation calls), "
                                "warm-up round included"},
        "roundWall_s": walls,
        "roundWallQuartiles_s": _quartiles(walls),
        "roundWallP90_s": _p90(walls),
        "opWallMedian_s": _op_medians(ops, timed),
    }
    if not args.trace:
        detail["setupProbes_s"] = setups
    print(json.dumps({"detail": detail}))
    print(json.dumps({
        "correct": failed == 0,
        "attempted": attempted,
        "failed": failed,
        "metrics": metrics,
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
