"""The benchmark's workloads: inputs made from a seed, and the operations
run on them with the checks that gate each result.

Every workload drives critfact from outside, through the package
attributes (``critfact.verify_many``, ``critfact.has_square``, ...) and
``critfact.cli.run``, looked up at call time so that a tracer can wrap
them.  Nothing here changes the package.

An operation is one report, profile, ``has_square`` or generation call.
Its ``call`` is the timed part; its ``inspect`` runs afterwards, outside
the timed region, and returns the documents the call produced (compared
byte for byte with the recorded reference digests) and any problems
found by the independent checks (verdict, ``tested`` count, oracles).
"""

from __future__ import annotations

import contextlib
import hashlib
import importlib
import io
import json
import random
import re
from dataclasses import dataclass
from typing import Callable

import critfact

cli = importlib.import_module("critfact.cli")

# The quadratic reference scan, bound before any tracer wraps the
# package, so checks neither pay for tracing nor show up in its counts.
ORACLE_FIND_SQUARE = critfact.squarefree.find_square

WORKLOADS = ("sf-universe", "all-words", "long-words", "sf-universe-jobs2")

SF_THEOREMS = ("midpoint", "unimodal", "interval", "lower-bound")
ALL_THEOREMS = ("rep-unbordered", "overflow")

# Sizes per scale.  "bench" is what the benchmark measures; "tiny" is for
# the self-test; "roadmap" re-measures the baseline figures quoted in
# ROADMAP.md (one round each, traced).
SCALES = {
    "tiny": {
        "sf_max": 10, "all_max": 5, "binary_max": 8,
        "square_len": 2_000, "profile_len": 200, "wx_n": 2,
        "beta": (3, 10_000), "random": (3, 60), "timeout_s": 30,
    },
    "bench": {
        "sf_max": 19, "all_max": 8, "binary_max": 12,
        "square_len": 20_000, "profile_len": 1_500, "wx_n": 4,
        "beta": (3, 10_000), "random": (12, 150), "timeout_s": 30,
    },
    "roadmap": {
        "sf_max": 25, "all_max": 10, "binary_max": 14,
        "square_len": 100_000, "profile_len": 5_000, "wx_n": 4,
        "beta": (3, 10_000), "random": (4, 300), "timeout_s": 600,
    },
}

# Number of square-free ternary words of length n (OEIS A006156), an
# independent source for the exact ``tested`` counts of the universes.
A006156 = (
    1, 3, 6, 12, 18, 30, 42, 60, 78, 108, 144, 204, 264, 342, 456, 618,
    798, 1044, 1392, 1830, 2388, 3180, 4146, 5418, 7032, 9198, 11892, 15486,
)

_TIMING_FIELD = re.compile(r'\n *"(?:elapsedMs|totalElapsedMs)": -?\d+,?')


def digest(document: str) -> str:
    """SHA-256 of a document with its timing fields removed."""
    return hashlib.sha256(_TIMING_FIELD.sub("", document).encode()).hexdigest()


@dataclass(frozen=True)
class Op:
    """One operation: ``call`` is timed, ``inspect`` checks its result.

    ``inspect(raw)`` returns ``(documents, problems, output_bytes)``.
    ``gated`` says whether the documents must match reference digests
    (random words depend on the seed, so an oracle checks them instead).
    """

    id: str
    call: Callable[[], object]
    inspect: Callable[[object], tuple[list[str], list[str], int]]
    letters: int
    gated: bool = True


def build_inputs(workload: str, seed: int, scale: str = "bench") -> dict:
    """The workload's inputs.  Only the random long-words specs depend on
    ``seed``; everything else is fixed by the scale."""
    if workload not in WORKLOADS:
        raise ValueError(f"unknown workload {workload!r}")
    size = SCALES[scale]
    inputs = {"workload": workload, "scale": scale, "size": size}
    if workload == "long-words":
        count, length = size["random"]
        rng = random.Random(seed)
        inputs["square_word"] = critfact.m_prefix(size["square_len"])
        inputs["profile_word"] = critfact.m_prefix(size["profile_len"])
        inputs["random"] = [(length, rng.getrandbits(64)) for _ in range(count)]
        inputs["wx_letters"] = sum(4 * len(critfact.x_n(n)) + 8 for n in range(1, size["wx_n"] + 1))
        inputs["beta_letters"] = sum(len(w) for w in critfact.beta_family(*size["beta"]))
    return inputs


def run_cli(argv: list[str]) -> tuple[int, str]:
    """``critfact.cli.run`` with its standard output captured."""
    buf = io.StringIO()
    with contextlib.redirect_stdout(buf):
        code = cli.run(argv)
    return code, buf.getvalue()


def _report_text(report) -> str:
    # The same serialisation the CLI prints, so library and CLI documents
    # share reference digests.
    return json.dumps(report.to_json_dict(), indent=2)


def _reports_inspector(expected_tested: int):
    def inspect(reports):
        docs, problems = [], []
        for r in reports:
            docs.append(_report_text(r))
            if r.verdict != "PASS":
                problems.append(f"{r.theorem}: verdict {r.verdict}")
            if r.tested != expected_tested:
                problems.append(f"{r.theorem}: tested {r.tested}, wanted {expected_tested}")
        return docs, problems, 0
    return inspect


def _cli_verify_inspector(expected_tested: int):
    def inspect(raw):
        code, text = raw
        problems = [] if code == 0 else [f"exit code {code}"]
        try:
            doc = json.loads(text)
        except json.JSONDecodeError:
            return [text], problems + ["output is not JSON"], len(text.encode())
        if doc.get("verdict") != "PASS":
            problems.append(f"verdict {doc.get('verdict')}")
        if doc.get("tested") != expected_tested:
            problems.append(f"tested {doc.get('tested')}, wanted {expected_tested}")
        return [text.removesuffix("\n")], problems, len(text.encode())
    return inspect


def _cli_profile_inspect(raw):
    code, text = raw
    problems = [] if code == 0 else [f"exit code {code}"]
    return [text.removesuffix("\n")], problems, len(text.encode())


def _has_square_inspect(found):
    # Every prefix of the fixed point m is square-free.
    return [json.dumps(found)], ([] if found is False else ["square reported in m"]), 0


def _random_inspector(length: int):
    def inspect(w):
        problems = []
        if not isinstance(w, str) or len(w) != length:
            return [], [f"wanted a word of length {length}, got {w!r:.40}"], 0
        if set(w) - set("012"):
            problems.append("letters outside 012")
        sq = ORACLE_FIND_SQUARE(w)
        if sq is not None:
            problems.append(f"square {sq.root!r} at {sq.start}")
        return [], problems, 0
    return inspect


def square_free_total(lo: int, hi: int) -> tuple[int, int]:
    """(words, letters) of the square-free ternary universe lo..hi."""
    return (
        sum(A006156[n] for n in range(lo, hi + 1)),
        sum(n * A006156[n] for n in range(lo, hi + 1)),
    )


def all_words_total(k: int, lo: int, hi: int) -> tuple[int, int]:
    """(words, letters) of every word of length lo..hi over k letters."""
    return (
        sum(k**n for n in range(lo, hi + 1)),
        sum(n * k**n for n in range(lo, hi + 1)),
    )


def make_ops(inputs: dict) -> list[Op]:
    """The operations of one round of the workload, in run order."""
    workload, size = inputs["workload"], inputs["size"]
    T = critfact.TheoremId
    if workload == "sf-universe":
        hi = size["sf_max"]
        words, letters = square_free_total(2, hi)
        ids = [T(t) for t in SF_THEOREMS]
        return [Op(
            f"verify_many[{','.join(SF_THEOREMS)}] 2..{hi}",
            lambda: critfact.verify_many(ids, 2, hi, critfact.VerifyOptions(jobs=1)),
            _reports_inspector(words),
            letters,
        )]
    if workload == "sf-universe-jobs2":
        hi = size["sf_max"]
        words, letters = square_free_total(2, hi)
        return [
            Op(
                f"cli verify {t} 2..{hi} --jobs 2",
                lambda t=t: run_cli(
                    ["verify", t, "--min", "2", "--max", str(hi), "--jobs", "2", "--json"]
                ),
                _cli_verify_inspector(words),
                letters,
            )
            for t in SF_THEOREMS
        ]
    if workload == "all-words":
        hi, bhi = size["all_max"], size["binary_max"]
        words3, letters3 = all_words_total(3, 2, hi)
        words2, letters2 = all_words_total(2, 2, bhi)
        ids = [T(t) for t in ALL_THEOREMS]
        return [
            Op(
                f"verify_many[{','.join(ALL_THEOREMS)}] 2..{hi}",
                lambda: critfact.verify_many(ids, 2, hi, critfact.VerifyOptions(jobs=1)),
                _reports_inspector(words3),
                letters3,
            ),
            Op(
                f"verify cft 2..{hi}",
                lambda: [critfact.verify(T.CFT, 2, hi, critfact.VerifyOptions(jobs=1))],
                _reports_inspector(words3),
                letters3,
            ),
            Op(
                f"verify cft 2..{bhi} alphabet 01",
                lambda: [critfact.verify(T.CFT, 2, bhi, critfact.VerifyOptions(alphabet="01", jobs=1))],
                _reports_inspector(words2),
                letters2,
            ),
        ]
    if workload == "long-words":
        sq, pw = inputs["square_word"], inputs["profile_word"]
        wx_n = size["wx_n"]
        count, bound = size["beta"]
        ops = [
            Op(f"has_square m_prefix({len(sq)})", lambda: critfact.has_square(sq),
               _has_square_inspect, len(sq)),
            Op(f"cli profile m_prefix({len(pw)}) --json",
               lambda: run_cli(["profile", pw, "--json"]), _cli_profile_inspect, len(pw)),
            Op(f"verify_wx_density({wx_n})", lambda: [critfact.verify_wx_density(wx_n)],
               _reports_inspector(wx_n), inputs["wx_letters"]),
            Op(f"verify_beta_eta({count}, {bound})",
               lambda: [critfact.verify_beta_eta(count, bound)], _reports_inspector(count),
               inputs["beta_letters"]),
        ]
        for i, (length, word_seed) in enumerate(inputs["random"]):
            ops.append(Op(
                f"random_square_free #{i}",
                lambda length=length, s=word_seed: critfact.random_square_free(length, random.Random(s)),
                _random_inspector(length),
                length,
                gated=False,
            ))
        return ops
    raise ValueError(f"unknown workload {workload!r}")
