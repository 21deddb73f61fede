"""critfact command line: profile, global, enumerate, generate, verify, explore.

Exit codes: 0 success (and verify PASS), 1 verify FAIL, 2 usage or
resource errors.  ``--json`` emits a single well-formed document per
invocation; ``--csv`` is available for profiles; default output is a
short plain rendering.  ``--out PATH`` redirects the document to a file.

Each command's handler is set on its parser: ``set_defaults`` gives every
leaf command its verb's ``_cmd_*`` as ``handler`` and the family, suite or
search that handler runs, and ``run`` calls the handler it parsed.
"""

from __future__ import annotations

import argparse
import json
import sys

from .config import Limits
from .errors import CritfactError
from .periods import (
    critical_interval,
    is_unimodal,
    profile,
    profile_csv_rows,
    profile_json_dict,
)
from .squarefree import _counts_by_length, _orbit_words, is_square_free
from .thue import (
    alpha_n,
    beta_family,
    beta_n,
    construct_wx,
    m_n,
    m_prefix,
    tau_iter,
    x_n,
)
from .verify import (
    _UNIVERSE,
    TheoremId,
    VerifyOptions,
    explore_problem1,
    explore_problem2,
    verify,
    verify_alpha_extremal,
    verify_beta_eta,
    verify_wx_density,
)
from .words import TERNARY, global_period, parse_word

_CONSOLE_CE_LIMIT = 10


def _emit(args, text: str) -> None:
    if args.out:
        with open(args.out, "w", encoding="utf-8") as fh:
            fh.write(text)
            if not text.endswith("\n"):
                fh.write("\n")
    else:
        print(text)


def _profile_plain(prof) -> str:
    lines = [
        f"word          {prof.word}",
        f"length        {len(prof.word)}",
        f"period        {prof.period}",
        f"localPeriods  {' '.join(str(v) for v in prof.local_periods)}",
        f"critical      {' '.join(str(p) for p in prof.critical_points)}",
        f"eta           {prof.eta}",
        f"density       {prof.eta}/{len(prof.word) - 1}",
        f"midpoint      {prof.midpoint}",
        f"unimodal      {is_unimodal(prof)}",
        f"interval      {critical_interval(prof)}",
    ]
    return "\n".join(lines)


def _profile_csv(profs) -> str:
    header = "p,localPeriod,u,leftOverflow,rightOverflow,critical"
    many = len(profs) > 1
    if many:
        header = "word," + header
    lines = [header]
    for prof in profs:
        for row in profile_csv_rows(prof):
            cells = [str(row[0]), str(row[1]), row[2]] + [
                "true" if b else "false" for b in row[3:]
            ]
            if many:
                cells.insert(0, prof.word)
            lines.append(",".join(cells))
    return "\n".join(lines)


def _cmd_profile(args) -> int:
    if args.json and args.csv:
        raise CritfactError("profile takes --json or --csv, not both")
    words = []
    if args.file:
        try:
            with open(args.file, encoding="utf-8") as fh:
                for lineno, line in enumerate(fh, start=1):
                    w = line.rstrip("\n")
                    if not w:
                        raise CritfactError(f"{args.file}:{lineno}: empty word")
                    words.append(parse_word(w))
        except UnicodeDecodeError as exc:
            raise CritfactError(f"{args.file}: {exc}") from None
        if not words:
            raise CritfactError(f"{args.file}: no words")
    elif args.word is not None:
        words.append(parse_word(args.word))
    else:
        raise CritfactError("profile needs a WORD argument or --file PATH")
    profs = [profile(w) for w in words]
    if args.json:
        docs = [profile_json_dict(p) for p in profs]
        _emit(args, json.dumps(docs[0] if len(docs) == 1 else docs, indent=2))
    elif args.csv:
        _emit(args, _profile_csv(profs))
    else:
        _emit(args, "\n\n".join(_profile_plain(p) for p in profs))
    return 0


def _cmd_global(args) -> int:
    w = parse_word(args.word)
    per = global_period(w)
    if args.json:
        doc = {"word": w, "period": per, "unbordered": per == len(w)}
        _emit(args, json.dumps(doc, indent=2))
    else:
        _emit(args, str(per))
    return 0


def _cmd_enumerate(args) -> int:
    counts, groups = _counts_by_length(args.n, TERNARY)  # both ceilings hold before the listing
    words = None if args.count_only else _orbit_words(groups, TERNARY)
    if args.json:
        doc: dict = {"n": args.n, "count": counts[-1]}
        if words is not None:
            doc["words"] = words
        _emit(args, json.dumps(doc, indent=2))
    else:
        _emit(args, str(counts[-1]) if words is None else "\n".join(words))
    return 0


def _cmd_generate(args) -> int:
    words, params = args.family_words(args)
    if args.json:
        if len(words) == 1:
            w = words[0]
            doc: dict = {
                "family": args.family,
                "params": params,
                "length": len(w),
                "squareFree": is_square_free(w),
                "word": w,
            }
        else:
            doc = {
                "family": args.family,
                "params": params,
                "words": [
                    {"word": w, "length": len(w), "squareFree": is_square_free(w)}
                    for w in words
                ],
            }
        _emit(args, json.dumps(doc, indent=2))
    else:
        _emit(args, "\n".join(words))
    return 0


def _report_plain(report) -> str:
    lines = [
        f"theorem  {report.theorem}",
        f"range    {json.dumps(report.range)}",
        f"tested   {report.tested}",
        f"verdict  {report.verdict}",
    ]
    ces = report.counterexamples
    for w, detail in ces[:_CONSOLE_CE_LIMIT]:
        lines.append(f"  counterexample {w}: {detail}")
    if len(ces) > _CONSOLE_CE_LIMIT:
        lines.append(f"  ... {len(ces) - _CONSOLE_CE_LIMIT} more")
    return "\n".join(lines)


def _verify_range(args):
    """The report of a range theorem over ``--min``..``--max``."""
    if args.min_len is None or args.max_len is None:
        raise CritfactError(f"verify {args.theorem} needs --min and --max")
    opts = VerifyOptions(alphabet=args.alphabet, jobs=args.jobs)
    return verify(args.theorem, args.min_len, args.max_len, opts)


def _cmd_verify(args) -> int:
    report = args.suite(args)
    if args.json:
        _emit(args, json.dumps(report.to_json_dict(), indent=2))
    else:
        _emit(args, _report_plain(report))
    return 0 if report.verdict == "PASS" else 1


def _cmd_explore(args) -> int:
    doc = args.search(args)
    if args.json:
        _emit(args, json.dumps(doc, indent=2))
    else:
        lines = [f"problem  {doc['problem']}"]
        if "note" in doc:
            lines.append(f"note     {doc['note']}")
        for row in doc["lengths"]:
            lines.append("  " + json.dumps(row))
        _emit(args, "\n".join(lines))
    return 0


def build_parser() -> argparse.ArgumentParser:
    output = argparse.ArgumentParser(add_help=False)
    output.add_argument("--json", action="store_true", help="emit one JSON document")
    output.add_argument("--out", metavar="PATH", help="write output to a file")
    span = argparse.ArgumentParser(add_help=False, parents=[output])
    span.add_argument("--min", type=int, dest="min_len")
    span.add_argument("--max", type=int, dest="max_len")
    span.add_argument("--alphabet", default="012")
    span.add_argument("--jobs", type=int, default=1, metavar="K", help="worker processes")

    top = argparse.ArgumentParser(prog="critfact",
                                  description="critical factorisation toolkit")
    sub = top.add_subparsers(dest="verb", required=True)

    p = sub.add_parser("profile", parents=[output], help="period profile of words")
    p.add_argument("word", nargs="?", help="word as a digit string")
    p.add_argument("--file", metavar="PATH", help="read one word per line")
    p.add_argument("--csv", action="store_true", help="emit CSV")
    p.set_defaults(handler=_cmd_profile)

    g = sub.add_parser("global", parents=[output], help="global period of a word")
    g.add_argument("word")
    g.set_defaults(handler=_cmd_global)

    e = sub.add_parser("enumerate", parents=[output],
                       help="square-free ternary words of one length")
    e.add_argument("--n", type=int, required=True)
    e.add_argument("--count-only", action="store_true")
    e.set_defaults(handler=_cmd_enumerate)

    # each family: (words, params) from the parsed arguments
    gen = sub.add_parser("generate", help="generated word families")
    gen.set_defaults(handler=_cmd_generate)
    gsub = gen.add_subparsers(dest="family", required=True)
    fam = gsub.add_parser("m-prefix", parents=[output])
    fam.add_argument("--len", type=int, required=True, dest="length")
    fam.set_defaults(family_words=lambda a: ([m_prefix(a.length)], {"len": a.length}))
    for name, word in (("tau", lambda n: tau_iter("0", n)), ("mn", m_n), ("alpha", alpha_n),
                       ("beta", beta_n), ("wx", lambda n: construct_wx(x_n(n)))):
        fam = gsub.add_parser(name, parents=[output])
        fam.add_argument("--n", type=int, required=True)
        fam.set_defaults(family_words=lambda a, word=word: ([word(a.n)], {"n": a.n}))
    fam = gsub.add_parser("wx-of", parents=[output])
    fam.add_argument("--x", required=True)
    fam.set_defaults(family_words=lambda a: ([construct_wx(parse_word(a.x))], {"x": a.x}))
    fam = gsub.add_parser("beta-family", parents=[output])
    fam.add_argument("--count", type=int, required=True)
    fam.add_argument("--bound", type=int, required=True)
    fam.set_defaults(family_words=lambda a: (beta_family(a.count, a.bound),
                                             {"count": a.count, "bound": a.bound}))

    # each theorem: its report from the parsed arguments
    v = sub.add_parser("verify", help="run a verification suite")
    v.set_defaults(handler=_cmd_verify)
    vsub = v.add_subparsers(dest="theorem", required=True)
    for tid in TheoremId:
        if tid in _UNIVERSE:
            vsub.add_parser(tid.value, parents=[span]).set_defaults(suite=_verify_range)
    t = vsub.add_parser("alpha-extremal", parents=[output])
    t.set_defaults(suite=lambda a: verify_alpha_extremal())
    t = vsub.add_parser("beta-eta", parents=[output])
    t.add_argument("--count", type=int, default=3, help="family size")
    t.add_argument("--bound", type=int, default=10000, help="search bound")
    t.set_defaults(suite=lambda a: verify_beta_eta(a.count, a.bound))
    t = vsub.add_parser("wx-density", parents=[output])
    t.add_argument("--n", type=int, default=4, help="largest n")
    t.set_defaults(suite=lambda a: verify_wx_density(a.n))

    x = sub.add_parser("explore", help="open-problem searches")
    x.set_defaults(handler=_cmd_explore)
    xsub = x.add_subparsers(dest="problem", required=True)
    q = xsub.add_parser("problem1", parents=[output])
    q.add_argument("--min", type=int, dest="min_len", default=1)
    q.add_argument("--max", type=int, dest="max_len", required=True)
    q.set_defaults(search=lambda a: explore_problem1(a.min_len, a.max_len))
    q = xsub.add_parser("problem2", parents=[output])
    q.add_argument("--max", type=int, dest="max_len", required=True)
    q.set_defaults(search=lambda a: explore_problem2(a.max_len))
    return top


def run(argv: list[str] | None = None) -> int:
    parser = build_parser()
    try:
        args = parser.parse_args(argv)
    except SystemExit as exc:
        return 2 if exc.code not in (0, None) else 0
    try:
        Limits.from_env()  # a bad CRITFACT_* value fails every command alike
        return args.handler(args)
    except (CritfactError, OSError) as exc:
        print(f"critfact: error: {exc}", file=sys.stderr)
        return 2


def main() -> None:
    sys.exit(run())


if __name__ == "__main__":
    main()
