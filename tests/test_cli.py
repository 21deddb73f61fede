import argparse
import hashlib
import importlib
import json
import time

import pytest

from critfact import cli as cli_module
from critfact.cli import build_parser, run
from critfact.periods import profile, profile_json_dict
from critfact.squarefree import square_free_words
from critfact.verify import TheoremId

# the module, which the package's ``verify`` function shadows
verify_module = importlib.import_module("critfact.verify")


def run_json(capsys, argv):
    code = run(argv)
    out = capsys.readouterr().out
    return code, json.loads(out)


def test_profile_json_example2(capsys):
    code, doc = run_json(capsys, ["profile", "01020120210201021", "--json"])
    assert code == 0
    assert doc["eta"] == 9
    assert doc["criticalPoints"] == list(range(5, 14))
    assert doc["period"] == 17


def test_profile_json_round_trip(capsys):
    w = "0120201202021021021"
    code, doc = run_json(capsys, ["profile", w, "--json"])
    assert code == 0
    assert doc == profile_json_dict(profile(w))


def test_profile_plain(capsys):
    assert run(["profile", "010"]) == 0
    out = capsys.readouterr().out
    assert "period        2" in out
    assert "localPeriods  2 2" in out


def test_profile_csv(capsys):
    assert run(["profile", "0102", "--csv"]) == 0
    lines = capsys.readouterr().out.strip().splitlines()
    assert lines[0] == "p,localPeriod,u,leftOverflow,rightOverflow,critical"
    assert lines[1] == "1,2,10,true,false,false"
    assert len(lines) == 4


def test_profile_file_batch(capsys, tmp_path):
    path = tmp_path / "words.txt"
    path.write_text("010\n0102\n")
    code, doc = run_json(capsys, ["profile", "--file", str(path), "--json"])
    assert code == 0
    assert [d["word"] for d in doc] == ["010", "0102"]


def test_profile_rejects_bad_letters(capsys):
    assert run(["profile", "01a0"]) == 2
    err = capsys.readouterr().err
    assert "index 3" in err


def test_profile_rejects_blank_line(capsys, tmp_path):
    path = tmp_path / "words.txt"
    path.write_text("010\n\n012\n")
    assert run(["profile", "--file", str(path)]) == 2
    assert ":2: empty word" in capsys.readouterr().err


def test_profile_rejects_a_file_that_is_not_utf8(capsys, tmp_path):
    path = tmp_path / "words.bin"
    path.write_bytes(b"\xff\xfe01\n")
    assert run(["profile", "--file", str(path)]) == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err == (
        f"critfact: error: {path}: 'utf-8' codec can't decode byte 0xff"
        " in position 0: invalid start byte\n"
    )


def test_profile_csv_of_two_words_names_each_word(capsys, tmp_path):
    path = tmp_path / "words.txt"
    path.write_text("010\n12\n")
    assert run(["profile", "--file", str(path), "--csv"]) == 0
    assert capsys.readouterr().out == (
        "word,p,localPeriod,u,leftOverflow,rightOverflow,critical\n"
        "010,1,2,10,true,false,true\n"
        "010,2,2,01,false,true,true\n"
        "12,1,2,21,true,true,true\n"
    )


def test_profile_takes_json_or_csv_not_both(capsys):
    assert run(["profile", "0120", "--csv", "--json"]) == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err == "critfact: error: profile takes --json or --csv, not both\n"


def test_profile_takes_a_word_or_a_file_not_both(capsys, tmp_path):
    path = tmp_path / "words.txt"
    path.write_text("0102\n")
    assert run(["profile", "012", "--file", str(path)]) == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err == "critfact: error: profile takes a WORD or --file, not both\n"


def test_profile_needs_a_word_or_a_file(capsys):
    assert run(["profile"]) == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err == "critfact: error: profile needs a WORD argument or --file PATH\n"


@pytest.mark.parametrize("flags", [[], ["--json"], ["--csv"]])
def test_profile_rejects_an_empty_file(capsys, tmp_path, flags):
    path = tmp_path / "words.txt"
    path.write_text("")
    assert run(["profile", "--file", str(path), *flags]) == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err == f"critfact: error: {path}: no words\n"


def test_global_verb(capsys):
    assert run(["global", "0120201202021021021"]) == 0
    assert capsys.readouterr().out.strip() == "19"
    code, doc = run_json(capsys, ["global", "010", "--json"])
    assert code == 0
    assert doc == {"word": "010", "period": 2, "unbordered": False}


def test_enumerate_counts(capsys):
    assert run(["enumerate", "--n", "3", "--count-only"]) == 0
    assert capsys.readouterr().out.strip() == "12"
    code, doc = run_json(capsys, ["enumerate", "--n", "2", "--json"])
    assert doc == {"n": 2, "count": 6, "words": ["01", "02", "10", "12", "20", "21"]}
    # the listing grown length by length keeps the depth-first walk's order
    assert run(["enumerate", "--n", "9"]) == 0
    assert capsys.readouterr().out == "\n".join(square_free_words(9)) + "\n"


@pytest.mark.parametrize(
    "args, digest",
    [
        (["--json"], "cacd5879ea3964ccfc73eb992125b343849e90997b4d32efd78b64c7a1c52fcc"),
        ([], "93466ccfbad88475c82c90270b0e0fa6fa17557ac6638f0b7d23ac99b242f630"),
    ],
)
def test_enumerate_listing_is_pinned(capsys, args, digest):
    assert run(["enumerate", "--n", "22", *args]) == 0
    out = capsys.readouterr().out
    assert hashlib.sha256(out.encode()).hexdigest() == digest


def test_enumerate_count_only_lists_no_word(capsys, monkeypatch):
    def refuse(groups, alphabet):
        raise AssertionError("--count-only expanded the orbits")

    monkeypatch.setattr(cli_module, "_orbit_words", refuse)
    assert run(["enumerate", "--n", "20", "--count-only"]) == 0
    assert capsys.readouterr().out == "2388\n"
    code, doc = run_json(capsys, ["enumerate", "--n", "20", "--count-only", "--json"])
    assert code == 0 and doc == {"n": 20, "count": 2388}


def test_enumerate_ceiling(capsys, monkeypatch):
    monkeypatch.setenv("CRITFACT_MAX_WORDS", "10")
    assert run(["enumerate", "--n", "10", "--count-only"]) == 2


def test_generate_wx(capsys):
    assert run(["generate", "wx", "--n", "1"]) == 0
    word = capsys.readouterr().out.strip()
    assert len(word) == 44


def test_generate_json_sidecar(capsys):
    code, doc = run_json(capsys, ["generate", "m-prefix", "--len", "6", "--json"])
    assert doc == {
        "family": "m-prefix",
        "params": {"len": 6},
        "length": 6,
        "squareFree": True,
        "word": "012021",
    }


def test_generate_beta_family(capsys):
    code, doc = run_json(
        capsys, ["generate", "beta-family", "--count", "2", "--bound", "10000", "--json"]
    )
    assert code == 0
    assert len(doc["words"]) == 2
    assert all(entry["squareFree"] for entry in doc["words"])


def test_generate_wx_of(capsys):
    assert run(["generate", "wx-of", "--x", "0"]) == 0
    assert capsys.readouterr().out.strip() == "000201000200"


def test_verify_exit_codes(capsys):
    assert run(["verify", "lower-bound", "--min", "2", "--max", "9"]) == 0
    capsys.readouterr()
    assert run(["verify", "midpoint", "--min", "9", "--max", "2"]) == 2
    capsys.readouterr()
    assert run(["verify", "nonsense", "--min", "2", "--max", "4"]) == 2


def test_verify_needs_range(capsys):
    assert run(["verify", "midpoint"]) == 2
    assert "needs --min and --max" in capsys.readouterr().err


def _commands(parser):
    """The subcommand parsers of ``parser`` by name."""
    (action,) = [a for a in parser._actions if isinstance(a, argparse._SubParsersAction)]
    return action.choices


def test_verify_commands_are_the_theorems():
    verify_commands = _commands(_commands(build_parser())["verify"])
    assert set(verify_commands) == {t.value for t in TheoremId}


@pytest.mark.parametrize("tid", list(verify_module._RANGE_SUITES))
def test_each_range_theorem_runs_and_reports_itself(capsys, tid):
    lo, hi = ("26", "26") if tid is TheoremId.UPPER_BOUND else ("2", "6")
    code, doc = run_json(capsys, ["verify", tid.value, "--min", lo, "--max", hi, "--json"])
    assert code == 0
    assert doc["theorem"] == tid.value
    assert doc["tested"] > 0
    assert doc["range"]["universe"] == verify_module._RANGE_SUITES[tid][0]


@pytest.mark.parametrize("tid", [t for t in TheoremId if t not in verify_module._RANGE_SUITES])
def test_family_suites_take_no_range(capsys, tid):
    assert run(["verify", tid.value, "--min", "2"]) == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert "unrecognized arguments: --min 2" in captured.err


def test_verify_json_report(capsys):
    code, doc = run_json(capsys, ["verify", "cft", "--min", "2", "--max", "6", "--json"])
    assert code == 0
    assert doc["verdict"] == "PASS"
    assert doc["counterexamples"] == []
    assert doc["range"] == {"minLen": 2, "maxLen": 6, "universe": "all", "alphabet": "012"}


def test_verify_alpha_extremal_cli(capsys):
    code, doc = run_json(capsys, ["verify", "alpha-extremal", "--json"])
    assert code == 0 and doc["verdict"] == "PASS"


def test_verify_jobs_deterministic(capsys):
    code, d1 = run_json(capsys, ["verify", "unimodal", "--min", "2", "--max", "11", "--json"])
    code, d2 = run_json(
        capsys,
        ["verify", "unimodal", "--min", "2", "--max", "11", "--jobs", "3", "--json"],
    )
    d1.pop("elapsedMs"), d2.pop("elapsedMs")
    assert d1 == d2


@pytest.mark.parametrize(
    "argv",
    [
        ["verify", "cft", "--min", "2", "--max", "4", "--alphabet", "00"],
        ["verify", "cft", "--min", "2", "--max", "4", "--alphabet", ""],
        ["verify", "midpoint", "--min", "2", "--max", "4", "--jobs", "0"],
        ["verify", "midpoint", "--min", "2", "--max", "4", "--jobs", "-3"],
        ["enumerate", "--n", "-1"],
        ["explore", "problem2", "--max", "3"],
    ],
)
def test_bad_input_exits_2(capsys, argv):
    assert run(argv) == 2
    assert "critfact: error:" in capsys.readouterr().err


def test_explore_cli(capsys):
    code, doc = run_json(capsys, ["explore", "problem1", "--min", "1", "--max", "3", "--json"])
    assert code == 0
    assert doc["problem"] == "problem1"
    assert [r["witness"] for r in doc["lengths"]] == [None, None, None]


def test_explore_plain_output(capsys):
    assert run(["explore", "problem1", "--max", "3"]) == 0
    assert capsys.readouterr().out == (
        "problem  problem1\n"
        "note     searching square-free x for which 0x02x10x02x0 is square-free;"
        " reported per length within the searched range only\n"
        '  {"length": 1, "witness": null, "searched": 3}\n'
        '  {"length": 2, "witness": null, "searched": 6}\n'
        '  {"length": 3, "witness": null, "searched": 12}\n'
    )
    assert run(["explore", "problem2", "--max", "8"]) == 0
    assert capsys.readouterr().out == (
        "problem  problem2\n"
        '  {"length": 4, "minExcess": 1, "witnesses": [], "tested": 18}\n'
        '  {"length": 8, "minExcess": 1, "witnesses": [], "tested": 78}\n'
    )


def test_verify_plain_output_lists_ten_counterexamples(capsys, monkeypatch):
    monkeypatch.setattr(verify_module, "_is_unimodal", lambda lp, mid: False)
    assert run(["verify", "unimodal", "--min", "2", "--max", "3"]) == 1
    assert capsys.readouterr().out == (
        "theorem  unimodal\n"
        'range    {"minLen": 2, "maxLen": 3, "universe": "square-free", "alphabet": "012"}\n'
        "tested   18\n"
        "verdict  FAIL\n"
        "  counterexample 01: local periods not unimodal: [2]\n"
        "  counterexample 010: local periods not unimodal: [2, 2]\n"
        "  counterexample 012: local periods not unimodal: [3, 3]\n"
        "  counterexample 02: local periods not unimodal: [2]\n"
        "  counterexample 020: local periods not unimodal: [2, 2]\n"
        "  counterexample 021: local periods not unimodal: [3, 3]\n"
        "  counterexample 10: local periods not unimodal: [2]\n"
        "  counterexample 101: local periods not unimodal: [2, 2]\n"
        "  counterexample 102: local periods not unimodal: [3, 3]\n"
        "  counterexample 12: local periods not unimodal: [2]\n"
        "  ... 8 more\n"
    )


def test_out_file(capsys, tmp_path):
    path = tmp_path / "report.json"
    assert run(["global", "012", "--json", "--out", str(path)]) == 0
    doc = json.loads(path.read_text())
    assert doc["period"] == 3


def test_usage_error_exit_code(capsys):
    assert run(["frobnicate"]) == 2
    assert run([]) == 2


@pytest.mark.parametrize(
    "argv",
    [
        "global 010 --jobs 2",
        "profile 0102 --max-words 5",
        "enumerate --n 3 --jobs 2",
        "verify cft --min 2 --max 3 --csv",
        "verify beta-eta --min 2",
        "verify alpha-extremal --jobs 2",
        "verify midpoint --min 2 --max 3 --count 3",
        "explore problem2 --max 4 --min 2",
        "generate --json m-prefix --len 6",
        "enumerate --n 3 --max-words 5",
        "verify cft --min 2 --max 3 --max-words 9",
        "explore problem2 --max 8 --max-words 9",
    ],
)
def test_flags_a_command_does_not_read_exit_2(capsys, argv):
    assert run(argv.split()) == 2
    assert capsys.readouterr().out == ""


@pytest.mark.parametrize(
    "family, args, params",
    [
        ("m-prefix", ["--len", "6"], {"len": 6}),
        ("tau", ["--n", "2"], {"n": 2}),
        ("mn", ["--n", "1"], {"n": 1}),
        ("alpha", ["--n", "1"], {"n": 1}),
        ("beta", ["--n", "1"], {"n": 1}),
        ("wx", ["--n", "1"], {"n": 1}),
        ("wx-of", ["--x", "120102012"], {"x": "120102012"}),
        ("beta-family", ["--count", "2", "--bound", "10000"], {"count": 2, "bound": 10000}),
    ],
)
def test_generate_families_honour_json_and_out(capsys, tmp_path, family, args, params):
    path = tmp_path / "family.json"
    assert run(["generate", family, *args, "--json", "--out", str(path)]) == 0
    assert capsys.readouterr().out == ""
    doc = json.loads(path.read_text())
    assert (doc["family"], doc["params"]) == (family, params)


@pytest.mark.parametrize(
    "max_len, digest",
    [
        ("20", "0b761298fdf9b65ffbfb1fdce105707531d06cb8f2e961a840c151abeea03a29"),
        ("24", "c76b4d94f4cab4552574136f581c977e80a2e94ec91308e5a679b5cd0a1ca698"),
    ],
)
def test_problem2_document_is_pinned(capsys, max_len, digest):
    assert run(["explore", "problem2", "--max", max_len, "--json"]) == 0
    out = capsys.readouterr().out
    assert hashlib.sha256(out.encode()).hexdigest() == digest


@pytest.mark.parametrize("max_len", ["10000", "3000000"])
def test_all_word_ranges_past_the_ceiling_exit_2_at_once(capsys, max_len):
    start = time.perf_counter()
    assert run(["verify", "cft", "--min", "2", "--max", max_len]) == 2
    assert time.perf_counter() - start < 1
    # 3^0 + ... + 3^13 words of lengths 0..13 pass the ceiling
    assert capsys.readouterr().err == (
        "critfact: error: at least 2391484 words to grow exceed the ceiling 1000000\n"
    )


def test_one_letter_ranges_past_the_profile_ceiling_exit_2_at_once(capsys):
    # lengths 0..999999 hold 10^6 one-letter words, the word ceiling
    start = time.perf_counter()
    assert run(["verify", "cft", "--min", "2", "--max", "999999", "--alphabet", "0"]) == 2
    assert time.perf_counter() - start < 5
    assert capsys.readouterr().err == (
        "critfact: error: max length 999999 exceeds the profile ceiling 5000\n"
    )
    assert run(["verify", "cft", "--min", "2", "--max", "1000000", "--alphabet", "0"]) == 2
    assert capsys.readouterr().err == (
        "critfact: error: at least 1000001 words to grow exceed the ceiling 1000000\n"
    )


def test_one_letter_ranges_past_any_word_ceiling_exit_2_at_once(capsys, monkeypatch):
    # one word per length, held in one call rather than one per length
    monkeypatch.setenv("CRITFACT_MAX_WORDS", "10000000")
    start = time.perf_counter()
    assert run(["verify", "cft", "--min", "2", "--max", "10000000", "--alphabet", "0"]) == 2
    assert time.perf_counter() - start < 1
    assert capsys.readouterr().err == (
        "critfact: error: at least 10000001 words to grow exceed the ceiling 10000000\n"
    )


@pytest.mark.parametrize(
    "argv, universe",
    [
        (["verify", "midpoint", "--min", "5", "--max", "6", "--alphabet", "01"],
         "square-free universe over '01' holds no word of length 5"),
        (["verify", "no-overlap", "--min", "2", "--max", "4", "--alphabet", "0"],
         "square-free universe over '0' holds no word of length 2"),
    ],
)
def test_empty_universes_exit_2(capsys, argv, universe):
    assert run(argv) == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err == f"critfact: error: the {universe}\n"


def test_enumeration_past_the_profile_ceiling_exits_2_at_once(capsys):
    start = time.perf_counter()
    assert run(["enumerate", "--n", "100000", "--count-only"]) == 2
    assert time.perf_counter() - start < 1
    assert capsys.readouterr().err == (
        "critfact: error: max length 100000 exceeds the profile ceiling 5000\n"
    )


def test_a_limit_too_long_to_convert_exits_2_on_one_line(capsys, monkeypatch):
    monkeypatch.setenv("CRITFACT_MAX_WORDS", "9" * 5000)
    assert run(["enumerate", "--n", "2"]) == 2
    assert capsys.readouterr().err == (
        "critfact: error: CRITFACT_MAX_WORDS must be a positive integer,"
        " got a 5000-digit value too long to convert\n"
    )


def test_generate_tau_keeps_the_prefix_ceiling(capsys, monkeypatch):
    monkeypatch.setenv("CRITFACT_MAX_PREFIX_LEN", "1000")
    assert run(["generate", "tau", "--n", "12"]) == 2
    assert capsys.readouterr().err == (
        "critfact: error: |tau^12(0)| exceeds the prefix ceiling 1000\n"
    )
