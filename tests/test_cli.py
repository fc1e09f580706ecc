"""Command-line behavior: exit codes, formats, and output shapes."""
import os
import subprocess
import sys
from pathlib import Path

import pytest

from becr import FormalContext, serialize_cxt
from becr.cli import EXIT_GUARD, EXIT_OK, EXIT_PARSE, EXIT_USAGE, main
from conftest import DATA

TOY = str(DATA / "toy.cxt")


def test_concepts_stats_and_csv(capsys):
    assert main(["concepts", TOY]) == EXIT_OK
    captured = capsys.readouterr()
    assert captured.err == "5 8 29 13 0.725\n"
    lines = captured.out.splitlines()
    assert lines[0] == "id,extent,intent"
    assert len(lines) == 14


def test_concepts_stats_on_a_context_without_objects(tmp_path, capsys):
    path = tmp_path / "empty.cxt"
    path.write_text("B\n\n0\n2\n\nm1\nm2\n")
    assert main(["concepts", str(path)]) == EXIT_OK
    assert capsys.readouterr().err == "0 2 0 1 0.000\n"


def test_concepts_output_file(tmp_path, capsys):
    target = tmp_path / "concepts.csv"
    assert main(["concepts", TOY, "--output", str(target)]) == EXIT_OK
    assert capsys.readouterr().out == ""
    assert target.read_text().splitlines()[0] == "id,extent,intent"


def test_missing_file_is_a_parse_failure(capsys):
    assert main(["concepts", str(DATA / "missing.cxt")]) == EXIT_PARSE
    assert capsys.readouterr().err.startswith("becr: cannot read")


def test_undecodable_file_is_a_parse_failure(tmp_path, capsys):
    bad = tmp_path / "bad.cxt"
    bad.write_bytes(b"B\n\n1\n1\n\n\xff\nm\nX\n")
    assert main(["concepts", str(bad)]) == EXIT_PARSE
    err = capsys.readouterr().err
    assert err.startswith(f"becr: cannot read {bad}: ")
    assert "can't decode byte 0xff" in err


def test_malformed_file_is_a_parse_failure(tmp_path, capsys):
    bad = tmp_path / "bad.cxt"
    bad.write_text("Z\nnope\n")
    assert main(["concepts", str(bad)]) == EXIT_PARSE
    err = capsys.readouterr().err
    assert err == f"becr: {bad}: first line must be 'B'\n"


def test_unknown_suffix_needs_explicit_format(tmp_path, capsys):
    ctx_file = tmp_path / "toy.dat2"
    ctx_file.write_text(Path(TOY).read_text())
    assert main(["concepts", str(ctx_file)]) == EXIT_USAGE
    assert "pass --format" in capsys.readouterr().err
    assert main(["concepts", str(ctx_file), "--format", "cxt"]) == EXIT_OK


def test_format_autodetection(tmp_path, capsys):
    csv_file = tmp_path / "tiny.csv"
    csv_file.write_text("obj,m1,m2\ng1,1,0\ng2,0,1\n")
    assert main(["concepts", str(csv_file)]) == EXIT_OK
    assert capsys.readouterr().err == "2 2 2 4 0.500\n"

    fimi_file = tmp_path / "tiny.fimi"
    fimi_file.write_text("1 2\n2 3\n")
    assert main(["concepts", str(fimi_file)]) == EXIT_OK
    assert capsys.readouterr().err == "2 3 4 4 0.667\n"


def test_relevance_headers_and_ranking(capsys):
    assert main(["relevance", TOY, "--index", "both"]) == EXIT_OK
    lines = capsys.readouterr().out.splitlines()
    assert lines[0] == ("concept_id,extent_size,intent_size,"
                        "alpha,beta,becr,stability,n_mingen,n_base,n_equiv")
    # ranked by becr descending, id ascending on ties
    assert lines[1].startswith("2,4,2,1.000000")
    assert lines[2].startswith("4,4,3,1.000000")
    assert "3,3,3,0.333333,0.666667,0.500000,0.375000,2,1,0" in lines
    assert len(lines) == 14

    assert main(["relevance", TOY]) == EXIT_OK
    becr_only = capsys.readouterr().out.splitlines()
    assert becr_only[0] == ("concept_id,extent_size,intent_size,"
                            "alpha,beta,becr,n_mingen,n_base,n_equiv")

    assert main(["relevance", TOY, "--index", "stability"]) == EXIT_OK
    stab_only = capsys.readouterr().out.splitlines()
    assert stab_only[0] == "concept_id,extent_size,intent_size,stability"
    assert stab_only[1] == "0,5,0,1.000000"  # the top concept is most stable


def test_relevance_base_rule_flag(capsys):
    assert main(["relevance", TOY, "--base-rule", "literal"]) == EXIT_OK
    lines = capsys.readouterr().out.splitlines()
    # under the non-strict rule every cdg member is base: alpha 1, becr 5/6
    assert "3,3,3,1.000000,0.666667,0.833333,2,3,0" in lines


def test_bench_summary_and_columns(capsys):
    assert main(["bench", TOY, "--no-timing"]) == EXIT_OK
    captured = capsys.readouterr()
    assert captured.err == "xi=0.0254 tau_becr=0 tau_stability=0\n"
    lines = captured.out.splitlines()
    assert lines[0] == ("concept_id,extent_size,intent_size,alpha,beta,becr,"
                        "stability,n_mingen,n_base,n_equiv")
    assert len(lines) == 14


def test_bench_scatter_file(tmp_path, capsys):
    scatter = tmp_path / "scatter.csv"
    assert main(["bench", TOY, "--no-timing",
                 "--scatter", str(scatter)]) == EXIT_OK
    capsys.readouterr()
    assert len(scatter.read_text().splitlines()) == 13


def test_unwritable_output_is_a_usage_error(tmp_path, capsys):
    missing = tmp_path / "missing" / "concepts.csv"
    # detected before the input is read: no stats line, no table on stdout
    for argv, path in (
        (["concepts", TOY, "--output", str(missing)], missing),
        (["bench", TOY, "--no-timing", "--scatter", str(tmp_path)], tmp_path),
        (["generate", "--objects", "2", "--attributes", "2",
          "--density", "1", "--output", str(tmp_path)], tmp_path),
    ):
        assert main(argv) == EXIT_USAGE
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err.startswith(f"becr: cannot write {path}: ")
        assert len(captured.err.splitlines()) == 1


def test_output_check_leaves_an_existing_file_alone(tmp_path, capsys):
    target = tmp_path / "concepts.csv"
    target.write_text("kept\n")
    assert main(["concepts", str(tmp_path / "missing.cxt"),
                 "--output", str(target)]) == EXIT_PARSE
    assert target.read_text() == "kept\n"


def test_bench_timing_columns_present(capsys):
    assert main(["bench", TOY, "--timing-repeats", "1"]) == EXIT_OK
    lines = capsys.readouterr().out.splitlines()
    assert lines[0].endswith(",t_becr_ns,t_stability_ns")


def test_concept_budget_guard_exit(capsys):
    assert main(["concepts", TOY, "--concept-budget", "5"]) == EXIT_GUARD
    assert "raise the budget" in capsys.readouterr().err


def test_intent_guard_exit(tmp_path, capsys):
    wide = FormalContext.from_rows(
        ["g"], [f"m{j}" for j in range(31)], [(1 << 31) - 1])
    path = tmp_path / "wide.cxt"
    path.write_text(serialize_cxt(wide))
    assert main(["relevance", str(path), "--index", "stability"]) == EXIT_GUARD
    assert capsys.readouterr().err.startswith("becr: concept 0:")
    # the becr index alone never computes stability, so its guard cannot trip
    assert main(["relevance", str(path), "--index", "becr"]) == EXIT_OK
    assert capsys.readouterr().out.splitlines()[1].startswith("0,1,31,")


def test_oversized_csv_field_is_a_parse_failure(tmp_path, capsys):
    big = tmp_path / "big.csv"
    big.write_text("obj,m1\ng1," + "1" * 131073 + "\n")
    assert main(["concepts", str(big)]) == EXIT_PARSE
    assert "field larger than field limit" in capsys.readouterr().err


def test_generate_round_trip(capsys):
    assert main(["generate", "--objects", "2", "--attributes", "2",
                 "--density", "1", "--seed", "9"]) == EXIT_OK
    assert capsys.readouterr().out == "B\n\n2\n2\n\ng1\ng2\nm1\nm2\nXX\nXX\n"


def test_generate_is_deterministic(tmp_path):
    argv = ["generate", "--objects", "6", "--attributes", "4",
            "--density", "0.5", "--seed", "3"]
    a, b = tmp_path / "a.cxt", tmp_path / "b.cxt"
    assert main(argv + ["--output", str(a)]) == EXIT_OK
    assert main(argv + ["--output", str(b)]) == EXIT_OK
    assert a.read_text() == b.read_text()


@pytest.mark.parametrize("argv", [
    [],
    ["concepts"],
    ["concepts", "x.cxt", "--bogus"],
    ["relevance", "x.cxt", "--index", "nope"],
    ["bench", "x.cxt", "--timing-repeats", "-1"],
    ["concepts", "x.cxt", "--concept-budget", "0"],
    ["generate", "--objects", "0", "--attributes", "3", "--density", "0.5"],
    ["generate", "--objects", "3", "--attributes", "3", "--density", "1.5"],
    ["bench", "x.cxt", "--timing-repeats", "0"],
])
def test_usage_errors_exit_1(argv, capsys):
    with pytest.raises(SystemExit) as info:
        main(argv)
    assert info.value.code == EXIT_USAGE
    # the subcommand's own parser reports the error, with its usage line
    usage = f"usage: becr {argv[0]} " if argv else "usage: becr [-h] "
    assert capsys.readouterr().err.startswith(usage)


def test_range_error_keeps_the_no_timing_hint(capsys):
    with pytest.raises(SystemExit):
        main(["bench", "x.cxt", "--timing-repeats", "0"])
    assert capsys.readouterr().err.endswith(
        "becr bench: error: argument --timing-repeats: must be >= 1; "
        "pass --no-timing to skip timing\n")


def test_module_entry_point():
    env = dict(os.environ)
    src = str(Path(__file__).resolve().parent.parent / "src")
    env["PYTHONPATH"] = src + os.pathsep + env.get("PYTHONPATH", "")
    proc = subprocess.run(
        [sys.executable, "-m", "becr", "concepts", TOY],
        capture_output=True, text=True, env=env,
    )
    assert proc.returncode == 0
    assert proc.stderr.strip() == "5 8 29 13 0.725"
    assert proc.stdout.splitlines()[0] == "id,extent,intent"
