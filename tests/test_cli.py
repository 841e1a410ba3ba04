"""CLI behavior: exit codes, manifests, determinism, command output."""

import hashlib
import json
import os
import random
import re
import subprocess
import sys
from pathlib import Path

import pytest

import sdcodes
import sdcodes.cli as cli
from sdcodes import LinearCode, load_pairs, save_code
from sdcodes.cli import EXIT_INPUT, EXIT_MISMATCH, EXIT_OK, EXIT_RESOURCE, _RowPrinter, main
from sdcodes import tables
from sdcodes.tables import named_code
from sdcodes.wenum import FamilyParams, FamilyTag
from oracles import random_self_dual_words

E8_ROWS = ["11110000", "11001100", "10101010", "11111111"]


def write_code(tmp_path, name, rows):
    path = tmp_path / f"{name}.json"
    save_code(LinearCode.from_strings(rows, name=name), path)
    return path


def read_json(path):
    return json.loads(path.read_text())


def test_solve_shadow_balance_stdout(capsys):
    assert main(["solve-shadow-balance", "165", "-2", "0", "1"]) == EXIT_OK
    body = json.loads(capsys.readouterr().out)
    assert body == {"kind": "unique", "value": "55"}
    assert main(["solve-shadow-balance", "5", "0", "5", "0"]) == EXIT_OK
    assert json.loads(capsys.readouterr().out)["kind"] == "all"
    assert main(["solve-shadow-balance", "0", "1", "1", "1"]) == EXIT_OK
    assert json.loads(capsys.readouterr().out)["kind"] == "none"


def test_analyze_e8_report(tmp_path, capsys):
    path = write_code(tmp_path, "e8", E8_ROWS)
    out = tmp_path / "report.json"
    assert main(["analyze", "--code", str(path), "--out", str(out)]) == EXIT_OK
    report = read_json(out)
    assert report["self_dual"] is True
    assert report["parity"] == "doubly-even"
    assert report["min_weight"] == 4
    assert report["weight_distribution"] == {"0": 1, "4": 14, "8": 1}
    assert report["shadow_distribution"] is None
    manifest = read_json(tmp_path / "report.json.manifest.json")
    assert manifest["command"] == "analyze"
    assert "report.json" in manifest["outputs"]


def test_analyze_degenerate_code_shadow(tmp_path, capsys):
    path = write_code(tmp_path, "tiny", ["11"])
    assert main(["analyze", "--code", str(path)]) == EXIT_OK
    report = json.loads(capsys.readouterr().out)
    assert report["min_weight"] == 2
    assert report["shadow_distribution"] == {"1": 2}


def test_analyze_unknown_spec():
    assert main(["analyze", "--code", "NOPE_99"]) == EXIT_INPUT


def test_bad_usage_is_input_error(capsys):
    assert main(["reproduce", "T9"]) == EXIT_INPUT
    assert main(["frobnicate"]) == EXIT_INPUT


def test_search_bad_congruence_is_input_error(tmp_path):
    out = tmp_path / "p.txt"
    argv = ["search", "--block", "3", "--dmin", "2", "--congruence", "foo", "--out", str(out)]
    assert main(argv) == EXIT_INPUT
    assert not out.exists()


def test_analyze_directory_is_input_error(tmp_path):
    assert main(["analyze", "--code", str(tmp_path)]) == EXIT_INPUT


@pytest.mark.parametrize("argv", [
    ["search", "--block", "5", "--dmin", "4", "--threads", "1"],
    ["neighbors", "--code", "C58_1", "--dmin", "10", "--threads", "1"],
    ["analyze", "--code", "C58_1"],
])
def test_unwritable_out_is_input_error(tmp_path, capsys, monkeypatch, argv):
    # the target is checked before any work: nothing computes, and stderr
    # holds the one error line and no progress
    def no_work(*args, **kwargs):
        raise AssertionError("work started before --out was checked")

    for name in ("search_four_circulant", "extremal_neighbor_survey", "weight_distribution"):
        monkeypatch.setattr(cli, name, no_work)
    for out in (tmp_path / "missing" / "out.txt", tmp_path):
        capsys.readouterr()
        assert main(argv + ["--out", str(out)]) == EXIT_INPUT
        err = capsys.readouterr().err.splitlines()
        assert len(err) == 1 and err[0].startswith("error:")
    assert list(tmp_path.iterdir()) == []


@pytest.mark.parametrize("argv", [
    ["search", "--block", "5", "--dmin", "4"],
    ["neighbors", "--code", "C58_1", "--dmin", "10"],
    ["reproduce", "T1"],
])
def test_threads_below_one_is_input_error(tmp_path, capsys, monkeypatch, argv):
    # refused before any work, and before --out is written
    def no_work(*args, **kwargs):
        raise AssertionError("work started before --threads was checked")

    for name in ("search_four_circulant", "extremal_neighbor_survey", "_reproduce_rows"):
        monkeypatch.setattr(cli, name, no_work)
    out = ["--out", str(tmp_path / "out.txt")] if argv[0] != "reproduce" else []
    for threads in ("0", "-2"):
        capsys.readouterr()
        assert main(argv + ["--threads", threads] + out) == EXIT_INPUT
        err = capsys.readouterr().err.splitlines()
        assert err == [f"error: --threads must be at least 1, got {threads}"]
    assert list(tmp_path.iterdir()) == []


def test_readme_library_example_runs():
    readme = Path(__file__).resolve().parents[1] / "README.md"
    blocks = re.findall(r"```python\n(.*?)```", readme.read_text(encoding="utf-8"), re.S)
    assert len(blocks) == 1
    exec(compile(blocks[0], "README.md", "exec"), {})


def test_analyze_non_utf8_file_is_input_error(tmp_path):
    path = tmp_path / "latin1.json"
    path.write_bytes(b'{"n": 2, "rows": ["11"], "name": "caf\xe9"}')
    assert main(["analyze", "--code", str(path)]) == EXIT_INPUT


@pytest.mark.parametrize("k", ['"x"', "null", "[1]"])
def test_analyze_non_integer_k_is_input_error(tmp_path, k):
    path = tmp_path / "bad_k.json"
    path.write_text('{"n": 2, "k": %s, "rows": ["11"]}' % k)
    assert main(["analyze", "--code", str(path)]) == EXIT_INPUT


def test_classify_non_utf8_file_is_input_error(tmp_path):
    write_code(tmp_path, "good", ["1100", "0011"])
    (tmp_path / "latin1.json").write_bytes(b'{"n": 2, "rows": ["11"], "name": "caf\xe9"}')
    assert main(["classify", "--in", str(tmp_path)]) == EXIT_INPUT


def test_search_block_two_and_rerun_determinism(tmp_path):
    out = tmp_path / "pairs.txt"
    argv = ["search", "--block", "2", "--dmin", "4", "--congruence", "none",
            "--threads", "1", "--out", str(out)]
    assert main(argv) == EXIT_OK
    first = out.read_bytes()
    from sdcodes import SearchRules, search_four_circulant

    expect = search_four_circulant(2, 4, SearchRules(weight_bound=None, congruence=None))
    assert load_pairs(out) == expect
    assert expect
    manifest1 = read_json(tmp_path / "pairs.txt.manifest.json")

    assert main(argv) == EXIT_OK
    assert out.read_bytes() == first
    manifest2 = read_json(tmp_path / "pairs.txt.manifest.json")
    for body in (manifest1, manifest2):
        body.pop("wall_time_s")
    assert manifest1 == manifest2


def test_search_block_budget_gate(tmp_path):
    out = tmp_path / "pairs.txt"
    assert main(["search", "--block", "11", "--dmin", "4", "--out", str(out)]) == EXIT_RESOURCE
    assert not out.exists()


def test_neighbor_command_matches_library(tmp_path, capsys):
    path = write_code(tmp_path, "std4", ["1100", "0011"])
    assert main(["neighbor", "--code", str(path), "--supp", "1,3"]) == EXIT_OK
    body = json.loads(capsys.readouterr().out)
    from sdcodes import neighbor

    expect = neighbor(LinearCode.from_strings(["1100", "0011"]), 0b0101)
    assert body["rows"] == expect.to_json()["rows"]


def test_neighbor_rejects_odd_support(tmp_path):
    path = write_code(tmp_path, "std4", ["1100", "0011"])
    assert main(["neighbor", "--code", str(path), "--supp", "1,2,3"]) == EXIT_INPUT


def test_subtract_named_code_gives_table_row(tmp_path):
    out = tmp_path / "c58.json"
    assert main(["subtract", "--code", "D60_3", "--coords", "2,36",
                 "--out", str(out)]) == EXIT_OK
    body = read_json(out)
    assert body["n"] == 58 and body["k"] == 29
    assert body["rows"] == named_code("C58_1").to_json()["rows"]


def test_subtract_needs_two_coords(tmp_path):
    path = write_code(tmp_path, "e8", E8_ROWS)
    assert main(["subtract", "--code", str(path), "--coords", "1,2,3"]) == EXIT_INPUT


def test_classify_directory(tmp_path, capsys):
    rng = random.Random(41)
    words = random_self_dual_words(rng, 10, steps=4)
    a = LinearCode.from_int_rows(sorted(words), 10, name="a")
    images = list(range(1, 11))
    rng.shuffle(images)
    from sdcodes import permuted_code

    box = tmp_path / "codes"
    box.mkdir()
    save_code(a, box / "a.json")
    save_code(permuted_code(a, images, name="a2"), box / "a2.json")
    save_code(
        LinearCode.from_int_rows(sorted(random_self_dual_words(rng, 10, steps=4)), 10, name="b"),
        box / "b.json",
    )
    assert main(["classify", "--in", str(box)]) == EXIT_OK
    report = json.loads(capsys.readouterr().out)
    members = [set(cl["members"]) for cl in report["classes"]]
    assert sum(len(m) for m in members) == 3
    home = next(m for m in members if "a" in m)
    assert "a2" in home, "a permuted copy must classify with its original"


def test_classify_single_file_single_class(tmp_path, capsys):
    path = write_code(tmp_path, "solo", ["1100", "0011"])
    assert main(["classify", "--in", str(path)]) == EXIT_OK
    report = json.loads(capsys.readouterr().out)
    assert len(report["classes"]) == 1
    assert report["classes"][0]["members"] == ["solo"]


def test_neighbors_survey_small_code(tmp_path, capsys):
    rng = random.Random(42)
    words = random_self_dual_words(rng, 16, steps=5)
    path = write_code(
        tmp_path, "sd16", LinearCode.from_int_rows(sorted(words), 16).to_json()["rows"]
    )
    assert main(["neighbors", "--code", str(path), "--dmin", "4",
                 "--threads", "1"]) == EXIT_OK
    report = json.loads(capsys.readouterr().out)
    assert report["dmin"] == 4
    assert all(len(cl["permutations"]) == len(cl["members"]) for cl in report["classes"])


def test_neighbors_survey_budget(tmp_path):
    rows = ["".join("1" if j in (2 * i, 2 * i + 1) else "0" for j in range(44))
            for i in range(22)]
    path = write_code(tmp_path, "big", rows)
    assert main(["neighbors", "--code", str(path), "--dmin", "8"]) == EXIT_RESOURCE


def test_neighbors_survey_memory_limit(tmp_path, capsys):
    rows = ["".join("1" if j in (2 * i, 2 * i + 1) else "0" for j in range(60))
            for i in range(30)]
    path = write_code(tmp_path, "wide", rows)
    argv = ["neighbors", "--code", str(path), "--dmin", "12", "--extended", "--threads", "1"]
    assert main(argv) == EXIT_RESOURCE
    assert "over the 1024 MiB limit" in capsys.readouterr().err


def test_analyze_dimension_budget(tmp_path, capsys):
    path = tmp_path / "k35.json"
    save_code(LinearCode.from_int_rows([1 << i for i in range(35)], 64), path)
    assert main(["analyze", "--code", str(path)]) == EXIT_RESOURCE
    assert "weight distribution is limited to k <= 34" in capsys.readouterr().err


def test_reproduce_extended_gate():
    assert main(["reproduce", "P3"]) == EXIT_RESOURCE
    assert main(["reproduce", "P5"]) == EXIT_RESOURCE


def test_reproduce_search_table_rows(monkeypatch, capsys):
    # the P3 path on the block-9 search: 972 pairs in 36 orbits, 2 classes at d = 8
    search = cli.search_orbits
    monkeypatch.setattr(cli, "search_orbits", lambda block, d, **kw: search(9, d, **kw))
    monkeypatch.setitem(cli._SEARCH_TABLES, "P3", (8, 2))
    assert main(["reproduce", "P3", "--extended", "--threads", "1"]) == EXIT_OK
    assert capsys.readouterr().out.splitlines() == [
        "P3\tsearch\tpass\t972 pairs",
        "P3\tclasses\tpass\t2 classes, expected 2",
        "P3\tsummary\t2/2",
    ]


def test_reproduce_balance_rows(capsys):
    assert main(["reproduce", "C7"]) == EXIT_OK
    out = capsys.readouterr().out
    assert hashlib.sha256(out.encode()).hexdigest() == (
        "92ced96775489575a6f5dec3ce73a137dadd368ab41b1f42f8775265fe1464b7"
    ), out
    lines = out.strip().splitlines()
    assert lines[0].split("\t")[:3] == ["C7", "solver", "pass"]
    assert lines[-1] == "C7\tsummary\t4/4"


@pytest.mark.parametrize(
    "attr, wrong",
    [
        ("expected_min_weight", 10),
        ("expected_family", FamilyParams(FamilyTag.W60_1, beta=99)),
        ("expected_family", None),
    ],
)
def test_reproduce_row_mismatch_fails_the_row(monkeypatch, capsys, attr, wrong):
    right = getattr(tables, attr)
    monkeypatch.setattr(tables, attr, lambda name: wrong if name == "F60" else right(name))
    assert main(["reproduce", "Tnei2"]) == EXIT_MISMATCH
    lines = capsys.readouterr().out.strip().splitlines()
    failed = [ln.split("\t")[1] for ln in lines if ln.split("\t")[2] == "fail"]
    assert failed == ["F60"]
    assert lines[-1] == "Tnei2\tsummary\t4/5"


def test_row_printer_failure_exit():
    printer = _RowPrinter("X")
    printer.row("good", True)
    printer.row("bad", False, "oops")
    assert printer.finish() == EXIT_MISMATCH


def test_console_entry_point_subprocess():
    # the child imports the same package as this process, installed or not
    src = str(Path(sdcodes.__file__).resolve().parents[1])
    path = os.pathsep.join(filter(None, [src, os.environ.get("PYTHONPATH")]))
    proc = subprocess.run(
        [sys.executable, "-m", "sdcodes", "solve-shadow-balance", "165", "-2", "0", "1"],
        capture_output=True,
        text=True,
        env=dict(os.environ, PYTHONPATH=path),
    )
    assert proc.returncode == 0
    assert json.loads(proc.stdout)["value"] == "55"
