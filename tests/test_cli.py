import dataclasses
import hashlib
import json
import random
import subprocess
import sys
import time
from pathlib import Path

import pytest

from conftest import CORPUS_SEED, CORPUS_SIZE, brute_count, corpus_draws, mk_sets, removal_oracle, subprocess_env
from linrem import cli, hrep
from linrem.cli import _build, build_parser, main
from linrem.errors import InputError
from linrem.linsys import format_system, normalize, parse_system
from linrem.hrep import copies_for_solution, export_host, parse_host_export
from linrem.solutions import iter_solutions

TRIANGLE = "systems/triangle.sys"
AP4 = "systems/ap4.sys"
PINNED = "systems/pinned.sys"
FOLD = "systems/fold.sys"
REDUCIBLE = "systems/reducible.sys"
SYSTEMS = Path(__file__).resolve().parent.parent / "systems"
BARE_PIVOT = (
    "EmptyW: row 1 has a bare pivot; the hypergraph encoding needs"
    " a support column in every row\n"
)


def run(capsys, *argv):
    code = main(list(argv))
    captured = capsys.readouterr()
    return code, captured.out, captured.err


def write_system(tmp_path, text):
    path = tmp_path / "input.sys"
    path.write_text(text)
    return str(path)


# ---------------------------------------------------------------------------
# count


def test_count_triangle(capsys):
    assert run(capsys, "count", TRIANGLE) == (0, "T=1\n", "")


def test_count_degenerate_inputs(capsys):
    assert run(capsys, "count", PINNED) == (0, "T=7\n", "")
    assert run(capsys, "count", FOLD) == (0, "T=25\n", "")


@pytest.mark.parametrize(
    "body, count",
    [
        # 1 + 1 - 1 is not 0.
        ("system 1 3\n1 1 -1\nrhs 0\nset 1\nset 1\nset 1\n", 0),
        # (2q)^2 slots could never be allocated: the dict walk must run.
        ("system 2 3\n1 1 0\n0 1 1\nrhs 3 5\nset 1\nset 2\nset 3\n", 1),
    ],
    ids=["one-row", "two-rows"],
)
def test_count_under_a_61_bit_prime_field(capsys, tmp_path, body, count):
    # The parser certifies 2^61 - 1 prime at once.
    path = write_system(tmp_path, "field 2305843009213693951\n" + body)
    assert run(capsys, "count", path) == (0, f"T={count}\n", "")


def test_count_naive_agrees(capsys):
    baseline = run(capsys, "count", AP4)
    assert baseline == (0, "T=25\n", "")
    assert run(capsys, "count", AP4, "--naive") == baseline


def test_count_guard(capsys):
    code, out, err = run(capsys, "count", AP4, "--naive", "--guard", "3")
    assert code == 2
    assert out == ""
    assert err.startswith("SearchBudgetExceeded:")


def test_count_guard_degenerate_route(capsys):
    code, out, err = run(capsys, "count", FOLD, "--guard", "3")
    assert code == 2
    assert out == ""
    assert err.startswith("SearchBudgetExceeded:")


ROW7_F31 = "field 31\nsystem 1 7\n1 2 3 4 5 6 7\nrhs 0\n" + "set all\n" * 7


def test_count_seven_unknowns_over_f31(capsys, tmp_path):
    path = write_system(tmp_path, ROW7_F31)
    assert run(capsys, "count", path) == (0, "T=887503681\n", "")


def test_count_guard_refuses_before_the_walk(capsys, tmp_path):
    # The transfer walk needs 4867 steps; 1000 refuses at once.
    path = write_system(tmp_path, ROW7_F31)
    code, out, err = run(capsys, "count", path, "--guard", "1000")
    assert code == 2
    assert out == ""
    assert err.startswith("SearchBudgetExceeded:") and "4867" in err


# ---------------------------------------------------------------------------
# normalize


def test_normalize_triangle_golden(capsys):
    code, out, err = run(capsys, "normalize", TRIANGLE)
    assert (code, err) == (0, "")
    assert out == (
        "# columns 1,2,3\n"
        "# r 2 k 3\n"
        "# row 1: pivot 2 support 1 diag 3\n"
        "field 5\n"
        "system 1 3\n"
        "1 1 4\n"
        "rhs 0\n"
        "set 1,2\n"
        "set 1,2\n"
        "set 1,2\n"
    )


def test_normalize_ap4_golden(capsys):
    code, out, err = run(capsys, "normalize", AP4)
    assert (code, err) == (0, "")
    assert out == (
        "# columns 1,2,3,4\n"
        "# r 3 k 4\n"
        "# row 1: pivot 2 support 1 diag 3\n"
        "# row 2: pivot 2 support 1 diag 4\n"
        "field 5\n"
        "system 2 4\n"
        "2 1 2 0\n"
        "1 1 0 3\n"
        "rhs 0 0\n"
        + "set all\n" * 4
    )


def test_normalize_reorders_columns(capsys, tmp_path):
    path = write_system(
        tmp_path,
        "field 7\nsystem 1 4\n1 2 3 0\nrhs 4\nset all\nset all\nset 1,2\nset all\n",
    )
    code, out, _ = run(capsys, "normalize", path)
    assert code == 0
    lines = out.splitlines()
    # Column 4 has a zero coefficient, so column 3 takes the diagonal slot
    # and its admissible set travels with it to the last position.
    assert lines[0] == "# columns 1,2,4,3"
    assert lines[1] == "# r 2 k 4"
    assert lines[2] == "# row 1: pivot 2 support 1 diag 4"
    assert lines[5:] == ["4 1 0 5", "rhs 2", "set all", "set all", "set all", "set 1,2"]


# ---------------------------------------------------------------------------
# represent / translate


def test_represent_summary(capsys):
    assert run(capsys, "represent", TRIANGLE) == (
        0,
        "r=2 k=3 colors=3 edges=30 labels=6\n",
        "",
    )


def test_represent_guard_refuses_before_the_build(capsys, monkeypatch):
    # triangle.sys has n^(r-1) * sum |S| = 5 * 6 = 30 edges.
    assert run(capsys, "represent", TRIANGLE, "--guard", "30")[0] == 0

    def refuse(*args):
        raise AssertionError("build_host was called")

    monkeypatch.setattr(cli, "build_host", refuse)
    assert run(capsys, "represent", TRIANGLE, "--guard", "29") == (
        2, "", "SearchBudgetExceeded: host needs 30 edges, guard is 29\n"
    )


def store_summary(path):
    """represent's (code, stdout, stderr) read off _build's host: its edge
    count is len(by_key), or the refusal that building it raises."""
    with open(path, encoding="utf-8") as fh:
        system, sets = parse_system(fh.read())
    try:
        host, _ = _build(system, sets)
    except InputError as exc:
        return 2, "", f"{type(exc).__name__}: {exc}\n"
    return 0, (
        f"r={host.r} k={host.k} colors={host.free + host.ell} "
        f"edges={len(host.by_key)} labels={host.sets.total_size()}\n"
    ), ""


def test_represent_counts_the_host_without_building_it(capsys, monkeypatch, tmp_path):
    # Every bundled system and every draw of the acceptance corpus: the
    # summary comes from the certified plan and equals the built store's.
    paths = sorted(str(path) for path in SYSTEMS.glob("*.sys"))
    for index, (system, _, sets) in enumerate(corpus_draws(CORPUS_SEED, CORPUS_SIZE)):
        path = tmp_path / f"corpus-{index}.sys"
        path.write_text(format_system(system, sets))
        paths.append(str(path))
    want = [store_summary(path) for path in paths]

    def refuse(*args):
        raise AssertionError("the edge store was built")

    monkeypatch.setattr(cli, "build_host", refuse)
    monkeypatch.setattr(hrep, "iter_host_edges", refuse)
    assert [run(capsys, "represent", path) for path in paths] == want
    assert sum(code == 0 for code, _, _ in want) == len(paths) - 2


@pytest.mark.parametrize(
    "name, digest",
    [
        ("ap4.sys", "3c089b7d32b9189c88d07791d7e20e904adf320cf8d4f5ece16d7f3e96ea54b7"),
        ("reducible.sys", "c83f9dac7370c63c9cd94d1f10185f9cd83863aaf348f2b1c6ff5d24b5456f98"),
        ("row3-f7.sys", "8d8328dff4bd5a6e92f85f5485e6a04f5b4ae16f884aab899c4af0b2ea27dca7"),
        ("triangle.sys", "b4925b6cd8b2ef394bcdb0e53d1a09bd48b5b20cfedb483b27bf0676c8342e3d"),
    ],
)
def test_represent_dump_bytes_are_pinned(capsys, tmp_path, name, digest):
    # --dump renders the export from the certified plans; its bytes must not move.
    dump = tmp_path / "host.edges"
    code, out, _ = run(capsys, "represent", str(SYSTEMS / name), "--dump", str(dump))
    assert (code, out) == store_summary(SYSTEMS / name)[:2]
    assert hashlib.sha256(dump.read_bytes()).hexdigest() == digest


def test_represent_dump_builds_no_store(capsys, monkeypatch, tmp_path):
    # Every bundled system, every draw of the acceptance corpus and four
    # more: an F13 system, whose text order puts V1:10 before V1:2; the
    # 10-term all-ones row over F2, whose color 10 sorts between colors 1
    # and 2; a system with one empty set and one with every set empty.
    # The plan-rendered dump equals the built store's export byte for
    # byte, and so does its refusal.
    paths = sorted(str(path) for path in SYSTEMS.glob("*.sys"))
    draws = [(system, sets) for system, _, sets in corpus_draws(CORPUS_SEED, CORPUS_SIZE)]
    extra = [
        "field 13\nsystem 2 4\n1 -2 1 0\n0 1 -2 1\nrhs 0 0\n"
        "set 0,2,10,12\nset 1,11\nset 3,4,5,9,12\nset 2,7,10\n",
        "field 2\nsystem 1 10\n" + " ".join(["1"] * 10) + "\nrhs 0\n" + "set 0\n" * 10,
        "field 7\nsystem 1 3\n1 2 -1\nrhs 3\nset 1,2,5\nset\nset 0,3,4,6\n",
        "field 7\nsystem 1 4\n1 2 -1 3\nrhs 3\nset\nset\nset\nset\n",
    ]
    draws += [parse_system(text) for text in extra]
    for index, (system, sets) in enumerate(draws):
        path = tmp_path / f"draw-{index}.sys"
        path.write_text(format_system(system, sets))
        paths.append(str(path))
    want = []
    for path in paths:
        code, out, err = store_summary(path)
        if code == 0:
            out = (out, export_host(_build(*parse_system(Path(path).read_text()))[0]))
        want.append((code, out, err))

    def refuse(*args):
        raise AssertionError("the edge store or its key stream was built")

    monkeypatch.setattr(cli, "build_host", refuse)
    monkeypatch.setattr(hrep, "Host", refuse)
    monkeypatch.setattr(hrep, "iter_host_edges", refuse)
    got = []
    for index, path in enumerate(paths):
        dump = tmp_path / f"dump-{index}.edges"
        code, out, err = run(capsys, "represent", path, "--dump", str(dump))
        got.append((code, (out, dump.read_text()) if dump.exists() else out, err))
    assert got == want
    assert sum(code == 0 for code, _, _ in want) == len(paths) - 2
    f13, f2, one_empty, all_empty = (dumped.splitlines() for _, (_, dumped), _ in got[-4:])
    assert f13.index("1 0 V1:10 V2:0 U1:10") < f13.index("1 0 V1:2 V2:0 U1:2")
    colors = [line.split()[0] for line in f2]
    assert len(f2) == 2560 and colors == sorted(colors)
    assert colors[255:257] == ["1", "10"] and colors[511:513] == ["10", "2"]
    assert len(one_empty) == 49 and all_empty == [""]


def test_represent_dump_plan_clash_leaves_no_file(capsys, monkeypatch, tmp_path):
    # A normal form whose row label no longer moves its key makes two
    # labels share every key; the plans refuse it before any text exists.
    def zero_diagonal(system):
        ns = normalize(system)
        row = list(ns.base.rows[0])
        row[ns.diag_cols[0]] = 0
        return dataclasses.replace(ns, base=dataclasses.replace(ns.base, rows=(tuple(row),)))

    monkeypatch.setattr(cli, "normalize", zero_diagonal)
    dump = tmp_path / "host.edges"
    assert run(capsys, "represent", TRIANGLE, "--dump", str(dump)) == (
        1, "", "SimplicityViolation: edge (5, 10) carries both (2, 1) and (2, 2)\n"
    )
    assert not dump.exists()


def test_represent_needs_a_support_column(capsys):
    # Row 1 of pinned.sys keeps only its pivot; count and removal take it.
    code, out, err = run(capsys, "represent", PINNED)
    assert (code, out) == (2, "")
    assert err == BARE_PIVOT


@pytest.mark.parametrize("path", [PINNED, FOLD])
@pytest.mark.parametrize("command", ["represent", "verify", "translate"])
def test_two_variable_residuals_are_refused(capsys, tmp_path, command, path):
    # Both reduce to a single two-variable row, whose pivot has no support.
    edges = tmp_path / "deleted.edges"
    edges.write_text("1 1 V1:0 U1:1\n")
    argv = [command, path] + ([str(edges)] if command == "translate" else [])
    assert run(capsys, *argv) == (2, "", BARE_PIVOT)


@pytest.mark.parametrize(
    "text, kind",
    [
        pytest.param(
            "field 7\nsystem 2 3\n1 1 0\n0 0 1\nrhs 0 3\nset all\nset all\nset 1,2\n",
            "empty",
            id="pin-outside-its-set",
        ),
        pytest.param(
            "field 5\nsystem 1 2\n0 1\nrhs 3\nset all\nset all\n", "unconstrained", id="all-pins"
        ),
    ],
)
def test_represent_names_the_reduced_kind(capsys, tmp_path, text, kind):
    code, out, err = run(capsys, "represent", write_system(tmp_path, text))
    assert (code, out) == (2, "")
    assert err.startswith(f"EmptyW: the system reduces to kind {kind};")


def test_verify_reducible_counts_the_input(capsys):
    # Row 2 folds x5 into x4; the host encodes x1 + x2 + x3 = 0 on x1..x4
    # (r = 2), and its T is the input's solution count.
    code, out, err = run(capsys, "verify", REDUCIBLE)
    assert (code, err) == (0, "")
    with open(REDUCIBLE, encoding="utf-8") as fh:
        system, sets = parse_system(fh.read())
    t = brute_count(system, sets)
    assert out.endswith(f"PASS\nCOUNTS edges=100 T={t} copies={t * 5}\n")
    assert t == 125


def test_translate_reducible_maps_back_to_input_columns(capsys, tmp_path):
    # Host color 3 is the free unknown x4: two of its five label-1 edges
    # reach n^(r-1)/p = 5/4, so 1 leaves the input's set 4.
    edges = tmp_path / "deleted.edges"
    edges.write_text("3 1 V1:0 U3:1\n3 1 V1:1 U3:1\n")
    code, out, err = run(capsys, "translate", REDUCIBLE, str(edges))
    assert (code, err) == (0, "")
    assert out.splitlines()[5:] == ["set all", "set all", "set all", "set 0,2,3,4", "set all"]


def test_represent_dump_round_trip(capsys, tmp_path):
    dump = tmp_path / "host.edges"
    code, out, _ = run(capsys, "represent", TRIANGLE, "--dump", str(dump))
    assert code == 0
    text = dump.read_text()
    assert len(text.splitlines()) == 30
    host, _ = _build(*parse_system((SYSTEMS / "triangle.sys").read_text()))
    refs = parse_host_export(host, text)
    assert sorted(refs) == sorted((color, key) for key, (color, _) in host.by_key.items())


def test_represent_unwritable_dump_prints_nothing(capsys, tmp_path):
    # The dump is written before the summary, so a refused path leaves
    # stdout empty instead of printing a summary and then failing.
    dump = tmp_path / "missing" / "host.edges"
    code, out, err = run(capsys, "represent", TRIANGLE, "--dump", str(dump))
    assert (code, out) == (2, "")
    assert err.startswith("FileNotFoundError: ")
    assert not dump.exists()


def test_translate_round_trip_on_ap4(capsys, tmp_path):
    # ap4.sys is the bundled system whose encoding keeps two rows. The
    # deleted edges are dump lines: walking every solution's copies, each
    # copy no earlier pick hits gives up its edge of color (i mod 4), so the
    # set meets every copy without being minimal. Each solution's copies
    # are edge-disjoint, so translating it must free the family, and a set
    # loses at most p|E|/n^(r-1) values.
    start = time.perf_counter()
    dump = tmp_path / "host.edges"
    assert run(capsys, "represent", AP4, "--dump", str(dump))[0] == 0
    text = dump.read_text()
    system, sets = parse_system((SYSTEMS / "ap4.sys").read_text())
    host, _ = _build(system, sets)
    line_of = dict(zip(parse_host_export(host, text), text.splitlines()))
    copies = [c for sol in iter_solutions(host.ns, host.sets) for c in copies_for_solution(host, sol)]
    rows = host.copy_edges(copies)
    deleted = {}
    for i, edges in enumerate(rows):
        if not any(ref in deleted for ref in edges):
            ref = edges[i % len(edges)]
            deleted[ref] = line_of[ref]
    assert all(any(ref in deleted for ref in edges) for edges in rows)
    edges = tmp_path / "deleted.edges"
    edges.write_text("\n".join(deleted.values()) + "\n")
    code, out, err = run(capsys, "translate", AP4, str(edges))
    assert (code, err) == (0, "")
    freed = write_system(tmp_path, out)
    assert run(capsys, "count", freed) == (0, "T=0\n", "")
    _, after = parse_system(out)
    per_solution = host.n ** (host.r - 1)
    for before, rest in zip(sets.sets, after.sets):
        assert set(rest) <= set(before)
        assert (len(before) - len(rest)) * per_solution <= system.p * len(deleted)
    assert time.perf_counter() - start < 2


def test_translate_threshold_crossed(capsys, tmp_path):
    # All five diagonal edges labeled 2: the per-set rule evicts the label.
    edges = tmp_path / "deleted.edges"
    edges.write_text(
        "".join(f"3 2 U1:{y} U2:{(2 - y) % 5}\n" for y in range(5))
    )
    code, out, _ = run(capsys, "translate", TRIANGLE, str(edges))
    assert code == 0
    assert out == (
        "field 5\nsystem 1 3\n1 1 4\nrhs 0\nset 1,2\nset 1,2\nset 1\n"
    )


def test_translate_below_threshold(capsys, tmp_path):
    edges = tmp_path / "deleted.edges"
    edges.write_text("1 1 V1:0 U1:1\n")
    code, out, _ = run(capsys, "translate", TRIANGLE, str(edges))
    assert code == 0
    assert out.endswith("set 1,2\nset 1,2\nset 1,2\n")


def test_translate_counts_a_repeated_edge_once(capsys, tmp_path):
    # One deleted edge stays below the threshold however often it is listed.
    edges = tmp_path / "deleted.edges"
    edges.write_text("1 1 V1:0 U1:1\n1 1 V1:0 U1:1\n")
    code, out, _ = run(capsys, "translate", TRIANGLE, str(edges))
    assert code == 0
    assert out.endswith("set 1,2\nset 1,2\nset 1,2\n")


def test_translate_rejects_foreign_edge(capsys, tmp_path):
    edges = tmp_path / "deleted.edges"
    edges.write_text("1 1 V1:0 U1:3\n")
    code, out, err = run(capsys, "translate", TRIANGLE, str(edges))
    assert code == 2
    assert err.startswith("EdgeNotInHost:")


@pytest.mark.parametrize(
    "line, err",
    [
        pytest.param("1 1 U0:0 U1:1", "vertex U0:0 out of range", id="U0"),
        pytest.param("1 1 V1:0 V2:1", "vertex V2:1 out of range", id="V-past-r-1"),
        pytest.param("1 1 :3 U1:1", "line 1: malformed edge line", id="empty-name"),
        pytest.param("1 1 V²:3 U1:1", "line 1: malformed edge line", id="superscript-digit"),
    ],
)
def test_translate_rejects_a_part_the_host_lacks(capsys, tmp_path, line, err):
    # triangle.sys has parts V1, U1 and U2 only. A bad part name is an
    # input error (exit 2), not a failed check (exit 1).
    edges = tmp_path / "deleted.edges"
    edges.write_text(line + "\n", encoding="utf-8")
    assert run(capsys, "translate", TRIANGLE, str(edges)) == (2, "", f"ParseError: {err}\n")


# ---------------------------------------------------------------------------
# verify


def test_verify_triangle(capsys):
    code, out, _ = run(capsys, "verify", TRIANGLE)
    assert code == 0
    assert out == (
        "CHECK simple PASS\n"
        "CHECK edge-counts PASS\n"
        "CHECK copy-count PASS\n"
        "CHECK per-solution PASS\n"
        "CHECK copy-structure PASS\n"
        "CHECK edge-equation PASS\n"
        "COUNTS edges=30 T=1 copies=5\n"
    )


def test_verify_reports_a_check_the_guard_leaves_out(capsys):
    # triangle.sys's edge-equation check needs (2 free + 1 row) * 5^2 tuples.
    base = run(capsys, "verify", TRIANGLE)
    assert base[2] == ""
    code, out, err = run(capsys, "verify", TRIANGLE, "--guard", "10")
    assert (code, err) == (0, "skipped edge-equation: needs 75 tuples, guard is 10\n")
    assert out == base[1].replace("CHECK edge-equation PASS\n", "")


def test_verify_modes_agree(capsys):
    base = run(capsys, "verify", TRIANGLE)
    assert run(capsys, "verify", TRIANGLE, "--naive") == base
    assert run(capsys, "verify", TRIANGLE, "--workers", "2") == base


# ---------------------------------------------------------------------------
# removal


def test_removal_triangle(capsys):
    code, out, _ = run(capsys, "removal", TRIANGLE)
    assert code == 0
    assert out == (
        "remove set 1: 1\n"
        "remove set 2: \n"
        "remove set 3: \n"
        "budget=1 total=1 mode=per-set-max\n"
    )


def test_removal_pinned(capsys):
    code, out, _ = run(capsys, "removal", PINNED)
    assert code == 0
    assert out.splitlines()[2] == "remove set 3: 3"
    assert out.splitlines()[3] == "budget=1 total=1 mode=per-set-max"


def test_removal_fold(capsys):
    code, out, _ = run(capsys, "removal", FOLD)
    assert code == 0
    assert out == (
        "remove set 1: 0,1,2\n"
        "remove set 2: \n"
        "remove set 3: 3,4\n"
        "remove set 4: \n"
        "budget=3 total=5 mode=per-set-max\n"
    )


def test_removal_fold_total_mode(capsys):
    code, out, _ = run(capsys, "removal", FOLD, "--mode", "total")
    assert code == 0
    assert out.splitlines()[0] == "remove set 1: 0,1,2,3,4"
    assert out.splitlines()[-1] == "budget=5 total=5 mode=total"


@pytest.mark.parametrize(
    "argv, tail",
    [
        pytest.param(["removal", PINNED], "mode=per-set-max\n", id=PINNED),
        pytest.param(["removal", FOLD], "mode=per-set-max\n", id=FOLD),
        pytest.param(["verify", TRIANGLE], "copies=5\n", id="verify-" + TRIANGLE),
    ],
)
def test_removal_same_under_optimize_flag(argv, tail):
    # python -O strips assert statements; removal and verify must not lean on them.
    outs = [
        subprocess.run(
            [sys.executable, *flags, "-m", "linrem", *argv],
            capture_output=True, text=True, env=subprocess_env(), check=True,
        ).stdout
        for flags in ([], ["-O"])
    ]
    assert outs[0] == outs[1]
    assert outs[0].endswith(tail)


# ---------------------------------------------------------------------------
# epsdelta


def test_epsdelta_deterministic(capsys):
    first = run(capsys, "epsdelta", TRIANGLE, "--trials", "3", "--seed", "7")
    assert first == (0, "5,0.0,0.0\n5,0.0,0.0\n5,0.12,0.2\n", "")
    assert run(capsys, "epsdelta", TRIANGLE, "--trials", "3", "--seed", "7") == first


def test_epsdelta_seed_changes_stream(capsys):
    a = run(capsys, "epsdelta", TRIANGLE, "--trials", "5", "--seed", "1")[1]
    b = run(capsys, "epsdelta", TRIANGLE, "--trials", "5", "--seed", "2")[1]
    assert len(a.splitlines()) == len(b.splitlines()) == 5
    assert a != b


def test_epsdelta_refuses_a_guard_below_p(capsys):
    # Refused before any trial; the guard can hold one value per set from 3 on.
    assert run(capsys, "epsdelta", TRIANGLE, "--trials", "200", "--guard", "2") == (
        2, "", "SearchBudgetExceeded: guard 2 is below the 3 unknowns;"
        " it leaves no room for one value per set\n"
    )
    code, out, _ = run(capsys, "epsdelta", TRIANGLE, "--trials", "200", "--guard", "3")
    assert code == 0 and len(out.splitlines()) == 200


def test_epsdelta_degenerate_rows_match_oracles(capsys):
    # The second row of pinned.sys pins x3; the scan must still count and
    # remove. Each row is recomputed from the documented family draw.
    seed, trials, guard = 3, 6, 12
    code, out, err = run(capsys, "epsdelta", PINNED, "--trials", str(trials),
                         "--seed", str(seed), "--guard", str(guard))
    assert (code, err) == (0, "")
    with open(PINNED, encoding="utf-8") as fh:
        system, _ = parse_system(fh.read())
    q, p = system.field.q, system.p
    expected = []
    for trial in range(trials):
        rng = random.Random(f"{seed}:{trial}")
        fam = []
        for _ in range(p):
            size = rng.randint(0, min(q, guard // p))
            pool = list(range(q))
            rng.shuffle(pool)
            fam.append(pool[:size])
        sets = mk_sets(q, fam)
        count = brute_count(system, sets)
        if count == 0:
            expected.append(f"{q},0.0,0.0")
        else:
            budget = removal_oracle(system, sets, "per-set-max")
            expected.append(f"{q},{count / q ** (p - system.ell)},{budget / q}")
    assert out.splitlines() == expected
    assert any(not line.endswith(",0.0,0.0") for line in expected)


# ---------------------------------------------------------------------------
# behrend


def test_behrend_default_and_elements(capsys):
    golden = (0, "16 2 2 8 16 8 128\n", "")
    assert run(capsys, "behrend", "16", "2") == golden
    assert run(capsys, "behrend", "16", "2", "--elements", "1,2") == golden


def test_behrend_sphere(capsys):
    assert run(capsys, "behrend", "5000", "25", "--sphere", "3", "2") == (
        0,
        "5000 25 2 200 10000 9800 12800\n",
        "",
    )


def test_behrend_error_paths(capsys):
    code, _, err = run(capsys, "behrend", "15", "2")
    assert code == 2 and err.startswith("IndivisibleAmbient:")
    code, _, err = run(capsys, "behrend", "16", "2", "--elements", "1,3")
    assert code == 2 and err.startswith("ValueError:")
    code, _, err = run(capsys, "behrend", "9", "9", "--sphere", "3", "2")
    assert code == 2 and "radix" in err
    for argv in (["4", "0"], ["4", "-1"], ["-4", "1", "--elements", "1"]):
        code, out, err = run(capsys, "behrend", *argv)
        assert (code, out) == (2, "") and err.startswith("ValueError: need n >= 1 and m >= 1")


def test_behrend_guard_refuses_before_the_lift(capsys):
    start = time.perf_counter()
    code, out, err = run(capsys, "behrend", "20000000", "1", "--elements", "1")
    assert time.perf_counter() - start < 0.5
    assert (code, out) == (2, "")
    assert err.startswith("SearchBudgetExceeded: 10000000 elements exceed guard 500")
    # One block of m = 10^9: the counts are read off X, not off 1..n.
    start = time.perf_counter()
    code, out, err = run(capsys, "behrend", "2000000000", "1000000000", "--elements", "1")
    assert time.perf_counter() - start < 0.5
    assert (code, out) == (1, "")
    assert err.startswith("ProgressionCeilingExceeded: progression count 1 exceeds")


def test_behrend_sphere_guard_refuses_before_enumerating(capsys):
    # 11^6 digit vectors exceed the default guard of 10^6; the shell is
    # never built, so the refusal comes at once.
    start = time.perf_counter()
    code, out, err = run(capsys, "behrend", "200000000", "100000000", "--sphere", "11", "6")
    assert time.perf_counter() - start < 0.5
    assert (code, out) == (2, "")
    assert err == "SearchBudgetExceeded: 1771561 digit vectors exceed guard 1000000\n"


def test_behrend_out_of_regime_fails_check(capsys):
    code, _, err = run(capsys, "behrend", "72", "9", "--elements", "1,3")
    assert code == 1
    assert err.startswith("ProgressionCeilingExceeded: progression count 16 exceeds")


def test_behrend_ceiling_checked_under_optimize_flag():
    # python -O strips assert statements; the ceiling check must survive it.
    proc = subprocess.run(
        [sys.executable, "-O", "-m", "linrem", "behrend", "10", "5", "--elements", "1,2,4,5"],
        capture_output=True, text=True, env=subprocess_env(),
    )
    assert proc.returncode == 1
    assert proc.stdout == ""
    assert proc.stderr.startswith("ProgressionCeilingExceeded: progression count 4 exceeds")


# ---------------------------------------------------------------------------
# golden matrix over the bundled systems

GOLDENS = json.loads((Path(__file__).parent / "goldens.json").read_text(encoding="utf-8"))
MATRIX = {
    "normalize": ("normalize",),
    "count": ("count",),
    "represent": ("represent",),
    "verify": ("verify",),
    "verify-naive": ("verify", "--naive"),
    "verify-workers2": ("verify", "--workers", "2"),
    "removal": ("removal",),
    "removal-total": ("removal", "--mode", "total"),
}


@pytest.mark.parametrize("command", list(MATRIX))
@pytest.mark.parametrize("name", sorted(path.name for path in SYSTEMS.glob("*.sys")))
def test_golden_matrix(capsys, name, command):
    sub, *flags = MATRIX[command]
    code, out, _ = run(capsys, sub, str(SYSTEMS / name), *flags)
    assert {"code": code, "stdout": out} == GOLDENS[name][command]


# ---------------------------------------------------------------------------
# shared error handling


def test_missing_file(capsys):
    code, _, err = run(capsys, "count", "systems/absent.sys")
    assert code == 2
    assert err.startswith("FileNotFoundError:")


def test_parse_error_carries_line(capsys, tmp_path):
    path = write_system(tmp_path, "field 5\nsystem 1 2\n1 x\nrhs 0\nset all\nset all\n")
    code, _, err = run(capsys, "count", path)
    assert code == 2
    assert err.startswith("ParseError:") and "line 3" in err


def test_rank_deficient_input(capsys, tmp_path):
    path = write_system(
        tmp_path,
        "field 5\nsystem 2 3\n1 1 1\n2 2 2\nrhs 0 0\nset all\nset all\nset all\n",
    )
    code, _, err = run(capsys, "normalize", path)
    assert code == 2
    assert err.startswith("RankDeficient:")


def test_non_prime_field(capsys, tmp_path):
    path = write_system(tmp_path, "field 6\nsystem 1 2\n1 1\nrhs 0\nset all\nset all\n")
    code, _, err = run(capsys, "count", path)
    assert code == 2
    assert err.startswith("NonPrimeModulus:")


def test_unknown_subcommand_exits_two():
    with pytest.raises(SystemExit) as exc:
        main(["frobnicate"])
    assert exc.value.code == 2


def test_cached_parser_keeps_no_state_between_calls(capsys):
    assert build_parser() is build_parser()
    assert run(capsys, "behrend", "400", "10", "--elements", "1,2,4") == (0, "400 10 3 60 600 540 2160\n", "")
    assert run(capsys, "behrend", "400", "10") == (0, "400 10 5 100 1000 900 10000\n", "")
    assert run(capsys, "behrend", "400", "10", "--sphere", "2", "2") == (0, "400 10 2 40 400 360 640\n", "")
    with pytest.raises(SystemExit) as exc:
        main(["count"])
    assert exc.value.code == 2
    capsys.readouterr()
    assert run(capsys, "count", TRIANGLE) == (0, "T=1\n", "")
    usages = []
    for _ in range(2):
        with pytest.raises(SystemExit) as exc:
            main(["--help"])
        assert exc.value.code == 0
        usages.append(capsys.readouterr().out)
    assert usages[0] == usages[1]
    assert usages[0].startswith("usage: linrem")
    assert build_parser.cache_info().misses == 1
