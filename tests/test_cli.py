import gc
import os
import subprocess
import sys
import time
from pathlib import Path

import numpy as np
import pytest

from ybelab import catalog, checks, cli, files, groups, semibraces
from ybelab.cli import main
from ybelab.files import write_brace, write_bracoid, write_group, write_semibrace
from ybelab.groups import cyclic_group, semidirect_product
from ybelab.ybe import SolutionMap


def _sd32():
    return semidirect_product(cyclic_group(3), cyclic_group(2),
                              np.array([[0, 1, 2], [0, 2, 1]], dtype=np.int32))


# derive pipeline -> the kind of file it reads
DERIVE_INPUTS = {
    "semibrace-from-bracoid": "bracoid",
    "bracoid-from-semibrace": "semibrace",
    "solution-from-bracoid": "bracoid",
    "solution-from-brace": "brace",
    "solution-from-semibrace": "semibrace",
}


def _steps(out):
    return [line for line in out.splitlines() if line.startswith("STEP ")]


def test_example_semidirect_writes_everything(tmp_path, capsys):
    code = main(["example", "semidirect", "3", "2", "--out", str(tmp_path)])
    out = capsys.readouterr().out
    assert code == 0
    assert "STEP build-semidirect PASS" in out and "G=6,N=3" in out
    assert "STEP contains-brace PASS" in out and "H=3,S=2" in out
    for suffix in ("group", "brace", "bracoid", "contained-brace",
                   "semibrace", "solution", "solution-tilde"):
        assert (tmp_path / f"semidirect-3-2-{suffix}.txt").exists()
    # The report copy has its timing column forced to zero.
    report = (tmp_path / "report.txt").read_text()
    stamped = [line.split(" ")[3] for line in _steps(report)]
    assert stamped and set(stamped) == {"0"}
    assert [line.split(" ")[:3] for line in _steps(report)] == \
        [line.split(" ")[:3] for line in _steps(out)]


def test_example_without_brace_reports_the_certificate(tmp_path, capsys):
    code = main(["example", "cyclic-pq", "5", "2", "--out", str(tmp_path)])
    out = capsys.readouterr().out
    assert code == 0
    assert "STEP contains-brace PASS" in out and "NotFound" in out
    assert not (tmp_path / "cyclic-pq-5-2-contained-brace.txt").exists()


def test_example_cyclic_pq_19_3_runs_at_the_default_max_order(tmp_path, capsys):
    """J for (19, 3) has order 171 inside Hol(C57), of order 57 * 36 = 2052,
    above the default --max-order, which bounds |J| alone: 170 refuses it."""
    assert main(["example", "cyclic-pq", "19", "3", "--out", str(tmp_path / "fits")]) == 0
    out = capsys.readouterr().out
    assert "G=171,N=57" in out and "NotFound" in out
    code = main(["example", "cyclic-pq", "19", "3", "--out", str(tmp_path / "over"),
                 "--max-order", "170"])
    assert code == 2
    assert capsys.readouterr().err == "error: PreconditionFailed: order 171 exceeds --max-order 170\n"
    assert not (tmp_path / "over").exists()


def test_example_gl3f2_quantities(tmp_path, capsys):
    code = main(["example", "gl3f2", "--out", str(tmp_path)])
    out = capsys.readouterr().out
    assert code == 0
    assert "G=168,N=8" in out
    assert "H=8,S=21" in out


def test_example_unknown_name(tmp_path, capsys):
    code = main(["example", "nosuch", "--out", str(tmp_path)])
    err = capsys.readouterr().err
    assert code == 2
    assert "UnknownExample" in err


def test_example_respects_max_order(tmp_path, capsys, monkeypatch):
    """The order comes from the family and its params: no search starts."""
    def never(*args, **kwargs):
        raise RuntimeError("gl3f2 search started")

    monkeypatch.setattr(catalog, "gl3f2_instance", never)
    code = main(["example", "gl3f2", "--out", str(tmp_path / "over"),
                 "--max-order", "32"])
    captured = capsys.readouterr()
    assert code == 2
    assert "PreconditionFailed" in captured.err
    assert captured.out == ""
    assert not (tmp_path / "over").exists()


@pytest.mark.parametrize("scope, largest", [("full", 168), ("quick", 60)])
def test_suite_respects_max_order(tmp_path, capsys, monkeypatch, scope, largest):
    """The largest instance of the scope is refused before anything is built."""
    def never(*args, **kwargs):
        raise RuntimeError("an instance was built")

    monkeypatch.setattr(cli, "build_example", never)
    monkeypatch.setattr(cli, "acceptance_instances", never)
    code = main(["suite", scope, "--out", str(tmp_path / "over"),
                 "--max-order", str(largest - 1)])
    captured = capsys.readouterr()
    assert code == 2
    assert captured.err == (f"error: PreconditionFailed: order {largest} exceeds"
                            f" --max-order {largest - 1}\n")
    assert captured.out == ""
    assert not (tmp_path / "over").exists()


def test_example_with_wrong_param_count_exits_two(tmp_path, capsys):
    code = main(["example", "semidirect", "3", "--out", str(tmp_path / "out")])
    assert code == 2
    assert "semidirect takes (p, q)" in capsys.readouterr().err
    assert not (tmp_path / "out").exists()


def test_example_gl3f2_with_parameters_exits_two(tmp_path, capsys):
    """gl3f2 has one instance; parameters are refused before the search starts."""
    code = main(["example", "gl3f2", "5", "7", "--out", str(tmp_path / "out")])
    assert code == 2
    assert "gl3f2 takes no parameters" in capsys.readouterr().err
    assert not (tmp_path / "out").exists()


def _poked_semibrace():
    """The order-6 semibrace of the catalog with one + entry changed: + is no
    longer cancellative, so the semibrace laws fail."""
    sb = semibraces.bracoid_to_semibrace(catalog.semidirect_instance(3, 2).contained)
    plus = sb.plus.copy()
    plus[1, 1] = plus[1, 2]
    return sb.dot, plus


def test_derived_axiom_violation_exits_three(tmp_path, capsys, monkeypatch):
    """A derived structure that breaks its laws is a library bug, exit 3."""
    path = tmp_path / "bracoid.txt"
    bc = catalog.semidirect_instance(3, 2).bracoid
    path.write_text(write_bracoid(bc.G, bc.N, bc.act.table))
    monkeypatch.setattr(cli, "bracoid_to_semibrace",
                        lambda cb: semibraces.Semibrace(*_poked_semibrace()))
    code = main(["derive", "semibrace-from-bracoid", str(path), "--out", str(tmp_path / "out")])
    captured = capsys.readouterr()
    assert code == 3
    assert captured.err.startswith("error: AxiomViolated: semibrace law failed: ")
    assert "Traceback" not in captured.err


def test_law_breaking_input_file_exits_two(tmp_path, capsys):
    """The same law failure read from a file is unusable input, exit 2."""
    path = tmp_path / "semibrace.txt"
    path.write_text(write_semibrace(*_poked_semibrace()))
    code = main(["derive", "bracoid-from-semibrace", str(path), "--out", str(tmp_path / "out")])
    captured = capsys.readouterr()
    assert code == 2
    assert captured.err.startswith(
        "error: PreconditionFailed: input is not a semibrace: semibrace law failed: ")
    assert not (tmp_path / "out").exists()


@pytest.mark.parametrize("command, kind, extra", [
    *(pytest.param(["verify", kind], kind, [], id=kind)
      for kind in ("group", "brace", "bracoid", "semibrace", "solution")),
    *(pytest.param(["derive", pipeline], kind, [], id=f"derive-{pipeline}")
      for pipeline, kind in DERIVE_INPUTS.items()),
    pytest.param(["complements"], "group", ["1"], id="complements"),
])
def test_verify_respects_max_order(tmp_path, capsys, command, kind, extra):
    """verify, every derive pipeline and complements refuse an order-6 file
    under --max-order 5 before any step, writing nothing."""
    main(["example", "semidirect", "3", "2", "--out", str(tmp_path)])
    argv = [*command, str(tmp_path / f"semidirect-3-2-{kind}.txt"), *extra]
    capsys.readouterr()
    assert main([*argv, "--max-order", "6", "--out", str(tmp_path / "fits")]) == 0
    capsys.readouterr()
    code = main([*argv, "--max-order", "5", "--out", str(tmp_path / "over")])
    captured = capsys.readouterr()
    assert code == 2
    assert "PreconditionFailed" in captured.err
    assert captured.out == ""
    assert not (tmp_path / "over").exists()


# kind -> a header over --max-order 5 above a body that does not parse
OVERSIZED = {
    "group": "GROUP v1 10 G\nnot a table\n",
    "brace": "BRACE v1 10\n0 1 x\n",
    "bracoid": "BRACOID v1 4 10\n\t\n",
    "semibrace": "SEMIBRACE v1 10\n01 +1\n",
    "solution": "YBE v1 10 x\n0 0 0\n",
}


@pytest.mark.parametrize("command, kind, extra", [
    *(pytest.param(["verify", kind], kind, [], id=f"verify-{kind}") for kind in OVERSIZED),
    *(pytest.param(["derive", pipeline], kind, [], id=f"derive-{pipeline}")
      for pipeline, kind in DERIVE_INPUTS.items()),
    pytest.param(["derive", "solution-from-bracoid"], "bracoid", ["--tilde"], id="derive-tilde"),
    pytest.param(["holomorph"], "group", [], id="holomorph"),
    pytest.param(["complements"], "group", ["1"], id="complements"),
])
def test_max_order_is_read_from_the_header(tmp_path, capsys, command, kind, extra):
    """A header over --max-order is refused before its garbage body is parsed."""
    path = tmp_path / f"{kind}.txt"
    path.write_text(OVERSIZED[kind])
    code = main([*command, str(path), *extra, "--max-order", "5",
                 "--out", str(tmp_path / "out")])
    out, err = capsys.readouterr()
    assert code == 2
    assert err == "error: PreconditionFailed: order 10 exceeds --max-order 5\n"
    assert out == ""
    assert not (tmp_path / "out").exists()


def test_a_writer_that_prints_another_table_fails_its_write_step(tmp_path, capsys, monkeypatch):
    """The write step parses the artifact and compares it with the values it
    was written from, so a writer that prints another table fails it even
    though its text is canonical and reads back without error."""
    main(["example", "semidirect", "3", "2", "--out", str(tmp_path)])
    write = files.write_solution
    monkeypatch.setattr(files, "write_solution",
                        lambda r: write(SolutionMap(r.right, r.left, provenance=r.provenance)))
    code = main(["derive", "solution-from-brace", str(tmp_path / "semidirect-3-2-brace.txt"),
                 "--out", str(tmp_path / "out")])
    out = capsys.readouterr().out
    assert code == 1
    assert [s.split()[:3] for s in _steps(out) if "FAIL" in s] == [
        ["STEP", "write-solution.txt", "FAIL"]]
    swapped = files.read_solution((tmp_path / "out" / "solution.txt").read_text())
    assert swapped.size == 6 and not np.array_equal(swapped.left, swapped.right)


@pytest.mark.parametrize("kind", ["group", "bracoid"])
def test_an_example_artifact_written_wrong_fails_its_write_step(tmp_path, capsys, monkeypatch,
                                                                  kind):
    write = getattr(files, f"write_{kind}")
    other = cyclic_group(6)
    wrong = {"group": lambda G: write(other),
             "bracoid": lambda G, N, act: write(other, N, act)}[kind]
    monkeypatch.setattr(files, f"write_{kind}", wrong)
    assert main(["example", "semidirect", "3", "2", "--out", str(tmp_path)]) == 1
    failed = [s.split()[1] for s in _steps(capsys.readouterr().out) if "FAIL" in s]
    assert failed == [f"write-semidirect-3-2-{kind}.txt"]


def test_verify_group_passes(tmp_path, capsys):
    path = tmp_path / "g.txt"
    path.write_text(write_group(_sd32()))
    assert main(["verify", "group", str(path)]) == 0
    out = capsys.readouterr().out
    assert "FAIL" not in out


def test_verify_corrupted_bracoid_fails_with_named_law(tmp_path, capsys):
    G = _sd32()
    act = G.table[:, (0, 2, 4)].copy()
    act //= 2
    good = tmp_path / "good.txt"
    good.write_text(write_bracoid(G, cyclic_group(3), act))
    assert main(["verify", "bracoid", str(good)]) == 0
    capsys.readouterr()
    act[3, 1] = (act[3, 1] + 1) % 3
    bad = tmp_path / "bad.txt"
    bad.write_text(write_bracoid(G, cyclic_group(3), act))
    code = main(["verify", "bracoid", str(bad)])
    out = capsys.readouterr().out
    assert code == 1
    assert "STEP action.law FAIL" in out
    assert "(1,3,1)" in out


@pytest.mark.parametrize("kind, text, failing", [
    ("bracoid", write_bracoid(cyclic_group(2), cyclic_group(2), np.array([[0, 1], [0, 1]])),
     ["STEP action.transitive FAIL 0 (1)"]),
    ("bracoid", write_bracoid(cyclic_group(2), cyclic_group(2), np.array([[1, 0], [0, 1]])),
     ["STEP action.identity FAIL 0 (0)", "STEP action.law FAIL 0 (0,0,0)",
      "STEP compat FAIL 0 not-evaluated:-action-checks-failed"]),
    ("bracoid", write_bracoid(cyclic_group(2), cyclic_group(2), np.array([[0, 1], [1, 2]])),
     ["STEP action.range FAIL 0 (1,1)", "STEP compat FAIL 0 not-evaluated:-table-checks-failed"]),
    ("semibrace", write_semibrace(cyclic_group(2), np.array([[0, 1], [3, 0]])),
     ["STEP plus.range FAIL 0 (1,0)", "STEP compat FAIL 0 not-evaluated:-table-checks-failed"]),
])
def test_verify_names_the_point_or_entry_of_each_failure(tmp_path, capsys, kind, text, failing):
    """C2 acting trivially on C2 misses point 1; a moved point and an entry out
    of range are named too, as (row, column) for an entry."""
    path = tmp_path / f"{kind}.txt"
    path.write_text(text)
    assert main(["verify", kind, str(path), "--out", str(tmp_path / "out")]) == 1
    report = (tmp_path / "out" / "report.txt").read_text().splitlines()
    assert [line for line in report if " FAIL " in line] == failing


def test_verify_parse_error_exits_two(tmp_path, capsys):
    path = tmp_path / "g.txt"
    path.write_text("GROUP v1 2\n0 1\n")
    code = main(["verify", "group", str(path)])
    err = capsys.readouterr().err
    assert code == 2
    assert "line" in err


@pytest.mark.parametrize("kind, text, line", [
    ("solution", "YBE v1 2 x\n0 0 0 0\n0 1 99999999999 1\n1 0 1 0\n1 1 1 1\n", 3),
    ("group", "GROUP v1 2\n0 1\n1 99999999999\n", 3),
])
def test_verify_integer_beyond_int32_exits_two(tmp_path, capsys, kind, text, line):
    path = tmp_path / "f.txt"
    path.write_text(text)
    code = main(["verify", kind, str(path)])
    out, err = capsys.readouterr()
    assert code == 2
    assert err == (f"error: line {line}: bad integer: Python integer 99999999999"
                   " out of bounds for int32\n")
    assert "STEP" not in out


@pytest.mark.parametrize("argv, text", [
    (["verify", "group"], "GROUP v1 -1 G\n"),
    (["verify", "solution"], "YBE v1 -1\n0 0 0 0\n"),
    (["verify", "bracoid"], "BRACOID v1 2 -1\n"),
    (["derive", "solution-from-brace"], "BRACE v1 -1\n"),
    (["complements"], "GROUP v1 -2\n"),
])
def test_negative_header_count_exits_two(tmp_path, capsys, argv, text):
    """A negative count is bad input on line 1, not a failed verification."""
    path = tmp_path / "f.txt"
    path.write_text(text)
    code = main([*argv, str(path), *(["1"] if argv == ["complements"] else []),
                 "--out", str(tmp_path / "out")])
    out, err = capsys.readouterr()
    assert code == 2
    assert err.startswith("error: line 1: negative header count")
    assert "STEP" not in out


def test_verify_missing_file_exits_two(tmp_path, capsys):
    code = main(["verify", "group", str(tmp_path / "absent.txt")])
    assert code == 2


def test_run_freezes_once_before_main(monkeypatch):
    calls = []
    monkeypatch.setattr(gc, "freeze", lambda: calls.append("freeze"))
    monkeypatch.setattr(cli, "main", lambda: calls.append("main") or 1)
    with pytest.raises(SystemExit) as stop:
        cli.run()
    assert stop.value.code == 1
    assert calls == ["freeze", "main"]


# The child finds ybelab under src/ without an installed package.
SRC_ENV = dict(os.environ, PYTHONPATH=str(Path(__file__).resolve().parents[1] / "src"))


def _python(*args):
    return subprocess.run([sys.executable, *args], env=SRC_ENV, capture_output=True,
                          text=True, timeout=120)


def test_in_process_main_never_freezes(tmp_path):
    path = tmp_path / "g.txt"
    path.write_text(write_group(_sd32()))
    proc = _python("-c", "import gc, sys, ybelab.cli; "
                   "code = ybelab.cli.main(['verify', 'group', sys.argv[1]]); "
                   "print('frozen', gc.get_freeze_count(), 'exit', code)", str(path))
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout.splitlines()[-1] == "frozen 0 exit 0"


def _untimed(out):
    return [line.split(" ")[:3] + line.split(" ")[4:] for line in _steps(out)]


def test_module_entry_matches_in_process_main(tmp_path, capsys):
    """`python -m ybelab verify` exits 0, 1 and 2 on a valid, a law-breaking
    and an unparseable file, with the STEP lines of `cli.main` and no traceback."""
    G = _sd32()
    act = G.table[:, (0, 2, 4)] // 2
    (tmp_path / "good.txt").write_text(write_bracoid(G, cyclic_group(3), act))
    act[3, 1] = (act[3, 1] + 1) % 3
    (tmp_path / "bad.txt").write_text(write_bracoid(G, cyclic_group(3), act))
    (tmp_path / "torn.txt").write_text("BRACOID v1 6 3\n0 1\n")
    for name, code in (("good", 0), ("bad", 1), ("torn", 2)):
        argv = ["verify", "bracoid", str(tmp_path / f"{name}.txt")]
        proc = _python("-m", "ybelab", *argv)
        assert main(argv) == code
        out, err = capsys.readouterr()
        assert proc.returncode == code, proc.stderr
        assert _untimed(proc.stdout) == _untimed(out)
        assert proc.stderr == err and "Traceback" not in proc.stderr
        assert bool(_steps(out)) == (code != 2)
        assert ("STEP action.law FAIL" in out) == (code == 1)


def test_derive_semibrace_with_roundtrip(tmp_path, capsys):
    src = tmp_path / "b.txt"
    code = main(["example", "semidirect", "3", "2", "--out", str(tmp_path)])
    assert code == 0
    capsys.readouterr()
    code = main(["derive", "semibrace-from-bracoid",
                 str(tmp_path / "semidirect-3-2-bracoid.txt"),
                 "--roundtrip", "--out", str(tmp_path / "derived")])
    out = capsys.readouterr().out
    assert code == 0
    assert "STEP decompose PASS" in out and "E=2,H=3" in out
    assert "STEP roundtrip PASS" in out
    assert (tmp_path / "derived" / "semibrace.txt").exists()


def test_derive_tilde_solution_asserts_right_nondegeneracy(tmp_path, capsys):
    main(["example", "semidirect", "3", "2", "--out", str(tmp_path)])
    capsys.readouterr()
    code = main(["derive", "solution-from-bracoid",
                 str(tmp_path / "semidirect-3-2-bracoid.txt"),
                 "--tilde", "--out", str(tmp_path / "t")])
    out = capsys.readouterr().out
    assert code == 0
    assert "STEP right-nondegenerate PASS" in out
    # Degeneracy on the other side is reported but not asserted.
    assert "STEP info-left-nondegenerate FAIL" in out
    assert (tmp_path / "t" / "solution-tilde.txt").exists()


def test_derive_needs_a_contained_brace(tmp_path, capsys):
    main(["example", "cyclic-pq", "5", "2", "--out", str(tmp_path)])
    capsys.readouterr()
    code = main(["derive", "solution-from-bracoid",
                 str(tmp_path / "cyclic-pq-5-2-bracoid.txt"),
                 "--out", str(tmp_path / "x")])
    err = capsys.readouterr().err
    assert code == 2
    assert "PreconditionFailed" in err


def test_roundtrip_flag_limited_to_the_two_correspondences(tmp_path, capsys):
    path = tmp_path / "brace.txt"
    G = _sd32()
    path.write_text(write_brace(cyclic_group(6), G))
    code = main(["derive", "solution-from-brace", str(path),
                 "--roundtrip", "--out", str(tmp_path / "y")])
    assert code == 2


@pytest.mark.parametrize("pipeline", [p for p in DERIVE_INPUTS if p != "solution-from-bracoid"])
def test_tilde_flag_limited_to_solution_from_bracoid(tmp_path, capsys, pipeline):
    main(["example", "semidirect", "3", "2", "--out", str(tmp_path)])
    capsys.readouterr()
    code = main(["derive", pipeline,
                 str(tmp_path / f"semidirect-3-2-{DERIVE_INPUTS[pipeline]}.txt"),
                 "--tilde", "--out", str(tmp_path / "t")])
    captured = capsys.readouterr()
    assert code == 2
    assert "PreconditionFailed" in captured.err and "--tilde" in captured.err
    assert captured.out == ""
    assert not (tmp_path / "t").exists()


def test_derived_solution_verifies_clean(tmp_path, capsys):
    path = tmp_path / "brace.txt"
    path.write_text(write_brace(cyclic_group(6), _sd32()))
    code = main(["derive", "solution-from-brace", str(path),
                 "--out", str(tmp_path)])
    assert code == 0
    capsys.readouterr()
    code = main(["verify", "solution", str(tmp_path / "solution.txt")])
    out = capsys.readouterr().out
    assert code == 0
    assert "STEP braid PASS" in out


def test_derive_bracoid_from_semibrace(tmp_path, capsys):
    G = _sd32()
    path = tmp_path / "sb.txt"
    path.write_text(write_semibrace(
        G, np.tile(np.arange(6, dtype=np.int32), (6, 1))))
    code = main(["derive", "bracoid-from-semibrace", str(path),
                 "--out", str(tmp_path / "out")])
    out = capsys.readouterr().out
    assert code == 0
    assert "STEP derive PASS" in out and "N=1" in out
    assert (tmp_path / "out" / "bracoid.txt").exists()


def test_suite_quick_is_green(tmp_path, capsys):
    code = main(["suite", "quick", "--out", str(tmp_path)])
    out = capsys.readouterr().out
    assert code == 0
    steps = _steps(out)
    assert len(steps) > 40
    assert all(" FAIL " not in line or line.split(" ")[1].startswith("info-")
               for line in steps)
    assert (tmp_path / "report.txt").exists()


def test_holomorph_command(tmp_path, capsys):
    path = tmp_path / "c3.txt"
    path.write_text(write_group(cyclic_group(3)))
    code = main(["holomorph", str(path), "--out", str(tmp_path)])
    out = capsys.readouterr().out
    assert code == 0
    assert "order=6,aut=2" in out
    assert "STEP transitive PASS" in out
    assert (tmp_path / "holomorph.txt").exists()
    assert (tmp_path / "holomorph-action.txt").exists()


def test_out_of_memory_is_a_one_line_error(tmp_path, capsys, monkeypatch):
    """Hol(C2^4) has order 322560; within --max-order its tables may not fit
    in memory.  The builder is replaced by one that raises at once, so
    nothing is allocated: the CLI exits 2 with one error line."""
    path = tmp_path / "e2-4.txt"
    path.write_text(write_group(groups.elementary_abelian(2, 4)))

    for raised, line in ((MemoryError("Unable to allocate 388. GiB for an array"),
                          "Unable to allocate 388. GiB for an array"),
                         (MemoryError(), "out of memory")):
        def out_of_memory(G, max_order, raised=raised):
            raise raised
        monkeypatch.setattr(cli, "holomorph", out_of_memory)
        code = main(["holomorph", str(path), "--max-order", "322560",
                     "--out", str(tmp_path / "out")])
        out, err = capsys.readouterr()
        assert code == 2
        assert err == f"error: MemoryError: {line}\n"


def test_holomorph_respects_max_order(tmp_path, capsys):
    path = tmp_path / "c3.txt"
    path.write_text(write_group(cyclic_group(3)))
    code = main(["holomorph", str(path), "--out", str(tmp_path / "over"),
                 "--max-order", "5"])
    assert code == 2
    assert not (tmp_path / "over").exists()


def test_holomorph_refuses_a_group_above_max_order(tmp_path, capsys):
    """--max-order bounds |Hol(G)| = |G| * |Aut(G)|: Hol(C2^3) has order
    8 * 168, and under 512 the search stops at map 512 // 8 + 1 = 65."""
    path = tmp_path / "e8.txt"
    path.write_text(write_group(groups.elementary_abelian(2, 3)))
    code = main(["holomorph", str(path), "--out", str(tmp_path / "over"),
                 "--max-order", "512"])
    assert code == 2
    assert capsys.readouterr().err == \
        "error: CapExceeded: |Hol(E2^3)| exceeds max_order 512: |Aut(E2^3)| > 64\n"
    assert not (tmp_path / "over").exists()


@pytest.mark.parametrize("rank", [4, 5])
def test_holomorph_refuses_a_large_automorphism_group_at_once(tmp_path, capsys, rank):
    """|Aut(C2^4)| = 20160 and |Aut(C2^5)| = 9999360: the search stops at
    map 2048 // |G| + 1 instead of listing them all."""
    path = tmp_path / "e.txt"
    path.write_text(write_group(groups.elementary_abelian(2, rank)))
    start = time.perf_counter()
    code = main(["holomorph", str(path), "--out", str(tmp_path / "over")])
    assert time.perf_counter() - start < 1
    assert code == 2
    cap = 2048 // 2**rank
    assert capsys.readouterr().err == \
        f"error: CapExceeded: |Hol(E2^{rank})| exceeds max_order 2048: |Aut(E2^{rank})| > {cap}\n"
    assert not (tmp_path / "over").exists()


def test_holomorph_bounds_the_holomorph_not_the_group(tmp_path, capsys):
    """Hol(C50) has order 50 * 20 = 1000: within the default --max-order,
    refused at 999 with no --out directory."""
    path = tmp_path / "c50.txt"
    path.write_text(write_group(cyclic_group(50)))
    assert main(["holomorph", str(path), "--out", str(tmp_path / "fits")]) == 0
    assert " order=1000,aut=20\n" in capsys.readouterr().out
    code = main(["holomorph", str(path), "--out", str(tmp_path / "over"),
                 "--max-order", "999"])
    assert code == 2
    assert capsys.readouterr().err == \
        "error: CapExceeded: |Hol(C50)| exceeds max_order 999: |Aut(C50)| > 19\n"
    assert not (tmp_path / "over").exists()


def test_complements_enumeration(tmp_path, capsys):
    path = tmp_path / "s3.txt"
    path.write_text(write_group(_sd32()))
    code = main(["complements", str(path), "1", "--out", str(tmp_path)])
    out = capsys.readouterr().out
    assert code == 0
    assert "STEP subgroup PASS" in out and "order=2" in out
    assert "count=1" in out
    assert "STEP complement-0 PASS" in out and "(0,2,4)" in out


@pytest.mark.parametrize("gen", ["6", "-1"])
def test_complements_refuses_a_generator_outside_the_group(tmp_path, capsys, gen):
    """subgroup_generated's range check is the one refusal: exit 2, one line."""
    path = tmp_path / "s3.txt"
    path.write_text(write_group(_sd32()))
    assert main(["complements", str(path), "1", gen, "--out", str(tmp_path / "out")]) == 2
    captured = capsys.readouterr()
    assert captured.err == f"error: ValueError: generator {gen} out of range 0..5\n"
    assert captured.out == "" and not (tmp_path / "out").exists()


@pytest.mark.parametrize("words, code", [
    (["verify", "group", "g0.txt"], 1), (["holomorph", "g0.txt"], 2),
    (["complements", "g0.txt", "0"], 2)], ids=["verify", "holomorph", "complements"])
def test_an_empty_group_file_lacks_an_identity(tmp_path, capsys, words, code):
    """A 0 x 0 table is square; what the order-0 group file lacks is an
    identity, so the report fails identity alone and the builders raise
    NoIdentity."""
    path = tmp_path / "g0.txt"
    path.write_text("GROUP v1 0 G\n")
    argv = [str(path) if word == path.name else word for word in words]
    assert main([*argv, "--out", str(tmp_path / "out")]) == code
    captured = capsys.readouterr()
    if code == 1:
        assert _steps(captured.out)[1:] == [
            "STEP latin PASS 0", "STEP identity FAIL 0 no-two-sided-identity",
            "STEP associativity PASS 0", "STEP inverses PASS 0"]
    else:
        assert captured.err == "error: NoIdentity: identity FAIL no two-sided identity\n"
    assert "not square" not in captured.out + captured.err


@pytest.mark.parametrize("words", [
    ["verify", "group", "g.txt"], ["derive", "solution-from-brace", "b.txt"],
    ["holomorph", "g.txt"], ["complements", "g.txt", "1"]], ids=lambda w: w[0])
def test_seed_is_refused_where_nothing_is_random(words, capsys):
    with pytest.raises(SystemExit) as exc:
        main([*words, "--seed", "3"])
    assert exc.value.code == 2
    assert "unrecognized arguments: --seed 3" in capsys.readouterr().err


@pytest.mark.parametrize("words", [["example", "gl3f2"], ["suite", "quick"]],
                         ids=lambda w: w[0])
def test_seed_is_taken_where_it_draws_numbers(words):
    assert cli.build_parser().parse_args([*words, "--seed", "3"]).seed == 3


def test_negative_seed_rejected_by_the_parser(capsys):
    with pytest.raises(SystemExit) as exc:
        main(["suite", "quick", "--seed", "-1"])
    assert exc.value.code == 2


# The zero-timed report.txt and exit code of each command on the files of
# `example semidirect 3 2`; a refactor of the CLI must keep them byte for byte.
PINNED = {
    "example semidirect 3 2": (0, """\
STEP build-semidirect PASS 0 G=6,N=3
STEP verify-brace PASS 0
STEP brace.star.latin PASS 0
STEP brace.star.identity PASS 0
STEP brace.star.associativity PASS 0
STEP brace.star.inverses PASS 0
STEP brace.dot.latin PASS 0
STEP brace.dot.identity PASS 0
STEP brace.dot.associativity PASS 0
STEP brace.dot.inverses PASS 0
STEP brace.same-order PASS 0
STEP brace.compat PASS 0
STEP verify-bracoid PASS 0
STEP bracoid.G.latin PASS 0
STEP bracoid.G.identity PASS 0
STEP bracoid.G.associativity PASS 0
STEP bracoid.G.inverses PASS 0
STEP bracoid.N.latin PASS 0
STEP bracoid.N.identity PASS 0
STEP bracoid.N.associativity PASS 0
STEP bracoid.N.inverses PASS 0
STEP bracoid.action.shape PASS 0
STEP bracoid.action.identity PASS 0
STEP bracoid.action.law PASS 0
STEP bracoid.action.transitive PASS 0
STEP bracoid.compat PASS 0
STEP contains-brace PASS 0 H=3,S=2
STEP verify-semibrace PASS 0
STEP semibrace.dot.latin PASS 0
STEP semibrace.dot.identity PASS 0
STEP semibrace.dot.associativity PASS 0
STEP semibrace.dot.inverses PASS 0
STEP semibrace.same-order PASS 0
STEP semibrace.plus.range PASS 0
STEP semibrace.plus.assoc PASS 0
STEP semibrace.plus.cancellative PASS 0
STEP semibrace.compat PASS 0
STEP write-semidirect-3-2-group.txt PASS 0
STEP write-semidirect-3-2-brace.txt PASS 0
STEP write-semidirect-3-2-bracoid.txt PASS 0
STEP write-semidirect-3-2-contained-brace.txt PASS 0
STEP write-semidirect-3-2-semibrace.txt PASS 0
STEP write-semidirect-3-2-solution.txt PASS 0
STEP write-semidirect-3-2-solution-tilde.txt PASS 0
"""),
    "verify group": (0, """\
STEP scan PASS 0
STEP latin PASS 0
STEP identity PASS 0
STEP associativity PASS 0
STEP inverses PASS 0
"""),
    "verify brace": (0, """\
STEP scan PASS 0
STEP star.latin PASS 0
STEP star.identity PASS 0
STEP star.associativity PASS 0
STEP star.inverses PASS 0
STEP dot.latin PASS 0
STEP dot.identity PASS 0
STEP dot.associativity PASS 0
STEP dot.inverses PASS 0
STEP same-order PASS 0
STEP compat PASS 0
"""),
    "verify bracoid": (0, """\
STEP scan PASS 0
STEP G.latin PASS 0
STEP G.identity PASS 0
STEP G.associativity PASS 0
STEP G.inverses PASS 0
STEP N.latin PASS 0
STEP N.identity PASS 0
STEP N.associativity PASS 0
STEP N.inverses PASS 0
STEP action.shape PASS 0
STEP action.identity PASS 0
STEP action.law PASS 0
STEP action.transitive PASS 0
STEP compat PASS 0
"""),
    "verify semibrace": (0, """\
STEP scan PASS 0
STEP dot.latin PASS 0
STEP dot.identity PASS 0
STEP dot.associativity PASS 0
STEP dot.inverses PASS 0
STEP same-order PASS 0
STEP plus.range PASS 0
STEP plus.assoc PASS 0
STEP plus.cancellative PASS 0
STEP compat PASS 0
"""),
    "verify solution": (0, """\
STEP parse PASS 0 n=6
STEP scan PASS 0
STEP braid PASS 0
STEP info-bijective FAIL 0 (0,0,1,1)
STEP info-involutive FAIL 0 (0,1)
STEP info-left-nondegenerate PASS 0
STEP info-right-nondegenerate FAIL 0 (0,0,1)
"""),
    "derive semibrace-from-bracoid": (0, """\
STEP build-bracoid PASS 0 G=6,N=3
STEP contains-brace PASS 0 H=3
STEP derive PASS 0
STEP decompose PASS 0 E=2,H=3
STEP semibrace.dot.latin PASS 0
STEP semibrace.dot.identity PASS 0
STEP semibrace.dot.associativity PASS 0
STEP semibrace.dot.inverses PASS 0
STEP semibrace.same-order PASS 0
STEP semibrace.plus.range PASS 0
STEP semibrace.plus.assoc PASS 0
STEP semibrace.plus.cancellative PASS 0
STEP semibrace.compat PASS 0
STEP write-semibrace.txt PASS 0
"""),
    "derive semibrace-from-bracoid --roundtrip": (0, """\
STEP build-bracoid PASS 0 G=6,N=3
STEP contains-brace PASS 0 H=3
STEP derive PASS 0
STEP decompose PASS 0 E=2,H=3
STEP semibrace.dot.latin PASS 0
STEP semibrace.dot.identity PASS 0
STEP semibrace.dot.associativity PASS 0
STEP semibrace.dot.inverses PASS 0
STEP semibrace.same-order PASS 0
STEP semibrace.plus.range PASS 0
STEP semibrace.plus.assoc PASS 0
STEP semibrace.plus.cancellative PASS 0
STEP semibrace.compat PASS 0
STEP write-semibrace.txt PASS 0
STEP roundtrip PASS 0
"""),
    "derive bracoid-from-semibrace": (0, """\
STEP build-semibrace PASS 0 n=6
STEP derive PASS 0 N=3
STEP bracoid.G.latin PASS 0
STEP bracoid.G.identity PASS 0
STEP bracoid.G.associativity PASS 0
STEP bracoid.G.inverses PASS 0
STEP bracoid.N.latin PASS 0
STEP bracoid.N.identity PASS 0
STEP bracoid.N.associativity PASS 0
STEP bracoid.N.inverses PASS 0
STEP bracoid.action.shape PASS 0
STEP bracoid.action.identity PASS 0
STEP bracoid.action.law PASS 0
STEP bracoid.action.transitive PASS 0
STEP bracoid.compat PASS 0
STEP write-bracoid.txt PASS 0
"""),
    "derive bracoid-from-semibrace --roundtrip": (0, """\
STEP build-semibrace PASS 0 n=6
STEP derive PASS 0 N=3
STEP bracoid.G.latin PASS 0
STEP bracoid.G.identity PASS 0
STEP bracoid.G.associativity PASS 0
STEP bracoid.G.inverses PASS 0
STEP bracoid.N.latin PASS 0
STEP bracoid.N.identity PASS 0
STEP bracoid.N.associativity PASS 0
STEP bracoid.N.inverses PASS 0
STEP bracoid.action.shape PASS 0
STEP bracoid.action.identity PASS 0
STEP bracoid.action.law PASS 0
STEP bracoid.action.transitive PASS 0
STEP bracoid.compat PASS 0
STEP write-bracoid.txt PASS 0
STEP roundtrip PASS 0
"""),
    "derive solution-from-bracoid": (0, """\
STEP build-bracoid PASS 0 G=6,N=3
STEP contains-brace PASS 0 H=3
STEP derive PASS 0
STEP scan PASS 0
STEP braid PASS 0
STEP info-bijective FAIL 0 (0,0,1,1)
STEP info-involutive FAIL 0 (0,1)
STEP left-nondegenerate PASS 0
STEP info-right-nondegenerate FAIL 0 (0,0,1)
STEP write-solution.txt PASS 0
"""),
    "derive solution-from-bracoid --tilde": (0, """\
STEP build-bracoid PASS 0 G=6,N=3
STEP contains-brace PASS 0 H=3
STEP derive PASS 0
STEP scan PASS 0
STEP braid PASS 0
STEP info-bijective FAIL 0 (0,0,1,1)
STEP info-involutive FAIL 0 (1,0)
STEP info-left-nondegenerate FAIL 0 (0,0,1)
STEP right-nondegenerate PASS 0
STEP write-solution-tilde.txt PASS 0
"""),
    "derive solution-from-brace": (0, """\
STEP build-brace PASS 0 n=6
STEP derive PASS 0
STEP scan PASS 0
STEP braid PASS 0
STEP bijective PASS 0
STEP info-involutive PASS 0
STEP left-nondegenerate PASS 0
STEP right-nondegenerate PASS 0
STEP write-solution.txt PASS 0
"""),
    "derive solution-from-semibrace": (0, """\
STEP build-semibrace PASS 0 n=6
STEP derive PASS 0
STEP scan PASS 0
STEP braid PASS 0
STEP info-bijective FAIL 0 (0,0,1,1)
STEP info-involutive FAIL 0 (0,1)
STEP left-nondegenerate PASS 0
STEP info-right-nondegenerate FAIL 0 (0,0,1)
STEP write-solution.txt PASS 0
"""),
    "holomorph": (0, """\
STEP build-holomorph PASS 0 order=36,aut=6
STEP transitive PASS 0
STEP write-holomorph.txt PASS 0
STEP write-holomorph-action.txt PASS 0
"""),
    "complements 1": (0, """\
STEP subgroup PASS 0 order=2
STEP complements PASS 0 count=1
STEP complement-0 PASS 0 (0,2,4)
"""),
}


@pytest.mark.parametrize("command", PINNED)
def test_reports_match_pinned_bytes(tmp_path, capsys, command):
    words = command.split()
    if words[0] != "example":
        main(["example", "semidirect", "3", "2", "--out", str(tmp_path)])
        if words[0] in ("holomorph", "complements"):
            words[1:1] = [str(tmp_path / "semidirect-3-2-group.txt")]
        else:
            kind = words[1] if words[0] == "verify" else DERIVE_INPUTS[words[1]]
            words[2:2] = [str(tmp_path / f"semidirect-3-2-{kind}.txt")]
    capsys.readouterr()
    code = main([*words, "--out", str(tmp_path / "out")])
    assert (code, (tmp_path / "out" / "report.txt").read_text()) == PINNED[command]


def test_no_command_skips_associativity(tmp_path, monkeypatch, capsys):
    """Every table the library proves, in `suite full` and in each derive
    pipeline, goes through the one full proof: no call asks `_group_proof`
    to leave associativity out."""
    asked = []
    proof = checks._group_proof

    def recording(table, check_assoc):
        asked.append(check_assoc)
        return proof(table, check_assoc)

    monkeypatch.setattr(checks, "_group_proof", recording)
    monkeypatch.setattr(groups, "_group_proof", recording)
    assert main(["suite", "full", "--seed", "7", "--out", str(tmp_path / "suite")]) == 0
    assert main(["example", "semidirect", "3", "2", "--out", str(tmp_path)]) == 0
    for pipeline, kind in DERIVE_INPUTS.items():
        path = tmp_path / f"semidirect-3-2-{kind}.txt"
        assert main(["derive", pipeline, str(path), "--out", str(tmp_path / pipeline)]) == 0
    capsys.readouterr()
    assert asked and all(asked), asked.count(False)
