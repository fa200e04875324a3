from __future__ import annotations

import hashlib
import json
import os
import subprocess
import sys
from pathlib import Path

import pytest

import symcover
from symcover.cli import _emit_reports, main
from symcover.graphs import build_graph, save_graph
from symcover.scenarios import ScenarioReport

from conftest import FIXTURES, c4, p3, whiskered_fish


def run(capsys, *argv):
    code = main(list(argv))
    captured = capsys.readouterr()
    return code, captured.out, captured.err


@pytest.fixture()
def c4_path(tmp_path):
    path = tmp_path / "c4.graph"
    save_graph(c4(), str(path))
    return str(path)


def test_check_vd_yes(capsys, c4_path, tmp_path):
    path = tmp_path / "wf.graph"
    save_graph(whiskered_fish(), str(path))
    code, out, _ = run(capsys, "check-vd", str(path), "--certificate")
    assert code == 0
    assert out.startswith("vertex decomposable: yes")
    assert "shed" in out


def test_check_vd_no(capsys, c4_path):
    code, out, _ = run(capsys, "check-vd", c4_path)
    assert code == 1
    assert out.strip() == "vertex decomposable: no"


def test_check_vd_without_certificate_skips_it(capsys, tmp_path, monkeypatch):
    # the certificate cache is keyed on whole masks, so building one for a
    # long path takes exponential time; the verdict alone is instant
    def refuse(graph):
        raise AssertionError("check-vd built a certificate it does not print")

    monkeypatch.setattr("symcover.cli.is_vertex_decomposable", refuse)
    names = [f"p{i}" for i in range(200)]
    path = tmp_path / "p200.graph"
    save_graph(build_graph(names, list(zip(names, names[1:]))), str(path))
    code, out, _ = run(capsys, "check-vd", str(path))
    assert code == 0
    assert out == "vertex decomposable: yes\n"
    code, out, _ = run(capsys, "check-vd", str(path), "--format", "json")
    assert code == 0
    assert json.loads(out) == {"vertex_decomposable": True}


def test_cover_ideal_output(capsys, c4_path):
    code, out, _ = run(capsys, "cover-ideal", c4_path)
    assert code == 0
    assert out == "variables: x1 x2 x3 x4\nx1*x3\nx2*x4\n"


def test_symbolic_power_output(capsys, c4_path):
    code, out, _ = run(capsys, "symbolic-power", c4_path, "--k", "2")
    assert code == 0
    assert "x1^2*x3^2" in out and "x1*x2*x3*x4" in out


def test_polarize_round_trip(capsys, tmp_path, c4_path):
    code, out, _ = run(capsys, "symbolic-power", c4_path, "--k", "2")
    ideal_path = tmp_path / "sym2.ideal"
    ideal_path.write_text(out)
    code, out, _ = run(capsys, "polarize", str(ideal_path))
    assert code == 0
    assert "x1.1*x1.2*x3.1*x3.2" in out


def test_linear_quotients_exit_codes(capsys, tmp_path):
    good = tmp_path / "good.ideal"
    good.write_text("variables: x1 x2 x3\nx2\nx1*x3\n")
    code, out, _ = run(capsys, "linear-quotients", str(good))
    assert code == 0 and "yes" in out

    bad = tmp_path / "bad.ideal"
    bad.write_text("variables: x1 x2 x3 x4\nx1*x3\nx2*x4\n")
    code, out, _ = run(capsys, "linear-quotients", str(bad))
    assert code == 1 and "no" in out


def test_linear_quotients_on_thousands_of_generators(capsys, tmp_path):
    # one search position per generator: a recursive search overran
    # Python's recursion limit here
    names = [f"x{i}" for i in range(1, 27)]
    graph_path = tmp_path / "p26.graph"
    save_graph(build_graph(names, list(zip(names, names[1:]))), str(graph_path))
    code, out, _ = run(capsys, "cover-ideal", str(graph_path))
    assert code == 0 and len(out.splitlines()) == 1 + 1432
    ideal_path = tmp_path / "p26.ideal"
    ideal_path.write_text(out)
    code, out, _ = run(capsys, "linear-quotients", str(ideal_path))
    assert code == 0 and out.splitlines()[0] == "linear quotients: yes"


def test_verify_main_pass_and_json(capsys, tmp_path):
    path = tmp_path / "five.graph"
    save_graph(
        p3(), str(path)
    )
    code, out, _ = run(capsys, "verify", "main", "--graph", str(path), "--S", "x2",
                       "--k", "1", "--format", "json")
    assert code == 0
    doc = json.loads(out)
    assert doc["overall_pass"] is True
    assert doc["inputs"]["S"] == "x2"


def test_verify_edge_boundary(capsys, c4_path):
    code, out, _ = run(capsys, "verify", "edge", "--graph", c4_path, "--S", "x1",
                       "--tuple", "3,1,1,3,1")
    assert code == 0
    assert "observed=no" in out and "overall: PASS" in out


def test_verify_star(capsys, c4_path):
    code, out, _ = run(capsys, "verify", "star", "--graph", c4_path, "--S", "x1",
                       "--spec", "x1:3,2", "--k", "2")
    assert code == 0
    assert "overall: PASS" in out


def test_usage_errors_exit_2(capsys, c4_path, tmp_path):
    assert run(capsys, "cover-ideal", str(tmp_path / "missing.graph"))[0] == 2
    assert run(capsys, "verify", "glue", "--graph", c4_path, "--S", "x1")[0] == 2
    assert run(capsys, "verify", "edge", "--graph", c4_path, "--S", "x1",
               "--tuple", "1,1")[0] == 2
    no_support = tmp_path / "no_support.graph"
    no_support.write_text('{"vertices": ["a", "b"], "edges": [["a", "b"]], '
                          '"whiskers": [{"leaf": "b"}]}')
    truncated = tmp_path / "truncated.graph"
    truncated.write_text('{"vertices": ["a", "b"], "edges": [["a"')
    bad_whiskers = []
    for i, whisker in enumerate(('{"leaf": "zz", "support": "a"}',
                                 '{"leaf": "b", "support": "zz"}',
                                 '{"leaf": "c", "support": "a"}')):
        path = tmp_path / f"bad_whisker{i}.graph"
        path.write_text('{"vertices": ["a", "b", "c"], "edges": [["a", "b"], ["b", "c"]], '
                        f'"whiskers": [{whisker}]}}')
        bad_whiskers.append(("check-vd", str(path)))
    # provenance for a vertex that is no pendant, and a leaf with two supports
    for i, whiskers in enumerate(('{"leaf": "x2", "support": "x1"}',
                                  '{"leaf": "x5", "support": "x2"}, '
                                  '{"leaf": "x5", "support": "x1"}')):
        path = tmp_path / f"bad_provenance{i}.graph"
        path.write_text('{"vertices": ["x1", "x2", "x3", "x4", "x5"], '
                        '"edges": [["x1", "x2"], ["x2", "x3"], ["x3", "x4"], ["x1", "x4"], '
                        f'["x1", "x5"]], "whiskers": [{whiskers}]}}')
        bad_whiskers.append(("check-vd", str(path)))
    # one leaf listed twice at its support
    twice = tmp_path / "leaf_twice.graph"
    twice.write_text('{"vertices": ["a", "b", "c"], "edges": [["a", "b"], ["a", "c"]], '
                     '"whiskers": [{"support": "a", "leaf": "c"}, {"support": "a", "leaf": "c"}]}')
    bad_whiskers.append(("check-vd", str(twice)))
    # a JSON string where a list belongs would be iterated as characters;
    # a name with whitespace could not be written in the text format
    not_lists = []
    for i, doc in enumerate(('{"vertices": "ab", "edges": []}',
                             '{"vertices": ["a", "b"], "edges": "ab"}',
                             '{"vertices": ["a", "b"], "edges": ["ab"]}',
                             '{"edges": []}',
                             '{"vertices": ["a b", "c"], "edges": [["a b", "c"]]}')):
        path = tmp_path / f"not_list{i}.graph"
        path.write_text(doc)
        not_lists.append(("check-vd", str(path)))
    for argv in (
        ("verify", "main", "--graph", c4_path, "--S", "x1", "--counts", "x1=x"),
        ("verify", "star", "--graph", c4_path, "--S", "x1", "--spec", "x1:x"),
        ("check-vd", str(no_support)),
        ("check-vd", str(truncated)),
        *bad_whiskers,
        *not_lists,
        ("verify", "main", "--graph", c4_path, "--S", "x1", "--k", "0"),
        ("verify", "main", "--graph", c4_path, "--k", "-1"),
        ("verify", "star", "--graph", c4_path, "--S", "x1", "--spec", "x1:2", "--k", "0"),
        ("verify", "edge", "--graph", str(FIXTURES / "c4.graph"), "--S", "x1",
         "--counts", "x1=1,x9=4", "--k", "1"),
        # one vertex named twice: by two attachments, or by two counts
        ("verify", "star", "--graph", c4_path, "--S", "x1", "--spec", "x1:3", "--spec", "x1:2"),
        ("verify", "main", "--graph", c4_path, "--S", "x1", "--counts", "x1=1,x1=2"),
        # a shared edge names exactly two vertices
        ("verify", "glue", "--graph", str(FIXTURES / "glue_g.graph"),
         "--graph2", str(FIXTURES / "glue_h.graph"), "--edge", "x1,x2,bogus"),
    ):
        code, out, err = run(capsys, *argv)
        assert code == 2, argv
        assert err.startswith("error: ") and err.count("\n") == 1, (argv, err)
    with pytest.raises(SystemExit) as exc:
        run(capsys, "no-such-command")
    assert exc.value.code == 2


def test_verify_reports_whisker_counts(capsys, tmp_path):
    # three whiskers at a make another graph and so another scenario; one
    # whisker at each support is the default and keeps the default's bytes
    path = tmp_path / "triangle.graph"
    save_graph(build_graph(["a", "b", "c"], [("a", "b"), ("b", "c"), ("a", "c")]), str(path))
    for theorem in ("main", "edge"):
        argv = ("verify", theorem, "--graph", str(path), "--S", "a", "--k", "1")
        plain = run(capsys, *argv)
        assert run(capsys, *argv, "--counts", "a=1") == plain
        code, out, _ = run(capsys, *argv, "--counts", "a=3")
        assert code == 0 and out != plain[1]
        assert out.startswith(f"scenario: verify-{theorem}/a9d04d098b01/S=a/counts=a=3/")
        assert "input S: a\ninput counts: a=3\n" in out


def test_verify_edge_accepts_constant_k(capsys, c4_path):
    code, out, _ = run(capsys, "verify", "edge", "--graph", c4_path, "--S", "x1",
                       "--k", "2")
    assert code == 0
    assert "overall: PASS" in out
    assert "step whisker-dominance: observed=yes" in out


def test_verify_edge_constant_k_counts_whiskers_once(capsys):
    # a repeated support or a count for a vertex outside S adds no whisker
    c4_graph = str(FIXTURES / "c4.graph")
    for extra in (("--S", "x1,x1"), ("--S", "x1", "--counts", "x1=1,x2=1")):
        code, out, err = run(capsys, "verify", "edge", "--graph", c4_graph, *extra,
                             "--k", "1")
        assert code == 0, (extra, err)
        assert "t=1,1,1,1,1" in out


def test_python_dash_m_runs_the_cli(tmp_path):
    src = str(Path(symcover.__file__).resolve().parent.parent)
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(
        filter(None, (src, os.environ.get("PYTHONPATH")))))
    ok = subprocess.run([sys.executable, "-m", "symcover", "check-vd", str(FIXTURES / "p3.graph")],
                        capture_output=True, text=True, env=env)
    assert (ok.returncode, ok.stdout) == (0, "vertex decomposable: yes\n")
    bad = subprocess.run([sys.executable, "-m", "symcover", "check-vd",
                          str(tmp_path / "missing.graph")],
                         capture_output=True, text=True, env=env)
    assert bad.returncode == 2 and bad.stderr.startswith("error: ")


def test_search_cli_sorted_output(capsys):
    # below 8 vertices the ids sort in enumeration order, the order printed
    for max_vertices, mode in (("3", "ii"), ("5", "i")):
        code, out, _ = run(capsys, "search", "--max-vertices", max_vertices, "--max-k", "2",
                           "--mode", mode)
        assert code == 0
        ids = [line.split(": ", 1)[1] for line in out.splitlines()
               if line.startswith("scenario:")]
        assert ids == sorted(ids) and ids, mode


def test_emit_reports_keeps_the_given_order(capsys):
    # at 8 vertices "g1000" sorts before "g101" although it comes later
    reports = [ScenarioReport(f"search-i/n8/{g}/S1:x1", {}) for g in ("g101", "g1000")]
    for fmt in ("text", "json"):
        _emit_reports(reports, fmt)
        out = capsys.readouterr().out
        assert out.index("/g101/") < out.index("/g1000/"), fmt


def test_fixture_scenarios_behave_as_pinned(capsys):
    spec = json.loads((FIXTURES / "scenarios.json").read_text())
    for scenario in spec["scenarios"]:
        argv = [
            str(FIXTURES / arg[1:]) if arg.startswith("@") else arg
            for arg in scenario["argv"]
        ]
        code = main(argv)
        out = capsys.readouterr().out
        assert code == scenario["expect_exit"], scenario["name"]
        if "expect_overall" in scenario:
            assert f"overall: {scenario['expect_overall']}" in out, scenario["name"]
        if "expect_step" in scenario:
            want = scenario["expect_step"]
            line = f"step {want['name']}: observed={want['observed']}"
            assert line in out, scenario["name"]


# sha256 prefixes of stdout, taken before cover ideals were read off the
# symbolic-power rule and the verifiers shared one report preamble
FIXTURE_SCENARIO_DIGESTS = {
    "c4-cover-ideal": ("9025c21dbf17", "246bd158834a"),
    "c4-symbolic-square": ("c3852967b88b", "abff6c24588f"),
    "c4-symbolic-square-polarized": ("6d4a0fe7f0ff", "8ac7546aa9ba"),
    "p3-cover-linear-quotients": ("c85385c35d4c", "de52d4e891b7"),
    "whiskered-fish-check-vd": ("0b190c5867d7", "7b57ed0a8658"),
    "fivevertex-main-theorem-k2": ("81dac8dd45d3", "b75c6c0acf72"),
    "fish-misses-cycle-k2-breaks": ("12674bcd8f01", "f459eefccb68"),
    "c4-edge-duplication-constant-2": ("ede466dedbd7", "ecadcb31dc07"),
    "c4-edge-duplication-boundary": ("deb5295f8d92", "8f21ee724b5a"),
    "c4-star-nonpure-triangle-plus-whisker": ("6ade12901a6c", "7f2a8a098c76"),
    "c4-star-pure-triangle-breaks": ("e101bf26072f", "2c75316e4861"),
    "glue-two-wheels-identity-tuple": ("cb68a0a3eb7f", "a2fc9c452f1a"),
    "glue-whiskered-triangles-constant-2": ("0339516baea7", "e5e6c28e65d3"),
    "search-mode-i-smoke": ("3f1ced81bb21", "21e173d2e7f5"),
    "search-mode-ii-smoke": ("e93678d12152", "2423a2f7622b"),
}
CERTIFICATE_DIGESTS = {
    "c4.graph": ("6ca5d7b913bf", "52eefa45eb72"),
    "fish.graph": ("c223d0be94e9", "448281c7b657"),
    "fish_whiskered.graph": ("0b190c5867d7", "7b57ed0a8658"),
    "fivevertex.graph": ("7ce842a90833", "64425b9462c0"),
    "glue_g.graph": ("1421382f9682", "6bdf48667cb8"),
    "glue_h.graph": ("0013f1b17fd1", "b578fde0a9d7"),
    "p3.graph": ("4a1481407140", "aa766be97eaf"),
    "triangle_whiskered.graph": ("1f2281a9730e", "5c930603e991"),
}


def fixture_argvs():
    spec = json.loads((FIXTURES / "scenarios.json").read_text())
    for scenario in spec["scenarios"]:
        argv = [str(FIXTURES / a[1:]) if a.startswith("@") else a for a in scenario["argv"]]
        yield pytest.param(argv, FIXTURE_SCENARIO_DIGESTS.get(scenario["name"]),
                           id=scenario["name"])
    for path in sorted(FIXTURES.glob("*.graph")):
        yield pytest.param(["check-vd", str(path), "--certificate"],
                           CERTIFICATE_DIGESTS.get(path.name), id=f"certificate-{path.name}")


def assert_output_pinned(capsys, argv, digests):
    for fmt, digest in zip(("text", "json"), digests):
        main([*argv, "--format", fmt])
        out = capsys.readouterr().out
        assert hashlib.sha256(out.encode()).hexdigest()[:12] == digest, (argv, fmt)


@pytest.mark.parametrize("argv, digests", fixture_argvs())
def test_fixture_output_is_pinned(capsys, argv, digests):
    assert digests is not None, "a new fixture needs its output pinned here"
    assert_output_pinned(capsys, argv, digests)


def test_outputs_no_fixture_reaches_are_pinned(capsys, tmp_path):
    # a "no" from linear-quotients, and the whole-ring ideal of an edgeless graph
    main(["symbolic-power", str(FIXTURES / "fish.graph"), "--k", "2"])
    fish_square = tmp_path / "fish2.ideal"
    fish_square.write_text(capsys.readouterr().out)
    assert run(capsys, "linear-quotients", str(fish_square))[0] == 1
    assert_output_pinned(capsys, ["linear-quotients", str(fish_square)],
                         ("a881adfab145", "4de57f7fd9f0"))
    edgeless = tmp_path / "edgeless.graph"
    edgeless.write_text("vertices: a b\n")
    assert_output_pinned(capsys, ["cover-ideal", str(edgeless)], ("3b304100cdfb", "a9155f7d54f6"))
