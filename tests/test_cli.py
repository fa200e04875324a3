from __future__ import annotations

import hashlib
import json
import os
import resource
import subprocess
import sys
from pathlib import Path

import pytest

import symcover
from symcover.cli import _emit_reports, build_parser, main
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


def test_check_vd_certificate_has_one_line_per_component(capsys, tmp_path):
    # P_300's components are the suffixes from p0, p2, p3, ..., p298
    names = [f"p{i}" for i in range(300)]
    path = tmp_path / "p300.graph"
    save_graph(build_graph(names, list(zip(names, names[1:]))), str(path))
    code, out, _ = run(capsys, "check-vd", str(path), "--certificate")
    lines = out.splitlines()
    assert code == 0 and len(lines) == 1 + 298
    assert lines[:2] == ["vertex decomposable: yes", f"shed p1 from {{{', '.join(names)}}}"]
    assert lines[-1] == "shed p298 from {p298, p299}"
    edgeless = tmp_path / "edgeless.graph"
    edgeless.write_text("vertices: a b\n")
    assert run(capsys, "check-vd", str(edgeless), "--certificate")[:2] == (
        0, "vertex decomposable: yes\n")


def test_check_vd_no(capsys, c4_path):
    code, out, _ = run(capsys, "check-vd", c4_path)
    assert code == 1
    assert out.strip() == "vertex decomposable: no"


def test_check_vd_without_certificate_skips_it(capsys, tmp_path, monkeypatch):
    # the certificate is as large as the engine's memo, but the verdict
    # alone needs none, so the verdict path never builds one
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


# stdout of ``symcover polarize``, text and json, pinned as the slot-by-slot
# polarization wrote it
POLARIZE_OUTPUTS = [
    ("x^3*y\nx*y^2\n",
     "variables: x.1 x.2 x.3 y.1 y.2\nx.1*y.1*y.2\nx.1*x.2*x.3*y.1\n",
     {"generators": ["x.1*y.1*y.2", "x.1*x.2*x.3*y.1"],
      "variables": ["x.1", "x.2", "x.3", "y.1", "y.2"], "whole_ring": False}),
    # a variable that already reads as a slot gets slots of its own
    ("variables: a a.1\na^2*a.1\n",
     "variables: a.1 a.2 a.1.1\na.1*a.2*a.1.1\n",
     {"generators": ["a.1*a.2*a.1.1"], "variables": ["a.1", "a.2", "a.1.1"],
      "whole_ring": False}),
    ("variables: x y\n",
     "variables: \n",
     {"generators": [], "variables": [], "whole_ring": False}),
    ("variables: x y\nwhole-ring\n",
     "variables: x y\nwhole-ring\n",
     {"generators": [], "variables": ["x", "y"], "whole_ring": True}),
]


@pytest.mark.parametrize("source,text,as_json", POLARIZE_OUTPUTS)
def test_polarize_output_is_pinned(capsys, tmp_path, source, text, as_json):
    path = tmp_path / "in.ideal"
    path.write_text(source)
    assert run(capsys, "polarize", str(path)) == (0, text, "")
    code, out, err = run(capsys, "polarize", str(path), "--format", "json")
    assert (code, err) == (0, "")
    assert out == json.dumps(as_json, indent=2, sort_keys=True) + "\n"


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


def test_parser_built_once_keeps_no_state_between_calls(capsys, c4_path):
    # main reuses one parser per process, so a repeated --spec must not pile
    # up in the default list of later calls
    argv = ("verify", "star", "--graph", c4_path, "--S", "x1",
            "--spec", "x1:3", "--spec", "x3:2", "--k", "2")
    first, second = run(capsys, *argv), run(capsys, *argv)
    assert first == second and first[0] == 0
    assert "input specs: x1:3;x3:2\n" in first[1]
    assert build_parser() is build_parser()
    assert build_parser().parse_args(["verify", "main", "--graph", c4_path]).spec == []


def test_linear_quotients_no_on_whiskered_fish_cube(capsys, tmp_path):
    code, out, _ = run(capsys, "symbolic-power", str(FIXTURES / "fish_whiskered.graph"), "--k", "3")
    assert code == 0
    ideal_path = tmp_path / "wf3.ideal"
    ideal_path.write_text(out)
    code, out, _ = run(capsys, "linear-quotients", str(ideal_path))
    assert (code, out) == (1, "linear quotients: no\n")


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
    # nested past the JSON reader's recursion limit
    too_deep = tmp_path / "too_deep.graph"
    too_deep.write_text('{"vertices": ' + "[" * 100_000)
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
    # each vertex a leaf of the other, so each leaf is also a support
    crossed = tmp_path / "leaf_is_support.graph"
    crossed.write_text('{"vertices": ["a", "b"], "edges": [["a", "b"]], '
                       '"whiskers": [{"support": "a", "leaf": "b"}, {"support": "b", "leaf": "a"}]}')
    bad_whiskers.append(("check-vd", str(crossed)))
    # a key the reader does not know, at the top level or in a whisker entry:
    # a misspelt "edges" would otherwise drop its edges without a word
    for i, doc in enumerate(('{"vertices": ["a", "b", "c"], "edges": [["a", "b"], ["b", "c"]], '
                             '"edge": [["a", "c"]]}',
                             '{"vertices": ["a", "b"], "edges": [["a", "b"]], '
                             '"whiskers": [{"support": "a", "leaf": "b", "leaves": ["b"]}]}')):
        path = tmp_path / f"unknown_key{i}.graph"
        path.write_text(doc)
        bad_whiskers.append(("check-vd", str(path)))
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
    # files that are not UTF-8; ideal variables the text format cannot read
    # back (whitespace, '*', '^', a leading '#', the unit "1"), whether read
    # from an ideal or written from a graph's vertex names; an exponent too
    # large for a slot mask
    bad_files = []
    for i, (command, data) in enumerate((("check-vd", b"vertices: a b\xff\nedge: a b\n"),
                                         ("polarize", b"x\xff*y\n"),
                                         ("polarize", b"x y*z\n"),
                                         ("polarize", b"x*#a\ny\n"),
                                         ("polarize", b"variables: a*b c\nc\n"),
                                         ("polarize", b"variables: a^2 c\nc\n"),
                                         ("polarize", b"variables: 1 c\nc\n"),
                                         ("cover-ideal", b'{"vertices": ["a*b", "c"], '
                                                         b'"edges": [["a*b", "c"]]}'),
                                         ("cover-ideal", b'{"vertices": ["#a", "c"], '
                                                         b'"edges": [["#a", "c"]]}'),
                                         ("cover-ideal", b"vertices: 1 2\nedge: 1 2\n"),
                                         ("polarize", b"x^10001\n"))):
        path = tmp_path / f"bad_file{i}.txt"
        path.write_bytes(data)
        bad_files.append((command, str(path)))
    power_name = tmp_path / "power_name.graph"
    power_name.write_text('{"vertices": ["a^2", "c"], "edges": [["a^2", "c"]]}')
    for argv in (
        *bad_files,
        ("verify", "main", "--graph", c4_path, "--S", "x1", "--counts", "x1=x"),
        ("verify", "star", "--graph", c4_path, "--S", "x1", "--spec", "x1:x"),
        ("symbolic-power", str(power_name), "--k", "2"),
        ("check-vd", str(no_support)),
        ("check-vd", str(truncated)),
        ("check-vd", str(too_deep)),
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
        ("verify", "glue", "--graph", c4_path),
        # a flag the theorem does not read
        ("verify", "star", "--graph", c4_path, "--S", "x1", "--spec", "x1:3,2", "--k", "1",
         "--counts", "x1=3", "--tuple", "9,9"),
        ("verify", "main", "--graph", c4_path, "--S", "x1", "--tuple", "1,1,1,1,1"),
        ("verify", "edge", "--graph", c4_path, "--S", "x1", "--spec", "x1:2"),
        ("verify", "star", "--graph", c4_path, "--S", "x1", "--spec", "x1:2", "--edge", "x1,x2"),
        ("verify", "glue", "--graph", str(FIXTURES / "glue_g.graph"),
         "--graph2", str(FIXTURES / "glue_h.graph"), "--edge", "x1,x2", "--S", "x3",
         "--counts", "x3=2", "--spec", "x1:3"),
    ):
        code, out, err = run(capsys, *argv)
        assert code == 2, argv
        assert err.startswith("error: ") and err.count("\n") == 1, (argv, err)
    with pytest.raises(SystemExit) as exc:
        run(capsys, "no-such-command")
    assert exc.value.code == 2


@pytest.mark.parametrize("doc", [
    '{"vertices": [true, null], "edges": [[true, null]]}',
    '{"vertices": [1, 2], "edges": [[1, 2]]}',
    '{"vertices": ["a", "b"], "edges": [["a", 2]]}',
    '{"vertices": [["a"], "b"], "edges": []}',
    '{"vertices": ["a", "b"], "edges": [["a", "b"]], "whiskers": [{"support": "a", "leaf": 1}]}',
    '{"vertices": ["a", "b"], "edges": [["a", "b"]], "whiskers": [{"support": null, "leaf": "b"}]}',
    '{"vertices": ["a", "b"], "edges": [["a", "b"]], "whiskers": 0}',
    '{"vertices": ["a", "b"], "edges": [["a", "b"]], "whiskers": {}}',
    '{"vertices": ["a", "b"], "edges": [["a", "b"]], "whiskers": null}',
], ids=["true-null", "numbers", "number-endpoint", "nested-list", "number-leaf",
        "null-support", "whiskers-0", "whiskers-object", "whiskers-null"])
def test_json_graph_names_are_strings(capsys, tmp_path, doc):
    # a vertex name is a JSON string, never a value coerced to text, and
    # whiskers, when present, are a list
    path = tmp_path / "bad.graph"
    path.write_text(doc)
    code, out, err = run(capsys, "check-vd", str(path))
    assert (code, out) == (2, ""), doc
    assert err.startswith("error: malformed graph document") and err.count("\n") == 1, err


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


HUGE = "99999999999999999999"
GLUE = ("--graph", str(FIXTURES / "glue_g.graph"), "--graph2", str(FIXTURES / "glue_h.graph"),
        "--edge", "x1,x2")


@pytest.mark.parametrize("argv, bound", [
    (("symbolic-power", "{c4}", "--k", HUGE), "10000"),
    (("verify", "main", "--graph", "{c4}", "--S", "x1", "--k", "5000000000"), "10000"),
    (("verify", "edge", "--graph", "{c4}", "--S", "x1", "--tuple", f"1,1,1,1,{HUGE}"), "10000"),
    (("verify", "glue", *GLUE, "--tuple", "1,1,1,1,1,1", "--tuple2", "1,1,1,10001"), "10000"),
    (("verify", "main", "--graph", "{c4}", "--S", "x1", "--counts", f"x1={HUGE}", "--k", "1"),
     "10000"),
    (("verify", "star", "--graph", "{c4}", "--S", "x1", "--spec", f"x1:3,{HUGE}", "--k", "1"),
     "500"),
], ids=["k", "verify-k", "tuple", "tuple2", "counts", "spec"])
def test_multiplicity_flags_are_bounded(capsys, c4_path, argv, bound):
    # every multiplicity read from the command line has the exponent bound
    # of the ideal reader: J(G)^(k) has generators with exponent k, so a
    # larger one would print an ideal that does not load.  A --spec clique
    # size has the smaller clique bound.
    code, out, err = run(capsys, *(arg.format(c4=c4_path) for arg in argv))
    assert (code, out) == (2, "")
    assert err.startswith("error: ") and err.count("\n") == 1 and bound in err, err


def test_spec_clique_size_has_its_own_bound(capsys, c4_path):
    # a clique of s vertices has s(s - 1)/2 edges, so its size is bounded far
    # below the multiplicity bound: x1:3000 used to run out of memory
    argv = ("verify", "star", "--graph", c4_path, "--S", "x1", "--k", "1", "--spec")
    for spec, size in (("x1:501", 501), ("x1:3,3000", 3000)):
        code, out, err = run(capsys, *argv, spec)
        assert (code, out) == (2, ""), spec
        assert err == f"error: --spec value {size} is above 500\n"
    code, out, err = run(capsys, *argv, "x1:500")
    assert code == 0, err


def test_verify_k_must_fill_a_tuple(capsys, c4_path):
    # --k fills a tuple that is not given, so next to every tuple it would
    # be dropped without a word
    for argv in (("edge", "--graph", c4_path, "--S", "x1", "--tuple", "2,2,2,2,2"),
                 ("glue", *GLUE, "--tuple", "1,1,1,1,1,1", "--tuple2", "1,1,1,1")):
        code, out, err = run(capsys, "verify", *argv, "--k", "3")
        assert (code, out) == (2, ""), argv
        assert err == f"error: --k does not apply to verify {argv[0]} when every tuple is given\n"
    glue = ("verify", "glue", *GLUE, "--tuple", "1,1,1,1,1,1")
    assert run(capsys, *glue, "--k", "1") == run(capsys, *glue, "--tuple2", "1,1,1,1")
    edge = ("verify", "edge", "--graph", c4_path, "--S", "x1")
    assert run(capsys, *edge) == run(capsys, *edge, "--tuple", "2,2,2,2,2")
    # main and star read --k as their duplication bound, 2 by default
    for extra in (("main",), ("star", "--spec", "x1:3")):
        argv = ("verify", *extra, "--graph", c4_path, "--S", "x1")
        assert run(capsys, *argv) == run(capsys, *argv, "--k", "2")


def run_child(*argv, **kwargs):
    """``python -m symcover`` on ``argv`` in a child process, on this checkout's sources."""
    src = str(Path(symcover.__file__).resolve().parent.parent)
    env = dict(os.environ, PYTHONDONTWRITEBYTECODE="1", PYTHONPATH=os.pathsep.join(
        filter(None, (src, os.environ.get("PYTHONPATH")))))
    return subprocess.run([sys.executable, "-m", "symcover", *argv],
                          capture_output=True, text=True, env=env, **kwargs)


def test_python_dash_m_runs_the_cli(tmp_path):
    ok = run_child("check-vd", str(FIXTURES / "p3.graph"))
    assert (ok.returncode, ok.stdout) == (0, "vertex decomposable: yes\n")
    bad = run_child("check-vd", str(tmp_path / "missing.graph"))
    assert bad.returncode == 2 and bad.stderr.startswith("error: ")


def test_verify_star_runs_in_small_memory():
    # G_4 of C4 with a 500-clique at x1 has 2,012 shadows and 1.25 million
    # shadow edges; decided on rows it fits in 200 MB of address space, which
    # a named graph with a string per shadow and a tuple per edge does not
    def limit_memory():
        resource.setrlimit(resource.RLIMIT_AS, (200 << 20, 200 << 20))

    done = run_child("verify", "star", "--graph", str(FIXTURES / "c4.graph"), "--S", "x1",
                     "--spec", "x1:500", "--k", "4", preexec_fn=limit_memory)
    assert done.returncode == 0, done.stderr[-300:]


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
# symbolic-power rule and the verifiers shared one report preamble; a
# certificate printed for a "yes" was re-pinned when it became one line per
# component
FIXTURE_SCENARIO_DIGESTS = {
    "c4-cover-ideal": ("9025c21dbf17", "246bd158834a"),
    "c4-symbolic-square": ("c3852967b88b", "abff6c24588f"),
    "c4-symbolic-square-polarized": ("6d4a0fe7f0ff", "8ac7546aa9ba"),
    "p3-cover-linear-quotients": ("c85385c35d4c", "de52d4e891b7"),
    "whiskered-fish-check-vd": ("1cd88299a890", "9088fa85c80e"),
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
    "fish.graph": ("b23be190a0c7", "78075a69c5e6"),
    "fish_whiskered.graph": ("1cd88299a890", "9088fa85c80e"),
    "fivevertex.graph": ("773edf7e7819", "eee46c534477"),
    "glue_g.graph": ("307d70937670", "1c10d54dfe08"),
    "glue_h.graph": ("3bba7db5bbdc", "bb513892c6ec"),
    "p3.graph": ("caa80b5154a7", "1cc9ffe5fe2c"),
    "triangle_whiskered.graph": ("f46d552a3efe", "a3c6fd8ef452"),
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
    # the verifiers decide on rows, which give an isolated vertex no shadows
    triangle = tmp_path / "triangle_and_isolated.graph"
    triangle.write_text("vertices: a b c d\nedge: a b\nedge: b c\nedge: a c\n")
    for graph, argv, digests in (
        (triangle, ["main", "--S", "a", "--k", "2"], ("6517317d2f47", "54b127078fc4")),
        (triangle, ["edge", "--S", "a", "--k", "2"], ("2d729f050ec5", "64823c5421af")),
        (triangle, ["edge", "--S", "a", "--tuple", "1,2,1,2"], ("54e3aa364b3a", "c33970052dcf")),
        (triangle, ["star", "--S", "a", "--spec", "a:3,2", "--k", "2"],
         ("f8137ec5a828", "b87e5a128ed0")),
        (edgeless, ["main", "--k", "2"], ("e528190c013d", "d70178c7e8be")),
        (edgeless, ["edge", "--k", "2"], ("38a0683969a7", "b309e2bb355c")),
        (edgeless, ["star", "--S", "a", "--spec", "a:2", "--k", "2"],
         ("783c2db74c8e", "8ca33e0726ac")),
    ):
        assert_output_pinned(capsys, ["verify", argv[0], "--graph", str(graph), *argv[1:]], digests)
