import json
import subprocess
import sys

import pytest

from interlacement import ParseError, PartitionProfile, hierholzer
from interlacement import random_matching_graph
from interlacement.cli import (
    format_graph,
    format_transitions,
    main,
    parse_graph,
    parse_transitions,
)
from conftest import graph_four_parallel, graph_loop_plus_parallel

G4PAR = """\
# four parallel edges
vertices: u v
edge u.0 v.0
edge u.1 v.1
edge u.2 v.2
edge u.3 v.3
"""

LOOPS = """\
vertices: a
edge a.0 a.1
edge a.2 a.3
"""


@pytest.fixture
def g4_file(tmp_path):
    p = tmp_path / "g4.graph"
    p.write_text(G4PAR)
    return str(p)


@pytest.fixture
def loops_file(tmp_path):
    p = tmp_path / "loops.graph"
    p.write_text(LOOPS)
    return str(p)


def test_parse_graph_golden():
    g = parse_graph(G4PAR)
    assert g == graph_four_parallel()


def test_graph_round_trip():
    for g in (graph_four_parallel(), graph_loop_plus_parallel()):
        assert parse_graph(format_graph(g)) == g


def test_parse_graph_errors():
    with pytest.raises(ParseError, match="no vertices line"):
        parse_graph("")
    with pytest.raises(ParseError, match="line 1"):
        parse_graph("edge a.0 a.1")
    with pytest.raises(ParseError, match="unknown vertex"):
        parse_graph("vertices: a\nedge a.0 b.1\nedge a.2 a.3")
    err = None
    try:
        parse_graph("vertices: a\nedge a.0 a.1\nedge a.1 a.2")
    except ParseError as exc:
        err = exc
    assert err is not None and err.lineno == 3
    assert "line 2" in str(err)  # points back at the first use
    with pytest.raises(ParseError, match="slot must be 0..3"):
        parse_graph("vertices: a\nedge a.0 a.7")
    with pytest.raises(ParseError, match="paired with itself"):
        parse_graph("vertices: a\nedge a.0 a.0")
    with pytest.raises(ParseError, match="unrecognized"):
        parse_graph("vertices: a\nfrob a.0 a.1")


def test_transitions_round_trip():
    g = graph_loop_plus_parallel()
    c = hierholzer(g)
    text = format_transitions(g, c.ts)
    assert parse_transitions(text, g) == c.ts


def test_parse_transitions_labels():
    g = graph_four_parallel()
    c = hierholzer(g)
    ts = parse_transitions("u: psi\nv: psi\n", g, relative_to=c)
    assert ts.codes == tuple(c.psi_codes)
    ts2 = parse_transitions("u: phi\nv: chi\n", g, relative_to=c)
    assert ts2.codes == (c.ts.codes[0], c.chi_codes[1])


def test_parse_transitions_errors():
    g = graph_four_parallel()
    with pytest.raises(ParseError, match="needs a reference"):
        parse_transitions("u: psi\nv: psi\n", g)
    with pytest.raises(ParseError, match="no transition for v"):
        parse_transitions("u: 01|23\n", g)
    with pytest.raises(ParseError, match="assigned twice"):
        parse_transitions("u: 01|23\nu: 02|13\nv: 01|23\n", g)
    with pytest.raises(ParseError, match="unknown vertex"):
        parse_transitions("w: 01|23\n", g)
    with pytest.raises(ParseError, match="transition must be one of"):
        parse_transitions("u: 12|03\nv: 01|23\n", g)


def run_cli(capsys, *argv):
    code = main(list(argv))
    out = capsys.readouterr()
    return code, out.out, out.err


def test_validate(capsys, g4_file):
    code, out, err = run_cli(capsys, "validate", g4_file)
    assert code == 0
    assert out == "ok: 2 vertices, 4 edges, 1 component\n"


def test_validate_bad_file(capsys, tmp_path):
    p = tmp_path / "bad.graph"
    p.write_text("vertices: a\nedge a.0 a.1\n")
    code, out, err = run_cli(capsys, "validate", str(p))
    assert code == 1
    assert "error:" in err


def test_validate_missing_file(capsys, tmp_path):
    code, out, err = run_cli(capsys, "validate", str(tmp_path / "nope"))
    assert code == 1


def test_euler_golden(capsys, g4_file):
    code, out, err = run_cli(capsys, "euler", g4_file)
    assert code == 0
    assert out == "u: 03|12\nv: 01|23\n# word 0: u v u v\n"


def test_euler_two_components_two_words(capsys, tmp_path):
    p = tmp_path / "split.graph"
    p.write_text(
        "vertices: a u v\n"
        "edge a.0 a.1\nedge a.2 a.3\n"
        "edge u.0 v.0\nedge u.1 v.1\nedge u.2 v.2\nedge u.3 v.3\n"
    )
    code, out, _ = run_cli(capsys, "euler", str(p))
    assert code == 0
    assert "# word 0: a a" in out
    assert "# word 1: u v u v" in out


def test_matrix_of_own_euler_is_identity(capsys, tmp_path, g4_file):
    code, out, _ = run_cli(capsys, "euler", g4_file)
    euler_path = tmp_path / "self.ts"
    euler_path.write_text(out)
    code, out, _ = run_cli(
        capsys,
        "matrix",
        g4_file,
        "--euler",
        str(euler_path),
        "--partition",
        str(euler_path),
        "--json",
    )
    assert code == 0
    payload = json.loads(out)
    assert payload["matrix"] == [[1, 0], [0, 1]]
    assert payload["rank"] == 2
    assert payload["kernel"] == []


def test_euler_output_feeds_matrix(capsys, tmp_path, g4_file):
    code, out, _ = run_cli(capsys, "euler", g4_file)
    euler_path = tmp_path / "c.ts"
    euler_path.write_text(out)
    part = tmp_path / "p.ts"
    part.write_text("u: psi\nv: psi\n")
    code, out, err = run_cli(
        capsys,
        "matrix",
        g4_file,
        "--euler",
        str(euler_path),
        "--partition",
        str(part),
        "--json",
    )
    assert code == 0
    payload = json.loads(out)
    assert payload == {
        "vertices": ["u", "v"],
        "matrix": [[1, 1], [1, 1]],
        "rank": 1,
        "kernel": [[1, 1]],
        "p_size": 2,
        "components": 1,
    }


def test_matrix_text_output(capsys, tmp_path, g4_file):
    part = tmp_path / "p.ts"
    part.write_text("u: psi\nv: psi\n")
    code, out, err = run_cli(
        capsys, "matrix", g4_file, "--partition", str(part)
    )
    assert code == 0
    lines = out.splitlines()
    assert lines[0].split() == ["u", "v"]
    assert lines[1].split() == ["u", "1", "1"]
    assert lines[2].split() == ["v", "1", "1"]
    assert "rank: 1" in lines
    assert "kernel: 11" in lines
    assert "circuits: 2" in lines
    assert "components: 1" in lines


def test_matrix_json_key_order(capsys, tmp_path, g4_file):
    part = tmp_path / "p.ts"
    part.write_text("u: 01|23\nv: 01|23\n")
    code, out, _ = run_cli(
        capsys, "matrix", g4_file, "--partition", str(part), "--json"
    )
    assert code == 0
    assert list(json.loads(out)) == [
        "vertices",
        "matrix",
        "rank",
        "kernel",
        "p_size",
        "components",
    ]


def test_matrix_relative_to(capsys, tmp_path, g4_file):
    # labels may reference a different euler system than the matrix one
    euler = tmp_path / "c.ts"
    euler.write_text("u: 03|12\nv: 01|23\n")
    part = tmp_path / "p.ts"
    part.write_text("u: chi\nv: chi\n")
    code, out, _ = run_cli(
        capsys,
        "matrix",
        g4_file,
        "--euler",
        str(euler),
        "--partition",
        str(part),
        "--relative-to",
        str(euler),
        "--json",
    )
    assert code == 0
    assert json.loads(out)["matrix"] == [[0, 1], [1, 0]]


def test_orbit_golden(capsys, g4_file):
    code, out, err = run_cli(capsys, "orbit", g4_file)
    assert code == 0
    lines = out.splitlines()
    assert lines[-1] == "count: 6"
    assert len(lines) == 7
    assert lines[0] == "u:01|23 v:02|13"
    assert lines == sorted(lines[:-1]) + ["count: 6"]


def test_orbit_limit_guard(capsys, g4_file):
    code, out, err = run_cli(capsys, "orbit", g4_file, "--limit", "3")
    assert code == 3
    assert "guard:" in err


def test_profile_golden(capsys, loops_file):
    code, out, err = run_cli(capsys, "profile", loops_file)
    assert code == 0
    assert out == "1:2 2:1\n"


def test_profile_both_engines(capsys, g4_file):
    code, out, err = run_cli(capsys, "profile", g4_file, "--engine", "both")
    assert code == 0
    assert out == "1:6 2:3\nengines agree\n"


def test_profile_nullity_engine(capsys, g4_file):
    code, out, err = run_cli(capsys, "profile", g4_file, "--engine", "nullity")
    assert code == 0
    assert out == "1:6 2:3\n"


def test_verify_exhaustive(capsys, g4_file):
    code, out, err = run_cli(capsys, "verify", g4_file, "--exhaustive")
    assert code == 0
    assert "all properties verified" in out
    for name in (
        "local-complement transform",
        "naturality",
        "inverse",
        "core-kernel equality",
        "circuit nullity",
        "core independence",
        "kotzig closure",
        "label exchange",
    ):
        assert f"pass {name}:" in out


def test_verify_samples_deterministic(capsys, g4_file):
    code1, out1, _ = run_cli(
        capsys, "verify", g4_file, "--samples", "10", "--seed", "5"
    )
    code2, out2, _ = run_cli(
        capsys, "verify", g4_file, "--samples", "10", "--seed", "5"
    )
    assert code1 == code2 == 0
    assert out1 == out2


def test_verify_random_graphs(capsys):
    code, out, err = run_cli(
        capsys, "verify", "--samples", "3", "--size", "4", "--seed", "1"
    )
    assert code == 0
    assert "graphs: 3 generated, 4 vertices each" in out


def test_verify_self_test_corrupt(capsys, g4_file):
    code, out, err = run_cli(
        capsys, "verify", g4_file, "--samples", "3", "--self-test-corrupt"
    )
    assert code == 0
    assert "self test ok" in out
    assert "FAIL local-complement transform" in out


def test_profile_invariant_breach_exits_two(capsys, g4_file, monkeypatch):
    def broken(g, **kwargs):
        PartitionProfile({1: 1}, g.n, g.c).validate()

    monkeypatch.setattr("interlacement.cli.profile_by_tracing", broken)
    code, out, err = run_cli(capsys, "profile", g4_file)
    assert code == 2 and "impossible" in err and "Traceback" not in err


def test_verify_requires_mode(capsys, g4_file):
    code, out, err = run_cli(capsys, "verify", g4_file)
    assert code == 1


def test_verify_exhaustive_needs_file(capsys):
    code, out, err = run_cli(capsys, "verify", "--exhaustive")
    assert code == 1


def test_unknown_flag_exits_one(capsys, g4_file):
    code, out, err = run_cli(capsys, "validate", g4_file, "--frobnicate")
    assert code == 1


def test_help_exits_zero(capsys):
    code, out, err = run_cli(capsys, "--help")
    assert code == 0
    assert "validate" in out and "verify" in out


def test_console_script_byte_identical_threads(tmp_path):
    # same profile through the installed entry point, single and multi
    # threaded, must be byte for byte identical
    p = tmp_path / "g.graph"
    g = random_matching_graph(8, seed=3)
    p.write_text(format_graph(g))
    runs = []
    for threads in ("1", "4"):
        proc = subprocess.run(
            [
                sys.executable,
                "-m",
                "interlacement",
                "profile",
                str(p),
                "--threads",
                threads,
            ],
            capture_output=True,
            text=True,
        )
        runs.append(proc)
    assert all(r.returncode == 0 for r in runs)
    assert runs[0].stdout == runs[1].stdout
    assert runs[0].stdout.endswith("\n")
