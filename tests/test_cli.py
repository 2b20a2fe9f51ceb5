import contextlib
import io
import json
import subprocess
import sys

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from interlacement import TRANSITIONS, ParseError, PartitionProfile, hierholzer
from interlacement import TooLarge
from interlacement import profile_by_tracing, random_matching_graph
from interlacement import profile as profile_module
from interlacement.cli import (
    format_graph,
    format_transitions,
    main,
    parse_graph,
    parse_transitions,
)
from conftest import (
    graph_four_parallel,
    graph_loop_plus_parallel,
    plant_walk_without_swap,
    two_component_graphs,
)
from oracles import kotzig_orbit_by_tracing

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
    with pytest.raises(ParseError, match="line 2: duplicate vertices line"):
        parse_graph("vertices: a\nvertices: b")
    with pytest.raises(ParseError, match="line 1: duplicate vertex name"):
        parse_graph("vertices: a b a")
    with pytest.raises(ParseError, match="line 2: expected 'edge a.i b.j'"):
        parse_graph("vertices: a\nedge a.0 a.1 a.2")
    with pytest.raises(ParseError, match="line 2: expected 'vertex.slot'"):
        parse_graph("vertices: a\nedge a0 a.1")


def test_parse_error_exits_one_with_line(capsys, tmp_path):
    # a parse error reaches the user as one line naming the input line
    p = tmp_path / "bad.graph"
    p.write_text("vertices: a\nedge a.0 .1\nedge a.2 a.3\n")
    code, out, err = run_cli(capsys, "validate", str(p))
    assert (code, out) == (1, "")
    assert err == "error: line 2: expected 'vertex.slot', got '.1'\n"


def test_parse_graph_tab_after_keyword(capsys, tmp_path):
    # a tab separates the fields as a space does, after either keyword
    p = tmp_path / "tabs.graph"
    text = G4PAR.replace("vertices: ", "vertices:\t").replace("edge u.0", "edge\tu.0")
    assert "edge\tu.0" in text
    p.write_text(text)
    assert parse_graph(text) == parse_graph(G4PAR)
    code, out, err = run_cli(capsys, "validate", str(p))
    assert (code, out, err) == (0, "ok: 2 vertices, 4 edges, 1 component\n", "")


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


@pytest.mark.parametrize(
    "argv",
    [
        ("verify", "G", "--samples", "0"),
        ("verify", "G", "--samples", "-2"),
        ("verify", "--size", "3", "--samples", "-1"),
        ("verify", "--samples", "3", "--size", "0"),
        ("orbit", "G", "--limit", "-1"),
        ("orbit", "G", "--limit", "0"),
    ],
)
def test_counts_below_one_exit_one(capsys, g4_file, argv):
    argv = [g4_file if a == "G" else a for a in argv]
    code, out, err = run_cli(capsys, *argv)
    assert code == 1 and out == ""
    assert f"argument {argv[-2]}: must be at least 1, got {argv[-1]}" in err


def test_count_flag_not_an_integer(capsys, g4_file):
    code, out, err = run_cli(capsys, "verify", g4_file, "--samples", "two")
    assert code == 1 and "invalid int value: 'two'" in err


def test_orbit_limit_guard(capsys, monkeypatch, g4_file):
    # the count refuses the graph before any orbit system is built
    def no_orbit(g, c):
        raise AssertionError("orbit walked before the limit check")

    monkeypatch.setattr("interlacement.euler.orbit_keys", no_orbit)
    code, out, err = run_cli(capsys, "orbit", g4_file, "--limit", "3")
    assert code == 3 and out == ""
    assert err == (
        "guard: orbit of 6 Euler systems exceeds the limit of 3; "
        "--limit raises it\n"
    )


@pytest.mark.parametrize(
    "g",
    [random_matching_graph(n, seed=s) for n in range(1, 10) for s in range(3)]
    + two_component_graphs(),
    ids=lambda g: f"n{g.n}-c{g.c}",
)
def test_orbit_output_renders_orbit_codes(capsys, tmp_path, g):
    # the listing from packed keys is byte for byte one line per member of
    # the orbit traced by the oracle, in code order, each transition
    # written out, then the count
    p = tmp_path / "g.graph"
    p.write_text(format_graph(g))
    orbit = kotzig_orbit_by_tracing(g, hierholzer(g))
    expected = "".join(
        " ".join(f"{v}:{TRANSITIONS[x].value}" for v, x in zip(g.vertices, e.ts.codes))
        + "\n"
        for e in orbit
    ) + f"count: {len(orbit)}\n"
    code, out, err = run_cli(capsys, "orbit", str(p))
    assert code == 0 and err == ""
    assert out == expected


def test_verify_exhaustive_guard_names_flag(capsys, monkeypatch, tmp_path):
    # the work estimate alone refuses the graph, before anything is swept,
    # and the message names the flag that raises the guard
    def no_sweep(g):
        raise AssertionError("sweep started before the work guard")

    monkeypatch.setattr("interlacement.verify.hierholzer", no_sweep)
    p = tmp_path / "g6.graph"
    p.write_text(format_graph(random_matching_graph(6, seed=0, connected=True)))
    code, out, err = run_cli(capsys, "verify", str(p), "--exhaustive")
    assert (code, out) == (3, "")
    assert err == (
        "guard: exhaustive sweep needs about 20183411 checks (limit 5000000); "
        "--force raises it\n"
    )


@pytest.mark.parametrize("mode", [("--samples", "2"), ("--exhaustive",)])
@pytest.mark.parametrize("n", [3, 4])
def test_verify_broken_walk_fails_closure(capsys, monkeypatch, tmp_path, mode, n):
    # an orbit walk that reaches a non-Euler system is a failed property,
    # exit 2, not bad input; the exhaustive sweep skips every property
    # over the orbit with the same reason
    plant_walk_without_swap(monkeypatch)
    p = tmp_path / "g.graph"
    p.write_text(format_graph(random_matching_graph(n, seed=0, connected=True)))
    code, out, err = run_cli(capsys, "verify", str(p), *mode)
    assert (code, err) == (2, "")
    lines = out.splitlines()
    at = lines.index("FAIL kotzig closure: 1 check")
    witness = lines[at + 1]
    assert witness.startswith("     counterexample: error=orbit member [v0:")
    assert witness.endswith(
        "] is not an Euler system: transition system traces 2 circuits, "
        "graph has 1 components"
    )
    reason = "kotzig closure failed: " + witness.split("error=", 1)[1]
    skipped = [line for line in lines if line.startswith("SKIP ")]
    if mode == ("--exhaustive",):
        assert skipped == [
            f"SKIP {name}: {reason}"
            for name in (
                "local-complement transform",
                "naturality",
                "inverse",
                "label exchange",
            )
        ]
        assert not any(line.startswith("orbit size:") for line in lines)
    else:
        assert skipped == []
    assert lines[-1] == "verification FAILED"


def test_orbit_count_mismatch_exits_two(capsys, monkeypatch, g4_file):
    # a walk that misses Euler systems is a failed property: the listing
    # is withheld and the two counts are named
    plant_walk_without_swap(monkeypatch)
    code, out, err = run_cli(capsys, "orbit", g4_file)
    assert (code, out) == (2, "")
    assert err == "error: orbit walk reached 4 Euler systems, euler_count is 6\n"


def test_orbit_writes_once(monkeypatch, g4_file):
    # the listing and the count line leave in one write call
    writes = []

    class FakeStdout:
        def write(self, text):
            writes.append(text)
            return len(text)

    monkeypatch.setattr(sys, "stdout", FakeStdout())
    assert main(["orbit", g4_file]) == 0
    assert len(writes) == 1
    assert writes[0].endswith("count: 6\n") and writes[0].count("\n") == 7


def test_orbit_frontier_refusal(capsys, tmp_path):
    # no orbit flag raises the frontier guard, so the message offers none
    p = tmp_path / "g40.graph"
    p.write_text(format_graph(random_matching_graph(40, seed=2)))
    code, out, err = run_cli(capsys, "orbit", str(p), "--limit", "1000000000")
    assert code == 3 and out == ""
    assert err == (
        "guard: frontier profile of 40 vertices refused: up to 34459425 "
        "states (guard at 135135)\n"
    )


# fragments of both file formats, valid and broken, glued at random
_TOKENS = st.sampled_from(
    [
        "vertices:", "edge ", "u", "v", "w", "u.0", "u.3", "v.1", "v.4",
        "u.", ".0", "u.v.2", "01|23", "02|13", "03|12", "12|03", "phi",
        "chi", "psi", ":", "#", "|", ".", " ", "\t", "\n", "\r", "\x00",
    ]
)
_FUZZ_INPUT = st.one_of(
    st.lists(st.one_of(_TOKENS, st.text(max_size=3))).map(
        lambda parts: "".join(parts).encode("utf-8")
    ),
    st.binary(),
)


@pytest.fixture(scope="module")
def fuzz_dir(tmp_path_factory):
    d = tmp_path_factory.mktemp("fuzz")
    (d / "good.graph").write_text(G4PAR)
    return d


@given(data=_FUZZ_INPUT)
@settings(max_examples=200, deadline=None)
def test_parsers_fuzz(fuzz_dir, data):
    # any input file gives exit 0 or 1 and no exception escapes main
    path = fuzz_dir / "input"
    path.write_bytes(data)
    good = str(fuzz_dir / "good.graph")
    for argv in (
        ["validate", str(path)],
        ["matrix", good, "--partition", str(path)],
    ):
        with contextlib.redirect_stdout(io.StringIO()), contextlib.redirect_stderr(
            io.StringIO()
        ):
            code = main(argv)
        assert code in (0, 1), (argv, data)


def test_profile_golden(capsys, loops_file):
    code, out, err = run_cli(capsys, "profile", loops_file)
    assert code == 0
    assert out == "1:2 2:1\n"
    for engine in ("frontier", "trace", "nullity"):
        code, out, err = run_cli(capsys, "profile", loops_file, "--engine", engine)
        assert (code, out) == (0, "1:2 2:1\n")


def test_profile_trace_guard_on_cost_alone(capsys, tmp_path, monkeypatch):
    # the tracer's default guard admits 16 vertices and refuses 17 before
    # tracing; the walk is stubbed, so no admitted size is traced either
    traced = []

    def no_trace(g):
        traced.append(g.n)
        raise TooLarge("stub: the walk was reached")

    monkeypatch.setattr("interlacement.profile._circuit_histogram", no_trace)
    refused = "profile over 3^17 transition systems refused (guard at 16 vertices)"
    for n, message in ((16, "stub: the walk was reached"), (17, refused)):
        p = tmp_path / f"g{n}.graph"
        p.write_text(format_graph(random_matching_graph(n, seed=0)))
        code, out, err = run_cli(capsys, "profile", str(p), "--engine", "trace")
        assert code == 3 and out == ""
        assert err == f"guard: {message}; --force raises it\n"
    assert traced == [16]


def test_profile_frontier_guard(capsys, g4_file, monkeypatch):
    # the two-vertex graph opens a 4-edge frontier: 3 pairings
    monkeypatch.setattr("interlacement.profile.DEFAULT_STATE_GUARD", 2)
    code, out, err = run_cli(capsys, "profile", g4_file)
    assert code == 3 and out == ""
    assert err == (
        "guard: frontier profile of 2 vertices refused: up to 3 states "
        "(guard at 2); --force raises it\n"
    )
    code, out, err = run_cli(capsys, "profile", g4_file, "--force")
    assert (code, out) == (0, "1:6 2:3\n")


def test_profile_forced_vertex_guard(capsys, tmp_path):
    # --force admits at most 39 vertices to the tracer, and at most 15!!
    # pairings to the nullity engine; n = 41 is refused before any work
    p = tmp_path / "g41.graph"
    p.write_text(format_graph(random_matching_graph(41, seed=0)))
    expected = {
        "trace": "profile over 3^41 transition systems refused "
        "(guard at 39 vertices)",
        "nullity": "nullity profile of 41 vertices refused: up to 654729075 "
        "states (guard at 2027025)",
    }
    for engine, message in expected.items():
        code, out, err = run_cli(
            capsys, "profile", str(p), "--engine", engine, "--force"
        )
        assert code == 3 and out == "" and "Traceback" not in err
        assert err == f"guard: {message}\n"


def test_profile_both_engines(capsys, g4_file):
    code, out, err = run_cli(capsys, "profile", g4_file, "--engine", "both")
    assert code == 0
    assert out == "1:6 2:3\nengines agree\n"


def test_profile_both_engines_disagree(capsys, monkeypatch, g4_file):
    # a defect planted in the frontier engine alone (two transitions
    # that couple the same slots) is caught: its profile 1:4 2:5 is
    # already impossible, since p(-2) = 12, before the engines compare
    couples = profile_module._COUPLES
    monkeypatch.setattr(
        profile_module, "_COUPLES", (couples[0], couples[0], couples[2])
    )
    code, out, err = run_cli(capsys, "profile", g4_file, "--engine", "both")
    assert code == 2
    assert out == ""
    assert err == (
        "error: profile {1: 4, 2: 5} is impossible for 2 vertices in 1 "
        "components\n"
    )


def test_profile_both_engines_disagree_on_valid_profiles(
    capsys, monkeypatch, g4_file
):
    # a nullity engine that answers with another two-vertex graph's
    # profile, which passes validation, is caught by the comparison
    other = profile_module.profile_by_frontier(graph_loop_plus_parallel())
    monkeypatch.setattr(
        profile_module, "profile_by_nullity", lambda g, **kwargs: other
    )
    code, out, err = run_cli(capsys, "profile", g4_file, "--engine", "both")
    assert code == 2
    assert out == "1:6 2:3\n"
    assert err == "engines disagree:\n  frontier: 1:6 2:3\n  nullity:  1:4 2:4 3:1\n"


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

    monkeypatch.setattr("interlacement.profile.profile_by_frontier", broken)
    code, out, err = run_cli(capsys, "profile", g4_file)
    assert code == 2 and "impossible" in err and "Traceback" not in err


def test_verify_requires_mode(capsys, g4_file):
    code, out, err = run_cli(capsys, "verify", g4_file)
    assert code == 1


def test_verify_exhaustive_needs_file(capsys):
    code, out, err = run_cli(capsys, "verify", "--exhaustive")
    assert code == 1


def test_verify_size_needs_no_file(capsys, g4_file):
    # --size sizes the generated graphs, so a graph file leaves it no use
    for mode in (("--samples", "3"), ("--exhaustive",)):
        code, out, err = run_cli(capsys, "verify", g4_file, *mode, "--size", "4")
        assert (code, out) == (1, "")
        assert err == "error: --size applies only without a graph file\n"
    code, out, err = run_cli(capsys, "verify", "--samples", "1")
    assert code == 0
    assert "graphs: 1 generated, 8 vertices each" in out


def test_verify_seed_needs_samples(capsys, g4_file):
    # the exhaustive sweep draws nothing, so a seed has no use there
    code, out, err = run_cli(capsys, "verify", g4_file, "--exhaustive", "--seed", "5")
    assert (code, out) == (1, "")
    assert err == "error: --seed applies only with --samples\n"
    code, out, err = run_cli(capsys, "verify", g4_file, "--samples", "2", "--seed", "5")
    assert code == 0 and "seed: 5" in out


def test_verify_force_needs_exhaustive(capsys, g4_file):
    # only the exhaustive sweep has a work guard to force
    for argv in ((g4_file, "--samples", "2"), ("--samples", "2")):
        code, out, err = run_cli(capsys, "verify", *argv, "--force")
        assert (code, out) == (1, "")
        assert err == "error: --force applies only with --exhaustive\n"
    code, out, err = run_cli(capsys, "verify", g4_file, "--exhaustive", "--force")
    assert code == 0 and "all properties verified" in out


def test_verify_samples_seed_defaults_to_zero(capsys, g4_file):
    runs = [
        run_cli(capsys, "verify", g4_file, "--samples", "4", *seed)
        for seed in ((), ("--seed", "0"))
    ]
    assert runs[0] == runs[1]
    assert runs[0][0] == 0 and "seed: 0" in runs[0][1]


def test_unknown_flag_exits_one(capsys, g4_file):
    code, out, err = run_cli(capsys, "validate", g4_file, "--frobnicate")
    assert code == 1


def test_help_exits_zero(capsys):
    code, out, err = run_cli(capsys, "--help")
    assert code == 0
    assert "validate" in out and "verify" in out


def test_console_script_trace_profile(tmp_path):
    # the trace-engine profile through the module entry point prints
    # the in-process profile, newline-terminated
    p = tmp_path / "g.graph"
    g = random_matching_graph(8, seed=3)
    p.write_text(format_graph(g))
    proc = subprocess.run(
        [sys.executable, "-m", "interlacement", "profile", str(p), "--engine", "trace"],
        capture_output=True,
        text=True,
    )
    assert proc.returncode == 0, proc.stderr
    expect = " ".join(f"{k}:{v}" for k, v in profile_by_tracing(g).sorted_items())
    assert proc.stdout == expect + "\n"


_LOADED_MODULES = (
    "import sys\n"
    "before = set(sys.modules)\n"
    "from interlacement.cli import main\n"
    "code = main(sys.argv[1:])\n"
    "print(*sorted(set(sys.modules) - before))\n"
    "print(*sorted(m for m in sys.modules if m.startswith('interlacement.')))\n"
    "sys.exit(code)\n"
)

# dataclasses, and the modules it pulls in, cost every job their import
# and their class generation; no command needs them
_UNWANTED = {"dataclasses", "inspect", "ast", "dis", "tokenize"}


@pytest.mark.parametrize(
    "command, layers",
    [
        ("validate", "cli errors graph4"),
        ("euler", "cli errors euler graph4"),
        ("matrix --partition PARTITION", "cli errors euler gf2 graph4 interlace"),
        ("profile", "cli errors graph4 profile"),
        ("profile --engine trace", "cli errors graph4 profile"),
        ("profile --engine nullity", "cli errors euler gf2 graph4 profile"),
        ("profile --engine both", "cli errors euler gf2 graph4 profile"),
        ("orbit", "cli errors euler graph4 profile"),
        (
            "verify --exhaustive",
            "cli errors euler gf2 graph4 interlace profile verify",
        ),
        (
            "verify --samples 2",
            "cli errors euler gf2 graph4 interlace profile verify",
        ),
    ],
)
def test_command_loads_only_its_layers(g4_file, tmp_path, command, layers):
    # a fresh interpreter: each command imports only the layers it runs
    partition = tmp_path / "g4.partition"
    partition.write_text("u: phi\nv: psi\n")
    name, *flags = command.replace("PARTITION", str(partition)).split()
    proc = subprocess.run(
        [sys.executable, "-c", _LOADED_MODULES, name, g4_file, *flags],
        capture_output=True,
        text=True,
    )
    assert proc.returncode == 0, proc.stderr
    *_, added, loaded = proc.stdout.splitlines()
    assert loaded.split() == [f"interlacement.{m}" for m in layers.split()]
    assert _UNWANTED.isdisjoint(added.split())
