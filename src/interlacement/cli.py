"""Command line front end.

Subcommands: validate, euler, matrix, orbit, profile, verify.

Exit codes: 0 success, 1 bad input (parse errors, bad flags, missing
files), 2 a verified property failed, engines disagreed or a profile
broke its invariants, 3 a resource guard tripped (use the relevant
force/limit flag to override).
"""

from __future__ import annotations

import argparse
import json
import sys
from typing import Dict, List, Optional, Sequence, Tuple

from .errors import InterlacementError, InvalidProfile, ParseError, TooLarge
from .euler import (
    EulerSystem,
    TransitionLabel,
    dow,
    hierholzer,
    kotzig_orbit,
    transition_for_label,
)
from .gf2 import kernel_basis, rank
from .graph4 import (
    Graph4R,
    HalfEdge,
    TRANSITIONS,
    Transition,
    TransitionSystem,
    build_graph,
    random_matching_graph,
    trace_partition,
)
from .interlace import modified_interlacement_matrix
from .profile import profile_by_nullity, profile_by_tracing
from .verify import VerifyReport, run_exhaustive, run_random_graphs, run_samples

__all__ = [
    "parse_graph",
    "format_graph",
    "parse_transitions",
    "format_transitions",
    "main",
    "console_main",
]

EXIT_OK = 0
EXIT_INPUT = 1
EXIT_PROPERTY = 2
EXIT_GUARD = 3

_LABELS = {lbl.value: lbl for lbl in TransitionLabel}


def parse_graph(text: str) -> Graph4R:
    """Parse the plain text graph format.

    One ``vertices:`` line naming the vertices in order, then one
    ``edge a.i b.j`` line per edge joining slot i of a to slot j of b.
    Blank lines and ``#`` comments are ignored.
    """
    vertices: Optional[Tuple[str, ...]] = None
    edges: List[Tuple[HalfEdge, HalfEdge]] = []
    slot_line: Dict[Tuple[str, int], int] = {}
    for lineno, raw in enumerate(text.splitlines(), start=1):
        line = raw.split("#", 1)[0].strip()
        if not line:
            continue
        if line.startswith("vertices:"):
            if vertices is not None:
                raise ParseError("duplicate vertices line", lineno)
            names = line[len("vertices:"):].split()
            if not names:
                raise ParseError("vertices line names no vertices", lineno)
            if len(set(names)) != len(names):
                raise ParseError("duplicate vertex name", lineno)
            vertices = tuple(names)
            continue
        if line.startswith("edge "):
            if vertices is None:
                raise ParseError("edge before vertices line", lineno)
            fields = line.split()
            if len(fields) != 3:
                raise ParseError(
                    f"expected 'edge a.i b.j', got {line!r}", lineno
                )
            ends = []
            for field in fields[1:]:
                ends.append(_parse_end(field, vertices, lineno))
            a, b = ends
            for end in ends:
                key = (end.vertex, end.slot)
                if key in slot_line:
                    raise ParseError(
                        f"slot {end.vertex}.{end.slot} already used on line "
                        f"{slot_line[key]}",
                        lineno,
                    )
            if a == b:
                raise ParseError(
                    f"slot {a.vertex}.{a.slot} paired with itself", lineno
                )
            slot_line[(a.vertex, a.slot)] = lineno
            slot_line[(b.vertex, b.slot)] = lineno
            edges.append((a, b))
            continue
        raise ParseError(f"unrecognized line {line!r}", lineno)
    if vertices is None:
        raise ParseError("no vertices line")
    return build_graph(vertices, edges)


def _parse_end(field: str, vertices: Tuple[str, ...], lineno: int) -> HalfEdge:
    name, dot, slot_text = field.rpartition(".")
    if not dot or not name:
        raise ParseError(f"expected 'vertex.slot', got {field!r}", lineno)
    if slot_text not in ("0", "1", "2", "3"):
        raise ParseError(f"slot must be 0..3, got {field!r}", lineno)
    if name not in vertices:
        raise ParseError(f"unknown vertex {name!r}", lineno)
    return HalfEdge(name, int(slot_text))


def format_graph(g: Graph4R) -> str:
    lines = ["vertices: " + " ".join(g.vertices)]
    for a, b in g.edges:
        lines.append(f"edge {a.vertex}.{a.slot} {b.vertex}.{b.slot}")
    return "\n".join(lines) + "\n"


def parse_transitions(
    text: str,
    g: Graph4R,
    relative_to: Optional[EulerSystem] = None,
) -> TransitionSystem:
    """Parse the transition file format: one ``name: value`` line per
    vertex, values either absolute pairings (``01|23``) or labels
    (``phi``/``chi``/``psi``) resolved against ``relative_to``."""
    seen: Dict[str, Transition] = {}
    for lineno, raw in enumerate(text.splitlines(), start=1):
        line = raw.split("#", 1)[0].strip()
        if not line:
            continue
        name, colon, value = line.partition(":")
        if not colon:
            raise ParseError(f"expected 'vertex: transition', got {line!r}", lineno)
        name = name.strip()
        value = value.strip()
        if name not in g.vertices:
            raise ParseError(f"unknown vertex {name!r}", lineno)
        if name in seen:
            raise ParseError(f"vertex {name!r} assigned twice", lineno)
        if value in _LABELS:
            if relative_to is None:
                raise ParseError(
                    f"label {value!r} needs a reference euler system "
                    "(pass --relative-to)",
                    lineno,
                )
            seen[name] = transition_for_label(relative_to, name, _LABELS[value])
            continue
        try:
            seen[name] = Transition(value)
        except ValueError:
            raise ParseError(
                f"transition must be one of "
                f"{', '.join(t.value for t in TRANSITIONS)} or "
                f"{', '.join(_LABELS)}, got {value!r}",
                lineno,
            ) from None
    missing = [v for v in g.vertices if v not in seen]
    if missing:
        raise ParseError(f"no transition for {', '.join(missing)}")
    return TransitionSystem.from_map(g, seen)


def format_transitions(g: Graph4R, ts: TransitionSystem) -> str:
    lines = [f"{v}: {TRANSITIONS[c].value}" for v, c in zip(g.vertices, ts.codes)]
    return "\n".join(lines) + "\n"


def _read(path: str) -> str:
    try:
        with open(path, "r", encoding="utf-8") as fh:
            return fh.read()
    except OSError as exc:
        raise ParseError(f"cannot read {path}: {exc.strerror or exc}") from None


def _load_graph(path: str) -> Graph4R:
    return parse_graph(_read(path))


def _load_euler(path: str, g: Graph4R) -> EulerSystem:
    ts = parse_transitions(_read(path), g)
    return EulerSystem.from_transitions(g, ts)


def _plural(count: int, noun: str, plural: Optional[str] = None) -> str:
    if count == 1:
        return f"{count} {noun}"
    return f"{count} {plural or noun + 's'}"


class _Parser(argparse.ArgumentParser):
    # argparse exits with 2 on bad flags; keep 2 reserved for property
    # failures and remap usage errors onto the input-error code
    def error(self, message: str):
        self.print_usage(sys.stderr)
        print(f"{self.prog}: error: {message}", file=sys.stderr)
        raise SystemExit(EXIT_INPUT)


def _build_parser() -> argparse.ArgumentParser:
    parser = _Parser(
        prog="interlacement",
        description="Euler systems, transition systems, and interlacement "
        "matrices of 4-regular multigraphs.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("validate", help="parse a graph file and report its shape")
    p.add_argument("graphfile")

    p = sub.add_parser(
        "euler", help="compute a canonical euler system of a graph"
    )
    p.add_argument("graphfile")

    p = sub.add_parser(
        "matrix",
        help="modified interlacement matrix of a circuit partition",
    )
    p.add_argument("graphfile")
    p.add_argument(
        "--euler",
        metavar="FILE",
        help="euler system transition file (default: computed canonically)",
    )
    p.add_argument(
        "--partition",
        metavar="FILE",
        required=True,
        help="transition file of the circuit partition",
    )
    p.add_argument(
        "--relative-to",
        metavar="FILE",
        help="euler system file that phi/chi/psi labels in --partition "
        "refer to (default: the --euler system)",
    )
    p.add_argument("--json", action="store_true", help="emit JSON")

    p = sub.add_parser("orbit", help="enumerate all euler systems of a graph")
    p.add_argument("graphfile")
    p.add_argument(
        "--limit",
        type=int,
        default=20_000,
        metavar="N",
        help="abort if the orbit exceeds N systems (default 20000)",
    )

    p = sub.add_parser(
        "profile",
        help="circuit count distribution over all transition systems",
    )
    p.add_argument("graphfile")
    p.add_argument(
        "--engine",
        choices=("trace", "nullity", "both"),
        default="trace",
        help="counting engine (both: run and compare, default trace)",
    )
    p.add_argument(
        "--threads",
        type=int,
        default=1,
        metavar="N",
        help="threads for the trace engine (default 1); nullity runs on one",
    )
    p.add_argument(
        "--force",
        action="store_true",
        help="override the vertex count guard",
    )

    p = sub.add_parser("verify", help="check the matrix identities on a graph")
    p.add_argument("graphfile", nargs="?")
    mode = p.add_mutually_exclusive_group(required=True)
    mode.add_argument(
        "--exhaustive",
        action="store_true",
        help="sweep the full euler orbit and every transition system",
    )
    mode.add_argument(
        "--samples",
        type=int,
        metavar="N",
        help="check N random configurations instead",
    )
    p.add_argument("--seed", type=int, default=0, metavar="S")
    p.add_argument(
        "--size",
        type=int,
        default=8,
        metavar="N",
        help="vertices per generated graph when graphfile is omitted "
        "(default 8)",
    )
    p.add_argument(
        "--force",
        action="store_true",
        help="override the exhaustive work guard",
    )
    p.add_argument(
        "--self-test-corrupt",
        action="store_true",
        help="deliberately corrupt one check; the run must then fail "
        "(negative control for the harness itself)",
    )
    return parser


def cmd_validate(args) -> int:
    g = _load_graph(args.graphfile)
    print(
        f"ok: {_plural(g.n, 'vertex', 'vertices')}, "
        f"{_plural(len(g.edges), 'edge')}, "
        f"{_plural(g.c, 'component')}"
    )
    return EXIT_OK


def cmd_euler(args) -> int:
    g = _load_graph(args.graphfile)
    c = hierholzer(g)
    out = format_transitions(g, c.ts)
    comments = []
    for i in range(g.c):
        comments.append(f"# word {i}: {dow(c, i)}")
    print(out + "\n".join(comments))
    return EXIT_OK


def cmd_matrix(args) -> int:
    g = _load_graph(args.graphfile)
    c = _load_euler(args.euler, g) if args.euler else hierholzer(g)
    reference = c
    if args.relative_to:
        reference = _load_euler(args.relative_to, g)
    ts = parse_transitions(_read(args.partition), g, relative_to=reference)
    m = modified_interlacement_matrix(c, ts).matrix
    p = trace_partition(g, ts)
    kern = kernel_basis(m)
    if args.json:
        payload = {
            "vertices": list(g.vertices),
            "matrix": m.to_lists(),
            "rank": rank(m),
            "kernel": [list(v.to_tuple()) for v in kern],
            "p_size": p.size,
            "components": g.c,
        }
        print(json.dumps(payload))
        return EXIT_OK
    width = max(len(v) for v in g.vertices)
    header = " " * (width + 2) + " ".join(f"{v:>{width}}" for v in g.vertices)
    print(header)
    for i, v in enumerate(g.vertices):
        cells = " ".join(f"{m.entry(i, j):>{width}}" for j in range(g.n))
        print(f"{v:>{width}}  {cells}")
    print(f"rank: {rank(m)}")
    print("kernel:" + "".join(f" {k}" for k in kern))
    print(f"circuits: {p.size}")
    print(f"components: {g.c}")
    return EXIT_OK


def cmd_orbit(args) -> int:
    g = _load_graph(args.graphfile)
    c = hierholzer(g)
    orbit = kotzig_orbit(g, c, limit=args.limit)
    for e in orbit:
        print(
            " ".join(
                f"{v}:{TRANSITIONS[code].value}"
                for v, code in zip(g.vertices, e.ts.codes)
            )
        )
    print(f"count: {len(orbit)}")
    return EXIT_OK


def _profile_line(profile) -> str:
    return " ".join(f"{k}:{v}" for k, v in profile.sorted_items())


def cmd_profile(args) -> int:
    g = _load_graph(args.graphfile)
    guard = 64 if args.force else 20
    if args.engine in ("trace", "both"):
        traced = profile_by_tracing(g, max_vertices=guard, threads=args.threads)
    if args.engine in ("nullity", "both"):
        by_rank = profile_by_nullity(g, max_vertices=guard)
    if args.engine == "trace":
        print(_profile_line(traced))
    elif args.engine == "nullity":
        print(_profile_line(by_rank))
    else:
        print(_profile_line(traced))
        if traced.coefficients == by_rank.coefficients:
            print("engines agree")
        else:
            print("engines disagree:", file=sys.stderr)
            print(f"  trace:   {_profile_line(traced)}", file=sys.stderr)
            print(f"  nullity: {_profile_line(by_rank)}", file=sys.stderr)
            return EXIT_PROPERTY
    return EXIT_OK


def _print_report(report: VerifyReport) -> int:
    for line in report.meta:
        print(line)
    failed = False
    for out in report.outcomes:
        if out.skipped is not None:
            print(f"SKIP {out.name}: {out.skipped}")
            continue
        status = "pass" if out.ok else "FAIL"
        failed = failed or not out.ok
        print(f"{status} {out.name}: {_plural(out.checks, 'check')}")
        for witness in out.failures:
            print(f"     counterexample: {witness}")
    if failed:
        print("verification FAILED")
        return EXIT_PROPERTY
    print("all properties verified")
    return EXIT_OK


def cmd_verify(args) -> int:
    corrupt = args.self_test_corrupt
    if args.graphfile is None:
        if args.exhaustive:
            raise ParseError("--exhaustive needs a graph file")
        report = run_random_graphs(
            args.size, args.samples, args.seed, corrupt=corrupt
        )
    else:
        g = _load_graph(args.graphfile)
        if args.exhaustive:
            report = run_exhaustive(g, force=args.force, corrupt=corrupt)
        else:
            report = run_samples(g, args.samples, args.seed, corrupt=corrupt)
    code = _print_report(report)
    if corrupt:
        # the harness must have caught the planted corruption
        if code == EXIT_PROPERTY:
            print("self test ok: corrupted check was caught")
            return EXIT_OK
        print("self test FAILED: corrupted check slipped through", file=sys.stderr)
        return EXIT_PROPERTY
    return code


_COMMANDS = {
    "validate": cmd_validate,
    "euler": cmd_euler,
    "matrix": cmd_matrix,
    "orbit": cmd_orbit,
    "profile": cmd_profile,
    "verify": cmd_verify,
}


def main(argv: Optional[Sequence[str]] = None) -> int:
    parser = _build_parser()
    try:
        args = parser.parse_args(argv)
    except SystemExit as exc:
        # --help exits 0; remapped usage errors exit 1
        return int(exc.code or 0)
    try:
        return _COMMANDS[args.command](args)
    except ParseError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_INPUT
    except TooLarge as exc:
        print(f"guard: {exc}", file=sys.stderr)
        return EXIT_GUARD
    except InvalidProfile as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_PROPERTY
    except InterlacementError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_INPUT


def console_main() -> None:
    sys.exit(main())
