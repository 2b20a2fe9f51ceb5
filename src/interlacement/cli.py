"""Command line front end.

Subcommands: validate, euler, matrix, orbit, profile, verify.

Exit codes: 0 success, 1 bad input (parse errors, bad flags, missing
files), 2 a verified property failed, engines disagreed or a profile
broke its invariants, 3 a resource guard tripped (the message names
the flag that raises the guard, where one exists).
"""

from __future__ import annotations

import argparse
import sys
from typing import TYPE_CHECKING, Dict, List, Optional, Sequence, Tuple

# only parsing is imported here; each command imports the engines it
# runs, so that `validate` or `profile` does not load the GF(2),
# interlacement and verification layers
from .errors import InterlacementError, InvalidProfile, ParseError, TooLarge
from .graph4 import (
    Graph4R,
    HalfEdge,
    TRANSITIONS,
    Transition,
    TransitionSystem,
    build_graph,
    trace_partition,
)

if TYPE_CHECKING:
    from .euler import EulerSystem
    from .verify import VerifyReport

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

# profile --force guards.  3^39 (about 4e18) transition systems is far
# past any run that finishes, so the tracer refuses n >= 40 up front.
# 15!! pairings admit frontiers of up to 16 edges, for the frontier and
# nullity engines alike; random connected 32-vertex graphs reach
# 1.3-1.8M frontier states in 1.5-2.5 min, at about 1 KB per state.
_FORCED_VERTEX_GUARD = 39
_FORCED_STATE_GUARD = 2_027_025

# vertices per generated graph of ``verify`` without a graph file
_VERIFY_SIZE = 8

# lines per write of the ``orbit`` listing, so that the text of a large
# orbit is never held whole; a smaller orbit leaves in one write
_ORBIT_CHUNK = 1 << 16


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
        fields = line.split()
        if fields[0] == "edge":
            if vertices is None:
                raise ParseError("edge before vertices line", lineno)
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
    from .euler import TransitionLabel, transition_for_label

    labels = {lbl.value: lbl for lbl in TransitionLabel}
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
        if value in labels:
            if relative_to is None:
                raise ParseError(
                    f"label {value!r} needs a reference euler system "
                    "(pass --relative-to)",
                    lineno,
                )
            seen[name] = transition_for_label(relative_to, name, labels[value])
            continue
        try:
            seen[name] = Transition(value)
        except ValueError:
            raise ParseError(
                f"transition must be one of "
                f"{', '.join(t.value for t in TRANSITIONS)} or "
                f"{', '.join(labels)}, got {value!r}",
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
        # utf-8-sig drops a leading byte-order mark, if the file has one
        with open(path, "r", encoding="utf-8-sig") as fh:
            return fh.read()
    except OSError as exc:
        raise ParseError(f"cannot read {path}: {exc.strerror or exc}") from None
    except UnicodeDecodeError as exc:
        raise ParseError(f"cannot read {path}: not UTF-8 ({exc.reason})") from None


def _load_graph(path: str) -> Graph4R:
    return parse_graph(_read(path))


def _load_euler(path: str, g: Graph4R) -> EulerSystem:
    from .euler import EulerSystem

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


def _count(text: str) -> int:
    """argparse type of a count flag: an integer of at least 1."""
    try:
        value = int(text)
    except ValueError:
        raise argparse.ArgumentTypeError(f"invalid int value: {text!r}") from None
    if value < 1:
        raise argparse.ArgumentTypeError(f"must be at least 1, got {value}")
    return value


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
        type=_count,
        default=20_000,
        metavar="N",
        help="refuse, before enumerating, a graph with more than N euler "
        "systems (default 20000)",
    )

    p = sub.add_parser(
        "profile",
        help="circuit count distribution over all transition systems",
    )
    p.add_argument("graphfile")
    p.add_argument(
        "--engine",
        choices=("frontier", "trace", "nullity", "both"),
        default="frontier",
        help="counting engine (default frontier; both: run frontier and "
        "nullity and compare)",
    )
    p.add_argument(
        "--force",
        action="store_true",
        help="raise the vertex count guard (trace) and the state guard "
        "(frontier, nullity)",
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
        type=_count,
        metavar="N",
        help="check N random configurations instead",
    )
    p.add_argument(
        "--seed",
        type=int,
        metavar="S",
        help="seed of the random configurations of --samples (default 0)",
    )
    p.add_argument(
        "--size",
        type=_count,
        metavar="N",
        help="vertices per generated graph when graphfile is omitted "
        f"(default {_VERIFY_SIZE})",
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
    from .euler import dow, hierholzer

    g = _load_graph(args.graphfile)
    c = hierholzer(g)
    out = format_transitions(g, c.ts)
    comments = []
    for i in range(g.c):
        comments.append(f"# word {i}: {dow(c, i)}")
    print(out + "\n".join(comments))
    return EXIT_OK


def cmd_matrix(args) -> int:
    from .euler import hierholzer
    from .gf2 import kernel_basis, rank
    from .interlace import modified_interlacement_matrix

    g = _load_graph(args.graphfile)
    c = _load_euler(args.euler, g) if args.euler else hierholzer(g)
    reference = c
    if args.relative_to:
        reference = _load_euler(args.relative_to, g)
    ts = parse_transitions(_read(args.partition), g, relative_to=reference)
    m = modified_interlacement_matrix(c, ts)
    p = trace_partition(g, ts)
    kern = kernel_basis(m)
    if args.json:
        import json

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
    from .euler import hierholzer, orbit_keys
    from .profile import euler_count

    g = _load_graph(args.graphfile)
    count = euler_count(g)
    if count > args.limit:
        raise TooLarge(
            f"orbit of {count} Euler systems exceeds the limit of "
            f"{args.limit}; --limit raises it"
        )
    keys = orbit_keys(g, hierholzer(g))
    if len(keys) != count:
        # distinct orbit members are distinct Euler systems, so a walk that
        # reaches another number of them than the count is broken
        print(
            f"error: orbit walk reached {len(keys)} Euler systems, "
            f"euler_count is {count}",
            file=sys.stderr,
        )
        return EXIT_PROPERTY
    # each vertex's possible fields, indexed by transition code, with the
    # shift of its code in a packed key
    fields = [
        ([f"{v}:{t.value}" for t in TRANSITIONS], 2 * (g.n - 1 - i))
        for i, v in enumerate(g.vertices)
    ]
    for start in range(0, len(keys), _ORBIT_CHUNK):
        lines = [
            " ".join([names[(key >> s) & 3] for names, s in fields])
            for key in keys[start:start + _ORBIT_CHUNK]
        ]
        if start + _ORBIT_CHUNK >= len(keys):
            lines.append(f"count: {len(keys)}")
        sys.stdout.write("\n".join(lines) + "\n")
    return EXIT_OK


def _profile_line(profile) -> str:
    return " ".join(f"{k}:{v}" for k, v in profile.sorted_items())


def cmd_profile(args) -> int:
    from .profile import (
        DEFAULT_ENUMERATION_GUARD,
        DEFAULT_STATE_GUARD,
        profile_by_frontier,
        profile_by_nullity,
        profile_by_tracing,
    )

    g = _load_graph(args.graphfile)
    guard = _FORCED_VERTEX_GUARD if args.force else DEFAULT_ENUMERATION_GUARD
    states = _FORCED_STATE_GUARD if args.force else DEFAULT_STATE_GUARD
    if args.engine == "trace":
        profile = profile_by_tracing(g, max_vertices=guard)
    elif args.engine == "nullity":
        profile = profile_by_nullity(g, max_states=states)
    else:
        profile = profile_by_frontier(g, max_states=states)
    if args.engine == "both":
        by_rank = profile_by_nullity(g, max_states=states)
    print(_profile_line(profile))
    if args.engine == "both":
        if profile.coefficients == by_rank.coefficients:
            print("engines agree")
        else:
            print("engines disagree:", file=sys.stderr)
            print(f"  frontier: {_profile_line(profile)}", file=sys.stderr)
            print(f"  nullity:  {_profile_line(by_rank)}", file=sys.stderr)
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
    from .verify import run_exhaustive, run_random_graphs, run_samples

    corrupt = args.self_test_corrupt
    if args.exhaustive and args.seed is not None:
        raise ParseError("--seed applies only with --samples")
    if not args.exhaustive and args.force:
        raise ParseError("--force applies only with --exhaustive")
    seed = 0 if args.seed is None else args.seed
    if args.graphfile is None:
        if args.exhaustive:
            raise ParseError("--exhaustive needs a graph file")
        size = _VERIFY_SIZE if args.size is None else args.size
        report = run_random_graphs(size, args.samples, seed, corrupt=corrupt)
    else:
        if args.size is not None:
            raise ParseError("--size applies only without a graph file")
        g = _load_graph(args.graphfile)
        if args.exhaustive:
            report = run_exhaustive(g, force=args.force, corrupt=corrupt)
        else:
            report = run_samples(g, args.samples, seed, corrupt=corrupt)
    code = _print_report(report)
    if corrupt:
        # the harness must have caught the planted corruption, and only it
        if report.caught_control:
            print("self test ok: corrupted check was caught")
            return EXIT_OK
        print("self test FAILED: the control was not the one failure", file=sys.stderr)
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
        # every guard of a command with --force is one that --force raises
        hint = "; --force raises it" if getattr(args, "force", True) is False else ""
        print(f"guard: {exc}{hint}", file=sys.stderr)
        return EXIT_GUARD
    except InvalidProfile as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_PROPERTY
    except InterlacementError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_INPUT


def console_main() -> None:
    sys.exit(main())
