"""Property sweeps: run every matrix and label identity check over a graph.

One table, ``PROPERTIES``, names the checks of each property, the axes
their arguments range over and each check's row proof.  Three modes
drive it and share one report shape: an exhaustive sweep runs each
property over its own full product of axes (the Euler-system orbit, all
3^n transition systems, the vertices, the circuit subsets); a seeded
random sweep over one graph, and one over freshly generated matching
graphs, draw one random configuration per sample and pass it to every
property.  All randomness
comes from one ``random.Random(seed)`` stream, so reports are
reproducible byte for byte.

The exhaustive sweep splits the points of a check into *rows*: the
tuples of its leading orbit axes, (c, c2) for naturality and the inverse
pair and c for the local-complement transform and the label exchange,
for core independence the ts whose circuit subsets are its points, and
for Kotzig closure, a property of the graph alone, its one point.
A row that its check's proof proves counts all of its points at once;
every point of any other row goes to the check, so verdicts and
witnesses, in order, are those of a sweep of one call per point.  The
orbit rows read the run's ``_OrbitTable``, and the closure row its
orbit and the count of its work guard.  Under ``corrupt`` only the
transform's row 0, which holds the negative control, is never proved.

The naturality, transform and label-exchange predicates act column by
column.  Column v of M(c, ts), like the label at v, depends only on
ts's code t at v, so when every entry of a member is its *column
assembly* (column v taken from the constant system whose codes are all
t), an identity whose other side also acts on each column alone holds
at every ts once it holds at the three constant systems.
``mat_mul(X, .)`` and ``modified_local_complement(., c, v)`` do, which
``test_row_operations_commute_with_column_assembly`` pins, and the
exchange rule reads each vertex's label alone.  So the table keeps, per
whole member, only the packed block W_c = [M(c, P_0) | M(c, P_1) | M(c, P_2)]
and assembles from it any other entry a row reads.

Naturality and the inverse pair rest on one identity of the paper,
M(c2, P) = M(c2, c.ts) M(c, P): every W_c spans one row space, the
binary transition matroid of the graph (Traldi, "The transition matroid
of a 4-regular graph", 2015).  Conversely, a whole member with
M(c, c.ts) = I has a W_c of full row rank, so if W_c and W_c2 have one
reduced echelon form, their *form*, then W_c2 = X W_c for a unique X,
and the columns of c.ts read X = M(c2, c.ts).  That is naturality at
the three constant systems and so at every ts; at ts = c2.ts it reads
X M(c, c2.ts) = I, so X is nonsingular and the pair is inverse.  So one
form per member decides every pair row.

A core-independence row holds when the core vectors of the k circuits
have rank k minus the number of components and each component's
vectors sum to 0; the dependencies among them are then exactly the sums
of component indicators, which decides every subset at once.
"""

from __future__ import annotations

import itertools
import random
from functools import cached_property
from typing import Callable, Dict, List, Optional, Tuple

from . import interlace
from .errors import NotEulerSystem, TooLarge
from .euler import EulerSystem, _kappa, hierholzer, kappa_transform, kotzig_orbit
from .gf2 import GF2Matrix, _rref_rows
from .graph4 import (
    Graph4R,
    TransitionSystem,
    random_matching_graph,
    trace_partition,
)
from .interlace import (
    CheckResult,
    check_circuit_nullity,
    check_core_independence,
    check_core_kernel,
    check_interlacement_complement,
    check_inverse,
    check_label_exchange,
    check_local_complement_transform,
    check_naturality,
    _exchanged_labels,
)
from .profile import euler_count

__all__ = [
    "PropertyOutcome",
    "VerifyReport",
    "PROPERTIES",
    "PROPERTY_NAMES",
    "sweep_property",
    "run_exhaustive",
    "run_samples",
    "run_random_graphs",
]


def _check_closure(g: Graph4R) -> CheckResult:
    """The transform orbit of an Euler system is every Euler system.

    Orbit members are distinct Euler systems, so the orbit is all of them
    exactly when its size is the frontier engine's count.  A walked
    member that is not an Euler system fails it, as the witness.

    Raises:
        TooLarge: the count exceeds ``_ORBIT_LIMIT`` or the frontier
            engine refuses the graph; the orbit is never built.
    """
    count = euler_count(g)
    if count > _ORBIT_LIMIT:
        raise TooLarge(
            f"orbit of {count} Euler systems exceeds the limit of {_ORBIT_LIMIT}"
        )
    try:
        size = len(kotzig_orbit(g, hierholzer(g)))
    except NotEulerSystem as exc:
        return CheckResult(False, {"error": exc})
    ok = size == count
    return CheckResult(ok, None if ok else {"orbit": size, "euler_count": count})


_MAX_WITNESSES = 3
_WORK_LIMIT = 5_000_000
_ORBIT_LIMIT = 3 ** 8
_CONTROL = "negative control (corrupted entry)"


class PropertyOutcome:
    def __init__(self, name: str):
        self.name = name
        self.checks = 0
        self.failures: List[str] = []
        self.skipped: Optional[str] = None

    @property
    def ok(self) -> bool:
        return not self.failures

    def record(self, g: Graph4R, result: CheckResult) -> None:
        self.checks += 1
        if not result and len(self.failures) < _MAX_WITNESSES:
            self.failures.append(_fmt_witness(g, result.witness))


class VerifyReport:
    def __init__(self, meta: List[str], outcomes: List[PropertyOutcome]):
        self.meta = meta
        self.outcomes = outcomes

    @property
    def passed(self) -> bool:
        return all(o.ok for o in self.outcomes)

    @property
    def caught_control(self) -> bool:
        """The self-test's verdict: the run's one failure is the negative
        control's witness, so the control ran and nothing else failed."""
        failures = [w for o in self.outcomes for w in o.failures]
        return len(failures) == 1 and failures[0].startswith(f"note={_CONTROL}")


def _fmt_matrix(m: GF2Matrix) -> str:
    return "/".join(str(m.row(i)) for i in range(m.nrows))


def _fmt_witness(g: Graph4R, data: Dict) -> str:
    parts = []
    for key, value in data.items():
        if isinstance(value, TransitionSystem):
            parts.append(f"{key}=[{value.inline(g)}]")
        elif isinstance(value, GF2Matrix):
            parts.append(f"{key}={_fmt_matrix(value)}")
        elif isinstance(value, dict):
            parts.append(
                f"{key}={{" + " ".join(f"{k}:{v}" for k, v in value.items()) + "}"
            )
        else:
            parts.append(f"{key}={value}")
    return " ".join(parts)


def _corrupted(m: GF2Matrix) -> GF2Matrix:
    rows = list(m.rows)
    rows[0] ^= 1
    return GF2Matrix(m.nrows, m.ncols, tuple(rows))


def _subset_iter(size: int):
    for mask in range(1 << size):
        yield tuple(i for i in range(size) if (mask >> i) & 1)


def _ts_index(ts: TransitionSystem) -> int:
    """Position of ``ts`` among all transition systems in
    ``itertools.product`` order: its codes read in base 3."""
    k = 0
    for code in ts.codes:
        k = 3 * k + code
    return k


def _all_ts(g: Graph4R):
    """Every transition system of ``g``, in ``itertools.product`` order."""
    return map(TransitionSystem, itertools.product((0, 1, 2), repeat=g.n))


def _rows(g, c0, orbit, axes):
    """(row, leading arguments, points) of a check over ``axes``: every
    argument tuple, outermost axis first.

    A row is the orbit indices of the leading c and c2 axes, with those
    members as its leading arguments, and the points range over the
    remaining axes; a check with neither has one row, (), holding every
    point.  For the axes (ts, subset) a row is the partition that ts
    traces, with ts as its leading argument and one point per subset of
    its circuits.
    """
    if axes == ("ts", "subset"):
        for ts in _all_ts(g):
            p = trace_partition(g, ts)
            yield (p,), (ts,), [(subset,) for subset in _subset_iter(p.size)]
        return
    lead = len(list(itertools.takewhile({"c", "c2"}.__contains__, axes)))
    domains = {"c0": (c0,), "ts": _all_ts(g), "v": g.vertices}
    # a list: a proved row counts its points, and every row walks them
    points = list(itertools.product(*(domains[axis] for axis in axes[lead:])))
    for row in itertools.product(range(len(orbit)), repeat=lead):
        yield row, [orbit[i] for i in row], points


class _OrbitTable:
    """The matrices and labels of one run: M(c, ts) and
    ``label_transitions(c, ts)`` for every member c of one orbit and every
    ts of ``all_ts``, in ``itertools.product`` order.

    Each half is built on first use, one member at a time, and checks
    every entry against its column assembly.  It keeps, per *whole*
    member (every entry is its column assembly), only its three constant
    entries, packed for the matrices as W_c; None for any other member.
    The builders are read through ``interlace``, where the per-point
    checks read them, so both routes run the same functions.  ``count``
    is ``euler_count(g)`` where the caller has taken it.
    """

    def __init__(self, g: Graph4R, orbit, count: Optional[int] = None):
        self.g = g
        self.orbit = orbit
        self.count = count
        self.all_ts = list(_all_ts(g))
        self.index = {c.ts: i for i, c in enumerate(orbit)}
        # position of each member's own system in all_ts
        self.own = [_ts_index(c.ts) for c in orbit]
        # masks[k][t]: the vertices where all_ts[k] has code t
        self.masks = [
            tuple(
                sum(1 << v for v, code in enumerate(ts.codes) if code == t)
                for t in (0, 1, 2)
            )
            for ts in self.all_ts
        ]
        # position of P_t in all_ts
        self.constant = [_ts_index(TransitionSystem((t,) * g.n)) for t in (0, 1, 2)]

    def _members(self, build, is_whole, keep):
        """Per member, ``keep`` of its three constant entries when
        ``is_whole(entries, constants)`` holds of its entries over
        ``all_ts``; None otherwise."""
        out = []
        for c in self.orbit:
            row = [build(c, ts) for ts in self.all_ts]
            consts = [row[k] for k in self.constant]
            out.append(keep(consts) if is_whole(row, consts) else None)
        return out

    @cached_property
    def blocks(self):
        """W_c per whole member: n rows of 3n bits, row r of M(c, P_t)
        in bits tn to tn + n - 1."""
        n = self.g.n

        def is_whole(row, consts):
            # the rows of all entries end to end, against those of their
            # column assemblies
            triples = list(zip(*(m.rows for m in consts)))
            return all(m.nrows == m.ncols == n for m in row) and [
                r for m in row for r in m.rows
            ] == [
                r0 & m0 | r1 & m1 | r2 & m2
                for m0, m1, m2 in self.masks
                for r0, r1, r2 in triples
            ]

        def pack(consts):
            triples = zip(*(m.rows for m in consts))
            rows = tuple(r0 | r1 << n | r2 << 2 * n for r0, r1, r2 in triples)
            return GF2Matrix._unchecked(n, 3 * n, rows)

        return self._members(
            interlace.modified_interlacement_matrix, is_whole, pack
        )

    def entry(self, i: int, k: int) -> GF2Matrix:
        """M(orbit[i], all_ts[k]), assembled from W of whole member i."""
        n = self.g.n
        m0, m1, m2 = self.masks[k]
        rows = self.blocks[i].rows
        return GF2Matrix._unchecked(
            n, n, tuple(r & m0 | r >> n & m1 | r >> 2 * n & m2 for r in rows)
        )

    @cached_property
    def forms(self):
        """Per member, the reduced echelon rows of W_c when it is whole
        and M(c, c.ts) = I, so that W_c has full row rank; None
        otherwise."""
        identity = GF2Matrix.identity(self.g.n)
        return [
            None
            if w is None or self.entry(i, self.own[i]) != identity
            else _rref_rows(w.rows, w.ncols)[0]
            for i, w in enumerate(self.blocks)
        ]

    @cached_property
    def labels(self):
        """The labels of P_0, P_1 and P_2 wrt each whole member."""
        vertices = self.g.vertices
        keys = set(vertices)

        def is_whole(row, consts):
            # per vertex, its label in each constant entry
            by_code = [tuple(k.get(w) for k in consts) for w in vertices]
            return all(labels.keys() == keys for labels in row) and [
                labels[w] for labels in row for w in vertices
            ] == [
                lab[t] for ts in self.all_ts for lab, t in zip(by_code, ts.codes)
            ]

        return self._members(interlace.label_transitions, is_whole, list)


def _pair_row(table: _OrbitTable, i: int, j: int) -> bool:
    """Row (c, c2) of naturality and of the inverse pair, both proved
    when the two members have one form (see the module docstring)."""
    forms = table.forms
    return forms[i] is not None and forms[i] == forms[j]


def _vertex_row(table: _OrbitTable, i: int, members, holds) -> bool:
    """Row c = orbit[i] of a check over (c, ts, v): c and each
    kappa(c, v) = orbit[j] are whole, their ``members`` entries not None,
    and ``holds(c, j, v)``, the identity at the three constant systems."""
    c = table.orbit[i]
    if members[i] is None:
        return False
    for v in table.g.vertices:
        j = table.index.get(kappa_transform(c, v).ts)
        if j is None or members[j] is None or not holds(c, j, v):
            return False
    return True


def _transform_row(table: _OrbitTable, i: int) -> bool:
    blocks = table.blocks

    def holds(c, j, v):
        return interlace.modified_local_complement(blocks[i], c, v) == blocks[j]

    return _vertex_row(table, i, blocks, holds)


def _label_row(table: _OrbitTable, i: int) -> bool:
    labels = table.labels

    def holds(c, j, v):
        return all(
            _exchanged_labels(c, v, before) == after
            for before, after in zip(labels[i], labels[j])
        )

    return _vertex_row(table, i, labels, holds)


def _closure_row(table: Optional[_OrbitTable]) -> bool:
    """Kotzig closure's one point: the run's orbit has as many members
    as the count its table was given, within ``_ORBIT_LIMIT``."""
    return table is not None and len(table.orbit) == table.count <= _ORBIT_LIMIT


def _core_row(table, p) -> bool:
    """Row ts of core independence, ``p`` the partition ts traces: the
    core vectors of its k circuits have rank k minus the number of
    components, and each component's vectors sum to 0.  The dependencies
    among the vectors are then exactly the sums of component indicators,
    so a subset is independent exactly when it holds no whole component,
    which is the check at every subset.  ``core_vector`` and ``rank``
    are read through ``interlace``, as the per-point check reads them;
    the row needs no table."""
    g = p.graph
    vectors = [interlace.core_vector(g, circ) for circ in p.circuits]
    sums: Dict[int, int] = {}
    for circ, vector in zip(p.circuits, vectors):
        comp = g.component_of[circ.crossings[0][0] >> 2]
        sums[comp] = sums.get(comp, 0) ^ vector.bits
    return not any(sums.values()) and interlace.rank(
        GF2Matrix.from_vectors(vectors, g.n)
    ) == len(vectors) - len(sums)


# Each property's checks, each with the axes its arguments after the graph
# range over, outermost first, and its row proof: c and c2 range over the
# transform orbit of the reference Euler system c0, ts over all 3^n
# transition systems, v over the vertices, and subset, which only follows
# ts, over the subsets of the circuits that ts traces.  A check with no
# axes is a property of the graph alone.  A row proof takes the run's
# table and a row of ``_rows``; a check with none (None) runs every point.
_Check = Tuple[Callable[..., CheckResult], Tuple[str, ...], Optional[Callable]]
PROPERTIES: Dict[str, Tuple[_Check, ...]] = {
    "local-complement transform": (
        (check_local_complement_transform, ("c", "ts", "v"), _transform_row),
    ),
    "naturality": ((check_naturality, ("c", "c2", "ts"), _pair_row),),
    "inverse": ((check_inverse, ("c", "c2"), _pair_row),),
    "core-kernel equality": ((check_core_kernel, ("c0", "ts"), None),),
    "circuit nullity": ((check_circuit_nullity, ("c0", "ts"), None),),
    "core independence": ((check_core_independence, ("ts", "subset"), _core_row),),
    "kotzig closure": ((_check_closure, (), _closure_row),),
    "label exchange": (
        (check_label_exchange, ("c", "ts", "v"), _label_row),
        (check_interlacement_complement, ("c", "v"), None),
    ),
}
PROPERTY_NAMES = tuple(PROPERTIES)


def _over_orbit(checks) -> bool:
    return any({"c", "c2"} & set(axes) for _, axes, _ in checks)


def _orbit_table(g: Graph4R, c0: EulerSystem, count: Optional[int] = None):
    """The run's ``_OrbitTable`` over the transform orbit of ``c0``, or
    the ``NotEulerSystem`` text naming the first walked member that is
    not an Euler system."""
    try:
        return _OrbitTable(g, kotzig_orbit(g, c0), count)
    except NotEulerSystem as exc:
        return str(exc)


def _sweep(g, c0, name, checks, table) -> PropertyOutcome:
    """Run ``checks``, the ``PROPERTIES`` entry of property ``name``, over
    their full products; a check that raises ``TooLarge`` skips the
    property.

    ``table`` is what ``_orbit_table`` returned for the run, or None
    where no check ranges over c or c2.  A failed walk skips a property
    over the orbit, naming the member.
    """
    outcome = PropertyOutcome(name)
    if isinstance(table, str):
        if _over_orbit(checks):
            outcome.skipped = f"kotzig closure failed: {table}"
            return outcome
        table = None
    orbit = () if table is None else table.orbit
    try:
        for check, axes, prove in checks:
            for row, lead, points in _rows(g, c0, orbit, axes):
                if prove is not None and prove(table, *row):
                    outcome.checks += len(points)
                    continue
                for args in points:
                    outcome.record(g, check(g, *lead, *args))
    except TooLarge as exc:
        outcome.skipped = str(exc)
    return outcome


def sweep_property(g: Graph4R, c0: EulerSystem, name: str) -> PropertyOutcome:
    """Run one property of ``PROPERTIES`` over its full product of axes.

    Args:
        c0: the reference Euler system; the c and c2 axes range over its
            transform orbit.
    """
    checks = PROPERTIES[name]
    table = _orbit_table(g, c0) if _over_orbit(checks) else None
    return _sweep(g, c0, name, checks, table)


def _negative_control(g, c, ts, v) -> CheckResult:
    """The local-complement transform check with one matrix entry
    flipped, so that it must fail."""
    lhs = interlace.modified_local_complement(
        interlace.modified_interlacement_matrix(c, ts), c, v
    )
    rhs = interlace.modified_interlacement_matrix(kappa_transform(c, v), ts)
    return CheckResult(
        _corrupted(lhs) == rhs,
        {"note": _CONTROL, "vertex": v, "euler": c.ts, "partition": ts},
    )


def _properties(corrupt: bool):
    """The property table; with ``corrupt``, the first transform check of
    the run is the negative control, and its row 0 is never proved."""
    if not corrupt:
        return PROPERTIES
    name = "local-complement transform"
    ((check, axes, prove),) = PROPERTIES[name]
    calls = itertools.count()

    def first_corrupted(g, *args):
        return (_negative_control if next(calls) == 0 else check)(g, *args)

    def later_rows(table, i):
        return i > 0 and prove(table, i)

    return {**PROPERTIES, name: ((first_corrupted, axes, later_rows),)}


def _work_estimate(g: Graph4R, size: int) -> int:
    """Upper bound on the checks of an exhaustive sweep of ``g`` whose
    transform orbit has ``size`` systems, summed over ``PROPERTIES``: a
    transition system traces at most c + n circuits."""
    n, total_ts = g.n, 3 ** g.n
    per_ts = 2 * size * n + size ** 2 + 2 + 2 ** (g.c + n)
    return total_ts * per_ts + size ** 2 + size * n + 1


def run_exhaustive(
    g: Graph4R,
    *,
    force: bool = False,
    corrupt: bool = False,
) -> VerifyReport:
    """Exhaustive sweep: every property over its full product of axes.

    The transform orbit of ``hierholzer(g)`` is walked once, and its
    table of matrices and labels, or the walk's failure, is shared by
    every property, whose rows the table proves where it can (see the
    module docstring); the closure row reads the orbit and the work
    guard's count.

    Raises:
        TooLarge: the frontier engine refuses to count the Euler systems,
            or the number of checks estimated from that count exceeds
            ``_WORK_LIMIT`` (pass ``force=True`` to run anyway); either
            is raised before any orbit exists.
    """
    count = euler_count(g)
    estimate = _work_estimate(g, count)
    if estimate > _WORK_LIMIT and not force:
        raise TooLarge(
            f"exhaustive sweep needs about {estimate} checks (limit {_WORK_LIMIT})"
        )
    c0 = hierholzer(g)
    meta = [_graph_line(g), "mode: exhaustive"]
    table = _orbit_table(g, c0, count)
    if not isinstance(table, str):
        meta.append(f"orbit size: {len(table.orbit)}")
    properties = _properties(corrupt)
    return VerifyReport(
        meta,
        [_sweep(g, c0, name, properties[name], table) for name in PROPERTY_NAMES],
    )


def _graph_line(g: Graph4R) -> str:
    comp = "component" if g.c == 1 else "components"
    return f"graph: {g.n} vertices, {len(g.edges)} edges, {g.c} {comp}"


def _random_walk(c0: EulerSystem, rng: random.Random) -> EulerSystem:
    """A random transform walk from ``c0``.  Its steps bypass the
    ``kappa_transform`` cache, which then holds only the transforms that
    the checks read."""
    c = c0
    for _ in range(rng.randrange(0, 2 * c0.graph.n + 1)):
        c = _kappa(c, rng.choice(c0.graph.vertices))
    return c


def _run_sampled(head, pairs, samples, seed, corrupt) -> VerifyReport:
    """Draw ``samples`` random configurations, each passed to every
    property that has axes; a sample's Euler system c also stands in for
    c0.

    All draws come from one ``random.Random(seed)`` stream, which
    ``pairs`` takes to yield each sample's graph and its reference Euler
    system c0 in turn.  Kotzig closure is checked on the first graph
    alone, before its sample is drawn, so a stream that yields a pair
    beyond the last sample has its graph checked even for 0 samples.
    """
    rng = random.Random(seed)
    properties = _properties(corrupt)
    outcomes = {name: PropertyOutcome(name) for name in PROPERTY_NAMES}
    closure = "kotzig closure"
    for k, (g, c0) in enumerate(pairs(rng)):
        if k == 0:
            outcomes[closure] = sweep_property(g, c0, closure)
        if k == samples:
            break
        c = _random_walk(c0, rng)
        c2 = _random_walk(c0, rng)
        ts = TransitionSystem(tuple(rng.randrange(3) for _ in range(g.n)))
        v = rng.choice(g.vertices)
        size = trace_partition(g, ts).size
        subset = tuple(i for i in range(size) if rng.random() < 0.5)
        sample = {"c": c, "c0": c, "c2": c2, "ts": ts, "v": v, "subset": subset}
        for name, checks in properties.items():
            for check, axes, _ in checks:
                if axes:
                    outcomes[name].record(g, check(g, *(sample[a] for a in axes)))
    meta = [head, f"mode: samples ({samples})", f"seed: {seed}"]
    return VerifyReport(meta, [outcomes[name] for name in PROPERTY_NAMES])


def run_samples(
    g: Graph4R,
    samples: int,
    seed: int,
    *,
    corrupt: bool = False,
) -> VerifyReport:
    """Seeded random sweep over one graph: per sample, random Euler
    systems (random transform walks), transition system, vertex, and
    circuit subset."""
    c0 = hierholzer(g)
    return _run_sampled(
        _graph_line(g), lambda rng: itertools.repeat((g, c0)), samples, seed, corrupt
    )


def run_random_graphs(
    size: int,
    samples: int,
    seed: int,
    *,
    corrupt: bool = False,
) -> VerifyReport:
    """Seeded random sweep over freshly generated matching graphs.

    Each sample draws a new random perfect matching on 4*size labeled
    half-edges and then one random configuration on it.  Kotzig closure
    is checked on the first graph only.
    """

    def pairs(rng):
        for _ in range(samples):
            g = random_matching_graph(size, seed=rng.randrange(2 ** 32))
            yield g, hierholzer(g)

    head = f"graphs: {samples} generated, {size} vertices each"
    return _run_sampled(head, pairs, samples, seed, corrupt)
