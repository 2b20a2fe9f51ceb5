"""Property sweeps: run every matrix and label identity check over a graph.

One table, ``PROPERTIES``, names the checks of each property and the
axes their arguments range over.  Three modes drive it and share one
report shape: an exhaustive sweep runs each property over its own full
product of axes (the Euler-system orbit, all 3^n transition systems,
the vertices, the circuit subsets); a seeded random sweep over one
graph, and one over freshly generated matching graphs, draw one random
configuration per sample and pass it to every property.  All randomness
comes from one ``random.Random(seed)`` stream, so reports are
reproducible byte for byte.

Three identities of the exhaustive sweep act column by column:
naturality, M(c2, ts) = M(c2, c.ts) M(c, ts) over (c, c2, ts); the
local-complement transform, a row operation on M(c, ts), over
(c, ts, v); and the label exchange over (c, ts, v).  Column v of M(c, ts)
depends only on ts's code t at v (it is e_v, A e_v or A e_v + e_v), and
so does the label at v.  The sweep builds one table per run of M(c, ts)
and the labels of ts wrt c for every orbit member c and every ts, and
checks whether every entry of a member is its *column assembly*: column
v taken from the constant system whose codes are all t.  Per (c, c2), or
per (c, v), it then compares both sides of the identity at the three
constant systems only.  When both members' entries are column
assemblies, the change of basis is nonsingular (naturality only) and
both sides agree at the three constant systems, the identity holds at
every ts, and the checks of that pair, or of that member over all its
(ts, v), count at once.  Every point of any other pair or member goes to
the per-point check.

That proof needs the other side of each identity to act column by
column too: ``mat_mul(X, .)`` and ``modified_local_complement(., c, v)``
must commute with the column assembly, which
``test_row_operations_commute_with_column_assembly`` pins, and the
exchange rule reads each vertex's label alone.  Under that condition the
checks, the verdicts and the witnesses, in order, are those of a sweep
of one call per point.  The inverse pair reads both its matrices,
M(c, c2.ts) and M(c2, c.ts), from the same table and compares them as
``check_inverse`` does.  The other properties, and the local-complement
transform under ``corrupt``, run one call per point.
"""

from __future__ import annotations

import itertools
import random
from dataclasses import dataclass, field
from functools import cached_property
from typing import Callable, Dict, List, Optional, Tuple

from . import interlace
from .errors import TooLarge
from .euler import EulerSystem, hierholzer, kappa_transform, kotzig_orbit
from .gf2 import GF2Matrix, mat_mul, rank
from .graph4 import (
    Graph4R,
    TRANSITIONS,
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
    interlacement_graph,
    modified_interlacement_matrix,
    modified_local_complement,
    _exchanged_labels,
    _inverse_result,
    _naturality_result,
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
    exactly when its size is the frontier engine's count.

    Raises:
        TooLarge: the count exceeds ``_ORBIT_LIMIT`` or the frontier
            engine refuses the graph; the orbit is never built.
    """
    count = euler_count(g)
    if count > _ORBIT_LIMIT:
        raise TooLarge(
            f"orbit of {count} Euler systems exceeds the limit of {_ORBIT_LIMIT}"
        )
    size = len(kotzig_orbit(g, hierholzer(g)))
    ok = size == count
    return CheckResult(ok, None if ok else {"orbit": size, "euler_count": count})


# Each property's checks, each with the axes its arguments after the graph
# range over, outermost first: c and c2 range over the transform orbit of
# the reference Euler system c0, ts over all 3^n transition systems, v
# over the vertices, and subset, which only follows ts, over the subsets
# of the circuits that ts traces.  A check with no axes is a property of
# the graph alone.
_CheckOnAxes = Tuple[Callable[..., CheckResult], Tuple[str, ...]]
PROPERTIES: Dict[str, Tuple[_CheckOnAxes, ...]] = {
    "local-complement transform": (
        (check_local_complement_transform, ("c", "ts", "v")),
    ),
    "naturality": ((check_naturality, ("c", "c2", "ts")),),
    "inverse": ((check_inverse, ("c", "c2")),),
    "core-kernel equality": ((check_core_kernel, ("c0", "ts")),),
    "circuit nullity": ((check_circuit_nullity, ("c0", "ts")),),
    "core independence": ((check_core_independence, ("ts", "subset")),),
    "kotzig closure": ((_check_closure, ()),),
    "label exchange": (
        (check_label_exchange, ("c", "ts", "v")),
        (check_interlacement_complement, ("c", "v")),
    ),
}
PROPERTY_NAMES = tuple(PROPERTIES)

_MAX_WITNESSES = 3
_WORK_LIMIT = 5_000_000
_ORBIT_LIMIT = 3 ** 8


@dataclass
class PropertyOutcome:
    name: str
    checks: int = 0
    failures: List[str] = field(default_factory=list)
    skipped: Optional[str] = None

    @property
    def ok(self) -> bool:
        return not self.failures

    def record(self, result: CheckResult, describe: Callable[[], str]) -> None:
        self.checks += 1
        if not result and len(self.failures) < _MAX_WITNESSES:
            self.failures.append(describe())


@dataclass
class VerifyReport:
    meta: List[str]
    outcomes: List[PropertyOutcome]

    @property
    def passed(self) -> bool:
        return all(o.ok for o in self.outcomes)


def _fmt_ts(g: Graph4R, ts: TransitionSystem) -> str:
    return " ".join(
        f"{v}:{TRANSITIONS[c].value}" for v, c in zip(g.vertices, ts.codes)
    )


def _fmt_matrix(m: GF2Matrix) -> str:
    return "/".join(str(m.row(i)) for i in range(m.nrows))


def _fmt_witness(g: Graph4R, data: Dict) -> str:
    parts = []
    for key, value in data.items():
        if isinstance(value, TransitionSystem):
            parts.append(f"{key}=[{_fmt_ts(g, value)}]")
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


def _points(g, c0, orbit, axes):
    """Every argument tuple over ``axes``, outermost axis first."""
    all_ts = map(TransitionSystem, itertools.product((0, 1, 2), repeat=g.n))
    if axes == ("ts", "subset"):
        return (
            (ts, subset)
            for ts in all_ts
            for subset in _subset_iter(trace_partition(g, ts).size)
        )
    domains = {"c": orbit, "c2": orbit, "c0": (c0,), "ts": all_ts, "v": g.vertices}
    return itertools.product(*(domains[axis] for axis in axes))


def _record(outcome: PropertyOutcome, g: Graph4R, result: CheckResult) -> None:
    outcome.record(result, lambda: _fmt_witness(g, result.witness))


class _OrbitTable:
    """The matrices and labels of one run: M(c, ts) and
    ``label_transitions(c, ts)`` for every member c of one orbit and every
    ts of ``all_ts``, in ``itertools.product`` order.

    Column v of M(c, ts), like the label at v, depends only on ts's code t
    there, so it should be column v of M(c, P_t), P_t the constant system
    with every code t.  The *column assembly* of an entry takes each column
    from the entry of its code's constant system; ``whole[i]`` tells
    whether every entry of member i is its column assembly.  Each half is
    built on first use.  The matrix half keeps every entry, the label half
    only the three constant entries of each member.

    The builders are read through ``interlace``, where the per-point checks
    read them, so both routes run the same functions.
    """

    def __init__(self, g: Graph4R, orbit):
        self.g = g
        self.orbit = orbit
        self.all_ts = list(
            map(TransitionSystem, itertools.product((0, 1, 2), repeat=g.n))
        )
        self.index = {c.ts: i for i, c in enumerate(orbit)}
        # masks[k][t]: the vertices where all_ts[k] has code t
        self.masks = [
            tuple(
                sum(1 << v for v, code in enumerate(ts.codes) if code == t)
                for t in (0, 1, 2)
            )
            for ts in self.all_ts
        ]
        # position of P_t in all_ts
        self.constant = [
            _ts_index(TransitionSystem((t,) * g.n)) for t in (0, 1, 2)
        ]

    def _rows(self, build, is_assembly):
        """Per member: its entries over ``all_ts`` and its ``whole`` flag."""
        for c in self.orbit:
            row = [build(c, ts) for ts in self.all_ts]
            consts = [row[k] for k in self.constant]
            yield row, all(
                is_assembly(entry, consts, ts, masks)
                for entry, ts, masks in zip(row, self.all_ts, self.masks)
            )

    @cached_property
    def matrices(self):
        """(entries, whole), ``entries[i][k]`` = M(orbit[i], all_ts[k])."""
        n = self.g.n

        def is_assembly(m, consts, ts, masks):
            m0, m1, m2 = masks
            assembly = tuple(
                r0 & m0 | r1 & m1 | r2 & m2
                for r0, r1, r2 in zip(*(k.rows for k in consts))
            )
            return m.nrows == m.ncols == n and m.rows == assembly

        entries, whole = [], []
        for row, flag in self._rows(
            interlace.modified_interlacement_matrix, is_assembly
        ):
            entries.append(row)
            whole.append(flag)
        return entries, whole

    @cached_property
    def labels(self):
        """(constants, whole), ``constants[i][t]`` = the labels of P_t
        wrt orbit[i]."""
        vertices = self.g.vertices

        def is_assembly(labels, consts, ts, masks):
            return labels == {
                w: consts[t].get(w) for w, t in zip(vertices, ts.codes)
            }

        constants, whole = [], []
        for row, flag in self._rows(interlace.label_transitions, is_assembly):
            constants.append([row[k] for k in self.constant])
            whole.append(flag)
        return constants, whole


def _sweep_naturality(outcome: PropertyOutcome, g: Graph4R, table) -> None:
    """Naturality over the axes (c, c2, ts), decided column by column.

    The change of basis X = M(c2, c.ts) is a table entry, with its rank
    taken once per pair.  Left multiplication by X acts on each column
    alone, so when every M(c, ts) and M(c2, ts) is a column assembly,
    X M(c, ts) = M(c2, ts) holds for every ts as soon as it holds at the
    three constant systems.  A pair proven so, with X nonsingular, counts
    its 3^n checks at once; every point of any other pair is decided by
    ``_naturality_result`` on its table entries.
    """
    matrices, whole = table.matrices
    for i, c in enumerate(table.orbit):
        k_c = _ts_index(c.ts)
        for j, c2 in enumerate(table.orbit):
            m_change = matrices[j][k_c]
            nonsingular = rank(m_change) == g.n
            proven = nonsingular and whole[i] and whole[j] and all(
                mat_mul(m_change, matrices[i][k]) == matrices[j][k]
                for k in table.constant
            )
            if proven:
                outcome.checks += len(table.all_ts)
                continue
            for k, ts in enumerate(table.all_ts):
                result = _naturality_result(
                    c, c2, ts, m_change, nonsingular, matrices[i][k], matrices[j][k]
                )
                _record(outcome, g, result)


def _sweep_inverse(outcome: PropertyOutcome, g: Graph4R, table) -> None:
    """The inverse pair over the axes (c, c2): M(c, c2.ts) and
    M(c2, c.ts) are table entries, compared by ``_inverse_result``."""
    matrices, _ = table.matrices
    k_ts = [_ts_index(c.ts) for c in table.orbit]
    for i, c in enumerate(table.orbit):
        for j, c2 in enumerate(table.orbit):
            result = _inverse_result(
                g, c, c2, matrices[i][k_ts[j]], matrices[j][k_ts[i]]
            )
            _record(outcome, g, result)


def _sweep_by_vertex(outcome, g, table, whole, holds, check) -> None:
    """``check`` over the axes (c, ts, v), decided column by column.

    ``holds(i, j, v)`` tells whether the identity holds at the three
    constant systems, where i and j are the orbit indices of c and of
    kappa(c, v), whose entries ``whole`` flags.  A member c whose every
    (c, v) is proven so counts its 3^n * n checks at once; every point of
    any other member, a kappa(c, v) outside the orbit included, is decided
    by ``check``.
    """
    for i, c in enumerate(table.orbit):
        kappa = [table.index.get(kappa_transform(c, v).ts) for v in g.vertices]
        if whole[i] and all(
            j is not None and whole[j] and holds(i, j, v)
            for v, j in zip(g.vertices, kappa)
        ):
            outcome.checks += len(table.all_ts) * g.n
            continue
        for ts in table.all_ts:
            for v in g.vertices:
                _record(outcome, g, check(g, c, ts, v))


def _sweep_transform(outcome: PropertyOutcome, g: Graph4R, table) -> None:
    """The local-complement transform over (c, ts, v), column by column:
    the row operations at v are a left multiplication, so they too act on
    each column of M(c, ts) alone."""
    matrices, whole = table.matrices

    def holds(i, j, v):
        c = table.orbit[i]
        return all(
            interlace.modified_local_complement(matrices[i][k], c, v)
            == matrices[j][k]
            for k in table.constant
        )

    _sweep_by_vertex(
        outcome, g, table, whole, holds, check_local_complement_transform
    )


def _sweep_label_exchange(outcome: PropertyOutcome, g: Graph4R, table) -> None:
    """The label exchange over (c, ts, v), column by column: the rule at
    each vertex reads the label there alone."""
    constants, whole = table.labels

    def holds(i, j, v):
        c = table.orbit[i]
        return all(
            _exchanged_labels(c, v, before) == after
            for before, after in zip(constants[i], constants[j])
        )

    _sweep_by_vertex(outcome, g, table, whole, holds, check_label_exchange)


# Checks whose exhaustive sweep over their axes reads the run's
# ``_OrbitTable``: the inverse pair reads its matrices there, the others
# also prove most points column by column.  Keyed by the function
# objects in ``PROPERTIES``.
_TABLE_SWEEPS = {
    check_naturality: _sweep_naturality,
    check_inverse: _sweep_inverse,
    check_local_complement_transform: _sweep_transform,
    check_label_exchange: _sweep_label_exchange,
}


def _orbit(g: Graph4R, c0: EulerSystem):
    """The transform orbit of ``c0``, with its interlacement graphs cached.

    The checks' own transforms return equal copies of orbit systems.
    Caching the orbit's interlacement graphs first keys the cache by the
    objects swept here, so their lookups match by identity and skip a
    slower equality test.
    """
    orbit = kotzig_orbit(g, c0)
    for c in orbit:
        interlacement_graph(c)
    return orbit


def _sweep(g, c0, name, checks, table=None) -> PropertyOutcome:
    """Run ``checks``, the ``PROPERTIES`` entry of property ``name``, over
    their full products; a check that raises ``TooLarge`` skips the
    property.

    ``table`` is the run's ``_OrbitTable`` when the caller has made one;
    otherwise one is made here if a check ranges over c or c2.
    """
    outcome = PropertyOutcome(name)
    if table is None and any({"c", "c2"} & set(axes) for _, axes in checks):
        table = _OrbitTable(g, _orbit(g, c0))
    orbit = None if table is None else table.orbit
    try:
        for check, axes in checks:
            table_sweep = _TABLE_SWEEPS.get(check)
            if table_sweep is not None:
                table_sweep(outcome, g, table)
                continue
            for args in _points(g, c0, orbit, axes):
                _record(outcome, g, check(g, *args))
    except TooLarge as exc:
        outcome.skipped = str(exc)
    return outcome


def sweep_property(g: Graph4R, c0: EulerSystem, name: str) -> PropertyOutcome:
    """Run one property of ``PROPERTIES`` over its full product of axes.

    Args:
        c0: the reference Euler system; the c and c2 axes range over its
            transform orbit.
    """
    return _sweep(g, c0, name, PROPERTIES[name])


def _negative_control(g, c, ts, v) -> CheckResult:
    """The local-complement transform check with one matrix entry
    flipped, so that it must fail."""
    lhs = modified_local_complement(modified_interlacement_matrix(c, ts), c, v)
    rhs = modified_interlacement_matrix(kappa_transform(c, v), ts)
    return CheckResult(
        _corrupted(lhs) == rhs,
        {
            "note": "negative control (corrupted entry)",
            "vertex": v,
            "euler": c.ts,
            "partition": ts,
        },
    )


def _properties(corrupt: bool):
    """The property table; with ``corrupt``, the first local-complement
    transform check of the run is the negative control."""
    if not corrupt:
        return PROPERTIES
    name = "local-complement transform"
    ((check, axes),) = PROPERTIES[name]
    calls = itertools.count()

    def first_corrupted(g, *args):
        return (_negative_control if next(calls) == 0 else check)(g, *args)

    return {**PROPERTIES, name: ((first_corrupted, axes),)}


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

    The transform orbit of ``hierholzer(g)`` and its table of matrices
    and labels are built once and shared by every property; naturality,
    the inverse pair, the local-complement transform and the label
    exchange are decided from the table (see the module docstring).

    Raises:
        TooLarge: the number of checks, estimated from ``euler_count``
            before any orbit exists, exceeds ``_WORK_LIMIT`` (pass
            ``force=True`` to run anyway).
    """
    if not force:
        estimate = _work_estimate(g, euler_count(g))
        if estimate > _WORK_LIMIT:
            raise TooLarge(
                f"exhaustive sweep needs about {estimate} checks "
                f"(limit {_WORK_LIMIT}); use force to run anyway"
            )
    c0 = hierholzer(g)
    table = _OrbitTable(g, _orbit(g, c0))
    properties = _properties(corrupt)
    meta = [
        _graph_line(g),
        "mode: exhaustive",
        f"orbit size: {len(table.orbit)}",
    ]
    return VerifyReport(
        meta,
        [_sweep(g, c0, name, properties[name], table) for name in PROPERTY_NAMES],
    )


def _graph_line(g: Graph4R) -> str:
    comp = "component" if g.c == 1 else "components"
    return f"graph: {g.n} vertices, {len(g.edges)} edges, {g.c} {comp}"


def _random_walk(c0: EulerSystem, rng: random.Random) -> EulerSystem:
    c = c0
    for _ in range(rng.randrange(0, 2 * c0.graph.n + 1)):
        c = kappa_transform(c, rng.choice(c0.graph.vertices))
    return c


def _check_sample(
    g: Graph4R,
    c0: EulerSystem,
    rng: random.Random,
    properties,
    outcomes: Dict[str, PropertyOutcome],
) -> None:
    """Draw one random configuration and pass it to every property that
    has axes; a sample's Euler system c also stands in for c0."""
    c = _random_walk(c0, rng)
    c2 = _random_walk(c0, rng)
    ts = TransitionSystem(tuple(rng.randrange(3) for _ in range(g.n)))
    v = rng.choice(g.vertices)
    size = trace_partition(g, ts).size
    subset = tuple(i for i in range(size) if rng.random() < 0.5)
    sample = {"c": c, "c0": c, "c2": c2, "ts": ts, "v": v, "subset": subset}
    for name, checks in properties.items():
        for check, axes in checks:
            if axes:
                _record(outcomes[name], g, check(g, *(sample[a] for a in axes)))


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
    rng = random.Random(seed)
    c0 = hierholzer(g)
    properties = _properties(corrupt)
    outcomes = {name: PropertyOutcome(name) for name in PROPERTY_NAMES}
    for _ in range(samples):
        _check_sample(g, c0, rng, properties, outcomes)
    outcomes["kotzig closure"] = sweep_property(g, c0, "kotzig closure")
    meta = [
        _graph_line(g),
        f"mode: samples ({samples})",
        f"seed: {seed}",
    ]
    return VerifyReport(meta, [outcomes[name] for name in PROPERTY_NAMES])


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
    rng = random.Random(seed)
    properties = _properties(corrupt)
    outcomes = {name: PropertyOutcome(name) for name in PROPERTY_NAMES}
    closure = "kotzig closure"
    for i in range(samples):
        g = random_matching_graph(size, seed=rng.randrange(2 ** 32))
        c0 = hierholzer(g)
        _check_sample(g, c0, rng, properties, outcomes)
        if i == 0:
            outcomes[closure] = sweep_property(g, c0, closure)
    meta = [
        f"graphs: {samples} generated, {size} vertices each",
        f"mode: samples ({samples})",
        f"seed: {seed}",
    ]
    return VerifyReport(meta, [outcomes[name] for name in PROPERTY_NAMES])
