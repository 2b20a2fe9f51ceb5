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
"""

from __future__ import annotations

import itertools
import random
from dataclasses import dataclass, field
from typing import Callable, Dict, List, Optional, Tuple

from .errors import TooLarge
from .euler import (
    EulerSystem,
    all_euler_systems_bruteforce,
    hierholzer,
    kappa_transform,
    kotzig_orbit,
)
from .gf2 import GF2Matrix
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
)

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
    """The transform orbit of an Euler system is every Euler system."""
    orbit = kotzig_orbit(g, hierholzer(g))
    brute = all_euler_systems_bruteforce(g)
    ok = {e.ts for e in orbit} == {e.ts for e in brute}
    return CheckResult(ok, None if ok else {"orbit": len(orbit), "total": len(brute)})


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
_DEFAULT_WORK_LIMIT = 5_000_000
_ORBIT_LIMIT = 20_000
_KOTZIG_SAMPLES_GUARD = 8


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
                f"{key}={{" + " ".join(f"{k}:{v}" for k, v in value.items()) + "}}"
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


def _sweep(g, c0, name, checks) -> PropertyOutcome:
    """Run ``checks``, the table entry of property ``name``, over their
    full products; Kotzig closure is skipped above its vertex guard."""
    outcome = PropertyOutcome(name)
    if name == "kotzig closure" and g.n > _KOTZIG_SAMPLES_GUARD:
        outcome.skipped = (
            f"needs all 3^{g.n} transition systems; guard at "
            f"{_KOTZIG_SAMPLES_GUARD} vertices"
        )
        return outcome
    orbit = ()
    if any({"c", "c2"} & set(axes) for _, axes in checks):
        orbit = kotzig_orbit(g, c0)
        # The checks' own transforms return equal copies of orbit systems.
        # Caching the orbit's interlacement graphs first keys the cache by
        # the objects swept here, so their lookups match by identity and
        # skip a slower equality test.
        for c in orbit:
            interlacement_graph(c)
    for check, axes in checks:
        for args in _points(g, c0, orbit, axes):
            _record(outcome, g, check(g, *args))
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
    lhs = modified_local_complement(modified_interlacement_matrix(c, ts), v)
    rhs = modified_interlacement_matrix(kappa_transform(c, v), ts)
    return CheckResult(
        _corrupted(lhs.matrix) == rhs.matrix,
        {
            "note": "negative control (corrupted entry)",
            "vertex": v,
            "euler": c.ts,
            "partition": ts,
        },
    )


def _table(corrupt: bool):
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


def run_exhaustive(
    g: Graph4R,
    *,
    force: bool = False,
    corrupt: bool = False,
    work_limit: int = _DEFAULT_WORK_LIMIT,
) -> VerifyReport:
    """Exhaustive sweep: every property over its full product of axes.

    Raises:
        TooLarge: the estimated number of checks exceeds ``work_limit``
            (pass ``force=True`` to run anyway).
    """
    n = g.n
    c0 = hierholzer(g)
    orbit = kotzig_orbit(g, c0, limit=None if force else _ORBIT_LIMIT)
    total_ts = 3 ** n
    subset_bound = 2 ** (g.c + n)
    estimate = total_ts * (2 * len(orbit) * n + len(orbit) + subset_bound) + len(
        orbit
    ) ** 2
    if estimate > work_limit and not force:
        raise TooLarge(
            f"exhaustive sweep needs about {estimate} checks "
            f"(limit {work_limit}); use force to run anyway"
        )
    table = _table(corrupt)
    meta = [
        _graph_line(g),
        "mode: exhaustive",
        f"orbit size: {len(orbit)}",
    ]
    return VerifyReport(
        meta, [_sweep(g, c0, name, table[name]) for name in PROPERTY_NAMES]
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
    table,
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
    for name, checks in table.items():
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
    table = _table(corrupt)
    outcomes = {name: PropertyOutcome(name) for name in PROPERTY_NAMES}
    for _ in range(samples):
        _check_sample(g, c0, rng, table, outcomes)
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
    table = _table(corrupt)
    outcomes = {name: PropertyOutcome(name) for name in PROPERTY_NAMES}
    closure = "kotzig closure"
    for i in range(samples):
        g = random_matching_graph(size, seed=rng.randrange(2 ** 32))
        c0 = hierholzer(g)
        _check_sample(g, c0, rng, table, outcomes)
        if i == 0 and size <= 5:
            outcomes[closure] = sweep_property(g, c0, closure)
    if not outcomes[closure].checks:
        outcomes[closure].skipped = (
            f"size {size} above the closure guard (5 vertices)"
        )
    meta = [
        f"graphs: {samples} generated, {size} vertices each",
        f"mode: samples ({samples})",
        f"seed: {seed}",
    ]
    return VerifyReport(meta, [outcomes[name] for name in PROPERTY_NAMES])
