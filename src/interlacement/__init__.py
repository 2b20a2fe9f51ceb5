"""Interlacement matrices of circuit partitions in 4-regular multigraphs.

Build a 4-regular multigraph from explicit half-edge pairings, pick an
Euler system, choose any transition system, and the package hands back
the traced circuit partition, its modified interlacement matrix over
GF(2), and exact rank/kernel data.  Every structural identity the
matrix construction rests on ships with an executable check.
"""

import importlib

__version__ = "0.1.0"

# module -> the public names it defines.  A name's module is imported on
# first access (PEP 562), so a command loads only the layers it runs.
_EXPORTS = {
    "errors": (
        "AlreadyEuler",
        "DimensionMismatch",
        "GraphError",
        "GraphMismatch",
        "IndexOutOfRange",
        "InterlacementError",
        "InvalidProfile",
        "NoVertices",
        "NotAJunction",
        "NotEulerSystem",
        "ParseError",
        "Singular",
        "SlotMissing",
        "SlotReused",
        "TooLarge",
        "UnknownVertex",
    ),
    "gf2": (
        "GF2Matrix",
        "GF2Vector",
        "inverse",
        "kernel_basis",
        "mat_mul",
        "rank",
        "rref",
        "spans_equal",
    ),
    "graph4": (
        "Circuit",
        "CircuitPartition",
        "Graph4R",
        "HalfEdge",
        "TRANSITIONS",
        "Transition",
        "TransitionSystem",
        "build_graph",
        "connected_components",
        "random_matching_graph",
        "trace_partition",
        "unite_circuits",
    ),
    "euler": (
        "DoubleOccurrenceWord",
        "EulerSystem",
        "TransitionLabel",
        "dow",
        "euler_from_partition",
        "hierholzer",
        "kappa_transform",
        "kotzig_orbit",
        "label_transitions",
        "orbit_keys",
        "transition_for_label",
    ),
    "interlace": (
        "CheckResult",
        "SimpleGraph",
        "adjacency_matrix",
        "check_circuit_nullity",
        "check_core_independence",
        "check_core_kernel",
        "check_interlacement_complement",
        "check_inverse",
        "check_label_exchange",
        "check_local_complement_transform",
        "check_naturality",
        "circuit_nullity",
        "core_space",
        "core_vector",
        "interlacement_graph",
        "modified_interlacement_matrix",
        "modified_local_complement",
        "simple_local_complement",
    ),
    "profile": (
        "PartitionProfile",
        "euler_count",
        "profile_by_frontier",
        "profile_by_nullity",
        "profile_by_tracing",
    ),
    "verify": (
        "PropertyOutcome",
        "VerifyReport",
        "run_exhaustive",
        "run_random_graphs",
        "run_samples",
        "sweep_property",
    ),
}
_HOME = {name: module for module, names in _EXPORTS.items() for name in names}

__all__ = list(_HOME)


def __getattr__(name):
    module = _HOME.get(name)
    if module is None:
        raise AttributeError(f"module {__name__!r} has no attribute {name!r}")
    return getattr(importlib.import_module(f"{__name__}.{module}"), name)


def __dir__():
    return sorted(set(globals()) | set(__all__))
