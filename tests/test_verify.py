import pytest

from interlacement import TooLarge, random_matching_graph
from interlacement.verify import (
    PROPERTY_NAMES,
    run_exhaustive,
    run_random_graphs,
    run_samples,
)
from conftest import graph_four_parallel


# report order; the check counts below are pinned, and any rework of the
# sweep harness must reproduce them exactly
NAMES = (
    "local-complement transform",
    "naturality",
    "inverse",
    "core-kernel equality",
    "circuit nullity",
    "core independence",
    "kotzig closure",
    "label exchange",
)


def summary(report):
    return [(o.name, o.checks, o.ok) for o in report.outcomes]


def passing(*checks):
    return [(name, count, True) for name, count in zip(NAMES, checks)]


def test_exhaustive_passes():
    report = run_exhaustive(graph_four_parallel())
    assert PROPERTY_NAMES == NAMES
    assert summary(report) == passing(108, 324, 36, 9, 9, 24, 1, 120)
    assert all(out.skipped is None for out in report.outcomes)


def test_exhaustive_work_guard():
    g = random_matching_graph(8, seed=0)
    with pytest.raises(TooLarge):
        run_exhaustive(g)


def test_exhaustive_corrupt_fails():
    report = run_exhaustive(graph_four_parallel(), corrupt=True)
    assert not report.passed
    bad = [o for o in report.outcomes if not o.ok]
    assert len(bad) == 1
    assert bad[0].name == "local-complement transform"
    assert bad[0].failures == [
        "note=negative control (corrupted entry) vertex=u "
        "euler=[u:01|23 v:02|13] partition=[u:01|23 v:01|23]"
    ]


def test_samples_deterministic():
    g = random_matching_graph(6, seed=2)
    a = run_samples(g, 15, seed=9)
    b = run_samples(g, 15, seed=9)
    assert summary(a) == summary(b) == passing(15, 15, 15, 15, 15, 15, 1, 30)


def test_samples_corrupt_fails():
    g = random_matching_graph(5, seed=4)
    report = run_samples(g, 5, seed=0, corrupt=True)
    assert not report.passed


def test_samples_skip_closure_on_big_graph():
    g = random_matching_graph(9, seed=0)
    report = run_samples(g, 2, seed=0)
    closure = next(o for o in report.outcomes if o.name == "kotzig closure")
    assert closure.skipped is not None


def test_random_graphs_mode():
    report = run_random_graphs(4, 4, seed=11)
    assert summary(report) == passing(4, 4, 4, 4, 4, 4, 1, 8)
    closure = next(o for o in report.outcomes if o.name == "kotzig closure")
    assert closure.skipped is None


def test_random_graphs_skip_closure_when_large():
    report = run_random_graphs(7, 2, seed=1)
    closure = next(o for o in report.outcomes if o.name == "kotzig closure")
    assert closure.skipped is not None
