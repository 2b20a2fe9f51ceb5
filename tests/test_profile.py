import itertools
import subprocess
import sys
from collections import Counter

import pytest

from interlacement import (
    GraphMismatch,
    InvalidProfile,
    PartitionProfile,
    TooLarge,
    TransitionSystem,
    build_graph,
    circuit_count,
    euler_count,
    hierholzer,
    kotzig_orbit,
    profile_by_nullity,
    profile_by_tracing,
    random_matching_graph,
)
from conftest import corpus, graph_disconnected, graph_two_loops


def naive_profile(g):
    # the slowest possible oracle: trace every transition system one at
    # a time through the scalar tracer
    counts = Counter()
    for codes in itertools.product((0, 1, 2), repeat=g.n):
        counts[circuit_count(g, codes)] += 1
    return dict(counts)


@pytest.mark.parametrize("g", corpus(5), ids=lambda g: "-".join(g.vertices))
def test_tracing_against_naive(g):
    assert dict(profile_by_tracing(g).coefficients) == naive_profile(g)


def test_golden_loops(g_loops):
    assert dict(profile_by_tracing(g_loops).coefficients) == {1: 2, 2: 1}


def test_golden_parallel(g_4par):
    assert dict(profile_by_tracing(g_4par).coefficients) == {1: 6, 2: 3}


@pytest.mark.parametrize("g", corpus(8), ids=lambda g: "-".join(g.vertices))
def test_engines_agree(g):
    trace = profile_by_tracing(g)
    by_rank = profile_by_nullity(g)
    assert trace.coefficients == by_rank.coefficients
    assert trace.total() == 3 ** g.n


def test_profile_shape(g_split):
    prof = profile_by_tracing(g_split)
    assert prof.total() == 3 ** g_split.n
    assert min(prof.coefficients) == g_split.c
    assert max(prof.coefficients) <= g_split.c + g_split.n


def test_disjoint_union_convolution():
    # the profile of a disjoint union is the convolution of the parts
    split = graph_disconnected()
    loops = graph_two_loops()
    par = build_graph(
        ("u", "v"),
        [
            (("u", i), ("v", i))
            for i in range(4)
        ],
    )
    pl = profile_by_tracing(loops).coefficients
    pp = profile_by_tracing(par).coefficients
    combined = Counter()
    for k1, n1 in pl.items():
        for k2, n2 in pp.items():
            combined[k1 + k2] += n1 * n2
    assert dict(profile_by_tracing(split).coefficients) == dict(combined)


def test_nullity_engine_uses_given_euler(g_4par):
    c = hierholzer(g_4par)
    prof = profile_by_nullity(g_4par, c)
    assert prof.coefficients == profile_by_tracing(g_4par).coefficients


def test_nullity_engine_rejects_wrong_graph(g_4par, g_loops):
    c = hierholzer(g_loops)
    with pytest.raises(GraphMismatch):
        profile_by_nullity(g_4par, c)


def test_euler_count_matches_orbit():
    for g in corpus(5):
        orbit = kotzig_orbit(g, hierholzer(g))
        assert euler_count(g) == len(orbit)


def test_guard():
    g = random_matching_graph(7, seed=0)
    with pytest.raises(TooLarge):
        profile_by_tracing(g, max_vertices=6)
    with pytest.raises(TooLarge):
        profile_by_nullity(g, max_vertices=6)


def test_threads_same_result():
    g = random_matching_graph(8, seed=5)
    single = profile_by_tracing(g, threads=1)
    multi = profile_by_tracing(g, threads=4)
    assert single.coefficients == multi.coefficients


def test_validate_catches_bad_profile():
    prof = PartitionProfile({1: 1}, n_vertices=2, c_components=1)
    with pytest.raises(InvalidProfile):
        prof.validate()


def test_validate_survives_optimize():
    # python -O strips assert statements; validate must still raise
    code = "from interlacement import *; PartitionProfile({1: 1}, 2, 1).validate()"
    proc = subprocess.run([sys.executable, "-O", "-c", code], capture_output=True)
    assert b"InvalidProfile" in proc.stderr
