import itertools
from collections import Counter

import pytest

from coline.graph6 import parse_graph6
from coline.graphcore import build_named, coline
from coline.lemmacheck import (
    check_common_arg,
    check_independent_sets,
    check_neighbor_gaps,
    check_no_crossing_paths,
    check_non_xy_edges,
    check_trivial_components,
    make_context,
    reverse_context,
    run_all_checks,
)
from coline.oracle import CycleOrPath, is_tough, longest_cycle

CHECKS = (
    check_neighbor_gaps,
    check_independent_sets,
    check_no_crossing_paths,
    check_common_arg,
    check_non_xy_edges,
    check_trivial_components,
)


def cycles_of_length(g, k):
    for combo in itertools.permutations(range(g.n), k):
        if combo[0] != min(combo):
            continue
        if all(g.has_edge(combo[i], combo[(i + 1) % k]) for i in range(k)):
            yield CycleOrPath(combo, True)


@pytest.fixture(scope="module")
def prism_short_context():
    """A 4-cycle in the prism whose two leftover vertices are adjacent."""
    prism, _ = coline(build_named("C6"))
    for cycle in cycles_of_length(prism, 4):
        off = [v for v in range(6) if v not in cycle.vertices]
        if prism.has_edge(*off):
            return make_context(prism, cycle)
    raise AssertionError("no such control cycle")


@pytest.fixture(scope="module")
def k5_short_context():
    k5 = build_named("K5")
    return make_context(k5, CycleOrPath((0, 1, 2, 3), True))


def test_context_rejects_bad_cycles():
    prism, _ = coline(build_named("C6"))
    with pytest.raises(ValueError):
        make_context(prism, CycleOrPath((0, 1, 2), True))
    with pytest.raises(ValueError):
        make_context(prism, CycleOrPath((0, 3, 1), False))


def test_context_decomposition():
    pet, _ = coline(build_named("K5"))
    cycle = longest_cycle(pet)
    ctx = make_context(pet, cycle)
    assert len(cycle) == 9
    assert ctx.off_components == ((next(iter(set(range(10)) - set(cycle.vertices))),),)
    (neighbors,) = ctx.neighbor_sets
    assert len(neighbors) == 3  # the leftover vertex keeps its full degree
    back = reverse_context(ctx)
    assert back.cycle.vertices == tuple(reversed(cycle.vertices))
    assert back.off_components == ctx.off_components


def exceptional_contexts():
    for name in ("K5", "H1", "H2", "H3"):
        l, _ = coline(build_named(name))
        yield make_context(l, longest_cycle(l))


def test_no_violations_on_longest_cycles():
    for ctx in exceptional_contexts():
        assert check_neighbor_gaps(ctx) == []
        assert check_independent_sets(ctx) == []
        assert check_no_crossing_paths(ctx) == []
        assert check_common_arg(ctx) == []
        assert check_non_xy_edges(ctx) == []
        assert check_trivial_components(ctx) == []


def test_no_violations_on_hamiltonian_hosts():
    prism, _ = coline(build_named("C6"))
    ctx = make_context(prism, longest_cycle(prism))
    assert ctx.off_components == ()
    assert run_all_checks(ctx) == []


def test_negative_control_neighbor_gaps(prism_short_context):
    assert check_neighbor_gaps(prism_short_context)


def test_negative_control_independent_sets(prism_short_context):
    assert check_independent_sets(prism_short_context)


def test_negative_control_crossing_paths(prism_short_context):
    assert check_no_crossing_paths(prism_short_context)


def test_negative_control_common_arg(k5_short_context):
    violations = check_common_arg(k5_short_context)
    assert violations
    forms = {v.detail.split(" form")[0] for v in violations}
    assert "general" in forms or "j=k" in forms


def test_negative_control_non_xy_edges(k5_short_context):
    assert check_non_xy_edges(k5_short_context)


@pytest.mark.parametrize(
    "control, cycle, counts",
    [
        ("prism_short_context", (0, 3, 1, 4), (8, 24, 12, 0, 4, 1)),
        ("k5_short_context", (0, 1, 2, 3), (8, 20, 12, 40, 48, 0)),
    ],
)
def test_negative_controls_per_kind(request, control, cycle, counts):
    # each general check runs once in each orientation, so a check that
    # drops or doubles one changes its count, and reversing the cycle
    # leaves every check's violations the same up to order
    ctx = request.getfixturevalue(control)
    assert ctx.cycle.vertices == cycle
    back = reverse_context(ctx)
    for check, count in zip(CHECKS, counts):
        found = [(v.kind, v.vertices) for v in check(ctx)]
        assert len(found) == count, check.__name__
        assert Counter((v.kind, v.vertices) for v in check(back)) == Counter(found), check.__name__


def test_negative_control_trivial_components():
    k5 = build_named("K5")
    pet, _ = coline(k5)
    assert is_tough(pet).value
    short = next(cycles_of_length(pet, 5))
    violations = check_trivial_components(make_context(pet, short))
    assert violations and len(violations[0].vertices) == 5


def test_trivial_components_fire_on_non_tough_host():
    # toughness is the caller's claim: on a non-tough coline a genuine
    # longest cycle may leave a non-trivial component, while the checks
    # that hold on every longest cycle stay silent
    l, _ = coline(parse_graph6("E`QG"))  # C4+K2
    assert l.n == 5 and not is_tough(l).value
    ctx = make_context(l, longest_cycle(l))
    assert len(ctx.cycle) == 3
    (violation,) = check_trivial_components(ctx)
    assert violation.kind == "trivial-components" and len(violation.vertices) == 2
    assert run_all_checks(ctx) == []


def test_checks_over_the_sweep_range(classes_sweep_range):
    # the longest cycle of each of the 285 non-Hamiltonian 8/10 colines
    # that have a cycle: the general checks hold on all of them, and the
    # trivial-components check fires only on non-tough ones
    contexts = []
    for g in classes_sweep_range:
        l, _ = coline(g)
        cycle = longest_cycle(l)
        if cycle is not None and len(cycle) < l.n:
            contexts.append(make_context(l, cycle))
    assert len(contexts) == 285
    assert [ctx for ctx in contexts if run_all_checks(ctx)] == []
    fired = [ctx.host for ctx in contexts if check_trivial_components(ctx)]
    assert len(fired) == 11
    assert not any(is_tough(l).value for l in fired)
