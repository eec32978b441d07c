"""Runtime verifiers for structural properties of longest cycles.

Every computed longest cycle of a coline graph must satisfy a family of
neighbourhood/independence/arc properties (otherwise a longer cycle could
be spliced together).  These checkers make those properties executable:
on a genuine longest cycle all of them return empty violation lists, and
each fires on a deliberately non-longest cycle, so the sweep can assert
both directions.

Orientation: each general check is stated once, for the cycle's own
orientation, where x+ is the successor of x and x- its predecessor.  It
is run on the cycle and on its reverse, since the properties hold either
way on longest cycles, and each violation's detail ends in ``(fwd)`` or
``(rev)`` to say which.

``check_trivial_components`` holds only on tough hosts, and takes
toughness as the caller's claim, as ``make_context`` takes the cycle's
length; on a non-tough host it may fire on a genuine longest cycle.
"""

from __future__ import annotations

from functools import wraps
from itertools import combinations, permutations
from typing import NamedTuple

from . import oracle
from .graphcore import Graph, _bits, components
from .oracle import CycleOrPath


class Violation(NamedTuple):
    kind: str
    vertices: tuple[int, ...]
    detail: str


class LongestCycleContext(NamedTuple):
    """A host graph with an oriented cycle and the derived off-cycle data.

    ``off_components``: the connected components of host minus the cycle,
    each a sorted vertex tuple; ``neighbor_sets``: per component, its
    on-cycle neighbours; ``succ`` and ``pred``: each cycle vertex x mapped
    to x+ and x-.
    """

    host: Graph
    cycle: CycleOrPath
    off_components: tuple[tuple[int, ...], ...]
    neighbor_sets: tuple[tuple[int, ...], ...]
    succ: dict[int, int]
    pred: dict[int, int]


def make_context(host: Graph, cycle: CycleOrPath) -> LongestCycleContext:
    """Derive the off-cycle decomposition; validates the cycle itself.

    Whether the cycle is actually longest is the caller's claim - negative
    controls deliberately hand in short cycles.
    """
    if not cycle.closed or not oracle.is_valid_in(cycle, host):
        raise ValueError("not a valid closed cycle of the host graph")
    vs = cycle.vertices
    on_cycle = 0
    for v in vs:
        on_cycle |= 1 << v
    off = (1 << host.n) - 1 & ~on_cycle
    comps = []
    neighbor_sets = []
    for mask in components(host, within=off):
        comp = tuple(_bits(mask))
        reach = 0
        for v in comp:
            reach |= host.adj[v]
        comps.append(comp)
        neighbor_sets.append(tuple(_bits(reach & on_cycle)))
    succ = dict(zip(vs, vs[1:] + vs[:1]))
    pred = {after: v for v, after in succ.items()}
    return LongestCycleContext(host, cycle, tuple(comps), tuple(neighbor_sets), succ, pred)


def reverse_context(ctx: LongestCycleContext) -> LongestCycleContext:
    """The same cycle run the other way: x+ and x- trade places."""
    flipped = CycleOrPath(ctx.cycle.vertices[::-1], True)
    return ctx._replace(cycle=flipped, succ=ctx.pred, pred=ctx.succ)


def _in_both_orientations(check):
    """Run ``check``, stated for the cycle's own orientation, on the cycle
    and on its reverse, tagging each violation's detail with which."""

    @wraps(check)
    def both(ctx: LongestCycleContext) -> list[Violation]:
        return [
            found._replace(detail=f"{found.detail} ({tag})")
            for oriented, tag in ((ctx, "fwd"), (reverse_context(ctx), "rev"))
            for found in check(oriented)
        ]

    return both


@_in_both_orientations
def check_neighbor_gaps(ctx: LongestCycleContext) -> list[Violation]:
    """No on-cycle neighbour x of an off-cycle component H has x+ in N(H)."""
    out = []
    for comp, neighbors in zip(ctx.off_components, ctx.neighbor_sets):
        for x in neighbors:
            after = ctx.succ[x]
            if after in neighbors:
                detail = f"successor {after} of {x} also touches component {comp}"
                out.append(Violation("neighbor-gaps", (x, after) + comp, detail))
    return out


@_in_both_orientations
def check_independent_sets(ctx: LongestCycleContext) -> list[Violation]:
    """N(H)+ plus any vertex of the off-cycle component H is independent."""
    out = []
    for comp, neighbors in zip(ctx.off_components, ctx.neighbor_sets):
        shifted = [ctx.succ[x] for x in neighbors]
        for x in comp:
            for a, b in combinations(shifted + [x], 2):
                if ctx.host.has_edge(a, b):
                    detail = f"edge inside N(H)+ + {{{x}}}, H={comp}"
                    out.append(Violation("independent-sets", (a, b, x), detail))
    return out


@_in_both_orientations
def check_no_crossing_paths(ctx: LongestCycleContext) -> list[Violation]:
    """No x+y+ path through off-cycle vertices, for x, y in N(H).

    The inner vertices of such a path lie in one off-cycle component, so it
    exists iff the two ends are adjacent or both touch one component.
    """
    out = []
    for comp, neighbors in zip(ctx.off_components, ctx.neighbor_sets):
        for x, y in combinations(neighbors, 2):
            a, b = ctx.succ[x], ctx.succ[y]
            if ctx.host.has_edge(a, b) or any(a in ns and b in ns for ns in ctx.neighbor_sets):
                detail = f"x+y+ path {a}..{b} off the cycle, H={comp}"
                out.append(Violation("crossing-paths", (x, y, a, b) + comp, detail))
    return out


def _cycle_neighbors_in_order(ctx: LongestCycleContext, x: int) -> list[int]:
    return [v for v in ctx.cycle.vertices if ctx.host.has_edge(x, v)]


@_in_both_orientations
def check_common_arg(ctx: LongestCycleContext) -> list[Violation]:
    """Arc-pair exclusion around an off-cycle vertex x.

    For neighbours x_i then x_j then x_k of x in cyclic order (x_j = x_k
    allowed), an edge from x_i+ or x_i- to x_j or x_k forbids the edge
    x_j- x_k+.  The j = k boundary form is reported with its own tag.
    """
    out = []
    has_edge = ctx.host.has_edge
    for comp in ctx.off_components:
        for x in comp:
            nbrs = _cycle_neighbors_in_order(ctx, x)
            for a, xi in enumerate(nbrs):
                ends = (ctx.succ[xi], ctx.pred[xi])
                around = nbrs[a + 1 :] + nbrs[:a]
                for sj, xj in enumerate(around):
                    for xk in around[sj:]:
                        z, z_prime = ctx.pred[xj], ctx.succ[xk]
                        probes = any(has_edge(end, y) for end in ends for y in (xj, xk))
                        if probes and has_edge(z, z_prime):
                            form = "j=k" if xj == xk else "general"
                            out.append(
                                Violation(
                                    "common-arg",
                                    (x, xi, xj, xk),
                                    f"{form} form fired: probes and {z}-{z_prime} all present",
                                )
                            )
    return out


def _arc_edges(ctx: LongestCycleContext, start: int, stop: int):
    """Consecutive pairs (w, w+) along the arc start..stop."""
    while start != stop:
        yield start, ctx.succ[start]
        start = ctx.succ[start]


@_in_both_orientations
def check_non_xy_edges(ctx: LongestCycleContext) -> list[Violation]:
    """Edges on the arc between two neighbours of an off-cycle vertex x
    cannot connect to both flanking vertices x_i-, x_j+ in either pairing.

    Configurations where the flanking vertices fold back onto the arc's own
    endpoints (x_j+ = x_i or x_i- = x_j) are skipped: there the would-be
    cycle rewiring degenerates and no exclusion applies.
    """
    out = []
    has_edge = ctx.host.has_edge
    for comp in ctx.off_components:
        for x in comp:
            for xi, xj in permutations(_cycle_neighbors_in_order(ctx, x), 2):
                z, z_prime = ctx.pred[xi], ctx.succ[xj]
                if z_prime == xi or z == xj:
                    continue
                for w, w_next in _arc_edges(ctx, xi, xj):
                    for first, second in ((z, z_prime), (z_prime, z)):
                        if has_edge(w, first) and has_edge(w_next, second):
                            out.append(
                                Violation(
                                    "non-xy-edges",
                                    (x, xi, xj, w, w_next, first, second),
                                    f"arc edge {w}{w_next} joins {first} and {second}",
                                )
                            )
    return out


def check_trivial_components(ctx: LongestCycleContext) -> list[Violation]:
    """Every off-cycle component of a longest cycle in a tough host must be
    a single vertex.  Toughness is the caller's claim; the host is not
    checked."""
    return [
        Violation("trivial-components", comp, f"off-cycle component has {len(comp)} vertices")
        for comp in ctx.off_components
        if len(comp) > 1
    ]


ALL_CHECKS = (
    check_neighbor_gaps,
    check_independent_sets,
    check_no_crossing_paths,
    check_common_arg,
    check_non_xy_edges,
)


def run_all_checks(ctx: LongestCycleContext) -> list[Violation]:
    """All orientation-aware structural checks (not the toughness-gated one)."""
    return [found for check in ALL_CHECKS for found in check(ctx)]
