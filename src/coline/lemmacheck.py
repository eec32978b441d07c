"""Runtime verifiers for structural properties of longest cycles.

Every computed longest cycle of a coline graph must satisfy a family of
neighbourhood/independence/arc properties (otherwise a longer cycle could
be spliced together).  These checkers make those properties executable:
on a genuine longest cycle all of them return empty violation lists, and
each fires on a deliberately non-longest cycle, so the sweep can assert
both directions.

Checks whose statement depends on the cycle orientation are evaluated in
both orientations; the properties hold either way on longest cycles.

``check_trivial_components`` holds only on tough hosts, and takes
toughness as the caller's claim, as ``make_context`` takes the cycle's
length; on a non-tough host it may fire on a genuine longest cycle.
"""

from __future__ import annotations

from dataclasses import dataclass

from . import oracle
from .graphcore import Graph, _bits, components
from .oracle import CycleOrPath


@dataclass(frozen=True)
class Violation:
    kind: str
    vertices: tuple[int, ...]
    detail: str


@dataclass(frozen=True)
class LongestCycleContext:
    """A host graph with an oriented cycle and the derived off-cycle data.

    ``off_components``: the connected components of host minus the cycle,
    each a sorted vertex tuple; ``neighbor_sets``: per component, its
    on-cycle neighbours.
    """

    host: Graph
    cycle: CycleOrPath
    off_components: tuple[tuple[int, ...], ...]
    neighbor_sets: tuple[tuple[int, ...], ...]

    def succ(self, v: int) -> int:
        vs = self.cycle.vertices
        return vs[(vs.index(v) + 1) % len(vs)]

    def pred(self, v: int) -> int:
        vs = self.cycle.vertices
        return vs[(vs.index(v) - 1) % len(vs)]


def make_context(host: Graph, cycle: CycleOrPath) -> LongestCycleContext:
    """Derive the off-cycle decomposition; validates the cycle itself.

    Whether the cycle is actually longest is the caller's claim - negative
    controls deliberately hand in short cycles.
    """
    if not cycle.closed or not oracle.is_valid_in(cycle, host):
        raise ValueError("not a valid closed cycle of the host graph")
    on_cycle = 0
    for v in cycle.vertices:
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
    return LongestCycleContext(host, cycle, tuple(comps), tuple(neighbor_sets))


def reverse_context(ctx: LongestCycleContext) -> LongestCycleContext:
    flipped = CycleOrPath(tuple(reversed(ctx.cycle.vertices)), True)
    return LongestCycleContext(ctx.host, flipped, ctx.off_components, ctx.neighbor_sets)


def check_neighbor_gaps(ctx: LongestCycleContext) -> list[Violation]:
    """No on-cycle neighbour of an off-cycle component may be followed or
    preceded by another neighbour of the same component."""
    out = []
    for comp, neighbors in zip(ctx.off_components, ctx.neighbor_sets):
        nset = set(neighbors)
        for x in neighbors:
            for other, label in ((ctx.succ(x), "successor"), (ctx.pred(x), "predecessor")):
                if other in nset:
                    out.append(
                        Violation(
                            "neighbor-gaps",
                            (x, other) + comp,
                            f"{label} {other} of {x} also touches component {comp}",
                        )
                    )
    return out


def check_independent_sets(ctx: LongestCycleContext) -> list[Violation]:
    """N(H)+ plus any component vertex is independent; same for N(H)-."""
    out = []
    for comp, neighbors in zip(ctx.off_components, ctx.neighbor_sets):
        for shift, label in ((ctx.succ, "+"), (ctx.pred, "-")):
            shifted = [shift(x) for x in neighbors]
            for x in comp:
                group = shifted + [x]
                for i in range(len(group)):
                    for j in range(i + 1, len(group)):
                        if ctx.host.has_edge(group[i], group[j]):
                            out.append(
                                Violation(
                                    "independent-sets",
                                    (group[i], group[j], x),
                                    f"edge inside N(H){label} + {{{x}}}, H={comp}",
                                )
                            )
    return out


def check_no_crossing_paths(ctx: LongestCycleContext) -> list[Violation]:
    """No x+y+ or x-y- path through off-cycle vertices, for x, y in N(H).

    The inner vertices of such a path lie in one off-cycle component, so it
    exists iff the two ends are adjacent or both touch one component.
    """
    out = []
    for comp, neighbors in zip(ctx.off_components, ctx.neighbor_sets):
        for i in range(len(neighbors)):
            for j in range(i + 1, len(neighbors)):
                x, y = neighbors[i], neighbors[j]
                for shift, label in ((ctx.succ, "+"), (ctx.pred, "-")):
                    a, b = shift(x), shift(y)
                    if a != b and (
                        ctx.host.has_edge(a, b)
                        or any(a in ns and b in ns for ns in ctx.neighbor_sets)
                    ):
                        out.append(
                            Violation(
                                "crossing-paths",
                                (x, y, a, b) + comp,
                                f"x{label}y{label} path {a}..{b} off the cycle, H={comp}",
                            )
                        )
    return out


def _cycle_neighbors_in_order(ctx: LongestCycleContext, x: int) -> list[int]:
    return [v for v in ctx.cycle.vertices if ctx.host.has_edge(x, v)]


def check_common_arg(ctx: LongestCycleContext) -> list[Violation]:
    """Arc-pair exclusion around an off-cycle vertex x.

    For neighbours x_i then x_j then x_k of x in cyclic order (x_j = x_k
    allowed), an edge from x_i's cycle-neighbourhood to x_j or x_k forbids
    the edge x_j- x_k+.  Both orientations are tested; the j = k boundary
    form is reported with its own tag.
    """
    out = []
    for oriented, tag in ((ctx, "fwd"), (reverse_context(ctx), "rev")):
        for comp in oriented.off_components:
            for x in comp:
                nbrs = _cycle_neighbors_in_order(oriented, x)
                d = len(nbrs)
                for a in range(d):
                    xi = nbrs[a]
                    around = [nbrs[(a + s) % d] for s in range(1, d)]
                    for sj in range(len(around)):
                        for sk in range(sj, len(around)):
                            xj, xk = around[sj], around[sk]
                            probes = (
                                oriented.host.has_edge(oriented.succ(xi), xj)
                                or oriented.host.has_edge(oriented.pred(xi), xj)
                                or oriented.host.has_edge(oriented.succ(xi), xk)
                                or oriented.host.has_edge(oriented.pred(xi), xk)
                            )
                            closing = oriented.host.has_edge(
                                oriented.pred(xj), oriented.succ(xk)
                            )
                            if probes and closing:
                                form = "j=k" if xj == xk else "general"
                                out.append(
                                    Violation(
                                        "common-arg",
                                        (x, xi, xj, xk),
                                        f"{form} form fired ({tag}): probes and "
                                        f"{oriented.pred(xj)}-{oriented.succ(xk)} all present",
                                    )
                                )
    return out


def _arc_edges(ctx: LongestCycleContext, start: int, stop: int):
    """Consecutive pairs (w, w+) along the forward arc start..stop."""
    vs = ctx.cycle.vertices
    n = len(vs)
    i = vs.index(start)
    j = vs.index(stop)
    while i != j:
        yield vs[i], vs[(i + 1) % n]
        i = (i + 1) % n


def check_non_xy_edges(ctx: LongestCycleContext) -> list[Violation]:
    """Edges on the arc between two neighbours of an off-cycle vertex x
    cannot connect to both flanking vertices x_i-, x_j+ in either pairing.

    Configurations where the flanking vertices fold back onto the arc's own
    endpoints (x_j+ = x_i or x_i- = x_j) are skipped: there the would-be
    cycle rewiring degenerates and no exclusion applies.
    """
    out = []
    for oriented, tag in ((ctx, "fwd"), (reverse_context(ctx), "rev")):
        for comp in oriented.off_components:
            for x in comp:
                nbrs = _cycle_neighbors_in_order(oriented, x)
                for xi in nbrs:
                    for xj in nbrs:
                        if xi == xj:
                            continue
                        z = oriented.pred(xi)
                        z_prime = oriented.succ(xj)
                        if z_prime == xi or z == xj:
                            continue
                        for w, w_next in _arc_edges(oriented, xi, xj):
                            for first, second in ((z, z_prime), (z_prime, z)):
                                if oriented.host.has_edge(w, first) and oriented.host.has_edge(
                                    w_next, second
                                ):
                                    out.append(
                                        Violation(
                                            "non-xy-edges",
                                            (x, xi, xj, w, w_next, first, second),
                                            f"({tag}) arc edge {w}{w_next} joins "
                                            f"{first} and {second}",
                                        )
                                    )
    return out


def check_trivial_components(ctx: LongestCycleContext) -> list[Violation]:
    """Every off-cycle component of a longest cycle in a tough host must be
    a single vertex.  Toughness is the caller's claim; the host is not
    checked."""
    out = []
    for comp in ctx.off_components:
        if len(comp) > 1:
            out.append(
                Violation(
                    "trivial-components",
                    comp,
                    f"off-cycle component has {len(comp)} vertices",
                )
            )
    return out


ALL_CHECKS = (
    ("neighbor-gaps", check_neighbor_gaps),
    ("independent-sets", check_independent_sets),
    ("crossing-paths", check_no_crossing_paths),
    ("common-arg", check_common_arg),
    ("non-xy-edges", check_non_xy_edges),
)


def run_all_checks(ctx: LongestCycleContext) -> list[Violation]:
    """All orientation-aware structural checks (not the toughness-gated one)."""
    out = []
    for _, check in ALL_CHECKS:
        out.extend(check(ctx))
    return out
