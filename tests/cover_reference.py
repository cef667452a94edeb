"""Slow, explicit references for the block covers, used by the tests only.

Each function rebuilds from scratch what the package reads off a unit cell:
the lattice's edge set, a cover lifted by wrapping every edge endpoint, the
per-site storage of an explicit cover and the merge trace of a placed cover.
``cover_blocks`` and ``edge_graph`` give a cover and a block as plain edge
lists and graphs.
"""

from __future__ import annotations

import itertools

from multinet.blocks import Edge, Site, block_edges, lift, unit_cell
from multinet.graphstate import Graph


def wrap(site: Site, dims: tuple[int, ...]) -> Site:
    return tuple(c % d for c, d in zip(site, dims))


def norm_edge(a: Site, b: Site) -> Edge:
    return (a, b) if a <= b else (b, a)


def edge_graph(edges: list[Edge]) -> Graph:
    """The graph of an edge group over the sites it touches.

    Vertex ids index the sorted sites; ``coords`` maps each id back to its site.
    """
    sites = sorted({s for e in edges for s in e})
    index = {s: i for i, s in enumerate(sites)}
    g = Graph(range(len(sites)), [(index[a], index[b]) for a, b in edges])
    g.coords = dict(enumerate(sites))
    return g


def block_graph(family: str, dim: int, b: int) -> Graph:
    """Canonical block as a Graph; vertex ids index the sorted touched sites."""
    return edge_graph(block_edges(family, dim, b))


def lattice_edges(dims: tuple[int, ...]) -> set[Edge]:
    """All edges of the periodic lattice with the given dimensions."""
    edges = set()
    for site in itertools.product(*(range(d) for d in dims)):
        for axis in range(len(dims)):
            step = [0] * len(dims)
            step[axis] = 1
            other = wrap(tuple(c + s for c, s in zip(site, step)), dims)
            if other != site:
                edges.add(norm_edge(site, other))
    return edges


def cell_groups(cell) -> tuple[tuple[Edge, ...], ...]:
    """Each block's edges, rebuilt from a unit cell's shapes in the cell's edge order."""
    return tuple(tuple((sites[i], sites[j]) for i, j in pairs) for sites, pairs in cell.shapes)


def cover_blocks(family: str, dims: tuple[int, ...], b: int = 1) -> list[list[Edge]]:
    """Edge groups of one full cover, read off ``blocks.lift``: each block's
    edges as normalised site pairs, in the cell's edge order."""
    shapes, placed = lift(family, dims, b)
    return [[norm_edge(sites[i], sites[j]) for i, j in shapes[k][1]] for k, sites in placed]


def endpoint_lift(family: str, dims: tuple[int, ...], b: int = 1) -> list[list[Edge]]:
    """The unit cell translated by every multiple of its period, wrapping
    both endpoints of every edge.  Assumes ``dims`` is admissible."""
    cell = unit_cell(family, len(dims), b)
    return [
        [norm_edge(*(wrap(tuple(x + s for x, s in zip(site, shift)), dims) for site in e)) for e in group]
        for shift in itertools.product(*(range(0, d, p) for d, p in zip(dims, cell.period)))
        for group in cell_groups(cell)
    ]


def per_site_cost_histogram(family: str, dims: tuple[int, ...], b: int = 1) -> dict[int, int]:
    """How many sites store 1, 2, ... qubits per copy, from an explicit cover."""
    groups = cover_blocks(family, dims, b)
    load: dict[Site, int] = {}
    for group in groups:
        for site in {s for e in group for s in e}:
            load[site] = load.get(site, 0) + 1
    hist: dict[int, int] = {}
    for cost in load.values():
        hist[cost] = hist.get(cost, 0) + 1
    return dict(sorted(hist.items()))


def merge_trace(cover) -> list[tuple]:
    """The merges ``validate_cover`` reports, rebuilt from per-site qubit lists.

    Qubits are numbered block by block in each shape's site order; every site,
    in coordinate order, merges each later qubit into its first one.
    """
    ids: dict[tuple, list[int]] = {}
    qubits = itertools.count()
    for _, sites in cover:
        for site in sites:
            ids.setdefault(site, []).append(next(qubits))
    return [(site, group[0], other) for site, group in sorted(ids.items()) for other in group[1:]]
