"""Building-block families that cover periodic cluster lattices.

Every family is a way of partitioning the Bell pairs (edges) of a periodic
square or cubic lattice into groups; merging the co-located qubits inside a
group turns it into one multipartite block state whose graph is simply the
group's edge set over the touched sites.  The families:

- ``bipartite``: every edge its own group (plain Bell pairs, no merging).
- ``shifted-grid``: 2D, fused diagonal runs of square plaquettes
  (a ``b x b`` diamond); 3D, chains of ``b`` unit cubes fused corner to
  corner along the body diagonal.  At most 2 qubits per site per copy.
- ``windmill``: an axis-aligned grid of plaquettes (2D) or cubes (3D) with
  pinwheel blades covering the gap edges, fused into ``b x b`` (or
  ``b x b x b``) super-blocks.  2 qubits per site in 2D; in 3D some sites
  must hold 3 because the dangling ends cannot be spread more evenly.

Site coordinates double as vertex identities: a tip of one piece landing on
a corner site of another piece of the same block is the same (fused) vertex.
Covers are constructed deterministically and verified to partition the
lattice edge set exactly, so an incompatible lattice size fails loudly.
"""

from __future__ import annotations

import functools
import itertools

from .graphstate import Graph, MultinetError

Site = tuple[int, ...]
Edge = tuple[Site, Site]

FAMILIES = ("bipartite", "windmill", "shifted-grid")


class BlockError(MultinetError):
    """Unknown family or lattice dimensions the family cannot tile."""


def _norm_edge(a: Site, b: Site) -> Edge:
    return (a, b) if a <= b else (b, a)


def _plaquette(base: Site) -> list[Edge]:
    x, y = base
    c = [(x, y), (x + 1, y), (x + 1, y + 1), (x, y + 1)]
    return [_norm_edge(c[i], c[(i + 1) % 4]) for i in range(4)]


def _cube(base: Site) -> list[Edge]:
    x, y, z = base
    edges = []
    for dx, dy, dz in itertools.product((0, 1), repeat=3):
        corner = (x + dx, y + dy, z + dz)
        for axis, val in enumerate((dx, dy, dz)):
            if val == 0:
                other = list(corner)
                other[axis] += 1
                edges.append(_norm_edge(corner, tuple(other)))
    return edges


def _pinwheel_2d(base: Site) -> list[Edge]:
    """Plaquette plus one rotationally placed blade per corner."""
    x, y = base
    edges = _plaquette(base)
    for cx, cy in itertools.product((0, 1), repeat=2):
        corner = (x + cx, y + cy)
        if cx == cy:
            step = (1, 0) if cx == 1 else (-1, 0)
        else:
            step = (0, 1) if cy == 1 else (0, -1)
        edges.append(_norm_edge(corner, (corner[0] + step[0], corner[1] + step[1])))
    return edges


def _pinwheel_3d(base: Site) -> list[Edge]:
    """Unit cube plus 12 blades, assigned by the chiral rule below.

    Corner (cx, cy, cz) sprouts an x blade when cx == cy (toward +x when
    cy == 1), a y blade when cy == cz (sign by cz) and a z blade when
    cz == cx (sign by cx).  Every corner sprouts at least one blade, which
    is what keeps the per-site storage at three qubits or less.
    """
    edges = _cube(base)
    for c in itertools.product((0, 1), repeat=3):
        corner = tuple(base[i] + c[i] for i in range(3))
        rules = [
            (c[0] == c[1], 0, 1 if c[1] == 1 else -1),
            (c[1] == c[2], 1, 1 if c[2] == 1 else -1),
            (c[2] == c[0], 2, 1 if c[0] == 1 else -1),
        ]
        for sprout, axis, sign in rules:
            if sprout:
                tip = list(corner)
                tip[axis] += sign
                edges.append(_norm_edge(corner, tuple(tip)))
    return edges


def block_edges(family: str, dim: int, b: int) -> list[Edge]:
    """Canonical block of the family at the origin, in unwrapped coordinates."""
    if b < 1:
        raise BlockError(f"block size must be >= 1, got {b}")
    if dim not in (2, 3):
        raise BlockError(f"dimensionality must be 2 or 3, got {dim}")
    if family == "bipartite":
        return [_norm_edge((0,) * dim, (1,) + (0,) * (dim - 1))]
    if family == "windmill":
        pieces = itertools.product(range(b), repeat=dim)
        make = _pinwheel_2d if dim == 2 else _pinwheel_3d
        edges: list[Edge] = []
        for piece in pieces:
            edges += make(tuple(2 * p for p in piece))
        return sorted(set(edges))
    if family == "shifted-grid":
        edges = []
        if dim == 2:
            for i, j in itertools.product(range(b), repeat=2):
                edges += _plaquette((i + j, i - j))
        else:
            for t in range(b):
                edges += _cube((t, t, t))
        return sorted(set(edges))
    raise BlockError(f"unknown block family {family!r}")


def block_graph(family: str, dim: int, b: int) -> Graph:
    """Canonical block as a Graph; vertex ids index the sorted touched sites."""
    edges = block_edges(family, dim, b)
    sites = sorted({s for e in edges for s in e})
    index = {s: i for i, s in enumerate(sites)}
    g = Graph(range(len(sites)), [(index[a], index[b]) for a, b in edges])
    g.coords = {i: s for s, i in index.items()}
    return g


def _wrap(site: Site, dims: tuple[int, ...]) -> Site:
    return tuple(c % d for c, d in zip(site, dims))


def _translate(edges: list[Edge], shift: Site, dims: tuple[int, ...]) -> list[Edge]:
    out = []
    for a, b in edges:
        wa = _wrap(tuple(x + s for x, s in zip(a, shift)), dims)
        wb = _wrap(tuple(x + s for x, s in zip(b, shift)), dims)
        if wa == wb:
            raise BlockError(f"block wraps onto itself on lattice {dims}")
        out.append(_norm_edge(wa, wb))
    if len(set(out)) != len(out):
        raise BlockError(f"block self-overlaps on lattice {dims}")
    return out


def lattice_edges(dims: tuple[int, ...]) -> set[Edge]:
    """All edges of the periodic lattice with the given dimensions."""
    edges = set()
    for site in itertools.product(*(range(d) for d in dims)):
        for axis in range(len(dims)):
            step = [0] * len(dims)
            step[axis] = 1
            other = _wrap(tuple(c + s for c, s in zip(site, step)), dims)
            if other != site:
                edges.add(_norm_edge(site, other))
    return edges


def _check_dims(family: str, dims: tuple[int, ...], b: int) -> None:
    if family not in FAMILIES:
        raise BlockError(f"unknown block family {family!r} (choose from {FAMILIES})")
    dim = len(dims)
    if dim not in (2, 3):
        raise BlockError(f"lattice must be 2D or 3D, got {dims}")
    if any(d < 2 or d % 2 for d in dims):
        raise BlockError(f"periodic lattice dimensions must be even and >= 2, got {dims}")
    if family == "windmill" and any(d % (2 * b) for d in dims):
        raise BlockError(f"windmill blocks of size {b} need dimensions divisible by {2 * b}")
    if family == "shifted-grid" and dim == 2 and any(d % (2 * b) for d in dims):
        raise BlockError(f"shifted-grid blocks of size {b} need dimensions divisible by {2 * b}")
    if family == "shifted-grid" and dim == 3:
        if len(set(dims)) != 1:
            raise BlockError("3D shifted-grid tiling is defined for cubic lattices")
        if dims[0] % b:
            raise BlockError(f"diagonal chains of {b} cubes need the extent divisible by {b}")


def cover_blocks(family: str, dims: tuple[int, ...], b: int = 1) -> list[list[Edge]]:
    """Edge groups of one full cover of the periodic lattice.

    The groups are generated deterministically and checked to partition the
    lattice edge set exactly (every edge in exactly one group).
    """
    dim = len(dims)
    _check_dims(family, dims, b)
    target = lattice_edges(dims)
    groups: list[list[Edge]] = []

    if family == "bipartite":
        groups = [[e] for e in sorted(target)]
    elif family == "windmill":
        canonical = block_edges(family, dim, b)
        for anchor in itertools.product(*(range(0, d, 2 * b) for d in dims)):
            groups.append(_translate(canonical, anchor, dims))
    elif family == "shifted-grid" and dim == 2:
        # Fused diamonds tile the black plaquettes; on the torus the lex-first
        # free plaquette is not always an anchor of the canonical tiling, so
        # anchors that would collide are skipped and coverage is checked at
        # the end.
        canonical = block_edges(family, dim, b)
        covered: set[Site] = set()
        black = [
            (u, v)
            for u, v in itertools.product(range(dims[0]), range(dims[1]))
            if (u + v) % 2 == 0
        ]
        for u, v in black:
            plaqs = {
                _wrap((u + i + j, v + i - j), dims)
                for i, j in itertools.product(range(b), repeat=2)
            }
            if len(plaqs) != b * b or plaqs & covered:
                continue
            covered |= plaqs
            groups.append(_translate(canonical, (u, v), dims))
        if len(covered) != len(black):
            raise BlockError(f"shifted-grid size {b} cannot tile lattice {dims}")
    else:  # shifted-grid 3D
        canonical = block_edges(family, dim, b)
        covered = set()
        cells = [
            c
            for c in itertools.product(*(range(d) for d in dims))
            if c[0] % 2 == c[1] % 2 == c[2] % 2
        ]
        for cell in cells:
            chain = {_wrap(tuple(x + t for x in cell), dims) for t in range(b)}
            if len(chain) != b or chain & covered:
                continue
            covered |= chain
            groups.append(_translate(canonical, cell, dims))
        if len(covered) != len(cells):
            raise BlockError(f"shifted-grid chains of {b} cubes cannot tile lattice {dims}")

    seen: set[Edge] = set()
    for group in groups:
        for e in group:
            if e in seen:
                raise BlockError(f"cover places edge {e} twice on lattice {dims}")
            seen.add(e)
    if seen != target:
        raise BlockError(
            f"cover misses {len(target - seen)} lattice edges on {dims} "
            f"(family {family!r}, block size {b})"
        )
    return groups


def blocks_count(family: str, dims: tuple[int, ...], b: int = 1) -> int:
    """Number of blocks in a full cover, without materializing it."""
    _check_dims(family, dims, b)
    sites = 1
    for d in dims:
        sites *= d
    dim = len(dims)
    if family == "bipartite":
        return dim * sites
    if family == "windmill":
        return sites // (2 * b) ** dim
    if dim == 2:
        return sites // (2 * b * b)
    return sites // (4 * b)


def degree_color_classes(family: str, dim: int, b: int = 1) -> list[tuple[int, int, int]]:
    """Per-block vertex classes as (degree, color, count).

    The color is the site parity inside the canonical block, which is a
    proper two-coloring because every block is a subgraph of the bipartite
    lattice.
    """
    edges = block_edges(family, dim, b)
    degree: dict[Site, int] = {}
    for a, c in edges:
        degree[a] = degree.get(a, 0) + 1
        degree[c] = degree.get(c, 0) + 1
    counts: dict[tuple[int, int], int] = {}
    for site, d in degree.items():
        key = (d, sum(site) % 2)
        counts[key] = counts.get(key, 0) + 1
    return [(d, color, n) for (d, color), n in sorted(counts.items())]


def sites_per_block(family: str, dim: int, b: int = 1) -> int:
    """Distinct sites touched by one block (= stored qubits per block copy)."""
    return sum(n for _, _, n in degree_color_classes(family, dim, b))


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


def smallest_dims(family: str, dim: int, b: int) -> tuple[int, ...]:
    """Smallest periodic lattice that tiles at size b and shows block boundaries.

    Extents below 4 collapse wrap-around edges, and a lattice holding a
    single block would hide the sites where neighboring blocks meet, so at
    least two blocks fit along each axis.
    """
    if family == "shifted-grid" and dim == 3:
        side = b if b % 2 == 0 else 2 * b
        return (max(side, 4),) * 3
    if family == "bipartite":
        return (4,) * dim
    return (max(4, 4 * b),) * dim


@functools.cache
def site_costs(family: str, dim: int, b: int = 1) -> tuple[tuple[int, int], ...]:
    """(qubits stored per copy, sites) pairs, ascending in cost.

    Counted on :func:`smallest_dims`, which shows every kind of site the
    family has; cached, as every sweep point of a scenario asks again.
    """
    return tuple(per_site_cost_histogram(family, smallest_dims(family, dim, b), b).items())


def per_copy_total(family: str, dims: tuple[int, ...], b: int = 1) -> int:
    """Total stored qubits per copy across the whole lattice."""
    sites = 1
    for d in dims:
        sites *= d
    if family == "bipartite":
        return 2 * len(dims) * sites
    return blocks_count(family, dims, b) * sites_per_block(family, len(dims), b)
