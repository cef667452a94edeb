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

Every cover is the lift of a per-family unit cell (:func:`unit_cell`): a
period p and the blocks anchored in one period box.  Key each edge
{a, a + e_axis} of the cell by its ends' residues mod p: every period is at
least 2, so they differ in the axis entry alone, and the key names
(a mod p, axis) one-to-one.  It is kept as the integer r_a * prod(p) + r_c,
r being a residue's row-major code in [0, prod(p)), one-to-one on residues
(mixed radix p) and so on pairs.  The cell is *exact* when these keys hit
every residue and axis exactly once, which :func:`unit_cell` checks.

Lemma.  On a torus whose extents are (i) multiples of p and (ii) at least 4,
the translates of an exact cell by every multiple of p place each lattice
edge exactly once.  By (i) a translate keeps every key, so the placed
(site, axis) pairs are each site of each residue class along each axis, once.
By (ii) the map from (site, axis) to the edge {site, site + e_axis} is
one-to-one (any extent >= 3 would do; every period is even), so no two
placements share an edge, no block repeats one and none is a self-loop.

So one check on the cell proves the cover of every admissible torus, and
extents breaking (i) or (ii) raise :class:`BlockError`.  As it keys only
index pairs (i, j) with i < j, it also certifies each cell shape a simple
graph.  Storage is read off the cell as well (:func:`site_costs`).
"""

from __future__ import annotations

import functools
import itertools
import math
from collections import Counter
from operator import add, mod, mul
from typing import NamedTuple

from .graphstate import MultinetError, check_dims, check_integer

Site = tuple[int, ...]
Edge = tuple[Site, Site]

FAMILIES = ("bipartite", "windmill", "shifted-grid")
# id -> shape of each shape unit_cell certified; holding the shapes keeps their ids from being reused
CERTIFIED: dict[int, Shape] = {}


def _cached(fn):
    """``fn``, asked again at every sweep point, behind a cache keyed by type too, as b = True or 1.0 (dim = 2.0)
    would read b = 1's (dim = 2's) entry and skip a miss's checks; ``fn`` checks what the cache cannot hash."""
    cached = functools.lru_cache(maxsize=None, typed=True)(fn)

    @functools.wraps(fn)
    def call(family, dim, b=1):
        try:
            return cached(family, dim, b)
        except TypeError:
            pass
        return fn(family, dim, b)

    call.cache_clear = cached.cache_clear
    return call


class BlockError(MultinetError):
    """Unknown family or lattice dimensions the family cannot tile."""


def _plaquette() -> list[Edge]:
    return [((0, 0), (1, 0)), ((1, 0), (1, 1)), ((0, 1), (1, 1)), ((0, 0), (0, 1))]


def _cube() -> list[Edge]:
    return [(c, tuple(x + (i == axis) for i, x in enumerate(c)))
            for c in itertools.product((0, 1), repeat=3) for axis in range(3) if c[axis] == 0]


def _pinwheel_2d() -> list[Edge]:
    """Plaquette plus one rotationally placed blade per corner (cx, cy): an x
    blade where cx == cy (toward +x when cx == 1), else a y blade (toward +y when cy == 1)."""
    edges = _plaquette()
    for cx, cy in itertools.product((0, 1), repeat=2):
        step = (2 * cx - 1, 0) if cx == cy else (0, 2 * cy - 1)
        edges.append(((cx, cy), (cx + step[0], cy + step[1])))
    return edges


def _pinwheel_3d() -> list[Edge]:
    """Unit cube plus 12 blades, assigned by the chiral rule below.

    Corner (cx, cy, cz) sprouts an x blade when cx == cy (toward +x when
    cy == 1), a y blade when cy == cz (sign by cz) and a z blade when
    cz == cx (sign by cx).  Every corner sprouts at least one blade, which
    is what keeps the per-site storage at three qubits or less.
    """
    edges = _cube()
    for c in itertools.product((0, 1), repeat=3):
        for axis in range(3):
            if c[axis] == c[(axis + 1) % 3]:  # the next axis's bit also gives the sign
                edges.append((c, tuple(x + (2 * x - 1) * (i == axis) for i, x in enumerate(c))))
    return edges


def _block(family: str, dim: int, b: int) -> list[tuple[int, int]]:
    """The family's canonical block at the origin as edges (a, c), a < c, of integer site codes: one piece
    translated by every piece offset, in set order (alike in every process: ints hash alike).  A code is
    row-major over the box [-b, 3b)^dim, which holds the block, so it is >= 0 and codes order as sites do."""
    if family == "windmill":
        piece = _pinwheel_2d() if dim == 2 else _pinwheel_3d()
        offsets = itertools.product(range(0, 2 * b, 2), repeat=dim)
    elif family == "shifted-grid":
        piece = _plaquette() if dim == 2 else _cube()
        offsets = [(i + j, i - j) for i in range(b) for j in range(b)] if dim == 2 else [(t,) * 3 for t in range(b)]
    else:
        raise BlockError(f"unknown block family {family!r}")
    scale = [(4 * b) ** k for k in range(dim - 1, -1, -1)]  # codes are linear in sites, up to the box's corner
    piece = [sorted(sum(map(mul, site, scale)) + b * sum(scale) for site in edge) for edge in piece]
    offsets = [sum(map(mul, offset, scale)) for offset in offsets]
    return list({(a + o, c + o) for o in offsets for a, c in piece})  # one offset on both ends keeps a < c


def block_edges(family: str, dim: int, b: int) -> list[Edge]:
    """Canonical block of the family at the origin, in unwrapped coordinates: the first shape of
    :func:`unit_cell`, decoded from :func:`_block`, as coordinate pairs in its pair order."""
    sites, pairs = unit_cell(family, dim, b).shapes[0]
    return [(sites[i], sites[j]) for i, j in pairs]


class Shape(NamedTuple):
    """A block's distinct sites and its edges as index pairs into them (a simple graph on the sites)."""

    sites: tuple[Site, ...]
    pairs: tuple[tuple[int, int], ...]
    vertex_count = property(lambda self: len(self.sites), doc="The number of sites, one qubit each.")


class UnitCell(NamedTuple):
    """A family's cover of one period box, in unwrapped coordinates: each block as a :class:`Shape`."""

    period: tuple[int, ...]
    shapes: tuple[Shape, ...]


def _period(family: str, dim: int, b: int) -> tuple[int, ...]:
    """The period of the family's unit cell, known without building the cell."""
    if family == "bipartite":
        return (2,) * dim  # even extents keep the lattice two-colourable
    if family == "windmill" or dim == 2:
        return (2 * b,) * dim
    return (math.lcm(2, b), 2, 2)


@_cached
def unit_cell(family: str, dim: int, b: int = 1) -> UnitCell:
    """The family's period and the blocks anchored in one period box.

    The canonical block's site codes (:func:`_block`) are sorted and indexed as ints, each decoded once.
    Raises :class:`BlockError` unless the cell is exact: the residue-pair keys (module docstring) of its
    pairs (i, j) with i < j distinct and dim * prod(p) in number, one per pair.  Its shapes go in CERTIFIED.
    """
    b = check_integer(b, "block size", BlockError, 1)
    if check_integer(dim, "dimensionality", BlockError) not in (2, 3):
        raise BlockError(f"dimensionality must be 2 or 3, got {dim}")
    period = _period(family, dim, b)
    origin = (0,) * dim
    if family == "bipartite":
        shapes = [Shape((origin, tuple(int(i == axis) for i in range(dim))), ((0, 1),)) for axis in range(dim)]
        anchors = itertools.product(*map(range, period))
    else:
        edges, w = _block(family, dim, b), 4 * b  # checks the family
        codes = sorted(set(itertools.chain.from_iterable(edges)))
        index = {s: i for i, s in enumerate(codes)}
        ends = map(index.__getitem__, itertools.chain.from_iterable(edges))
        sites = ([(s // w - b, s % w - b) for s in codes] if dim == 2 else
                 [(s // w // w - b, s // w % w - b, s % w - b) for s in codes])
        shapes = [Shape(tuple(sites), tuple(zip(ends, ends)))]
        if family == "windmill":
            anchors = [origin]
        elif dim == 2:
            anchors = [origin, (b, b)]
        else:
            anchors = [origin] + [(b, 1, 1)] * (b % 2)
    # a translate keeps the sites' order, so every block reuses its shape's index pairs
    cell = tuple(
        Shape(tuple(tuple(map(add, s, anchor)) for s in shape.sites), shape.pairs) if any(anchor) else shape
        for anchor in anchors
        for shape in shapes
    )
    p0, p1, p2 = (*period, 1)[:3]
    size = p0 * p1 * p2
    keys, count = [], 0
    for sites, pairs in cell:  # row-major residue codes, by a comprehension per dimension
        codes = ([x % p0 * p1 + y % p1 for x, y in sites] if dim == 2 else
                 [(x % p0 * p1 + y % p1) * p2 + z % p2 for x, y, z in sites])
        keys += [codes[i] * size + codes[j] for i, j in pairs if i < j]
        count += len(pairs)
    if len(set(keys)) != count or count != dim * size:
        raise BlockError(f"{family} blocks of size {b} do not tile their {period} unit cell exactly")
    CERTIFIED.update((id(shape), shape) for shape in cell)
    return UnitCell(period, cell)


def _check_dims(family: str, dims: tuple[int, ...], b: int) -> tuple[tuple[int, ...], UnitCell]:
    """``dims`` as checked ints, and the cell of a family that tiles them."""
    if family not in FAMILIES:
        raise BlockError(f"unknown block family {family!r} (choose from {FAMILIES})")
    dims = check_dims(dims, "lattice", BlockError)
    b = check_integer(b, "block size", BlockError, 1)
    period = _period(family, len(dims), b)  # checked before the cell, of ~b^dim edges, is built
    if any(d < 4 or d % p for d, p in zip(dims, period)):
        raise BlockError(f"{family} blocks of size {b} need extents, each a multiple of the period {period} "
                         f"and >= 4, got {dims}")
    if family == "shifted-grid" and len(dims) == 3 and len(set(dims)) != 1:
        raise BlockError("3D shifted-grid tiling is defined for cubic lattices")
    return dims, unit_cell(family, len(dims), b)


def lift(family: str, dims: tuple[int, ...], b: int = 1) -> tuple[list[Shape], list[tuple[int, list[int]]]]:
    """The cell's translates by every multiple of its period, exact by the module's lemma.

    Returns ``(shapes, placed)``.  Each shape is the cell's :class:`Shape` itself, unless the torus is narrower
    than the block and folds it: then a new one merges its coinciding wrapped sites in first-occurrence order.
    ``placed`` lists each block as (shape index, sites), its sites in the shape's order as the torus's vertex
    ids, row-major as ``build_graph`` numbers them: sums of codes ((x + t) % d) * stride from tables per shape,
    axis and period shift t, the axes after the first summed into one: no tuple per site, and no ``Graph``.
    """
    dims, cell = _check_dims(family, dims, b)
    d0, d1, d2 = (*dims, 1)[:3]
    strides = (d1 * d2, d2, 1)
    shapes, tables = [], []
    for shape in cell.shapes:  # wrapped by a comprehension per dimension
        wrapped = ([(x % d0, y % d1) for x, y in shape.sites] if len(dims) == 2 else
                   [(x % d0, y % d1, z % d2) for x, y, z in shape.sites])
        index = dict.fromkeys(wrapped)
        if len(index) < len(wrapped):  # folded
            index = {s: i for i, s in enumerate(index)}
            shape = Shape(tuple(index), tuple((index[wrapped[i]], index[wrapped[j]]) for i, j in shape.pairs))
        shapes.append(shape)
        first, rest, *last = [[[(x + t) % d * stride for x in axis] for t in range(0, d, p)]
                              for axis, d, p, stride in zip(zip(*index), dims, cell.period, strides)]
        if last:  # 3D: the last axis summed into the second, its shifts fastest
            rest = [list(map(add, a, c)) for a in rest for c in last[0]]
        tables.append((first, rest))
    shifts = itertools.product(range(len(first)), range(len(rest)))
    placed = [(k, list(map(add, first[i], rest[j]))) for i, j in shifts for k, (first, rest) in enumerate(tables)]
    return shapes, placed


def blocks_count(family: str, dims: tuple[int, ...], b: int = 1) -> int:
    """Number of blocks in a full cover, without materializing it."""
    dims, cell = _check_dims(family, dims, b)
    return math.prod(dims) // math.prod(cell.period) * len(cell.shapes)


@_cached
def degree_color_classes(family: str, dim: int, b: int = 1) -> tuple[tuple[int, int, int], ...]:
    """Per-block vertex classes as (degree, color, count).

    The color is the site parity inside the canonical block, which is a proper
    two-coloring because every block is a subgraph of the bipartite lattice.
    """
    degree = Counter(site for edge in block_edges(family, dim, b) for site in edge)
    counts = Counter((d, sum(site) % 2) for site, d in degree.items())
    return tuple((d, color, n) for (d, color), n in sorted(counts.items()))


@_cached
def site_costs(family: str, dim: int, b: int = 1) -> tuple[tuple[int, int], ...]:
    """(qubits stored per copy, sites per unit cell) pairs, ascending in cost.

    A residue class's load is the number of (block, site) pairs of the cell that
    land in it: what each of its sites stores on the infinite lattice."""
    cell = unit_cell(family, dim, b)
    load = Counter(tuple(map(mod, s, cell.period)) for sites, _ in cell.shapes for s in sites)
    return tuple(sorted(Counter(load.values()).items()))


def per_copy_total(family: str, dims: tuple[int, ...], b: int = 1) -> int:
    """Total stored qubits per copy across the whole lattice: every cell's loads (:func:`site_costs`)."""
    dims, cell = _check_dims(family, dims, b)
    cells = math.prod(dims) // math.prod(cell.period)
    return cells * sum(cost * sites for cost, sites in site_costs(family, len(dims), b))
