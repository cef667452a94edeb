"""Graphs underlying graph states and their adjacency-level transformation rules.

This module provides:

- ``Graph``: an undirected simple graph over integer vertex ids, with
  optional coordinate labels.
- ``build_graph``: generators for the standard graphs used throughout
  (GHZ stars, lines, 2D/3D lattices).
- ``local_complement``, ``merge_vertices``, ``connect_project``: the
  transformation rules used to combine graph states, expressed purely at
  the adjacency level.  Local Clifford byproducts are never tracked; the
  downstream pipeline only consumes statistics that are invariant under
  local Z corrections.
- ``color_graph``: the deterministic two-coloring of a bipartite graph, by
  BFS, as a plain vertex -> color dict.
- ``check_integer``, ``check_real``, ``check_dims``, ``check_instance``: the
  library's one input contract, a checker per parameter kind, each raising
  the caller's :class:`MultinetError` subclass.

All operations return new graphs and leave their inputs unchanged; the CLI
evaluates sweep points one after another, not in parallel.
"""

from __future__ import annotations

import itertools
from typing import Iterable, Iterator, Mapping


class MultinetError(ValueError):
    """Root of every error the library raises on bad input."""


class GraphError(MultinetError):
    """Raised for invalid vertices, malformed input or impossible requests."""


class ColoringError(GraphError):
    """Raised when a graph has no proper two-coloring."""


def check_integer(value, name: str, error: type[MultinetError], least: int | None = None) -> int:
    """``value`` as an int (an int or an object with ``__index__``, never a bool, float or str) that is
    ``>= least``; otherwise raises ``error``, naming the parameter ``name``."""
    n = value if type(value) is int else (
        value.__index__() if hasattr(value, "__index__") and not isinstance(value, bool) else None)
    if n is not None and (least is None or n >= least):
        return n
    raise error(f"{name} must be an integer{'' if least is None else f' >= {least}'}, got {value!r}")


def check_real(
    value, name: str, error: type[MultinetError], low: float = 0.0, high: float = 1.0, closed: bool = True
) -> float:
    """``value`` as a float (a number with ``__float__``, never a bool or str) in [low, high], or in (low, high)
    unless ``closed``; NaN and ints beyond a float lie in neither.  Otherwise raises ``error`` naming ``name``."""
    try:
        x = value if type(value) is float else (
            float(value) if hasattr(value, "__float__") and not isinstance(value, bool) else float("nan"))
    except OverflowError:
        x = float("nan")
    if low <= x <= high if closed else low < x < high:
        return x
    ends = "[]" if closed else "()"
    raise error(f"{name} must be in {ends[0]}{low:g},{high:g}{ends[1]}, got {value!r}")


def check_dims(dims, name: str, error: type[MultinetError]) -> tuple[int, ...]:
    """``dims`` as a tuple of 2 or 3 lattice extents, each an integer >= 1 (:func:`check_integer`)."""
    if not isinstance(dims, (tuple, list)) or len(dims) not in (2, 3):
        raise error(f"{name} dims must be 2D or 3D, got {dims!r}")
    for d in dims:
        if type(d) is not int or d < 1:
            return tuple(check_integer(d, f"{name} extent", error, 1) for d in dims)
    return tuple(dims)


def check_instance(value, kind: type, name: str, error: type[MultinetError]):
    """``value`` if it is a ``kind``; otherwise raises ``error``, naming the parameter ``name``."""
    if isinstance(value, kind):
        return value
    raise error(f"{name} must be a {kind.__name__}, got {value!r}")


class Graph:
    """Undirected simple graph with stable vertex ids.

    Vertex ids survive deletions (removing a vertex never renumbers the others), so coordinate
    labels stay valid across :func:`merge_vertices` and :func:`connect_project`.  A new graph or
    :meth:`copy` has no :meth:`edge_codes` memo, and the rules mutate only a fresh copy.

    Parameters
    ----------
    vertices : iterable of int
        Vertex ids, each an integer (:func:`check_integer`); 1.7, 2.0 or "2" raises GraphError.
    edges : iterable of (int, int)
        Undirected edges; self-loops are rejected.
    coords : mapping vertex -> tuple, optional
        Coordinate labels attached by the lattice generators, for reading only: a cover's sites are vertex ids.
    """

    __slots__ = ("_adj", "_codes", "coords")

    def __init__(
        self,
        vertices: Iterable[int] = (),
        edges: Iterable[tuple[int, int]] = (),
        coords: Mapping[int, tuple] | None = None,
    ):
        adj: dict[int, set[int]] = {v if type(v) is int else check_integer(v, "vertex id", GraphError): set()
                                    for v in vertices}
        for a, b in edges:
            if type(a) is not int or type(b) is not int:
                a, b = check_integer(a, "vertex id", GraphError), check_integer(b, "vertex id", GraphError)
            if a == b:
                raise GraphError(f"self-edge at vertex {a}")
            if a not in adj or b not in adj:
                raise GraphError(f"edge ({a},{b}) references unknown vertex {b if a in adj else a}")
            adj[a].add(b)
            adj[b].add(a)
        self._adj = adj
        self._codes = None
        self.coords = dict(coords) if coords is not None else None

    # -- read access -------------------------------------------------------

    @property
    def vertex_count(self) -> int:
        return len(self._adj)

    def vertices(self) -> list[int]:
        return sorted(self._adj)

    def has_vertex(self, v: int) -> bool:
        return v in self._adj

    def neighbors(self, v: int) -> set[int]:
        self._require(v)
        return set(self._adj[v])

    def degree(self, v: int) -> int:
        self._require(v)
        return len(self._adj[v])

    def has_edge(self, a: int, b: int) -> bool:
        return a in self._adj and b in self._adj[a]

    def iter_edges(self) -> Iterator[tuple[int, int]]:
        """Each edge once as ``(a, b)`` with ``a < b``, in adjacency order (unsorted)."""
        return ((a, b) for a, nbrs in self._adj.items() for b in nbrs if a < b)

    def edge_codes(self, shift: int) -> frozenset[int]:
        """Each edge ``(a, b)`` with ``a < b`` as the int ``(a << shift) + b``, frozen and memoised per last shift."""
        if self._codes is None or self._codes[0] != shift:
            self._codes = shift, frozenset((a << shift) + b for a, nbrs in self._adj.items() for b in nbrs if a < b)
        return self._codes[1]

    def edges(self) -> list[tuple[int, int]]:
        return sorted(self.iter_edges())

    def _require(self, v: int) -> int:
        if type(v) is not int:  # 2.0 and True would find vertices 2 and 1
            v = check_integer(v, "vertex id", GraphError)
        if v not in self._adj:
            raise GraphError(f"vertex {v} not in graph")
        return v

    # -- value semantics ----------------------------------------------------

    def copy(self) -> "Graph":
        g = Graph.__new__(Graph)
        g._adj = {v: set(nbrs) for v, nbrs in self._adj.items()}
        g._codes = None
        g.coords = dict(self.coords) if self.coords is not None else None
        return g

    def __eq__(self, other: object) -> bool:
        if not isinstance(other, Graph):
            return NotImplemented
        return self._adj == other._adj

    def __repr__(self) -> str:
        return f"Graph({self.vertex_count} vertices, {sum(map(len, self._adj.values())) // 2} edges)"


# -- generators -------------------------------------------------------------


def _lattice(dims: tuple[int, ...], periodic: bool) -> Graph:
    """The grid over ``dims``, sites numbered row-major (the last axis fastest), as ``blocks.lift`` numbers them.

    Along an axis of extent d and index stride st, site i joins i + st unless
    it sits at the axis's end; a periodic axis with d > 2 also joins its two
    ends (with d = 2 that edge exists already, and d = 1 has none).
    """
    sites = list(itertools.product(*(range(d) for d in dims)))
    edges = []
    stride = 1
    for d in reversed(dims):
        span = d * stride
        for base in range(0, len(sites), span):
            edges += [(i, i + stride) for i in range(base, base + span - stride)]
            if periodic and d > 2:
                edges += [(i, i + span - stride) for i in range(base, base + stride)]
        stride = span
    g = Graph(range(len(sites)), edges)
    g.coords = dict(enumerate(sites))
    return g


def build_graph(kind: str, **params) -> Graph:
    """Build one of the named standard graphs.

    Supported kinds:

    - ``"ghz-star"``: star on ``s`` vertices, vertex 0 is the center.
    - ``"line"``: path on ``n`` vertices.
    - ``"lattice2d"``: ``w`` x ``h`` grid, optional ``periodic`` wrap.
    - ``"lattice3d"``: ``w`` x ``h`` x ``d`` grid, optional ``periodic``.

    Lattice vertices carry coordinate labels in ``coords``.
    """
    if kind == "ghz-star":
        s = check_integer(params.get("s"), "star size", GraphError, 1)
        return Graph(range(s), [(0, i) for i in range(1, s)])
    if kind == "line":
        n = check_integer(params.get("n"), "line length", GraphError, 1)
        return Graph(range(n), [(i, i + 1) for i in range(n - 1)])
    if kind in ("lattice2d", "lattice3d"):
        keys = "wh" if kind == "lattice2d" else "whd"
        dims = tuple(check_integer(params.get(k), "lattice dimension", GraphError, 1) for k in keys)
        periodic = params.get("periodic", False)
        if not isinstance(periodic, bool):  # bool("false") is True
            raise GraphError(f"periodic must be True or False, got {periodic!r}")
        return _lattice(dims, periodic)
    raise GraphError(f"unknown graph generator {kind!r}")


# -- transformation rules ----------------------------------------------------


def local_complement(g: Graph, v: int) -> Graph:
    """Complement the edges inside the neighborhood of ``v``.

    Involutive at fixed ``v``; coordinates are preserved.
    """
    check_instance(g, Graph, "graph", GraphError)._require(v)
    out = g.copy()
    nbrs = sorted(g._adj[v])
    for i, a in enumerate(nbrs):
        for b in nbrs[i + 1:]:
            if b in out._adj[a]:
                out._adj[a].discard(b)
                out._adj[b].discard(a)
            else:
                out._adj[a].add(b)
                out._adj[b].add(a)
    return out


def merge_vertices(g: Graph, a: int, b: int) -> Graph:
    """Identify vertices ``a`` and ``b``; the survivor is ``a``.

    The new neighborhood of ``a`` is the symmetric difference of the two
    old neighborhoods with ``a`` and ``b`` themselves removed.  Vertex ``b``
    is deleted; all other ids are unchanged.
    """
    a, b = check_instance(g, Graph, "graph", GraphError)._require(a), g._require(b)
    if a == b:
        raise GraphError("cannot merge a vertex with itself")
    out = g.copy()
    new_nbrs = (out._adj[a] ^ out._adj[b]) - {a, b}
    for u in out._adj[a] | out._adj[b]:
        out._adj[u].discard(a)
        out._adj[u].discard(b)
    del out._adj[b]
    if out.coords is not None:
        out.coords.pop(b, None)
    out._adj[a] = set(new_nbrs)
    for u in new_nbrs:
        out._adj[u].add(a)
    return out


def connect_project(g: Graph, a: int, b: int) -> Graph:
    """Cross-link the neighborhoods of two non-adjacent vertices, removing both.

    For every pair (i, j) with i in N(a) and j in N(b) (or vice versa) the
    edge i-j is toggled; then ``a`` and ``b`` are deleted.  Applied to the
    leaves of two stars this produces the graph of the combined star on the
    remaining vertices.
    """
    check_instance(g, Graph, "graph", GraphError)._require(a)
    g._require(b)
    if a == b:
        raise GraphError("connect needs two distinct vertices")
    if g.has_edge(a, b):
        raise GraphError(f"connect requires non-adjacent vertices, {a}-{b} is an edge")
    out = g.copy()
    na = out._adj[a] - {b}
    nb = out._adj[b] - {a}
    for i in sorted(na | nb):
        for j in sorted(na | nb):
            if j <= i:
                continue
            toggle = ((i in na) and (j in nb)) != ((i in nb) and (j in na))
            if toggle:
                if j in out._adj[i]:
                    out._adj[i].discard(j)
                    out._adj[j].discard(i)
                else:
                    out._adj[i].add(j)
                    out._adj[j].add(i)
    for v in (a, b):
        for u in out._adj[v]:
            out._adj[u].discard(v)
        del out._adj[v]
        if out.coords is not None:
            out.coords.pop(v, None)
    return out


# -- coloring ----------------------------------------------------------------


def color_graph(g: Graph) -> dict[int, int]:
    """Return the deterministic proper two-coloring of a bipartite graph.

    Each connected component is colored by BFS from its smallest vertex,
    which gets color 0, with the colors {0, 1} (isolated vertices get
    color 0).  A graph with an odd cycle raises :class:`ColoringError`:
    hashing purifies two-colorable graph states only.
    """
    if check_instance(g, Graph, "graph", GraphError).vertex_count == 0:
        raise GraphError("cannot color an empty graph")
    coloring: dict[int, int] = {}
    for start in g.vertices():
        if start in coloring:
            continue
        coloring[start] = 0
        queue = [start]
        while queue:
            v = queue.pop(0)
            for u in sorted(g._adj[v]):
                if u not in coloring:
                    coloring[u] = 1 - coloring[v]
                    queue.append(u)
                elif coloring[u] == coloring[v]:
                    raise ColoringError("graph is not 2-colorable (odd cycle present)")
    return coloring
