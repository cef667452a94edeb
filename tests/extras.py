"""Helpers the package does not export, kept for the tests that use them.

A text exchange format for graphs, the composition of two depolarizing
maps, and the vertex-level forms of the slack-split optimizer and of the
threshold search over the optimized bound.  Nothing in ``multinet`` or its
CLI calls them.
"""

from multinet.graphstate import Graph, GraphError
from multinet.hashing import (
    max_output_copies_classes,
    multipartite_bound,
    optimize_delta_split_classes,
    vertex_classes,
)
from multinet.noise import ChannelError


def to_text(g):
    """Serialize to the newline-delimited exchange format.

    Vertices are relabeled densely to ``0..n-1`` in ascending id order, so
    graphs with deletion holes serialize cleanly; coordinates are not kept.
    """
    ids = {v: i for i, v in enumerate(g.vertices())}
    lines = [f"graph {g.vertex_count}"]
    lines += [f"e {ids[a]} {ids[b]}" for a, b in g.edges()]
    return "\n".join(lines) + "\n"


def from_text(text):
    """Parse the exchange format produced by :func:`to_text`."""
    n = None
    edges = []
    for lineno, raw in enumerate(text.splitlines(), start=1):
        line = raw.strip()
        if not line or line.startswith("#"):
            continue
        parts = line.split()
        if parts[0] == "graph" and len(parts) == 2:
            if n is not None:
                raise GraphError(f"line {lineno}: duplicate header")
            n = int(parts[1])
        elif parts[0] == "e" and len(parts) == 3:
            edges.append((int(parts[1]), int(parts[2])))
        else:
            raise GraphError(f"line {lineno}: cannot parse {raw!r}")
    if n is None:
        raise GraphError("missing 'graph <n>' header")
    for a, b in edges:
        if not (0 <= a < n and 0 <= b < n):
            raise GraphError(f"edge ({a},{b}) out of range for {n} vertices")
    return Graph(range(n), edges)


def compose_depolarizing(q1, q2):
    """Strength of two local depolarizing maps in sequence (parameters multiply)."""
    for q in (q1, q2):
        if not 0.0 <= q <= 1.0:
            raise ChannelError(f"depolarizing parameter must be in [0,1], got {q}")
    return q1 * q2


def optimize_delta_split(g, coloring, marginals, n, m):
    """Best slack split plus the corresponding full run for a colored graph."""
    classes, _ = vertex_classes(g, coloring, marginals)
    split, _ = optimize_delta_split_classes(classes, n, m)
    return split, multipartite_bound(g, coloring, marginals, n, m, delta_split=split or None)


def max_output_copies(g, coloring, marginals, n, threshold):
    """Largest m the colored graph ensemble supports at the given fidelity."""
    return max_output_copies_classes(vertex_classes(g, coloring, marginals)[0], n, threshold)[0]
