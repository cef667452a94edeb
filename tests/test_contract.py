"""The library's input contract, walked from one table.

Every parameter of a checked kind has one checker in ``graphstate``
(``check_integer``, ``check_real``, ``check_dims``, ``check_instance``) or,
for a distribution, in ``hashing``.  The table names each
public entry point's parameters of those kinds: ``__all__``, the module
functions the CLI and the benchmark call, and the storage, search, loss and
marginal helpers.  Each is called with every malformed value below in that
one parameter.  The call must return only where the kind admits the value,
and otherwise raise a ``MultinetError``: never a ``TypeError`` or an
``AttributeError``, and never a row or a record built from the bad value.
A value the kind admits may still raise a ``MultinetError`` for a reason
of its own, such as an extent below the period or an infeasible target.
Some kinds have malformed values of their own beyond those below, such as
a distribution of numeral strings; every row of the kind must reject them.
Every numeric row also takes 2 or 0.25 as each of the numeric tower's
other types (numpy scalars, ``Fraction``, ``Decimal``, int and float
subclasses), and Hypothesis walks it with small numbers of those types,
-0.0 and subnormals: an admitted one must give the outcome of the plain
number its checker returns.
"""

import math
import pickle
from decimal import Decimal
from fractions import Fraction

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

import multinet
from multinet import (
    Architecture,
    BitMarginal,
    FlipSource,
    Graph,
    GraphError,
    MultinetError,
    PauliChannel,
    StorageModel,
    bipartite_bound,
    bit_marginals,
    build_graph,
    channel_to_flip_source,
    cluster_architecture_run,
    color_graph,
    connect_project,
    edge_channel_to_flip_source,
    entropy,
    from_bell_run,
    ghz_scheme_fidelity,
    local_complement,
    merge_vertices,
    multipartite_bound,
    output_noise_factor,
    storage_per_node,
    triangular_repeater,
    validate_cover,
)
from multinet.blocks import BlockError, blocks_count, degree_color_classes, per_copy_total, site_costs, unit_cell
from multinet.hashing import (
    MarginalClass,
    bennett_loss,
    largest_m,
    max_output_copies_classes,
    multipartite_bound_classes,
    optimize_delta_split_classes,
)
from multinet.noise import pair_pattern_distribution, uniform_depolarizing_marginal, uniform_edge_channel_marginal
from multinet.schemes import family_cover

VALUES = [True, 2.0, 2.5, "2", None, math.nan, math.inf, -1, 0]


def _integer(v):
    return isinstance(v, int) and not isinstance(v, bool)


def _real(v):
    return isinstance(v, (int, float)) and not isinstance(v, bool)


# which of VALUES each kind admits
ADMITS = {
    "integer": _integer,  # vertex ids, and n and m, whose range is the target's to check
    "count": lambda v: _integer(v) and v >= 1,
    "count0": lambda v: _integer(v) and v >= 0,
    "probability": lambda v: _real(v) and 0 <= v <= 1,
    "channel probability": lambda v: _real(v) and -1e-12 <= v <= 1 + 1e-12,  # drift in the sum to 1 is tolerated
    "threshold": lambda v: _real(v) and 0 < v < 1,
    "slack": lambda v: _real(v) and 0 < v < math.inf,
    "dims": lambda v: False,  # a tuple of 2 or 3 extents; none of VALUES is one
    "extent": lambda v: _integer(v) and v >= 1,  # put in place of the first extent
    "graph": lambda v: False,  # a Graph; none of VALUES is one
    "distribution": lambda v: False,  # a sequence of probabilities
    "architecture": lambda v: False,  # an Architecture
    "storage": lambda v: False,  # a StorageModel
    "coloring": lambda v: False,  # a vertex -> color mapping
    "marginals": lambda v: False,  # a sequence of BitMarginal
    "channels": lambda v: False,  # a sequence of PauliChannel
    "cover": lambda v: False,  # a sequence of (Shape, sites) blocks
    "classes": lambda v: False,  # a sequence of MarginalClass
    "split": lambda v: v is None,  # a mapping of each active color to its fraction of the slack; None splits equally
    "sources": lambda v: False,  # a sequence of FlipSource
    "qubits": lambda v: False,  # a sequence of vertex ids
}

STAR = build_graph("ghz-star", s=3)
LINE = build_graph("line", n=4)
PAIR = (0.97, 0.01, 0.01, 0.01)
MARGINALS = [BitMarginal(v, 0.99, 0.01) for v in range(3)]
COLORING = color_graph(STAR)
WINDMILL = Architecture("windmill", (8, 8))
PER_NODE = StorageModel("per-node", 40)
COVER = family_cover("windmill", (8, 8))
TARGET = build_graph("lattice2d", w=8, h=8, periodic=True)
LDN = PauliChannel.depolarizing(0.9)
CLASSES = [MarginalClass(0.01, 0, 1), MarginalClass(0.01, 1, 2)]


# (entry point, parameter, kind, the call with the value in that parameter)
TABLE = [
    ("Graph", "vertices", "integer", lambda v: Graph([v])),
    ("Graph", "edges", "integer", lambda v: Graph([-1, 0, 1], [(1, v)])),
    ("color_graph", "g", "graph", color_graph),
    ("build_graph", "s", "count", lambda v: build_graph("ghz-star", s=v)),
    ("build_graph", "n", "count", lambda v: build_graph("line", n=v)),
    ("build_graph", "w", "count", lambda v: build_graph("lattice2d", w=v, h=3)),
    ("build_graph", "d", "count", lambda v: build_graph("lattice3d", w=2, h=2, d=v, periodic=True)),
    ("local_complement", "g", "graph", lambda v: local_complement(v, 0)),
    ("local_complement", "v", "integer", lambda v: local_complement(LINE, v)),
    ("merge_vertices", "g", "graph", lambda v: merge_vertices(v, 0, 1)),
    ("merge_vertices", "a", "integer", lambda v: merge_vertices(LINE, v, 3)),
    ("merge_vertices", "b", "integer", lambda v: merge_vertices(LINE, 3, v)),
    ("connect_project", "g", "graph", lambda v: connect_project(v, 0, 2)),
    ("connect_project", "a", "integer", lambda v: connect_project(LINE, v, 3)),
    ("connect_project", "b", "integer", lambda v: connect_project(LINE, 3, v)),
    ("PauliChannel", "p_i", "channel probability", lambda v: PauliChannel(v, 0.0, 0.0, 1.0)),
    ("PauliChannel", "p_z", "channel probability", lambda v: PauliChannel(1.0, 0.0, 0.0, v)),
    ("PauliChannel.depolarizing", "q", "probability", PauliChannel.depolarizing),
    ("PauliChannel.phase_flip", "p_z", "probability", PauliChannel.phase_flip),
    ("PauliChannel.biased", "p_x", "probability", lambda v: PauliChannel.biased(v, 0.01)),
    ("PauliChannel.biased", "p_z", "probability", lambda v: PauliChannel.biased(0.01, v)),
    ("FlipSource", "flip_prob", "probability", lambda v: FlipSource({0: v})),
    ("FlipSource", "flip_prob", "integer", lambda v: FlipSource({v: 0.1})),
    ("BitMarginal", "vertex", "integer", lambda v: BitMarginal(v, 0.5, 0.5)),
    ("BitMarginal", "lambda0", "probability", lambda v: BitMarginal(0, v, 1.0)),
    ("BitMarginal", "lambda1", "probability", lambda v: BitMarginal(0, 1.0, v)),
    ("bit_marginals", "g", "graph", lambda v: bit_marginals(v, [])),
    ("bit_marginals", "sources", "integer", lambda v: bit_marginals(STAR, [FlipSource({v: 0.1})])),
    ("bit_marginals", "sources", "sources", lambda v: bit_marginals(STAR, v)),
    ("channel_to_flip_source", "g", "graph", lambda v: channel_to_flip_source(v, 0, LDN)),
    ("channel_to_flip_source", "v", "integer", lambda v: channel_to_flip_source(STAR, v, LDN)),
    ("edge_channel_to_flip_source", "edge", "integer", lambda v: edge_channel_to_flip_source((3, v), 0.9)),
    ("edge_channel_to_flip_source", "q", "probability", lambda v: edge_channel_to_flip_source((0, 1), v)),
    ("output_noise_factor", "g", "graph", lambda v: output_noise_factor(v, [0], 0.9)),
    ("output_noise_factor", "qubits", "integer", lambda v: output_noise_factor(STAR, [v], 0.9)),
    ("output_noise_factor", "qubits", "qubits", lambda v: output_noise_factor(STAR, v, 0.9)),
    ("output_noise_factor", "p", "probability", lambda v: output_noise_factor(STAR, [0, 1], v)),
    ("uniform_depolarizing_marginal", "q", "probability", lambda v: uniform_depolarizing_marginal(v, 4)),
    ("uniform_depolarizing_marginal", "degree", "count0", lambda v: uniform_depolarizing_marginal(0.9, v)),
    ("uniform_edge_channel_marginal", "q", "probability", lambda v: uniform_edge_channel_marginal(v, 4)),
    ("uniform_edge_channel_marginal", "degree", "count0", lambda v: uniform_edge_channel_marginal(0.9, v)),
    ("entropy", "probs", "distribution", entropy),
    ("bennett_loss", "probs", "distribution", lambda v: bennett_loss(v, 100, 0.1)),
    ("bennett_loss", "n", "integer", lambda v: bennett_loss((0.9, 0.1), v, 0.1)),
    ("bennett_loss", "delta", "slack", lambda v: bennett_loss((0.9, 0.1), 100, v)),
    ("bipartite_bound", "probs", "distribution", lambda v: bipartite_bound(v, 100, 1)),
    ("bipartite_bound", "n", "integer", lambda v: bipartite_bound(PAIR, v, 1)),
    ("bipartite_bound", "m", "integer", lambda v: bipartite_bound(PAIR, 100, v)),
    ("multipartite_bound", "g", "graph", lambda v: multipartite_bound(v, COLORING, MARGINALS, 100, 1)),
    ("multipartite_bound", "coloring", "coloring", lambda v: multipartite_bound(STAR, v, MARGINALS, 100, 1)),
    ("multipartite_bound", "marginals", "marginals", lambda v: multipartite_bound(STAR, COLORING, v, 100, 1)),
    ("multipartite_bound_classes", "classes", "probability",
     lambda v: multipartite_bound_classes([MarginalClass(v, 0, 1)], 100, 1)),
    ("multipartite_bound_classes", "classes", "classes", lambda v: multipartite_bound_classes(v, 100, 1)),
    ("multipartite_bound_classes", "color", "integer",
     lambda v: multipartite_bound_classes([MarginalClass(0.01, v, 1)], 100, 1)),
    ("multipartite_bound_classes", "delta_split", "split",
     lambda v: multipartite_bound_classes(CLASSES, 100, 1, delta_split=v)),
    ("multipartite_bound", "delta_split", "split",
     lambda v: multipartite_bound(STAR, COLORING, MARGINALS, 100, 1, delta_split=v)),
    ("optimize_delta_split_classes", "classes", "classes", lambda v: optimize_delta_split_classes(v, 100, 1)),
    ("max_output_copies_classes", "classes", "classes", lambda v: max_output_copies_classes(v, 100, 0.9)),
    ("pair_pattern_distribution", "channels_a", "channels", lambda v: pair_pattern_distribution(v, [])),
    ("pair_pattern_distribution", "channels_b", "channels", lambda v: pair_pattern_distribution([LDN], v)),
    ("multipartite_bound", "n", "integer", lambda v: multipartite_bound(STAR, COLORING, MARGINALS, v, 1)),
    ("multipartite_bound", "m", "integer", lambda v: multipartite_bound(STAR, COLORING, MARGINALS, 100, v)),
    ("largest_m", "n", "integer", lambda v: largest_m(lambda m: 0.95, v, 0.9)),
    ("largest_m", "threshold", "threshold", lambda v: largest_m(lambda m: 0.95, 10, v)),
    ("StorageModel", "capacity", "count", lambda v: StorageModel("global", v)),
    ("Architecture", "dims", "dims", lambda v: Architecture("windmill", v)),
    ("Architecture", "dims", "extent", lambda v: Architecture("windmill", (v, 8))),
    ("Architecture", "block_size", "count", lambda v: Architecture("windmill", (8, 8), v)),
    ("storage_per_node", "arch", "architecture", storage_per_node),
    ("cluster_architecture_run", "arch", "architecture", lambda v: cluster_architecture_run(v, PER_NODE, 0.9, 1)),
    ("cluster_architecture_run", "storage", "storage", lambda v: cluster_architecture_run(WINDMILL, v, 0.9, 1)),
    ("cluster_architecture_run", "q", "probability", lambda v: cluster_architecture_run(WINDMILL, PER_NODE, v, 1)),
    ("cluster_architecture_run", "m", "count", lambda v: cluster_architecture_run(WINDMILL, PER_NODE, 0.9, v)),
    ("cluster_architecture_run", "threshold", "threshold",
     lambda v: cluster_architecture_run(WINDMILL, PER_NODE, 0.9, threshold=v)),
    ("from_bell_run", "dims", "dims", lambda v: from_bell_run(v, 0.9, 40, 1)),
    ("from_bell_run", "dims", "extent", lambda v: from_bell_run((v, 8), 0.9, 40, 1)),
    ("from_bell_run", "q", "probability", lambda v: from_bell_run((8, 8), v, 40, 1)),
    ("from_bell_run", "capacity", "count", lambda v: from_bell_run((8, 8), 0.9, v, 1)),
    ("from_bell_run", "m", "count", lambda v: from_bell_run((8, 8), 0.9, 40, v)),
    ("from_bell_run", "threshold", "threshold", lambda v: from_bell_run((8, 8), 0.9, 40, threshold=v)),
    ("ghz_scheme_fidelity", "capacity", "count", lambda v: ghz_scheme_fidelity("A", v, 0.9, channel="ldn")),
    ("ghz_scheme_fidelity", "q", "probability", lambda v: ghz_scheme_fidelity("A", 40, v, channel="ldn")),
    ("ghz_scheme_fidelity", "p", "probability", lambda v: ghz_scheme_fidelity("B", 40, 0.9, v, channel="ldn")),
    ("ghz_scheme_fidelity", "m", "count", lambda v: ghz_scheme_fidelity("C", 40, 0.9, m=v, channel="ldn")),
    ("ghz_scheme_fidelity", "channel_params", "probability",
     lambda v: ghz_scheme_fidelity("A", 40, 0.9, channel="biased", channel_params={"px": v, "pz": 0.01})),
    ("triangular_repeater", "levels", "count0", lambda v: triangular_repeater(v, 40, 0.9)),
    ("triangular_repeater", "capacity", "count", lambda v: triangular_repeater(1, v, 0.9)),
    ("triangular_repeater", "q", "probability", lambda v: triangular_repeater(1, 40, v)),
    ("triangular_repeater", "p", "probability", lambda v: triangular_repeater(1, 40, 0.9, v)),
    ("validate_cover", "target", "graph", lambda v: validate_cover(COVER, v)),
    ("validate_cover", "cover", "cover", lambda v: validate_cover(v, TARGET)),
    ("validate_cover", "sites", "integer",  # a site is a target vertex id; one off the target reads False
     lambda v: validate_cover([(COVER[0][0], [v, *COVER[0][1][1:]]), *COVER[1:]], TARGET)),
    ("family_cover", "dims", "dims", lambda v: family_cover("windmill", v)),
    ("family_cover", "dims", "extent", lambda v: family_cover("windmill", (v, 8))),
    ("family_cover", "b", "count", lambda v: family_cover("windmill", (8, 8), v)),
    ("blocks_count", "dims", "dims", lambda v: blocks_count("windmill", v)),
    ("blocks_count", "dims", "extent", lambda v: blocks_count("windmill", (v, 8))),
    ("blocks_count", "b", "count", lambda v: blocks_count("windmill", (8, 8), v)),
    ("per_copy_total", "dims", "dims", lambda v: per_copy_total("windmill", v)),
    ("per_copy_total", "dims", "extent", lambda v: per_copy_total("windmill", (v, 8))),
    ("per_copy_total", "b", "count", lambda v: per_copy_total("windmill", (8, 8), v)),
    *(
        (f.__name__, param, kind, call)
        for f in (unit_cell, site_costs, degree_color_classes)
        for param, kind, call in (
            ("dim", "integer", lambda v, f=f: f("windmill", v, 1)),
            ("b", "count", lambda v, f=f: f("windmill", 2, v)),
        )
    ),
]

# public names with no parameter of a checked kind: records
UNCHECKED = {"HashingRun", "SchemeResult"}
# entry points beyond __all__: what the CLI and the benchmark call, and the helpers they rest on
BEYOND_ALL = {
    "family_cover", "blocks_count", "unit_cell", "site_costs", "degree_color_classes", "per_copy_total",
    "largest_m", "bennett_loss", "uniform_depolarizing_marginal", "uniform_edge_channel_marginal",
    "multipartite_bound_classes", "pair_pattern_distribution", "optimize_delta_split_classes",
    "max_output_copies_classes",
}


def test_table_names_every_entry_point():
    entries = {entry.split(".")[0] for entry, *_ in TABLE}
    public = {name for name in multinet.__all__ if not name.endswith("Error")}
    assert entries == public - UNCHECKED | BEYOND_ALL


@pytest.mark.parametrize("value", VALUES, ids=repr)
@pytest.mark.parametrize(
    "entry, parameter, kind, call",
    TABLE,
    ids=[f"{entry}-{parameter}-{kind}" for entry, parameter, kind, _ in TABLE],
)
def test_malformed_value_raises_a_library_error(entry, parameter, kind, call, value):
    try:
        call(value)
    except MultinetError:
        return
    assert ADMITS[kind](value), f"{entry} accepted {parameter} = {value!r}, which no {kind} is"


def _outcome(call, value):
    """``repr`` of what ``call(value)`` returns, or the type and message of the library error it raises."""
    try:
        return repr(call(value))
    except MultinetError as exc:
        return type(exc).__name__, str(exc)


# the scenario entry points whose sweep points read a cache (schemes._ghz_ensemble, schemes._copies)
CACHED_ROWS = [row for row in TABLE if row[0] in
               ("ghz_scheme_fidelity", "triangular_repeater", "cluster_architecture_run", "from_bell_run")]


@pytest.mark.parametrize("value, neighbour", [(True, 1.0), (1, 1.0), (-0.0, 0.0)], ids=["True", "1", "-0.0"])
@pytest.mark.parametrize(
    "entry, parameter, kind, call",
    CACHED_ROWS,
    ids=[f"{entry}-{parameter}-{kind}" for entry, parameter, kind, _ in CACHED_ROWS],
)
def test_a_value_reads_no_cache_entry_of_its_neighbour(entry, parameter, kind, call, value, neighbour, clear_caches):
    # the two compare and hash alike; each must give what it gives on cold caches, called right before
    # the other (caches cold) or right after it (caches warm from the other)
    before = [_outcome(call, value), _outcome(call, neighbour)]
    clear_caches()
    after = [_outcome(call, neighbour), _outcome(call, value)]
    assert before == after[::-1]
    assert isinstance(before[0], tuple) or ADMITS[kind](value), f"{entry} accepted {parameter} = {value!r}"


# each kind's own malformed values, beyond VALUES, as (label, value); every row of the kind must raise
HUGE = 10**400  # an int too large for a float
KIND_VALUES = {
    "probability": [("huge", HUGE), ("-huge", -HUGE), ("list", [1])],
    "channel probability": [("huge", HUGE), ("-huge", -HUGE), ("list", [1])],
    "threshold": [("huge", HUGE), ("-huge", -HUGE)],
    "slack": [("huge", HUGE), ("-huge", -HUGE)],
    "distribution": [
        ("not-a-sequence", None), ("letters", ["a"]), ("numerals", ["0.5", "0.5"]), ("bools", [True, False]),
        ("bool", (True,)), ("mixed-bool", [0.5, 0.5, False]), ("nested", [[0.5], [0.5]]), ("none-entry", [0.5, None, 0.5]),
        ("huge-entry", [HUGE, 0.5]), ("nan-entry", [math.nan, 1.0]), ("short-sum", (0.7, 0.2)), ("empty", ()),
    ],
    "graph": [("edge-list", [(0, 1), (1, 2)]), ("adjacency", {0: {1}, 1: {0}})],
    "architecture": [("tuple", ("windmill", (8, 8), 1)), ("storage", PER_NODE)],
    "storage": [("tuple", ("per-node", 40)), ("architecture", WINDMILL)],
    "coloring": [("string", "012"), ("list", [0, 1, 1])],
    "marginals": [("ints", [1]), ("tuples", [tuple(m) for m in MARGINALS])],
    "channels": [("ints", [1]), ("probabilities", [0.9])],
    "cover": [
        ("block-not-a-pair", [[5]]), ("block-an-int", [5]), ("sites-none", [(COVER[0][0], None)]),
        ("unhashable-sites", [(COVER[0][0], [[0, 0]] * COVER[0][0].vertex_count)]),
        ("later-block-not-a-pair", COVER[:3] + [(COVER[0][0],)]),
    ],
    "classes": [
        ("ints", [1]), ("tuples", [tuple(c) for c in CLASSES]), ("list-color", [MarginalClass(0.01, [0], 1)]),
        ("later-entry-none", CLASSES + [None]), ("bool-color", [MarginalClass(0.02, True, 10)]),
        ("float-color", [MarginalClass(0.02, 1.0, 10)]), ("mixed-colors", [CLASSES[0], MarginalClass(0.02, "a", 1)]),
    ],
    "split": [
        ("fractions-list", [0.5, 0.5]), ("colors-list", [0, 1]), ("numerals", {0: "0.5", 1: "0.5"}),
        ("none-fraction", {0: None, 1: 1.0}), ("complex-fraction", {0: 0.5 + 0j, 1: 0.5}),
    ],
    "sources": [("ints", [1]), ("dicts", [{0: 0.1}]), ("channels", [LDN])],
    "qubits": [("floats", [0.0, 1.0]), ("bools", [True]), ("nested", [[0]]), ("numerals", ["0"])],
}


@pytest.mark.parametrize(
    "call, value",
    [(call, value) for _, _, kind, call in TABLE for _, value in KIND_VALUES.get(kind, [])],
    ids=[f"{entry}-{parameter}-{kind}-{label}"
         for entry, parameter, kind, _ in TABLE for label, _ in KIND_VALUES.get(kind, [])],
)
def test_malformed_value_of_the_kind_raises_a_library_error(call, value):
    with pytest.raises(MultinetError):
        call(value)


class _Int(int):
    pass


class _Float(float):
    pass


INTEGER_KINDS = ("integer", "count", "count0", "extent")
REAL_KINDS = ("probability", "channel probability", "threshold", "slack")
NUMERIC_ROWS = [row for row in TABLE if row[2] in INTEGER_KINDS + REAL_KINDS]
# small plain numbers only: a valid huge count, such as build_graph("line", n=2**53), allocates without bound
_PLAIN = st.integers(-2, 8) | st.floats(-0.5, 1.5) | st.sampled_from([-0.0, 5e-324, 0.0, 1.0])
_INT_TYPES = (int, _Int, np.int64)
_REAL_TYPES = (float, _Float, np.float64, np.float32, Fraction, Decimal)


@st.composite
def numeric_tower(draw):
    """A small number as one of the numeric tower's types: int, an int subclass and numpy int64 (for an int),
    float, a float subclass, numpy float64 and float32, ``Fraction`` and ``Decimal`` (exact from the float)."""
    x = draw(_PLAIN)
    return draw(st.sampled_from(_INT_TYPES + _REAL_TYPES if type(x) is int else _REAL_TYPES))(x)


def _check_reads_as_its_number(kind, call, value):
    # the plain number is what the kind's checker returns: an int for an integer kind (no float type has
    # __index__), a float for a real one.  Each entry keeps and uses it: an admitted value gives the plain
    # number's outcome and no result holds the other type (largest_m raised AttributeError on a numpy n,
    # bennett_loss returned a numpy float, FlipSource kept a Fraction probability and a numpy vertex key)
    if kind in INTEGER_KINDS:
        plain = value.__index__() if isinstance(value, _INT_TYPES) else None
    else:
        plain = float(value)
    if plain is None or not ADMITS[kind](plain):
        with pytest.raises(MultinetError):
            call(value)
        return
    outcome = _outcome(call, value)
    assert outcome == _outcome(call, plain)
    if not isinstance(outcome, tuple):
        kept = pickle.dumps(call(value))
        assert not any(name in kept for name in (b"numpy", b"fractions", b"decimal", b"test_contract"))


# each numeric kind's admitted values of every other type the numeric tower offers, as (label, value):
# every type on every row, where the walk below draws a few of them a row
OTHER_TYPES = {
    **{kind: [("numpy-int", np.int64(2)), ("int-subclass", _Int(2))] for kind in ("integer", "count", "count0")},
    "extent": [("numpy-int", np.int64(8)), ("int-subclass", _Int(8))],  # an extent the windmill tiles
    **{kind: [("fraction", Fraction(1, 4)), ("numpy-float", np.float64(0.25)), ("numpy-float32", np.float32(0.25)),
              ("decimal", Decimal("0.25")), ("float-subclass", _Float(0.25))]
       for kind in REAL_KINDS},
}


@pytest.mark.parametrize(
    "kind, call, value",
    [(kind, call, value) for _, _, kind, call in TABLE for _, value in OTHER_TYPES.get(kind, [])],
    ids=[f"{entry}-{parameter}-{kind}-{label}"
         for entry, parameter, kind, _ in TABLE for label, _ in OTHER_TYPES.get(kind, [])],
)
def test_admitted_value_of_another_type_reads_as_its_number(kind, call, value):
    _check_reads_as_its_number(kind, call, value)


@settings(max_examples=12, deadline=None)
@given(value=numeric_tower())
@example(value=-0.0)
@example(value=5e-324)
@example(value=-1e-300)  # a class lambda1 within 1e-12 below 0 was read as a clamped distribution
@pytest.mark.parametrize(
    "entry, parameter, kind, call",
    NUMERIC_ROWS,
    ids=[f"{entry}-{parameter}-{kind}" for entry, parameter, kind, _ in NUMERIC_ROWS],
)
def test_drawn_value_of_another_type_reads_as_its_number(entry, parameter, kind, call, value):
    _check_reads_as_its_number(kind, call, value)


# the block helpers behind a cache, and the entries that reach them: a value the cache cannot hash
# (a list or set dim or b) raised TypeError from the cache before any check ran
CACHED_BLOCK_ROWS = [row for row in TABLE if row[0] in
                     ("unit_cell", "site_costs", "degree_color_classes", "family_cover", "per_copy_total")
                     and row[2] in ("integer", "count", "extent")]


@pytest.mark.parametrize("value", [[2], {2}, {2: 2}], ids=["list", "set", "dict"])
@pytest.mark.parametrize(
    "entry, parameter, kind, call",
    CACHED_BLOCK_ROWS,
    ids=[f"{entry}-{parameter}-{kind}" for entry, parameter, kind, _ in CACHED_BLOCK_ROWS],
)
def test_unhashable_value_raises_a_block_error(entry, parameter, kind, call, value, clear_caches):
    with pytest.raises(BlockError, match="integer"):
        call(value)
    call({"integer": 2, "count": 1, "extent": 8}[kind])  # and the cache still serves a value it can hash


def test_every_new_kind_has_rows():
    kinds = {kind for _, _, kind, _ in TABLE}
    assert kinds >= set(KIND_VALUES)


@pytest.mark.parametrize("probs", [(0.5 + 1e-13, 0.5 - 1e-13), (-1e-13, 1.0 + 1e-13), (1.0 - 1e-13, 0.0)], ids=repr)
def test_distribution_drift_is_tolerated_and_clamped(probs):
    # floating-point drift within 1e-12 of [0, 1] and of summing to 1 is no malformed distribution
    assert 0.0 <= entropy(probs) <= 1.0
    assert entropy(list(probs)) == entropy(probs)
    assert 0.0 < bennett_loss(probs, 100, 0.1) < 1.0


# (generator, the parameters given): a generator's parameter left out is malformed as well
@pytest.mark.parametrize("kind, params", [
    ("ghz-star", {}), ("line", {}), ("lattice2d", {"w": 3}), ("lattice3d", {"w": 2, "h": 2}),
], ids=["ghz-star-s", "line-n", "lattice2d-h", "lattice3d-d"])
def test_missing_generator_parameter_raises_a_graph_error(kind, params):
    with pytest.raises(GraphError, match="must be an integer"):
        build_graph(kind, **params)
