"""The library surface, measured: what in ``multinet`` no product path calls, and why it stays.

The product paths are the command line (``list-presets``, and ``validate`` and ``run`` on every packaged
preset) and the cover pass of ``perfbench/worker.py`` (``schemes.family_cover`` and ``schemes.validate_cover``)
on every cover that ``perfbench/reference/covers.json`` pins.  They run once under ``sys.setprofile``, on cold
caches.  Every function, method and property of ``multinet`` that none of them calls must be in
:data:`UNREACHED`, and every entry there must still be uncalled.  Each entry's reason names where the function
is used: a README section, the tier-1 test that uses it as its reference, or ``perfbench/worker.py``; the
section, test or file must exist and mention the function (a special method, which an operator calls, need
not be mentioned).  A function that ``multinet`` names as a decorator runs at import, so it counts as called.
A lambda that is not a class attribute has no name to list, and a comprehension runs inside its function,
so neither is counted.
"""

import ast
import importlib
import inspect
import json
import math
import pkgutil
import re
import sys
import types
from pathlib import Path

import multinet
from multinet import cli, graphstate, schemes

ROOT = Path(__file__).resolve().parents[1]
MODULES = [multinet] + [importlib.import_module(f"multinet.{m.name}") for m in pkgutil.iter_modules(multinet.__path__)]

# each function no product path calls -> where it is used
UNREACHED = {
    "blocks.Shape.vertex_count": "perfbench/worker.py counts each cover's placed qubits with it",
    "cli.Range.__str__": "tests/test_cli.py::TestParsing::test_sweep_domain_enforced: a domain in a config error",
    "cli._read_sections.<locals>.fail": "tests/test_cli.py::TestReader::test_malformed_lines_name_their_number",
    "graphstate.Graph.__eq__": "tests/test_graphstate.py::TestGenerators::test_lattice_matches_coordinate_construction",
    "graphstate.Graph.__repr__":
        "tests/test_schemes.py::TestCoverValidation::test_rejects_mismatched_sites_and_pairs: a Graph as a shape",
    "graphstate.Graph.copy": "the rules' result; tests/test_graphstate.py::TestEdgeCodes::test_any_rule_after_a_memo",
    "graphstate.Graph.has_edge": "connect_project's check; "
                                 "tests/test_graphstate.py::TestInvariants::test_adjacency_is_symmetric",
    "graphstate.local_complement": "the rule the statevector oracle checks, tests/test_oracle.py::TestStatevector",
    "graphstate.merge_vertices": "tests/test_schemes.py::replay_cover, validate_cover's reference verdict and trace",
    "graphstate.connect_project": "the rule the statevector oracle checks, tests/test_oracle.py::TestStatevector",
    "hashing.bennett_loss": 'the loss of one distribution, README "Input contract"',
    "hashing.entropy": 'the entropy of one distribution, README "Input contract"',
    "hashing.multipartite_bound": 'the vertex-level bound of any colored graph, README "Library example"',
    "noise.edge_channel_to_flip_source": "the edge noise of any topology, checked against the oracle by "
                                         "tests/test_oracle.py::TestExactDistribution::test_agrees_with_marginal_path",
    "schemes.Architecture._make": "tests/test_schemes.py::test_value_checks_name_the_offender: _replace checks too",
    "schemes.StorageModel._make": "tests/test_schemes.py::test_value_checks_name_the_offender: _replace checks too",
}


def _functions():
    """{(file, qualname, first line): name} of every function, method and property of :data:`MODULES`, each named
    ``module.qualname``, a class attribute's lambda by its attribute; and the names called at import, as decorators."""
    found, at_import = {}, set()
    for module in MODULES:
        short = module.__name__.rpartition(".")[2]
        source = Path(module.__file__).read_text()
        aliases = {}  # a lambda class attribute (a property, a classmethod) -> its attribute's name
        for cls in vars(module).values():
            if isinstance(cls, type) and cls.__module__ == module.__name__:
                for attr, member in vars(cls).items():
                    funcs = ((member.fget, member.fset, member.fdel) if isinstance(member, property) else
                             (getattr(member, "__func__", member),))
                    for f in funcs:
                        if isinstance(f, types.FunctionType) and f.__code__.co_name == "<lambda>":
                            code = f.__code__
                            aliases[code.co_qualname, code.co_firstlineno] = f"{cls.__qualname__}.{attr}"
        stack = [compile(source, module.__file__, "exec")]
        while stack:
            for code in stack.pop().co_consts:
                if isinstance(code, types.CodeType):
                    stack.append(code)
                    key = code.co_qualname, code.co_firstlineno
                    if code.co_flags & inspect.CO_NEWLOCALS and (key in aliases or not code.co_name.startswith("<")):
                        found[(module.__file__, *key)] = f"{short}.{aliases.get(key, code.co_qualname)}"
        for node in ast.walk(ast.parse(source)):
            for deco in getattr(node, "decorator_list", ()):
                if isinstance(target := deco.func if isinstance(deco, ast.Call) else deco, ast.Name):
                    at_import.add(f"{short}.{target.id}")
    return found, at_import


def _product_paths(tmp_path):
    """Run every product path once: each preset's ``validate`` and ``run``, ``list-presets``, and every pinned cover."""
    codes = [cli.main(["list-presets"])]
    for name in cli.preset_names():
        codes += [cli.main(["validate", name]), cli.main(["run", name, "--out", str(tmp_path / f"{name}.csv")])]
    assert codes == [0] * len(codes)
    pinned = json.loads((ROOT / "perfbench" / "reference" / "covers.json").read_text())  # read only
    for lattice, families in pinned.items():
        dims = tuple(map(int, lattice.split("x")))
        target = graphstate.build_graph("lattice2d" if len(dims) == 2 else "lattice3d", periodic=True,
                                        **dict(zip("whd", dims)))
        for family, sizes in families.items():
            for b in sizes:
                schemes.validate_cover(schemes.family_cover(family, dims, int(b)), target)


def _unreached(tmp_path, clear_caches):
    """The names of :func:`_functions` that :func:`_product_paths` never calls, from cold caches."""
    found, at_import = _functions()
    called = set()

    def record(frame, event, arg):
        if event == "call":
            called.add(frame.f_code)

    clear_caches()
    before = sys.getprofile()
    sys.setprofile(record)
    try:
        _product_paths(tmp_path)
    finally:
        sys.setprofile(before)
    reached = {(code.co_filename, code.co_qualname, code.co_firstlineno) for code in called}
    return {name for key, name in found.items() if key not in reached and name not in at_import}


def test_unreached_functions_are_the_allowed_ones(tmp_path, capsys, clear_caches):
    unreached = _unreached(tmp_path, clear_caches)
    assert sorted(unreached - UNREACHED.keys()) == [], "called by no product path, and in no allow-list entry"
    assert sorted(UNREACHED.keys() - unreached) == [], "allowed as unreached, but a product path calls it"


def _section(readme: str, title: str) -> str | None:
    """The text of README's section ``title``, up to the next heading of level 2 or more (a ``#`` line in a code
    block may be a comment); None if no heading has that title."""
    match = re.search(rf"^#+ {re.escape(title)}\n(.*?)(?=^##|\Z)", readme, re.M | re.S)
    return match and match.group(1)


def _test_source(path: Path, names: list[str]) -> str | None:
    """The source of the test ``path::names`` (a class, then a member), decorators included; None if absent."""
    lines = path.read_text().splitlines()
    body = ast.parse("\n".join(lines)).body
    node = None
    for name in names:
        node = next((n for n in body if getattr(n, "name", None) == name), None)
        if node is None:
            return None
        body = getattr(node, "body", [])
    start = min([node.lineno] + [d.lineno for d in getattr(node, "decorator_list", [])])
    return "\n".join(lines[start - 1:node.end_lineno])


def _reason_problem(name: str, reason: str) -> str | None:
    """What is wrong with ``reason`` for ``name`` (see the module docstring), or None."""
    qualname = name.partition(".")[2]
    mention = None if re.fullmatch(r".*\.__\w+__", qualname) else qualname.split(".<locals>")[0].rpartition(".")[2]
    places = []
    if match := re.search(r'README "([^"]+)"', reason):
        places.append((f"README {match.group(1)!r}", _section((ROOT / "README.md").read_text(), match.group(1))))
    for match in re.finditer(r"(tests/\w+\.py)::(\w+(?:::\w+)*)", reason):
        path = ROOT / match.group(1)
        places.append((match.group(0), _test_source(path, match.group(2).split("::")) if path.exists() else None))
    if "perfbench/worker.py" in reason:
        places.append(("perfbench/worker.py", (ROOT / "perfbench" / "worker.py").read_text()))
    if not places:
        return "names no README section, tier-1 test or perfbench/worker.py"
    for place, text in places:
        if text is None:
            return f"names {place}, which does not exist"
        if mention is not None and not re.search(rf"\b{re.escape(mention)}\b", text):
            return f"names {place}, which does not mention {mention}"
    return None


def test_every_allowed_function_has_a_reason_that_holds():
    problems = {name: _reason_problem(name, reason) for name, reason in UNREACHED.items()}
    assert {name: problem for name, problem in problems.items() if problem} == {}


def test_readme_library_example_runs(capsys):
    # the section the allow-list cites for the vertex-level bound must hold code that runs
    code = re.search(r"```python\n(.*?)```", _section((ROOT / "README.md").read_text(), "Library example"), re.S)
    exec(compile(code.group(1), "README.md", "exec"), {})
    printed = capsys.readouterr().out.splitlines()
    fidelities = [float(line.split()[0]) for line in printed]
    assert len(fidelities) == 2 and all(math.isfinite(f) and 0.0 < f <= 1.0 for f in fidelities), printed
