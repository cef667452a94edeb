"""Experiment runner: load a sweep configuration, evaluate it, emit CSV.

Command lines are :data:`USAGE`'s.  Configs are flat ``key = value`` text
with bracketed section headers, read by :func:`_read_sections` (the packaged
presets are worked examples).  Two tables state the whole config contract:
``KEYS`` gives each key's field, parser and domain, and ``SCENARIOS`` gives
each scenario's sweeps, needed and read keys, scheme ids, lattices with the
keys they read, and runner.  A key the scenario does not read must be absent
or hold its default, and a swept value must lie in its key's domain.
Every run writes one row per (sweep point, scheme) with the fixed column set

    sweep_param,sweep_value,scheme,F,m,n_used,infeasible

ordered by sweep value then scheme id, numbers serialized with 12
significant digits.  Sweep points are evaluated one after another, in sweep
order, and output is byte-identical across runs.

A sweep range has at most ``MAX_SWEEP_STEPS`` points, checked before any is
built.  Exit codes: 0 success (``-h``/``--help`` too), 2 configuration or
usage error, 3 every sweep point was infeasible (the CSV is still written).
"""

from __future__ import annotations

import math
import os
import sys
from typing import Callable, NamedTuple

from .blocks import FAMILIES, BlockError, blocks_count
from .graphstate import MultinetError
from .schemes import (
    GHZ_PER_COPY,
    MAX_LEVELS,
    STORAGE_MODES,
    TRIANGULAR_PER_COPY,
    Architecture,
    SchemeResult,
    StorageModel,
    cluster_architecture_run,
    from_bell_run,
    ghz_scheme_fidelity,
    triangular_repeater,
)


MAX_SWEEP_STEPS = 100_000
PRESETS = os.path.join(os.path.dirname(__file__), "presets")


class ConfigError(MultinetError):
    """Malformed experiment configuration; the message names the offender."""


class ExperimentConfig(NamedTuple):
    scenario: str
    sweep_param: str
    sweep_values: list[float]
    target: str = "m"
    m: int = 1
    threshold: float = 0.9
    channel: str = "ldn"
    q: float = 1.0
    p: float = 1.0
    px: float = 1e-5
    pz: float = 0.02
    storage_mode: str = "per-node"
    capacity: int = 0
    # list defaults, as _validate_config compares parsed lists to them; shared, so never mutated
    schemes: list[str] = []
    families: list[str] = []
    block_sizes: list[int] = [1]
    dims: tuple[int, ...] = ()
    levels: int = 0


def _number(raw: str) -> float:
    value = float(raw)
    if not math.isfinite(value):
        raise ValueError("must be a finite number")
    return value


def _parse_list(raw: str) -> list[str]:
    items = [s.strip() for s in raw.split(",") if s.strip()]
    if not items:
        raise ValueError("empty list")
    return items


def _parse_dims(raw: str) -> tuple[int, ...]:
    parts = [int(p) for p in raw.lower().split("x")]
    if len(parts) not in (2, 3) or any(p < 1 for p in parts):
        raise ValueError(f"dims must look like 64x64 or 64x64x64, got {raw!r}")
    return tuple(parts)


class Range(NamedTuple):
    """A numeric domain: ``lo <= v <= hi``, or ``lo < v < hi`` when ``open``."""

    lo: float
    hi: float = math.inf
    open: bool = False

    def __contains__(self, v) -> bool:
        return self.lo < v < self.hi if self.open else self.lo <= v <= self.hi

    def __str__(self) -> str:
        return f"({self.lo:g}, {self.hi:g})" if self.open else f"[{self.lo:g}, {self.hi:g}]"


# -- the scenario table ------------------------------------------------------------


def _target(cfg: ExperimentConfig) -> dict:
    return {cfg.target: getattr(cfg, cfg.target)}  # m=... or threshold=...


def _cluster_lattices(cfg: ExperimentConfig) -> list[Architecture]:
    sizes = {f: [1] if f == "bipartite" else cfg.block_sizes for f in cfg.families}  # bipartite has one size
    return [Architecture(f, cfg.dims, b) for f in cfg.families for b in sizes[f]]


class Scenario(NamedTuple):
    sweeps: dict[str, str]  # sweep name -> the key whose value each sweep point sets
    needs: tuple[str, ...]  # keys that must be set, unless swept
    reads: tuple[str, ...]  # further keys read; every other key must be absent or hold its default
    run: Callable[[ExperimentConfig], list[SchemeResult]]  # one sweep point's results
    schemes: tuple[str, ...] = ()
    lattices: Callable[[ExperimentConfig], list[Architecture]] = lambda cfg: []  # validate tiles them
    lattice_keys: tuple[str, ...] = ()  # the keys lattices reads
    channel_reads: dict[str, tuple[str, ...]] = {}  # further keys read under each channel; shared, never mutated


SCENARIOS = {
    "ghz": Scenario(
        sweeps={"capacity": "capacity", "q": "q"},
        needs=("schemes", "capacity"), reads=("m", "channel", "p"),
        channel_reads={"ldn": ("q",), "z": ("q",), "biased": ("px", "pz")},
        run=lambda cfg: [
            ghz_scheme_fidelity(s, cfg.capacity, cfg.q, cfg.p, m=cfg.m, channel=cfg.channel,
                                channel_params={"px": cfg.px, "pz": cfg.pz}) for s in cfg.schemes
        ],
        schemes=tuple(GHZ_PER_COPY),
    ),
    "triangular": Scenario(
        sweeps={"levels": "levels", "capacity": "capacity", "q": "q"},
        needs=("schemes", "capacity"), reads=("q", "p", "levels"),
        run=lambda cfg: [triangular_repeater(cfg.levels, cfg.capacity, cfg.q, cfg.p, s) for s in cfg.schemes],
        schemes=tuple(TRIANGULAR_PER_COPY),
    ),
    "cluster": Scenario(
        sweeps={"q": "q", "capacity": "capacity", "block_size": "block_sizes"},
        needs=("families", "dims", "capacity"), reads=("target", "m", "threshold", "q", "block_sizes", "mode"),
        run=lambda cfg: [
            cluster_architecture_run(a, StorageModel(cfg.storage_mode, cfg.capacity), cfg.q, **_target(cfg))
            for a in _cluster_lattices(cfg)
        ],
        lattices=_cluster_lattices, lattice_keys=("families", "dims", "block_sizes"),
    ),
    "from-bell": Scenario(
        sweeps={"q": "q", "capacity": "capacity"},
        needs=("dims", "capacity"), reads=("target", "m", "threshold", "q"),
        run=lambda cfg: list(from_bell_run(cfg.dims, cfg.q, cfg.capacity, **_target(cfg))),
        lattices=lambda cfg: [Architecture("bipartite", cfg.dims)], lattice_keys=("dims",),
    ),
}

# -- the key table -----------------------------------------------------------------

# section -> key -> (ExperimentConfig field, parser, domain).  A domain is a Range,
# a tuple of choices or the name of the scenario column that holds the choices;
# list values are checked entry by entry.  The sweep range keys have no field:
# parse_config turns them into sweep_values.
KEYS = {
    "experiment": {
        "scenario": ("scenario", str, tuple(SCENARIOS)),
        "sweep": ("sweep_param", str, "sweeps"),
        "sweep_values": ("sweep_values", lambda raw: [_number(v) for v in _parse_list(raw)], None),
        "sweep_min": (None, _number, None),
        "sweep_max": (None, _number, None),
        "sweep_steps": (None, int, None),
        "target": ("target", str, ("m", "threshold")),
        "m": ("m", int, Range(1)),
        "threshold": ("threshold", _number, Range(0, 1, open=True)),
    },
    "noise": {
        "channel": ("channel", str, ("ldn", "z", "biased")),
        "q": ("q", _number, Range(0, 1)),
        "p": ("p", _number, Range(0, 1)),
        "px": ("px", _number, None),  # px, pz >= 0 with px + pz <= 1: checked together
        "pz": ("pz", _number, None),
    },
    "architecture": {
        "schemes": ("schemes", _parse_list, "schemes"),
        "families": ("families", _parse_list, FAMILIES),
        "block_sizes": ("block_sizes", lambda raw: [int(b) for b in _parse_list(raw)], Range(1)),
        "dims": ("dims", _parse_dims, None),
        "levels": ("levels", int, Range(0, MAX_LEVELS)),
    },
    "storage": {
        "mode": ("storage_mode", str, STORAGE_MODES),
        "capacity": ("capacity", int, Range(1)),
    },
}
_SPEC = {key: (section, *spec) for section, keys in KEYS.items() for key, spec in keys.items()}
_SWEEP_RANGE = ("sweep_min", "sweep_max", "sweep_steps")


def _read_sections(text: str, name: str) -> dict[str, dict[str, str]]:
    """``text``'s sections as {section: {key: value}}, in the grammar of the README's "Config
    format": configparser's, without interpolation and with no special ``[DEFAULT]``."""
    def fail(problem: str) -> ConfigError:
        return ConfigError(f"cannot parse {name}: line {number}: {problem}")

    sections, items, key = {}, None, None
    for number, line in enumerate(text.split("\n"), 1):
        body = line.strip()
        if not body or body[0] in "#;":
            continue
        if key is not None and line[0].isspace():
            items[key] += "\n" + body
        elif body[0] == "[" and body[-1] == "]":
            if body[1:-1] in sections:
                raise fail(f"section {body} repeated")
            items, key = sections.setdefault(body[1:-1], {}), None
        elif items is None:
            raise fail(f"{body!r} comes before any [section]")
        else:
            head, sep, _ = body.replace(":", "=", 1).partition("=")  # head ends at the first = or :
            key = head.rstrip().lower()
            if not sep or not key:
                raise fail(f"expected 'key = value', got {body!r}")
            if key in items:
                raise fail(f"key '{key}' repeated")
            items[key] = body[len(head) + 1:].strip()
    return sections


def parse_config(text: str, name: str = "<config>") -> ExperimentConfig:
    given = {}
    for section, items in _read_sections(text, name).items():
        if section not in KEYS:
            raise ConfigError(f"unknown section [{section}]")
        for key, raw in items.items():
            if key not in KEYS[section]:
                raise ConfigError(f"[{section}] unknown key '{key}'")
            try:
                given[key] = KEYS[section][key][1](raw)
            except (TypeError, ValueError) as exc:
                raise ConfigError(f"[{section}] key '{key}': cannot parse {raw!r} ({exc})") from exc
    ranged = [key for key in _SWEEP_RANGE if key in given]
    if "sweep_values" in given and ranged:
        raise ConfigError(f"[experiment] key '{ranged[0]}': give sweep_values or a sweep range, not both")
    for key in ("scenario", "sweep") + (() if "sweep_values" in given else _SWEEP_RANGE):
        if key not in given:
            raise ConfigError(f"[experiment] is missing required key '{key}'")
    if ranged:
        lo, hi, steps = (given.pop(key) for key in _SWEEP_RANGE)
        if not 1 <= steps <= MAX_SWEEP_STEPS:
            raise ConfigError(f"[experiment] key 'sweep_steps': must be in [1, {MAX_SWEEP_STEPS}]")
        if hi < lo:
            raise ConfigError("[experiment] key 'sweep_min': range is empty (sweep_min > sweep_max)")
        given["sweep_values"] = [lo + i * (hi - lo) / max(steps - 1, 1) for i in range(steps)]
    cfg = ExperimentConfig(**{_SPEC[key][1]: value for key, value in given.items()})
    _validate_config(cfg)
    return cfg


def _check(name: str, value, domain, scenario: Scenario) -> None:
    if isinstance(domain, str):
        domain = tuple(getattr(scenario, domain))
    for v in value if isinstance(value, list) else [value]:
        if domain is not None and v not in domain:
            raise ConfigError(f"{name}: {v!r} is outside the domain {domain}")


def _setting(cfg: ExperimentConfig, value: float):
    """The swept key's setting at one sweep point: ``value`` parsed as that key."""
    parse = _SPEC[SCENARIOS[cfg.scenario].sweeps[cfg.sweep_param]][2]
    try:
        return parse(str(int(value)) if value.is_integer() else repr(value))
    except ValueError as exc:
        raise ConfigError(f"[experiment] sweep over '{cfg.sweep_param}': {value!r} ({exc})") from exc


def _at(cfg: ExperimentConfig, value: float) -> ExperimentConfig:
    """One sweep point: ``cfg`` with the swept key set to ``value``, parsed as that key."""
    field_name = _SPEC[SCENARIOS[cfg.scenario].sweeps[cfg.sweep_param]][1]
    return cfg._replace(**{field_name: _setting(cfg, value)})


def _validate_config(cfg: ExperimentConfig) -> None:
    _check("[experiment] key 'scenario'", cfg.scenario, KEYS["experiment"]["scenario"][2], None)
    sc = SCENARIOS[cfg.scenario]
    swept = sc.sweeps.get(cfg.sweep_param)
    defaults = ExperimentConfig(cfg.scenario, cfg.sweep_param, cfg.sweep_values)
    read = sc.needs + sc.reads + sc.channel_reads.get(cfg.channel, ())
    for key, (section, field_name, _, domain) in _SPEC.items():
        if field_name is None:
            continue
        name, value = f"[{section}] key '{key}'", getattr(cfg, field_name)
        if key == swept:  # its values are the sweep's, checked at each point below
            if value != getattr(defaults, field_name):
                raise ConfigError(f"{name}: the sweep over '{cfg.sweep_param}' sets it; remove it")
            if key not in read:  # every scenario reads what it sweeps, but for the channel's keys
                raise ConfigError(f"[experiment] sweep over '{cfg.sweep_param}': the {cfg.scenario} "
                                  f"scenario does not read it with channel = {cfg.channel}")
            continue
        if key in sc.needs and value == getattr(defaults, field_name):
            raise ConfigError(f"{name}: required by the {cfg.scenario} scenario")
        if key not in read and value != getattr(defaults, field_name):
            at = f" with channel = {cfg.channel}" if any(key in keys for keys in sc.channel_reads.values()) else ""
            raise ConfigError(f"{name}: the {cfg.scenario} scenario does not read it{at}; remove it")
        _check(name, value, domain, sc)
    if not (cfg.px >= 0 and cfg.pz >= 0 and cfg.px + cfg.pz <= 1):
        raise ConfigError(f"[noise] keys 'px' and 'pz' must be >= 0 with px + pz <= 1, got {cfg.px}, {cfg.pz}")
    _, field_name, _, domain = _SPEC[swept]
    name = f"[experiment] sweep over '{cfg.sweep_param}'"
    tiled = set()  # the lattices checked so far
    for i, value in enumerate(cfg.sweep_values):
        setting = _setting(cfg, value)
        _check(name, setting, domain, sc)
        if i and swept not in sc.lattice_keys:
            continue  # every point has the first point's lattices
        for arch in sc.lattices(cfg._replace(**{field_name: setting})):
            if arch in tiled:
                continue
            try:
                blocks_count(arch.family, arch.dims, arch.block_size)
            except BlockError as exc:
                raise ConfigError(
                    f"[architecture] {cfg.scenario} lattice, family {arch.family!r}, "
                    f"block size {arch.block_size}: {exc}"
                ) from exc
            tiled.add(arch)


# -- evaluation -----------------------------------------------------------------


def run_experiment(cfg: ExperimentConfig) -> list[tuple]:
    """Evaluate all sweep points; returns ordered CSV rows (without header)."""
    return [
        (cfg.sweep_param, value, res.scheme, res.fidelity, res.m, res.n_used, 1 if res.infeasible else 0)
        for value in cfg.sweep_values
        for res in sorted(SCENARIOS[cfg.scenario].run(_at(cfg, value)), key=lambda r: r.scheme)
    ]


def rows_to_csv(rows: list[tuple]) -> str:
    lines = ["sweep_param,sweep_value,scheme,F,m,n_used,infeasible"]
    for param, value, scheme, fid, m, n_used, infeasible in rows:
        lines.append(
            f"{param},{value:.12g},{scheme},{fid:.12g},{m},{n_used},{infeasible}"
        )
    return "\n".join(lines) + "\n"


# -- presets and entry point -----------------------------------------------------


def preset_names() -> list[str]:
    return sorted(name[: -len(".cfg")] for name in os.listdir(PRESETS) if name.endswith(".cfg"))


def load_config_source(path_or_preset: str) -> tuple[str, str]:
    """Resolve a filesystem path or packaged preset name to (text, label), or raise :class:`ConfigError`."""
    path, label = path_or_preset, path_or_preset
    if not os.path.exists(path):
        if path not in preset_names():
            raise ConfigError(f"{path!r} is neither a config file nor a known preset")
        path, label = os.path.join(PRESETS, f"{path}.cfg"), f"preset:{path}"
    try:
        with open(path, "r", encoding="utf-8") as fh:
            return fh.read(), label
    except (OSError, UnicodeDecodeError) as exc:
        raise ConfigError(f"cannot read {path_or_preset!r}: {exc}") from exc


USAGE = """usage: multinet run CONFIG --out CSV   run a config file or packaged preset, write CSV
       multinet validate CONFIG        parse and validate a config without running it
       multinet list-presets           list the packaged figure presets\n"""


def main(argv: list[str] | None = None) -> int:
    argv = sys.argv[1:] if argv is None else argv
    words = [w for arg in argv for w in (arg.split("=", 1) if arg.startswith("--out=") else [arg])]
    command, *args = words or [""]
    out = None
    if command == "run" and "--out" in args[:-1]:
        out = args.pop(args.index("--out") + 1)
        args.remove("--out")
    positional = {"run": 1 if out is not None else None, "validate": 1, "list-presets": 0}
    helped = "-h" in argv or "--help" in argv
    if helped or len(args) != positional.get(command) or any(arg.startswith("-") for arg in args):
        print(USAGE, end="", file=sys.stdout if helped else sys.stderr)
        return 0 if helped else 2

    if command == "list-presets":
        for name in preset_names():
            print(name)
        return 0

    try:
        text, label = load_config_source(args[0])
        cfg = parse_config(text, name=label)
    except ConfigError as exc:
        print(f"config error: {exc}", file=sys.stderr)
        return 2

    if command == "validate":
        print(f"{label}: OK ({cfg.scenario}, sweep over {cfg.sweep_param}, "
              f"{len(cfg.sweep_values)} points)")
        return 0

    try:
        rows = run_experiment(cfg)
    except MultinetError as exc:
        print(f"config error: {exc}", file=sys.stderr)
        return 2
    csv_text = rows_to_csv(rows)
    try:
        with open(out, "w", encoding="utf-8", newline="") as fh:
            fh.write(csv_text)
    except OSError as exc:
        print(f"cannot write {out}: {exc}", file=sys.stderr)
        return 2
    if rows and all(row[6] == 1 for row in rows):
        print(f"warning: every sweep point infeasible; CSV written to {out}", file=sys.stderr)
        return 3
    return 0


if __name__ == "__main__":
    sys.exit(main())
