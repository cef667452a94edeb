"""Experiment runner: load a sweep configuration, evaluate it, emit CSV.

Configs are flat ``key = value`` text files with bracketed section headers
(see the packaged presets for worked examples).  Every run writes one row
per (sweep point, scheme) with the fixed column set

    sweep_param,sweep_value,scheme,F,m,n_used,infeasible

ordered by sweep value then scheme id, numbers serialized with 12
significant digits.  Sweep points are evaluated one after another, in sweep
order, and output is byte-identical across runs.

Exit codes: 0 success, 2 configuration error, 3 every sweep point was
infeasible (the CSV is still written).
"""

from __future__ import annotations

import argparse
import configparser
import math
import os
import sys
from dataclasses import dataclass, field
from importlib import resources

from .blocks import BlockError, blocks_count
from .graphstate import MultinetError
from .schemes import (
    Architecture,
    SchemeResult,
    StorageModel,
    cluster_architecture_run,
    from_bell_run,
    ghz_scheme_fidelity,
    triangular_repeater,
)

SCENARIOS = ("ghz", "triangular", "cluster", "from-bell")
SWEEPABLE = {
    "ghz": ("capacity", "q"),
    "triangular": ("levels", "capacity", "q"),
    "cluster": ("q", "capacity", "block_size"),
    "from-bell": ("q", "capacity"),
}
GHZ_SCHEME_IDS = ("A", "A-opt", "B", "C")


class ConfigError(MultinetError):
    """Malformed experiment configuration; the message names the offender."""


@dataclass
class ExperimentConfig:
    scenario: str
    sweep_param: str
    sweep_values: list[float]
    target: str
    m: int = 1
    threshold: float = 0.9
    channel: str = "ldn"
    q: float = 1.0
    p: float = 1.0
    px: float = 1e-5
    pz: float = 0.02
    storage_mode: str = "per-node"
    capacity: int = 0
    schemes: list[str] = field(default_factory=list)
    families: list[str] = field(default_factory=list)
    block_sizes: list[int] = field(default_factory=lambda: [1])
    dims: tuple[int, ...] = ()
    levels: int = 0


def _get(section, key, cast, default=None, required=False):
    if key not in section:
        if required:
            raise ConfigError(f"[{section.name}] is missing required key '{key}'")
        return default
    raw = section[key]
    try:
        return cast(raw)
    except (TypeError, ValueError) as exc:
        raise ConfigError(f"[{section.name}] key '{key}': cannot parse {raw!r} ({exc})") from exc


def _parse_dims(raw: str) -> tuple[int, ...]:
    parts = [int(p) for p in raw.lower().split("x")]
    if len(parts) not in (2, 3) or any(p < 1 for p in parts):
        raise ValueError(f"dims must look like 64x64 or 64x64x64, got {raw!r}")
    return tuple(parts)


def _parse_list(raw: str) -> list[str]:
    items = [s.strip() for s in raw.split(",") if s.strip()]
    if not items:
        raise ValueError("empty list")
    return items


KNOWN_KEYS = {
    "experiment": {
        "scenario", "sweep", "sweep_min", "sweep_max", "sweep_steps",
        "sweep_values", "target", "m", "threshold",
    },
    "noise": {"channel", "q", "p", "px", "pz"},
    "architecture": {"schemes", "families", "block_sizes", "dims", "levels"},
    "storage": {"mode", "capacity"},
}


def parse_config(text: str, name: str = "<config>") -> ExperimentConfig:
    parser = configparser.ConfigParser(interpolation=None)
    try:
        parser.read_string(text, source=name)
    except configparser.Error as exc:
        raise ConfigError(f"cannot parse {name}: {exc}") from exc
    for required in ("experiment",):
        if required not in parser:
            raise ConfigError(f"missing [{required}] section")
    for section in parser.sections():
        if section not in KNOWN_KEYS:
            raise ConfigError(f"unknown section [{section}]")
        for key in parser[section]:
            if key not in KNOWN_KEYS[section]:
                raise ConfigError(f"[{section}] unknown key '{key}'")
    exp = parser["experiment"]
    noise = parser["noise"] if "noise" in parser else parser["DEFAULT"]
    arch = parser["architecture"] if "architecture" in parser else parser["DEFAULT"]
    store = parser["storage"] if "storage" in parser else parser["DEFAULT"]

    scenario = _get(exp, "scenario", str, required=True)
    if scenario not in SCENARIOS:
        raise ConfigError(f"[experiment] scenario must be one of {SCENARIOS}, got {scenario!r}")
    sweep_param = _get(exp, "sweep", str, required=True)
    if sweep_param not in SWEEPABLE[scenario]:
        raise ConfigError(
            f"[experiment] sweep '{sweep_param}' not supported for scenario {scenario!r} "
            f"(choose from {SWEEPABLE[scenario]})"
        )
    if "sweep_values" in exp:
        values = _get(exp, "sweep_values", lambda raw: [float(v) for v in _parse_list(raw)])
    else:
        lo = _get(exp, "sweep_min", float, required=True)
        hi = _get(exp, "sweep_max", float, required=True)
        steps = _get(exp, "sweep_steps", int, required=True)
        if steps < 1:
            raise ConfigError("[experiment] key 'sweep_steps': must be >= 1")
        if hi < lo:
            raise ConfigError("[experiment] key 'sweep_min': range is empty (sweep_min > sweep_max)")
        if steps == 1:
            values = [lo]
        else:
            values = [lo + i * (hi - lo) / (steps - 1) for i in range(steps)]

    target = _get(exp, "target", str, default="m")
    if target not in ("m", "threshold"):
        raise ConfigError(f"[experiment] target must be 'm' or 'threshold', got {target!r}")

    cfg = ExperimentConfig(
        scenario=scenario,
        sweep_param=sweep_param,
        sweep_values=values,
        target=target,
        m=_get(exp, "m", int, default=1),
        threshold=_get(exp, "threshold", float, default=0.9),
        channel=_get(noise, "channel", str, default="ldn"),
        q=_get(noise, "q", float, default=1.0),
        p=_get(noise, "p", float, default=1.0),
        px=_get(noise, "px", float, default=1e-5),
        pz=_get(noise, "pz", float, default=0.02),
        storage_mode=_get(store, "mode", str, default="per-node"),
        capacity=_get(store, "capacity", int, default=0),
        schemes=_get(arch, "schemes", _parse_list, default=[]),
        families=_get(arch, "families", _parse_list, default=[]),
        block_sizes=_get(arch, "block_sizes", lambda raw: [int(b) for b in _parse_list(raw)], default=[1]),
        dims=_get(arch, "dims", _parse_dims, default=()),
        levels=_get(arch, "levels", int, default=0),
    )
    _validate_config(cfg)
    return cfg


def _validate_config(cfg: ExperimentConfig) -> None:
    finite = {
        "[experiment] key 'threshold'": cfg.threshold,
        "[noise] key 'q'": cfg.q,
        "[noise] key 'p'": cfg.p,
        "[noise] key 'px'": cfg.px,
        "[noise] key 'pz'": cfg.pz,
    }
    for name, value in finite.items():
        if not math.isfinite(value):
            raise ConfigError(f"{name}: must be a finite number, got {value}")
    for v in cfg.sweep_values:
        if not math.isfinite(v):
            raise ConfigError(f"[experiment] sweep value {v} is not a finite number")
        if cfg.sweep_param in ("capacity", "levels", "block_size") and abs(v - round(v)) > 1e-9:
            raise ConfigError(
                f"[experiment] sweep over '{cfg.sweep_param}' needs integer values, got {v}"
            )
    if cfg.channel not in ("ldn", "z", "biased", "edge"):
        raise ConfigError(f"[noise] unknown channel {cfg.channel!r}")
    if cfg.target == "m" and cfg.m < 1:
        raise ConfigError(f"[experiment] key 'm': must be >= 1, got {cfg.m}")
    if cfg.target == "threshold" and not 0.0 < cfg.threshold < 1.0:
        raise ConfigError(
            f"[experiment] key 'threshold': must be in (0,1), got {cfg.threshold}"
        )
    if not 0.0 <= cfg.q <= 1.0 or not 0.0 <= cfg.p <= 1.0:
        raise ConfigError("[noise] keys 'q' and 'p' must be in [0,1]")
    if not 0.0 <= cfg.px <= 1.0 or not 0.0 <= cfg.pz <= 1.0 or cfg.px + cfg.pz > 1.0:
        raise ConfigError(
            f"[noise] keys 'px' and 'pz' must be in [0,1] with px + pz <= 1, got {cfg.px} and {cfg.pz}"
        )
    if any(b < 1 for b in cfg.block_sizes):
        raise ConfigError("[architecture] key 'block_sizes': entries must be >= 1")
    domains = {"q": (0.0, 1.0), "capacity": (1, None), "levels": (0, None), "block_size": (1, None)}
    lo, hi = domains[cfg.sweep_param]
    for v in cfg.sweep_values:
        if v < lo or (hi is not None and v > hi):
            raise ConfigError(
                f"[experiment] sweep value {v:g} outside the domain of '{cfg.sweep_param}'"
            )
    if cfg.storage_mode not in ("per-node", "global"):
        raise ConfigError(f"[storage] mode must be 'per-node' or 'global', got {cfg.storage_mode!r}")
    if cfg.sweep_param != "capacity" and cfg.capacity < 1:
        raise ConfigError("[storage] key 'capacity': required when capacity is not swept")
    if cfg.scenario in ("ghz", "triangular"):
        if not cfg.schemes:
            raise ConfigError("[architecture] key 'schemes': required for this scenario")
        allowed = GHZ_SCHEME_IDS if cfg.scenario == "ghz" else ("A", "B", "C")
        for s in cfg.schemes:
            if s not in allowed:
                raise ConfigError(f"[architecture] unknown scheme {s!r} (choose from {allowed})")
    if cfg.scenario == "cluster":
        if not cfg.families:
            raise ConfigError("[architecture] key 'families': required for the cluster scenario")
        if not cfg.dims:
            raise ConfigError("[architecture] key 'dims': required for the cluster scenario")
        swept = cfg.sweep_param == "block_size"
        sizes = [int(round(v)) for v in cfg.sweep_values] if swept else cfg.block_sizes
        for family in cfg.families:
            for b in [1] if family == "bipartite" else sizes:
                try:
                    blocks_count(family, cfg.dims, b)
                except BlockError as exc:
                    raise ConfigError(f"[architecture] family {family!r}, block size {b}: {exc}") from exc
    if cfg.scenario == "from-bell":
        if not cfg.dims:
            raise ConfigError("[architecture] key 'dims': required for the from-bell scenario")
        if cfg.channel not in ("ldn", "edge"):
            raise ConfigError("[noise] the from-bell scenario models its own edge channel; use channel = edge")
        try:
            blocks_count("bipartite", cfg.dims)
        except BlockError as exc:
            raise ConfigError(f"[architecture] from-bell lattice: {exc}") from exc


# -- evaluation -----------------------------------------------------------------


def _point_results(cfg: ExperimentConfig, value: float) -> list[SchemeResult]:
    q = cfg.q
    capacity = cfg.capacity
    levels = cfg.levels
    block_sizes = list(cfg.block_sizes)
    if cfg.sweep_param == "q":
        q = value
    elif cfg.sweep_param == "capacity":
        capacity = int(round(value))
    elif cfg.sweep_param == "levels":
        levels = int(round(value))
    elif cfg.sweep_param == "block_size":
        block_sizes = [int(round(value))]

    m = cfg.m if cfg.target == "m" else None
    threshold = cfg.threshold if cfg.target == "threshold" else None
    results: list[SchemeResult] = []
    if cfg.scenario == "ghz":
        for scheme_id in cfg.schemes:
            scheme = "A" if scheme_id == "A-opt" else scheme_id
            res = ghz_scheme_fidelity(
                scheme,
                capacity,
                q,
                cfg.p,
                m=cfg.m,
                channel=cfg.channel,
                channel_params={"px": cfg.px, "pz": cfg.pz},
                optimize_split=(scheme_id == "A-opt"),
            )
            res.scheme = scheme_id
            results.append(res)
    elif cfg.scenario == "triangular":
        for scheme_id in cfg.schemes:
            results.append(triangular_repeater(levels, capacity, q, cfg.p, scheme_id))
    elif cfg.scenario == "cluster":
        storage = StorageModel(cfg.storage_mode, capacity)
        for family in cfg.families:
            sizes = [1] if family == "bipartite" else block_sizes
            for b in sizes:
                arch = Architecture(family, cfg.dims, b)
                results.append(cluster_architecture_run(arch, storage, q, m=m, threshold=threshold))
    else:  # from-bell
        multi, bip = from_bell_run(cfg.dims, q, capacity, m=m, threshold=threshold)
        results += [multi, bip]
    return results


def run_experiment(cfg: ExperimentConfig) -> list[tuple]:
    """Evaluate all sweep points; returns ordered CSV rows (without header)."""
    return [
        (cfg.sweep_param, value, res.scheme, res.fidelity, res.m, res.n_used, 1 if res.infeasible else 0)
        for value in cfg.sweep_values
        for res in sorted(_point_results(cfg, value), key=lambda r: r.scheme)
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
    root = resources.files("multinet.presets")
    return sorted(p.name[: -len(".cfg")] for p in root.iterdir() if p.name.endswith(".cfg"))


def load_config_source(path_or_preset: str) -> tuple[str, str]:
    """Resolve a filesystem path or packaged preset name to (text, label)."""
    if os.path.exists(path_or_preset):
        with open(path_or_preset, "r", encoding="utf-8") as fh:
            return fh.read(), path_or_preset
    if path_or_preset in preset_names():
        text = resources.files("multinet.presets").joinpath(f"{path_or_preset}.cfg").read_text()
        return text, f"preset:{path_or_preset}"
    raise ConfigError(f"{path_or_preset!r} is neither a config file nor a known preset")


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(
        prog="multinet",
        description="Parameter sweeps over hashing-based multipartite repeater schemes.",
    )
    sub = parser.add_subparsers(dest="command", required=True)
    run_p = sub.add_parser("run", help="run an experiment config or preset, write CSV")
    run_p.add_argument("config", help="path to a config file, or a preset name")
    run_p.add_argument("--out", required=True, help="output CSV path")
    val_p = sub.add_parser("validate", help="parse and validate a config without running it")
    val_p.add_argument("config", help="path to a config file, or a preset name")
    sub.add_parser("list-presets", help="list packaged figure presets")
    args = parser.parse_args(argv)

    if args.command == "list-presets":
        for name in preset_names():
            print(name)
        return 0

    try:
        text, label = load_config_source(args.config)
        cfg = parse_config(text, name=label)
    except ConfigError as exc:
        print(f"config error: {exc}", file=sys.stderr)
        return 2

    if args.command == "validate":
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
        with open(args.out, "w", encoding="utf-8", newline="") as fh:
            fh.write(csv_text)
    except OSError as exc:
        print(f"cannot write {args.out}: {exc}", file=sys.stderr)
        return 2
    if rows and all(row[6] == 1 for row in rows):
        print(f"warning: every sweep point infeasible; CSV written to {args.out}", file=sys.stderr)
        return 3
    return 0


if __name__ == "__main__":
    sys.exit(main())
