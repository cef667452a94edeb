"""Benchmark of multinet: the packaged figure sweeps and cover validation.

Usage (from the root of a checkout)::

    python3 perfbench/run.py --workload threshold-sweep --seed 1 --seconds 40 --trace 0

Workloads (``workloads.json`` says why each exists and which layer metric
should move which end-to-end metric on it):

``threshold-sweep``
    The five threshold presets (fig9m-fig13m).  From each preset's own grid
    (``parse_config(...).sweep_values``) a pass takes one value in each of
    ``PICKS`` equal strata, written back as ``sweep_values`` with ``repr`` so
    every float round-trips and every row is checkable.
``fixed-m-sweep``
    The ten fixed-``m`` presets (fig3-fig6, fig8-fig13), picked the same way.
``cover-validation``
    ``schemes.family_cover`` plus ``schemes.validate_cover`` against the
    periodic lattice.  For every lattice in ``LATTICES`` and every block
    size that tiles it, a pass picks the family (windmill or shifted-grid),
    so every pass validates the same lattices and block sizes.  The merge
    count, which sets the validation cost, differs by family (on 8x8x8,
    768 against 512 at b=1 and 0 against 416 at b=4), so a pass's cost
    depends on its picks; consecutive passes alternate the family where
    both tile, which keeps the median over a run's passes steady.

The picks of pass ``i`` come from the seed and ``i``: every stratum (every
lattice and block size) is walked in an order the seed shuffles, so the
same seed gives the same sequence of inputs and a run's passes sample each
stratum without replacement.  The median over a run's passes thus rests on
many picks rather than on one, and two runs differ little in what they
picked.

A run repeats passes for ``--seconds`` seconds, each pass in a fresh worker
process (``worker.py``) that calls the library the way the ``multinet``
command does, with ``MULTINET_THREADS`` unset.  Every operation is checked:
a sweep run on its exit code and on its whole CSV, which must equal byte
for byte the header and the rows of its sweep values, in order, from the
pinned CSVs in ``reference/`` (full-grid CSVs generated once by the code
this benchmark was written against); a
validation on its verdict and on its merge count, which must equal placed
qubits minus lattice sites and the pinned count in ``reference/covers.json``.

Times are scaled to a reference host speed.  On the shared 2-core VM the
bounds were set on, the host's speed drifted by up to 2x over seconds to
minutes, which moved the median of a whole run by 10 to 26%.  Each worker
has a fixed calibration slice timed before, during and after its work, in
a calibration process of the run's own that never imports ``multinet``
(``worker.py --calibrate``), in wall and in CPU seconds.  Each stretch of
work between two calibrations is multiplied by ``REFERENCE_CALIBRATION_S``
over the mean of those two, wall time by their wall times and CPU time by
their CPU times; the times as measured are printed beside them.

``--trace 0`` reports the end-to-end metrics, medians over the passes.
``--trace 1`` alternates untraced and traced passes over pass 0's inputs
and reports the per-layer metrics of ``spans.py``; their counts must repeat
exactly across the traced passes.  The last line of standard output is the
result as JSON; the lines before it are the run record (machine, seed,
worker count the CLI chose, sample counts) and the failures, if any.
"""

from __future__ import annotations

import argparse
import configparser
import json
import os
import platform
import random
import shutil
import statistics
import subprocess
import sys
import time
from importlib import metadata

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
SRC = os.path.join(ROOT, "src")
WORK = os.path.join(HERE, ".work")
REFERENCE = os.path.join(HERE, "reference")

sys.path.insert(0, HERE)
import spans  # noqa: E402

WORKLOADS = {
    "threshold-sweep": ("fig9m", "fig10m", "fig11m", "fig12m", "fig13m"),
    "fixed-m-sweep": ("fig3", "fig4", "fig5", "fig6", "fig8", "fig9", "fig10", "fig11", "fig12", "fig13"),
    "cover-validation": (),
}
# Sweep values per preset and pass.  fig8's grid has 9 values, so the
# fixed-m workload runs every value of it.
PICKS = {"threshold-sweep": 4, "fixed-m-sweep": 9}
LATTICES = ((16, 16), (20, 20), (24, 24), (28, 28), (32, 32), (8, 8, 8))
COVER_FAMILIES = ("windmill", "shifted-grid")
# Schemes evaluated by the bipartite pair protocol; every other row is a
# multipartite result.
PAIR_SCHEMES = ("bipartite", "B", "C")

MIN_PASSES = 3  # per kind of pass; two traced passes at least, see run_passes
SETUP_SAMPLES = 10  # set-up-only workers per run, on top of one sample per pass
# The calibration slice's time (worker.calibrate) on the machine the bounds
# were set on; times are reported at this host speed.
REFERENCE_CALIBRATION_S = 0.0049
RUN_LIMIT_S = 170  # a worker still running this long after the run began is killed
END_TO_END = (("wall_s", "s"), ("cpu_s", "s"), ("setup_s", "s"), ("peak_rss_mb", "MB"))


class BenchError(RuntimeError):
    """The benchmark cannot run here (no program, bad arguments)."""


# -- inputs --------------------------------------------------------------------------


def _import_cli():
    if not os.path.isdir(os.path.join(SRC, "multinet")):
        raise BenchError(f"no multinet package under {SRC}")
    sys.path.insert(0, SRC)
    import multinet.cli as cli

    return cli


def _load_reference(preset: str) -> list[str]:
    """The pinned CSV's lines, header first, each with its line end."""
    with open(os.path.join(REFERENCE, f"{preset}.csv"), encoding="utf-8", newline="") as fh:
        return fh.read().splitlines(keepends=True)


def _cycle_position(key: str, size: int, index: int) -> int:
    """Position ``index`` of a cycle through ``range(size)`` in an order shuffled by ``key``.

    Consecutive passes take distinct positions until the cycle is used up,
    so a run samples each stratum without replacement.
    """
    order = list(range(size))
    random.Random(key).shuffle(order)
    return order[index % size]


def sweep_inputs(cli, workload: str, seed: int, index: int, workdir: str) -> list[dict]:
    """Write one config per preset with pass ``index``'s sweep values picked from its grid."""
    k = PICKS[workload]
    out = []
    for preset in WORKLOADS[workload]:
        text, label = cli.load_config_source(preset)
        grid = cli.parse_config(text, name=label).sweep_values
        picks = []
        for i in range(k):
            lo, hi = i * len(grid) // k, (i + 1) * len(grid) // k
            picks.append(grid[lo + _cycle_position(f"{workload}/{preset}/{seed}/{i}", hi - lo, index)])

        parser = configparser.ConfigParser(interpolation=None)
        parser.read_string(text, source=label)
        for key in ("sweep_min", "sweep_max", "sweep_steps"):
            parser.remove_option("experiment", key)
        parser.set("experiment", "sweep_values", ",".join(repr(v) for v in picks))
        config = os.path.join(workdir, f"{preset}.cfg")
        with open(config, "w", encoding="utf-8") as fh:
            parser.write(fh)

        # The picks ascend as the grid does, and the CLI writes a sweep's rows
        # in the order of its values, so the expected file is the header and
        # the reference rows of the picked values, in reference order.
        header, *reference = _load_reference(preset)
        values = {f"{v:.12g}" for v in picks}
        rows = [line for line in reference if line.split(",")[1] in values]
        missing = values - {line.split(",")[1] for line in rows}
        out.append({
            "name": preset,
            "config": config,
            "csv": os.path.join(workdir, f"{preset}.csv"),
            "expected": header + "".join(rows),
            "rows": rows,
            "missing": sorted(missing),
            "exit": 3 if rows and all(line.endswith(",1\n") for line in rows) else 0,
        })
    return out


def cover_inputs(seed: int, index: int) -> list[dict]:
    """For every lattice and block size that tiles it, pass ``index``'s pick of the family."""
    with open(os.path.join(REFERENCE, "covers.json"), encoding="utf-8") as fh:
        pinned = json.load(fh)
    out = []
    for dims in LATTICES:
        label = "x".join(map(str, dims))
        options = pinned[label]
        sizes = sorted({int(b) for family in COVER_FAMILIES for b in options.get(family, {})})
        for b in sizes:
            families = [f for f in COVER_FAMILIES if str(b) in options.get(f, {})]
            family = families[_cycle_position(f"cover-validation/{seed}/{label}/{b}", len(families), index)]
            out.append({"dims": list(dims), "family": family, "b": b, "merges": options[family][str(b)]})
    return out


# -- checks --------------------------------------------------------------------------


def check_sweep(item: dict, exit_code) -> str | None:
    """Why the sweep run failed, or None."""
    if item["missing"]:
        return f"{item['name']}: no reference rows for sweep values {item['missing']}"
    if exit_code != item["exit"]:
        return f"{item['name']}: exit code {exit_code!r}, expected {item['exit']}"
    try:
        with open(item["csv"], encoding="utf-8", newline="") as fh:
            produced = fh.read()
    except OSError as exc:
        return f"{item['name']}: no CSV ({exc})"
    if produced == item["expected"]:
        return None
    got, want = produced.splitlines(keepends=True), item["expected"].splitlines(keepends=True)
    for number, (line, reference) in enumerate(zip(got, want), 1):
        if line != reference:
            return f"{item['name']}: line {number} is {line!r}, the reference has {reference!r}"
    return f"{item['name']}: {len(got)} lines, the reference has {len(want)}"


def check_cover(item: dict, outcome: dict) -> str | None:
    where = f"{item['family']} b={item['b']} on {'x'.join(map(str, item['dims']))}"
    if "error" in outcome:
        return f"{where}: {outcome['error']}"
    if not outcome["ok"]:
        return f"{where}: validate_cover returned False"
    if outcome["merges"] != outcome["placed_minus_sites"] or outcome["merges"] != item["merges"]:
        return (f"{where}: {outcome['merges']} merges, placed minus sites is "
                f"{outcome['placed_minus_sites']}, pinned {item['merges']}")
    return None


# -- passes --------------------------------------------------------------------------


def start_calibrator() -> subprocess.Popen:
    """The run's calibration process; workers reach it through its inherited pipe ends."""
    return subprocess.Popen(
        [sys.executable, os.path.join(HERE, "worker.py"), "--calibrate"],
        cwd=ROOT, stdin=subprocess.PIPE, stdout=subprocess.PIPE,
    )


def stop_calibrator(calibrator: subprocess.Popen) -> None:
    calibrator.stdin.close()
    try:
        calibrator.wait(timeout=10)
    except subprocess.TimeoutExpired:
        calibrator.kill()
        calibrator.wait()
    calibrator.stdout.close()


def run_worker(spec: dict, workdir: str, timeout: float, calibrator: subprocess.Popen) -> dict:
    spec_path = os.path.join(workdir, "spec.json")
    result_path = os.path.join(workdir, "result.json")
    fds = [calibrator.stdin.fileno(), calibrator.stdout.fileno()]
    with open(spec_path, "w", encoding="utf-8") as fh:
        json.dump(dict(spec, calibration_fds=fds), fh)
    if os.path.exists(result_path):
        os.remove(result_path)
    env = {k: v for k, v in os.environ.items() if k != "MULTINET_THREADS"}
    proc = subprocess.run(
        [sys.executable, os.path.join(HERE, "worker.py"), spec_path, result_path],
        env=env, cwd=ROOT, timeout=max(timeout, 1.0), pass_fds=fds,
        stdout=subprocess.DEVNULL, stderr=subprocess.PIPE, text=True,
    )
    if proc.returncode != 0:
        raise BenchError(f"worker exited with {proc.returncode}: {proc.stderr.strip()[-2000:]}")
    with open(result_path, encoding="utf-8") as fh:
        return json.load(fh)


def speed_factor(result: dict) -> float:
    """Reference calibration time over the wall calibration time around this worker's work."""
    return REFERENCE_CALIBRATION_S / statistics.fmean(wall for wall, _ in result["cals"])


def scaled(result: dict, metric: str) -> float:
    """``metric`` of a worker at the reference host speed.

    Set-up lies between the first two calibrations, and pass segment ``i``
    between calibrations ``i`` and ``i + 1``; each is scaled by the mean of
    the two calibrations around it, taken in the same clock.
    """
    cals = result["cals"]
    if metric == "setup_s":
        return result["setup_s"] * 2 * REFERENCE_CALIBRATION_S / (cals[0][0] + cals[1][0])
    clock = ("wall_s", "cpu_s").index(metric)  # the column of segments and calibrations
    return sum(segment[clock] * 2 * REFERENCE_CALIBRATION_S / (before[clock] + after[clock])
               for segment, before, after in zip(result["segments"], cals, cals[1:]))


def run_passes(make_pass, workdir: str, seconds: float, trace: bool, check,
               calibrator: subprocess.Popen) -> tuple[list[dict], list[dict], list[dict]]:
    """Workers until the time is spent: (set-up-only, untraced, traced) results.

    ``make_pass(i)`` gives the spec and checked items of pass ``i``; a traced
    run uses pass 0's inputs throughout, so its passes are comparable and
    their counts must repeat.  ``SETUP_SAMPLES`` set-up-only workers come
    first.  Each pass result goes to ``check`` as the pass ends, before the
    next pass overwrites its CSVs.  A new pass starts only if the last pass
    of its kind would still fit, once there are ``MIN_PASSES`` untraced and
    two traced passes.
    """
    start = time.perf_counter()

    def worker(spec: dict) -> dict:
        return run_worker(spec, workdir, start + RUN_LIMIT_S - time.perf_counter(), calibrator)

    first_spec, _ = make_pass(0)
    setups = [worker(dict(first_spec, trace=False, setup_only=True)) for _ in range(SETUP_SAMPLES)]
    plain, traced = [], []
    cost = {False: 0.0, True: 0.0}
    kind = False
    while True:
        elapsed = time.perf_counter() - start
        enough = len(plain) >= MIN_PASSES and (not trace or len(traced) >= 2)
        if enough and elapsed + cost[kind] > seconds:
            break
        spec, items = make_pass(0 if trace else len(plain))
        t0 = time.perf_counter()
        result = worker(dict(spec, trace=kind))
        cost[kind] = time.perf_counter() - t0
        check(result, items)
        (traced if kind else plain).append(result)
        if trace:
            kind = not kind
            if len(plain) >= MIN_PASSES and elapsed + cost[kind] > seconds:
                kind = True  # spend what is left on traced passes
    return setups, plain, traced


# -- reporting -----------------------------------------------------------------------


def machine_record() -> dict:
    try:
        numpy_version = metadata.version("numpy")
    except metadata.PackageNotFoundError:
        numpy_version = "absent"
    return {"nproc": os.cpu_count(), "python": platform.python_version(), "numpy": numpy_version}


def spread(values: list[float]) -> float:
    if len(values) < 2:
        return 0.0
    q1, _, q3 = statistics.quantiles(values, n=4)
    return (q3 - q1) / statistics.median(values)


def end_to_end(setups: list[dict], plain: list[dict]) -> dict[str, float]:
    samples = {
        "wall_s": [scaled(r, "wall_s") for r in plain],
        "cpu_s": [scaled(r, "cpu_s") for r in plain],
        "setup_s": [scaled(r, "setup_s") for r in setups + plain],
        "peak_rss_mb": [r["peak_rss_mb"] for r in plain],
    }
    raw = {
        "wall_s": [r["wall_s"] for r in plain],
        "cpu_s": [r["cpu_s"] for r in plain],
        "setup_s": [r["setup_s"] for r in setups + plain],
    }
    out = {}
    for name, unit in END_TO_END:
        values = samples[name]
        out[name] = statistics.median(values)
        line = f"{name} = {out[name]:.6g} {unit} (median of {len(values)} samples, IQR/median {spread(values):.3f}"
        if name in raw:
            line += f"; as measured {statistics.median(raw[name]):.6g} {unit}, IQR/median {spread(raw[name]):.3f}"
        print(line + ")")
    speeds = [speed_factor(r) for r in setups + plain]
    print(f"host speed against the reference: median {statistics.median(speeds):.3f}, "
          f"range {min(speeds):.3f}-{max(speeds):.3f} over {len(speeds)} workers")
    return out


def per_layer(plain: list[dict], traced: list[dict], multipartite_rows: int) -> tuple[dict[str, float], bool]:
    summaries = []
    for r in traced:
        factor = speed_factor(r)
        summaries.append({
            name: {k: (v * factor if k.endswith("_s") else v) for k, v in stats.items()}
            for name, stats in r["layers"].items()
        })
    exact = [spans.counts(r["layers"]) for r in traced]
    repeat = all(c == exact[0] for c in exact[1:])
    overhead = (statistics.median(scaled(r, "wall_s") for r in traced)
                / statistics.median(scaled(r, "wall_s") for r in plain) - 1.0)
    values = spans.layer_metrics(summaries, multipartite_rows, overhead)
    print(f"per-layer times: medians of {len(traced)} traced passes; counts from the first, "
          f"identical in all {len(traced)}: {repeat}; overhead against {len(plain)} untraced passes")
    for name, unit in spans.metric_catalogue():
        if values[name]:
            print(f"  {name} = {values[name]:.6g} {unit}")
    return values, repeat


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)

    cli = _import_cli()
    workdir = os.path.join(WORK, args.workload)
    shutil.rmtree(workdir, ignore_errors=True)
    os.makedirs(workdir)
    spans_dir = os.path.join(WORK, "spans", args.workload)
    cover = args.workload == "cover-validation"

    def make_pass(index: int) -> tuple[dict, list[dict]]:
        if cover:
            items = cover_inputs(args.seed, index)
            spec = {"kind": "cover", "covers": [[i["dims"], i["family"], i["b"]] for i in items]}
        else:
            items = sweep_inputs(cli, args.workload, args.seed, index, workdir)
            spec = {"kind": "sweep", "configs": [[i["name"], i["config"], i["csv"]] for i in items]}
        return dict(spec, spans_dir=spans_dir), items

    failures: list[str] = []
    attempted = 0

    def check(result: dict, items: list[dict]) -> None:
        nonlocal attempted
        for item, outcome in zip(items, result["outcomes"]):
            attempted += 1
            if cover:
                problem = check_cover(item, outcome)
            else:
                problem = check_sweep(item, outcome["exit"])
                if os.path.exists(item["csv"]):
                    os.remove(item["csv"])  # a later pass must write its own
            if problem:
                failures.append(problem)

    calibrator = start_calibrator()
    try:
        setups, plain, traced = run_passes(make_pass, workdir, args.seconds, bool(args.trace), check, calibrator)
    finally:
        stop_calibrator(calibrator)

    _, first_items = make_pass(0)
    multipartite_rows = sum(
        1 for i in first_items for line in i.get("rows", ()) if line.split(",")[2] not in PAIR_SCHEMES
    )
    record = dict(machine_record(), seed=args.seed, workload=args.workload,
                  cli_workers=plain[0]["cli_workers"], setup_workers=len(setups), passes=len(plain),
                  traced_passes=len(traced), operations_per_pass=len(first_items),
                  multipartite_rows_in_pass_0=multipartite_rows)
    if not cover:
        # Rows with m > 0 per preset: in the threshold presets, the points that reach the binary search.
        record["rows_with_m_in_pass_0"] = {
            i["name"]: sum(1 for line in i["rows"] if line.split(",")[4] != "0") for i in first_items
        }
    print("record " + json.dumps(record))
    for problem in failures[:20]:
        print("FAILED " + problem)
    failed = len(failures)
    print(f"failed_frac = {failed / attempted if attempted else 0.0:.6g} ({failed} of {attempted} operations)")

    correct = failed == 0
    if args.trace:
        values, repeat = per_layer(plain, traced, multipartite_rows)
        if not repeat:
            correct = False
            print("FAILED per-layer counts differ between traced passes of one seed")
        metrics = {name: {"value": values[name], "unit": unit} for name, unit in spans.metric_catalogue()}
    else:
        values = end_to_end(setups, plain)
        metrics = {name: {"value": values[name], "unit": unit} for name, unit in END_TO_END}
    print(json.dumps({"correct": correct, "attempted": attempted, "failed": failed, "metrics": metrics}))
    return 0


if __name__ == "__main__":
    try:
        sys.exit(main())
    except (BenchError, ImportError, OSError, subprocess.TimeoutExpired) as exc:
        print(f"benchmark error: {exc}", file=sys.stderr)
        sys.exit(2)
