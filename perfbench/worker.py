"""One benchmark pass in a fresh interpreter.

Usage: ``python3 perfbench/worker.py SPEC.json RESULT.json``, or
``python3 perfbench/worker.py --calibrate`` for the calibration process.

A fresh process per pass starts every pass the way a user's ``multinet``
invocation starts: with nothing imported and no cache warm.  The worker

0. asks the calibration process that ``run.py`` keeps for the run to time
   a calibration slice of interpreter work (again between the operations
   of step 3 and after it).  The slice runs in that process, which never
   imports ``multinet``, so nothing the code under test leaves behind
   (heap, collector state, extensions) can change it;
1. imports ``multinet`` from the checkout's ``src`` and does the workload's
   set-up (parses its configs, or builds its lattice targets), timed as
   ``setup_s``;
2. optionally installs the span tracer (``spans.py``);
3. runs the pass, timed in wall seconds and in CPU seconds of the process
   (all threads) plus those of any child processes it started and waited
   for, per operation: ``multinet.cli.main(["run", CONFIG, "--out", CSV])`` per config, or
   ``schemes.family_cover`` plus ``schemes.validate_cover`` per cover;
4. writes the timings, peak resident memory and per-operation outcomes to
   RESULT.json.  Checking the outcomes is left to ``run.py``.

A set-up-only worker stops after step 1.
"""

import json
import math
import os
import resource
import sys
import time

HERE = os.path.dirname(os.path.abspath(__file__))
SRC = os.path.join(os.path.dirname(HERE), "src")
CALIBRATION_INTERVAL_S = 0.5


def _pair(a: int, b: int) -> tuple[int, int]:
    return a + b, a * b


def _calibration_slice() -> float:
    """A fixed slice of interpreter work in the proportions multinet mixes
    them: integer arithmetic, copying dicts of sets (as ``Graph.copy`` and
    the cover constructors do), and small calls with float math."""
    total = 0
    for i in range(30000):
        total += i * i % 7
    adjacency = {v: {(v + 1) % 400, (v + 7) % 400} for v in range(400)}
    for _ in range(6):
        copy = {v: set(nbrs) for v, nbrs in adjacency.items()}
    acc = 0.0
    for i in range(6000):
        pair = _pair(i, 3)
        acc += math.log1p(pair[1] * 1e-9)
    return acc + total + len(copy)


def calibrate(reps: int = 7) -> list[float]:
    """Mean wall and CPU seconds of the calibration slice: the host's current speed.

    On the shared 2-core VM the bounds were set on, the host's speed
    drifted by up to 2x over seconds to minutes, and multinet's passes
    slowed down with it; ``run.py`` scales each pass's wall and CPU times
    by the calibrations taken around it, each in its own clock.  Means,
    not medians, so that time the host withholds from the guest counts in
    a calibration's wall time as it does in a pass's.  Of the slices tried,
    this mix tracked all three workloads best (see ``workloads.json``).
    """
    wall0, cpu0 = time.perf_counter(), time.process_time()
    for _ in range(reps):
        _calibration_slice()
    return [(time.perf_counter() - wall0) / reps, (time.process_time() - cpu0) / reps]


def serve_calibrations() -> int:
    """The calibration process: for every request line on stdin, one calibration on stdout."""
    for _ in sys.stdin:
        print(json.dumps(calibrate()), flush=True)
    return 0


def ask_calibration(fds: list[int]) -> list[float]:
    """One calibration, [wall, cpu], from the calibration process over the pipe ends ``fds`` = [request, reply]."""
    request, reply = fds
    os.write(request, b"\n")
    answer = b""
    while not answer.endswith(b"\n"):
        chunk = os.read(reply, 64)
        if not chunk:
            raise RuntimeError("the calibration process has ended")
        answer += chunk
    return json.loads(answer)


def _cpu_seconds() -> float:
    """CPU seconds of this process (all threads) and of its reaped children.

    A process pool in the code under test moves work into children, which
    ``time.process_time`` alone would not count.
    """
    children = resource.getrusage(resource.RUSAGE_CHILDREN)
    return time.process_time() + children.ru_utime + children.ru_stime


def _peak_rss_mb() -> float:
    """This process's peak resident memory plus that of its largest reaped child.

    ``ru_maxrss`` of ``RUSAGE_CHILDREN`` is the peak of the largest child,
    not a sum, so of a pool of N children only one is counted: a pool still
    shows, but its cost is a lower bound.
    """
    own = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
    children = resource.getrusage(resource.RUSAGE_CHILDREN).ru_maxrss
    return (own + children) / 1024.0


def _setup(spec):
    t0 = time.perf_counter()
    sys.path.insert(0, SRC)
    import multinet.cli as cli
    from multinet import graphstate

    if spec["kind"] == "sweep":
        for _, config, _ in spec["configs"]:
            text, label = cli.load_config_source(config)
            cli.parse_config(text, name=label)
        targets = None
    else:
        targets = {}
        for dims, _, _ in spec["covers"]:
            key = tuple(dims)
            if key not in targets:
                kind = "lattice2d" if len(key) == 2 else "lattice3d"
                targets[key] = graphstate.build_graph(kind, periodic=True, **dict(zip("whd", key)))
    return time.perf_counter() - t0, cli, targets


def _sweep_op(cli, name, config, csv_path):
    def op():
        try:
            code = cli.main(["run", config, "--out", csv_path])
        except Exception as exc:  # a traceback is a failed operation, not a dead benchmark
            code = f"{type(exc).__name__}: {exc}"
        return {"name": name, "exit": code}

    return op


def _cover_op(schemes, target, dims, family, b):
    def op():
        try:
            cover = schemes.family_cover(family, tuple(dims), b)
            ok, trace = schemes.validate_cover(cover, target)
            placed = sum(block.vertex_count for block, _ in cover)
            outcome = {"ok": bool(ok), "merges": len(trace), "placed_minus_sites": placed - target.vertex_count}
        except Exception as exc:
            outcome = {"error": f"{type(exc).__name__}: {exc}"}
        return {"dims": dims, "family": family, "b": b, **outcome}

    return op


def main(argv):
    if argv == ["--calibrate"]:
        return serve_calibrations()
    spec_path, result_path = argv
    with open(spec_path, encoding="utf-8") as fh:
        spec = json.load(fh)
    fds = spec["calibration_fds"]
    cals = [ask_calibration(fds)]
    setup_s, cli, targets = _setup(spec)
    if spec.get("setup_only"):
        with open(result_path, "w", encoding="utf-8") as fh:
            json.dump({"setup_s": setup_s, "cals": cals + [ask_calibration(fds)]}, fh)
        return 0

    if spec["kind"] == "sweep":
        ops = [_sweep_op(cli, *config) for config in spec["configs"]]
    else:
        from multinet import schemes

        ops = [_cover_op(schemes, targets[tuple(dims)], dims, family, b) for dims, family, b in spec["covers"]]

    tracer = None
    if spec["trace"]:
        sys.path.insert(0, HERE)
        import spans

        tracer = spans.Tracer()
        tracer.install()

    # The pass is timed operation by operation, so that calibrations can
    # run between operations without being timed.  The pass falls into
    # segments of at least CALIBRATION_INTERVAL_S of work, each between two
    # calibrations: segment i lies between cals[i] and cals[i + 1].
    segments = [[0.0, 0.0]]  # [wall, cpu] seconds
    outcomes = []
    for op in ops:
        if segments[-1][0] >= CALIBRATION_INTERVAL_S:
            cals.append(ask_calibration(fds))
            segments.append([0.0, 0.0])
        wall0, cpu0 = time.perf_counter(), _cpu_seconds()
        outcomes.append(op())
        segments[-1][0] += time.perf_counter() - wall0
        segments[-1][1] += _cpu_seconds() - cpu0
    cals.append(ask_calibration(fds))

    result = {
        "setup_s": setup_s,
        "cals": cals,
        "wall_s": sum(wall for wall, _ in segments),
        "cpu_s": sum(cpu for _, cpu in segments),
        "segments": segments,
        "peak_rss_mb": _peak_rss_mb(),
        "cli_workers": cli._thread_cap() if hasattr(cli, "_thread_cap") else None,
        "outcomes": outcomes,
    }
    if tracer is not None:
        tracer.uninstall()
        result["layers"] = tracer.summary()
        tracer.write_spans(spec["spans_dir"])
    with open(result_path, "w", encoding="utf-8") as fh:
        json.dump(result, fh)
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
