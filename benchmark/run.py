"""Benchmark of the flowgame command line, one workload per run.

    python3 benchmark/run.py --workload solve-contested --seed 1 --seconds 20 --trace 0

Run from a checkout of the repository (the script finds ``src/`` next to
its own directory). It drives ``flowgame.cli.main(argv)`` in process, in
a closed loop: one client, one process, no threads, each op starting when
the previous one has returned. Inputs are generated from ``--seed`` and
handed to the CLI only as JSON files under ``.bench_out/``.

``--trace 0`` measures the end-to-end metrics. ``--trace 1`` pairs every
op with a traced rerun of the same op and reports the per-layer metrics
from the traced ones. Every op's output is checked; a failed check counts
as a failed op and never stops the run. The last line of stdout is one
JSON object with the keys ``correct``, ``attempted``, ``failed`` and
``metrics``; a fuller report goes to ``.bench_out/<workload>/``.
"""

from __future__ import annotations

import argparse
import contextlib
import importlib
import io
import json
import os
import resource
import statistics
import subprocess
import sys
import time
import traceback
from pathlib import Path

import checks
import instances
import tracing

BENCH_DIR = Path(__file__).resolve().parent
ROOT = BENCH_DIR.parent
SRC = ROOT / "src"
OUT = ROOT / ".bench_out"
REFERENCE = BENCH_DIR / "reference.json"

DEFAULT_SEED = 1
# Instances generated per run; the op sequence cycles through them.
POOL = {"solve-contested": 50, "verify-dense": 300, "analyze-grid": 100}
SETUP_REPEATS = 3
SUBPROCESS_SAMPLE = 9
SUBPROCESS_TIMEOUT_S = 120
# The loop stops at ``--seconds`` of reference-speed time, or at this many
# times ``--seconds`` of wall time on a machine running slow.
WALL_CAP = 1.5
# Gauge time at the reference speed: the median gauge time on a shared
# 2-vCPU x86-64 virtual machine with Python 3.11 (0.73 ms at its fastest,
# 1.39 ms at its 90th percentile). Every reported time is scaled to that
# speed.
GAUGE_REFERENCE_S = 0.0011
# Gauge samples per reading for set-up and subprocess runs, and the window
# of neighbouring samples that smooths the reading for each loop op.
GAUGE_READING = 5

# The stages expected to take most of the traced op span on each workload.
DOMINANT = {
    "solve-contested": ("equilibrium.attacker_br_s", "equilibrium.checks_self_s"),
    "verify-dense": ("equilibrium.router_br_s",),
    "analyze-grid": ("flows.analyze_s",),
}

END_TO_END_UNITS = {
    "setup_s": "s",
    "op_p50_s": "s",
    "op_tail_s": "s",
    "ops_per_s": "1/s",
    "ok_ratio": "ratio",
    "peak_rss_mib": "MiB",
    "cli_process_p50_s": "s",
}


# ---------------------------------------------------------------------------
# Statistics
# ---------------------------------------------------------------------------

def tail(values: list) -> tuple:
    """The highest percentile with at least 10 samples beyond it, as
    ``(value, percentile)``. With 10 samples or fewer no percentile
    qualifies; the maximum is returned with percentile None."""
    ordered = sorted(values)
    n = len(ordered)
    if n <= 10:
        return ordered[-1], None
    return ordered[n - 11], 100 * (n - 10) / n


class Gauge:
    """How fast the machine runs right now.

    On a shared machine the same op can take up to twice as long from one
    minute to the next. The gauge times a fixed computation in the
    benchmark's own code (Edmonds-Karp on a fixed 10x10 grid, no flowgame
    code, about 1 ms) next to every timed op. Its time tracks the
    machine's speed, so ``GAUGE_REFERENCE_S / gauge time`` scales an op's
    wall time to the reference speed."""

    def __init__(self):
        net = instances.generate("analyze-grid", 0, 0).files["net.json"]
        self._nodes = net["nodes"]
        self._edges = [(e["from"], e["to"], int(e["capacity"]), 0) for e in net["edges"]]

    def sample(self) -> float:
        start = time.perf_counter()
        instances.max_flow_value(self._nodes, self._edges)
        return time.perf_counter() - start

    def factor(self) -> float:
        """Scale factor from a fresh reading of several samples."""
        return GAUGE_REFERENCE_S / statistics.median(self.sample() for _ in range(GAUGE_READING))


def smoothed_factors(samples: list) -> list:
    """Per-op scale factors from the gauge samples taken before each op,
    each the median over a window of neighbouring samples."""
    half = GAUGE_READING // 2
    return [
        GAUGE_REFERENCE_S / statistics.median(samples[max(0, i - half):i + half + 1])
        for i in range(len(samples))
    ]


# ---------------------------------------------------------------------------
# Ops
# ---------------------------------------------------------------------------

class Outcome:
    """What one CLI call returned: exit code, captured output, wall time,
    and the cause of failure if it failed."""

    __slots__ = ("code", "stdout", "seconds", "cause")

    def __init__(self, code, stdout, seconds, cause):
        self.code = code
        self.stdout = stdout
        self.seconds = seconds
        self.cause = cause


def call_cli(call, argv: list) -> Outcome:
    """Run ``call(argv)`` (``cli.main`` or a traced wrapper of it) with
    stdout and stderr captured. Exceptions and argparse exits become a
    failure cause instead of ending the run."""
    out, err = io.StringIO(), io.StringIO()
    code, cause = None, None
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        start = time.perf_counter()
        try:
            code = call(argv)
        except SystemExit as exc:
            cause = f"SystemExit({exc.code!r}) from the CLI"
        except Exception as exc:  # the run records it and goes on
            frames = traceback.extract_tb(exc.__traceback__)
            where = f" at {frames[-1].name}:{frames[-1].lineno}" if frames else ""
            cause = f"traceback: {type(exc).__name__}{where}"
        seconds = time.perf_counter() - start
    return Outcome(code, out.getvalue(), seconds, cause)


class Ledger:
    """Attempted and failed ops, with the cause of each failure."""

    def __init__(self):
        self.attempted = 0
        self.failures: list = []

    def record(self, kind: str, index: int, cause) -> bool:
        self.attempted += 1
        if cause is not None:
            self.failures.append({"kind": kind, "instance": index, "cause": cause})
        return cause is None

    def causes(self) -> dict:
        counts: dict = {}
        for failure in self.failures:
            counts[failure["cause"]] = counts.get(failure["cause"], 0) + 1
        return counts


class Workload:
    """The generated instances of one run and the checks for their ops."""

    def __init__(self, name: str, seed: int, pool: list, argvs: list, goldens):
        self.name = name
        self.seed = seed
        self.pool = pool
        self.argvs = argvs
        self.goldens = goldens

    def check(self, index: int, outcome: Outcome):
        if outcome.cause is not None:
            return outcome.cause
        golden = self.goldens[index] if self.goldens else None
        return checks.check_op(self.pool[index], outcome.code, outcome.stdout, golden)


def import_flowgame():
    """Import flowgame afresh from ``src/`` and return (package, cli, lp)."""
    for name in [n for n in sys.modules if n == "flowgame" or n.startswith("flowgame.")]:
        del sys.modules[name]
    importlib.invalidate_caches()
    return (
        importlib.import_module("flowgame"),
        importlib.import_module("flowgame.cli"),
        importlib.import_module("flowgame.lp"),
    )


def load_goldens(workload: str, seed: int):
    if seed != DEFAULT_SEED or not REFERENCE.is_file():
        return None
    goldens = json.loads(REFERENCE.read_text())["goldens"].get(workload)
    return goldens if goldens and len(goldens) == POOL[workload] else None


def set_up(name: str, seed: int, ledger: Ledger, gauge: Gauge) -> tuple:
    """Generate and write the instances, import flowgame and run one
    warm-up op; repeated, and timed each time at the reference speed.
    Returns the workload, the modules of the last import, and the set-up
    times."""
    directory = OUT / name / f"seed{seed}"
    goldens = load_goldens(name, seed)
    times = []
    for _ in range(SETUP_REPEATS):
        factor = gauge.factor()
        start = time.perf_counter()
        pool = [instances.generate(name, seed, i) for i in range(POOL[name])]
        argvs = [instances.write(inst, directory / f"{i:03d}") for i, inst in enumerate(pool)]
        modules = import_flowgame()
        workload = Workload(name, seed, pool, argvs, goldens)
        warm_up = call_cli(modules[1].main, argvs[0])
        times.append((time.perf_counter() - start) * factor)
        ledger.record("warm-up", 0, workload.check(0, warm_up))
    return workload, modules, times


# ---------------------------------------------------------------------------
# The two kinds of run
# ---------------------------------------------------------------------------

def closed_loop(workload: Workload, seconds: float, gauge: Gauge, run_op) -> list:
    """Run ``run_op(op, index)`` back to back, cycling through the
    instances, with a gauge sample before each, until ``seconds`` of
    reference-speed time have passed (or ``WALL_CAP`` times that in wall
    time). Returns [index, result, wall seconds, scale factor] per op."""
    rows = []
    size = len(workload.pool)
    start = time.perf_counter()
    reference_time = 0.0
    op = 0
    while op == 0 or (
        reference_time < seconds and time.perf_counter() - start < WALL_CAP * seconds
    ):
        index = op % size
        sample = gauge.sample()
        began = time.perf_counter()
        result = run_op(op, index)
        took = time.perf_counter() - began
        reference_time += took * GAUGE_REFERENCE_S / sample
        rows.append([index, result, took, sample])
        op += 1
    for row, factor in zip(rows, smoothed_factors([row[3] for row in rows])):
        row[3] = factor
    return rows


def measure(workload: Workload, cli, seconds: float, ledger: Ledger, gauge: Gauge) -> dict:
    """Untraced closed loop, then the median op of the middle size rerun
    as fresh ``python -m flowgame.cli`` processes."""
    outputs = {}

    def run_op(op, index):
        outcome = call_cli(cli.main, workload.argvs[index])
        if not ledger.record("in-process", index, workload.check(index, outcome)):
            return None
        outputs.setdefault(index, outcome)
        return outcome.seconds

    rows = closed_loop(workload, seconds, gauge, run_op)
    passed = [(took * factor, index) for index, took, _, factor in rows if took is not None]
    times = [t for t, _ in passed]

    # The sample reruns one op: the in-process median among the ops of the
    # schedule's middle size, so its size is the same on every seed and
    # the gap to op_p50_s is what a fresh process adds.
    slots = len(instances.SCHEDULE[workload.name])
    middle = sorted(p for p in passed if p[1] % slots == slots // 2) or sorted(passed)
    process_times = []
    if middle:
        index = middle[len(middle) // 2][1]
        for hash_seed in range(1, SUBPROCESS_SAMPLE + 1):
            factor = gauge.factor()
            took, cause = run_subprocess(workload.argvs[index], hash_seed, outputs[index])
            if ledger.record("subprocess", index, cause):
                process_times.append(took * factor)

    tail_value, tail_pct = tail(times) if times else (0.0, None)
    loop_wall = sum(row[2] for row in rows)
    return {
        "metrics": {
            "op_p50_s": statistics.median(times) if times else 0.0,
            "op_tail_s": tail_value,
            "ops_per_s": len(rows) / sum(row[2] * row[3] for row in rows),
            "cli_process_p50_s": statistics.median(process_times) if process_times else 0.0,
        },
        "op_samples": len(times),
        "op_tail_percentile": tail_pct,
        "cli_process_samples": len(process_times),
        "instances_run": len({index for _, index in passed}),
        "median_speed_factor": statistics.median(row[3] for row in rows),
        "wall_clock": {
            "loop_s": loop_wall,
            "op_p50_s": statistics.median(row[1] for row in rows if row[1] is not None)
            if times else 0.0,
            "ops_per_s": len(rows) / loop_wall,
        },
    }


def run_subprocess(argv: list, hash_seed: int, expected: Outcome) -> tuple:
    """Time one op as a fresh interpreter; its stdout and exit code must
    match the in-process run byte for byte."""
    env = dict(os.environ, PYTHONPATH=str(SRC), PYTHONHASHSEED=str(hash_seed))
    start = time.perf_counter()
    try:
        result = subprocess.run(
            [sys.executable, "-m", "flowgame.cli", *argv],
            cwd=ROOT, env=env, capture_output=True, timeout=SUBPROCESS_TIMEOUT_S,
        )
    except subprocess.TimeoutExpired:
        return time.perf_counter() - start, "subprocess timed out"
    seconds = time.perf_counter() - start
    if result.returncode != expected.code:
        return seconds, f"subprocess exit code {result.returncode} differs from in-process"
    if result.stdout != expected.stdout.encode("utf-8"):
        return seconds, "subprocess stdout differs from in-process stdout"
    return seconds, None


def measure_traced(workload: Workload, modules, seconds: float, ledger: Ledger, gauge: Gauge) -> dict:
    """Each op runs untraced, then traced; the per-layer metrics come from
    the traced runs, and the untraced twins give the tracing overhead."""
    package, cli, lp = modules
    tracer = tracing.Tracer(package, lp)

    def run_op(op, index):
        plain = call_cli(cli.main, workload.argvs[index])
        ledger.record("in-process", index, workload.check(index, plain))
        with tracer.installed():
            traced = call_cli(lambda argv: tracer.op(op, cli.main, argv), workload.argvs[index])
        ledger.record("traced", index, workload.check(index, traced))
        tracer.settle()
        return plain.seconds, len(traced.stdout.encode("utf-8"))

    rows = closed_loop(workload, seconds, gauge, run_op)
    factors = [row[3] for row in rows]
    ops = tracing.per_op(tracer)
    tracer.write(OUT / workload.name / f"seed{workload.seed}-spans.jsonl")
    metrics = tracing.layer_metrics(
        ops,
        factors,
        [row[1][1] for row in rows],
        [row[1][0] * factor for row, factor in zip(rows, factors)],
    )
    return {
        "metrics": metrics,
        "traced_ops": len(ops),
        "self_times": tracing.self_time_table(ops),
        "dominant_share": {
            "stages": DOMINANT[workload.name],
            "share": sum(metrics[name + ".share"] for name in DOMINANT[workload.name]),
        },
    }


# ---------------------------------------------------------------------------
# Entry point
# ---------------------------------------------------------------------------

def parse_args(argv):
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=instances.WORKLOADS)
    parser.add_argument("--seed", type=int, default=DEFAULT_SEED)
    parser.add_argument("--seconds", type=float, default=25)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    return parser.parse_args(argv)


def main(argv=None) -> int:
    args = parse_args(argv)
    if not (SRC / "flowgame" / "cli.py").is_file():
        print(f"error: no flowgame sources under {SRC}; run from a checkout", file=sys.stderr)
        return 2
    sys.path.insert(0, str(SRC))

    ledger = Ledger()
    gauge = Gauge()
    workload, modules, setup_times = set_up(args.workload, args.seed, ledger, gauge)
    if args.trace:
        result = measure_traced(workload, modules, args.seconds, ledger, gauge)
        units = tracing.per_layer_metric_units()
    else:
        result = measure(workload, modules[1], args.seconds, ledger, gauge)
        result["metrics"]["setup_s"] = statistics.median(setup_times)
        result["metrics"]["ok_ratio"] = 1 - len(ledger.failures) / ledger.attempted
        result["metrics"]["peak_rss_mib"] = (
            resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024
        )
        units = END_TO_END_UNITS

    report = {
        "workload": args.workload,
        "seed": args.seed,
        "seconds": args.seconds,
        "trace": args.trace,
        "loop": "closed, 1 client, 1 process, no threads",
        "setup_s_each": setup_times,
        "attempted": ledger.attempted,
        "failed": len(ledger.failures),
        "fail_ratio": len(ledger.failures) / ledger.attempted,
        "failure_causes": ledger.causes(),
        "failures": ledger.failures[:50],
        **{k: v for k, v in result.items() if k != "metrics"},
        "metrics": {name: {"value": result["metrics"][name], "unit": unit}
                    for name, unit in units.items()},
    }
    path = OUT / args.workload / f"seed{args.seed}-trace{args.trace}.json"
    path.parent.mkdir(parents=True, exist_ok=True)
    path.write_text(json.dumps(report, indent=1) + "\n")

    for name, entry in report["metrics"].items():
        print(f"{name} = {entry['value']:.6g} {entry['unit']}")
    for key in ("fail_ratio", "failure_causes", "op_samples", "op_tail_percentile",
                "cli_process_samples", "median_speed_factor", "traced_ops", "dominant_share"):
        if key in report:
            print(f"{key}: {json.dumps(report[key])}")
    print(f"report: {path.relative_to(ROOT)}")
    print(json.dumps({
        "correct": not ledger.failures,
        "attempted": ledger.attempted,
        "failed": len(ledger.failures),
        "metrics": report["metrics"],
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
