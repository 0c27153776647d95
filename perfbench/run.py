#!/usr/bin/env python3
"""The coxcodes benchmark: three workloads, every output checked, named metrics.

    python3 perfbench/run.py --workload sweep --seed 1 --seconds 35 --trace 0

Run it from a source checkout: it imports the package from the checkout's
src/ directory and refuses to run without one.  The last line
of stdout is one JSON object {"correct", "attempted", "failed", "metrics"};
the lines before it start with '#' and give the run's metadata, every metric
by name and unit, and per-check detail.  See perfbench/README.md.
"""

from __future__ import annotations

import argparse
import contextlib
import hashlib
import importlib.util
import json
import os
import platform
import random
import resource
import statistics
import subprocess
import sys
from dataclasses import dataclass
from pathlib import Path
from time import perf_counter

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
GOLDEN = HERE / "golden"
SPEC = ROOT / "BENCHMARK.json"

# (check, n) run by `coxcodes verify`; the seed shuffles their order
VERIFY_WORKLOADS = {
    "sweep": [("type-a-gf", 8), ("type-a-four-pairs", 8), ("type-b-four-pairs", 6),
              ("type-b-set-pairs", 5), ("type-d-mahonian", 7)],
    "transport": [("type-a-transport", 8), ("type-b-transport", 6), ("type-d-transport", 6),
                  ("codes-b", 6), ("codes-d", 6), ("oracle-length-b", 6),
                  ("oracle-reflection-length-b", 5)],
}
WORKLOADS = ("sweep", "transport", "point")

SETUP_REPEATS = 9
# three rounds of 42 commands: at least twelve latency samples beyond p90
POINT_MIN_ROUNDS = 3
# every run of the program ends this long after the measurement starts, so
# that a hung or much slower program gives a failed result, not a hung run
RUN_LIMIT_S = 150
MODULE_PREFIXES = ("cli", "harness", "perm_a", "perm_b", "perm_d", "qpoly")


def cli_env() -> dict[str, str]:
    """The environment of every process the benchmark starts: the package
    from this checkout, with its bytecode cached beside the source as an
    installed package has it, whatever the caller's settings."""
    env = dict(os.environ)
    env["PYTHONPATH"] = str(SRC)
    env.pop("PYTHONDONTWRITEBYTECODE", None)
    env.pop("PYTHONPYCACHEPREFIX", None)
    return env


def run_cli(argv, env, limit: float) -> tuple[float, int | None, bytes]:
    """Spawn `python -m coxcodes.cli argv`, killed at perf_counter() == limit;
    latency is spawn to exit, and the exit code is None when it was killed."""
    t0 = perf_counter()
    if t0 >= limit:
        return 0.0, None, b""
    try:
        proc = subprocess.run([sys.executable, "-m", "coxcodes.cli", *argv], env=env,
                              cwd=ROOT, stdin=subprocess.DEVNULL, capture_output=True,
                              timeout=limit - t0)
    except subprocess.TimeoutExpired:
        return perf_counter() - t0, None, b""
    return perf_counter() - t0, proc.returncode, proc.stdout


def group_order(family: str, n: int) -> int:
    import point

    return point.group_order(family, n)


@dataclass
class VerifyOp:
    check: str
    n: int
    golden: bytes

    @property
    def label(self) -> str:
        return f"verify.{self.check}.n{self.n}"

    @property
    def argv(self) -> list[str]:
        return ["verify", self.check, "--n", str(self.n), "--parallel", "1"]

    @property
    def elements(self) -> int:
        return json.loads(self.golden)["outputs"]["checked"]

    @property
    def order(self) -> int:
        doc = json.loads(self.golden)
        return group_order(doc["family"], doc["n"])

    def judge(self, returncode, stdout: bytes) -> bool:
        return returncode == 0 and stdout == self.golden


def golden_path(check: str, n: int) -> Path:
    return GOLDEN / f"{check}.n{n}.out"


def verify_ops(workload: str, seed: int) -> list[VerifyOp]:
    ops = [VerifyOp(check, n, golden_path(check, n).read_bytes())
           for check, n in VERIFY_WORKLOADS[workload]]
    random.Random(seed).shuffle(ops)
    return ops


def build_inputs(workload: str, seed: int):
    """The workload's inputs: verify ops with their golden bytes, or the
    first point rounds."""
    if workload == "point":
        import point

        gen = point.Generator(seed)
        return gen, [gen.round() for _ in range(POINT_MIN_ROUNDS)]
    return verify_ops(workload, seed)


def setup_seconds(workload: str, seed: int, env) -> float:
    """Median over fresh interpreters of importing coxcodes and building the
    workload's inputs; the first one also compiles the bytecode."""
    samples = []
    for _ in range(SETUP_REPEATS):
        t0 = perf_counter()
        subprocess.run([sys.executable, str(Path(__file__).resolve()), "--workload",
                        workload, "--seed", str(seed), "--setup-only"],
                       env=env, cwd=ROOT, stdin=subprocess.DEVNULL, check=True,
                       capture_output=True, timeout=RUN_LIMIT_S)
        samples.append(perf_counter() - t0)
    return statistics.median(samples)


def p90_ms(samples) -> float:
    return statistics.quantiles(samples, n=10, method="inclusive")[8] * 1e3


# -- untraced runs: every operation is a fresh `coxcodes` process ----------

def next_check(ops: list[VerifyOp], latencies, time_left: float) -> VerifyOp | None:
    """The first check with the fewest runs whose last run fits in the time left."""
    fitting = [op for op in ops if latencies[op.label][-1] <= time_left]
    return min(fitting, key=lambda op: len(latencies[op.label]), default=None)


def measure_verify(ops: list[VerifyOp], seconds: float, env) -> tuple[dict, int, int]:
    """One full round, then more runs, fewest-run checks first, while any
    check's last run still fits in the time left."""
    latencies: dict[str, list[float]] = {op.label: [] for op in ops}
    attempted = failed = 0
    deadline = perf_counter() + seconds
    limit = perf_counter() + RUN_LIMIT_S
    queue = list(ops)
    while True:
        op = queue.pop(0) if queue else next_check(ops, latencies, deadline - perf_counter())
        if op is None:
            break
        latency, code, out = run_cli(op.argv, env, limit)
        latencies[op.label].append(latency)
        attempted += 1
        if not op.judge(code, out):
            failed += 1
            print(f"# FAILED {' '.join(op.argv)} (exit {code})")
    medians = {label: statistics.median(s) for label, s in latencies.items()}
    for label, s in latencies.items():
        print(f"# {label}_s = {medians[label]:.4f} s (median of {len(s)})")
    wall = sum(medians.values())
    # The checks differ in size by 20x, so one command's latency is sampled
    # per complete round: the mean latency of the round's commands.
    rounds = min(len(s) for s in latencies.values())
    means = [statistics.fmean(s[k] for s in latencies.values()) for k in range(rounds)]
    print(f"# cmd latency samples: {rounds} complete rounds of {len(ops)} commands")
    metrics = {
        "wall_s": wall,
        "elements_per_s": sum(op.elements for op in ops) / wall,
        "cmd_p50_ms": statistics.median(means) * 1e3,
        "cmd_p90_ms": p90_ms(means) if rounds > 1 else means[0] * 1e3,
    }
    return metrics, attempted, failed


def measure_point(gen, rounds, seconds: float, env) -> tuple[dict, int, int]:
    """Closed loop, one client: whole rounds, at least POINT_MIN_ROUNDS."""
    latencies: list[float] = []
    round_walls: list[float] = []
    round_elements = 0
    attempted = failed = 0
    deadline = perf_counter() + seconds
    limit = perf_counter() + RUN_LIMIT_S
    last = 0.0
    while True:
        if len(round_walls) >= POINT_MIN_ROUNDS and perf_counter() + last > deadline:
            break
        cmds = rounds[len(round_walls)] if len(round_walls) < len(rounds) else gen.round()
        t_round = perf_counter()
        wall = 0.0
        for cmd in cmds:
            latency, code, out = run_cli(cmd.argv, env, limit)
            latencies.append(latency)
            wall += latency
            attempted += 1
            if not cmd.judge(code, out):
                failed += 1
                print(f"# FAILED {' '.join(cmd.argv)} (exit {code})")
        round_walls.append(wall)
        round_elements = sum(cmd.elements for cmd in cmds)
        last = perf_counter() - t_round
    p90 = p90_ms(latencies)
    beyond = sum(1 for x in latencies if x * 1e3 > p90)
    print(f"# cmd latency samples: {len(latencies)} commands, {beyond} beyond p90")
    wall = statistics.median(round_walls)
    metrics = {
        "wall_s": wall,
        "elements_per_s": round_elements / wall,
        "cmd_p50_ms": statistics.median(latencies) * 1e3,
        "cmd_p90_ms": p90,
    }
    return metrics, attempted, failed


def untraced(workload: str, seed: int, seconds: float) -> tuple[dict, int, int]:
    env = cli_env()
    inputs = build_inputs(workload, seed)
    setup = setup_seconds(workload, seed, env)
    if workload == "point":
        metrics, attempted, failed = measure_point(*inputs, seconds, env)
    else:
        metrics, attempted, failed = measure_verify(inputs, seconds, env)
    metrics["setup_s"] = setup
    # children's peak: every waited-for descendant, pool workers included
    peak_kb = resource.getrusage(resource.RUSAGE_CHILDREN).ru_maxrss
    metrics["peak_rss_mb"] = peak_kb / 1024
    return metrics, attempted, failed


# -- traced run: the same operations in-process, then the layer probe ------

def traced(workload: str, seed: int) -> tuple[dict, int, int]:
    from coxcodes import harness

    import probe
    import spans

    if workload == "point":
        _, rounds = build_inputs(workload, seed)
        ops = [(f"point.{cmd.kind}", cmd.argv, cmd.judge, cmd.order)
               for cmds in rounds for cmd in cmds]
    else:
        ops = [(op.label, op.argv, op.judge, op.order)
               for op in build_inputs(workload, seed)]
    # group elements the operations would enumerate in one pass each
    orders = sum(op[3] for op in ops)
    distance_table = harness.cayley_distance_table
    tracer = spans.Tracer()
    tracer.calibrate()
    attempted = failed = 0

    plain: dict[str, float] = {}
    timed: dict[str, float] = {}

    def run_op(label, argv, judge, walls, span) -> None:
        nonlocal attempted, failed
        # Each CLI verify is a new process, so a user pays for a cold
        # cayley_distance_table cache and fresh imports on every run; the
        # in-process run clears the cache to pay the same.
        distance_table.cache_clear()
        t0 = perf_counter()
        with span:
            code, out = probe.call_cli(argv)
        walls[label] = walls.get(label, 0.0) + perf_counter() - t0
        attempted += 1
        if not judge(code, out):
            failed += 1
            print(f"# FAILED in-process {' '.join(argv)} (exit {code})")

    # untraced and traced back to back, so that both see the same host load
    for label, argv, judge, _ in ops:
        run_op(label, argv, judge, plain, contextlib.nullcontext())
        tracer.install()
        try:
            run_op(label, argv, judge, timed, tracer.span(label))
        finally:
            tracer.uninstall()
    totals = tracer.totals(plain)
    self_sum = sum(rec[2] for rec in totals.values())
    m: dict[str, float] = {
        "trace.overhead_ratio": sum(timed.values()) / sum(plain.values()),
        "trace.self_coverage": self_sum / sum(plain.values()),
    }
    for prefix in MODULE_PREFIXES:
        own = sum(rec[2] for name, rec in totals.items() if name.split(".")[0] == prefix)
        m[f"{prefix}.self_share"] = own / self_sum if self_sum else 0.0

    def calls(name: str) -> int:
        return totals.get(name, [0])[0]

    m["harness.rank.calls"] = calls("harness.rank")
    items = totals.get("harness.enumerate_group", [0, 0, 0, 0])[3]
    m["harness.enumerate.passes_per_group"] = items / orders if orders else 0.0
    for module, validator in (("perm_a", "validate_code"), ("perm_b", "validate_code_b"),
                              ("perm_d", "validate_code_d")):
        decodes = sum(rec[0] for name, rec in totals.items()
                      if name.startswith(module + ".") and name.endswith("_decode"))
        m[f"{module}.{validator}.per_decode"] = (
            calls(f"{module}.{validator}") / decodes if decodes else 0.0)
    for label in plain:
        top = sorted(tracer.records[label].items(), key=lambda kv: -kv[1][2])[:4]
        detail = ", ".join(f"{name} {rec[2]:.3f}s" for name, rec in top)
        print(f"# span {label}: untraced {plain[label]:.3f}s traced {timed[label]:.3f}s;"
              f" self {detail}")

    p = probe.Probe(tracer, cli_env())
    m.update(p.run())
    return m, attempted + p.attempted, failed + p.failed


# -- entry point ------------------------------------------------------------

def source_digest() -> str:
    digest = hashlib.sha256()
    for path in sorted((SRC / "coxcodes").rglob("*.py")):
        digest.update(path.relative_to(SRC).as_posix().encode())
        digest.update(path.read_bytes())
    return digest.hexdigest()[:16]


def revision() -> str:
    if (ROOT / ".git").exists():
        proc = subprocess.run(["git", "-C", str(ROOT), "rev-parse", "HEAD"],
                              capture_output=True, text=True, timeout=30)
        if proc.returncode == 0:
            return proc.stdout.strip()
    return "unknown"


def metadata(args) -> dict:
    return {
        "workload": args.workload,
        "seed": args.seed,
        "seconds": args.seconds,
        "trace": args.trace,
        "python": platform.python_version(),
        "cpu_count": os.cpu_count(),
        "revision": revision(),
        "source_sha256": source_digest(),
        "numpy": importlib.util.find_spec("numpy") is not None,
    }


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", choices=WORKLOADS, required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, default=35)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--setup-only", action="store_true", help=argparse.SUPPRESS)
    args = parser.parse_args(argv)
    if not (SRC / "coxcodes" / "__init__.py").is_file() or not SPEC.is_file():
        print(f"error: {ROOT} needs src/coxcodes/ and BENCHMARK.json to run",
              file=sys.stderr)
        return 2
    sys.path.insert(0, str(SRC))
    if args.setup_only:
        import coxcodes.cli  # noqa: F401  (what every CLI run imports)

        build_inputs(args.workload, args.seed)
        return 0
    import coxcodes

    if Path(coxcodes.__file__).resolve().parent != SRC / "coxcodes":
        print(f"error: imported coxcodes from {coxcodes.__file__}", file=sys.stderr)
        return 2
    declared = json.loads(SPEC.read_text())["per_layer" if args.trace else "end_to_end"]
    print("# meta " + json.dumps(metadata(args)))
    if args.trace:
        metrics, attempted, failed = traced(args.workload, args.seed)
    else:
        metrics, attempted, failed = untraced(args.workload, args.seed, args.seconds)
    names = [spec["name"] for spec in declared]
    if set(names) != set(metrics):
        print(f"error: metrics differ from BENCHMARK.json: {sorted(set(names) ^ set(metrics))}",
              file=sys.stderr)
        return 1
    print(f"# failed_share = {failed / attempted:.6g} ({failed} of {attempted})")
    result = {}
    for spec in declared:
        value = metrics[spec["name"]]
        print(f"# {spec['name']} = {value:.6g} {spec['unit']}")
        result[spec["name"]] = {"value": value, "unit": spec["unit"]}
    print(json.dumps({"correct": failed == 0, "attempted": attempted, "failed": failed,
                      "metrics": result}))
    return 0


if __name__ == "__main__":
    sys.exit(main())
