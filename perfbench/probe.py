"""The layer probe: per-layer measurements that every traced run repeats.

It times, untraced, each registry statistic, code encoder and decoder,
bijection, `rank`, `unrank`, `enumerate_group` and `QT` operation over the
whole groups A7, B6 and D6; the BFS tables; the process pool; and the CLI
in-process and at interpreter start.  With the tracer it counts the BFS's
compose and rank calls and the self time of `joint_distribution`.  Every
result it times is also checked, and a wrong one is a failed operation.
"""

from __future__ import annotations

import contextlib
import io
import statistics
import subprocess
import sys
from time import perf_counter

from coxcodes import cli, harness, qpoly

import point

MICRO_GROUPS = (("A", 7), ("B", 6), ("D", 6))

# registry name -> metric name, by the Python function behind it
STATISTICS = {
    "A": {
        "inv": "perm_a.inv", "sor": "perm_a.sor", "cyc": "perm_a.cyc",
        "rl-min": "perm_a.rl_min", "lr-max": "perm_a.lr_max", "nmin": "perm_a.nmin",
        "Cyc": "perm_a.cyc_set", "Lmap": "perm_a.lmap_set", "Rmil": "perm_a.rmil_set",
    },
    "B": {
        "inv_B": "perm_b.inv_b", "sor_B": "perm_b.sor_b", "nmin_B": "perm_b.nmin_b",
        "nmax_B": "perm_b.nmax_b", "l'_B": "perm_b.reflection_length_b",
        "cyc_B": "perm_b.cyc_b", "N": "perm_b.neg_count", "rl-min_B": "perm_b.rl_min_b",
        "lr-max_B": "perm_b.lr_max_b", "Cyc_B": "perm_b.cyc_b_set",
        "Lmap_B": "perm_b.lmap_b_set", "Rmil_B": "perm_b.rmil_b_set",
    },
    "D": {
        "inv_D": "perm_d.inv_d", "sor_D": "perm_d.sor_d", "sor'_D": "perm_d.sor_d_prime",
        "nmin_D": "perm_d.nmin_d", "lt'_D": "perm_d.reflection_length_d",
    },
}

BIJECTION_METRICS = {
    "phi": ("perm_a.phi", "perm_a.phi_inverse"),
    "psi": ("perm_b.psi", "perm_b.psi_inverse"),
    "rho": ("perm_d.rho", "perm_d.rho_inverse"),
}

# (family, n, generating set, metric infix); groups small enough to repeat
BFS_TABLES = (
    ("B", 5, "T^B", "B5.TB"),
    ("B", 5, "S^B", "B5.SB"),
    ("D", 5, "T^D", "D5.TD"),
    ("D", 5, "S^D", "D5.SD"),
)

CLI_CASES = {
    "stats": (["stats", "--family", "B", "5 -4 -3 1 -2 8 -7 6"], 0),
    "code": (["code", "encode", "bcode", "--family", "B", "3 -1 -6 -5 4 2 8 -7"], 0),
    "map": (["map", "psi", "2 -4 5 1 -3 7 -6 8"], 0),
    "table": (["table", "inv_B", "nmin_B", "--family", "B", "--n", "4"], 0),
    "verify": (["verify", "codes-b", "--n", "4"], 0),
    "reject": (["stats", "--family", "D", "-1 2 3"], 2),
}

IMPORT_TIMER = (
    "import time; t = time.perf_counter(); import coxcodes.cli; "
    "print(time.perf_counter() - t)"
)


def per_call(fn, inputs):
    """Microseconds per call of fn over inputs, and the outputs."""
    t0 = perf_counter()
    out = [fn(x) for x in inputs]
    return (perf_counter() - t0) * 1e6 / len(out), out


def median_seconds(fn, repeats: int, inner: int = 1) -> float:
    samples = []
    for _ in range(repeats):
        t0 = perf_counter()
        for _ in range(inner):
            fn()
        samples.append((perf_counter() - t0) / inner)
    return statistics.median(samples)


def call_cli(argv) -> tuple[int, bytes]:
    """cli.main in this process, with stdout captured as the CLI writes it."""
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        code = cli.main(list(argv))
    return code, out.getvalue().encode()


class Probe:
    def __init__(self, tracer, env):
        self.tracer = tracer
        self.env = env
        self.metrics: dict[str, float] = {}
        self.attempted = 0
        self.failed = 0
        # the lru_cache object itself, whatever the tracer puts in its place
        self.distance_table = harness.cayley_distance_table

    def expect(self, ok: bool, what: str) -> None:
        self.attempted += 1
        if not ok:
            self.failed += 1
            print(f"# probe check failed: {what}")

    def run(self) -> dict[str, float]:
        for family, n in MICRO_GROUPS:
            self.micro(family, n)
        self.pool_and_qpoly()
        self.traced_counts()
        self.bfs()
        self.cli()
        return self.metrics

    def micro(self, family: str, n: int) -> None:
        m = self.metrics
        order = harness.group_order(family, n)
        t0 = perf_counter()
        elements = list(harness.enumerate_group(family, n))
        m[f"harness.enumerate_group.{family}_us"] = (perf_counter() - t0) * 1e6 / order
        self.expect(len(set(elements)) == order, f"enumerate_group {family}{n}")
        us, unranked = per_call(lambda r: harness.unrank(family, n, r), range(order))
        m[f"harness.unrank.{family}_us"] = us
        self.expect(unranked == elements, f"unrank {family}{n}")
        us, ranks = per_call(lambda el: harness.rank(family, n, el), elements)
        m[f"harness.rank.{family}_us"] = us
        self.expect(ranks == list(range(order)), f"rank {family}{n}")
        ints = set(harness.integer_statistic_names(family))
        for key, metric in STATISTICS[family].items():
            resolve = harness.integer_statistic if key in ints else harness.set_statistic
            m[f"{metric}.us"], _ = per_call(resolve(family, key)[1], elements)
        for (code, fam), (module, enc, dec) in point.CODERS.items():
            if fam != family:
                continue
            encode, decode = point.coder(code, fam)
            m[f"{module}.{enc}.us"], codes = per_call(encode, elements)
            m[f"{module}.{dec}.us"], back = per_call(decode, codes)
            self.expect(back == elements, f"{dec}({enc}) on {family}{n}")
        for name, (forward, backward) in BIJECTION_METRICS.items():
            fam, func, inv_func = harness.BIJECTIONS[name][:3]
            if fam != family:
                continue
            m[f"{forward}.us"], images = per_call(func, elements)
            m[f"{backward}.us"], back = per_call(inv_func, images)
            self.expect(back == elements and set(images) == set(elements),
                        f"{name} on {family}{n}")

    def pool_and_qpoly(self) -> None:
        m = self.metrics
        # a sweep small enough that starting and stopping the pool is the cost
        m["harness.pool.startup_s"] = median_seconds(
            lambda: harness.joint_distribution("B", 3, "inv_B", "nmin_B", workers=2), 3
        )
        # one and two workers on the same sweep, alternated, medians of three
        walls: dict[int, list[float]] = {1: [], 2: []}
        results = []
        for _ in range(3):
            for workers in (1, 2):
                t0 = perf_counter()
                results.append(harness.joint_distribution("B", 6, "inv_B", "nmin_B",
                                                          workers=workers))
                walls[workers].append(perf_counter() - t0)
        m["harness.pool.efficiency"] = (
            statistics.median(walls[1]) / (2 * statistics.median(walls[2])))
        one = results[0]
        self.expect(all(r == qpoly.gf_type_b(6) for r in results), "joint(inv_B, nmin_B) on B6")
        terms = {(q, t): c for q, t, c in one.terms()}
        m["qpoly.QT.init_us"] = median_seconds(lambda: qpoly.QT(terms), 5, 200) * 1e6
        m["qpoly.QT.add_us"] = median_seconds(lambda: one + one, 5, 200) * 1e6
        big = qpoly.gf_type_b(7)
        m["qpoly.QT.text_ms"] = median_seconds(big.text, 5, 10) * 1e3
        for name, n in (("gf_type_a", 8), ("gf_type_b", 7),
                        ("gf_type_d_bivariate", 7), ("gf_type_d_univariate", 7)):
            fn = getattr(qpoly, name)
            m[f"qpoly.{name}.ms"] = median_seconds(lambda: fn(n), 5, 3) * 1e3

    def traced_counts(self) -> None:
        """Self time of the accumulation layer, and the BFS's call counts."""
        tracer, m = self.tracer, self.metrics
        order = harness.group_order("B", 6)
        # the self time left is a fraction of the wrapper cost taken out, so
        # measure that cost again now and keep the median of three sweeps
        tracer.calibrate()
        own = []
        for _ in range(3):
            tracer.install()
            try:
                with tracer.span("probe.joint"):
                    harness.joint_distribution("B", 6, "inv_B", "nmin_B")
            finally:
                tracer.uninstall()
            joint = tracer.records.pop("probe.joint")
            own.append(sum(joint[k][2] for k in ("harness.joint_distribution",
                                                  "harness._joint_terms") if k in joint))
        m["harness.joint_distribution.self_us"] = statistics.median(own) * 1e6 / order
        self.distance_table.cache_clear()
        tracer.install()
        try:
            with tracer.span("probe.bfs"):
                table = harness.cayley_distance_table("B", 5, "T^B")
        finally:
            tracer.uninstall()
        bfs = tracer.records.pop("probe.bfs")
        compose = sum(rec[0] for name, rec in bfs.items() if name.endswith(".compose"))
        discovered = sum(1 for d in table if d > 0)
        m["harness.bfs.compose_calls"] = compose
        m["harness.bfs.rank_calls"] = bfs.get("harness.rank", [0])[0]
        m["harness.bfs.discovery_ratio"] = discovered / compose if compose else 0.0
        self.expect(discovered == harness.group_order("B", 5) - 1, "BFS reaches B5")

    def bfs(self) -> None:
        for family, n, set_name, infix in BFS_TABLES:
            self.distance_table.cache_clear()
            t0 = perf_counter()
            table = self.distance_table(family, n, set_name)
            self.metrics[f"harness.cayley_distance_table.{infix}_s"] = perf_counter() - t0
            identity = harness.rank(family, n, tuple(range(1, n + 1)))
            self.expect(
                len(table) == harness.group_order(family, n)
                and table[identity] == 0 and table.count(0) == 1 and min(table) == 0,
                f"cayley_distance_table {family}{n} {set_name}",
            )
        self.distance_table.cache_clear()

    def _spawn(self, code: str) -> tuple[float, bytes]:
        """Wall time of a fresh interpreter running code, and its stdout."""
        t0 = perf_counter()
        proc = subprocess.run([sys.executable, "-c", code], env=self.env,
                              stdin=subprocess.DEVNULL, capture_output=True,
                              timeout=60, check=True)
        return perf_counter() - t0, proc.stdout

    def cli(self) -> None:
        m = self.metrics
        m["python.startup_ms"] = statistics.median(
            self._spawn("pass")[0] for _ in range(7)) * 1e3
        m["cli.import_ms"] = statistics.median(
            float(self._spawn(IMPORT_TIMER)[1]) for _ in range(5)) * 1e3
        for name, (argv, code) in CLI_CASES.items():
            results = []

            def once():
                results.append(call_cli(argv))

            once()
            m[f"cli.{name}_ms"] = median_seconds(once, 7) * 1e3
            ok = all(rc == code and (out == b"") == (code == 2) for rc, out in results)
            self.expect(ok and len({out for _, out in results}) == 1, f"cli {name}")
