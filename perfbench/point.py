"""The `point` workload: single-element CLI commands and their expected output.

Every round has the same make-up, so that latency percentiles and
elements/s compare across seeds; the seed picks the families, ranks,
elements, statistics and the order of the commands.  Expected outputs are
built in-process from the library's public functions, never from another
CLI run.  A malformed command must exit 2 with empty stdout.
"""

from __future__ import annotations

import json
import random
from dataclasses import dataclass

from coxcodes import harness, perm_a, perm_b, perm_d

MODULES = {"perm_a": perm_a, "perm_b": perm_b, "perm_d": perm_d}

# CLI `stats` key order, pinned here so that a change in output bytes shows
STATS_KEYS = {
    "A": (["inv", "sor", "cyc", "rl-min", "lr-max", "nmin"], ["Cyc", "Lmap", "Rmil"]),
    "B": (
        ["inv_B", "sor_B", "l'_B", "cyc_B", "nmin_B", "nmax_B", "rl-min_B",
         "lr-max_B", "N"],
        ["Cyc_B", "Lmap_B", "Rmil_B"],
    ),
    "D": (["inv_D", "sor_D", "sor'_D", "nmin_D", "lt'_D", "N"], []),
}

# (code family, group) -> (module, encoder, decoder), by public name
CODERS = {
    ("lehmer", "A"): ("perm_a", "lehmer_encode", "lehmer_decode"),
    ("acode", "A"): ("perm_a", "acode_encode", "acode_decode"),
    ("bcode", "A"): ("perm_a", "bcode_encode", "bcode_decode"),
    ("lehmer", "B"): ("perm_b", "lehmer_b_encode", "lehmer_b_decode"),
    ("acode", "B"): ("perm_b", "acode_b_encode", "acode_b_decode"),
    ("bcode", "B"): ("perm_b", "bcode_b_encode", "bcode_b_decode"),
    ("ecode", "D"): ("perm_d", "ecode_encode", "ecode_decode"),
    ("fcode", "D"): ("perm_d", "fcode_encode", "fcode_decode"),
}

CODE_PAIR_COUNT = {"A": 3, "B": 3, "D": 2}
TABLE_N = 4
VERIFY_N = 4


def group_order(family: str, n: int) -> int:
    size = 1
    for i in range(2, n + 1):
        size *= i
    if family == "B":
        size <<= n
    elif family == "D":
        size <<= n - 1
    return size


def coder(code: str, family: str):
    module, enc, dec = CODERS[(code, family)]
    return getattr(MODULES[module], enc), getattr(MODULES[module], dec)


def _word(values) -> str:
    return " ".join(str(v) for v in values)


def _document(family, n, inputs, outputs, status="ok") -> bytes:
    doc = {"family": family, "n": n, "inputs": inputs, "outputs": outputs,
           "status": status}
    return (json.dumps(doc, indent=2) + "\n").encode()


@dataclass
class Command:
    """One CLI invocation; `expect` builds the exact stdout bytes, or is
    None for a malformed command, which must exit 2 with empty stdout."""

    kind: str
    argv: list[str]
    expect: object = None
    elements: int = 0
    order: int = 0  # size of the group the command enumerates, if any

    def judge(self, returncode, stdout: bytes) -> bool:
        if self.expect is None:
            return returncode == 2 and stdout == b""
        try:
            wanted = self.expect()
        except (ValueError, KeyError):
            return False
        return returncode == 0 and stdout == wanted


class Generator:
    """Rounds of point commands drawn from one seed."""

    def __init__(self, seed: int):
        self.rng = random.Random(seed)

    # -- inputs, built without the library so that member checks are ours
    def element(self, family: str, n: int) -> tuple[int, ...]:
        word = list(range(1, n + 1))
        self.rng.shuffle(word)
        if family == "A":
            return tuple(word)
        word = [-v if self.rng.random() < 0.5 else v for v in word]
        if family == "D" and sum(v < 0 for v in word) % 2:
            word[0] = -word[0]
        return tuple(word)

    def code(self, family: str, n: int) -> tuple[int, ...]:
        out = []
        for i in range(1, n + 1):
            c = self.rng.randint(1, i)
            if family != "A" and not (family == "D" and i == 1):
                c = c if self.rng.random() < 0.5 else -c
            out.append(c)
        return tuple(out)

    def rank(self) -> int:
        return self.rng.randint(3, 8)

    # -- commands
    def stats(self, family: str) -> Command:
        el = self.element(family, self.rank())

        def expect():
            ints, sets = STATS_KEYS[family]
            record = {}
            for key in ints:
                # N of a D element is the signed count of family B
                fam = "B" if key == "N" else family
                record[key] = harness.integer_statistic(fam, key)[1](el)
            for key in sets:
                record[key] = sorted(harness.set_statistic(family, key)[1](el))
            return _document(family, len(el), {"element": list(el)}, record)

        return Command("stats", ["stats", "--family", family, _word(el)], expect, 1)

    def encode(self, code: str, family: str) -> Command:
        el = self.element(family, self.rank())

        def expect():
            enc, dec = coder(code, family)
            result = enc(el)
            if dec(result) != el:
                raise ValueError("encode does not round-trip")
            inputs = {"direction": "encode", "code_family": code, "element": list(el)}
            return _document(family, len(el), inputs, {"code": list(result)})

        argv = ["code", "encode", code, "--family", family, _word(el)]
        return Command("code", argv, expect, 1)

    def decode(self, code: str, family: str) -> Command:
        values = self.code(family, self.rank())

        def expect():
            enc, dec = coder(code, family)
            result = dec(values)
            if enc(result) != values:
                raise ValueError("decode does not round-trip")
            inputs = {"direction": "decode", "code_family": code, "code": list(values)}
            return _document(family, len(values), inputs, {"element": list(result)})

        argv = ["code", "decode", code, "--family", family, _word(values)]
        return Command("code", argv, expect, 1)

    def map(self, bijection: str, inverse: bool) -> Command:
        family = harness.BIJECTIONS[bijection][0]
        el = self.element(family, self.rank())

        def expect():
            _, func, inv_func, int_pairs, set_pairs = harness.BIJECTIONS[bijection]
            image = inv_func(el) if inverse else func(el)
            if (func(image) if inverse else inv_func(image)) != el:
                raise ValueError("bijection does not round-trip")
            source, target = {}, {}
            for pairs, resolve, wrap in (
                (int_pairs, harness.integer_statistic, lambda v: v),
                (set_pairs, harness.set_statistic, sorted),
            ):
                for a, b in pairs:
                    if inverse:
                        a, b = b, a
                    source[a] = wrap(resolve(family, a)[1](el))
                    target[b] = wrap(resolve(family, b)[1](image))
            inputs = {"bijection": bijection, "inverse": inverse, "element": list(el)}
            outputs = {"image": list(image), "source_statistics": source,
                       "image_statistics": target}
            return _document(family, len(el), inputs, outputs)

        argv = ["map", bijection] + (["--inverse"] if inverse else []) + [_word(el)]
        return Command("map", argv, expect, 1)

    def table(self, family: str) -> Command:
        names = harness.integer_statistic_names(family)
        stat1, stat2 = self.rng.sample(names, 2)

        def expect():
            dist = harness.joint_distribution(family, TABLE_N, stat1, stat2)
            outputs = {
                "terms": [{"q": q, "t": t, "count": c} for q, t, c in dist.terms()],
                "text": dist.text(),
            }
            inputs = {"stat1": stat1, "stat2": stat2}
            return _document(family, TABLE_N, inputs, outputs)

        argv = ["table", stat1, stat2, "--family", family, "--n", str(TABLE_N)]
        order = group_order(family, TABLE_N)
        return Command("table", argv, expect, order, order)

    def verify(self, family: str) -> Command:
        check = f"codes-{family.lower()}"
        # every code of the product domain and every element, once per pair
        checked = 2 * group_order(family, VERIFY_N) * CODE_PAIR_COUNT[family]

        def expect():
            report = {"check": check, "family": family, "n": VERIFY_N,
                      "passed": True, "checked": checked,
                      "counterexample": None, "details": {}}
            inputs = {"check": check, "workers": 1}
            return _document(family, VERIFY_N, inputs, report, "verified")

        argv = ["verify", check, "--n", str(VERIFY_N)]
        return Command("verify", argv, expect, checked, group_order(family, VERIFY_N))

    def malformed(self, how: str) -> Command:
        n = self.rank()
        if how == "length":
            family = self.rng.choice("ABD")
            el = self.element(family, n)
            argv = ["stats", "--family", family, "--n", str(n + 1), _word(el)]
        elif how == "member":
            family = self.rng.choice("AB")
            el = list(self.element(family, n))
            el[self.rng.randrange(1, n)] = el[0]
            argv = ["stats", "--family", family, _word(el)]
        elif how == "odd":
            el = list(self.element("D", n))
            el[0] = -el[0]
            argv = self.rng.choice([
                ["stats", "--family", "D"],
                ["code", "encode", "ecode"],
                ["map", "rho"],
            ]) + [_word(el)]
        else:  # an out-of-range code entry
            code, family = self.rng.choice(sorted(CODERS))
            values = list(self.code(family, n))
            i = self.rng.randrange(1, n)
            values[i] = i + 2
            argv = ["code", "decode", code, "--family", family, _word(values)]
        return Command("reject", argv)

    def round(self) -> list[Command]:
        """One round: 42 commands in a fixed mix, shuffled."""
        cmds = [self.stats(f) for f in "ABD" for _ in range(3)]
        for code, family in sorted(CODERS):
            cmds.append(self.encode(code, family))
            cmds.append(self.decode(code, family))
        for bijection in ("phi", "psi", "rho"):
            cmds.append(self.map(bijection, False))
            cmds.append(self.map(bijection, True))
        cmds += [self.table(f) for f in "ABD"]
        cmds += [self.verify(f) for f in "ABD"]
        kinds = ["length", "member", "odd", "range"]
        kinds.append(self.rng.choice(kinds))
        cmds += [self.malformed(how) for how in kinds]
        self.rng.shuffle(cmds)
        return cmds
