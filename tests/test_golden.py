"""Byte-identity of the benchmark's verify reports and of a CLI corpus.

Replays, in-process through ``cli.main``, each ``coxcodes verify`` run whose
stdout the benchmark keeps in ``perfbench/golden/`` for its sweep and
transport workloads, and compares the bytes.  The sweep runs cover
enumeration, every statistic kernel and accumulation; the transport runs
cover ranking, the code encoders and decoders, the bijections and the BFS
oracles.

``cli_corpus.json`` holds the exit code and stdout of single-element
commands (``stats``, ``code``, ``map``), captured before the type-A kernels
were served by the signed ones; each entry is replayed and compared byte for
byte.
"""

import contextlib
import io
import json
from collections import Counter
from pathlib import Path

import pytest

from coxcodes import cli, harness

GOLDEN = Path(__file__).resolve().parent.parent / "perfbench" / "golden"
CORPUS = json.loads((Path(__file__).resolve().parent / "cli_corpus.json").read_text())

SWEEP = [
    ("type-a-gf", 8),
    ("type-a-four-pairs", 8),
    ("type-b-four-pairs", 6),
    ("type-b-set-pairs", 5),
    ("type-d-mahonian", 7),
]

TRANSPORT = [
    ("type-a-transport", 8),
    ("type-b-transport", 6),
    ("type-d-transport", 6),
    ("codes-b", 6),
    ("codes-d", 6),
    ("oracle-length-b", 6),
    ("oracle-reflection-length-b", 5),
]


def run_cli(argv):
    out = io.StringIO()
    with contextlib.redirect_stdout(out):
        code = cli.main(list(argv))
    return code, out.getvalue()


def replay_golden(check, n):
    expected = (GOLDEN / f"{check}.n{n}.out").read_bytes()
    code, out = run_cli(["verify", check, "--n", str(n), "--parallel", "1"])
    assert code == 0
    assert out.encode() == expected


@pytest.mark.parametrize("check, n", SWEEP)
def test_sweep_golden(check, n):
    replay_golden(check, n)


@pytest.mark.parametrize("check, n", TRANSPORT)
def test_transport_golden(check, n):
    replay_golden(check, n)


def test_cli_corpus_covers_every_family_code_and_bijection():
    argvs = [e["argv"] for e in CORPUS]
    stats = Counter((a[2], a[4]) for a in argvs if a[0] == "stats")
    assert stats == {(f, fmt): 3 for f in harness.FAMILIES for fmt in ("json", "text")}
    codes = {tuple(a[1:5]) for a in argvs if a[0] == "code"}
    assert codes == {
        (direction, label, "--family", family)
        for family, pairs in harness._CODE_PAIRS.items()
        for label, _, _ in pairs
        for direction in ("encode", "decode")
    }
    maps = {(a[1], "--inverse" in a) for a in argvs if a[0] == "map"}
    assert maps == {(b, inv) for b in harness.BIJECTIONS for inv in (False, True)}


def test_cli_corpus():
    mismatched = [
        e["argv"] for e in CORPUS if run_cli(e["argv"]) != (e["exit"], e["stdout"])
    ]
    assert mismatched == []
