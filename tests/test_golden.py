"""Byte-identity of the transport-workload reports.

Replays, in-process through ``cli.main``, each ``coxcodes verify`` run whose
stdout the benchmark keeps in ``perfbench/golden/`` for its transport
workload, and compares the bytes.  These runs cover ranking, the code
encoders and decoders, the bijections and the BFS oracles.
"""

import contextlib
import io
from pathlib import Path

import pytest

from coxcodes import cli

GOLDEN = Path(__file__).resolve().parent.parent / "perfbench" / "golden"

TRANSPORT = [
    ("type-a-transport", 8),
    ("type-b-transport", 6),
    ("type-d-transport", 6),
    ("codes-b", 6),
    ("codes-d", 6),
    ("oracle-length-b", 6),
    ("oracle-reflection-length-b", 5),
]


@pytest.mark.parametrize("check, n", TRANSPORT)
def test_transport_golden(check, n):
    expected = (GOLDEN / f"{check}.n{n}.out").read_bytes()
    out = io.StringIO()
    with contextlib.redirect_stdout(out):
        code = cli.main(["verify", check, "--n", str(n), "--parallel", "1"])
    assert code == 0
    assert out.getvalue().encode() == expected
