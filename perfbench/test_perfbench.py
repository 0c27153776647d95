"""Tests of the benchmark itself: failures are counted, references agree.

    python3 -m pytest perfbench
"""

import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent
sys.path[:0] = [str(HERE), str(HERE.parent / "src")]

from coxcodes import harness  # noqa: E402

import point  # noqa: E402
import probe  # noqa: E402
import run  # noqa: E402
import spans  # noqa: E402


def far() -> float:
    return run.perf_counter() + 120


def flip_one_byte(data: bytes) -> bytes:
    """The same document with one letter of the family name changed."""
    i = data.index(b'"family": "') + len(b'"family": "')
    return data[:i] + b"X" + data[i + 1:]


def small_ops(env) -> list[run.VerifyOp]:
    ops = []
    for check in ("codes-a", "codes-d"):
        op = run.VerifyOp(check, 3, b"")
        _, code, out = run.run_cli(op.argv, env, far())
        assert code == 0 and b'"passed": true' in out
        op.golden = out
        ops.append(op)
    return ops


def test_changed_byte_is_a_failed_operation():
    env = run.cli_env()
    ops = small_ops(env)
    _, attempted, failed = run.measure_verify(ops, 0, env)
    assert (attempted, failed) == (2, 0)
    ops[1].golden = flip_one_byte(ops[1].golden)
    _, attempted, failed = run.measure_verify(ops, 0, env)
    assert (attempted, failed) == (2, 1)


def test_verify_judge_checks_exit_code_and_bytes():
    golden = run.golden_path("type-d-transport", 6).read_bytes()
    op = run.VerifyOp("type-d-transport", 6, golden)
    assert op.judge(0, golden)
    assert not op.judge(1, golden)
    assert not op.judge(None, golden)
    assert not op.judge(0, flip_one_byte(golden))
    assert not op.judge(0, golden + b"\n")


def test_killed_run_is_a_failed_operation():
    latency, code, out = run.run_cli(["verify", "type-d-mahonian", "--n", "7"],
                                     run.cli_env(), run.perf_counter() + 0.3)
    assert code is None and out == b"" and latency < 5
    op = run.VerifyOp("type-d-mahonian", 7, run.golden_path("type-d-mahonian", 7).read_bytes())
    assert not op.judge(code, out)


def test_point_exit_codes_are_judged():
    gen = point.Generator(7)
    env = run.cli_env()
    for how in ("length", "member", "odd", "range"):
        cmd = gen.malformed(how)
        _, code, out = run.run_cli(cmd.argv, env, far())
        assert cmd.judge(code, out), cmd.argv
        assert not cmd.judge(0, out)
        assert not cmd.judge(1, out)
        assert not cmd.judge(2, b"{}\n")
    cmd = gen.stats("B")
    _, code, out = run.run_cli(cmd.argv, env, far())
    assert cmd.judge(code, out)
    assert not cmd.judge(2, out)
    assert not cmd.judge(code, flip_one_byte(out))


def test_wrong_exit_code_on_point_is_a_failed_operation():
    reject = point.Generator(8).malformed("odd")
    # the same command, wrongly expected to succeed
    wrong = point.Command("stats", reject.argv, expect=lambda: b"", elements=1)
    rounds = [[reject, wrong]] * run.POINT_MIN_ROUNDS
    _, attempted, failed = run.measure_point(None, rounds, 0, run.cli_env())
    assert (attempted, failed) == (2 * run.POINT_MIN_ROUNDS, run.POINT_MIN_ROUNDS)


def test_point_references_match_the_cli_for_a_round():
    gen = point.Generator(3)
    for _ in range(2):
        cmds = gen.round()
        assert len(cmds) == 42
        assert sum(cmd.expect is None for cmd in cmds) == 5
        for cmd in cmds:
            code, out = probe.call_cli(cmd.argv)
            assert cmd.judge(code, out), cmd.argv


def test_same_seed_same_inputs():
    first = [c.argv for c in point.Generator(5).round()]
    assert first == [c.argv for c in point.Generator(5).round()]
    assert first != [c.argv for c in point.Generator(6).round()]
    assert ([op.label for op in run.verify_ops("sweep", 1)]
            == [op.label for op in run.verify_ops("sweep", 1)])


def test_tracer_counts_and_restores():
    original_rank = harness.rank
    original_stat = harness.INTEGER_STATISTICS["B"]["inv_B"]
    tracer = spans.Tracer()
    tracer.calibrate(calls=2000, repeats=3)
    tracer.install()
    try:
        assert harness.rank is not original_rank
        with tracer.span("s"):
            code, out = probe.call_cli(["verify", "oracle-length-b", "--n", "3"])
    finally:
        tracer.uninstall()
    assert code == 0 and b'"passed": true' in out
    assert harness.rank is original_rank
    assert harness.INTEGER_STATISTICS["B"]["inv_B"] is original_stat
    rec = tracer.records["s"]
    assert rec["harness.enumerate_group"][3] == harness.group_order("B", 3)
    assert rec["perm_b.compose"][0] == 48 * 3  # three simple generators
    assert rec["harness.rank"][0] == 1 + 48 * 3 + 48
