"""Command line interface.

Subcommands: stats, code, map, verify, table.  Every run prints one result
document (JSON by default) built with a fixed key order, so output bytes are
deterministic for fixed inputs.  Exit codes: 0 success or verified, 1 a
verify run falsified the claim, 2 usage or parse errors.

Elements and codes are written as whitespace- or comma-separated signed
integers, 1-based, with a minus sign for barred letters: "5 -4 -3 1 -2".
"""

from __future__ import annotations

import argparse
import json
import sys

from . import harness, perm_a, perm_b, perm_d

CODE_FAMILIES = sorted(
    {label for pairs in harness._CODE_PAIRS.values() for label, _, _ in pairs}
)

_VALIDATORS = {
    "A": perm_a.validate_permutation,
    "B": perm_b.validate_signed,
    "D": perm_d.validate_even_signed,
}

# `stats` output keys per family, integer statistics then set statistics;
# D's N is the bar count, a statistic of family B
_STATS_KEYS = {
    "A": (("inv", "sor", "cyc", "rl-min", "lr-max", "nmin"), ("Cyc", "Lmap", "Rmil")),
    "B": (
        ("inv_B", "sor_B", "l'_B", "cyc_B", "nmin_B", "nmax_B", "rl-min_B",
         "lr-max_B", "N"),
        ("Cyc_B", "Lmap_B", "Rmil_B"),
    ),
    "D": (("inv_D", "sor_D", "sor'_D", "nmin_D", "lt'_D", "N"), ()),
}


def _parse_ints(text: str, what: str) -> tuple[int, ...]:
    tokens = text.replace(",", " ").split()
    if not tokens:
        raise ValueError(f"empty {what}")
    out = []
    for tok in tokens:
        try:
            out.append(int(tok))
        except ValueError:
            raise ValueError(f"invalid integer token {tok!r} in {what}") from None
    return tuple(out)


def _payload(args, what: str) -> str:
    if args.payload is not None:
        return args.payload
    text = sys.stdin.read()
    if not text.strip():
        raise ValueError(f"no {what} given (argument or stdin)")
    return text


def _coders(code_family: str) -> dict[str, tuple]:
    """Group -> (encoder, decoder) of a code family, in registry order.

    Read from the harness registry per call, so that wrappers put on its
    entries take effect.
    """
    return {
        family: (encode, decode)
        for family, pairs in harness._CODE_PAIRS.items()
        for label, encode, decode in pairs
        if label == code_family
    }


def _check_n(args, length: int) -> None:
    if args.n is not None and args.n != length:
        raise ValueError(f"--n {args.n} does not match input length {length}")


def _document(family, n, inputs, outputs, status="ok"):
    return {
        "family": family,
        "n": n,
        "inputs": inputs,
        "outputs": outputs,
        "status": status,
    }


def _emit(doc, args, text_lines):
    if args.format == "csv":
        raise ValueError("csv format is only available for the table command")
    if args.format == "text":
        for line in text_lines:
            print(line)
    else:
        print(json.dumps(doc, indent=2))


def _fmt_word(values) -> str:
    return " ".join(str(v) for v in values)


def _stats_record(family: str, el: tuple[int, ...]) -> dict:
    ints, sets = _STATS_KEYS[family]
    record = {}
    for key in ints:
        _, stat = harness.integer_statistic("B" if key == "N" else family, key)
        record[key] = stat(el)
    for key in sets:
        record[key] = sorted(harness.set_statistic(family, key)[1](el))
    return record


def cmd_stats(args) -> int:
    if args.family is None:
        raise ValueError("stats needs --family (A, B, or D)")
    el = _VALIDATORS[args.family](_parse_ints(_payload(args, "element"), "element"))
    _check_n(args, len(el))
    record = _stats_record(args.family, el)
    doc = _document(args.family, len(el), {"element": list(el)}, record)
    lines = [f"family {args.family}, n = {len(el)}, element {_fmt_word(el)}"]
    for key, value in record.items():
        if isinstance(value, list):
            lines.append(f"{key} = {{{', '.join(str(v) for v in value)}}}")
        else:
            lines.append(f"{key} = {value}")
    _emit(doc, args, lines)
    return 0


def cmd_code(args) -> int:
    coders = _coders(args.code_family)
    allowed = tuple(coders)
    family = args.family
    if family is None:
        if len(allowed) == 1:
            family = allowed[0]
        else:
            raise ValueError(
                f"{args.code_family} needs --family ({' or '.join(allowed)})"
            )
    if family not in allowed:
        raise ValueError(
            f"{args.code_family} is defined for family {' or '.join(allowed)}, not {family}"
        )
    encode, decode = coders[family]
    values = _parse_ints(_payload(args, "payload"), "payload")
    _check_n(args, len(values))
    if args.direction == "encode":
        el = _VALIDATORS[family](values)
        result = encode(el)
        inputs = {"direction": "encode", "code_family": args.code_family,
                  "element": list(el)}
        outputs = {"code": list(result)}
        lines = [f"{args.code_family} code: {_fmt_word(result)}"]
    else:
        result = decode(values)  # validates the code itself
        inputs = {"direction": "decode", "code_family": args.code_family,
                  "code": list(values)}
        outputs = {"element": list(result)}
        lines = [f"element: {_fmt_word(result)}"]
    doc = _document(family, len(values), inputs, outputs)
    _emit(doc, args, lines)
    return 0


def cmd_map(args) -> int:
    family, func, inv_func, int_pairs, set_pairs = harness.BIJECTIONS[args.bijection]
    if args.family is not None and args.family != family:
        raise ValueError(
            f"{args.bijection} acts on family {family}, not {args.family}"
        )
    el = _VALIDATORS[family](_parse_ints(_payload(args, "element"), "element"))
    _check_n(args, len(el))
    image = inv_func(el) if args.inverse else func(el)
    source_stats: dict = {}
    image_stats: dict = {}
    for a, b in int_pairs:
        fa = harness.integer_statistic(family, a)[1]
        fb = harness.integer_statistic(family, b)[1]
        if args.inverse:
            source_stats[b], image_stats[a] = fb(el), fa(image)
        else:
            source_stats[a], image_stats[b] = fa(el), fb(image)
    for a, b in set_pairs:
        fa = harness.set_statistic(family, a)[1]
        fb = harness.set_statistic(family, b)[1]
        if args.inverse:
            source_stats[b], image_stats[a] = sorted(fb(el)), sorted(fa(image))
        else:
            source_stats[a], image_stats[b] = sorted(fa(el)), sorted(fb(image))
    doc = _document(
        family,
        len(el),
        {"bijection": args.bijection, "inverse": args.inverse, "element": list(el)},
        {"image": list(image), "source_statistics": source_stats,
         "image_statistics": image_stats},
    )
    lines = [f"image: {_fmt_word(image)}"]
    for (a, va), (b, vb) in zip(source_stats.items(), image_stats.items()):
        lines.append(f"{a} = {va} -> {b} = {vb}")
    _emit(doc, args, lines)
    return 0


def cmd_verify(args) -> int:
    if args.n is None:
        raise ValueError("verify needs --n")
    report = harness.run_check(args.check, args.n, workers=args.parallel)
    status = "verified" if report.passed else "falsified"
    doc = _document(
        report.family,
        report.n,
        {"check": args.check, "workers": args.parallel},
        report.to_dict(),
        status,
    )
    word = "PASS" if report.passed else "FAIL"
    lines = [f"{word} {args.check} n={report.n} (checked {report.checked})"]
    for key, value in report.details.items():
        lines.append(f"  {key}: {value}")
    if report.counterexample is not None:
        lines.append(f"  counterexample: {report.counterexample}")
    _emit(doc, args, lines)
    return 0 if report.passed else 1


def cmd_table(args) -> int:
    if args.family is None:
        raise ValueError("table needs --family (A, B, or D)")
    if args.n is None:
        raise ValueError("table needs --n")
    name1, _ = harness.integer_statistic(args.family, args.stat1)
    name2, _ = harness.integer_statistic(args.family, args.stat2)
    dist = harness.joint_distribution(
        args.family, args.n, name1, name2, workers=args.parallel
    )
    terms = dist.terms()
    if args.format == "csv":
        print("q,t,count")
        for q, t, c in terms:
            print(f"{q},{t},{c}")
        return 0
    doc = _document(
        args.family,
        args.n,
        {"stat1": name1, "stat2": name2},
        {
            "terms": [{"q": q, "t": t, "count": c} for q, t, c in terms],
            "text": dist.text(),
        },
    )
    lines = [
        f"sum of q^{name1} t^{name2} over family {args.family}, n = {args.n}:",
        dist.text(),
    ]
    _emit(doc, args, lines)
    return 0


def build_parser() -> argparse.ArgumentParser:
    common = argparse.ArgumentParser(add_help=False)
    common.add_argument("--family", choices=["A", "B", "D"],
                        help="Coxeter family of the input")
    common.add_argument("--n", type=int, metavar="N",
                        help="rank; checked against inputs, required for verify/table")
    common.add_argument("--format", choices=["json", "csv", "text"],
                        default="json", help="output format (default json)")
    common.add_argument("--parallel", type=int, default=1, metavar="WORKERS",
                        help="worker processes for distribution sweeps")

    parser = argparse.ArgumentParser(
        prog="coxcodes",
        description="Sorting index, permutation codes, and statistic transport "
        "on the families A, B, D.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("stats", parents=[common],
                       help="all statistics of one element")
    p.add_argument("payload", nargs="?", metavar="ELEMENT",
                   help="one-line notation; stdin when omitted")
    p.set_defaults(func=cmd_stats)

    p = sub.add_parser("code", parents=[common],
                       help="encode an element or decode a code")
    p.add_argument("direction", choices=["encode", "decode"])
    p.add_argument("code_family", choices=CODE_FAMILIES)
    p.add_argument("payload", nargs="?", metavar="PAYLOAD",
                   help="element or code; stdin when omitted")
    p.set_defaults(func=cmd_code)

    p = sub.add_parser("map", parents=[common],
                       help="apply a transport bijection")
    p.add_argument("bijection", choices=sorted(harness.BIJECTIONS))
    p.add_argument("payload", nargs="?", metavar="ELEMENT",
                   help="one-line notation; stdin when omitted")
    p.add_argument("--inverse", action="store_true",
                   help="apply the inverse bijection")
    p.set_defaults(func=cmd_map)

    p = sub.add_parser("verify", parents=[common],
                       help="run a named identity check over a whole group")
    p.add_argument("check", choices=sorted(harness.CHECKS))
    p.set_defaults(func=cmd_verify)

    p = sub.add_parser("table", parents=[common],
                       help="joint distribution of two statistics")
    p.add_argument("stat1")
    p.add_argument("stat2")
    p.set_defaults(func=cmd_table)
    return parser


def _looks_like_ints(tokens) -> str | None:
    """Return the first token that is not a signed integer, else None."""
    for tok in tokens:
        for piece in tok.replace(",", " ").split():
            try:
                int(piece)
            except ValueError:
                return tok
    return None


def main(argv=None) -> int:
    parser = build_parser()
    try:
        args, extra = parser.parse_known_args(argv)
    except SystemExit as exc:  # argparse already reported the problem
        return int(exc.code) if exc.code else 0
    if extra:
        # argparse matches optional positionals greedily, so a payload that
        # follows a flag ends up here; accept it when it is all integers
        bad = _looks_like_ints(extra)
        if bad is not None or not hasattr(args, "payload"):
            what = bad if bad is not None else " ".join(extra)
            print(f"error: unrecognized argument {what!r}", file=sys.stderr)
            return 2
        joined = " ".join(extra)
        args.payload = f"{args.payload} {joined}" if args.payload else joined
    try:
        return args.func(args)
    except ValueError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2


def entry() -> None:
    sys.exit(main())


if __name__ == "__main__":
    sys.exit(main())
