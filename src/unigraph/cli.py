"""Command-line interface.

Exit codes: 0 success, 1 domain errors (not graphical, not a unigraph in
plain mode, oracle disagreement in verify), 2 usage errors. With --json the
verdict is data, so is-unigraph exits 0 either way and emits exactly one
JSON document on stdout; a domain error is that document too, as
``{"error": {"type": ..., "message": ...}}``, and is also reported on stderr.

Each subcommand imports the modules it uses, and ``json`` only when it
writes JSON, so a process loads no more than its call needs.
"""

from __future__ import annotations

import argparse
import sys

from .degseq import DegreeSequence, parse_paired, parse_sequence, realize
from .errors import FormatError, TooLarge, UnigraphError

# the checks of unigraph.verify, which imports the brute-force oracle; the
# module is loaded only by the verify subcommand, and a test holds this
# list equal to sorted(verify.CHECKS)
VERIFY_CHECKS = ("aut", "fixdist", "params", "roundtrip", "unigraph")


def _input_sequence(args) -> DegreeSequence:
    if args.file:
        try:
            with open(args.file) as fh:
                text = fh.read().strip()
        except UnicodeDecodeError as exc:
            raise FormatError(f"{args.file}: {exc}") from None
    else:
        text = args.degrees
    if getattr(args, "paired", False):
        return parse_paired(text).merged()
    return parse_sequence(text)


def _add_input_flags(p: argparse.ArgumentParser) -> None:
    src = p.add_mutually_exclusive_group(required=True)
    src.add_argument("-d", "--degrees", help="degree sequence, e.g. 8^4,5^4,2^2")
    src.add_argument("--file", help="read the sequence from a file")
    p.add_argument(
        "--paired",
        action="store_true",
        help="input is a paired sequence k;s, use its merged form",
    )


def _print_json(payload) -> None:
    import json

    print(json.dumps(payload))


def _emit(args, payload: dict, plain: str) -> None:
    if args.json:
        _print_json(payload)
    else:
        print(plain)


def cmd_decompose(args) -> int:
    """One entry per run: ``k;s`` or ``(k;s)^m`` in text, and
    ``{"k", "s", "count"}`` in JSON; no tail line for an empty tail."""
    from .decomp import compact, decompose

    d = decompose(_input_sequence(args))
    if args.command == "compact":
        d = compact(d)
    components = [
        {"k": c.kpart.to_text(), "s": c.spart.to_text(), "count": m}
        for c, m in d.runs
    ]
    tail = d.tail.to_text() if d.tail.n else None
    lines = [str(c) if m == 1 else f"({c})^{m}" for c, m in d.runs]
    if tail is not None:
        lines.append(f"tail: {tail}")
    _emit(args, {"components": components, "tail": tail}, "\n".join(lines) or "(empty)")
    return 0


def cmd_split(args) -> int:
    from .split import determine_split

    sc = determine_split(_input_sequence(args))
    payload = {
        "kind": sc.kind.value,
        "paired": None if sc.paired is None else sc.paired.to_text(),
    }
    plain = sc.kind.value if sc.paired is None else f"{sc.kind.value} {sc.paired}"
    _emit(args, payload, plain)
    return 0


def cmd_is_unigraph(args) -> int:
    from .unitype import is_unigraph

    _, report = is_unigraph(_input_sequence(args))
    if args.json:
        _print_json({
            "isUnigraph": report.is_unigraph,
            "components": report.tags(),
            "failureIndex": report.failure_index,
        })
        return 0
    if report.is_unigraph:
        print("unigraph: " + " o ".join(report.tags()))
        return 0
    print("not a unigraph")
    return 1


def cmd_compose(args) -> int:
    from .decomp import compose_all

    parts = [p for p in args.sequences]
    heads = [parse_paired(t) for t in parts[:-1]]
    last = parts[-1]
    if ";" in last:
        heads.append(parse_paired(last))
        tail = DegreeSequence(())
    else:
        tail = parse_sequence(last)
    out = compose_all(heads, tail)
    _emit(args, {"sequence": out.to_text()}, out.to_text())
    return 0


def cmd_params(args) -> int:
    from .params import unigraph_params

    ps = unigraph_params(_input_sequence(args))
    payload = ps.to_dict()
    plain = " ".join(f"{k}={v}" for k, v in payload.items())
    _emit(args, payload, plain)
    return 0


def cmd_realize(args) -> int:
    g = realize(_input_sequence(args))
    if args.json:
        sys.stdout.writelines(g.json_chunks())
        sys.stdout.write("\n")
    else:
        sys.stdout.writelines(g.edge_list_chunks())
    return 0


def cmd_generate(args) -> int:
    from .gen import Base, GenSpec, compose_types, generate

    allowed = None
    if args.types:
        try:
            allowed = frozenset(Base(t.strip()) for t in args.types.split(","))
        except ValueError as exc:
            raise UnigraphError(f"unknown type in --types: {exc}") from exc
    for i in range(args.count):
        spec = GenSpec(n=args.n, k=args.k, seed=args.seed + i, allowed=allowed)
        comps = generate(spec)
        seq = compose_types(comps)
        _print_json({"sequence": seq.to_text(), "components": [c.tag() for c in comps]})
    return 0


def cmd_verify(args) -> int:
    from .verify import CHECKS

    fn, default_n, cap = CHECKS[args.check]
    max_n = args.max_n if args.max_n is not None else default_n
    if not 0 <= max_n <= cap:
        what = f"verify {args.check} takes --max-n from 0 to {cap}"
        raise TooLarge(f"{what}, got {max_n}")
    for diff in fn(max_n):
        _print_json(diff)
        return 1
    _print_json({"check": args.check, "max_n": max_n, "ok": True})
    return 0


def build_parser() -> argparse.ArgumentParser:
    ap = argparse.ArgumentParser(
        prog="unigraph",
        description="Canonical degree-sequence decomposition and unigraph tools",
    )
    ap.add_argument("--json", action="store_true", help="machine-readable output")
    sub = ap.add_subparsers(dest="command", required=True)

    p = sub.add_parser("decompose", help="canonical decomposition of a sequence")
    _add_input_flags(p)
    p.set_defaults(fn=cmd_decompose)

    p = sub.add_parser("compact", help="compact canonical decomposition")
    _add_input_flags(p)
    p.set_defaults(fn=cmd_decompose)

    p = sub.add_parser("split", help="split recognition and KS-partition")
    _add_input_flags(p)
    p.set_defaults(fn=cmd_split)

    p = sub.add_parser("is-unigraph", help="unigraph test with component types")
    _add_input_flags(p)
    p.set_defaults(fn=cmd_is_unigraph)

    p = sub.add_parser("compose", help="compose paired sequences (tail last)")
    p.add_argument(
        "sequences",
        nargs="+",
        help="paired sequences, plain tail last; put -- first when a part "
        "starts with '-'",
    )
    p.set_defaults(fn=cmd_compose)

    p = sub.add_parser("params", help="omega/alpha/beta/chi/fix/dist of a unigraph")
    _add_input_flags(p)
    p.set_defaults(fn=cmd_params)

    p = sub.add_parser("realize", help="Havel-Hakimi realization as an edge list")
    _add_input_flags(p)
    p.set_defaults(fn=cmd_realize)

    p = sub.add_parser("generate", help="seeded unigraph generation")
    p.add_argument("--n", type=int, required=True)
    p.add_argument("--k", type=int, required=True)
    p.add_argument("--seed", type=int, default=0)
    p.add_argument("--count", type=int, default=1)
    p.add_argument("--types", help="comma-separated allowed bases, e.g. c5,mk2,spq")
    p.set_defaults(fn=cmd_generate)

    p = sub.add_parser("verify", help="cross-check fast paths against the oracle")
    p.add_argument("check", choices=VERIFY_CHECKS)
    p.add_argument("--max-n", type=int, default=None)
    p.set_defaults(fn=cmd_verify)

    return ap


def main(argv: list[str] | None = None) -> int:
    ap = build_parser()
    args = ap.parse_args(argv)
    try:
        return args.fn(args)
    except (UnigraphError, OSError) as exc:
        if args.json:
            error = {"type": type(exc).__name__, "message": str(exc)}
            _print_json({"error": error})
        print(f"error: {exc}", file=sys.stderr)
        return 1


if __name__ == "__main__":
    sys.exit(main())
