"""Command-line front end.

Subcommands:
    check <seq>                         graphicality test
    mds value <seq>                     minimum dominating-set size over realizations
    mds realize <seq> [--json]         witness graph + dominating-set certificate
    mm value <seq>                      maximum matching size over realizations
    mm realize <seq> [--json]          witness graph + matching certificate
    verify --seq <seq> --edges <path> [--dominating <csv>] [--matching <pairs>]
    oracle <seq> --objective mds|mm [--limit N]   exhaustive ground truth

``<seq>`` is inline text ("4 3 2 2 1"), ``@file`` to read a file, or ``-``
for standard input.  Outputs are deterministic for fixed inputs, except the
``timing_ms`` field of JSON reports.
"""

from __future__ import annotations

import argparse
import io
import json
import sys
import time

from .dominating import mds_value, realize_mds, verify_dominating
from .errors import DomainError, OptrealError, ParseError
from .matching import mm_value, realize_mm, verify_matching
from .oracle import DEFAULT_LIMIT, MAX_LIMIT, oracle_mds, oracle_mm
from .sequences import (DegreeSequence, Realization, is_graphic,
                        parse_sequence)

__all__ = ["main"]


def _read_text(fh, name: str) -> str:
    """All of ``fh`` (a text stream's byte buffer, if it has one) as UTF-8
    text; ParseError names ``name`` and the offset of a byte that is not."""
    raw = getattr(fh, "buffer", fh).read()
    try:
        return raw if isinstance(raw, str) else raw.decode("utf-8")
    except UnicodeDecodeError as exc:
        raise ParseError(f"{name}: byte {exc.start} ({raw[exc.start]:#04x}) is not valid UTF-8") from None


def _load_sequence(source: str) -> DegreeSequence:
    if source == "-":
        source = _read_text(sys.stdin, "standard input")
    elif source.startswith("@"):
        with open(source[1:], "rb") as fh:
            source = _read_text(fh, source[1:])
    return parse_sequence(source)


def _report(d: DegreeSequence, objective: str, graph: Realization, label: str,
            members: list, started: float) -> dict:
    return {
        "n": d.total_vertices,
        "degrees": list(d.values) + [0] * d.zero_count,
        "graphic": True,  # realize raised NotGraphicError otherwise
        "objective": objective,
        "value": len(members),
        "edges": graph._sorted_array().tolist(),
        "certificate": {"type": label, "members": members},
        "timing_ms": round((time.perf_counter() - started) * 1000.0, 3),
    }


def _print_edges(graph: Realization, out):
    for u, v in graph._sorted_array().tolist():
        print(f"{u} {v}", file=out)


def _cmd_check(args, out) -> int:
    d = _load_sequence(args.sequence)
    if is_graphic(d):
        print("graphic", file=out)
        return 0
    print("not graphic", file=out)
    return 1


# objective -> (value function, realize function, oracle function, certificate
# label, the certificate's members as JSON values, one member as text)
_OBJECTIVES = {
    "mds": (mds_value, realize_mds, oracle_mds, "dominating-set",
            lambda cert: list(cert.vertices), str),
    "mm": (mm_value, realize_mm, oracle_mm, "matching",
           lambda cert: [list(p) for p in cert.pairs], lambda pair: f"({pair[0]},{pair[1]})"),
}


def _cmd_value(args, out) -> int:
    d = _load_sequence(args.sequence)
    print(_OBJECTIVES[args.command][0](d), file=out)
    return 0


def _cmd_realize(args, out) -> int:
    started = time.perf_counter()
    d = _load_sequence(args.sequence)
    _, realize, _, label, members_of, member_text = _OBJECTIVES[args.command]
    graph = realize(d)
    members = members_of(graph.certificate)
    if args.json:
        print(json.dumps(_report(d, args.command, graph, label, members, started)), file=out)
        return 0
    _print_edges(graph, out)
    print(" ".join([f"{label}:"] + [member_text(m) for m in members]), file=out)
    return 0


def _parse_edge_file(path: str, n: int) -> list[tuple[int, int]]:
    edges = []
    with open(path, "rb") as fh:
        for lineno, raw in enumerate(io.StringIO(_read_text(fh, path), newline=None), start=1):
            line = raw.split("#", 1)[0].strip()
            if not line:
                continue
            parts = line.split()
            if len(parts) != 2:
                raise DomainError(f"{path}:{lineno}: expected two vertex ids, got {line!r}")
            try:
                u, v = int(parts[0]), int(parts[1])
            except ValueError:
                raise DomainError(f"{path}:{lineno}: non-integer vertex id") from None
            if not (1 <= u <= n and 1 <= v <= n) or u == v:
                raise DomainError(f"{path}:{lineno}: edge ({u}, {v}) invalid for n={n}")
            edges.append((u, v))
    return edges


def _parse_vertex_csv(text: str) -> list[int]:
    try:
        return [int(tok) for tok in text.split(",") if tok.strip()]
    except ValueError:
        raise DomainError(f"bad vertex list {text!r}; expected comma-separated integers") from None


def _parse_pair_csv(text: str) -> list[tuple[int, int]]:
    pairs = []
    for tok in text.split(","):
        tok = tok.strip()
        if not tok:
            continue
        halves = tok.split("-")
        if len(halves) != 2:
            raise DomainError(f"bad matching pair {tok!r}; expected a-b")
        try:
            pairs.append((int(halves[0]), int(halves[1])))
        except ValueError:
            raise DomainError(f"bad matching pair {tok!r}; expected integers") from None
    return pairs


def _cmd_verify(args, out) -> int:
    d = _load_sequence(args.seq)
    n = d.total_vertices
    edges = _parse_edge_file(args.edges, n)
    graph = Realization.from_edges(n, edges)
    ok = True

    degrees_ok = graph.realizes(d)
    print(f"degrees: {'ok' if degrees_ok else 'FAIL'}", file=out)
    ok &= degrees_ok

    if args.dominating is not None:
        vertices = _parse_vertex_csv(args.dominating)
        dom_ok = verify_dominating(graph, vertices)
        print(f"dominating: {'ok' if dom_ok else 'FAIL'}", file=out)
        ok &= dom_ok
    if args.matching is not None:
        pairs = _parse_pair_csv(args.matching)
        match_ok = verify_matching(graph, pairs)
        print(f"matching: {'ok' if match_ok else 'FAIL'}", file=out)
        ok &= match_ok
    return 0 if ok else 1


def _cmd_oracle(args, out) -> int:
    d = _load_sequence(args.sequence)
    print(_OBJECTIVES[args.objective][2](d, args.limit), file=out)
    return 0


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="optreal",
        description="Degree-sequence realizations optimizing dominating set or matching.")
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("check", help="decide graphicality")
    p.add_argument("sequence", help="degrees inline, @file, or - for stdin")
    p.set_defaults(handler=_cmd_check)

    for name in ("mds", "mm"):
        group = sub.add_parser(name, help=f"{name} objective")
        gsub = group.add_subparsers(dest="action", required=True)
        pv = gsub.add_parser("value", help="optimal size over all realizations")
        pv.add_argument("sequence")
        pv.set_defaults(handler=_cmd_value)
        pr = gsub.add_parser("realize", help="witness graph with certificate")
        pr.add_argument("sequence")
        pr.add_argument("--json", action="store_true", help="emit a JSON report")
        pr.set_defaults(handler=_cmd_realize)

    p = sub.add_parser("verify", help="check an edge list and certificates against a sequence")
    p.add_argument("--seq", required=True, help="degrees inline, @file, or -")
    p.add_argument("--edges", required=True, help="edge list file, one 'u v' per line, # comments")
    p.add_argument("--dominating", help="comma-separated vertex list")
    p.add_argument("--matching", help="comma-separated pairs like 1-4,2-3")
    p.set_defaults(handler=_cmd_verify)

    p = sub.add_parser("oracle", help="exhaustive optimum for small instances")
    p.add_argument("sequence")
    p.add_argument("--objective", choices=("mds", "mm"), required=True)
    p.add_argument("--limit", type=int, default=DEFAULT_LIMIT,
                   help=f"enumeration vertex limit (default {DEFAULT_LIMIT}, at most {MAX_LIMIT})")
    p.set_defaults(handler=_cmd_oracle)

    return parser


def run(argv=None, out=None, err=None) -> int:
    """Dispatch a parsed command line; returns the process exit code."""
    out = out if out is not None else sys.stdout
    err = err if err is not None else sys.stderr
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        return args.handler(args, out)
    except (OptrealError, OSError) as exc:
        print(f"error: {exc}", file=err)
        return 1


def main(argv=None) -> int:
    return run(argv)


if __name__ == "__main__":
    sys.exit(main())
