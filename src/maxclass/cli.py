"""Command line front end.

Four subcommands, all emitting deterministic JSON on stdout:

  construct     build a family member from prime-power parameters
  verify        run the bracket checks on a stored or inline sequence
  classify      enumerate admissible exponents for a prime and type
  search        enumerate all admissible prefixes to a given depth

Exit status is 0 when every requested check passes, 1 when a check
fails (the report still prints), and 2 for unusable arguments.
"""

import argparse
import json
import os
import re
import sys

from .arith import ConstructionError, PrimeField

EXIT_OK = 0
EXIT_CHECK_FAILED = 1
EXIT_USAGE = 2

# The handlers call layer functions as attributes of this module (`_cli.X`),
# never as bare globals, so a name bound here first (a test double, a tracing
# wrapper) replaces the layer function for every call.  An unbound name comes
# from the package's lazy namespace, so a request imports only the modules
# its subcommand runs.
_cli = sys.modules[__name__]
_package = sys.modules[__package__]


def __getattr__(name: str):
    if name not in _package.__all__:
        raise AttributeError(f"module {__name__!r} has no attribute {name!r}")
    return getattr(_package, name)


# Every integer argument and list field: ASCII digits, at most one sign, and
# spaces around them (int() takes digit-group underscores and non-ASCII digits).
_INTEGER = re.compile(r" *[+-]?[0-9]+ *")


def _int(text: str) -> int:
    if not _INTEGER.fullmatch(text):
        raise argparse.ArgumentTypeError(f"not an integer: {text!r}")
    return int(text)


def _csv_ints(text: str) -> list[int]:
    """The integers of a comma separated list; a blank one is the empty list."""
    if not text.strip():
        return []
    fields = text.split(",")
    if not all(map(_INTEGER.fullmatch, fields)):
        raise argparse.ArgumentTypeError(f"not a comma separated integer list: {text!r}")
    return [int(field) for field in fields]


def _cmd_construct(args) -> tuple[dict, bool]:
    if args.jacobi_depth is not None and not args.report:
        raise ValueError("--jacobi-depth needs --report")
    params = _cli.ExceptionalParams(PrimeField(args.p), args.c, args.n,
                                    args.m)
    seq = _cli.construct(params, depth=args.depth).sequence
    payload = {
        "params": params.to_dict(),
        "depth": seq.depth,
        "betas": list(seq.betas),
        "constituents": _cli.constituents(seq).to_dict(),
    }
    if args.report:
        report = _cli.exceptional_report(params, seq, jacobi_cap=args.jacobi_depth)
        payload["report"] = report.to_dict()
        return payload, report.ok
    return payload, True


def _load_sequence(args) -> "BetaSequence":
    if args.file is not None:
        if args.p is not None or args.n is not None:
            raise ValueError("--p and --n go with --betas")
        return _cli.BetaSequence.from_file(args.file)
    if args.p is None or args.n is None:
        raise ValueError("--betas needs --p and --n alongside it")
    return _cli.BetaSequence(PrimeField(args.p), args.n, args.betas)


def _cmd_verify(args) -> tuple[dict, bool]:
    seq = _load_sequence(args)
    if args.depth is not None:
        seq = seq.truncate(args.depth)
    jac = _cli.jacobi_verify(seq)
    summary = _cli.constituents(seq)
    ok = jac.ok and not summary.violations
    payload = {
        "p": seq.field.p,
        "n": seq.n,
        "depth": seq.depth,
        "jacobi": jac.to_dict(),
        "constituents": summary.to_dict(),
        "ok": ok,
    }
    return payload, ok


def _cmd_classify(args) -> tuple[dict, bool]:
    report = _cli.classify_admissible_k(PrimeField(args.p), args.n, args.k_max)
    return report.to_dict(), report.ok


def _cmd_search(args) -> tuple[dict, bool]:
    report = _cli.search_sequences(PrimeField(args.p), args.n, args.depth,
                                   seed=args.seed,
                                   normalize=not args.no_normalize,
                                   budget=args.budget,
                                   max_solutions=args.max_solutions)
    return report.to_dict(), report.complete


def _text_construct(payload: dict, out) -> None:
    par = payload["params"]
    print(f"p={par['p']} q={par['q']} n={par['n']} m={par['m']} "
          f"mode={par['mode']} depth={payload['depth']}", file=out)
    summary = payload["constituents"]
    print(f"first constituent length: {summary['ell']}", file=out)
    lengths = [c["length"] for c in summary["constituents"]]
    print(f"constituent lengths: {lengths}", file=out)
    print("betas: " + ",".join(str(b) for b in payload["betas"]), file=out)
    if "report" in payload:
        rep = payload["report"]
        verdict = "ok" if rep["ok"] else "FAILED"
        print(f"report: {verdict}", file=out)
        for key in ("ordinary_ok", "trailing_ok", "closed_form_ok",
                    "genfunc_ok", "two_path_ok", "jacobi_ok", "ideal_ok"):
            print(f"  {key}: {rep[key]}", file=out)


def _text_verify(payload: dict, out) -> None:
    jac = payload["jacobi"]
    if jac["ok"]:
        print(f"jacobi: ok (pairs={jac['pairs_checked']} "
              f"triples={jac['triples_checked']} depth={jac['depth']})", file=out)
    else:
        fail = jac["failure"]
        print(f"jacobi: FAILED {fail['kind']} at {fail['indices']} "
              f"value {fail['value']}", file=out)
    summary = payload["constituents"]
    lengths = [c["length"] for c in summary["constituents"]]
    print(f"constituents: ell={summary['ell']} lengths={lengths}", file=out)
    for v in summary["violations"]:
        print(f"violation: {v}", file=out)
    print(f"ok: {payload['ok']}", file=out)


def _text_classify(payload: dict, out) -> None:
    # Same line format as the frozen regression fixtures.
    p, n = payload["p"], payload["n"]
    print(f"# classify p={p} n={n} k_max={payload['k_max']}", file=out)
    for k in sorted(int(k) for k in payload["admissible"]):
        gs = "; ".join(",".join(str(c) for c in g)
                       for g in payload["admissible"][str(k)])
        print(f"({p}, {n}, {k}): {gs}", file=out)
    print(f"menu: {'ok' if payload['menu_ok'] else 'FAILED'}", file=out)
    print(f"structure: {'ok' if payload['structure_ok'] else 'FAILED'}", file=out)


def _text_search(payload: dict, out) -> None:
    status = []
    if payload["exhausted"]:
        status.append("budget exhausted")
    if payload["truncated_solutions"]:
        status.append("solution list truncated")
    tag = f" ({'; '.join(status)})" if status else ""
    print(f"solutions: {payload['solution_count']} "
          f"nodes: {payload['nodes']}{tag}", file=out)
    for sol in payload["solutions"]:
        print(",".join(str(v) for v in sol), file=out)


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="maxclass",
        description="Exact checks for graded Lie algebras of maximal class.")
    sub = parser.add_subparsers(dest="command", required=True)

    def add_format(p, run, text):
        # the subcommand's handler, and its renderer for --format text
        p.set_defaults(run=run, text=text)
        p.add_argument("--format", choices=("json", "text"), default="json",
                       help="output rendering (default json)")

    con = sub.add_parser(
        "construct",
        help="build a family member from divided power operators")
    con.add_argument("--p", type=_int, required=True, help="odd prime")
    con.add_argument("--c", type=_int, required=True,
                     help="power exponent, q = p^c")
    con.add_argument("--n", type=_int, required=True,
                     help="type of the algebra, 0 < m < n <= q")
    con.add_argument("--m", type=_int, required=True,
                     help="degree offset of the second generator")
    con.add_argument("--depth", type=_int, default=None,
                     help="entries to compute (default 3q + 2n)")
    con.add_argument("--report", action="store_true",
                     help="also run the full family validation report")
    con.add_argument("--jacobi-depth", type=_int, default=None,
                     help="cap for the report's bracket sweep, >= n (default 3q)")
    add_format(con, _cmd_construct, _text_construct)

    ver = sub.add_parser("verify", help="check a structure constant sequence")
    src = ver.add_mutually_exclusive_group(required=True)
    src.add_argument("--file", help="JSON file with p, n, depth, betas")
    src.add_argument("--betas", type=_csv_ints,
                     help="comma separated entries starting at index n + 1")
    ver.add_argument("--p", type=_int, help="odd prime (with --betas)")
    ver.add_argument("--n", type=_int, help="type (with --betas)")
    ver.add_argument("--depth", type=_int, default=None,
                     help="truncate before checking")
    add_format(ver, _cmd_verify, _text_verify)

    cla = sub.add_parser(
        "classify",
        help="solve for first constituent polynomials per exponent")
    cla.add_argument("--p", type=_int, required=True, help="odd prime")
    cla.add_argument("--n", type=_int, required=True, help="type, 1 < n < p")
    cla.add_argument("--k-max", type=_int, required=True,
                     help="largest exponent to test")
    add_format(cla, _cmd_classify, _text_classify)

    sea = sub.add_parser(
        "search",
        help="enumerate admissible sequences by constraint propagation")
    sea.add_argument("--p", type=_int, required=True, help="odd prime")
    sea.add_argument("--n", type=_int, required=True, help="type")
    sea.add_argument("--depth", type=_int, required=True,
                     help="last index to assign")
    sea.add_argument("--seed", type=_csv_ints, default=None,
                     help="pin the leading entries, comma separated")
    sea.add_argument("--no-normalize", action="store_true",
                     help="do not restrict the first nonzero entry to 1")
    sea.add_argument("--budget", type=_int, default=500_000,
                     help="assignment cap (default 500000)")
    sea.add_argument("--max-solutions", type=_int, default=1000,
                     help="stored solution cap (default 1000)")
    add_format(sea, _cmd_search, _text_search)

    return parser


def main(argv=None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        payload, ok = args.run(args)
    except ConstructionError as exc:
        print(f"construction failed: {exc}", file=sys.stderr)
        return EXIT_CHECK_FAILED
    except (ValueError, OSError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_USAGE
    try:
        if args.format == "json":
            print(json.dumps(payload, indent=2, sort_keys=True))
        else:
            args.text(payload, sys.stdout)
        sys.stdout.flush()  # raise a closed pipe here, not at interpreter exit
    except BrokenPipeError:
        # the reader went away; send the rest of the output nowhere
        os.dup2(os.open(os.devnull, os.O_WRONLY), sys.stdout.fileno())
        return EXIT_CHECK_FAILED
    return EXIT_OK if ok else EXIT_CHECK_FAILED


if __name__ == "__main__":
    sys.exit(main())
