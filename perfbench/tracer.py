"""Run one `maxclass` request in this process, with spans around layer calls.

    python3 perfbench/tracer.py TRACE_FILE ARG...

ARG... are the arguments of `python -m maxclass`.  Stdout and the exit code
are those of the command line.  The spans, their counters and the operator
timers go to TRACE_FILE as one JSON object:

    {"spans": [[name, start, end, parent, attrs], ...],
     "timers": {name: [calls, seconds]}, "exit": code, "stdout_bytes": n}

Span 0 is `cli.main`; `parent` is the index of the enclosing span, -1 for
the root.  Spans wrap the calls one module makes into another by replacing
the name the calling module looks up, so the package's source is unchanged.
`exceptional_report` itself is not wrapped: the functions it documents
calling are, so time it spends outside them shows as lost coverage.
`Endo.compose` and `Endo.apply` run thousands of times per request and get
an aggregate timer instead of spans.
"""

import io
import json
import sys
import time
import traceback

import maxclass.cli as cli
import maxclass.divided_powers as divided_powers
import maxclass.exceptional as exceptional
import maxclass.polycheck as polycheck
import maxclass.search as search
import maxclass.sequences as sequences


class Tracer:
    def __init__(self):
        self.spans = []
        self.stack = [-1]
        self.timers = {}

    def span(self, name, fn, attrs=None):
        """fn wrapped in a span; attrs(result) adds counters after it ends."""
        def traced(*args, **kwargs):
            record = [name, time.perf_counter(), None, self.stack[-1], {}]
            self.stack.append(len(self.spans))
            self.spans.append(record)
            try:
                result = fn(*args, **kwargs)
            except BaseException as exc:
                record[4]["error"] = type(exc).__name__
                raise
            finally:
                record[2] = time.perf_counter()
                self.stack.pop()
            if attrs is not None:
                record[4].update(attrs(result))
            return result
        return traced

    def timer(self, name, fn):
        slot = self.timers.setdefault(name, [0, 0.0])

        def timed(*args, **kwargs):
            start = time.perf_counter()
            try:
                return fn(*args, **kwargs)
            finally:
                slot[0] += 1
                slot[1] += time.perf_counter() - start
        return timed


def _jacobi_attrs(report):
    return {"ok": report.ok, "pairs": report.pairs_checked,
            "triples": report.triples_checked}


def _classify_attrs(report):
    return {"survivors": sum(len(gs) for gs in report.survivors.values()),
            "exponents": max(0, report.k_max - report.n - 1)}


def _search_attrs(report):
    return {"nodes": report.nodes, "solutions": report.solution_count,
            "deepest": report.deepest}


def install(tracer):
    """Replace each layer entry point where its callers look it up."""
    shared = {
        "construct": tracer.span(
            "exceptional.construct", exceptional.construct,
            lambda algebra: {"op_entries": sum(
                len(e.op.entries) for e in algebra.elements.values())}),
        "constituents": tracer.span("sequences.constituents",
                                    sequences.constituents),
        "jacobi_verify": tracer.span("sequences.jacobi_verify",
                                     sequences.jacobi_verify, _jacobi_attrs),
    }
    for name, wrapped in shared.items():
        setattr(cli, name, wrapped)
        setattr(exceptional, name, wrapped)
    for name, attrs in (("closed_form_betas", None),
                        ("genfunc_closed_form", None),
                        ("two_path_check", None),
                        ("abelian_ideal_check",
                         lambda r: {"pairs": r.pairs_checked})):
        setattr(exceptional, name, tracer.span(
            f"exceptional.{name}", getattr(exceptional, name), attrs))
    cli.classify_admissible_k = tracer.span(
        "polycheck.classify_admissible_k", polycheck.classify_admissible_k,
        _classify_attrs)
    cli.search_sequences = tracer.span(
        "search.search_sequences", search.search_sequences, _search_attrs)
    sequences.RationalSeries.expand = tracer.span(
        "sequences.RationalSeries.expand", sequences.RationalSeries.expand)
    sequences.BetaSequence.from_file = classmethod(tracer.span(
        "sequences.BetaSequence.from_file",
        sequences.BetaSequence.from_file.__func__))
    endo = divided_powers.Endo
    endo.compose = tracer.timer("divided_powers.Endo.compose", endo.compose)
    endo.apply = tracer.timer("divided_powers.Endo.apply", endo.apply)


def main(trace_file, argv):
    tracer = Tracer()
    install(tracer)
    request = tracer.span("cli.main", cli.main)
    captured = io.StringIO()
    real_stdout, sys.stdout = sys.stdout, captured
    try:
        code = request(argv)
    except SystemExit as exc:   # argparse rejected the arguments
        code = exc.code
    except Exception:           # what an uncaught error does to the CLI
        traceback.print_exc()
        code = 1
    finally:
        sys.stdout = real_stdout
    out = captured.getvalue().encode()
    sys.stdout.buffer.write(out)
    sys.stdout.flush()
    with open(trace_file, "w") as fh:
        json.dump({"spans": tracer.spans, "timers": tracer.timers,
                   "exit": code, "stdout_bytes": len(out)}, fh)
    return code


if __name__ == "__main__":
    sys.exit(main(sys.argv[1], sys.argv[2:]))
