"""Benchmark for maxclass: four command-line workloads, end to end and per layer.

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1
    python3 perfbench/run.py --self-check
    python3 perfbench/run.py --record-oracle

Every request is a fresh `python -m maxclass` process against this
checkout's `src/`, one after another (one client, closed loop).  With
--trace 0 a run repeats passes over the workload's requests while another
pass fits into S seconds (at least one), times each process against a
reference program run next to it, and reports the end-to-end metrics listed
in BENCHMARK.json.  With --trace 1 it alternates plain passes with passes
through tracer.py, and reports the per-layer metrics.  The last line of
stdout is the result object; the line before it records the machine, the
per-request times and every failure.  See README.md in this directory.
"""

import argparse
import hashlib
import json
import os
import platform
import random
import shutil
import statistics
import subprocess
import sys
import threading
import time
from collections import defaultdict
from contextlib import contextmanager, suppress
from dataclasses import dataclass, field
from pathlib import Path

BENCH = Path(__file__).resolve().parent
ROOT = BENCH.parent
SRC = ROOT / "src"
PACKAGE = SRC / "maxclass"
WORK_ROOT = ROOT / ".perfbench_work"
ORACLE = BENCH / "oracle.json"
SPEC = ROOT / "BENCHMARK.json"

SETUP_PER_PASS = 2
TRACE_ROUNDS = 3
SETUP_CODE = "import maxclass.cli; maxclass.cli.build_parser()"
# The reference program: fixed pure-Python work of the kind the package does
# (dict updates, modular integer arithmetic, tuples), independent of src/.
REF_CODE = """
counts, total = {}, 0
for i in range(120000):
    k = i * 7919 % 1021
    counts[k] = counts.get(k, 0) + i % 13
    total += (k * k + 3) % 101
ordered = tuple(sorted(counts.items()))
"""
REF_ARGV = [sys.executable, "-c", REF_CODE]
REF_S = 0.1                # reference program's wall time on an idle host
RUN_LIMIT_S = 170          # every run must end within 180 s
MODULES = ("cli", "arith", "divided_powers", "exceptional", "sequences",
           "polycheck", "search")


def child_env() -> dict:
    """The caller's environment with only this checkout's src/ importable
    and the classify worker count unset, so classify stays in one process."""
    env = {k: v for k, v in os.environ.items()
           if k not in ("MAXCLASS_WORKERS", "PYTHONPATH")}
    env["PYTHONPATH"] = str(SRC)
    return env


@dataclass
class Child:
    wall: float
    code: int
    rss_mb: float
    stdout: bytes
    stderr: bytes


def spawn(argv: list[str], work: Path, tag: str, deadline: float) -> Child:
    """Run argv to completion; wall time from spawn to reaping, and the
    child's own peak RSS from os.wait4.  Killed at the run deadline."""
    out_path, err_path = work / f"{tag}.out", work / f"{tag}.err"
    with open(out_path, "wb") as out, open(err_path, "wb") as err:
        start = time.perf_counter()
        proc = subprocess.Popen(argv, stdout=out, stderr=err, env=child_env(),
                                cwd=ROOT)
        killer = threading.Timer(max(1.0, deadline - start), proc.kill)
        killer.start()
        try:
            _, status, usage = os.wait4(proc.pid, 0)
        finally:
            killer.cancel()
        wall = time.perf_counter() - start
    proc.returncode = os.waitstatus_to_exitcode(status)
    return Child(wall, proc.returncode, usage.ru_maxrss / 1024,
                 out_path.read_bytes(), err_path.read_bytes())


def cli_argv(req, work: Path) -> list[str]:
    return [sys.executable, "-m", "maxclass", *req.argv]


def tracer_argv(req, work: Path) -> list[str]:
    return [sys.executable, str(BENCH / "tracer.py"),
            str(work / f"{req.name}.trace.json"), *req.argv]


def run_pass(wl, argv_for, work: Path, deadline: float) -> tuple[float, dict]:
    start = time.perf_counter()
    children = {req.name: spawn(argv_for(req, work), work, req.name, deadline)
                for req in wl.requests}
    return time.perf_counter() - start, children


@dataclass
class Tally:
    """Requests attempted, failed, and failed with a wrong answer.

    A request fails when it crashes, prints no JSON, or breaks its oracle.
    It is wrong only when it printed JSON that breaks the oracle; a crash
    is a failure, not a wrong answer."""
    attempted: int = 0
    failed: int = 0
    wrong: int = 0
    failures: list = field(default_factory=list)

    def judge(self, wl, children: dict, oracle: dict, label: str) -> None:
        for req in wl.requests:
            child = children[req.name]
            self.attempted += 1
            why, wrong = judge(req, child, oracle)
            if why is not None:
                self.failed += 1
                self.wrong += wrong
                self.failures.append({"pass": label, "request": req.name,
                                      "wrong": wrong, "why": why})


def judge(req, child: Child, oracle: dict) -> tuple:
    """(None, False) when the request passes its oracle, else (reason, wrong)."""
    payload = load_json(child.stdout)
    if req.check is None:
        rec = oracle[req.name]
        digest = hashlib.sha256(child.stdout).hexdigest()
        if digest == rec["sha256"] and child.code == rec["exit"]:
            return None, False
        why = f"exit {child.code} (recorded {rec['exit']}), stdout sha256 {digest[:12]}"
        return _with_stderr(why, child), payload is not None
    if payload is None:
        return _with_stderr(f"exit {child.code}, no JSON on stdout", child), False
    try:
        why = req.check(child.code, payload)
    except (KeyError, TypeError) as exc:
        why = f"malformed report: {exc!r}"
    return why, why is not None


def load_json(stdout: bytes):
    try:
        payload = json.loads(stdout)
    except ValueError:
        return None
    return payload if isinstance(payload, dict) else None


def _with_stderr(why: str, child: Child) -> str:
    lines = child.stderr.decode(errors="replace").strip().splitlines()
    return f"{why}; stderr: {lines[-1]}" if lines else why


def bind_oracle(name: str, wl, toy: bool) -> dict:
    """Recorded stdout hash and exit code of each fixed request, by name."""
    records = json.loads(ORACLE.read_text())
    bound = {}
    for req in wl.requests:
        if req.check is None:
            rec = records.get(oracle_key(name, req, toy))
            if rec is None or rec["argv"] != req.argv:
                raise SystemExit(f"perfbench: no recorded output for "
                                 f"{oracle_key(name, req, toy)} {req.argv}")
            bound[req.name] = rec
    return bound


def oracle_key(name: str, req, toy: bool) -> str:
    return f"{name}/{'toy/' if toy else ''}{req.name}"


# ------------------------------------------------------------ metrics

def timed_metrics(wl, oracle, seconds, work, deadline, tally) -> tuple:
    """End-to-end metrics over the passes that fit in `seconds`.

    Every process of a pass, set-up samples included, is followed by a run
    of the reference program, and its wall time is divided by the mean of
    the reference runs on either side.  Other tenants of the host change
    its CPU speed by up to 60%, for spells longer than a run; the ratio to
    a neighbouring reference run cancels that, and the median over passes
    cancels the rest.  Ratios are reported times REF_S, as seconds on a
    machine where the reference program takes REF_S."""
    ratios, raw, rss = defaultdict(list), defaultdict(list), []
    jobs = [("setup", [sys.executable, "-c", SETUP_CODE])] * SETUP_PER_PASS
    jobs += [(req.name, cli_argv(req, work)) for req in wl.requests]
    start = time.perf_counter()
    while True:
        pass_start = time.perf_counter()
        before = spawn(REF_ARGV, work, "ref", deadline).wall
        children = {}
        for tag, argv in jobs:
            child = spawn(argv, work, tag, deadline)
            after = spawn(REF_ARGV, work, "ref", deadline).wall
            ratios[tag].append(child.wall / ((before + after) / 2))
            raw[tag].append(child.wall)
            raw["ref"].append(after)
            before = after
            if tag != "setup":
                children[tag] = child
        tally.judge(wl, children, oracle, f"pass-{len(rss)}")
        rss.append(max(c.rss_mb for c in children.values()))
        now = time.perf_counter()
        wall = now - pass_start
        if now - start + wall > seconds or deadline - now < 2 * wall:
            break
    scaled = {tag: statistics.median(v) * REF_S for tag, v in ratios.items()}
    metrics = {
        "wall_s": sum(scaled[req.name] for req in wl.requests),
        "ladder_top_s": scaled[wl.top],
        "setup_s": scaled["setup"],
        "peak_rss_mb": statistics.median(rss),
        "ok_frac": (tally.attempted - tally.failed) / tally.attempted,
    }
    return metrics, {"passes": len(rss), "scaled_s": scaled,
                     "raw_median_s": {tag: statistics.median(v)
                                      for tag, v in raw.items()}}


def traced_metrics(wl, oracle, seconds, work, deadline, tally) -> tuple:
    """Per-layer metrics from passes through tracer.py, alternated with
    plain passes of the same requests for the tracing overhead.  Each
    request's spans come from its fastest traced sample."""
    plain_min, best = {}, {}
    for round_ in range(TRACE_ROUNDS):
        _, plain = run_pass(wl, cli_argv, work, deadline)
        tally.judge(wl, plain, oracle, f"plain-{round_}")
        _, traced = run_pass(wl, tracer_argv, work, deadline)
        tally.judge(wl, traced, oracle, f"traced-{round_}")
        for req in wl.requests:
            plain_min[req.name] = min(plain[req.name].wall,
                                      plain_min.get(req.name, float("inf")))
            path = work / f"{req.name}.trace.json"
            wall = traced[req.name].wall
            if path.exists() and wall < best.get(req.name, (float("inf"),))[0]:
                best[req.name] = (wall, json.loads(path.read_text()))
            path.unlink(missing_ok=True)
    metrics = layer_metrics([trace for _, trace in best.values()])
    metrics.update(micro_metrics(wl.micro))
    metrics.update(source_lines())
    traced_s = sum(wall for wall, _ in best.values())
    metrics["trace.overhead_frac"] = traced_s / sum(plain_min.values()) - 1
    return metrics, {"rounds": TRACE_ROUNDS, "request_min_s": plain_min,
                     "traced_min_s": {k: w for k, (w, _) in best.items()}}


def layer_metrics(traces: list) -> dict:
    """Sum spans, span counters and timers over the workload's requests.

    Span times are inclusive: a construct inside two_path_check counts in
    both.  Coverage is the time of the spans directly under cli.main over
    the time of cli.main."""
    time_of = defaultdict(float)
    count = defaultdict(int)
    main_s = covered = 0.0
    failed_searches = deepest = 0
    timers = defaultdict(float)
    for trace in traces:
        spans = trace["spans"]
        count["stdout_bytes"] += trace["stdout_bytes"]
        for tname, (_, secs) in trace["timers"].items():
            timers[tname] += secs
        for name, start, end, parent, attrs in spans:
            took = end - start
            if parent == -1:
                main_s += took
                continue
            if parent == 0:
                covered += took
            if "error" in attrs:
                failed_searches += name == "search.search_sequences"
                continue
            if name == "sequences.jacobi_verify":
                name += ".valid" if attrs["ok"] else ".witness"
            time_of[name] += took
            for key, value in attrs.items():
                if key == "deepest":
                    deepest = max(deepest, value)
                elif key != "ok":
                    count[f"{name}.{key}"] += value
    valid_s = time_of["sequences.jacobi_verify.valid"]
    classify_s = time_of["polycheck.classify_admissible_k"]
    search_s = time_of["search.search_sequences"]
    return {
        "cli.main_s": main_s,
        "cli.stdout_bytes": count["stdout_bytes"],
        "divided_powers.compose_s": timers["divided_powers.Endo.compose"],
        "divided_powers.apply_s": timers["divided_powers.Endo.apply"],
        "divided_powers.op_entries": count["exceptional.construct.op_entries"],
        "exceptional.construct_s": time_of["exceptional.construct"],
        "exceptional.two_path_s": time_of["exceptional.two_path_check"],
        "exceptional.abelian_ideal_s": time_of["exceptional.abelian_ideal_check"],
        "exceptional.closed_forms_s": (time_of["exceptional.closed_form_betas"]
                                       + time_of["exceptional.genfunc_closed_form"]
                                       + time_of["sequences.RationalSeries.expand"]),
        "exceptional.abelian_pairs": count["exceptional.abelian_ideal_check.pairs"],
        "sequences.jacobi_valid_s": valid_s,
        "sequences.jacobi_witness_s": time_of["sequences.jacobi_verify.witness"],
        "sequences.jacobi_pairs": (count["sequences.jacobi_verify.valid.pairs"]
                                   + count["sequences.jacobi_verify.witness.pairs"]),
        "sequences.jacobi_triples": (count["sequences.jacobi_verify.valid.triples"]
                                     + count["sequences.jacobi_verify.witness.triples"]),
        "sequences.triples_per_s": _rate(count["sequences.jacobi_verify.valid.triples"],
                                         valid_s),
        "sequences.constituents_s": time_of["sequences.constituents"],
        "polycheck.classify_s": classify_s,
        "polycheck.exponents_per_s": _rate(
            count["polycheck.classify_admissible_k.exponents"], classify_s),
        "polycheck.survivors": count["polycheck.classify_admissible_k.survivors"],
        "search.search_s": search_s,
        "search.nodes": count["search.search_sequences.nodes"],
        "search.solutions": count["search.search_sequences.solutions"],
        "search.deepest": deepest,
        "search.nodes_per_s": _rate(count["search.search_sequences.nodes"], search_s),
        "search.failed": failed_searches,
        "trace.coverage_frac": covered / main_s if main_s else 0.0,
    }


def _rate(amount: float, seconds: float) -> float:
    return amount / seconds if seconds else 0.0


def micro_metrics(spec) -> dict:
    """arith microbenchmarks over the workload's argument ranges; zero for
    a function the workload does not call."""
    if spec is None:
        return {"arith.binom_mod_p_ns": 0.0, "arith.signed_binom_row_s": 0.0,
                "arith.fppoly_mul_ns": 0.0}
    from maxclass.arith import FpPoly, PrimeField, binom_mod_p, signed_binom_row
    p, depth = spec["p"], spec["depth"]
    step = max(1, depth // 150)
    args = [(a, b, p) for a in range(0, depth + 1, step)
            for b in range(0, a + 1, step)]
    binom_ns = _per_call_ns(lambda: [binom_mod_p(*abp) for abp in args], len(args))
    rows_s = mul_ns = 0.0
    if spec.get("rows"):
        signed_binom_row.cache_clear()
        start = time.perf_counter()
        for h in range(depth + 1):
            signed_binom_row(h, p)
        rows_s = time.perf_counter() - start
        signed_binom_row.cache_clear()
    if spec.get("poly"):
        # operator entries are polynomials in t of degree at most 3
        rng, fld = random.Random(0), PrimeField(p)
        polys = [FpPoly(fld, [rng.randrange(p) for _ in range(rng.randint(1, 4))])
                 for _ in range(2001)]
        pairs = list(zip(polys, polys[1:]))
        mul_ns = _per_call_ns(lambda: [f * g for f, g in pairs], len(pairs))
    return {"arith.binom_mod_p_ns": binom_ns, "arith.signed_binom_row_s": rows_s,
            "arith.fppoly_mul_ns": mul_ns}


def _per_call_ns(batch, calls: int, repeats: int = 5) -> float:
    times = []
    for _ in range(repeats):
        start = time.perf_counter()
        batch()
        times.append(time.perf_counter() - start)
    return statistics.median(times) / calls * 1e9


def source_lines() -> dict:
    """Lines per module under src/maxclass, and in the whole package."""
    lines = {path.stem: len(path.read_text().splitlines())
             for path in PACKAGE.glob("*.py")}
    out = {f"{m}.src_lines": lines.get(m, 0) for m in MODULES}
    out["src.total_lines"] = sum(lines.values())
    return out


# ------------------------------------------------------------ runs

def machine() -> dict:
    cpu = platform.processor()
    try:
        with open("/proc/cpuinfo") as fh:
            cpu = next((line.split(":", 1)[1].strip() for line in fh
                        if line.startswith("model name")), cpu)
    except OSError:
        pass
    return {"python": platform.python_version(),
            "nproc": len(os.sched_getaffinity(0)),
            "platform": platform.platform(), "cpu": cpu}


@contextmanager
def scratch(tag: str):
    """A private directory for one run's inputs and outputs, removed after."""
    work = WORK_ROOT / f"{tag}-{os.getpid()}"
    work.mkdir(parents=True)
    try:
        yield work
    finally:
        shutil.rmtree(work, ignore_errors=True)
        with suppress(OSError):     # still in use by another run
            WORK_ROOT.rmdir()


def measure(name: str, seed: int, seconds: float, trace: bool,
            toy: bool = False) -> tuple[dict, dict]:
    """One run: (result object, details)."""
    deadline = time.perf_counter() + RUN_LIMIT_S
    with scratch(f"{name}-{seed}") as work:
        wl = workloads.build(name, seed, work, toy)
        oracle = bind_oracle(name, wl, toy)
        tally = Tally()
        collect = traced_metrics if trace else timed_metrics
        values, details = collect(wl, oracle, seconds, work, deadline, tally)
    units = {m["name"]: m["unit"] for m in
             json.loads(SPEC.read_text())["per_layer" if trace else "end_to_end"]}
    result = {"correct": tally.wrong == 0, "attempted": tally.attempted,
              "failed": tally.failed,
              "metrics": {k: {"value": values[k], "unit": units[k]} for k in units}}
    details.update({"workload": name, "seed": seed, "trace": int(trace),
                    "toy": toy, "machine": machine(),
                    "failures": tally.failures})
    return result, details


def self_check() -> int:
    """Every workload at toy size, traced and not: every metric of
    BENCHMARK.json is emitted with its unit, no answer is wrong, and the
    only request allowed to fail is the deep-search probe."""
    spec = json.loads(SPEC.read_text())
    problems = []
    for name in workloads.WORKLOADS:
        for trace, group in ((False, "end_to_end"), (True, "per_layer")):
            result, details = measure(name, 1, 0, trace, toy=True)
            want = {m["name"]: m["unit"] for m in spec[group]}
            got = {k: v["unit"] for k, v in result["metrics"].items()}
            tag = f"{name} trace={int(trace)}"
            if got != want:
                problems.append(f"{tag}: metrics {sorted(set(got) ^ set(want))}")
            if not result["correct"]:
                problems.append(f"{tag}: wrong answers {details['failures']}")
            others = [f for f in details["failures"] if f["request"] != workloads.PROBE]
            if others:
                problems.append(f"{tag}: failed {others}")
            print(f"{tag}: attempted {result['attempted']} "
                  f"failed {result['failed']}", flush=True)
    for problem in problems:
        print(f"self-check: {problem}", file=sys.stderr)
    print("self-check: " + ("FAILED" if problems else "ok"))
    return 1 if problems else 0


def record_oracle() -> int:
    """Record stdout hash and exit code of every fixed request, full and toy.

    Only for adding a request: the recorded outputs are the contract that
    later changes must keep byte-identical."""
    records = {}
    with scratch("record") as work:
        for name in workloads.WORKLOADS:
            for toy in (False, True):
                wl = workloads.build(name, 0, work, toy)
                for req in wl.requests:
                    if req.check is None:
                        child = spawn(cli_argv(req, work), work, req.name,
                                      time.perf_counter() + RUN_LIMIT_S)
                        records[oracle_key(name, req, toy)] = {
                            "argv": req.argv, "exit": child.code,
                            "sha256": hashlib.sha256(child.stdout).hexdigest()}
    ORACLE.write_text(json.dumps(records, indent=1, sort_keys=True) + "\n")
    return 0


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload")
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--seconds", type=float, default=20)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--self-check", action="store_true")
    parser.add_argument("--record-oracle", action="store_true")
    args = parser.parse_args()
    if args.self_check:
        return self_check()
    if args.record_oracle:
        return record_oracle()
    if args.workload not in workloads.WORKLOADS:
        parser.error(f"--workload must be one of {sorted(workloads.WORKLOADS)}")
    result, details = measure(args.workload, args.seed, args.seconds,
                              bool(args.trace))
    for failure in details["failures"]:
        print(f"perfbench: {failure['request']} failed: {failure['why']}",
              file=sys.stderr)
    print(json.dumps(details, sort_keys=True))
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    if not (PACKAGE / "cli.py").is_file() or not SPEC.is_file():
        print(f"perfbench: needs {PACKAGE} and {SPEC}: run it in a full checkout",
              file=sys.stderr)
        sys.exit(2)
    sys.path.insert(0, str(SRC))
    import workloads
    sys.exit(main())
