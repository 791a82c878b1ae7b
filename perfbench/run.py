"""strictgames benchmark: one workload per process, closed loop, one client.

    python3 perfbench/run.py --workload solve-lp --seed 1 --seconds 30 --trace 0

Run from the root of a source checkout; the package is imported from its
``src`` directory, and the benchmark exits with an error if that is missing.
The workload's inputs are generated from ``--seed`` into a scratch directory
under the checkout, and every output is checked exactly.  The last line of
standard output is one JSON object with ``correct``, ``attempted``,
``failed`` and ``metrics``: the end-to-end metrics with ``--trace 0``, the
per-layer metrics of a traced run with ``--trace 1``.  See README.md.

The run cycles through the inputs until ``--seconds`` have passed.  Each
run of an op is timed against a reference loop run around it (see
speed.py); an input's latency is the median over its runs.
"""

import time

_START = time.perf_counter()  # set-up time counts from here

import argparse  # noqa: E402
import hashlib  # noqa: E402
import json  # noqa: E402
import os  # noqa: E402
import resource  # noqa: E402
import shutil  # noqa: E402
import statistics  # noqa: E402
import subprocess  # noqa: E402
import sys  # noqa: E402
import traceback  # noqa: E402
from collections import Counter  # noqa: E402
from pathlib import Path  # noqa: E402
from types import SimpleNamespace  # noqa: E402

import spans  # noqa: E402
import workloads  # noqa: E402
from speed import NOMINAL_NS, Speed  # noqa: E402

CHECKOUT = Path(__file__).resolve().parent.parent
WORK_ROOT = CHECKOUT / ".perfbench_work"

# The exact counts and the output digest cover the first COUNTED_OPS runs,
# which are the same inputs for a seed.  p90 needs at least ten samples
# beyond it, so a run makes at least MIN_OPS runs even if --seconds have
# passed; every pool holds at least 105 inputs, so they cover at least 105.
COUNTED_OPS = 102
MIN_OPS = 110
# set-up is measured in this many fresh processes (two children and the
# measuring process itself); the median is reported
SETUPS = 3
SHOWN_FAILURES = 5


def parse_args(argv=None) -> argparse.Namespace:
    p = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    p.add_argument("--workload", required=True, choices=sorted(workloads.WORKLOADS))
    p.add_argument("--seed", required=True, type=int)
    p.add_argument("--seconds", required=True, type=int)
    p.add_argument("--trace", required=True, type=int, choices=(0, 1))
    p.add_argument("--setup-only", action="store_true", help=argparse.SUPPRESS)
    args = p.parse_args(argv)
    if args.seconds < 1:
        p.error("--seconds must be >= 1")
    return args


def import_package():
    """Import strictgames from this checkout's ``src``, or exit with an error."""
    src = CHECKOUT / "src"
    if not (src / "strictgames" / "__init__.py").is_file():
        sys.exit(f"perfbench: no package source at {src}")
    sys.path.insert(0, str(src))
    import strictgames
    import strictgames.cli

    if not Path(strictgames.__file__).resolve().is_relative_to(src):
        sys.exit(f"perfbench: strictgames was imported from {strictgames.__file__}")
    api = SimpleNamespace(
        run_cli=strictgames.cli.run_cli,
        load_game=strictgames.load_game,
        to_zero_sum=strictgames.to_zero_sum,
        minimax_solve=strictgames.minimax_solve,
        support_enumeration=strictgames.support_enumeration,
        equilibrium_invariance_check=strictgames.equilibrium_invariance_check,
        AffineTransform=strictgames.AffineTransform,
    )
    return strictgames.cli, api


class Outcomes:
    """Failure tally over every run of every input.

    A counted run, or a run of an input with no checked output yet, is
    checked exactly; a later run must give an output equal to the checked
    one.  The output digest and the exact counts cover the counted runs.
    """

    def __init__(self) -> None:
        self.attempted = 0
        self.failed = 0
        self.digest = hashlib.sha256()
        self.counts = Counter()
        self.verified: dict[int, object] = {}

    def record(self, i: int, op, raw, error: str | None, counted: bool) -> None:
        self.attempted += 1
        problems = [error] if error else self._problems(i, op, raw, counted)
        if problems:
            self.failed += 1
            if self.failed <= SHOWN_FAILURES:
                print(f"perfbench: {op.label} failed: {problems[0]}", file=sys.stderr)

    def _problems(self, i: int, op, raw, counted: bool) -> list[str]:
        try:
            output = op.output(raw)
            if not counted and i in self.verified:
                if output == self.verified[i]:
                    return []
                return ["output differs from an earlier, checked run of the same input"]
            checked = op.check(output)
        except Exception:
            return ["checker raised: " + traceback.format_exc(limit=3)]
        if checked.problems:
            return checked.problems
        self.verified[i] = output
        if counted:
            self.digest.update(repr(output).encode() + b"\0")
            self.counts += checked.counts
        return []


def timed(run, api) -> tuple[int, object, str | None]:
    """Run one op; return (nanoseconds, raw output, error or None)."""
    start = time.perf_counter_ns()
    try:
        raw = run(api)
    except Exception:
        return time.perf_counter_ns() - start, None, traceback.format_exc(limit=3)
    return time.perf_counter_ns() - start, raw, None


def measure(wl, api, seconds: int, outcomes: Outcomes, speed: Speed) -> list[float]:
    """Per-input latency in nominal nanoseconds (see speed.py)."""
    runs: list[list[float]] = [[] for _ in wl.ops]
    before = speed.probe()
    deadline = time.perf_counter() + seconds
    k = 0
    while k < MIN_OPS or time.perf_counter() < deadline:
        i = k % len(wl.ops)
        ns, raw, error = timed(wl.ops[i].run, api)
        after = speed.probe()
        runs[i].append(2 * ns / (before + after))  # in reference loops
        before = after
        outcomes.record(i, wl.ops[i], raw, error, counted=k < COUNTED_OPS)
        k += 1
    return [statistics.median(r) * NOMINAL_NS for r in runs if r]


def measure_traced(wl, cli_module, api, seconds: int, outcomes: Outcomes):
    """Run every input twice, traced and untraced in alternating order, so
    the tracing overhead is measured on identical work."""
    tracer = spans.Tracer()
    ns_by_mode = [0, 0]
    deadline = time.perf_counter() + seconds
    k = 0
    while k < COUNTED_OPS or time.perf_counter() < deadline:
        i = k % len(wl.ops)
        op = wl.ops[i]
        counted = k < COUNTED_OPS
        for traced in ((True, False) if k % 2 == 0 else (False, True)):
            if traced:
                tracer.counting = counted
                with tracer.installed(cli_module, api) as traced_api:
                    ns, raw, error = timed(tracer.wrap(spans.ROOT, op.run), traced_api)
                outcomes.record(i, op, raw, error, counted)
            else:
                ns, raw, error = timed(op.run, api)
                outcomes.record(i, op, raw, error, counted=False)
            ns_by_mode[traced] += ns
        k += 1
    return tracer, k, ns_by_mode[1] / ns_by_mode[0] - 1


def metric(value: float, unit: str) -> dict:
    return {"value": value, "unit": unit}


def end_to_end(latencies: list[float], outcomes: Outcomes, setup_s: float) -> dict:
    ms = [ns / 1e6 for ns in latencies]
    cuts = statistics.quantiles(ms, n=100, method="inclusive")
    p50, p90 = cuts[49], cuts[89]
    if sum(v > p90 for v in ms) < 10:
        sys.exit("perfbench: fewer than ten samples beyond p90")
    return {
        "setup_s": metric(setup_s, "s"),
        "ops_per_s": metric(len(ms) / (sum(ms) / 1e3), "1/s"),
        "latency_p50_ms": metric(p50, "ms"),
        "latency_p90_ms": metric(p90, "ms"),
        "success_ratio": metric(1 - outcomes.failed / outcomes.attempted, "ratio"),
        "peak_rss_mb": metric(resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024, "MB"),
    }


def per_layer(tracer: spans.Tracer, outcomes: Outcomes, ops: int, overhead: float) -> dict:
    total = tracer.busy_ns[spans.ROOT]
    out = {}
    for span in spans.SPANS:
        out[f"{span}.calls"] = metric(tracer.calls[span], "count")
        out[f"{span}.busy_ms"] = metric(tracer.busy_ns[span] / 1e6 / ops, "ms")
        out[f"{span}.self_share"] = metric(tracer.self_ns[span] / total, "ratio")
        out[f"{span}.failed"] = metric(tracer.failed[span], "count")
    c = outcomes.counts
    for name, unit in (
        ("io.entries_parsed", "count"),
        ("io.bytes_read", "B"),
        ("io.bytes_written", "B"),
        ("detection.cells_scanned", "count"),
        ("solvers.lp_output_bits", "bit"),
        ("solvers.enum_support_pairs", "count"),
        ("solvers.enum_equilibria", "count"),
        ("solvers.crosscheck.compared", "count"),
        ("solvers.crosscheck.agreed", "count"),
        ("solvers.crosscheck.unchecked", "count"),
        ("axioms.samples_drawn", "count"),
    ):
        out[name] = metric(c[name], unit)
    out["strategic.decomposed_ratio"] = metric(
        c["strategic.decomposed"] / c["strategic.calls"] if c["strategic.calls"] else 0.0, "ratio"
    )
    judged = c["axioms.checked"] + c["axioms.vacuous"]
    out["axioms.checked_ratio"] = metric(c["axioms.checked"] / judged if judged else 0.0, "ratio")
    out["trace.overhead_ratio"] = metric(overhead, "ratio")
    out["trace.glue_share"] = metric(tracer.self_ns[spans.ROOT] / total, "ratio")
    return out


def child_setup(args) -> float:
    """Set-up time, in reference loops, of a fresh process doing only set-up."""
    cmd = [sys.executable, __file__, "--workload", args.workload, "--seed", str(args.seed),
           "--seconds", str(args.seconds), "--trace", "0", "--setup-only"]
    done = subprocess.run(cmd, cwd=CHECKOUT, capture_output=True, text=True, timeout=170)
    if done.returncode != 0:
        sys.exit(f"perfbench: set-up process failed:\n{done.stderr}")
    return json.loads(done.stdout.splitlines()[-1])["setup_refs"]


def main(argv=None) -> int:
    args = parse_args(argv)
    speed = Speed()
    speed.probe()
    cli_module, api = import_package()
    workdir = WORK_ROOT / str(os.getpid())
    workdir.mkdir(parents=True)
    try:
        wl = workloads.WORKLOADS[args.workload](args.seed, str(workdir))
        speed.probe()
        outcomes = Outcomes()
        for i, op in enumerate(wl.ops[: wl.warmup]):
            _, raw, error = timed(op.run, api)
            outcomes.record(i, op, raw, error, counted=False)
        speed.probe()
        # set-up time without the probes, in reference loops around it
        setup_ns = (time.perf_counter() - _START) * 1e9 - sum(speed.probes)
        setup_refs = setup_ns / statistics.mean(speed.probes)
        if args.setup_only:
            print(json.dumps({"setup_refs": setup_refs}))
            return 0
        print(f"inputs sha256 {wl.input_digest}")
        if args.trace:
            tracer, ops, overhead = measure_traced(wl, cli_module, api, args.seconds, outcomes)
            metrics = per_layer(tracer, outcomes, ops, overhead)
        else:
            latencies = measure(wl, api, args.seconds, outcomes, speed)
            setups = [setup_refs] + [child_setup(args) for _ in range(SETUPS - 1)]
            metrics = end_to_end(latencies, outcomes, statistics.median(setups) * NOMINAL_NS / 1e9)
            print(speed.summary())
    finally:
        shutil.rmtree(workdir, ignore_errors=True)
    print(f"outputs sha256 {outcomes.digest.hexdigest()} (first {COUNTED_OPS} runs)")
    print(f"{args.workload}: inputs={len(wl.ops)} runs={outcomes.attempted} failed={outcomes.failed} " + " ".join(
        f"{name}={m['value']:.6g}{m['unit']}" for name, m in metrics.items()
        if not args.trace or name.endswith("self_share")))
    print(json.dumps({
        "correct": outcomes.failed == 0,
        "attempted": outcomes.attempted,
        "failed": outcomes.failed,
        "metrics": metrics,
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
