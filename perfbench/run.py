"""Benchmark for coline: certify and classify with cold caches.

Run from the repository root:

    python3 perfbench/run.py --workload certify-8-10 --seed 1 --seconds 20 --trace 0

Workloads (closed loop, one caller, one process except the 2-worker sweep):

* ``certify-8-10``: ``run_sweep`` at 8 vertices / 10 edges with 1 worker,
  the same with 2 workers, and ``bootstrap_catalog(8, 10)``, each in a fresh
  interpreter.  The seed does not change these inputs.
* ``classify-symmetric``: ``coline classify --graph6`` in-process over the
  fixed corpus in ``corpus_symmetric.json``, in an order drawn from the seed.
* ``classify-sparse``: the same CLI path over G(n, 3n), one draw per n in
  60, 66, ..., 300, with edges drawn from the seed.

Each run times ``import coline`` plus ``load_catalog()`` in fresh
interpreters before and after the workload (``setup_s``, the median).
Classify passes repeat until ``--seconds`` have passed, at least once; a
certify pass is longer than that and runs once.  Every classify input
starts from cleared program caches, so no input reuses canonical forms
computed for another input or in an earlier pass.  Set-up and classify
times are scaled to a nominal host speed (see ``phase.host_scaled``).

The last line of standard output is the result JSON.  With ``--trace 0`` it
holds the end-to-end metrics; with ``--trace 1`` the per-layer ones, from
a traced repeat of each phase next to an untraced one.  The line before it
is a report with the metrics named per workload (``sweep_s``,
``classify_p50_ms``, ...), the failures found, and, when traced, span
coverage and tracing overhead.  ``README.md`` explains the choices.
"""

from __future__ import annotations

import argparse
import json
import math
import os
import signal
import statistics
import subprocess
import sys
import time

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
SRC = os.path.join(ROOT, "src")
PACKAGED_CATALOG = os.path.join(SRC, "coline", "data", "catalog.txt")
sys.path.insert(0, HERE)

from corpus import load_expected_certify, sparse_inputs, symmetric_inputs  # noqa: E402
from tracer import SPAN_NAMES  # noqa: E402

WORKLOADS = ("certify-8-10", "classify-symmetric", "classify-sparse")
CERTIFY_RANGE = (8, 10)
# Set-up is sampled this many times before the workload and again after it,
# so that a slow spell of the shared host does not set the median alone.
SETUP_REPEATS = 6
# A classify input that takes longer than this misses.  When this benchmark
# was added, host-scaled latencies sat at most 0.45 s (K7) below it and at
# least 1.01 s (K5 plus five isolated vertices) above it, both more than
# 30% away.
CLASSIFY_LIMIT_S = 0.75
# One certify phase over this would push the run past its time budget.
CERTIFY_LIMIT_S = 50.0
RUN_BUDGET_S = 170.0

END_TO_END_UNITS = {
    "setup_s": "s",
    "peak_rss_mb": "MB",
    "work_s": "s",
    "op_p50_ms": "ms",
    "op_tail_ms": "ms",
    "in_limit_frac": "ratio",
}


class Budget:
    def __init__(self, seconds: float) -> None:
        self.deadline = time.monotonic() + seconds

    def left(self) -> float:
        return self.deadline - time.monotonic()


def run_phase(spec: dict, budget: Budget) -> dict:
    """Run one phase in a fresh interpreter; any failure becomes a result."""
    spec = {**spec, "src": SRC}
    env = {k: v for k, v in os.environ.items() if k != "COLINE_CATALOG"}
    env["PYTHONHASHSEED"] = "0"
    timeout = budget.left()
    if timeout <= 1:
        return {"failed_phase": "no time left in the run budget"}
    proc = subprocess.Popen(
        [sys.executable, os.path.join(HERE, "phase.py")],
        stdin=subprocess.PIPE,
        stdout=subprocess.PIPE,
        stderr=subprocess.PIPE,
        text=True,
        env=env,
        cwd=ROOT,
        start_new_session=True,
    )
    try:
        out, err = proc.communicate(json.dumps(spec), timeout=timeout)
    except subprocess.TimeoutExpired:
        os.killpg(proc.pid, signal.SIGKILL)
        proc.communicate()
        return {"failed_phase": f"{spec['phase']} timed out after {timeout:.0f} s"}
    finally:
        # pool workers of a crashed phase share its process group
        try:
            os.killpg(proc.pid, signal.SIGKILL)
        except ProcessLookupError:
            pass
    lines = out.strip().splitlines()
    if proc.returncode != 0 or not lines:
        tail = err.strip().splitlines()[-1:] or ["no output"]
        return {"failed_phase": f"{spec['phase']} exited {proc.returncode}: {tail[0]}"}
    return json.loads(lines[-1])


def tail_percentile(values: list[float]) -> tuple[int, float]:
    """Highest nearest-rank percentile with at least 10 samples above it.
    With 10 samples or fewer there is none, and the median stands in."""
    ordered = sorted(values)
    count = len(ordered)
    if count <= 10:
        return 50, statistics.median(ordered)
    pct = math.floor(100 * (count - 10) / count)
    rank = math.ceil(pct * count / 100)
    return pct, ordered[rank - 1]


class Run:
    def __init__(self, args: argparse.Namespace) -> None:
        self.args = args
        self.budget = Budget(RUN_BUDGET_S)
        self.attempted = 0
        self.failed = 0
        self.problems: list[str] = []
        self.rss_mb = 0.0
        self.report: dict = {"workload": args.workload, "seed": args.seed}
        self.named: dict[str, tuple[float, str]] = {}  # workload-specific metrics
        self.setup_walls: list[float] = []
        self.setup_scaled: list[float] = []
        self.setup_loads: list[float] = []
        self.traces: list[tuple[str, dict]] = []  # (phase label, trace summary)
        self.trace_walls: dict[str, tuple[float, float, float]] = {}  # label -> untraced, traced, covered

    def phase(self, spec: dict, attempted: int) -> dict | None:
        result = run_phase(spec, self.budget)
        if "failed_phase" in result:
            self.attempted += attempted
            self.failed += attempted
            self.problems.append(result["failed_phase"])
            return None
        self.attempted += result["attempted"]
        self.failed += result["failed"]
        self.problems += result["problems"][:5]
        self.rss_mb = max(self.rss_mb, result["peak_rss_mb"])
        return result

    # -- set-up ---------------------------------------------------------------

    def sample_setup(self) -> None:
        for _ in range(SETUP_REPEATS):
            result = self.phase({"phase": "setup"}, 1)
            if result:
                self.setup_walls.append(result["wall_s"])
                self.setup_scaled.append(result["scaled_s"])
                self.setup_loads.append(result["load_s"])

    def trace_setup(self) -> None:
        traced = self.phase({"phase": "setup", "trace": True}, 1)
        if traced and self.setup_loads:
            self.traces.append(("setup", traced["trace"]))
            untraced = statistics.median(self.setup_loads)
            self.trace_walls["setup"] = (untraced, traced["load_s"], traced["covered_s"])

    def setup_s(self) -> float:
        return statistics.median(self.setup_scaled) if self.setup_scaled else math.nan

    def setup_wall_s(self) -> float:
        return statistics.median(self.setup_walls) if self.setup_walls else math.nan

    # -- workloads --------------------------------------------------------------

    def certify(self) -> dict:
        args = self.args
        sweep_range = (args.max_vertices, args.max_edges)
        specs = (
            ("sweep_s", {"phase": "sweep", "range": sweep_range, "workers": 1}),
            ("sweep_w2_s", {"phase": "sweep", "range": sweep_range, "workers": 2}),
            ("bootstrap_s", {"phase": "bootstrap", "range": CERTIFY_RANGE,
                             "packaged_catalog": PACKAGED_CATALOG}),
        )
        recorded = load_expected_certify(*sweep_range)
        sweep_ops = recorded["classes"] + len(recorded["census_sizes"]) + 2
        phase_ops = {"sweep_s": sweep_ops, "sweep_w2_s": sweep_ops, "bootstrap_s": 1}
        walls, scaled = {}, {}
        in_limit = 0
        for label, spec in specs:
            spec = {**spec, "drop_census_member": args.drop_census_member}
            before = self.failed
            result = self.phase(spec, phase_ops[label])
            if result is None:
                continue
            walls[label] = result["wall_s"]
            scaled[label] = result["scaled_s"]
            in_limit += self.failed == before and result["wall_s"] <= CERTIFY_LIMIT_S
            if args.trace:
                traced = self.phase({**spec, "trace": True}, phase_ops[label])
                if traced:
                    self.traces.append((label, traced["trace"]))
                    self.trace_walls[label] = (result["wall_s"], traced["wall_s"], traced["covered_s"])
        self.named.update((label, (value, "s")) for label, value in scaled.items())
        self.named["certify_wall_s"] = (sum(walls.values()), "s")
        values = [scaled.get(label, math.nan) for label, _ in specs]
        pct, tail = tail_percentile(values)
        self.report.update(certify_range=list(sweep_range), op_tail_percentile=pct,
                           op_samples=len(values))
        return {
            "work_s": sum(values),
            "op_p50_ms": statistics.median(values) * 1000,
            "op_tail_ms": tail * 1000,
            "in_limit_frac": in_limit / len(specs),
        }

    def classify(self, entries: list[dict]) -> dict:
        args = self.args
        if args.corpus_limit:
            entries = entries[: args.corpus_limit]
        spec = {
            "phase": "classify",
            "inputs": entries,
            # a traced run compares one untraced pass with one traced pass
            "seconds": 0 if args.trace else args.seconds,
            "limit_s": CLASSIFY_LIMIT_S,
            "trace": bool(args.trace),
            "corrupt_verdict": args.corrupt_verdict,
        }
        result = self.phase(spec, len(entries))
        if result is None:
            nan = math.nan
            return {"work_s": nan, "op_p50_ms": nan, "op_tail_ms": nan, "in_limit_frac": 0.0}
        latency = result["scaled_latency_s"]
        hits = sum(ok and t <= CLASSIFY_LIMIT_S for ok, t in zip(result["input_ok"], latency))
        pct, tail = tail_percentile(latency)
        misses = [name for name, ok, t in zip(result["names"], result["input_ok"], latency)
                  if not ok or t > CLASSIFY_LIMIT_S]
        classify_s = sum(latency)
        p50_ms = statistics.median(latency) * 1000
        self.named.update(
            classify_s=(classify_s, "s"),
            classify_wall_s=(sum(result["latency_s"]), "s"),
            classify_p50_ms=(p50_ms, "ms"),
            classify_tail_ms=(tail * 1000, "ms"),
            classify_miss_frac=(len(misses) / len(latency), "ratio"),
        )
        self.report.update(
            classify_tail_percentile=pct,
            classify_samples=len(latency),
            classify_passes=result["passes"],
            classify_limit_s=CLASSIFY_LIMIT_S,
            classify_misses=misses,
        )
        if args.trace:
            self.traces.append(("classify", result["trace"]))
            self.trace_walls["classify"] = (result["first_pass_s"], result["traced_wall_s"], result["covered_s"])
        return {
            "work_s": classify_s,
            "op_p50_ms": p50_ms,
            "op_tail_ms": tail * 1000,
            "in_limit_frac": hits / len(latency),
        }

    # -- per-layer metrics ---------------------------------------------------------

    def per_layer(self) -> dict:
        calls: dict[str, int] = {name: 0 for name in SPAN_NAMES}
        self_s: dict[str, float] = {name: 0.0 for name in SPAN_NAMES}
        counts = {"canonical_from_enumeration": 0, "classes_yielded": 0,
                  "canonical_repeats": 0, "tough_exhaustive": 0}
        missing: set[str] = set()
        for _, trace in self.traces:
            for name, value in trace["calls"].items():
                calls[name] += value
            for name, value in trace["self_s"].items():
                self_s[name] += value
            for key in counts:
                counts[key] += trace[key]
            missing.update(trace["missing"])

        def share(part: float, whole: float) -> float:
            return part / whole if whole else 0.0

        metrics = {}
        for name in SPAN_NAMES:
            metrics[f"{name}.calls"] = (calls[name], "count")
            metrics[f"{name}.self_s"] = (self_s[name], "s")
        w2_children = 0.0
        for label, trace in self.traces:
            if label == "sweep_w2_s":
                run_sweep = "sweep.run_sweep"
                w2_children = trace["total_s"].get(run_sweep, 0.0) - trace["self_s"].get(run_sweep, 0.0)
        coverage = {label: share(covered, traced) for label, (_, traced, covered) in self.trace_walls.items()}
        overhead = sum(traced - untraced for untraced, traced, _ in self.trace_walls.values())
        metrics.update({
            "oracle.iter_graph_classes.yield_ratio": (
                share(counts["classes_yielded"], counts["canonical_from_enumeration"]), "ratio"),
            "oracle.canonical_graph.repeat_ratio": (
                share(counts["canonical_repeats"], calls["oracle.canonical_graph"]), "ratio"),
            "oracle.is_tough.exhaustive_ratio": (
                share(counts["tough_exhaustive"], calls["oracle.is_tough"]), "ratio"),
            "sweep.w2.serial_share": (
                share(w2_children, self.trace_walls.get("sweep_w2_s", (0, 0, 0))[1]), "ratio"),
            "trace.coverage": (min(coverage.values(), default=0.0), "ratio"),
            "trace.overhead_s": (overhead, "s"),
        })
        self.report["span_coverage"] = coverage
        self.report["tracing_overhead_s"] = {
            label: traced - untraced for label, (untraced, traced, _) in self.trace_walls.items()
        }
        self.report["untraced_functions"] = sorted(missing)
        return metrics


def finite(value: float) -> float | None:
    """A metric whose phase failed has no value; JSON has no NaN."""
    return value if math.isfinite(value) else None


def parse_args(argv: list[str] | None) -> argparse.Namespace:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=WORKLOADS)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    # for the self-tests: a smaller sweep range, a shorter corpus, and
    # deliberately wrong expectations that must be reported as failures
    parser.add_argument("--max-vertices", type=int, default=CERTIFY_RANGE[0])
    parser.add_argument("--max-edges", type=int, default=CERTIFY_RANGE[1])
    parser.add_argument("--corpus-limit", type=int, default=0)
    parser.add_argument("--corrupt-verdict", action="store_true")
    parser.add_argument("--drop-census-member", action="store_true")
    return parser.parse_args(argv)


def main(argv: list[str] | None = None) -> int:
    args = parse_args(argv)
    if not os.path.isfile(os.path.join(SRC, "coline", "__init__.py")):
        print(f"error: no coline package under {SRC}; run from a checkout", file=sys.stderr)
        return 2
    run = Run(args)
    run.sample_setup()
    if args.workload == "certify-8-10":
        work = run.certify()
    elif args.workload == "classify-symmetric":
        work = run.classify(symmetric_inputs(args.seed))
    else:
        work = run.classify(sparse_inputs(args.seed))
    run.sample_setup()
    if args.trace:
        run.trace_setup()
        metrics = run.per_layer()
    else:
        values = {"setup_s": run.setup_s(), "peak_rss_mb": run.rss_mb, **work}
        metrics = {name: (values[name], unit) for name, unit in END_TO_END_UNITS.items()}
    named = {
        "setup_s": (run.setup_s(), "s"),
        "setup_wall_s": (run.setup_wall_s(), "s"),
        "peak_rss_mb": (run.rss_mb, "MB"),
        "failed_frac": (run.failed / max(run.attempted, 1), "ratio"),
        **run.named,
    }
    report = {
        **run.report,
        "metrics": {name: {"value": finite(value), "unit": unit} for name, (value, unit) in named.items()},
        "problems": run.problems,
    }
    print(json.dumps({"report": report}))
    print(json.dumps({
        "correct": run.failed == 0,
        "attempted": run.attempted,
        "failed": run.failed,
        "metrics": {name: {"value": finite(value), "unit": unit} for name, (value, unit) in metrics.items()},
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
