"""One timed phase in a fresh interpreter.

Started by ``run.py`` with a JSON spec on standard input; prints one JSON
result line.  Nothing from the program is imported before the phase starts,
so every phase begins with cold program caches, as a CLI invocation does.
The phases:

* ``setup``: ``import coline`` plus ``load_catalog()``.
* ``sweep``: ``run_sweep`` over a range, checked against the recorded class
  count and censuses.
* ``bootstrap``: ``bootstrap_catalog``; the emitted catalog must equal the
  packaged catalog file byte for byte.
* ``classify``: passes over an input corpus through ``cli.main`` in-process,
  each input starting from cleared program caches.

With ``trace`` set, spans are recorded around the timed calls only.
"""

from __future__ import annotations

import contextlib
import gc
import importlib
import io
import json
import os
import resource
import statistics
import sys
import time

HERE = os.path.dirname(os.path.abspath(__file__))
sys.path.insert(0, HERE)

from corpus import VERDICTS, decode_graph6, invariants, load_expected_certify  # noqa: E402
from tracer import Tracer, install  # noqa: E402

PACKAGE = "coline"

# The host's speed drifts by up to 40% over spells of 5-15 s, which no run
# length affordable here averages out.  So a fixed pure-Python loop is timed
# next to each short sample, and the sample is also reported scaled to the
# loop's nominal time: the loop's median on a 2-core x86-64 VM under
# Python 3.11 when the host is quiet.
CALIBRATION_LOOPS = 100_000
NOMINAL_CALIBRATION_S = 0.0067
CALIBRATION_WINDOW = 3  # samples on each side whose calibrations are pooled


def calibrate() -> float:
    start = time.perf_counter()
    x = 0
    for i in range(CALIBRATION_LOOPS):
        x += i * i
    return time.perf_counter() - start


def host_scaled(walls: list[float], calibrations: list[float]) -> list[float]:
    """Each wall time times nominal/measured speed, where the measured speed
    is the median calibration of the samples taken around it."""
    scaled = []
    for k, wall in enumerate(walls):
        window = calibrations[max(0, k - CALIBRATION_WINDOW): k + CALIBRATION_WINDOW + 1]
        scaled.append(wall * NOMINAL_CALIBRATION_S / statistics.median(window))
    return scaled


def peak_rss_mb() -> float:
    own = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
    workers = resource.getrusage(resource.RUSAGE_CHILDREN).ru_maxrss
    return max(own, workers) / 1024.0


def reset_program_caches() -> None:
    """Empty every functools cache in the package and the catalog cache."""
    for key, module in list(sys.modules.items()):
        if key != PACKAGE and not key.startswith(PACKAGE + "."):
            continue
        for value in list(vars(module).values()):
            clear = getattr(value, "cache_clear", None)
            if callable(clear):
                clear()
    characterize = sys.modules[PACKAGE + ".characterize"]
    if hasattr(characterize, "_DEFAULT_CATALOG"):
        characterize._DEFAULT_CATALOG = None


def start_tracer(spec: dict) -> Tracer | None:
    if not spec.get("trace"):
        return None
    tracer = Tracer()
    install(tracer, PACKAGE)
    return tracer


def timed_scaled(tracer: Tracer | None, call):
    """timed(), plus the wall time host-scaled by calibrations taken just
    before and just after the call."""
    calibrations = [calibrate() for _ in range(2 * CALIBRATION_WINDOW + 1)]
    outcome, wall, covered = timed(tracer, call)
    calibrations += [calibrate() for _ in range(2 * CALIBRATION_WINDOW + 1)]
    return outcome, wall, covered, wall * NOMINAL_CALIBRATION_S / statistics.median(calibrations)


def timed(tracer: Tracer | None, call):
    """Run call(); returns (result or exception, wall seconds, covered seconds)."""
    covered = tracer.covered_s if tracer else 0.0
    if tracer:
        tracer.active = True
    start = time.perf_counter()
    try:
        outcome = call()
    except Exception as exc:  # noqa: BLE001 - a failing phase is a measured failure
        outcome = exc
    wall = time.perf_counter() - start
    if tracer:
        tracer.active = False
        covered = tracer.covered_s - covered
    return outcome, wall, covered


# --- phases -----------------------------------------------------------------

def phase_setup(spec: dict) -> dict:
    calibrations = [calibrate() for _ in range(2 * CALIBRATION_WINDOW + 1)]
    start = time.perf_counter()
    importlib.import_module(PACKAGE)
    imported = time.perf_counter()
    tracer = start_tracer(spec)
    characterize = importlib.import_module(PACKAGE + ".characterize")
    outcome, wall, covered = timed(tracer, characterize.load_catalog)
    failed = int(isinstance(outcome, Exception))
    return {
        "wall_s": imported - start + wall,
        "scaled_s": host_scaled([imported - start + wall], calibrations)[0],
        "load_s": wall,
        "covered_s": covered,
        "attempted": 1,
        "failed": failed,
        "problems": [repr(outcome)] if failed else [],
        "trace": tracer.summary() if tracer else None,
    }


def census_problems(census: dict, catalog_census: dict, recorded: dict, drop_member: bool) -> list[str]:
    """One entry per census that differs from its expectation."""
    expected = {key: set(forms) for key, forms in catalog_census.items()}
    if drop_member:
        key = next(key for key in sorted(expected) if expected[key])
        expected[key].remove(min(expected[key]))
    problems = []
    for key in sorted(expected):
        got = set(census.get(key, ()))
        if got != expected[key] or len(got) != recorded["census_sizes"][key]:
            problems.append(f"census {key}: got {len(got)}, expected {len(expected[key])}")
    self_coline = sorted(
        invariants(*decode_graph6(form)) for form in census.get("self-coline", ())
    )
    if self_coline != recorded["self-coline"]:
        problems.append(f"census self-coline: got {self_coline}")
    whitney = sorted(
        sorted(invariants(*decode_graph6(form)) for form in entry.split())
        for entry in census.get("whitney-pairs", ())
    )
    if whitney != recorded["whitney-pairs"]:
        problems.append(f"census whitney-pairs: got {whitney}")
    return problems


def phase_sweep(spec: dict) -> dict:
    characterize = importlib.import_module(PACKAGE + ".characterize")
    sweep = importlib.import_module(PACKAGE + ".sweep")
    max_vertices, max_edges = spec["range"]
    recorded = load_expected_certify(max_vertices, max_edges)
    censuses = len(recorded["census_sizes"]) + 2
    attempted = recorded["classes"] + censuses
    catalog = characterize.load_catalog()
    config = sweep.SweepConfig(max_vertices, max_edges, worker_count=spec["workers"])
    tracer = start_tracer(spec)
    report, wall, covered, scaled = timed_scaled(tracer, lambda: sweep.run_sweep(config, catalog))
    result = {"wall_s": wall, "scaled_s": scaled, "covered_s": covered, "attempted": attempted}
    if tracer:
        result["trace"] = tracer.summary()
    if isinstance(report, Exception):
        return {**result, "failed": attempted, "problems": [repr(report)]}
    problems = [f"class {canon}: {check} theorem={theorem} oracle={seen}"
                for canon, check, theorem, seen in report.mismatches]
    failed_classes = len({canon for canon, *_ in report.mismatches})
    failed_classes += max(0, recorded["classes"] - report.graphs_scanned)
    if report.graphs_scanned != recorded["classes"]:
        problems.append(f"scanned {report.graphs_scanned} classes, expected {recorded['classes']}")
    if report.partial:
        failed_classes = max(failed_classes, 1)
        problems.append(f"partial sweep: {report.extras.get('error')}")
    catalog_census = sweep.expected_census(catalog, max_vertices, max_edges)
    census = {key: sorted(forms) for key, forms in report.exception_census.items()}
    bad_censuses = census_problems(census, catalog_census, recorded, spec.get("drop_census_member"))
    return {
        **result,
        "failed": failed_classes + len(bad_censuses),
        "problems": problems + bad_censuses,
    }


def phase_bootstrap(spec: dict) -> dict:
    characterize = importlib.import_module(PACKAGE + ".characterize")
    sweep = importlib.import_module(PACKAGE + ".sweep")
    with open(spec["packaged_catalog"], encoding="ascii") as handle:
        packaged = handle.read()
    tracer = start_tracer(spec)
    outcome, wall, covered, scaled = timed_scaled(tracer, lambda: sweep.bootstrap_catalog(*spec["range"]))
    result = {"wall_s": wall, "scaled_s": scaled, "covered_s": covered, "attempted": 1}
    if tracer:
        result["trace"] = tracer.summary()
    if isinstance(outcome, Exception):
        return {**result, "failed": 1, "problems": [repr(outcome)]}
    if characterize.emit_catalog(outcome[0]) != packaged:
        return {**result, "failed": 1, "problems": ["bootstrapped catalog differs from the packaged file"]}
    return {**result, "failed": 0, "problems": []}


def classify_problem(entry: dict, code, output: str) -> str | None:
    """Why one classify call is wrong, or None when it is right."""
    if code != 0:
        return f"exit code {code!r}"
    try:
        report = json.loads(output)
        graph, verdicts = report["graph"], report["verdicts"]
        n, m, _ = entry["invariants"]
        if (graph["n"], graph["m"]) != (n, m):
            return f"graph size {graph['n']}/{graph['m']}"
        if invariants(*decode_graph6(graph["canonical_graph6"])) != entry["invariants"]:
            return "canonical id is not a relabelling of the input"
        if entry["coline_components"] is not None and report["coline"] != {
            "n": m, "components": entry["coline_components"]
        }:
            return f"coline {report['coline']}"
        if entry["verdicts"] is None:
            return None if "out_of_scope" in verdicts else "expected out of scope"
        got = {key: verdicts[key]["value"] for key in VERDICTS}
    except (ValueError, KeyError, TypeError, IndexError) as exc:
        return f"unreadable report: {exc!r}"
    return None if got == entry["verdicts"] else f"verdicts {got}"


def classify_once(cli, characterize, tracer: Tracer | None, entry: dict) -> tuple[float, float, str | None]:
    """Returns (wall seconds, seconds inside outermost spans, problem)."""
    reset_program_caches()
    if tracer:
        tracer.forget_inputs()
    characterize.load_catalog()
    gc.collect()  # a fresh CLI process starts with no garbage from earlier inputs
    out, err = io.StringIO(), io.StringIO()

    def call():
        with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
            try:
                return cli.main(["classify", "--graph6", entry["graph6"]])
            except SystemExit as exc:
                return f"exit {exc.code!r}"

    code, wall, covered = timed(tracer, call)
    if isinstance(code, Exception):
        return wall, covered, f"raised {code!r}"
    return wall, covered, classify_problem(entry, code, out.getvalue())


def phase_classify(spec: dict) -> dict:
    characterize = importlib.import_module(PACKAGE + ".characterize")
    cli = importlib.import_module(PACKAGE + ".cli")
    entries = spec["inputs"]
    if spec.get("corrupt_verdict"):
        victim = next(entry for entry in entries if entry["verdicts"])
        victim["verdicts"] = {**victim["verdicts"], "tough": not victim["verdicts"]["tough"]}
    taken: list[int] = []  # input index of each sample, in the order taken
    walls: list[float] = []
    calibrations: list[float] = []
    problems: dict[int, str] = {}
    failed = attempted = 0
    passes = 0
    first_pass_s = 0.0
    best = [float("inf")] * len(entries)
    start = time.perf_counter()
    while passes == 0 or time.perf_counter() - start < spec["seconds"]:
        for index, entry in enumerate(entries):
            # an input that missed the limit has missed it; measuring it
            # again would spend the run on the few slowest inputs
            if passes and best[index] > spec["limit_s"]:
                continue
            calibrations.append(calibrate())
            wall, _, problem = classify_once(cli, characterize, None, entry)
            taken.append(index)
            walls.append(wall)
            best[index] = min(best[index], wall)
            first_pass_s += wall if passes == 0 else 0.0
            attempted += 1
            if problem:
                failed += 1
                problems.setdefault(index, f"{entry['name']}: {problem}")
        passes += 1
    scaled = host_scaled(walls, calibrations)

    def fastest(values: list[float], index: int) -> float:
        # host noise only adds time, so an input's fastest sample is the
        # steadiest estimate of its own cost
        return min(value for value, i in zip(values, taken) if i == index)

    result = {
        "passes": passes,
        "first_pass_s": first_pass_s,
        "latency_s": best,
        "scaled_latency_s": [fastest(scaled, index) for index in range(len(entries))],
        "input_ok": [index not in problems for index in range(len(entries))],
        "names": [entry["name"] for entry in entries],
        "attempted": attempted,
        "failed": failed,
        "problems": list(problems.values()),
    }
    if spec.get("trace"):
        tracer = start_tracer(spec)
        traced_wall = covered = 0.0
        for entry in entries:
            wall, span_s, problem = classify_once(cli, characterize, tracer, entry)
            traced_wall += wall
            covered += span_s
            result["attempted"] += 1
            if problem:
                result["failed"] += 1
                result["problems"].append(f"{entry['name']} (traced): {problem}")
        result.update(traced_wall_s=traced_wall, covered_s=covered, trace=tracer.summary())
    return result


PHASES = {
    "setup": phase_setup,
    "sweep": phase_sweep,
    "bootstrap": phase_bootstrap,
    "classify": phase_classify,
}


def main() -> None:
    spec = json.load(sys.stdin)
    sys.path.insert(0, spec["src"])
    result = PHASES[spec["phase"]](spec)
    result["peak_rss_mb"] = peak_rss_mb()
    print(json.dumps(result))


if __name__ == "__main__":
    main()
