"""Run the exhaustive cross-verification sweep at full acceptance scale.

Every isomorphism class without isolated vertices on at most 8 vertices
with at most 10 edges is decided twice (characterisation vs oracle); the
censuses must land exactly on 4 / 18 / 9 / 21.
"""

import time

from coline.sweep import SweepConfig, run_sweep

config = SweepConfig(max_vertices=8, max_edges=10, worker_count=2)
start = time.perf_counter()
report = run_sweep(config)
elapsed = time.perf_counter() - start

print(f"classes scanned: {report.graphs_scanned} in {elapsed:.1f}s "
      f"({config.worker_count} workers)")
print(f"mismatches: {len(report.mismatches)}")
for key, ok in report.census_ok.items():
    print(f"  {key}: {len(report.exception_census[key])} ({'ok' if ok else 'MISMATCH'})")
for key in ("self-coline", "whitney-pairs"):
    print(f"  {key}: {len(report.exception_census[key])}")
print("sweep passed" if report.passed else "SWEEP FAILED")
raise SystemExit(0 if report.passed else 1)
