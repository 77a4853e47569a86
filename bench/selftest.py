#!/usr/bin/env python3
"""Self-test of the benchmark (not part of the package's test suite).

    python3 bench/selftest.py [--seed N]

Checks, for every workload, in two fresh processes with the same seed:

- the untraced pass leaves every attribute the tracer would patch
  identical (``is``) to the original, and removing the wrappers after a
  traced pass restores every one of them;
- every wrapper fires on the workloads listed for it in ``EXPECTED``;
- the traced counts repeat exactly between the two processes;
- on ``report_default`` the route times (A self + B + C self + D +
  Rayleigh) add up to the traced pass's wall time;

and, without running any op, that the metric names in BENCHMARK.json match
the ones the benchmark reports and that every known-defect op exists.
Exits with code 1 when any check fails.
"""

from __future__ import annotations

import argparse
import json
import math
import os
import shutil
import subprocess
import sys
import time
from concurrent.futures import ThreadPoolExecutor
from pathlib import Path

import run

#: Wrapped target -> workloads on which it must fire.
EXPECTED = {
    "range_analysis.closed_range_report": ("report_default",),
    "range_analysis._interval_measures": ("report_default", "cli_spectral", "density"),
    "range_analysis._disk_sweep": ("report_default",),
    "range_analysis.constant_D": ("report_default",),
    "range_analysis.constant_A_upper": ("report_default",),
    "range_analysis.similarity_certificate": ("cli_spectral", "density"),
    "range_analysis.similarity_lower_bound": ("cli_spectral",),
    "_roots.BranchTable.solve": ("report_default", "cli_spectral", "density"),
    "_roots.BranchTable.solve_clamped": ("report_default", "cli_spectral", "density"),
    "_roots.bisect_increasing": ("report_default", "cli_spectral", "density"),
    "herglotz.PhiFunction.boundary": ("report_default", "cli_spectral"),
    "herglotz.PhiFunction.boundary_real": ("report_default", "cli_spectral", "density"),
    "herglotz.NevanlinnaPhi._node_sum": ("report_default", "cli_spectral", "density"),
    "_roots.BranchTable.__init__": ("report_default", "cli_spectral", "density"),
    "levelset.preimage_interval_set": ("report_default",),
    "levelset.boundary_disk_panels": ("report_default", "cli_spectral"),
    "levelset.tail_set_measure": ("report_default", "cli_spectral", "density"),
    "clark.clark_measure": ("cli_spectral",),
    "clark.singular_mass_tsereteli": ("report_default", "cli_spectral", "density"),
    "_quad.integrate_interval": ("report_default", "cli_spectral", "density"),
    "_quad.integrate_line_relative": ("report_default",),
    "_quad.integrate_power_endpoint": ("cli_spectral", "density"),
    "_quad.pv_cauchy": ("density",),
    "_quad.fixed_panel_sums": ("report_default",),
    "_quad._gauss_batch": ("report_default", "cli_spectral", "density"),
    "measures.AcPiece.integrate": ("density",),
    "cauchy.CauchyTransform.real_value": ("density",),
    "cauchy.CauchyTransform.boundary_re": ("density",),
    "cli.main": ("cli_spectral",),
    "cli._write_rows": ("cli_spectral",),
}

#: Traced metrics that are pure functions of the inputs.
EXACT_UNITS = ("count", "B", "ratio", "length")


def child(workload: str, seed: int) -> dict:
    """One untraced and one traced pass in this process."""
    workloads = run._import_package()
    import tracing
    found, absent = tracing.bindings()
    workdir = run.WORK / f"selftest-{os.getpid()}"
    try:
        wl, ops = workloads.setup(workload, seed, workdir)
        return _passes(wl, ops, found, absent, workloads.KNOWN_DEFECTS, tracing)
    finally:
        shutil.rmtree(workdir, ignore_errors=True)


def _passes(wl, ops, found, absent, known, tracing) -> dict:
    def unchanged() -> bool:
        return all(vars(owner).get(attr) is original for _, owner, attr, original in found)

    outcomes = run.Outcomes(known)
    untraced_wall = run.run_pass(ops, outcomes, [])
    untraced_ok = unchanged()
    ops = wl.fresh(1)
    tracer = tracing.Tracer()
    installation = tracing.Installation(tracer)
    try:
        patched_ok = not unchanged()
        # Spans are timed in real time, so this pass is too.
        traced_wall = run.run_pass(ops, outcomes, [], tracer, clock=time.perf_counter)
    finally:
        installation.remove()
    c = tracer.counts
    routes = (c["route_self_s:range_analysis.closed_range_report"]
              + c["route_s:range_analysis._interval_measures"]
              + c["route_self_s:range_analysis._disk_sweep"]
              + c["route_s:range_analysis.constant_D"]
              + c["route_s:range_analysis.constant_A_upper"])
    return {"untraced_ok": untraced_ok, "patched_ok": patched_ok, "restored_ok": unchanged(),
            "absent": absent, "fired": sorted(tracer.fired), "layers": tracer.layer_metrics(1),
            "untraced_wall": untraced_wall, "traced_wall": traced_wall, "routes_s": routes,
            "unexpected": outcomes.unexpected}


def _spawn(workload: str, seed: int) -> dict:
    proc = subprocess.run([sys.executable, str(Path(__file__).resolve()), "--child", workload,
                           "--seed", str(seed)], capture_output=True, text=True, timeout=600,
                          cwd=str(run.ROOT))
    if proc.returncode != 0:
        raise RuntimeError(f"{workload} child failed:\n{proc.stderr[-2000:]}")
    return json.loads(proc.stdout.strip().splitlines()[-1])


def static_checks(workloads, tracing) -> list[str]:
    errors = []
    spec = json.loads((run.ROOT / "BENCHMARK.json").read_text())
    if [w["name"] for w in spec["workloads"]] != list(run.WORKLOADS):
        errors.append("BENCHMARK.json workloads differ from run.WORKLOADS")
    if [(m["name"], m["unit"]) for m in spec["end_to_end"]] != list(run.END_TO_END):
        errors.append("BENCHMARK.json end_to_end differs from run.END_TO_END")
    layer = list(tracing.LAYER_METRICS) + [("trace.overhead_s", "s"), ("fail_share", "ratio")]
    if [(m["name"], m["unit"]) for m in spec["per_layer"]] != layer:
        errors.append("BENCHMARK.json per_layer differs from the traced run's metrics")
    targets = {t.name for t in tracing.TARGETS}
    if targets != set(EXPECTED):
        errors.append(f"EXPECTED and TARGETS differ: {sorted(targets ^ set(EXPECTED))}")
    probes, timed = set(), set()
    workdir = run.WORK / f"selftest-{os.getpid()}"
    try:
        for name in run.WORKLOADS:
            wl, ops = workloads.setup(name, 0, workdir)
            timed |= {op.name for op in ops}
            probes |= {op.name for op in wl.probes()}
    finally:
        shutil.rmtree(workdir, ignore_errors=True)
    missing = set(workloads.KNOWN_DEFECTS) - probes
    if missing:
        errors.append(f"known defects name no probe: {sorted(missing)}")
    if set(workloads.KNOWN_DEFECTS) & timed:
        errors.append(f"known defects among timed ops: {sorted(set(workloads.KNOWN_DEFECTS) & timed)}")
    return errors


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--child", default=None, help=argparse.SUPPRESS)
    args = parser.parse_args()
    if args.child:
        print(json.dumps(child(args.child, args.seed), default=str))
        return 0

    workloads = run._import_package()
    import tracing
    errors = static_checks(workloads, tracing)
    units = dict(tracing.LAYER_METRICS)
    for name in run.WORKLOADS:
        with ThreadPoolExecutor(max_workers=2) as pool:
            first, second = pool.map(lambda _: _spawn(name, args.seed), range(2))
        print(f"{name}: untraced pass {first['untraced_wall']:.2f} s, "
              f"traced {first['traced_wall']:.2f} s, absent targets {first['absent']}")
        for key in ("untraced_ok", "patched_ok", "restored_ok"):
            if not first[key]:
                errors.append(f"{name}: {key} is false")
        if first["unexpected"]:
            errors.append(f"{name}: unexpected failures {first['unexpected']}")
        fired = set(first["fired"])
        for target, where in EXPECTED.items():
            if name in where and target not in fired and target not in first["absent"]:
                errors.append(f"{name}: wrapper {target} did not fire")
        for metric, value in first["layers"].items():
            if units[metric] in EXACT_UNITS and value != second["layers"][metric]:
                errors.append(f"{name}: {metric} differs between runs "
                              f"({value!r} vs {second['layers'][metric]!r})")
        if name == "report_default" and not math.isclose(first["routes_s"], first["traced_wall"],
                                                         rel_tol=1e-3):
            errors.append(f"report routes add to {first['routes_s']:.4f} s, "
                          f"traced pass took {first['traced_wall']:.4f} s")
    for e in errors:
        print(f"FAIL {e}")
    print("selftest: " + ("FAIL" if errors else "PASS"))
    return 1 if errors else 0


if __name__ == "__main__":
    sys.exit(main())
