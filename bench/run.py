#!/usr/bin/env python3
"""Benchmark of the uhprange package.

One run measures one workload in this process, single-threaded:

    python3 bench/run.py --workload report_default --seed 1 --seconds 36 --trace 0

With ``--trace 0`` the run reports the end-to-end metrics, measured with
tracing off; with ``--trace 1`` it alternates untraced and traced passes and
reports the per-layer metrics of the traced ones.  Human-readable lines come
first; the last line of standard output is one JSON object with the keys
``correct``, ``attempted``, ``failed`` and ``metrics``.

    python3 bench/run.py --all --seed 1 --seconds 36

runs every workload, each in a fresh process, and prints every end-to-end
metric by name and unit per workload, with the correctness gates' outcome.

The package is imported from ``src/`` next to this directory; the run
exits with code 2 when that source tree is missing.
"""

from __future__ import annotations

import argparse
import json
import math
import os
import platform
import resource
import shutil
import statistics
import subprocess
import sys
import time
from pathlib import Path

BENCH = Path(__file__).resolve().parent
ROOT = BENCH.parent
SRC = ROOT / "src"
WORK = ROOT / ".bench_work"

WORKLOADS = ("report_default", "cli_spectral", "density")

#: Set-up is timed in this many fresh processes per run; the median counts.
SETUP_SAMPLES = 9

#: Clock of every end-to-end time: CPU time of this process.  The program
#: runs on one thread and waits for nothing, so this is its wall time less
#: the time the host gave its CPU to someone else, which on a shared host
#: swings by tens of percent from run to run.
CLOCK = time.process_time

#: CPU seconds that ``reference_seconds`` takes at nominal machine speed.
#: Op times are reported in seconds at that speed.
REF_NOMINAL_S = 0.016

#: An op's time is scaled by the reference samples taken before it and
#: before the REF_WINDOW ops on either side of it.
REF_WINDOW = 2

END_TO_END = (("setup_s", "s"), ("wall_s", "s"), ("op_p50_s", "s"), ("op_p90_s", "s"),
              ("peak_rss_mb", "MB"))


def _import_package():
    """Put the checkout's source tree first on the path and import it,
    with numpy's BLAS held to one thread: a worker thread per core would
    spin and make timings depend on whatever else runs on the machine."""
    for var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
        os.environ[var] = "1"
    if not (SRC / "uhprange" / "__init__.py").is_file():
        raise ImportError(f"no package source at {SRC / 'uhprange'}")
    sys.path.insert(0, str(SRC))
    sys.path.insert(0, str(BENCH))
    import uhprange
    if Path(uhprange.__file__).resolve().parent != (SRC / "uhprange").resolve():
        raise ImportError(f"uhprange imported from {uhprange.__file__}, not {SRC}")
    import workloads
    return workloads


# -- machine and run metadata ------------------------------------------------------


def _llc_bytes() -> int | None:
    """Largest cache size the kernel lists for cpu0 (read-only)."""
    best = None
    for idx in sorted(Path("/sys/devices/system/cpu/cpu0/cache").glob("index*")):
        try:
            text = (idx / "size").read_text().strip()
        except OSError:
            continue
        mult = {"K": 1024, "M": 1024 ** 2}.get(text[-1:], 1)
        size = int(text.rstrip("KM")) * mult
        best = size if best is None else max(best, size)
    return best


def _cpu_model() -> str:
    try:
        for line in Path("/proc/cpuinfo").read_text().splitlines():
            if line.startswith("model name"):
                return line.split(":", 1)[1].strip()
    except OSError:
        pass
    return platform.processor() or "unknown"


def _git_revision() -> str:
    if not (ROOT / ".git").exists():
        return "unknown (not a git checkout)"
    try:
        out = subprocess.run(["git", "-C", str(ROOT), "rev-parse", "HEAD"],
                             capture_output=True, text=True, timeout=10)
    except (OSError, subprocess.TimeoutExpired):
        return "unknown"
    return out.stdout.strip() or "unknown"


def metadata(seed: int) -> dict:
    import numpy
    return {"nproc": os.cpu_count(), "cpu_model": _cpu_model(), "llc_bytes": _llc_bytes(),
            "python": platform.python_version(), "numpy": numpy.__version__,
            "git_revision": _git_revision(), "seed": seed}


# -- machine speed -------------------------------------------------------------------


def reference_seconds() -> float:
    """CPU time of fixed work of the program's two kinds: scalar interpreter
    arithmetic and small numpy calls.  It runs no package code, so it moves
    with the machine's speed and not with changes to the package."""
    import numpy as np
    x = np.linspace(-3.0, 3.0, 64)
    t0 = CLOCK()
    acc = 0.0
    for i in range(60000):
        v = i * 1e-4
        acc += v * v / (1.0 + v) - math.sqrt(v)
    for _ in range(800):
        acc += float(np.sum(x * x / (1.0 + x * x)))
    return CLOCK() - t0


def at_nominal_speed(seconds: list[float], refs: list[float]) -> list[float]:
    """Each op time times REF_NOMINAL_S / R, with R the median of the
    reference samples within REF_WINDOW places of it.  A shared host's speed
    drifts by tens of percent within seconds, in CPU time too (other tenants
    share the core's caches and pipelines); the reference drifts with it."""
    return [s * REF_NOMINAL_S / statistics.median(refs[max(0, i - REF_WINDOW):i + REF_WINDOW + 1])
            for i, s in enumerate(seconds)]


# -- set-up timing ---------------------------------------------------------------------


def _setup_child(args, workloads) -> int:
    """Build the seeded inputs, then print the process's CPU time so far,
    which counts from its start: interpreter, imports and inputs."""
    workdir = WORK / f"setup-{os.getpid()}"
    try:
        workloads.setup(args.workload, args.seed, workdir)
        print(f"READY {CLOCK()!r}", flush=True)
    finally:
        shutil.rmtree(workdir, ignore_errors=True)
    return 0


def setup_sample(args) -> float:
    """Process start to inputs ready, in a fresh process that reports its
    own CPU time.  Set-up is mostly loading code, whose speed does not
    follow the reference, so this time is not scaled."""
    proc = subprocess.run(
        [sys.executable, str(Path(__file__).resolve()), "--setup-only",
         "--workload", args.workload, "--seed", str(args.seed)],
        capture_output=True, text=True, timeout=120, cwd=str(ROOT))
    ready = [ln for ln in proc.stdout.splitlines() if ln.startswith("READY ")]
    if proc.returncode != 0 or not ready:
        raise RuntimeError(f"set-up child failed: {proc.stderr.strip()[-500:]}")
    return float(ready[-1].split()[1])


class SetupSampler:
    """Takes SETUP_SAMPLES set-up samples spread evenly over a run.  The
    host's speed changes within seconds, so samples taken back to back see
    one speed and samples spread over the run see its mix.  Their real time
    is kept apart, so that they do not shorten the measured time."""

    def __init__(self, args):
        self.args = args
        self.start = time.perf_counter()
        self.spent = 0.0
        self.samples: list[float] = []

    def elapsed(self) -> float:
        """Real seconds since the start, set-up samples excluded."""
        return time.perf_counter() - self.start - self.spent

    def take_due(self, finish: bool = False) -> None:
        while len(self.samples) < SETUP_SAMPLES and (
                finish or self.elapsed() >= len(self.samples) * self.args.seconds / SETUP_SAMPLES):
            t0 = time.perf_counter()
            self.samples.append(setup_sample(self.args))
            self.spent += time.perf_counter() - t0


# -- the measured loop ----------------------------------------------------------------


class Outcomes:
    """Gate outcomes of every op attempted in a run."""

    def __init__(self, known: dict[str, str]):
        self.known = known
        self.attempted = 0
        self.failures: list[tuple[str, str, str]] = []   # (op, kind, detail)

    def record(self, op, result, exc, tracer=None) -> None:
        self.attempted += 1
        if exc is not None:
            kind = type(exc).__name__
            detail = f"{kind}: {exc}"[:300]
        else:
            try:
                detail = op.gate(result, tracer)
            except Exception as gate_exc:  # a malformed result fails its gate
                detail = f"gate raised {type(gate_exc).__name__}: {gate_exc}"
            kind = "gate"
            if detail is None:
                return
        self.failures.append((op.name, kind, detail))

    @property
    def unexpected(self) -> list[tuple[str, str, str]]:
        return [f for f in self.failures if self.known.get(f[0]) != f[1]]


def run_op(op):
    try:
        return op.run(), None
    except (Exception, SystemExit) as exc:  # counted as a failed op
        return None, exc


def run_pass(ops, outcomes: Outcomes, latencies: list[tuple[str, float]], tracer=None,
             op_base: int = 0, clock=CLOCK, refs: list[float] | None = None,
             sampler: SetupSampler | None = None) -> float:
    """Run the ops back to back; gates are checked outside the timers.
    Appends (op name, seconds) per op and returns the pass's op time.
    Given a ``refs`` list, takes a reference sample before each op; given a
    sampler, takes the set-up samples that are due before each op."""
    wall = 0.0
    for i, op in enumerate(ops):
        if tracer is not None:
            tracer.begin_op(op_base + i)
        if sampler is not None:
            sampler.take_due()
        if refs is not None:
            refs.append(reference_seconds())
        t0 = clock()
        result, exc = run_op(op)
        dt = clock() - t0
        wall += dt
        latencies.append((op.name, dt))
        outcomes.record(op, result, exc, tracer)
    return wall


def measure(args, workloads) -> dict:
    meta = metadata(args.seed)

    WORK.mkdir(exist_ok=True)
    workdir = WORK / f"run-{os.getpid()}"
    try:
        wl, first_ops = workloads.setup(args.workload, args.seed, workdir)
        outcomes = Outcomes(workloads.KNOWN_DEFECTS)
        probe_outcomes = Outcomes(workloads.KNOWN_DEFECTS)
        tracer = None
        if args.trace:
            # Probes feed fail_share, which only the traced run reports.
            for probe in wl.probes():
                result, exc = run_op(probe)
                probe_outcomes.record(probe, result, exc)
            import tracing
            tracer = tracing.Tracer()
        latencies, walls, traced_walls, refs = [], [], [], []
        sampler = SetupSampler(args)
        sample_setup = None if args.trace else sampler
        # Warm-up: one pass, gated but not timed, so that no timed pass pays
        # for first calls (imports inside functions, caches, heap growth).
        run_pass(first_ops, outcomes, [], sampler=sample_setup)
        pass_no = 1
        while True:
            ops = wl.fresh(pass_no)
            traced = bool(args.trace) and pass_no % 2 == 0
            installation = tracing.Installation(tracer) if traced else None
            pass_start = sampler.elapsed()
            try:
                wall = run_pass(ops, outcomes, [] if traced else latencies,
                                tracer if traced else None, op_base=pass_no * len(ops),
                                refs=None if args.trace else refs, sampler=sample_setup)
            finally:
                if installation is not None:
                    installation.remove()
            (traced_walls if traced else walls).append(wall)
            pass_no += 1
            now = sampler.elapsed()
            need_traced = bool(args.trace) and not traced_walls
            # The run's length is kept in real time, gates and object
            # construction included, set-up samples excluded.
            if not need_traced and now + (now - pass_start) > args.seconds:
                break
        if not args.trace:
            sampler.take_due(finish=True)
    finally:
        shutil.rmtree(workdir, ignore_errors=True)

    record = {"workload": args.workload, "trace": args.trace, "meta": meta,
              "passes": len(walls), "pass_walls_s": walls,
              "op_latencies_s": latencies,
              "attempted": outcomes.attempted, "failures": outcomes.failures,
              "probes_attempted": probe_outcomes.attempted,
              "probe_failures": probe_outcomes.failures,
              "unexpected_failures": outcomes.unexpected + probe_outcomes.unexpected}
    if args.trace:
        record.update(traced_passes=len(traced_walls), traced_pass_walls_s=traced_walls,
                      layers=tracer.layer_metrics(len(traced_walls)),
                      absent_targets=tracing.bindings()[1],
                      top_self_s=tracer.top_self_times(),
                      fired=dict(tracer.fired), counts=dict(tracer.counts),
                      overhead_s=statistics.median(traced_walls) - statistics.median(walls))
        tracer.save(WORK / f"spans-{args.workload}-seed{args.seed}.npz")
    else:
        seconds = at_nominal_speed([dt for _, dt in latencies], refs)
        n = len(first_ops)   # every pass runs the same ops
        pass_seconds = [sum(seconds[i:i + n]) for i in range(0, len(seconds), n)]
        record.update(
            setup_samples_s=sampler.samples, refs_s=refs,
            unscaled_wall_s=statistics.median(walls),
            metrics={
                "setup_s": statistics.median(sampler.samples),
                "wall_s": statistics.median(pass_seconds),
                "op_p50_s": statistics.median(seconds),
                # "inclusive" interpolates linearly between order statistics
                "op_p90_s": statistics.quantiles(seconds, n=10, method="inclusive")[-1],
                "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0,
            },
            op_samples=len(seconds), op_beyond_p90=int(round(0.1 * len(seconds))))
    return record


# -- output --------------------------------------------------------------------------------


def _print_record(rec: dict) -> dict:
    """Human-readable lines, then the result object (returned)."""
    meta = rec["meta"]
    print(f"# workload {rec['workload']}  seed {meta['seed']}  trace {rec['trace']}  "
          f"nproc {meta['nproc']}  cpu {meta['cpu_model']!r}  llc {meta['llc_bytes']} B  "
          f"python {meta['python']}  numpy {meta['numpy']}  git {meta['git_revision']}")
    unexpected = rec["unexpected_failures"]
    for failure in rec["probe_failures"] + rec["failures"]:
        tag = "UNEXPECTED" if failure in unexpected else "known defect"
        print(f"# fail [{tag}] {failure[0]}: {failure[2]}")
    failed = len(rec["failures"])
    fail_share = ((failed + len(rec["probe_failures"]))
                  / (rec["attempted"] + rec["probes_attempted"]))
    print(f"# gates: {rec['attempted']} timed ops attempted, {failed} failed; "
          f"{rec['probes_attempted']} probes attempted, {len(rec['probe_failures'])} failed; "
          f"{len(unexpected)} unexpected; fail_share {fail_share:.6g} ratio")
    if rec["trace"]:
        import tracing
        metrics = dict(rec["layers"], **{"trace.overhead_s": rec["overhead_s"],
                                         "fail_share": fail_share})
        units = dict(tracing.LAYER_METRICS, **{"trace.overhead_s": "s", "fail_share": "ratio"})
        print(f"# pass walls: traced {rec['traced_pass_walls_s']}, "
              f"untraced {rec['pass_walls_s']}")
        if rec["absent_targets"]:
            print(f"# absent trace targets: {rec['absent_targets']}")
        for name, secs in rec["top_self_s"]:
            print(f"# self time {name}: {secs / rec['traced_passes']:.4f} s/pass")
    else:
        metrics, units = rec["metrics"], dict(END_TO_END)
        print(f"# passes {rec['passes']}; op latencies pooled over {rec['op_samples']} ops, "
              f"{rec['op_beyond_p90']} beyond p90; "
              f"set-up samples {[round(s, 4) for s in rec['setup_samples_s']]} CPU s")
        print(f"# reference median {statistics.median(rec['refs_s']):.5f} s "
              f"(nominal {REF_NOMINAL_S} s); unscaled pass {rec['unscaled_wall_s']:.6g} CPU s")
    for name, value in metrics.items():
        print(f"{rec['workload']:15s} {name:32s} {value:.6g} {units[name]}")
    return {"correct": not unexpected, "attempted": rec["attempted"], "failed": failed,
            "metrics": {k: {"value": float(v), "unit": units[k]} for k, v in metrics.items()}}


def run_all(args) -> int:
    """Every workload in its own process, then one table."""
    rows, ok = [], True
    for name in WORKLOADS:
        proc = subprocess.run(
            [sys.executable, str(Path(__file__).resolve()), "--workload", name,
             "--seed", str(args.seed), "--seconds", str(args.seconds), "--trace", str(args.trace)],
            capture_output=True, text=True, cwd=str(ROOT))
        sys.stdout.write(proc.stdout)
        if proc.returncode != 0:
            sys.stderr.write(proc.stderr)
            return proc.returncode
        result = json.loads(proc.stdout.strip().splitlines()[-1])
        ok = ok and result["correct"]
        rows.append((name, result))
    print("\nworkload        metric                           value        unit")
    for name, result in rows:
        for metric, m in result["metrics"].items():
            print(f"{name:15s} {metric:32s} {m['value']:<12.6g} {m['unit']}")
        print(f"{name:15s} {'gates':32s} {'pass' if result['correct'] else 'FAIL':12s} "
              f"({result['failed']} of {result['attempted']} timed ops failed)")
    print(json.dumps({"correct": ok, "attempted": sum(r["attempted"] for _, r in rows),
                      "failed": sum(r["failed"] for _, r in rows),
                      "metrics": {f"{n}.{k}": v for n, r in rows for k, v in r["metrics"].items()}}))
    return 0


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", choices=WORKLOADS)
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--seconds", type=float, default=36.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--all", action="store_true", help="run every workload")
    parser.add_argument("--setup-only", action="store_true", help=argparse.SUPPRESS)
    args = parser.parse_args(argv)
    if args.all:
        return run_all(args)
    if args.workload is None:
        parser.error("--workload or --all is required")
    try:
        workloads = _import_package()
    except ImportError as exc:
        print(f"bench: {exc}", file=sys.stderr)
        return 2
    if args.setup_only:
        return _setup_child(args, workloads)
    record = measure(args, workloads)
    result = _print_record(record)
    WORK.mkdir(exist_ok=True)
    (WORK / f"record-{args.workload}-seed{args.seed}-trace{args.trace}.json").write_text(
        json.dumps(record, indent=1, default=str) + "\n", encoding="utf-8")
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
