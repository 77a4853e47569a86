"""Benchmark workloads: seeded inputs, timed operations, correctness gates
and known-defect probes.

An operation ("op") is the unit a user submits: one map's report, one CLI
command, or one listed library call.  Every op carries a gate that checks
its result with the acceptance suite's own tolerances.  Probes are untimed
ops that exercise a known defect; the traced run runs them once and counts
them in the failure share, so a defect shows until it is fixed.  No timed
op fails today: an op that would is a probe.

The package is always reached through module attributes at call time
(``u.closed_range_report``, ``cli.main``), so the traced run's wrappers see
every call.
"""

from __future__ import annotations

import contextlib
import io
import json
import math
import shutil
from dataclasses import dataclass
from pathlib import Path
from typing import Any, Callable

import numpy as np

import uhprange as u
from uhprange import cli

#: Probe name -> failure kind it shows today (exception class name, or
#: "gate").  A failure of that kind counts in ``fail_share`` but not against
#: ``correct``; any other failure makes the run incorrect.
KNOWN_DEFECTS = {
    "probe:report:translation_pole": "ConvergenceError",
    "probe:batch_invariance:zloglin0": "gate",
    "probe:batch_invariance:translation_pole": "gate",
    "probe:cli_tau_leading_minus": "SystemExit",
    "probe:clark_measure_tau0:uniform": "ConvergenceError",
    "probe:clark_measure_tau0:uniform_atom": "ConvergenceError",
}


@dataclass
class Op:
    """One unit of work.  ``run`` returns a result that ``gate`` checks;
    ``gate`` returns None when the result is correct, else a reason."""

    name: str
    run: Callable[[], Any]
    gate: Callable[[Any, Any], str | None]


@dataclass
class Workload:
    """One workload's seeded inputs, behind two functions.  ``fresh(pass)``
    builds new map, measure and transform objects, so that every pass pays
    for lazily built branch tables, and returns the pass's timed ops;
    ``probes()`` returns the untimed known-defect probes."""

    fresh: Callable[[int], list[Op]]
    probes: Callable[[], list[Op]]


def _stratified(rng: np.random.Generator, lo: float, hi: float, n: int) -> np.ndarray:
    """One uniform draw in each of n equal strata of (lo, hi): the values
    differ per seed while their spread over the range, and so the work
    they cause, stays nearly the same."""
    return lo + (hi - lo) * (np.arange(n) + rng.random(n)) / n


def _spread(groups: list[list[Op]]) -> list[Op]:
    """Merge lists of ops so that each list is spread evenly over the pass.
    A slow phase of the machine then hits few ops of any one kind, which
    keeps the pooled op percentiles steady."""
    keyed = [((i + 0.5) / len(g), k, op) for k, g in enumerate(groups) for i, op in enumerate(g)]
    return [op for _, _, op in sorted(keyed, key=lambda t: t[:2])]


# -- report_default ---------------------------------------------------------------

_REPORT_MAPS = {
    "identity": lambda: u.phi_identity(),
    "translation_pole": lambda: u.phi_from_nevanlinna(
        u.NevanlinnaData(1.0, 1.0, u.RealMeasure.point_mass(0.0))),
    "zloglin0": lambda: u.phi_from_catalog("zloglin", alpha=0.0),
    "sqrt": lambda: u.phi_from_catalog("sqrt"),
    "zlog": lambda: u.phi_from_catalog("zlog"),
}

_EXPECTED_VERDICT = {
    "identity": "closed_range", "translation_pole": "closed_range",
    "zloglin0": "closed_range", "sqrt": "not_closed_range", "zlog": "not_closed_range",
}

#: Acceptance tolerance on the four-route agreement of closed-range maps.
_CROSS_GAP_TOL = 0.05

#: Reduced versions of the library's default grids (201 centers, 11 lengths,
#: 81 taus, 11 dyadic levels), same construction, sized so that one pass
#: over the five maps fits about ten times into a run.  About 25 queries
#: per tau, close to the default grids' 21, keeps the route shares close.
_REPORT_CENTERS, _REPORT_LENGTHS, _REPORT_DYADIC = 11, 5, 4
_REPORT_TAUS, _REPORT_TAU_DYADIC = 3, 1


def _clamped_hull(phi) -> tuple[float, float]:
    """The padded-grid anchor the library's default grids use."""
    hull = phi.support_hull
    if hull is None:
        return (-1.0, 1.0)
    lo = -30.0 if math.isinf(hull[0]) else hull[0]
    hi = 30.0 if math.isinf(hull[1]) else hull[1]
    return (lo, hi) if hi > lo else (lo, lo + 1.0)


def _dyadic(lo: float, hi: float, levels: int) -> list[float]:
    return [e + s * 2.0 ** -k for e in (lo, hi) for s in (1.0, -1.0) for k in range(levels)]


def report_grids(phi) -> tuple[Any, tuple[float, ...]]:
    lo, hi = _clamped_hull(phi)
    centers = np.unique(np.concatenate([np.linspace(lo - 10.0, hi + 10.0, _REPORT_CENTERS),
                                        _dyadic(lo, hi, _REPORT_DYADIC)]))
    lengths = 2.0 ** -np.arange(_REPORT_LENGTHS, dtype=float)
    taus = np.unique(np.concatenate([np.linspace(lo - 10.0, hi + 10.0, _REPORT_TAUS),
                                     _dyadic(lo, hi, _REPORT_TAU_DYADIC), [0.0]]))
    return u.QueryGrid(tuple(centers.tolist()), tuple(lengths.tolist())), tuple(taus.tolist())


def _gate_report(name: str):
    def gate(rep, _tracer) -> str | None:
        want = _EXPECTED_VERDICT[name]
        if rep.verdict != want:
            return f"verdict {rep.verdict}, expected {want}"
        if want == "closed_range" and not rep.cross_gap < _CROSS_GAP_TOL:
            return f"cross_gap {rep.cross_gap:.4g} >= {_CROSS_GAP_TOL}"
        return None
    return gate


#: Its report raises ConvergenceError in the Rayleigh step, so it is a probe.
_REPORT_PROBE = "translation_pole"


def _report_op(name: str, prefix: str = "") -> Op:
    phi = _REPORT_MAPS[name]()
    grid, taus = report_grids(phi)
    return Op(f"{prefix}report:{name}",
              lambda: u.closed_range_report(phi, grid=grid, tau_grid=taus), _gate_report(name))


def _setup_report(seed: int, workdir: Path) -> Workload:
    # The seed is unused: the acceptance maps and their grids are fixed.
    def fresh(_pass: int) -> list[Op]:
        return [_report_op(name) for name in _REPORT_MAPS if name != _REPORT_PROBE]

    rng = np.random.default_rng(seed)
    targets = {name: rng.random(16) for name in ("zloglin0", "translation_pole")}

    def probes() -> list[Op]:
        return [_report_op(_REPORT_PROBE, "probe:")] + [
            Op(f"probe:batch_invariance:{name}",
               lambda name=name: _batch_invariance(_REPORT_MAPS[name](), targets[name]),
               _gate_batch_invariance)
            for name in targets]

    return Workload(fresh, probes)


def _batch_invariance(phi, fractions: np.ndarray) -> float:
    """Largest difference between roots solved one target at a time and
    the same targets solved as one batch, over every branch."""
    worst = 0.0
    for tbl in phi.branch_tables():
        lo, hi = tbl.value_range
        # Outer tables reach |x| = 1e8; keep targets where roots are ordinary.
        lo, hi = max(lo, -50.0), min(hi, 50.0)
        targets = lo + (hi - lo) * (0.02 + 0.96 * fractions)
        batch = tbl.solve(targets)
        single = np.asarray([tbl.solve(np.asarray([t]))[0] for t in targets])
        worst = max(worst, float(np.max(np.abs(batch - single))))
    return worst


def _gate_batch_invariance(diff: float, _tracer) -> str | None:
    return None if diff == 0.0 else f"batched and scalar roots differ by {diff:.3g}"


# -- cli_spectral -------------------------------------------------------------------

_CLARK_CONFIGS = {
    "zloglin0": {"catalog": "zloglin", "params": {"alpha": 0.0}},
    "sqrt": {"catalog": "sqrt"},
    "sqrtpole_m1": {"catalog": "sqrtpole", "params": {"alpha": -1.0}},
    "zlog": {"catalog": "zlog"},
    "atoms3": {"nevanlinna": {"alpha": 1.0, "beta": 1.0,
                              "atoms": [[-1.0, 0.5], [0.0, 1.0], [2.0, 0.3]]}},
}
_SIMILARITY_CONFIG = {"catalog": "zloglin", "params": {"alpha": 5.0}}
_CLARK_TAUS, _TAU_LO, _TAU_HI = 7, -3.0, 6.0
_POWER_FLOOR = 1e-3


def _cli_call(argv: list[str]) -> int:
    """``uhprange.cli.main`` in process, with its console output captured."""
    with contextlib.redirect_stdout(io.StringIO()), contextlib.redirect_stderr(io.StringIO()):
        return cli.main(argv)


def _output_bytes(out: Path) -> int:
    return sum(p.stat().st_size for p in out.iterdir() if p.is_file())


def _read_rows(path: Path) -> list[dict]:
    return json.loads(path.read_text(encoding="utf-8"))["rows"]


def _gate_clark(result, tracer) -> str | None:
    code, out = result
    try:
        if code != 0:
            return f"exit code {code}"
        bad = [r["tau"] for r in _read_rows(out / "clark.json") if r["normalized"] != "true"]
        return f"rows not normalized at tau {bad}" if bad else None
    finally:
        _finish_cli_output(out, tracer)


def _gate_similarity(result, tracer) -> str | None:
    code, out = result
    try:
        if code != 0:
            return f"exit code {code}"
        cert = _read_rows(out / "similarity.json")[0]
        if cert["status"] != "certified":
            return f"status {cert['status']}"
        if not math.isfinite(float(cert["product_bound"] or "nan")):
            return "product bound not finite"
        floors = [float(r["lower_bound"]) for r in _read_rows(out / "similarity_powers.json")]
        if len(floors) != 4 or min(floors) < _POWER_FLOOR:
            return f"power floors {floors}"
        return None
    finally:
        _finish_cli_output(out, tracer)


def _finish_cli_output(out: Path, tracer) -> None:
    if tracer is not None:
        tracer.count("cli.output_bytes", _output_bytes(out))
    shutil.rmtree(out, ignore_errors=True)


def _setup_cli(seed: int, workdir: Path) -> Workload:
    rng = np.random.default_rng(seed)
    confdir = workdir / "configs"
    confdir.mkdir(parents=True, exist_ok=True)
    configs, taus = {}, {}
    for name, spec in list(_CLARK_CONFIGS.items()) + [("similarity", _SIMILARITY_CONFIG)]:
        path = confdir / f"{name}.json"
        path.write_text(json.dumps({"phi": spec, "format": "json"}), encoding="utf-8")
        configs[name] = str(path)
    for name in _CLARK_CONFIGS:
        taus[name] = _stratified(rng, _TAU_LO, _TAU_HI, _CLARK_TAUS)

    def fresh(pass_no: int) -> list[Op]:
        ops = []
        for name in _CLARK_CONFIGS:
            out = workdir / f"out-{pass_no}-{name}"
            argv = ["clark", "--config", configs[name], "--out", str(out), "--jobs", "1",
                    "--tau=" + ",".join("%.17g" % t for t in taus[name])]
            ops.append(Op(f"cli:clark:{name}", lambda argv=argv, out=out: (_cli_call(argv), out),
                          _gate_clark))
        out = workdir / f"out-{pass_no}-similarity"
        argv = ["similarity", "--config", configs["similarity"], "--out", str(out),
                "--jobs", "1"]
        ops.append(Op("cli:similarity:zloglin5", lambda argv=argv, out=out: (_cli_call(argv), out),
                      _gate_similarity))
        return ops

    def probes() -> list[Op]:
        out = workdir / "out-probe"
        argv = ["clark", "--config", configs["zloglin0"], "--out", str(out), "--jobs", "1",
                "--tau", "-1,0.5"]
        return [Op("probe:cli_tau_leading_minus", lambda: (_cli_call(argv), out), _gate_clark)]

    return Workload(fresh, probes)


# -- density --------------------------------------------------------------------------

_B_LENGTHS = (1.0, 0.25, 1.0 / 16.0)
_B_CENTERS, _ATOM_TAUS, _BOOLE_MEASURES = 5, 5, 25
_BOOLE_TOL = 1e-6
_TSERETELI_MIX = (0.49, 0.51)
#: Singular mass of the other two Tsereteli inputs is 0 (uniform) and 1
#: (Cantor); they are held to the width of the mixed-measure window.
_TSERETELI_TOL = 0.01
_ROOT_TOL = 1e-8


def _density_rhos():
    uniform = u.RealMeasure.uniform(0.0, 1.0, mass=0.5)
    return {"uniform": uniform,
            "uniform_atom": uniform.combined(u.RealMeasure.point_mass(2.0, 0.5))}


def _density_phi(rho):
    return u.phi_from_nevanlinna(u.NevanlinnaData(1.0, 1.0, rho))


def _gate_constant_B(est, _tracer) -> str | None:
    # Real-branch atoms of each spectral measure carry at most its unit
    # mass, so no interval ratio exceeds 1.
    v = est.value
    return None if (math.isfinite(v) and 0.0 < v <= 1.0 + 1e-9) else f"B = {v!r}"


def _gate_atoms(phi, tau: float):
    def gate(atoms, _tracer) -> str | None:
        if not atoms:
            return "no atoms"
        masses = [m for (_, m) in atoms]
        if min(masses) <= 0.0 or sum(masses) > 1.0 + 1e-9:
            return f"atom masses {masses}"
        roots = np.asarray([x for (x, _) in atoms])
        miss = float(np.max(np.abs(phi.boundary_real(roots) - tau)))
        return None if miss <= _ROOT_TOL * (1.0 + abs(tau)) else f"phi(root) misses tau by {miss:.3g}"
    return gate


def _gate_certificate(cert, _tracer) -> str | None:
    if cert.status != "certified":
        return f"status {cert.status}"
    if not (cert.product_bound is not None and math.isfinite(cert.product_bound)):
        return "product bound not finite"
    return None


def _gate_window(lo: float, hi: float):
    def gate(est, _tracer) -> str | None:
        return None if lo <= est.estimate <= hi else f"estimate {est.estimate!r} outside [{lo}, {hi}]"
    return gate


def _gate_boole(err, _tracer) -> str | None:
    return None if err <= _BOOLE_TOL else f"Boole error {err:.3g}"


def _setup_density(seed: int, workdir: Path) -> Workload:
    rng = np.random.default_rng(seed)
    centers = {name: _stratified(rng, -2.0, 4.0, _B_CENTERS) for name in ("uniform", "uniform_atom")}
    atom_taus = {name: _stratified(rng, -3.0, 6.0, _ATOM_TAUS) for name in ("uniform", "uniform_atom")}
    boole = []
    for i in range(_BOOLE_MEASURES):
        n = 1 + i % 6
        pos = np.sort(_stratified(rng, -5.0, 5.0, n))
        w = rng.uniform(0.05, 1.0, n)
        boole.append(list(zip(pos.tolist(), (w / w.sum()).tolist())))

    def fresh(_pass: int) -> list[Op]:
        big, atom_ops, boole_ops = [], [], []
        for name, rho in _density_rhos().items():
            phi = _density_phi(rho)
            grid = u.QueryGrid(tuple(centers[name].tolist()), _B_LENGTHS)
            big.append(Op(f"density:constant_B:{name}",
                          lambda phi=phi, grid=grid: u.constant_B(phi, grid), _gate_constant_B))
            for tau in atom_taus[name].tolist():
                atom_ops.append(Op(f"density:clark_atoms:{name}",
                                   lambda phi=phi, tau=tau: u.clark_atoms(phi, tau),
                                   _gate_atoms(phi, tau)))
            big.append(Op(f"density:similarity_certificate:{name}",
                          lambda phi=phi: u.similarity_certificate(phi), _gate_certificate))
        uniform = u.RealMeasure.uniform(0.0, 1.0, mass=0.5)
        for name, mu, window in [
                ("atom_uniform_mix", u.RealMeasure.point_mass(0.0, 0.5).combined(uniform),
                 _TSERETELI_MIX),
                ("uniform_m1_1", u.RealMeasure.uniform(-1.0, 1.0), (-_TSERETELI_TOL, _TSERETELI_TOL)),
                ("cantor9", u.RealMeasure.cantor(depth=9),
                 (1.0 - _TSERETELI_TOL, 1.0 + _TSERETELI_TOL))]:
            G = u.cauchy_transform(mu)
            big.append(Op(f"density:tsereteli:{name}",
                          lambda G=G: u.singular_mass_tsereteli(G), _gate_window(*window)))
        for atoms in boole:
            mu = u.RealMeasure.from_atoms(atoms)
            boole_ops.append(Op("density:boole_check", lambda mu=mu: u.boole_check(mu),
                                _gate_boole))
        return _spread([big, atom_ops, boole_ops])

    def probes() -> list[Op]:
        return [Op(f"probe:clark_measure_tau0:{name}",
                   lambda rho=rho: u.clark_measure(_density_phi(rho), 0.0),
                   lambda cm, _t: None if cm.diagnostics["normalized"] else "not normalized")
                for name, rho in _density_rhos().items()]

    return Workload(fresh, probes)


_SETUP = {"report_default": _setup_report, "cli_spectral": _setup_cli, "density": _setup_density}


def setup(name: str, seed: int, workdir: Path) -> tuple[Workload, list[Op]]:
    """Seeded inputs plus the first pass's ops: everything a run needs
    before its first timed op."""
    wl = _SETUP[name](seed, workdir)
    return wl, wl.fresh(0)

