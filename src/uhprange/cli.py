"""Config-driven command line front end.

Subcommands: eval, clark, constants, similarity, verify.  A single JSON
config file defines the map, grids, tolerances, and seed; every default
used is echoed into the output for provenance.  Outputs are CSV or JSON
with fixed column sets and deterministic formatting: identical config and
seed produce byte-identical files.

Exit codes: 0 success, 1 verification failure, 2 config error, 3 numeric
non-convergence.
"""

from __future__ import annotations

import argparse
import csv
import io
import json
import math
import sys
from pathlib import Path

import numpy as np

from .cauchy import cauchy_transform, g_tau
from .clark import clark_measures
from .errors import (ConfigError, ConvergenceError, OrbitBreakError,
                     QuadratureError, UhprangeError)
from .herglotz import (CATALOG, NevanlinnaData, PhiFunction, phi_from_catalog,
                       phi_from_nevanlinna)
from .levelset import preimage_interval_set, tail_measures, tail_set_measure
from .measures import RealMeasure, ScCantorPiece
from .range_analysis import (QueryGrid, boole_check, closed_range_report,
                             default_grid, default_tau_grid, letac_check,
                             similarity_certificate, similarity_lower_bound)

_FMT = "%.12g"


def _fnum(x) -> str:
    if x is None:
        return ""
    if isinstance(x, float) and math.isnan(x):
        return "nan"
    return _FMT % float(x)


# -- config ---------------------------------------------------------------------


_DENSITIES = {"uniform": RealMeasure.uniform, "arcsine": RealMeasure.arcsine,
              "poisson": RealMeasure.poisson}


def load_config(path: str) -> dict:
    try:
        with open(path, "r", encoding="utf-8") as fh:
            cfg = json.load(fh)
    except (OSError, json.JSONDecodeError) as exc:
        raise ConfigError(f"cannot read config {path}: {exc}") from exc
    if not isinstance(cfg, dict) or "phi" not in cfg:
        raise ConfigError("config must be a JSON object with a 'phi' entry")
    return cfg


def build_phi(cfg: dict) -> PhiFunction:
    spec = cfg["phi"]
    if not isinstance(spec, dict) or len({"catalog", "nevanlinna"} & set(spec)) != 1:
        raise ConfigError("phi must have exactly one of 'catalog' or 'nevanlinna'")
    if "catalog" in spec:
        name = spec["catalog"]
        params = spec.get("params", {})
        if name not in CATALOG:
            raise ConfigError(f"unknown catalog entry {name!r}; choices {sorted(CATALOG)}")
        try:
            return phi_from_catalog(name, **params)
        except UhprangeError as exc:
            raise ConfigError(str(exc)) from exc
    block = spec["nevanlinna"]
    try:
        alpha = float(block.get("alpha", 0.0))
        beta = float(block.get("beta", 1.0))
        atoms = tuple((float(p), float(m)) for (p, m) in block.get("atoms", []))
        pieces = []
        for dd in block.get("densities", []):
            name = dd.get("name")
            if name not in _DENSITIES:
                raise ConfigError(f"unknown density {name!r}; choices {sorted(_DENSITIES)}")
            lo, hi = (float(v) for v in dd["interval"])
            mass = {"mass": float(dd["mass"])} if "mass" in dd else {}
            pieces.extend(_DENSITIES[name](lo, hi, **mass).ac_pieces)
        sc = []
        for ss in block.get("sc", []):
            lo, hi = (float(v) for v in ss["interval"])
            sc.append(ScCantorPiece(lo, hi, float(ss.get("mass", 1.0)),
                                    depth=int(ss.get("depth", 16)),
                                    middle=float(ss.get("middle", 1.0 / 3.0))))
        rho = RealMeasure(atoms=atoms, ac_pieces=tuple(pieces), sc_pieces=tuple(sc))
        return phi_from_nevanlinna(NevanlinnaData(alpha=alpha, beta=beta, rho=rho))
    except (KeyError, TypeError, ValueError) as exc:
        raise ConfigError(f"bad nevanlinna block: {exc}") from exc


def build_grid(cfg: dict, phi: PhiFunction) -> QueryGrid:
    grids = cfg.get("grids", {})
    base = default_grid(phi)
    centers = tuple(float(c) for c in grids.get("centers", base.centers))
    lengths = tuple(float(l) for l in grids.get("lengths", base.lengths))
    return QueryGrid(centers, lengths)


def build_tau_grid(cfg: dict, phi: PhiFunction) -> tuple[float, ...]:
    grids = cfg.get("grids", {})
    if "tau" in grids:
        return tuple(float(t) for t in grids["tau"])
    return default_tau_grid(phi)


# -- writers ----------------------------------------------------------------------


def _write_rows(path: Path, fieldnames: list[str], rows: list[dict], fmt: str,
                header: dict):
    if fmt == "csv":
        # quoted where a field holds a comma (verify's case labels)
        text = io.StringIO()
        text.write("# " + json.dumps(header, sort_keys=True) + "\n")
        out = csv.writer(text, lineterminator="\n")
        out.writerow(fieldnames)
        out.writerows([row.get(k, "") for k in fieldnames] for row in rows)
        path.with_suffix(".csv").write_text(text.getvalue(), encoding="utf-8")
    else:
        doc = {"header": header, "rows": rows}
        path.with_suffix(".json").write_text(
            json.dumps(doc, sort_keys=True, indent=2) + "\n", encoding="utf-8")


def _header(cfg: dict, command: str, extra: dict | None = None) -> dict:
    head = {"command": command, "seed": int(cfg.get("seed", 0)),
            "format": cfg.get("format", "json")}
    if extra:
        head.update(extra)
    return head


# -- commands ---------------------------------------------------------------------


def cmd_eval(cfg: dict, phi: PhiFunction, out: Path, fmt: str, args) -> int:
    raw_points = args.points.split(",") if args.points else cfg.get("points", [])
    if not raw_points:
        raise ConfigError("eval needs points (--points or config 'points')")
    rows = []
    for raw in raw_points:
        z = complex(str(raw).strip().replace(" ", ""))
        if z.imag == 0:
            x = z.real
            branch = phi.branch_of(x)
            val = phi.boundary_value(x)
            try:
                der = phi.derivative(x) if branch is not None else None
            except UhprangeError:
                der = None
            bid = "-" if branch is None else str(phi.real_branches.index(branch))
        else:
            val = phi.eval(z)
            der = phi.derivative(z)
            bid = "-"
        rows.append({
            "point": _fnum(z.real) if z.imag == 0 else f"{_fnum(z.real)}+{_fnum(z.imag)}j",
            "value_re": _fnum(np.real(val)), "value_im": _fnum(np.imag(val)),
            "derivative_re": _fnum(np.real(der)) if der is not None else "",
            "derivative_im": _fnum(np.imag(der)) if der is not None else "",
            "branch": bid})
    _write_rows(out / "eval", ["point", "value_re", "value_im", "derivative_re",
                               "derivative_im", "branch"], rows, fmt,
                _header(cfg, "eval", {"phi": phi.name}))
    return 0


def cmd_clark(cfg: dict, phi: PhiFunction, out: Path, fmt: str, args) -> int:
    taus = ([float(t) for t in args.tau.split(",")] if args.tau
            else [float(t) for t in cfg.get("tau", [0.0])])
    rows, grids = [], {}  # id of a density grid -> (grid, its rows awaiting the densities)
    for idx, (tau, cm) in enumerate(zip(taus, clark_measures(phi, taus))):
        rows.append({
            "tau": _fnum(tau),
            "n_atoms": len(cm.atoms),
            "atoms": ";".join(f"{_fnum(p)}:{_fnum(m)}" for (p, m) in cm.atoms),
            "atom_mass": _fnum(cm.atom_mass),
            "ac_mass": _fnum(cm.ac_mass),
            "sc_mass": _fnum(cm.sc_mass_estimate),
            "total_mass": _fnum(cm.total_mass),
            "tail_gap": _fnum(cm.diagnostics["tsereteli"].tail_gap),
            "normalized": str(cm.diagnostics["normalized"]).lower(),
            "density_file": f"clark_density_{idx}.csv"})
        # one format per table, "%.12g" printing nan and inf as _fnum does;
        # the taus that share a grid share its formatted x column
        text = [f"# tau={_fnum(tau)} columns=x,density\n"]
        for (xs, ds) in cm.density_tables:
            if id(xs) not in grids:
                grids[id(xs)] = (xs, "%.12g,%%.12g\n" * len(xs) % tuple(xs.tolist()))
            text.append(grids[id(xs)][1] % tuple(ds.tolist()))
        (out / f"clark_density_{idx}.csv").write_text("".join(text), encoding="utf-8")
    _write_rows(out / "clark", ["tau", "n_atoms", "atoms", "atom_mass", "ac_mass",
                                "sc_mass", "total_mass", "tail_gap", "normalized",
                                "density_file"],
                rows, fmt, _header(cfg, "clark", {"phi": phi.name}))
    return 0


def cmd_constants(cfg: dict, phi: PhiFunction, out: Path, fmt: str, args) -> int:
    grid = build_grid(cfg, phi)
    taus = build_tau_grid(cfg, phi)
    tol = cfg.get("tolerances", {})
    rep = closed_range_report(
        phi, grid=grid, tau_grid=taus,
        floor=float(tol.get("verdict_floor", 1e-3)),
        gap_tol=float(tol.get("cross_gap", 0.05)))
    rows = [{
        "A_upper": _fnum(rep.A_upper), "B": _fnum(rep.B_est), "C": _fnum(rep.C_est),
        "D": _fnum(rep.D_est), "cross_gap": _fnum(rep.cross_gap),
        "verdict": rep.verdict,
        "B_argmin": f"{_fnum(rep.B_argmin[0])}..{_fnum(rep.B_argmin[1])}",
        "C_argmin": f"{_fnum(rep.C_argmin[0])}..{_fnum(rep.C_argmin[1])}",
        "D_argmin_tau": _fnum(rep.D_argmin_tau),
        "D_argmin_on_grid_edge": str(rep.d_boundary_argmin).lower(),
        "D_nonconverged": rep.d_nonconverged}]
    argmin_set = preimage_interval_set(phi, rep.B_argmin).to_record()
    header = _header(cfg, "constants", {
        "phi": phi.name, "thresholds": rep.thresholds,
        "n_centers": len(grid.centers), "lengths": [_fnum(l) for l in grid.lengths],
        "n_tau": len(taus),
        "rayleigh_evidence": {str(k): _fnum(v) for k, v in rep.rayleigh_evidence.items()},
        "B_per_length": [_fnum(v) for v in rep.B_per_length],
        "C_per_length": [_fnum(v) for v in rep.C_per_length],
        "B_argmin_preimage": {
            "intervals": [[_fnum(a), _fnum(b)] for (a, b) in argmin_set["intervals"]],
            "total_length": _fnum(argmin_set["total_length"])}})
    _write_rows(out / "constants", list(rows[0].keys()), rows, fmt, header)
    print(f"verdict: {rep.verdict}")
    return 0


def cmd_similarity(cfg: dict, phi: PhiFunction, out: Path, fmt: str, args) -> int:
    cert = similarity_certificate(phi)
    rows = [{
        "status": cert.status, "direction": cert.direction or "",
        "c1": _fnum(cert.c1), "d1": _fnum(cert.d1), "eta": _fnum(cert.eta),
        "k": _fnum(cert.k), "product_bound": _fnum(cert.product_bound),
        "orbit_gap_ok": "" if cert.orbit_gap_ok is None else str(cert.orbit_gap_ok).lower()}]
    lb_rows = []
    if cert.status == "certified":
        N = int(cfg.get("similarity_depth", 4))
        lb = similarity_lower_bound(phi, N=N, grid=build_grid(cfg, phi))
        lb_rows = [{"power": n + 1, "lower_bound": _fnum(v)}
                   for n, v in enumerate(lb.values)]
    _write_rows(out / "similarity", list(rows[0].keys()), rows, fmt,
                _header(cfg, "similarity", {"phi": phi.name}))
    _write_rows(out / "similarity_powers", ["power", "lower_bound"], lb_rows, fmt,
                _header(cfg, "similarity", {"phi": phi.name}))
    print(f"similarity: {cert.status}")
    return 0


def cmd_verify(cfg: dict, phi: PhiFunction, out: Path, fmt: str, args) -> int:
    seed = int(args.seed if args.seed is not None else cfg.get("seed", 0))
    rng = np.random.default_rng(seed)
    rows = []

    def record(suite: str, case: str, err: float, tol: float):
        rows.append({"suite": suite, "case": case, "error": _fnum(err),
                     "tolerance": _fnum(tol),
                     "pass": str(bool(err <= tol)).lower()})

    # tail identity for singular probability measures
    for i in range(5):
        n = int(rng.integers(1, 6))
        pos = np.sort(rng.uniform(-5, 5, n))
        w = rng.uniform(0.1, 1.0, n)
        w = w / w.sum()
        mu = RealMeasure.from_atoms(list(zip(pos.tolist(), w.tolist())))
        record("boole", f"atoms[{n}]#{i}", boole_check(mu), 1e-6)
    record("boole", "cantor", boole_check(RealMeasure.cantor(depth=10)), 1e-3)

    # measure preservation for purely atomic representations
    for i in range(3):
        n = int(rng.integers(1, 4))
        pos = np.sort(rng.uniform(-3, 3, n))
        w = rng.uniform(0.2, 1.0, n)
        rho = RealMeasure.from_atoms(list(zip(pos.tolist(), w.tolist())))
        phi_i = phi_from_nevanlinna(NevanlinnaData(float(rng.uniform(-2, 2)), 1.0, rho))
        ivals = [(a, a + l) for a, l in zip(rng.uniform(-6, 6, 10),
                                            rng.uniform(0.1, 2.0, 10))]
        record("letac", f"atoms[{n}]#{i}", letac_check(phi_i, ivals), 1e-8)

    # mixed-measure tail limit
    mu = RealMeasure.from_atoms([(0.0, 0.5)]).combined(
        RealMeasure.uniform(0.0, 1.0, mass=0.5))
    y = 1e4
    for side, tail in zip(("upper", "lower"), tail_measures(cauchy_transform(mu), [y])[0]):
        record("tsereteli", f"half-atom-half-uniform-{side}", abs(y * tail - 0.5), 0.01)

    # disk identity for the resolvent family: the tail set, measured as the
    # preimage of the disk over (tau, tau + 1/y), against sqrt's exact one
    phi_d = phi_from_catalog("sqrt")
    for tau, y in [(0.0, 2.0), (-0.3, 2.0), (-0.05, 10.0), (0.5, 10.0), (-1.5, 100.0)]:
        lhs = tail_set_measure(g_tau(phi_d, tau), y, "lower")
        record("disk-identity", f"tau={_fnum(tau)},y={_fnum(y)}",
               abs(lhs - _sqrt_disk_measure(tau, tau + 1.0 / y)), 1e-8)

    _write_rows(out / "verify", ["suite", "case", "error", "tolerance", "pass"],
                rows, fmt, _header(cfg, "verify", {"phi": phi.name}))
    failures = [r for r in rows if r["pass"] == "false"]
    for r in rows:
        print(f"{r['suite']:13s} {r['case']:28s} err={r['error']:12s} "
              f"tol={r['tolerance']:8s} {'PASS' if r['pass'] == 'true' else 'FAIL'}")
    return 1 if failures else 0


def _sqrt_disk_measure(a: float, b: float) -> float:
    """|phi^-1(D)| for phi = sqrt(z-1) sqrt(z+1) and the disk D over (a, b),
    in closed form.  On (-1, 1), phi(x + i0) = i sqrt(1 - x^2) lies in D
    where x^2 > 1 + c^2 - r^2: a width 2 (1 - sqrt(1 + c^2 - r^2)), clipped
    to [0, 2].  Beyond, phi is real, sqrt(x^2 - 1) for x > 1 and its
    negative for x < -1, and lies in D where it lies in (a, b)."""
    c, r = 0.5 * (a + b), 0.5 * (b - a)
    inner = 2.0 * (1.0 - math.sqrt(max(1.0 + c * c - r * r, 0.0)))
    right = math.sqrt(1.0 + b * b) - math.sqrt(1.0 + max(a, 0.0) ** 2) if b > 0.0 else 0.0
    left = math.sqrt(1.0 + a * a) - math.sqrt(1.0 + max(-b, 0.0) ** 2) if a < 0.0 else 0.0
    return min(max(inner, 0.0), 2.0) + right + left


def _attach_list_values(argv: list[str]) -> list[str]:
    """Join ``--tau``/``--points`` with their value, so that a value with a
    leading minus ("-1,0.5") is not read as an option."""
    out: list[str] = []
    for tok in argv:
        if out and out[-1] in ("--tau", "--points") and not tok.startswith("--"):
            out[-1] += "=" + tok
        else:
            out.append(tok)
    return out


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(
        prog="uhprange",
        description="Range and similarity analysis for half-plane composition maps")
    parser.add_argument("command",
                        choices=["eval", "clark", "constants", "similarity", "verify"])
    parser.add_argument("--config", required=True, help="JSON config path")
    parser.add_argument("--out", default=".", help="output directory")
    parser.add_argument("--format", choices=["csv", "json"], default=None)
    parser.add_argument("--seed", type=int, default=None)
    parser.add_argument("--jobs", type=int, default=1, help="accepted; has no effect")
    parser.add_argument("--points", default=None, help="eval: comma-separated points")
    parser.add_argument("--tau", default=None, help="clark: comma-separated tau values")
    args = parser.parse_args(_attach_list_values(sys.argv[1:] if argv is None else list(argv)))

    try:
        cfg = load_config(args.config)
        if args.seed is not None:
            cfg["seed"] = args.seed
        fmt = args.format or cfg.get("format", "json")
        if fmt not in ("csv", "json"):
            raise ConfigError(f"unknown format {fmt!r}")
        phi = build_phi(cfg)
        out = Path(args.out)
        out.mkdir(parents=True, exist_ok=True)
        handler = {"eval": cmd_eval, "clark": cmd_clark, "constants": cmd_constants,
                   "similarity": cmd_similarity, "verify": cmd_verify}[args.command]
        return handler(cfg, phi, out, fmt, args)
    except ConfigError as exc:
        print(f"config error: {exc}", file=sys.stderr)
        return 2
    except (QuadratureError, ConvergenceError, OrbitBreakError) as exc:
        print(f"numeric failure: {exc}", file=sys.stderr)
        return 3
    except UhprangeError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())
