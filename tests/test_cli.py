import csv
import json
import math
import time

import pytest

from uhprange.cli import main


def write_config(tmp_path, data, name="conf.json"):
    path = tmp_path / name
    path.write_text(json.dumps(data), encoding="utf-8")
    return str(path)


def run(args):
    return main(args)


def test_eval_rows(tmp_path):
    cfg = write_config(tmp_path, {"phi": {"catalog": "zlog"}, "format": "csv"})
    assert run(["eval", "--config", cfg, "--out", str(tmp_path),
                "--points", "1+1j,1.0"]) == 0
    lines = (tmp_path / "eval.csv").read_text().splitlines()
    assert lines[1] == "point,value_re,value_im,derivative_re,derivative_im,branch"
    row = lines[3].split(",")
    assert float(row[1]) == 1.0 and float(row[2]) == 0.0  # zlog(1) = 1
    assert float(row[3]) == 2.0  # derivative 1 + 1/1
    assert row[5] == "0"


def test_eval_identity_complex_point(tmp_path):
    cfg = write_config(tmp_path, {
        "phi": {"nevanlinna": {"alpha": 0.0, "beta": 1.0}}, "format": "csv"})
    assert run(["eval", "--config", cfg, "--out", str(tmp_path),
                "--points", "1+1j"]) == 0
    row = (tmp_path / "eval.csv").read_text().splitlines()[2].split(",")
    assert float(row[1]) == 1.0 and float(row[2]) == 1.0


def test_eval_sqrt_branch(tmp_path):
    cfg = write_config(tmp_path, {"phi": {"catalog": "sqrt"}, "format": "csv"})
    assert run(["eval", "--config", cfg, "--out", str(tmp_path), "--points", "2"]) == 0
    row = (tmp_path / "eval.csv").read_text().splitlines()[2].split(",")
    assert abs(float(row[1]) - math.sqrt(3)) < 1e-10
    assert row[5] == "1"  # right branch


def test_clark_translation(tmp_path):
    cfg = write_config(tmp_path, {
        "phi": {"nevanlinna": {"alpha": 2.0, "beta": 1.0}}, "format": "csv"})
    assert run(["clark", "--config", cfg, "--out", str(tmp_path), "--tau", "5"]) == 0
    row = (tmp_path / "clark.csv").read_text().splitlines()[2].split(",")
    atoms = row[2]
    pos, mass = atoms.split(":")
    assert abs(float(pos) - 3.0) < 1e-9 and abs(float(mass) - 1.0) < 1e-10


def test_clark_sqrt_density_file(tmp_path):
    cfg = write_config(tmp_path, {"phi": {"catalog": "sqrt"}, "format": "json"})
    assert run(["clark", "--config", cfg, "--out", str(tmp_path), "--tau", "0"]) == 0
    doc = json.loads((tmp_path / "clark.json").read_text())
    row = doc["rows"][0]
    assert row["n_atoms"] == 0
    assert abs(float(row["ac_mass"]) - 1.0) < 1e-6
    density = (tmp_path / "clark_density_0.csv").read_text().splitlines()
    assert len(density) > 100


def test_constants_identity(tmp_path):
    cfg = write_config(tmp_path, {
        "phi": {"nevanlinna": {"alpha": 0.0, "beta": 1.0}},
        "grids": {"centers": [0.0, 1.0], "lengths": [1.0, 0.25],
                  "tau": [-1.0, 0.0, 2.0]},
        "format": "json"})
    assert run(["constants", "--config", cfg, "--out", str(tmp_path)]) == 0
    doc = json.loads((tmp_path / "constants.json").read_text())
    row = doc["rows"][0]
    assert row["verdict"] == "closed_range"
    assert abs(float(row["B"]) - 1.0) < 1e-9
    assert row["D_nonconverged"] == 0


def test_constants_malformed_grids_rejected(tmp_path):
    # no non-real boundary, so no disk query stands in for the grid check
    base = {"phi": {"nevanlinna": {"alpha": 1.0, "beta": 1.0, "atoms": [[0.0, 1.0]]}},
            "format": "json"}
    for i, grids in enumerate([{"centers": [0.0], "lengths": [0.0]},
                               {"centers": [0.0], "lengths": [-1.0]},
                               {"centers": [float("inf")], "lengths": [1.0]},
                               {"centers": [0.0], "lengths": [1.0], "tau": [float("nan")]}]):
        cfg = write_config(tmp_path, dict(base, grids=grids), f"g{i}.json")
        assert run(["constants", "--config", cfg, "--out", str(tmp_path)]) == 2


def test_clark_tau_leading_minus(tmp_path):
    cfg = write_config(tmp_path, {
        "phi": {"nevanlinna": {"alpha": 2.0, "beta": 1.0}}, "format": "csv"})
    assert run(["clark", "--config", cfg, "--out", str(tmp_path), "--tau", "-1,0.5"]) == 0
    rows = (tmp_path / "clark.csv").read_text().splitlines()[2:]
    assert [float(r.split(",")[0]) for r in rows] == [-1.0, 0.5]


def test_eval_points_leading_minus(tmp_path):
    cfg = write_config(tmp_path, {
        "phi": {"nevanlinna": {"alpha": 0.0, "beta": 1.0}}, "format": "csv"})
    assert run(["eval", "--config", cfg, "--out", str(tmp_path),
                "--points", "-1+1j,2"]) == 0
    rows = [r.split(",") for r in (tmp_path / "eval.csv").read_text().splitlines()[2:]]
    assert [(float(r[1]), float(r[2])) for r in rows] == [(-1.0, 1.0), (2.0, 0.0)]


def test_similarity_zloglin5(tmp_path):
    cfg = write_config(tmp_path, {
        "phi": {"catalog": "zloglin", "params": {"alpha": 5.0}},
        "grids": {"centers": [0.0, 2.0], "lengths": [1.0, 0.0625]},
        "similarity_depth": 2, "format": "json"})
    assert run(["similarity", "--config", cfg, "--out", str(tmp_path)]) == 0
    doc = json.loads((tmp_path / "similarity.json").read_text())
    assert doc["rows"][0]["status"] == "certified"
    powers = json.loads((tmp_path / "similarity_powers.json").read_text())
    assert len(powers["rows"]) == 2
    assert all(float(r["lower_bound"]) > 1e-3 for r in powers["rows"])


def test_similarity_sqrt_failed(tmp_path):
    cfg = write_config(tmp_path, {"phi": {"catalog": "sqrt"}, "format": "json"})
    assert run(["similarity", "--config", cfg, "--out", str(tmp_path)]) == 0
    doc = json.loads((tmp_path / "similarity.json").read_text())
    assert doc["rows"][0]["status"] == "hypothesis_failed"


def test_verify_passes_and_is_deterministic(tmp_path):
    cfg = write_config(tmp_path, {"phi": {"catalog": "zloglin", "params": {"alpha": 0.0}},
                                  "seed": 11, "format": "csv"})
    out1 = tmp_path / "a"
    out2 = tmp_path / "b"
    assert run(["verify", "--config", cfg, "--out", str(out1)]) == 0
    assert run(["verify", "--config", cfg, "--out", str(out2)]) == 0
    assert (out1 / "verify.csv").read_bytes() == (out2 / "verify.csv").read_bytes()


def test_config_errors(tmp_path):
    missing = str(tmp_path / "nope.json")
    assert run(["eval", "--config", missing, "--points", "1j"]) == 2
    bad = write_config(tmp_path, {"phi": {"catalog": "unknown"}})
    assert run(["eval", "--config", bad, "--points", "1j",
                "--out", str(tmp_path)]) == 2
    bad2 = write_config(tmp_path, {"phi": {"nevanlinna": {
        "densities": [{"name": "exotic", "interval": [0, 1]}]}}}, "b2.json")
    assert run(["eval", "--config", bad2, "--points", "1j",
                "--out", str(tmp_path)]) == 2


def test_negative_density_mass_rejected(tmp_path, capsys):
    cfg = write_config(tmp_path, {"phi": {"nevanlinna": {
        "alpha": 1.0, "beta": 1.0,
        "densities": [{"name": "uniform", "interval": [0, 1], "mass": -0.5}]}},
        "format": "csv"})
    for command in (["clark", "--tau", "0"], ["constants"]):
        assert run([command[0], "--config", cfg, "--out", str(tmp_path)] + command[1:]) == 2
        err = capsys.readouterr().err
        assert "mass" in err and "Traceback" not in err


def test_beta_zero_rejected_for_constants(tmp_path):
    cfg = write_config(tmp_path, {
        "phi": {"nevanlinna": {"alpha": 0.0, "beta": 2.0}}, "format": "json"})
    assert run(["constants", "--config", cfg, "--out", str(tmp_path)]) == 2


def test_clark_jobs_deterministic(tmp_path):
    cfg = write_config(tmp_path, {
        "phi": {"nevanlinna": {"alpha": 0.0, "beta": 1.0,
                               "atoms": [[0.0, 1.0]]}}, "format": "csv"})
    out1, out2 = tmp_path / "j1", tmp_path / "j2"
    assert run(["clark", "--config", cfg, "--out", str(out1),
                "--tau=-1,0,1,2", "--jobs", "1"]) == 0
    assert run(["clark", "--config", cfg, "--out", str(out2),
                "--tau=-1,0,1,2", "--jobs", "3"]) == 0
    assert (out1 / "clark.csv").read_bytes() == (out2 / "clark.csv").read_bytes()


def test_verify_failure_exit_code(tmp_path, monkeypatch):
    import uhprange.cli as cli
    monkeypatch.setattr(cli, "boole_check", lambda mu, y_list=None: 1.0)
    cfg = write_config(tmp_path, {"phi": {"catalog": "sqrt"}, "format": "csv"})
    assert run(["verify", "--config", cfg, "--out", str(tmp_path)]) == 1


def test_numeric_failure_exit_code(tmp_path, monkeypatch):
    import uhprange.cli as cli
    from uhprange import QuadratureError

    def blow_up(*args, **kwargs):
        raise QuadratureError("forced")

    monkeypatch.setattr(cli, "clark_measures", blow_up)
    cfg = write_config(tmp_path, {"phi": {"catalog": "sqrt"}, "format": "csv"})
    assert run(["clark", "--config", cfg, "--out", str(tmp_path), "--tau", "0"]) == 3


def test_clark_nonfinite_tau_exit_code(tmp_path):
    cfg = write_config(tmp_path, {"phi": {"catalog": "sqrt"}, "format": "csv"})
    assert run(["clark", "--config", cfg, "--out", str(tmp_path), "--tau=0,nan"]) == 2


def test_clark_density_csv_matches_per_value_format(tmp_path, monkeypatch):
    import dataclasses

    import numpy as np

    import uhprange.cli as cli
    from uhprange.cli import _fnum

    # a table of values whose formatting is easy to get wrong
    special = (np.array([-np.inf, -0.0, 1e-300, 0.1 + 0.2, np.nan, 123456789012345.0]),
               np.array([np.nan, np.inf, -1e300, 0.0, -np.nan, 2.0 / 3.0]))
    results = []

    def with_special(phi, taus, real=cli.clark_measures):
        results.extend(dataclasses.replace(cm, density_tables=cm.density_tables + (special,))
                       for cm in real(phi, taus))
        return results

    monkeypatch.setattr(cli, "clark_measures", with_special)
    cfg = write_config(tmp_path, {"phi": {"catalog": "sqrtpole", "params": {"alpha": -1.0}},
                                  "format": "csv"})
    assert run(["clark", "--config", cfg, "--out", str(tmp_path), "--tau=-0.75,2"]) == 0
    assert len(results) == 2
    for idx, cm in enumerate(results):
        lines = [f"# tau={_fnum(cm.tau)} columns=x,density"]
        lines += [f"{_fnum(x)},{_fnum(d)}" for xs, ds in cm.density_tables
                  for x, d in zip(xs, ds)]
        expect = ("\n".join(lines) + "\n").encode("utf-8")
        assert (tmp_path / f"clark_density_{idx}.csv").read_bytes() == expect


def test_sc_measure_config(tmp_path):
    cfg = write_config(tmp_path, {
        "phi": {"nevanlinna": {"alpha": 0.0, "beta": 1.0,
                               "sc": [{"interval": [0, 1], "mass": 1.0,
                                       "depth": 10}]}},
        "format": "csv"})
    # evaluation works on a singular-continuous representation
    assert run(["eval", "--config", cfg, "--out", str(tmp_path),
                "--points", "2j"]) == 0
    # analysis requiring full branch enumeration is rejected cleanly
    assert run(["constants", "--config", cfg, "--out", str(tmp_path)]) == 2


# -- every named density, with and without an atom ------------------------------------

_DENSITY_ROWS = [(name, atom, 0) for name in ("uniform", "poisson", "arcsine")
                 for atom in (False, True)]


def _density_config(tmp_path, name: str, atom: bool) -> str:
    """A named density over (0, 1), mass 0.5, with or without an atom at 2,
    on a small grid."""
    block = {"alpha": 1.0, "beta": 1.0,
             "densities": [{"name": name, "interval": [0, 1], "mass": 0.5}]}
    if atom:
        block["atoms"] = [[2.0, 0.5]]
    return _small_grid_config(tmp_path, block)


def _small_grid_config(tmp_path, block: dict) -> str:
    return write_config(tmp_path, {
        "phi": {"nevanlinna": block}, "format": "json", "similarity_depth": 4,
        "grids": {"centers": [-1.0, 0.0, 0.5, 1.0, 3.0], "lengths": [1.0, 0.25],
                  "tau": [-1.0, 0.0, 0.5, 2.0]}})


@pytest.mark.parametrize("name,atom,code", _DENSITY_ROWS)
def test_density_config_matrix(tmp_path, capsys, name, atom, code):
    """clark, constants, similarity and eval on each named density, with
    and without an atom.  The named densities carry closed-form
    transforms, so clark and constants take well under 2 s together
    (1.4-1.9 s for a uniform row when the density was integrated at every
    point), and every spectral measure is normalized, arcsine included
    (its principal values near the ends were NaN, and both runs exited 3).
    similarity certifies each map with a positive lower bound for every one
    of the similarity_depth powers, in well under 2 s (111 s with default
    grids when the density was integrated at every point)."""
    cfg = _density_config(tmp_path, name, atom)

    def check(*command):
        assert run([command[0], "--config", cfg, "--out", str(tmp_path)] + list(command[1:])) == code
        err = capsys.readouterr().err
        assert len(err.splitlines()) <= 1 and "Traceback" not in err

    start = time.perf_counter()
    check("clark", "--tau=0,0.5")
    check("constants")
    assert time.perf_counter() - start < 2.0
    rows = json.loads((tmp_path / "clark.json").read_text())["rows"]
    assert [r["normalized"] for r in rows] == ["true", "true"]
    start = time.perf_counter()
    check("similarity")
    assert time.perf_counter() - start < 2.0
    assert json.loads((tmp_path / "similarity.json").read_text())["rows"][0]["status"] == "certified"
    powers = json.loads((tmp_path / "similarity_powers.json").read_text())["rows"]
    assert [r["power"] for r in powers] == [1, 2, 3, 4]
    assert all(float(r["lower_bound"]) > 0.0 for r in powers)
    check("eval", "--points", "-0.5,0.25,0.5+0.001j,1.5,2.5")


def test_eval_on_a_density_end_fails(tmp_path, capsys):
    # Re phi(x + i0) diverges on an end of a uniform density
    cfg = write_config(tmp_path, {
        "phi": {"nevanlinna": {"alpha": 1.0, "beta": 1.0, "densities": [
            {"name": "uniform", "interval": [0, 1], "mass": 0.5}]}}, "format": "csv"})
    for point in ("0", "1"):
        assert run(["eval", "--config", cfg, "--out", str(tmp_path), "--points", point]) == 2
        assert f"boundary value diverges at {float(point)!r}" in capsys.readouterr().err


def test_similarity_cantor_part_names_the_reason(tmp_path, capsys):
    cfg = write_config(tmp_path, {
        "phi": {"nevanlinna": {"alpha": 0.0, "beta": 1.0,
                               "sc": [{"interval": [0, 1], "mass": 1.0, "depth": 10}]}},
        "format": "csv"})
    assert run(["similarity", "--config", cfg, "--out", str(tmp_path)]) == 2
    err = capsys.readouterr().err
    assert "real-branch structure is not fully enumerated" in err


def test_similarity_depth_below_one_rejected(tmp_path, capsys):
    cfg = write_config(tmp_path, {
        "phi": {"catalog": "zloglin", "params": {"alpha": 5.0}},
        "similarity_depth": 0, "format": "json"})
    assert run(["similarity", "--config", cfg, "--out", str(tmp_path)]) == 2
    err = capsys.readouterr().err
    assert "composition depth must be at least 1" in err and "Traceback" not in err


def test_named_densities_take_their_default_mass(tmp_path):
    """A density without a mass in the config gets its constructor's
    default (poisson c = 1, arcsine mass 1, uniform density 1), not
    hi - lo: poisson(-1, 1) is zloglin(0), arcsine(0, 4) has mass 1, and
    the poisson half-line, rejected when its mass was inf, runs clark with
    a normalized measure."""
    import numpy as np

    from uhprange import phi_from_catalog
    from uhprange.cli import build_phi

    def named(name, lo, hi):
        return build_phi({"phi": {"nevanlinna": {
            "densities": [{"name": name, "interval": [lo, hi]}]}}})
    assert named("arcsine", 0, 4).rho.total_mass() == 1.0
    assert named("uniform", 0, 4).rho.total_mass() == 4.0
    phi, catalog = named("poisson", -1, 1), phi_from_catalog("zloglin", alpha=0.0)
    x = np.concatenate([-np.geomspace(1e-3, 1e3, 13), np.geomspace(1e-3, 1e3, 13)])
    x = x[np.abs(x) != 1.0]
    z = (x[:, None] + 1j * np.geomspace(1e-6, 1e2, 5)[None, :]).ravel()
    for f, g, points in ((phi.eval, catalog.eval, z), (phi.boundary, catalog.boundary, x)):
        ref = g(points)
        assert np.all(np.abs(f(points) - ref) <= 1e-13 * np.maximum(1.0, np.abs(ref)))
    cfg = write_config(tmp_path, {"phi": {"nevanlinna": {"alpha": 1.0, "beta": 1.0, "densities": [
        {"name": "poisson", "interval": ["-inf", -1]}]}}, "format": "json"})
    assert run(["clark", "--config", cfg, "--out", str(tmp_path), "--tau=0"]) == 0
    rows = json.loads((tmp_path / "clark.json").read_text())["rows"]
    assert [r["normalized"] for r in rows] == ["true"]


# -- representation configs ------------------------------------------------------------

_README_MAP = {"alpha": 1.0, "beta": 1.0, "atoms": [[0.0, 1.0]],
               "densities": [{"name": "uniform", "interval": [0, 1], "mass": 0.5}]}
_HALFLINE = [{"name": "poisson", "interval": ["-inf", -1]}]

#: config block -> exit codes of eval, clark, constants and similarity
_REPRESENTATION_ROWS = {
    "cantor": ({"alpha": 0.0, "beta": 1.0,
                "sc": [{"interval": [0, 1], "mass": 1.0, "depth": 10}]}, (0, 2, 2, 2)),
    "beta2": ({"alpha": 0.0, "beta": 2.0}, (0, 2, 2, 2)),
    "empty": ({"alpha": 0.5, "beta": 1.0}, (0, 0, 0, 0)),
    "halfline": ({"alpha": 1.0, "beta": 1.0, "densities": _HALFLINE}, (0, 0, 0, 2)),
    "halfline_atom": ({"alpha": 1.0, "beta": 1.0, "atoms": [[2.0, 0.5]], "densities": _HALFLINE},
                      (0, 0, 0, 2)),
    "atoms3": ({"alpha": 1.0, "beta": 1.0, "atoms": [[-1.0, 0.5], [0.0, 1.0], [2.0, 0.3]]},
               (0, 0, 0, 0)),
    "translation_pole": ({"alpha": 1.0, "beta": 1.0, "atoms": [[0.0, 1.0]]}, (0, 0, 0, 0)),
    "readme": (dict(_README_MAP, sc=[{"interval": [0, 1], "mass": 0.5, "depth": 16,
                                      "middle": 0.3333}]), (0, 2, 2, 2)),
    "readme_no_cantor": (_README_MAP, (0, 0, 0, 0)),
    # the tables reach |x| = SCAN_LIMIT (1e8): positions there or beyond are refused
    "atom_2e8": ({"alpha": 1.0, "beta": 1.0, "atoms": [[2e8, 0.5]]}, (2, 2, 2, 2)),
    "atom_-1e8": ({"alpha": 1.0, "beta": 1.0, "atoms": [[-1e8, 0.5]]}, (2, 2, 2, 2)),
    "atom_9e7": ({"alpha": 1.0, "beta": 1.0, "atoms": [[9e7, 0.5]]}, (0, 0, 0, 0)),
}


@pytest.mark.parametrize("name", sorted(_REPRESENTATION_ROWS))
def test_representation_config_matrix(tmp_path, capsys, name):
    """eval, clark, constants and similarity on representation configs,
    on the small grids of _density_config, exit with the codes listed:
    2 names a Cantor part (no real-branch enumeration), beta != 1, a
    support that is not compact (similarity's certificate), or a position
    at or beyond the scan limit (clark, constants and similarity exited 3,
    "branch (1e8, inf) could not be tabulated", and similarity at 2e8 with
    a traceback).  The poisson
    half-line rows exited 2 while a config density's mass defaulted to
    hi - lo.  Each run writes at most one stderr line and no traceback,
    and clark with --jobs 2 writes the bytes of --jobs 1."""
    block, codes = _REPRESENTATION_ROWS[name]
    cfg = _small_grid_config(tmp_path, block)
    commands = (["eval", "--points", "-0.5,0.25,0.5+0.001j,1.5,2.5"], ["clark", "--tau=0,0.5"],
                ["constants"], ["similarity"])
    for command, code in zip(commands, codes):
        assert run([command[0], "--config", cfg, "--out", str(tmp_path)] + command[1:]) == code
        err = capsys.readouterr().err
        assert len(err.splitlines()) <= 1 and "Traceback" not in err
    outs = [tmp_path / f"jobs{jobs}" for jobs in (1, 2)]
    for out, jobs in zip(outs, ("1", "2")):
        assert run(["clark", "--config", cfg, "--out", str(out), "--tau=0,0.5",
                    "--jobs", jobs]) == codes[1]
    if codes[1] == 0:
        assert (outs[0] / "clark.json").read_bytes() == (outs[1] / "clark.json").read_bytes()


def test_far_positions_name_the_scan_limit(tmp_path, capsys):
    """An atom or a density end at |x| >= 1e8 is refused with one line that
    names the bound; an infinite density end is not a position."""
    blocks = [{"atoms": [[1e8, 0.5]]},
              {"densities": [{"name": "uniform", "interval": [0, 3e8], "mass": 0.5}]},
              {"densities": [{"name": "poisson", "interval": ["-inf", -2e8]}]}]
    for i, block in enumerate(blocks):
        cfg = write_config(tmp_path, {"phi": {"nevanlinna": dict(block, alpha=1.0, beta=1.0)},
                                      "format": "json"}, f"far{i}.json")
        assert run(["eval", "--config", cfg, "--out", str(tmp_path), "--points", "1j"]) == 2
        err = capsys.readouterr().err
        assert err.count("\n") == 1 and "scan limit: |x| < 1e+08" in err
    cfg = write_config(tmp_path, {"phi": {"nevanlinna": {
        "alpha": 1.0, "beta": 1.0, "densities": _HALFLINE}}, "format": "json"}, "near.json")
    assert run(["eval", "--config", cfg, "--out", str(tmp_path), "--points", "1j"]) == 0


# -- verify ---------------------------------------------------------------------------

_VERIFY_ROWS = {"sqrt": ({"catalog": "sqrt"}, "json"),
                "zloglin": ({"catalog": "zloglin", "params": {"alpha": 0.0}}, "csv"),
                "readme_no_cantor": ({"nevanlinna": _README_MAP}, "json")}


@pytest.mark.parametrize("name", sorted(_VERIFY_ROWS))
def test_verify_config_matrix(tmp_path, capsys, name):
    """verify exits 0 with every row passing, whatever the configured map.
    Its disk-identity rows hold the tail sets of sqrt's resolvents, measured
    as disk preimages, against their closed form, and read below 1e-12;
    both sides once came from the same disk code and read 0 whatever it did."""
    spec, fmt = _VERIFY_ROWS[name]
    cfg = write_config(tmp_path, {"phi": spec, "seed": 3, "format": fmt})
    assert run(["verify", "--config", cfg, "--out", str(tmp_path)]) == 0
    assert "Traceback" not in capsys.readouterr().err
    text = (tmp_path / f"verify.{fmt}").read_text()
    # the csv quotes the case labels, which hold commas
    rows = (json.loads(text)["rows"] if fmt == "json"
            else list(csv.DictReader(text.splitlines()[1:])))
    assert len(rows) == 16 and all(r["pass"] == "true" for r in rows)
    disk = [float(r["error"]) for r in rows if r["suite"] == "disk-identity"]
    assert len(disk) == 5 and max(disk) < 1e-12

