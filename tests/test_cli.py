import json
import math

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

    monkeypatch.setattr(cli, "clark_measure", blow_up)
    cfg = write_config(tmp_path, {"phi": {"catalog": "sqrt"}, "format": "csv"})
    assert run(["clark", "--config", cfg, "--out", str(tmp_path), "--tau", "0"]) == 3


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
