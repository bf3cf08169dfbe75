"""Command-line interface and config parsing."""

import json
import os
from pathlib import Path

import numpy as np
import pytest

from mixedvem import problems
from mixedvem.cli import main
from mixedvem.config import parse_config
from mixedvem.errors import ConfigError
from mixedvem.mesh import box_mesh, write_mesh

CONFIG = """
order: 1
family3d: RT
mesh:
  type: box
  lo: [-1, -1, -1]
  hi: [1, 1, 1]
  subdivisions: [2, 2, 2]
a3: 1.0
bc3:
  xmin: {type: dirichlet, value: -1.0}
  xmax: {type: dirichlet, value: 1.0}
  default: {type: neumann}
fractures:
  - vertices: [[0, -1, -1], [0, 1, -1], [0, 1, 1], [0, -1, 1]]
    a2: 100.0
    eta2: inf
    bc: {type: neumann}
traces:
  default: {a1: 1.0, eta1: inf}
intersections:
  default: {eta0: inf}
outputs: [fluxes, fields, matrix, manifest]
"""


def test_parse_config_roundtrip():
    cfg = parse_config(CONFIG)
    assert cfg.order == 1 and cfg.family3d == "RT" and cfg.trace_flow
    assert len(cfg.spec.fractures) == 1
    assert cfg.spec.fractures[0].a2 == 100.0
    assert cfg.spec.fractures[0].inverse_eta2 == 0.0
    assert cfg.spec.bc3["xmax"].kind == "dirichlet"
    assert cfg.spec.bc3["ymin"].kind == "neumann"  # from the default entry
    mesh = cfg.build_mesh()
    assert len(mesh.cells) == 8


def test_parse_config_eta_number():
    cfg = parse_config(CONFIG.replace("eta2: inf", "eta2: 10.0"))
    assert cfg.spec.fractures[0].inverse_eta2 == pytest.approx(0.1)
    with pytest.raises(ConfigError):
        parse_config(CONFIG.replace("eta2: inf", "eta2: -2"))
    with pytest.raises(ConfigError):
        parse_config("order: 9")


def test_parse_config_legacy_solver_keys():
    # solver.deterministic and quad_order were knobs that could only waste
    # work; old configs still load and ignore them
    cfg = parse_config(CONFIG + "solver: {tolerance: 1.0e-9, deterministic: true}\n"
                       "quad_order: 10\n")
    assert cfg.solver_tol == 1e-9
    assert not hasattr(cfg, "deterministic")
    assert not hasattr(cfg, "quad_order")


# built-in -> (the files it writes, the checks its manifest lists)
BUILTIN_RUNS = {
    "problem1_quartic": (
        ["errors.csv", "fields.vtk", "fields.vtk.velocity.vtk", "fluxes.txt"],
        ["worst_relative_error", "max_relative_flux_mismatch", "solve_branch"]),
    "problem2_finite_eta": (
        ["problem2.txt"], ["inflow_ratio", "jump_low_eta", "jump_high_eta"]),
    "convergence_sweep": (["convergence.csv"], ["rates"]),
    "patch_tests": (["patch_tests.csv"], ["worst_relative_error"]),
}


def run_builtin(tmp_path, name, *flags):
    """Run a built-in through ``main``; check that its manifest lists every
    file it wrote and the checks it decided on.  Returns (exit code,
    manifest)."""
    code = main(["run", name, "--output-dir", str(tmp_path), *flags])
    manifest = json.loads((tmp_path / "manifest.json").read_text())
    files, checks = BUILTIN_RUNS[name]
    written = sorted(p.name for p in tmp_path.iterdir() if p.name != "manifest.json")
    assert written == files
    assert sorted(Path(p).name for p in manifest["outputs"]) == files
    assert set(checks) <= set(manifest["checks"])
    assert manifest["timings"]
    return code, manifest


def test_cli_list_builtins(capsys):
    assert main(["list-builtins"]) == 0
    assert capsys.readouterr().out.split() == list(BUILTIN_RUNS)


@pytest.mark.parametrize("name", ["problem2_finite_eta", "convergence_sweep"])
def test_cli_run_builtin(tmp_path, name):
    code, manifest = run_builtin(tmp_path, name)
    assert code == 0 and manifest["status"] == "ok"


def test_cli_run_quartic(tmp_path):
    code, manifest = run_builtin(tmp_path, "problem1_quartic")
    assert code == 0 and manifest["status"] == "ok"
    assert manifest["checks"]["flux_chart_ok"] is True
    assert manifest["checks"]["worst_relative_error"] <= 1e-8
    assert set(manifest["timings"]) == {"mesh", "assembly", "solve", "post"}
    assert manifest["total_dofs"] > 0 and manifest["dof_counts"]["0"]


def test_cli_run_quartic_below_order_4(tmp_path):
    # the quartic is not reproduced, so the errors are only reported
    code, manifest = run_builtin(tmp_path, "problem1_quartic", "--order", "1")
    assert code == 0 and "flux_chart_ok" not in manifest["checks"]
    assert manifest["checks"]["worst_relative_error"] > 1e-3


def test_cli_run_quartic_fails_on_wrong_chart(tmp_path, monkeypatch):
    monkeypatch.setattr(problems, "PROBLEM1_CHART",
                        dict(problems.PROBLEM1_CHART, bc_3d=769.0))
    code, manifest = run_builtin(tmp_path, "problem1_quartic")
    assert code == 1 and manifest["status"] == "failed"
    assert manifest["checks"]["flux_chart_ok"] is False


def test_cli_run_convergence_sweep_one_order(tmp_path):
    code, manifest = run_builtin(tmp_path, "convergence_sweep", "--order", "0")
    assert code == 0
    rows = (tmp_path / "convergence.csv").read_text().splitlines()[1:]
    assert [r.split(",")[:2] for r in rows] == [["0", "2"], ["0", "4"], ["0", "6"]]
    assert list(manifest["checks"]["rates"]) == ["order_0"]


def test_cli_run_config(tmp_path, capsys):
    cfg = tmp_path / "problem.yaml"
    cfg.write_text(CONFIG)
    code = main(["run", str(cfg), "--output-dir", str(tmp_path)])
    assert code == 0
    manifest = json.loads((tmp_path / "manifest.json").read_text())
    assert manifest["status"] == "ok"
    assert manifest["total_dofs"] > 0
    counts = manifest["dof_counts"]
    assert counts["3"]["flux"] > 0 and counts["2"]["pressure"] > 0
    assert sorted(Path(p).name for p in manifest["outputs"]) == [
        "fields.vtk", "fields.vtk.velocity.vtk", "fluxes.txt", "system.coo"]
    assert all(Path(p).exists() for p in manifest["outputs"])
    assert set(manifest["timings"]) == {"mesh", "assembly", "solve", "post"}
    assert manifest["checks"]["max_relative_flux_mismatch"] < 1e-9
    # order 1: the 3 + 3 interior fluxes and 3 higher pressure moments of
    # each of the 8 cells (the fracture lies on a grid plane) are condensed
    # out of the direct solve
    checks = manifest["checks"]
    assert checks["solve_branch"] == "direct"
    assert checks["condensed_dofs"] == 9 * 8
    assert 0 < checks["lu_fill"]


def test_cli_run_shipped_barrier_config(tmp_path):
    config = Path(__file__).resolve().parents[1] / "configs" / "barrier_network.yaml"
    assert main(["run", str(config), "--output-dir", str(tmp_path)]) == 0
    manifest = json.loads((tmp_path / "manifest.json").read_text())
    assert manifest["status"] == "ok"
    assert manifest["checks"]["max_relative_flux_mismatch"] < 1e-9


def test_cli_run_builtin_patch_tests(tmp_path):
    code, manifest = run_builtin(tmp_path, "patch_tests")
    assert code == 0 and manifest["status"] == "ok"
    assert manifest["checks"]["worst_relative_error"] <= 1e-9
    body = (tmp_path / "patch_tests.csv").read_text()
    assert body.startswith("case,")
    assert "3D_BDM2" in body


def test_cli_validate_mesh(tmp_path, capsys):
    mesh = box_mesh([0, 0, 0], [1, 1, 1], (2, 2, 2))
    path = tmp_path / "box.mesh"
    write_mesh(mesh, path)
    assert main(["validate-mesh", str(path)]) == 0
    assert "mesh ok" in capsys.readouterr().out
    # corrupt a cell: drop one face
    mesh.cells[0] = mesh.cells[0][:-1]
    bad = tmp_path / "bad.mesh"
    write_mesh(mesh, bad)
    assert main(["validate-mesh", str(bad)]) == 1


def test_cli_error_exit_code(tmp_path, capsys):
    assert main(["run", str(tmp_path / "missing.yaml")]) == 2
    assert "error:" in capsys.readouterr().err


def test_config_eps_factor():
    cfg = parse_config(CONFIG + "\neps_factor: 1.0e-8\n")
    assert cfg.eps_factor == pytest.approx(1e-8)


def test_cli_run_file_mesh_with_fracture(tmp_path):
    # file-mesh pipeline: write a box mesh, cut a fracture through it via config
    mesh = box_mesh([0, 0, 0], [1, 1, 1], (2, 2, 2))
    mesh_path = tmp_path / "bg.mesh"
    write_mesh(mesh, mesh_path)
    cfg = tmp_path / "file_problem.yaml"
    cfg.write_text(f"""
order: 0
mesh: {{type: file, path: {mesh_path}}}
bc3:
  zmin: {{type: dirichlet, value: 0.0}}
  zmax: {{type: dirichlet, value: 1.0}}
  default: {{type: neumann}}
fractures:
  - vertices: [[0.1, 0.1, 0.6], [0.9, 0.1, 0.6], [0.9, 0.9, 0.6], [0.1, 0.9, 0.6]]
    a2: 10.0
    eta2: 5.0
outputs: [fluxes, manifest]
""")
    code = main(["run", str(cfg), "--output-dir", str(tmp_path)])
    assert code == 0
    manifest = json.loads((tmp_path / "manifest.json").read_text())
    assert "mesh" in manifest["inputs"]  # mesh file hashed into the manifest
    assert manifest["dof_counts"]["2"]["flux"] > 0


def test_cli_run_config_nonconforming_mesh(tmp_path, capsys):
    mesh = box_mesh([0, 0, 0], [1, 1, 1], (2, 2, 2))
    mesh.cells[0] = mesh.cells[0][:-1]   # drop one face
    write_mesh(mesh, tmp_path / "bad.mesh")
    cfg = tmp_path / "bad.yaml"
    cfg.write_text(f"mesh: {{type: file, path: {tmp_path / 'bad.mesh'}}}\n")
    assert main(["run", str(cfg), "--output-dir", str(tmp_path)]) == 1
    manifest = json.loads((tmp_path / "manifest.json").read_text())
    assert manifest["status"] == "failed" and manifest["outputs"] == []
    assert manifest["checks"]["conformity_faults"] > 0
    assert "mesh" in manifest["inputs"]
    assert "conformity: cell 0" in capsys.readouterr().out
