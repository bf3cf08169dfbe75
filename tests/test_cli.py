"""Command-line interface and config parsing."""

import json
import os
from pathlib import Path

import numpy as np
import pytest

from mixedvem import problems
from mixedvem.assembly import assemble_complete
from mixedvem.cli import main
from mixedvem.config import parse_config
from mixedvem.errors import ConfigError
from mixedvem.mesh import box_mesh, cut_background_mesh, write_mesh

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


@pytest.mark.parametrize("text, value", [
    ("order: two", "two"),
    ("bc3: {xmin: dirichlet}", "dirichlet"),
    ("fractures:\n  - {a2: 2.0}", "vertices"),
    ("traces: {overrides: {x: {a1: 2.0}}}", "'x'"),
    ("solver: {tolerance: abc}", "abc"),
    ("fractures: {a: 1}", "{'a': 1}"),
    ("fractures:\n  - vertices: [[0, 0, 0], [1, 0], [1, 1, 0]]", "[1, 0]"),
    ("mesh: {type: box, subdivisions: [a, 1, 1]}", "['a', 1, 1]"),
    ("a3: abc", "abc"),
    ("source3: [1]", "[1]"),
    ("eps_factor: abc", "abc"),
    ("outputs: 5", "5"),
], ids=["order", "bc3-entry", "no-vertices", "trace-index", "tolerance",
        "fractures-mapping", "ragged-vertices", "subdivisions", "a3", "source3",
        "eps-factor", "outputs"])
def test_malformed_config_raises_config_error_naming_value(text, value):
    with pytest.raises(ConfigError) as info:
        parse_config(text).build_mesh()
    assert value in str(info.value)


@pytest.mark.parametrize("text, unknown, known", [
    (CONFIG.replace("fractures:", "fractuers:"), "fractuers", "fractures"),
    (CONFIG + "sovler: {tolerance: 1.0e-9}\n", "sovler", "solver"),
    (CONFIG.replace("  default: {type: neumann}\nfractures",
                    "  default: {type: dirichlet}\n  xmni: {type: neumann}\nfractures"),
     "xmni", "default, xmin, xmax"),
], ids=["fractures-typo", "solver-typo", "bc3-tag-typo"])
def test_config_rejects_unknown_keys(text, unknown, known):
    # a typo must not parse to a different problem
    with pytest.raises(ConfigError) as info:
        parse_config(text)
    assert unknown in str(info.value) and known in str(info.value)


def test_config_rejects_unknown_outputs(tmp_path, capsys):
    outputs = "outputs: [fluxes, fields, matrix, manifest]"
    assert parse_config(CONFIG.replace(outputs, "")).outputs == ["fluxes"]
    typo = CONFIG.replace(outputs, "outputs: [fluxes, feilds]")
    with pytest.raises(ConfigError, match="feilds.*fluxes, fields, matrix, manifest"):
        parse_config(typo)
    cfg = tmp_path / "typo.yaml"
    cfg.write_text(typo)
    assert main(["run", str(cfg), "--output-dir", str(tmp_path)]) == 2
    assert "feilds" in capsys.readouterr().err
    assert not (tmp_path / "fluxes.txt").exists()


# built-in -> (the files it writes, the checks its manifest lists)
BUILTIN_RUNS = {
    "problem1_quartic": (
        ["errors.csv", "fields.vtk", "fields.vtk.velocity.vtk", "fluxes.txt"],
        ["worst_relative_error", "max_relative_flux_mismatch", "global_dofs",
         "lu_fill", "residual_before_refinement", "worst_pivot_ratio",
         "worst_element_pivot_ratio"]),
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
    # order 1, the fracture on a grid plane: every 3D cell is eliminated, and
    # the multipliers of the 8 shared non-fracture faces (3 moments each) and
    # of the 4 interior fracture edges (2 each) and the 4 fracture cells'
    # pressures (3 each) make the factorized system
    checks = manifest["checks"]
    assert checks["global_dofs"] == 8 * 3 + 4 * 2 + 4 * 3
    assert 0 < checks["lu_fill"] <= 44 * 45
    assert manifest["residual"] <= checks["residual_before_refinement"] < 1e-12
    assert checks["worst_pivot_ratio"] == pytest.approx(1 / 3)


def _pivot_ratio(M):
    """Smallest over largest pivot of the Jacobi-equilibrated SPD matrix M."""
    s = 1.0 / np.sqrt(np.diag(M))
    piv = np.diag(np.linalg.cholesky(M * np.outer(s, s))) ** 2
    return piv.min() / piv.max()


def test_cli_run_reports_worst_element_pivot_ratio(tmp_path):
    # a tilted fracture cuts the cubes into prisms, whose matrices are not
    # diagonal after equilibration
    config = CONFIG.replace("[[0, -1, -1], [0, 1, -1], [0, 1, 1], [0, -1, 1]]",
                            "[[-0.2, -1, -1], [0.3, 1, -1], [0.3, 1, 1], [-0.2, -1, 1]]")
    (tmp_path / "problem.yaml").write_text(config)
    assert main(["run", str(tmp_path / "problem.yaml"), "--output-dir", str(tmp_path)]) == 0
    reported = json.loads((tmp_path / "manifest.json").read_text())["checks"][
        "worst_element_pivot_ratio"]
    # the same elements, their solved matrices refactorized one by one: the
    # pressure mass matrix H, the Gram matrix G and each face mass matrix,
    # which is the face measure times the inverse of the face's dual
    cfg = parse_config(config)
    system = assemble_complete(cut_background_mesh(cfg.build_mesh(), cfg.spec),
                               cfg.order, family3d=cfg.family3d,
                               trace_flow=cfg.trace_flow)
    ratios = []
    for blk in system.dofmap.blocks.values():
        for geom, loc in zip(blk.geoms, blk.locals_):
            if loc is None:
                continue
            ratios.append(_pivot_ratio(loc.H))
            if blk.dim > 1:
                ratios.append(_pivot_ratio(loc.G))
                ratios += [_pivot_ratio(face.measure * np.linalg.inv(dual))
                           for face, dual in zip(geom.faces, loc.face_dual)]
    assert 0 < min(ratios) < 0.9
    assert reported == pytest.approx(min(ratios), rel=1e-10)


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
    # a non-planar face is reported per cell, not raised while reading
    warped = box_mesh([0, 0, 0], [1, 1, 1], (2, 2, 2))
    warped.verts[13] = warped.verts[13] + np.array([0.0, 0.0, 0.1])
    write_mesh(warped, bad)
    capsys.readouterr()
    assert main(["validate-mesh", str(bad)]) == 1
    assert "non-planar" in capsys.readouterr().out


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
