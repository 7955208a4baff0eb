"""The package's import graph, pinned edge by edge, and its public names.

The direct oracle must not see the construction it checks: ``direct``
imports only ``quadrature``, ``gds`` does not import ``direct``, and of the
library modules only ``diagnostics`` and ``cli`` import both the
construction (``dispersion``, ``gds``) and the oracle (``direct``).
``dispersion``, the relation alone, imports only ``quadrature``: its table
is plain data whose files ``cli`` writes.  The
runtime needs numpy alone: no module imports scipy, and a command imports
nothing the CLI did not import at start-up.  ``artifacts``, which imports no
module of the package, is the only one that opens a file for writing.
"""

import ast
import json
import os
import subprocess
import sys
import textwrap
from pathlib import Path

import kinrelax

SRC = Path(kinrelax.__file__).parent

EDGES = {
    "__init__": {"quadrature", "collision", "dispersion", "direct", "gds", "diagnostics"},
    "artifacts": set(),
    "quadrature": set(),
    "collision": {"quadrature"},
    "dispersion": {"quadrature"},
    "direct": {"quadrature"},
    "gds": {"dispersion", "quadrature"},
    "diagnostics": {"dispersion", "direct", "gds", "quadrature"},
    "cli": {"__init__", "artifacts", "collision", "diagnostics", "direct", "dispersion",
            "gds", "quadrature"},
}


def package_imports(path: Path) -> set:
    """Modules of the package that ``path`` imports, relatively or absolutely."""
    edges = set()
    for node in ast.walk(ast.parse(path.read_text())):
        if isinstance(node, ast.ImportFrom):
            module = node.module or ""
            if not node.level:  # absolute: "from kinrelax.x import y" or another package
                if module.split(".")[0] != "kinrelax":
                    continue
                module = module.partition(".")[2]
            if module:
                edges.add(module)
            else:  # "from . import x": x is a module or a name of __init__
                edges |= {a.name if (SRC / f"{a.name}.py").exists() else "__init__"
                          for a in node.names}
        elif isinstance(node, ast.Import):
            edges |= {a.name.partition(".")[2] or "__init__" for a in node.names
                      if a.name.split(".")[0] == "kinrelax"}
    return edges


def test_module_import_edges_are_pinned():
    found = {path.stem: package_imports(path) for path in sorted(SRC.glob("*.py"))}
    assert found == EDGES


def test_no_module_imports_scipy():
    for path in sorted(SRC.glob("*.py")):
        for node in ast.walk(ast.parse(path.read_text())):
            if isinstance(node, ast.Import):
                names = [a.name for a in node.names]
            elif isinstance(node, ast.ImportFrom) and not node.level:
                names = [node.module]
            else:
                continue
            assert all(name.split(".")[0] != "scipy" for name in names), path.name


def file_writes(path: Path) -> list:
    """Lines of ``path`` that call write_text or write_bytes, or open (the builtin
    or ``Path.open``) with a mode that writes or is not a literal."""
    lines = []
    for node in ast.walk(ast.parse(path.read_text())):
        if not isinstance(node, ast.Call):
            continue
        builtin = isinstance(node.func, ast.Name)
        name = node.func.id if builtin else getattr(node.func, "attr", None)
        mode = [*node.args[int(builtin):][:1],  # open(path, mode), path.open(mode)
                *(k.value for k in node.keywords if k.arg == "mode")]
        if name in ("write_text", "write_bytes") or name == "open" and mode and (
                not isinstance(mode[0], ast.Constant) or set(mode[0].value) & set("wax+")):
            lines.append(node.lineno)
    return lines


def test_only_artifacts_writes_files():
    found = {path.stem: file_writes(path) for path in sorted(SRC.glob("*.py"))}
    assert found.pop("artifacts")
    assert found == {name: [] for name in found}


# Every command at small sizes, and the rk4 path of compare.
COMMANDS = [["dispersion"], ["build-gds", "--config", "{kinetic}"],
            ["solve-direct", "--modes", "2"], ["compare", "--modes", "2"],
            ["compare", "--method", "rk4", "--modes", "2", "--times", "0.5"],
            ["properties"]]


def test_commands_import_nothing_past_start_up(tmp_path):
    # a module a command imports on first use would be timed as its work
    kinetic = tmp_path / "kinetic.json"
    kinetic.write_text(json.dumps({"include_kinetic": True, "modes": 4, "x_points": 16}))
    script = textwrap.dedent("""
        import json, sys
        import kinrelax.cli
        assert "scipy" not in sys.modules, "importing kinrelax.cli imported scipy"
        before = set(sys.modules)
        for k, args in enumerate(json.loads(sys.argv[1])):
            code = kinrelax.cli.main([*args, "--out", f"{sys.argv[2]}/{k}"])
            assert code == 0, (args, code)
        assert set(sys.modules) == before, sorted(set(sys.modules) - before)
    """)
    runs = [[a.format(kinetic=kinetic) for a in args] for args in COMMANDS]
    env = {**os.environ, "PYTHONPATH": os.pathsep.join(
        [str(SRC.parent), *filter(None, [os.environ.get("PYTHONPATH")])])}
    proc = subprocess.run([sys.executable, "-c", script, json.dumps(runs), str(tmp_path)],
                          env=env, capture_output=True, text=True, timeout=300)
    assert proc.returncode == 0, proc.stderr


PUBLIC = {
    "__version__",
    "SQRT_PI", "VelocityGrid", "adaptive_phi_integral", "build_grid", "gaussian_moment",
    "inner_product_phi", "moment", "norm_phi",
    "apply_collision", "check_mass_conservation", "check_negative_semidefinite",
    "check_self_adjoint", "collision_matrix", "operator_norm_bound_check",
    "DispersionTable", "UnsupportedFrequencyError", "build_table", "c_of_xi",
    "transfer_function", "xi_of_c", "xi_of_c_quadrature",
    "ModeOperator", "default_rk4_dt", "rk4_stability_limit",
    "FieldSnapshot", "KineticStateSpectral", "SpectralDensity",
    "evolve_density", "lift_to_kinetic", "make_band_limited_density", "to_physical",
    "ResidualReport", "Tolerances", "compare_gds_direct", "continuity_residual",
    "spectral_continuity_residual",
}


def test_public_names_are_pinned_and_resolve():
    assert len(kinrelax.__all__) == len(set(kinrelax.__all__))
    assert set(kinrelax.__all__) == PUBLIC
    for name in kinrelax.__all__:
        assert getattr(kinrelax, name, None) is not None, name
