"""Importing refugebif loads numpy and scipy.sparse only: SciPy's sparse LU,
with the scipy.linalg it pulls in, is loaded at the first factorization,
and scipy.sparse.csgraph not at all.  Each check runs in a fresh
interpreter, since this test session has loaded all of them."""

import json
import os
import subprocess
import sys
from pathlib import Path

import refugebif

from conftest import REFUGE_BOX

SRC = Path(refugebif.__file__).resolve().parents[1]
DEFERRED = ("scipy.sparse.linalg", "scipy.linalg", "scipy.sparse.csgraph")


def deferred_loaded_after(code, cwd):
    """The DEFERRED modules that are loaded after ``code`` runs in a fresh
    interpreter with ``SRC`` first on its path."""
    script = (
        f"import json, sys\n{code}\n"
        f"print(json.dumps([m for m in {DEFERRED!r} if m in sys.modules]))"
    )
    path = os.pathsep.join(filter(None, [str(SRC), os.environ.get("PYTHONPATH")]))
    proc = subprocess.run(
        [sys.executable, "-c", script], cwd=cwd, capture_output=True, text=True,
        env={**os.environ, "PYTHONPATH": path}, timeout=120,
    )
    assert proc.returncode == 0, proc.stderr
    return json.loads(proc.stdout.splitlines()[-1])


def test_import_loads_no_factorization_modules(tmp_path):
    assert deferred_loaded_after("import refugebif", tmp_path) == []


def test_analyze_factors_nothing(tmp_path):
    config = tmp_path / "cfg.json"
    config.write_text(json.dumps({"geometry": {"n": 16, "refuge_box": list(REFUGE_BOX)}}))
    code = (
        "from refugebif import cli\n"
        f"assert cli.main(['analyze', '--config', {str(config)!r}, '--out', 'out', '--quiet']) == 0"
    )
    assert deferred_loaded_after(code, tmp_path) == []


def test_linear_time_stepping_factors_nothing(tmp_path):
    code = f"""
import refugebif as rb
grid = rb.build_grid(16, refuge_box={REFUGE_BOX!r})
p = rb.ModelParams(lam=1.0, mu=0.4, c=1.0, m=1.0, b=1.0, variant=rb.Diffusion.LINEAR)
start = rb.State(rb.ScalarField.constant(grid, 0.5),
                 rb.ScalarField.constant(grid, 0.1, rb.Region.EXTERIOR))
final, _ = rb.evolve_to_steady(p, start, rb.TimeOptions(dt=0.05, t_max=1.0))
assert final.v.values.max() > 0.0
"""
    assert deferred_loaded_after(code, tmp_path) == []


def test_nonlinear_time_stepping_factors_nothing(tmp_path):
    # the prey CG's product kernel comes from scipy.sparse._sparsetools,
    # which scipy.sparse loads, and a smooth run refreshes by the DCT
    code = f"""
import refugebif as rb
grid = rb.build_grid(16, refuge_box={REFUGE_BOX!r})
p = rb.ModelParams(lam=1.0, mu=0.4, c=1.0, m=1.0, b=1.0)
start = rb.State(rb.ScalarField.constant(grid, 0.5),
                 rb.ScalarField.constant(grid, 0.1, rb.Region.EXTERIOR))
final, _ = rb.evolve_to_steady(p, start, rb.TimeOptions(dt=0.05, t_max=1.0))
assert final.v.values.max() > 0.0
"""
    assert deferred_loaded_after(code, tmp_path) == []


def test_tracing_loads_the_sparse_lu(tmp_path):
    code = f"""
import refugebif as rb
grid = rb.build_grid(8, refuge_box={REFUGE_BOX!r})
p = rb.ModelParams(lam=1.0, mu=0.5, c=1.0, m=1.0, b=1.0)
assert len(rb.trace_branch(grid, p, 0.45).points) > 2
"""
    loaded = deferred_loaded_after(code, tmp_path)
    assert "scipy.sparse.linalg" in loaded and "scipy.sparse.csgraph" not in loaded


def test_predator_block_eigenvalue_factors_nothing(tmp_path):
    code = f"""
import refugebif as rb
from refugebif.analytics import v_block_eigenvalue
grid = rb.build_grid(16, refuge_box={REFUGE_BOX!r})
p = rb.ModelParams(lam=1.0, mu=0.4, c=1.0, m=1.0, b=1.0)
assert abs(v_block_eigenvalue(grid, p, 0.4) + 0.1) < 1e-10
"""
    assert deferred_loaded_after(code, tmp_path) == []
