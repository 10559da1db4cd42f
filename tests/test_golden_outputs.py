"""Committed reference outputs for the four CLI commands.

Each command runs with ``--variant both`` on the small config of acceptance
criterion 11 and its CSV files are compared with ``tests/golden/<command>``:
the same file names, headers, row counts and footer lines, and every number
within rtol 1e-10 (atol 1e-14), so the check holds across BLAS builds.  SVGs
are left out; they are drawn from the same numbers.

To regenerate the references after an intended change of the outputs:

    PYTHONPATH=src python tests/test_golden_outputs.py
"""

import json
import math
import sys
from pathlib import Path

import pytest

from refugebif.cli import main

GOLDEN = Path(__file__).parent / "golden"
COMMANDS = ("analyze", "trace", "simulate", "reproduce-fig1")
CONFIG = {
    "geometry": {"n": 8, "refuge_box": [0.375, 0.375, 0.625, 0.625]},
    "params": {"lambda": 1.0, "mu": 0.6, "c": 1.0, "m": 1.0, "b": 1.0},
    "continuation": {"mu_min": 0.2},
    "time": {"dt": 0.05, "t_max": 10.0, "initial_v": 0.1},
    "output": {"directory": "", "snapshot_every": 20, "emit_svg": False},
}
RTOL, ATOL = 1e-10, 1e-14


def run_command(command, out_dir: Path, cfg_dir: Path) -> dict[str, str]:
    """Run one CLI command into out_dir; return {csv name: text}."""
    cfg = json.loads(json.dumps(CONFIG))
    cfg["output"]["directory"] = str(out_dir)
    cfg_path = cfg_dir / f"{command}.json"
    cfg_path.write_text(json.dumps(cfg))
    assert main([command, "--config", str(cfg_path), "--variant", "both", "--quiet"]) == 0
    return {p.name: p.read_text() for p in sorted(out_dir.glob("*.csv"))}


def _split(text):
    lines = text.splitlines()
    footer = [line for line in lines if line.startswith("#")]
    rows = [line.split(",") for line in lines[1:] if not line.startswith("#")]
    return lines[0], rows, footer


def _same_cell(got: str, want: str) -> bool:
    try:
        a, b = float(got), float(want)
    except ValueError:
        return got == want
    return math.isclose(a, b, rel_tol=RTOL, abs_tol=ATOL)


@pytest.mark.parametrize("command", COMMANDS)
def test_outputs_match_golden(command, tmp_path):
    want = {p.name: p.read_text() for p in sorted((GOLDEN / command).glob("*.csv"))}
    assert want, f"no golden files for {command}"
    got = run_command(command, tmp_path / "out", tmp_path)
    assert sorted(got) == sorted(want)
    for name in want:
        head_g, rows_g, foot_g = _split(got[name])
        head_w, rows_w, foot_w = _split(want[name])
        assert head_g == head_w, name
        assert foot_g == foot_w, name
        assert len(rows_g) == len(rows_w), name
        for i, (row_g, row_w) in enumerate(zip(rows_g, rows_w)):
            assert len(row_g) == len(row_w), (name, i)
            bad = [
                (j, g, w) for j, (g, w) in enumerate(zip(row_g, row_w))
                if not _same_cell(g, w)
            ]
            assert not bad, (name, i, bad)


if __name__ == "__main__":
    import tempfile

    with tempfile.TemporaryDirectory() as tmp:
        for command in COMMANDS:
            target = GOLDEN / command
            target.mkdir(parents=True, exist_ok=True)
            for old in target.glob("*.csv"):
                old.unlink()
            files = run_command(command, target, Path(tmp))
            print(f"{command}: {len(files)} files", file=sys.stderr)
