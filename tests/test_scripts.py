"""The example scripts write the same CSV layout as the CLI."""

import os
import subprocess
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]


def run_script(name, *args):
    path = os.pathsep.join(filter(None, [str(ROOT / "src"), os.environ.get("PYTHONPATH")]))
    command = [sys.executable, str(ROOT / "scripts" / name), *map(str, args)]
    subprocess.run(command, check=True, env=dict(os.environ, PYTHONPATH=path), capture_output=True)


def test_load_curve_script_matches_cli_columns(tmp_path):
    out = tmp_path / "curve.csv"
    run_script("load_curve.py", "--nodes", 8, "--links", 12, "--routes", "8,16", "--out", out)
    data = out.read_bytes()
    assert data.startswith(b"mean_link_load,n_routes,iterations,converged\n")
    assert data.count(b"\n") == 3 and b"\r" not in data


def test_dynamic_experiment_summary_ends_rows_with_newline(tmp_path):
    run_script(
        "dynamic_experiment.py", "--nodes", 8, "--links", 12, "--routes", 6, "--amplitudes", "0.5",
        "--events", 2, "--iters-per-event", 3, "--out", tmp_path,
    )
    data = (tmp_path / "summary.csv").read_bytes()
    assert data.startswith(b"amplitude,algorithm,mean_gap,mean_violated_pct,seconds\n")
    assert data.count(b"\n") == 3 and b"\r" not in data
