import json
import shutil
from importlib.metadata import entry_points

import numpy as np
import pytest

from fairalloc.cli import main
from fairalloc.model import is_feasible, load_instance
from fairalloc.trace import CSV_COLUMNS, read_trace


def run(*argv):
    return main([str(a) for a in argv])


@pytest.fixture()
def instance_file(tmp_path):
    path = tmp_path / "inst.json"
    code = run("gen", "--seed", 3, "--nodes", 8, "--links", 12, "--routes", 16, "--out", path)
    assert code == 0
    return path


def test_gen_writes_instance_and_partition(tmp_path):
    inst_path = tmp_path / "a.json"
    part_path = tmp_path / "a.part.json"
    code = run(
        "gen", "--seed", 1, "--nodes", 8, "--links", 12, "--routes", 10,
        "--domains", 3, "--out", inst_path, "--partition-out", part_path,
    )
    assert code == 0
    inst = load_instance(inst_path)
    assert inst.n_links == 12 and inst.n_routes == 10
    doc = json.loads(part_path.read_text())
    assert {e["link_id"] for e in doc} == set(range(12))


def test_gen_is_reproducible(tmp_path):
    a, b = tmp_path / "a.json", tmp_path / "b.json"
    assert run("gen", "--seed", 7, "--nodes", 8, "--links", 12, "--routes", 10, "--out", a) == 0
    assert run("gen", "--seed", 7, "--nodes", 8, "--links", 12, "--routes", 10, "--out", b) == 0
    assert a.read_bytes() == b.read_bytes()


def test_gen_rejects_partition_out_without_domains(tmp_path):
    code = run("gen", "--seed", 1, "--nodes", 8, "--links", 12, "--routes", 10,
               "--out", tmp_path / "x.json", "--partition-out", tmp_path / "p.json")
    assert code == 2


def test_solve_writes_trace_and_solution(tmp_path, instance_file):
    trace_path = tmp_path / "trace.csv"
    sol_path = tmp_path / "solution.json"
    code = run(
        "solve", "--algorithm", "fd-admm", "--instance", instance_file,
        "--tol-primal", 1e-5, "--tol-dual", 1e-5,
        "--out", trace_path, "--solution", sol_path,
    )
    assert code == 0
    rows = read_trace(trace_path)
    assert len(rows) >= 1
    header = trace_path.read_text().splitlines()[0]
    assert header == ",".join(CSV_COLUMNS)
    doc = json.loads(sol_path.read_text())
    assert doc["algorithm"] == "fd-admm"
    assert doc["converged"] is True
    inst = load_instance(instance_file)
    assert is_feasible(inst, np.array(doc["allocation"]))


def test_solve_trace_is_byte_deterministic(tmp_path, instance_file):
    a, b = tmp_path / "a.csv", tmp_path / "b.csv"
    args = ["solve", "--algorithm", "fd-admm", "--instance", instance_file,
            "--tol-primal", 1e-4, "--tol-dual", 1e-4]
    assert run(*args, "--out", a) == 0
    assert run(*args, "--out", b) == 0
    assert a.read_bytes() == b.read_bytes()


def test_solve_missing_instance_is_usage_error(tmp_path):
    code = run("solve", "--algorithm", "fd-admm", "--instance", tmp_path / "nope.json",
               "--out", tmp_path / "t.csv")
    assert code == 2


def test_solve_invalid_instance_is_usage_error(tmp_path):
    bad = tmp_path / "bad.json"
    bad.write_text('{"alpha": 1.0}')
    code = run("solve", "--algorithm", "fd-admm", "--instance", bad, "--out", tmp_path / "t.csv")
    assert code == 2


def test_lagr_alpha_zero_is_runtime_error(tmp_path, instance_file):
    code = run("solve", "--algorithm", "lagr", "--instance", instance_file,
               "--alpha", 0.0, "--lambda", 1.0, "--out", tmp_path / "t.csv")
    assert code == 1


def test_bad_lambda_rejected_by_argparse(tmp_path, instance_file, capsys):
    with pytest.raises(SystemExit) as exc:
        run("solve", "--algorithm", "fd-admm", "--instance", instance_file,
            "--lambda", "-2", "--out", tmp_path / "t.csv")
    assert exc.value.code == 2


def test_dynamic_command(tmp_path, instance_file):
    out = tmp_path / "dyn.csv"
    code = run(
        "dynamic", "--algorithm", "fd-admm", "--instance", instance_file,
        "--amplitude", 0.25, "--events", 3, "--iters-per-event", 4,
        "--out", out,
    )
    assert code == 0
    rows = read_trace(out)
    assert len(rows) == 12
    assert sorted({r.event for r in rows}) == [1, 2, 3]
    assert all(r.violated_pct == 0.0 for r in rows)


def test_dynamic_rejects_bad_amplitude(tmp_path, instance_file):
    with pytest.raises(SystemExit) as exc:
        run("dynamic", "--algorithm", "fd-admm", "--instance", instance_file,
            "--amplitude", 1.5, "--out", tmp_path / "d.csv")
    assert exc.value.code == 2


def test_dynamic_rejects_solver_budget_flags(tmp_path, instance_file):
    # every event runs exactly --iters-per-event rounds, so the scenario
    # has no tolerances or round cap to set
    for flag, value in (("--max-iters", 5), ("--tol-primal", 1e-3), ("--tol-dual", 1e-3)):
        with pytest.raises(SystemExit) as exc:
            run("dynamic", "--algorithm", "fd-admm", "--instance", instance_file,
                "--amplitude", 0.5, flag, value, "--out", tmp_path / "d.csv")
        assert exc.value.code == 2, flag


def test_sweep_lambda_grid(tmp_path, instance_file):
    out = tmp_path / "sweep.csv"
    code = run("sweep-lambda", "--instance", instance_file, "--grid", "0.1,1,10",
               "--tol", 1e-3, "--out", out)
    assert code == 0
    lines = out.read_text().splitlines()
    assert lines[0] == "mode,penalty,iterations,converged"
    assert len(lines) == 1 + 4  # three fixed points plus the adaptive row
    assert lines[-1].startswith("adaptive,")


def test_sweep_lambda_bad_grid(tmp_path, instance_file):
    code = run("sweep-lambda", "--instance", instance_file, "--grid", "0.1,zebra",
               "--out", tmp_path / "s.csv")
    assert code == 2


def test_loadcurve(tmp_path):
    paths = []
    for s, n in [(1, 8), (2, 16)]:
        p = tmp_path / f"i{n}.json"
        assert run("gen", "--seed", s, "--nodes", 8, "--links", 12, "--routes", n, "--out", p) == 0
        paths.append(p)
    out = tmp_path / "curve.csv"
    code = run("loadcurve", "--instances", *paths, "--tol", 1e-3, "--out", out)
    assert code == 0
    lines = out.read_text().splitlines()
    assert lines[0] == "mean_link_load,n_routes,iterations,converged"
    assert len(lines) == 3


def _console_script(name):
    return next((ep for ep in entry_points(group="console_scripts") if ep.name == name), None)


@pytest.mark.skipif(
    _console_script("fairalloc") is None,
    reason="no `fairalloc` console script registered; `pip install -e .` creates it",
)
def test_entry_point_installed():
    assert _console_script("fairalloc").value == "fairalloc.cli:main"
    exe = shutil.which("fairalloc")
    assert exe is not None
