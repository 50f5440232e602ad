import numpy as np
import pytest

from hjbsl.cli import (
    CSV_COLUMNS,
    StudyConfig,
    build_mesh_for,
    dump_solution,
    emit_report,
    load_config,
    main,
    run_study,
    save_config,
    solution_errors,
)
from hjbsl.errors import BadParams, ConfigError
from hjbsl.problems import get_benchmark
from hjbsl.scheme import SchemeParams, sweep


def test_csv_columns_fixed():
    assert CSV_COLUMNS == ["dx", "dt", "e_inf", "e_1", "p_inf", "p_1",
                           "max_u", "wall_seconds"]


def test_config_validation():
    with pytest.raises(ConfigError):
        StudyConfig(benchmark="test1_eps", dx_ladder=[])
    with pytest.raises(ConfigError):
        StudyConfig(benchmark="test1_eps", dx_ladder=[0.1, -0.05])
    with pytest.raises(ConfigError):
        StudyConfig(benchmark="test1_eps", dt_rule="dx/3")
    cfg = StudyConfig(benchmark="test1_eps", dt_rule="dx/2")
    assert cfg.dt_for(0.1) == pytest.approx(0.05)


def test_run_study_values_and_rates():
    cfg = StudyConfig(benchmark="test1_eps", eps=0.0,
                      dx_ladder=[0.05, 0.025])
    report = run_study(cfg)
    assert len(report.levels) == 2
    assert report.levels[0].p_inf is None
    assert report.levels[0].e_inf == pytest.approx(2.83e-2, rel=0.05)
    assert report.levels[1].e_inf == pytest.approx(1.42e-2, rel=0.05)
    assert 0.85 <= report.levels[1].p_inf <= 1.15


def test_run_study_requires_exact_solution():
    with pytest.raises(ConfigError):
        run_study(StudyConfig(benchmark="test3_exit", dx_ladder=[0.2]))


def test_solution_errors_match_pointwise_interpolation():
    # E_1 on a 2D mesh: the batched barycenter values against P1
    # interpolation and the exact solution one point at a time
    bench = get_benchmark("test2_neumann", n_a=4)
    mesh = build_mesh_for(bench, 0.25)
    vf = sweep(bench.problem, mesh, SchemeParams(dt=0.25, c_bar=bench.c_bar))
    exact = bench.problem.exact_solution
    t, U = vf.times[vf.report_index], vf.values[vf.report_index]
    e_inf, e_1 = solution_errors(vf, exact)
    one = lambda x: exact(t, x[None])[0]
    assert e_inf == max(abs(U[i] - one(x)) for i, x in enumerate(mesh.vertices))
    ref = sum(area * abs(vf(t, x) - one(x))
              for x, area in zip(mesh.barycenters(), mesh.simplex_measures()))
    assert e_1 == pytest.approx(ref, rel=1e-12, abs=1e-14)


def test_emit_report_formats(tmp_path):
    cfg = StudyConfig(benchmark="test1_eps", dx_ladder=[0.1])
    report = run_study(cfg)
    csv_path = tmp_path / "r.csv"
    emit_report(report, "csv", csv_path)
    lines = csv_path.read_text().strip().splitlines()
    assert lines[0] == ",".join(CSV_COLUMNS)
    assert len(lines) == 2
    row = lines[1].split(",")
    assert row[4] == "" and row[5] == ""   # no rates on a single level
    with pytest.raises(ConfigError):
        emit_report(report, "xml", tmp_path / "r.xml")


def test_study_replay_determinism(tmp_path):
    cfg = StudyConfig(benchmark="test1_eps", eps=0.05,
                      dx_ladder=[0.1, 0.05])
    save_config(cfg, tmp_path / "study.cfg")
    replay = load_config(tmp_path / "study.cfg")
    assert replay.benchmark == cfg.benchmark
    assert replay.eps == cfg.eps
    assert replay.dx_ladder == cfg.dx_ladder

    def csv_rows(config):
        report = run_study(config)
        path = tmp_path / "out.csv"
        emit_report(report, "csv", path)
        rows = [r.split(",") for r in path.read_text().strip().splitlines()[1:]]
        # everything but wall time is deterministic
        drop = CSV_COLUMNS.index("wall_seconds")
        return [r[:drop] + r[drop + 1:] for r in rows]

    assert csv_rows(cfg) == csv_rows(replay)


def test_load_config_rejects_unread_keys(tmp_path):
    cfg = StudyConfig(benchmark="test1_eps", dx_ladder=[0.1])
    save_config(cfg, tmp_path / "study.cfg")
    text = (tmp_path / "study.cfg").read_text()
    for key in ("n_b = 2", "seed = 3"):
        bad = tmp_path / "bad.cfg"
        bad.write_text(text.replace("[study]\n", f"[study]\n{key}\n"))
        with pytest.raises(ConfigError):
            load_config(bad)
        assert main(["study", "--config", str(bad)]) == 2


@pytest.mark.parametrize("text", [
    "[other]\nx = 1\n",                                  # no [study] section
    "[study]\neps = 0\n",                                # no benchmark
    "[study]\nbenchmark = test1_eps\n",                  # no dx_ladder
    "[study]\nbenchmark = test1_eps\ndx_ladder = 0.1\neps = abc\n",
    "benchmark = test1_eps\n",                           # no section header
    "[study]\nbenchmark = test1_eps\ndx_ladder = nan\n",
], ids=["no_section", "no_benchmark", "no_dx_ladder", "bad_number", "no_header",
        "nan_dx"])
def test_load_config_rejects_incomplete_or_malformed_files(tmp_path, text, capsys):
    path = tmp_path / "study.cfg"
    path.write_text(text)
    with pytest.raises(ConfigError):
        load_config(path)
    assert main(["study", "--config", str(path)]) == 2
    capsys.readouterr()


@pytest.mark.parametrize("command", [["study", "--dx-ladder", "0.1"],
                                     ["solve", "--dx", "0.25"]])
@pytest.mark.parametrize("option", ["--nb", "--seed"])
def test_removed_no_op_options_are_rejected(command, option, capsys):
    with pytest.raises(SystemExit) as exc:
        main(command + [option, "2"])
    assert exc.value.code == 2
    capsys.readouterr()


def test_dump_solution(tmp_path):
    bench = get_benchmark("test1_eps")
    mesh = build_mesh_for(bench, 0.25)
    pr = bench.problem
    pr.psi = lambda X: np.full(len(X), 2.0)
    pr.f = lambda t, X, a: np.zeros(len(X))
    vf = sweep(pr, mesh, SchemeParams(dt=0.25, c_bar=bench.c_bar))
    out = tmp_path / "sol.txt"
    dump_solution(vf, 0, out)
    vals = [float(line.split()[-1]) for line in out.read_text().splitlines()]
    assert len(vals) == mesh.n_vertices
    assert np.allclose(vals, 2.0, atol=1e-12)
    with pytest.raises(BadParams):
        dump_solution(vf, 99, tmp_path / "x.txt")


def test_main_study_and_outputs(tmp_path, capsys):
    out = tmp_path / "run"
    code = main(["study", "--benchmark", "test1_eps", "--eps", "0",
                 "--dx-ladder", "0.1,0.05", "--format", "csv",
                 "--out", str(out)])
    assert code == 0
    assert (out / "report.csv").exists()
    assert (out / "report.txt").exists()
    assert (out / "study.cfg").exists()
    printed = capsys.readouterr().out.strip().splitlines()
    assert printed[0] == ",".join(CSV_COLUMNS)
    # replay from the emitted config gives identical error columns
    code = main(["study", "--config", str(out / "study.cfg"), "--format",
                 "csv", "--out", str(tmp_path / "run2")])
    assert code == 0
    a = (out / "report.csv").read_text().splitlines()
    b = (tmp_path / "run2" / "report.csv").read_text().splitlines()
    drop = CSV_COLUMNS.index("wall_seconds")
    strip = lambda rows: [r.split(",")[:drop] + r.split(",")[drop + 1:]
                          for r in rows[1:]]
    assert strip(a) == strip(b)


def test_main_exit_codes(tmp_path, capsys):
    # no exact solution for a study -> config error
    assert main(["study", "--benchmark", "test3_exit",
                 "--dx-ladder", "0.2"]) == 2
    # solver-level failure (dt above the horizon)
    assert main(["solve", "--benchmark", "test1_eps", "--dx", "0.25",
                 "--dt", "5.0", "--out", str(tmp_path / "s.txt")]) == 3
    capsys.readouterr()


@pytest.mark.parametrize("argv, message", [
    (["study", "--dx-ladder", "0.1,abc"], "--dx-ladder entry 'abc' is not a number"),
    (["study", "--dx-ladder", ",,"], "--dx-ladder entry '' is not a number"),
    (["verify", "--seed", "-1"], "--seed must be nonnegative, got -1"),
    (["study", "--dx-ladder", "nan"], "dx ladder must be a nonempty list of positive "
                                      "finite real numbers, got [nan]"),
    (["study", "--dx-ladder", "0.1,inf"], "dx ladder must be a nonempty list of positive "
                                          "finite real numbers, got [0.1, inf]"),
], ids=["ladder-word", "ladder-empty", "verify-negative-seed", "ladder-nan", "ladder-inf"])
def test_bad_command_line_values_are_config_errors(argv, message, capsys):
    assert main(argv) == 2
    assert capsys.readouterr().err == f"config error: {message}\n"


def test_main_solve_and_verify(tmp_path, capsys):
    out = tmp_path / "sol.txt"
    code = main(["solve", "--benchmark", "test1_eps", "--dx", "0.1",
                 "--out", str(out)])
    assert code == 0
    assert out.exists()
    assert len(out.read_text().splitlines()) == 11
    capsys.readouterr()
    assert main(["verify"]) == 0
    # the row mass is read from every row's slot probabilities, on a 1D
    # operator, an oblique one and one with Dirichlet absorption
    printed = capsys.readouterr().out.splitlines()
    for field in ("normal", "oblique"):
        assert f"PASS  {field} projection residual <= 1e-10" in printed
    for operator in ("test1_eps dx 0.05", "test2_oblique dx 0.25", "test3_exit dx 0.2"):
        assert f"PASS  {operator}: transition row sums to 1" in printed
        assert f"PASS  {operator}: one-step operator monotone" in printed
    assert not [line for line in printed if line.startswith("FAIL")]
