import os
import re

from randhelm.cli import main
from randhelm.studies import config_from_dict, parse_config


def _write_config(path, **kv):
    base = {"k": "5.0", "epsilon": "0.1", "N": "2", "M": "4", "n": "6", "r": "1"}
    base.update({k: str(v) for k, v in kv.items()})
    with open(path, "w") as fh:
        for key, val in base.items():
            fh.write(f"{key}={val}\n")
    return path


def test_mesh_info(capsys):
    assert main(["mesh-info", "10"]) == 0
    out = capsys.readouterr().out
    assert "elements=200" in out
    assert "vertices=121" in out
    assert "edges=320" in out
    assert "boundary_edges=40" in out


def test_mesh_info_dump(tmp_path, capsys):
    out = os.path.join(tmp_path, "mesh")
    assert main(["mesh-info", "3", "--out", out]) == 0
    with open(os.path.join(out, "vertices.csv")) as fh:
        lines = fh.read().strip().split("\n")
    assert len(lines) == 1 + 16
    with open(os.path.join(out, "elements.csv")) as fh:
        lines = fh.read().strip().split("\n")
    assert len(lines) == 1 + 18


def test_solve_det(tmp_path, capsys):
    cfg = _write_config(os.path.join(tmp_path, "c.txt"))
    out = os.path.join(tmp_path, "det")
    assert main(["solve-det", "--config", cfg, "--out", out]) == 0
    assert "ndof=" in capsys.readouterr().out
    assert os.path.exists(os.path.join(out, "field.csv"))
    assert os.path.exists(os.path.join(out, "diagonal.csv"))


def test_run_modes(tmp_path, capsys):
    cfg = _write_config(os.path.join(tmp_path, "c.txt"))
    out = os.path.join(tmp_path, "modes")
    assert main(["run-modes", "--config", cfg, "--out", out]) == 0
    assert os.path.exists(os.path.join(out, "tables", "modes.csv"))
    assert os.path.exists(os.path.join(out, "report.txt"))


def test_run_classical(tmp_path, capsys):
    cfg = _write_config(os.path.join(tmp_path, "c.txt"))
    out = os.path.join(tmp_path, "classical")
    assert main(["run-classical", "--config", cfg, "--out", out]) == 0
    assert os.path.exists(os.path.join(out, "psi_classical.csv"))
    with open(os.path.join(out, "report.txt")) as fh:
        report = fh.read()
    assert "factorizations=4" in report
    assert re.search(r"^lu_nnz=[1-9][0-9]*$", report, re.MULTILINE)


def test_compare(tmp_path, capsys):
    cfg = _write_config(os.path.join(tmp_path, "c.txt"))
    out = os.path.join(tmp_path, "cmp")
    assert main(["compare", "--config", cfg, "--out", out]) == 0
    text = capsys.readouterr().out
    assert "abs_l2=" in text and "rel_l2=" in text
    assert os.path.exists(os.path.join(out, "compare.csv"))


def test_study(tmp_path, capsys):
    cfg = _write_config(
        os.path.join(tmp_path, "c.txt"),
        study="m_scaling",
        M_values="4,16",
        M_ref="64",
        source="radial_wave",
    )
    out = os.path.join(tmp_path, "study")
    assert main(["study", "--config", cfg, "--out", out]) == 0
    assert os.path.exists(os.path.join(out, "tables", "m_scaling.csv"))


def test_study_rejects_m_values_below_one(tmp_path, capsys):
    cfg = _write_config(os.path.join(tmp_path, "c.txt"), study="m_scaling", M_values="0,4")
    assert main(["study", "--config", cfg, "--out", os.path.join(tmp_path, "bad")]) == 1
    assert "error: M_values must be at least 1, got 0" in capsys.readouterr().err


def test_study_rejects_m_ref_below_one(tmp_path, capsys):
    cfg = _write_config(
        os.path.join(tmp_path, "c.txt"), study="m_scaling", M_values="2,4", M_ref="0"
    )
    assert main(["study", "--config", cfg, "--out", os.path.join(tmp_path, "bad")]) == 1
    assert "error: M_ref must be at least 1, got 0" in capsys.readouterr().err


def test_study_is_checked_before_anything_is_written(tmp_path, capsys):
    cfg = _write_config(os.path.join(tmp_path, "c.txt"), study="m_scaling", M_values="5")
    out = os.path.join(tmp_path, "bad")
    assert main(["study", "--config", cfg, "--out", out]) == 1
    assert "error: M_values needs two values or more for a slope, got 1" in capsys.readouterr().err
    assert not os.path.exists(out)


def test_study_requires_study_key(tmp_path, capsys):
    cfg = _write_config(os.path.join(tmp_path, "c.txt"))
    out = os.path.join(tmp_path, "bad")
    assert main(["study", "--config", cfg, "--out", out]) == 1


def test_missing_config_is_an_error(tmp_path, capsys):
    rc = main(["solve-det", "--config", os.path.join(tmp_path, "nope.txt")])
    assert rc == 1
    assert "error:" in capsys.readouterr().err


def test_bad_config_keys_are_errors(tmp_path, capsys):
    out = os.path.join(tmp_path, "bad")
    typo = _write_config(os.path.join(tmp_path, "typo.txt"), epsilion="0.3")
    assert main(["run-modes", "--config", typo, "--out", out]) == 1
    assert "'epsilion'" in capsys.readouterr().err
    twice = os.path.join(tmp_path, "twice.txt")
    with open(twice, "w") as fh:
        fh.write("k=5\nk=7\n")
    assert main(["run-modes", "--config", twice, "--out", out]) == 1
    assert "line 2: repeated config key 'k'" in capsys.readouterr().err


def test_bad_config_values_are_errors(tmp_path, capsys):
    out = os.path.join(tmp_path, "bad")
    cfg = _write_config(os.path.join(tmp_path, "bad.txt"), k="abc")
    assert main(["run-modes", "--config", cfg, "--out", out]) == 1
    assert "line 1: cannot read config key 'k'" in capsys.readouterr().err


def test_run_classical_echo_reproduces_config(tmp_path, capsys):
    cfg = _write_config(os.path.join(tmp_path, "c.txt"), gamma_higher="0.1,0.5", r="2")
    out = os.path.join(tmp_path, "classical")
    assert main(["run-classical", "--config", cfg, "--out", out]) == 0
    echo = parse_config(os.path.join(out, "config.txt"))
    assert config_from_dict(echo) == config_from_dict(parse_config(cfg))
    with open(os.path.join(out, "report.txt")) as fh:
        assert "method=classical" in fh.read()
