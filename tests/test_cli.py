import json

import pytest

from boxlab.cli import main
from boxlab.suites import min_feasible_level


def test_feasibility_values():
    r = min_feasible_level(29, 1)
    assert r["n_min"] == 6 * (6 + 2 * 29 ** 4)
    assert r["depth_condition_ok"]
    assert min_feasible_level(3, 1)["n_min"] == 1008


def test_depth_condition_dominated_by_power_term():
    for q in (3, 7, 29):
        for k in (1, 2):
            assert min_feasible_level(q, k)["depth_condition_ok"]


def test_cli_feasibility(tmp_path, capsys):
    out = str(tmp_path / "report.json")
    assert main(["feasibility", "--q", "29", "--k", "1", "--out", out]) == 0
    report = json.loads(open(out).read())
    assert report["version"] == 1
    assert report["command"] == "feasibility"
    assert report["results"][0]["details"]["n_min"] == 6 * (6 + 2 * 29 ** 4)
    assert report["pass"]


def test_cli_pipeline_hensel(tmp_path):
    out = str(tmp_path / "hensel.json")
    assert main(["pipeline", "--suite", "hensel", "--out", out]) == 0
    report = json.loads(open(out).read())
    assert report["pass"]
    assert {r["criterion"] for r in report["results"]} == {2, 3}


def test_cli_pipeline_reports_byte_identical(tmp_path):
    out1 = str(tmp_path / "a.json")
    out2 = str(tmp_path / "b.json")
    main(["pipeline", "--suite", "spectra", "--seed", "7", "--out", out1])
    main(["pipeline", "--suite", "spectra", "--seed", "7", "--out", out2])
    assert open(out1, "rb").read() == open(out2, "rb").read()


def test_cli_unknown_suite():
    with pytest.raises(SystemExit) as exc:
        main(["pipeline", "--suite", "nonsense"])
    assert exc.value.code == 2


def test_cli_report_schema(tmp_path):
    out = str(tmp_path / "r.json")
    main(["pipeline", "--suite", "spectra", "--out", out])
    report = json.loads(open(out).read())
    assert set(report) >= {"version", "command", "params", "seed", "results", "pass"}
    for item in report["results"]:
        assert set(item) >= {"name", "passed", "details"}


def test_cli_stdout_default(capsys):
    assert main(["feasibility", "--q", "3", "--k", "1"]) == 0
    blob = json.loads(capsys.readouterr().out)
    assert blob["results"][0]["details"]["n_min"] == 1008


def test_cli_failing_suite_exits_nonzero(tmp_path, monkeypatch, capsys):
    import boxlab.suites as suites

    def broken(seed: int = 0):
        return {"criterion": 99, "name": "always-fails", "passed": False,
                "details": {}}

    monkeypatch.setitem(suites.SUITES, "spectra", (broken,))
    out = str(tmp_path / "fail.json")
    assert main(["pipeline", "--suite", "spectra", "--out", out]) == 1
    assert "always-fails" in capsys.readouterr().err
    assert json.loads(open(out).read())["pass"] is False


def test_cli_csv_export(tmp_path):
    out = str(tmp_path / "r.json")
    csv_dir = str(tmp_path / "csv")
    main(["pipeline", "--suite", "spectra", "--out", out, "--csv-dir", csv_dir])
    report = json.loads(open(out).read())
    assert len(report["csv_files"]) == 4
    for path in report["csv_files"]:
        rows = open(path).read().splitlines()
        assert rows[0] == "eigenvalue,multiplicity"
        assert len(rows) > 1


def test_cli_rejects_removed_flag():
    with pytest.raises(SystemExit) as exc:
        main(["pipeline", "--suite", "hensel", "--mode", "extreme"])
    assert exc.value.code == 2
