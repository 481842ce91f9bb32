import json
from pathlib import Path

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
    report = json.loads(Path(out).read_text())
    assert report["version"] == 1
    assert report["command"] == "feasibility"
    assert report["results"][0]["details"]["n_min"] == 6 * (6 + 2 * 29 ** 4)
    assert report["pass"]


@pytest.mark.parametrize("q, k", [(4, 1), (1, 1), (0, 1), (-3, 1), (29, -1)])
def test_cli_feasibility_rejects_invalid_input(tmp_path, capsys, q, k):
    with pytest.raises(ValueError):
        min_feasible_level(q, k)
    out = tmp_path / "report.json"
    code = main(["feasibility", "--q", str(q), "--k", str(k),
                 "--out", str(out)])
    assert code != 0
    assert not out.exists()
    err = capsys.readouterr().err
    assert err.count("\n") == 1 and "must be" in err


def test_cli_pipeline_hensel(tmp_path):
    out = str(tmp_path / "hensel.json")
    assert main(["pipeline", "--suite", "hensel", "--out", out]) == 0
    report = json.loads(Path(out).read_text())
    assert report["pass"]
    assert {r["criterion"] for r in report["results"]} == {2, 3}


def test_cli_pipeline_reports_byte_identical(tmp_path):
    out1 = str(tmp_path / "a.json")
    out2 = str(tmp_path / "b.json")
    main(["pipeline", "--suite", "spectra", "--seed", "7", "--out", out1])
    main(["pipeline", "--suite", "spectra", "--seed", "7", "--out", out2])
    assert Path(out1).read_bytes() == Path(out2).read_bytes()


def test_cli_unknown_suite():
    with pytest.raises(SystemExit) as exc:
        main(["pipeline", "--suite", "nonsense"])
    assert exc.value.code == 2


def test_cli_report_schema(tmp_path):
    out = str(tmp_path / "r.json")
    main(["pipeline", "--suite", "spectra", "--out", out])
    report = json.loads(Path(out).read_text())
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
    assert json.loads(Path(out).read_text())["pass"] is False

    def crashing(seed: int = 0):
        raise ZeroDivisionError("boom")

    monkeypatch.setitem(suites.SUITES, "spectra", (crashing,))
    assert main(["pipeline", "--suite", "spectra", "--seed", "3",
                 "--out", out]) == 1
    details = json.loads(Path(out).read_text())["results"][0]["details"]
    assert details == {"error": "ZeroDivisionError('boom')", "seed": 3}


def test_cli_csv_export(tmp_path):
    out = str(tmp_path / "r.json")
    csv_dir = str(tmp_path / "csv")
    main(["pipeline", "--suite", "spectra", "--out", out, "--csv-dir", csv_dir])
    report = json.loads(Path(out).read_text())
    assert len(report["csv_files"]) == 4
    for path in report["csv_files"]:
        rows = Path(path).read_text().splitlines()
        assert rows[0] == "eigenvalue,multiplicity"
        assert len(rows) > 1


def test_cli_csv_dir_needs_spectra_suite(tmp_path, capsys):
    # the CSV files are the spectra suite's lift pairs; no other suite
    # computes them, so a report that listed them would misdescribe the run
    out, csv_dir = tmp_path / "r.json", tmp_path / "csv"
    assert main(["pipeline", "--suite", "hensel", "--out", str(out),
                 "--csv-dir", str(csv_dir)]) == 2
    err = capsys.readouterr().err
    assert err.count("\n") == 1 and "--suite spectra" in err
    assert not out.exists() and not csv_dir.exists()


@pytest.mark.parametrize("argv", [["feasibility"],
                                  ["pipeline", "--suite", "hensel"]])
def test_cli_out_into_a_missing_directory(tmp_path, monkeypatch, capsys,
                                          argv):
    # the directory is checked before any work: the suite never starts, and
    # the error is one line rather than a traceback once the suite has run
    import boxlab.cli as cli

    def never(*args, **kwargs):
        raise AssertionError("work started before --out was checked")

    monkeypatch.setattr(cli, "run_suite", never)
    monkeypatch.setattr(cli, "min_feasible_level", never)
    missing = tmp_path / "missing"
    assert main(argv + ["--out", str(missing / "r.json")]) == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err == (f"boxlab {argv[0]}: --out directory does not "
                            f"exist: {missing}\n")
    assert list(tmp_path.iterdir()) == []


def test_cli_rejects_removed_flag():
    with pytest.raises(SystemExit) as exc:
        main(["pipeline", "--suite", "hensel", "--mode", "extreme"])
    assert exc.value.code == 2


def test_cli_timings_per_criterion(tmp_path, monkeypatch):
    import boxlab.suites as suites

    # two quick criteria, so the report has more than one result name
    monkeypatch.setitem(suites.SUITES, "spectra",
                        (suites.criterion_lift, suites.criterion_admissible))
    plain, timed = str(tmp_path / "plain.json"), str(tmp_path / "timed.json")
    assert main(["pipeline", "--suite", "spectra", "--out", plain]) == 0
    assert main(["pipeline", "--suite", "spectra", "--timings",
                 "--out", timed]) == 0
    report = json.loads(Path(timed).read_text())
    timings = report.pop("timings")
    assert report == json.loads(Path(plain).read_text())
    assert set(timings) == {"total_seconds", "criteria", "cpu_seconds",
                            "peak_rss_mb"}
    names = sorted(r["name"] for r in report["results"])
    for key in ("criteria", "cpu_seconds"):
        assert sorted(timings[key]) == names
        assert all(isinstance(t, float) and t >= 0
                   for t in timings[key].values())


def test_cli_timings_cpu_seconds_cover_every_thread(tmp_path, monkeypatch):
    # the CPU seconds of a criterion are the process's user plus system time
    # over it, so a second thread's work counts as the main thread's does
    import threading
    import time

    import boxlab.suites as suites

    def spin(seconds):
        end = time.thread_time() + seconds
        while time.thread_time() < end:
            pass

    def two_threads(seed: int = 0):
        worker = threading.Thread(target=spin, args=(0.2,))
        worker.start()
        spin(0.2)
        worker.join(timeout=30)
        assert not worker.is_alive()
        return {"criterion": 99, "name": "two-threads", "passed": True,
                "details": {}}

    monkeypatch.setitem(suites.SUITES, "spectra", (two_threads,))
    out = str(tmp_path / "timed.json")
    assert main(["pipeline", "--suite", "spectra", "--timings",
                 "--out", out]) == 0
    timings = json.loads(Path(out).read_text())["timings"]
    assert timings["cpu_seconds"]["two-threads"] >= 0.4


def test_cli_timings_report_peak_rss_per_criterion(tmp_path, monkeypatch):
    # the process high-water mark after each criterion, in report order: a
    # high-water mark never falls
    import boxlab.suites as suites

    monkeypatch.setitem(suites.SUITES, "spectra",
                        (suites.criterion_lift, suites.criterion_admissible))
    out = str(tmp_path / "timed.json")
    assert main(["pipeline", "--suite", "spectra", "--timings",
                 "--out", out]) == 0
    report = json.loads(Path(out).read_text())
    peaks = report["timings"]["peak_rss_mb"]
    names = [r["name"] for r in report["results"]]
    assert list(peaks) == sorted(names)     # the report's keys are sorted
    marks = [peaks[name] for name in names]
    assert all(isinstance(mb, float) and mb > 0 for mb in marks)
    assert marks == sorted(marks)
