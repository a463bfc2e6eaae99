import json

import jsonschema
import pytest

from sl2cert import acyclic, cli, report, verify
from sl2cert.report import Report, RunConfig
from sl2cert.verify import CheckResult


def _config(**kw):
    base = dict(q=13, checks=("census",), seed=1, budget=10,
                fmt="json", out=None)
    base.update(kw)
    return RunConfig(**base)


def test_json_report_validates_schema():
    rep = Report(_config())
    rep.results.append(CheckResult("toy", True, 1, 1, detail="ok"))
    doc = json.loads(rep.to_json())
    jsonschema.validate(doc, report.load_schema())
    assert doc["verdict"] == "pass"


def test_report_verdict_fail():
    rep = Report(_config())
    rep.results.append(CheckResult("toy", False, 1, 2))
    assert rep.verdict == "fail"
    assert "FAIL" in rep.to_text()


def test_json_deterministic_without_timings():
    def make():
        rep = Report(_config())
        res = CheckResult("toy", True, {3, 1, 2}, {2, 1, 3})
        rep.results.append(res)
        return rep
    a, b = make(), make()
    b.results[0].elapsed = 123.0     # timings must not leak into JSON
    assert a.to_json() == b.to_json()


def test_cli_selection_runs_requested_checks():
    config = cli._parse_args(["--q", "13", "--checks", "census,chartable"])
    assert config.checks == ("census", "chartable")
    rep = cli.run(config)
    names = {r.name for r in rep.results}
    assert any(n.startswith("census") for n in names)
    assert any(n.startswith("chartable") for n in names)
    assert not any(n.startswith("degree") for n in names)


def test_cli_all_expansion_order():
    config = cli._parse_args(["--q", "13"])
    assert config.checks == cli.CHECK_ORDER


def test_cli_usage_errors():
    assert cli.main(["--q", "15", "--checks", "census"]) == 2
    assert cli.main(["--q", "13", "--checks", "bogus"]) == 2


def test_cli_has_no_jobs_option():
    assert cli.main(["--q", "13", "--checks", "census", "--jobs", "2"]) == 2


def test_config_keys_are_the_schema_config_keys():
    schema = report.load_schema()["properties"]["config"]
    assert set(_config().as_dict()) == set(schema["required"])
    assert set(schema["properties"]) == set(schema["required"])


def test_cli_looks_up_verify_functions_at_run_time(monkeypatch):
    calls = []
    census = verify.verify_prop31

    def counting(*args, **kwargs):
        calls.append(args)
        return census(*args, **kwargs)
    monkeypatch.setattr(verify, "verify_prop31", counting)
    rep = cli.run(_config())
    assert len(calls) == 1 and rep.verdict == "pass"


def test_cli_raising_check_is_a_failed_result(monkeypatch):
    def broken(self, name):
        raise RuntimeError(f"no commutant for {name}")
    monkeypatch.setattr(verify.Session, "dim", broken)
    rep = cli.run(_config(checks=("centralizers", "census")))
    failed = [r for r in rep.results if not r.passed]
    assert [r.name for r in failed] == [
        "commutant_dim[Cq-1]", "commutant_dim[C4]", "commutant_dim[Q8]",
        "commutant_dim[C6]", "commutant_dim[B]", "commutant_dim[2Dq-1]",
        "commutant_dim[2Dq+1]", "commutant_dim[SL2_3]"]
    assert failed[0].computed == "RuntimeError: no commutant for Cq-1"
    assert all(r.passed for r in rep.results if r.name.startswith("census"))


def test_cli_exit_zero_and_output(tmp_path):
    out = tmp_path / "r.json"
    code = cli.main(["--q", "13", "--checks", "census", "--format", "json",
                     "--out", str(out)])
    assert code == 0
    doc = json.loads(out.read_text())
    assert doc["verdict"] == "pass"
    assert doc["config"]["q"] == 13


def test_cli_byte_identical_reports(tmp_path):
    a, b = tmp_path / "a.json", tmp_path / "b.json"
    for target in (a, b):
        cli.main(["--q", "13", "--checks", "census,moduli-dim",
                  "--format", "json", "--seed", "7", "--out", str(target)])
    assert a.read_bytes() == b.read_bytes()


def test_cli_keeps_a_failed_search(monkeypatch):
    calls = []
    search = acyclic.search_attaching_path

    def counting(*args, **kwargs):
        calls.append(kwargs)
        return search(*args, **kwargs)
    monkeypatch.setattr(acyclic, "search_attaching_path", counting)
    rep = cli.run(_config(checks=("acyclicity", "partition", "lift"), budget=2))
    assert len(calls) == 1
    assert [r.passed for r in rep.results] == [False] * 3
    # an aborted check carries the exception text as its computed value
    details = {r.computed for r in rep.results}
    assert len(details) == 1 and details.pop().startswith("NoPathFound")


def test_failed_search_keeps_its_diagnostics():
    config = cli._parse_args(["--q", "13", "--checks", "acyclicity",
                              "--budget", "2"])
    [res] = cli.run(config).results
    assert not res.passed and res.computed.startswith("NoPathFound")
    assert "'evaluations': 2" in res.detail
