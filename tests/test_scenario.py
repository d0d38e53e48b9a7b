"""Tests for the declarative scenario runner."""

import copy
import json
from pathlib import Path

import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from repro.scenario import load_scenario_file, run_scenario
from repro.simcore.errors import ConfigurationError


def basic_spec(**overrides):
    spec = {
        "system": {"type": "rtvirt", "pcpus": 1, "slack_us": 0},
        "duration_s": 3,
        "seed": 1,
        "vms": [
            {
                "name": "vm1",
                "tasks": [{"name": "rta1", "slice_ms": 2, "period_ms": 10}],
            }
        ],
    }
    spec.update(overrides)
    return spec


class TestRTVirtScenarios:
    def test_basic_periodic(self):
        result = run_scenario(basic_spec())
        assert result.report.total_missed == 0
        assert result.report.total_released >= 299

    def test_multiple_vms_high_utilization(self):
        # ~87% utilization: feasible under the realistic cost model the
        # scenario runner uses (100% would need zero overheads).  The
        # default 500 µs slack absorbs the scheduling overhead.
        spec = basic_spec(
            system={"type": "rtvirt", "pcpus": 1},
            vms=[
                {"name": "a", "tasks": [{"name": "t1", "slice_ms": 5, "period_ms": 15}]},
                {"name": "b", "tasks": [{"name": "t2", "slice_ms": 4, "period_ms": 10}]},
                {"name": "c", "tasks": [{"name": "t3", "slice_ms": 4, "period_ms": 30}]},
            ]
        )
        result = run_scenario(spec)
        assert result.report.total_missed == 0

    def test_sporadic_task(self):
        spec = basic_spec(
            vms=[
                {
                    "name": "sp",
                    "tasks": [
                        {
                            "name": "sp1",
                            "slice_ms": 2,
                            "period_ms": 50,
                            "kind": "sporadic",
                            "max_requests": 10,
                        }
                    ],
                }
            ],
            duration_s=15,
        )
        result = run_scenario(spec)
        assert result.report.per_task["sp1"].released == 10
        assert result.report.total_missed == 0

    def test_background_vm(self):
        spec = basic_spec()
        spec["vms"].append({"name": "bg", "background": True})
        result = run_scenario(spec)
        assert result.report.total_missed == 0

    def test_phase_offset(self):
        spec = basic_spec()
        spec["vms"][0]["tasks"][0]["phase_ms"] = 5
        result = run_scenario(spec)
        assert result.report.total_released >= 298

    def test_summary_readable(self):
        result = run_scenario(basic_spec(), name="demo")
        text = result.summary()
        assert "demo" in text and "deadlines met" in text


class TestOtherSystems:
    def test_credit_scenario(self):
        spec = basic_spec(system={"type": "credit", "pcpus": 1, "timeslice_us": 1000})
        result = run_scenario(spec)
        assert result.report.total_released > 0

    def test_rtxen_scenario_auto_csa(self):
        spec = basic_spec(system={"type": "rtxen", "pcpus": 1})
        result = run_scenario(spec)
        assert result.report.total_missed == 0

    def test_rtxen_explicit_interface(self):
        spec = basic_spec(system={"type": "rtxen", "pcpus": 1})
        spec["vms"][0]["interface_us"] = [3000, 10000]
        result = run_scenario(spec)
        assert result.report.total_missed == 0

    def test_unknown_system_rejected(self):
        with pytest.raises(ConfigurationError):
            run_scenario(basic_spec(system={"type": "xen5"}))

    def test_missing_field_rejected(self):
        spec = basic_spec()
        del spec["vms"][0]["tasks"][0]["period_ms"]
        with pytest.raises(ConfigurationError):
            run_scenario(spec)


class TestFileLoading:
    def test_run_from_file(self, tmp_path):
        path = tmp_path / "scenario.json"
        path.write_text(json.dumps(basic_spec()))
        result = run_scenario(load_scenario_file(str(path)), name=str(path))
        assert result.report.total_missed == 0

    def test_cli_scenario_command(self, tmp_path, capsys):
        from repro.cli import main

        path = tmp_path / "scenario.json"
        path.write_text(json.dumps(basic_spec()))
        assert main(["run", str(path)]) == 0
        assert "deadlines met" in capsys.readouterr().out


EXAMPLES = Path(__file__).resolve().parents[1] / "examples" / "scenarios"


def run_cli(capsys, *argv):
    from repro.cli import main

    code = main(["run", *argv])
    captured = capsys.readouterr()
    return code, captured.out, captured.err


class TestCliChromeTrace:
    def test_motivation_chrome_trace(self, tmp_path, capsys):
        out = tmp_path / "motivation.json"
        code, stdout, _ = run_cli(
            capsys, str(EXAMPLES / "motivation.json"), "--chrome-trace", str(out)
        )
        assert code == 0
        events = json.loads(out.read_text())["traceEvents"]
        assert f"chrome trace: {len(events)} events -> {out}" in stdout
        assert any(
            e["ph"] == "M" and e["args"]["name"] == "pcpu0" for e in events
        )


def motivation_spec():
    spec = json.loads((EXAMPLES / "motivation.json").read_text())
    spec["duration_s"] = 0.2
    return spec


def _string_slice(spec):
    spec["vms"][0]["tasks"][0]["slice_ms"] = "1"


def _negative_duration(spec):
    spec["duration_s"] = -1


def _bogus_kind(spec):
    spec["vms"][0]["tasks"][0]["kind"] = "bogus"


def _vm_twice(spec):
    spec["vms"].append(spec["vms"][0])


def _vms_not_a_list(spec):
    spec["vms"] = {}


def _budget_over_period(spec):
    spec["vms"][0]["interface_us"] = [20000, 10000]


#: Malformed motivation.json variants -> a word the error must name.
BAD_SPECS = {
    "string-slice": (_string_slice, "slice_ms"),
    "negative-duration": (_negative_duration, "duration_s"),
    "unknown-kind": (_bogus_kind, "bogus"),
    "duplicate-vm": (_vm_twice, "vm1"),
    "empty-vms": (_vms_not_a_list, "vms"),
    "interface-budget": (_budget_over_period, "interface_us"),
}


class TestCliBadInput:
    """Bad input is one stderr line and exit 2, never a traceback."""

    @pytest.fixture
    def scenario(self, tmp_path):
        path = tmp_path / "scenario.json"
        path.write_text(json.dumps(basic_spec(duration_s=0.1)))
        return str(path)

    def assert_one_line_error(self, capsys, *argv):
        code, stdout, stderr = run_cli(capsys, *argv)
        assert code == 2
        assert stderr.count("\n") == 1 and "Traceback" not in stderr
        return stdout, stderr

    def test_chrome_trace_suffix_checked_before_run(self, capsys, scenario, tmp_path):
        stdout, stderr = self.assert_one_line_error(
            capsys, scenario, "--chrome-trace", str(tmp_path / "x.bin")
        )
        assert stdout == "" and "--chrome-trace" in stderr

    def test_profile_suffix_checked_before_run(self, capsys, scenario, tmp_path):
        stdout, stderr = self.assert_one_line_error(
            capsys, scenario, "--profile", str(tmp_path / "x.txt")
        )
        assert stdout == "" and "--profile" in stderr

    def test_unwritable_chrome_trace_directory(self, capsys, scenario, tmp_path):
        target = tmp_path / "missing" / "out.json"
        _, stderr = self.assert_one_line_error(
            capsys, scenario, "--chrome-trace", str(target)
        )
        assert str(target) in stderr

    def test_missing_scenario_file(self, capsys, tmp_path):
        path = str(tmp_path / "absent.json")
        _, stderr = self.assert_one_line_error(capsys, path)
        assert path in stderr

    def test_non_json_scenario_file(self, capsys, tmp_path):
        path = tmp_path / "broken.json"
        path.write_text("{not json")
        _, stderr = self.assert_one_line_error(capsys, str(path))
        assert "not JSON" in stderr

    def test_unknown_system_type(self, capsys, tmp_path):
        path = tmp_path / "nope.json"
        path.write_text(json.dumps(basic_spec(system={"type": "nope"})))
        _, stderr = self.assert_one_line_error(capsys, str(path))
        assert "'nope'" in stderr

    def test_credit_weight_outside_xen_range(self, capsys, tmp_path):
        spec = basic_spec(system={"type": "credit", "pcpus": 1})
        spec["vms"][0]["weight"] = 70000
        path = tmp_path / "heavy.json"
        path.write_text(json.dumps(spec))
        _, stderr = self.assert_one_line_error(capsys, str(path))
        assert "70000" in stderr

    #: Keyed by the verb each `run` form replaced (`scenario F.json`,
    #: `explain F.json`, `trace record F.json -o P`).
    VERBS = {
        "scenario": lambda path: ["run", path],
        "explain": lambda path: ["run", path, "--blame"],
        "trace record": lambda path: ["run", path, "--record", path + ".rtvt"],
    }

    def run_verb(self, capsys, verb, path):
        from repro.cli import main

        code = main(self.VERBS[verb](path))
        captured = capsys.readouterr()
        assert code == 2
        assert captured.err.count("\n") == 1 and "Traceback" not in captured.err
        return captured.err

    @pytest.mark.parametrize("verb", sorted(VERBS))
    @pytest.mark.parametrize("case", sorted(BAD_SPECS))
    def test_malformed_spec(self, capsys, tmp_path, verb, case):
        mutate, named = BAD_SPECS[case]
        spec = motivation_spec()
        mutate(spec)
        path = tmp_path / "bad.json"
        path.write_text(json.dumps(spec))
        assert named in self.run_verb(capsys, verb, str(path))
        assert not (tmp_path / "bad.json.rtvt").exists()

    @pytest.mark.parametrize("verb", sorted(VERBS))
    def test_missing_file(self, capsys, tmp_path, verb):
        path = str(tmp_path / "absent.json")
        assert path in self.run_verb(capsys, verb, path)
        assert not (tmp_path / "absent.json.rtvt").exists()

    def test_seed_does_not_apply_to_a_scenario(self, capsys, scenario):
        stdout, stderr = self.assert_one_line_error(capsys, scenario, "--seed", "5")
        assert stdout == "" and "--seed" in stderr


def _field_paths(node, prefix=()):
    """Every (container path, key) of a JSON document, depth first."""
    items = node.items() if isinstance(node, dict) else enumerate(node)
    for key, value in items:
        yield prefix, key
        if isinstance(value, (dict, list)):
            yield from _field_paths(value, prefix + (key,))


_MOTIVATION_FIELDS = list(_field_paths(motivation_spec()))
_DELETE = object()
_BAD_VALUES = st.sampled_from(
    ["1", "", True, None, [], {}, -1, 0, 2, 3.5, -0.5, float("inf"), "sporadic",
     "background", "credit", "rtxen", "vm1", "rta1", _DELETE]
)


@settings(max_examples=40, deadline=None, suppress_health_check=[HealthCheck.too_slow])
@given(field=st.sampled_from(_MOTIVATION_FIELDS), value=_BAD_VALUES)
def test_one_field_mutation_runs_or_raises_configuration_error(field, value):
    """Any one-field mutation of a valid spec either runs or is rejected
    with a typed :class:`ConfigurationError` — never another exception."""
    spec = copy.deepcopy(motivation_spec())
    container_path, key = field
    container = spec
    for step in container_path:
        container = container[step]
    if value is _DELETE:
        del container[key]
    else:
        container[key] = value
    try:
        run_scenario(spec)
    except ConfigurationError:
        pass
