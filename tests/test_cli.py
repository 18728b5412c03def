"""CLI smoke tests."""

import pytest

from repro.cli import _fleet_spec, build_parser, main
from repro.scenarios.spec import EngineSpec, FleetSpec, knob_fields
from tests.conftest import SINGLE_VALUED_KNOBS


class TestParser:
    def test_requires_command(self):
        with pytest.raises(SystemExit):
            build_parser().parse_args([])

    def test_unknown_model_rejected(self):
        with pytest.raises(SystemExit):
            build_parser().parse_args(["run", "--model", "gpt5"])

    @pytest.mark.parametrize("command", ["run", "serve"])
    @pytest.mark.parametrize(
        "switch",
        ["engine", "planner", "predictor", "predict-horizon", "confidence-gate", "placement"],
    )
    def test_removed_core_switches_are_usage_errors(self, command, switch, capsys):
        """The engine has one core, no cross-layer predictor and one home
        rule: the old switches exit 2 with argparse's one-line error, not
        a traceback."""
        flag = f"--{switch}"
        with pytest.raises(SystemExit) as excinfo:
            main([command, flag, "reference"])
        assert excinfo.value.code == 2
        error = capsys.readouterr().err.strip().splitlines()[-1]
        assert error.startswith("repro: error: unrecognized arguments")
        assert flag in error


def _subparser(command):
    parser = build_parser()
    (subparsers,) = [a for a in parser._actions if hasattr(a, "choices") and a.choices]
    return subparsers.choices[command]


def _knob_flags(command):
    knobs = knob_fields(FleetSpec)
    for action in _subparser(command)._actions:
        if action.dest in knobs:
            yield pytest.param(
                command, action, knobs[action.dest], id=f"{command}{action.option_strings[0]}"
            )


class TestKnobFlags:
    """``run`` / ``serve`` flags are spellings of spec knobs, nothing more."""

    #: The public option strings at the commit that introduced the
    #: spec-derived parser (less ``--engine`` / ``--planner``, which
    #: went with the second engine core, ``--disk-bandwidth``, which a
    #: hardware profile replaced, and the three predictor flags, which
    #: went with the cross-layer predictors, and ``--placement``, which
    #: went with the placement policies); flag spellings are API.
    RUN_OPTIONS = {
        "--cache-ratio", "--cpu-cache-capacity", "--cpu-cache-policy",
        "--decode-steps", "--hardware", "--help", "--model", "--num-gpus",
        "--num-layers", "--prompt-len", "--seed", "--strategy",
    }
    SERVE_OPTIONS = (RUN_OPTIONS - {"--prompt-len"}) | {
        "--arrival-rate", "--arrival-trace", "--fault-spec", "--max-batch-size",
        "--max-retries", "--num-requests", "--preempt", "--prefill-chunk",
        "--priority-mix", "--replicas", "--request-timeout", "--retry-backoff",
        "--router", "--shed",
    }

    @pytest.mark.parametrize(
        "command, expected", [("run", RUN_OPTIONS), ("serve", SERVE_OPTIONS)]
    )
    def test_help_option_strings_unchanged(self, command, expected):
        actions = _subparser(command)._actions
        printed = {o for a in actions for o in a.option_strings if o.startswith("--")}
        assert printed == expected

    def test_no_flags_yield_the_default_specs(self):
        run = _fleet_spec(build_parser().parse_args(["run"]))
        assert run.engine == EngineSpec()
        # The CLI's one own default: no --replicas = the bare engine.
        assert _fleet_spec(build_parser().parse_args(["serve"])) == FleetSpec(replicas=1)

    @pytest.mark.parametrize(
        "command, action, field", [*_knob_flags("run"), *_knob_flags("serve")]
    )
    def test_flag_lands_in_its_field(self, command, action, field, knob_sample):
        if action.dest.startswith("shed_"):
            pytest.skip("--shed DEPTH[:RESUME] spells both watermarks; see below")
        by_knob = {a.dest: a for a in _subparser(command)._actions}
        sample = knob_sample(action.dest, field)
        argv = [command]
        for knob, value in sample.items():
            argv.append(by_knob[knob].option_strings[0])
            if by_knob[knob].nargs == 0:
                continue  # a switch: presence is the value
            argv.append(str(value))
        spec = _fleet_spec(build_parser().parse_args(argv))
        owner = next(
            s for s in (spec, spec.serving, spec.engine) if hasattr(s, action.dest)
        )
        assert getattr(owner, action.dest) == sample[action.dest] != field.default

    def test_shed_spells_both_watermarks(self):
        spec = _fleet_spec(build_parser().parse_args(["serve", "--shed", "12:4"]))
        assert (spec.serving.shed_queue_depth, spec.serving.shed_resume_depth) == (12, 4)
        spec = _fleet_spec(build_parser().parse_args(["serve", "--shed", "12"]))
        assert (spec.serving.shed_queue_depth, spec.serving.shed_resume_depth) == (12, None)

    def test_every_spec_knob_has_a_serve_flag(self):
        dests = {a.dest for a in _subparser("serve")._actions}
        spelled_otherwise = {"shed_queue_depth", "shed_resume_depth"}
        missing = set(knob_fields(FleetSpec)) - dests - spelled_otherwise - SINGLE_VALUED_KNOBS
        assert not missing


class TestCommands:
    def test_info(self, capsys):
        assert main(["info"]) == 0
        out = capsys.readouterr().out
        assert "mixtral" in out and "hybrimoe" in out

    def test_run(self, capsys):
        code = main(
            [
                "run",
                "--model",
                "deepseek",
                "--num-layers",
                "2",
                "--prompt-len",
                "8",
                "--decode-steps",
                "2",
            ]
        )
        assert code == 0
        assert "ttft" in capsys.readouterr().out

    def test_compare_decode(self, capsys):
        code = main(
            [
                "compare",
                "--model",
                "deepseek",
                "--num-layers",
                "2",
                "--decode-steps",
                "2",
            ]
        )
        assert code == 0
        out = capsys.readouterr().out
        assert "hybrimoe" in out and "llamacpp" in out

    def test_figure_fig3e(self, capsys):
        assert main(["figure", "fig3e"]) == 0
        assert "cpu_time_s" in capsys.readouterr().out

    def test_serve(self, capsys):
        code = main(
            [
                "serve",
                "--num-requests",
                "3",
                "--arrival-rate",
                "20",
                "--decode-steps",
                "2",
                "--num-layers",
                "2",
            ]
        )
        assert code == 0
        out = capsys.readouterr().out
        assert "serving report" in out and "aggregate" in out
        # Single class: no per-class SLO table.
        assert "per-class SLO" not in out

    def test_serve_slo_flags(self, capsys):
        code = main(
            [
                "serve",
                "--num-requests",
                "4",
                "--arrival-rate",
                "40",
                "--decode-steps",
                "2",
                "--num-layers",
                "2",
                "--priority-mix",
                "interactive=0.5,batch=0.5",
                "--prefill-chunk",
                "32",
                "--preempt",
            ]
        )
        assert code == 0
        out = capsys.readouterr().out
        assert "per-class SLO" in out
        assert "chunk=32" in out and "preemption" in out

    def test_serve_multi_gpu_multi_class_tables(self, capsys):
        """2-GPU, 2-class smoke: the per-device cache table and the
        per-class SLO table must both render (previously only exercised
        manually)."""
        code = main(
            [
                "serve",
                "--num-requests",
                "4",
                "--arrival-rate",
                "40",
                "--decode-steps",
                "2",
                "--num-layers",
                "2",
                "--num-gpus",
                "2",
                "--priority-mix",
                "interactive=0.5,batch=0.5",
            ]
        )
        assert code == 0
        out = capsys.readouterr().out
        assert "per-device cache" in out
        # One row per device, columns included.
        device_table = out.split("per-device cache", 1)[1]
        assert "hit_rate" in device_table and "evictions" in device_table
        for device in ("0", "1"):
            assert any(
                line.strip().startswith(device)
                for line in device_table.splitlines()
            )
        assert "per-class SLO" in out
        slo_table = out.split("per-class SLO", 1)[1]
        assert "interactive" in slo_table and "batch" in slo_table
        assert "2 GPUs" in out

    def test_serve_tiered_memory_flags(self, capsys):
        code = main(
            [
                "serve",
                "--num-requests",
                "3",
                "--arrival-rate",
                "20",
                "--decode-steps",
                "2",
                "--num-layers",
                "2",
                "--cpu-cache-capacity",
                "6",
                "--cpu-cache-policy",
                "lfu",
            ]
        )
        assert code == 0
        out = capsys.readouterr().out
        assert "per-tier cache" in out and "disk link:" in out
        assert "DRAM<=6 (lfu)" in out

    def test_run_tiered_memory_flags(self, capsys):
        code = main(
            [
                "run",
                "--num-layers",
                "2",
                "--prompt-len",
                "8",
                "--decode-steps",
                "2",
                "--cpu-cache-capacity",
                "4",
                "--hardware",
                "disk-slow",
            ]
        )
        assert code == 0
        out = capsys.readouterr().out
        assert "per-tier cache" in out and "disk link:" in out

    def test_run_untiered_prints_no_tier_table(self, capsys):
        code = main(
            ["run", "--num-layers", "2", "--prompt-len", "8", "--decode-steps", "1"]
        )
        assert code == 0
        assert "per-tier cache" not in capsys.readouterr().out

    @pytest.mark.parametrize(
        "mix", ["interactive", "interactive=x", "urgent=1.0", "interactive=0.5"]
    )
    def test_serve_bad_priority_mix_rejected(self, mix, capsys):
        code = main(
            [
                "serve",
                "--num-requests",
                "2",
                "--arrival-rate",
                "20",
                "--decode-steps",
                "1",
                "--num-layers",
                "2",
                "--priority-mix",
                mix,
            ]
        )
        assert code == 2
        assert capsys.readouterr().err.startswith("error: ")


def _serve(*extra):
    """A minimal serve invocation plus ``extra`` args."""
    return main(
        [
            "serve",
            "--num-requests",
            "2",
            "--arrival-rate",
            "20",
            "--decode-steps",
            "1",
            "--num-layers",
            "2",
            *extra,
        ]
    )


class TestServeValidation:
    """Config mistakes exit 2 with a one-line ``error:`` message."""

    def _error(self, capsys, *extra):
        assert _serve(*extra) == 2
        err = capsys.readouterr().err
        assert err.startswith("error: ")
        assert err.count("\n") == 1  # one line, newline-terminated
        return err

    def test_zero_replicas_rejected(self, capsys):
        err = self._error(capsys, "--replicas", "0")
        assert "replicas must be >= 1, got 0" in err

    def test_unknown_router_rejected(self, capsys):
        err = self._error(capsys, "--replicas", "2", "--router", "wormhole")
        assert "unknown router 'wormhole'" in err
        assert "round_robin" in err  # the known names are listed

    def test_replica_faults_need_a_fleet(self, capsys):
        err = self._error(capsys, "--fault-spec", "crash:0:1.0")
        assert "--replicas > 1" in err

    def test_hardware_fault_off_replica_zero_needs_fleet(self, capsys):
        err = self._error(capsys, "--fault-spec", "disk_stall:1:1.0:0.5")
        assert "--replicas > 1" in err

    def test_retries_need_a_fleet(self, capsys):
        err = self._error(capsys, "--max-retries", "1")
        assert "--max-retries" in err

    def test_unknown_fault_kind_rejected(self, capsys):
        err = self._error(capsys, "--fault-spec", "meteor:0:1.0")
        assert "unknown fault kind 'meteor'" in err
        assert "link_degrade" in err

    def test_malformed_fault_spec_rejected(self, capsys):
        err = self._error(capsys, "--fault-spec", "crash:0")
        assert "bad fault spec entry 'crash:0'" in err

    def test_nan_fault_time_rejected(self, capsys):
        err = self._error(capsys, "--fault-spec", "crash:0:nan")
        assert "at_time must be non-negative, got nan" in err

    def test_nan_fault_severity_rejected(self, capsys):
        err = self._error(capsys, "--fault-spec", "gpu_straggler:0:0:1:nan")
        assert "must be > 1, got nan" in err

    @pytest.mark.parametrize(
        "flag, value, field",
        [
            ("--request-timeout", "nan", "request_timeout_s"),
            ("--request-timeout", "inf", "request_timeout_s"),
            ("--retry-backoff", "nan", "retry_backoff_s"),
            ("--retry-backoff", "inf", "retry_backoff_s"),
        ],
    )
    def test_non_finite_timeout_or_backoff_rejected(self, capsys, flag, value, field):
        err = self._error(capsys, flag, value)
        assert f"{field} must be positive and finite" in err
        assert f"got {value}" in err

    @pytest.mark.parametrize(
        "flag, value, message",
        [
            ("--arrival-rate", "nan", "arrival rate must be positive and finite, got nan"),
            ("--arrival-trace", "0,nan", "arrival_time must be non-negative and finite"),
            ("--arrival-trace", "0,inf", "arrival_time must be non-negative and finite"),
        ],
    )
    def test_non_finite_arrivals_rejected(self, capsys, flag, value, message):
        assert message in self._error(capsys, flag, value)

    def test_malformed_shed_rejected(self, capsys):
        err = self._error(capsys, "--shed", "many")
        assert "bad --shed" in err

    @pytest.mark.parametrize("trace", ["abc", "1,,2"])
    def test_malformed_arrival_trace_rejected(self, capsys, trace):
        err = self._error(capsys, "--arrival-trace", trace)
        assert f"bad --arrival-trace '{trace}'" in err

    def test_nan_priority_fraction_rejected(self, capsys):
        err = self._error(capsys, "--priority-mix", "interactive=nan,batch=1")
        assert "priority_mix fraction for 'interactive'" in err


class TestRunValidation:
    """``run`` input mistakes exit 2 with a one-line ``error:`` message."""

    @pytest.mark.parametrize(
        "flag, value, message",
        [
            ("--prompt-len", "-1", "--prompt-len must be >= 1, got -1"),
            ("--prompt-len", "0", "--prompt-len must be >= 1, got 0"),
            ("--decode-steps", "-1", "decode_steps must be >= 0, got -1"),
        ],
    )
    def test_bad_size_rejected(self, capsys, flag, value, message):
        assert main(["run", "--num-layers", "2", flag, value]) == 2
        err = capsys.readouterr().err
        assert err.startswith("error: ") and err.count("\n") == 1
        assert message in err


class TestServeDegraded:
    def test_serve_with_hardware_fault_and_knobs(self, capsys):
        code = _serve(
            "--fault-spec",
            "gpu_straggler:0:0.01:0.5:2.0",
            "--request-timeout",
            "30",
            "--shed",
            "50:10",
        )
        assert code == 0
        assert "aggregate" in capsys.readouterr().out

    def test_fleet_serve_with_fault_mix(self, capsys):
        code = _serve(
            "--replicas",
            "2",
            "--fault-spec",
            "slow:0:0.01:0.05,link_degrade:1:0.01:0.05:0.5",
            "--max-retries",
            "1",
            "--request-timeout",
            "30",
        )
        assert code == 0
        assert "fleet aggregate" in capsys.readouterr().out


class TestScenariosCommand:
    def test_scenarios_list_shows_registry(self, capsys):
        assert main(["scenarios", "list"]) == 0
        out = capsys.readouterr().out
        assert "registered scenarios" in out
        assert "chat-multiturn" in out and "edge-decode" in out
        assert "skewed-fleet" in out and "fleet" in out

    def test_scenarios_list_sorted(self, capsys):
        """The registry listing is name-sorted (and so deterministic)."""
        from repro.scenarios import available_scenarios

        assert main(["scenarios", "list"]) == 0
        out = capsys.readouterr().out
        positions = [out.index(name) for name in available_scenarios()]
        assert positions == sorted(positions)

    def test_scenarios_requires_subcommand(self):
        with pytest.raises(SystemExit):
            main(["scenarios"])


class TestSweepCommand:
    def _sweep(self, tmp_path, *extra):
        return main(
            [
                "sweep",
                "--scenarios",
                "chat-multiturn",
                "--out",
                str(tmp_path / "out"),
                "--requests",
                "2",
                "--steps",
                "2",
                *extra,
            ]
        )

    def test_sweep_writes_cells_and_merged_report(self, tmp_path, capsys):
        assert self._sweep(tmp_path) == 0
        out = capsys.readouterr().out
        assert "[done]" in out and "sweep cells" in out
        assert (tmp_path / "out" / "sweep.json").exists()
        assert list((tmp_path / "out" / "cells").glob("*.json"))

    def test_sweep_rerun_skips_completed_cells(self, tmp_path, capsys):
        assert self._sweep(tmp_path) == 0
        capsys.readouterr()
        assert self._sweep(tmp_path) == 0
        assert "[skip]" in capsys.readouterr().out

    def test_sweep_strategy_axis(self, tmp_path, capsys):
        assert self._sweep(tmp_path, "--strategies", "hybrimoe,ondemand") == 0
        out = capsys.readouterr().out
        assert "hybrimoe" in out and "ondemand" in out

    @pytest.mark.parametrize("axis", ["predictors", "predictor"])
    def test_removed_axis_is_a_usage_error(self, tmp_path, capsys, axis):
        flag = f"--{axis}"
        with pytest.raises(SystemExit) as excinfo:
            self._sweep(tmp_path, flag, "none,transition")
        assert excinfo.value.code == 2
        error = capsys.readouterr().err.strip().splitlines()[-1]
        assert error.startswith("repro: error: unrecognized arguments")
        assert flag in error

    def test_unknown_scenario_exits_2_with_one_line_error(self, tmp_path, capsys):
        code = main(
            ["sweep", "--scenarios", "nope", "--out", str(tmp_path / "out")]
        )
        assert code == 2
        err = capsys.readouterr().err
        assert err.startswith("error: unknown scenario 'nope'")
        assert err.count("\n") == 1
        assert "chat-multiturn" in err  # the known names are listed

    def test_bad_seeds_exit_2(self, tmp_path, capsys):
        code = main(
            [
                "sweep",
                "--scenarios",
                "chat-multiturn",
                "--out",
                str(tmp_path / "out"),
                "--seeds",
                "one,two",
            ]
        )
        assert code == 2
        assert capsys.readouterr().err.startswith("error: bad --seeds")
