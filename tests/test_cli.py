"""Command-line behavior: files, exit codes, and byte determinism."""

import json
import os
import random
import subprocess
import sys
from pathlib import Path

import pytest

import dtlmon
from dtlmon.automaton import Dfa
from dtlmon.cli import EXIT_ERROR, EXIT_INFEASIBLE, EXIT_OK, main
from dtlmon.logic import load_formula
from dtlmon.model import execution_from_actions, save_model
from dtlmon.monitor import acceptance_probability, load_trace, save_trace
from dtlmon.studies import build_mht, mht_reference_trace

from helpers import tiny_two_state


def read_bytes(path):
    with open(path, "rb") as fh:
        return fh.read()


@pytest.fixture()
def mht_dir(tmp_path):
    out = tmp_path / "mht"
    assert main(["casestudy", "mht", "--out", str(out)]) == EXIT_OK
    return out


class TestCheck:
    def test_reference_trace_reports_feasible(self, mht_dir, tmp_path, capsys):
        report = tmp_path / "report.json"
        code = main(
            [
                "check",
                "--model", str(mht_dir / "model.json"),
                "--formula", str(mht_dir / "formula.dtl"),
                "--trace", str(mht_dir / "reference_trace.json"),
                "--oracle",
                "--report", str(report),
            ]
        )
        assert code == EXIT_OK
        doc = json.loads(report.read_text())
        assert doc["feasible"] is True
        assert doc["probability"] == pytest.approx(1.0, abs=1e-9)
        assert abs(doc["oracle_probability"] - doc["probability"]) <= 1e-9
        assert "probability" in capsys.readouterr().out

    def test_casestudy_shortcut(self, mht_dir):
        code = main(
            ["check", "--casestudy", "mht", "--trace", str(mht_dir / "reference_trace.json")]
        )
        assert code == EXIT_OK

    def test_malformed_formula_exits_one(self, mht_dir, tmp_path, capsys):
        bad = tmp_path / "bad.dtl"
        bad.write_text("F [H(hyp) - < 0]\n")
        code = main(
            [
                "check",
                "--model", str(mht_dir / "model.json"),
                "--formula", str(bad),
                "--trace", str(mht_dir / "reference_trace.json"),
            ]
        )
        assert code == EXIT_ERROR
        assert "position" in capsys.readouterr().err

    def test_strict_infeasible_exits_two(self, tmp_path):
        pomdp = tiny_two_state()
        doc = pomdp.to_json_dict()
        doc["sets"]["nothing"] = []
        model = tmp_path / "model.json"
        model.write_text(json.dumps(doc))
        formula = tmp_path / "formula.dtl"
        formula.write_text("in(nothing)\n")
        trace = tmp_path / "trace.json"
        trace.write_text(json.dumps({"actions": ["poke"], "observations": ["lo"]}))
        args = [
            "check", "--model", str(model), "--formula", str(formula), "--trace", str(trace)
        ]
        assert main(args) == EXIT_OK
        assert main(args + ["--strict"]) == EXIT_INFEASIBLE

    def test_full_set_formula_reports_probability_one(self, tmp_path):
        model = tmp_path / "model.json"
        save_model(tiny_two_state(), model)
        formula = tmp_path / "formula.dtl"
        formula.write_text("in(all)\n")
        trace = tmp_path / "trace.json"
        trace.write_text(json.dumps({"actions": ["poke"], "observations": ["hi"]}))
        report = tmp_path / "report.json"
        code = main(
            ["check", "--model", str(model), "--formula", str(formula),
             "--trace", str(trace), "--oracle", "--report", str(report)]
        )
        assert code == EXIT_OK
        assert json.loads(report.read_text())["probability"] == pytest.approx(1.0, abs=1e-9)

    def test_missing_model_argument(self, tmp_path, capsys):
        trace = tmp_path / "trace.json"
        trace.write_text("{}")
        assert main(["check", "--trace", str(trace)]) == EXIT_ERROR
        assert "error" in capsys.readouterr().err

    def test_truncated_model_file_exits_one(self, mht_dir, tmp_path, capsys):
        model = tmp_path / "bad.json"
        model.write_text((mht_dir / "model.json").read_text()[:200])
        code = main(
            [
                "check",
                "--model", str(model),
                "--formula", str(mht_dir / "formula.dtl"),
                "--trace", str(mht_dir / "reference_trace.json"),
            ]
        )
        assert code == EXIT_ERROR
        err = capsys.readouterr().err
        assert err.startswith("error:") and "Traceback" not in err

    def test_truncated_trace_file_exits_one(self, mht_dir, tmp_path, capsys):
        trace = tmp_path / "bad_trace.json"
        trace.write_text((mht_dir / "reference_trace.json").read_text()[:50])
        code = main(["check", "--casestudy", "mht", "--trace", str(trace)])
        assert code == EXIT_ERROR
        err = capsys.readouterr().err
        assert err.startswith("error:") and "Traceback" not in err

    @pytest.mark.parametrize("option", ["--model", "--trace", "--config"])
    def test_deeply_nested_file_exits_one(self, mht_dir, tmp_path, option, capsys):
        nested = tmp_path / "nested.json"
        nested.write_text("[" * 100_000 + "]" * 100_000)
        files = {
            "--model": mht_dir / "model.json",
            "--formula": mht_dir / "formula.dtl",
            "--trace": mht_dir / "reference_trace.json",
            option: nested,
        }
        argv = ["check", *(str(arg) for pair in files.items() for arg in pair)]
        assert main(argv) == EXIT_ERROR
        assert capsys.readouterr().err.startswith(f"error: malformed {option[2:]} file")

    @pytest.mark.parametrize(
        "argv, message",
        [
            (["check", "--casestudy", "mht"], "the following arguments are required: --trace"),
            (["check", "--casestudy", "mht", "--trace", "t.json", "--oracle-cap", "abc"],
             "argument --oracle-cap: invalid int value: 'abc'"),
            (["simulate", "--trials", "x", "--out", "out"], "invalid int value: 'x'"),
            (["casestudy", "coin", "--out", "out"], "invalid choice: 'coin'"),
            ([], "the following arguments are required: command"),
        ],
    )
    def test_usage_errors_exit_one(self, argv, message, capsys):
        # Exit code 2 is kept for an infeasible trace under --strict.
        with pytest.raises(SystemExit) as exit_info:
            main(argv)
        assert exit_info.value.code == EXIT_ERROR
        err = capsys.readouterr().err
        assert err.startswith("usage: dtlmon") and message in err

    @pytest.mark.parametrize("argv", [["--help"], ["check", "--help"], ["sweep", "--help"]])
    def test_help_exits_zero(self, argv, capsys):
        with pytest.raises(SystemExit) as exit_info:
            main(argv)
        assert exit_info.value.code == EXIT_OK
        assert capsys.readouterr().out.startswith("usage: dtlmon")

    @pytest.mark.parametrize("cap", ["0", "-5"])
    def test_oracle_cap_below_one_exits_one(self, mht_dir, cap, capsys):
        trace = str(mht_dir / "reference_trace.json")
        code = main(
            ["check", "--casestudy", "mht", "--trace", trace, "--oracle", "--oracle-cap", cap]
        )
        assert code == EXIT_ERROR
        assert capsys.readouterr() == ("", f"error: --oracle-cap must be at least 1, not {cap}\n")

    def test_huge_path_count_is_written_as_hex(self, tmp_path):
        # 15 000 steps leave 2**15001 consistent paths, a count with more
        # decimal digits than json.dumps writes for an int.
        pomdp = tiny_two_state()
        model = tmp_path / "model.json"
        save_model(pomdp, model)
        formula = tmp_path / "formula.dtl"
        formula.write_text("X X X in(lit)\n")
        rng = random.Random(3)
        trace = tmp_path / "trace.json"
        trace.write_text(json.dumps({
            "actions": ["poke"] * 15_000,
            "observations": [rng.choice(["lo", "hi"]) for _ in range(15_000)],
        }))
        report = tmp_path / "report.json"
        code = main(
            ["check", "--model", str(model), "--formula", str(formula),
             "--trace", str(trace), "--report", str(report)]
        )
        assert code == EXIT_OK
        count = acceptance_probability(
            pomdp, load_formula(formula, pomdp), load_trace(pomdp, trace)
        ).diagnostics["consistent_paths"]
        assert count == 2**15_001
        diagnostics = json.loads(report.read_text())["diagnostics"]
        assert int(diagnostics["consistent_paths"], 16) == count
        assert isinstance(diagnostics["dp_pairs"], int)


@pytest.fixture(scope="module")
def rescue_sweep(tmp_path_factory):
    """Three rescue traces and four configs: three that move one belief
    threshold a little, and one that changes the model."""
    root = tmp_path_factory.mktemp("sweep")
    pomdp, _ = dtlmon.build_rescue()
    policy = dtlmon.studies.EntropyCutoffPolicy(0.3, 0.3, 2)
    traces = []
    for seed in range(3):
        traces.append(str(root / f"trace_{seed}.json"))
        save_trace(pomdp, dtlmon.simulate(pomdp, policy, 16, seed)[1], traces[-1])
    configs = []
    for k, fields in enumerate([{"h1": 0.37}, {"h1": 0.371}, {"p1": 0.901}, {"p_fail": 0.3}]):
        configs.append(str(root / f"config_{k}.json"))
        Path(configs[-1]).write_text(json.dumps(fields))
    return root, traces, configs


class TestSweep:
    def _sweep(self, rescue_sweep, *extra):
        _, traces, configs = rescue_sweep
        args = ["sweep", "--casestudy", "rescue", *extra]
        for config in configs:
            args += ["--config", config]
        for trace in traces:
            args += ["--trace", trace]
        return main(args)

    def test_reports_equal_separate_checks(self, rescue_sweep, tmp_path):
        _, traces, configs = rescue_sweep
        report = tmp_path / "sweep.json"
        assert self._sweep(rescue_sweep, "--report", str(report)) == EXIT_OK
        rows = json.loads(report.read_text())
        assert [(row.pop("config"), row.pop("trace")) for row in rows] == [
            (config, trace) for config in configs for trace in traces
        ]
        for row, (config, trace) in zip(rows, [(c, t) for c in configs for t in traces]):
            single = tmp_path / "check.json"
            args = ["check", "--casestudy", "rescue", "--config", config, "--trace", trace,
                    "--report", str(single)]
            assert main(args) == EXIT_OK
            assert row == json.loads(single.read_text())

    def test_configs_that_share_letters_share_one_run(self, rescue_sweep, monkeypatch):
        # The three threshold configs meet one letter sequence per trace;
        # the config with another model loads the traces anew.
        runs = []
        real = dtlmon.monitor._acceptance_dp

        def counted(*args):
            runs.append(args[1])
            return real(*args)

        monkeypatch.setattr(dtlmon.monitor, "_acceptance_dp", counted)
        assert self._sweep(rescue_sweep) == EXIT_OK
        # One run per loaded execution: 12 feasible (config, trace) pairs.
        assert len(runs) == len(set(map(id, runs))) == 6

    def test_unknown_config_key_exits_one(self, rescue_sweep, tmp_path, capsys):
        _, traces, _ = rescue_sweep
        config = tmp_path / "bad.json"
        config.write_text(json.dumps({"share_a": 3}))
        code = main(["sweep", "--casestudy", "rescue", "--config", str(config),
                     "--trace", traces[0]])
        assert code == EXIT_ERROR
        assert "unknown config key 'share_a'" in capsys.readouterr().err

    def test_without_config_monitors_each_trace_under_the_defaults(self, mht_dir, capsys):
        trace = str(mht_dir / "reference_trace.json")
        assert main(["sweep", "--casestudy", "mht", "--trace", trace, "--trace", trace]) == EXIT_OK
        lines = capsys.readouterr().out.splitlines()
        assert lines == [f"- {trace}: feasible True, probability 1.0"] * 2


class TestSimulate:
    def test_writes_csv_and_summary(self, tmp_path):
        out = tmp_path / "sim"
        code = main(
            [
                "simulate", "--casestudy", "rescue", "--policy", "timeshare",
                "--trials", "3", "--horizon", "4", "--seed", "9", "--out", str(out),
            ]
        )
        assert code == EXIT_OK
        csv_text = (out / "timeshare_trials.csv").read_text()
        header, *rows = csv_text.strip().split("\n")
        assert header == "trial,seed,probability,entropy_bits,success"
        assert len(rows) == 3
        summary = json.loads((out / "timeshare_summary.json").read_text())
        assert summary["policy"] == "timeshare"
        assert set(summary) >= {
            "mean_prob", "var_prob", "mean_entropy", "var_entropy",
            "success_rate", "pearson_r", "trials", "horizon", "master_seed",
        }

    def test_byte_identical_reruns(self, tmp_path):
        args = lambda out: [
            "simulate", "--casestudy", "rescue", "--policy", "entropy-cutoff",
            "--trials", "3", "--horizon", "4", "--seed", "5", "--out", str(out),
        ]
        assert main(args(tmp_path / "a")) == EXIT_OK
        assert main(args(tmp_path / "b")) == EXIT_OK
        for name in ("entropy-cutoff_trials.csv", "entropy-cutoff_summary.json"):
            assert read_bytes(tmp_path / "a" / name) == read_bytes(tmp_path / "b" / name)

    def test_round_trip_trace_is_accepted_by_check(self, tmp_path):
        out = tmp_path / "sim"
        code = main(
            [
                "simulate", "--casestudy", "mht", "--policy", "mht-threshold",
                "--trials", "2", "--horizon", "6", "--seed", "4", "--out", str(out),
                "--dump-traces",
            ]
        )
        assert code == EXIT_OK
        trace = out / "mht-threshold_trace_0000.json"
        assert trace.exists()
        assert main(["check", "--casestudy", "mht", "--trace", str(trace), "--oracle"]) == EXIT_OK

    def test_generic_model_random_policy(self, tmp_path):
        model = tmp_path / "model.json"
        save_model(tiny_two_state(), model)
        formula = tmp_path / "goal.dtl"
        formula.write_text("F in(lit)\n")
        out = tmp_path / "sim"
        code = main(
            [
                "simulate", "--model", str(model), "--formula", str(formula),
                "--policy", "random", "--trials", "2", "--horizon", "3",
                "--seed", "1", "--out", str(out),
            ]
        )
        assert code == EXIT_OK
        assert (out / "random_trials.csv").exists()

    def test_policy_model_mismatch_is_clean_error(self, tmp_path, capsys):
        code = main(
            [
                "simulate", "--casestudy", "mht", "--policy", "timeshare",
                "--trials", "2", "--horizon", "3", "--seed", "1",
                "--out", str(tmp_path / "x"),
            ]
        )
        assert code == EXIT_ERROR
        assert "policy needs" in capsys.readouterr().err

    def test_config_entropy_factor_is_honoured(self, tmp_path):
        def run(out, *extra):
            args = [
                "simulate", "--casestudy", "rescue", "--policy", "timeshare",
                "--trials", "3", "--horizon", "4", "--seed", "9", "--out", str(out), *extra,
            ]
            assert main(args) == EXIT_OK
            return read_bytes(out / "timeshare_trials.csv")

        config = tmp_path / "cfg.json"
        config.write_text(json.dumps({"entropy_factor": "room"}))
        default = run(tmp_path / "default")
        from_config = run(tmp_path / "config", "--config", str(config))
        from_flag = run(tmp_path / "flag", "--entropy-factor", "room")
        flag_first = run(tmp_path / "both", "--config", str(config), "--entropy-factor", "env")
        assert from_config == from_flag != default
        assert flag_first == default

    def test_seed_env_var_default(self, tmp_path, monkeypatch):
        args = lambda out, *seed: [
            "simulate", "--casestudy", "mht", "--trials", "2", "--horizon", "3",
            "--out", str(out), *seed,
        ]
        assert main(args(tmp_path / "flag", "--seed", "77")) == EXIT_OK
        monkeypatch.setenv("DTLMON_SEED", "77")
        assert main(args(tmp_path / "env")) == EXIT_OK
        assert main(args(tmp_path / "both", "--seed", "5")) == EXIT_OK
        summary = lambda out: json.loads((tmp_path / out / "random_summary.json").read_text())
        assert summary("env") == summary("flag")
        assert summary("env")["master_seed"] == 77
        assert summary("both")["master_seed"] == 5


class TestSeedEnvVar:
    """``DTLMON_SEED`` is read only by the seeded commands."""

    def test_malformed_value_leaves_check_and_compile_alone(
        self, mht_dir, tmp_path, monkeypatch, capsys
    ):
        monkeypatch.setenv("DTLMON_SEED", "abc")
        with pytest.raises(SystemExit) as exit_info:
            main(["check", "--help"])
        assert exit_info.value.code == 0
        trace = str(mht_dir / "reference_trace.json")
        assert main(["check", "--casestudy", "mht", "--trace", trace]) == EXIT_OK
        assert main(["compile", "--casestudy", "mht", "--json", str(tmp_path / "a.json")]) == EXIT_OK
        assert "error" not in capsys.readouterr().err

    @pytest.mark.parametrize(
        "command",
        [
            ["simulate", "--casestudy", "mht", "--trials", "2", "--horizon", "2"],
            ["simulate", "--casestudy", "rescue", "--policy", "timeshare", "--trials", "2",
             "--horizon", "2"],
            ["casestudy", "rescue", "--trials", "2", "--horizon", "2"],
        ],
    )
    def test_malformed_value_is_an_error_where_it_is_read(
        self, command, tmp_path, monkeypatch, capsys
    ):
        monkeypatch.setenv("DTLMON_SEED", "abc")
        assert main([*command, "--out", str(tmp_path / "out")]) == EXIT_ERROR
        assert capsys.readouterr().err == "error: DTLMON_SEED must be an integer, not 'abc'\n"
        assert not (tmp_path / "out").exists()
        assert main([*command, "--out", str(tmp_path / "out"), "--seed", "3"]) == EXIT_OK

    def test_malformed_value_leaves_casestudy_mht_alone(self, mht_dir, tmp_path, monkeypatch):
        monkeypatch.setenv("DTLMON_SEED", "abc")
        out = tmp_path / "again"
        assert main(["casestudy", "mht", "--out", str(out)]) == EXIT_OK
        names = sorted(p.name for p in mht_dir.iterdir())
        assert sorted(p.name for p in out.iterdir()) == names
        for name in names:
            assert read_bytes(out / name) == read_bytes(mht_dir / name)


class TestCompile:
    def test_dot_export(self, mht_dir, tmp_path):
        dot = tmp_path / "auto.dot"
        formula = tmp_path / "f.dtl"
        formula.write_text("F [H(hyp) - 0.8 < 0]\n")
        code = main(
            [
                "compile", "--model", str(mht_dir / "model.json"),
                "--formula", str(formula), "--dot", str(dot),
            ]
        )
        assert code == EXIT_OK
        text = dot.read_text()
        assert text.startswith("digraph")
        assert "doublecircle" in text

    def test_relaxed_and_json(self, mht_dir, tmp_path):
        formula = tmp_path / "f.dtl"
        formula.write_text("in(chosen1) | in(chosen2)\n")
        out = tmp_path / "auto.json"
        code = main(
            [
                "compile", "--model", str(mht_dir / "model.json"),
                "--formula", str(formula), "--relaxed", "--json", str(out),
            ]
        )
        assert code == EXIT_OK
        doc = json.loads(out.read_text())
        assert doc["states"] >= 2
        assert doc["initial"] == 0

    def test_cosafety_violation_exits_one(self, mht_dir, tmp_path, capsys):
        formula = tmp_path / "f.dtl"
        formula.write_text("!F in(chosen1)\n")
        code = main(
            ["compile", "--model", str(mht_dir / "model.json"), "--formula", str(formula)]
        )
        assert code == EXIT_ERROR
        assert "negation" in capsys.readouterr().err

    def test_rescue_formula_is_refused_at_once(self, tmp_path, capsys, monkeypatch):
        # Its 20 propositions would mean 2^20 letters per state.
        def no_walk(self, state, letter):
            pytest.fail("compile walked the alphabet")

        monkeypatch.setattr(Dfa, "transition", no_walk)
        for extra in ([], ["--relaxed"]):
            code = main(
                ["compile", "--casestudy", "rescue", "--json", str(tmp_path / "r.json"), *extra]
            )
            assert code == EXIT_ERROR
            err = capsys.readouterr().err
            assert err.startswith("error:") and "bound is 16 propositions" in err
            assert not (tmp_path / "r.json").exists()

    def test_deterministic_dot(self, mht_dir, tmp_path):
        formula = tmp_path / "f.dtl"
        formula.write_text("F in(chosen1)\n")
        outs = []
        for name in ("a.dot", "b.dot"):
            path = tmp_path / name
            assert main(
                [
                    "compile", "--model", str(mht_dir / "model.json"),
                    "--formula", str(formula), "--dot", str(path),
                ]
            ) == EXIT_OK
            outs.append(read_bytes(path))
        assert outs[0] == outs[1]


class TestCasestudy:
    def test_mht_outputs(self, mht_dir):
        for name in ("model.json", "formula.dtl", "reference_trace.json", "reference_report.json"):
            assert (mht_dir / name).exists()
        report = json.loads((mht_dir / "reference_report.json").read_text())
        assert report["feasible"] is True
        assert report["probability"] == pytest.approx(1.0, abs=1e-9)

    def test_mht_ignores_trials_and_horizon(self, mht_dir, tmp_path):
        out = tmp_path / "again"
        args = ["casestudy", "mht", "--out", str(out), "--trials", "2", "--horizon", "3"]
        assert main(args) == EXIT_OK
        names = sorted(p.name for p in mht_dir.iterdir())
        assert sorted(p.name for p in out.iterdir()) == names
        for name in names:
            assert read_bytes(out / name) == read_bytes(mht_dir / name)

    def test_rescue_config_overrides(self, tmp_path):
        config = tmp_path / "params.json"
        config.write_text(json.dumps({"p_fail": 0.2, "prior_mode": "uniform", "rho": 1}))
        out = tmp_path / "rescue"
        code = main(
            ["casestudy", "rescue", "--out", str(out), "--trials", "2", "--horizon", "3",
             "--seed", "1", "--config", str(config)]
        )
        assert code == EXIT_OK
        model = json.loads((out / "model.json").read_text())
        pickup_rows = [row for row in model["transitions"] if row[1] == "pickup" and row[3] < 1.0]
        assert any(row[3] == pytest.approx(0.8) for row in pickup_rows)
        assert len(model["prior"]) == 16
        assert json.loads((out / "comparison.json").read_text())["prior_mode"] == "uniform"

    @pytest.mark.parametrize("limit", [["--trials", "0"], ["--horizon", "0"]])
    def test_rejected_rescue_study_writes_no_directory(self, tmp_path, capsys, limit):
        out = tmp_path / "rescue"
        argv = ["casestudy", "rescue", "--out", str(out), "--trials", "2", "--horizon", "2"]
        assert main(argv + limit) == EXIT_ERROR
        assert "error:" in capsys.readouterr().err
        assert not out.exists()

    def test_mht_eventually_variant_via_config(self, tmp_path):
        config = tmp_path / "cfg.json"
        config.write_text(json.dumps({"eventually": True}))
        out = tmp_path / "mht"
        code = main(["casestudy", "mht", "--out", str(out), "--config", str(config)])
        assert code == EXIT_OK
        formula_line = (out / "formula.dtl").read_text().splitlines()[1]
        assert formula_line.startswith("F ")

    def test_non_boolean_eventually_is_rejected(self, tmp_path, capsys):
        config = tmp_path / "cfg.json"
        config.write_text(json.dumps({"eventually": "no"}))
        code = main(["casestudy", "mht", "--out", str(tmp_path / "mht"), "--config", str(config)])
        assert code == EXIT_ERROR
        assert "'eventually' must be true or false" in capsys.readouterr().err

    @pytest.mark.parametrize(
        "argv, config, message",
        [
            (["casestudy", "mht", "--out", "{out}"], {"prior_mode": "uniform"},
             "unknown config key 'prior_mode' for mht"),
            (["casestudy", "rescue", "--out", "{out}", "--trials", "1", "--horizon", "2"],
             {"h": 0.5}, "unknown config key 'h' for rescue"),
            (["simulate", "--casestudy", "rescue", "--policy", "timeshare", "--trials", "2",
              "--horizon", "2", "--out", "{out}"], {"p_fial": 0.9},
             "unknown config key 'p_fial' for rescue"),
            (["simulate", "--model", "{model}", "--formula", "{formula}", "--trials", "1",
              "--horizon", "2", "--out", "{out}"], {"entropy_factor": "bit", "seed": 3},
             "unknown config key 'seed' for a model file"),
            (["check", "--casestudy", "mht", "--trace", "{mht_trace}"],
             {"entropy_factor": "nope"}, "unknown config key 'entropy_factor' for mht"),
            (["check", "--model", "{model}", "--formula", "{formula}", "--trace", "{trace}"],
             {"p_fail": 0.5}, "unknown config key 'p_fail' for a model file"),
            # A known key with an unhashable value: checked before any model is looked up.
            (["compile", "--casestudy", "rescue"], {"prior_mode": ["uniform"]},
             "prior_mode must be one of ('uniform', 'safe_somewhere')"),
        ],
        ids=[
            "rescue-key-for-mht",
            "mht-key-for-rescue",
            "misspelt-key",
            "key-of-no-study",
            "simulate-key-for-check",
            "study-key-for-model-file",
            "list-prior-mode",
        ],
    )
    def test_config_keys_the_study_does_not_read_are_rejected(
        self, tmp_path, capsys, argv, config, message
    ):
        model = tmp_path / "model.json"
        pomdp = tiny_two_state()
        save_model(pomdp, model)
        formula = tmp_path / "goal.dtl"
        formula.write_text("F in(lit)\n")
        trace = tmp_path / "trace.json"
        save_trace(pomdp, execution_from_actions(pomdp, ["poke"], ["hi"]), trace)
        mht_trace = tmp_path / "reference_trace.json"
        mht_model, _ = build_mht(0.25, 0.5, 0.75, 0.8)
        save_trace(mht_model, mht_reference_trace(mht_model), mht_trace)
        cfg = tmp_path / "cfg.json"
        cfg.write_text(json.dumps(config))
        paths = {"model": model, "formula": formula, "trace": trace, "mht_trace": mht_trace}
        argv = [arg.format(out=tmp_path / "out", **paths) for arg in argv]
        code = main([*argv, "--config", str(cfg)])
        assert code == EXIT_ERROR
        assert capsys.readouterr().err == f"error: {message}\n"
        assert not (tmp_path / "out").exists() or not any((tmp_path / "out").iterdir())

    @pytest.mark.parametrize("key", ["share_a", "rho", "p_fail"])
    def test_boolean_numbers_are_rejected(self, tmp_path, capsys, key):
        config = tmp_path / "cfg.json"
        config.write_text(json.dumps({key: True}))
        code = main(
            ["casestudy", "rescue", "--out", str(tmp_path / "rescue"), "--trials", "1",
             "--horizon", "2", "--config", str(config)]
        )
        assert code == EXIT_ERROR
        assert f"config value {key!r} must be a number, not True" in capsys.readouterr().err

    def test_rescue_small_run(self, tmp_path):
        out = tmp_path / "rescue"
        code = main(
            ["casestudy", "rescue", "--out", str(out), "--trials", "4", "--horizon", "4",
             "--seed", "3"]
        )
        assert code == EXIT_OK
        comparison = json.loads((out / "comparison.json").read_text())
        assert set(comparison["policies"]) == {"timeshare", "entropy_cutoff"}
        model = json.loads((out / "model.json").read_text())
        assert len(model["states"]) == 64

    def test_module_entry_point(self, tmp_path):
        # The child process must import the same package as this test.
        package_root = str(Path(dtlmon.__file__).resolve().parents[1])
        path = os.pathsep.join(filter(None, [package_root, os.environ.get("PYTHONPATH")]))
        proc = subprocess.run(
            [sys.executable, "-m", "dtlmon", "casestudy", "mht", "--out", str(tmp_path / "m")],
            capture_output=True,
            text=True,
            env={**os.environ, "PYTHONPATH": path},
        )
        assert proc.returncode == EXIT_OK
        assert "probability" in proc.stdout

    def test_case_study_script_writes_the_study_it_prints(self, tmp_path):
        script = Path(__file__).resolve().parents[1] / "scripts" / "run_case_studies.py"
        package_root = str(Path(dtlmon.__file__).resolve().parents[1])
        path = os.pathsep.join(filter(None, [package_root, os.environ.get("PYTHONPATH")]))
        out = tmp_path / "study"
        proc = subprocess.run(
            [sys.executable, str(script), "--out", str(out), "--prior-mode", "uniform",
             "--trials", "6", "--horizon", "5"],
            capture_output=True,
            text=True,
            env={**os.environ, "PYTHONPATH": path},
        )
        assert proc.returncode == EXIT_OK, proc.stderr
        comparison = json.loads((out / "rescue" / "comparison.json").read_text())
        assert comparison["prior_mode"] == "uniform"
        table = proc.stdout.split("prior uniform", 1)[1]
        for name, stats in comparison["policies"].items():
            row = next(line for line in table.splitlines() if line.startswith(name))
            assert row.split()[1:2] == [f"{stats['mean_prob']:.3f}"]
            assert row.split()[5:6] == [f"{stats['success_rate']:.3f}"]
