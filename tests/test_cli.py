import json
import math
from types import SimpleNamespace

import numpy as np
import pytest

from orbitnf import cli, normalform
from orbitnf.cli import (
    CHECK_ORDER,
    ConfigError,
    canonical_json,
    list_builtins,
    main,
    resolve_config,
    run_checks,
    run_scenario,
)
from orbitnf.normalform import SolverContext, solve_normal_form
from orbitnf.scenarios import builtin_names


@pytest.fixture(scope="module")
def koenigs_run(tmp_path_factory):
    out = tmp_path_factory.mktemp("koenigs_run")
    code = main(["run", "koenigs", "--out-dir", str(out)])
    assert code == 0
    report = json.loads((out / "report.json").read_text())
    return out, report


class TestCanonicalJson:
    def test_float_formatting(self):
        text = canonical_json({"x": 0.1})
        assert "0.10000000000000001" in text

    def test_negative_zero_normalized(self):
        assert canonical_json(-0.0) == "0"

    def test_non_finite_rejected(self):
        with pytest.raises(ValueError):
            canonical_json(float("nan"))
        with pytest.raises(ValueError):
            canonical_json([float("inf")])

    def test_keys_sorted(self):
        text = canonical_json({"b": 1, "a": 2})
        assert text.index('"a"') < text.index('"b"')

    def test_numpy_scalars_and_arrays(self):
        text = canonical_json({"v": np.float64(1.5), "a": np.arange(3),
                               "b": np.bool_(True)})
        parsed = json.loads(text)
        assert parsed == {"v": 1.5, "a": [0, 1, 2], "b": True}

    def test_bools_and_null(self):
        assert json.loads(canonical_json([True, False, None])) == \
            [True, False, None]


class TestListCommand:
    def test_all_names_listed(self, capsys):
        assert main(["list"]) == 0
        out = capsys.readouterr().out
        for name in ("koenigs", "koenigs_period2", "resonant2",
                     "nonresonant2", "random_subres", "random_full"):
            assert name in out

    def test_list_builtins_api(self):
        table = list_builtins()
        assert set(table) == set(builtin_names())
        assert all(isinstance(v, str) and v for v in table.values())


class TestRunBuiltins:
    @pytest.mark.parametrize("name", builtin_names())
    def test_default_config_passes(self, name, tmp_path):
        code = main(["run", name, "--out-dir", str(tmp_path)])
        assert code == 0
        report = json.loads((tmp_path / "report.json").read_text())
        assert report["passed"] is True
        assert (tmp_path / "residuals.csv").exists()


class TestReportFormat:
    def test_checks_in_fixed_order(self, koenigs_run):
        _, report = koenigs_run
        assert [c["name"] for c in report["checks"]] == list(CHECK_ORDER)

    def test_config_echo_has_no_out_dir(self, koenigs_run):
        _, report = koenigs_run
        assert "out_dir" not in report["config"]

    def test_koenigs_quadratic_coefficient(self, koenigs_run):
        _, report = koenigs_run
        h = report["result"]["conjugator"][0]
        coeff = {tuple(t["multi_index"]): t["coefficient"]
                 for t in h["terms"]}
        assert coeff[(2,)] == pytest.approx(0.4, abs=1e-12)

    def test_frame_truncation_in_diagnostics(self, koenigs_run):
        _, report = koenigs_run
        frames = report["result"]["diagnostics"]["frames"]
        assert len(frames) == len(report["k_eps"])
        for entry in frames:
            assert set(entry) == {"horizon", "tail_bound"}
            assert entry["horizon"] > 0
            # each time direction stops at tail_tol of the running trace
            assert 0.0 < entry["tail_bound"] <= 2.0 * report["config"]["tail_tol"]

    def test_seventeen_digit_floats(self, koenigs_run):
        out, _ = koenigs_run
        text = (out / "report.json").read_text()
        assert "0.10000000000000001" in text  # the 0.1 residual radius

    def test_report_parses_as_json(self, koenigs_run):
        out, _ = koenigs_run
        parsed = json.loads((out / "report.json").read_text())
        assert parsed["name"] == "koenigs"
        assert set(parsed) == {"name", "config", "cocycle", "k_eps",
                               "result", "checks", "passed"}

    def test_csv_format(self, koenigs_run):
        out, _ = koenigs_run
        lines = (out / "residuals.csv").read_text().splitlines()
        assert lines[0] == "radius,max_residual,slope_cumulative"
        assert len(lines) == 4
        first = lines[1].split(",")
        assert float(first[0]) == pytest.approx(0.1)
        assert first[2] == "nan"
        last = lines[3].split(",")
        assert float(last[2]) >= 6.9
        for line in lines[1:]:
            assert len(line.split(",")) == 3


class TestDeterminism:
    def test_byte_identical_reports(self, tmp_path):
        dir_a, dir_b = tmp_path / "a", tmp_path / "b"
        assert main(["run", "random_full", "--out-dir", str(dir_a)]) == 0
        assert main(["run", "random_full", "--out-dir", str(dir_b)]) == 0
        assert (dir_a / "report.json").read_bytes() == \
            (dir_b / "report.json").read_bytes()
        assert (dir_a / "residuals.csv").read_bytes() == \
            (dir_b / "residuals.csv").read_bytes()

    def test_seed_changes_random_cocycle(self, tmp_path):
        dir_a, dir_b = tmp_path / "a", tmp_path / "b"
        assert main(["run", "random_full", "--seed", "1",
                     "--out-dir", str(dir_a)]) == 0
        assert main(["run", "random_full", "--seed", "2",
                     "--out-dir", str(dir_b)]) == 0
        rep_a = json.loads((dir_a / "report.json").read_text())
        rep_b = json.loads((dir_b / "report.json").read_text())
        assert rep_a["cocycle"] != rep_b["cocycle"]
        assert rep_a["config"]["rng_seed"] == 1
        assert rep_b["config"]["rng_seed"] == 2


class TestGaugeCheck:
    @pytest.mark.parametrize("name", builtin_names())
    def test_reuses_the_lyapunov_stage(self, name, monkeypatch):
        _, cocycle, config = resolve_config(name)
        ctx = cli._prepare_context(cocycle, config)
        result = solve_normal_form(ctx)
        calls = []
        for binding in ("monodromy_spectrum", "lyapunov_frames"):
            def counted(*args, _fn=getattr(normalform, binding), _name=binding, **kwargs):
                calls.append(_name)
                return _fn(*args, **kwargs)
            monkeypatch.setattr(normalform, binding, counted)
        entries, _ = run_checks(ctx, result, cocycle, config)
        gauge = entries[CHECK_ORDER.index("gauge")]
        assert gauge["enabled"] and gauge["passed"]
        assert calls == []

        # the same details as a lifted context prepared from scratch
        def prepare_lifted(ctx, lift_policy):
            return SolverContext.prepare(
                cocycle, float(config["epsilon"]), int(config["order"]),
                resonance_tol=float(config["resonance_tol"]),
                cluster_tol=float(config["cluster_tol"]),
                tail_tol=float(config["tail_tol"]),
                series_tol=float(config["series_tol"]),
                max_series_terms=int(config.get("max_series_terms", 10_000)),
                lift_policy=lift_policy)

        monkeypatch.setattr(cli, "dataclasses", SimpleNamespace(replace=prepare_lifted))
        fresh, _ = cli._check_gauge(ctx, result, cocycle, config,
                                    config["checks"]["gauge"], int(config["rng_seed"]))
        assert calls == ["monodromy_spectrum", "lyapunov_frames"]
        assert canonical_json(fresh) == canonical_json(gauge["details"])


class TestErrorExits:
    def test_contraction_budget_exit_2(self, tmp_path, capsys):
        code = main(["run", "koenigs", "--out-dir", str(tmp_path),
                     "--tol-override", "epsilon=0.5"])
        assert code == 2
        err = capsys.readouterr().err
        assert "contraction budget" in err

    def test_unknown_scenario_exit_2(self, capsys):
        assert main(["run", "no_such_scenario"]) == 2
        assert "no_such_scenario" in capsys.readouterr().err

    def test_bad_override_path_exit_2(self, capsys):
        code = main(["run", "koenigs", "--tol-override", "checks.nope.tol=1"])
        assert code == 2
        assert "checks.nope.tol" in capsys.readouterr().err

    def test_malformed_override_exit_2(self, capsys):
        assert main(["run", "koenigs", "--tol-override", "series_tol"]) == 2

    def test_bad_json_file_exit_2(self, tmp_path, capsys):
        cfg = tmp_path / "cfg.json"
        cfg.write_text("{not json")
        assert main(["run", str(cfg)]) == 2
        assert "cannot parse" in capsys.readouterr().err

    def test_negative_tolerance_exit_2(self, tmp_path, capsys):
        cfg = tmp_path / "cfg.json"
        cfg.write_text(json.dumps({"scenario": "koenigs", "series_tol": -1.0}))
        assert main(["run", str(cfg)]) == 2
        assert "series_tol" in capsys.readouterr().err

    def test_zero_order_exit_2(self, tmp_path, capsys):
        cfg = tmp_path / "cfg.json"
        cfg.write_text(json.dumps({"scenario": "koenigs", "order": 0}))
        assert main(["run", str(cfg)]) == 2

    def test_failing_check_named_exit_1(self, tmp_path, capsys):
        code = main(["run", "koenigs", "--out-dir", str(tmp_path),
                     "--tol-override", "checks.chart.tol=1e-30"])
        assert code == 1
        assert "chart" in capsys.readouterr().err
        # the report is still written, with the failure recorded
        report = json.loads((tmp_path / "report.json").read_text())
        assert report["passed"] is False


class TestConfigHandling:
    def test_override_plumbs_into_report(self, tmp_path):
        code = main(["run", "koenigs", "--out-dir", str(tmp_path),
                     "--tol-override", "checks.residual.samples=50"])
        assert code == 0
        report = json.loads((tmp_path / "report.json").read_text())
        assert report["config"]["checks"]["residual"]["samples"] == 50
        residual = report["checks"][0]
        assert residual["name"] == "residual"
        assert residual["details"]["samples"] == 50

    def test_config_file_overrides_builtin_defaults(self, tmp_path):
        cfg = tmp_path / "cfg.json"
        cfg.write_text(json.dumps({"scenario": "koenigs", "order": 4}))
        out = tmp_path / "out"
        assert main(["run", str(cfg), "--out-dir", str(out)]) == 0
        report = json.loads((out / "report.json").read_text())
        assert report["result"]["order"] == 4

    def test_inline_cocycle_config(self, tmp_path):
        scenario = {
            "block_dims": [1],
            "periodic": True,
            "fiber_maps": [{
                "degree": 2,
                "source_blocks": [1],
                "target_blocks": [1],
                "constant": [0.0],
                "terms": [
                    {"target_index": 0, "multi_index": [1],
                     "coefficient": 0.5},
                    {"target_index": 0, "multi_index": [2],
                     "coefficient": 0.1},
                ],
            }],
        }
        cfg = tmp_path / "cfg.json"
        cfg.write_text(json.dumps({
            "scenario": scenario, "name": "inline_test",
            "epsilon": 0.05, "order": 4, "series_tol": 1e-15}))
        out = tmp_path / "out"
        assert main(["run", str(cfg), "--out-dir", str(out)]) == 0
        report = json.loads((out / "report.json").read_text())
        assert report["name"] == "inline_test"
        assert report["passed"] is True

    def test_resolve_config_validates(self):
        with pytest.raises(ConfigError):
            resolve_config("koenigs", overrides=["epsilon=-0.1"])

    def test_run_scenario_api(self, tmp_path):
        assert run_scenario("resonant2", out_dir=str(tmp_path)) == 0
        assert (tmp_path / "report.json").exists()


class TestSpectrumCommand:
    def test_prints_lyapunov_stage(self, capsys):
        assert main(["spectrum", "resonant2"]) == 0
        payload = json.loads(capsys.readouterr().out)
        assert set(payload) == {"name", "spectrum", "structure",
                                "k_eps", "sandwich"}
        assert payload["spectrum"]["exponents"] == [-2, -1]
        assert payload["sandwich"]["passed"] is True

    def test_scalar_comparison_factor(self, capsys):
        assert main(["spectrum", "koenigs"]) == 0
        payload = json.loads(capsys.readouterr().out)
        expected = math.sqrt(2.0 / (1.0 - math.exp(-0.05)) - 1.0)
        assert payload["k_eps"][0] == pytest.approx(expected, rel=1e-9)


class TestVerifyCommand:
    def test_verify_cached_report(self, koenigs_run, capsys):
        out, _ = koenigs_run
        assert main(["verify", "koenigs", "--out-dir", str(out)]) == 0
        text = capsys.readouterr().out
        for name in CHECK_ORDER:
            assert f"{name}:" in text

    def test_verify_missing_report_exit_2(self, tmp_path, capsys):
        code = main(["verify", "koenigs", "--out-dir", str(tmp_path)])
        assert code == 2
        assert "no cached report" in capsys.readouterr().err

    def test_verify_with_tight_tolerance_fails(self, koenigs_run, capsys):
        out, _ = koenigs_run
        code = main(["verify", "koenigs", "--out-dir", str(out),
                     "--tol-override", "checks.chart.tol=1e-30"])
        assert code == 1
        assert "chart" in capsys.readouterr().err


class TestPackageExports:
    def test_every_public_name_resolves(self):
        import orbitnf

        for name in orbitnf.__all__:
            assert getattr(orbitnf, name) is not None, name
        assert set(orbitnf.__all__) == set(orbitnf._ORIGIN) | {"__version__"}
