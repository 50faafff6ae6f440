import json
import math
import re

import numpy as np
import pytest
from canon_reference import canon_reference

from orbitnf import cli, normalform, verify
from orbitnf.cli import (
    CHECK_ORDER,
    ConfigError,
    canonical_json,
    main,
    resolve_config,
    run_checks,
    run_scenario,
)
from orbitnf.cocycle import OrbitCocycle
from orbitnf.normalform import NormalFormResult, solve_normal_form
from orbitnf.polymap import GradedSpace, PolyMap, jet_width
from orbitnf.scenarios import BUILTIN_DESCRIPTIONS, build_builtin, builtin_names, random_scenario


# the koenigs map 0.5 t + 0.1 t^2 as an inline cocycle
INLINE_KOENIGS = {
    "block_dims": [1],
    "periodic": True,
    "fiber_maps": [{
        "degree": 2,
        "source_blocks": [1],
        "target_blocks": [1],
        "constant": [0.0],
        "terms": [
            {"target_index": 0, "multi_index": [1], "coefficient": 0.5},
            {"target_index": 0, "multi_index": [2], "coefficient": 0.1},
        ],
    }],
}


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

    def test_equals_isinstance_chain(self, koenigs_run):
        """Dispatch on the exact type writes what the isinstance chain wrote,
        for subclasses of the builtin types and numpy values too."""
        class Name(str):
            pass

        class Count(int):
            pass

        class Ratio(float):
            pass

        class Items(list):
            pass

        class Table(dict):
            pass

        _, report = koenigs_run
        payloads = [
            report,
            {"a": [], "b": {}, "c": (), 3: "\u00e9\n\"", True: None, "d": -0.0, "e": 1e-300},
            {Name("k"): Count(3), "f": Ratio(0.5), "l": Items([1, 2.5]),
             "t": Table({"x": np.float32(0.1), 2: np.int64(7)})},
            np.arange(4.0).reshape(2, 2),
            [np.bool_(False), np.str_("s"), (1, [2, {"z": 3, "y": [4.5]}])],
        ]
        for payload in payloads:
            assert canonical_json(payload) == canon_reference(payload)

    def test_rejections_keep_their_messages(self):
        for payload in (float("nan"), [1.0, -math.inf], {1.5: 1}, {(1,): 2},
                        {"a": {None: 1}}, object(), {"s": {1, 2}}, np.float64("nan"),
                        [np.complex128(1j)]):
            with pytest.raises(ValueError) as got:
                canonical_json(payload)
            with pytest.raises(ValueError) as want:
                canon_reference(payload)
            assert str(got.value) == str(want.value)


class TestListCommand:
    def test_all_names_listed(self, capsys):
        assert main(["list"]) == 0
        out = capsys.readouterr().out
        for name in ("koenigs", "koenigs_period2", "resonant2",
                     "nonresonant2", "random_subres", "random_full"):
            assert name in out

    def test_list_builtins_api(self, capsys):
        # `list` prints the descriptions table, one builtin a line, in order
        assert set(BUILTIN_DESCRIPTIONS) == set(builtin_names())
        assert all(isinstance(v, str) and v for v in BUILTIN_DESCRIPTIONS.values())
        assert main(["list"]) == 0
        lines = capsys.readouterr().out.splitlines()
        assert [line.split(None, 1) for line in lines] == [
            [name, text] for name, text in BUILTIN_DESCRIPTIONS.items()]


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
            # each time direction stops at half of tail_tol of the running trace
            assert 0.0 < entry["tail_bound"] <= report["config"]["tail_tol"]

    def test_seventeen_digit_floats(self, koenigs_run):
        out, _ = koenigs_run
        text = (out / "report.json").read_text()
        assert "0.050000000000000003" in text  # koenigs' epsilon 0.05

    def test_report_parses_as_json(self, koenigs_run):
        out, _ = koenigs_run
        parsed = json.loads((out / "report.json").read_text())
        assert parsed["name"] == "koenigs"
        assert set(parsed) == {"name", "config", "cocycle", "k_eps",
                               "result", "checks", "passed"}

    def test_csv_format(self, koenigs_run):
        out, report = koenigs_run
        lines = (out / "residuals.csv").read_text().splitlines()
        assert lines[0] == "degree,max_residual"
        order = report["result"]["order"]
        rows = [line.split(",") for line in lines[1:]]
        assert [int(n) for n, _ in rows] == list(range(order + 2))
        # nothing through the order, the truncation's own term above it
        assert all(float(v) <= 1e-13 for _, v in rows[:-1])
        assert float(rows[-1][1]) >= 1e-6


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

    @pytest.mark.parametrize("name", ["koenigs", "koenigs_period2", "resonant2",
                                      "nonresonant2", "inline_within_block"])
    def test_checks_take_no_seed(self, name, tmp_path):
        # these cocycles do not depend on the seed, so neither may a check.
        # The inline one has non-admissible squares inside its two blocks, so
        # its chart transitions have a nonzero non-admissible part in 2-d,
        # where a sampled deviation would move with the seed
        if name == "inline_within_block":
            coeffs = {(0, (1, 0)): math.exp(-2.0), (0, (0, 2)): 0.3, (0, (2, 0)): 0.1,
                      (1, (0, 1)): math.exp(-1.0), (1, (0, 2)): 0.1}
            space = GradedSpace((1, 1))
            cocycle = OrbitCocycle(space, (PolyMap(space, space, 2, np.zeros(2), coeffs),))
            name = str(tmp_path / "within_block.json")
            with open(name, "w", encoding="utf-8") as fh:
                json.dump({"scenario": cocycle.to_dict(), "epsilon": 0.05, "order": 6,
                           "checks": {"chart": {"enabled": True, "points": [[0.02, -0.02]],
                                                "tol": 1e-7}}}, fh)
        texts = []
        for seed in (0, 1, 7):
            _, cocycle, config = resolve_config(name, seed=seed)
            ctx = cli._prepare_context(cocycle, config)
            entries, _ = run_checks(ctx, solve_normal_form(ctx), cocycle, config)
            texts.append(canonical_json(entries))
        assert texts[0] == texts[1] == texts[2]


class TestLyapunovStage:
    @pytest.mark.parametrize("name", builtin_names())
    def test_run_builds_spectrum_and_frames_once(self, name, tmp_path, monkeypatch):
        calls = []
        for binding in ("monodromy_spectrum", "lyapunov_frames"):
            def counted(*args, _fn=getattr(normalform, binding), _name=binding, **kwargs):
                calls.append(_name)
                return _fn(*args, **kwargs)
            monkeypatch.setattr(normalform, binding, counted)
        assert run_scenario(name, out_dir=str(tmp_path)) == 0
        assert sorted(calls) == ["lyapunov_frames", "monodromy_spectrum"]

    @pytest.mark.parametrize("name", ["koenigs_period2", "random_full"])
    def test_run_factorises_each_gram_once(self, name, tmp_path, monkeypatch):
        # one eigvalsh of the stacked Grams when the frames are made, and one
        # Cholesky factorisation of the block Grams per coordinate block in
        # the sandwich check
        calls = []
        for fn in ("eigvalsh", "cholesky"):
            def counted(*args, _fn=getattr(np.linalg, fn), _name=fn, **kwargs):
                calls.append(_name)
                return _fn(*args, **kwargs)
            monkeypatch.setattr(np.linalg, fn, counted)
        assert run_scenario(name, out_dir=str(tmp_path)) == 0
        blocks = {"koenigs_period2": 1, "random_full": 2}[name]
        assert sorted(calls) == ["cholesky"] * blocks + ["eigvalsh"]


def gauge_check(ctx, result, config):
    """The gauge runner on ``result``, handed its lifted re-solve by ``cli._solve``."""
    _, solved = cli._solve(ctx, config, result)
    return cli._check_gauge(ctx, result, config["checks"]["gauge"], *solved["gauge"])


class TestGaugeCheck:
    @pytest.mark.parametrize("name", builtin_names())
    def test_reuses_the_lyapunov_stage(self, name, monkeypatch):
        _, cocycle, config = resolve_config(name)
        ctx = cli._prepare_context(cocycle, config)
        result = solve_normal_form(ctx)
        ctx.frames  # the sandwich check reads them; built once per context
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

        # the same details as a lifted solve on a context prepared from scratch
        fresh, _ = gauge_check(cli._prepare_context(cocycle, config), result, config)
        # the re-solve reads no frames, so a fresh context builds none
        assert calls == ["monodromy_spectrum"]
        assert canonical_json(fresh) == canonical_json(gauge["details"])

    @pytest.mark.parametrize("name", builtin_names())
    def test_reuses_the_degree_operators(self, name, monkeypatch):
        _, cocycle, config = resolve_config(name)
        calls, tables = [], []

        class Counted(normalform._DegreeOperator):
            def __init__(self, space, structure, n, table, linears, ainvs):
                calls.append(n)
                super().__init__(space, structure, n, table, linears, ainvs)

        def counted_table(*args, _fn=normalform.composition_table):
            tables.append(args[1:])
            return _fn(*args)

        monkeypatch.setattr(normalform, "_DegreeOperator", Counted)
        monkeypatch.setattr(normalform, "composition_table", counted_table)
        ctx = cli._prepare_context(cocycle, config)
        assert tables == []  # built on first use in the solve, not when prepared
        result = solve_normal_form(ctx)
        assert calls == list(range(2, ctx.order + 1))
        assert tables == [(cocycle.dim, ctx.order)]
        details, limits = gauge_check(ctx, result, config)
        assert all(ok for _, ok in limits)
        # the lifted solve builds no operator and no table of its own, and
        # neither does the dense oracle's degree loop
        verify.direct_normal_form(ctx)
        assert calls == list(range(2, ctx.order + 1))
        assert tables == [(cocycle.dim, ctx.order)]
        # the same details as a context that has solved nothing
        fresh, _ = gauge_check(cli._prepare_context(cocycle, config), result, config)
        assert canonical_json(details) == canonical_json(fresh)


def drop_lift(monkeypatch):
    """Make the runner's solves ignore the gauge lift, as a broken solver
    would: every cycle of the one degree loop that solves the checks'
    re-solves, the gauge runner's among them."""
    monkeypatch.setattr(cli, "solve_cycles", lambda ctx, cycles: normalform.solve_cycles(
        ctx, [(transfer, None) for transfer, _ in cycles]))


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

    @pytest.mark.parametrize("config, cause", [
        ([1, 2], "config file must hold a JSON object"),
        ({"scenario": "no_such_builtin"}, "unknown builtin scenario 'no_such_builtin'"),
        ({"scenario": {"block_dims": [1]}, "epsilon": 0.05, "order": 2}, "bad inline cocycle"),
        ({"scenario": 3}, "scenario must be a builtin name or an inline cocycle object"),
        ({"scenario": "koenigs", "max_series_terms": 0}, "max_series_terms must be"),
        ({"scenario": "koenigs", "checks": []}, "checks must be an object"),
        ({"scenario": "koenigs", "checks": {"nope": {"enabled": True}}}, "unknown checks: nope"),
        ({"scenario": "koenigs", "checks": {"flag": {"enabled": "yes"}}},
         "check 'flag' needs an 'enabled' flag"),
        ({"scenario": "koenigs", "checks": {"flag": 3}}, "check 'flag' needs an 'enabled' flag"),
        # an inline scenario has no default epsilon or order
        ({"scenario": INLINE_KOENIGS, "order": 4}, "epsilon must be a finite positive number"),
        ({"scenario": INLINE_KOENIGS, "epsilon": 0.05}, "order must be an integer >= 1"),
        # the top level holds only the keys of the config table, as a check entry does
        ({"scenario": "koenigs", "seires_tol": 1e-3}, "unknown config key 'seires_tol'"),
    ], ids=["not-an-object", "unknown-builtin", "bad-inline", "scenario-type",
            "max-series-terms", "checks-type", "unknown-check", "enabled-type",
            "entry-type", "inline-no-epsilon", "inline-no-order", "unknown-key"])
    def test_config_file_error_exit_2(self, config, cause, tmp_path, capsys):
        cfg = tmp_path / "cfg.json"
        cfg.write_text(json.dumps(config))
        out = tmp_path / "out"
        assert main(["run", str(cfg), "--out-dir", str(out)]) == 2
        assert cause in capsys.readouterr().err
        assert not out.exists()

    @pytest.mark.parametrize("override, key", [
        # keys the checks no longer read are unknown
        ("checks.residual.radii=[]", "checks.residual.radii"),
        ("checks.residual.radii=[0.1]", "checks.residual.radii"),
        ("checks.residual.radii=[0.1, 0.1]", "checks.residual.radii"),
        ("checks.residual.radii=[0.1, -0.01]", "checks.residual.radii"),
        ("checks.residual.samples=0", "checks.residual.samples"),
        ("checks.flag.samples=2.5", "checks.flag.samples"),
        ("checks.centralizer.powers=3", "checks.centralizer.powers"),
        ("checks.centralizer.powers=[2, 0]", "checks.centralizer.powers"),
        ("checks.residual.exact_tol=Infinity", "checks.residual.exact_tol"),
        ("checks.sandwich.tol=NaN", "checks.sandwich.tol"),
        ("checks.oracle.tol=\"small\"", "checks.oracle.tol"),
        ("checks.flag.radius=Infinity", "checks.flag.radius"),
        ("checks.flag.radius=0", "checks.flag.radius"),
        ("checks.gauge.delta=Infinity", "checks.gauge.delta"),
        ("checks.gauge.delta=0", "checks.gauge.delta"),
    ])
    def test_malformed_check_parameter_exit_2(self, override, key, tmp_path, capsys):
        code = main(["run", "resonant2", "--out-dir", str(tmp_path),
                     "--tol-override", override])
        assert code == 2
        assert key in capsys.readouterr().err
        assert not (tmp_path / "report.json").exists()

    @pytest.mark.parametrize("key, value", [
        ("residual", {"radii": [0.1, 0.03, 0.01]}),
        ("residual", {"samples": 200}),
        ("residual", {"exact_tol": 1e-12}),
        ("flag", {"samples": 100}),
        ("flag", {"radius": 0.5}),
        ("oracle", {"tolerance": 1e-10}),
    ])
    def test_unknown_check_key_exit_2(self, key, value, tmp_path, capsys):
        # a config file cannot carry a key its check does not read
        cfg = tmp_path / "cfg.json"
        cfg.write_text(json.dumps({"scenario": "resonant2", "checks": {key: value}}))
        assert main(["run", str(cfg), "--out-dir", str(tmp_path)]) == 2
        assert f"checks.{key}.{next(iter(value))}" in capsys.readouterr().err
        assert not (tmp_path / "report.json").exists()

    @pytest.mark.parametrize("points", [[0.05], [[0.05]], [[0.05, "a"]], 0.05])
    def test_malformed_chart_points_exit_2(self, points, tmp_path, capsys):
        cfg = tmp_path / "cfg.json"
        cfg.write_text(json.dumps({"scenario": "resonant2", "checks": {
            "chart": {"enabled": True, "points": points}}}))
        assert main(["run", str(cfg), "--out-dir", str(tmp_path)]) == 2
        assert "checks.chart.points" in capsys.readouterr().err

    @pytest.mark.parametrize("override, key", [
        ("series_tol=Infinity", "series_tol"),
        ("resonance_tol=Infinity", "resonance_tol"),
        ("tail_tol=Infinity", "tail_tol"),
        ("cluster_tol=Infinity", "cluster_tol"),
        ("epsilon=NaN", "epsilon"),
    ])
    def test_non_finite_tolerance_exit_2(self, override, key, tmp_path, capsys):
        code = main(["run", "koenigs_period2", "--out-dir", str(tmp_path),
                     "--tol-override", override])
        assert code == 2
        assert key in capsys.readouterr().err
        assert not (tmp_path / "report.json").exists()

    @pytest.mark.parametrize("config, key", [
        ({"series_tol": 10 ** 400}, "series_tol"),
        ({"checks": {"oracle": {"enabled": True, "tol": -10 ** 400}}}, "checks.oracle.tol"),
        ({"checks": {"chart": {"enabled": True, "points": [[10 ** 400]]}}}, "checks.chart.points"),
    ], ids=["series_tol", "oracle_tol", "chart_points"])
    def test_integer_past_the_float_range_exit_2(self, config, key, tmp_path, capsys):
        # JSON reads such a number as an int that no float holds
        cfg = tmp_path / "cfg.json"
        cfg.write_text(json.dumps({"scenario": "koenigs", **config}))
        assert main(["run", str(cfg), "--out-dir", str(tmp_path)]) == 2
        assert key in capsys.readouterr().err
        override = "series_tol=1" + "0" * 400
        assert main(["spectrum", "koenigs", "--tol-override", override]) == 2
        assert "series_tol must be a finite positive number" in capsys.readouterr().err

    @pytest.mark.parametrize("name", [{"a": 1}, ["x"], 3, ""])
    def test_name_must_be_a_string(self, name, tmp_path, monkeypatch, capsys):
        # the name titles the report and the default output directory
        monkeypatch.chdir(tmp_path)
        cfg = tmp_path / "cfg.json"
        cfg.write_text(json.dumps({"scenario": INLINE_KOENIGS, "name": name,
                                   "epsilon": 0.05, "order": 4}))
        assert main(["run", str(cfg)]) == 2
        assert "name must be a non-empty string" in capsys.readouterr().err
        assert sorted(p.name for p in tmp_path.iterdir()) == ["cfg.json"]

    def test_negative_check_tol_fails_the_check(self, tmp_path, capsys):
        # a negative tol stays valid: it makes the check fail on purpose
        code = main(["run", "resonant2", "--out-dir", str(tmp_path),
                     "--tol-override", "checks.sandwich.tol=-1.0"])
        assert code == 1
        assert "sandwich" in capsys.readouterr().err

    @pytest.mark.parametrize("command", ["run", "verify"])
    def test_non_string_out_dir_exit_2(self, command, tmp_path, capsys):
        cfg = tmp_path / "cfg.json"
        cfg.write_text(json.dumps({"scenario": "resonant2", "out_dir": 5}))
        assert main([command, str(cfg)]) == 2
        assert "out_dir" in capsys.readouterr().err

    @pytest.mark.parametrize("command", ["spectrum", "run"])
    def test_misordered_blocks_exit_2(self, command, tmp_path, capsys):
        # block 1 contracts at the rate -0.5, block 2 at -2: the blocks are
        # out of exponent order, which every entry point names as the cause
        coeffs = {(0, (1, 0)): math.exp(-0.5), (0, (0, 2)): 0.3, (1, (0, 1)): math.exp(-2.0)}
        space = GradedSpace((1, 1))
        cocycle = OrbitCocycle(space, (PolyMap(space, space, 2, np.zeros(2), coeffs),))
        cfg = tmp_path / "swapped.json"
        cfg.write_text(json.dumps({"scenario": cocycle.to_dict(), "epsilon": 0.05, "order": 6}))
        out = ["--out-dir", str(tmp_path / "out")] if command == "run" else []
        assert main([command, str(cfg)] + out) == 2
        captured = capsys.readouterr()
        assert captured.out == ""
        assert "coordinate block 1 does not carry its exponent chi_1 = -2:" in captured.err

    @pytest.mark.parametrize("name, override, key", [
        ("koenigs", "checks.centralizer.powers=[]", "checks.centralizer.powers"),
        ("resonant2", "checks.chart.points=[]", "checks.chart.points"),
    ])
    def test_enabled_check_with_nothing_to_check_exit_2(self, name, override, key,
                                                        tmp_path, capsys):
        code = main(["run", name, "--out-dir", str(tmp_path), "--tol-override", override])
        assert code == 2
        assert key in capsys.readouterr().err
        assert not (tmp_path / "report.json").exists()

    def test_disabled_check_may_be_empty(self):
        _, _, config = resolve_config("koenigs", overrides=[
            "checks.centralizer.enabled=false", "checks.centralizer.powers=[]",
            "checks.chart.enabled=false", "checks.chart.points=[]",
            "checks.gauge.enabled=false", "checks.gauge.delta=1e-10"])
        assert config["checks"]["chart"]["points"] == []

    @pytest.mark.parametrize("delta", ["1e-10", "1e-9", "-1e-9"])
    def test_gauge_delta_within_tol_exit_2(self, delta, tmp_path, capsys, monkeypatch):
        # with |delta| <= tol a solve that drops the lift would pass the gauge check
        drop_lift(monkeypatch)
        code = main(["run", "resonant2", "--out-dir", str(tmp_path),
                     "--tol-override", f"checks.gauge.delta={delta}"])
        assert code == 2
        assert "checks.gauge.delta" in capsys.readouterr().err
        assert not (tmp_path / "report.json").exists()

    def test_gauge_check_catches_a_dropped_lift(self, tmp_path, capsys, monkeypatch):
        drop_lift(monkeypatch)
        assert main(["run", "resonant2", "--out-dir", str(tmp_path)]) == 1
        assert "failed checks: gauge" in capsys.readouterr().err

    @pytest.mark.parametrize("seed", [2.7, "abc", True])
    def test_config_file_seed_exit_2(self, seed, tmp_path, capsys):
        cfg = tmp_path / "cfg.json"
        cfg.write_text(json.dumps({"scenario": "koenigs", "rng_seed": seed}))
        assert main(["run", str(cfg), "--out-dir", str(tmp_path / "out")]) == 2
        assert "rng_seed must be an integer >= 0" in capsys.readouterr().err
        assert not (tmp_path / "out").exists()

    @pytest.mark.parametrize("args", [["--seed", "-1"], ["--tol-override", "rng_seed=-1"],
                                      ["--tol-override", "rng_seed=1.5"]])
    def test_negative_seed_exit_2(self, args, tmp_path, capsys, monkeypatch):
        built = []
        monkeypatch.setattr(cli, "build_builtin",
                            lambda name, seed: built.append(seed) or build_builtin(name, seed))
        assert main(["run", "random_full", "--out-dir", str(tmp_path)] + args) == 2
        assert "rng_seed must be an integer >= 0" in capsys.readouterr().err
        # no cocycle is drawn from an invalid seed
        assert all(type(seed) is int and seed >= 0 for seed in built)

    def test_failing_check_named_exit_1(self, tmp_path, capsys):
        code = main(["run", "koenigs", "--out-dir", str(tmp_path),
                     "--tol-override", "checks.chart.tol=1e-30"])
        assert code == 1
        assert "chart" in capsys.readouterr().err
        # the report is still written, with the failure recorded
        report = json.loads((tmp_path / "report.json").read_text())
        assert report["passed"] is False


# a valid and an invalid --tol-override value for each key of the config
# table on koenigs, by top-level key, "entry" for a check entry, or the key
# of a check entry
OVERRIDE_VALUES = {
    "scenario": ('"koenigs_period2"', "3"),
    "name": ('"renamed"', '{"a": 1}'),
    "out_dir": ('"elsewhere"', "5"),
    "order": ("5", "0"),
    "epsilon": ("0.04", "0"),
    "resonance_tol": ("1e-10", "-1e-9"),
    "cluster_tol": ("1e-7", "NaN"),
    "tail_tol": ("1e-11", '"small"'),
    "series_tol": ("1e-12", "Infinity"),
    "rng_seed": ("3", "-1"),
    "max_series_terms": ("5", "0"),
    "checks": ('{"flag": {"enabled": false, "tol": 1e-12}}', "[]"),
    "entry": ('{"enabled": false}', "3"),
    "enabled": ("false", '"yes"'),
    "tol": ("1e-8", "NaN"),
    "delta": ("0.1", "0"),
    "powers": ("[2]", "[0]"),
    "points": ("[[0.01]]", "0.05"),
}


class TestConfigHandling:
    def test_override_plumbs_into_report(self, tmp_path):
        code = main(["run", "koenigs", "--out-dir", str(tmp_path),
                     "--tol-override", "checks.flag.tol=1e-11"])
        assert code == 0
        report = json.loads((tmp_path / "report.json").read_text())
        assert report["config"]["checks"]["flag"]["tol"] == 1e-11
        flag = report["checks"][CHECK_ORDER.index("flag")]
        assert flag["name"] == "flag"
        assert flag["details"]["tol"] == 1e-11

    def test_config_file_overrides_builtin_defaults(self, tmp_path):
        cfg = tmp_path / "cfg.json"
        cfg.write_text(json.dumps({"scenario": "koenigs", "order": 4}))
        out = tmp_path / "out"
        assert main(["run", str(cfg), "--out-dir", str(out)]) == 0
        report = json.loads((out / "report.json").read_text())
        assert report["result"]["order"] == 4

    def test_inline_cocycle_config(self, tmp_path):
        cfg = tmp_path / "cfg.json"
        cfg.write_text(json.dumps({
            "scenario": INLINE_KOENIGS, "name": "inline_test",
            "epsilon": 0.05, "order": 4}))
        out = tmp_path / "out"
        assert main(["run", str(cfg), "--out-dir", str(out)]) == 0
        report = json.loads((out / "report.json").read_text())
        assert report["name"] == "inline_test"
        assert report["passed"] is True

    @pytest.mark.parametrize("path", list(cli._SCHEMA))
    def test_override_reaches_every_key(self, path, capsys):
        # an override sets exactly the keys a config file may hold: a valid
        # value is merged in as a file's would be, an invalid one exits 2
        # with the error of its key
        valid, invalid = OVERRIDE_VALUES[path if "." not in path else (
            "entry" if path.count(".") == 1 else path.rpartition(".")[2])]
        _, _, config = resolve_config("koenigs", overrides=[f"{path}={valid}"])
        value, got = json.loads(valid), cli._entry(config, path, "config")
        assert value.items() <= got.items() if isinstance(value, dict) else got == value
        if invalid is not None:
            assert main(["spectrum", "koenigs", "--tol-override", f"{path}={invalid}"]) == 2
            err = capsys.readouterr().err
            assert cli._SCHEMA[path][1] in err and path.rpartition(".")[2] in err

    def test_optional_key_override_reaches_the_solver(self):
        _, cocycle, config = resolve_config("koenigs", overrides=["max_series_terms=5"])
        assert cli._prepare_context(cocycle, config).max_series_terms == 5
        # a run without the override leaves the optional keys out of its echo
        _, cocycle, config = resolve_config("koenigs")
        assert not set(cli._OPTIONAL) & set(config)
        assert cli._prepare_context(cocycle, config).max_series_terms == \
            normalform.SolverContext.max_series_terms

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
        assert payload["sandwich"]["tol"] == 1e-6

    def test_sandwich_tolerance_override(self, tmp_path, capsys):
        # a negative tolerance fails even a zero violation, so both commands
        # must read the configured value for the verdicts to flip
        override = ["--tol-override", "checks.sandwich.tol=-1.0"]
        assert main(["spectrum", "resonant2"] + override) == 0
        sandwich = json.loads(capsys.readouterr().out)["sandwich"]
        assert sandwich["tol"] == -1.0 and sandwich["passed"] is False
        assert main(["run", "resonant2", "--out-dir", str(tmp_path)] + override) == 1
        report = json.loads((tmp_path / "report.json").read_text())
        check = report["checks"][CHECK_ORDER.index("sandwich")]
        assert check["passed"] is False
        assert check["details"] == sandwich

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

    def test_run_and_verify_share_the_config_out_dir(self, tmp_path, capsys):
        out = tmp_path / "from_config"
        cfg = tmp_path / "cfg.json"
        cfg.write_text(json.dumps({"scenario": "resonant2", "out_dir": str(out)}))
        assert main(["run", str(cfg)]) == 0
        assert (out / "report.json").exists()
        assert main(["verify", str(cfg)]) == 0

    def test_verify_skips_a_disabled_check(self, koenigs_run, capsys):
        out, _ = koenigs_run
        assert main(["verify", "koenigs", "--out-dir", str(out),
                     "--tol-override", "checks.flag.enabled=false"]) == 0
        lines = capsys.readouterr().out.splitlines()
        assert "flag: skipped" in lines
        assert [line.split(":")[0] for line in lines] == list(CHECK_ORDER)
        assert sum(line.endswith(": pass") for line in lines) == len(CHECK_ORDER) - 1

    def test_verify_missing_report_exit_2(self, tmp_path, capsys):
        code = main(["verify", "koenigs", "--out-dir", str(tmp_path)])
        assert code == 2
        assert "no cached report" in capsys.readouterr().err

    def test_verify_stale_report_exit_2(self, koenigs_run, tmp_path, capsys):
        # a cached config holding a key no check reads is named, not ignored
        out, report = koenigs_run
        stale = json.loads(json.dumps(report))
        stale["config"]["checks"]["residual"]["radii"] = [0.1, 0.03, 0.01]
        (tmp_path / "report.json").write_text(json.dumps(stale))
        assert main(["verify", "koenigs", "--out-dir", str(tmp_path)]) == 2
        assert "checks.residual.radii" in capsys.readouterr().err

    @pytest.mark.parametrize("path", ["cocycle", "config", "result", "result.conjugator",
                                      "result.normal_form", "result.order",
                                      "config.checks.oracle.tol", "config.checks.flag",
                                      "config.checks.gauge.delta"])
    def test_verify_report_missing_a_key_exit_2(self, path, koenigs_run, tmp_path, capsys):
        # a missing entry is a config error naming the key, not a traceback
        # with the exit status of a failed check
        report = json.loads(json.dumps(koenigs_run[1]))
        *parents, key = path.split(".")
        node = report
        for parent in parents:
            node = node[parent]
        del node[key]
        (tmp_path / "report.json").write_text(json.dumps(report))
        assert main(["verify", "koenigs", "--out-dir", str(tmp_path)]) == 2
        err = capsys.readouterr().err
        assert err.startswith("config error: cached report ")
        assert err.rstrip().endswith(f"has no key {key!r}")

    @pytest.mark.parametrize("path, value, key", [
        ("result.conjugator", None, "result.conjugator"),
        ("cocycle", [], "cocycle"),
        ("config", "koenigs", "config"),
        ("result", [], "result.conjugator"),
        ("result.normal_form", {}, "result.normal_form"),
        ("result.conjugator", [], "result.conjugator"),
        ("result.conjugator", [None], "result.conjugator"),
        ("result.conjugator.0.terms", None, "result.conjugator"),
        ("result.order", None, "result.order"),
        ("result.order", "6", "result.order"),
        ("result.diagnostics", [], "result.diagnostics"),
        ("cocycle.fiber_maps", None, "cocycle"),
        ("cocycle.block_dims", 2, "cocycle"),
    ], ids=lambda v: repr(v) if not isinstance(v, str) else v)
    def test_verify_report_wrong_type_exit_2(self, path, value, key, koenigs_run, tmp_path,
                                             capsys):
        # an entry of the wrong type is a config error naming the key, not a
        # TypeError or AttributeError with the exit status of a failed check
        report = json.loads(json.dumps(koenigs_run[1]))
        *parents, last = path.split(".")
        node = report
        for parent in parents:
            node = node[int(parent) if parent.isdigit() else parent]
        node[last] = value
        (tmp_path / "report.json").write_text(json.dumps(report))
        assert main(["verify", "koenigs", "--out-dir", str(tmp_path)]) == 2
        err = capsys.readouterr().err
        assert err.startswith("config error: cached report ")
        assert repr(key) in err
        assert "Traceback" not in err

    def test_verify_with_tight_tolerance_fails(self, koenigs_run, capsys):
        out, _ = koenigs_run
        code = main(["verify", "koenigs", "--out-dir", str(out),
                     "--tol-override", "checks.chart.tol=1e-30"])
        assert code == 1
        assert "chart" in capsys.readouterr().err



class TestStackedResult:
    """A solved orbit is one pair of (K, m, w) jet stacks: a check pass reads
    them and builds no PolyMap, and the PolyMap views are rows of them."""

    @pytest.mark.parametrize("scenario", [build_builtin("koenigs"), random_scenario(14)],
                             ids=["koenigs", "random_14"])
    def test_check_pass_builds_no_polymap(self, scenario, monkeypatch):
        ctx = cli._prepare_context(scenario.cocycle, scenario.config)
        result = solve_normal_form(ctx)
        built, from_jet = [], PolyMap.from_jet.__func__

        def counted(cls, *args):
            built.append(args)
            return from_jet(cls, *args)

        monkeypatch.setattr(PolyMap, "from_jet", classmethod(counted))
        entries, _ = run_checks(ctx, result, scenario.cocycle, scenario.config)
        monkeypatch.undo()
        assert all(e["passed"] for e in entries if e["enabled"])
        assert sum(e["enabled"] for e in entries) == len(CHECK_ORDER) - (
            scenario.name != "koenigs")  # the chart check runs on koenigs
        assert built == []

        m, K, order = ctx.cocycle.dim, ctx.cocycle.period, ctx.order
        for jets in (result.conjugator_jets, result.normal_form_jets):
            assert jets.shape == (K, m, jet_width(m, order))
            assert not jets.flags.writeable
        for h, row in zip(result.conjugator, result.conjugator_jets):
            assert h.degree == order and h.jet.tobytes() == row.tobytes()
        for p, row in zip(result.normal_form, result.normal_form_jets):
            width = p.jet.shape[1]
            assert p.part(p.degree).any() and not row[:, width:].any()
            assert p.jet.tobytes() == row[:, :width].tobytes()
        if scenario.name != "koenigs":
            assert max(p.degree for p in result.normal_form) < order

    @pytest.mark.parametrize("name, seed", [(name, 1) for name in builtin_names()]
                             + [("random_full", 7)])
    def test_verify_round_trip(self, name, seed, tmp_path, capsys):
        """The result rebuilt from report.json reproduces the stored checks
        byte for byte."""
        assert run_scenario(name, out_dir=str(tmp_path), seed=seed) == 0
        report = json.loads((tmp_path / "report.json").read_text())
        cocycle = OrbitCocycle.from_dict(report["cocycle"])
        ctx = cli._prepare_context(cocycle, report["config"])
        stored = report["result"]
        result = NormalFormResult.from_maps(
            [PolyMap.from_dict(d) for d in stored["conjugator"]],
            [PolyMap.from_dict(d) for d in stored["normal_form"]],
            ctx.spectrum, int(stored["order"]), stored["diagnostics"])
        checks, _ = run_checks(ctx, result, cocycle, report["config"])
        assert canonical_json(checks) == canonical_json(report["checks"])


class TestOneLoop:
    """A run solves the main cycle and the enabled checks' re-solves in one
    degree loop; run_checks handed a result solves the re-solves in one."""

    @pytest.mark.parametrize("name", builtin_names())
    def test_one_degree_loop_per_pass(self, name, tmp_path, monkeypatch):
        loops = []

        def counted(ctx, cycles, _fn=cli.solve_cycles):
            loops.append(len(cycles))
            return _fn(ctx, cycles)

        monkeypatch.setattr(cli, "solve_cycles", counted)
        assert run_scenario(name, out_dir=str(tmp_path)) == 0
        _, cocycle, config = resolve_config(name)
        ctx = cli._prepare_context(cocycle, config)
        result = solve_normal_form(ctx)
        run_checks(ctx, result, cocycle, config)
        assert loops == [3, 2]  # the run; the re-solves of run_checks
        overrides = [f"checks.{check}.enabled=false" for check in ("gauge", "oracle")]
        _, _, config = resolve_config(name, overrides=overrides)
        run_checks(ctx, result, cocycle, config)
        assert loops == [3, 2]  # nothing to re-solve, no loop

    @pytest.mark.parametrize("name", builtin_names())
    def test_checks_do_not_move_the_solve(self, name, tmp_path):
        reports = []
        for overrides in ([], ["checks.gauge.enabled=false", "checks.oracle.enabled=false"]):
            assert run_scenario(name, out_dir=str(tmp_path), overrides=overrides) == 0
            reports.append(json.loads((tmp_path / "report.json").read_text()))
        full, bare = reports
        assert full["result"] == bare["result"]
        assert [c for c in full["checks"] if c["name"] not in ("gauge", "oracle")] == \
            [c for c in bare["checks"] if c["name"] not in ("gauge", "oracle")]


class TestFailedQuantities:
    """A failing check names every quantity that broke its bound on stderr,
    with its value and the bound, one line each after the failed checks."""

    @staticmethod
    def failing_run(tmp_path, capsys, name, check, tol="-1"):
        code = main(["run", name, "--out-dir", str(tmp_path),
                     "--tol-override", f"checks.{check}.tol={tol}"])
        assert code == 1
        err = capsys.readouterr().err.splitlines()
        assert err[0] == f"{name}: failed checks: {check}"
        report = json.loads((tmp_path / "report.json").read_text())
        return err[1:], next(c["details"] for c in report["checks"] if c["name"] == check)

    @staticmethod
    def verify_tampered(koenigs_run, tmp_path, capsys, part, term, coefficient):
        """stderr of verify on the koenigs report with one coefficient replaced."""
        report = json.loads(json.dumps(koenigs_run[1]))
        report["result"][part][0]["terms"][term]["coefficient"] = coefficient
        (tmp_path / "report.json").write_text(json.dumps(report))
        assert main(["verify", "koenigs", "--out-dir", str(tmp_path)]) == 1
        return capsys.readouterr().err.splitlines()

    def test_residual(self, koenigs_run, tmp_path, capsys):
        top = koenigs_run[1]["result"]["conjugator"][0]["terms"][-1]["coefficient"]
        err = self.verify_tampered(koenigs_run, tmp_path, capsys, "conjugator", -1, top + 1e-3)
        lines = [line for line in err if line.startswith("residual:")]
        assert lines
        for line in lines:
            match = re.fullmatch(r"residual: degree \d+ max (\S+) > bound (\S+)", line)
            assert match and float(match[1]) > float(match[2])

    def test_oracle(self, tmp_path, capsys):
        lines, d = self.failing_run(tmp_path, capsys, "koenigs", "oracle")
        assert lines == [f"oracle: max_coefficient_gap {d['max_coefficient_gap']:.3g} > tol -1"]

    def test_sandwich(self, tmp_path, capsys):
        lines, d = self.failing_run(tmp_path, capsys, "koenigs", "sandwich")
        assert lines == [f"sandwich: max_violation {d['max_violation']:.3g} > tol -1"]

    @pytest.mark.parametrize("name, mode", [("resonant2", "recover"), ("koenigs", "unique")])
    def test_gauge(self, name, mode, tmp_path, capsys):
        lines, d = self.failing_run(tmp_path, capsys, name, "gauge")
        assert d["mode"] == mode
        assert lines == [f"gauge: {key} {d[key]:.3g} > tol -1"
                         for key in ("npart_max", "beyond_degree_max", "recovery_error")
                         if key in d]

    def test_centralizer(self, tmp_path, capsys):
        lines, d = self.failing_run(tmp_path, capsys, "koenigs", "centralizer")
        assert [run["power"] for run in d["powers"]] == [2, 3]
        assert lines == [f"centralizer: power {run['power']} {key} {run[key]:.3g} > tol -1"
                         for run in d["powers"]
                         for key in ("npart_max", "beyond_degree_max", "vs_normal_form_power")]

    def test_flag(self, koenigs_run, tmp_path, capsys):
        err = self.verify_tampered(koenigs_run, tmp_path, capsys, "normal_form", 0, float("nan"))
        assert "flag: max_below_flag nan > tol 1e-12" in err

    def test_chart(self, tmp_path, capsys):
        lines, d = self.failing_run(tmp_path, capsys, "koenigs", "chart", tol="1e-30")
        assert len(lines) == len(d["points"]) == 4
        assert lines == [f"chart: point {i} {key} {point[key]:.3g} > tol 1e-30"
                         for i, point in enumerate(d["points"])
                         for key in ("npart_max", "deviation_max") if point[key] > 1e-30]

    @pytest.mark.parametrize("command", ["run", "verify"])
    def test_stderr_lines_are_the_failures_of_run_checks(self, command, koenigs_run,
                                                         tmp_path, capsys, monkeypatch):
        """The lines after the failed checks are the broken limits that
        run_checks returns, and every failed check has at least one.  A run
        hands its re-solves to ``_run_checks``, which ``run_checks`` calls
        with its own."""
        returned = []

        def recorded(*args, _fn=cli._run_checks):
            returned.append(_fn(*args))
            return returned[-1]

        monkeypatch.setattr(cli, "_run_checks", recorded)
        if command == "run":
            # every check with a tol fails, the residual with its own bounds passes
            args = [arg for check in CHECK_ORDER[1:]
                    for arg in ("--tol-override", f"checks.{check}.tol=-1")]
            assert main(["run", "koenigs", "--out-dir", str(tmp_path)] + args) == 1
            err = capsys.readouterr().err.splitlines()
        else:
            err = self.verify_tampered(koenigs_run, tmp_path, capsys,
                                       "normal_form", 0, float("nan"))
        ((entries, failures),) = returned
        failed = [e["name"] for e in entries if e["enabled"] and not e["passed"]]
        assert err == [f"koenigs: failed checks: {', '.join(failed)}"] + failures
        assert [line.split(": ")[0] for line in failures] == sorted(
            (line.split(": ")[0] for line in failures), key=CHECK_ORDER.index)
        assert set(line.split(": ")[0] for line in failures) == set(failed)
        assert len(failed) == (6 if command == "run" else 4)


class TestPackageExports:
    def test_every_public_name_resolves(self):
        import orbitnf

        for name in orbitnf.__all__:
            assert getattr(orbitnf, name) is not None, name
        assert set(orbitnf.__all__) == set(orbitnf._ORIGIN) | {"__version__"}
