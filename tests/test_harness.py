"""Config grammar, experiment registry, reports, and the command line."""

import json
import math
from dataclasses import fields

import numpy as np
import pytest

import qnlab.cli as cli
from qnlab import sidon
from qnlab.harness import (
    ExperimentConfig,
    format_space,
    list_experiments,
    parse_group,
    parse_space,
    run,
    suite_names,
    write_report,
)
from qnlab.spaces import Polytope, Quadratic, RConvexAtoms, Schatten, WeightedLp

ROUND_TRIP_TEXTS = [
    "euclidean dim=3",
    "lp p=0.5 dim=2",
    "lp p=1.0 weights=2.0,5.0",
    "lp p=inf weights=1.0,3.0",
    "schatten p=0.5 rows=2 cols=3",
    "quadratic matrix=2.0,0.1;0.1,0.3",
    "polytope vertices=1.0,1.0;1.0,-1.0;-1.0,1.0;-1.0,-1.0",
    "atoms r=0.5 rows=1.0,0.0;0.0,1.0",
]


class TestSpaceGrammar:
    @pytest.mark.parametrize("text", ROUND_TRIP_TEXTS)
    def test_text_round_trip(self, text):
        assert format_space(parse_space(text)) == text

    def test_parsed_types(self):
        assert isinstance(parse_space("euclidean dim=3"), WeightedLp)
        assert isinstance(parse_space("schatten p=1 rows=2 cols=2"), Schatten)
        assert isinstance(parse_space("quadratic matrix=2,0.5;0.5,1"), Quadratic)
        assert isinstance(parse_space("polytope vertices=1,0;-1,0;0,1;0,-1"), Polytope)
        assert isinstance(parse_space("atoms r=0.5 rows=1,0;0,1"), RConvexAtoms)

    def test_euclidean_equals_lp_two(self):
        a = parse_space("euclidean dim=2")
        assert a.is_euclidean
        assert a.gauge([3.0, 4.0]) == pytest.approx(5.0)

    def test_infinite_exponent_spelling(self):
        sp = parse_space("lp p=inf dim=2")
        assert math.isinf(sp.p)
        assert format_space(sp) == "lp p=inf dim=2"

    def test_parse_errors(self):
        with pytest.raises(ValueError):
            parse_space("hyperbolic dim=2")
        with pytest.raises(ValueError):
            parse_space("lp p=0.5")
        with pytest.raises(ValueError):
            parse_space("lp p=0.5 dim=2 bogus=1")
        with pytest.raises(ValueError):
            parse_space("")

    def test_group_grammar(self):
        assert parse_group("2,2,2").factors == (2, 2, 2)
        assert parse_group("z2^3").factors == (2, 2, 2)
        assert parse_group("3,2").factors == (3, 2)
        with pytest.raises(ValueError):
            parse_group("z3^2^2")


class TestExperimentConfig:
    def test_json_round_trip(self):
        cfg = ExperimentConfig(
            experiment="volume", spaces=("lp p=0.5 dim=2",), seed=3,
            samples=20_000, extra={"note": "x"},
        )
        assert ExperimentConfig.from_dict(json.loads(json.dumps(cfg.to_dict()))) == cfg

    def test_unknown_keys_rejected(self):
        with pytest.raises(ValueError, match="unknown config keys"):
            ExperimentConfig.from_dict({"experiment": "volume", "bogus": 1})

    def test_extra_must_be_json_serializable(self):
        with pytest.raises(TypeError):
            ExperimentConfig(experiment="volume", extra={"bad": object()})

    def test_type_coercion(self):
        cfg = ExperimentConfig(experiment="volume", seed="5", dim="3")
        assert cfg.seed == 5 and cfg.dim == 3

    @pytest.mark.parametrize("value", [0, -1])
    @pytest.mark.parametrize("name", ["dim", "samples", "trials", "budget"])
    def test_non_positive_counts_rejected(self, name, value):
        with pytest.raises(ValueError, match=f"{name} must be a positive integer"):
            ExperimentConfig(experiment="suite:horn", **{name: value})


class TestRegistryAndRuns:
    def test_registry_lists_documented_experiments(self):
        names = [entry["name"] for entry in list_experiments()]
        for required in ("volume", "ellipsoid", "interp", "typecotype", "gamma2", "sidon"):
            assert required in names
        assert set(suite_names()) <= set(names)
        for suite in ("suite:horn", "suite:lemma11", "suite:santalo", "suite:theorem6",
                      "suite:theorem8", "suite:theorem15", "suite:lemma1-exponent",
                      "suite:lemma5", "suite:weak-cotype2"):
            assert suite in names

    def test_unknown_experiment(self):
        with pytest.raises(ValueError, match="unknown experiment"):
            run(ExperimentConfig(experiment="nosuch"))

    @pytest.mark.parametrize(
        "config",
        [
            ExperimentConfig(experiment="volume", seed=1, dim=2, samples=20_000),
            ExperimentConfig(experiment="ellipsoid", seed=1, dim=2),
            ExperimentConfig(experiment="typecotype", seed=1, dim=2),
            ExperimentConfig(experiment="gamma2", seed=1, dim=2),
            ExperimentConfig(experiment="sidon", seed=1),
        ],
        ids=lambda c: c.experiment,
    )
    def test_verdict_experiments_pass(self, config):
        report = run(config)
        assert report.passed is True
        assert report.exit_code == 0
        assert len(report.verdicts) >= 1
        assert all(v["passed"] for v in report.verdicts)

    def test_interp_experiment_passes(self):
        report = run(ExperimentConfig(experiment="interp", seed=1, dim=3))
        assert report.passed is True
        assert all(v["passed"] for v in report.verdicts)

    def test_observational_suite_has_no_verdicts(self):
        report = run(ExperimentConfig(experiment="suite:theorem8", seed=0))
        assert report.passed is None
        assert report.verdicts == ()
        assert report.exit_code == 0
        assert "observational" in report.header
        assert "no numeric threshold" in report.header

    def test_deterministic_payload(self):
        cfg = ExperimentConfig(experiment="suite:lemma11", seed=2)
        a = json.dumps(run(cfg).payload(), sort_keys=True)
        b = json.dumps(run(cfg).payload(), sort_keys=True)
        assert a == b

    def test_seed_changes_monte_carlo_records(self):
        base = ExperimentConfig(experiment="volume", seed=1, dim=2, samples=20_000)
        other = ExperimentConfig(experiment="volume", seed=2, dim=2, samples=20_000)
        va = run(base).records[0]["mc_value"]
        vb = run(other).records[0]["mc_value"]
        assert va != vb


class TestExperimentLoops:
    def test_theorem6_records(self):
        report = run(ExperimentConfig(experiment="suite:theorem6", seed=17, trials=2, budget=2))
        assert report.records
        assert all(r["ratio"] >= 1 - 1e-9 for r in report.records)
        assert all("target_cotype2_certificate" in r for r in report.records)

    def test_theorem8_ratios(self):
        report = run(ExperimentConfig(experiment="suite:theorem8", seed=18, trials=2, budget=2))
        assert report.records
        assert all(r["ratio"] >= 1 - 1e-9 for r in report.records)

    def test_weak_cotype2_evaluation_counts(self):
        trials = 2
        report = run(ExperimentConfig(experiment="suite:weak-cotype2", seed=16, trials=trials))
        assert len(report.records) == 6
        for r in report.records:
            d = parse_space(r["space"]).dim
            assert r["evaluations"] == trials * (d + 2)
            assert r["profile"] > 0

    def test_gamma2_closed_form_needs_unit_coordinate_scales(self):
        spaces = ("lp p=0.5 dim=2", "lp p=0.5 weights=1.0,2.0", "lp p=1.0 dim=2")
        report = run(ExperimentConfig(experiment="gamma2", spaces=spaces, budget=2))
        assert report.passed is True
        closed = [v["name"] for v in report.verdicts if "closed form" in v["name"]]
        assert closed == ["envelope distance near closed form lp p=0.5 dim=2"]

    def test_sidon_solves_the_interpolation_sweep_once(self, monkeypatch):
        calls = []
        solve = sidon.sidon_constant

        def counted(*args, **kwargs):
            calls.append(args)
            return solve(*args, **kwargs)

        monkeypatch.setattr(sidon, "sidon_constant", counted)
        report = run(ExperimentConfig(experiment="sidon", group="z2^3", extra={"characters": "all"}))
        assert report.passed is True
        assert len(calls) == 1


class TestReports:
    def test_payload_is_json_serializable(self):
        report = run(ExperimentConfig(experiment="suite:lemma11", seed=0))
        text = report.to_json()
        data = json.loads(text)
        assert data["experiment"] == "suite:lemma11"
        assert data["schema_version"] == "1"
        assert isinstance(data["records"], list)

    def test_csv_flattening(self):
        report = run(ExperimentConfig(experiment="volume", seed=1, dim=2, samples=20_000))
        lines = report.to_csv().splitlines()
        assert len(lines) == 1 + len(report.records)
        assert "rel_error" in lines[0].split(",")

    def test_write_report_json_and_csv(self, tmp_path):
        report = run(ExperimentConfig(experiment="volume", seed=1, dim=2, samples=20_000))
        jpath = tmp_path / "out.json"
        cpath = tmp_path / "out.csv"
        write_report(report, str(jpath))
        write_report(report, str(cpath))
        assert json.loads(jpath.read_text())["experiment"] == "volume"
        assert cpath.read_text().startswith(report.to_csv().splitlines()[0])

    def test_run_writes_output_path(self, tmp_path):
        out = tmp_path / "report.json"
        run(ExperimentConfig(experiment="volume", seed=1, dim=2, samples=20_000, output=str(out)))
        assert out.exists()


SCALAR_CONFIG_FIELDS = [
    f.name for f in fields(ExperimentConfig) if f.name not in ("experiment", "spaces", "extra")
]


class TestCli:
    @pytest.mark.parametrize("name", SCALAR_CONFIG_FIELDS)
    def test_scalar_flag_reaches_config(self, name):
        # "7" parses as every scalar field type: int, float and string
        args = cli.build_parser().parse_args(["run", "volume", f"--{name}", "7"])
        config = cli._config_from_args(args, "volume")
        assert getattr(config, name) in (7, "7")

    def test_list(self, capsys):
        assert cli.main(["list"]) == 0
        out = capsys.readouterr().out
        assert "suite:lemma11" in out

    def test_run_experiment(self, capsys):
        assert cli.main(["run", "volume", "--dim", "2", "--samples", "20000", "--seed", "1"]) == 0
        out = capsys.readouterr().out
        assert "[pass]" in out
        assert "PASS" in out

    def test_direct_subcommand_matches_run(self, capsys):
        assert cli.main(["suite:lemma11", "--seed", "0"]) == 0
        out = capsys.readouterr().out
        assert "PASS" in out

    def test_unknown_experiment_is_error(self, capsys):
        assert cli.main(["run", "nosuch"]) == 2
        assert "unknown experiment" in capsys.readouterr().err

    def test_output_flag_writes_file(self, tmp_path, capsys):
        out = tmp_path / "vol.json"
        code = cli.main(["run", "volume", "--dim", "2", "--samples", "20000",
                         "--seed", "1", "--output", str(out)])
        assert code == 0
        assert json.loads(out.read_text())["experiment"] == "volume"
        capsys.readouterr()

    def test_config_file_overrides_flags(self, tmp_path, capsys):
        cfg_path = tmp_path / "cfg.json"
        cfg_path.write_text(json.dumps({"experiment": "volume", "dim": 2, "samples": 20_000, "seed": 9}))
        out = tmp_path / "report.json"
        code = cli.main(["run", "volume", "--seed", "1", "--config", str(cfg_path),
                         "--output", str(out)])
        assert code == 0
        data = json.loads(out.read_text())
        assert data["config"]["seed"] == 9
        capsys.readouterr()

    def test_extra_flag_round_trips(self, tmp_path, capsys):
        out = tmp_path / "sidon.json"
        code = cli.main(["run", "sidon", "--seed", "1", "--extra", "characters=coordinate",
                         "--output", str(out)])
        assert code == 0
        data = json.loads(out.read_text())
        assert data["config"]["extra"]["characters"] == "coordinate"
        capsys.readouterr()
