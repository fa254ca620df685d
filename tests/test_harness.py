"""Config grammar, experiment registry, reports, and the command line."""

import json
import math
from dataclasses import fields

import numpy as np
import pytest

import qnlab.cli as cli
from qnlab import geometry, harness, sidon
from qnlab import parse_space
from qnlab.harness import (
    ExperimentConfig,
    list_experiments,
    parse_group,
    run,
    suite_names,
    write_report,
)
from qnlab.spaces import Polytope, Quadratic, RConvexAtoms, Schatten, WeightedLp

EXPERIMENTS = {entry["name"]: entry for entry in list_experiments()}


def _dim2_spaces(experiment: str) -> tuple[str, ...]:
    """The experiment's default spaces, at dim 2 instead of 3 (faster)."""
    return tuple(s.replace("dim=3", "dim=2") for s in EXPERIMENTS[experiment]["parameters"]["spaces"])


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
        assert str(parse_space(text)) == text

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
        assert str(sp) == "lp p=inf dim=2"

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
            experiment="sidon", spaces=("lp p=0.5 dim=2",), seed=3,
            trials=2, characters="all",
        )
        assert ExperimentConfig.from_dict(json.loads(json.dumps(cfg.to_dict()))) == cfg

    def test_unknown_keys_rejected(self):
        with pytest.raises(ValueError, match="unknown config keys"):
            ExperimentConfig.from_dict({"experiment": "volume", "bogus": 1})

    def test_string_spaces_rejected(self):
        # tuple() of a string is its characters: 'e' is not a space kind
        with pytest.raises(ValueError, match="spaces must be a list of space strings"):
            ExperimentConfig.from_dict({"experiment": "gamma2", "spaces": "euclidean dim=2"})

    def test_type_coercion(self):
        cfg = ExperimentConfig(experiment="volume", seed="5", dim="3")
        assert cfg.seed == 5 and cfg.dim == 3

    @pytest.mark.parametrize("value", [2.7, 1.5, True, False, math.inf, math.nan])
    @pytest.mark.parametrize("name", ["seed", "dim", "samples", "trials", "budget"])
    def test_non_integers_rejected(self, name, value):
        # int() would truncate these silently (2.7 to 2, True to 1)
        with pytest.raises(ValueError, match=f"{name} must be an integer"):
            ExperimentConfig.from_dict({"experiment": "suite:horn", name: value})

    @pytest.mark.parametrize("name", ["tolerance", "theta", "p"])
    def test_booleans_rejected_as_numbers(self, name):
        # float(True) is 1.0: a tolerance of true would pass every verdict
        with pytest.raises(ValueError, match=f"{name} must be a number"):
            ExperimentConfig.from_dict({"experiment": "volume", name: True})

    def test_integral_floats_accepted(self):
        cfg = ExperimentConfig(experiment="suite:horn", seed=3.0, trials=2.0)
        assert (cfg.seed, cfg.trials) == (3, 2)
        assert type(cfg.seed) is int and type(cfg.trials) is int

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
            ExperimentConfig(experiment="volume", seed=1, spaces=_dim2_spaces("volume"), samples=20_000),
            ExperimentConfig(experiment="ellipsoid", seed=1, spaces=_dim2_spaces("ellipsoid")),
            ExperimentConfig(experiment="typecotype", seed=1, spaces=_dim2_spaces("typecotype")),
            ExperimentConfig(experiment="gamma2", seed=1, spaces=_dim2_spaces("gamma2")),
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

    def test_parameter_the_experiment_does_not_declare_is_rejected(self):
        with pytest.raises(ValueError, match="suite:lemma11 does not read trials"):
            run(ExperimentConfig(experiment="suite:lemma11", trials=3))
        with pytest.raises(ValueError, match="volume does not read dim"):
            run(ExperimentConfig(experiment="volume", dim=2))
        with pytest.raises(ValueError, match="suite:theorem8 does not read budget"):
            run(ExperimentConfig(experiment="suite:theorem8", budget=2))
        with pytest.raises(ValueError, match="sidon takes at most one space"):
            run(ExperimentConfig(experiment="sidon", spaces=("euclidean dim=2", "lp p=1 dim=3")))

    def test_echo_holds_the_declared_parameters_that_ran(self):
        config = run(ExperimentConfig(experiment="suite:theorem6")).payload()["config"]
        assert config == {"experiment": "suite:theorem6", "seed": 0, "output": None, "budget": 4, "trials": 3}
        config = run(ExperimentConfig(experiment="suite:theorem15", trials=1)).payload()["config"]
        assert config["trials"] == 1 and config["samples"] is None  # samples are per case unless set

    @pytest.mark.parametrize("name", [name for name, e in EXPERIMENTS.items() if not e["observational"]])
    def test_echo_reruns_to_the_same_payload(self, name):
        # criterion 10 reruns the observational suites through their echo
        payload = run(ExperimentConfig(experiment=name)).payload()
        again = run(ExperimentConfig.from_dict(payload["config"])).payload()
        assert json.dumps(again, sort_keys=True) == json.dumps(payload, sort_keys=True)

    @pytest.mark.parametrize("name", list(EXPERIMENTS))
    def test_runner_reads_every_declared_parameter(self, name, monkeypatch):
        fn, *entry = harness._REGISTRY[name]
        reads = set()

        class Recorder:
            def __init__(self, config):
                self._config = config

            def __getattr__(self, attr):
                reads.add(attr)
                return getattr(self._config, attr)

        monkeypatch.setitem(harness._REGISTRY, name, (lambda config: fn(Recorder(config)), *entry))
        run(ExperimentConfig(experiment=name))
        assert set(EXPERIMENTS[name]["parameters"]) <= reads

    @pytest.mark.parametrize("group", ["3", "2,4"])
    def test_sidon_on_groups_that_are_not_sign_groups(self, group):
        report = run(ExperimentConfig(experiment="sidon", group=group))
        assert report.passed is True
        assert not any("sign averages" in v["name"] for v in report.verdicts)

    def test_seed_changes_monte_carlo_records(self):
        base = ExperimentConfig(experiment="volume", seed=1, spaces=_dim2_spaces("volume"), samples=20_000)
        other = ExperimentConfig(experiment="volume", seed=2, spaces=_dim2_spaces("volume"), samples=20_000)
        va = run(base).records[0]["mc_value"]
        vb = run(other).records[0]["mc_value"]
        assert va != vb


class TestExperimentLoops:
    def test_theorem6_records(self):
        report = run(ExperimentConfig(experiment="suite:theorem6", seed=17, trials=2, budget=2))
        assert report.records
        assert all(r["ratio"] >= 1 - 1e-9 for r in report.records)
        assert all("target_cotype2_certificate" in r for r in report.records)
        # pairs 0 and 2 have Euclidean targets, where gamma2(u) = ||u||
        round_targets = [r for r in report.records if r["pair"] in (0, 2)]
        assert round_targets and all(r["certified"] for r in round_targets)
        assert all(r["ratio"] == pytest.approx(1.0, abs=1e-12) for r in round_targets)

    def test_volume_samples_each_space_once(self, monkeypatch):
        calls = []
        sample = geometry._mc_volume

        def counted(space, rng, samples):
            calls.append(samples)
            return sample(space, rng, samples)

        monkeypatch.setattr(geometry, "_mc_volume", counted)
        spaces = ("lp p=0.5 dim=2", "atoms r=0.5 rows=1,0;0,1;1,1")
        report = run(ExperimentConfig(experiment="volume", spaces=spaces, samples=20_000))
        assert calls == [20_000, 20_000]
        assert [("exact_value" in r) for r in report.records] == [True, False]

    def test_theorem8_ratios(self):
        report = run(ExperimentConfig(experiment="suite:theorem8", seed=18, trials=2))
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
        calls, lps = [], []
        solve, lp = sidon.sidon_constant, sidon.linprog

        def counted(*args, **kwargs):
            calls.append(args)
            return solve(*args, **kwargs)

        def counted_lp(*args, **kwargs):
            lps.append(args)
            return lp(*args, **kwargs)

        monkeypatch.setattr(sidon, "sidon_constant", counted)
        monkeypatch.setattr(sidon, "linprog", counted_lp)
        report = run(ExperimentConfig(experiment="sidon", group="z2^3", characters="all"))
        assert report.passed is True
        assert len(calls) == 1
        assert len(lps) == 16  # one per orbit: 2^8 sign patterns over |W| = 16


class TestReports:
    def test_payload_is_json_serializable(self):
        report = run(ExperimentConfig(experiment="suite:lemma11", seed=0))
        text = report.to_json()
        data = json.loads(text)
        assert data["experiment"] == "suite:lemma11"
        assert data["schema_version"] == "1"
        assert isinstance(data["records"], list)

    def test_csv_flattening(self):
        report = run(ExperimentConfig(experiment="volume", seed=1, spaces=_dim2_spaces("volume"), samples=20_000))
        lines = report.to_csv().splitlines()
        assert len(lines) == 1 + len(report.records)
        assert "rel_error" in lines[0].split(",")

    def test_write_report_json_and_csv(self, tmp_path):
        report = run(ExperimentConfig(experiment="volume", seed=1, spaces=_dim2_spaces("volume"), samples=20_000))
        jpath = tmp_path / "out.json"
        cpath = tmp_path / "out.csv"
        write_report(report, str(jpath))
        write_report(report, str(cpath))
        assert json.loads(jpath.read_text())["experiment"] == "volume"
        assert cpath.read_text().startswith(report.to_csv().splitlines()[0])

    def test_non_finite_values_keep_their_sign(self):
        values = [-math.inf, math.inf, math.nan, np.float64(-math.inf)]
        assert harness._json_safe(values) == ["-inf", "inf", "nan", "-inf"]

    def test_run_writes_output_path(self, tmp_path):
        out = tmp_path / "report.json"
        run(ExperimentConfig(experiment="volume", seed=1, spaces=_dim2_spaces("volume"), samples=20_000,
                             output=str(out)))
        assert out.exists()


SCALAR_CONFIG_FIELDS = [
    f.name for f in fields(ExperimentConfig) if f.name not in ("experiment", "spaces")
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
        assert cli.main(["run", "volume", "--space", "lp p=0.5 dim=2", "--samples", "20000", "--seed", "1"]) == 0
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
        code = cli.main(["run", "volume", "--space", "lp p=0.5 dim=2", "--samples", "20000",
                         "--seed", "1", "--output", str(out)])
        assert code == 0
        assert json.loads(out.read_text())["experiment"] == "volume"
        capsys.readouterr()

    def test_config_file_overrides_flags(self, tmp_path, capsys):
        cfg_path = tmp_path / "cfg.json"
        cfg_path.write_text(json.dumps({"experiment": "volume", "spaces": list(_dim2_spaces("volume")),
                                        "samples": 20_000, "seed": 9}))
        out = tmp_path / "report.json"
        code = cli.main(["run", "volume", "--seed", "1", "--config", str(cfg_path),
                         "--output", str(out)])
        assert code == 0
        data = json.loads(out.read_text())
        assert data["config"]["seed"] == 9
        capsys.readouterr()

    def test_fractional_count_in_config_file_is_error(self, tmp_path, capsys):
        cfg_path = tmp_path / "cfg.json"
        cfg_path.write_text(json.dumps({"experiment": "suite:horn", "trials": 2.7, "seed": 1.9}))
        assert cli.main(["run", "suite:horn", "--config", str(cfg_path)]) == 2
        assert "must be an integer" in capsys.readouterr().err

    def test_string_spaces_in_config_file_is_error(self, tmp_path, capsys):
        cfg_path = tmp_path / "cfg.json"
        cfg_path.write_text(json.dumps({"experiment": "gamma2", "spaces": "euclidean dim=2"}))
        assert cli.main(["run", "gamma2", "--config", str(cfg_path)]) == 2
        assert "spaces must be a list of space strings" in capsys.readouterr().err

    def test_characters_flag_round_trips(self, tmp_path, capsys):
        out = tmp_path / "sidon.json"
        code = cli.main(["run", "sidon", "--seed", "1", "--characters", "all",
                         "--output", str(out)])
        assert code == 0
        data = json.loads(out.read_text())
        assert data["config"]["characters"] == "all"
        capsys.readouterr()

    def test_flag_the_experiment_does_not_read_is_error(self, capsys):
        code = cli.main(["suite:horn", "--trials", "2", "--theta", "3", "--p", "9", "--tolerance", "-1",
                         "--dim", "50", "--samples", "1", "--budget", "9", "--group", "2,2"])
        assert code == 2
        err = capsys.readouterr().err
        assert "does not read dim, samples, budget, tolerance, theta, p, group; it takes trials" in err

    def test_list_shows_parameters_and_defaults(self, capsys):
        assert cli.main(["list"]) == 0
        out = capsys.readouterr().out
        assert "parameters: budget=4, trials=3" in out
        assert "parameters: trials=2, samples=(derived)" in out
