import errno
import gc
import inspect
import io
import json
import os
import re
import subprocess
import sys
import warnings
from dataclasses import fields, replace
from pathlib import Path
from typing import NamedTuple

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from dfscavity import cli, errors, gates
from dfscavity.cli import (
    DEFAULT_G,
    MAX_GRID_POINTS,
    ConfigError,
    ExperimentConfig,
    main,
    parse_config,
    run_experiment,
    serialize_config,
)

# experiments that run in milliseconds at any config drawn below
CHEAP_EXPERIMENTS = ("entangle", "bell", "cnot-verify", "stagger-sweep", "thermal",
                     "durations", "teleport")


def _floats(low, high):
    return st.floats(low, high, allow_nan=False, allow_infinity=False)


def _log_uniform():
    """Positive floats with a uniform decimal exponent, from the subnormal 1e-323 to 1e308."""
    return st.floats(-323.0, 308.0).map(lambda e: 10.0**e)


@st.composite
def cheap_configs(draw):
    """Random valid configs of the cheap experiments, teleport grids up to 6x6."""
    fractions = st.lists(_floats(0.0, 1.0), min_size=1, max_size=8).map(tuple)
    return ExperimentConfig(
        experiment=draw(st.sampled_from(CHEAP_EXPERIMENTS)),
        G=draw(_floats(1.0, 1e6)),
        delta=draw(st.none() | _floats(-1e7, -1.0) | _floats(1.0, 1e7)),
        omega_a=draw(st.none() | _floats(-10.0, 10.0)),
        n_max=draw(st.integers(4, 12)),
        theta=draw(_floats(-10.0, 10.0)),
        delay_T=draw(_floats(0.0, 10.0)),
        theta_points=draw(st.integers(1, 6)),
        delay_points=draw(st.integers(1, 6)),
        delay_max=draw(_floats(0.0, 10.0)),
        atom_splitting=draw(_floats(0.1, 5.0)),
        t1_fraction=draw(_floats(0.0, 1.0)),
        t1_fractions=draw(fractions),
        pulse_area=draw(_floats(0.0, 5.0)),
        nbar=draw(_floats(0.0, 10.0)),
        nbar_max=draw(_floats(0.0, 10.0)),
        nbar_points=draw(st.integers(2, 60)),
        delta_over_G=draw(st.lists(_floats(1.0, 100.0), min_size=1, max_size=3).map(tuple)),
        seed=draw(st.integers(0, 2**32 - 1)),
        format=draw(st.sampled_from(["json", "csv"])),
    )


class TestConfigParsing:
    def test_empty_text_with_experiment_gives_defaults(self):
        config = parse_config("", experiment="bell")
        assert config.experiment == "bell"
        assert config.G == DEFAULT_G
        assert config.resolved_delta() == pytest.approx(10 * DEFAULT_G)
        assert config.n_max == 8

    def test_negative_coupling_names_key(self):
        with pytest.raises(ConfigError, match="'G'"):
            parse_config("G = -1\n", experiment="bell")

    def test_unknown_key_names_key_and_line(self):
        with pytest.raises(ConfigError, match=r"'frobnicate'.*line 3"):
            parse_config("# comment\n\nfrobnicate = 1\n", experiment="bell")

    def test_non_finite_number_rejected(self):
        with pytest.raises(ConfigError, match="finite"):
            parse_config("G = inf\n", experiment="bell")

    def test_missing_experiment_rejected(self):
        with pytest.raises(ConfigError, match="experiment"):
            parse_config("G = 1.0\n")

    def test_duplicate_key_rejected(self):
        with pytest.raises(ConfigError, match="duplicate"):
            parse_config("nbar = 0.1\nnbar = 0.2\n", experiment="thermal")

    def test_comments_and_lists(self):
        text = """
        experiment = stagger-sweep   # inline comment
        t1_fractions = 0.0, 0.02, 0.1
        seed = 7
        """
        config = parse_config(text)
        assert config.experiment == "stagger-sweep"
        assert config.t1_fractions == (0.0, 0.02, 0.1)
        assert config.seed == 7

    @pytest.mark.parametrize("text,message", [
        ("G = 1.0\nfrobnicate\n", "expected 'key = value', got 'frobnicate' (line 2)"),
        ("G =\n", "key 'G': missing value (line 1)"),
        ("n_max = 2.5\n", "key 'n_max': not an integer: '2.5' (line 1)"),
    ])
    def test_malformed_line_message(self, text, message):
        with pytest.raises(ConfigError) as err:
            parse_config(text, experiment="bell")
        assert str(err.value) == message

    def test_round_trip_through_serialize(self):
        config = parse_config(
            "experiment = teleport\nG = 2.5e5\ntheta = 0.7\ndelta_over_G = 10,40\nseed = 3\n")
        again = parse_config(serialize_config(config))
        assert again == config

    def test_documented_sample_config_parses(self):
        sample = """
        # teleportation sweep at a stiffer detuning
        experiment = teleport
        G       = 2.9530971e5        # rad/s
        delta   = 5.9061942e6        # rad/s (10 G if omitted)
        n_max   = 8
        theta_points = 12
        delay_points = 8
        seed    = 7
        """
        config = parse_config(sample)
        assert config.experiment == "teleport"
        assert config.resolved_delta() == pytest.approx(5.9061942e6)
        assert parse_config(serialize_config(config)) == config

    def test_cli_positional_overrides_config_key(self):
        config = parse_config("experiment = bell\n", experiment="thermal")
        assert config.experiment == "thermal"

    def test_bad_experiment_name(self):
        with pytest.raises(ConfigError, match="unknown experiment"):
            parse_config("experiment = frobnicate\n")

    def test_float_that_does_not_parse_rejected(self):
        with pytest.raises(ConfigError, match=r"key 'G': not a number: 'abc' \(line 1\)"):
            parse_config("G = abc\n", experiment="entangle")

    def test_run_of_unknown_experiment_rejected(self):
        # parse_config rejects the name first; run_experiment checks it again for a config built by hand
        config = replace(parse_config("", experiment="bell"), experiment="frobnicate")
        with pytest.raises(ConfigError, match="unknown experiment 'frobnicate'"):
            run_experiment(config)


# one out-of-domain value per config key; a key without a domain check gets
# a value its parser rejects
OUT_OF_DOMAIN = {
    "experiment": "frobnicate",
    "G": "0",
    "delta": "0",
    "omega_a": "nan",
    "omega": "inf",
    "n_max": "3",
    "theta": "-inf",
    "delay_T": "-1",
    "delay_max": "-0.5",
    "theta_points": "0",
    "delay_points": "2.5",
    "atom_splitting": "nan",
    "t1_fraction": "1.5",
    "t1_fractions": "0.1, 1.5",
    "pulse_area": "-1",
    "nbar": "-0.1",
    "nbar_max": "-2",
    "nbar_points": "1",
    "delta_over_G": "10, 0",
    "seed": "-1",
    "format": "xml",
}


class TestConfigSchema:
    @pytest.mark.parametrize("key", [f.name for f in fields(ExperimentConfig)])
    def test_out_of_domain_value_names_key(self, key):
        experiment = None if key == "experiment" else "bell"
        with pytest.raises(ConfigError, match=f"key '{key}': "):
            parse_config(f"{key} = {OUT_OF_DOMAIN[key]}\n", experiment=experiment)

    @pytest.mark.parametrize("text,key", [("delay_max = -1\ntheta_points = 0\n", "delay_max"),
                                          ("G = 0\nn_max = 3\n", "G")])
    def test_first_bad_key_in_field_order_is_named(self, text, key):
        with pytest.raises(ConfigError, match=f"^key '{key}': "):
            parse_config(text, experiment="teleport")

    def test_every_field_carries_its_key_spec(self):
        for f in fields(ExperimentConfig):
            spec = f.metadata.get("key")
            assert isinstance(spec, cli._Key), f.name
            assert (spec.ok is None) == (spec.problem == ""), f.name

    def test_serialize_writes_keys_in_field_order(self):
        config = ExperimentConfig(experiment="teleport", delta=1e6)
        keys = [line.split(" = ")[0] for line in serialize_config(config).splitlines()]
        assert keys == [f.name for f in fields(config) if getattr(config, f.name) is not None]
        assert keys.index("delay_max") == keys.index("delay_T") + 1

    @pytest.mark.parametrize("value", ["0", "-1"])
    def test_non_positive_atom_splitting_rejected(self, value, tmp_path, capsys):
        # teleport divides by atom_splitting and delays by pi/atom_splitting
        with pytest.raises(ConfigError, match="key 'atom_splitting': must be > 0"):
            parse_config(f"atom_splitting = {value}\n", experiment="teleport")
        cfg = tmp_path / "split.cfg"
        cfg.write_text(f"atom_splitting = {value}\n")
        assert main(["teleport", "--config", str(cfg), "--out", str(tmp_path / "r.json")]) == 2
        assert "config error: key 'atom_splitting': " in capsys.readouterr().err
        assert not (tmp_path / "r.json").exists()

    @pytest.mark.parametrize("key,value", [("delta", "3e6"), ("omega_a", "7.0"), ("omega", "1e6")])
    def test_validate_effective_rejects_unused_frequency_keys(self, key, value, tmp_path, capsys):
        # the experiment sets delta = delta_over_G * G itself, so these keys would be ignored
        with pytest.raises(ConfigError, match=f"key '{key}': not used by validate-effective"):
            parse_config(f"{key} = {value}\n", experiment="validate-effective")
        cfg = tmp_path / "freq.cfg"
        cfg.write_text(f"{key} = {value}\n")
        assert main(["validate-effective", "--config", str(cfg),
                     "--out", str(tmp_path / "r.json")]) == 2
        assert f"config error: key '{key}': " in capsys.readouterr().err
        assert not (tmp_path / "r.json").exists()
        parse_config(f"{key} = {value}\n", experiment="durations")  # other experiments use them

    @pytest.mark.parametrize("key", ["t1_fractions", "delta_over_G"])
    @pytest.mark.parametrize("value", [",", ", ,"])
    def test_empty_list_rejected(self, key, value, tmp_path, capsys):
        # an empty list used to pass every entry check: a validate-effective
        # report with no runs and every flag true, or a stagger PASS with no rows
        experiment = "stagger-sweep" if key == "t1_fractions" else "validate-effective"
        with pytest.raises(ConfigError, match=f"^key '{key}': needs at least one entry"):
            parse_config(f"{key} = {value}\n", experiment=experiment)
        with pytest.raises(ConfigError, match=f"^key '{key}': needs at least one entry"):
            cli._check_config(replace(parse_config("", experiment=experiment), **{key: ()}))
        cfg = tmp_path / "empty.cfg"
        cfg.write_text(f"{key} = {value}\n")
        assert main([experiment, "--config", str(cfg), "--out", str(tmp_path / "r.json")]) == 2
        assert f"config error: key '{key}': needs at least one entry" in capsys.readouterr().err
        assert not (tmp_path / "r.json").exists()

    def test_out_key_rejected_as_unknown(self, tmp_path, capsys):
        # the report path is the --out flag's alone
        with pytest.raises(ConfigError, match=r"^unknown key 'out' \(line 1\)"):
            parse_config("out = report.json\n", experiment="bell")
        cfg = tmp_path / "out.cfg"
        cfg.write_text("out = report.json\n")
        assert main(["bell", "--config", str(cfg)]) == 2
        assert "config error: unknown key 'out'" in capsys.readouterr().err

    def test_teleport_grid_size_capped(self):
        # checked at parse time only: a grid at the cap is never allocated here
        assert MAX_GRID_POINTS == 10**6
        parse_config("theta_points = 1000\ndelay_points = 1000\n", experiment="teleport")
        with pytest.raises(ConfigError, match="'theta_points' x 'delay_points'.*1001000 points"):
            parse_config("theta_points = 1001\ndelay_points = 1000\n", experiment="teleport")

    def test_thermal_grid_size_capped(self):
        # checked at parse time only: no grid of that size is ever allocated here
        parse_config(f"nbar_points = {MAX_GRID_POINTS}\n", experiment="thermal")
        with pytest.raises(ConfigError, match=r"key 'nbar_points': must lie in \[2, 1000000\], got 1000001"):
            parse_config(f"nbar_points = {MAX_GRID_POINTS + 1}\n", experiment="thermal")

    def test_explicit_frequencies_must_match_delta(self):
        # the model reads delta only; omega_a and omega are echoed, so they must agree with it
        parse_config("delta = 10.0\nomega_a = 3.0\nomega = 8.0\n", experiment="durations")
        parse_config(f"omega_a = 0.5\nomega = {0.5 + 5 * DEFAULT_G}\n", experiment="bell")  # delta = 10 G
        with pytest.raises(ConfigError, match=r"keys 'omega_a' and 'omega': 2\*\(omega - omega_a\) = 12.0"):
            parse_config("delta = 10.0\nomega_a = 3.0\nomega = 9.0\n", experiment="durations")

    @pytest.mark.parametrize("experiment", cli.EXPERIMENTS)
    def test_inconsistent_frequencies_exit_two(self, experiment, tmp_path, capsys):
        cfg = tmp_path / "freq.cfg"
        cfg.write_text("omega_a = 7.0\nomega = 1.0\n")
        assert main([experiment, "--config", str(cfg), "--out", str(tmp_path / "r.json")]) == 2
        assert "config error: key" in capsys.readouterr().err
        assert not (tmp_path / "r.json").exists()

    def test_t1_fractions_default_holds_python_floats(self):
        # so every report's config echo carries plain leaves, equal to the linspace values
        default = ExperimentConfig().t1_fractions
        assert {type(v) for v in default} == {float}
        assert np.array_equal(default, np.linspace(0.0, 0.25, 50))

    def test_round_trip_with_every_key_off_default(self):
        config = ExperimentConfig(
            experiment="thermal", G=1.5e5, delta=-2.25e6, omega_a=0.5, omega=-1124999.5,
            n_max=12, theta=0.3, delay_T=1.25, theta_points=3, delay_points=4,
            delay_max=2.5, atom_splitting=0.7, t1_fraction=0.05, t1_fractions=(0.0, 0.5),
            pulse_area=0.9, nbar=0.25, nbar_max=3.0, nbar_points=5, delta_over_G=(15.0,),
            seed=11, format="csv")
        defaults = ExperimentConfig()
        assert all(getattr(config, f.name) != getattr(defaults, f.name) for f in fields(config))
        assert parse_config(serialize_config(config)) == config


class TestExperiments:
    def test_durations_reference_values(self):
        report = run_experiment(parse_config("", experiment="durations"))
        assert report.passed
        res = report.results
        assert res["entangle_time_s"] == pytest.approx(1.33e-5, rel=0.01)
        assert res["cnot_time_aggregate_s"] == pytest.approx(9.31e-5, rel=0.01)
        assert res["aggregate_minus_bottom_up_s"] == pytest.approx(
            res["entangle_time_s"], rel=1e-6)

    def test_cnot_verify_passes_with_convention_record(self):
        report = run_experiment(parse_config("", experiment="cnot-verify"))
        assert report.passed
        assert report.conventions["application_order"] == "listed_first_applied_first"
        assert report.conventions["p_sign"] == 1
        assert len(report.results["candidates"]) == 4
        assert sum(c["passed"] for c in report.results["candidates"]) == 2

    def test_cnot_verify_searches_the_conventions_once(self, monkeypatch):
        search = gates.convention_search
        calls = []

        def counting():
            calls.append(1)
            return search()

        # every namespace a caller looks the search up in
        monkeypatch.setattr(gates, "convention_search", counting)
        monkeypatch.setattr(cli, "convention_search", counting)
        report = run_experiment(parse_config("", experiment="cnot-verify"))
        assert report.passed
        assert len(calls) == 1

    def test_cnot_verify_builds_each_product_once(self, monkeypatch, fresh_gate_cache):
        # a process's first cnot-verify multiplies out each of the four candidates once and
        # lifts each of the seven distinct gates once; the search and the lifted gates are
        # per-process constants, so a second cnot-verify builds none of them again
        calls = dict.fromkeys(("sequence_unitary_atomic", "h_gate", "p_gate", "r_gate_atomic"), 0)

        def counting(name):
            original = getattr(gates, name)

            def wrapper(*args):
                calls[name] += 1
                return original(*args)
            return wrapper

        for name in calls:
            monkeypatch.setattr(gates, name, counting(name))
        assert run_experiment(parse_config("", experiment="cnot-verify")).passed
        assert calls == {"sequence_unitary_atomic": 4, "h_gate": 2, "p_gate": 4, "r_gate_atomic": 1}
        calls.update(dict.fromkeys(calls, 0))
        assert run_experiment(parse_config("", experiment="cnot-verify")).passed
        assert calls == dict.fromkeys(calls, 0)

    def test_cnot_verify_checks_each_truth_table_once(self, monkeypatch, fresh_gate_cache):
        # the chosen convention's report comes from the search, not from a second check
        check = gates.verify_truth_table
        calls = []

        def counting(u):
            calls.append(1)
            return check(u)

        monkeypatch.setattr(gates, "verify_truth_table", counting)
        monkeypatch.setattr(cli, "verify_truth_table", counting, raising=False)
        report = run_experiment(parse_config("", experiment="cnot-verify"))
        assert report.passed
        assert len(calls) == len(gates.convention_candidates())
        assert run_experiment(parse_config("", experiment="cnot-verify")).passed
        assert len(calls) == len(gates.convention_candidates())

    def test_durations_without_a_passing_convention_exits_1_without_a_report(
            self, monkeypatch, fresh_gate_cache, tmp_path, capsys):
        # P as the identity: every candidate keeps a unitary block and none passes, so the
        # durations have no convention to be reported under
        monkeypatch.setattr(gates, "p_gate", lambda sign=+1: np.eye(4, dtype=complex))
        out = tmp_path / "report.json"
        assert main(["durations", "--out", str(out)]) == 1
        assert not out.exists()
        assert main(["durations"]) == 1
        captured = capsys.readouterr()
        assert captured.out == ""
        lines = captured.err.splitlines()
        assert len(lines) == 2 and lines[0] == lines[1]
        prefix = "durations: error: no convention reproduces the CNOT truth table: "
        assert lines[0].startswith(prefix)
        assert lines[0].count("worst-case probability") == len(gates.convention_candidates())

    @pytest.mark.parametrize("broken, unitary", [("h_gate", False), ("p_gate", True)],
                             ids=["H-scaled-not-unitary", "P-identity-no-convention-passes"])
    def test_cnot_verify_reports_a_broken_gate_set(self, broken, unitary, monkeypatch,
                                                   fresh_gate_cache, tmp_path, capsys):
        # H scaled by 1.01 makes every logical block non-unitary (verify_truth_table raised
        # "operator is not unitary"); P as the identity keeps them unitary, and no convention
        # passes (_first_passing raised); either way the report is written and exits 1
        h = gates.h_gate()
        patched = {"h_gate": lambda: 1.01 * h,
                   "p_gate": lambda sign=+1: np.eye(4, dtype=complex)}[broken]
        monkeypatch.setattr(gates, broken, patched)
        out = tmp_path / "report.json"
        assert main(["cnot-verify", "--out", str(out)]) == 1
        assert capsys.readouterr().err.startswith("cnot-verify: FAIL in ")
        report = json.loads(out.read_text())
        assert report["passed"] is False
        assert report["flags"]["truth_table"] is False
        assert report["flags"]["unitary"] is unitary
        assert not any(c["passed"] for c in report["results"]["candidates"])
        # the first convention stands in for the one the search would have picked
        assert (report["conventions"]["application_order"], report["conventions"]["p_sign"]) == \
            ("listed_first_applied_first", 1)
        assert len(report["results"]["truth_table"]) == 4

    def test_bell_maps_each_label_to_itself(self):
        report = run_experiment(parse_config("", experiment="bell"))
        assert report.passed
        rows = report.results["discrimination"]
        assert len(rows) == 4
        for row in rows:
            assert row["input"] == row["observed"]
            assert row["probability"] >= 1 - 1e-12

    def test_entangle_passes(self):
        report = run_experiment(parse_config("", experiment="entangle"))
        assert report.passed
        amp = report.results["amplitudes"]["gege"]
        assert amp[1] == pytest.approx(-1 / np.sqrt(2), abs=1e-12)

    def test_teleport_grid_passes(self):
        config = parse_config("theta_points = 4\ndelay_points = 3\n", experiment="teleport")
        report = run_experiment(config)
        assert report.passed
        assert report.results["max_branch_deviation_from_1"] < 1e-10
        assert report.results["bare_comparison"]["fidelity"] < 1e-12

    def test_teleport_grid_is_one_call_per_dephasing_setting(self, monkeypatch):
        teleport = cli.teleport
        calls = []

        def counting(*args, **kwargs):
            calls.append(args)
            return teleport(*args, **kwargs)

        monkeypatch.setattr(cli, "teleport", counting)
        run_experiment(parse_config("theta_points = 6\ndelay_points = 5\n", experiment="teleport"))
        # the grid with delay and dephasing, the bare channel and the single run
        assert len(calls) == 3

    def test_stagger_sweep_passes_and_documents_bound(self):
        report = run_experiment(parse_config("", experiment="stagger-sweep"))
        assert report.passed
        ref = report.results["reference_point"]
        assert ref["fidelity_amplitude"] >= 0.98
        assert ref["fidelity_amplitude"] == pytest.approx(0.99861, abs=1e-5)
        assert report.results["closed_form_max_defect"] < 1e-12

    def test_stagger_sweep_flag_reads_along_increasing_fraction(self):
        # the same fractions in descending order: same flag, rows in config order
        report = run_experiment(parse_config("t1_fractions = 0.2, 0.1, 0.0\n", "stagger-sweep"))
        ascending = run_experiment(parse_config("t1_fractions = 0.0, 0.1, 0.2\n", "stagger-sweep"))
        assert report.flags["monotone_nonincreasing"] is True
        assert report.passed
        assert report.results["rows"] == ascending.results["rows"][::-1]

    def test_thermal_monotone(self):
        config = parse_config("nbar_points = 20\n", experiment="thermal")
        report = run_experiment(config)
        assert report.passed
        table = report.results["table"]
        assert table[0][1] == pytest.approx(1.0, abs=1e-12)

    def test_validate_effective_honest_failure_flags(self):
        config = parse_config("", experiment="validate-effective")
        report = run_experiment(config)
        flags = report.flags
        assert flags["unitarity_ok"]
        assert flags["normalization_ok"]
        assert flags["guard_levels_empty"]
        assert flags["difference_nonempty_as_recorded"]
        assert flags["derived_tracks_full_better"]
        assert flags["derived_infidelity_decreasing"]
        # the two claims the exact dynamics does not support
        assert not flags["fit_gate_passed"]
        assert not flags["pair_rabi_deviation_decreasing"]
        assert not report.passed

    def test_validate_effective_flags_independent_of_ratio_order(self):
        ascending = run_experiment(parse_config("delta_over_G = 10, 20, 40\n",
                                                experiment="validate-effective"))
        descending = run_experiment(parse_config("delta_over_G = 40, 20, 10\n",
                                                 experiment="validate-effective"))
        assert descending.flags == ascending.flags
        # the runs stay in config order
        assert [r["delta_over_G"] for r in descending.results["runs"]] == [40.0, 20.0, 10.0]


class TestDeterminism:
    def test_json_reports_byte_identical(self):
        config = parse_config("seed = 5\ntheta_points = 3\ndelay_points = 2\n",
                              experiment="teleport")
        first = run_experiment(config).to_json().encode()
        second = run_experiment(config).to_json().encode()
        assert first == second

    def test_csv_reports_byte_identical(self):
        config = parse_config("", experiment="stagger-sweep")
        first = run_experiment(config).to_csv().encode()
        second = run_experiment(config).to_csv().encode()
        assert first == second

    def test_json_is_sorted_and_clean(self):
        report = run_experiment(parse_config("", experiment="durations"))
        text = report.to_json()
        parsed = json.loads(text)
        assert list(parsed) == sorted(parsed)
        for line in text.splitlines():
            assert line == line.rstrip()

    def test_csv_uses_lf_and_header(self):
        report = run_experiment(parse_config("", experiment="stagger-sweep"))
        text = report.to_csv()
        assert "\r" not in text
        assert text.splitlines()[0] == "t1_fraction,fidelity_amplitude,fidelity_squared"

    def test_csv_quotes_cells_with_a_comma_a_quote_or_a_newline(self):
        report = cli.ExperimentReport(config={}, experiment="x", library_version="0",
                                      conventions={"note": "a,b"},
                                      results={"quote": 'say "hi"', "newline": "x\ny"}, flags={})
        assert report.to_csv() == ('key,value\nconventions.note,"a,b"\nexperiment,x\nlibrary_version,0\n'
                                   'passed,True\nresults.newline,"x\ny"\nresults.quote,"say ""hi"""\n')


class CliProcess(NamedTuple):
    returncode: int
    stderr: str     # -X importtime names every module the process loads
    report: Path


@pytest.fixture(scope="module")
def cli_processes(tmp_path_factory):
    """One fresh `python -X importtime -m dfscavity.cli <experiment> --out ...` process
    per experiment, all eight started at once."""
    out = tmp_path_factory.mktemp("cli-processes")
    src = str(Path(cli.__file__).resolve().parents[1])
    env = {**os.environ, "PYTHONPATH": os.pathsep.join(
        p for p in (src, os.environ.get("PYTHONPATH")) if p)}
    procs = {}
    try:
        for experiment in cli.EXPERIMENTS:
            with open(out / f"{experiment}.err", "w", encoding="utf-8") as err:
                procs[experiment] = subprocess.Popen(
                    [sys.executable, "-X", "importtime", "-m", "dfscavity.cli", experiment,
                     "--out", str(out / f"{experiment}.json")],
                    env=env, stdout=subprocess.DEVNULL, stderr=err)
        codes = {experiment: proc.wait(timeout=120) for experiment, proc in procs.items()}
    finally:
        for proc in procs.values():
            if proc.poll() is None:
                proc.kill()
                proc.wait()
    return {experiment: CliProcess(code, (out / f"{experiment}.err").read_text(encoding="utf-8"),
                                   out / f"{experiment}.json")
            for experiment, code in codes.items()}


class TestMainEntryPoint:
    def test_success_exit_zero_and_file_written(self, tmp_path, capsys):
        out = tmp_path / "report.json"
        code = main(["bell", "--out", str(out)])
        assert code == 0
        payload = json.loads(out.read_text())
        assert payload["passed"] is True
        assert payload["experiment"] == "bell"

    @pytest.mark.parametrize("experiment", cli.EXPERIMENTS)
    def test_stderr_is_the_status_line_alone(self, experiment, tmp_path, capsys):
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            main([experiment, "--out", str(tmp_path / "report.json")])
        assert re.fullmatch(rf"{experiment}: (PASS|FAIL) in \d+\.\d\d s\n", capsys.readouterr().err)

    @pytest.mark.parametrize("experiment", cli.EXPERIMENTS)
    def test_process_loads_validate_only_when_needed_and_never_numpy_ma(self, experiment, cli_processes):
        done = cli_processes[experiment]
        assert done.returncode == (1 if experiment == "validate-effective" else 0), done.stderr
        loaded = {line.rpartition("|")[2].strip() for line in done.stderr.splitlines()
                  if line.startswith("import time:")}
        assert "dfscavity.hilbert" in loaded
        assert ("dfscavity.validate" in loaded) == (experiment == "validate-effective")
        assert "numpy.ma" not in loaded
        # the seeded draws need no numpy.random, and so no secrets -> hashlib -> OpenSSL
        assert not loaded & {"numpy.random", "secrets", "_hashlib"}

    @pytest.mark.parametrize("experiment", cli.EXPERIMENTS)
    def test_process_writes_the_in_process_report(self, experiment, cli_processes):
        done = cli_processes[experiment]
        assert done.returncode == (1 if experiment == "validate-effective" else 0), done.stderr
        expected = run_experiment(parse_config("", experiment)).to_json()
        assert done.report.read_bytes() == expected.encode("utf-8")

    def test_main_leaves_the_collector_unfrozen(self, tmp_path, capsys):
        assert main(["bell", "--out", str(tmp_path / "r.json")]) == 0
        assert gc.get_freeze_count() == 0

    def test_exit_main_freezes_after_main_and_exits_with_its_status(self, monkeypatch):
        calls = []
        monkeypatch.setattr(cli, "main", lambda: calls.append("main") or 1)
        monkeypatch.setattr(gc, "freeze", lambda: calls.append("freeze"))
        with pytest.raises(SystemExit) as exit_info:
            cli.exit_main()
        assert exit_info.value.code == 1
        assert calls == ["main", "freeze"]

    def test_console_script_is_the_exit_function(self):
        tomllib = pytest.importorskip("tomllib")
        pyproject = Path(__file__).resolve().parents[1] / "pyproject.toml"
        scripts = tomllib.loads(pyproject.read_text(encoding="utf-8"))["project"]["scripts"]
        assert scripts == {"dfscavity": "dfscavity.cli:exit_main"}

    def test_config_error_exit_two(self, tmp_path, capsys):
        bad = tmp_path / "bad.cfg"
        bad.write_text("G = -1\n")
        code = main(["bell", "--config", str(bad)])
        assert code == 2
        assert "G" in capsys.readouterr().err

    @pytest.mark.parametrize("line,experiment", [
        ("G = 1e200", "entangle"),             # G**2 overflows
        ("G = 1e200", "durations"),
        ("G = 1e200", "validate-effective"),
        ("G = 1e-200", "entangle"),            # G**2 underflows to 0
        ("G = 1e-200", "durations"),
        ("G = 1e-200", "validate-effective"),
        ("delta = 1e-300", "entangle"),        # G**2/delta overflows
    ])
    def test_pair_rate_out_of_float_range_exit_two(self, line, experiment, tmp_path, capsys):
        cfg = tmp_path / "extreme.cfg"
        cfg.write_text(line + "\n")
        assert main([experiment, "--config", str(cfg)]) == 2
        captured = capsys.readouterr()
        keys = "'G' and 'delta_over_G'" if experiment == "validate-effective" else "'G' and 'delta'"
        assert captured.err.startswith(f"config error: keys {keys}: the pair rate")
        assert captured.out == ""

    @pytest.mark.parametrize("text,span", [
        ("G = 1e-100\ndelta_over_G = 1e210\n", "inf"),         # Omega(0) = 2e-310 is subnormal
        ("G = 1e100\ndelta_over_G = 1e-150\n", "4.712"),       # the squared times underflow
    ])
    def test_validate_effective_fit_span_out_of_float_range_exit_two(self, text, span, tmp_path, capsys):
        # the pair rate is finite and positive, but the Stark-phase fit cannot run on the grid
        cfg = tmp_path / "extreme.cfg"
        cfg.write_text(text)
        assert main(["validate-effective", "--config", str(cfg)]) == 2
        captured = capsys.readouterr()
        assert captured.err.startswith("config error: keys 'G' and 'delta_over_G': "
                                       f"the fit spans 3 pi/Omega(0) = {span}")
        assert captured.out == ""

    def test_validate_effective_unresolved_pair_splitting_exit_two(self, tmp_path, capsys):
        # eigh's eigenvalue error reaches the splitting 6 |Omega(0)|: the report used to carry a
        # transfer of 1.3e-31 and a fitted rate 141 times 3 Omega(0) with no diagnostic
        cfg, out = tmp_path / "extreme.cfg", tmp_path / "r.json"
        cfg.write_text("delta_over_G = 1e8\n")
        assert main(["validate-effective", "--config", str(cfg), "--out", str(out)]) == 2
        assert capsys.readouterr().err.startswith(
            "config error: keys 'G' and 'delta_over_G': the float resolution of the block energies")
        assert not out.exists()

    def test_durations_cnot_time_out_of_float_range_exit_two(self, tmp_path, capsys):
        # Omega(0) = 2e-310 is finite and positive, but 7 pi |delta|/(8 G^2) overflows
        cfg = tmp_path / "extreme.cfg"
        cfg.write_text("G = 1e-100\ndelta = 1e110\n")
        assert main(["durations", "--config", str(cfg)]) == 2
        captured = capsys.readouterr()
        assert captured.err == ("config error: keys 'G' and 'delta': the CNOT time "
                                "7 pi |delta|/(8 G^2) at G = 1e-100, delta = 1e+110 is inf, not finite\n")
        assert captured.out == ""

    def test_entangle_time_out_of_float_range_exit_two(self, tmp_path, capsys):
        # Omega(0) = 2e-310 is finite and positive, but pi |delta|/(8 G^2) overflows; the
        # report used to carry "duration_s": Infinity and a NaN defect (exit 1)
        cfg, out = tmp_path / "extreme.cfg", tmp_path / "r.json"
        cfg.write_text("G = 1e-100\ndelta = 1e110\n")
        assert main(["entangle", "--config", str(cfg), "--out", str(out)]) == 2
        assert capsys.readouterr().err == (
            "config error: keys 'G' and 'delta': the entangling time pi |delta|/(8 G^2) "
            "at G = 1e-100, delta = 1e+110 is inf, not finite\n")
        assert not out.exists()

    @pytest.mark.parametrize("text", [
        "delay_max = 1e300\natom_splitting = 1e10\n",  # the grid's phase: used to write NaN
        "atom_splitting = 1e-310\n",  # the bare comparison's delay pi/atom_splitting: a traceback
    ])
    def test_teleport_phase_out_of_float_range_exit_two(self, text, tmp_path, capsys):
        cfg, out = tmp_path / "extreme.cfg", tmp_path / "r.json"
        cfg.write_text(text)
        assert main(["teleport", "--config", str(cfg), "--out", str(out)]) == 2
        captured = capsys.readouterr()
        assert captured.err.startswith("config error: key 'atom_splitting': the phase "
                                       "atom_splitting * delay at atom_splitting = ")
        assert captured.err.endswith(" is not finite\n")
        assert not out.exists()

    @settings(derandomize=True, deadline=None, max_examples=50)
    @given(G=_log_uniform(), delta=_log_uniform(), sign=st.sampled_from((1.0, -1.0)),
           experiment=st.sampled_from(("entangle", "durations")))
    @example(G=1e-100, delta=1e110, sign=1.0, experiment="entangle")  # a subnormal Omega(0)
    def test_any_coupling_gives_a_finite_report_or_a_keyed_error(self, G, delta, sign, experiment):
        try:
            config = parse_config(f"G = {G!r}\ndelta = {sign * delta!r}\n", experiment=experiment)
        except ConfigError as err:
            assert str(err).startswith("keys 'G' and 'delta':")
            return
        text = run_experiment(config).to_json()
        assert "NaN" not in text and "Infinity" not in text

    def test_missing_config_file_exit_two(self, capsys):
        assert main(["bell", "--config", "/nonexistent/path.cfg"]) == 2

    def test_config_not_utf8_exit_two(self, tmp_path, capsys):
        cfg = tmp_path / "bad.cfg"
        cfg.write_bytes(b"G = 1\xff\n")
        out = tmp_path / "r.json"
        assert main(["entangle", "--config", str(cfg), "--out", str(out)]) == 2
        captured = capsys.readouterr()
        assert captured.err.startswith("config error: 'utf-8' codec can't decode byte 0xff")
        assert captured.out == ""
        assert not out.exists()

    def test_unwritable_out_path_exit_two(self, tmp_path, capsys):
        # exit 1 means "report still written"; here nothing could be written
        out = tmp_path / "missing" / "r.json"
        assert main(["bell", "--out", str(out)]) == 2
        captured = capsys.readouterr()
        assert captured.err.splitlines() == [f"output error: cannot write {str(out)!r}: "
                                             "No such file or directory"]
        assert captured.out == ""

    def test_unwritable_stdout_exit_two(self, capsys, monkeypatch):
        # a closed pipe: one stderr line and exit 2, as for an unwritable --out path
        class ClosedPipe(io.StringIO):
            def write(self, text):
                raise BrokenPipeError(errno.EPIPE, os.strerror(errno.EPIPE))

        with monkeypatch.context() as m:
            m.setattr(sys, "stdout", ClosedPipe())
            assert main(["bell"]) == 2
        assert capsys.readouterr().err.splitlines() == [
            "output error: cannot write to stdout: Broken pipe"]

    @pytest.mark.parametrize("fmt", ["json", "csv"])
    def test_out_file_holds_the_stdout_bytes(self, fmt, tmp_path, capsys):
        assert main(["stagger-sweep", "--format", fmt]) == 0
        printed = capsys.readouterr().out
        out = tmp_path / "r.txt"
        assert main(["stagger-sweep", "--format", fmt, "--out", str(out)]) == 0
        assert capsys.readouterr().out == ""
        assert out.read_bytes() == printed.encode("utf-8")

    def test_experiment_failure_exit_one_report_still_written(self, tmp_path, capsys):
        out = tmp_path / "validate.json"
        code = main(["validate-effective", "--out", str(out)])
        assert code == 1
        payload = json.loads(out.read_text())
        assert payload["passed"] is False
        assert payload["results"]["runs"][0]["fit_gate_fired"] is True

    def test_thermal_beyond_sector_cap_exits_zero(self, tmp_path, capsys):
        # the closed-form thermal average has no sector cap
        cfg = tmp_path / "hot.cfg"
        cfg.write_text("nbar = 100000\n")
        out = tmp_path / "thermal.json"
        assert main(["thermal", "--config", str(cfg), "--out", str(out)]) == 0
        nbar = 1e5
        payload = json.loads(out.read_text())
        assert payload["results"]["nbar"] == nbar
        assert payload["results"]["fidelity_at_nbar"] == pytest.approx((nbar + 1) / (2 * nbar + 1), abs=1e-12)

    @pytest.mark.parametrize("text", ["pulse_area = 0\nnbar = 1e16\n", "pulse_area = 0\nnbar_max = 1e17\n"])
    def test_thermal_at_area_zero_reports_one_for_any_nbar(self, text, tmp_path, capsys):
        # (nbar + 1) - nbar lost the 1 from nbar = 2^53 on: Infinity in the report and exit 0,
        # or every table row inf and exit 1
        cfg = tmp_path / "hot.cfg"
        cfg.write_text(text)
        out = tmp_path / "thermal.json"
        assert main(["thermal", "--config", str(cfg), "--out", str(out)]) == 0
        assert "Infinity" not in out.read_text()
        results = json.loads(out.read_text())["results"]
        assert results["fidelity_at_nbar"] == 1.0
        assert [fidelity for _, fidelity in results["table"]] == [1.0] * len(results["table"])

    def test_repeated_runs_byte_identical_on_disk(self, tmp_path, capsys):
        out1, out2 = tmp_path / "a.json", tmp_path / "b.json"
        assert main(["teleport", "--out", str(out1), "--seed", "9"]) == 0
        assert main(["teleport", "--out", str(out2), "--seed", "9"]) == 0
        assert out1.read_bytes() == out2.read_bytes()

    def test_seed_flag_overrides_config(self, tmp_path):
        cfg = tmp_path / "c.cfg"
        cfg.write_text("seed = 1\n")
        out = tmp_path / "r.json"
        main(["teleport", "--config", str(cfg), "--out", str(out), "--seed", "4"])
        payload = json.loads(out.read_text())
        assert payload["config"]["seed"] == 4


class TestReportProperties:
    @settings(derandomize=True, deadline=None, max_examples=30)
    @given(config=cheap_configs())
    def test_config_round_trips_through_serialize(self, config):
        assert parse_config(serialize_config(config)) == config

    @settings(derandomize=True, deadline=None, max_examples=30)
    @given(config=cheap_configs())
    def test_reports_byte_identical_across_runs(self, config):
        first, second = run_experiment(config), run_experiment(config)
        assert first.to_json().encode() == second.to_json().encode()
        assert first.to_csv().encode() == second.to_csv().encode()

    @pytest.mark.parametrize("experiment", cli.EXPERIMENTS)
    def test_default_report_holds_plain_json_types_only(self, experiment):
        # the runners hand `_native` numpy floats and bools at most, and it leaves
        # every other leaf as it is, so no array, numpy integer or complex arrives
        leaves = []

        def walk(path, obj):
            if type(obj) is dict:
                assert all(type(k) is str for k in obj), path
                for k, v in obj.items():
                    walk(f"{path}.{k}", v)
            elif type(obj) is list:
                for k, v in enumerate(obj):
                    walk(f"{path}.{k}", v)
            else:
                leaves.append((path, type(obj)))

        walk("", run_experiment(parse_config("", experiment=experiment)).to_dict())
        assert leaves
        assert [(path, t) for path, t in leaves if t not in (str, bool, int, float, type(None))] == []


def test_pulse_area_defaults_are_the_r_pulse():
    assert gates.R_PULSE_AREA == 3 * np.pi / 4
    assert ExperimentConfig().pulse_area is gates.R_PULSE_AREA
    for fn, name in ((errors.stagger_sweep, "pulse_area"),
                     (errors.fock_averaged_fidelity, "pulse_area_at_n0")):
        assert inspect.signature(fn).parameters[name].default is gates.R_PULSE_AREA
    assert not hasattr(errors, "DEFAULT_PULSE_AREA")
