"""Tests for the experiment runner: configs, reports, exit codes, determinism."""

import csv
import io
import json
import math
import operator
import os
import subprocess
import sys
import textwrap
import warnings
from pathlib import Path

import numpy as np
import pytest

import oscimax
from oscimax import cli, operators
from oscimax.cli import (
    DEFAULTS,
    EXIT_CHECK_FAILURE,
    EXIT_NON_CONVERGENCE,
    EXIT_PASS,
    EXIT_USAGE,
    RUNNERS,
    build_parser,
    list_experiments,
    main,
)
from oscimax.operators import TimeGrid, maximal_over_times, oscillating_op
from oscimax.quadrature import fit_decay_exponent
from oscimax.symbols import CutoffProfile, SymbolParams
from oscimax.torus import LatticeGrid, random_spectral_field


class TestCatalog:
    def test_contains_all_experiments(self):
        text = list_experiments()
        assert len(RUNNERS) == 7
        for name in RUNNERS:
            assert name in text

    def test_defaults_roundtrip_through_config(self, tmp_path):
        """Every default config serializes to JSON and loads back unchanged."""
        for name, defaults in DEFAULTS.items():
            path = tmp_path / f"{name}.json"
            path.write_text(json.dumps(defaults))
            assert json.loads(path.read_text()) == defaults

    def test_every_config_key_has_a_typed_flag(self):
        parser = build_parser()
        for name, defaults in DEFAULTS.items():
            for key, value in defaults.items():
                args = parser.parse_args([name, f"--{key.replace('_', '-')}", str(value)])
                assert getattr(args, key) == value, (name, key)


class TestExitCodes:
    def test_partition_check_is_not_an_experiment(self, capsys):
        """The partition of unity is a proof device, checked in the symbol tests."""
        with pytest.raises(SystemExit) as exc:
            main(["partition-check"])
        assert exc.value.code == EXIT_USAGE
        assert "invalid choice: 'partition-check'" in capsys.readouterr().err

    def test_precondition_violation_is_usage_error(self, tmp_path):
        code = main(
            ["rate-combo", "--beta", "0.1", "--out", str(tmp_path / "o")]
        )
        assert code == EXIT_USAGE

    def test_unknown_config_key_is_usage_error(self, tmp_path):
        cfg = tmp_path / "bad.json"
        cfg.write_text(json.dumps({"bogus_key": 1}))
        code = main(
            ["rate-riesz", "--config", str(cfg), "--out", str(tmp_path / "o")]
        )
        assert code == EXIT_USAGE

    def test_inapplicable_flag_is_usage_error(self, tmp_path):
        code = main(
            ["rate-riesz", "--beta", "0.5", "--out", str(tmp_path / "o")]
        )
        assert code == EXIT_USAGE

    @pytest.mark.parametrize(
        "argv",
        [
            ["rate-riesz", "--slope-tol", "1"],
            ["dyadic-decay", "--min-order", "0"],
            ["atom-uniformity", "--max-ratio", "100"],
        ],
        ids=lambda argv: argv[1],
    )
    def test_retired_verdict_bound_flag_is_usage_error(self, tmp_path, capsys, argv):
        """Verdict bounds are fixed where each check is built, not user knobs."""
        out = tmp_path / "o"
        with pytest.raises(SystemExit) as exc:
            main([*argv, "--out", str(out)])
        assert exc.value.code == EXIT_USAGE
        assert f"unrecognized arguments: {argv[1]}" in capsys.readouterr().err
        assert not out.exists()

    @pytest.mark.parametrize(
        "argv, message",
        [
            (["--dimension", "4"], "dimension must be 1, 2 or 3, got 4"),
            (["--dimension", "2", "--n-modes", "10000000"], "10000000^2 lattice points exceed 16777216"),
            (["--dimension", "3", "--n-modes", "2048"], "2048^3 lattice points exceed 16777216"),
        ],
        ids=["dimension-4", "2d-1e7-modes", "3d-2048-modes"],
    )
    def test_lattice_out_of_range_is_usage_error(self, tmp_path, capsys, argv, message):
        """Refused before any array is allocated: no MemoryError traceback."""
        out = tmp_path / "o"
        assert main(["maximal-sweep", *argv, "--out", str(out)]) == EXIT_USAGE
        assert capsys.readouterr().err == f"invalid parameters: {message}\n"
        assert not out.exists()

    @pytest.mark.parametrize(
        "argv, message",
        [
            (["--mode", "0"], "mode 0 is the constant mode, which every Riesz mean leaves unchanged"),
            (["--k", "1e300"], "every error is 0: the Riesz mean of order k = 1e+300 is the identity to rounding"),
        ],
        ids=["mode-0", "k-1e300"],
    )
    def test_rate_riesz_without_an_error_names_its_cause(self, tmp_path, capsys, argv, message):
        """A sweep whose every error is exactly 0 is refused by the runner,
        not by the fit's "all moduli must be positive"."""
        out = tmp_path / "o"
        assert main(["rate-riesz", *argv, "--out", str(out)]) == EXIT_USAGE
        assert capsys.readouterr().err == f"invalid parameters: {message}\n"
        assert not out.exists()

    @pytest.mark.parametrize("alpha", ["1e-300", "0.0625"])
    def test_rate_combo_order_past_12_is_one_short_line(self, tmp_path, capsys, alpha):
        """beta/alpha is checked before floor(beta/alpha) + 1 is formed, so a
        tiny alpha does not print a 250-digit order."""
        out = tmp_path / "o"
        assert main(["rate-combo", "--alpha", alpha, "--out", str(out)]) == EXIT_USAGE
        err = capsys.readouterr().err
        assert err.startswith("invalid parameters: beta/alpha = ")
        assert err.endswith(" is too large for an order in [1, 12]\n")
        assert err.count("\n") == 1 and len(err) < 200
        assert not out.exists()

    def test_retired_verdict_bound_config_key_is_usage_error(self, tmp_path, capsys):
        cfg = tmp_path / "tol.json"
        cfg.write_text(json.dumps({"slope_tol": 0.2}))
        out = tmp_path / "o"
        assert main(["symbol-decay", "--config", str(cfg), "--out", str(out)]) == EXIT_USAGE
        assert "unknown config key 'slope_tol'" in capsys.readouterr().err
        assert not out.exists()

    @pytest.mark.parametrize(
        "experiment, loaded",
        [
            ("symbol-decay", {"alpha": "half"}),
            ("symbol-decay", {"n_samples": 12.0}),
            ("rate-riesz", {"n_modes": None}),
            ("rate-combo", {"seed": True}),
            ("symbol-decay", {"cutoff_kind": "bogus"}),
            ("rate-riesz", [1, 2]),
        ],
    )
    def test_bad_config_value_is_usage_error(self, tmp_path, capsys, experiment, loaded):
        cfg = tmp_path / "bad.json"
        cfg.write_text(json.dumps(loaded))
        out = tmp_path / "o"
        code = main([experiment, "--config", str(cfg), "--out", str(out)])
        assert code == EXIT_USAGE
        assert "config error" in capsys.readouterr().err
        assert not out.exists()

    @pytest.mark.parametrize(
        "experiment, key",
        [(name, key) for name, defaults in DEFAULTS.items()
         for key, value in defaults.items() if isinstance(value, float)],
    )
    def test_non_finite_value_is_usage_error(self, tmp_path, capsys, experiment, key):
        """nan, inf, -inf and an integer past the float range are refused for
        every float key, from a flag and from a JSON file (NaN, Infinity)
        alike, before the run: no report, no warning and no traceback."""
        out = tmp_path / "o"
        cfg = tmp_path / "c.json"
        for value in (math.nan, math.inf, -math.inf, 10**400):
            cfg.write_text(json.dumps({key: value}))
            for source in ([f"--{key.replace('_', '-')}={value}"], ["--config", str(cfg)]):
                with warnings.catch_warnings():
                    warnings.simplefilter("error")
                    assert main([experiment, *source, "--out", str(out)]) == EXIT_USAGE
                err = capsys.readouterr().err
                assert f"config key {key!r} has invalid value {value!r}" in err, source
                assert not out.exists()

    NONPOSITIVE_TIMES = [
        (["kernel-decay", "--t", "0"], "t must be positive"),
        (["rate-combo", "--t-lo=-1"], "config key 't_lo' must be positive"),
        (["rate-riesz", "--t-hi", "0"], "config key 't_hi' must be positive"),
    ]

    @pytest.mark.parametrize("argv, message", NONPOSITIVE_TIMES, ids=[argv[0] for argv, _ in NONPOSITIVE_TIMES])
    def test_nonpositive_time_is_refused_without_a_warning(self, tmp_path, capsys, argv, message):
        """The times are checked before anything divides by them or takes
        their logarithm; a window end by the config check, which names it."""
        out = tmp_path / "o"
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            assert main([*argv, "--out", str(out)]) == EXIT_USAGE
        assert message in capsys.readouterr().err
        assert not out.exists()

    def test_runtime_error_is_non_convergence(self, tmp_path, monkeypatch):
        def diverge(*args, **kwargs):
            raise RuntimeError("did not converge")

        monkeypatch.setattr(cli, "riesz_mean_op", diverge)
        code = main(["rate-riesz", "--out", str(tmp_path / "o")])
        assert code == EXIT_NON_CONVERGENCE

    @pytest.mark.parametrize("target", ["file", "file/sub"])
    def test_output_path_blocked_by_a_file_is_usage_error(self, tmp_path, capsys, target):
        (tmp_path / "file").write_text("not a directory")
        assert main(["rate-riesz", "--out", str(tmp_path / target)]) == EXIT_USAGE
        err = capsys.readouterr().err
        assert err.startswith("config error: ") and err.count("\n") == 1
        assert "Traceback" not in err
        assert (tmp_path / "file").read_text() == "not a directory"

    @pytest.mark.parametrize("blocked", ["rate-riesz.csv", "summary.json", "summary.txt"])
    def test_report_path_blocked_by_a_directory_is_usage_error(self, tmp_path, capsys, blocked):
        """The output directory exists, but one report file's name is taken
        by a directory: the run computes its verdict, then writes nothing."""
        out = tmp_path / "o"
        (out / blocked).mkdir(parents=True)
        argv = ["rate-riesz", "--n-modes", "16", "--mode", "3", "--n-samples", "5", "--out", str(out)]
        assert main(argv) == EXIT_USAGE
        err = capsys.readouterr().err
        assert err.count("\n") == 1 and "Traceback" not in err
        assert (out / blocked).is_dir()
        assert list(out.iterdir()) == [out / blocked]
        assert list((out / blocked).iterdir()) == []

    def test_config_file_for_another_experiment_is_usage_error(self, tmp_path, capsys):
        cfg = tmp_path / "combo.json"
        cfg.write_text(json.dumps({"experiment": "rate-combo", "alpha": 0.5, "beta": 0.75}))
        out = tmp_path / "new" / "o"
        assert main(["symbol-decay", "--config", str(cfg), "--out", str(out)]) == EXIT_USAGE
        err = capsys.readouterr().err
        assert err.startswith("config error: ") and err.count("\n") == 1
        assert "rate-combo" in err
        assert not (tmp_path / "new").exists()

    def test_config_file_naming_its_own_experiment_runs(self, tmp_path):
        cfg = tmp_path / "riesz.json"
        cfg.write_text(json.dumps({"experiment": "rate-riesz", "n_modes": 16, "mode": 3}))
        out = tmp_path / "o"
        assert main(["rate-riesz", "--config", str(cfg), "--out", str(out)]) == EXIT_PASS
        assert json.loads((out / "summary.json").read_text())["config"]["mode"] == 3

    def test_failed_run_removes_the_directories_it_created(self, tmp_path):
        out = tmp_path / "new" / "o"
        argv = ["symbol-decay", "--alpha", "0.75", "--tau-lo", "1e-3", "--out", str(out)]
        assert main(argv) == EXIT_NON_CONVERGENCE
        assert not (tmp_path / "new").exists()
        assert tmp_path.is_dir()

    def test_failed_run_keeps_an_existing_directory(self, tmp_path, monkeypatch):
        def reject(*args, **kwargs):
            raise ValueError("bad parameters")

        monkeypatch.setattr(cli, "riesz_mean_op", reject)
        out = tmp_path / "o"
        out.mkdir()
        (out / "keep.txt").write_text("earlier run")
        assert main(["rate-riesz", "--out", str(out)]) == EXIT_USAGE
        assert sorted(p.name for p in out.iterdir()) == ["keep.txt"]
        assert (out / "keep.txt").read_text() == "earlier run"

    def test_failed_fit_writes_no_report_into_an_existing_directory(self, tmp_path):
        """Three samples are too few to fit: the run stops before its CSV."""
        out = tmp_path / "o"
        out.mkdir()
        assert main(["rate-riesz", "--n-samples", "3", "--out", str(out)]) == EXIT_USAGE
        assert list(out.iterdir()) == []

    def test_fractional_value_for_an_integer_key_is_usage_error(self, tmp_path, capsys):
        """dyadic-decay's k is an integer, although rate-riesz's k is a float."""
        cfg = tmp_path / "k.json"
        cfg.write_text(json.dumps({"k": 6.5}))
        for source in (["--k", "6.5"], ["--config", str(cfg)]):
            out = tmp_path / "new" / "o"
            assert main(["dyadic-decay", *source, "--out", str(out)]) == EXIT_USAGE
            assert capsys.readouterr().err == "config error: config key 'k' has invalid value 6.5\n"
            assert not (tmp_path / "new").exists()

    def test_integer_flag_for_a_float_key_stays_a_float(self, tmp_path):
        out = tmp_path / "o"
        argv = ["rate-riesz", "--k", "1", "--n-modes", "16", "--out", str(out)]
        assert main(argv) == EXIT_PASS
        config = json.loads((out / "summary.json").read_text())["config"]
        assert config["k"] == 1.0 and isinstance(config["k"], float)
        assert isinstance(config["n_modes"], int)

    def test_atom_ball_too_small_for_its_moments_is_usage_error(self, tmp_path, capsys):
        out = tmp_path / "o"
        argv = ["atom-uniformity", "--p", "0.1", "--n-modes", "256", "--atom-count", "3"]
        assert main([*argv, "--out", str(out)]) == EXIT_USAGE
        assert "too few to cancel the 10 monomials" in capsys.readouterr().err
        assert not out.exists()

    @pytest.mark.parametrize(
        "p, message",
        [
            ("1e-3", "too few to cancel the 1000 monomials of degree <= 999"),
            ("1e-300", "too few to cancel the 1e+300 monomials"),
            ("5e-324", "p = 4.941e-324 asks to cancel moments of every degree"),
        ],
    )
    def test_tiny_p_is_usage_error_without_a_warning(self, tmp_path, capsys, p, message):
        """The monomials are counted before any is built, and a degree that
        overflows is refused: no endless run, traceback or RuntimeWarning."""
        out = tmp_path / "o"
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            assert main(["atom-uniformity", "--p", p, "--out", str(out)]) == EXIT_USAGE
        assert message in capsys.readouterr().err
        assert not out.exists()

    @pytest.mark.parametrize("experiment", ["symbol-decay", "kernel-decay", "dyadic-decay"])
    def test_cutoff_order_past_the_float_range_is_usage_error(self, tmp_path, capsys, experiment):
        """The ramp's coefficient C(2n, n) overflows a float from n = 515."""
        out = tmp_path / "o"
        for order in ("515", "100000"):
            assert main([experiment, "--cutoff-order", order, "--out", str(out)]) == EXIT_USAGE
            assert "overflow a float" in capsys.readouterr().err
        assert not out.exists()

    def test_zero_atoms_is_usage_error(self, tmp_path, capsys):
        out = tmp_path / "o"
        assert main(["atom-uniformity", "--atom-count", "0", "--out", str(out)]) == EXIT_USAGE
        assert capsys.readouterr().err == "invalid parameters: atom_count must be >= 1, got 0\n"
        assert not out.exists()

    @pytest.mark.parametrize("span", ["0", "-3"])
    def test_nonpositive_span_octaves_is_usage_error(self, tmp_path, capsys, span):
        out = tmp_path / "o"
        argv = ["maximal-sweep", "--n-modes", "64", "--span-octaves", span, "--out", str(out)]
        assert main(argv) == EXIT_USAGE
        assert "span_octaves must be positive" in capsys.readouterr().err
        assert not out.exists()

    def test_too_few_rate_samples_is_usage_error(self, tmp_path, capsys):
        """No times left nothing to fit, nor a time range to report."""
        out = tmp_path / "new" / "o"
        assert main(["rate-combo", "--n-samples", "0", "--out", str(out)]) == EXIT_USAGE
        err = capsys.readouterr().err
        assert err == "config error: config key 'n_samples' must be at least 5 to fit a power law, got 0\n"
        assert not (tmp_path / "new").exists()

    OUT_OF_RANGE = [
        (["rate-riesz", "--n-samples", "0"], "config error: config key 'n_samples' must be at least 5"),
        (["symbol-decay", "--n-samples", "0"], "config error: config key 'n_samples' must be at least 5"),
        (["kernel-decay", "--n-samples", "0"], "config error: config key 'n_samples' must be at least 5"),
        (["symbol-decay", "--n-samples", "-2"], "config error: config key 'n_samples' must be at least 5"),
        (["kernel-decay", "--ratio-hi", "0"], "config error: config key 'ratio_hi' must be positive"),
        (["kernel-decay", "--ratio-lo", "-0.5", "--ratio-hi", "-0.05"], "config error: config key 'ratio_lo' must be positive"),
        # numpy's "Geometric sequence cannot include zero", and for a
        # negative end a panel budget of nan reported as non-convergence
        (["dyadic-decay", "--tau-lo", "0"], "config error: config key 'tau_lo' must be positive"),
        (["dyadic-decay", "--tau-hi", "0"], "config error: config key 'tau_hi' must be positive"),
        (["dyadic-decay", "--tau-lo", "-1"], "config error: config key 'tau_lo' must be positive"),
        # sigma * 2^-2000 underflows to 0
        (["maximal-sweep", "--span-octaves", "2000"], "invalid parameters: span_octaves = 2000.0 puts the first time"),
    ]

    @pytest.mark.parametrize("argv, message", OUT_OF_RANGE, ids=[" ".join(argv) for argv, _ in OUT_OF_RANGE])
    def test_out_of_range_value_names_its_key(self, tmp_path, capsys, argv, message):
        """Each is refused with one line that names the key, not with a
        numpy message or a wrong cause, and before any report."""
        out = tmp_path / "o"
        assert main([*argv, "--out", str(out)]) == EXIT_USAGE
        err = capsys.readouterr().err
        assert err.startswith(message) and err.count("\n") == 1, err
        assert not out.exists()

    @pytest.mark.parametrize("experiment", ["maximal-sweep", "rate-combo"])
    def test_negative_band_limit_is_usage_error(self, tmp_path, capsys, experiment):
        """A negative band limit zeroes the field, whose checks then pass vacuously."""
        out = tmp_path / "o"
        argv = [experiment, "--n-modes", "16", "--band-limit", "-1", "--out", str(out)]
        assert main(argv) == EXIT_USAGE
        assert "band_limit must be nonnegative" in capsys.readouterr().err
        assert not out.exists()

    def test_rate_of_a_constant_field_is_usage_error(self, tmp_path, capsys):
        """At band limit 0 the combination reproduces the field exactly:
        every error is exactly zero, so there is no rate to fit."""
        out = tmp_path / "new" / "o"
        assert main(["rate-combo", "--band-limit", "0", "--out", str(out)]) == EXIT_USAGE
        assert "need at least 5 samples above the floor" in capsys.readouterr().err
        assert not (tmp_path / "new").exists()

    @pytest.mark.parametrize(
        "argv",
        [["--band-limit", "0"], ["--band-limit", "2"], ["--sigma", "0.01", "--n-modes", "64"]],
        ids=["band-0", "band-2", "sigma-0.01"],
    )
    def test_field_below_the_symbol_band_is_usage_error(self, tmp_path, capsys, monkeypatch, argv):
        """mu(t|xi|) vanishes wherever t|xi| <= 1, and every time is at most
        sigma: the maximal function would be 0 everywhere."""

        def transform(*args):
            raise AssertionError("transform run for a rejected field")

        monkeypatch.setattr(operators, "inverse_transform", transform)
        out = tmp_path / "new" / "o"
        assert main(["maximal-sweep", *argv, "--out", str(out)]) == EXIT_USAGE
        assert "the symbol vanishes on every mode" in capsys.readouterr().err
        assert not (tmp_path / "new").exists()

    def test_field_just_above_the_symbol_band_runs(self, tmp_path):
        """At band limit 3 the top modes reach sigma |xi| = 1.5."""
        out = tmp_path / "o"
        assert main(["maximal-sweep", "--band-limit", "3", "--out", str(out)]) == EXIT_PASS
        assert json.loads((out / "summary.json").read_text())["sup_maximal"] > 0.0

    def test_p_outside_unit_interval_is_usage_error(self, tmp_path, capsys):
        """At p = 2 the threshold n alpha (1/p - 1/2) drops to 0 and admits any beta."""
        out = tmp_path / "o"
        assert main(["rate-combo", "--p", "2", "--out", str(out)]) == EXIT_USAGE
        assert capsys.readouterr().err == "invalid parameters: p must lie in (0, 1), got 2.0\n"
        assert not out.exists()

    def test_alpha_zero_is_usage_error(self, tmp_path, capsys):
        """The predicted rate beta/alpha and the default order need alpha > 0."""
        out = tmp_path / "o"
        assert main(["rate-combo", "--alpha", "0", "--out", str(out)]) == EXIT_USAGE
        assert capsys.readouterr().err == "invalid parameters: alpha must lie in (0, 1), got 0.0\n"
        assert not out.exists()

    @pytest.mark.parametrize("alpha", ["-1", "0", "1.5"])
    def test_riesz_alpha_outside_unit_interval_is_usage_error(self, tmp_path, capsys, alpha):
        """rate-riesz takes its alpha from the one check every other alpha
        meets: refused before lam**alpha divides by zero, with one line, no
        warning and no report."""
        out = tmp_path / "o"
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            assert main(["rate-riesz", "--alpha", alpha, "--out", str(out)]) == EXIT_USAGE
        err = capsys.readouterr().err
        assert err == f"invalid parameters: alpha must lie in (0, 1), got {float(alpha)}\n"
        assert not out.exists()

    @pytest.mark.parametrize(
        "m_cap, summed", [("1000000000000", 2 * 10**12), ("8388609", 2**24 + 2), ("0", 0)]
    )
    def test_m_cap_outside_lattice_range_is_usage_error(
        self, tmp_path, capsys, monkeypatch, m_cap, summed
    ):
        """The runner sums at 2 m_cap, and that sweep runs first: a cap whose
        double lies outside [1, 2^24] stops before any weights are built."""

        def build(*args):
            raise AssertionError("weights built for a rejected m_cap")

        monkeypatch.setattr(operators, "_lattice_weights", build)
        out = tmp_path / "o"
        assert main(["kernel-decay", "--m-cap", m_cap, "--out", str(out)]) == EXIT_USAGE
        err = capsys.readouterr().err
        assert err == f"invalid parameters: M_cap must lie in [1, 16777216], got {summed}\n"
        assert not out.exists()

    def test_panel_budget_is_non_convergence(self, tmp_path, capsys):
        """At alpha = 0.75 the minus-phase segment at tau = 1e-3 would need
        about 8e7 panels: the run stops before allocating them."""
        out = tmp_path / "o"
        argv = ["symbol-decay", "--alpha", "0.75", "--tau-lo", "1e-3", "--out", str(out)]
        assert main(argv) == EXIT_NON_CONVERGENCE
        err = capsys.readouterr().err
        assert err.startswith("numeric non-convergence: panel budget exceeded")
        assert err.count("\n") == 1

    @pytest.mark.parametrize(
        "flags,interval",
        [
            # the minus phase's stationary point lam* overflows: its segment
            (["symbol-decay", "--tau-lo", "1e-300"], "[1, inf]"),
            # the plus ray's decay scale (300 / sin(alpha pi/2))^(1/alpha) does
            (["symbol-decay", "--alpha", "1e-9"], "[0, inf]"),
            # 2^1024 overflows: the dyadic band's upper end
            (["dyadic-decay", "--k", "1023"], "[4.49423e+307, inf]"),
            # and from k = 1024 its scale itself
            (["dyadic-decay", "--k", "1100"], "[inf, inf]"),
        ],
    )
    def test_unbounded_interval_is_over_budget(self, tmp_path, capsys, flags, interval):
        """An interval whose end overflows is refused as over the panel
        budget, named in the message, without a traceback or a
        RuntimeWarning."""
        out = tmp_path / "o"
        with warnings.catch_warnings(record=True) as caught:
            warnings.simplefilter("always")
            assert main([*flags, "--out", str(out)]) == EXIT_NON_CONVERGENCE
        assert [str(w.message) for w in caught if issubclass(w.category, RuntimeWarning)] == []
        assert capsys.readouterr().err == (
            "numeric non-convergence: panel budget exceeded: inf panels needed on "
            f"{interval} (max_panels 2000000)\n"
        )
        assert not out.exists()


# Configs whose verdict must fail, one per experiment whose verdict can fail
# along the axis it claims to test, each with the verdict of every check.
# No entry yet: symbol-decay, dyadic-decay, rate-riesz, atom-uniformity (its
# ratio passes at beta = 0.25 and at beta = 2) and maximal-sweep (its
# monotone check holds by construction).
NEGATIVE_CONTROLS = [
    # N = 1 cancels no moment: the error falls like t, below the rate beta/alpha
    (["rate-combo", "--N", "1"], {"rate": False}),
    # x/t in [0.05, 1] is pre-asymptotic: the fitted slope is near -1, not
    # -1/2, and doubling m_cap does not move it
    (
        ["kernel-decay", "--m-cap", "20000", "--n-samples", "6"],
        {"slope": False, "m_cap_doubling_delta": True},
    ),
]


# The positive counterpart of the rate-combo control: at orders N = 7 and 9
# the errors fall like t^N (to 1.5e-30 at N = 9), and the fitted slope is N.
POSITIVE_CONTROLS = [(["rate-combo", "--beta", "3"], 7), (["rate-combo", "--beta", "4"], 9)]


class TestPositiveControls:
    @pytest.mark.parametrize("argv, order", POSITIVE_CONTROLS, ids=["beta-3", "beta-4"])
    def test_high_order_rate_passes(self, tmp_path, argv, order):
        out = tmp_path / "o"
        assert main([*argv, "--out", str(out)]) == EXIT_PASS
        body = json.loads((out / "summary.json").read_text())
        assert body["fitted"]["slope"] == pytest.approx(order, abs=0.01)
        assert body["fitted"]["sample_count"] == DEFAULTS["rate-combo"]["n_samples"]


class TestNegativeControls:
    @pytest.mark.parametrize(
        "argv, verdicts", NEGATIVE_CONTROLS, ids=[argv[0] for argv, _ in NEGATIVE_CONTROLS]
    )
    def test_verdict_fails(self, tmp_path, argv, verdicts):
        out = tmp_path / "o"
        assert main([*argv, "--out", str(out)]) == EXIT_CHECK_FAILURE
        body = json.loads((out / "summary.json").read_text())
        assert body["pass"] is False
        assert {c["name"]: c["pass"] for c in body["checks"]} == verdicts


class TestReports:
    def test_report_files_written(self, tmp_path):
        out = tmp_path / "rpt"
        code = main(["rate-riesz", "--out", str(out)])
        assert code == EXIT_PASS
        assert (out / "rate-riesz.csv").exists()
        assert (out / "summary.json").exists()
        assert (out / "summary.txt").exists()
        body = json.loads((out / "summary.json").read_text())
        assert body["experiment"] == "rate-riesz"
        assert body["pass"] is True
        # full resolved config embedded
        for key in DEFAULTS["rate-riesz"]:
            assert key in body["config"]

    def test_csv_header(self, tmp_path):
        out = tmp_path / "rpt"
        main(["rate-riesz", "--out", str(out)])
        first = (out / "rate-riesz.csv").read_text().splitlines()[0]
        assert first == "t,error"

    def test_flag_overrides_config_file(self, tmp_path):
        cfg = tmp_path / "cfg.json"
        cfg.write_text(json.dumps({"mode": 5}))
        out = tmp_path / "rpt"
        main(["rate-riesz", "--config", str(cfg), "--mode", "9", "--out", str(out)])
        body = json.loads((out / "summary.json").read_text())
        assert body["config"]["mode"] == 9

    def test_file_and_flag_give_the_same_report(self, tmp_path):
        """An integer for a float key reads as a float from either source."""
        cfg = tmp_path / "cfg.json"
        cfg.write_text(json.dumps({"tau_hi": 1}))
        common = ["symbol-decay", "--tau-lo", "0.1", "--n-samples", "5", "--out"]
        code = main([*common, str(tmp_path / "file"), "--config", str(cfg)])
        assert main([*common, str(tmp_path / "flag"), "--tau-hi", "1"]) == code
        from_file = (tmp_path / "file" / "summary.json").read_bytes()
        assert from_file == (tmp_path / "flag" / "summary.json").read_bytes()
        assert b'"tau_hi": 1.0,' in from_file

    def test_rate_combo_fits_the_configured_times(self, tmp_path):
        out = tmp_path / "rpt"
        code = main(["rate-combo", "--t-lo", "1e-3", "--n-samples", "12", "--out", str(out)])
        assert code == EXIT_PASS
        fitted = json.loads((out / "summary.json").read_text())["fitted"]
        assert fitted["tau_range"] == [1e-3, 1e-2]
        assert fitted["sample_count"] == 12
        assert len((out / "rate-combo.csv").read_text().splitlines()) == 1 + 12

    def test_symbol_decay_csv_holds_the_fitted_samples(self, tmp_path):
        out = tmp_path / "rpt"
        main(["symbol-decay", "--tau-lo", "0.02", "--n-samples", "5", "--out", str(out)])
        with open(out / "symbol-decay.csv", newline="") as fh:
            rows = list(csv.DictReader(fh))
        refit = fit_decay_exponent([(float(r["tau"]), float(r["modulus"])) for r in rows])
        body = json.loads((out / "summary.json").read_text())
        assert refit.slope == body["fitted"]["slope"]

    def test_rate_riesz_csv_holds_the_fitted_samples(self):
        summary, files = cli._run_rate_riesz(dict(DEFAULTS["rate-riesz"]))
        rows = list(csv.DictReader(io.StringIO("".join(files["rate-riesz.csv"]))))
        refit = fit_decay_exponent([(float(r["t"]), float(r["error"])) for r in rows])
        assert cli._fit_dict(refit) == summary["fitted"]

    @pytest.mark.parametrize(
        "argv",
        [
            ["--dimension", "2", "--n-modes", "16", "--band-limit", "4", "--time-count", "4"],
            [],
            ["--dimension", "3", "--n-modes", "16", "--band-limit", "4", "--time-count", "4"],
            # a 10,000-point circle, not a power of two
            ["--n-modes", "10000", "--band-limit", "64", "--time-count", "4"],
        ],
        ids=["2d", "1d-default", "3d", "1d-chunks"],
    )
    def test_maximal_sweep_csv_golden(self, tmp_path, argv):
        """The maxima file equals np.save of the recomputed maxima, byte for
        byte: a C-ordered float64 array of shape (M,)^n whose index i on each
        axis is the point x_i = 2 pi i / M.  Its max is sup_maximal, bit for bit."""
        out = tmp_path / "rpt"
        assert main(["maximal-sweep", *argv, "--out", str(out)]) == EXIT_PASS
        config = json.loads((out / "summary.json").read_text())["config"]
        grid = LatticeGrid(config["dimension"], config["n_modes"])
        f = random_spectral_field(
            grid, np.random.default_rng(config["seed"]), band_limit=config["band_limit"]
        )
        params = SymbolParams(config["alpha"], config["beta"])
        times = TimeGrid(
            sigma=config["sigma"], count=config["time_count"], span_octaves=config["span_octaves"]
        ).times
        maxima = maximal_over_times(f, oscillating_op, times, params, CutoffProfile()).samples
        assert maxima.shape == grid.spatial_shape
        expected = io.BytesIO()
        np.save(expected, np.ascontiguousarray(maxima, dtype=np.float64), allow_pickle=False)
        written = (out / "maximal-sweep.npy").read_bytes()
        assert written == expected.getvalue()
        loaded = np.load(out / "maximal-sweep.npy", allow_pickle=False)
        assert loaded.dtype == np.float64 and loaded.flags.c_contiguous
        sup = json.loads((out / "summary.json").read_text())["sup_maximal"]
        assert np.float64(loaded.max()).view(np.uint64) == np.float64(sup).view(np.uint64)
        assert sorted(path.name for path in out.iterdir()) == [
            "maximal-sweep.npy", "summary.json", "summary.txt"
        ]


class TestDeterminism:
    @pytest.mark.parametrize(
        "experiment",
        ["rate-combo", "rate-riesz", "symbol-decay"],
    )
    def test_byte_identical_bodies(self, tmp_path, experiment):
        out_a, out_b = tmp_path / "a", tmp_path / "b"
        args = [experiment, "--out"]
        assert main(args + [str(out_a)]) == EXIT_PASS
        assert main(args + [str(out_b)]) == EXIT_PASS
        assert (out_a / "summary.json").read_bytes() == (out_b / "summary.json").read_bytes()
        csv_name = f"{experiment}.csv"
        assert (out_a / csv_name).read_bytes() == (out_b / csv_name).read_bytes()
        # summary.txt bodies match once the timestamp header line is dropped
        body_a = (out_a / "summary.txt").read_text().splitlines()[1:]
        body_b = (out_b / "summary.txt").read_text().splitlines()[1:]
        assert body_a == body_b

    def test_three_dimensional_sweep(self, tmp_path):
        """A 16^3 sweep repeats byte for byte and has a maximum per lattice point."""
        args = ["maximal-sweep", "--dimension", "3", "--n-modes", "16", "--band-limit", "4", "--time-count", "4"]
        out_a, out_b = tmp_path / "a", tmp_path / "b"
        assert main([*args, "--out", str(out_a)]) == EXIT_PASS
        assert main([*args, "--out", str(out_b)]) == EXIT_PASS
        for name in ("summary.json", "maximal-sweep.npy"):
            assert (out_a / name).read_bytes() == (out_b / name).read_bytes()
        maxima = np.load(out_a / "maximal-sweep.npy", allow_pickle=False)
        assert maxima.shape == (16, 16, 16)
        assert maxima.dtype == np.float64

    def test_kernel_decay_repeats_from_a_warm_slot(self, tmp_path):
        """The second run reuses the lattice weights the first one left."""
        args = ["kernel-decay", "--m-cap", "20000", "--n-samples", "6", "--out"]
        out_a, out_b = tmp_path / "a", tmp_path / "b"
        code_a = main(args + [str(out_a)])
        assert main(args + [str(out_b)]) == code_a
        for name in ("summary.json", "kernel-decay.csv"):
            assert (out_a / name).read_bytes() == (out_b / name).read_bytes()


# One small run of every experiment, each cheap enough for a subprocess.
TINY_RUNS = [
    ["symbol-decay", "--tau-lo", "0.02", "--n-samples", "5"],
    ["dyadic-decay", "--n-samples", "6"],
    ["kernel-decay", "--m-cap", "2000", "--n-samples", "5"],
    ["rate-combo", "--n-modes", "16", "--band-limit", "4", "--n-samples", "5"],
    ["rate-riesz", "--n-modes", "16", "--mode", "3", "--n-samples", "5"],
    ["atom-uniformity", "--n-modes", "128", "--atom-count", "2"],
    ["maximal-sweep", "--n-modes", "16", "--band-limit", "4", "--time-count", "4"],
]


RELATIONS = {"<=": operator.le, "<": operator.lt, ">=": operator.ge}


class TestVerdictContract:
    @pytest.mark.parametrize("argv", TINY_RUNS, ids=lambda argv: argv[0])
    def test_pass_is_the_conjunction_of_named_checks(self, tmp_path, argv):
        """Every experiment reports named checks of one shape; its verdict,
        and its exit code, is their conjunction."""
        out = tmp_path / "o"
        code = main([*argv, "--out", str(out)])
        body = json.loads((out / "summary.json").read_text())
        checks = body["checks"]
        assert checks
        for c in checks:
            assert set(c) == {"name", "value", "relation", "bound", "pass"}, c
            assert c["pass"] is RELATIONS[c["relation"]](c["value"], c["bound"]), c
        assert body["pass"] is all(c["pass"] for c in checks)
        assert code == (EXIT_PASS if body["pass"] else EXIT_CHECK_FAILURE)
        lines = (out / "summary.txt").read_text().splitlines()
        assert [line.split(":")[0] for line in lines if line.startswith("check ")] == [
            f"check {c['name']}" for c in checks
        ]


class TestRunners:
    @pytest.mark.parametrize("argv", TINY_RUNS, ids=lambda argv: argv[0])
    def test_runner_is_pure(self, tmp_path, monkeypatch, argv):
        """A runner returns its summary and its report, CSV lines or the
        maximal-sweep's array, and creates no file, not even when its lines
        are consumed."""
        monkeypatch.chdir(tmp_path)
        args = vars(build_parser().parse_args(argv))
        flags = {k: v for k, v in args.items() if k not in ("experiment", "config", "out")}
        config = cli._resolve_config(argv[0], None, flags)
        result = RUNNERS[argv[0]](config)
        assert isinstance(result, tuple) and len(result) == 2
        summary, reports = result
        assert summary["checks"]
        if argv[0] == "maximal-sweep":
            assert list(reports) == ["maximal-sweep.npy"]
            (maxima,) = reports.values()
            assert isinstance(maxima, np.ndarray) and maxima.dtype == np.float64
            assert maxima.shape == (config["n_modes"],) * config["dimension"]
            assert float(maxima.max()) == summary["sup_maximal"]
        else:
            assert list(reports) == [f"{argv[0]}.csv"]
            for lines in reports.values():
                assert "".join(lines).endswith("\r\n")
        assert list(tmp_path.iterdir()) == []

    # maximal-sweep writes its maxima as .npy, which the golden test checks
    @pytest.mark.parametrize(
        "argv", [argv for argv in TINY_RUNS if argv[0] != "maximal-sweep"], ids=lambda argv: argv[0]
    )
    def test_csv_is_what_csv_writer_writes(self, tmp_path, argv):
        """Each CSV equals csv.writer's re-serialization of its own rows."""
        out = tmp_path / "o"
        assert main([*argv, "--out", str(out)]) in (EXIT_PASS, EXIT_CHECK_FAILURE)
        written = (out / f"{argv[0]}.csv").read_bytes()
        expected = io.StringIO(newline="")
        csv.writer(expected).writerows(csv.reader(io.StringIO(written.decode(), newline="")))
        assert written == expected.getvalue().encode()
        assert written.count(b"\r\n") > 1


class TestImports:
    def test_no_scipy_and_no_imports_inside_experiments(self, tmp_path):
        """Importing the CLI loads no scipy module, and no experiment imports a
        module in the middle of its run (numpy submodules such as numpy.ma,
        or the locale module that argparse's gettext pulls in)."""
        assert sorted(run[0] for run in TINY_RUNS) == sorted(RUNNERS)
        script = textwrap.dedent(
            """
            import json, sys
            import oscimax.cli
            loaded = {"scipy": sorted(m for m in sys.modules if m.split(".")[0] == "scipy")}
            for i, argv in enumerate(json.loads(sys.argv[1])):
                before = set(sys.modules)
                code = oscimax.cli.main(argv + ["--out", f"{sys.argv[2]}/{i}"])
                new = set(sys.modules) - before
                loaded[argv[0]] = [code, sorted(new)]
            print(json.dumps(loaded))
            """
        )
        src = str(Path(oscimax.__file__).resolve().parents[1])
        env = {**os.environ, "PYTHONPATH": os.pathsep.join([src, os.environ.get("PYTHONPATH", "")])}
        proc = subprocess.run(
            [sys.executable, "-c", script, json.dumps(TINY_RUNS), str(tmp_path)],
            capture_output=True, text=True, env=env,
        )
        assert proc.returncode == 0, proc.stderr
        loaded = json.loads(proc.stdout.splitlines()[-1])
        assert loaded.pop("scipy") == []
        for experiment, (code, new_modules) in loaded.items():
            assert code in (EXIT_PASS, EXIT_CHECK_FAILURE), experiment
            assert new_modules == [], experiment
