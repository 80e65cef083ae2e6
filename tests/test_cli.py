"""Command-line interface: determinism, validation, exit codes, formats."""

import json
import math
import os
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import lrlattice
from lrlattice import (
    DecayProfile,
    DomainError,
    Field,
    LatticeGeometry,
    QuadratureConvergenceError,
    ball_sites,
    bounds,
    cli,
    compute_kernels,
    cone_scan,
    derive_constants,
    harmonic,
    harmonic_bound_rhs,
)
from lrlattice.cli import _flag_overrides, build_parser, main

FAST_CONFIGS = {
    "kernel": {"t": [0.5], "window": 6},
    "cone": {"x_max": 8, "t": [1.0, 2.0, 3.0]},
    "bounds": {"mu": [1.0], "t": [0.5], "window": 8},
    "state": {"half_side": 16, "t": [0.5], "continuity_points": 5},
    "converge": {"boxes": [2, 4, 8], "window": 16},
    "fock-verify": {
        "cutoffs": [10, 14],
        "f": [{"x": [0], "re": 0.2, "im": 0.0}],
        "g": [{"x": [1], "re": 0.15, "im": 0.0}],
        "rel_tol": 20.0,
    },
}


def write_config(tmp_path, command, extra=None):
    config = dict(FAST_CONFIGS[command])
    if extra:
        config.update(extra)
    path = tmp_path / f"{command}-config.json"
    path.write_text(json.dumps(config))
    return str(path)


def run(command, tmp_path, extra=None, flags=(), out_name="report.out"):
    config = write_config(tmp_path, command, extra)
    out = tmp_path / out_name
    code = main([command, "--config", config, "--output", str(out), *flags])
    return code, out


class TestDeterminism:
    @pytest.mark.parametrize("command", sorted(FAST_CONFIGS))
    def test_reruns_are_byte_identical(self, command, tmp_path):
        code_a, out_a = run(command, tmp_path, out_name="first.out")
        code_b, out_b = run(command, tmp_path, out_name="second.out")
        assert code_a == code_b == 0
        assert out_a.read_bytes() == out_b.read_bytes()

    def test_destination_does_not_leak_into_the_report(self, tmp_path):
        _, out_a = run("kernel", tmp_path, flags=("--format", "json"), out_name="a.json")
        _, out_b = run("kernel", tmp_path, flags=("--format", "json"), out_name="deep-b.json")
        assert out_a.read_bytes() == out_b.read_bytes()


class TestReportContent:
    def test_kernel_csv_identity_row(self, tmp_path):
        code, out = run("kernel", tmp_path, extra={"t": [0.0], "m": [0]})
        assert code == 0
        lines = out.read_text().splitlines()
        assert lines[0] == "m,t,x_1,value,est_error"
        assert lines[1].startswith("0,0.0000000000000000e+00,0,1.0000000000000000e+00")
        values = [line.split(",") for line in lines[2:]]
        assert all(abs(float(v[3])) < 1e-12 for v in values)

    def test_cone_json_structure(self, tmp_path):
        code, out = run("cone", tmp_path)
        report = json.loads(out.read_text())
        assert code == 0
        assert report["bound_satisfied"] is True
        assert 1.8 <= report["velocity"] <= 2.1
        assert set(report["certificate"]) == {
            "a", "mu", "velocity_bound", "prefactor", "c_a", "v_a", "a0", "a1",
        }
        assert report["worst_point"]["ratio"] <= 1.0
        assert len(report["rows"]) == 3 * 17

    def test_state_json_structure(self, tmp_path):
        code, out = run("state", tmp_path)
        report = json.loads(out.read_text())
        assert code == 0
        assert report["invariance"]["satisfied"] is True
        assert report["invariance"]["worst_error"] <= 1e-8
        assert len(report["continuity"]["values"]) == 5
        assert report["continuity"]["modulus"] > 0.0

    def test_converge_json_structure(self, tmp_path):
        code, out = run("converge", tmp_path)
        report = json.loads(out.read_text())
        assert code == 0
        assert report["monotone"] is True
        tails = [row["tail"] for row in report["tails"]]
        assert tails == sorted(tails, reverse=True)
        assert report["moments"]["pair"]["kappa_a"] == pytest.approx(0.08)
        assert report["moments"]["first"] == pytest.approx(0.4)

    @pytest.mark.parametrize(
        "extra",
        [{"cosine_z": 0.0}, {"f": [{"x": [0], "re": 0.0, "im": 0.0}]}],
        ids=["zero-perturbation", "zero-label"],
    )
    def test_converge_tails_that_reach_zero_are_monotone(self, extra, tmp_path):
        code, out = run("converge", tmp_path, extra={**extra, "boxes": [4, 8, 16]})
        report = json.loads(out.read_text())
        assert [row["tail"] for row in report["tails"]] == [0.0, 0.0]
        assert report["monotone"] is True
        assert code == 0

    def test_fock_json_structure(self, tmp_path):
        code, out = run("fock-verify", tmp_path)
        report = json.loads(out.read_text())
        assert code == 0
        assert report["quantity"] == "commutator_norm"
        assert report["satisfied"] is True
        assert len(report["cutoff_study"]) == 2

    @pytest.mark.parametrize(
        "command,header",
        [
            ("cone", "t,x_1,value"),
            ("bounds", "mu,max_ratio"),
            ("state", "t,re,im"),
            ("converge", "inner_box,outer_box,tail"),
            ("fock-verify", "cutoff,value,relative_error"),
        ],
    )
    def test_csv_headers(self, command, header, tmp_path):
        code, out = run(command, tmp_path, flags=("--format", "csv"))
        assert code == 0
        assert out.read_text().splitlines()[0] == header

    def test_floats_are_seventeen_digit_scientific(self, tmp_path):
        _, out = run("bounds", tmp_path)
        report = json.loads(out.read_text())
        raw = out.read_text()
        assert f"{report['max_ratio']:.16e}" in raw

    def test_an_integer_label_site_is_a_one_coordinate_list(self, tmp_path):
        integers = {"f": [{"x": 0, "re": 0.5}], "g2": [{"x": -1, "im": 0.4}]}
        lists = {"f": [{"x": [0], "re": 0.5}], "g2": [{"x": [-1], "im": 0.4}]}
        _, out_int = run("state", tmp_path, extra=integers, out_name="int.json")
        _, out_list = run("state", tmp_path, extra=lists, out_name="list.json")
        assert out_int.read_bytes() == out_list.read_bytes()

    def test_an_odd_points_is_rounded_up(self, tmp_path):
        _, odd = run("kernel", tmp_path, extra={"points": 63}, out_name="odd.csv")
        _, even = run("kernel", tmp_path, extra={"points": 64}, out_name="even.csv")
        assert odd.read_bytes() == even.read_bytes()

    def test_converge_reads_a_perturbation_file(self, tmp_path):
        # The file's one even atom pair on the origin is the default cosine family.
        family = tmp_path / "family.json"
        atoms = [{"z": [[0.2, 0.0]], "weight": 1.0}]
        family.write_text(json.dumps([{"sites": [[0]], "atoms": atoms}]))
        _, from_file = run("converge", tmp_path, {"perturbation": str(family)}, out_name="a.json")
        _, cosine = run("converge", tmp_path, out_name="b.json")
        from_file, cosine = json.loads(from_file.read_text()), json.loads(cosine.read_text())
        assert from_file.pop("config")["perturbation"] == str(family)
        assert cosine.pop("config")["perturbation"] is None
        assert from_file == cosine


class TestKernelReuse:
    def test_a_mu_grid_computes_the_kernels_of_each_time_once(self, tmp_path, monkeypatch):
        times = []
        real = bounds.compute_kernels

        def counted(params, t, *args):
            times.append(t)
            return real(params, t, *args)

        monkeypatch.setattr(bounds, "compute_kernels", counted)
        code, _ = run("bounds", tmp_path, extra={"mu": [0.5, 1.0, 2.0], "t": [0.25, 0.5, 1.0]})
        assert code == 0
        assert times == [0.25, 0.5, 1.0]


class TestStateBuildsNoFieldPerTime:
    def test_field_work_does_not_grow_with_the_times(self, tmp_path, monkeypatch):
        calls = {"from_dense": 0, "union": 0}
        from_dense, union = harmonic.Field.from_dense.__func__, harmonic._union_rows

        def counted_from_dense(cls, *args):
            calls["from_dense"] += 1
            return from_dense(cls, *args)

        def counted_union(*args):
            calls["union"] += 1
            return union(*args)

        monkeypatch.setattr(harmonic.Field, "from_dense", classmethod(counted_from_dense))
        monkeypatch.setattr(harmonic, "_union_rows", counted_union)
        counts = []
        # 1 + 3 and 4 + 9 times: invariance times plus continuity points.
        for t, points in (([0.5], 3), ([0.25, 0.5, 1.0, 2.0], 9)):
            calls.update(from_dense=0, union=0)
            extra = {"half_side": 12, "t": t, "continuity_points": points}
            code, _ = run("state", tmp_path, extra=extra)
            assert code == 0
            counts.append(dict(calls))
        assert counts[0] == counts[1]
        assert counts[0]["from_dense"] == 0


class TestPrecedence:
    def test_flags_override_the_config_file(self, tmp_path):
        code, out = run(
            "kernel",
            tmp_path,
            extra={"omega": 2.0, "format": "json"},
            flags=("--omega", "0.5"),
        )
        assert code == 0
        report = json.loads(out.read_text())
        assert report["config"]["omega"] == 0.5

    def test_time_grid_flag(self, tmp_path):
        code, out = run("kernel", tmp_path, extra={"m": [0]}, flags=("--t", "0.25,0.75"))
        assert code == 0
        t_cells = {line.split(",")[1] for line in out.read_text().splitlines()[1:]}
        assert t_cells == {"2.5000000000000000e-01", "7.5000000000000000e-01"}

    def test_config_file_is_optional(self, tmp_path, monkeypatch):
        monkeypatch.chdir(tmp_path)
        code = main(["kernel", "--t", "0.5", "--window", "4"])
        assert code == 0
        assert (tmp_path / "kernel.csv").exists()


class TestFlagOverrides:
    @pytest.mark.parametrize(
        "flag, text, key, value",
        [
            ("--output", "r.json", "output", "r.json"),
            ("--format", "json", "format", "json"),
            ("--seed", "7", "seed", 7),
            ("--d", "2", "d", 2),
            ("--omega", "0.5", "omega", 0.5),
            ("--lambda", "1,0.5", "lambda", [1.0, 0.5]),
            ("--t", "0.25,0.75", "t", [0.25, 0.75]),
            ("--window", "12", "window", 12),
            ("--theta", "0.2", "theta", 0.2),
            ("--a", "1.5", "a", 1.5),
            ("--x-max", "9", "x_max", 9),
            ("--sites", "3", "sites", 3),
        ],
    )
    def test_each_flag_yields_its_schema_key(self, flag, text, key, value):
        args = build_parser().parse_args(["kernel", flag, text])
        assert _flag_overrides(args) == {key: value}
        assert key in cli._COMMON or any(key in schema for schema in cli.SCHEMAS.values())

    def test_command_and_config_are_not_overrides(self):
        args = build_parser().parse_args(["kernel", "--config", "c.json"])
        assert _flag_overrides(args) == {}


class TestValidation:
    def test_all_errors_are_collected(self, tmp_path, capsys):
        config = tmp_path / "bad.json"
        config.write_text(json.dumps({"omega": "loud", "window": "big", "bogus": 1}))
        code = main(["kernel", "--config", str(config), "--output", str(tmp_path / "o")])
        assert code == 2
        messages = capsys.readouterr().err.splitlines()
        assert len(messages) == 3
        assert all(m.startswith("config error:") for m in messages)
        assert not (tmp_path / "o").exists()

    def test_command_mismatch(self, tmp_path, capsys):
        config = tmp_path / "c.json"
        config.write_text(json.dumps({"command": "cone"}))
        assert main(["kernel", "--config", str(config)]) == 2
        assert "declares command" in capsys.readouterr().err

    def test_unknown_flag_for_command(self, tmp_path, capsys):
        code = main(["kernel", "--theta", "0.5", "--output", str(tmp_path / "o")])
        assert code == 2
        assert "--theta" in capsys.readouterr().err
        assert not (tmp_path / "o").exists()

    def test_unreadable_and_malformed_config_files(self, tmp_path, capsys):
        assert main(["kernel", "--config", str(tmp_path / "missing.json")]) == 2
        broken = tmp_path / "broken.json"
        broken.write_text("{not json")
        assert main(["kernel", "--config", str(broken)]) == 2
        err = capsys.readouterr().err
        assert "cannot read" in err and "not valid JSON" in err

    def test_bool_does_not_pass_as_integer(self, tmp_path, capsys):
        config = tmp_path / "c.json"
        config.write_text(json.dumps({"window": True}))
        assert main(["kernel", "--config", str(config)]) == 2
        assert "expected an integer" in capsys.readouterr().err

    @pytest.mark.parametrize("x", [True, [True], [0, False]])
    def test_bool_does_not_pass_as_label_site(self, x, tmp_path, capsys):
        config = tmp_path / "c.json"
        config.write_text(json.dumps({"f": [{"x": x, "re": 0.1}]}))
        assert main(["state", "--config", str(config), "--output", str(tmp_path / "o")]) == 2
        assert "atom site must be an int or list of ints" in capsys.readouterr().err
        assert not (tmp_path / "o").exists()

    @pytest.mark.parametrize("sites", [[True], [[0], [False]], [[1, True]]])
    def test_bool_does_not_pass_as_site_list_entry(self, sites, tmp_path, capsys):
        config = tmp_path / "c.json"
        config.write_text(json.dumps({"cosine_sites": sites}))
        assert main(["converge", "--config", str(config), "--output", str(tmp_path / "o")]) == 2
        assert "cosine_sites: expected a non-empty list of sites" in capsys.readouterr().err
        assert not (tmp_path / "o").exists()

    def test_malformed_labels(self, tmp_path, capsys):
        config = tmp_path / "c.json"
        config.write_text(json.dumps({"f": [{"x": [0], "re": 0.1, "weird": 2}]}))
        assert main(["state", "--config", str(config)]) == 2
        assert "unknown atom keys" in capsys.readouterr().err

    def test_lambda_length_must_match_dimension(self, tmp_path, capsys):
        config = tmp_path / "c.json"
        config.write_text(json.dumps({"d": 2, "lambda": [1.0]}))
        assert main(["kernel", "--config", str(config)]) == 2
        assert "expected 2 couplings" in capsys.readouterr().err

    def test_fock_site_count_is_restricted(self, tmp_path, capsys):
        config = tmp_path / "c.json"
        config.write_text(json.dumps({"sites": 3}))
        assert main(["fock-verify", "--config", str(config)]) == 2
        assert "sites = 2" in capsys.readouterr().err

    def test_fock_cutoffs_must_increase(self, tmp_path, capsys):
        config = tmp_path / "c.json"
        config.write_text(json.dumps({"cutoffs": [20, 20]}))
        assert main(["fock-verify", "--config", str(config)]) == 2
        assert "strictly increasing" in capsys.readouterr().err

    @pytest.mark.parametrize("boxes", [[4, 4], [8, 4], [0, 4], [-2, 4], [0]])
    def test_converge_boxes_must_be_positive_and_increase(self, boxes, tmp_path, capsys):
        code, out = run("converge", tmp_path, extra={"boxes": boxes})
        assert code == 2
        assert not out.exists()
        err = capsys.readouterr().err
        assert err == "config error: boxes: must be positive and strictly increasing\n"

    def test_seed_applies_to_bounds_only(self, tmp_path, capsys):
        code, out = run("kernel", tmp_path, flags=("--seed", "3"))
        assert code == 2
        assert not out.exists()
        assert "flag --seed does not apply to command 'kernel'" in capsys.readouterr().err
        code, out = run("cone", tmp_path, extra={"seed": 3})
        assert code == 2
        assert "unknown config key 'seed'" in capsys.readouterr().err

    @pytest.mark.parametrize(
        "command, key, value",
        [
            ("state", "invariance_tol", -1.0),
            ("fock-verify", "rel_tol", -1.0),
            ("bounds", "spot_trials", -3),
            ("state", "continuity_points", 1),
            ("state", "continuity_points", 0),
        ],
    )
    def test_meaningless_tolerances_and_counts(self, command, key, value, tmp_path, capsys):
        code, out = run(command, tmp_path, extra={key: value})
        assert code == 2
        assert not out.exists()
        assert capsys.readouterr().err.startswith(f"config error: {key}: must be at least")

    @pytest.mark.parametrize(
        "command, flags, extra",
        [
            ("bounds", ("--omega", "nan"), None),
            ("state", ("--omega", "nan"), None),
            ("state", ("--omega", "inf"), None),
            ("converge", ("--t", "nan"), None),
            ("kernel", ("--lambda=-inf",), None),
            ("bounds", (), {"a1": float("nan")}),
            ("kernel", (), {"t": [0.5, float("inf")]}),
            ("state", (), {"f": [{"x": [0], "re": float("nan"), "im": 0.0}]}),
            ("state", (), {"g2": [{"x": [1], "re": 0.1, "im": float("-inf")}]}),
            ("state", (), {"omega": 10**400}),
        ],
    )
    def test_non_finite_numbers_are_config_errors(self, command, flags, extra, tmp_path, capsys):
        code, out = run(command, tmp_path, extra=extra, flags=flags)
        assert code == 2
        assert not out.exists()
        err = capsys.readouterr().err
        assert err.startswith("config error:") and "finite" in err

    def test_scenario_errors_are_domain_errors(self):
        with pytest.raises(DomainError, match="rel_tol"):
            cli.parse_scenario("fock-verify", {"rel_tol": -1.0}, {})


class TestExitCodes:
    def test_violation_still_writes_the_report(self, tmp_path, capsys):
        code, out = run(
            "fock-verify",
            tmp_path,
            extra={"cutoffs": [10], "rel_tol": 1e-12},
        )
        assert code == 1
        assert out.exists()
        assert "bound violation" in capsys.readouterr().err
        report = json.loads(out.read_text())
        assert report["satisfied"] is False

    def test_runtime_error_leaves_no_report(self, tmp_path, capsys):
        code, out = run("kernel", tmp_path, extra={"m": [5]})
        assert code == 2
        assert not out.exists()
        assert "error:" in capsys.readouterr().err

    def test_quadrature_failure_is_a_runtime_error(self, tmp_path, capsys, monkeypatch):
        def unconverged(*args, **kwargs):
            raise QuadratureConvergenceError("kernel quadrature reached 1e-3")

        monkeypatch.setattr(cli, "compute_kernels", unconverged)
        code, out = run("kernel", tmp_path)
        assert code == 2
        assert not out.exists()
        assert "error: kernel quadrature reached 1e-3" in capsys.readouterr().err

    def test_kernel_reports_the_first_unconverged_kernel_in_row_order(
        self, tmp_path, capsys, monkeypatch
    ):
        # Rows run m-major, so m = -1 at t = 1.0 precedes m = 1 at t = 0.5
        # and m = -1 at t = 2.0.
        smallest = {0.5: 1, 1.0: -1, 2.0: -1, 3.0: None}

        def unconverged(params, t, window, quad, ms):
            m = smallest[t]
            if m is None:
                return compute_kernels(params, t, window, quad, ms)
            best = compute_kernels(params, t, window, quad, (m,))[m]
            raise QuadratureConvergenceError(f"m = {m} at t = {t}", best=best)

        monkeypatch.setattr(cli, "compute_kernels", unconverged)
        code, out = run("kernel", tmp_path, extra={"t": [0.5, 1.0, 2.0, 3.0]})
        assert code == 2
        assert not out.exists()
        assert capsys.readouterr().err == "error: m = -1 at t = 1.0\n"

    def test_velocity_fit_failure_is_a_runtime_error(self, tmp_path):
        # x_max 4 leaves fewer than three usable threshold crossings
        code, out = run("cone", tmp_path, extra={"x_max": 4})
        assert code == 2
        assert not out.exists()

    def test_failed_run_preserves_an_existing_report(self, tmp_path):
        out = tmp_path / "report.out"
        out.write_text("sentinel")
        config = write_config(tmp_path, "kernel", {"m": [5]})
        code = main(["kernel", "--config", config, "--output", str(out)])
        assert code == 2
        assert out.read_text() == "sentinel"

    def test_underflowing_bound_is_a_runtime_error(self, tmp_path, capsys):
        # F_a(32) = exp(-30 * 32) (1 + 32)^-2 is 0 in floating point.
        code, out = run("cone", tmp_path, extra={"x_max": 32, "a": 30.0, "t": [0.0, 1e-7, 2e-7]})
        assert code == 2
        assert not out.exists()
        assert "underflows" in capsys.readouterr().err

    def test_overflowing_tail_names_rate_and_time(self, tmp_path, capsys):
        code, out = run("converge", tmp_path, flags=("--a", "8"))
        assert code == 2
        assert not out.exists()
        assert "overflows at rate" in capsys.readouterr().err

    # g1 has a nonzero position mean, so every continuity label lies outside
    # the massless form domain, while f alone lies inside it.
    ZERO_MEAN_STATE = {
        "omega": 0.0,
        "half_side": 8,
        "f": [{"x": [0], "re": 0.5}, {"x": [1], "re": -0.5}],
        "g1": [{"x": [1], "re": 0.3}],
        "g2": [{"x": [-1], "im": 0.4}],
    }

    def test_zero_convention_reaches_the_continuity_scan(self, tmp_path):
        config = tmp_path / "state.json"
        config.write_text(json.dumps({**self.ZERO_MEAN_STATE, "zero_convention": True}))
        out = tmp_path / "report.json"
        assert main(["state", "--config", str(config), "--output", str(out)]) == 0
        continuity = json.loads(out.read_text())["continuity"]
        assert continuity["values"] == [{"re": 0.0, "im": 0.0}] * 9
        assert continuity["modulus"] == 0.0

    def test_without_zero_convention_the_nonzero_mean_is_an_error(self, tmp_path, capsys):
        config = tmp_path / "state.json"
        config.write_text(json.dumps({**self.ZERO_MEAN_STATE, "zero_convention": False}))
        out = tmp_path / "report.json"
        assert main(["state", "--config", str(config), "--output", str(out)]) == 2
        assert not out.exists()
        assert "zero lattice mean" in capsys.readouterr().err

    def test_zero_convention_takes_a_nonzero_mean_f(self, tmp_path):
        # f alone lies outside the massless form domain; g1 + T_t f + g2 lies inside.
        config = {
            "omega": 0.0,
            "half_side": 8,
            "f": [{"x": [0], "re": 0.5}],
            "g1": [{"x": [1], "re": -0.5}],
            "zero_convention": True,
        }
        code, out = run("state", tmp_path, extra=config)
        assert code == 0
        report = json.loads(out.read_text())
        assert report["gaussian_value"] == {"re": 0.0, "im": 0.0}
        assert report["invariance"]["worst_error"] == 0.0
        assert all(v["re"] != 0.0 for v in report["continuity"]["values"])

    def test_a_massless_state_with_a_zero_coupling_is_an_error(self, tmp_path, capsys):
        code, out = run("state", tmp_path, extra={"d": 2, "omega": 0.0, "lambda": [1.0, 0.0]})
        assert code == 2
        assert not out.exists()
        assert "every coupling positive" in capsys.readouterr().err

    def test_massless_fock_verify_runs(self, tmp_path):
        # The default f has a nonzero position mean on the 2-site ring.
        code, out = run("fock-verify", tmp_path, flags=("--omega", "0"))
        assert code == 0
        assert json.loads(out.read_text())["satisfied"] is True

    def test_no_temp_files_left_behind(self, tmp_path):
        run("kernel", tmp_path)
        run("kernel", tmp_path, extra={"m": [5]}, out_name="failed.out")
        leftovers = [p for p in os.listdir(tmp_path) if p.endswith(".tmp")]
        assert leftovers == []


def _per_row_worst_point(s: dict) -> dict:
    """The cone report's worst point from one bound evaluation per (t, site) row."""
    params = cli._params(s)
    scan = cone_scan(params, s["x_max"], s["t"], s["theta"], s["tolerance"])
    profile = DecayProfile(s["d"], epsilon=s["epsilon"], rate=s["a"])
    cert = derive_constants(params, s["a"], profile, eta=s["eta"])
    geometry = LatticeGeometry.infinite(s["d"])
    origin = Field.delta(geometry, (0,) * s["d"])
    worst = {"ratio": -math.inf}
    for i, t in enumerate(scan.t_grid):
        for j, site in enumerate(scan.sites.tolist()):
            value = float(scan.values[i, j])
            rhs = harmonic_bound_rhs(origin, Field.delta(geometry, site), t, cert, profile)
            ratio = value / rhs
            if ratio > worst["ratio"]:
                worst = {"ratio": ratio, "t": t, "x": site, "value": value, "rhs": rhs}
    return worst


class TestConeWorstPoint:
    @pytest.mark.parametrize(
        "d, omega, x_max, t",
        [
            (1, 0.0, 16, [1.0, 2.0, 3.0, 4.0, 5.0]),
            (1, 0.7, 16, [1.0, 2.0, 3.0, 4.0, 5.0]),
            # Radii 30-32, where numpy's 0-d and array loops once rounded F_a apart.
            (1, 0.0, 32, [1.0, 2.0, 3.0, 4.0, 5.0]),
            (1, 0.7, 32, [1.0, 2.0, 3.0, 4.0, 5.0]),
            (2, 0.0, 12, [1.0, 1.5, 2.0, 2.5, 3.0]),
            (2, 0.7, 12, [1.0, 1.5, 2.0, 2.5, 3.0]),
        ],
    )
    @pytest.mark.parametrize("a, epsilon, eta", [(1.0, 1.0, 1.0), (1.3, 0.3, 2.0)])
    def test_per_shell_bound_matches_the_per_row_loop(self, d, omega, x_max, t, a, epsilon, eta):
        config = {
            "d": d, "omega": omega, "x_max": x_max, "t": t, "theta": 0.08,
            "a": a, "epsilon": epsilon, "eta": eta,
        }
        s = cli.parse_scenario("cone", config, {})
        _, _, rows, body = cli._run_cone(s)
        assert body["worst_point"] == _per_row_worst_point(s)
        assert len(rows) == len(t) * len(ball_sites(d, x_max))


class TestSeededSpotCheck:
    def test_same_seed_reproduces_different_seed_varies(self, tmp_path):
        extra = {"spot_trials": 3, "spot_radius": 2}
        _, out_a = run("bounds", tmp_path, extra=extra, flags=("--seed", "7"), out_name="a")
        _, out_b = run("bounds", tmp_path, extra=extra, flags=("--seed", "7"), out_name="b")
        _, out_c = run("bounds", tmp_path, extra=extra, flags=("--seed", "8"), out_name="c")
        assert out_a.read_bytes() == out_b.read_bytes()
        ratio_a = json.loads(out_a.read_text())["spot_check_ratio"]
        ratio_c = json.loads(out_c.read_text())["spot_check_ratio"]
        assert ratio_a != ratio_c
        assert ratio_a < 1.0 and ratio_c < 1.0

    def test_a_one_site_spot_support_is_accepted(self, tmp_path, capsys):
        code, out = run("bounds", tmp_path, extra={"spot_trials": 3, "spot_radius": 0})
        assert code == 0
        assert 0.0 < json.loads(out.read_text())["spot_check_ratio"] < 1.0
        extra = {"spot_trials": 3, "spot_radius": -1}
        code, out = run("bounds", tmp_path, extra=extra, out_name="negative.out")
        assert code == 2
        assert not out.exists()
        assert capsys.readouterr().err.startswith("error:")


class _ReadRecorder(dict):
    """A scenario that records every key a runner reads."""

    def __init__(self, scenario):
        super().__init__(scenario)
        self.read = set()

    def __getitem__(self, key):
        self.read.add(key)
        return super().__getitem__(key)


# Overrides that take a branch the defaults skip: the spot check.
BRANCHES = {"bounds": [{"spot_trials": 1}]}


class TestEverySettingIsRead:
    @pytest.mark.parametrize("command", cli.COMMANDS)
    def test_the_runner_reads_every_schema_key(self, command):
        read = set()
        for config in [{}, *BRANCHES.get(command, [])]:
            scenario = _ReadRecorder(cli.parse_scenario(command, config, {}))
            cli.RUNNERS[command](scenario)
            read |= scenario.read
        schema = set(cli._COMMON) | set(cli.SCHEMAS[command])
        assert schema - read == {"command", "output", "format"}


class TestDefaults:
    def test_default_output_names(self, tmp_path, monkeypatch):
        monkeypatch.chdir(tmp_path)
        config = write_config(tmp_path, "kernel")
        assert main(["kernel", "--config", config]) == 0
        assert (tmp_path / "kernel.csv").exists()
        config = write_config(tmp_path, "fock-verify")
        assert main(["fock-verify", "--config", config]) == 0
        assert (tmp_path / "fock_verify.json").exists()

    @pytest.mark.parametrize(
        "command, flags, keys",
        [
            ("converge", ("--d", "2"), ("f", "cosine_sites")),
            ("converge", ("--d", "3", "--window", "4"), ("f", "cosine_sites")),
            ("state", ("--d", "2"), ("f", "g1", "g2")),
        ],
    )
    def test_default_sites_follow_the_dimension(self, command, flags, keys, tmp_path):
        out = tmp_path / "report.json"
        assert main([command, *flags, "--output", str(out)]) == 0
        config = json.loads(out.read_text())["config"]
        d = config["d"]
        for key in keys:
            sites = [atom["x"] for atom in config[key]] if key != "cosine_sites" else config[key]
            assert all(len(x) == d and x[1:] == [0] * (d - 1) for x in sites)

    def test_default_formats(self, tmp_path):
        _, kernel_out = run("kernel", tmp_path, out_name="k.out")
        assert kernel_out.read_text().startswith("m,t,")
        _, bounds_out = run("bounds", tmp_path, out_name="b.out")
        assert bounds_out.read_text().startswith("{")

    def test_sites_one_needs_decoupled_chain(self, tmp_path):
        code, out = run(
            "fock-verify",
            tmp_path,
            extra={
                "sites": 1,
                "lambda": [0.0],
                "cutoffs": [10],
                "f": [{"x": [0], "re": 0.1, "im": 0.0}],
                "g": [{"x": [0], "re": 0.0, "im": 0.1}],
                "rel_tol": 1.0,
            },
        )
        assert code == 0
        assert json.loads(out.read_text())["error_estimate"] < 1.0


class TestModuleEntry:
    def test_python_dash_m_invocation(self, tmp_path):
        config = write_config(tmp_path, "kernel")
        out = tmp_path / "module.csv"
        # The child interpreter imports the same package as this process,
        # installed or not.
        src = str(Path(lrlattice.__file__).resolve().parents[1])
        env = dict(os.environ)
        env["PYTHONPATH"] = os.pathsep.join(filter(None, [src, env.get("PYTHONPATH")]))
        proc = subprocess.run(
            [
                sys.executable,
                "-m",
                "lrlattice.cli",
                "kernel",
                "--config",
                config,
                "--output",
                str(out),
            ],
            capture_output=True,
            text=True,
            env=env,
        )
        assert proc.returncode == 0
        assert out.exists()


class TestVersion:
    def test_package_version_matches_pyproject(self):
        pyproject = Path(__file__).resolve().parents[1] / "pyproject.toml"
        lines = [
            line for line in pyproject.read_text().splitlines() if line.startswith("version = ")
        ]
        assert lines == [f'version = "{lrlattice.__version__}"']


# ---------------------------------------------------------------------------
# The report writer against the recursive one it replaced, kept here as the oracle.


def _oracle_json_value(obj, indent):
    pad = " " * indent
    inner = " " * (indent + 2)
    if isinstance(obj, np.generic):
        obj = obj.item()
    if obj is None:
        return "null"
    if isinstance(obj, bool):
        return "true" if obj else "false"
    if isinstance(obj, int):
        return str(obj)
    if isinstance(obj, float):
        if math.isfinite(obj):
            return f"{obj:.16e}"
        return json.dumps(str(obj))
    if isinstance(obj, str):
        return json.dumps(obj)
    if isinstance(obj, (list, tuple)):
        if not obj:
            return "[]"
        items = [f"{inner}{_oracle_json_value(v, indent + 2)}" for v in obj]
        return "[\n" + ",\n".join(items) + f"\n{pad}]"
    if isinstance(obj, dict):
        if not obj:
            return "{}"
        items = [
            f"{inner}{json.dumps(str(k))}: {_oracle_json_value(v, indent + 2)}"
            for k, v in obj.items()
        ]
        return "{\n" + ",\n".join(items) + f"\n{pad}}}"
    raise TypeError(f"cannot serialize {type(obj).__name__}")


def _oracle_csv_report(header, rows):
    def cell(v):
        if isinstance(v, np.generic):
            v = v.item()
        if isinstance(v, bool):
            return "true" if v else "false"
        if isinstance(v, int):
            return str(v)
        if isinstance(v, float):
            return f"{v:.16e}"
        return str(v)

    lines = [",".join(header)]
    lines.extend(",".join(cell(v) for v in row) for row in rows)
    return "\n".join(lines) + "\n"


def _as_records(obj):
    """The body the recursive writer took: each table as a list of one dict per row."""
    if isinstance(obj, cli._Rows):
        return [{k: _as_records(v) for k, v in zip(obj.header, row)} for row in obj.rows]
    if isinstance(obj, dict):
        return {k: _as_records(v) for k, v in obj.items()}
    if isinstance(obj, (list, tuple)):
        return type(obj)(_as_records(v) for v in obj)
    return obj


FLOATS = st.floats(allow_nan=True, allow_infinity=True) | st.sampled_from(
    [0.0, -0.0, math.nan, math.inf, -math.inf]
)
SCALARS = st.one_of(
    st.integers(-(2**70), 2**70),
    st.booleans(),
    st.none(),
    FLOATS,
    FLOATS.map(np.float64),
    st.integers(-(2**63), 2**63 - 1).map(np.int64),
    st.text(max_size=4),
)
# Column kinds: each template code, and cells that take the scalar rule.
COLUMNS = {
    "int": st.integers(-(2**70), 2**70),
    "finite": st.floats(allow_nan=False, allow_infinity=False) | st.sampled_from([0.0, -0.0]),
    "float64": st.floats(allow_nan=False, allow_infinity=False).map(np.float64),
    "float": FLOATS,
    "mixed": SCALARS | st.lists(SCALARS, max_size=2),
}
KEYS = st.text(alphabet=st.sampled_from('ab%"\\é∂\n,'), max_size=3)


@st.composite
def tables(draw):
    header = draw(st.lists(KEYS, min_size=1, max_size=4, unique=True))
    kinds = [draw(st.sampled_from(sorted(COLUMNS))) for _ in header]
    count = draw(st.integers(0, 5))
    columns = [draw(st.lists(COLUMNS[k], min_size=count, max_size=count)) for k in kinds]
    return header, list(zip(*columns)) if columns else []


BODIES = st.dictionaries(
    KEYS,
    st.recursive(
        SCALARS | tables().map(lambda table: cli._Rows(*table)),
        lambda children: st.lists(children, max_size=3) | st.dictionaries(KEYS, children, max_size=3),
        max_leaves=12,
    ),
    max_size=4,
)
oracle_examples = settings(max_examples=300, deadline=None, derandomize=True, database=None)


class TestWriterOracle:
    @oracle_examples
    @given(BODIES)
    def test_json_matches_the_recursive_writer(self, body):
        assert cli.json_report(body) == _oracle_json_value(_as_records(body), 0) + "\n"

    @oracle_examples
    @given(tables())
    def test_csv_matches_the_cell_rule(self, table):
        header, rows = table
        assert cli.csv_report(header, rows) == _oracle_csv_report(header, rows)

    @pytest.mark.parametrize("command", ["kernel", "cone", "bounds", "state", "converge"])
    def test_default_reports_match_in_both_formats(self, command):
        scenario = cli.parse_scenario(command, {}, {})
        _, header, rows, body = cli.RUNNERS[command](scenario)
        assert cli.csv_report(header, rows) == _oracle_csv_report(header, rows)
        report = {"config": cli._echo_config(scenario), **body}
        assert cli.json_report(report) == _oracle_json_value(_as_records(report), 0) + "\n"
