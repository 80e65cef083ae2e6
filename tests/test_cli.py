"""Command-line interface: determinism, validation, exit codes, formats."""

import json
import math
import os
import subprocess
import sys
from pathlib import Path

import pytest

import lrlattice
from lrlattice import (
    DecayProfile,
    DomainError,
    Field,
    LatticeGeometry,
    QuadratureConvergenceError,
    ball_sites,
    cli,
    cone_scan,
    derive_constants,
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

        monkeypatch.setattr(cli, "compute_kernel", unconverged)
        code, out = run("kernel", tmp_path)
        assert code == 2
        assert not out.exists()
        assert "error: kernel quadrature reached 1e-3" in capsys.readouterr().err

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
    geometry = LatticeGeometry.infinite(s["d"], window_radius=s["x_max"])
    origin = Field.delta(geometry, (0,) * s["d"])
    worst = {"ratio": -math.inf}
    for i, t in enumerate(scan.t_grid):
        for j, site in enumerate(scan.sites):
            value = float(scan.values[i, j])
            rhs = harmonic_bound_rhs(origin, Field.delta(geometry, site), t, cert, profile)
            ratio = value / rhs
            if ratio > worst["ratio"]:
                worst = {"ratio": ratio, "t": t, "x": list(site), "value": value, "rhs": rhs}
    return worst


class TestConeWorstPoint:
    @pytest.mark.parametrize(
        "d, omega, x_max, t",
        [
            (1, 0.0, 16, [1.0, 2.0, 3.0, 4.0, 5.0]),
            (1, 0.7, 16, [1.0, 2.0, 3.0, 4.0, 5.0]),
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


class TestDefaults:
    def test_default_output_names(self, tmp_path, monkeypatch):
        monkeypatch.chdir(tmp_path)
        config = write_config(tmp_path, "kernel")
        assert main(["kernel", "--config", config]) == 0
        assert (tmp_path / "kernel.csv").exists()
        config = write_config(tmp_path, "fock-verify")
        assert main(["fock-verify", "--config", config]) == 0
        assert (tmp_path / "fock_verify.json").exists()

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
