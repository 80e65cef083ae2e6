"""Command-line entry point: scenario parsing and deterministic reports.

Subcommands: kernel, cone, bounds, state, converge, fock-verify.  Each one
reads an optional JSON config file, applies flag overrides, runs the
corresponding library routines, and writes a single CSV or JSON report.

Determinism contract: floats are printed in scientific notation with 17
significant digits, rows follow a fixed ordering, and output files are
written atomically (temp file + rename).  Exit codes: 0 success, 1 an
asserted inequality failed (the report still names the worst point), 2 a
configuration or runtime error (no output file is produced).
"""

from __future__ import annotations

import argparse
import json
import math
import os
import sys
import tempfile
from dataclasses import asdict
from functools import cache
from typing import NamedTuple

import numpy as np

from .lattice import (
    DecayProfile,
    DomainError,
    LatticeGeometry,
    _is_int,
    convolution_constant,
)
from .harmonic import (
    Field,
    HarmonicParameters,
    QuadratureConvergenceError,
    QuadratureSpec,
    compute_kernels,
)
from .weyl import (
    QuasiFreeState,
    WeylOperator,
    _three_point_values,
    commutator_norm,
    state_eval,
    three_point_continuity,
)
from .bounds import (
    _growth,
    cone_scan,
    derive_constants,
    estimate_velocity,
    spot_check_certificate,
    verify_kernel_bounds,
)
from .perturbations import (
    PerturbationFamily,
    _is_number,
    convergence_tail,
    cosine_family,
    first_moment,
    load_family,
    pair_moment,
    second_moment,
)
from .fock import FockConfig, commutator_oracle

COMMANDS = ("kernel", "cone", "bounds", "state", "converge", "fock-verify")


# ---------------------------------------------------------------------------
# Deterministic serialization.


def _scalar(v, other) -> str:
    """The cell rule of both formats: a finite float in scientific notation with 17
    significant digits (round-trip exact); ``other`` writes what is not a bool, int or
    finite float."""
    if isinstance(v, np.generic):
        v = v.item()
    if isinstance(v, bool):
        return "true" if v else "false"
    if isinstance(v, int):
        return str(v)
    return f"{float(v):.16e}" if isinstance(v, float) and math.isfinite(v) else other(v)


class _Rows(NamedTuple):
    """Records as a JSON list of objects keyed by ``header``; every row is as long."""

    header: list
    rows: list


def _row_cells(rows, cell):
    """A % code per column, and the rows as tuples for ``template % row``: %d for a column
    of ints, %.16e for one of finite floats (the scalar rule's strings), else %s over ``cell``."""
    columns, codes = list(zip(*rows)), []
    for j, column in enumerate(columns):
        kinds = set(map(type, column))
        if kinds == {int}:
            codes.append("%d")
        elif kinds <= {float, np.float64} and all(map(math.isfinite, column)):
            codes.append("%.16e")
        else:
            codes.append("%s")
            columns[j] = list(map(cell, column))
    return codes, list(zip(*columns)) if columns else [()] * len(rows)


def _json_value(obj, indent: int) -> str:
    pad = " " * indent
    inner = " " * (indent + 2)
    if isinstance(obj, _Rows):
        if not obj.rows:
            return "[]"
        codes, rows = _row_cells(obj.rows, lambda v: _json_value(v, indent + 4))
        keys = [json.dumps(str(k)).replace("%", "%%") for k in obj.header]
        fields = ",\n".join(f"{inner}  {k}: {c}" for k, c in zip(keys, codes))
        template = f"{inner}{{\n{fields}\n{inner}}}" if fields else inner + "{}"
        return "[\n" + ",\n".join([template % row for row in rows]) + f"\n{pad}]"
    if isinstance(obj, (list, tuple)):
        if not obj:
            return "[]"
        items = [f"{inner}{_json_value(v, indent + 2)}" for v in obj]
        return "[\n" + ",\n".join(items) + f"\n{pad}]"
    if isinstance(obj, dict):
        if not obj:
            return "{}"
        items = [
            f"{inner}{json.dumps(str(k))}: {_json_value(v, indent + 2)}" for k, v in obj.items()
        ]
        return "{\n" + ",\n".join(items) + f"\n{pad}}}"
    return _scalar(obj, _json_text)


def _json_text(v) -> str:
    if v is not None and not isinstance(v, (str, float)):
        raise TypeError(f"cannot serialize {type(v).__name__}")
    return json.dumps(v if v is None else str(v))  # a non-finite float as "nan", "inf", "-inf"


def json_report(obj: dict) -> str:
    """JSON with fixed key order and fixed 17-digit float formatting."""
    return _json_value(obj, 0) + "\n"


def csv_report(header, rows) -> str:
    """CSV through the JSON writer's scalar rule; non-finite floats are written bare."""
    codes, rows = _row_cells(rows, lambda v: _scalar(v, str))
    return "\n".join([",".join(header), *map(",".join(codes).__mod__, rows)]) + "\n"


def atomic_write(path: str, text: str):
    directory = os.path.dirname(os.path.abspath(path))
    fd, tmp = tempfile.mkstemp(dir=directory, suffix=".tmp")
    try:
        with os.fdopen(fd, "w", encoding="utf-8", newline="\n") as handle:
            handle.write(text)
        os.replace(tmp, path)
    except BaseException:
        if os.path.exists(tmp):
            os.unlink(tmp)
        raise


# ---------------------------------------------------------------------------
# Scenario schema and validation.


class ScenarioError(DomainError):
    """All validation problems with a config, collected in one go."""

    def __init__(self, messages):
        self.messages = tuple(messages)
        super().__init__("; ".join(self.messages))


_NINE_TIMES = tuple(i * 0.25 for i in range(9))

# Per-command schema: key -> (kind, default).  Kinds: int, float, bool,
# opt_float, float_list, int_list, labels (list of {x, re, im} atoms),
# site_list, opt_str.
SCHEMAS = {
    "kernel": {
        "d": ("int", 1),
        "omega": ("float", 1.0),
        "lambda": ("float_list", None),
        "m": ("int_list", [-1, 0, 1]),
        "t": ("float_list", [1.0]),
        "window": ("int", 32),
        "points": ("int", 64),
        "tolerance": ("float", 1e-10),
    },
    "cone": {
        "d": ("int", 1),
        "omega": ("float", 0.0),
        "lambda": ("float_list", None),
        "x_max": ("int", 32),
        "t": ("float_list", [1.0, 2.0, 3.0, 4.0, 5.0, 6.0, 7.0, 8.0]),
        "theta": ("float", 0.1),
        "tolerance": ("float", 1e-10),
        "a": ("float", 1.0),
        "epsilon": ("float", 1.0),
        "eta": ("float", 1.0),
    },
    "bounds": {
        "d": ("int", 1),
        "omega": ("float", 1.0),
        "lambda": ("float_list", None),
        "mu": ("float_list", [0.5, 1.0, 2.0]),
        "t": ("float_list", list(_NINE_TIMES)),
        "window": ("int", 40),
        "points": ("int", 64),
        "a": ("float", 1.0),
        "epsilon": ("float", 1.0),
        "eta": ("float", 1.0),
        "a1": ("opt_float", None),
        "spot_trials": ("int", 0),
        "spot_radius": ("int", 4),
        "spot_t_max": ("float", 1.0),
        "seed": ("int", 0),
    },
    "state": {
        "d": ("int", 1),
        "omega": ("float", 1.0),
        "lambda": ("float_list", None),
        "half_side": ("int", 64),
        "f": ("labels", [{"x": [0], "re": 0.5, "im": 0.0}]),
        "g1": ("labels", [{"x": [1], "re": 0.3, "im": 0.0}]),
        "g2": ("labels", [{"x": [-1], "re": 0.0, "im": 0.4}]),
        "t": ("float_list", [0.25, 0.5, 1.0, 2.0]),
        "continuity_start": ("float", 0.9),
        "continuity_stop": ("float", 1.1),
        "continuity_points": ("int", 9),
        "invariance_tol": ("float", 1e-8),
        "zero_convention": ("bool", False),
    },
    "converge": {
        "d": ("int", 1),
        "omega": ("float", 1.0),
        "lambda": ("float_list", None),
        "a": ("float", 1.0),
        "epsilon": ("float", 1.0),
        "eta": ("float", 1.0),
        "boxes": ("int_list", [4, 8, 16, 32, 64]),
        "t": ("float", 0.25),
        "window": ("int", 40),
        "perturbation": ("opt_str", None),
        "cosine_z": ("float", 0.2),
        "cosine_weight": ("float", 1.0),
        "cosine_sites": ("site_list", [[0]]),
        "f": ("labels", [{"x": [0], "re": 0.5, "im": 0.0}]),
        "onsite": ("bool", False),
    },
    "fock-verify": {
        "sites": ("int", 2),
        "omega": ("float", 1.0),
        "lambda": ("float_list", None),
        "cutoffs": ("int_list", [20, 30, 40]),
        "t": ("float", 0.5),
        "f": ("labels", [{"x": [0], "re": 0.4, "im": 0.0}]),
        "g": ("labels", [{"x": [1], "re": -0.3, "im": 0.2}]),
        "rel_tol": ("float", 1e-3),
    },
}

# Smallest meaningful value of a tolerance or count.
_LEAST = {"invariance_tol": 0.0, "rel_tol": 0.0, "spot_trials": 0, "continuity_points": 2}

_COMMON = {
    "command": ("opt_str", None),
    "output": ("opt_str", None),
    "format": ("opt_str", None),
}

DEFAULT_FORMAT = {
    "kernel": "csv",
    "cone": "json",
    "bounds": "json",
    "state": "json",
    "converge": "json",
    "fock-verify": "json",
}


def _site_value(x) -> list | None:
    """``[c, ...]`` for an int or a non-empty list of ints, else None."""
    if _is_int(x):
        return [x]
    if isinstance(x, list) and x and all(_is_int(c) for c in x):
        return list(x)
    return None


def _check_labels(key, value, errors) -> list | None:
    if not isinstance(value, list) or not value:
        errors.append(f"{key}: expected a non-empty list of label atoms")
        return None
    out = []
    for atom in value:
        if not isinstance(atom, dict):
            errors.append(f"{key}: label atoms must be objects with x/re/im")
            return None
        unknown = set(atom) - {"x", "re", "im"}
        if unknown:
            errors.append(f"{key}: unknown atom keys {sorted(unknown)}")
            return None
        if "x" not in atom:
            errors.append(f"{key}: label atom missing site coordinate x")
            return None
        x = _site_value(atom["x"])
        if x is None:
            errors.append(f"{key}: atom site must be an int or list of ints")
            return None
        re_part = atom.get("re", 0.0)
        im_part = atom.get("im", 0.0)
        if not (_is_number(re_part) and _is_number(im_part)):
            errors.append(f"{key}: atom re/im must be finite numbers")
            return None
        out.append({"x": x, "re": float(re_part), "im": float(im_part)})
    return out


def _check_value(key, kind, value, errors):
    if kind == "int":
        if _is_int(value):
            return value
        errors.append(f"{key}: expected an integer, got {value!r}")
    elif kind == "float":
        if _is_number(value):
            return float(value)
        errors.append(f"{key}: expected a finite number, got {value!r}")
    elif kind == "opt_float":
        if value is None or _is_number(value):
            return None if value is None else float(value)
        errors.append(f"{key}: expected a finite number or null, got {value!r}")
    elif kind == "bool":
        if isinstance(value, bool):
            return value
        errors.append(f"{key}: expected true/false, got {value!r}")
    elif kind == "opt_str":
        if value is None or isinstance(value, str):
            return value
        errors.append(f"{key}: expected a string or null, got {value!r}")
    elif kind == "float_list":
        if isinstance(value, list) and value and all(_is_number(v) for v in value):
            return [float(v) for v in value]
        errors.append(f"{key}: expected a non-empty list of finite numbers, got {value!r}")
    elif kind == "int_list":
        if isinstance(value, list) and value and all(_is_int(v) for v in value):
            return list(value)
        errors.append(f"{key}: expected a non-empty list of integers, got {value!r}")
    elif kind == "labels":
        return _check_labels(key, value, errors)
    elif kind == "site_list":
        sites = [_site_value(x) for x in value] if isinstance(value, list) else []
        if sites and None not in sites:
            return sites
        errors.append(f"{key}: expected a non-empty list of sites, got {value!r}")
    else:
        raise AssertionError(f"unhandled kind {kind}")
    return None


def _default_sites(kind, default, d):
    """A default label or site list with its 1-D sites padded with zeros to d coordinates."""
    if not _is_int(d) or kind not in ("labels", "site_list"):
        return default
    if kind == "labels":
        return [{**atom, "x": atom["x"] + [0] * (d - 1)} for atom in default]
    return [x + [0] * (d - 1) for x in default]


def parse_scenario(command: str, file_config: dict, overrides: dict) -> dict:
    """Merge config file and flag overrides into a validated scenario.

    Strict mode: unknown keys are errors, and every problem found is
    reported, not just the first.
    """
    schema = dict(_COMMON)
    schema.update(SCHEMAS[command])
    errors = []

    if not isinstance(file_config, dict):
        raise ScenarioError(["config file must hold a JSON object"])
    for key in sorted(set(file_config) - set(schema)):
        errors.append(f"unknown config key {key!r} for command {command!r}")

    merged = {}
    for key, (kind, default) in schema.items():
        if key in overrides and overrides[key] is not None:
            raw = overrides[key]
            if kind == "float" and isinstance(raw, list):
                if len(raw) == 1:
                    raw = raw[0]
                else:
                    errors.append(f"{key}: flag needs a single number")
                    continue
            merged[key] = _check_value(key, kind, raw, errors)
        elif key in file_config:
            merged[key] = _check_value(key, kind, file_config[key], errors)
        else:
            merged[key] = _default_sites(kind, default, merged.get("d"))

    for key, least in _LEAST.items():
        value = merged.get(key)
        if value is not None and value < least:
            errors.append(f"{key}: must be at least {least}, got {value!r}")
    for key in ("cutoffs", "boxes"):
        value = merged.get(key)
        if value is not None and (value[0] < 1 or any(b <= a for a, b in zip(value, value[1:]))):
            errors.append(f"{key}: must be positive and strictly increasing")

    declared = merged.get("command")
    if declared is not None and declared != command:
        errors.append(f"config file declares command {declared!r} but {command!r} was invoked")
    merged["command"] = command

    fmt = merged.get("format") or DEFAULT_FORMAT[command]
    if fmt not in ("csv", "json"):
        errors.append(f"format: expected 'csv' or 'json', got {fmt!r}")
    merged["format"] = fmt

    if command != "fock-verify":
        d = merged.get("d")
        if isinstance(d, int) and not 1 <= d <= 3:
            errors.append(f"d: dimension must be 1, 2, or 3, got {d}")
        if merged.get("lambda") is None:
            merged["lambda"] = [1.0] * (d if isinstance(d, int) else 1)
        elif isinstance(d, int) and len(merged["lambda"]) != d:
            errors.append(f"lambda: expected {d} couplings, got {len(merged['lambda'])}")
    else:
        if merged.get("lambda") is None:
            merged["lambda"] = [1.0]
        elif len(merged["lambda"]) != 1:
            errors.append("lambda: the oracle is one-dimensional, expected 1 coupling")
        sites = merged.get("sites")
        if isinstance(sites, int) and sites != 2 and not (
            sites == 1 and merged["lambda"] == [0.0]
        ):
            errors.append("sites: exact cross-checks need sites = 2, or sites = 1 with lambda 0")

    if merged["output"] is None:
        merged["output"] = f"{command.replace('-', '_')}.{merged['format']}"

    if errors:
        raise ScenarioError(errors)
    return merged


def _field_from_labels(geometry: LatticeGeometry, atoms: list) -> Field:
    entries = {}
    for atom in atoms:
        site = geometry.site(atom["x"])
        entries[site] = entries.get(site, 0.0) + complex(atom["re"], atom["im"])
    return Field(geometry, entries)


def _params(scenario: dict) -> HarmonicParameters:
    return HarmonicParameters(
        omega=scenario["omega"], couplings=tuple(scenario["lambda"])
    )


def _echo_config(scenario: dict) -> dict:
    # The output path is plumbing, not scenario; echoing it would break
    # byte-identity between runs that only differ in destination.
    return {key: scenario[key] for key in sorted(scenario) if key != "output"}


# ---------------------------------------------------------------------------
# Command runners.  Each returns (violated, csv_header, csv_rows, json_body);
# ``main`` renders the report in the requested format.


def _run_kernel(s: dict):
    params = _params(s)
    quad = QuadratureSpec(
        points_per_axis=s["points"], refinement_tolerance=s["tolerance"]
    )
    d = s["d"]
    ms = sorted(set(s["m"]))
    by_t, failed = [], None
    for t in s["t"]:
        try:
            by_t.append(compute_kernels(params, t, s["window"], quad, ms))
        except QuadratureConvergenceError as err:
            # Each error names the smallest unconverged m at its t; report
            # the first unconverged (m, t) in the rows' m-major order.
            if err.best is None:
                raise
            if failed is None or err.best.m < failed.best.m:
                failed = err
    if failed is not None:
        raise failed
    rows = [
        (m, t, *site, float(value), kernels[m].est_quadrature_error)
        for m in ms
        for t, kernels in zip(s["t"], by_t)
        for site, value in zip(kernels[m].sites.tolist(), kernels[m].samples)
    ]
    header = ["m", "t", *[f"x_{i + 1}" for i in range(d)], "value", "est_error"]
    return False, header, rows, {"rows": _Rows(header, rows)}


def _run_cone(s: dict):
    params = _params(s)
    d = s["d"]
    scan = cone_scan(params, s["x_max"], s["t"], s["theta"], s["tolerance"])
    fit = estimate_velocity(scan)
    profile = DecayProfile(d, epsilon=s["epsilon"], rate=s["a"])
    cert = derive_constants(params, s["a"], profile, eta=s["eta"])

    growth = np.array([cert.c_a * _growth(cert.v_a, t) for t in scan.t_grid])
    rhs = growth[:, None] * profile.value(scan.radii)
    if not rhs.all():
        raise DomainError("the certified bound underflows to 0 inside the scan")
    ratios = scan.values / rhs
    i, j = np.unravel_index(np.argmax(ratios), ratios.shape)  # the first maximum in row order
    sites = scan.sites.tolist()
    worst = {
        "ratio": float(ratios[i, j]),
        "t": scan.t_grid[i],
        "x": sites[j],
        "value": float(scan.values[i, j]),
        "rhs": float(rhs[i, j]),
    }
    rows = [
        (t, *site, value)
        for t, values in zip(scan.t_grid, scan.values.tolist())
        for site, value in zip(sites, values)
    ]
    violated = worst["ratio"] > 1.0
    header = ["t", *[f"x_{k + 1}" for k in range(d)], "value"]
    return violated, header, rows, {
        "velocity": fit.v_emp,
        "fit_residual": fit.fit_residual,
        "certificate": asdict(cert),
        "bound_satisfied": not violated,
        "worst_point": worst,
        "rows": _Rows(header, rows),
    }


def _run_bounds(s: dict):
    params = _params(s)
    quad = QuadratureSpec(points_per_axis=s["points"])
    rows = []
    max_ratio = -math.inf
    worst = {}
    reports = verify_kernel_bounds(params, s["mu"], s["t"], s["window"], quad)
    for mu, report in zip(s["mu"], reports):
        rows.append((mu, report.max_ratio))
        if report.max_ratio > max_ratio:
            max_ratio = report.max_ratio
            worst = dict(report.worst_point)
            worst["mu"] = mu
            worst["x"] = list(worst["x"])
    profile = DecayProfile(s["d"], epsilon=s["epsilon"], rate=s["a"])
    cert = derive_constants(params, s["a"], profile, eta=s["eta"], a1=s["a1"])
    spot = None
    if s["spot_trials"] > 0:
        spot = spot_check_certificate(
            params,
            cert,
            profile,
            trials=s["spot_trials"],
            support_radius=s["spot_radius"],
            t_max=s["spot_t_max"],
            seed=s["seed"],
        )
    violated = max_ratio > 1.0 + 1e-9 or (spot is not None and spot > 1.0)
    header = ["mu", "max_ratio"]
    return violated, header, rows, {
        "max_ratio": max_ratio,
        "worst_point": worst,
        "per_mu": _Rows(header, rows),
        "certificate": asdict(cert),
        "spot_check_ratio": spot,
        "bound_satisfied": not violated,
    }


def _run_state(s: dict):
    params = _params(s)
    geometry = LatticeGeometry.torus(s["d"], half_side=s["half_side"])
    state = QuasiFreeState(params, geometry)
    f = _field_from_labels(geometry, s["f"])
    g1 = _field_from_labels(geometry, s["g1"])
    g2 = _field_from_labels(geometry, s["g2"])
    zero = s["zero_convention"]

    base = state_eval(state, WeylOperator(f), zero_convention=zero)
    worst_err = -math.inf
    worst_t = None
    invariance = []
    # rho(tau_t(W(f))) is the three-point value with g1 = g2 = 0.
    nil = Field.zero(geometry)
    for t, moved in zip(s["t"], _three_point_values(state, nil, f, nil, s["t"], zero)):
        err = abs(moved - base)
        invariance.append((t, err))
        if err > worst_err:
            worst_err, worst_t = err, t

    n = s["continuity_points"]
    start, stop = s["continuity_start"], s["continuity_stop"]
    t_grid = [start + (stop - start) * i / (n - 1) for i in range(n)]
    values, modulus = three_point_continuity(state, g1, f, g2, t_grid, zero)

    violated = worst_err > s["invariance_tol"]
    rows = [(t, v.real, v.imag) for t, v in zip(t_grid, values)]
    return violated, ["t", "re", "im"], rows, {
        "gaussian_value": {"re": base.real, "im": base.imag},
        "invariance": {
            "worst_error": worst_err,
            "worst_t": worst_t,
            "tolerance": s["invariance_tol"],
            "satisfied": not violated,
            "rows": _Rows(["t", "error"], invariance),
        },
        "continuity": {
            "t": t_grid,
            "values": _Rows(["re", "im"], [(v.real, v.imag) for v in values]),
            "modulus": modulus,
        },
    }


def _load_converge_family(s: dict, geometry: LatticeGeometry) -> PerturbationFamily:
    if s["perturbation"] is not None:
        return load_family(s["perturbation"], geometry)
    sites = [tuple(x) for x in s["cosine_sites"]]
    return cosine_family(
        geometry, sites, complex(s["cosine_z"], 0.0), weight=s["cosine_weight"]
    )


def _run_converge(s: dict):
    params = _params(s)
    geometry = LatticeGeometry.infinite(s["d"])
    family = _load_converge_family(s, geometry)
    profile = DecayProfile(s["d"], epsilon=s["epsilon"], rate=s["a"])
    cert = derive_constants(params, s["a"], profile, eta=s["eta"])
    conv = convolution_constant(profile, s["window"])
    moment = first_moment(family)
    if s["onsite"]:
        kappa = second_moment(family)
        pair_report = {"kappa_a": kappa, "worst_pair": None, "converged": True}
    else:
        pm = pair_moment(family, profile, s["window"])
        kappa = pm.kappa_a
        pair_report = {
            "kappa_a": pm.kappa_a,
            "worst_pair": [list(site) for site in pm.worst_pair] if pm.worst_pair else None,
            "converged": pm.converged,
        }

    f = _field_from_labels(geometry, s["f"])
    tails = []
    for inner, outer in zip(s["boxes"], s["boxes"][1:]):
        tail = convergence_tail(
            f, inner, outer, s["t"], moment, cert, kappa, conv.value, profile, s["onsite"]
        )
        tails.append((inner, outer, tail))
    # A tail that has reached 0 cannot decrease further.
    monotone = all(b[2] < a[2] or b[2] == a[2] == 0.0 for a, b in zip(tails, tails[1:]))
    header = ["inner_box", "outer_box", "tail"]
    return not monotone, header, tails, {
        "moments": {
            "first": moment,
            "pair": pair_report,
            "convolution_constant": conv.value,
            "convolution_converged": conv.converged,
        },
        "certificate": asdict(cert),
        "tails": _Rows(header, tails),
        "monotone": monotone,
    }


def _run_fock_verify(s: dict):
    params = _params(s)
    sites = s["sites"]
    if sites == 2:
        geometry = LatticeGeometry.torus(1, half_side=1)
    else:
        geometry = LatticeGeometry.infinite(1)
    f = _field_from_labels(geometry, s["f"])
    g = _field_from_labels(geometry, s["g"])
    t = s["t"]
    exact = commutator_norm(f, g, params, t)

    study = []
    for cutoff in s["cutoffs"]:
        config = FockConfig(sites=sites, cutoff=cutoff, params=params)
        value = commutator_oracle(config, f, g, t)
        denominator = max(abs(exact), 1e-300)
        study.append((cutoff, value, abs(value - exact) / denominator))
    final_value = study[-1][1]
    error = study[-1][2]
    violated = error > s["rel_tol"]
    header = ["cutoff", "value", "relative_error"]
    return violated, header, study, {
        "quantity": "commutator_norm",
        "value": final_value,
        "reference": exact,
        "error_estimate": error,
        "tolerance": s["rel_tol"],
        "satisfied": not violated,
        "cutoff_study": _Rows(header, study),
    }


RUNNERS = {
    "kernel": _run_kernel,
    "cone": _run_cone,
    "bounds": _run_bounds,
    "state": _run_state,
    "converge": _run_converge,
    "fock-verify": _run_fock_verify,
}


# ---------------------------------------------------------------------------
# Argument parsing and entry point.


def _float_list(text: str) -> list:
    return [float(part) for part in text.split(",") if part.strip()]


@cache
def build_parser() -> argparse.ArgumentParser:
    """The CLI's argument parser, built once per process (parsing leaves it unchanged)."""
    parser = argparse.ArgumentParser(
        prog="lrlattice",
        description="Deterministic scans and verification reports for "
        "harmonic-lattice dynamics and their propagation bounds.",
    )
    parser.add_argument("command", choices=COMMANDS, help="scenario to run")
    parser.add_argument("--config", help="JSON config file")
    parser.add_argument("--output", help="report path (default: <command>.<format>)")
    parser.add_argument("--format", choices=("csv", "json"), help="report format")
    parser.add_argument("--seed", type=int, help="seed for the bounds spot check")
    parser.add_argument("--d", type=int, help="lattice dimension")
    parser.add_argument("--omega", type=float, help="on-site frequency")
    parser.add_argument(
        "--lambda",
        dest="lambda_",
        type=_float_list,
        metavar="L1,..,LD",
        help="coupling per axis",
    )
    parser.add_argument("--t", type=_float_list, metavar="T1,..,TN", help="time grid")
    parser.add_argument("--window", type=int, help="kernel window radius")
    parser.add_argument("--theta", type=float, help="cone threshold")
    parser.add_argument("--a", type=float, help="decay-profile rate")
    parser.add_argument("--x-max", dest="x_max", type=int, help="cone scan radius")
    parser.add_argument("--sites", type=int, help="oracle site count")
    return parser


def _flag_overrides(args: argparse.Namespace) -> dict:
    """Schema key -> value for every flag given; ``--lambda`` is stored as ``lambda_``."""
    return {
        "lambda" if k == "lambda_" else k: v
        for k, v in vars(args).items()
        if k not in ("command", "config") and v is not None
    }


def main(argv=None) -> int:
    args = build_parser().parse_args(argv)
    file_config: dict = {}
    if args.config is not None:
        try:
            with open(args.config, "r", encoding="utf-8") as handle:
                file_config = json.load(handle)
        except OSError as err:
            print(f"config error: cannot read {args.config}: {err}", file=sys.stderr)
            return 2
        except json.JSONDecodeError as err:
            print(f"config error: {args.config} is not valid JSON: {err}", file=sys.stderr)
            return 2

    overrides = _flag_overrides(args)
    unknown_flags = set(overrides) - set(_COMMON) - set(SCHEMAS[args.command])
    if unknown_flags:
        for flag in sorted(unknown_flags):
            print(
                f"config error: flag --{flag.replace('_', '-')} does not apply to "
                f"command {args.command!r}",
                file=sys.stderr,
            )
        return 2

    try:
        scenario = parse_scenario(args.command, file_config, overrides)
    except ScenarioError as err:
        for message in err.messages:
            print(f"config error: {message}", file=sys.stderr)
        return 2

    try:
        violated, header, rows, body = RUNNERS[args.command](scenario)
        if scenario["format"] == "csv":
            text = csv_report(header, rows)
        else:
            text = json_report({"config": _echo_config(scenario), **body})
        atomic_write(scenario["output"], text)
    except (DomainError, ValueError, ArithmeticError, OSError, QuadratureConvergenceError) as err:
        print(f"error: {err}", file=sys.stderr)
        return 2
    if violated:
        print("bound violation: see the report for the worst point", file=sys.stderr)
        return 1
    return 0


if __name__ == "__main__":
    sys.exit(main())
