"""Running one request, reading its numbers back, and checking them.

Only the call into the program is timed: ``cli.main`` for CLI requests
(it reads the config file and writes the report, as a CLI user's call does),
and the library call sequence for ``dyson`` and ``volume`` requests.
Writing the config, parsing the report and the checks run outside the timed
region.

A request fails when it raises, exits with a nonzero status, or fails an
intrinsic check or the reference comparison.  Exit status 1 ("a verified
bound was violated") counts as a failure: every workload is chosen so that
its bounds hold.
"""

from __future__ import annotations

import csv
import hashlib
import io
import json
import math
import os
import resource
import time

# Relative tolerance of the comparison against committed reference numbers.
# Values whose magnitude is at roundoff level (quadrature error estimates,
# invariance errors) are compared with an absolute floor instead.
REF_RTOL = 1e-9
REF_ATOL = 1e-12

# Accuracy the oracle must reach at the top rung of each fock-verify ladder:
# |value - commutator_norm| <= ORACLE_RTOL * |commutator_norm| + ORACLE_ATOL.
ORACLE_RTOL = 1e-2
ORACLE_ATOL = 1e-3


class Runner:
    """Executes requests against the lrlattice package in ``workdir``."""

    def __init__(self, workdir: str, call=None):
        import lrlattice
        from lrlattice import cli

        self.lr = lrlattice
        self.cli = cli
        self.workdir = workdir
        # ``call(request_id, fn)`` runs ``fn``; the traced run passes its
        # recorder here so each request gets a root span.
        self.call = call or (lambda request_id, fn: fn())

    def run(self, request: dict) -> dict:
        """Run ``request``; return its record (timing, outcome, numbers)."""
        if request["kind"] == "cli":
            return self._run_cli(request)
        return self._run_api(request)

    # -- CLI requests ---------------------------------------------------------

    def _run_cli(self, request: dict) -> dict:
        config_path = os.path.join(self.workdir, "request.json")
        report_path = os.path.join(self.workdir, "report.out")
        with open(config_path, "w", encoding="utf-8") as handle:
            json.dump(request["config"], handle)
        argv = [request["command"], "--config", config_path, "--output", report_path]
        outcome = "ok"
        start = time.perf_counter()
        try:
            code = self.call(request["id"], lambda: self.cli.main(argv))
        except Exception as err:  # the benchmark must count, not crash
            code = None
            outcome = f"raised {type(err).__name__}: {err}"
        elapsed = time.perf_counter() - start
        record = {"id": request["id"], "seconds": elapsed, "exit": code, "rss_mb": _rss_mb()}
        if code != 0:
            record["outcome"] = outcome if code is None else f"exit {code}"
            return record
        with open(report_path, "rb") as handle:
            raw = handle.read()
        os.unlink(report_path)
        record["sha256"] = hashlib.sha256(raw).hexdigest()
        text = raw.decode("utf-8")
        fmt = request["config"].get("format") or self.cli.DEFAULT_FORMAT[request["command"]]
        record["numbers"] = _summarize(_report_numbers(text, fmt))
        problem = self._check_cli(request, text, fmt)
        record["outcome"] = problem or "ok"
        return record

    def _check_cli(self, request: dict, text: str, fmt: str) -> str | None:
        if fmt == "csv":
            rows = list(csv.reader(io.StringIO(text)))
            if len(rows) < 2:
                return "empty CSV report"
            return None
        report = json.loads(text)
        if request["command"] == "fock-verify":
            return self._check_oracle(request["config"], report)
        return None

    def _check_oracle(self, config: dict, report: dict) -> str | None:
        """The oracle against an independent commutator_norm, with an absolute floor."""
        lr = self.lr
        params = lr.HarmonicParameters(omega=config["omega"], couplings=tuple(config["lambda"]))
        geometry = lr.LatticeGeometry.torus(1, half_side=1)

        def label(atoms):
            return lr.Field(
                geometry, {(a["x"][0],): complex(a["re"], a["im"]) for a in atoms}
            )

        exact = lr.commutator_norm(label(config["f"]), label(config["g"]), params, config["t"])
        if not math.isclose(report["reference"], exact, rel_tol=1e-12, abs_tol=1e-15):
            return f"reference {report['reference']!r} differs from commutator_norm {exact!r}"
        error = abs(report["value"] - exact)
        if not error <= ORACLE_RTOL * abs(exact) + ORACLE_ATOL:
            return f"oracle value {report['value']!r} is {error:.3e} from commutator_norm {exact!r}"
        return None

    # -- library requests -----------------------------------------------------

    def _run_api(self, request: dict) -> dict:
        body = self._dyson if request["kind"] == "dyson" else self._volume
        args = request["args"]
        start = time.perf_counter()
        try:
            named = self.call(request["id"], lambda: body(args))
            outcome = "ok"
        except Exception as err:  # the benchmark must count, not crash
            named, outcome = None, f"raised {type(err).__name__}: {err}"
        elapsed = time.perf_counter() - start
        record = {"id": request["id"], "seconds": elapsed, "outcome": outcome, "rss_mb": _rss_mb()}
        if named is None:
            return record
        record["detail"] = named
        record["numbers"] = {"values": list(named.values())}
        if request["kind"] == "dyson":
            if not named["difference"] <= named["allowed"]:
                record["outcome"] = "perturbed evolution exceeds (e^{|t||P|}-1)|W|"
        elif not named["measured"] <= named["tail_bound"]:
            record["outcome"] = "volume difference exceeds convergence_tail_sets"
        return record

    def _chain(self, args: dict, sites: int):
        lr = self.lr
        params = lr.HarmonicParameters(omega=args["omega"], couplings=(args["lambda"],))
        return params, lr.FockConfig(sites, args["cutoff"], params)

    def _dyson(self, args: dict) -> dict:
        lr = self.lr
        _, config = self._chain(args, 2)
        geometry = lr.LatticeGeometry.infinite(1, window_radius=4)
        family = lr.cosine_family(geometry, [(0,), (1,)], z=args["z"])
        w = lr.weyl_matrix(config, lr.Field.delta(geometry, (0,), complex(*args["amplitude"])))
        t = args["t"]
        evolved, residual = lr.perturbed_evolve(config, family, w, t, quad_steps=args["quad_steps"])
        free = lr.heisenberg_evolve(config, w, t)
        difference = (evolved - free).norm()
        p_norm = lr.perturbation_matrix(config, family).norm()
        allowed = (math.exp(abs(t) * p_norm) - 1.0) * w.norm()
        return {"residual": residual, "difference": difference, "allowed": allowed}

    def _volume(self, args: dict) -> dict:
        lr = self.lr
        params, small = self._chain(args, 2)
        _, large = self._chain(args, 3)
        geometry = lr.LatticeGeometry.infinite(1, window_radius=4)
        family = lr.cosine_family(geometry, [(0,), (1,), (2,)], z=args["z"])
        f = lr.Field.delta(geometry, (0,), complex(*args["amplitude"]))
        measured = lr.volume_compare(small, large, family, lr.weyl_matrix(small, f), args["t_grid"])
        profile = lr.DecayProfile(1, epsilon=1.0, rate=1.0)
        cert = lr.derive_constants(params, 1.0, profile)
        moment = lr.first_moment(family)
        kappa = lr.pair_moment(family, profile, 40).kappa_a
        conv = lr.convolution_constant(profile, 40).value
        tail = lr.convergence_tail_sets(
            f, [(0,), (1,)], [(0,), (1,), (2,)], max(args["t_grid"]),
            moment, cert, kappa, conv, profile,
        )
        return {"measured": measured, "tail_bound": tail}


def check_dyson_orders(requests: list[dict], records: list[dict]) -> dict[str, str]:
    """Residual order >= 2 as quad_steps doubles, per dyson group.

    Returns request id -> problem for the last request of each failing group.
    """
    groups: dict = {}
    for request, record in zip(requests, records):
        if request["kind"] == "dyson" and "detail" in record:
            key = request["group"]
            groups.setdefault(key, []).append((request["args"]["quad_steps"], record))
    problems = {}
    for members in groups.values():
        members.sort(key=lambda m: m[0])
        residuals = [record["detail"]["residual"] for _, record in members]
        for coarse, fine in zip(residuals, residuals[1:]):
            if not (fine > 0 and math.log2(coarse / fine) >= 2.0):
                problems[members[-1][1]["id"]] = (
                    f"Dyson residual order below 2: residuals {residuals}"
                )
                break
    return problems


def _rss_mb() -> float:
    """Peak resident set of this process so far, in MiB."""
    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0


# ---------------------------------------------------------------------------
# Numbers in a report, and comparison against the reference.


def _report_numbers(text: str, fmt: str) -> list[float]:
    if fmt == "csv":
        out = []
        for row in list(csv.reader(io.StringIO(text)))[1:]:
            for cell in row:
                try:
                    out.append(float(cell))
                except ValueError:
                    pass
        return out
    report = json.loads(text)
    report.pop("config", None)  # the echoed inputs are not outputs
    out: list[float] = []
    _walk(report, out)
    return out


def _walk(node, out: list):
    if isinstance(node, bool) or node is None:
        return
    if isinstance(node, (int, float)):
        out.append(float(node))
    elif isinstance(node, str):
        try:  # non-finite floats are written as strings
            out.append(float(node))
        except ValueError:
            pass
    elif isinstance(node, dict):
        for value in node.values():
            _walk(value, out)
    elif isinstance(node, list):
        for value in node:
            _walk(value, out)


def _summarize(values: list[float]) -> dict:
    """All numbers of a short report; count and weighted sums of a long one."""
    if len(values) <= 64:
        return {"values": values}
    finite = [v for v in values if math.isfinite(v)]
    return {
        "count": len(values),
        "abs_sum": math.fsum(abs(v) for v in finite),
        "weighted_sum": math.fsum(v * (1.0 + (i % 7) / 7.0) for i, v in enumerate(finite)),
        "max_abs": max((abs(v) for v in finite), default=0.0),
    }


def _close(a: float, b: float, atol: float) -> bool:
    if isinstance(a, float) and isinstance(b, float) and not (math.isfinite(a) and math.isfinite(b)):
        return a == b or (math.isnan(a) and math.isnan(b))
    return math.isclose(a, b, rel_tol=REF_RTOL, abs_tol=atol)


def compare_numbers(got: dict, want: dict) -> str | None:
    """None when ``got`` matches the reference numbers ``want``."""
    if got.keys() != want.keys():
        return f"number keys {sorted(got)} differ from reference {sorted(want)}"
    if "values" in want:
        if len(got["values"]) != len(want["values"]):
            return f"{len(got['values'])} numbers, reference has {len(want['values'])}"
        for i, (a, b) in enumerate(zip(got["values"], want["values"])):
            if not _close(a, b, REF_ATOL):
                return f"number {i} is {a!r}, reference {b!r}"
        return None
    if "count" in want and got["count"] != want["count"]:
        return f"{got['count']} numbers, reference has {want['count']}"
    scale = REF_RTOL * want.get("abs_sum", 0.0) + REF_ATOL
    for key, expected in want.items():
        if key == "count":
            continue
        # A weighted sum can cancel; its error is measured against the
        # report's absolute sum.
        atol = scale if key == "weighted_sum" else REF_ATOL
        if not _close(got[key], expected, atol):
            return f"{key} is {got[key]!r}, reference {expected!r}"
    return None
