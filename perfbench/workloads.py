"""Seeded request streams for the three benchmark workloads.

A run sends its workload's requests one at a time (a closed loop with one
client).  The stream comes in passes of about nine seconds, so a run holds
several.  Every pass of a workload has the same composition -- the same
commands, dimensions and size bands -- while the seed and the pass index
choose the parameters (frequencies, couplings, times, labels, sizes inside
each band), the order, and which requests are repeated verbatim.  Fixing
the composition keeps the work per pass nearly the same across seeds, so
timings from different seeds can be compared, and it makes the sorted
latencies of any number of passes form the same plateaus: ``TAIL_LEVEL``
places each workload's tail percentile in the middle of one, as the median
already is.

A request is a plain dict:

* ``{"id", "kind": "cli", "command", "config"}`` -- one ``lrlattice`` CLI
  call with ``config`` written to a JSON config file;
* ``{"id", "kind": "dyson" | "volume", "args", "group"}`` -- one library
  call sequence from :mod:`checks`, for paths no CLI command reaches.

The program sees only these generated configs and arguments, never the seed.
"""

from __future__ import annotations

import random

WORKLOADS = ("lattice-sweep", "fock-oracle", "fock-dyson")

# Percentile level of latency_tail_s per workload.  It is fixed, not derived
# from the run's request count, so that a faster commit, which completes
# more passes, is measured at the same level.  The comments at each
# generator say which plateau of the sorted latencies it falls in.
TAIL_LEVEL = {"lattice-sweep": 0.865, "fock-oracle": 0.82, "fock-dyson": 0.87}


def make_pass(workload: str, seed: int, index: int) -> list[dict]:
    """Requests of pass ``index`` of ``workload`` for ``seed``."""
    rng = random.Random(f"{workload}/{seed}/{index}")
    requests = _GENERATORS[workload](rng)
    for number, request in enumerate(requests):
        request["id"] = f"p{index}.r{number}"
    return requests


def _u(rng: random.Random, lo: float, hi: float) -> float:
    return round(rng.uniform(lo, hi), 4)


def _omega(rng: random.Random, massless: bool) -> float:
    """omega in {0} U [0.2, 2]; zero only where the command allows it."""
    if massless and rng.random() < 0.3:
        return 0.0
    return _u(rng, 0.2, 2.0)


def _couplings(rng: random.Random, d: int) -> list[float]:
    """Couplings in [0.5, 1.5]."""
    return [_u(rng, 0.5, 1.5) for _ in range(d)]


def _site(rng: random.Random, d: int, lo: int, hi: int) -> list[int]:
    return [rng.randint(lo, hi) for _ in range(d)]


def _labels(rng: random.Random, d: int, lo: int, hi: int, atoms: int) -> list[dict]:
    return [
        {"x": _site(rng, d, lo, hi), "re": _u(rng, -0.5, 0.5), "im": _u(rng, -0.5, 0.5)}
        for _ in range(atoms)
    ]


def _times(rng: random.Random, count: int, lo: float, hi: float) -> list[float]:
    return sorted(_u(rng, lo, hi) for _ in range(count))


def _cli(command: str, config: dict) -> dict:
    return {"kind": "cli", "command": command, "config": config}


# ---------------------------------------------------------------------------
# lattice-sweep: the CLI commands other than fock-verify.


def _kernel(rng, d, window_lo, window_hi, times):
    return _cli(
        "kernel",
        {
            "d": d,
            "omega": _omega(rng, massless=True),
            "lambda": _couplings(rng, d),
            "t": _times(rng, times, 0.25, 2.0),
            "window": rng.randint(window_lo, window_hi),
            "format": rng.choice(["csv", "json"]),
        },
    )


def _cone(rng, d, x_lo, x_hi):
    start = _u(rng, 0.95, 1.05)
    step = _u(rng, 0.95, 1.05)
    return _cli(
        "cone",
        {
            "d": d,
            "omega": _omega(rng, massless=True),
            "lambda": _couplings(rng, d),
            "x_max": rng.randint(x_lo, x_hi),
            "t": [round(start + i * step, 4) for i in range(6)],
            # In d = 2 the front's amplitude decays with t; above about
            # 0.15 too few slices cross the threshold for a velocity fit.
            "theta": _u(rng, 0.05, 0.2 if d == 1 else 0.12),
        },
    )


def _bounds(rng, d, window_lo, window_hi, spot_trials):
    config = {
        "d": d,
        "omega": _omega(rng, massless=True),
        "lambda": _couplings(rng, d),
        "mu": sorted(rng.sample([0.5, 1.0, 1.5, 2.0], 2)),
        "t": _times(rng, 4, 0.0, 2.0),
        "window": rng.randint(window_lo, window_hi),
        "seed": rng.randint(0, 2**31 - 1),
    }
    if d == 3:
        config["points"] = 16
        config["t"] = _times(rng, 2, 0.0, 1.0)
    if spot_trials:
        config.update(spot_trials=spot_trials, spot_radius=rng.randint(2, 4))
    return _cli("bounds", config)


def _state(rng, d, half_side, t_count=4):
    near = min(half_side, 3)
    return _cli(
        "state",
        {
            "d": d,
            "omega": _omega(rng, massless=False),
            "lambda": _couplings(rng, d),
            "half_side": half_side,
            "f": _labels(rng, d, -near + 1, near, 2),
            "g1": _labels(rng, d, -near + 1, near, 1),
            "g2": _labels(rng, d, -near + 1, near, 1),
            "t": _times(rng, t_count, 0.1, 2.0),
            "format": rng.choice(["csv", "json"]),
        },
    )


def _converge(rng, d, boxes, window_lo=8, window_hi=24):
    return _cli(
        "converge",
        {
            "d": d,
            "omega": _omega(rng, massless=False),
            "lambda": _couplings(rng, d),
            "boxes": boxes,
            "t": _u(rng, 0.1, 0.5),
            "window": rng.randint(window_lo, window_hi),
            "cosine_z": _u(rng, 0.1, 0.3),
            "cosine_sites": [_site(rng, d, 0, 1)],
            "f": _labels(rng, d, 0, 1, 1),
            "onsite": rng.random() < 0.5,
        },
    )


def _lattice_sweep(rng: random.Random) -> list[dict]:
    # Sizes are picked so that sorted latencies form plateaus.  Of the 52
    # requests, 18 fast d = 1 ones (<= 7 ms) come first; the median falls in
    # the middle of the next 19 (d = 1 tori and small d = 2 kernels, 9-18 ms),
    # and the tail (TAIL_LEVEL 0.865, between 43/52 and 47/52) among the four
    # d = 1 spot-checked bounds.  The five large requests are beyond it.
    # The pass opens with the d = 3 kernel, which needs the most memory, so
    # the peak RSS is reached at the same point of every run.
    opening = _kernel(rng, 3, 6, 10, 1)
    large = [
        _cone(rng, 2, 24, 32),
        _state(rng, 2, rng.randint(64, 80)),
        _state(rng, 3, 12, t_count=2),
        _bounds(rng, 2, 4, 8, spot_trials=20),
    ]
    middle = [_bounds(rng, 1, 16, 24, spot_trials=40) for _ in range(4)]
    fast, plateau, slow = [], [], []
    for _ in range(5):
        fast.append(_kernel(rng, 1, 16, 32, 2))
        fast.append(_bounds(rng, 1, 16, 40, spot_trials=0))
        fast.append(_converge(rng, 1, [4, 8, 16, 32]))
    for _ in range(14):
        plateau.append(_state(rng, 1, rng.randint(44, 52)))
    for _ in range(2):
        slow.append(_kernel(rng, 2, 8, 12, 1))
        slow.append(_cone(rng, 1, 24, 32))
    slow += [
        _bounds(rng, 3, 3, 5, spot_trials=0),
        _converge(rng, 2, [2, 4, 8, 16]),
        _converge(rng, 3, [2, 4, 8], 4, 6),
        _state(rng, 2, rng.randint(8, 16)),
    ]
    stream = large + middle + fast + plateau + slow
    rng.shuffle(stream)
    stream = [opening] + stream
    # Three fast and three plateau requests are sent again verbatim later
    # in the pass, so the ball_sites and kernel caches see hits.
    for original in rng.sample(fast, 3) + rng.sample(plateau, 3):
        at = rng.randint(stream.index(original) + 1, len(stream))
        stream.insert(at, dict(original, repeat=True))
    return stream


# ---------------------------------------------------------------------------
# fock-oracle: fock-verify on the 2-site ring.


def _oracle_label(rng: random.Random, site: int) -> list[dict]:
    return [{"x": [site], "re": _u(rng, -0.35, 0.35), "im": _u(rng, -0.35, 0.35)}]


def _fock_verify(rng: random.Random, top: int) -> dict:
    # The truncation error grows with omega^2 + 4 lambda: at strong coupling
    # no cutoff up to 44 reaches 1e-2, and fock-verify exits 1 by design.
    # omega <= 1 and lambda <= 0.5 keep the top rung (>= 28) accurate.
    # fock-verify's rel_tol is purely relative, so a reference norm near zero
    # fails it however small the absolute error; the benchmark checks the
    # oracle with an absolute floor instead (checks.ORACLE_ATOL).
    # The work grows about as cutoff^5, so the one lower rung is kept in
    # 16-18, where it adds 5-10 % to a ladder's cost whatever the seed.
    return _cli(
        "fock-verify",
        {
            "sites": 2,
            "omega": _u(rng, 0.5, 1.0),
            "lambda": [_u(rng, 0.25, 0.5)],
            "t": _u(rng, 0.25, 1.5),
            "cutoffs": [rng.randint(16, 18), top],
            "f": _oracle_label(rng, 0),
            "g": _oracle_label(rng, 1),
            "rel_tol": 10.0,
        },
    )


# Top rung of each fock-verify ladder in one pass.  The median falls in the
# middle of the cutoff-28 ladders (8 of 11), the tail (TAIL_LEVEL 0.82,
# between 8/11 and 10/11) among the cutoff-30 ones.
ORACLE_TOPS = (44,) + (30,) * 2 + (28,) * 8


def _fock_oracle(rng: random.Random) -> list[dict]:
    # The cutoff-44 ladder, about half of a pass, needs the most memory; it
    # opens the pass so the peak RSS is reached at the same point of every run.
    first, *rest = [_fock_verify(rng, top) for top in ORACLE_TOPS]
    rng.shuffle(rest)
    return [first] + rest


# ---------------------------------------------------------------------------
# fock-dyson: perturbed evolution and volume comparison via the library.


def _model(rng: random.Random) -> dict:
    return {"omega": _u(rng, 0.5, 1.5), "lambda": _u(rng, 0.25, 1.0)}


def _weyl_args(rng: random.Random) -> dict:
    # Labels and cosine amplitudes of at most about 0.2 keep the vacuum
    # leakage past cutoff 10 below weyl_matrix's 1e-6 limit.
    return {"z": _u(rng, 0.1, 0.2), "amplitude": [_u(rng, 0.1, 0.2), _u(rng, -0.05, 0.05)]}


# Of the 19 requests of a pass, the median falls among the three 16-step
# calls at cutoff 14 (9th to 11th), the tail (TAIL_LEVEL 0.87, between 15/19
# and 18/19) among their 64-step calls; only the volume comparison is beyond
# it.  The quadrature residual only reaches its asymptotic order >= 2 from
# 16 Simpson steps on when t * sqrt(omega^2 + 4 lambda) stays small, hence
# lambda <= 1 and t <= 0.55.
DYSON_CUTOFFS = (14,) * 3 + (12, 11, 10)
QUAD_STEPS = (16, 32, 64)


def _fock_dyson(rng: random.Random) -> list[dict]:
    groups = []
    for cutoff in DYSON_CUTOFFS:
        args = dict(_model(rng), **_weyl_args(rng), cutoff=cutoff, t=_u(rng, 0.3, 0.55))
        groups.append(
            [{"kind": "dyson", "args": dict(args, quad_steps=steps)} for steps in QUAD_STEPS]
        )
    rng.shuffle(groups)
    # The volume comparison (up to 1331 states) needs the most memory; it
    # opens the pass so the peak RSS is reached at the same point of every run.
    args = dict(_model(rng), **_weyl_args(rng), cutoff=10, t_grid=_times(rng, 1, 0.25, 0.75))
    volume = [{"kind": "volume", "args": args}]
    stream = []
    for number, group in enumerate([volume] + groups):
        for request in group:
            request["group"] = number
            stream.append(request)
    return stream


_GENERATORS = {
    "lattice-sweep": _lattice_sweep,
    "fock-oracle": _fock_oracle,
    "fock-dyson": _fock_dyson,
}
