"""Acceptance suite: twelve end-to-end checks at their stated tolerances.

Each test prints one [PASS]/[FAIL] line (visible even under capture) naming
the criterion and the measured margin, then asserts it.
"""

import json
import math
import time

import numpy as np

from lrlattice import (
    DecayProfile,
    Field,
    FockConfig,
    HarmonicParameters,
    LatticeGeometry,
    QuasiFreeState,
    WeylOperator,
    apply_propagator_convolution,
    apply_propagator_torus,
    bogoliubov_multipliers,
    commutator_norm,
    commutator_oracle,
    cone_scan,
    convergence_tail,
    convergence_tail_sets,
    convolution_constant,
    compute_kernel,
    cosine_family,
    derive_constants,
    estimate_velocity,
    first_moment,
    harmonic_bound_rhs,
    heisenberg_evolve,
    pair_moment,
    perturbation_matrix,
    perturbed_evolve,
    state_eval,
    symplectic_form,
    three_point_continuity,
    verify_kernel_bounds,
    volume_compare,
    weyl_matrix,
)
from lrlattice.cli import main as cli_main

CHAIN = HarmonicParameters(omega=1.0, couplings=(1.0,))
MASSLESS = HarmonicParameters(omega=0.0, couplings=(1.0,))
RING2 = LatticeGeometry.torus(1, 1)


def _report(capsys, number, title, ok, detail):
    with capsys.disabled():
        verdict = "PASS" if ok else "FAIL"
        print(f"[{verdict}] criterion {number:2d}: {title} ({detail})")


def test_criterion_01_kernel_identity_at_zero_time(capsys):
    started = time.time()
    worst = 0.0
    for d in (1, 2):
        for omega in (0.0, 1.0):
            params = HarmonicParameters(omega=omega, couplings=(1.0,) * d)
            for m in (-1, 0, 1):
                kernel = compute_kernel(params, m, 0.0, 6)
                expected = np.zeros(len(kernel.sites))
                if m == 0:
                    expected[kernel.sites.tolist().index([0] * d)] = 1.0
                worst = max(worst, float(np.max(np.abs(kernel.samples - expected))))
    elapsed = time.time() - started
    ok = worst <= 1e-10 and elapsed < 10.0
    _report(capsys, 1, "zero-time kernel identity", ok,
            f"max deviation {worst:.3e}, {elapsed:.1f}s")
    assert worst <= 1e-10
    assert elapsed < 10.0


def test_criterion_02_decoupled_rotation(capsys):
    geometry = LatticeGeometry.infinite(1, window_radius=8)
    entries = {(0,): 0.6 - 0.3j, (2,): 0.1 + 0.4j}
    f = Field(geometry, entries)
    worst = 0.0
    for omega in (0.5, 1.0, 2.0):
        params = HarmonicParameters(omega=omega, couplings=(0.0,))
        for t in (0.25, 1.0, 4.0):
            moved = apply_propagator_convolution(f, params, t)
            assert set(moved.support()) <= set(entries)
            c, s = math.cos(2.0 * omega * t), math.sin(2.0 * omega * t)
            for site, value in entries.items():
                expected = complex(
                    c * value.real - omega * s * value.imag,
                    (s / omega) * value.real + c * value.imag,
                )
                worst = max(worst, abs(moved.value(site) - expected))
    ok = worst <= 1e-10
    _report(capsys, 2, "decoupled single-site rotation", ok, f"max deviation {worst:.3e}")
    assert worst <= 1e-10


def test_criterion_03_torus_agrees_with_convolution(capsys):
    started = time.time()
    torus = LatticeGeometry.torus(1, 128)
    geometry = LatticeGeometry.infinite(1, window_radius=127)
    entries = {(0,): 0.7 - 0.2j, (3,): 0.4j, (-5,): 0.25}
    on_ring = Field(torus, dict(entries))
    on_line = Field(geometry, dict(entries))
    worst = 0.0
    for t in (0.5, 1.0, 2.0, 4.0):
        moved_ring = apply_propagator_torus(on_ring, CHAIN, t)
        moved_line = apply_propagator_convolution(on_line, CHAIN, t, tolerance=1e-9)
        for x in range(-32, 33):
            worst = max(worst, abs(moved_ring.value((x,)) - moved_line.value((x,))))
    elapsed = time.time() - started
    ok = worst <= 1e-8 and elapsed < 60.0
    _report(capsys, 3, "length-256 torus matches the infinite chain", ok,
            f"max deviation {worst:.3e} on |x| <= 32, {elapsed:.1f}s")
    assert worst <= 1e-8
    assert elapsed < 60.0


def test_criterion_04_group_law_and_symplectic_invariance(capsys):
    rng = np.random.default_rng(2024)
    torus = LatticeGeometry.torus(1, 32)
    worst_group = 0.0
    worst_symplectic = 0.0
    for _ in range(50):
        def random_label():
            sites = rng.choice(np.arange(-5, 6), size=3, replace=False)
            values = rng.normal(size=3) + 1j * rng.normal(size=3)
            return Field(torus, {(int(x),): complex(v) for x, v in zip(sites, values)})

        f, g = random_label(), random_label()
        s, t = rng.uniform(-2.0, 2.0, size=2)
        composed = apply_propagator_torus(apply_propagator_torus(f, CHAIN, t), CHAIN, s)
        direct = apply_propagator_torus(f, CHAIN, s + t)
        worst_group = max(worst_group, (composed - direct).norm_l2())
        moved_f = apply_propagator_torus(f, CHAIN, t)
        moved_g = apply_propagator_torus(g, CHAIN, t)
        worst_symplectic = max(
            worst_symplectic,
            abs(symplectic_form(moved_f, moved_g) - symplectic_form(f, g)),
        )
    ok = worst_group <= 1e-8 and worst_symplectic <= 1e-8
    _report(capsys, 4, "group law and symplectic invariance over 50 random pairs", ok,
            f"group {worst_group:.3e}, symplectic {worst_symplectic:.3e}")
    assert worst_group <= 1e-8
    assert worst_symplectic <= 1e-8


def test_criterion_05_kernel_envelopes_hold(capsys):
    started = time.time()
    t_grid = tuple(i * 0.25 for i in range(9))
    worst = -math.inf
    for omega, lam in ((1.0, 1.0), (0.0, 1.0)):
        for d in (1, 2):
            params = HarmonicParameters(omega=omega, couplings=(lam,) * d)
            for report in verify_kernel_bounds(params, (0.5, 1.0, 2.0), t_grid, 40):
                worst = max(worst, report.max_ratio)
    elapsed = time.time() - started
    ok = worst <= 1.0 + 1e-9 and elapsed < 120.0
    _report(capsys, 5, "exponential envelopes on every kernel sample", ok,
            f"max ratio {worst:.12f}, {elapsed:.1f}s")
    assert worst <= 1.0 + 1e-9
    assert elapsed < 120.0


def test_criterion_06_light_cone_velocity_and_bound(capsys):
    scan = cone_scan(MASSLESS, 24, tuple(float(t) for t in range(1, 9)))
    fit = estimate_velocity(scan)
    profile = DecayProfile(1, epsilon=1.0, rate=1.0)
    cert = derive_constants(MASSLESS, 1.0, profile)
    geometry = LatticeGeometry.infinite(1, window_radius=24)
    origin = Field.delta(geometry, (0,))
    worst_ratio = 0.0
    for i, t in enumerate(scan.t_grid):
        for j, site in enumerate(scan.sites.tolist()):
            rhs = harmonic_bound_rhs(origin, Field.delta(geometry, site), t, cert, profile)
            worst_ratio = max(worst_ratio, float(scan.values[i, j]) / rhs)
    ok = 1.8 <= fit.v_emp <= 2.1 and worst_ratio <= 1.0
    _report(capsys, 6, "massless light cone inside the certified bound", ok,
            f"velocity {fit.v_emp:.6f}, worst value/RHS {worst_ratio:.3e}")
    assert 1.8 <= fit.v_emp <= 2.1
    assert worst_ratio <= 1.0


def test_criterion_07_bogoliubov_identity_on_quadrature_nodes(capsys):
    worst = 0.0
    for d, points in ((1, 64), (2, 64)):
        axis = -np.pi + (2.0 * np.pi / points) * (np.arange(points) + 0.5)
        for omega in (0.5, 1.0, 2.0):
            params = HarmonicParameters(omega=omega, couplings=(1.0,) * d)
            if d == 1:
                nodes = [(k,) for k in axis]
            else:
                nodes = [(k1, k2) for k1 in axis[::4] for k2 in axis[::4]]
            for k in nodes:
                plus, minus = bogoliubov_multipliers(params, k)
                worst = max(worst, abs(0.25 * (plus**2 - minus**2) - 1.0))
    ok = worst <= 1e-12
    _report(capsys, 7, "Bogoliubov multiplier identity at the quadrature nodes", ok,
            f"max deviation {worst:.3e}")
    assert worst <= 1e-12


def test_criterion_08_state_invariance_and_continuity(capsys):
    torus = LatticeGeometry.torus(1, 32)
    state = QuasiFreeState(CHAIN, torus)
    f = Field(torus, {(0,): 0.5, (2,): 0.3j})
    base = state_eval(state, WeylOperator(f))
    worst = 0.0
    for t in (0.25, 0.5, 1.0, 2.0, 4.0):
        moved = state_eval(state, WeylOperator(apply_propagator_torus(f, CHAIN, t)))
        worst = max(worst, abs(moved - base))

    g1 = Field.delta(torus, (1,), 0.3)
    g2 = Field.delta(torus, (-1,), 0.4j)
    moduli = []
    for points in (9, 17, 33):
        grid = [0.9 + 0.2 * i / (points - 1) for i in range(points)]
        _, modulus = three_point_continuity(state, g1, f, g2, grid)
        moduli.append(modulus)
    ratios = [a / b for a, b in zip(moduli, moduli[1:])]
    ok = worst <= 1e-8 and all(r >= 1.9 for r in ratios)
    _report(capsys, 8, "state invariance and weak continuity", ok,
            f"invariance {worst:.3e}, refinement ratios {ratios[0]:.2f}, {ratios[1]:.2f}")
    assert worst <= 1e-8
    assert all(r >= 1.9 for r in ratios)


def test_criterion_09_fock_oracle_matches_the_algebra(capsys):
    started = time.time()
    f = Field.delta(RING2, (0,), 0.5)
    g = Field.delta(RING2, (1,), -0.4 + 0.3j)
    t = 1.0
    exact = commutator_norm(f, g, CHAIN, t)
    rel_errors = []
    for cutoff in (20, 40, 60):
        config = FockConfig(2, cutoff, CHAIN)
        value = commutator_oracle(config, f, g, t)
        rel_errors.append(abs(value - exact) / exact)
    elapsed = time.time() - started
    monotone = all(b < a for a, b in zip(rel_errors, rel_errors[1:]))
    ok = monotone and rel_errors[-1] <= 1e-3 and elapsed < 300.0
    _report(capsys, 9, "truncated-Fock commutator oracle", ok,
            f"relative errors {rel_errors[0]:.2e} > {rel_errors[1]:.2e} > "
            f"{rel_errors[2]:.2e}, {elapsed:.1f}s")
    assert monotone
    assert rel_errors[-1] <= 1e-3
    assert elapsed < 300.0


def test_criterion_10_dyson_residual_and_norm_bound(capsys):
    geometry = LatticeGeometry.infinite(1, window_radius=4)
    config = FockConfig(2, 10, CHAIN)
    family = cosine_family(geometry, [(0,), (1,)], z=0.2)
    w = weyl_matrix(config, Field.delta(geometry, (0,), 0.2))
    residuals = {}
    for steps in (16, 32, 64):
        _, residuals[steps] = perturbed_evolve(config, family, w, 0.8, quad_steps=steps)
    orders = (
        math.log2(residuals[16] / residuals[32]),
        math.log2(residuals[32] / residuals[64]),
    )
    p_norm = perturbation_matrix(config, family).norm()
    bound_ok = True
    worst_margin = 0.0
    for t in (0.4, 0.8):
        evolved, _ = perturbed_evolve(config, family, w, t, quad_steps=16)
        free = heisenberg_evolve(config, w, t)
        difference = (evolved - free).norm()
        allowed = (math.exp(abs(t) * p_norm) - 1.0) * w.norm()
        worst_margin = max(worst_margin, difference / allowed)
        bound_ok = bound_ok and difference <= allowed
    ok = min(orders) >= 2.0 and bound_ok
    _report(capsys, 10, "Dyson integral-equation residual and norm bound", ok,
            f"orders {orders[0]:.2f}, {orders[1]:.2f}; difference/bound {worst_margin:.3e}")
    assert min(orders) >= 2.0
    assert bound_ok


def test_criterion_11_thermodynamic_tails_and_volume_difference(capsys):
    geometry = LatticeGeometry.infinite(1, window_radius=4)
    profile = DecayProfile(1, epsilon=1.0, rate=1.0)
    cert = derive_constants(CHAIN, 1.0, profile)
    family = cosine_family(geometry, [(0,), (1,), (2,)], z=0.2)
    moment = first_moment(family)
    kappa_a = pair_moment(family, profile, 40).kappa_a
    conv = convolution_constant(profile, 40).value

    f = Field.delta(geometry, (0,), 0.2)
    boxes = (4, 8, 16, 32, 64)
    tails = [
        convergence_tail(f, inner, outer, 0.25, moment, cert, kappa_a, conv, profile)
        for inner, outer in zip(boxes, boxes[1:])
    ]
    monotone = all(b < a for a, b in zip(tails, tails[1:]))

    small = FockConfig(2, 10, CHAIN)
    large = FockConfig(3, 10, CHAIN)
    observable = weyl_matrix(small, f)
    measured = volume_compare(small, large, family, observable, (0.25, 0.5))
    tail_bound = convergence_tail_sets(
        f, [(0,), (1,)], [(0,), (1,), (2,)], 0.5, moment, cert, kappa_a, conv, profile
    )
    ok = monotone and tails[-1] < 1e-6 and measured <= tail_bound
    _report(capsys, 11, "volume convergence tails dominate the Fock measurement", ok,
            f"final tail {tails[-1]:.3e}, measured {measured:.3e} <= bound {tail_bound:.3e}")
    assert monotone
    assert tails[-1] < 1e-6
    assert measured <= tail_bound


CLI_SCENARIOS = {
    "kernel": {"t": [0.5, 1.0], "window": 12},
    "cone": {"x_max": 12, "t": [1.0, 2.0, 3.0, 4.0]},
    "bounds": {
        "mu": [0.5, 1.0, 2.0],
        "t": [0.5, 1.0],
        "window": 16,
        "spot_trials": 5,
        "spot_radius": 2,
    },
    "state": {"half_side": 32, "t": [0.5, 1.0], "continuity_points": 9},
    "converge": {"boxes": [4, 8, 16, 32], "window": 24},
    "fock-verify": {
        "cutoffs": [12, 16],
        "f": [{"x": [0], "re": 0.3, "im": 0.0}],
        "g": [{"x": [1], "re": -0.2, "im": 0.15}],
        "rel_tol": 10.0,
    },
}


def test_criterion_12_cli_reports_are_byte_identical(capsys, tmp_path):
    mismatched = []
    for command, config in CLI_SCENARIOS.items():
        config_path = tmp_path / f"{command}.json"
        config_path.write_text(json.dumps(config))
        outputs = []
        for run in ("first", "second"):
            out = tmp_path / f"{command}-{run}.out"
            code = cli_main(
                [command, "--config", str(config_path), "--output", str(out)]
            )
            assert code in (0, 1)
            outputs.append(out.read_bytes())
        if outputs[0] != outputs[1]:
            mismatched.append(command)
    ok = not mismatched
    _report(capsys, 12, "CLI scenarios are byte-identical across reruns", ok,
            f"{len(CLI_SCENARIOS)} scenarios" if ok else f"mismatch: {mismatched}")
    assert not mismatched
