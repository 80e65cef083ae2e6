"""Package namespace: every public name is declared once, in its module,
and every public name the README's library tour and the benchmark's entry
points name exists."""

import ast
import dataclasses
import importlib
import itertools
import re
import types
from pathlib import Path

import lrlattice
from lrlattice import bounds, fock, harmonic, lattice, perturbations, weyl

MODULES = (lattice, harmonic, weyl, bounds, perturbations, fock)
ROOT = Path(__file__).resolve().parents[1]

PUBLIC_NAMES = {
    "__version__",
    # lattice
    "DomainError", "GeometryMismatchError", "LatticeGeometry", "DecayProfile",
    "UniformNorm", "ConvolutionConstant", "ball_sites", "shell_count",
    "site_sort_key", "uniform_norm", "convolution_constant",
    # harmonic
    "HarmonicParameters", "Field", "Kernel", "QuadratureSpec", "MU_GRID",
    "SingularModeError", "QuadratureConvergenceError",
    "WindowCertificationError", "gamma", "bogoliubov_multipliers", "symplectic_form",
    "compute_kernel", "compute_kernels", "kernel_envelope", "envelope_speed", "envelope_prefactor",
    "certified_window", "apply_propagator_torus", "apply_propagator_convolution",
    # weyl
    "ZeroModeError", "WeylOperator", "QuasiFreeState", "multiply", "adjoint", "commutator_norm",
    "smeared_norm_sq", "state_eval", "three_point", "three_point_continuity",
    # bounds
    "RATIO_FLOOR", "DecayCertificate", "KernelBoundReport", "VelocityFit", "ConeScan",
    "verify_kernel_bounds", "derive_constants", "pair_sum", "harmonic_bound_rhs",
    "cone_scan", "estimate_velocity", "spot_check_certificate",
    # perturbations
    "MeasureParityError", "AtomicWeylMeasure", "PerturbationFamily",
    "PairMoment", "second_moment", "pair_moment", "first_moment", "perturbed_bound",
    "convergence_tail", "convergence_tail_sets", "load_family", "cosine_family",
    # fock
    "TruncationLeakageError", "FockConfig", "DenseOperator", "build_hamiltonian",
    "weyl_matrix", "heisenberg_evolve", "perturbation_matrix", "perturbed_evolve",
    "commutator_oracle", "restricted_norm", "volume_compare",
}


def test_no_name_is_declared_by_two_modules():
    # a star import would let the later module silently shadow the earlier one
    for a, b in itertools.combinations(MODULES, 2):
        assert not set(a.__all__) & set(b.__all__), (a.__name__, b.__name__)


def test_each_module_list_names_only_its_own_definitions():
    for module in MODULES:
        assert len(module.__all__) == len(set(module.__all__)), module.__name__
        for name in module.__all__:
            value = getattr(module, name)
            owner = getattr(value, "__module__", module.__name__)
            assert owner == module.__name__, (module.__name__, name)


def test_star_import_exports_exactly_the_union_of_module_lists():
    namespace: dict = {}
    exec("from lrlattice import *", namespace)
    exported = set(namespace) - {"__builtins__"}
    union = {"__version__"}.union(*(m.__all__ for m in MODULES))
    assert exported == union == set(lrlattice.__all__)
    assert len(lrlattice.__all__) == len(union)
    for name in union - {"__version__"}:
        owner = next(m for m in MODULES if name in m.__all__)
        assert getattr(lrlattice, name) is getattr(owner, name)


def test_public_names_are_the_documented_set():
    assert set(lrlattice.__all__) == PUBLIC_NAMES


def _library_tour_names() -> list[str]:
    """Every backticked dotted name (a trailing ``()`` dropped) in the README's
    "Library tour" table."""
    text = (ROOT / "README.md").read_text(encoding="utf-8")
    section = text.split("## Library tour\n", 1)[1].lstrip("\n").splitlines()
    table = "\n".join(itertools.takewhile(lambda line: line.startswith("|"), section))
    spans = re.findall(r"`([^`]+)`", table)
    return [s.removesuffix("()") for s in spans if re.fullmatch(r"[A-Za-z_][\w.]*(\(\))?", s)]


def _resolves(name: str) -> bool:
    """``name`` is a public package name, a submodule, or an attribute or
    dataclass field reached from one."""
    head, *rest = name.removeprefix("lrlattice.").split(".")
    obj = getattr(lrlattice, head, None)
    if head not in lrlattice.__all__ and not isinstance(obj, types.ModuleType):
        return False
    for part in rest:
        if hasattr(obj, part):
            obj = getattr(obj, part)
        elif dataclasses.is_dataclass(obj) and part in {f.name for f in dataclasses.fields(obj)}:
            obj = None  # a field without a class default; nothing follows it
        else:
            return False
    return True


def test_readme_library_tour_names_resolve():
    names = _library_tour_names()
    assert len(names) >= 40  # the table was found and parsed
    assert [name for name in names if not _resolves(name)] == []


def _perfbench_lists() -> dict:
    """``FUNCTIONS`` and ``FIELD_METHODS`` of ``perfbench/spans.py``, read as
    literals without importing the benchmark."""
    tree = ast.parse((ROOT / "perfbench" / "spans.py").read_text(encoding="utf-8"))
    return {
        node.targets[0].id: ast.literal_eval(node.value)
        for node in tree.body
        if isinstance(node, ast.Assign)
        and isinstance(node.targets[0], ast.Name)
        and node.targets[0].id in ("FUNCTIONS", "FIELD_METHODS")
    }


def test_benchmark_entry_points_resolve():
    # The traced benchmark wraps these by name, and its checks call ``lr.<name>``;
    # a deleted name would otherwise break only those runs.
    lists = _perfbench_lists()
    assert len(lists["FUNCTIONS"]) >= 30 and lists["FIELD_METHODS"]
    missing = [
        f"{module}.{attr}"
        for module, attr, *_ in lists["FUNCTIONS"]
        if not hasattr(importlib.import_module(f"lrlattice.{module}"), attr)
    ]
    field = lrlattice.Field
    missing += [f"Field.{attr}" for attr, _ in lists["FIELD_METHODS"] if not hasattr(field, attr)]
    checks = (ROOT / "perfbench" / "checks.py").read_text(encoding="utf-8")
    names = sorted(set(re.findall(r"\blr\.([A-Za-z_][\w.]*)", checks)))
    assert len(names) >= 15
    missing += [name for name in names if not _resolves(name)]
    assert missing == []
