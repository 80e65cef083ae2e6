"""Span recorder for the traced benchmark run.

``Recorder.install`` wraps the public lrlattice functions listed in
``FUNCTIONS`` and ``FIELD_METHODS`` at runtime.  Every module that imported
a wrapped function under its own name (``cli.cone_scan``,
``bounds.apply_propagator_convolution``, ...) is patched too, so calls are
recorded whichever module makes them.
Per-site accessors (``Field.value``, ``LatticeGeometry.site``,
``DecayProfile.value``) are deliberately left alone: they run millions of
times and a span each would swamp the measurement.

A span is ``(id, name, start, end, parent, request, thread)``.  Spans stay in
memory until the run ends.  A span opened on a thread with no open span of
its own (the worker threads of ``cone_scan``'s pool) takes the innermost open
``cone_scan`` span as its parent.  Self time is a span's duration minus the
union of its children's intervals, so overlapping children on two worker
threads are not subtracted twice.

The untraced run never constructs a Recorder and patches nothing.
"""

from __future__ import annotations

import functools
import gzip
import importlib
import itertools
import json
import sys
import threading
import time
from collections import defaultdict

# (module, attribute, metric name, fan-out) for module-level functions.
FUNCTIONS = [
    ("cli", "parse_scenario", "cli.parse_scenario", False),
    ("cli", "json_report", "cli.report", False),
    ("cli", "csv_report", "cli.report", False),
    ("cli", "atomic_write", "cli.atomic_write", False),
    ("lattice", "ball_sites", "lattice.ball_sites", False),
    ("lattice", "convolution_constant", "lattice.convolution_constant", False),
    ("harmonic", "compute_kernel", "harmonic.compute_kernel", False),
    ("harmonic", "certified_window", "harmonic.certified_window", False),
    ("harmonic", "apply_propagator_torus", "harmonic.apply_propagator_torus", False),
    ("harmonic", "apply_propagator_convolution", "harmonic.apply_propagator_convolution", False),
    ("weyl", "state_eval", "weyl.state_eval", False),
    ("weyl", "smeared_norm_sq", "weyl.smeared_norm_sq", False),
    ("weyl", "three_point_continuity", "weyl.three_point_continuity", False),
    ("weyl", "commutator_norm", "weyl.commutator_norm", False),
    ("bounds", "cone_scan", "bounds.cone_scan", True),
    ("bounds", "estimate_velocity", "bounds.estimate_velocity", False),
    ("bounds", "harmonic_bound_rhs", "bounds.harmonic_bound_rhs", False),
    ("bounds", "verify_kernel_bounds", "bounds.verify_kernel_bounds", False),
    ("bounds", "spot_check_certificate", "bounds.spot_check_certificate", False),
    ("perturbations", "cosine_family", "perturbations.cosine_family", False),
    ("perturbations", "pair_moment", "perturbations.pair_moment", False),
    ("perturbations", "convergence_tail", "perturbations.convergence_tail", False),
    ("perturbations", "convergence_tail_sets", "perturbations.convergence_tail_sets", False),
    ("fock", "build_hamiltonian", "fock.build_hamiltonian", False),
    ("fock", "weyl_matrix", "fock.weyl_matrix", False),
    ("fock", "commutator_oracle", "fock.commutator_oracle", False),
    ("fock", "restricted_norm", "fock.restricted_norm", False),
    ("fock", "perturbation_matrix", "fock.perturbation_matrix", False),
    ("fock", "perturbed_evolve", "fock.perturbed_evolve", False),
    ("fock", "heisenberg_evolve", "fock.heisenberg_evolve", False),
    ("fock", "volume_compare", "fock.volume_compare", False),
]

# (class attribute of harmonic.Field, metric name).
FIELD_METHODS = [
    ("from_dense", "harmonic.Field.from_dense"),
    ("to_dense", "harmonic.Field.to_dense"),
    ("__init__", "harmonic.field_init"),
]

REQUEST = "request"
SPAN_NAMES = sorted({name for *_, name, _ in FUNCTIONS} | {n for _, n in FIELD_METHODS} | {REQUEST})
COUNTERS = [
    ("cli.report_bytes", "bytes"),
    ("lattice.ball_sites.sites_built", "count"),
    ("harmonic.compute_kernel.grid_nodes", "count"),
    ("harmonic.apply_propagator_torus.sites", "count"),
    ("harmonic.apply_propagator_convolution.out_sites", "count"),
    ("fock.dim_cubed", "count"),
]


class Recorder:
    def __init__(self):
        self.spans: list[tuple] = []
        self.counters: dict[str, float] = defaultdict(float)
        self.max_dim = 0
        self.request_id: str | None = None
        self._ids = itertools.count(1)
        self._local = threading.local()
        self._fanout: int | None = None
        self._lock = threading.Lock()
        self._patched: list[tuple] = []
        self._ball_sites = None

    # -- spans --------------------------------------------------------------

    def _stack(self) -> list:
        stack = getattr(self._local, "stack", None)
        if stack is None:
            stack = self._local.stack = []
        return stack

    def wrap(self, name: str, fn, fanout: bool = False, after=None):
        """Return ``fn`` recording one span per call.

        ``after(args, kwargs, result)`` counts the work of calls made inside
        a request; ``fanout`` marks a function whose pool threads' spans take
        this call as their parent.
        """

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            stack = self._stack()
            parent = stack[-1] if stack else self._fanout
            span_id = next(self._ids)
            stack.append(span_id)
            if fanout:
                outer, self._fanout = self._fanout, span_id
            start = time.perf_counter()
            try:
                result = fn(*args, **kwargs)
            finally:
                end = time.perf_counter()
                stack.pop()
                if fanout:
                    self._fanout = outer
                self.spans.append(
                    (span_id, name, start, end, parent, self.request_id, threading.get_ident())
                )
            if after is not None and self.request_id is not None:
                with self._lock:
                    after(args, kwargs, result)
            return result

        return traced

    def run_request(self, request_id: str, fn):
        """Call ``fn()`` under a root span that all its spans descend from."""
        self.request_id = request_id
        try:
            return self.wrap(REQUEST, fn)()
        finally:
            self.request_id = None

    # -- patching -----------------------------------------------------------

    def install(self):
        from lrlattice import harmonic

        for module_name in {entry[0] for entry in FUNCTIONS}:
            importlib.import_module(f"lrlattice.{module_name}")
        modules = [m for n, m in sys.modules.items() if n == "lrlattice" or n.startswith("lrlattice.")]
        hooks = self._hooks()
        for module_name, attr, name, fanout in FUNCTIONS:
            original = getattr(sys.modules[f"lrlattice.{module_name}"], attr)
            target = original
            if attr == "ball_sites":
                self._ball_sites = original
                target = self._count_ball_sites(original)
            traced = self.wrap(name, target, fanout=fanout, after=hooks.get(attr))
            for module in modules:
                for key, value in list(vars(module).items()):
                    if value is original:
                        setattr(module, key, traced)
                        self._patched.append((module, key))
        for attr, name in FIELD_METHODS:
            raw = harmonic.Field.__dict__[attr]
            if isinstance(raw, classmethod):
                replacement = classmethod(self.wrap(name, raw.__func__))
            else:
                replacement = self.wrap(name, raw)
            setattr(harmonic.Field, attr, replacement)
            self._patched.append((harmonic.Field, attr))

    def patched_sites(self) -> list[str]:
        return sorted(f"{getattr(o, '__name__', o)}.{k}" for o, k in self._patched)

    def _count_ball_sites(self, original):
        counters = self.counters

        def counted(dimension, radius):
            misses = original.cache_info().misses
            result = original(dimension, radius)
            if original.cache_info().misses > misses and self.request_id is not None:
                with self._lock:
                    counters["lattice.ball_sites.sites_built"] += len(result)
            return result

        counted.cache_info = original.cache_info
        return counted

    def _hooks(self) -> dict:
        c = self.counters

        def written(args, kwargs, result):
            text = args[1] if len(args) > 1 else kwargs["text"]
            c["cli.report_bytes"] += len(text.encode("utf-8"))

        def kernel(args, kwargs, result):
            c["harmonic.compute_kernel.grid_nodes"] += result.points_per_axis ** args[0].dimension

        def torus(args, kwargs, result):
            geometry = args[0].geometry
            c["harmonic.apply_propagator_torus.sites"] += geometry.extent ** geometry.dimension

        def convolution(args, kwargs, result):
            c["harmonic.apply_propagator_convolution.out_sites"] += len(result.entries)

        def hamiltonian(args, kwargs, result):
            n = result.dim
            c["fock.dim_cubed"] += float(n) ** 3
            self.max_dim = max(self.max_dim, n)

        return {
            "atomic_write": written,
            "compute_kernel": kernel,
            "apply_propagator_torus": torus,
            "apply_propagator_convolution": convolution,
            "build_hamiltonian": hamiltonian,
        }

    # -- results ------------------------------------------------------------

    def self_times(self) -> dict[str, tuple[float, int]]:
        """Per span name: (summed self time, call count) inside requests."""
        children = defaultdict(list)
        for span_id, _, start, end, parent, _, _ in self.spans:
            if parent is not None:
                children[parent].append((start, end))
        totals = {name: [0.0, 0] for name in SPAN_NAMES}
        for span_id, name, start, end, _, request, _ in self.spans:
            if request is None:  # the benchmark's own checks, not a request
                continue
            covered = 0.0
            cursor = start
            for lo, hi in sorted(children.get(span_id, ())):
                lo, hi = max(lo, cursor), min(hi, end)
                if hi > lo:
                    covered += hi - lo
                    cursor = hi
            entry = totals.setdefault(name, [0.0, 0])
            entry[0] += (end - start) - covered
            entry[1] += 1
        return {name: (s, n) for name, (s, n) in totals.items()}

    def ball_sites_hit_ratio(self) -> float:
        info = self._ball_sites.cache_info()
        lookups = info.hits + info.misses
        return info.hits / lookups if lookups else 0.0

    def write(self, path: str):
        with gzip.open(path, "wt", encoding="utf-8") as handle:
            for span in self.spans:
                span_id, name, start, end, parent, request, thread = span
                handle.write(
                    json.dumps(
                        {
                            "id": span_id,
                            "name": name,
                            "start": start,
                            "end": end,
                            "parent": parent,
                            "request": request,
                            "thread": thread,
                        }
                    )
                    + "\n"
                )


def per_span_cost(samples: int = 20000) -> float:
    """Seconds one recorded span adds, measured on a no-op function."""
    probe = Recorder()
    traced = probe.wrap("probe", lambda: None)
    bare = lambda: None  # noqa: E731
    start = time.perf_counter()
    for _ in range(samples):
        bare()
    base = time.perf_counter() - start
    start = time.perf_counter()
    for _ in range(samples):
        traced()
    return max(time.perf_counter() - start - base, 0.0) / samples
