"""Span tracing from outside the program, and the per-layer metrics built on it.

`Tracer.install()` wraps public callables of each lculab module. A function is
re-bound in every lculab module that holds it, because `cli` and the pipeline
modules import names directly (`from .inverse import calibrate_inverse_grid`)
and look them up in their own namespace. Methods, dataclass `__post_init__`
hooks and the cached eigendecomposition are wrapped on their class.
`uninstall()` restores every original, so traced and untraced operations can
alternate in one process.

A span records name, start, end, parent and the operation it belongs to.
Spans stay in memory; the per-layer metrics are computed from them when the
run ends. Count attributes are recorded at the same boundaries.
"""

from __future__ import annotations

import functools
import importlib
import statistics
import sys
import time
from contextlib import contextmanager
from dataclasses import dataclass, field

OP_SPAN = "bench.operation"
CHECK_SPAN = "bench.check"


@dataclass
class Span:
    op: int
    ident: int
    parent: int | None
    name: str
    start: float
    end: float = 0.0
    attrs: dict = field(default_factory=dict)

    @property
    def duration(self) -> float:
        return self.end - self.start


def _size(x) -> int:
    return int(getattr(x, "size", 1))


# Count attributes, recorded from a call's arguments and result.
def _eigh_attrs(args, kwargs, result):
    return {"dim": int(args[0].matrix.shape[0])}


def _enlarged_attrs(args, kwargs, result):
    return {"dim": int(result.dim)}


def _filter_attrs(args, kwargs, result):
    lcu, eigs = args[0], args[1]
    return {"eigs": _size(eigs), "node_evals": _size(eigs) * len(lcu.scales) * (lcu.j_max + 1)}


def _cosine_attrs(args, kwargs, result):
    return {"terms": _size(result) * int(args[2])}


def _hs_grid_attrs(args, kwargs, result):
    return {"J": int(result.j_max)}


def _inverse_grid_attrs(args, kwargs, result):
    return {"K": int(result.k_max), "J": int(result.j_max)}


def _inverse_filter_attrs(args, kwargs, result):
    grid = args[0]
    return {"node_evals": _size(result) * (grid.k_max + 1) * grid.j_max}


def _mc_attrs(args, kwargs, result):
    return {"walks": int(result[1]), "steps": int(result[2])}


def _coloring_attrs(args, kwargs, result):
    return {"colors": int(result.n_colors)}


def _sparse_assembly_attrs(args, kwargs, result):
    return {"terms": int(result[0].n_terms)}


# (module, attribute path, span name, attribute recorder). A dotted path names
# a class attribute.
TARGETS = [
    ("operators", "HermitianOperator.eigensystem", "operators.eigh", _eigh_attrs),
    ("operators", "matrix_function", "operators.matrix_function", None),
    ("operators", "trace_distance", "operators.trace_distance", None),
    ("gap_amplification", "parse_pauli_lines", "gap_amplification.parse_pauli_lines", None),
    ("gap_amplification", "projectors_from_unitaries", "gap_amplification.projectors_from_unitaries", None),
    ("gap_amplification", "psd_split", "gap_amplification.psd_split", None),
    ("gap_amplification", "build_tilde_h", "gap_amplification.build_tilde_h", None),
    ("gap_amplification", "assemble_gap_amplified", "gap_amplification.assemble_gap_amplified", _enlarged_attrs),
    ("gap_amplification", "UnitaryDecomposition.__post_init__", "gap_amplification.unitary_check", None),
    ("gap_amplification", "ProjectorDecomposition.__post_init__", "gap_amplification.projector_check", None),
    ("lcu", "gaussian_cosine_series", "lcu.gaussian_cosine_series", _cosine_attrs),
    ("lcu", "EvolutionLcu.filter_values", "lcu.filter_values", _filter_attrs),
    ("lcu", "EvolutionLcu.apply_sum", "lcu.apply_sum", None),
    ("gibbs", "calibrate_hs_grid", "gibbs.calibrate_hs_grid", _hs_grid_attrs),
    ("gibbs", "prepare_gibbs", "gibbs.prepare_gibbs", None),
    ("inverse", "calibrate_inverse_grid", "inverse.calibrate_inverse_grid", _inverse_grid_attrs),
    ("inverse", "InverseGrid.inverse_filter", "inverse.inverse_filter", _inverse_filter_attrs),
    ("inverse", "inverse_lcu", "inverse.inverse_lcu", None),
    ("inverse", "t_circuit_expectation", "inverse.t_circuit_expectation", None),
    ("inverse", "amplitude_estimation", "inverse.amplitude_estimation", None),
    ("inverse", "estimate_hitting_time", "inverse.estimate_hitting_time", None),
    ("markov", "chain_from_json", "markov.chain_from_json", None),
    ("markov", "validate_chain", "markov.validate_chain", None),
    ("markov", "mark_states", "markov.mark_states", None),
    ("markov", "discriminant_pair", "markov.discriminant_pair", None),
    ("markov", "exact_hitting_time_resolvent", "markov.exact_hitting_time_resolvent", None),
    ("markov", "exact_hitting_time_inverse", "markov.exact_hitting_time_inverse", None),
    ("markov", "exact_variance", "markov.exact_variance", None),
    ("markov", "classical_mc_estimate", "markov.classical_mc_estimate", _mc_attrs),
    ("sparse_chain", "sparse_oracle", "sparse_chain.sparse_oracle", None),
    ("sparse_chain", "build_h_bar", "sparse_chain.build_h_bar", None),
    ("sparse_chain", "project_h", "sparse_chain.project_h", None),
    ("sparse_chain", "color_edges", "sparse_chain.color_edges", _coloring_attrs),
    ("sparse_chain", "build_sqrt_factors", "sparse_chain.build_sqrt_factors", None),
    ("sparse_chain", "assemble_tilde_h_sparse", "sparse_chain.assemble_tilde_h_sparse", _sparse_assembly_attrs),
    ("sparse_chain", "decomposition_manifest", "sparse_chain.decomposition_manifest", None),
    ("cli", "load_config", "cli.load_config", None),
    ("cli", "_write_json", "cli.write_json", None),
]


class Tracer:
    """In-memory span recorder with install/uninstall of the lculab wrappers."""

    def __init__(self):
        self.spans: list[Span] = []
        self._stack: list[Span] = []
        self._op = -1
        self._undo: list[tuple[object, str, object]] = []

    @contextmanager
    def span(self, name: str):
        parent = self._stack[-1].ident if self._stack else None
        record = Span(self._op, len(self.spans), parent, name, time.perf_counter())
        self.spans.append(record)
        self._stack.append(record)
        try:
            yield record
        finally:
            record.end = time.perf_counter()
            self._stack.pop()

    @contextmanager
    def operation(self):
        self._op += 1
        with self.span(OP_SPAN) as record:
            yield record

    def _wrap(self, fn, name, attrs):
        @functools.wraps(fn)
        def traced(*args, **kwargs):
            with self.span(name) as record:
                result = fn(*args, **kwargs)
                if attrs is not None:
                    try:
                        record.attrs = attrs(args, kwargs, result)
                    except (AttributeError, IndexError, KeyError, TypeError):
                        # The callable's signature or result changed; its
                        # counts read 0 rather than breaking the program.
                        pass
                return result

        return traced

    def install(self) -> list[str]:
        """Wrap every target; returns the targets the program no longer has."""
        if self._undo:
            raise RuntimeError("tracer already installed")
        modules = [m for n, m in list(sys.modules.items()) if n == "lculab" or n.startswith("lculab.")]
        missing = []
        for module_name, path, name, attrs in TARGETS:
            cls_name, _, attr = path.rpartition(".")
            try:
                module = importlib.import_module(f"lculab.{module_name}")
                owner = getattr(module, cls_name) if cls_name else module
                original = vars(owner)[attr]
            except (ImportError, AttributeError, KeyError):
                missing.append(f"lculab.{module_name}.{path}")
                continue
            if cls_name:
                if isinstance(original, functools.cached_property):
                    replacement = functools.cached_property(self._wrap(original.func, name, attrs))
                    replacement.__set_name__(owner, attr)
                else:
                    replacement = self._wrap(original, name, attrs)
                self._bind(owner, attr, replacement)
                continue
            replacement = self._wrap(original, name, attrs)
            for holder in modules:
                for key, value in list(vars(holder).items()):
                    if value is original:
                        self._bind(holder, key, replacement)
        return missing

    def _bind(self, owner, attr, replacement) -> None:
        self._undo.append((owner, attr, owner.__dict__[attr]))
        setattr(owner, attr, replacement)

    def uninstall(self) -> None:
        while self._undo:
            owner, attr, original = self._undo.pop()
            setattr(owner, attr, original)


# ---------------------------------------------------------------------------
# Per-layer metrics of one traced operation.

def _children(spans: list[Span]) -> dict[int, list[Span]]:
    kids: dict[int, list[Span]] = {}
    for s in spans:
        if s.parent is not None:
            kids.setdefault(s.parent, []).append(s)
    return kids


def _ancestors(span: Span, by_id: dict[int, Span]):
    while span.parent is not None:
        span = by_id[span.parent]
        yield span


# Callables that turn a validated config into program inputs, when the CLI
# (or the Monte-Carlo operation) calls them directly.
_INPUT_STEPS = {
    "markov.chain_from_json",
    "markov.mark_states",
    "markov.discriminant_pair",
    "gap_amplification.parse_pauli_lines",
    "gap_amplification.projectors_from_unitaries",
    "gap_amplification.psd_split",
    "sparse_chain.sparse_oracle",
}


def op_metrics(spans: list[Span]) -> dict[str, float]:
    """Per-layer metrics of one operation's spans (the root is OP_SPAN).

    `_s` metrics are inclusive durations of the named callables, counting a
    callable nested inside another of the same metric once; `_self_s` metrics
    subtract child spans. Spans under the harness's check phase are left out,
    so the metrics describe the program only.
    """
    by_id = {s.ident: s for s in spans}
    root = next(s for s in spans if s.name == OP_SPAN)
    kids = _children(spans)
    prog = [s for s in spans if s.name not in (OP_SPAN, CHECK_SPAN)
            and all(a.name != CHECK_SPAN for a in _ancestors(s, by_id))]

    def inclusive(*names) -> float:
        chosen = [s for s in prog if s.name in names]
        return sum(s.duration for s in chosen
                   if not any(a.name in names for a in _ancestors(s, by_id)))

    def self_time(name) -> float:
        return sum(s.duration - sum(k.duration for k in kids.get(s.ident, ()))
                   for s in prog if s.name == name)

    def attr_sum(name, key, parent=None) -> float:
        return sum(s.attrs.get(key, 0) for s in prog if s.name == name
                   and (parent is None or (s.parent is not None and by_id[s.parent].name == parent)))

    def attr_max(name, key) -> float:
        return max((s.attrs.get(key, 0) for s in prog if s.name == name), default=0)

    def last_attr(name, key) -> float:
        hits = [s for s in prog if s.name == name]
        return hits[-1].attrs.get(key, 0) if hits else 0

    cosine_s = inclusive("lcu.gaussian_cosine_series")
    cosine_terms = attr_sum("lcu.gaussian_cosine_series", "terms")
    mc_s = inclusive("markov.classical_mc_estimate")
    mc_steps = attr_sum("markov.classical_mc_estimate", "steps")
    rounds = [s for s in prog if s.name == "inverse.inverse_filter"
              and any(a.name == "inverse.calibrate_inverse_grid" for a in _ancestors(s, by_id))]
    calib_evals = sum(s.attrs.get("node_evals", 0) for s in rounds)
    root_self = root.duration - sum(k.duration for k in kids.get(root.ident, ()))
    return {
        "operators.eigh_s": inclusive("operators.eigh"),
        "operators.eigh_calls": float(sum(1 for s in prog if s.name == "operators.eigh")),
        "operators.eigh_max_dim": float(attr_max("operators.eigh", "dim")),
        "operators.trace_distance_s": inclusive("operators.trace_distance"),
        "gap_amplification.build_s": inclusive(
            "gap_amplification.build_tilde_h", "gap_amplification.assemble_gap_amplified"),
        "gap_amplification.enlarged_dim": float(attr_max("gap_amplification.assemble_gap_amplified", "dim")),
        "gap_amplification.psd_split_s": inclusive("gap_amplification.psd_split"),
        "gap_amplification.unitary_check_s": inclusive(
            "gap_amplification.unitary_check", "gap_amplification.projector_check"),
        "lcu.filter_s": inclusive("lcu.filter_values"),
        "lcu.filter_eigs": float(attr_sum("lcu.filter_values", "eigs")),
        "lcu.filter_node_evals": float(attr_sum("lcu.filter_values", "node_evals")),
        "lcu.cosine_series_s": cosine_s,
        "lcu.cosine_terms": float(cosine_terms),
        "lcu.cosine_ns_per_term": 1e9 * cosine_s / cosine_terms if cosine_terms else 0.0,
        "gibbs.calibrate_s": inclusive("gibbs.calibrate_hs_grid"),
        "gibbs.J": float(attr_sum("gibbs.calibrate_hs_grid", "J", parent="gibbs.prepare_gibbs")),
        "gibbs.prepare_self_s": self_time("gibbs.prepare_gibbs"),
        "inverse.calibrate_s": inclusive("inverse.calibrate_inverse_grid"),
        "inverse.calibrate_rounds": float(len(rounds)),
        "inverse.K": float(last_attr("inverse.calibrate_inverse_grid", "K")),
        "inverse.J": float(last_attr("inverse.calibrate_inverse_grid", "J")),
        "inverse.calibrate_useful_frac": rounds[-1].attrs.get("node_evals", 0) / calib_evals if calib_evals else 0.0,
        "inverse.expectation_s": inclusive("inverse.t_circuit_expectation"),
        "inverse.ae_s": inclusive("inverse.amplitude_estimation"),
        "markov.validate_s": inclusive("markov.validate_chain"),
        "markov.exact_s": inclusive(
            "markov.exact_hitting_time_resolvent", "markov.exact_hitting_time_inverse", "markov.exact_variance"),
        "markov.mc_s": mc_s,
        "markov.mc_walks": float(attr_sum("markov.classical_mc_estimate", "walks")),
        "markov.mc_steps": float(mc_steps),
        "markov.mc_ns_per_step": 1e9 * mc_s / mc_steps if mc_steps else 0.0,
        "sparse_chain.oracle_s": inclusive("sparse_chain.sparse_oracle"),
        "sparse_chain.h_bar_s": inclusive("sparse_chain.build_h_bar", "sparse_chain.project_h"),
        "sparse_chain.color_s": inclusive("sparse_chain.color_edges"),
        "sparse_chain.sqrt_factors_s": inclusive("sparse_chain.build_sqrt_factors"),
        "sparse_chain.assemble_self_s": self_time("sparse_chain.assemble_tilde_h_sparse"),
        "sparse_chain.n_colors": float(attr_sum("sparse_chain.color_edges", "colors")),
        "sparse_chain.unitary_terms": float(attr_sum("sparse_chain.assemble_tilde_h_sparse", "terms")),
        "cli.load_config_s": inclusive("cli.load_config"),
        "cli.input_build_s": sum(
            s.duration for s in prog if s.parent == root.ident and s.name in _INPUT_STEPS),
        "cli.write_s": inclusive("cli.write_json"),
        "traced_solve_s": root.duration,
        "trace_coverage_frac": 1.0 - root_self / root.duration,
    }


def unit_of(name: str) -> str:
    if name.endswith("_s"):
        return "s"
    if name.endswith("_frac"):
        return "1"
    if "_ns_per_" in name:
        return "ns"
    return "count"


def per_op_metrics(spans: list[Span]) -> list[dict[str, float]]:
    """op_metrics for every traced operation in a span list."""
    ops: dict[int, list[Span]] = {}
    for s in spans:
        ops.setdefault(s.op, []).append(s)
    return [op_metrics(group) for _, group in sorted(ops.items())]


def median_metrics(rows: list[dict[str, float]]) -> dict[str, float]:
    return {k: float(statistics.median(r[k] for r in rows)) for k in rows[0]}
