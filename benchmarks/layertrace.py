"""Per-layer tracing for the varcom benchmark.

``Tracer.install`` wraps, from outside the program, the public functions of
each layer module and the hot class methods (``Matrix.__matmul__``, RatFun
arithmetic, ``QPoly.gcd``).  Names that other varcom modules bound with
``from .x import y`` are rebound to the same wrappers, so every call path
is seen.  Each wrapper is a span: its duration minus the spans it opened
is the layer's self time.  Spans are folded into per-name totals as they
close, because a run opens millions of them.

Layers, bottom up: rings, linalg, strata, complexes, spectral,
degeneration, formats.  Time in ``cli`` and in the benchmark itself
belongs to no layer.
"""

from __future__ import annotations

import sys
import types
from collections import Counter
from time import perf_counter

LAYERS = ("rings", "linalg", "strata", "complexes", "spectral",
          "degeneration", "formats")

RATFUN_ARITH = ("__add__", "__radd__", "__sub__", "__rsub__", "__mul__",
                "__rmul__", "__truediv__", "__neg__")
CLASS_METHODS = {
    "rings": {"RatFun": RATFUN_ARITH, "QPoly": ("gcd",)},
    "linalg": {"Matrix": ("__matmul__",)},
}

# Inclusive-time metrics: the spans of a group count only when no span of
# the same group is already open, so nested calls are not counted twice.
GROUPS = {
    "rings.qpoly_gcd_s": ("rings.QPoly.gcd",),
    "linalg.matmul_s": ("linalg.Matrix.__matmul__",),
    "linalg.rank_s": ("linalg.rank",),
    "linalg.kernel_basis_s": ("linalg.kernel_basis",),
    "linalg.rref_s": ("linalg.rref",),
    "linalg.local_elim_s": ("linalg.local_rank", "linalg.local_inverse",
                            "linalg.local_pivot_elimination"),
    "strata.is_maximal_s": ("strata.is_maximal",),
    "strata.stratum_dim_s": ("strata.stratum_dim",),
    "complexes.rank_vector_s": ("complexes.rank_vector",),
    "complexes.cohomology_s": ("complexes.cohomology",),
    "complexes.stabilizer_dim_s": ("complexes.stabilizer_dim",),
    "complexes.morphism_space_s": ("complexes.morphism_space",),
    "complexes.nullhomotopic_space_s": ("complexes.nullhomotopic_space",),
    "complexes.chart_jacobian_rank_s": ("complexes.chart_jacobian_rank",),
    "spectral.stratum_label_s": ("spectral.stratum_label",),
    "spectral.canonical_ss_from_chain_s": ("spectral.canonical_ss_from_chain",),
    "degeneration.dvr_decompose_s": ("degeneration.dvr_decompose",),
    "degeneration.limit_s": ("degeneration.limit_complete_complex",),
    "degeneration.filtered_oracle_s": ("degeneration.filtered_oracle",),
}

CALLS = {
    "rings.ratfun_arith_calls": tuple(f"rings.RatFun.{m}" for m in RATFUN_ARITH),
    "rings.qpoly_gcd_calls": ("rings.QPoly.gcd",),
    "linalg.matmul_calls": ("linalg.Matrix.__matmul__",),
    "linalg.kernel_basis_calls": ("linalg.kernel_basis",),
    "strata.enumerate_R_calls": ("strata.enumerate_R",),
    "complexes.rank_vector_calls": ("complexes.rank_vector",),
}

# The per-layer metrics in report order, with their units.  Times and
# counts are per operation; the rest are taken over the whole traced run.
METRICS = (
    ("rings.self_s", "s/op"),
    ("rings.ratfun_arith_calls", "count/op"), ("rings.qpoly_gcd_calls", "count/op"),
    ("rings.qpoly_gcd_s", "s/op"), ("rings.max_coeff_bits", "bits"),
    ("linalg.self_s", "s/op"), ("linalg.matmul_calls", "count/op"),
    ("linalg.matmul_s", "s/op"), ("linalg.matmul_dense_madds", "count/op"),
    ("linalg.matmul_nonzero_frac", "ratio"), ("linalg.rank_s", "s/op"),
    ("linalg.kernel_basis_calls", "count/op"), ("linalg.kernel_basis_s", "s/op"),
    ("linalg.rref_s", "s/op"), ("linalg.local_elim_s", "s/op"),
    ("strata.self_s", "s/op"), ("strata.enumerate_R_calls", "count/op"),
    ("strata.is_maximal_s", "s/op"), ("strata.stratum_dim_s", "s/op"),
    ("complexes.self_s", "s/op"), ("complexes.rank_vector_calls", "count/op"),
    ("complexes.rank_vector_s", "s/op"), ("complexes.cohomology_s", "s/op"),
    ("complexes.stabilizer_dim_s", "s/op"), ("complexes.morphism_space_s", "s/op"),
    ("complexes.nullhomotopic_space_s", "s/op"),
    ("complexes.chart_jacobian_rank_s", "s/op"),
    ("spectral.self_s", "s/op"), ("spectral.stratum_label_s", "s/op"),
    ("spectral.canonical_ss_from_chain_s", "s/op"),
    ("degeneration.self_s", "s/op"), ("degeneration.dvr_decompose_s", "s/op"),
    ("degeneration.limit_s", "s/op"), ("degeneration.filtered_oracle_s", "s/op"),
    ("degeneration.oracle_unrolled_dim", "count"),
    ("formats.self_s", "s/op"),
)


def _coeff_bits(poly):
    return max((max(abs(c.numerator).bit_length(), c.denominator.bit_length())
                for c in poly.coeffs), default=0)


class Tracer:
    """Wraps the layers of one imported varcom package and accumulates
    span totals until ``uninstall``."""

    def __init__(self):
        self.stack = []                  # time covered by children, per open span
        self.layer_self = dict.fromkeys(LAYERS, 0.0)
        self.spans = {}                  # name -> [calls, inclusive s, self s]
        self.depth = Counter()
        self.group_s = Counter()
        self.madds = 0
        self.nonzero = 0
        self.left_entries = 0
        self.max_bits = 0
        self.unrolled = []
        self._restore = []

    # -- hooks: measurements of arguments and results, kept out of the spans

    def _matmul_args(self, args):
        a, b = args[0], args[1]
        self.madds += a.rows * a.cols * b.cols
        self.left_entries += a.rows * a.cols
        self.nonzero += sum(1 for row in a.entries for x in row if x)

    def _ratfun_result(self, x):
        if x is NotImplemented:
            return
        bits = max(_coeff_bits(x.num), _coeff_bits(x.den))
        if bits > self.max_bits:
            self.max_bits = bits

    def _oracle_args(self, args):
        pc, N = args[0], args[1]
        self.unrolled.append(sum(pc.dims) * N)

    def _wrap(self, layer, name, fn, pre=None, post=None):
        stack, depth, group_s = self.stack, self.depth, self.group_s
        layer_self = self.layer_self
        stats = self.spans.setdefault(name, [0, 0.0, 0.0])
        groups = [g for g, members in GROUPS.items() if name in members]

        def span(*args, **kwargs):
            t_in = perf_counter()
            if pre is not None:
                pre(args)
            opened = [g for g in groups if not depth[g]]
            for g in groups:
                depth[g] += 1
            stack.append(0.0)
            t0 = perf_counter()
            try:
                result = fn(*args, **kwargs)
            finally:
                dt = perf_counter() - t0
                child = stack.pop()
                for g in groups:
                    depth[g] -= 1
            layer_self[layer] += dt - child
            stats[0] += 1
            stats[1] += dt
            stats[2] += dt - child
            for g in opened:
                group_s[g] += dt
            if post is not None:
                post(result)
            if stack:
                stack[-1] += perf_counter() - t_in
            return result

        return span

    def install(self, modules):
        """Wrap the layers of ``modules`` (layer name -> module object)."""
        wrapped = {}
        for layer in LAYERS:
            mod = modules[layer]
            for attr, obj in list(vars(mod).items()):
                if (attr.startswith("_") or not isinstance(obj, types.FunctionType)
                        or obj.__module__ != mod.__name__):
                    continue
                pre = self._oracle_args if attr == "filtered_oracle" else None
                wrapped[obj] = self._wrap(layer, f"{layer}.{attr}", obj, pre=pre)
            for cls_name, methods in CLASS_METHODS.get(layer, {}).items():
                cls = getattr(mod, cls_name)
                for meth in methods:
                    fn = cls.__dict__[meth]
                    pre = self._matmul_args if meth == "__matmul__" else None
                    post = self._ratfun_result if cls_name == "RatFun" else None
                    self._rebind(cls, meth, self._wrap(
                        layer, f"{layer}.{cls_name}.{meth}", fn, pre, post))
        package = modules["rings"].__name__.rpartition(".")[0]
        for mod_name, mod in list(sys.modules.items()):
            if mod is None or not (mod_name == package
                                   or mod_name.startswith(package + ".")):
                continue
            for attr, obj in list(vars(mod).items()):
                if isinstance(obj, types.FunctionType) and obj in wrapped:
                    self._rebind(mod, attr, wrapped[obj])

    def _rebind(self, owner, attr, value):
        self._restore.append((owner, attr, getattr(owner, attr)))
        setattr(owner, attr, value)

    def uninstall(self):
        for owner, attr, value in reversed(self._restore):
            setattr(owner, attr, value)
        self._restore.clear()

    def metrics(self, ops: int, speed: float) -> dict:
        """The per-layer metrics, per operation; times are multiplied by
        `speed`, the run's machine-speed correction, so that they compare
        with the end-to-end latency."""
        per_op = {f"{layer}.self_s": s * speed / ops
                  for layer, s in self.layer_self.items()}
        per_op.update({g: s * speed / ops for g, s in self.group_s.items()})
        for metric, names in CALLS.items():
            per_op[metric] = sum(self.spans.get(n, (0,))[0] for n in names) / ops
        per_op["linalg.matmul_dense_madds"] = self.madds / ops
        values = {
            "rings.max_coeff_bits": self.max_bits,
            "linalg.matmul_nonzero_frac":
                self.nonzero / self.left_entries if self.left_entries else 0.0,
            "degeneration.oracle_unrolled_dim":
                sum(self.unrolled) / len(self.unrolled) if self.unrolled else 0,
        }
        out = {}
        for name, unit in METRICS:
            out[name] = {"value": values[name] if name in values
                         else per_op.get(name, 0.0), "unit": unit}
        return out

    def summary(self) -> dict:
        """Per-span totals, for the trace file."""
        return {name: {"calls": c, "inclusive_s": inc, "self_s": slf}
                for name, (c, inc, slf) in sorted(self.spans.items()) if c}
