"""Outside-in layer tracer for the perfbench workloads.

``Tracer.install()`` wraps each function in ``TRACED`` by identity: every
attribute of every loaded ``ringgraph`` module, and of every class those
modules define, that *is* the original function object is replaced by one
timing wrapper.  Replacing only the defining module would miss internal
calls, because the package imports names directly
(``from .groebner import buchberger``).

Only calls made while an op runs (``op_kind`` is set) are recorded, so
building inputs and checking results leave no spans.  Spans stay in memory
as ``[name, op_kind, parent, start, end]`` lists and are folded into call
counts and self times by ``summary()`` when the pass ends.  A span's self
time is its duration minus the durations of its direct child spans.
"""

from __future__ import annotations

import functools
import sys
import time
from fractions import Fraction

# metric prefix -> (defining module, qualified name inside it)
TRACED = {
    "groebner.buchberger": ("ringgraph.groebner", "buchberger"),
    "groebner.normal_form": ("ringgraph.groebner", "normal_form"),
    "polynomials.mul": ("ringgraph.polynomials", "Polynomial.__mul__"),
    "ideals.dimension": ("ringgraph.ideals", "dimension"),
    "ideals.height_in_quotient": ("ringgraph.ideals", "height_in_quotient"),
    "ideals.Ideal.contains_ideal": ("ringgraph.ideals", "Ideal.contains_ideal"),
    "ideals.ring_map_kernel": ("ringgraph.ideals", "ring_map_kernel"),
    "ideals.contract": ("ringgraph.ideals", "contract"),
    "ideals.eliminate": ("ringgraph.ideals", "eliminate"),
    "ideals.saturation": ("ringgraph.ideals", "saturation"),
    "minprimes.verify_decomposition": ("ringgraph.minprimes", "verify_decomposition"),
    "minprimes.monomial_minimal_primes": ("ringgraph.minprimes", "monomial_minimal_primes"),
    "minprimes.split_minimal_primes": ("ringgraph.minprimes", "split_minimal_primes"),
    "factor.factor_once": ("ringgraph.factor", "factor_once"),
    "complexes.sr_ideal": ("ringgraph.complexes", "sr_ideal"),
    "complexes.face_ring": ("ringgraph.complexes", "face_ring"),
    "gamma.build_gamma": ("ringgraph.gamma", "build_gamma"),
    "gamma.disconnection_exists": ("ringgraph.gamma", "disconnection_exists"),
    "gamma.punctured_spectrum_connected": ("ringgraph.gamma", "punctured_spectrum_connected"),
    "gamma.gamma_product": ("ringgraph.gamma", "gamma_product"),
    "s2.conductor": ("ringgraph.s2", "conductor"),
    "s2.s2_local_decision": ("ringgraph.s2", "s2_local_decision"),
    "session.parse_session": ("ringgraph.session", "parse_session"),
    "cli.main": ("ringgraph.cli", "main"),
    "reports.ReportDocument.to_json": ("ringgraph.reports", "ReportDocument.to_json"),
}


def _resolve(module: str, qualname: str):
    obj = sys.modules[module]
    for part in qualname.split("."):
        obj = getattr(obj, part)
    return obj


def _coeff_bits(c) -> int:
    if isinstance(c, Fraction):
        return max(c.numerator.bit_length(), c.denominator.bit_length())
    return 0


class Tracer:
    """Spans and counters for one traced pass; see the module docstring."""

    def __init__(self):
        self.spans: list = []
        self._stack: list = []
        self.op_kind: str | None = None  # set by the workload around each op
        self.buchberger_monomial = 0
        self.basis_terms = 0
        self.coeff_bits_max = 0

    def install(self):
        """Wrap every traced function wherever it is bound."""
        import ringgraph.cli  # noqa: F401  (load every module that binds a traced name)

        for name, (module, qualname) in TRACED.items():
            original = _resolve(module, qualname)
            wrapper = self._wrap(name, original)
            for owner in self._owners():
                for attr, value in list(vars(owner).items()):
                    if value is original:
                        setattr(owner, attr, wrapper)

    @staticmethod
    def _owners():
        for modname, mod in list(sys.modules.items()):
            if mod is None or not (modname == "ringgraph" or modname.startswith("ringgraph.")):
                continue
            yield mod
            for value in list(vars(mod).values()):
                if isinstance(value, type) and value.__module__ == modname:
                    yield value

    def _wrap(self, name: str, fn):
        spans, stack, clock = self.spans, self._stack, time.perf_counter
        observe = name == "groebner.buchberger"

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            if self.op_kind is None:  # outside an op: building inputs or checking
                return fn(*args, **kwargs)
            if observe:
                args, kwargs = self._observe_input(args, kwargs)
            rec = [name, self.op_kind, stack[-1] if stack else -1, clock(), 0.0]
            stack.append(len(spans))
            spans.append(rec)
            try:
                result = fn(*args, **kwargs)
                if observe:
                    self._observe_output(result)
                return result
            finally:
                rec[4] = clock()
                stack.pop()

        return traced

    def _observe_input(self, args, kwargs):
        if args:
            gens = args[0]
            if not isinstance(gens, (list, tuple)):
                gens = list(gens)
                args = (gens,) + args[1:]
        else:
            gens = kwargs["gens"] = list(kwargs["gens"])
        if all(g.is_zero() or g.is_monomial() for g in gens):
            self.buchberger_monomial += 1
        return args, kwargs

    def _observe_output(self, basis):
        for g in basis.generators:
            self.basis_terms += len(g.terms)
            for c in g.terms.values():
                bits = _coeff_bits(c)
                if bits > self.coeff_bits_max:
                    self.coeff_bits_max = bits

    def summary(self) -> dict:
        """Fold the spans into ``{name: [calls, self_s]}`` plus counters."""
        covered = [0.0] * len(self.spans)
        for _name, _kind, parent, start, end in self.spans:
            if parent >= 0:
                covered[parent] += end - start
        funcs = {name: [0, 0.0] for name in TRACED}
        ring_heights = 0
        for (name, kind, _parent, start, end), child in zip(self.spans, covered):
            entry = funcs[name]
            entry[0] += 1
            entry[1] += (end - start) - child
            if name == "ideals.height_in_quotient" and kind == "ring":
                ring_heights += 1
        return {
            "funcs": funcs,
            "ring_height_calls": ring_heights,
            "buchberger_monomial": self.buchberger_monomial,
            "basis_terms": self.basis_terms,
            "coeff_bits_max": self.coeff_bits_max,
        }
