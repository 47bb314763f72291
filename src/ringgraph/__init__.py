"""Connectedness machinery for finitely presented commutative rings.

The package decides, for quotients of polynomial rings over Q or a
prime field, how the minimal primes of a presentation fit together:
the minimal-prime graph and its connectivity, the test for a
disconnecting bipartition, connectivity of punctured spectra
modulo an ideal, nonvanishing of top local cohomology, membership of
fractions in the S2-ification via conductor heights, and a randomized
harness checking punctured connectedness over face rings of simplicial
complexes.  Everything is exact, deterministic, and certificate-backed.

``import ringgraph`` loads no submodule.  Each public name loads the
submodule that defines it on first use (PEP 562), so a caller that
needs only ``PolyRing`` and ``buchberger`` never compiles the graph or
session code.  ``python -m ringgraph`` still loads every module, since
``ringgraph.cli`` imports them all at its top.
"""

import importlib

__version__ = "0.1.0"

# submodule -> the public names it defines.  No name equals a submodule's
# name, so ``from ringgraph import gamma`` still gives the module.
_EXPORTS = {
    "errors": (
        "PreconditionError RingGraphError SessionSyntaxError StructuralError "
        "UndecidedComponentError ZerodivisorError"
    ).split(),
    "fields": "QQ Field PrimeField RationalField field_by_name".split(),
    "polynomials": "GREVLEX LEX MonomialOrder Polynomial PolyRing elimination_order".split(),
    "groebner": "GroebnerBasis buchberger exact_divide normal_form s_polynomial".split(),
    "ideals": (
        "HEIGHT_INFINITY Flag Ideal PresentedRing RingMap contract dimension eliminate "
        "height_in_quotient ideal_colon ideal_intersection ideal_product ideal_sum "
        "m_primary_status polynomial_quotient radical_membership ring_map_kernel saturation"
    ).split(),
    "factor": "certify_irreducible factor_once".split(),
    "minprimes": (
        "MinimalPrimeSet PrimeCertificate certify_flag ensure_min_primes "
        "image_domain_presentation j_ideal minimal_primes monomial_minimal_primes "
        "require_flag split_minimal_primes top_dimensional_primes verify_decomposition"
    ).split(),
    "gamma": (
        "ConnectivityReport PrimeGraph build_gamma disconnection_exists gamma_product "
        "graph_from_text hl_nonvanishing is_connected punctured_spectrum_connected"
    ).split(),
    "complexes": (
        "HarnessReport SimplicialComplex complex_from_lists face_ring facet_adjacency_graph "
        "facet_min_primes faltings_harness is_pure join random_pure_connected_complex sr_ideal"
    ).split(),
    "s2": "ConductorResult Fraction conductor s2_local_decision".split(),
    "session": "SessionFile parse_fraction parse_polynomial parse_session print_session".split(),
    "reports": ["ReportDocument"],
}

__all__ = [name for names in _EXPORTS.values() for name in names]


def __getattr__(name):
    for module, names in _EXPORTS.items():
        if name in names:
            value = getattr(importlib.import_module("." + module, __name__), name)
            globals()[name] = value  # later reads skip this hook
            return value
    raise AttributeError(f"module {__name__!r} has no attribute {name!r}")


def __dir__():
    return sorted({*globals(), *__all__})
