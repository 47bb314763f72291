"""Command-line surface: one command per invocation, reports on stdout.

Exit codes: 0 for a computed verdict, 2 for a refused precondition
(including session syntax errors and bad arguments), 1 for an internal
error.  Reports are byte-identical across runs for identical inputs —
timing is only attached when ``--timing`` is passed.
"""

from __future__ import annotations

import argparse
import sys
import time
from dataclasses import asdict
from pathlib import Path

from .complexes import faltings_harness
from .errors import PreconditionError, RingGraphError
from .gamma import (
    PrimeGraph,
    build_gamma,
    disconnection_exists,
    gamma_product,
    graph_from_text,
    hl_nonvanishing,
    is_connected,
    punctured_spectrum_connected,
)
from .ideals import contract, dimension, provenance, ring_map_kernel
from .minprimes import minimal_primes
from .polynomials import GREVLEX, LEX, MonomialOrder, elimination_order
from .reports import ReportDocument
from .s2 import conductor, s2_local_decision
from .session import SessionFile, parse_fraction, parse_session
from .groebner import buchberger

GRAPH_COMMANDS = ("gamma", "product-gamma")


def main(argv=None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    started = time.perf_counter()
    try:
        report, graph = _dispatch(args)
        if args.format == "dot":
            if graph is None:
                raise PreconditionError(
                    "--format dot is only available for graph commands: "
                    + ", ".join(GRAPH_COMMANDS)
                )
            sys.stdout.write(graph.to_dot(args.command.replace("-", "_")))
            return 0
        if args.timing:
            report.timing_ms = round((time.perf_counter() - started) * 1000.0, 3)
        sys.stdout.write(report.to_json() if args.format == "json" else report.to_text())
        return 0
    except RingGraphError as e:
        print(f"refused: {e}", file=sys.stderr)
        return 2
    except Exception as e:  # noqa: BLE001 - the contract maps these to 1
        print(f"internal error: {type(e).__name__}: {e}", file=sys.stderr)
        return 1


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="ringgraph",
        description="Connectedness machinery for finitely presented rings.",
    )
    sub = parser.add_subparsers(dest="command", required=True)
    for name, (_, summary, *arguments) in COMMANDS.items():
        p = sub.add_parser(name, help=summary)
        p.add_argument("--session", type=Path, required=name not in SESSIONLESS, help="session file")
        p.add_argument(
            "--format",
            choices=("json", "text", "dot"),
            default="json",
            help="output format (default json)",
        )
        p.add_argument("--timing", action="store_true", help="attach wall-clock timing")
        for arg in arguments:
            flag, options = (arg, {}) if isinstance(arg, str) else arg
            p.add_argument(flag, **options)
    return parser


def _read(path: Path, what: str) -> str:
    try:
        return path.read_text(encoding="utf-8")
    except (OSError, UnicodeDecodeError) as e:
        raise PreconditionError(f"cannot read {what} file: {e}") from e


def _load_session(args) -> SessionFile:
    return parse_session(_read(args.session, "session"))


def _parse_order(text: str) -> MonomialOrder:
    if text == "lex":
        return LEX
    if text == "grevlex":
        return GREVLEX
    if text.startswith("elim:"):
        try:
            k = int(text.split(":", 1)[1])
        except ValueError:
            raise PreconditionError(f"bad elimination block in {text!r}")
        return elimination_order(k)
    raise PreconditionError(f"unknown order {text!r}; use lex, grevlex or elim:<k>")


def _dispatch(args) -> tuple:
    """Run the command's handler: the report, plus the graph behind it
    for graph commands (``None`` otherwise)."""
    report = ReportDocument(command=args.command)
    graph = COMMANDS[args.command][0](args, report)
    return report, graph


def _set_verdicts(report: ReportDocument, verdicts: dict, label: str):
    report.verdicts = verdicts
    report.provenance = {k: label for k in verdicts}


def _ring_inputs(args, report: ReportDocument) -> tuple:
    """The session and the presented ring named by ``args.ring``, with
    the ring recorded as the report's inputs."""
    session = _load_session(args)
    pres = session.presented(args.ring)
    report.inputs = {
        "ring": args.ring,
        "ambient": repr(pres.ambient),
        "defining": list(pres.defining.min_gen_strings()),
    }
    return session, pres


def _ring_ideal_inputs(args, report: ReportDocument) -> tuple:
    """The presented ring and the ideal ``args.ideal``, both recorded."""
    session, pres = _ring_inputs(args, report)
    a = session.ideal(args.ideal)
    report.inputs["ideal"] = args.ideal
    report.inputs["generators"] = [str(g) for g in a.gens]
    return pres, a


def _ideal_inputs(args, report: ReportDocument) -> tuple:
    """The session and the ideal ``args.ideal``, recorded as inputs."""
    session = _load_session(args)
    a = session.ideal(args.ideal)
    report.inputs = {
        "ideal": args.ideal,
        "ring": repr(a.ring),
        "generators": [str(g) for g in a.gens],
    }
    return session, a


def _graph_verdicts(graph: PrimeGraph) -> dict:
    return {
        "graph": graph.to_json_dict(),
        "vertex_count": graph.n,
        "edge_count": len(graph.edges),
    }


def _connectivity(report: ReportDocument, rep, **extra):
    witnesses = dict(rep.witness or {})
    witnesses["components"] = [list(c) for c in rep.components]
    witnesses["vertices"] = [list(l) for l in rep.labels]
    report.witnesses = witnesses
    _set_verdicts(
        report, {"status": rep.status, "connected": rep.connected, **extra}, rep.provenance
    )


def _gb(args, report):
    _, a = _ideal_inputs(args, report)
    order = _parse_order(args.order)
    basis = buchberger(list(a.gens), order=order, ring=a.ring)
    report.inputs["order"] = order.label()
    _set_verdicts(
        report,
        {"basis": [str(g) for g in basis.generators], "is_unit": basis.is_unit()},
        "computed",
    )


def _dim(args, report):
    _, a = _ideal_inputs(args, report)
    _set_verdicts(report, {"dimension": dimension(a)}, "computed")


def _minprimes(args, report):
    session, a = _ideal_inputs(args, report)
    report.inputs["strategy"] = args.strategy
    asserted = session.asserted_primes_for(a)
    if args.strategy == "asserted" and asserted is None:
        raise PreconditionError("no asserted minimal primes in the session for this ideal")
    if args.strategy in ("asserted", "auto") and asserted is not None:
        mps = asserted
    else:
        mps = minimal_primes(a, args.strategy)
    mps.verify()
    verdicts = {
        "count": len(mps.primes),
        "primes": [list(p.min_gen_strings()) for p in mps.ideals()],
    }
    _set_verdicts(report, verdicts, mps.provenance)


def _kernel(args, report):
    phi = _load_session(args).ring_map(args.map)
    report.inputs = {
        "map": args.map,
        "source": repr(phi.source),
        "target": repr(phi.target_ambient),
        "images": [str(g) for g in phi.images],
    }
    _set_verdicts(report, {"kernel": list(ring_map_kernel(phi).min_gen_strings())}, "computed")


def _contract(args, report):
    session = _load_session(args)
    phi = session.ring_map(args.map)
    q = session.ideal(args.ideal)
    report.inputs = {
        "map": args.map,
        "ideal": args.ideal,
        "generators": [str(g) for g in q.gens],
    }
    _set_verdicts(report, {"contraction": list(contract(q, phi).min_gen_strings())}, "computed")


def _gamma(args, report):
    _, pres = _ring_inputs(args, report)
    graph = build_gamma(pres)
    _set_verdicts(report, _graph_verdicts(graph), graph.provenance)
    return graph


def _connected(args, report):
    _, pres = _ring_inputs(args, report)
    _connectivity(report, is_connected(build_gamma(pres)))


def _disconnection(args, report):
    _, pres = _ring_inputs(args, report)
    rep = disconnection_exists(pres)
    _connectivity(report, rep, disconnection_exists=rep.status == "disconnected")


def _punctured(args, report):
    pres, a = _ring_ideal_inputs(args, report)
    _connectivity(report, punctured_spectrum_connected(pres, a))


def _hl(args, report):
    pres, a = _ring_ideal_inputs(args, report)
    value = hl_nonvanishing(pres, a)
    _set_verdicts(report, {"nonvanishing": value}, provenance(pres.min_primes))


def _s2member(args, report):
    session, _ = _ring_inputs(args, report)
    frac = parse_fraction(session, args.ring, args.fraction)
    res = conductor(frac)
    report.inputs["fraction"] = str(frac)
    verdicts = {
        "member": res.member,
        "conductor": list(res.ideal.min_gen_strings()),
        "height": res.height_text(),
    }
    _set_verdicts(report, verdicts, res.provenance)


def _s2local(args, report):
    _, pres = _ring_inputs(args, report)
    rep = s2_local_decision(pres)
    _set_verdicts(report, {"status": rep.status, "connected": rep.connected}, rep.provenance)
    for name, value, label in rep.conditions:
        report.verdicts[name] = value
        report.provenance[name] = label
    report.witnesses = dict(rep.witness or {})


def _faltings(args, report):
    if args.trials < 1:
        raise PreconditionError("--trials must be positive")
    report.inputs = {k: vars(args)[k] for k in ("trials", "seed", "max_vertices", "max_facet_size")}
    harness = faltings_harness(**report.inputs)
    _set_verdicts(
        report,
        {"ok": harness.ok, "passed": harness.passed, "failed": harness.failed},
        "computed",
    )
    report.witnesses = {
        "failures": harness.failures,
        "records": [asdict(r) for r in harness.records],
    }


def _product_gamma(args, report):
    g1, g2 = (graph_from_text(_read(path, "graph")) for path in (args.graph1, args.graph2))
    graph = gamma_product(g1, g2)
    report.inputs = {"graph1": str(args.graph1), "graph2": str(args.graph2)}
    verdicts = _graph_verdicts(graph)
    verdicts["connected"] = is_connected(graph).connected
    _set_verdicts(report, verdicts, graph.provenance)
    return graph


# Each command: its handler, its help line, then its own arguments, each
# a name or a (flag, add_argument options) pair.  Every command also
# takes --session (required unless in SESSIONLESS), --format and --timing.
COMMANDS = {
    "gb": (
        _gb, "reduced basis of an ideal", "ideal", ("order", {"help": "lex | grevlex | elim:<k>"})
    ),
    "dim": (_dim, "dimension of a quotient by an ideal", "ideal"),
    "minprimes": (
        _minprimes,
        "minimal primes over an ideal",
        "ideal",
        ("--strategy", {"choices": ("auto", "monomial", "split", "asserted"), "default": "auto"}),
    ),
    "kernel": (_kernel, "kernel of a ring map", "map"),
    "contract": (_contract, "contraction of an ideal along a map", "ideal", "map"),
    "gamma": (_gamma, "minimal-prime graph of a ring", "ring"),
    "connected": (_connected, "connectivity of the minimal-prime graph", "ring"),
    "disconnection": (_disconnection, "exhaustive disconnecting-partition search", "ring"),
    "punctured": (
        _punctured, "connectivity of the punctured spectrum mod an ideal", "ring", "ideal"
    ),
    "hl": (_hl, "top local cohomology nonvanishing at an ideal", "ring", "ideal"),
    "s2member": (
        _s2member,
        "membership of a fraction in the S2-ification",
        "ring",
        ("fraction", {"help": "u / v in the ring's variables"}),
    ),
    "s2local": (_s2local, "is the S2-ification local?", "ring"),
    "faltings": (
        _faltings,
        "randomized punctured-connectedness harness",
        ("--trials", {"type": int, "required": True}),
        ("--seed", {"type": int, "required": True}),
        ("--max-vertices", {"type": int, "default": 8}),
        ("--max-facet-size", {"type": int, "default": 5}),
    ),
    "product-gamma": (
        _product_gamma,
        "product of two stored graphs",
        ("graph1", {"type": Path}),
        ("graph2", {"type": Path}),
    ),
}
SESSIONLESS = ("faltings", "product-gamma")


if __name__ == "__main__":
    sys.exit(main())
