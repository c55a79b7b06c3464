"""Command-line front end.

Machine-readable JSON goes to stdout; human logs go to stderr.  Exit
codes: 0 success, 2 invalid arguments, 3 resource limit exceeded,
4 internal invariant violation.
"""
from __future__ import annotations

import argparse
import json
import sys
from fractions import Fraction
from typing import Optional

from . import approx as approx_mod
from . import discrepancy as disc_mod
from . import graphs, orderings, pointer, power_coloring, setsystems
from .errors import ParseError, ResourceLimitError
from .formulas import QFFormula, parse_formula

EXIT_OK = 0
EXIT_USAGE = 2
EXIT_RESOURCE = 3
EXIT_INVARIANT = 4

GEN_FAMILIES = graphs.FAMILIES + ("sylvester",)


def _emit(payload: dict) -> None:
    sys.stdout.write(json.dumps(payload, separators=(",", ":")) + "\n")


def _log(msg: str) -> None:
    sys.stderr.write(msg + "\n")


def _parse_fraction(text: str) -> Fraction:
    try:
        return Fraction(text)
    except (ValueError, ZeroDivisionError):
        raise ParseError(f"not a fraction: {text!r}") from None


def _read_graph(path: str) -> graphs.Graph:
    with open(path) as fh:
        return graphs.read_edge_list(fh)


def _read_structure(path: str) -> pointer.PointerStructure:
    with open(path) as fh:
        return pointer.PointerStructure.from_json(fh.read())


def _read_formula(path: str) -> QFFormula:
    with open(path) as fh:
        return parse_formula(fh.read())


def _read_gamma(path: str) -> dict[tuple[int, int], int]:
    gamma = {}
    with open(path) as fh:
        for lineno, raw in enumerate(fh, start=1):
            line = raw.strip()
            if not line or line.startswith("#"):
                continue
            try:
                u, v, c = map(int, line.split())
            except ValueError:
                raise ParseError(f"malformed color line {lineno}") from None
            gamma[(min(u, v), max(u, v))] = c
    return gamma


def _required(args: argparse.Namespace, option: str) -> str | list[str]:
    """The value of an option that the chosen kind needs: a path, or the
    paths of an option given once per file."""
    value = getattr(args, option)
    if value is None:
        raise ParseError(f"{args.verb} {args.kind} needs --{option}")
    return value


def _build_system(kind: str, args: argparse.Namespace) -> setsystems.SetSystem:
    """The set system of the given kind read from --input: SetSystem JSON,
    an edge list (neighborhood, power, edge-color), or a pointer structure
    with the --formula it defines (defined)."""
    if kind == "json":
        with open(args.input) as fh:
            return setsystems.SetSystem.from_json(fh.read())
    if kind == "defined":
        phi = _read_formula(_required(args, "formula"))
        return pointer.defined_system(_read_structure(args.input), phi)
    if kind == "edge-color":
        gamma = _read_gamma(_required(args, "colors"))
        return setsystems.edge_color_system(_read_graph(args.input), gamma)
    g = _read_graph(args.input)
    if kind == "neighborhood":
        return setsystems.neighborhood_system(g)
    if kind == "power":
        return setsystems.neighborhood_system(graphs.graph_power(g, args.d))
    raise ParseError(f"unknown system kind {kind!r}")


def _add_system_input(p: argparse.ArgumentParser) -> None:
    """The options of a verb that reads its set system through
    _build_system: the --input path, its --system kind and the radius --d."""
    p.add_argument("-i", "--input", required=True)
    p.add_argument("--system", choices=["json", "neighborhood", "power"], default="json")
    p.add_argument("--d", type=int, default=1)


def _read_order(path: str, n: int) -> orderings.LinearOrder:
    """An order file: every vertex of the n-vertex graph exactly once,
    earliest first, separated by whitespace."""
    with open(path) as fh:
        tokens = fh.read().split()
    try:
        seq = [int(tok) for tok in tokens]
    except ValueError:
        raise ParseError("order file must hold vertex indices") from None
    if sorted(seq) != list(range(n)):
        raise ParseError(f"order file must list each of the {n} vertices exactly once")
    return orderings.LinearOrder.from_sequence(seq)


# ---------- verbs ----------


def cmd_gen(args: argparse.Namespace) -> int:
    if args.family == "sylvester":
        if len(args.params) != 1:
            raise ParseError("sylvester takes one parameter p")
        g = graphs.sylvester_graph(args.params[0])
    else:
        g = graphs.generate_family(args.family, args.params, seed=args.seed)
    if args.output:
        with open(args.output, "w") as fh:
            graphs.write_edge_list(g, fh)
        _emit({"written": args.output, "n": g.n, "edges": g.edge_count()})
    else:
        graphs.write_edge_list(g, sys.stdout)
    return EXIT_OK


def cmd_order(args: argparse.Namespace) -> int:
    if args.d < 0:
        raise ParseError(f"--d must be non-negative, got {args.d}")
    g = _read_graph(args.input)
    order, dgn = orderings.degeneracy_order(g)
    # every radius from one pass; an empty graph has no weak-reach sets,
    # so its wcol is 0 where the profile's M_i is 1
    profile = orderings.reach_profile(orderings.weak_reach(g, order, args.d), args.d)
    report = {
        "n": g.n,
        "degeneracy": dgn,
        "order": order.sequence(),
        "wcol_from_order": {
            str(d): profile[d] if g.n else 0 for d in range(1, args.d + 1)
        },
    }
    if args.exact_d is not None:
        report["wcol_exact"] = orderings.wcol_exact(
            g, args.exact_d, max_n=args.cap_orderings
        )
    if args.output:
        with open(args.output, "w") as fh:
            fh.write(order.serialize() + "\n")
    _emit(report)
    return EXIT_OK


def cmd_system(args: argparse.Namespace) -> int:
    sys.stdout.write(_build_system(args.kind, args).to_json() + "\n")
    return EXIT_OK


def cmd_color(args: argparse.Namespace) -> int:
    if args.kind == "beck-fiala":
        s = _build_system(args.system, args)
        chi, rounds = disc_mod.beck_fiala_with_stats(s)
        t = setsystems.degree(s)
        d, _ = disc_mod.eval_discrepancy(s, chi)
        _maybe_write_coloring(chi, args.output)
        _emit({"disc": d, "bound": max(2 * t - 1, 0), "degree": t, "rounds": rounds})
        return EXIT_OK
    if args.kind == "power":
        g = _read_graph(args.input)
        order = _read_order(args.order, g.n) if args.order else None
        chi, cert = power_coloring.power_coloring(g, args.d, order)
        _maybe_write_coloring(chi, args.output)
        sys.stdout.write(cert.to_json() + "\n")
        return EXIT_OK
    if args.kind == "qf":
        paths = _required(args, "formula")
        m = _read_structure(args.input)
        phis = [_read_formula(path) for path in paths]
        chi, bound = pointer.qf_color(m, phis)
        _maybe_write_coloring(chi, args.output)
        achieved = [
            disc_mod.eval_discrepancy(pointer.defined_system(m, phi), chi)[0] for phi in phis
        ]
        _emit({"bound": bound, "achieved": achieved})
        return EXIT_OK
    raise ParseError(f"unknown coloring kind {args.kind!r}")


def _maybe_write_coloring(chi: disc_mod.Coloring, path: Optional[str]) -> None:
    if path:
        with open(path, "w") as fh:
            disc_mod.write_coloring(chi, fh)


def cmd_disc(args: argparse.Namespace) -> int:
    s = _build_system(args.system, args)
    if args.kind == "eval":
        with open(_required(args, "coloring")) as fh:
            chi = disc_mod.read_coloring(fh, s.ground_size)
        d, witness = disc_mod.eval_discrepancy(s, chi)
        _emit({"disc": d, "witness": witness})
        return EXIT_OK
    if args.kind == "exact":
        d, chi = disc_mod.exact_discrepancy(s, max_ground=args.cap_exact_n)
        _maybe_write_coloring(chi, args.output)
        _emit({"disc": d})
        return EXIT_OK
    if args.kind == "herdisc":
        val, witness = disc_mod.herdisc_search(s, args.budget, exact_cap=args.cap_exact_n)
        _emit({"lower_bound": val, "witness_subset": list(witness)})
        return EXIT_OK
    if args.kind == "spectral":
        val = disc_mod.spectral_lower_bound(s)
        _emit({"bound": approx_mod.frac_str(val)})
        return EXIT_OK
    raise ParseError(f"unknown disc kind {args.kind!r}")


def cmd_approx(args: argparse.Namespace) -> int:
    s = _build_system(args.system, args)
    eps = _parse_fraction(args.eps)
    if args.kind == "build":
        report = approx_mod.epsilon_approximation(s, eps)
        sys.stdout.write(report.to_json() + "\n")
        return EXIT_OK
    if args.kind == "verify":
        with open(_required(args, "sample")) as fh:
            sample = [int(tok) for tok in fh.read().split()]
        ok, worst, measured = approx_mod.verify_approximation(s, sample, eps)
        net = approx_mod.verify_net(s, sample, eps)
        _emit({"ok": ok, "worst_set": worst, "measured": approx_mod.frac_str(measured), "net": net})
        return EXIT_OK
    raise ParseError(f"unknown approx kind {args.kind!r}")


# ---------- argument parsing ----------


class _Parser(argparse.ArgumentParser):
    """argparse whose errors are one line, as every other usage error is:
    `error: ...` on stderr and exit 2, without the usage block.  The verbs'
    parsers are of this class too."""

    def error(self, message: str):
        self.exit(EXIT_USAGE, f"error: {message}\n")


def build_parser() -> argparse.ArgumentParser:
    top = _Parser(
        prog="sparsedisc",
        description="low-discrepancy colorings of graph-derived set systems",
    )
    sub = top.add_subparsers(dest="verb", required=True)

    p = sub.add_parser("gen", help="generate a graph family as an edge list")
    p.add_argument("family", choices=GEN_FAMILIES)
    p.add_argument("params", nargs="*", type=int)
    p.add_argument("--seed", type=int, default=0)
    p.add_argument("-o", "--output")
    p.set_defaults(func=cmd_gen)

    p = sub.add_parser("order", help="degeneracy order and weak coloring stats")
    p.add_argument("-i", "--input", required=True)
    p.add_argument("--d", type=int, default=2)
    p.add_argument("--exact-d", type=int, default=None)
    p.add_argument("--cap-orderings", type=int, default=orderings.WCOL_EXACT_MAX_N)
    p.add_argument("-o", "--output", help="write the order as one serialized line")
    p.set_defaults(func=cmd_order)

    p = sub.add_parser("system", help="build a set system as canonical JSON")
    p.add_argument("kind", choices=["neighborhood", "power", "edge-color", "defined"])
    p.add_argument("-i", "--input", required=True)
    p.add_argument("--d", type=int, default=1)
    p.add_argument("--colors")
    p.add_argument("--formula")
    p.set_defaults(func=cmd_system)

    p = sub.add_parser("color", help="run a coloring pipeline")
    p.add_argument("kind", choices=["beck-fiala", "power", "qf"])
    _add_system_input(p)
    p.add_argument("--order")
    p.add_argument("--formula", action="append")
    p.add_argument("-o", "--output")
    p.set_defaults(func=cmd_color)

    p = sub.add_parser("disc", help="evaluate or certify discrepancy")
    p.add_argument("kind", choices=["eval", "exact", "herdisc", "spectral"])
    _add_system_input(p)
    p.add_argument("--coloring")
    p.add_argument("--budget", type=int, default=4096)
    p.add_argument("--cap-exact-n", type=int, default=disc_mod.EXACT_MAX_GROUND)
    p.add_argument("-o", "--output")
    p.set_defaults(func=cmd_disc)

    p = sub.add_parser("approx", help="build or verify epsilon approximations")
    p.add_argument("kind", choices=["build", "verify"])
    _add_system_input(p)
    p.add_argument("--eps", required=True)
    p.add_argument("--sample")
    p.set_defaults(func=cmd_approx)

    return top


def main(argv: Optional[list[str]] = None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        return args.func(args)
    except (ResourceLimitError, RecursionError) as exc:  # recursion: exact DFS past --cap-exact-n
        _log(f"resource limit: {exc}")
        return EXIT_RESOURCE
    except (ParseError, ValueError, KeyError, OSError) as exc:
        _log(f"error: {exc}")
        return EXIT_USAGE
    except AssertionError as exc:
        _log(f"internal invariant violated: {exc}")
        return EXIT_INVARIANT


if __name__ == "__main__":
    sys.exit(main())
