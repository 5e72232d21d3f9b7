"""Command-line frontend: spectra, evolution, time averages, transfer checks, graphs.

Output is deterministic byte for byte: fixed float formatting, fixed key and
row order.  Exit codes: 0 success, 1 runtime failure, 2 usage or config error.

Every subcommand that prints a value per node starts from a basis node, so
it computes and writes a ClassTable: one entry per Hamming distance from
that node, never a node-sized array, at any level up to the cap.  No
subcommand imports numpy.
"""

from __future__ import annotations

import argparse
import contextlib
import itertools
import math
import os
import re
import sys
from typing import Iterable

from .formatting import GRAPH_FORMATS, export_graph, format_float, iter_csv, iter_document
from .measure import is_symmetric, node_time_average, probability
from .spectral import SpectrumEntry, basis_start_classes, spectrum
from .subsets import Level, format_node, natural, parse_node, real

# argparse reads an argument as a value rather than an option only when it
# matches its parser's negative-number pattern, by default just the -123 and
# -1.5 shapes.  No hyperwalk option starts with "-" and a digit, so every
# such argument, -1e-3 and -1/2 included, can be a value.
NEGATIVE_NUMBER = re.compile(r"^-\.?\d")


def _signed(text: str) -> int:
    """A pi-fraction part: subsets.natural after at most one leading "-",
    between optional whitespace."""
    body = text.strip()
    return -natural(body[1:]) if body.startswith("-") else natural(body)


def _parse_pi_fraction(text: str) -> float:
    """Parse "p/q" (or "p"), each an integer with at most one leading "-", as
    the time p*pi/q, avoiding decimal truncation.

    The time is reduced into [0, pi), one period of the walk.
    """
    num_str, slash, den_str = text.strip().partition("/")
    try:
        num = _signed(num_str)
        den = _signed(den_str) if slash else 1
    except ValueError:
        raise ValueError(f"expected an integer fraction like '1/2', got {text!r}") from None
    if den == 0:
        raise ValueError(f"zero denominator in pi fraction {text!r}")
    if den < 0:
        num, den = -num, -den
    # the walk is pi-periodic: reducing p mod q in integers keeps the time exact
    try:
        t = math.pi * (num % den) / den
    except OverflowError:
        raise ValueError(f"pi fraction {text!r} has a denominator beyond the float range") from None
    # pi * (p mod q) overflows above max / pi; the int quotient, below 1, is correctly rounded
    return t if t != math.inf else math.pi * ((num % den) / den)


def tolerance(text: str) -> float:
    """--tol: a finite float >= 0.  A nan, negative or infinite tolerance
    would decide is_pst the same way whatever the fidelities."""
    tol = real(text)
    if not (math.isfinite(tol) and tol >= 0):
        raise argparse.ArgumentTypeError(f"tolerance must be finite and >= 0, got {text!r}")
    return tol


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="hyperwalk",
        description="Simulate the hypercube continuous-time quantum walk. "
        "Set HYPERWALK_L_MAX to override the default level cap of 24.",
    )
    sub = parser.add_subparsers(dest="command", required=True)
    # options every subcommand takes, and the table format of all but graph
    common = argparse.ArgumentParser(add_help=False)
    common.add_argument("--L", type=int, required=True, help="walk order (>= 0)")
    common.add_argument("--out", default=None, metavar="FILE", help="write output to FILE")
    tabular = argparse.ArgumentParser(add_help=False, parents=[common])
    tabular.add_argument("--format", choices=("json", "csv"), default="json")

    sp = sub.add_parser("spectrum", parents=[tabular], help="eigenvalues and multiplicities of the generator")
    sp.set_defaults(handler=cmd_spectrum)

    ev = sub.add_parser("evolve", parents=[tabular], help="distribution (and amplitudes) at a given time")
    group = ev.add_mutually_exclusive_group(required=True)
    group.add_argument("--t", type=float, help="evolution time (dimensionless)")
    group.add_argument("--t-pi-fraction", metavar="P/Q", help="time as an exact multiple of pi")
    ev.add_argument("--initial", default="", help="initial node string (default: empty set)")
    ev.add_argument("--amplitudes", action="store_true", help="include [re, im] amplitude pairs")
    ev.set_defaults(handler=cmd_evolve)

    ta = sub.add_parser("time-average", parents=[tabular], help="period-averaged distribution")
    ta.add_argument("--initial", default="", help="initial node string (default: empty set)")
    ta.set_defaults(handler=cmd_time_average)

    ps = sub.add_parser("pst", parents=[tabular], help="transfer fidelities from a source node")
    ps.add_argument("--from", dest="source", default="", help="source node string")
    group = ps.add_mutually_exclusive_group()
    group.add_argument("--t0", type=float, default=math.pi / 2, help="transfer time (default pi/2)")
    group.add_argument("--t0-pi-fraction", metavar="P/Q", help="transfer time as a multiple of pi")
    ps.add_argument("--tol", type=tolerance, default=1e-10)
    ps.set_defaults(handler=cmd_pst)

    gr = sub.add_parser("graph", parents=[common], help="export the hypercube graph")
    gr.add_argument("--format", choices=GRAPH_FORMATS, default="dot")
    gr.set_defaults(handler=cmd_graph)

    for subparser in sub.choices.values():
        subparser._negative_number_matcher = NEGATIVE_NUMBER
        # type=int and type=float read by the rules of subsets; refusals still name int or float
        subparser.register("type", int, lambda text: natural(text.strip()))
        subparser.register("type", float, real)
    return parser


def cmd_spectrum(args: argparse.Namespace) -> Iterable[str]:
    spec = spectrum(Level(args.L))
    if args.format == "csv":
        return ["".join(",".join(map(str, row)) + "\n" for row in (SpectrumEntry._fields, *spec.entries))]
    return iter_document(spec.level, spec.to_json_dict())  # its "L" is the frame's


def cmd_evolve(args: argparse.Namespace) -> Iterable[str]:
    level = Level(args.L)
    t = args.t if args.t_pi_fraction is None else _parse_pi_fraction(args.t_pi_fraction)
    initial_node = parse_node(args.initial, level)
    amps = basis_start_classes(level, initial_node, t)
    probs = amps.with_table(tuple(map(probability, amps.table)))
    if args.format == "csv":
        if not args.amplitudes:
            return iter_csv("node,probability", [probs])
        real = amps.with_table(tuple(a.real for a in amps.table))
        imag = amps.with_table(tuple(a.imag for a in amps.table))
        return iter_csv("node,probability,amp_re,amp_im", [probs, real, imag])
    doc: dict = {"engine": "spectral", "initial": format_node(initial_node), "t": t, "probs": probs}
    if args.amplitudes:
        doc["amps"] = amps.with_table(tuple((a.real, a.imag) for a in amps.table))
    return iter_document(level, doc)


def cmd_time_average(args: argparse.Namespace) -> Iterable[str]:
    level = Level(args.L)
    initial_node = parse_node(args.initial, level)
    probs = node_time_average(level, initial_node)
    report = is_symmetric(probs)
    if args.format == "csv":
        footer = f"# symmetry_max_deviation,{format_float(report.max_deviation)}\n"
        return itertools.chain(iter_csv("node,probability", [probs]), [footer])
    doc = {
        "method": "krawtchouk",
        "initial": format_node(initial_node),
        "probs": probs,
        "symmetry_max_deviation": report.max_deviation,
        "symmetric": report.symmetric,
    }
    return iter_document(level, doc)


def cmd_pst(args: argparse.Namespace) -> Iterable[str]:
    level = Level(args.L)
    source = parse_node(args.source, level)
    t0 = args.t0 if args.t0_pi_fraction is None else _parse_pi_fraction(args.t0_pi_fraction)
    amps = basis_start_classes(level, source, t0)
    fidelities = amps.with_table(tuple(map(abs, amps.table)))
    best = fidelities.argmax()
    best_fid = fidelities.at(best)
    if args.format == "csv":
        return iter_csv("node,fidelity", [fidelities])
    doc = {
        "from": format_node(source),
        "t0": t0,
        "engine": "spectral",
        "best_target": format_node(best),
        "best_fidelity": best_fid,
        "is_pst": best_fid >= 1.0 - args.tol,
        "fidelities": fidelities,
    }
    return iter_document(level, doc)


def cmd_graph(args: argparse.Namespace) -> Iterable[str]:
    return [export_graph(Level(args.L), args.format)]


def main(argv: list[str] | None = None) -> int:
    parser = build_parser()
    try:
        args = parser.parse_args(argv)
        if [] in vars(args).values():  # argparse of Python <= 3.11 reads --opt=-- as [], past type and choices
            parser.error("'--' is not an option value")
        # handlers compute and validate everything before they return; only
        # the formatting of the returned chunks is left to the writes below
        chunks = args.handler(args)
    except SystemExit as exc:  # argparse exits 2 on usage errors, 0 on --help
        return int(exc.code) if exc.code is not None else 0
    except (ValueError, OverflowError) as exc:  # OverflowError: more digits than int() reads (natural)
        print(f"error: {exc}", file=sys.stderr)
        return 2
    except Exception as exc:  # pragma: no cover - unexpected runtime failure
        print(f"error: {exc}", file=sys.stderr)
        return 1
    if args.out:
        try:
            out = open(args.out, "w", encoding="utf-8")
        except OSError as exc:
            print(f"error: {exc}", file=sys.stderr)
            return 2
    else:
        out = contextlib.nullcontext(sys.stdout)
    try:
        with out as fh:
            fh.writelines(chunks)
            fh.flush()
    except OSError as exc:
        if not args.out:
            # the interpreter flushes stdout again at exit: send what is left to devnull
            devnull = os.open(os.devnull, os.O_WRONLY)
            os.dup2(devnull, sys.stdout.fileno())
        if not isinstance(exc, BrokenPipeError):  # a reader (e.g. head) that closed the pipe ends quietly
            print(f"error: {exc}", file=sys.stderr)
        return 1
    return 0


if __name__ == "__main__":
    sys.exit(main())
