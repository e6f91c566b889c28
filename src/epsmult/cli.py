"""Command line entry point: the `eps` tool.

Subcommands: h0, newton, epsilon, mixed, family (eval|check|growth|run),
delta, repro (--case NAME; `eps repro -h` lists the bundled cases).  Every
leaf command takes the common flags --json, --csv [PATH] and --timeout SECS
after its own name; h0, newton, epsilon and delta read one ideal from
--ideal, mixed reads several from --ideals, and all five take --dim.  Output
is canonical JSON by default (sorted keys, rationals as "p/q" strings) or CSV
via --csv [PATH].  Exit codes: 0 success, 1 parse or usage error, 2
precondition violation, 3 mathematically inconclusive (no fit, method
disagreement, failed reproduction, timeout).  A run builds only the parser
of the command it runs (for family, of its subcommand); help, a bare `eps`
or `eps family` and unknown names build the whole tree, so help and errors
read the same either way.
"""

from __future__ import annotations

import argparse
import csv
import io
import json
import math
import os
import re
import signal
import sys
from contextlib import contextmanager
from itertools import product as iter_product

from .asymptotics import convergence_report, fit_epsilons, length_table
from .cohomology import METHOD_BOX, METHOD_TAKAYAMA, delta_complex, h0_length, reduced_betti
from .errors import NoFitError, ParseError, PreconditionError, TheoremViolationError
from .families import (check_structure, eval_family, family_from_json,
                       family_to_json, growth_constants, product_grid_family)
from .ideal_core import format_ideal, parse_ideal
from .polyhedra import analytic_spread, newton_polyhedron, out_region
from .repro import CASES, fit_epsilon, rat, run_case


class _Parser(argparse.ArgumentParser):
    def error(self, message):
        raise ParseError(message)


def _int(text: str) -> int:
    """A plain ASCII decimal integer, with an optional sign and surrounding
    spaces: the `type` of every integer flag.  int() alone would also take
    `1_0` and other scripts' digits."""
    if re.fullmatch(r"\s*[+-]?[0-9]+\s*", text) is None:
        raise argparse.ArgumentTypeError(f"invalid int value: {text!r}")
    return int(text)


def _common(p: _Parser) -> _Parser:
    """*p* with the flags every leaf command takes."""
    p.add_argument("--json", action="store_true", help="JSON output (default)")
    p.add_argument("--csv", nargs="?", const="-", default=None, metavar="PATH",
                   help="CSV output to stdout or PATH")
    p.add_argument("--timeout", type=_int, default=0, metavar="SECS")
    return p


def _ideal(p: _Parser, flag: str = "--ideal", **kwargs) -> None:
    """Add the common flags, the ideal flag (--ideals for mixed) and --dim to *p*."""
    _common(p).add_argument(flag, required=True, **kwargs)
    p.add_argument("--dim", type=_int, default=None)


def _h0(p, rest):
    p.set_defaults(handler=cmd_h0)
    _ideal(p)
    p.add_argument("--method", choices=["box", "takayama"], default="box")
    p.add_argument("--witnesses", action="store_true")


def _newton(p, rest):
    p.set_defaults(handler=cmd_newton)
    _ideal(p)
    p.add_argument("--facets", action="store_true")
    p.add_argument("--vertices", action="store_true")
    p.add_argument("--spread", action="store_true")
    p.add_argument("--epsilon", action="store_true")


def _epsilon(p, rest):
    p.set_defaults(handler=cmd_epsilon)
    _ideal(p)
    p.add_argument("--method", choices=["fit", "volume", "both"], default="both")
    p.add_argument("--nmax", type=_int, default=12)
    p.add_argument("--period-max", type=_int, default=6)
    p.add_argument("--start", type=_int, default=None)
    p.add_argument("--holdout", type=_int, default=2)


def _mixed(p, rest):
    p.set_defaults(handler=cmd_mixed)
    _ideal(p, "--ideals", help="semicolon-separated ideal specs")
    p.add_argument("--grid", required=True, metavar="A:B")
    p.add_argument("--degree", type=_int, default=None)
    p.add_argument("--period-max", type=_int, default=6)
    p.add_argument("--start", type=_int, default=None)
    p.add_argument("--holdout", type=_int, default=4)


def _family(p, rest):
    p.set_defaults(handler=cmd_family)
    fam = p.add_subparsers(dest="family_cmd", required=True)
    for name in _named(_FAMILY, rest):
        f = _common(fam.add_parser(name))
        f.add_argument("--spec", required=True)
        _FAMILY[name](f)


def _family_eval(f):
    f.add_argument("--n", default=None)
    f.add_argument("--range", dest="index_range", default=None, metavar="A:B")


def _family_check(f):
    f.add_argument("--N", type=_int, required=True)
    f.add_argument("--mode", choices=["graded", "filtration"], default="graded")


def _family_growth(f):
    f.add_argument("--n", type=_int, default=None)
    f.add_argument("--range", dest="index_range", default=None, metavar="A:B")


def _family_run(f):
    f.add_argument("--range", required=True, metavar="A:B")
    f.add_argument("--normalizer", default=None)


def _delta(p, rest):
    p.set_defaults(handler=cmd_delta)
    _ideal(p)
    p.add_argument("--point", required=True, help="comma-separated exponents")
    p.add_argument("--q", type=_int, default=None)


def _repro(p, rest):
    p.set_defaults(handler=cmd_repro)
    _common(p).add_argument("--case", required=True, choices=CASES)
    p.add_argument("--seed", type=_int, default=None,
                   help="seed for randomized reproduction cases")


# The command tree: name -> (help, builder) for the commands and name ->
# builder for the family subcommands.  A command's builder takes its subparser
# and the argv after its name, and adds the handler and flags; `build_parser`
# calls only the builders on the path that argv names.
_COMMANDS = {
    "h0": ("H^0 length of R/I", _h0),
    "newton": ("Newton polyhedron data", _newton),
    "epsilon": ("epsilon multiplicity", _epsilon),
    "mixed": ("mixed epsilon multiplicities", _mixed),
    "family": ("graded family operations", _family),
    "delta": ("inverted-variable complex of a lattice point", _delta),
    "repro": ("bundled reproduction cases", _repro),
}
_FAMILY = {"eval": _family_eval, "check": _family_check,
           "growth": _family_growth, "run": _family_run}


def _named(table: dict, argv) -> list:
    """The names of *table* to build: argv[0] alone when it is one of them,
    else all of them, so that help, a missing name and an unknown one read
    as they do in the whole tree."""
    return [argv[0]] if argv and argv[0] in table else list(table)


def build_parser(argv=()) -> _Parser:
    """The `eps` parser, holding only the path that *argv* names (the whole
    tree when argv names no command)."""
    parser = _Parser(prog="eps", description=__doc__)
    sub = parser.add_subparsers(dest="command", required=True)
    for name in _named(_COMMANDS, argv):
        help_, build = _COMMANDS[name]
        build(sub.add_parser(name, help=help_), argv[1:])
    return parser


def _parse_range(text: str) -> range:
    try:
        lo, hi = map(_int, text.split(":"))
    except (ValueError, argparse.ArgumentTypeError) as exc:
        raise ParseError(f"bad range {text!r}; expected A:B") from exc
    if lo > hi:
        raise ParseError(f"empty range {text!r}")
    return range(lo, hi + 1)


def _parse_index(text: str):
    parts = [p for p in text.split(",") if p.strip()]
    try:
        values = [_int(p) for p in parts]
    except argparse.ArgumentTypeError as exc:
        raise ParseError(f"bad index {text!r}") from exc
    if not values:
        raise ParseError(f"empty index {text!r}")
    return values[0] if len(values) == 1 else tuple(values)


def _load_family(path: str):
    try:
        with open(path, "r", encoding="utf-8") as fh:
            return family_from_json(json.load(fh))
    except OSError as exc:
        raise ParseError(f"cannot read family spec {path}: {exc}") from exc
    except json.JSONDecodeError as exc:
        raise ParseError(f"bad JSON in {path}: {exc}") from exc


def cmd_h0(args):
    ideal = parse_ideal(args.ideal, args.dim)
    method = METHOD_TAKAYAMA if args.method == "takayama" else METHOD_BOX
    count = h0_length(ideal, method=method, witnesses=args.witnesses)
    payload = {"length": count.length, "method": count.method}
    if count.witnesses is not None:
        payload["witnesses"] = [list(w) for w in count.witnesses]
    return payload, 0


def cmd_newton(args):
    ideal = parse_ideal(args.ideal, args.dim)
    np_ = newton_polyhedron(ideal)
    wanted = [k for k in ("facets", "vertices", "spread", "epsilon") if getattr(args, k)]
    if not wanted:
        wanted = ["facets", "vertices", "spread", "epsilon"]
    payload = {}
    if "facets" in wanted:
        payload["facets"] = [{"normal": list(nu), "offset": int(c)}
                             for nu, c in np_.facets]
    if "vertices" in wanted:
        payload["vertices"] = [[rat(x) for x in v] for v in np_.vertices]
    if "spread" in wanted:
        payload["spread"] = analytic_spread(ideal)
    if "epsilon" in wanted:
        report = out_region(ideal)
        payload["epsilon"] = rat(report.epsilon)
        payload["volume"] = rat(report.volume)
        payload["box_bound"] = rat(report.box_bound) if report.box_bound is not None else None
    return payload, 0


def cmd_epsilon(args):
    ideal = parse_ideal(args.ideal, args.dim)
    payload = {"d": ideal.d, "method": args.method}
    code = 0
    if args.method in ("fit", "both"):
        eps_fit, quasi = fit_epsilon(ideal, n_max=args.nmax, start=args.start,
                                     period_max=args.period_max, holdout=args.holdout)
        payload["epsilon_fit"] = rat(eps_fit)
        payload["raw_limit"] = rat(eps_fit / math.factorial(ideal.d))
        payload["fit_period"] = quasi.period
        payload["epsilon"] = rat(eps_fit)
    if args.method in ("volume", "both"):
        report = out_region(ideal)
        payload["epsilon_volume"] = rat(report.epsilon)
        payload["volume"] = rat(report.volume)
        payload["epsilon"] = rat(report.epsilon)
    if args.method == "both":
        agree = payload["epsilon_fit"] == payload["epsilon_volume"]
        payload["methods_agree"] = agree
        if not agree:
            code = 3
    return payload, code


def cmd_mixed(args):
    specs = [s for s in args.ideals.split(";") if s.strip()]
    if not specs:
        raise ParseError("no ideals given")
    ideals = [parse_ideal(s, args.dim) for s in specs]
    family = product_grid_family(ideals)
    indices = list(iter_product(_parse_range(args.grid), repeat=len(ideals)))
    quasi, report = fit_epsilons(family, indices, args.degree, args.period_max, args.holdout, args.start)
    payload = {
        "degree": report.degree,
        "period": quasi.period,
        "mixed": {",".join(map(str, e)): rat(v) for e, v in sorted(report.mixed.items())},
        "leading_form": {",".join(map(str, e)): rat(v)
                         for e, v in sorted(report.leading_form.items())},
    }
    return payload, 0


def _indices_from(args):
    if (args.n is None) == (args.index_range is None):
        raise ParseError("give exactly one of --n or --range")
    if args.n is not None:
        return [_parse_index(str(args.n))]
    return list(_parse_range(args.index_range))


def _eval_payload(spec, idx, memo):
    ideal = eval_family(spec, idx, memo)
    return {"n": list(idx) if isinstance(idx, tuple) else idx,
            "ideal": [list(g) for g in ideal.gens],
            "text": format_ideal(ideal)}


def _growth_payload(spec, n, memo):
    report = growth_constants(spec, n, memo)
    return {"n": report.n, "max_socle_degree": report.max_socle_degree,
            "minimal_c_linear": report.minimal_c_linear,
            "minimal_c_quadratic": report.minimal_c_quadratic}


def cmd_family(args):
    spec = _load_family(args.spec)
    memo = {}
    if args.family_cmd == "eval":
        rows = [_eval_payload(spec, idx, memo) for idx in _indices_from(args)]
        return (rows[0] if args.index_range is None else {"entries": rows}), 0
    if args.family_cmd == "check":
        report = check_structure(spec, args.N, args.mode)
        return {"passed": report.passed, "mode": report.mode, "N": report.upto,
                "violation": report.violation}, 0
    if args.family_cmd == "growth":
        rows = [_growth_payload(spec, n, memo) for n in _indices_from(args)]
        return (rows[0] if args.index_range is None else {"entries": rows}), 0
    # the subparsers are required, so the one name left is "run"
    table = length_table(spec, _parse_range(args.range))
    entries = [{"index": i[0], "length": v} for i, v in table.series()]
    payload = {"spec": family_to_json(spec), "entries": entries}
    if args.normalizer:
        conv = convergence_report(table, args.normalizer)
        normalized = dict(conv.values)
        for row in entries:
            row["normalized"] = normalized.get(row["index"])
        payload["normalizer"] = conv.normalizer
        payload["trend"] = conv.trend
        payload["window_max"] = conv.window_max
    return payload, 0


def cmd_delta(args):
    ideal = parse_ideal(args.ideal, args.dim)
    point = _parse_index(args.point)
    point = (point,) if isinstance(point, int) else point
    if len(point) != ideal.d:
        raise ParseError(f"point {args.point!r} has length {len(point)}, not {ideal.d}")
    if min(point) < 0:
        raise ParseError(f"point {args.point!r} has a negative entry")
    complex_ = delta_complex(ideal, point)
    faces = sorted((sorted(f) for f in complex_.faces), key=lambda f: (len(f), f))
    payload = {"point": list(point), "void": complex_.is_void,
               "faces": [list(f) for f in faces]}
    qs = [args.q] if args.q is not None else list(range(-1, ideal.d))
    payload["betti"] = {str(q): reduced_betti(complex_, q) for q in qs}
    return payload, 0


def cmd_repro(args):
    payload = run_case(args.case, seed=args.seed)
    return payload, 0 if payload["pass"] else 3


# signal.alarm takes a C int
_MAX_ALARM = 2**31 - 1


@contextmanager
def _alarm(seconds: int):
    if seconds <= 0 or not hasattr(signal, "SIGALRM"):
        yield
        return

    def _raise(signum, frame):
        raise TimeoutError(f"timed out after {seconds}s")

    old = signal.signal(signal.SIGALRM, _raise)
    signal.alarm(seconds)
    try:
        yield
    finally:
        signal.alarm(0)
        signal.signal(signal.SIGALRM, old)


def _flatten(payload, prefix=""):
    rows = []
    if isinstance(payload, dict):
        for k in sorted(payload):
            rows.extend(_flatten(payload[k], f"{prefix}{k}." if prefix else f"{k}."))
    elif isinstance(payload, list):
        for i, v in enumerate(payload):
            rows.extend(_flatten(v, f"{prefix}{i}."))
    else:
        rows.append((prefix[:-1], payload))
    return rows


def _emit(payload, args) -> None:
    if getattr(args, "csv", None) is not None:
        buf = io.StringIO()
        writer = csv.writer(buf)
        entries = payload.get("entries") if isinstance(payload, dict) else None
        if entries and all(isinstance(e, dict) for e in entries):
            keys = list(entries[0])
            writer.writerow(keys)
            for e in entries:
                writer.writerow([e.get(k, "") for k in keys])
        else:
            writer.writerow(["key", "value"])
            for k, v in _flatten(payload):
                writer.writerow([k, json.dumps(v) if isinstance(v, (dict, list)) else v])
        text = buf.getvalue()
        if args.csv == "-":
            sys.stdout.write(text)
        else:
            with open(args.csv, "w", encoding="utf-8", newline="") as fh:
                fh.write(text)
    else:
        print(json.dumps(payload, sort_keys=True))


def main(argv=None) -> int:
    try:
        argv = sys.argv[1:] if argv is None else argv
        args = build_parser(argv).parse_args(argv)
        if args.timeout < 0:
            raise ParseError(f"timeout must be a non-negative integer, got {args.timeout}")
        if args.timeout > _MAX_ALARM:
            raise ParseError(f"timeout must be at most {_MAX_ALARM} seconds, got {args.timeout}")
        with _alarm(args.timeout):
            payload, code = args.handler(args)
    except ParseError as exc:
        print(f"eps: error: {exc}", file=sys.stderr)
        return 1
    except PreconditionError as exc:
        print(f"eps: precondition violated: {exc}", file=sys.stderr)
        return 2
    except (NoFitError, TheoremViolationError) as exc:
        print(f"eps: inconclusive: {exc}", file=sys.stderr)
        return 3
    except TimeoutError as exc:
        print(f"eps: {exc}", file=sys.stderr)
        return 3
    try:
        _emit(payload, args)
        sys.stdout.flush()
    except BrokenPipeError:
        # the reader has gone (e.g. `| head`); send the flush at exit to devnull
        devnull = os.open(os.devnull, os.O_WRONLY)
        os.dup2(devnull, sys.stdout.fileno())
        os.close(devnull)
    except OSError as exc:  # e.g. --csv PATH in a missing directory
        target = args.csv if getattr(args, "csv", None) not in (None, "-") else "stdout"
        print(f"eps: error: cannot write {target}: {exc.strerror or exc}", file=sys.stderr)
        return 1
    return code


def console_main() -> None:
    sys.exit(main())


if __name__ == "__main__":  # pragma: no cover
    sys.exit(main())
