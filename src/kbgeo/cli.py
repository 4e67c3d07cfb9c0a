"""Command line surface: model files, queries, and equivalence reports.

Model files are line oriented with '#' comments:

    carrier: 0 1
    flag with_equality on
    op neg 1
    rel P 1
    op neg: 0 -> 1
    op neg: 1 -> 0
    rel P: 1

Subcommands: eval, closure, lattice, duality, functor, equiv.  Exit codes:
0 pass/witnessed, 1 failure/inequivalent, 2 unknown, 64 usage error, 65
bad input data or an exceeded bound, memory included.  The KBGEO_MAX_POINTS
environment variable sets the point-space bound, and --max-points overrides
it.  Each command builds one context per model from its flags: eval, closure
and lattice a `Geometry`, the others a `KnowledgeBase`, resolved through
`categories.knowledge_base`.  A term or formula nested deeper than
`core.MAX_NESTING` levels is bad input data.
"""

from __future__ import annotations

import argparse
import itertools
import os
import sys
from typing import Optional

from .core import (
    DEFAULT_MAX_POINTS,
    BoundError,
    MismatchError,
    Model,
    ModelError,
    ParseError,
    Signature,
    SignatureError,
    VarSet,
)
from .formulas import FormulaContext, formula_to_text, parse_formula
from .lattice import (
    MAX_MEMBERS,
    DefinabilityError,
    build_filter_lattice,
    closure,
    generate_definable_algebra,
    lattice_profile,
)
from .semantics import Geometry, PointSet, satisfying_points
from .categories import Report, knowledge_base, knowledge_bases
from .equivalence import EquivReport, FormulaAutomorphism, check_isomorphic, decide_equivalence

EXIT_PASS = 0
EXIT_FAIL = 1
EXIT_UNKNOWN = 2
EXIT_USAGE = 64
EXIT_DATA = 65


class UsageError(Exception):
    """Bad command line; exits with code 64."""


class DataError(Exception):
    """Unreadable or invalid input data; exits with code 65."""


# --- model files ---


def load_model_text(text: str, origin: str = "<model>") -> Model:
    """Parse and validate the line-oriented model format."""
    carrier: Optional[tuple[str, ...]] = None
    with_equality = True
    ops: list[tuple[str, int]] = []
    rels: list[tuple[str, int]] = []
    op_rows: dict[str, dict[tuple, str]] = {}
    rel_rows: dict[str, list[tuple]] = {}

    def fail(lineno: int, message: str):
        raise DataError(f"{origin}:{lineno}: {message}")

    for lineno, raw in enumerate(text.splitlines(), 1):
        line = raw.split("#", 1)[0].strip()
        if not line:
            continue
        if line.startswith("carrier:"):
            if carrier is not None:
                fail(lineno, "carrier declared twice")
            elems = tuple(line[len("carrier:"):].split())
            if not elems:
                fail(lineno, "carrier must list at least one element")
            carrier = elems
            continue
        if line.startswith("flag "):
            parts = line.split()
            if len(parts) != 3 or parts[1] != "with_equality" or parts[2] not in ("on", "off"):
                fail(lineno, f"unrecognized flag line {line!r}")
            with_equality = parts[2] == "on"
            continue
        if line.startswith(("op ", "rel ")):
            head, sep, rest = line.partition(":")
            kind_name = head.split()
            if not sep:
                if len(kind_name) != 3:
                    fail(lineno, f"expected '{kind_name[0]} NAME ARITY', got {line!r}")
                kind, name, arity_text = kind_name
                try:
                    arity = int(arity_text)
                except ValueError:
                    fail(lineno, f"arity {arity_text!r} is not an integer")
                if any(name == n for n, _ in ops) or any(name == n for n, _ in rels):
                    fail(lineno, f"symbol {name} declared twice")
                (ops if kind == "op" else rels).append((name, arity))
                continue
            if len(kind_name) != 2:
                fail(lineno, f"expected '{kind_name[0]} NAME: row', got {line!r}")
            kind, name = kind_name
            if kind == "op":
                left, arrow, right = rest.partition("->")
                if not arrow or not right.strip():
                    fail(lineno, "operation row needs 'args -> value'")
                args = tuple(t.strip() for t in left.split(",") if t.strip())
                row = op_rows.setdefault(name, {})
                if args in row:
                    fail(lineno, f"op {name} row {args} given twice")
                row[args] = right.strip()
            else:
                args = tuple(t.strip() for t in rest.split(",") if t.strip())
                if not args:
                    fail(lineno, "relation row needs at least one element")
                rel_rows.setdefault(name, []).append(args)
            continue
        fail(lineno, f"unrecognized line {line!r}")

    if carrier is None:
        raise DataError(f"{origin}: no carrier declared")
    try:
        sig = Signature(tuple(ops), tuple(rels), with_equality)
        return Model(sig, carrier, op_rows, rel_rows)
    except (SignatureError, ModelError) as exc:
        raise DataError(f"{origin}: {exc}") from None


def load_model(path: str) -> Model:
    try:
        with open(path, encoding="utf-8") as handle:
            text = handle.read()
    except OSError as exc:
        raise DataError(f"cannot read {path}: {exc.strerror or exc}") from None
    return load_model_text(text, origin=path)


def print_model(model: Model) -> str:
    """Canonical text form, which loads back to an equal model; a ModelError
    names the first element that is not a non-empty str free of whitespace,
    '#', ',' and '->', as the format reads elements."""
    for e in model.carrier:
        if not (isinstance(e, str) and e.split() == [e]
                and not any(mark in e for mark in ("#", ",", "->"))):
            raise ModelError(f"cannot write carrier element {e!r} in the model format")
    lines = ["carrier: " + " ".join(model.carrier)]
    lines.append(f"flag with_equality {'on' if model.sig.with_equality else 'off'}")
    for name, arity in model.sig.ops:
        lines.append(f"op {name} {arity}")
    for name, arity in model.sig.rels:
        lines.append(f"rel {name} {arity}")
    for name, arity in model.sig.ops:
        table = model.op_tables[name]
        for key in itertools.product(model.carrier, repeat=arity):
            lines.append(f"op {name}: {','.join(key)} -> {table[key]}")
    index = model.element_index
    for name, _ in model.sig.rels:
        for row in sorted(model.rel_tables[name], key=lambda r: tuple(index(e) for e in r)):
            lines.append(f"rel {name}: {','.join(row)}")
    return "\n".join(lines) + "\n"


# --- small argument parsers ---


def parse_var_list(spec: str) -> VarSet:
    names = tuple(v.strip() for v in spec.split(",") if v.strip())
    if not names:
        raise UsageError("--vars needs a comma-separated list of variable names")
    try:
        return VarSet(names)
    except SignatureError as exc:
        raise UsageError(str(exc)) from None


def parse_point_rows(spec: str) -> list[tuple[str, ...]]:
    rows = []
    for chunk in spec.split(";"):
        chunk = chunk.strip()
        if not chunk:
            continue
        rows.append(tuple(v.strip() for v in chunk.split(",")))
    return rows


def parse_phi_spec(spec: str, sig: Signature, n_max: int) -> FormulaAutomorphism:
    """One automorphism: 'identity', 'swaprel P Q [R S ...]', or
    'renamevars x1:x2,...' applied at every size the named variables fit."""
    tokens = spec.split()
    if tokens == ["identity"]:
        return FormulaAutomorphism.identity(sig)
    if tokens and tokens[0] == "swaprel":
        names = tokens[1:]
        if not names or len(names) % 2:
            raise UsageError("swaprel needs pairs of relation names")
        if len(set(names)) != len(names):
            raise UsageError("swaprel names must be distinct")
        mapping = {}
        for a, b in zip(names[::2], names[1::2]):
            mapping[a] = b
            mapping[b] = a
        try:
            return FormulaAutomorphism.relation_permutation(sig, mapping)
        except SignatureError as exc:
            raise UsageError(str(exc)) from None
    if tokens and tokens[0] == "renamevars":
        body = "".join(tokens[1:])
        mapping = {}
        for entry in body.split(","):
            entry = entry.strip()
            if not entry:
                continue
            name, sep, image = entry.partition(":")
            if not sep or not name or not image:
                raise UsageError(f"renamevars entry {entry!r} is not 'var:var'")
            mapping[name] = image
        if not mapping or sorted(mapping) != sorted(mapping.values()):
            raise UsageError("renamevars must describe a variable permutation")
        renamings = {}
        for n in range(1, n_max + 1):
            names = set(f"x{i}" for i in range(1, n + 1))
            if set(mapping) <= names:
                renamings[n] = tuple(mapping.get(f"x{i}", f"x{i}")
                                     for i in range(1, n + 1))
        if not renamings:
            raise UsageError(f"renamed variables do not fit within x1..x{n_max}")
        try:
            return FormulaAutomorphism.variable_renaming(sig, renamings)
        except SignatureError as exc:
            raise UsageError(str(exc)) from None
    raise UsageError(f"unrecognized phi spec {spec!r}")


# --- report rendering ---


def write_report(report, fmt: str) -> str:
    """Render a verification report or an equivalence report in the "text"
    or the "machine" format.  The machine format is flat 'key: value' lines
    with stable names, numbering failures and notes from 1."""
    text = fmt == "text"
    if isinstance(report, Report):
        failures = report.failures
        lines = [f"report: {report.title}", *(f"{k}: {v}" for k, v in report.entries),
                 f"checked: {report.checked}",
                 f"failures: {len(failures) or ('none' if text else 0)}"]
        lines += (f"failure[{i}]: {failure}" if text else f"failure.{i + 1}: {failure}"
                  for i, failure in enumerate(failures))
        return "\n".join(lines)
    if isinstance(report, EquivReport):
        lines = [f"verdict: {report.verdict}", f"mode: {report.mode}"]
        if not text:
            lines += (f"bounds.{k}: {v}" for k, v in report.bounds)
        elif report.bounds:
            lines.append("bounds: " + " ".join(f"{k}={v}" for k, v in report.bounds))
        for name, section in (("witness", report.witness), ("refutation", report.refutation)):
            if section is None:
                continue
            if text:
                lines.append(f"{name}:")
            lines += (f"  {k}: {v}" if text else f"{name}.{k}: {v}" for k, v in section)
        lines += (f"note: {note}" if text else f"note.{i}: {note}"
                  for i, note in enumerate(report.notes, 1))
        return "\n".join(lines)
    raise TypeError(f"not a report: {report!r}")


# --- subcommands ---


class _Parser(argparse.ArgumentParser):
    def error(self, message):
        raise UsageError(message)


def build_parser() -> _Parser:
    parser = _Parser(prog="kbgeo",
                     description="definable point geometry and knowledge-base "
                                 "equivalence over finite models")
    sub = parser.add_subparsers(dest="command", required=True)

    def add_common(p):
        p.add_argument("--format", choices=("text", "machine"), default="text",
                       help="output format (default text)")
        p.add_argument("--max-points", type=int, default=None,
                       help="point-space enumeration bound")
        p.add_argument("--max-term-depth", type=int, default=None,
                       help="cap term closure depth (marks results partial)")

    p = sub.add_parser("eval", help="points satisfying a formula")
    p.add_argument("model")
    p.add_argument("--vars", required=True, help="comma-separated variable names")
    p.add_argument("--formula", required=True)
    add_common(p)

    p = sub.add_parser("closure", help="least definable superset of a point set")
    p.add_argument("model")
    p.add_argument("--vars", required=True)
    p.add_argument("--points", required=True,
                   help="semicolon-separated rows of comma-separated values; empty for {}")
    add_common(p)

    p = sub.add_parser("lattice", help="profile of the filter lattice")
    p.add_argument("model")
    p.add_argument("--vars", required=True)
    p.add_argument("--dump", action="store_true",
                   help=f"list every definable set; past {MAX_MEMBERS} of them, exit 65")
    add_common(p)

    p = sub.add_parser("duality", help="verify the description/content duality")
    p.add_argument("model")
    p.add_argument("--max-vars", type=int, default=2)
    p.add_argument("--depth", type=int, default=1)
    add_common(p)

    p = sub.add_parser("functor", help="verify pushforward identity and composition laws")
    p.add_argument("model")
    p.add_argument("--max-vars", type=int, default=2)
    p.add_argument("--depth", type=int, default=2)
    add_common(p)

    p = sub.add_parser("equiv", help="decide a knowledge-base equivalence")
    p.add_argument("model1")
    p.add_argument("model2")
    p.add_argument("--mode", choices=("iso", "lae", "info"), default="info")
    p.add_argument("--phi", default=None,
                   help="pin one automorphism: identity | swaprel P Q ... | renamevars x1:x2,...")
    p.add_argument("--max-vars", type=int, default=2)
    p.add_argument("--depth", type=int, default=2)
    add_common(p)

    return parser


def _env_max_points() -> int:
    """The point bound KBGEO_MAX_POINTS sets, or the default when unset."""
    raw = os.environ.get("KBGEO_MAX_POINTS")
    if raw is None:
        return DEFAULT_MAX_POINTS
    try:
        bound = int(raw)
        if bound < 1:
            raise ValueError
    except ValueError:
        raise DataError(f"KBGEO_MAX_POINTS must be a positive integer, got {raw!r}") from None
    return bound


def _check_bounds(args) -> None:
    """Refuse the first bound flag, in this order, below its least value."""
    for name, least in (("max_points", 1), ("max_term_depth", 0), ("max_vars", 1), ("depth", 0)):
        value = getattr(args, name, None)
        if value is not None and value < least:
            flag = "--" + name.replace("_", "-")
            raise UsageError(f"{flag} must be {'positive' if least else 'nonnegative'}")


def _bounds(args) -> tuple:
    """The knowledge-base bounds the flags set: n_max, depth, term-depth cap
    and point bound."""
    return args.max_vars, args.depth, args.max_term_depth, args.max_points


def _run_eval(args) -> tuple[int, str]:
    geometry = Geometry(load_model(args.model), args.max_points)
    varset = parse_var_list(args.vars)
    f = parse_formula(args.formula, FormulaContext(geometry.model.sig, varset))
    points = satisfying_points(f, geometry.model, varset, geometry=geometry)
    lines = [
        f"formula: {formula_to_text(f)}",
        f"vars: {', '.join(varset.names)}",
        f"count: {points.cardinality}",
        f"points: {points}",
    ]
    return EXIT_PASS, "\n".join(lines)


def _run_closure(args) -> tuple[int, str]:
    geometry = Geometry(load_model(args.model), args.max_points)
    varset = parse_var_list(args.vars)
    pset = PointSet.of_rows(geometry.space(varset), parse_point_rows(args.points))
    algebra = generate_definable_algebra(geometry.model, varset, args.max_term_depth,
                                         geometry=geometry)
    closed = closure(pset, algebra)
    lines = [
        f"vars: {', '.join(varset.names)}",
        f"input: {pset}",
        f"closure: {closed.points}",
        f"cardinality: {closed.points.cardinality}",
        f"witness: {formula_to_text(closed.witness)}",
        f"saturated: {'yes' if algebra.saturated else 'no'}",
    ]
    return EXIT_PASS, "\n".join(lines)


def _run_lattice(args) -> tuple[int, str]:
    geometry = Geometry(load_model(args.model), args.max_points)
    varset = parse_var_list(args.vars)
    lattice = build_filter_lattice(geometry.model, varset, args.max_term_depth,
                                   geometry=geometry)
    size, height, degrees = lattice_profile(lattice)
    lines = [
        f"vars: {', '.join(varset.names)}",
        f"size: {size}",
        f"height: {height}",
        f"degrees: {','.join(str(d) for d in degrees)}",
        f"saturated: {'yes' if lattice.saturated else 'no'}",
    ]
    if args.dump:
        lines.append("members:")
        lines.extend(lattice.algebra.dump_lines())
    return EXIT_PASS, "\n".join(lines)


def _run_duality(args) -> tuple[int, str]:
    report = knowledge_base(load_model(args.model), *_bounds(args)).check_duality()
    return (EXIT_PASS if report.passed else EXIT_FAIL), write_report(report, args.format)


def _run_functor(args) -> tuple[int, str]:
    report = knowledge_base(load_model(args.model), *_bounds(args)).verify_push_functoriality()
    return (EXIT_PASS if report.passed else EXIT_FAIL), write_report(report, args.format)


def _run_equiv(args) -> tuple[int, str]:
    model1, model2 = load_model(args.model1), load_model(args.model2)
    kb1, kb2 = knowledge_bases(model1, model2, *_bounds(args))
    if args.mode == "iso":
        if args.phi is not None:
            raise UsageError("--phi applies to modes lae and info only")
        report = check_isomorphic(kb1.model, kb2.model)
        return report.exit_code, write_report(report, args.format)
    phis = None
    if args.phi is not None:
        phis = [parse_phi_spec(args.phi, kb1.model.sig, kb1.n_max)]
    mode = "automorphic" if args.mode == "lae" else "informational"
    report = decide_equivalence(kb1, kb2, phis, mode=mode)
    return report.exit_code, write_report(report, args.format)


_RUNNERS = {
    "eval": _run_eval,
    "closure": _run_closure,
    "lattice": _run_lattice,
    "duality": _run_duality,
    "functor": _run_functor,
    "equiv": _run_equiv,
}


def run_command(argv) -> tuple[int, str]:
    """Run one subcommand; returns (exit code, output text).  The point bound
    is KBGEO_MAX_POINTS when set, read once the arguments parse, and
    `--max-points` overrides it."""
    try:
        args = build_parser().parse_args(argv)
        _check_bounds(args)
        max_points = _env_max_points()
        if args.max_points is None:
            args.max_points = max_points
        return _RUNNERS[args.command](args)
    except UsageError as exc:
        return EXIT_USAGE, f"usage error: {exc}"
    except (DataError, DefinabilityError, BoundError, MismatchError, ParseError,
            SignatureError) as exc:
        return EXIT_DATA, f"error: {exc}"
    except MemoryError:
        return EXIT_DATA, "error: out of memory within the given bounds"


def main(argv=None) -> int:
    argv = sys.argv[1:] if argv is None else argv
    try:
        code, text = run_command(argv)
    except SystemExit as exc:  # argparse --help
        return int(exc.code or 0)
    stream = sys.stderr if code >= EXIT_USAGE else sys.stdout
    try:
        print(text, file=stream, flush=True)
    except BrokenPipeError:  # the reader left; devnull takes the exit flush
        os.dup2(os.open(os.devnull, os.O_WRONLY), stream.fileno())
    return code


if __name__ == "__main__":
    sys.exit(main())
