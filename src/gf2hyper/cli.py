"""Command-line surface: analyze, classify, counterexample, lattice, verify.

stdout carries data only; diagnostics go to stderr.  Exit codes are
stable: 0 success, 2 parse error, 3 invalid operator, 4 dimension
mismatch, 5 enumeration cap exceeded (the subspaces of the space, or the
nodes of the hyperinvariant lattice), 1 failed verification suite, 141
stdout closed by its reader.  `verify` writes and flushes each check's
line as the check completes.  Each command's arguments are
defined once, in `_COMMANDS`: a well-formed call is read straight from
that table and builds no parser, and the full tree of subparsers, built
from the same table, reads every other call, so help, errors and exit
codes are the full tree's either way.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import os
import sys
from dataclasses import dataclass, fields, is_dataclass
from json.encoder import encode_basestring_ascii
from typing import Callable, NamedTuple, get_args, get_origin, get_type_hints

from . import verify as verify_mod
from .classify import _lattice, classify, invariant_subspaces
from .commutant import automorphism_group_order, commutant_dimension
from .errors import (
    CapExceeded,
    DimensionMismatch,
    Gf2HyperError,
    NotNilpotent,
    NotSquare,
    ParseError,
)
from .gf2 import (
    Gf2Matrix,
    Gf2Vector,
    Subspace,
    _bit_row,
    format_subspace,
    parse_matrix,
    parse_subspace,
)
from .nilpotent import (
    NilpotentOperator,
    elementary_divisors,
    ulm_sequence,
    validate_nilpotent,
)
from .shoda import ShodaWitness, counterexample


class _BitRows(NamedTuple):
    """Packed 0/1 rows of one width, written as a list of coordinate lists."""

    rows: tuple[int, ...]
    width: int


def _members(x) -> dict:
    """The fields of a dataclass x by name, in order; matrix and basis rows packed."""
    if isinstance(x, Gf2Matrix):
        return {"n_rows": x.n_rows, "n_cols": x.n_cols, "rows": _BitRows(x.rows, x.n_cols)}
    if isinstance(x, Subspace):
        return {"ambient_dim": x.ambient_dim, "basis": _BitRows(x.rows, x.ambient_dim)}
    return {f.name: getattr(x, f.name) for f in fields(x)}


def _decimal(n: int) -> str:
    """str(n), exact also past the interpreter's limit on the digits of an
    int-to-str conversion, which is left as it is."""
    try:
        return str(n)
    except ValueError:
        from decimal import Decimal  # only for an int this long: it costs a ms to import

        return str(Decimal(n))


def _int(text: str) -> int:
    """int(text), exact also past the interpreter's limit on the digits of a
    str-to-int conversion."""
    try:
        return int(text)
    except ValueError:
        from decimal import Decimal

        return int(Decimal(text))


def _ints(sep: str, ints) -> str:
    """The decimals of ints, joined by sep."""
    try:
        return sep.join(map(str, ints))
    except ValueError:
        return sep.join(map(_decimal, ints))


def _write(obj, put: Callable[[str], object]) -> None:
    """Write json.dumps(obj, indent=2) of a JSON tree with str keys, byte for byte,
    to `put`, with a tuple as a list, a dataclass as its `_members` and a vector as
    its 0/1 coordinates.

    The text goes out in flat chunks, each byte copied once into its chunk:
    separators, keys and scalar values wait in `head` and go out with the next
    chunk, and a chunk ends at each packed row list, list of ints or tuple of
    ints, and at each closing bracket, so it holds at most one of those lists.
    Each distinct 0/1 row is written once per document: a row's text depends on
    its width and its depth, so one memo per call maps (width, indent) to the
    text of each row int, and a row met again is copied from it.  An exact int
    or str, a dict value included, is written here, an int of any length;
    bools, None, floats and int or str subclasses go to json.dumps.
    """
    memo: dict[tuple[int, str], dict[int, str]] = {}

    def write(obj, pad: str, head: str) -> None:
        kind = type(obj)
        if kind is int:
            put(head + _decimal(obj))
            return
        if kind is str:
            put(head + encode_basestring_ascii(obj))
            return
        inner = pad + "  "
        if isinstance(obj, _BitRows):
            if not obj.rows:
                put(head + "[]")
                return
            texts = memo.setdefault((obj.width, pad), {})
            cell = inner + "  "
            spec, sep = f"0{obj.width}b", "," + cell  # as _bit_row, one spec per basis
            items = [  # a row's text is never empty, so `or` reaches only new rows
                texts.get(r)
                or texts.setdefault(r, "[" + cell + sep.join(format(r, spec)[::-1]) + inner + "]")
                for r in obj.rows
            ]
            put(head + "[" + inner + ("," + inner).join(items) + pad + "]")
            return
        if isinstance(obj, dict) and obj:
            sep = "{" + inner
            for k, v in obj.items():
                head += sep + encode_basestring_ascii(k) + ": "
                sep = "," + inner
                if type(v) is int:
                    head += _decimal(v)
                elif type(v) is str:
                    head += encode_basestring_ascii(v)
                else:
                    write(v, inner, head)
                    head = ""
            put(head + pad + "}")
            return
        if isinstance(obj, (list, tuple)) and obj:
            if all(type(v) is int for v in obj):
                put(head + "[" + inner + _ints("," + inner, obj) + pad + "]")
                return
            sep, cell = "[" + inner, inner + "  "
            for v in obj:
                if type(v) is tuple and v and all(type(i) is int for i in v):
                    put(head + sep + "[" + cell + _ints("," + cell, v) + inner + "]")
                else:
                    write(v, inner, head + sep)
                head, sep = "", "," + inner
            put(pad + "]")
            return
        if isinstance(obj, Gf2Vector):
            put(head + "[" + inner + _bit_row(obj.bits, obj.dim, "," + inner) + pad + "]")
            return
        if is_dataclass(obj):
            write(_members(obj), pad, head)
            return
        put(head + json.dumps(obj))

    write(obj, "\n", "")


def _dumps(obj) -> str:
    """json.dumps(obj, indent=2), as `_write` writes it."""
    chunks: list[str] = []
    _write(obj, chunks.append)
    return "".join(chunks)


def _from_obj(kind, obj):
    """The value of type `kind` that `_dumps` wrote as obj: ParseError for a key
    too many or too few or a value of the wrong JSON type, while the constructors
    reject coordinates other than 0/1 and mismatched dimensions."""
    args = get_args(kind)
    if type(None) in args:  # X | None
        return None if obj is None else _from_obj(args[0], obj)
    if get_origin(kind) is tuple:  # tuple[X, ...]
        if not isinstance(obj, list):
            raise ParseError(f"expected a list, got {type(obj).__name__}")
        return tuple(_from_obj(args[0], v) for v in obj)
    if kind in (int, bool):
        if type(obj) is not kind:  # a bool is no int here
            raise ParseError(f"expected {kind.__name__}, got {type(obj).__name__}")
        return obj
    if kind is Gf2Vector:
        return Gf2Vector.from_coords(_from_obj(tuple[int, ...], obj))
    if kind is Gf2Matrix:
        rows = tuple[tuple[int, ...], ...]
        return _matrix_from_obj(_fields(obj, {"n_rows": int, "n_cols": int, "rows": rows}))
    if kind is Subspace:
        values = _fields(obj, {"ambient_dim": int, "basis": tuple[Gf2Vector, ...]})
        return Subspace.span(values["basis"], values["ambient_dim"])
    return kind(**_fields(obj, get_type_hints(kind)))


def _fields(obj, kinds: dict) -> dict:
    """The values of a JSON object with exactly the keys of `kinds`, decoded."""
    if not isinstance(obj, dict):
        raise ParseError(f"expected an object, got {type(obj).__name__}")
    if obj.keys() != kinds.keys():
        raise ParseError(f"expected the keys {', '.join(kinds)}, got {', '.join(obj)}")
    return {key: _from_obj(kind, obj[key]) for key, kind in kinds.items()}


def _matrix_from_obj(obj: dict) -> Gf2Matrix:
    rows = obj["rows"]
    if len(rows) != obj["n_rows"]:
        raise ParseError("row count does not match n_rows")
    if any(len(r) != obj["n_cols"] for r in rows):
        raise ParseError("row length does not match n_cols")
    if not rows:
        return Gf2Matrix.zeros(0, obj["n_cols"])
    return Gf2Matrix.from_rows(rows)


@dataclass(frozen=True)
class LatticeCensusDocument:
    invariant: int
    characteristic: int
    hyperinvariant: int
    characteristic_not_hyperinvariant: int


@dataclass(frozen=True)
class AnalysisDocument:
    """Everything cmd_analyze reports; round-trips losslessly via JSON."""

    matrix: Gf2Matrix
    nilpotency_index: int
    elementary_divisors: tuple[int, ...]
    ulm_sequence: tuple[int, ...]
    commutant_dimension: int
    automorphism_count: int
    shoda_holds: bool
    shoda_witness: ShodaWitness | None
    lattice_census: LatticeCensusDocument | None

    @classmethod
    def from_obj(cls, obj: dict) -> AnalysisDocument:
        """The document `to_json` wrote, as parsed JSON; ParseError for anything else."""
        try:
            return _from_obj(cls, obj)
        except (ValueError, DimensionMismatch) as exc:
            raise ParseError(f"malformed analysis document: {exc}") from exc

    def to_json(self) -> str:
        return _dumps(self)

    @classmethod
    def from_json(cls, text: str) -> AnalysisDocument:
        try:
            obj = json.loads(text, parse_int=_int)
        except ValueError as exc:
            raise ParseError(f"analysis document is not JSON: {exc}") from exc
        return cls.from_obj(obj)


def _read(path: str, parse):
    try:
        with open(path) as fh:
            text = fh.read()
    except (OSError, UnicodeDecodeError) as exc:
        raise ParseError(f"cannot read {path}: {exc}") from exc
    return parse(text)


def build_analysis(f: NilpotentOperator, census: bool = False) -> AnalysisDocument:
    ulm = ulm_sequence(f)
    found = counterexample(f)
    census_doc = None
    if census:
        char = len(_lattice(f, "chinv")[0])  # refused here, before any subspace is lifted
        invariant = sum(1 for _ in invariant_subspaces(f))  # counted as lifted; none is kept
        hyper = len(_lattice(f, "hinv")[0])
        census_doc = LatticeCensusDocument(invariant, char, hyper, char - hyper)
    return AnalysisDocument(
        matrix=f.mat,
        nilpotency_index=f.index,
        elementary_divisors=elementary_divisors(ulm),
        ulm_sequence=ulm.d,
        commutant_dimension=commutant_dimension(f),
        automorphism_count=automorphism_group_order(f),
        shoda_holds=found is not None,
        shoda_witness=found[1] if found else None,
        lattice_census=census_doc,
    )


def _cmd_analyze(args: argparse.Namespace) -> int:
    f = validate_nilpotent(_read(args.matrix, parse_matrix))
    doc = build_analysis(f, census=args.census)
    if args.json:
        print(doc.to_json())
        return 0
    print(f"operator: {f.dim} x {f.dim} nilpotent, index {doc.nilpotency_index}")
    print("elementary divisors:", " ".join(map(str, doc.elementary_divisors)))
    print("ulm sequence:", " ".join(map(str, doc.ulm_sequence)))
    print("commutant dimension:", doc.commutant_dimension)
    print(f"automorphisms: {_decimal(doc.automorphism_count)} (group-order formula)")
    if doc.shoda_witness is None:
        print("characteristic non-hyperinvariant subspaces: NONE")
    else:
        w = doc.shoda_witness
        print(
            "characteristic non-hyperinvariant subspaces: EXIST "
            f"(block sizes {w.a_rho} < {w.a_tau})"
        )
        print("  example basis:")
        for v in w.y_span.basis:
            print("   ", v.to_text())
    if doc.lattice_census is not None:
        cen = doc.lattice_census
        print(
            "census: invariant={} characteristic={} hyperinvariant={}".format(
                cen.invariant, cen.characteristic, cen.hyperinvariant
            )
        )
    return 0


def _cmd_classify(args: argparse.Namespace) -> int:
    f = validate_nilpotent(_read(args.matrix, parse_matrix))
    s = _read(args.subspace, parse_subspace)
    if s.ambient_dim != f.dim:
        raise DimensionMismatch(
            f"subspace lives in GF(2)^{s.ambient_dim}, operator in GF(2)^{f.dim}"
        )
    report = classify(f, s)
    if args.json:
        obj = {
            "subspace": report.subspace,
            "invariant": report.invariant,
            "marked": report.marked,
            "characteristic": report.characteristic,
            # every verdict is exact; the key stays as part of the JSON contract
            "characteristic_complete": True,
            "hyperinvariant": report.hyperinvariant,
        }
        for key in ("invariance_witness", "characteristic_witness", "hyperinvariance_witness"):
            obj[key] = getattr(report, key)
        print(_dumps(obj))
        return 0
    print(
        "invariant={} marked={} characteristic={} hyperinvariant={}".format(
            str(report.invariant).lower(),
            str(report.marked).lower(),
            str(report.characteristic).lower(),
            str(report.hyperinvariant).lower(),
        )
    )
    for label, witness in (
        ("invariance", report.invariance_witness),
        ("characteristic", report.characteristic_witness),
        ("hyperinvariance", report.hyperinvariance_witness),
    ):
        if witness is None:
            continue
        moved = witness.matrix.apply(witness.vector)
        print(f"{label} witness: maps [{witness.vector.to_text()}] to [{moved.to_text()}]")
        for r in witness.matrix.rows:
            print("   ", _bit_row(r, witness.matrix.n_cols, " "))
    return 0


def _cmd_counterexample(args: argparse.Namespace) -> int:
    f = validate_nilpotent(_read(args.matrix, parse_matrix))
    found = counterexample(f)
    if args.json:
        print(_dumps({"counterexample": found[1] if found else None}))
        return 0
    if found is None:
        print("NONE")
        return 0
    y_span, witness = found
    print(format_subspace(y_span))
    print(f"# block sizes: r={witness.a_rho} s={witness.a_tau}")
    print(f"# linking vector: {witness.z.to_text()}")
    return 0


def _node_digest(s: Subspace) -> str:
    payload = f"{s.ambient_dim}:{s.rows}".encode()
    return hashlib.sha1(payload).hexdigest()[:8]


def _cmd_lattice(args: argparse.Namespace) -> int:
    f = validate_nilpotent(_read(args.matrix, parse_matrix))
    nodes, edges = _lattice(f, args.which)
    if args.dot:
        print("digraph lattice {")
        print("  rankdir=BT;")
        ids = []
        for s in nodes:
            digest = _node_digest(s)
            ids.append(f"d{s.dim}_{digest}")
            print(f'  {ids[-1]} [label="dim {s.dim}\\n{digest}"];')
        for i, j in edges:
            print(f"  {ids[i]} -> {ids[j]};")
        print("}")
        return 0
    if args.json:
        node_objs = [
            {
                "id": _node_digest(s),
                "dim": s.dim,
                "ambient_dim": s.ambient_dim,
                "basis": _BitRows(s.rows, s.ambient_dim),
            }
            for s in nodes
        ]
        # streamed: stdout holds at most one node's text at a time
        _write({"which": args.which, "nodes": node_objs, "edges": edges}, sys.stdout.write)
        sys.stdout.write("\n")
        return 0
    print(f"{len(nodes)} nodes, {len(edges)} covering edges")
    for s in nodes:
        print(f"dim {s.dim}  [{_node_digest(s)}]")
        for r in s.rows:
            print("   ", _bit_row(r, s.ambient_dim, " "))
    return 0


def _cmd_verify(args: argparse.Namespace) -> int:
    if args.suite == "paper" and args.max_dim is not None:
        raise ParseError("--max-dim applies only to the census and oracle suites")
    checks = verify_mod.run_suite(args.suite, args.max_dim)
    count = failures = 0
    for count, (name, held, detail) in enumerate(checks, 1):
        print("ok" if held else "FAIL", name + (f"  {detail}" if detail else ""), flush=True)
        failures += not held
    if not count:
        raise ParseError(f"the {args.suite} suite has no check up to --max-dim {args.max_dim}")
    print(f"{count - failures}/{count} checks passed")
    return 1 if failures else 0


def _positive_int(text: str) -> int:
    try:
        value = int(text)
    except ValueError:
        raise argparse.ArgumentTypeError(f"must be an integer, got {text!r}") from None
    if value < 1:
        raise argparse.ArgumentTypeError(f"must be at least 1, got {value}")
    return value


class _Option(NamedTuple):
    """A valued option: its value is converted by `type`, then checked
    against `choices`."""

    flag: str
    choices: tuple[str, ...] | None = None
    type: Callable[[str], object] | None = None
    default: object = None
    required: bool = False


class _Command(NamedTuple):
    """One command's help line, handler and arguments.  Positionals and
    store-true flags are (name, help) pairs; at most one of the
    `exclusive` store-true flags may be given."""

    help: str
    handler: Callable[[argparse.Namespace], int]
    positionals: tuple[tuple[str, str | None], ...] = ()
    flags: tuple[tuple[str, str | None], ...] = ()
    options: tuple[_Option, ...] = ()
    exclusive: tuple[str, ...] = ()


# every command's arguments, in the order `gf2hyper -h` lists the commands
_COMMANDS = {
    "analyze": _Command(
        "structure report for an operator",
        _cmd_analyze,
        positionals=(("matrix", "matrix file: 'n_rows n_cols' then 0/1 rows"),),
        flags=(("--json", None), ("--census", "count subspace classes")),
    ),
    "classify": _Command(
        "four-predicate report for a subspace",
        _cmd_classify,
        positionals=(("matrix", None), ("subspace", "basis rows in the matrix file format")),
        flags=(("--json", None),),
    ),
    "counterexample": _Command(
        "characteristic non-hyperinvariant subspace or NONE",
        _cmd_counterexample,
        positionals=(("matrix", None),),
        flags=(("--json", None),),
    ),
    "lattice": _Command(
        "subspace lattice with covering edges",
        _cmd_lattice,
        positionals=(("matrix", None),),
        options=(_Option("--which", choices=("hinv", "chinv", "inv"), default="hinv"),),
        exclusive=("--dot", "--json"),
    ),
    "verify": _Command(
        "run a verification suite",
        _cmd_verify,
        options=(
            _Option("--suite", choices=("paper", "census", "oracle"), required=True),
            _Option("--max-dim", type=_positive_int),
        ),
    ),
}


def _dest(flag: str) -> str:
    """The namespace attribute argparse gives an option."""
    return flag.lstrip("-").replace("-", "_")


def _add_arguments(p: argparse.ArgumentParser, name: str) -> None:
    """The arguments and defaults of command `name`, from its table entry,
    on its subparser in the full tree; the `command` default is the value
    the full tree's subparsers action stores."""
    command = _COMMANDS[name]
    p.set_defaults(command=name, handler=command.handler)
    for dest, help_text in command.positionals:
        p.add_argument(dest, help=help_text)
    for o in command.options:
        p.add_argument(
            o.flag, choices=o.choices, type=o.type, default=o.default, required=o.required
        )
    for flag, help_text in command.flags:
        p.add_argument(flag, action="store_true", help=help_text)
    if command.exclusive:
        group = p.add_mutually_exclusive_group()
        for flag in command.exclusive:
            group.add_argument(flag, action="store_true")


def build_parser() -> argparse.ArgumentParser:
    """The full gf2hyper parser: one subparser per command."""
    parser = argparse.ArgumentParser(
        prog="gf2hyper",
        description=(
            "Exact analysis of nilpotent operators over GF(2): invariant, "
            "marked, characteristic and hyperinvariant subspaces."
        ),
    )
    sub = parser.add_subparsers(dest="command", required=True)
    for name, command in _COMMANDS.items():
        _add_arguments(sub.add_parser(name, help=command.help), name)
    return parser


def _read_table(argv: list[str]) -> argparse.Namespace | None:
    """argv as the full tree reads it when it is well formed, else None.

    Well formed: a command name, then its positionals in any order with
    its options, each option named exactly and each value starting with
    no '-' and passing the option's type and choices; every required
    option given, and at most one exclusive flag.
    """
    command = _COMMANDS.get(argv[0]) if argv else None
    if command is None:
        return None
    flags = {flag for flag, _ in command.flags} | set(command.exclusive)
    options = {o.flag: o for o in command.options}
    given: dict[str, object] = {}
    positionals = []
    tokens = iter(argv[1:])
    for token in tokens:
        if not token.startswith("-"):
            positionals.append(token)
        elif token in flags:
            given[token] = True
        elif token in options:
            o, value = options[token], next(tokens, None)
            if value is None or value.startswith("-"):
                return None
            # argparse checks every value given, the last one wins
            try:
                value = o.type(value) if o.type else value
            except (argparse.ArgumentTypeError, ValueError):
                return None
            if o.choices is not None and value not in o.choices:
                return None
            given[token] = value
        else:
            return None
    if (
        len(positionals) != len(command.positionals)
        or sum(flag in given for flag in command.exclusive) > 1
        or any(o.required and o.flag not in given for o in command.options)
    ):
        return None
    values = {"command": argv[0], "handler": command.handler}
    values.update((dest, value) for (dest, _), value in zip(command.positionals, positionals))
    values.update((_dest(flag), given.get(flag, False)) for flag in flags)
    values.update((_dest(o.flag), given.get(o.flag, o.default)) for o in command.options)
    return argparse.Namespace(**values)


def _parse_args(argv: list[str]) -> argparse.Namespace:
    """The arguments as `build_parser().parse_args(argv)` reads them.

    A well-formed argv is read from `_COMMANDS` alone and builds no
    parser.  Anything else, such as help, an abbreviated or unknown
    option, '--', a missing or rejected value, a wrong number of
    positionals or two exclusive flags, goes to the full tree, which
    accepts it or reports it with its own help, errors and exit codes.
    """
    args = _read_table(argv)
    return build_parser().parse_args(argv) if args is None else args


# the exit code of each domain error; the first matching entry wins
_EXIT_CODES = (
    (ParseError, 2),
    ((NotSquare, NotNilpotent), 3),
    (DimensionMismatch, 4),
    (CapExceeded, 5),
    (Gf2HyperError, 1),
)


def main(argv: list[str] | None = None) -> int:
    if argv is None:
        argv = sys.argv[1:]
    args = _parse_args(argv)
    try:
        return args.handler(args)
    except Gf2HyperError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return next(code for types, code in _EXIT_CODES if isinstance(exc, types))
    except BrokenPipeError:
        # the reader closed stdout: point it at devnull, so the interpreter's
        # last flush cannot raise again, and exit as a shell reports SIGPIPE
        os.dup2(os.open(os.devnull, os.O_WRONLY), sys.stdout.fileno())
        return 141


if __name__ == "__main__":
    sys.exit(main())
