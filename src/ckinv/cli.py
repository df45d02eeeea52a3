"""Command-line interface.

Subcommands: validate, invariants, compare, exactseq, realize, gen,
selftest.  Exit codes: 0 success, 1 usage error, 2 invalid matrix input,
3 internal verification failure.

Matrix files are either plain text -- optional '#' comment lines, then N,
then N rows of N space-separated entries -- or JSON {"matrix": [[...]]}.
"""

from __future__ import annotations

import argparse
import re
import sys

from . import ck, realize
from .ck import MatrixValidationError, VerificationError

EXIT_OK = 0
EXIT_USAGE = 1
EXIT_INVALID = 2
EXIT_VERIFY = 3


class MatrixParseError(ValueError):
    """Malformed matrix file; the message carries the position."""


# -?[0-9]+ with at most 19 significant digits, so that int() of a token
# stays bounded; the matrix formats leave the values to ck.validate
_INTEGER = re.compile(r"-?0*[0-9]{1,19}")
_DECIMAL = re.compile(r"-?([0-9]+\.?[0-9]*|\.[0-9]+)([eE]-?[0-9]+)?")
# ck.MAX_SIDE = 1000 rows of 1000 tokens of a sign and 19 digits, each with
# a separator: 2.1e7 characters, under 2**25 with room for comments.
_MAX_FILE_CHARS = 1 << 25


def _int_argument(token: str) -> int:
    """A command-line integer: ``-?[0-9]+``, at most 19 significant digits."""
    if not _INTEGER.fullmatch(token):
        raise argparse.ArgumentTypeError(f"not an integer of at most 19 "
                                         f"significant digits: {token[:40]!r}")
    return int(token)


def _token_int(token: str, lineno: int, what: str) -> int:
    """One token of the text format, by the rule of :func:`_int_argument`."""
    try:
        return _int_argument(token)
    except argparse.ArgumentTypeError as e:
        raise MatrixParseError(f"line {lineno}: {what} is {e}") from None


def _decimal_argument(token: str) -> float:
    """A command-line decimal: ASCII digits, one point at most, and an
    optional exponent in the ``-?[0-9]+`` grammar."""
    if not _DECIMAL.fullmatch(token):
        raise argparse.ArgumentTypeError(f"not a decimal: {token[:40]!r}")
    return float(token)


def _int_list_argument(text: str) -> tuple[int, ...]:
    """Comma-separated integers, each in the ``-?[0-9]+`` grammar."""
    return tuple(map(_int_argument, text.split(","))) if text else ()


def parse_matrix_text(text: str) -> list[list[int]]:
    """Parse the plain-text matrix format into rows of ints.

    Every token must match ``-?[0-9]+`` with at most 19 significant
    digits; :func:`ckinv.ck.validate` judges the values.
    """
    rows = []
    n = None
    for lineno, raw in enumerate(text.splitlines(), start=1):
        line = raw.strip()
        if not line or line.startswith("#"):
            continue
        tokens = line.split()
        if n is None:
            if len(tokens) != 1:
                raise MatrixParseError(
                    f"line {lineno}: expected the size N alone, "
                    f"got {len(tokens)} tokens")
            n = _token_int(tokens[0], lineno, "size")
            if n < 0:
                raise MatrixParseError(f"line {lineno}: size must be >= 0")
            continue
        if len(rows) == n:
            raise MatrixParseError(
                f"line {lineno}: more than {n} matrix rows")
        if len(tokens) != n:
            raise MatrixParseError(
                f"line {lineno}: expected {n} entries, got {len(tokens)}")
        rows.append([_token_int(t, lineno, "entry") for t in tokens])
    if n is None:
        raise MatrixParseError("empty input: no size line found")
    if len(rows) != n:
        raise MatrixParseError(f"expected {n} rows, got {len(rows)}")
    return rows


def parse_matrix_json(text: str):
    """The rows of a JSON document {"matrix": [[...]]}, as parsed:
    :func:`ckinv.ck.validate` judges their shape and entries."""
    import json  # only here and in render_json: most commands print text
    try:
        doc = json.loads(text)
    except json.JSONDecodeError as e:
        raise MatrixParseError(f"invalid JSON at line {e.lineno}, "
                               f"column {e.colno}: {e.msg}")
    except (ValueError, RecursionError):
        # a number past the interpreter's digit limit, or nesting too deep
        raise MatrixParseError("JSON document too deep or a number too long")
    if not isinstance(doc, dict) or "matrix" not in doc:
        raise MatrixParseError('JSON document must be {"matrix": [[...]]}')
    return doc["matrix"]


def load_matrix(path: str):
    """The rows of a matrix file, by the format its first character names;
    one past ``_MAX_FILE_CHARS`` characters is refused unread."""
    try:
        with open(path, "r", encoding="utf-8") as fp:
            text = fp.read(_MAX_FILE_CHARS + 1)
    except OSError as e:
        raise MatrixParseError(f"cannot read {path}: {e.strerror}")
    except UnicodeDecodeError:
        raise MatrixParseError(f"{path} is not a text or JSON matrix file")
    if len(text) > _MAX_FILE_CHARS:
        raise MatrixParseError(
            f"{path} holds more than {_MAX_FILE_CHARS} characters")
    if text.lstrip().startswith("{"):
        return parse_matrix_json(text)
    return parse_matrix_text(text)


def format_matrix_text(m, comment: str | None = None) -> str:
    """The plain-text format of a square matrix, given as rows or an array."""
    lines = []
    if comment:
        lines.append(f"# {comment}")
    lines.append(str(len(m)))
    lines.extend(" ".join(str(int(x)) for x in row) for row in m)
    return "\n".join(lines) + "\n"


def _write_out(text: str, out: str | None) -> None:
    if out:
        try:
            with open(out, "w", encoding="utf-8") as fp:
                fp.write(text)
        except OSError as e:
            raise ValueError(f"cannot write {out}: {e.strerror}") from None
    else:
        sys.stdout.write(text)


def render_json(obj) -> str:
    """Canonical JSON rendering: fixed key order, no floats, one newline."""
    import json
    return json.dumps(obj, indent=2) + "\n"


def render_report_text(rep: ck.CKReport) -> str:
    lines = [f"n: {rep.n}"]
    lines.extend(f"{name}: {getattr(rep, f)}" for name, f in rep._GROUPS)
    order = rep.iota_one_order
    lines.append(f"iota_one_order: {order}"
                 + (" (infinite)" if order == 0 else ""))
    return "\n".join(lines) + "\n"


def _load_valid(path: str) -> ck.ZeroOneMatrix:
    return ck.validate(load_matrix(path))


def cmd_validate(args) -> int:
    try:
        _load_valid(args.matrix)
    except (MatrixParseError, MatrixValidationError) as e:
        print(f"rejected: {e}")
        return EXIT_INVALID
    print("valid")
    return EXIT_OK


def cmd_invariants(args) -> int:
    rep = ck.invariants(_load_valid(args.matrix))
    sys.stdout.write(render_json(rep.to_json()) if args.json
                     else render_report_text(rep))
    return EXIT_OK


def cmd_compare(args) -> int:
    a = _load_valid(args.matrix_a)
    b = _load_valid(args.matrix_b)
    # the deciders eliminate I - A and I - A^hat of each matrix once, and
    # the table reads the groups they leave on a and b
    iso, stable = ck.is_isomorphic_ck(a, b), ck.is_stably_isomorphic_ck(a, b)
    table = [("K0", a._weak[0], b._weak[0]),
             ("ExtS1", a._strong[0], b._strong[0]),
             ("pi1_aut", ck.pi_aut(a, 1), ck.pi_aut(b, 1)),
             ("pi2_aut", ck.pi_aut(a, 2), ck.pi_aut(b, 2))]
    if args.json:
        doc = {
            "isomorphic": iso,
            "stably_isomorphic": stable,
            "invariants": {name: {"a": ga.to_json(), "b": gb.to_json(),
                                  "equal": ga == gb}
                           for name, ga, gb in table},
        }
        sys.stdout.write(render_json(doc))
    else:
        print(f"isomorphic: {str(iso).lower()}")
        print(f"stably_isomorphic: {str(stable).lower()}")
        width = max(len(str(g)) for _, ga, gb in table
                    for g in (ga, gb)) + 2
        for name, ga, gb in table:
            eq = "equal" if ga == gb else "DIFFER"
            print(f"{name:<16}{str(ga):<{width}}{str(gb):<{width}}{eq}")
    return EXIT_OK


_NODE_LABELS = (
    "j injective",
    "exact at Ker(I-A)",
    "exact at Z",
    "exact at coker(I-A^hat)",
    "q surjective",
)


def cmd_exactseq(args) -> int:
    seq = ck.five_term_sequence(_load_valid(args.matrix))
    names = ["Ker(I-A^hat)/(Z e1)", "Ker(I-A)", "Z",
             "Z^N/(I-A^hat)Z^N", "Z^N/(I-A)Z^N"]
    print("0 -> " + " -> ".join(f"{n} [{g.canonical()}]"
                                for n, g in zip(names, seq.groups))
          + " -> 0")
    print("maps: " + ", ".join(seq.map_names))
    for label in _NODE_LABELS:  # a node that fails raises instead
        print(f"{label}: exact")
    return EXIT_OK


def cmd_realize(args) -> int:
    target = realize.RealizationTarget(args.rank, args.torsion)
    matrix = realize.realize_k0(target)
    text = format_matrix_text(matrix.rows,
                              comment=f"realizes {target.group()}")
    if args.out:
        _write_out(text, args.out)
        print(f"wrote {matrix.n} x {matrix.n} matrix to {args.out}")
        print(f"coker(I-A): {target.group()}")
        print(f"kernel rank: {target.rank}")
    else:
        sys.stdout.write(text)
    return EXIT_OK


def cmd_gen(args) -> int:
    if args.kind == "cuntz":
        matrix = ck.gen_cuntz(args.n)
        comment = f"cuntz n={args.n}"
    elif args.kind == "amplified":
        matrix = ck.gen_amplified(args.n, args.k)
        comment = f"amplified n={args.n} k={args.k}"
    else:
        matrix = ck.gen_random_irreducible(args.n, args.density, args.seed)
        comment = f"random n={args.n} density={args.density} seed={args.seed}"
    _write_out(format_matrix_text(matrix.rows, comment=comment), args.out)
    return EXIT_OK


def cmd_selftest(args) -> int:
    from .selftest import run_selftest
    return EXIT_OK if run_selftest() else EXIT_VERIFY


class _Parser(argparse.ArgumentParser):
    def error(self, message):  # usage errors exit 1, not argparse's 2
        self.print_usage(sys.stderr)
        print(f"error: {message}", file=sys.stderr)
        sys.exit(EXIT_USAGE)


def build_parser() -> argparse.ArgumentParser:
    parser = _Parser(prog="ckinv",
                     description="Cuntz-Krieger algebra invariants from "
                                 "0-1 matrices")
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("validate", help="check the Cuntz-Krieger hypotheses")
    p.add_argument("matrix")
    p.set_defaults(fn=cmd_validate)

    text = f"full invariant report (side at most {ck.MAX_INVARIANTS_SIDE})"
    p = sub.add_parser("invariants", help=text, description=text)
    p.add_argument("matrix")
    p.add_argument("--json", action="store_true")
    p.set_defaults(fn=cmd_invariants)

    text = (f"isomorphism verdicts for two matrices (side at most "
            f"{ck.MAX_INVARIANTS_SIDE})")
    p = sub.add_parser("compare", help=text, description=text)
    p.add_argument("matrix_a")
    p.add_argument("matrix_b")
    p.add_argument("--json", action="store_true")
    p.set_defaults(fn=cmd_compare)

    p = sub.add_parser("exactseq", help="build and verify the five-term "
                                        "exact sequence (side at most "
                                        f"{ck.MAX_SEQUENCE_SIDE})")
    p.add_argument("matrix")
    p.set_defaults(fn=cmd_exactseq)

    p = sub.add_parser("realize", help="construct a matrix with prescribed "
                                       "K-theory (side rank + sum(1 + n_i) "
                                       f"+ 3, at most {realize.MAX_SIDE})")
    p.add_argument("--rank", type=_int_argument, default=0)
    p.add_argument("--torsion", type=_int_list_argument, default="",
                   help="comma-separated factors, each >= 2")
    p.add_argument("--out")
    p.set_defaults(fn=cmd_realize)

    p = sub.add_parser("gen", help="generate standard matrices")
    gensub = p.add_subparsers(dest="kind", required=True)
    g = gensub.add_parser("cuntz")
    g.add_argument("n", type=_int_argument)
    g.add_argument("--out")
    g.set_defaults(fn=cmd_gen)
    g = gensub.add_parser("amplified")
    g.add_argument("n", type=_int_argument)
    g.add_argument("k", type=_int_argument)
    g.add_argument("--out")
    g.set_defaults(fn=cmd_gen)
    g = gensub.add_parser("random")
    g.add_argument("n", type=_int_argument)
    g.add_argument("--density", type=_decimal_argument, default=0.5)
    g.add_argument("--seed", type=_int_argument, required=True)
    g.add_argument("--out")
    g.set_defaults(fn=cmd_gen)

    p = sub.add_parser("selftest", help="run the built-in fixture and "
                                        "property checks")
    p.set_defaults(fn=cmd_selftest)
    return parser


def main(argv=None) -> int:
    args = build_parser().parse_args(argv)
    try:
        return args.fn(args)
    except (MatrixParseError, MatrixValidationError) as e:
        print(f"rejected: {e}", file=sys.stderr)
        return EXIT_INVALID
    except ValueError as e:
        print(f"error: {e}", file=sys.stderr)
        return EXIT_USAGE
    except VerificationError as e:
        print(f"verification failed: {e}", file=sys.stderr)
        return EXIT_VERIFY


if __name__ == "__main__":
    sys.exit(main())
