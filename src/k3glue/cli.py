"""Command-line front end.

Exit codes: 0 when the command succeeds and every check passes, 1 when
a mathematical check or validation fails, 2 for malformed input (bad
files, bad flags, unparseable values).  Machine output is exact and
byte-deterministic; approximations always carry their digit count.
"""

import argparse
import os
import sys
from fractions import Fraction

from .certify import EMBEDDING_DIGITS, assemble_k3, build_l1, build_l2, certify
from .cyclotomic import CycloField, dpsi_quotient, real_embedding_signs, real_subfield, twist_element_parts
from .gluing import NoGlueMapError, extend_isometry, find_glue_map, glue
from .lattices import check_isometry, glue_group, induced_glue_action, twist
from .latticeio import LatticeParseError, format_lattice, read_lattice_file
from .matrices import IntMatrix, charpoly
from .polynomials import IntPoly
from .salem import cross_validate, theorem_b_set

EXIT_OK = 0
EXIT_CHECK_FAILED = 1
EXIT_BAD_INPUT = 2


def _default_digits():
    raw = os.environ.get("K3GLUE_DIGITS")
    if raw is None:
        return EMBEDDING_DIGITS
    try:
        return _int_at_least(1)(raw)
    except argparse.ArgumentTypeError as exc:
        raise LatticeParseError(f"K3GLUE_DIGITS={exc}") from None


def _cmd_certify(args):
    report = certify()
    sys.stdout.write(report.to_machine() if args.machine else report.to_text())
    return EXIT_OK if report.passed else EXIT_CHECK_FAILED


def _cmd_lattice_info(args):
    lattice, isometry = read_lattice_file(args.file)
    out = [
        f"rank {lattice.rank}",
        f"even {'yes' if lattice.is_even() else 'no'}",
        f"unimodular {'yes' if lattice.is_unimodular() else 'no'}",
        f"det {lattice.det}",
        "signature ({},{})".format(*lattice.signature()),
    ]
    group = glue_group(lattice)
    out.append(f"glue_order {group.order}")
    out.append("glue_orders (" + ",".join(str(d) for d in group.orders) + ")")
    for j, lift in enumerate(group.lifts, start=1):
        out.append(
            f"generator {j} lift (" + ",".join(str(c) for c in lift) + ")"
        )
    k = len(group.orders)
    units = [tuple(int(i == j) for j in range(k)) for i in range(k)]
    for i in range(k):
        for j in range(i, k):
            v = group.bilinear(units[i], units[j])
            out.append(f"torsion_b {i + 1} {j + 1} {v.value} mod 1")
    if lattice.is_even():
        for i in range(k):
            v = group.quadratic(units[i])
            out.append(f"torsion_q {i + 1} {v.value} mod 2")
    if isometry is not None:
        out.append(f"isometry_charpoly {isometry.charpoly()}")
    print("\n".join(out))
    return EXIT_OK


def _cmd_glue(args):
    l1, t1 = read_lattice_file(args.file1)
    l2, t2 = read_lattice_file(args.file2)
    # a missing isometry means gluing along the identity action
    a1 = induced_glue_action(t1 or check_isometry(l1, IntMatrix.identity(l1.rank)))
    a2 = induced_glue_action(t2 or check_isometry(l2, IntMatrix.identity(l2.rank)))
    try:
        gmap = find_glue_map(glue_group(l1), glue_group(l2), a1, a2)
    except NoGlueMapError as exc:
        print(f"no glue map: {exc} (obstruction: {exc.obstruction})", file=sys.stderr)
        return EXIT_CHECK_FAILED
    except ValueError as exc:
        print(f"no glue map: {exc}", file=sys.stderr)
        return EXIT_CHECK_FAILED
    result = glue(l1, l2, gmap)
    iso = extend_isometry(result, t1, t2) if t1 is not None and t2 is not None else None
    sys.stdout.write(format_lattice(result.ambient, iso))
    return EXIT_OK


def _cmd_twist(args):
    lattice, isometry = read_lattice_file(args.file)
    if isometry is None:
        raise LatticeParseError("twist requires an isometry section in the file")
    try:
        twisted = twist(isometry, IntPoly(args.poly))
    except ValueError as exc:
        print(f"twist failed: {exc}", file=sys.stderr)
        return EXIT_CHECK_FAILED
    sys.stdout.write(
        format_lattice(twisted, check_isometry(twisted, isometry.matrix))
    )
    return EXIT_OK


def _cmd_table1(args):
    digits = args.digits if args.digits is not None else _default_digits()
    a = twist_element_parts(CycloField(50))["a"]
    rows = real_embedding_signs(real_subfield(dpsi_quotient(a)), digits)
    print(f"digits {digits}")
    for label, sign, text in rows:
        print(f"label {label} sign {'+' if sign > 0 else '-'} value {text}")
    positive = [str(label) for label, sign, _ in rows if sign > 0]
    print("positive_labels " + (",".join(positive) or "-"))
    return EXIT_OK


def _cmd_trace_set(args):
    print(" ".join(str(v) for v in theorem_b_set(args.max)))
    return EXIT_OK


def _cmd_cross_validate(args):
    report = cross_validate(args.max, certify().passed)
    sys.stdout.write(report.to_text())
    return EXIT_OK if report.mismatches == 0 else EXIT_CHECK_FAILED


def _cmd_gram(args):
    if args.which == "L1":
        lattice, isometry = build_l1()
    elif args.which == "L2":
        lattice, isometry = build_l2()
    else:
        assembly = assemble_k3()
        lattice, isometry = assembly.result.ambient, assembly.isometry
    sys.stdout.write(format_lattice(lattice, isometry))
    return EXIT_OK


def _int_at_least(minimum):
    """argparse type: a decimal integer no smaller than minimum."""

    def parse(text):
        # isdigit() alone admits characters such as '\u00b2' that int() rejects
        if not (text.isascii() and text.isdigit()) or int(text) < minimum:
            raise argparse.ArgumentTypeError(f"{text!r} is not an integer >= {minimum}")
        return int(text)

    return parse


def _int_list(text):
    out = []
    for tok in text.split(","):
        tok = tok.strip()
        body = tok[1:] if tok.startswith("-") else tok
        if not body.isdigit():
            raise argparse.ArgumentTypeError(f"{tok!r} is not an integer")
        out.append(int(tok))
    if not out:
        raise argparse.ArgumentTypeError("empty coefficient list")
    return out


def build_parser():
    parser = argparse.ArgumentParser(
        prog="k3glue",
        description="Exact lattice gluing, certification, and trace-set queries.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("certify-k3", help="run the full construction and report")
    p.add_argument("--machine", action="store_true", help="key-value document output")
    p.set_defaults(handler=_cmd_certify)

    p = sub.add_parser("lattice-info", help="invariants and glue data of a lattice file")
    p.add_argument("file")
    p.set_defaults(handler=_cmd_lattice_info)

    p = sub.add_parser("glue", help="glue two lattice files into an even unimodular one")
    p.add_argument("file1")
    p.add_argument("file2")
    p.set_defaults(handler=_cmd_glue)

    p = sub.add_parser("twist", help="twist a lattice file by A(t)")
    p.add_argument("file")
    p.add_argument(
        "--poly", required=True, type=_int_list, metavar="C0,C1,...",
        help="coefficients of A, constant first",
    )
    p.set_defaults(handler=_cmd_twist)

    p = sub.add_parser("table1", help="real-embedding signs and approximations")
    p.add_argument("--digits", type=_int_at_least(1), default=None)
    p.set_defaults(handler=_cmd_table1)

    p = sub.add_parser("trace-set", help="the trace set up to a bound")
    p.add_argument("--max", required=True, type=_int_at_least(2))
    p.set_defaults(handler=_cmd_trace_set)

    p = sub.add_parser("cross-validate", help="closed form vs reconstruction")
    p.add_argument("--max", required=True, type=_int_at_least(3))
    p.set_defaults(handler=_cmd_cross_validate)

    p = sub.add_parser("gram", help="emit an exact Gram matrix document")
    p.add_argument("--which", required=True, choices=("L1", "L2", "K3"))
    p.set_defaults(handler=_cmd_gram)

    return parser


def main(argv=None):
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        return args.handler(args)
    except LatticeParseError as exc:
        print(f"input error: {exc}", file=sys.stderr)
        return EXIT_BAD_INPUT
    except OSError as exc:
        print(f"input error: {exc}", file=sys.stderr)
        return EXIT_BAD_INPUT


if __name__ == "__main__":
    sys.exit(main())
