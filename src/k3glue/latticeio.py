"""Plain-text interchange format for lattices.

A document is line oriented::

    rank 2
    gram
    6002 3001
    3001 -6002
    isometry
    1 1
    1 2

The ``isometry`` section is optional.  Entries are whitespace-separated
decimal integers.  Parsing is strict: every structural defect and every
mathematical one (asymmetric Gram matrix, degenerate form, a claimed
isometry that does not preserve the form) raises LatticeParseError, so
nothing downstream ever sees a half-valid lattice.
"""

from .lattices import Lattice, check_isometry
from .matrices import IntMatrix


#: most digits in one input integer: CPython's default str -> int limit,
#: checked here because the command line lifts that limit for its output
MAX_DIGITS = 4300


class LatticeParseError(ValueError):
    """Malformed or mathematically invalid lattice document."""


def decimal_digits(token):
    """Digit count of a plain decimal integer token (an optional leading
    '-', then ASCII digits), else None. int() also takes '+3', '3_0',
    ' 3' and digits such as '\u0663'; no input path may."""
    body = token[1:] if token.startswith("-") else token
    return len(body) if body.isascii() and body.isdigit() else None


def _parse_int(token, where):
    digits = decimal_digits(token)
    if digits is None:
        raise LatticeParseError(f"{where}: {token!r} is not a decimal integer")
    if digits > MAX_DIGITS:
        raise LatticeParseError(f"{where}: an entry has more than {MAX_DIGITS} digits")
    return int(token)


def _parse_rows(lines, pos, count, width, section):
    rows = []
    for r in range(count):
        if pos >= len(lines):
            raise LatticeParseError(f"{section}: expected {count} rows, got {r}")
        tokens = lines[pos].split()
        if len(tokens) != width:
            raise LatticeParseError(
                f"{section} row {r + 1}: expected {width} entries, got {len(tokens)}"
            )
        rows.append([_parse_int(t, f"{section} row {r + 1}") for t in tokens])
        pos += 1
    return rows, pos


def parse_lattice(text):
    """(Lattice, Isometry or None) from document text.

    Raises LatticeParseError on any deviation from the format.
    """
    lines = [ln.strip() for ln in text.splitlines()]
    lines = [ln for ln in lines if ln]
    if not lines:
        raise LatticeParseError("empty document")
    head = lines[0].split()
    if len(head) != 2 or head[0] != "rank":
        raise LatticeParseError("first line must be 'rank <n>'")
    rank = _parse_int(head[1], "rank")
    if rank < 1:
        raise LatticeParseError("rank must be positive")
    if len(lines) < 2 or lines[1] != "gram":
        raise LatticeParseError("expected a 'gram' section")
    gram_rows, pos = _parse_rows(lines, 2, rank, rank, "gram")
    iso_rows = None
    if pos < len(lines):
        if lines[pos] != "isometry":
            raise LatticeParseError(f"unexpected line {lines[pos]!r}")
        iso_rows, pos = _parse_rows(lines, pos + 1, rank, rank, "isometry")
    if pos != len(lines):
        raise LatticeParseError(f"trailing content from line {pos + 1}")
    try:
        lattice = Lattice(IntMatrix(gram_rows))
    except ValueError as exc:
        raise LatticeParseError(f"invalid gram matrix: {exc}") from None
    isometry = None
    if iso_rows is not None:
        try:
            isometry = check_isometry(lattice, IntMatrix(iso_rows))
        except ValueError as exc:
            raise LatticeParseError(f"invalid isometry: {exc}") from None
    return lattice, isometry


def format_lattice(lattice, isometry=None):
    """Serialize to document text; the exact inverse of parse_lattice."""
    lines = [f"rank {lattice.rank}", "gram"]
    g = lattice.gram
    for i in range(g.rows):
        lines.append(" ".join(str(g[i, j]) for j in range(g.cols)))
    if isometry is not None:
        m = isometry.matrix
        lines.append("isometry")
        for i in range(m.rows):
            lines.append(" ".join(str(m[i, j]) for j in range(m.cols)))
    return "\n".join(lines) + "\n"


def read_lattice_file(path):
    """parse_lattice on a file's contents; I/O errors propagate as OSError."""
    with open(path, encoding="ascii") as fh:
        try:
            return parse_lattice(fh.read())
        except UnicodeDecodeError as exc:
            raise LatticeParseError(f"file is not ascii: {exc}") from exc
