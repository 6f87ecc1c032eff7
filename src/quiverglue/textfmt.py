"""The text format shared by quivers, representations, morphisms, cover fragments and Ext bases.

A file is a list of directive lines.  `#` starts a comment, blank lines
are skipped, and the first token of a line names its directive.  A
directive that ends in a `<rows>x<cols>` shape is followed by one line of
`cols` field entries per row, and by none when either side is zero.  The
files that carry entries open with `<kind> <name> over Q` or
`<kind> <name> over F <p>`.
"""

from __future__ import annotations

import re

from .linalg import Matrix, ModulusError, PrimeField, QQ


class ParseError(ValueError):
    pass


def directives(text: str):
    """An iterator of (line number, tokens) over the lines that hold tokens.

    `read_matrix` draws a matrix body from the same iterator, so a parser
    loops over it and hands it on where a directive announces a matrix.
    """
    return (
        (lineno, tokens)
        for lineno, raw in enumerate(text.splitlines(), start=1)
        if (tokens := raw.split("#", 1)[0].split())
    )


def expect(ok, lineno, usage):
    if not ok:
        raise ParseError(f"line {lineno}: expected '{usage}'")


def header(tokens, lineno):
    """The name and field of a `<kind> <name> over Q|F <p>` line."""
    expect(len(tokens) >= 4 and tokens[2] == "over", lineno, f"{tokens[0]} <name> over Q|F <p>")
    if tokens[3:] == ["Q"]:
        return tokens[1], QQ
    if len(tokens) == 5 and tokens[3] == "F":
        p = integer(tokens[4])
        if p is None:
            raise ParseError(f"line {lineno}: bad modulus {tokens[4]!r}: not an integer")
        try:
            return tokens[1], PrimeField(p)
        except ModulusError as exc:
            raise ParseError(f"line {lineno}: bad modulus {tokens[4]!r}: {exc}") from None
    raise ParseError(f"line {lineno}: expected 'over Q' or 'over F <p>'")


def check_quiver(tokens, lineno, quiver, what):
    """A `quiver <name>` line must name the quiver the text is read against."""
    expect(len(tokens) == 2, lineno, "quiver <name>")
    if tokens[1] != quiver.name:
        raise ParseError(
            f"line {lineno}: {what} references quiver {tokens[1]!r}, expected {quiver.name!r}"
        )


def integer(token):
    """The int a token spells in ASCII digits, with an optional sign and surrounding
    whitespace, or None; a bare `int()` would also read `1_0` and non-ASCII digits."""
    return int(token) if re.fullmatch(r"\s*[+-]?[0-9]+\s*", token) else None


def _nat(token):
    n = integer(token)
    return n if n is not None and n >= 0 else None


def nat(token, lineno):
    """The natural number a token spells."""
    n = _nat(token)
    if n is None:
        raise ParseError(f"line {lineno}: expected a natural number, got {token!r}")
    return n


def shape(token, lineno):
    """(rows, cols) of a `<rows>x<cols>` token."""
    dims = tuple(_nat(t) for t in token.split("x"))
    if len(dims) != 2 or None in dims:
        raise ParseError(f"line {lineno}: expected a <rows>x<cols> shape")
    return dims


def entries(tokens, field, context):
    """tokens as field elements; a bad one raises a ParseError that starts with context."""
    try:
        return [field.coerce(t) for t in tokens]
    except (ValueError, ZeroDivisionError, TypeError) as exc:
        raise ParseError(f"{context}: {exc}") from exc


def read_matrix(lines, rows, cols, field, label):
    """The rows x cols matrix whose rows are the next lines of a `directives` iterator."""
    values = []
    for _ in range(rows if cols else 0):
        lineno, tokens = next(lines, (None, None))
        if tokens is None:
            raise ParseError(f"missing entry rows for {label}")
        if len(tokens) != cols:
            raise ParseError(f"line {lineno}: expected {cols} entries for {label}")
        values.extend(entries(tokens, field, f"line {lineno}: bad entry for {label}"))
    return Matrix(rows, cols, values, field)


def matrix_directive(lines, parts, lineno, names, what, field, header_kind):
    """The matrix a `<directive> <name> <rows>x<cols>` line announces; name must be in names."""
    expect(len(parts) == 3, lineno, f"{parts[0]} <{what}> <rows>x<cols>")
    if parts[1] not in names:
        raise ParseError(f"line {lineno}: unknown {what} {parts[1]!r}")
    rows, cols = shape(parts[2], lineno)
    if field is None:
        raise ParseError(f"line {lineno}: '{parts[0]}' before the '{header_kind}' header")
    return read_matrix(lines, rows, cols, field, f"{what} {parts[1]}")


def format_header(kind, name, field):
    return f"{kind} {name} over " + ("Q" if field == QQ else f"F {field.p}")


def format_matrix(directive, m: Matrix):
    """The lines `<directive> <rows>x<cols>` and one per row (none when m has no entries)."""
    lines = [f"{directive} {m.rows}x{m.cols}"]
    if m.cols:
        lines.extend(" ".join(m.field.format(v) for v in m.row(r)) for r in range(m.rows))
    return lines
