"""Text formats: scalars, series, catalog expressions and module files.

Every text input is read by one tokenizer and one grammar.  Tokens:

    INT   a run of decimal digits (``str.isdecimal``, exactly what ``int``
          takes; the only rule for an integer anywhere), so a superscript
          or circled digit is an unexpected character
    NAME  a letter followed by letters and digits (``rank1`` is one NAME)
    OP    one of ``+ - * / ^ ( ) : , ;``

Whitespace between tokens does not matter.  The grammar::

    scalar  :=  ['-'] coef
    series  :=  ['-'] term (('+'|'-') term)*
    term    :=  coef | coef '*' bpow | bpow
    bpow    :=  'b' | 'b' '^' INT
    coef    :=  INT | INT '/' INT | 'i' | '(' complex ')'
    complex :=  real | real ('+'|'-') imag | imag
    real    :=  ['-'] INT ['/' INT]
    imag    :=  [real '*'] 'i'

    catalog :=  NAME '(' scalar (',' scalar)* (';' scalar (',' scalar)*)* ')'

    line    :=  ('rank'|'precision') INT  |  'm' INT INT ':' series

A bare coefficient takes no sign, so ``--1`` and ``1 - -2*b`` are refused;
only a scalar, a series' first term and a ``real`` carry one.  The catalog
families and their shapes are listed in ``catalog``; an integer argument
(``n``, ``k``, ``rank``, ``seed``) is a scalar whose value is an integer.

Examples: ``(1/2)*b + (3+2*i)*b^2``, ``-b^3``, ``i*b - 2``, ``(-1/2+i)``,
``E(1/3,2;(1-i))``.

The emitter produces a canonical subset of the grammar (terms in increasing
power of b, integer coefficients bare, other rationals parenthesized, complex
coefficients as ``(re+im*i)``), so parse/emit round-trips are byte-stable.

Module file format, one ``line`` per line; ``#`` starts a comment that runs
to the end of the line, and blank lines are skipped::

    # optional comments
    rank 2
    precision 8
    m 1 1: (1/2)*b
    m 2 1: b^2

``m i j:`` lines give the matrix entry in row i, column j (1-based); omitted
entries are zero.  Column j of the matrix holds the coordinates of a applied
to the j-th basis vector.

A ParseError from a module file names its line and, when a token is at
fault, that token's column in the line (one past the last character when
the line ends early); a missing rank or precision line points one line past
the last.  A ParseError from a bare scalar or series names neither line
nor column in its message (its ``column`` attribute holds the column), and
one from a catalog expression quotes the expression instead.
"""

from __future__ import annotations

from fractions import Fraction

from .errors import ParseError
from .module import AbModule
from .scalars import ZERO, Scalar
from .series import Series, _checked_count, _make

# ---------------------------------------------------------------------------
# scalar formatting
# ---------------------------------------------------------------------------


def format_scalar(s: Scalar) -> str:
    """Canonical standalone text for a scalar (no enclosing parentheses
    unless the value is complex)."""
    if not s.im:
        return str(s.re)
    if not s.re:
        if s.im == 1:
            return "i"
        if s.im == -1:
            return "-i"
        return f"({s.im}*i)"
    sign = "+" if s.im > 0 else "-"
    mag = abs(s.im)
    imtxt = "i" if mag == 1 else f"{mag}*i"
    return f"({s.re}{sign}{imtxt})"


def _fmt_coefficient(s: Scalar) -> str:
    """Text for a scalar used as a multiplier of a b power."""
    if not s.im:
        if s.re.denominator == 1:
            return str(s.re)
        return f"({s.re})"
    return format_scalar(s)


def _leading_negative(s: Scalar) -> bool:
    if s.re:
        return s.re < 0
    return s.im < 0


def format_series(s: Series) -> str:
    """Canonical text of a series; precision is *not* part of the text."""
    parts: list[str] = []
    for k, c in s.terms:
        neg = _leading_negative(c)
        mag = -c if neg else c
        if k == 0:
            body = format_scalar(mag)
        else:
            bpart = "b" if k == 1 else f"b^{k}"
            body = bpart if mag.is_one() else f"{_fmt_coefficient(mag)}*{bpart}"
        if not parts:
            parts.append(("-" if neg else "") + body)
        else:
            parts.append(("- " if neg else "+ ") + body)
    if not parts:
        return "0"
    return " ".join(parts)


# ---------------------------------------------------------------------------
# token stream
# ---------------------------------------------------------------------------

_OPS = set("+-*/^():,;")


class _TokenStream:
    """The tokens of one text, scanned one at a time as they are read.

    A token is (kind, value, column), columns counted from 1: kinds INT,
    NAME, OP and BAD (an unexpected character, refused when it is read),
    then END, one column past the last character.  ``line`` is the text's
    line in a module file, or None for a bare expression.
    """

    __slots__ = ("text", "line", "at", "tok")  # a module file keeps one per entry

    def __init__(self, text: str, line: int | None = None):
        self.text = text
        self.line = line
        self.at = 0
        self._scan()

    def _scan(self) -> None:
        text, n, i = self.text, len(self.text), self.at
        while i < n and text[i].isspace():
            i += 1
        if i == n:
            self.tok = ("END", "", len(text.rstrip()) + 1)
            return
        ch, j = text[i], i + 1
        if ch.isdecimal():
            kind = "INT"
            while j < n and text[j].isdecimal():
                j += 1
        elif ch.isalpha():
            kind = "NAME"
            while j < n and (text[j].isalpha() or text[j].isdecimal()):
                j += 1
        else:
            kind = "OP" if ch in _OPS else "BAD"
        self.tok, self.at = (kind, text[i:j], i + 1), j

    def column(self) -> int:
        return self.tok[2]

    def error(self, message: str, column: int | None = None) -> ParseError:
        return ParseError(message, line=self.line, column=column or self.column())

    def accept(self, kind, value=None):
        k, v, _ = self.tok
        if k == kind and (value is None or v == value):
            self._scan()
            return v
        return None

    def expect(self, kind, value=None):
        got = self.accept(kind, value)
        if got is not None:
            return got
        k, v, _ = self.tok
        if k == "END":
            raise self.error("unexpected end of input")
        if k == "BAD":
            raise self.error(f"unexpected character {v!r}")
        want = "end of input" if kind == "END" else repr(value or kind)
        raise self.error(f"expected {want}, found {v!r}")

    def integer(self) -> int:
        column = self.column()
        digits = self.expect("INT")
        try:
            return int(digits)
        except ValueError:  # more digits than int() converts
            message = f"integer of {len(digits)} digits is too long"
            raise self.error(message, column) from None

    def done(self) -> bool:
        return self.tok[0] == "END"


# ---------------------------------------------------------------------------
# scalar / series parsing
# ---------------------------------------------------------------------------


def _parse_fraction(ts: _TokenStream) -> Fraction:
    num = ts.integer()
    if not ts.accept("OP", "/"):
        return Fraction(num)
    column = ts.column()
    den = ts.integer()
    if not den:
        raise ts.error("zero denominator", column)
    return Fraction(num, den)


def _parse_real(ts: _TokenStream) -> Fraction:
    negative = ts.accept("OP", "-") is not None
    f = _parse_fraction(ts)
    return -f if negative else f


def _parse_complex_body(ts: _TokenStream) -> Scalar:
    """Parse the inside of a parenthesized coefficient."""
    # imag-only form: [real '*'] 'i'
    if ts.accept("NAME", "i"):
        return Scalar(0, 1)
    first = _parse_real(ts)
    if ts.accept("OP", "*"):
        ts.expect("NAME", "i")
        return Scalar(0, first)
    sign = 1 if ts.accept("OP", "+") else -1 if ts.accept("OP", "-") else 0
    if not sign:
        return Scalar(first)
    if ts.accept("NAME", "i"):
        return Scalar(first, sign)
    imag = _parse_real(ts)
    ts.expect("OP", "*")
    ts.expect("NAME", "i")
    return Scalar(first, sign * imag)


def _parse_coefficient(ts: _TokenStream) -> Scalar:
    if ts.accept("OP", "("):
        s = _parse_complex_body(ts)
        ts.expect("OP", ")")
        return s
    if ts.accept("NAME", "i"):
        return Scalar(0, 1)
    return Scalar(_parse_fraction(ts))


def _parse_power(ts: _TokenStream) -> int:
    """The power of b after a 'b'."""
    return ts.integer() if ts.accept("OP", "^") else 1


def _parse_term(ts: _TokenStream) -> tuple[Scalar, int]:
    """One term -> (coefficient, b power)."""
    if ts.accept("NAME", "b"):
        return Scalar(1), _parse_power(ts)
    coef = _parse_coefficient(ts)
    if ts.accept("OP", "*"):
        ts.expect("NAME", "b")
        return coef, _parse_power(ts)
    return coef, 0


def parse_scalar(source: str | _TokenStream) -> Scalar:
    """Parse a standalone scalar (any coefficient form, optional sign).

    ``source`` is a text, read to its end, or a token stream, off which one
    scalar is read (an argument of a catalog expression).
    """
    ts = _TokenStream(source) if isinstance(source, str) else source
    negative = ts.accept("OP", "-") is not None
    s = _parse_coefficient(ts)
    if ts is not source:
        ts.expect("END")
    return -s if negative else s


def parse_series(source: str | _TokenStream, precision: int) -> Series:
    """Parse a series expression at a stated precision.

    ``source`` is a text or a token stream (a module-file entry line after
    its ``m i j:``), read to its end.  A term with power >= precision is a
    ParseError: accepting it would silently discard information the text
    claims to carry.
    """
    ts = _TokenStream(source) if isinstance(source, str) else source
    terms: dict[int, Scalar] = {}
    negative = ts.accept("OP", "-") is not None
    while True:
        column = ts.column()
        coef, power = _parse_term(ts)
        if power >= precision:
            raise ts.error(
                f"term of order b^{power} exceeds stated precision {precision}", column
            )
        terms[power] = terms.get(power, ZERO) + (-coef if negative else coef)
        if ts.done():
            return _make(tuple(sorted((k, c) for k, c in terms.items() if c)), precision)
        negative = ts.accept("OP", "-") is not None
        if not negative:
            ts.expect("OP", "+")


# ---------------------------------------------------------------------------
# module files
# ---------------------------------------------------------------------------


MAX_FILE_RANK = 256  # the internal Hom of two rank-16 modules
MAX_PRECISION = 4096  # iso J(3;0) J(3;0): 1.2 s at 4096, past 15 s at 10^5


def parse_module_file(text: str):
    """Parse a module file into an AbModule.  A rank or precision line below
    1 is a ParseError at its line; a rank above MAX_FILE_RANK or a precision
    above MAX_PRECISION is refused by ``series._checked_count``
    (BadParameter, "... must be at most ..., got ...") once both lines are
    read, before the rank x rank matrix or any entry is built.  Every
    ParseError carries its line; a missing rank or precision line points
    one line past the last."""
    header: dict[str, int] = {}
    entries: dict[tuple[int, int], _TokenStream] = {}
    lines = text.splitlines()
    for lineno, raw in enumerate(lines, start=1):
        body = raw.split("#", 1)[0]
        ts = _TokenStream(body, line=lineno)
        if ts.done():
            continue
        key = ts.accept("NAME")
        if key in ("rank", "precision"):
            if key in header:
                raise ParseError(f"duplicate {key} line", line=lineno)
            header[key] = ts.integer()
            ts.expect("END")
            if header[key] < 1:
                raise ParseError(f"{key} must be at least 1, got {header[key]}",
                                 line=lineno)
        elif key == "m":
            i, j = ts.integer(), ts.integer()
            ts.expect("OP", ":")
            if (i, j) in entries:
                raise ParseError(
                    f"duplicate entry m {i} {j} (first at line {entries[(i, j)].line})",
                    line=lineno,
                )
            entries[(i, j)] = ts  # its series is read once the precision is known
        else:
            raise ParseError(f"unrecognized line {body.strip()!r}", line=lineno)
    for key in ("rank", "precision"):
        if key not in header:
            raise ParseError(f"missing {key} line", line=len(lines) + 1)
    rank = _checked_count(header["rank"], "rank", most=MAX_FILE_RANK)
    precision = _checked_count(header["precision"], "precision", most=MAX_PRECISION)
    matrix = [[Series.zero(precision) for _ in range(rank)] for _ in range(rank)]
    for (i, j), ts in entries.items():
        if not (1 <= i <= rank and 1 <= j <= rank):
            raise ParseError(f"entry m {i} {j} outside rank {rank}", line=ts.line)
        matrix[i - 1][j - 1] = parse_series(ts, precision)
    return AbModule(matrix)


def emit_module_file(module) -> str:
    """Canonical module-file text; parse(emit(E)) == E byte for byte."""
    lines = [f"rank {module.rank}", f"precision {module.precision}"]
    for i in range(module.rank):
        for j in range(module.rank):
            entry = module.matrix[i][j]
            if not entry.is_zero():
                lines.append(f"m {i + 1} {j + 1}: {format_series(entry)}")
    return "\n".join(lines) + "\n"
