"""Text formats: series expressions and module files.

Series grammar (whitespace insignificant, ``#`` starts a comment in files)::

    series  :=  ['-'] term (('+'|'-') term)*
    term    :=  coef | coef '*' bpow | bpow
    bpow    :=  'b' | 'b' '^' INT
    coef    :=  INT | INT '/' INT | 'i' | '(' complex ')'
    complex :=  real | real ('+'|'-') imag | imag
    real    :=  ['-'] INT ['/' INT]
    imag    :=  [real '*'] 'i'

INT is a run of decimal digits (``str.isdecimal``, exactly what ``int``
takes), so a superscript or circled digit is an unexpected character.

Examples: ``(1/2)*b + (3+2*i)*b^2``, ``-b^3``, ``i*b - 2``.

The emitter produces a canonical subset of the grammar (terms in increasing
power of b, integer coefficients bare, other rationals parenthesized, complex
coefficients as ``(re+im*i)``), so parse/emit round-trips are byte-stable.

Module file format, line oriented::

    # optional comments
    rank 2
    precision 8
    m 1 1: (1/2)*b
    m 2 1: b^2

``m i j:`` lines give the matrix entry in row i, column j (1-based); omitted
entries are zero.  Column j of the matrix holds the coordinates of a applied
to the j-th basis vector.
"""

from __future__ import annotations

from fractions import Fraction

from .errors import BadParameter, ParseError
from .module import AbModule
from .scalars import ZERO, Scalar
from .series import Series, _make

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
# tokenizer
# ---------------------------------------------------------------------------

_OPS = set("+-*/^():,;")


def _tokenize(text: str, line: int | None = None):
    """Yield (kind, value, column) tokens; kinds are INT, NAME, OP."""
    toks = []
    i, n = 0, len(text)
    while i < n:
        ch = text[i]
        if ch.isspace():
            i += 1
            continue
        if ch.isdecimal():
            j = i
            while j < n and text[j].isdecimal():
                j += 1
            toks.append(("INT", text[i:j], i))
            i = j
            continue
        if ch.isalpha():
            j = i
            while j < n and text[j].isalpha():
                j += 1
            toks.append(("NAME", text[i:j], i))
            i = j
            continue
        if ch in _OPS:
            toks.append(("OP", ch, i))
            i += 1
            continue
        raise ParseError(f"unexpected character {ch!r}", line=line, column=i + 1)
    return toks


class _TokenStream:
    def __init__(self, toks, line=None):
        self.toks = toks
        self.pos = 0
        self.line = line

    def peek(self):
        return self.toks[self.pos] if self.pos < len(self.toks) else (None, None, None)

    def accept(self, kind, value=None):
        k, v, _ = self.peek()
        if k == kind and (value is None or v == value):
            self.pos += 1
            return v
        return None

    def expect(self, kind, value=None):
        k, v, c = self.peek()
        if k != kind or (value is not None and v != value):
            want = value if value is not None else kind
            raise ParseError(
                f"expected {want!r}, found {v!r}", line=self.line,
                column=(c + 1) if c is not None else None,
            )
        self.pos += 1
        return v

    def done(self) -> bool:
        return self.pos >= len(self.toks)


# ---------------------------------------------------------------------------
# scalar / series parsing
# ---------------------------------------------------------------------------


def _parse_rational(ts: _TokenStream) -> Fraction:
    neg = ts.accept("OP", "-") is not None
    num = int(ts.expect("INT"))
    den = 1
    if ts.accept("OP", "/"):
        den = int(ts.expect("INT"))
        if den == 0:
            raise ParseError("zero denominator", line=ts.line)
    f = Fraction(num, den)
    return -f if neg else f


def _parse_complex_body(ts: _TokenStream) -> Scalar:
    """Parse the inside of a parenthesized coefficient."""
    # imag-only form: [rat '*'] 'i'
    if ts.accept("NAME", "i"):
        return Scalar(0, 1)
    first = _parse_rational(ts)
    if ts.accept("OP", "*"):
        ts.expect("NAME", "i")
        return Scalar(0, first)
    sign = None
    if ts.accept("OP", "+"):
        sign = 1
    elif ts.accept("OP", "-"):
        sign = -1
    if sign is None:
        return Scalar(first)
    if ts.accept("NAME", "i"):
        return Scalar(first, sign)
    imag = _parse_rational(ts)
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
    return Scalar(_parse_rational(ts))


def _parse_bpow(ts: _TokenStream) -> int:
    ts.expect("NAME", "b")
    if ts.accept("OP", "^"):
        return int(ts.expect("INT"))
    return 1


def _parse_term(ts: _TokenStream) -> tuple[Scalar, int]:
    """One term -> (coefficient, b power)."""
    k, v, _ = ts.peek()
    if k == "NAME" and v == "b":
        return Scalar(1), _parse_bpow(ts)
    coef = _parse_coefficient(ts)
    if ts.accept("OP", "*"):
        return coef, _parse_bpow(ts)
    return coef, 0


def parse_scalar(text: str) -> Scalar:
    """Parse a standalone scalar (any coefficient form, optional sign)."""
    ts = _TokenStream(_tokenize(text))
    neg = ts.accept("OP", "-") is not None
    s = _parse_coefficient(ts)
    if not ts.done():
        raise ParseError(f"trailing input in scalar {text!r}")
    return -s if neg else s


def parse_series(text: str, precision: int, line: int | None = None) -> Series:
    """Parse a series expression at a stated precision.

    A term with power >= precision is a ParseError: accepting it would
    silently discard information the text claims to carry.
    """
    ts = _TokenStream(_tokenize(text, line=line), line=line)
    terms: dict[int, Scalar] = {}
    first = True
    while not ts.done() or first:
        if first:
            sign = -1 if ts.accept("OP", "-") else 1
            first = False
        else:
            if ts.accept("OP", "+"):
                sign = 1
            elif ts.accept("OP", "-"):
                sign = -1
            else:
                k, v, c = ts.peek()
                raise ParseError(
                    f"expected '+' or '-', found {v!r}", line=line,
                    column=(c + 1) if c is not None else None,
                )
        coef, power = _parse_term(ts)
        if power >= precision:
            raise ParseError(
                f"term of order b^{power} exceeds stated precision {precision}",
                line=line,
            )
        terms[power] = terms.get(power, ZERO) + (coef if sign > 0 else -coef)
    return _make(tuple(sorted((k, c) for k, c in terms.items() if c)), precision)


# ---------------------------------------------------------------------------
# module files
# ---------------------------------------------------------------------------


MAX_FILE_RANK = 256  # the internal Hom of two rank-16 modules
MAX_PRECISION = 4096  # iso J(3;0) J(3;0): 1.2 s at 4096, past 15 s at 10^5


def parse_module_file(text: str):
    """Parse a module file into an AbModule; a rank above MAX_FILE_RANK or a
    precision above MAX_PRECISION raises BadParameter before the rank x rank
    matrix is built.  A ParseError carries its line, and inside an entry's
    expression the column counted from the start of that line."""
    rank = None
    precision = None
    entries: dict[tuple[int, int], str] = {}
    entry_lines: dict[tuple[int, int], int] = {}
    for lineno, raw in enumerate(text.splitlines(), start=1):
        body = raw.split("#", 1)[0]
        lineat = body.strip()
        if not lineat:
            continue
        key, *args = lineat.split()
        if key in ("rank", "precision"):
            if (rank if key == "rank" else precision) is not None:
                raise ParseError(f"duplicate {key} line", line=lineno)
            try:
                (value,) = map(int, args)  # exactly one integer
            except ValueError:
                raise ParseError(f"malformed {key} line", line=lineno) from None
            if value < 1:
                raise ParseError(f"{key} must be >= 1", line=lineno)
            if key == "rank":
                rank = value
            else:
                precision = value
            continue
        if lineat.startswith("m"):
            head, _, expr = body.partition(":")
            if not _:
                raise ParseError("entry line is missing ':'", line=lineno)
            parts = head.split()
            if len(parts) != 3 or parts[0] != "m":
                raise ParseError("entry line must look like 'm i j: expr'", line=lineno)
            try:
                i, j = int(parts[1]), int(parts[2])
            except ValueError:
                raise ParseError("entry indices must be integers", line=lineno) from None
            if (i, j) in entries:
                raise ParseError(
                    f"duplicate entry m {i} {j} (first at line {entry_lines[(i, j)]})",
                    line=lineno,
                )
            # blanking the head keeps each character at its column in the line
            entries[(i, j)] = " " * (len(head) + 1) + expr
            entry_lines[(i, j)] = lineno
            continue
        raise ParseError(f"unrecognized line {lineat!r}", line=lineno)
    if rank is None:
        raise ParseError("missing rank line")
    if precision is None:
        raise ParseError("missing precision line")
    if rank > MAX_FILE_RANK:
        raise BadParameter(
            f"rank {rank} exceeds the module-file ceiling {MAX_FILE_RANK}"
        )
    if precision > MAX_PRECISION:
        raise BadParameter(
            f"precision {precision} exceeds the ceiling {MAX_PRECISION}"
        )
    matrix = [[Series.zero(precision) for _ in range(rank)] for _ in range(rank)]
    for (i, j), expr in entries.items():
        if not (1 <= i <= rank and 1 <= j <= rank):
            raise ParseError(
                f"entry m {i} {j} outside rank {rank}", line=entry_lines[(i, j)]
            )
        matrix[i - 1][j - 1] = parse_series(expr, precision, line=entry_lines[(i, j)])
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
