"""Constructors for the named module families and a seeded random generator.

Families (structure matrices; column j = coordinates of a applied to the
j-th basis vector):

  E_lambda        rank 1,  a e = lambda b e
  E_lambda(n)     rank 2, simple pole:  a x = (lambda+n) b x + b^{n+1} y,
                  a y = lambda b y            (basis order x, y)
  E_{lambda,mu}   rank 2, not simple pole:  a y = mu b y,
                  a t = y + (lambda-1) b t    (basis order y, t)
  E_{lambda,lambda-n}(alpha)  rank 2:  a y = (lambda-n) b y,
                  a t = y + (lambda-1) b t + alpha b^n y
  J_k(lambda)     rank k:  a e_j = (lambda+j-1) b e_j + e_{j+1}  (e_{k+1}=0)
  F_rho           J_k(lambda) plus the order-k term rho^k b^k e_1 in a e_k

The expression syntax accepted by ``from_expression`` (also the CLI surface):
``E(l)``, ``E(l;n)``, ``E(l,m)``, ``E(l,n;alpha)``, ``J(k;l)``,
``F(k;l;rho)``, ``rand(rank;seed)``, read by ``textio``'s grammar.

Every constructor, and ``from_expression``, refuses a precision below 1 or
above ``textio.MAX_PRECISION``, and ``make_J_k``, ``make_F_rho`` and
``random_regular`` a rank above ``textio.MAX_FILE_RANK``, with BadParameter
before building anything.
"""

from __future__ import annotations

import random
from fractions import Fraction

from .errors import BadParameter, ParseError
from .module import AbModule
from .scalars import Scalar
from .series import Series, _checked_count
from .textio import MAX_FILE_RANK, MAX_PRECISION, _TokenStream, parse_scalar


def _check_precision(precision: int) -> None:
    """Refuse a precision that is not an integer, below 1 or above
    ``textio.MAX_PRECISION`` (BadParameter), before any matrix is built."""
    if _checked_count(precision, "precision") < 1:
        raise BadParameter(f"precision must be >= 1, got {precision}")
    if precision > MAX_PRECISION:
        raise BadParameter(
            f"precision {precision} exceeds the ceiling {MAX_PRECISION}"
        )


def _check_rank(k: int, what: str) -> None:
    """Refuse a rank that is not an integer or is above
    ``textio.MAX_FILE_RANK`` (BadParameter), before any matrix is built."""
    if _checked_count(k, what) > MAX_FILE_RANK:
        raise BadParameter(f"{what} {k} exceeds the rank ceiling {MAX_FILE_RANK}")


def make_E_lambda(lam, precision: int) -> AbModule:
    _check_precision(precision)
    lam = Scalar.of(lam)
    return AbModule([[Series.monomial(lam, 1, precision)]])


def make_E_lambda_n(lam, n: int, precision: int) -> AbModule:
    """The simple-pole nonsplit rank-2 family with spectrum {lambda+n, lambda}."""
    _check_precision(precision)
    lam = Scalar.of(lam)
    if _checked_count(n, "n") < 0:
        raise BadParameter("E_lambda(n) needs n >= 0")
    z = Series.zero(precision)
    return AbModule(
        [
            [Series.monomial(lam + Scalar(n), 1, precision), z],
            [Series.monomial(Scalar(1), n + 1, precision),
             Series.monomial(lam, 1, precision)],
        ]
    )


def make_E_lambda_mu(lam, mu, precision: int) -> AbModule:
    """The nonsplit rank-2 family  a y = mu b y,  a t = y + (lambda-1) b t."""
    _check_precision(precision)
    lam, mu = Scalar.of(lam), Scalar.of(mu)
    z = Series.zero(precision)
    return AbModule(
        [
            [Series.monomial(mu, 1, precision), Series.one(precision)],
            [z, Series.monomial(lam - Scalar(1), 1, precision)],
        ]
    )


def make_E_lambda_mu_alpha(lam, n: int, alpha, precision: int) -> AbModule:
    """a y = (lambda-n) b y,  a t = y + (lambda-1) b t + alpha b^n y."""
    _check_precision(precision)
    lam, alpha = Scalar.of(lam), Scalar.of(alpha)
    if _checked_count(n, "n") < 1:
        raise BadParameter("the alpha family needs n >= 1")
    if not alpha:
        raise BadParameter("the alpha family needs alpha != 0")
    z = Series.zero(precision)
    top = Series.one(precision) + Series.monomial(alpha, n, precision)
    return AbModule(
        [
            [Series.monomial(lam - Scalar(n), 1, precision), top],
            [z, Series.monomial(lam - Scalar(1), 1, precision)],
        ]
    )


def make_J_k(lam, k: int, precision: int) -> AbModule:
    _check_precision(precision)
    lam = Scalar.of(lam)
    _check_rank(k, "k")
    if k < 1:
        raise BadParameter("J_k needs k >= 1")
    m = [[Series.zero(precision) for _ in range(k)] for _ in range(k)]
    for j in range(k):
        m[j][j] = Series.monomial(lam + Scalar(j), 1, precision)
        if j + 1 < k:
            m[j + 1][j] = Series.one(precision)
    return AbModule(m)


def make_F_rho(lam, k: int, rho, precision: int) -> AbModule:
    """J_k(lambda) perturbed at order exactly k: a e_k gains rho^k b^k e_1."""
    _check_precision(precision)
    lam, rho = Scalar.of(lam), Scalar.of(rho)
    if _checked_count(k, "k") < 2:
        raise BadParameter("F_rho needs k >= 2")
    if not rho:
        raise BadParameter("F_rho needs rho != 0")
    base = make_J_k(lam, k, precision)
    m = [list(row) for row in base.matrix]
    rho_k = Scalar(1)
    for _ in range(k):
        rho_k = rho_k * rho
    m[0][k - 1] = m[0][k - 1] + Series.monomial(rho_k, k, precision)
    return AbModule(m)


def random_regular(rank: int, seed: int, precision: int,
                   simple_pole: bool = False) -> AbModule:
    """A seeded random regular module: upper-triangular structure matrix with
    diagonal lambda_j b and random polynomial entries above the diagonal.

    Regular by construction (iterated extensions of rank-1 modules).  The
    diagonal exponents are drawn from a small rational grid (denominators
    <= 6) so that integer spectral gaps — the interesting regime for width
    and lifting — occur often.  With ``simple_pole`` the off-diagonal
    cocycles start at order 1, making M(0) = 0.

    The draw depends on all of rank, seed and precision: the same seed at a
    different precision yields a different module.  To study one module at
    several precisions, build it once and use ``at_precision``.
    """
    _check_precision(precision)
    _check_rank(rank, "rank")
    if rank < 1:
        raise BadParameter("rank must be >= 1")
    rng = random.Random(seed)
    denom = rng.choice([1, 1, 2, 3, 4, 6])
    lams = [
        Scalar(Fraction(rng.randint(-3 * denom, 3 * denom), denom))
        for _ in range(rank)
    ]
    lowest = 1 if simple_pole else 0
    highest = min(max(2, precision // 2), precision - 1)
    m = [[Series.zero(precision) for _ in range(rank)] for _ in range(rank)]
    for j in range(rank):
        m[j][j] = Series.monomial(lams[j], 1, precision)
        # a simple pole at precision 1 leaves no order for a cocycle
        for i in range(j if highest >= lowest else 0):
            coeffs = [Scalar(0)] * precision
            for _ in range(rng.randint(0, 3)):
                order = rng.randint(lowest, highest)
                coeffs[order] = coeffs[order] + Scalar(
                    Fraction(rng.randint(-4, 4), rng.choice([1, 1, 2, 3]))
                )
            m[i][j] = Series(coeffs, precision)
    return AbModule(m)


# ---------------------------------------------------------------------------
# expression syntax
# ---------------------------------------------------------------------------


def _as_int(s: Scalar, what: str) -> int:
    if not s.is_integer():
        raise BadParameter(f"{what} must be an integer, got {str(s)!r}")
    return int(s.re)


def _as_rank(s: Scalar, what: str) -> int:
    k = _as_int(s, what)
    _check_rank(k, what)
    return k


def from_expression(text: str, precision: int) -> AbModule:
    """Build a catalog module from compact syntax such as ``J(3;0)``.

    Raises ParseError for malformed syntax and BadParameter for parameter
    values outside a family's constraints, including a rank above
    ``textio.MAX_FILE_RANK`` and a precision below 1 or above
    ``textio.MAX_PRECISION``, refused before any matrix is built.
    """
    _check_precision(precision)
    ts = _TokenStream(text)
    name = ts.accept("NAME")
    if name is None or not ts.accept("OP", "("):
        raise ParseError(f"not a catalog expression: {text!r}")
    a, shape = [], [0]  # the arguments, and how many sit in each ';' group
    try:
        while True:
            a.append(parse_scalar(ts))
            shape[-1] += 1
            if ts.accept("OP", ";"):
                shape.append(0)
            elif not ts.accept("OP", ","):
                break
        ts.expect("OP", ")")
        ts.expect("END")
    except ParseError as exc:
        raise ParseError(f"in catalog expression {text!r}: {exc}") from None
    if name == "E" and shape == [1]:
        return make_E_lambda(a[0], precision)
    if name == "E" and shape == [1, 1]:
        return make_E_lambda_n(a[0], _as_int(a[1], "n"), precision)
    if name == "E" and shape == [2]:
        return make_E_lambda_mu(a[0], a[1], precision)
    if name == "E" and shape == [2, 1]:
        return make_E_lambda_mu_alpha(a[0], _as_int(a[1], "n"), a[2], precision)
    if name == "J" and shape == [1, 1]:
        return make_J_k(a[1], _as_rank(a[0], "k"), precision)
    if name == "F" and shape == [1, 1, 1]:
        return make_F_rho(a[1], _as_rank(a[0], "k"), a[2], precision)
    if name == "rand" and shape == [1, 1]:
        return random_regular(_as_rank(a[0], "rank"), _as_int(a[1], "seed"), precision)
    raise ParseError(
        f"unknown catalog family or argument shape: {text!r} "
        "(expected E(l), E(l;n), E(l,m), E(l,n;alpha), J(k;l), F(k;l;rho), "
        "rand(rank;seed))"
    )
