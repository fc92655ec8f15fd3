"""Independent dense-linear-algebra reference implementations.

Everything here works on one flat coordinate model: the complex vector
space V = b^{-K} E / b^{H} E with basis b^{j-K} e_i, using sympy exact
rational-complex matrices.  None of the package's series, lattice, or
morphism plumbing is reused, so agreement between these functions and
the package is evidence for both.
"""

from __future__ import annotations

import sympy

from abmod import AbModule, Scalar
from abmod.linalg import det, rref
from abmod.morphisms import CONST
from abmod.scalars import ZERO

# ---------------------------------------------------------------------------
# scalar conversion
# ---------------------------------------------------------------------------


def to_sym(s: Scalar):
    return sympy.Rational(s.re.numerator, s.re.denominator) + sympy.I * sympy.Rational(
        s.im.numerator, s.im.denominator
    )


def from_sym(x) -> Scalar:
    re, im = x.as_real_imag()
    if not (re.is_rational and im.is_rational):
        raise ValueError(f"not a rational-complex value: {x}")
    return Scalar(
        __import__("fractions").Fraction(int(re.p), int(re.q)),
        __import__("fractions").Fraction(int(im.p), int(im.q)),
    )


# ---------------------------------------------------------------------------
# the dense model of b^{-K} E / b^{H} E
# ---------------------------------------------------------------------------


def dense_frame(module: AbModule, K: int, H: int):
    """(a_matrix, b_matrix, n) on V = b^{-K} E / b^{H} E.

    Coordinate (i, j) with j in [0, K+H) is the basis vector b^{j-K} e_i;
    a(b^m e_i) = b^m a(e_i) + m b^{m+1} e_i with a(e_i) read off the
    structure matrix column i.
    """
    p = module.rank
    depth = K + H
    n = p * depth

    def idx(i, j):
        return i * depth + j

    A = sympy.zeros(n, n)
    B = sympy.zeros(n, n)
    for i in range(p):
        for j in range(depth):
            m = j - K
            if j + 1 < depth:
                B[idx(i, j + 1), idx(i, j)] = 1
                A[idx(i, j + 1), idx(i, j)] += to_sym(Scalar(m))
            for l in range(p):
                series = module.matrix[l][i]
                for t in range(min(series.precision, depth - j)):
                    c = series.coefficient(t)
                    if not c.is_zero():
                        A[idx(l, j + t), idx(i, j)] += to_sym(c)
    return A, B, n


def _row_space(mat: sympy.Matrix) -> sympy.Matrix:
    """Canonical rref basis of the row space (zero rows dropped)."""
    reduced, pivots = mat.rref()
    return reduced[: len(pivots), :]


def saturation_oracle(module: AbModule, K: int = None, H: int = None):
    """Brute-force saturation data in the dense model.

    Returns a dict with:
      steps    -- first k with U_k = U_{k+1} where U_0 = E, U_{k+1} = U_k + b^{-1} a U_k
      delta    -- smallest m with U inside b^{-m} E
      spectrum -- eigenvalue multiset of b^{-1} a on U / b U (sorted)
      head     -- canonical basis of the head block (coordinates below E),
                  which determines U because U contains E
    """
    p = module.rank
    if K is None:
        K = p
    if H is None:
        H = module.precision - 1
    depth = K + H
    A, B, n = dense_frame(module, K, H)

    def shift_down(vec):
        """b^{-1} applied to a coordinate vector; None if it escapes the frame."""
        out = sympy.zeros(n, 1)
        for i in range(p):
            base = i * depth
            if vec[base] != 0:
                return None
            for j in range(1, depth):
                out[base + j - 1] = vec[base + j]
        return out

    # U_0 = E: all coordinates with j >= K
    rows = []
    for i in range(p):
        for j in range(K, depth):
            e = [0] * n
            e[i * depth + j] = 1
            rows.append(e)
    U = _row_space(sympy.Matrix(rows))
    steps = 0
    while True:
        new_rows = [list(U.row(r)) for r in range(U.rows)]
        for r in range(U.rows):
            img = A @ U.row(r).T
            down = shift_down(img)
            if down is None:
                raise ValueError("saturation escaped the frame; enlarge K")
            new_rows.append(list(down.T))
        U_next = _row_space(sympy.Matrix(new_rows))
        if U_next.rows == U.rows and U_next == U:
            break
        U = U_next
        steps += 1

    # delta: the deepest coordinate order reached below E
    min_j = depth
    for r in range(U.rows):
        for i in range(p):
            for j in range(depth):
                if U[r, i * depth + j] != 0:
                    min_j = min(min_j, j)
    delta = K - min_j

    # head block: coordinates with j < K in each row, canonicalized
    head_cols = [i * depth + j for i in range(p) for j in range(K)]
    head = _row_space(U[:, head_cols])

    # spectrum of b^{-1} a on U / b U: pick representatives of U mod bU
    bU_rows = []
    for r in range(U.rows):
        bU_rows.append(list((B @ U.row(r).T).T))
    bU = _row_space(sympy.Matrix(bU_rows))
    reps = []
    current = bU
    for r in range(U.rows):
        candidate = current.col_join(U.row(r))
        reduced = _row_space(candidate)
        if reduced.rows > current.rows:
            reps.append(U.row(r))
            current = reduced
    assert len(reps) == p, "U / bU should have dimension p"
    basis = sympy.Matrix([list(v) for v in reps] + [list(bU.row(r)) for r in range(bU.rows)])
    action = sympy.zeros(p, p)
    for c, rep in enumerate(reps):
        img = shift_down(A @ rep.T)
        coeffs = sympy.linsolve((basis.T, img))
        coeff = next(iter(coeffs))
        for r in range(p):
            action[r, c] = coeff[r]
    roots = sympy.roots(action.charpoly().as_expr())
    values = []
    try:
        for root, mult in roots.items():
            values.extend([from_sym(sympy.nsimplify(root))] * mult)
    except ValueError:
        values = None
    if values is not None and len(values) != p:
        values = None          # eigenvalues exist but are not in Q(i)
    if values is not None:
        values.sort(key=Scalar.sort_key)
    return {"steps": steps, "delta": delta, "spectrum": values, "head": head}


def lattice_head_oracle(lattice, K: int, H: int) -> sympy.Matrix:
    """Canonical head-block basis of a package lattice in the dense model.

    A saturation lattice contains E, so it is determined by the span of the
    coordinates below E; the span includes all b-multiples of the generators.
    """
    p = lattice.dim
    lat = lattice.at_shift(K)
    depth = K + H
    rows = []
    for gen in lat.gens:
        for m in range(K + 1):  # b^m gen still touches the head only for m <= K
            row = [0] * (p * K)
            visible = False
            for i, series in enumerate(gen):
                for t in range(min(series.precision, K - m)):
                    c = series.coefficient(t)
                    if not c.is_zero():
                        row[i * K + t + m] = to_sym(c)
                        visible = True
            rows.append(row)
            if not visible:
                break
    return _row_space(sympy.Matrix(rows))


# ---------------------------------------------------------------------------
# dense intertwiner solver
# ---------------------------------------------------------------------------


def intertwiner_space(src: AbModule, tgt: AbModule, W: int):
    """All P with P*Msrc - Mtgt*P - b^2 P' = 0 mod b^W, solved in one shot.

    Unknowns are the coefficients P_m[i][j] for m < W; returns the nullspace
    basis and the canonical span of achievable constant terms P_0.
    """
    p = src.rank
    n = W * p * p

    def idx(m, i, j):
        return (m * p + i) * p + j

    rows = []
    for k in range(W):
        for i in range(p):
            for j in range(p):
                row = [0] * n
                for m in range(k + 1):
                    t = k - m
                    for l in range(p):
                        ms = src.matrix[l][j]
                        if t < ms.precision:
                            c = ms.coefficient(t)
                            if not c.is_zero():
                                row[idx(m, i, l)] += to_sym(c)
                        mt = tgt.matrix[i][l]
                        if t < mt.precision:
                            c = mt.coefficient(t)
                            if not c.is_zero():
                                row[idx(m, l, j)] -= to_sym(c)
                if k >= 1:
                    row[idx(k - 1, i, j)] -= to_sym(Scalar(k - 1))
                rows.append(row)
    null = sympy.Matrix(rows).nullspace()
    if not null:
        return [], sympy.zeros(0, p * p)
    heads = sympy.Matrix([[vec[idx(0, i, j)] for i in range(p) for j in range(p)]
                          for vec in null])
    return null, _row_space(heads)


def invertible_head_exists(head_span: sympy.Matrix, p: int) -> bool:
    """Whether the span of achievable constant terms contains an invertible
    matrix, decided symbolically: det over the span is a polynomial that
    either vanishes identically or not."""
    if head_span.rows == 0:
        return False
    params = sympy.symbols(f"c0:{head_span.rows}")
    mat = sympy.zeros(p, p)
    for r, c in enumerate(params):
        for i in range(p):
            for j in range(p):
                mat[i, j] += c * head_span[r, i * p + j]
    return sympy.simplify(mat.det()) != 0


def symbolic_invertible(system):
    """Free-parameter values making the generic block 0 of an intertwiner
    system invertible, decided by sympy: the expanded determinant, then the
    least integer c in 0..deg per parameter (ZERO where it does not occur)
    with a nonzero substitution; None when the determinant vanishes
    identically.  ``find_invertible``'s fallback must return exactly this.
    sympy's Berkowitz determinant expands to the same polynomial as its
    default Bareiss one, which takes seconds on some complex 4 x 4 blocks."""
    free0 = system.parameters_in_blocks(0, 1)
    symbols = {pid: sympy.Symbol("c%d" % pid) for pid in free0}

    def to_sympy(s: Scalar):
        return sympy.Rational(s.re_num, s.den) + sympy.Rational(s.im_num, s.den) * sympy.I

    def entry_expr(entry: dict):
        acc = to_sympy(entry.get(CONST, ZERO))
        for key, coeff in entry.items():
            if key != CONST:
                acc = acc + to_sympy(coeff) * symbols[key]
        return acc

    generic = sympy.Matrix(
        [[entry_expr(entry) for entry in row] for row in system.blocks[0]]
    )
    det = sympy.expand(generic.det(method="berkowitz"))
    if det == 0:
        return None
    values = {}
    for pid in free0:
        sym = symbols[pid]
        if sym not in det.free_symbols:
            values[pid] = ZERO
            continue
        degree = sympy.degree(det, sym)
        for c in range(int(degree) + 1):
            candidate = sympy.expand(det.subs(sym, c))
            if candidate != 0:
                det = candidate
                values[pid] = Scalar(c)
                break
    return values


# ---------------------------------------------------------------------------
# dense matrix helpers with no caller in the library
# ---------------------------------------------------------------------------


def mat_sub(a, b):
    return [[x - y for x, y in zip(ra, rb)] for ra, rb in zip(a, b)]


def is_invertible(a) -> bool:
    return len(a) == (len(a[0]) if a else 0) and bool(det(a))


def rank(a) -> int:
    if not a or not a[0]:
        return 0
    return len(rref(a)[1])


# ---------------------------------------------------------------------------
# dense cokernel (for Ext identities)
# ---------------------------------------------------------------------------


def coker_dim_dense(module: AbModule, lam: Scalar, W: int) -> int:
    """dim E / ((a + lam*b) E + b^W E) by dense rank."""
    A, B, n = dense_frame(module, 0, W)
    T = A + to_sym(lam) * B
    return n - T.rank()
