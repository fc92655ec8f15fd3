"""Independent dense-linear-algebra reference implementations.

Everything here works on one flat coordinate model: the complex vector
space V = b^{-K} E / b^{H} E with basis b^{j-K} e_i, using sympy exact
rational-complex matrices.  None of the package's series, lattice, or
morphism plumbing is reused, so agreement between these functions and
the package is evidence for both.
"""

from __future__ import annotations

import sympy

from abmod import (
    AbModule,
    BadParameter,
    Element,
    HypothesisViolated,
    Lattice,
    NotRegular,
    PrecisionExhausted,
    Scalar,
    Series,
    base_change,
    biggest_simple_pole,
    delta_index,
    eigen_lift,
    hom_ab,
    is_regular,
    lattice_from_columns,
    linalg,
    n_lambda,
    saturate,
    spectrum,
    truncate,
    width_table,
)
from abmod.determination import _freeze
from abmod.invariants import _class_rep
from abmod.linalg import Echelon, det, identity, mat_mul, rref
from abmod.morphisms import CONST, IntertwinerSystem
from abmod.scalars import ONE, ZERO, _make
from abmod.series import _checked_count, _fold
from abmod.seriesmat import a_image

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


def unit_element(module: AbModule, j: int) -> Element:
    """The j-th basis vector e_j (0-based) of the module as an Element."""
    w = module.precision
    return Element([Series.one(w) if i == j else Series.zero(w) for i in range(module.rank)])


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


def eb_truncation_image(module: AbModule, N: int) -> sympy.Matrix:
    """The image of E^b in E/b^N E, basis b^t e_i at index i*N + t (the
    order of ``truncate``), as a canonical rref row basis.

    E^b is read off ``biggest_simple_pole``'s lattice in E, and spanned in
    the quotient by the rows b^j g, j < N, for every generator g, each
    written from g's dense coefficients; sympy reduces them.  Neither the
    dense fixpoint of ``recover_Eb_from_truncation`` nor the package's
    elimination is used."""
    lattice = biggest_simple_pole(module)[1]
    assert lattice.shift == 0, "E^b lies in E"
    p = module.rank
    rows = []
    for g in lattice.gens:
        dense = [entry.coeffs for entry in g]
        for j in range(N):
            row = [0] * (p * N)
            for i in range(p):
                for t in range(N - j):
                    row[i * N + j + t] = to_sym(dense[i][t])
            rows.append(row)
    return _row_space(sympy.Matrix(rows))


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
    system invertible, its coefficients held as the package's (re, im, den)
    triples, decided by sympy: the expanded determinant, then the
    least integer c in 0..deg per parameter (ZERO where it does not occur)
    with a nonzero substitution; None when the determinant vanishes
    identically.  ``find_invertible``'s fallback must return exactly this.
    sympy's Berkowitz determinant expands to the same polynomial as its
    default Bareiss one, which takes seconds on some complex 4 x 4 blocks."""
    free0 = scanning_parameters_in_blocks(system, 0, 1)
    symbols = {pid: sympy.Symbol("c%d" % pid) for pid in free0}

    def to_sympy(s: Scalar):
        return sympy.Rational(s.re_num, s.den) + sympy.Rational(s.im_num, s.den) * sympy.I

    def entry_expr(entry: dict):
        acc = sympy.Integer(0)
        for key, coeff in entry.items():
            term = to_sympy(_make(*coeff))
            acc = acc + (term if key == CONST else term * symbols[key])
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


def mat_scale(a, s: Scalar):
    return [[x * s for x in row] for row in a]


def faddeev_leverrier_charpoly(a) -> list:
    """Coefficients of det(t*I - a), leading first, by Faddeev-LeVerrier:
    one dense product per degree, O(n^4), division only by integers."""
    n = len(a)
    coeffs = [Scalar(1)]
    m = identity(n)
    for k in range(1, n + 1):
        am = mat_mul(a, m)
        c = -(sum((am[i][i] for i in range(n)), ZERO) / k)
        coeffs.append(c)
        if k < n:
            for i in range(n):
                am[i][i] = am[i][i] + c
            m = am
    return coeffs


def is_invertible(a) -> bool:
    return len(a) == (len(a[0]) if a else 0) and bool(det(a))


def rank(a) -> int:
    if not a or not a[0]:
        return 0
    return len(rref(a)[1])


# ---------------------------------------------------------------------------
# lattice helpers with no caller in the library
# ---------------------------------------------------------------------------


def lattice_sum(a: Lattice, b: Lattice) -> Lattice:
    """a + b, echelonized in the deeper frame at the lower precision."""
    k = max(a.shift, b.shift)
    aa, bb = a.at_shift(k), b.at_shift(k)
    w = min(aa.precision, bb.precision)
    cols = [list(g) for g in aa.gens] + [list(g) for g in bb.gens]
    return lattice_from_columns(a.dim, cols, shift=k, precision=w)


def scaled_by_b(lat: Lattice, m: int) -> Lattice:
    """b^m * lat for m of either sign (negative m raises the shift)."""
    if m >= 0:
        gens = tuple(tuple(g.shift_up(m) for g in col) for col in lat.gens)
        pivots = tuple((r, v + m) for r, v in lat.pivots)
        return Lattice(lat.dim, lat.shift, gens, pivots, lat.precision + m)
    return Lattice(lat.dim, lat.shift - m, lat.gens, lat.pivots, lat.precision)


# ---------------------------------------------------------------------------
# dense cokernel (for Ext identities)
# ---------------------------------------------------------------------------


def coker_dim_dense(module: AbModule, lam: Scalar, W: int) -> int:
    """dim E / ((a + lam*b) E + b^W E) by dense rank."""
    A, B, n = dense_frame(module, 0, W)
    T = A + to_sym(lam) * B
    return n - T.rank()


# ---------------------------------------------------------------------------
# the dense series-matrix kernels, as written before zero entries were
# skipped: every product and sum is formed, zero operands included
# ---------------------------------------------------------------------------


def dense_smat_mul(a, b):
    rb = len(b)
    cb = len(b[0]) if rb else 0
    out = []
    for arow in a:
        orow = []
        for j in range(cb):
            acc = None
            for k in range(rb):
                t = arow[k] * b[k][j]
                acc = t if acc is None else acc + t
            orow.append(acc)
        out.append(orow)
    return out


def dense_smat_inverse(a):
    from abmod.errors import NotAUnit

    n = len(a)
    w = min(entry.precision for row in a for entry in row)
    work = [
        [a[i][j].at_precision(w) for j in range(n)]
        + [Series.one(w) if i == j else Series.zero(w) for j in range(n)]
        for i in range(n)
    ]
    for c in range(n):
        pivot = next((r for r in range(c, n) if work[r][c].is_unit()), None)
        if pivot is None:
            raise NotAUnit("series matrix is not invertible over the series ring")
        work[c], work[pivot] = work[pivot], work[c]
        inv = work[c][c].invert()
        work[c] = [entry * inv for entry in work[c]]
        for r in range(n):
            if r != c and not work[r][c].is_zero():
                factor = work[r][c]
                work[r] = [work[r][j] - factor * work[c][j] for j in range(2 * n)]
    return [row[n:] for row in work]


def dense_a_image(m, cols, shift: int = 0):
    wm = min(entry.precision for row in m for entry in row)
    out = []
    for v in cols:
        w = min(wm, min(x.precision for x in v))
        img = []
        for row, x in zip(m, v):
            x = x.at_precision(w)
            acc = x.derivative().shift_up(2)
            if shift:
                acc = acc - x.shift_up(1) * shift
            for mij, xj in zip(row, v):
                acc = acc + mij * xj
            img.append(acc)
        out.append(img)
    return out


def _b_quotient(s: Series, v: int) -> Series:
    """The quotient q of s = b^v * q + r, deg r < v, from s's coefficients."""
    return Series(s.coeffs[v:], s.precision - v)


def dense_scaled_col_mul(q, col, v: int):
    return [(q * entry.shift_down(v)).shift_up(v) for entry in col]


def dense_verify_intertwiner(source, target, P, w: int) -> bool:
    """``verify_intertwiner`` as a composition of the dense kernels: the
    residual P*Ms - (Mt*P + b^2*P') built as series, each entry cut to w
    and tested for zero."""
    images = dense_a_image(target, list(zip(*P)))
    product = dense_smat_mul(P, source)
    return all(
        (x - y).at_precision(min(w, (x - y).precision)).is_zero()
        for prow, irow in zip(product, zip(*images))
        for x, y in zip(prow, irow)
    )


def hand_verify_intertwiner(source, target, P, w: int) -> bool:
    """``verify_intertwiner`` as written before it was composed of the
    ``seriesmat`` kernels, verbatim: the residual folded by hand.

    Check P*Ms - Mt*P - b^2*P' == 0 at all orders below w.

    Entry (i, j) of the residual is known to the least precision of row i
    of P, column j of Ms, row i of Mt and column j of P, and to at most one
    order past the least precision of Mt (as ``a_image`` gives it).  Its
    products are folded into one accumulator of raw integer triples below
    min(w, that precision), b^2 P' starting it as the terms -k c b^(k+1),
    and only the numerators are tested for zero: nothing is normalized.
    A P that is not rank(Mt) x rank(Ms), an entry of P, Ms or Mt that is
    not a Series and a w that is not an integer are refused with
    BadParameter, in that order, and then any entry of precision 0 raises
    PrecisionExhausted.
    Comparing ``smat_mul(P, Ms)`` with ``a_image(Mt, P)`` instead was slower
    on the ``fd`` workload, since it normalizes every entry of both sides.
    """
    if len(P) != len(target) or any(len(row) != len(source) for row in P):
        raise BadParameter(
            f"P must be {len(target)} x {len(source)}, rank(target) x rank(source)"
        )
    entries = [e for m in (P, source, target) for row in m for e in row]
    if not all(isinstance(e, Series) for e in entries):
        raise BadParameter("entries of P, Ms and Mt must be Series")
    _checked_count(w, "the order count")
    if not all(e.precision for e in entries):
        raise PrecisionExhausted("a series operand", 1, 0)
    p_row_w = [min(e.precision for e in row) for row in P]
    p_col_w = [min(e.precision for e in col) for col in zip(*P)]
    s_col_w = [min(e.precision for e in col) for col in zip(*source)]
    t_row_w = [min(e.precision for e in row) for row in target]
    wt = min(t_row_w)
    p_terms = [[e.terms for e in row] for row in P]
    s_terms = [[e.terms for e in row] for row in source]
    t_rows = [[(l, e.terms) for l, e in enumerate(row) if e.terms] for row in target]
    for i, prow in enumerate(p_terms):
        for j, cw in enumerate(p_col_w):
            top = min(w, p_row_w[i], s_col_w[j], wt + 1, t_row_w[i], cw)
            acc = {
                k + 1: [-k * c.re_num, -k * c.im_num, c.den]
                for k, c in prow[j]
                if k and k + 1 < top
            }
            for l, x in enumerate(prow):
                y = s_terms[l][j]
                if x and y:
                    _fold(acc, x, y, top)
            for l, x in t_rows[i]:
                y = p_terms[l][j]
                if y:
                    _fold(acc, x, y, top, -1)
            if any(a or b for a, b, _ in acc.values()):
                return False
    return True


def dense_back_substitute(lat: Lattice, work: list):
    quotients = []
    for (row, v), gen in zip(lat.pivots, lat.gens):
        entry = work[row]
        if entry.precision < v:
            raise PrecisionExhausted("column too shallow to reduce against pivot")
        q = _b_quotient(entry, v)
        quotients.append(q)
        if not q.is_zero():
            sub = dense_scaled_col_mul(q, list(gen), v)
            work = [x - y for x, y in zip(work, sub)]
    return work, quotients


def dense_lattice_from_columns(dim: int, columns, shift: int = 0, precision=None):
    """``lattice_from_columns`` with the dense column update."""
    cols = [list(c) for c in columns]
    if precision is None:
        precision = min((e.precision for c in cols for e in c), default=0)
    if precision < 1:
        raise PrecisionExhausted("lattice needs columns of precision >= 1")
    work = [[u.at_precision(precision) for u in c] for c in cols]
    for c in work:
        if len(c) != dim:
            raise ValueError("column length does not match the ambient rank")
    done, pivots = [], []
    while True:
        best = None
        for idx, col in enumerate(work):
            m = None
            for i, e in enumerate(col):
                val = e.valuation()
                if val is not None and (m is None or val < m[0]):
                    m = (val, i)
            if m is not None and (best is None or m < best[0]):
                best = (m, idx)
        if best is None:
            break
        (v, row), idx = best
        if v >= precision - 1:
            raise PrecisionExhausted("pivot valuation not safely below precision")
        col = work.pop(idx)
        unit_inv = col[row].shift_down(v).invert()
        norm = [
            (e.shift_down(v) * unit_inv).shift_up(v).at_precision(precision)
            if e.valuation() is not None
            else Series.zero(precision)
            for e in col
        ]
        norm[row] = Series.monomial(Scalar(1), v, precision)
        for group in (done, work):
            for other in group:
                q = _b_quotient(other[row], v)
                if q.is_zero():
                    continue
                sub = dense_scaled_col_mul(q, norm, v)
                for i in range(dim):
                    other[i] = (other[i] - sub[i]).at_precision(precision)
        done.append(norm)
        pivots.append((row, v))
    return Lattice(dim, shift, tuple(tuple(c) for c in done), tuple(pivots), precision)


def echelon_saturate(module: AbModule):
    """``saturate`` as written before it read stability off one
    back-substitution: each step echelonizes b L_k's generators with the
    a-image columns into L_{k+1}, compares the two lattices with ``==``,
    and the stable lattice's structure matrix comes from
    ``module_on_lattice``, which applies a a second time."""
    from abmod.invariants import SaturationResult
    from abmod.lattice import module_on_lattice, standard_lattice

    def one_step(lat):
        k = lat.shift
        image_cols = a_image(module.matrix, lat.gens, k)
        deeper = lat.at_shift(k + 1)
        w = min(deeper.precision, min(e.precision for c in image_cols for e in c))
        return lattice_from_columns(
            lat.dim, list(deeper.gens) + image_cols, shift=k + 1, precision=w
        )

    p = module.rank
    if module.precision < 2 * p + 2:
        raise PrecisionExhausted(
            f"saturation of a rank-{p} module needs precision >= {2 * p + 2}, "
            f"have {module.precision}"
        )
    current = standard_lattice(module)
    for step in range(p):
        nxt = one_step(current)
        if nxt == current:
            return SaturationResult(
                saturated=module_on_lattice(module, current),
                lattice=current,
                steps=step,
            )
        current = nxt
    raise NotRegular(
        f"saturation did not stabilize within {p} steps: the module is not regular"
    )


def batch_regularity_order(module: AbModule) -> int:
    """``regularity_order`` as first written: all p iterates a^k E up front,
    and each T_k = sum_{j<=k} b^{k-j+1} a^j E echelonized from its
    (k+1)*p columns."""
    if not is_regular(module):
        raise NotRegular("regularity order is defined for regular modules only")
    p = module.rank
    iterates = [[list(unit_element(module, i).coords) for i in range(p)]]
    for _ in range(p):
        iterates.append(a_image(module.matrix, iterates[-1]))
    for k in range(p):
        cols = []
        for j in range(k + 1):
            for col in iterates[j]:
                cols.append([entry.shift_up(k - j + 1) for entry in col])
        target = lattice_from_columns(p, cols, shift=0)
        if all(
            target.contains_column(iterates[k + 1][i], 0) for i in range(p)
        ):
            return k
    raise NotRegular(
        "no regularity order up to rank-1; inconsistent with a successful saturation"
    )


def eb_width_table(module: AbModule):
    """``width_table`` as first written: lambda_min per class from the
    spectrum of E^b itself, built by ``biggest_simple_pole``."""
    from abmod import biggest_simple_pole, saturate, spectrum
    from abmod.errors import HypothesisViolated
    from abmod.invariants import WidthTable, _class_rep

    upper = spectrum(saturate(module).saturated)
    lower = spectrum(biggest_simple_pole(module)[0])
    mins, maxs = {}, {}
    for s in lower:
        rep = _class_rep(s)
        if rep not in mins or s.re < mins[rep].re:
            mins[rep] = s
    for s in upper:
        rep = _class_rep(s)
        if rep not in maxs or s.re > maxs[rep].re:
            maxs[rep] = s
    if set(mins) != set(maxs):
        raise HypothesisViolated("spectra of E^b and E# occupy different classes mod Z")
    classes = {}
    for rep in sorted(mins, key=Scalar.sort_key):
        gap = maxs[rep].re - mins[rep].re
        if gap.denominator != 1:
            raise HypothesisViolated("extreme exponents of one class differ by a fraction")
        classes[rep] = (mins[rep], maxs[rep], int(gap))
    return WidthTable(classes)


def dual_width_table(module: AbModule):
    """``width_table`` as it read lambda_min through the dual: per class from
    S(E^b) = -S((E*)#), as E^b = ((E*)#)*, and the dual's matrix is
    M(-b)^T, so a simple-pole residue R turns into -R^T."""
    from abmod import dual
    from abmod.invariants import WidthTable

    upper = spectrum(saturate(module).saturated)
    lower = [-s for s in spectrum(saturate(dual(module)).saturated)]
    classes = {}
    mins: dict = {}
    maxs: dict = {}
    for s in lower:
        rep = _class_rep(s)
        if rep not in mins or s.re < mins[rep].re:
            mins[rep] = s
    for s in upper:
        rep = _class_rep(s)
        if rep not in maxs or s.re > maxs[rep].re:
            maxs[rep] = s
    if set(mins) != set(maxs):
        raise HypothesisViolated(
            "spectra of E^b and E# occupy different classes mod Z; "
            "this contradicts their theory — likely a precision fault"
        )
    for rep in sorted(mins, key=Scalar.sort_key):
        lo, hi = mins[rep], maxs[rep]
        gap = hi.re - lo.re
        if gap.denominator != 1:
            raise HypothesisViolated(
                "extreme exponents of one class do not differ by an integer"
            )
        classes[rep] = (lo, hi, int(gap))
    return WidthTable(classes)


def one_class_eigen_system(module: AbModule, mu: Scalar, extra: int = 0) -> IntertwinerSystem:
    """The kernel of a - mu*b on E, as the intertwiners from [[mu*b]] into E
    solved to the certified level max(mu - z_min, delta) + 2
    (``functors._eigenvector`` derives it) plus ``extra`` orders:
    ``invariants._eigen_system`` as it was written for one exponent."""
    w = module.precision
    gaps = [int((mu - z).re) for z in spectrum(saturate(module).saturated)
            if (mu - z).is_integer()]
    need = max(gaps + [delta_index(module)]) + 2 + extra
    if w < need:
        raise PrecisionExhausted(
            f"the eigenvector for exponent {mu} needs precision >= {need}, have {w}"
        )
    source = [[Series.monomial(mu, 1, w)]]
    return IntertwinerSystem(source, module.matrix, need).solve()


def per_class_width_table(module: AbModule):
    """``width_table`` as it solved one eigen-kernel per class mod Z, each
    from [[(z + delta)*b]] into E, before one system carried every class."""
    from abmod.invariants import WidthTable

    delta = delta_index(module)
    spans: dict = {}
    for s in spectrum(saturate(module).saturated):
        # sorted: a class's first exponent is its least, its last its largest
        spans.setdefault(_class_rep(s), [s, s])[1] = s
    classes = {}
    for rep in sorted(spans, key=Scalar.sort_key):
        lo, hi = spans[rep]
        if delta:
            system = one_class_eigen_system(module, lo + Scalar(delta), delta)
            homes = [system.home[pid] for pid in system.parameters_in_blocks(delta + 1)]
            if not homes:
                raise HypothesisViolated(
                    "no primitive eigenvector at most delta above the least "
                    "exponent of a class of E#: likely a precision fault"
                )
            lo = lo + Scalar(delta - max(homes))
        classes[rep] = (lo, hi, int((hi - lo).re))
    return WidthTable(classes)


def eb_primitive_eigen_element(module: AbModule, mu: Scalar):
    """The primitive mu-eigenvector as first found for the ``NonSplitAlpha``
    branch: the mu-eigenvector of E^b, built by ``biggest_simple_pole``,
    lifted and mapped into E, which is primitive there when its least
    valuation is 0; None when mu is not an exponent of E^b."""
    eb_module, eb_lattice = biggest_simple_pole(module)
    if all(v != mu for v in spectrum(eb_module)):
        return None
    coords, v = _eigen_coords(module, eb_module, eb_lattice, mu)
    if v != 0:
        return None
    return coords


# The rank-2 split test as it was before classify_rank2 read it off
# functors._eigenvector: the library's _has_primitive_eigen of that time,
# verbatim.  It solves to the resonance order gap + 2 and certifies the
# block-0 rank with one more order.


def _has_primitive_eigen(module: AbModule, c: Scalar, gap: int) -> bool:
    """Whether a primitive solution of (a - c*b)x = 0 exists, for c the
    larger exponent of a simple-pole module whose exponents differ by gap.

    With residue matrix R, order k of the equation reads
        (R - c + k - 1) x_{k-1} = -sum_{j >= 2} M_j x_{k-j},
    which is singular only at k = 1, putting x_0 in ker(R - c), and at
    k = gap + 1, where the matrix is R - (c - gap).  So after gap + 2 orders
    a nonzero x_0 survives exactly when that resonance is unobstructed, and
    no later order constrains x_0 again; the answer is certified by the
    same rank of block 0 after one more order.  The kernel is solved order
    by order, as the intertwiners from the rank-1 module [[c*b]] into E.
    """
    level = gap + 2
    if level + 1 > module.precision:
        raise PrecisionExhausted(
            "not enough precision for the primitive-eigenvector test"
        )
    source = [[Series.monomial(c, 1, module.precision)]]
    system = IntertwinerSystem(source, module.matrix, level).solve()
    first = echelon_rank_in_blocks(system, 0, 1)
    if echelon_rank_in_blocks(system.solve(level + 1), 0, 1) != first:
        raise PrecisionExhausted("primitive-eigenvector test did not stabilize")
    return first > 0



# The Jordan-Hoelder step as it was before it read its eigenvector off the
# kernel of a - mu*b on E: the residue eigenvector of E^b (built by
# biggest_simple_pole) for the least exponent of the chosen class, lifted on
# E^b and mapped into E.  _choose_class, _eigen_coords and _jh_step are the
# library's functions of that time, verbatim.


def _choose_class(values, policy: str):
    """Group eigenvalues into congruence classes and pick one per policy."""
    classes = {}
    for v in values:
        classes.setdefault(_class_rep(v), []).append(v)
    reps = sorted(classes, key=Scalar.sort_key)
    rep = reps[0] if policy == "lex" else reps[-1]
    return classes[rep]


def _eigen_coords(
    module: AbModule, simple: AbModule, lattice: Lattice, lam: Scalar
):
    """An x in a simple-pole module with a.x = lam*b*x exactly, lifted from
    a residue eigenvector for the exponent lam, and the least valuation of
    its coordinates.

    ``simple`` is the structure on ``lattice``, a lattice in E[b^-1] such as
    E^b (shift 0) or E# (shift K); the coordinates returned are those of x
    in the module's b^-K frame, so x is b^-K times them.
    """
    res = simple.residue_matrix()
    p = simple.rank
    shifted = [
        [res[i][j] - lam if i == j else res[i][j] for j in range(p)]
        for i in range(p)
    ]
    null = linalg.nullspace(shifted)
    seed = Element(
        [Series.monomial(v, 0, simple.precision) for v in null[0]], 0
    )
    lifted = eigen_lift(simple, lam, seed, 0)
    inner = lifted.in_frame(0)
    coords = []
    for i in range(module.rank):
        acc = Series.zero(lattice.precision)
        for j, g in enumerate(lattice.gens):
            acc = acc + g[i] * inner[j]
        coords.append(acc)
    vals = [c.valuation() for c in coords if not c.is_zero()]
    if not vals:
        raise HypothesisViolated("eigenvector mapped to zero in the module")
    return coords, min(vals)


def _jh_step(module: AbModule, policy: str):
    """One Jordan-Hoelder step: a primitive eigenvector realizing the
    smallest exponent of the chosen class, in the module's coordinates."""
    eb_module, eb_lattice = biggest_simple_pole(module)
    values = spectrum(eb_module)
    lam = min(_choose_class(values, policy), key=Scalar.sort_key)
    coords, v = _eigen_coords(module, eb_module, eb_lattice, lam)
    primitive = [c.shift_down(v) for c in coords]
    return primitive, lam - Scalar(v)


def ratio_eigen_data(module: AbModule, x: Element):
    """``functors._eigen_data`` as first written: lam is the b^1 coefficient
    of (a.x)_pivot / x_pivot, and two partial tests on that ratio come
    before the full test a.x = lam*b*x."""
    from abmod.errors import NotEigen, NotPrimitive

    z = x.normalize()
    if z.shift > 0:
        raise NotPrimitive("element does not lie in the module")
    coords = z.in_frame(0)
    pivot = next(
        (i for i, c in enumerate(coords) if c.valuation() == 0), None
    )
    if pivot is None:
        raise NotPrimitive("element lies in b.E")
    ax = a_image(module.matrix, [coords])[0]
    ratio = ax[pivot] * coords[pivot].invert()
    lam = ratio.coefficient(1)
    if not ratio.coefficient(0).is_zero():
        raise NotEigen("a.x has a nonzero constant component along x")
    if any(
        not ratio.coefficient(t).is_zero() for t in range(2, ratio.precision)
    ):
        raise NotEigen("a.x is not a constant multiple of b.x")
    b = Series.b(module.precision)
    for i in range(module.rank):
        if not (ax[i] - b * coords[i] * lam).is_zero():
            raise NotEigen("a.x is not lam*b*x")
    return coords, pivot, lam


# The rank-1 quotient as it was before it went through base_change: the
# library's _eigen_data and _quotient_with_pivot of that time, verbatim but
# for their names.  The eigen test is a.x = lam*b*x on the coordinates, and
# the quotient's entries are written out as M[l][m] - M[pivot][m]*x_l/x_pivot.


def hand_eigen_data(module: AbModule, x: Element):
    """Validate that x is primitive with a.x = lam*b*x; return (coords, pivot, lam).

    lam is read where it must sit if x is an eigenvector, the coefficient
    of b^1 in (a.x)_pivot over the unit constant term of x_pivot, and the
    one test a.x = lam*b*x decides."""
    from abmod.errors import NotEigen, NotPrimitive

    z = x.normalize()
    if z.shift > 0:
        raise NotPrimitive("element does not lie in the module")
    coords = z.in_frame(0)
    pivot = next(
        (i for i, c in enumerate(coords) if c.valuation() == 0), None
    )
    if pivot is None:
        raise NotPrimitive("element lies in b.E")
    ax = a_image(module.matrix, [coords])[0]
    lam = ax[pivot].coefficient(1) / coords[pivot].coefficient(0)
    b = Series.b(module.precision)
    for i in range(module.rank):
        if not (ax[i] - b * coords[i] * lam).is_zero():
            raise NotEigen("a.x is not lam*b*x")
    return coords, pivot, lam


def hand_quotient_with_pivot(module: AbModule, x: Element):
    """Quotient by the rank-1 submodule on x; also return pivot and exponent."""
    coords, pivot, lam = hand_eigen_data(module, x)
    p = module.rank
    inv = coords[pivot].invert()
    keep = [i for i in range(p) if i != pivot]
    rows = []
    for l in keep:
        factor = coords[l] * inv
        rows.append(
            [
                module.matrix[l][m] - module.matrix[pivot][m] * factor
                for m in keep
            ]
        )
    return AbModule(rows), pivot, lam


def hand_eigen_lift(module: AbModule, lam: Scalar, y: Element, kappa: int) -> Element:
    """``functors.eigen_lift`` as first written: the seed y is corrected order
    by order, the correction of b^k solving (R - lam + k) x_k = -r_{k+1} for
    the b^(k+1) coefficient r_{k+1} of the residual (a - lam*b)x, by rref of
    the augmented matrix.  The loop stops at k = W - 2, so only the
    coefficients below b^(W-1) are corrected; the one of b^(W-1) keeps the
    seed's value.  Raises HypothesisViolated where the library refuses a
    residual or a singular correction; the other hypotheses are the
    caller's."""
    from abmod.errors import HypothesisViolated

    p, w = module.rank, module.precision
    res = module.residue_matrix()
    b = Series.b(w)

    def residual(col):
        image = a_image(module.matrix, [col])[0]
        return [u - b * v * lam for u, v in zip(image, col)]

    x = list(y.normalize().in_frame(0))
    r = residual(x)
    if any(not c.coefficient(t).is_zero() for c in r for t in range(kappa + 2)):
        raise HypothesisViolated("residual of the seed is not divisible by b^(kappa+2)")
    for k in range(kappa + 1, w - 1):
        aug = [
            [res[i][j] + (Scalar(k) - lam if i == j else ZERO) for j in range(p)]
            + [-r[i].coefficient(k + 1)]
            for i in range(p)
        ]
        red, pivots = rref(aug)
        if pivots != list(range(p)):
            raise HypothesisViolated("correction system is singular")
        correction = [Series.monomial(row[p], k, w) for row in red]
        x = [u + v for u, v in zip(x, correction)]
        r = [u + v for u, v in zip(r, residual(correction))]
    return Element(x, 0)


def dense_hom_ab(E: AbModule, F: AbModule) -> AbModule:
    """``hom_ab`` with its entries summed by plain ``Series`` ``+``/``-``,
    empty series included."""
    pe, pf = E.rank, F.rank
    w = min(E.precision, F.precision)
    me = [[E.matrix[i][j].negate_variable().at_precision(w) for j in range(pe)]
          for i in range(pe)]
    mf = [[F.matrix[i][j].negate_variable().at_precision(w) for j in range(pf)]
          for i in range(pf)]
    q = pe * pf
    rows = [[Series.zero(w) for _ in range(q)] for _ in range(q)]
    for i in range(pf):
        for j in range(pe):
            r = i * pe + j
            for l in range(pe):
                rows[r][i * pe + l] = rows[r][i * pe + l] + me[l][j]
            for k in range(pf):
                rows[r][k * pe + j] = rows[r][k * pe + j] - mf[i][k]
    return AbModule(rows)


def flattened_ext_dims(E: AbModule, F: AbModule) -> tuple:
    """``ext_dims`` as it solved the flattened Hom: the kernel of a on
    H = hom_ab(E, F), as the intertwiners from the rank-1 module [[0]] into
    H, with the level from ``n_lambda(H, 0)``."""
    H = hom_ab(E, F)
    if not is_regular(E) or not is_regular(F):
        raise NotRegular("ext dimensions are certified for regular modules only")
    base = n_lambda(H, ZERO) + 2
    system = IntertwinerSystem([[Series.zero(H.precision)]], H.matrix, 0)
    d1 = len(system.solve(base).alive)
    d0 = echelon_rank_in_blocks(system.solve(base + 1), 0, base)
    if len(system.alive) != d1 or (
        echelon_rank_in_blocks(system.solve(base + 2), 0, base + 1) != d0
    ):
        raise PrecisionExhausted(
            "ext dimensions failed to stabilize at consecutive truncation levels"
        )
    return d0, d1


# n_lambda as it was before it solved to its certified level once: the
# library's function of that time, verbatim but for its name.  It pads the
# level by two orders and certifies the answer with one more.


def two_level_n_lambda(module: AbModule, lam, *, _system: IntertwinerSystem = None) -> int:
    """The smallest N with b^N E inside (a - lam b) E.

    Decided on truncations at the sufficient level (lam - lambda_min of the
    class) + delta + 2, lambda_min as width_table reads it
    (falling back to delta + rank + 2 when lam's class is absent from the
    spectra), plus margin; the answer must agree at two consecutive levels.
    On E/b^w E it is the least N with k_N = k_w, where k_N = dim ker(a - lam
    b) on E/b^N E: a - lam b preserves b^N E, so b^N E lies in its image mod
    b^w exactly when its cokernels mod b^N and mod b^w have equal dimension.
    k_N is the live parameter count of one intertwiner system from [[lam b]]
    into E, grown order by order.  lam is anything ``Scalar.of`` takes.

    ``_system`` is private to ext_dims: an unsolved system grown in place
    of the [[lam b]] -> E one, whose live count after N orders is also k_N.
    For E = Hom(E', F') and lam = 0, ext_dims passes the E' -> F'
    intertwiners.
    """
    lam = Scalar.of(lam)
    table = width_table(module)
    delta = delta_index(module)
    rep = _class_rep(lam)
    if rep in table.classes:
        lo = table.classes[rep][0]
        gap = lam.re - lo.re
        base = int(gap) if gap.denominator == 1 and gap > 0 else 0
        w = base + delta + 2
    else:
        w = delta + module.rank + 2
    w += 2
    source = [[Series.monomial(lam, 1, module.precision)]]
    system = _system or IntertwinerSystem(source, module.matrix, 0)
    dims = [0] + [len(system.solve(n).alive) for n in range(1, w + 2)]
    first = dims.index(dims[w])
    second = dims.index(dims[w + 1])
    if first != second:
        raise PrecisionExhausted(
            f"n_lambda unstable across levels {w} and {w + 1}: {first} vs {second}"
        )
    return first


# The NonSplitAlpha reading as it was before it solved its eigenvector to the
# n + 3 + delta orders alpha needs: the library's _eigenvector and
# _alpha_from_presentation of that time, verbatim but for their names.  The
# eigenvector, the base change and the unit normalizer run at all W orders.


def _full_precision_eigenvector(module: AbModule, mu: Scalar):
    """A primitive x in E with a.x = mu*b*x, in E's coordinates; None when
    no solution of (a - mu*b)x = 0 has x_0 != 0.

    The kernel is solved as the intertwiners from [[mu*b]] into E.  On E#,
    with residue R#, order k of (b^-1 a - mu)y = 0 has the matrix
    R# + k - mu, invertible once k > mu - z_min, z_min E#'s least exponent
    in mu's class.  So from level max(mu - z_min, delta) + 2 on, a solution
    mod b^level agrees with an exact eigenvector mod b^(level-1) E#, which
    lies in b^(level-1-delta) E, and block 0 has its true rank: the answer
    None is read there.  On a simple pole (delta = 0) with exponents mu and
    mu - gap that level is gap + 2, the resonance order.  Otherwise the
    system resumes to the W orders E knows, and x is the solution with the
    lowest block-0 parameter 1 and every other parameter 0, known to
    precision W - 1 - delta.
    """
    w = module.precision
    delta = delta_index(module)
    gaps = [int((mu - z).re) for z in spectrum(saturate(module).saturated)
            if (mu - z).is_integer()]
    need = max(gaps + [delta]) + 2
    if w < need:
        raise PrecisionExhausted(
            f"the eigenvector for exponent {mu} needs precision >= {need}, have {w}"
        )
    source = [[Series.monomial(mu, 1, w)]]
    system = IntertwinerSystem(source, module.matrix, need).solve()
    if not scanning_parameters_in_blocks(system, 0, 1):
        return None
    params = scanning_parameters_in_blocks(system.solve(w), 0, 1)
    return [row[0].at_precision(w - 1 - delta)
            for row in system.series_matrix({params[0]: ONE})]


def unit_normalizer(g: Series, lam: Scalar) -> Series:
    """``functors._unit_normalizer`` as first written, verbatim.

    The unit u with u*g + b^2*u' = lam*b*u, i.e. u = exp(int (lam*b-g)/b^2):
    the rank-1 intertwiner from [[lam*b]] into [[g]] with constant term 1,
    known to precision g.precision - 1.

    Requires g to have residue coefficient lam (so the integrand is regular);
    otherwise the prescribed constant term is inconsistent.
    """
    seed = Element([Series.one(g.precision)], 0)
    return eigen_lift(AbModule([[g]]), lam, seed, 0).coords[0]


def _normalizing_jh_recurse(module: AbModule, policy: str):
    """``functors._jh_recurse`` as first written, verbatim: its rank-1 base
    case ends the generators with the unit normalizer of the quotient."""
    from abmod.functors import _jh_step, _quotient_with_pivot

    if module.rank == 1:
        g = module.matrix[0][0]
        lam = module.residue_matrix()[0][0]
        u = unit_normalizer(g, lam)
        return [lam], [[u]]
    primitive, exponent = _jh_step(module, policy)
    quotient, pivot, lam = _quotient_with_pivot(
        module, Element(primitive, 0)
    )
    if lam != exponent:
        raise HypothesisViolated("exponent mismatch in the Jordan-Hoelder step")
    sub_exps, sub_gens = _normalizing_jh_recurse(quotient, policy)
    w = min(c.precision for c in primitive)
    lifted_gens = [primitive]
    for g in sub_gens:
        col = []
        k = 0
        for i in range(module.rank):
            if i == pivot:
                col.append(Series.zero(w))
            else:
                col.append(g[k])
                k += 1
        lifted_gens.append(col)
    return [exponent] + sub_exps, lifted_gens


def normalizing_jordan_holder(module: AbModule, policy: str = "lex"):
    """``functors.jordan_holder`` on ``_normalizing_jh_recurse``."""
    from abmod.functors import _JH_POLICIES, JHSequence

    if policy not in _JH_POLICIES:
        raise BadParameter("unknown class-choice policy: %r" % (policy,))
    if not is_regular(module):
        raise NotRegular("Jordan-Hoelder sequences exist for regular modules")
    exps, gens = _normalizing_jh_recurse(module, policy)
    lattices = []
    cols = []
    for g in gens:
        cols.append(g)
        lattices.append(
            lattice_from_columns(module.rank, [list(c) for c in cols], shift=0)
        )
    return JHSequence(tuple(exps), tuple(lattices))


def full_precision_alpha(module: AbModule, lam: Scalar, n: int) -> Scalar:
    """Read alpha off by renormalizing to a.t = y + (lam-1)*b*t + alpha*b^n*y."""
    mu = lam - Scalar(n)
    y = _full_precision_eigenvector(module, mu)
    if y is None:
        raise HypothesisViolated(
            "no primitive eigenvector for the expected exponent"
        )
    pivot = next(i for i, c in enumerate(y) if c.valuation() == 0)
    other = 1 - pivot
    w = min(c.precision for c in y)
    zero = Series.zero(w)
    one = Series.one(w)
    basis = [
        [y[0], one if other == 0 else zero],
        [y[1], one if other == 1 else zero],
    ]
    changed = base_change(module, basis).matrix
    if not changed[1][0].is_zero():
        raise HypothesisViolated("eigen column of the changed basis is impure")
    g = changed[1][1]
    if g.coefficient(1) != lam - ONE:
        raise HypothesisViolated("quotient exponent is not lam - 1")
    u = unit_normalizer(g, lam - ONE)
    h = u * changed[0][1]
    c0 = h.coefficient(0)
    if c0.is_zero():
        raise HypothesisViolated("the extension coefficient is not a unit")
    if n >= h.precision:
        raise PrecisionExhausted(f"the coefficient of b^{n}", n + 1, h.precision)
    alpha = h.coefficient(n) / c0
    if alpha.is_zero():
        raise HypothesisViolated("twisted normal form with alpha = 0")
    return alpha


# ---------------------------------------------------------------------------
# rank and parameter queries of an intertwiner system, by scanning its blocks
# ---------------------------------------------------------------------------
# ``IntertwinerSystem.parameters_in_blocks`` and ``rank_in_blocks`` as they
# were before they counted live parameters by home block: a scan of the
# blocks' keys, and the ranks of one echelon form of their coefficients.


def scanning_parameters_in_blocks(system, lo: int, hi: int):
    """Free parameters genuinely appearing in blocks lo..hi-1."""
    found = set()
    for k in range(lo, min(hi, len(system.blocks))):
        for row in system.blocks[k]:
            for entry in row:
                for key in entry:
                    if key != CONST:
                        found.add(key)
    return sorted(found)


def echelon_block_ranks(system, lo: int, hi: int):
    """For k = lo..hi-1, the rank of the linear map from the free
    parameters of blocks lo..hi-1 to blocks lo..k, all from one echelon
    form; entries stop being added once the rank reaches the parameter
    count.  A parameter absent from blocks lo..k adds a zero column
    there, so each value is also the rank over the parameters of blocks
    lo..k alone."""
    params = scanning_parameters_in_blocks(system, lo, hi)
    span = Echelon()
    for k in range(lo, hi):
        for e in (e for row in system.blocks[k] for e in row if e):
            if len(span.pivots) == len(params):
                break
            span.add([_make(*e[pid]) if pid in e else ZERO for pid in params])
        yield len(span.pivots)


def echelon_rank_in_blocks(system, lo: int, hi: int) -> int:
    """Rank of the linear map from the free parameters to blocks lo..hi-1."""
    rank = 0
    for rank in echelon_block_ranks(system, lo, hi):
        pass
    return rank


# ---------------------------------------------------------------------------
# isomorphism and finite determination by a fresh, full solve
# ---------------------------------------------------------------------------


def fresh_free_lift(e: AbModule, ep: AbModule, N: int, W: int, slack: int, seed: int):
    """``_free_lift`` as first written: a fresh system solved to all W
    orders, find_invertible, then the rigidity ranks by two echelon passes."""
    from abmod.determination import Intertwiner
    from abmod.errors import HypothesisViolated, NoLift, NonUniqueLift
    from abmod.morphisms import IntertwinerSystem, find_invertible, verify_intertwiner

    system = IntertwinerSystem(e.matrix, ep.matrix, W).solve()
    values = find_invertible(system, seed)
    if values is None:
        raise NoLift(
            "the modules are not isomorphic: every solution of the "
            "intertwining system has a singular constant term"
        )
    if two_pass_rigidity_violation(system, N, W - slack):
        raise NonUniqueLift(
            "distinct isomorphisms induce the same map at this truncation level"
        )
    mat = system.series_matrix(values)
    if not verify_intertwiner(e.matrix, ep.matrix, mat, W):
        raise HypothesisViolated("constructed lift failed verification")
    return Intertwiner("module", _freeze(mat), W)


def dense_lift_truncation_iso(
    e: AbModule,
    ep: AbModule,
    phi,
    N: int,
    W: int = None,
    seed: int = 0,
):
    """``lift_truncation_iso`` as first written: phi, the series matrix
    mod b^N of ``lift_truncation_iso``, is turned into its dense pN x pN
    block-Toeplitz matrix T (``_toeplitz_from_blocks``) and checked on the
    two dense truncations (``_commutes`` and the determinant of T), and a
    consistent prescribed system is certified by its own test, "no free
    parameter in blocks 0..W-slack-1", before the free lift."""
    from abmod import linalg
    from abmod.determination import (
        Intertwiner,
        _default_lift_precision,
        _free_lift,
        _freeze,
        _slack,
        truncate,
    )
    from abmod.errors import BadParameter, HypothesisViolated, NonUniqueLift
    from abmod.morphisms import verify_intertwiner

    if e.rank != ep.rank:
        raise BadParameter("module ranks differ")
    if not is_regular(e):
        raise NotRegular("lifting is certified for regular modules")
    if N < 1:
        raise BadParameter("truncation level must be at least 1")
    p = e.rank
    if phi.kind != "module" or phi.order != N or len(phi.matrix) != p or any(
            len(row) != p or not all(isinstance(x, Series) and x.precision >= N
                                     for x in row) for row in phi.matrix):
        raise BadParameter("phi is not an intertwiner of the N-truncations")
    blocks = [[[x.coefficient(m) for x in row] for row in phi.matrix] for m in range(N)]
    qe = truncate(e, N)
    qp = truncate(ep, N)
    t = _toeplitz_from_blocks(blocks, p, N)
    if not _commutes(t, qe, qp) or linalg.det(t).is_zero():
        raise BadParameter("phi is not a verified truncation isomorphism")
    slack = _slack(e)
    if W is None:
        W = _default_lift_precision(e, N)
    if W <= N:
        raise BadParameter("lifting precision must exceed the truncation level")
    if W - slack <= N:
        raise PrecisionExhausted(f"the lifting window above level {N}", N + slack + 1, W)
    if W > min(e.precision, ep.precision):
        raise PrecisionExhausted(f"an intertwiner mod b^{W}", W,
                                 min(e.precision, ep.precision))
    strict = ScalarIntertwinerSystem(e.matrix, ep.matrix, W,
                                     fixed=dict(enumerate(blocks))).solve()
    if strict is not None:
        if scanning_parameters_in_blocks(strict, 0, W - slack):
            raise NonUniqueLift(
                "the congruence-constrained solution space is not a single point"
            )
        mat = strict.series_matrix({})
        if not verify_intertwiner(e.matrix, ep.matrix, mat, W):
            raise HypothesisViolated("constructed lift failed verification")
        return Intertwiner("module", _freeze(mat), W)
    system = IntertwinerSystem(e.matrix, ep.matrix, W)
    return _free_lift(system, e, ep, N, W, slack, seed)


def _toeplitz_from_blocks(blocks, p: int, n: int):
    t = [[ZERO] * (p * n) for _ in range(p * n)]
    for m, block in enumerate(blocks):
        for l in range(p):
            for i in range(p):
                v = block[l][i]
                if v.is_zero():
                    continue
                for j in range(n - m):
                    t[l * n + j + m][i * n + j] = v
    return t


def _commutes(t, q, qp) -> bool:
    a = [list(row) for row in q.A]
    b = [list(row) for row in q.B]
    ap = [list(row) for row in qp.A]
    bp = [list(row) for row in qp.B]
    return linalg.mat_mul(t, a) == linalg.mat_mul(ap, t) and linalg.mat_mul(
        t, b
    ) == linalg.mat_mul(bp, t)


def standard_form(q):
    """``determination._standard_form`` as first written, verbatim, so that
    ``dense_quotient_iso`` does not share its code.

    Recover (rank, level, structure coefficients, change of basis).

    Finds a basis on which B is the standard shift and A the standard
    truncated action; raises BadParameter when the pair is not the
    truncation of a free module on any basis.
    """
    dim = q.dim
    b = [list(row) for row in q.B]
    a = [list(row) for row in q.A]
    power = linalg.identity(dim)
    level = None
    for t in range(1, dim + 1):
        power = linalg.mat_mul(b, power)
        if all(x.is_zero() for row in power for x in row):
            level = t
            break
    if level is None:
        raise BadParameter("b-action is not nilpotent")
    if dim % level:
        raise BadParameter("dimension is not divisible by the b-nilpotency order")
    p = dim // level
    span = linalg.Echelon(linalg.transpose(b))
    units = linalg.identity(dim)
    reps = []
    for r in range(dim):
        if span.add(units[r]) is not None:
            reps.append(r)
        if len(reps) == p:
            break
    if len(reps) < p:
        raise BadParameter("could not complete a basis modulo the image of b")
    cols = []
    for r in reps:
        vec = units[r]
        for _ in range(level):
            cols.append(vec)
            vec = linalg.mat_vec(b, vec)
    change = [[cols[c][r] for c in range(dim)] for r in range(dim)]
    inv = linalg.inverse(change)
    if inv is None:
        raise BadParameter("b-orbits of the chosen representatives are dependent")
    abar = linalg.mat_mul(inv, linalg.mat_mul(a, change))
    coeffs = [
        [[abar[l * level + t][i * level] for i in range(p)] for l in range(p)]
        for t in range(level)
    ]
    series = [
        [
            Series([coeffs[t][l][i] for t in range(level)], level)
            for i in range(p)
        ]
        for l in range(p)
    ]
    rebuilt = truncate(AbModule(series), level)
    if _freeze(abar) != rebuilt.A:
        raise BadParameter(
            "the (A, B) pair is not the truncation of a module presentation"
        )
    return p, level, series, change, inv


def dense_quotient_iso(q, qp, seed: int = 0):
    """``quotient_iso`` as first written: T is built from the blocks of the
    solved system and checked on the two quotients by four dense products
    (``_commutes``) and a dense determinant."""
    from abmod.determination import Intertwiner, _freeze
    from abmod.morphisms import find_invertible

    if q.dim != qp.dim:
        raise BadParameter("quotient dimensions differ")
    p, n, series, _, inv_change = standard_form(q)
    pp, np_, series_p, change_p, _ = standard_form(qp)
    if p != pp or n != np_:
        return None
    system = IntertwinerSystem(series, series_p, n).solve_until_singular()
    values = None if system is None else find_invertible(system, seed)
    if values is None:
        return None
    blocks = [system.block_matrix(k, values) for k in range(n)]
    t_std = _toeplitz_from_blocks(blocks, p, n)
    t = linalg.mat_mul(change_p, linalg.mat_mul(t_std, inv_change))
    if not _commutes(t, q, qp) or linalg.det(t).is_zero():
        raise HypothesisViolated("constructed intertwiner failed verification")
    return Intertwiner("quotient", _freeze(t), n)


def two_pass_rigidity_violation(system, N: int, hi: int) -> bool:
    """``_free_lift``'s rigidity test, rank_in_blocks(hi) > rank_in_blocks(N),
    as two independent echelon rank computations."""
    return echelon_rank_in_blocks(system, 0, hi) > echelon_rank_in_blocks(system, 0, N)


def fresh_module_iso(e: AbModule, ep: AbModule, W: int = None, seed: int = 0):
    """``module_iso`` as first written: the saturation spectra first, then a
    fresh system solved to all W orders and find_invertible."""
    from abmod.determination import Intertwiner, _freeze, _saturation_spectra_differ
    from abmod.errors import BadParameter, HypothesisViolated
    from abmod.morphisms import IntertwinerSystem, find_invertible, verify_intertwiner

    if e.rank != ep.rank:
        raise BadParameter("module ranks differ")
    if W is None:
        W = min(e.precision, ep.precision)
    if W < 1:
        raise BadParameter("precision must be at least 1")
    if W > min(e.precision, ep.precision):
        raise PrecisionExhausted(f"an intertwiner mod b^{W}", W,
                                 min(e.precision, ep.precision))
    if _saturation_spectra_differ(e, ep):
        return None
    system = IntertwinerSystem(e.matrix, ep.matrix, W).solve()
    if system is None:
        return None
    values = find_invertible(system, seed)
    if values is None:
        return None
    mat = system.series_matrix(values)
    if not verify_intertwiner(e.matrix, ep.matrix, mat, W):
        raise HypothesisViolated("constructed intertwiner failed verification")
    return Intertwiner("module", _freeze(mat), W)


def fresh_verify_fd(module: AbModule, trials: int, seed: int, lo: int = None) -> dict:
    """``verify_fd`` as first written: every trial solves a fresh system
    E -> E' to all W orders (``fresh_free_lift``)."""
    import random

    from abmod import n0_bound
    from abmod.determination import _default_lift_precision, _perturb, _slack
    from abmod.errors import NoLift, NonUniqueLift

    if not is_regular(module):
        raise NotRegular("finite determination applies to regular modules")
    n0 = n0_bound(module)
    if lo is None:
        lo = n0
    slack = _slack(module)
    W = _default_lift_precision(module, lo)
    if W > module.precision:
        raise PrecisionExhausted(
            f"the certification window above level {lo}", W, module.precision
        )
    rng = random.Random(seed)
    failures = []
    for trial in range(trials):
        perturbed = _perturb(module, rng, lo)
        try:
            fresh_free_lift(module, perturbed, lo, W, slack, seed + trial)
        except (NoLift, NonUniqueLift) as err:
            witness = [
                [str(perturbed.matrix[i][j] - module.matrix[i][j])
                 for j in range(module.rank)]
                for i in range(module.rank)
            ]
            failures.append(
                {"trial": trial, "error": type(err).__name__, "witness": witness}
            )
    return {
        "rank": module.rank,
        "n0": n0,
        "lo": lo,
        "trials": trials,
        "successes": trials - len(failures),
        "failures": failures,
    }


# ---------------------------------------------------------------------------
# the intertwiner solver with every partial sum normalized
# ---------------------------------------------------------------------------


def _aff_add_scaled(target: dict, expr: dict, c: Scalar) -> None:
    """target += c * expr, Scalar by Scalar, dropping cancelled keys."""
    if c.is_zero():
        return
    for key, val in expr.items():
        add = val if c.is_one() else val * c
        cur = target.get(key)
        if cur is None:
            if not add.is_zero():
                target[key] = add
        else:
            cur = cur + add
            if cur.is_zero():
                del target[key]
            else:
                target[key] = cur


def prescribed_blocks(prefix):
    """The {order: block} dict that a Series matrix prescribes: its
    coefficient blocks below its entries' least precision (None for None)."""
    if prefix is None:
        return None
    n = min(x.precision for row in prefix for x in row)
    return {k: [[x.coefficient(k) for x in row] for row in prefix] for k in range(n)}


def triple_blocks(blocks):
    """Blocks of affine entries with Scalar coefficients, with each
    coefficient as its normalized (re, im, den) triple, the form the package
    stores."""
    return [[[{key: (c.re_num, c.im_num, c.den) for key, c in entry.items()}
              for entry in row] for row in block] for block in blocks]


class ScalarIntertwinerSystem(IntertwinerSystem):
    """``IntertwinerSystem`` as first written, standing alone with Scalar
    block entries: its own solve loop builds each equation entry, picks the
    pivot, substitutes and evaluates with a normalized Scalar for every
    partial product and partial sum, where the package sums raw integer
    triples over precompiled stencils and normalizes once per coefficient.
    Only the package's input checks, ``retargeted``'s copy and the methods
    that read no coefficient are inherited.  The elimination order is the
    package's, so after every order the package's ``blocks`` must equal
    ``triple_blocks`` of these, and ``occurrences`` and ``alive`` agree.
    Low-order blocks are prescribed as first written, by a dict
    {order: block of Scalars}; ``prescribed_blocks`` turns the package's
    series prefix into that dict."""

    def __init__(self, source, target, w: int, fixed=None):
        super().__init__(source, target, w)
        self.fixed = dict(fixed or {})

    def _new_block(self, k: int) -> None:
        if k in self.fixed:
            mat = self.fixed[k]
            block = [
                [
                    {CONST: mat[i][j]} if not mat[i][j].is_zero() else {}
                    for j in range(self.pe)
                ]
                for i in range(self.pf)
            ]
        else:
            block = []
            for i in range(self.pf):
                row = []
                for j in range(self.pe):
                    pid = len(self.home)
                    self.home.append(k)
                    self.alive.add(pid)
                    self.occurrences[pid] = {(k, i, j)}
                    row.append({pid: ONE})
                block.append(row)
        self.blocks.append(block)

    def solve(self, w: int = None):
        w = self.w if w is None else w
        if w > self.precision:
            raise PrecisionExhausted(f"an intertwiner mod b^{w}", w, self.precision)
        if w < len(self.blocks):
            raise BadParameter("a system cannot be solved back to fewer orders")
        self.w = w
        if not self._consistent:
            return None
        for k in range(len(self.blocks), self.w):
            if self._singular():
                return None
            self._new_block(k)
            for i in range(self.pf):
                for j in range(self.pe):
                    if not self._eliminate(self._equation_entry(k, i, j)):
                        self._consistent = False
                        return None
        return None if self._singular() else self

    def _substitute(self, pid: int, replacement: dict) -> None:
        for (k, i, j) in self.occurrences.pop(pid):
            entry = self.blocks[k][i][j]
            c = entry.pop(pid, None)
            if c is None:
                continue
            _aff_add_scaled(entry, replacement, c)
            for key in replacement:
                if key != CONST:
                    self.occurrences[key].add((k, i, j))
        self.alive.discard(pid)

    def _equation_entry(self, k: int, i: int, j: int) -> dict:
        expr = {}
        blocks = self.blocks
        for l in range(self.pe):
            for t, c in self.ms[l][j]:
                if t > k:
                    break
                _aff_add_scaled(expr, blocks[k - t][i][l], c)
        for l in range(self.pf):
            for t, c in self.mt[i][l]:
                if t > k:
                    break
                _aff_add_scaled(expr, blocks[k - t][l][j], -c)
        if k >= 2:
            _aff_add_scaled(expr, self.blocks[k - 1][i][j], Scalar(1 - k))
        return expr

    def _eliminate(self, expr: dict) -> bool:
        params = [key for key in expr if key != CONST]
        if not params:
            return CONST not in expr
        pid = max(params)
        inv = expr[pid].inverse()
        replacement = {
            key: -(val * inv) for key, val in expr.items() if key != pid
        }
        self._substitute(pid, replacement)
        return True

    def block_matrix(self, k: int, values: dict):
        def evaluate(expr):
            acc = expr.get(CONST, ZERO)
            for key, coeff in expr.items():
                if key != CONST:
                    acc = acc + coeff * values.get(key, ZERO)
            return acc

        return [[evaluate(entry) for entry in row] for row in self.blocks[k]]

    def series_matrix(self, values: dict):
        coeffs = [self.block_matrix(k, values) for k in range(self.w)]
        return [
            [Series([block[i][j] for block in coeffs], self.w) for j in range(self.pe)]
            for i in range(self.pf)
        ]
