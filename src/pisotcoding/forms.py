"""Associated integral forms, conjugacy certificates, and power classification.

Matrices are tuples of tuples of Python ints, so all determinants and
products are arbitrary precision.  The associated form of M is
f_M(n) = det B_M(n), reported exactly with no sign normalization.
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass
from fractions import Fraction

import numpy as np

from . import polyops
from .errors import CharPolyMismatch, NotConjugatePair, NotUnimodular
from .numberfield import MinimalPolynomial, make_field
from .polyops import mat_det


def mat(rows):
    rows = tuple(tuple(int(x) for x in r) for r in rows)
    n = len(rows)
    if any(len(r) != n for r in rows):
        raise ValueError("matrix must be square")
    return rows


def identity(m):
    return tuple(tuple(1 if i == j else 0 for j in range(m)) for i in range(m))


def mat_mul(a, b):
    n = len(a)
    bt = list(zip(*b))
    return tuple(tuple(sum(x * y for x, y in zip(row, col)) for col in bt) for row in a)


def mat_vec(a, v):
    return tuple(sum(x * y for x, y in zip(row, v)) for row in a)


def mat_scale(a, c):
    return tuple(tuple(c * x for x in row) for row in a)


def mat_add(a, b):
    return tuple(tuple(x + y for x, y in zip(ra, rb)) for ra, rb in zip(a, b))


def mat_pow(a, n):
    m = len(a)
    if n < 0:
        raise ValueError("negative matrix power not supported here")
    acc = identity(m)
    base = a
    while n:
        if n & 1:
            acc = mat_mul(acc, base)
        base = mat_mul(base, base)
        n >>= 1
    return acc


def char_poly_k(M):
    """k-vector of det(xI - M) = x^m - k1 x^(m-1) - ... - km, by exact
    cofactor expansion with memoized minors (fine for m <= 8)."""
    M = mat(M)
    m = len(M)
    entries = [
        [([-M[i][j], 1] if i == j else [-M[i][j]]) for j in range(m)] for i in range(m)
    ]

    memo = {}

    def minor(rows, cols):
        if not rows:
            return [1]
        key = (rows, cols)
        got = memo.get(key)
        if got is not None:
            return got
        i = rows[0]
        rest = rows[1:]
        acc = []
        for pos, j in enumerate(cols):
            e = entries[i][j]
            if e == [0]:
                continue
            sub = minor(rest, cols[:pos] + cols[pos + 1:])
            term = polyops.poly_mul(e, sub)
            if pos % 2:
                term = [-t for t in term]
            acc = polyops.poly_sub(acc, [-t for t in term])
        memo[key] = acc
        return acc

    cp = minor(tuple(range(m)), tuple(range(m)))
    cp = [int(c) for c in cp] + [0] * (m + 1 - len(cp))
    # cp ascending with leading 1; k_i = -cp[m-i]
    return tuple(-cp[m - i] for i in range(1, m + 1))


def companion_matrix(field_or_k):
    k = field_or_k.min_poly.k if hasattr(field_or_k, "min_poly") else tuple(field_or_k)
    m = len(k)
    rows = [tuple(k)]
    for i in range(1, m):
        rows.append(tuple(1 if j == i - 1 else 0 for j in range(m)))
    return tuple(rows)


def _k_for(M, field=None):
    k = char_poly_k(M)
    if field is not None and tuple(field.min_poly.k) != k:
        raise CharPolyMismatch(f"char poly k={k} does not match the field {field.min_poly.k}")
    return k


def b_matrix(M, n, field=None):
    """Columns M n, (M^2 - k1 M) n, ..., k_m n of the semiconjugation family."""
    M = mat(M)
    k = _k_for(M, field)
    m = len(M)
    n = tuple(int(x) for x in n)
    if len(n) != m:
        raise ValueError("vector length mismatch")
    cols = [mat_vec(M, n)]
    for j in range(1, m):
        nxt = mat_vec(M, cols[-1])
        nxt = tuple(x - k[j - 1] * c1 for x, c1 in zip(nxt, cols[0]))
        cols.append(nxt)
    expected_last = tuple(k[m - 1] * x for x in n)
    if cols[-1] != expected_last:
        raise AssertionError("Cayley-Hamilton check failed in b_matrix")
    return tuple(tuple(cols[j][i] for j in range(m)) for i in range(m))


def form_eval(M, n, field=None):
    """Associated form value f_M(n) = det B_M(n), exact."""
    return mat_det(b_matrix(M, n, field))


def _monomials(m):
    out = [e for e in itertools.product(range(m + 1), repeat=m) if sum(e) == m]
    out.sort(reverse=True)
    return out


def _solve_coefficients(points_values, monos, m):
    # incremental exact Gaussian elimination over the evaluation rows
    ncols = len(monos)
    rows = []
    rhs = []
    pivots = {}
    for pt, val in points_values:
        row = [Fraction(1)] * ncols
        for ci, e in enumerate(monos):
            acc = Fraction(1)
            for x, p in zip(pt, e):
                acc *= Fraction(x) ** p
            row[ci] = acc
        b = Fraction(val)
        for col, (prow, pb) in pivots.items():
            f = row[col]
            if f:
                row = [x - f * y for x, y in zip(row, prow)]
                b -= f * pb
        lead = next((i for i, x in enumerate(row) if x != 0), None)
        if lead is None:
            continue
        inv = 1 / row[lead]
        row = [x * inv for x in row]
        b *= inv
        pivots[lead] = (row, b)
        if len(pivots) == ncols:
            break
    if len(pivots) != ncols:
        raise AssertionError("interpolation system is rank deficient")
    coeffs = [Fraction(0)] * ncols
    for col in sorted(pivots, reverse=True):
        row, b = pivots[col]
        s = b - sum(row[j] * coeffs[j] for j in range(col + 1, ncols))
        coeffs[col] = s
    return coeffs


def form_expand(M, field=None):
    """Monomial expansion of f_M for m <= 4: list of (exponent tuple, int coeff)."""
    M = mat(M)
    m = len(M)
    if m > 4:
        raise ValueError("symbolic expansion supported for m <= 4 only")
    k = _k_for(M, field)
    monos = _monomials(m)

    def values():
        for pt in itertools.product(range(m + 1), repeat=m):
            yield pt, form_eval(M, pt)

    coeffs = _solve_coefficients(values(), monos, m)
    out = []
    for e, c in zip(monos, coeffs):
        if c.denominator != 1:
            raise AssertionError("form coefficients must be integers")
        if c != 0:
            out.append((e, int(c)))
    return out


def evaluate_expansion(expansion, v):
    total = 0
    for e, c in expansion:
        term = c
        for x, p in zip(v, e):
            term *= x ** p
        total += term
    return total


def search_unimodular(M, height, field=None, first_only=False):
    """All n with max-norm <= height and |f_M(n)| = 1, in lexicographic order.

    Exhaustive enumeration of the box; complexity (2*height+1)^m.  For
    m <= 4 a vectorized path evaluates the expanded form when the values
    provably fit in int64.
    """
    M = mat(M)
    m = len(M)
    _k_for(M, field)
    if m <= 4:
        expansion = form_expand(M, field)
        count = (2 * height + 1) ** m
        maxval = sum(abs(c) * (height ** m if height else 1) for _, c in expansion)
        if count > 200000 and maxval < 2 ** 62 and not first_only:
            return _search_vectorized(expansion, m, height)
        out = []
        for n in itertools.product(range(-height, height + 1), repeat=m):
            if not any(n):
                continue
            if abs(evaluate_expansion(expansion, n)) == 1:
                out.append((n, evaluate_expansion(expansion, n)))
                if first_only:
                    return out
        return out
    out = []
    for n in itertools.product(range(-height, height + 1), repeat=m):
        if not any(n):
            continue
        val = form_eval(M, n)
        if abs(val) == 1:
            out.append((n, val))
            if first_only:
                return out
    return out


def _search_vectorized(expansion, m, height):
    rng = np.arange(-height, height + 1, dtype=np.int64)
    grids = np.meshgrid(*([rng] * m), indexing="ij")
    total = np.zeros(grids[0].shape, dtype=np.int64)
    for e, c in expansion:
        term = np.full(grids[0].shape, int(c), dtype=np.int64)
        for g, p in zip(grids, e):
            for _ in range(p):
                term = term * g
        total += term
    hits = np.argwhere(np.abs(total) == 1)
    out = []
    for idx in hits:
        n = tuple(int(rng[i]) for i in idx)
        if any(n):
            out.append((n, int(total[tuple(idx)])))
    out.sort()
    return out


def conjugacy_certificate(M, n, field=None):
    """B = B_M(n) with B M_beta = M B and |det B| = 1; NotUnimodular otherwise."""
    M = mat(M)
    k = _k_for(M, field)
    B = b_matrix(M, n, field)
    det = mat_det(B)
    if abs(det) != 1:
        raise NotUnimodular(f"|f_M(n)| = {abs(det)} != 1")
    comp = companion_matrix(k)
    if mat_mul(B, comp) != mat_mul(M, B):
        raise AssertionError("semiconjugation identity failed")
    return B


def spans_lattice(M, n):
    """True iff the integer span of the M-orbit of n is all of Z^m."""
    M = mat(M)
    m = len(M)
    n = tuple(int(x) for x in n)
    cols = [n]
    for _ in range(m - 1):
        cols.append(mat_vec(M, cols[-1]))
    stacked = tuple(tuple(cols[j][i] for j in range(m)) for i in range(m))
    return abs(mat_det(stacked)) == 1


def nn_sequence(field, n_max):
    """Integer factors relating the forms of M^n and M, for n = 1..n_max.

    Entry n is the minor determinant built from the power-basis coordinate
    rows of beta^(i n), i = 1..m-1 (coefficients of beta^(m-1)..beta^1)."""
    m = field.m
    out = []
    for n in range(1, n_max + 1):
        rows = []
        for i in range(1, m):
            c = field.pow_beta(i * n).coords
            if any(x.denominator != 1 for x in c):
                raise AssertionError("beta powers must have integer coordinates")
            rows.append([int(c[m - j]) for j in range(1, m)])
        out.append(mat_det(tuple(tuple(r) for r in rows)) if m > 1 else 1)
    return out


@dataclass(frozen=True)
class PowerConjugacyResult:
    status: str  # 'conjugate' | 'not_conjugate'
    nn: int
    base_solution: tuple  # () when none found up to the search height
    base_height: int
    reason: str


def classify_power_conjugacy(M, n, base_height=20, field=None):
    """Is M^n conjugate to the companion matrix of its own dominant root?

    Uses: M^n is conjugate iff M is and the power factor has absolute
    value 1.  The base status comes from a bounded unimodular search, so a
    negative base answer is qualified by the height."""
    M = mat(M)
    k = _k_for(M, field)
    fld = field or make_field(k)
    nn = nn_sequence(fld, n)[n - 1]
    base = search_unimodular(M, base_height, first_only=True)
    if not base:
        return PowerConjugacyResult(
            "not_conjugate", nn, (), base_height,
            f"no unimodular form value found up to height {base_height}",
        )
    if abs(nn) != 1:
        return PowerConjugacyResult(
            "not_conjugate", nn, base[0][0], base_height,
            f"power factor {nn} is not a unit",
        )
    return PowerConjugacyResult("conjugate", nn, base[0][0], base_height, "base conjugate and unit power factor")


def conjugation_covariance_check(M1, M2, A, seed=0):
    """Verify f_M2(A v) = det(A) * f_M1(v), given A M1 = M2 A unimodular."""
    M1, M2, A = mat(M1), mat(M2), mat(A)
    if mat_mul(A, M1) != mat_mul(M2, A) or abs(mat_det(A)) != 1:
        raise NotConjugatePair("A does not unimodularly intertwine M1 and M2")
    m = len(M1)
    det_a = mat_det(A)
    if m <= 4:
        monos = _monomials(m)

        def lhs_values():
            for pt in itertools.product(range(m + 1), repeat=m):
                yield pt, form_eval(M2, mat_vec(A, pt))

        lhs = _solve_coefficients(lhs_values(), monos, m)
        rhs = dict(form_expand(M1))
        for e, c in zip(monos, lhs):
            if c != det_a * rhs.get(e, 0):
                return False
        return True
    import random

    rng = random.Random(seed)
    vecs = [tuple(1 if i == j else 0 for j in range(m)) for i in range(m)]
    vecs += [tuple(rng.randint(-3, 3) for _ in range(m)) for _ in range(40)]
    return all(form_eval(M2, mat_vec(A, v)) == det_a * form_eval(M1, v) for v in vecs)


@dataclass(frozen=True)
class FormReport:
    matrix: tuple
    k: tuple
    expansion: tuple  # ((exponents, coeff), ...) or () when m > 4
    solutions: tuple  # ((n, value), ...)
    search_height: int
    certificate: tuple  # B or () when absent
    certificate_n: tuple

    def to_jsonable(self):
        return {
            "matrix": [list(r) for r in self.matrix],
            "k": list(self.k),
            "expansion": [{"exponents": list(e), "coefficient": c} for e, c in self.expansion],
            "solutions": [{"n": list(n), "value": v} for n, v in self.solutions],
            "search_height": self.search_height,
            "certificate": [list(r) for r in self.certificate] if self.certificate else None,
            "certificate_n": list(self.certificate_n) if self.certificate_n else None,
        }


def build_form_report(M, search_height, field=None, max_solutions=64):
    M = mat(M)
    k = _k_for(M, field)
    fld = field or make_field(k)  # validates Pisot irreducible input
    m = len(M)
    expansion = tuple(form_expand(M)) if m <= 4 else ()
    sols = search_unimodular(M, search_height, field=fld)
    cert, cert_n = (), ()
    if sols:
        cert_n = sols[0][0]
        cert = conjugacy_certificate(M, cert_n, field=fld)
    return FormReport(
        matrix=M,
        k=tuple(k),
        expansion=expansion,
        solutions=tuple(sols[:max_solutions]),
        search_height=search_height,
        certificate=cert,
        certificate_n=cert_n,
    )
