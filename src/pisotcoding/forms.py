"""Associated integral forms, conjugacy certificates, and power classification.

Matrices are tuples of tuples of Python ints, so all determinants and
products are arbitrary precision.  The associated form of M is
f_M(n) = det B_M(n), reported exactly with no sign normalization.  B_M(n)
is linear in n: one Faddeev-LeVerrier pass per matrix gives the integer
matrices U_l = B_M(e_l) with B_M(n) = sum_l n_l U_l, and from them

- the expansion (m <= 4) is the exact Leibniz expansion of det(sum n_l U_l);
- the covariance check compares both sides exactly on a unisolvent point
  set, for every m;
- the unimodular search holds one slab of the box at a time, so its memory
  grows with (2h+1)^(m-1) at height h.
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass

import numpy as np

from .errors import CharPolyMismatch, NotConjugatePair, NotUnimodular, SearchBudgetExceeded
from .numberfield import make_field
from .polyops import mat_det, power

SLAB_BUDGET = 10 ** 8  # search box points: about 4 s on the numpy slabs at m = 4
EXACT_BUDGET = 2 * 10 ** 4  # search box points: about 3.5 s of exact determinants at m = 8
_REPORT_SOLUTIONS = 64  # the most unimodular solutions a form report lists


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
    if n < 0:
        raise ValueError("negative matrix power not supported here")
    return power(a, n, mat_mul, identity(len(a)))


def _leverrier(M):
    """k-vector of det(xI - M) = x^m - k1 x^(m-1) - ... - km and the matrices
    P_j = M^(j+1) - k1 M^j - ... - kj M, j = 0..m-1, by the Faddeev-LeVerrier
    recursion on integers: P_j = M (P_(j-1) - kj I) and k_(j+1) = tr(P_j)/(j+1),
    every division exact (Newton's identities)."""
    m = len(M)
    k, products = [], []
    N = identity(m)
    for j in range(1, m + 1):
        P = mat_mul(M, N)
        k.append(sum(P[i][i] for i in range(m)) // j)
        products.append(P)
        N = mat_add(P, mat_scale(identity(m), -k[-1]))
    if any(any(row) for row in N):
        raise AssertionError("Cayley-Hamilton check failed")
    return tuple(k), products


def char_poly_k(M):
    """k-vector of det(xI - M) = x^m - k1 x^(m-1) - ... - km, exact."""
    return _leverrier(mat(M))[0]


def companion_matrix(field_or_k):
    k = field_or_k.min_poly.k if hasattr(field_or_k, "min_poly") else tuple(field_or_k)
    m = len(k)
    rows = [tuple(k)]
    for i in range(1, m):
        rows.append(tuple(1 if j == i - 1 else 0 for j in range(m)))
    return tuple(rows)


def _units(M, field=None):
    """k and the unit matrices U_l = B_M(e_l), so that B_M(n) = sum_l n_l U_l:
    column j of B_M(n) is P_j n, hence U_l[i][j] = P_j[i][l]."""
    k, products = _leverrier(M)
    if field is not None and tuple(field.min_poly.k) != k:
        raise CharPolyMismatch(f"char poly k={k} does not match the field {field.min_poly.k}")
    m = len(M)
    return k, [tuple(tuple(products[j][i][l] for j in range(m)) for i in range(m)) for l in range(m)]


def _combine(units, n):
    """sum_l n_l U_l."""
    m = len(units)
    return tuple(tuple(sum(x * u[i][j] for x, u in zip(n, units)) for j in range(m)) for i in range(m))


def b_matrix(M, n, field=None):
    """Columns M n, (M^2 - k1 M) n, ..., k_m n of the semiconjugation family."""
    M = mat(M)
    n = tuple(int(x) for x in n)
    if len(n) != len(M):
        raise ValueError("vector length mismatch")
    return _combine(_units(M, field)[1], n)


def form_eval(M, n, field=None):
    """Associated form value f_M(n) = det B_M(n), exact."""
    return mat_det(b_matrix(M, n, field))


def _leibniz(units):
    """Monomial coefficients of det(sum_l n_l U_l) by the Leibniz formula, each
    entry a linear form in n; exponent tuples in descending order, zeros dropped."""
    m = len(units)
    total = {}
    for perm in itertools.permutations(range(m)):
        terms = {(0,) * m: (-1) ** sum(a > b for a, b in itertools.combinations(perm, 2))}
        for i, j in enumerate(perm):
            nxt = {}
            for e, c in terms.items():
                for l, u in enumerate(units):
                    if u[i][j]:
                        e2 = e[:l] + (e[l] + 1,) + e[l + 1:]
                        nxt[e2] = nxt.get(e2, 0) + c * u[i][j]
            terms = nxt
        for e, c in terms.items():
            total[e] = total.get(e, 0) + c
    return [(e, c) for e, c in sorted(total.items(), reverse=True) if c]


def form_expand(M, field=None):
    """Exact monomial expansion of f_M for m <= 4: list of (exponent tuple, int coeff)."""
    M = mat(M)
    if len(M) > 4:
        raise ValueError("symbolic expansion supported for m <= 4 only")
    return _leibniz(_units(M, field)[1])


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
    m <= 4, when the values provably fit in int64, numpy evaluates the
    expansion on one slab of fixed first coordinate at a time, so memory
    grows with (2*height+1)^(m-1); otherwise each point's det(sum n_l U_l)
    is computed exactly.  A box of more points than that path's budget
    (SLAB_BUDGET, EXACT_BUDGET) raises SearchBudgetExceeded before any."""
    M = mat(M)
    m = len(M)
    _, units = _units(M, field)
    expansion = _leibniz(units) if m <= 4 else ()
    slabs = expansion and sum(abs(c) for _, c in expansion) * max(height, 1) ** m < 2 ** 62
    budget = SLAB_BUDGET if slabs else EXACT_BUDGET
    if (2 * height + 1) ** m > budget:
        raise SearchBudgetExceeded(f"(2h+1)^m = {(2 * height + 1) ** m} points exceed the budget {budget}")
    if slabs:
        return _search_slabs(expansion, m, height, first_only)
    out = []
    for n in itertools.product(range(-height, height + 1), repeat=m):
        val = mat_det(_combine(units, n))
        if abs(val) == 1:
            out.append((n, val))
            if first_only:
                break
    return out


def _search_slabs(expansion, m, height, first_only):
    side = np.arange(-height, height + 1, dtype=np.int64)
    # powers[a][p] is side ** p laid along axis a of a slab of the last m - 1 coordinates
    powers = [
        [(side ** p).reshape([-1 if b == a else 1 for b in range(m - 1)]) for p in range(m + 1)]
        for a in range(m - 1)
    ]
    out = []
    for x in range(-height, height + 1):
        total = np.zeros((2 * height + 1,) * (m - 1), dtype=np.int64)
        for e, c in expansion:
            term = c * x ** e[0]
            if term:
                for a, p in enumerate(e[1:]):
                    if p:
                        term = term * powers[a][p]
                total += term
        for idx in np.argwhere(np.abs(total) == 1):
            out.append(((x, *(int(side[i]) for i in idx)), int(total[tuple(idx)])))
        if first_only and out:
            return out[:1]
    return out


def conjugacy_certificate(M, n, field=None):
    """B = B_M(n) with B M_beta = M B and |det B| = 1; NotUnimodular otherwise."""
    M = mat(M)
    k, _ = _units(M, field)
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
    status: str  # 'conjugate' | 'not_conjugate' | 'unknown'
    nn: int
    base_solution: tuple  # () when none found up to the search height
    base_height: int
    reason: str


def classify_power_conjugacy(M, n, base_height=20, field=None):
    """Is M^n conjugate to the companion matrix of its own dominant root?

    Uses: M^n is conjugate iff M is and the power factor has absolute
    value 1.  A power factor of absolute value other than 1 proves
    not_conjugate; otherwise a unimodular form value found by the bounded
    base search proves conjugate, and without one the answer is unknown."""
    M = mat(M)
    k, _ = _units(M, field)
    fld = field or make_field(k)
    nn = nn_sequence(fld, n)[n - 1]
    base = search_unimodular(M, base_height, first_only=True)
    sol = base[0][0] if base else ()
    if abs(nn) != 1:
        return PowerConjugacyResult("not_conjugate", nn, sol, base_height, f"power factor {nn} is not a unit")
    if base:
        return PowerConjugacyResult("conjugate", nn, sol, base_height, "base conjugate and unit power factor")
    return PowerConjugacyResult("unknown", nn, (), base_height,
                                f"no unimodular form value found up to height {base_height}")


def _simplex_points(m):
    """The C(2m-1, m) points v >= 0 with sum(v) = m, by stars and bars."""
    for bars in itertools.combinations(range(2 * m - 1), m - 1):
        edges = (-1, *bars, 2 * m - 1)
        yield tuple(b - a - 1 for a, b in zip(edges, edges[1:]))


def conjugation_covariance_check(M1, M2, A):
    """Verify f_M2(A v) = det(A) * f_M1(v), given A M1 = M2 A unimodular.

    Exact for every m: both sides are forms of degree m, and the points
    v >= 0 with sum(v) = m are unisolvent for such forms (Chung-Yao, SIAM
    J. Numer. Anal. 14, 1977), so agreeing there is agreeing everywhere."""
    M1, M2, A = mat(M1), mat(M2), mat(A)
    det_a = mat_det(A)
    if mat_mul(A, M1) != mat_mul(M2, A) or abs(det_a) != 1:
        raise NotConjugatePair("A does not unimodularly intertwine M1 and M2")
    _, units1 = _units(M1)
    _, units2 = _units(M2)
    return all(
        mat_det(_combine(units2, mat_vec(A, v))) == det_a * mat_det(_combine(units1, v))
        for v in _simplex_points(len(M1))
    )


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


def build_form_report(M, search_height, field=None):
    M = mat(M)
    k, _ = _units(M, field)
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
        solutions=tuple(sols[:_REPORT_SOLUTIONS]),
        search_height=search_height,
        certificate=cert,
        certificate_n=cert_n,
    )
