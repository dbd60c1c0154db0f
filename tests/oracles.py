"""Independent reference computations used only by the tests."""

import math
from collections import namedtuple
from fractions import Fraction


def sylvester_resultant(p, q):
    """Resultant of two polynomials (ascending integer coefficients) via the
    Sylvester matrix; independent of the library's norm-based route."""
    p = [Fraction(c) for c in p]
    q = [Fraction(c) for c in q]
    while p and p[-1] == 0:
        p.pop()
    while q and q[-1] == 0:
        q.pop()
    n, m = len(p) - 1, len(q) - 1
    size = n + m
    rows = []
    pr = list(reversed(p))
    qr = list(reversed(q))
    for i in range(m):
        rows.append([Fraction(0)] * i + pr + [Fraction(0)] * (size - i - len(pr)))
    for i in range(n):
        rows.append([Fraction(0)] * i + qr + [Fraction(0)] * (size - i - len(qr)))
    return _det(rows)


def _det(rows):
    n = len(rows)
    a = [row[:] for row in rows]
    det = Fraction(1)
    for c in range(n):
        piv = next((r for r in range(c, n) if a[r][c] != 0), None)
        if piv is None:
            return Fraction(0)
        if piv != c:
            a[c], a[piv] = a[piv], a[c]
            det = -det
        det *= a[c][c]
        inv = 1 / a[c][c]
        for r in range(c + 1, n):
            f = a[r][c] * inv
            if f:
                for cc in range(c, n):
                    a[r][cc] -= f * a[c][cc]
    return det


def naive_admissible(word, d_pre, d_per):
    """Admissibility straight from the definition: every suffix of the
    zero-extended word lexicographically below the quasi-greedy sequence."""

    def d_at(i):
        if i <= len(d_pre):
            return d_pre[i - 1]
        return d_per[(i - len(d_pre) - 1) % len(d_per)]

    n = len(word)
    window = n + len(d_pre) + len(d_per) + 2
    for start in range(n):
        for j in range(1, window + 1):
            w = word[start + j - 1] if start + j - 1 < n else 0
            d = d_at(j)
            if w < d:
                break
            if w > d:
                return False
        else:
            return False  # suffix never fell strictly below
    return True


def _digit(x, i):
    """Digit at 1-based position i of pre per per ... (zeros after a finite pre)."""
    if i <= len(x.pre):
        return x.pre[i - 1]
    if not x.per:
        return 0
    return x.per[(i - len(x.pre) - 1) % len(x.per)]


def word_compare(x, y):
    """Lexicographic comparison of two eventually periodic digit strings,
    each given by its pre and per digit tuples."""
    px = len(x.per) or 1
    py = len(y.per) or 1
    window = max(len(x.pre), len(y.pre)) + px * py // math.gcd(px, py) + 1
    for i in range(1, window + 1):
        dx, dy = _digit(x, i), _digit(y, i)
        if dx != dy:
            return -1 if dx < dy else 1
    return 0


_Seq = namedtuple("_Seq", "pre per")


def suffix_scan_admissible(pre, per, d):
    """Parry admissibility of pre per per ... straight from the definition:
    every suffix, each rotation of the period included, compared with the
    quasi-greedy d by word_compare; a finite word is zero-extended.  Costs
    O(|per|^2) for the rotations."""
    pre, per = tuple(pre), tuple(per)
    suffixes = [_Seq(pre[i:], per) for i in range(len(pre))]
    if per:
        suffixes += [_Seq((), per[i:] + per[:i]) for i in range(len(per))]
    else:
        suffixes.append(_Seq((), ()))
    return all(word_compare(s, d) < 0 for s in suffixes)


class AdmissibilityTracker:
    """Incremental admissibility: tracks every suffix still matching a prefix of d.

    The subset construction straight from the definition (every suffix
    must stay lexicographically below d), over the d-sequence's quasi-greedy
    d and alphabet.
    """

    def __init__(self, dseq):
        d = dseq.d
        self.ell = len(d.pre)
        self.p = len(d.per) or 1
        self.horizon = self.ell + self.p
        self._d = [_digit(d, i) for i in range(1, self.horizon + 2)]
        self.start = frozenset()
        self.alphabet = tuple(dseq.alphabet)

    def d_at(self, j):
        if j <= self.horizon:
            return self._d[j - 1]
        return self._d[self.ell + (j - self.ell - 1) % self.p]

    def _canon(self, j):
        if j <= self.horizon:
            return j
        return self.ell + (j - self.ell - 1) % self.p + 1

    def step(self, state, e):
        """Next state frozenset, or None when the word becomes inadmissible."""
        new = set()
        for j in set(state) | {0}:
            dj = self.d_at(j + 1)
            if e > dj:
                return None
            if e == dj:
                new.add(self._canon(j + 1))
        return frozenset(new)

    def accepts(self, word):
        st = self.start
        for e in word:
            st = self.step(st, e)
            if st is None:
                return False
        return True


def languages_agree(automaton, tracker, max_len=None):
    """Exact language equality between the automaton (from state 0) and the
    definitional subset tracker, by product-graph exploration.

    Covers all word lengths, not just a finite cutoff; returns the first
    disagreeing word, or None."""
    start = (0, tracker.start)
    seen = {start}
    todo = [(start, ())]
    while todo:
        (sa, sb), word = todo.pop()
        if max_len is not None and len(word) >= max_len:
            continue
        for e in tracker.alphabet:
            ta = automaton.transitions[sa][e]
            tb = tracker.step(sb, e)
            if (ta is None) != (tb is None):
                return word + (e,)
            if ta is None:
                continue
            nxt = (ta, tb)
            if nxt not in seen:
                seen.add(nxt)
                todo.append((nxt, word + (e,)))
    return None


def poly_mul_mod(a, b, g):
    """Coordinates over 1, x, ..., x^(m-1) of a*b modulo the monic g of
    degree m; all polynomials are ascending coefficient lists."""
    g = [Fraction(c) for c in g]
    m = len(g) - 1
    prod = [Fraction(0)] * (len(a) + len(b) - 1)
    for i, x in enumerate(a):
        for j, y in enumerate(b):
            prod[i + j] += Fraction(x) * Fraction(y)
    for i in range(len(prod) - 1, m - 1, -1):
        c = prod[i]
        if c:
            for j in range(m + 1):
                prod[i - m + j] -= c * g[j]
    return tuple(prod[i] if i < len(prod) else Fraction(0) for i in range(m))


def poly_inverse_mod(a, g):
    """The unique c with c*a = 1 modulo the monic g, by solving the linear
    system of multiplication by a; raises if a is not invertible mod g."""
    m = len(g) - 1
    basis = [[1 if i == j else 0 for i in range(j + 1)] for j in range(m)]
    cols = [poly_mul_mod(a, x_j, g) for x_j in basis]
    rows = [[cols[j][i] for j in range(m)] for i in range(m)]
    return solve_linear(rows, [1] + [0] * (m - 1))


def solve_linear(rows, rhs):
    """Exact solution x of rows * x = rhs by Cramer's rule."""
    rows = [[Fraction(c) for c in r] for r in rows]
    rhs = [Fraction(c) for c in rhs]
    det = _det(rows)
    if det == 0:
        raise ZeroDivisionError("singular system")
    n = len(rows)
    return tuple(
        _det([[rhs[i] if j == col else rows[i][j] for j in range(n)] for i in range(n)]) / det
        for col in range(n)
    )


def companion(k):
    """Companion matrix of x^m = k1 x^(m-1) + ... + km: first row k, ones
    on the subdiagonal."""
    m = len(k)
    return (tuple(k),) + tuple(tuple(1 if j == i - 1 else 0 for j in range(m)) for i in range(1, m))


def matmul(A, B):
    """Plain matrix product of two row-major matrices."""
    return tuple(
        tuple(sum(A[i][t] * B[t][j] for t in range(len(B))) for j in range(len(B[0])))
        for i in range(len(A))
    )


def forced_first_row(M, C, lower_rows):
    """Row 1 of the B with B*C = M*B, given rows 2..m of B.

    The first row of that relation reads r1*C = sum_j M[0][j] r_j, i.e.
    r1*(C - M[0][0] I) = sum_{j>1} M[0][j] r_j; it has one solution exactly
    when M[0][0] is not an eigenvalue of C."""
    m = len(C)
    rhs = [sum(M[0][j + 1] * row[c] for j, row in enumerate(lower_rows)) for c in range(m)]
    # r1 * A = rhs  <=>  A^T r1^T = rhs^T
    shifted_t = [[C[r][c] - (M[0][0] if r == c else 0) for r in range(m)] for c in range(m)]
    return solve_linear(shifted_t, rhs)


_BETA_BRACKETS = {}  # k -> narrowest bracket of beta bisected so far


def exact_floor(k, nums, den):
    """floor(sum(nums[i] * beta^i) / den) for the Pisot root beta of
    x^m = k1 x^(m-1) + ... + km, from plain Fraction bisection on g and
    interval evaluation; beta is the only root of g in [1, 1 + max|k_i|]."""
    k = tuple(k)
    if not any(nums[1:]):
        return nums[0] // den
    m = len(k)

    def g(x):
        return x ** m - sum(c * x ** (m - 1 - i) for i, c in enumerate(k))

    # g(1) < 0 < g(1 + max|k_i|) for a Pisot polynomial
    lo, hi = _BETA_BRACKETS.get(k, (Fraction(1), Fraction(1 + max(abs(c) for c in k))))
    while True:
        # lo >= 1, so each term n * x^i is monotone in x on [lo, hi]
        vlo = sum(min(n * lo ** i, n * hi ** i) for i, n in enumerate(nums)) / den
        vhi = sum(max(n * lo ** i, n * hi ** i) for i, n in enumerate(nums)) / den
        if math.floor(vlo) == math.floor(vhi):
            _BETA_BRACKETS[k] = (lo, hi)
            return math.floor(vlo)
        for _ in range(32):
            mid = (lo + hi) / 2
            if g(mid) < 0:
                lo = mid
            else:
                hi = mid
