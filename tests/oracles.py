"""Independent reference computations used only by the tests."""

import functools
import itertools
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


def periodic_two_sided_admissible(per, d):
    """Whether the two-sided sequence with period per lies in the closure
    of the beta-shift: every rotation of per, repeated forever, is at most
    the quasi-greedy d (equality allowed), compared by word_compare."""
    per = tuple(per)
    return all(word_compare(_Seq((), per[i:] + per[:i]), d) <= 0 for i in range(len(per)))


def periodic_window(per, n):
    """(start, digits) of the finite window at positions 1 - n ... n of the
    two-sided sequence whose digit at position k is per[(k - 1) % len(per)].
    Its torus image tends to that of the whole sequence as n grows, the
    left tail geometrically in theta and the right one in 1 / beta."""
    p = len(per)
    return 1 - n, tuple(per[(k - 1) % p] for k in range(1 - n, n + 1))


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


def moore_minimize(transitions):
    """The minimal partial automaton equivalent to the table transitions
    (transitions[s][e] -> state or None, state 0 initial), by Moore's
    partition refinement with None as an implicit sink class, renumbered
    breadth first from state 0 in digit order."""
    n = len(transitions)
    ids = {}
    cls = [ids.setdefault(tuple(t is not None for t in row), len(ids)) for row in transitions]
    while True:
        ids = {}
        new = [
            ids.setdefault((cls[s], tuple(None if t is None else cls[t] for t in transitions[s])), len(ids))
            for s in range(n)
        ]
        stable = len(ids) == len(set(cls))  # a refinement with equal class count is stable
        cls = new
        if stable:
            break
    order, rep, queue = {cls[0]: 0}, {cls[0]: 0}, [0]
    while queue:
        s = queue.pop(0)
        for t in transitions[s]:
            if t is not None and cls[t] not in order:
                order[cls[t]] = len(order)
                rep[cls[t]] = t
                queue.append(t)
    out = [None] * len(order)
    for c, idx in order.items():
        out[idx] = tuple(None if t is None else order[cls[t]] for t in transitions[rep[c]])
    return tuple(out)


def parry_table(dseq):
    """Parry's single-track rule (numeration._parry_walk) tabulated per state
    and digit, table[i][e] the walk's state after digit e from state i, None
    where it rejects: the automaton's table as it was first built, one walk
    per entry."""
    from pisotcoding.numeration import _parry_walk

    return tuple(
        tuple(_parry_walk(dseq, (e,), i)[0] for e in dseq.alphabet)
        for i in range(len(dseq.d.pre) + len(dseq.d.per))
    )


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


# -- associated forms: the cofactor / interpolation route ----------------------


def cofactor_char_poly_k(M):
    """k-vector of det(xI - M) = x^m - k1 x^(m-1) - ... - km, by cofactor
    expansion along the first row with memoized polynomial minors."""
    m = len(M)

    def entry(i, j):  # ascending coefficients of (xI - M)[i][j]
        return [-M[i][j], 1] if i == j else [-M[i][j]]

    def poly_mul(a, b):
        out = [0] * (len(a) + len(b) - 1)
        for i, x in enumerate(a):
            for j, y in enumerate(b):
                out[i + j] += x * y
        return out

    memo = {}

    def minor(rows, cols):
        if not rows:
            return [1]
        if (rows, cols) not in memo:
            acc = [0] * (len(rows) + 1)
            for pos, j in enumerate(cols):
                term = poly_mul(entry(rows[0], j), minor(rows[1:], cols[:pos] + cols[pos + 1:]))
                for d, c in enumerate(term):
                    acc[d] += -c if pos % 2 else c
            memo[rows, cols] = acc
        return memo[rows, cols]

    cp = minor(tuple(range(m)), tuple(range(m)))
    return tuple(-cp[m - i] for i in range(1, m + 1))


def interpolated_form_expansion(M):
    """Monomial expansion of det B_M(n) as [(exponents, coeff)] in descending
    exponent order: the form's values at grid points, each from a
    Horner-built B_M(n) and a Fraction determinant, interpolated exactly."""
    m = len(M)
    k = cofactor_char_poly_k(M)
    monos, points, weights = _grid_interpolation(m)

    def value(n):
        cols = [[sum(M[i][t] * n[t] for t in range(m)) for i in range(m)]]
        for j in range(1, m):
            cols.append([sum(M[i][t] * cols[-1][t] for t in range(m)) - k[j - 1] * cols[0][i] for i in range(m)])
        return _det([[Fraction(cols[j][i]) for j in range(m)] for i in range(m)])

    values = [value(pt) for pt in points]
    coeffs = [sum(w * v for w, v in zip(row, values)) for row in weights]
    assert all(c.denominator == 1 for c in coeffs)
    return [(e, int(c)) for e, c in zip(monos, coeffs) if c]


@functools.lru_cache(maxsize=None)
def _grid_interpolation(m):
    """Interpolation of degree-m forms on the grid {0..m}^m, solved once per m.

    Walks the grid in product order, keeps each point whose monomial row is
    independent of those kept (incremental exact elimination), and returns
    the monomials, the kept points and the matrix W with coefficients =
    W * (values at the kept points)."""
    monos = sorted((e for e in itertools.product(range(m + 1), repeat=m) if sum(e) == m), reverse=True)
    size = len(monos)
    points = []
    pivots = {}  # leading column -> (normalized row, rhs as weights on the kept points)
    for pt in itertools.product(range(m + 1), repeat=m):
        row = [Fraction(math.prod(x ** p for x, p in zip(pt, e))) for e in monos]
        rhs = [Fraction(int(i == len(points))) for i in range(size)]
        for col, (prow, prhs) in pivots.items():
            f = row[col]
            if f:
                row = [x - f * y for x, y in zip(row, prow)]
                rhs = [x - f * y for x, y in zip(rhs, prhs)]
        lead = next((i for i, x in enumerate(row) if x), None)
        if lead is None:
            continue
        points.append(pt)
        pivots[lead] = ([x / row[lead] for x in row], [x / row[lead] for x in rhs])
        if len(points) == size:
            break
    assert len(points) == size, "the grid is unisolvent"
    weights = [None] * size
    for col in sorted(pivots, reverse=True):
        row, rhs = pivots[col]
        for j in range(col + 1, size):
            if row[j]:
                rhs = [x - row[j] * y for x, y in zip(rhs, weights[j])]
        weights[col] = rhs
    return monos, tuple(points), weights


def horner_value(k, word, offset=0):
    """Power-basis coordinates of sum(word[i-1] * beta^(offset - i)) over
    i = 1..len(word), beta^m = k_1 beta^(m-1) + ... + k_m: Horner from the
    last digit with one division by beta per digit, then |offset|
    multiplications or divisions by beta, all on Fractions."""
    krev = tuple(reversed(k))  # beta^m = sum(krev[i] beta^i)
    m = len(k)

    def times_beta(x):
        return [x[-1] * krev[0]] + [x[i - 1] + x[-1] * krev[i] for i in range(1, m)]

    def over_beta(x):
        top = x[0] / krev[0]  # x = beta y: x_0 = krev[0] y_(m-1)
        return [x[i] - krev[i] * top for i in range(1, m)] + [top]

    x = [Fraction(0)] * m
    for e in reversed(tuple(word)):
        x[0] += e
        x = over_beta(x)
    for _ in range(max(offset, 0)):
        x = times_beta(x)
    for _ in range(max(-offset, 0)):
        x = over_beta(x)
    return tuple(x)


def fraction_roots_in_disk(coeffs, radius):
    """Roots of the polynomial (ascending coefficients) with |z| < radius, by
    the Schur-Cohn recursion on Fractions of g(radius * z); None where the
    recursion is singular (a root of modulus radius, or a vanishing
    transform)."""
    r = Fraction(radius)
    return _fraction_unit_disk([Fraction(x) * r ** i for i, x in enumerate(coeffs)])


def _fraction_unit_disk(c):
    c = list(c)
    while c and c[-1] == 0:
        c.pop()
    inside = 0
    while c and c[0] == 0:
        inside += 1
        c = c[1:]
    n = len(c) - 1
    if n <= 0:
        return inside
    a0, an = c[0], c[-1]
    delta = a0 * a0 - an * an
    q = [a0 * c[i] - an * c[n - i] for i in range(n + 1)]
    if delta == 0 or not any(q):
        return None
    inner = _fraction_unit_disk(q)
    if inner is None:
        return None
    return inside + (inner if delta > 0 else n - inner)


# -- tail rows: the full-expansion rule ------------------------------------------


def tail_unchanged_count(field, words, alpha, limit):
    """How many words w leave alpha's tail unchanged: value(w) + alpha, taken
    mod 1, has a finite greedy expansion whose last nonzero digit lies at
    position <= limit.  Each sum is expanded in full by beta_expand and read
    off by support_depth, independently of any orbit memo."""
    from pisotcoding import beta_expand

    count = 0
    for w in words:
        s = sum((d * field.pow_beta(-i) for i, d in enumerate(w, 1)), alpha)
        exp = beta_expand(s - field.floor(s))
        if exp.is_finite and exp.support_depth() <= limit:
            count += 1
    return count


# -- enclosures and sampling: the Fraction and linear-scan forms -----------------


def horner_interval(coeffs, lo, hi):
    """Interval Horner of sum(coeffs[i] x^i) over x in [lo, hi], on Fractions."""
    alo, ahi = Fraction(0), Fraction(0)
    for c in reversed(coeffs):
        cands = (alo * lo, alo * hi, ahi * lo, ahi * hi)
        alo, ahi = min(cands) + c, max(cands) + c
    return alo, ahi


def fraction_real_interval(field, a, prec, cap=1 << 16):
    """real_interval on Fractions: horner_interval over beta_interval(rp),
    rp doubling from max(prec + 8, 32) until the width is <= 2^-prec."""
    target = Fraction(a.den, 2 ** prec)
    rp = max(prec + 8, 32)
    while rp <= cap:
        vlo, vhi = horner_interval(a.nums, *field.beta_interval(rp))
        if vhi - vlo <= target:
            return vlo / a.den, vhi / a.den
        rp *= 2
    raise AssertionError("cap hit")


def two_pass_phi_window(spec, value, tolerance):
    """The torus image of a window's value in two passes per coordinate:
    the exact floor by _floor_nums, then _real_enclosure of the fractional
    part's numerators, rounded and clamped as coding._phi_window does."""
    from pisotcoding.coding import TorusPoint, _below_one

    field = spec.field
    prec = max(8, int(math.ceil(-math.log2(max(tolerance, 1e-300)))) + 3)
    binv = field.pow_beta(-1)
    nums, den = field._mul_nums(value.nums, spec.xi.nums), value.den * spec.xi.den
    coords, radius = [], 0.0
    for _ in range(field.m):
        frac = [nums[0] - field._floor_nums(nums, den) * den, *nums[1:]]
        lo, hi, scale = field._real_enclosure(frac, den, prec)
        coords.append(_below_one((lo + hi) / (2 * scale)))
        radius = max(radius, (hi - lo) / (2 * scale))
        nums, den = field._mul_nums(nums, binv.nums), den * binv.den
    return TorusPoint(tuple(coords), radius)


def pick(rng, weights):
    """One draw by a linear scan of running sums: the first index whose sum
    exceeds random(), the last index when none does."""
    x = rng.random()
    acc = 0.0
    for i, w in enumerate(weights):
        acc += w
        if x < acc:
            return i
    return len(weights) - 1


def pick_path(rng, chain, n):
    """n digits of the chain from a stationary start, each drawn by pick;
    an edge is picked among the weights up to the state's last present
    edge, so a draw past every running sum takes that edge."""
    trans = chain.automaton.transitions
    word = []
    state = pick(rng, chain.stationary)
    for _ in range(n):
        last = max(e for e, t in enumerate(trans[state]) if t is not None)
        e = pick(rng, chain.edge_probs[state][: last + 1])
        word.append(e)
        state = trans[state][e]
    return tuple(word)


def bisect_beta_exponent(x):
    """The least nu >= 0 with x < beta^nu, for x >= 0: doubling, then
    bisection, on exact compares against the field's powers of beta."""
    lo, hi = -1, 0  # beta^lo <= x unless lo = -1; x < beta^hi once doubling stops
    while not (x < x.field.pow_beta(hi)):
        lo, hi = hi, max(1, 2 * hi)
    while hi - lo > 1:
        mid = (lo + hi) // 2
        if x < x.field.pow_beta(mid):
            hi = mid
        else:
            lo = mid
    return hi


def arithmetic_order(field, nums, den):
    """The least r >= 1 with beta^r s = s (mod den) for the integer
    numerators s of a state over den, by stepping residues: multiply by beta
    (beta^m = k_1 beta^(m-1) + ... + k_m, from the field's k-vector alone)
    and reduce every coordinate mod den until s comes back.  beta must be a
    unit mod den, or s may never come back."""
    k = field.min_poly.k
    m = len(k)
    home = tuple(n % den for n in nums)
    s, r = home, 0
    while True:
        top = s[-1]
        s = tuple(((s[i - 1] if i else 0) + top * k[m - 1 - i]) % den for i in range(m))
        r += 1
        if s == home:
            return r


def str_serialize(exp):
    """Expansion.serialize as first written, one str per digit: each part
    its digits run together if none exceeds 9, else comma-separated."""

    def part(ds):
        if all(d <= 9 for d in ds):
            return "".join(str(d) for d in ds)
        return ",".join(str(d) for d in ds)

    if not exp.per:
        return part(exp.pre) if exp.pre else "0"
    return f"{part(exp.pre)}|{part(exp.per)}"


def rotating_canonical_expansion(pre, per):
    """canonical_expansion as first written: the redundant preperiod moved
    into the period one digit at a time, the period list rebuilt each step."""
    pre, per = list(pre), list(per)
    if per and not any(per):
        per = []
    if per:
        n = len(per)
        for d in range(1, n):
            if n % d == 0 and per == per[: d] * (n // d):
                per = per[:d]
                break
        while pre and pre[-1] == per[-1]:
            per = [per[-1]] + per[:-1]
            pre.pop()
    else:
        while pre and pre[-1] == 0:
            pre.pop()
    return tuple(pre), tuple(per)


def fraction_horner(coeffs, x):
    """p(x) by Horner over Fractions: the sign reference for polyops."""
    acc = Fraction(0)
    for c in reversed(list(coeffs)):
        acc = acc * x + c
    return acc


def experiment_trial(spec, chain, nonzero_kernel, t, seed, n_digits, tol, resolution, orbit_cap):
    """One injectivity trial as computed per trial before the chunk bound its
    constants: _phi_window per window, value_of per sampled word and
    beta^(n-1) * alpha per trial and kernel value."""
    from pisotcoding.coding import _mix, _phi_window, _truncate_to_window
    from pisotcoding.numeration import value_of
    from pisotcoding.shift import sample

    field = spec.field
    word = sample(chain, 2 * n_digits, seed=_mix(seed, t))
    v = value_of(field, word, n_digits)
    pt = _phi_window(spec, v, tol)
    entries = [(tuple(int(math.floor(c / resolution)) for c in pt.coords), v, v)]
    for alpha in nonzero_kernel:
        v2 = v + field.pow_beta(n_digits - 1) * alpha
        vt = _truncate_to_window(field, v2, n_digits, orbit_cap).value(field)
        pt2 = _phi_window(spec, vt, tol)
        entries.append((tuple(int(math.floor(c / resolution)) for c in pt2.coords), vt, v2))
    return entries, pt.coords


def experiment_trials(args):
    """coding._experiment_chunk's result, one experiment_trial at a time."""
    from pisotcoding.shift import _parry_chain

    spec, t_range, seed, n_digits, tol, resolution, orbit_cap, kernel_coords = args
    chain = _parry_chain(spec.field)
    nonzero_kernel = [spec.field.element(c) for c in kernel_coords]
    out, pts = [], []
    for t in t_range:
        entries, pt = experiment_trial(spec, chain, nonzero_kernel, t, seed, n_digits, tol, resolution, orbit_cap)
        out.extend(entries)
        pts.append(pt)
    return out, pts


def rebuilt_chunk(args):
    """coding._experiment_chunk's output read back in the form it had before the float
    pre-filter: (entries, points, cells), every entry with exact values (value_of of a stored
    word at offset n) and, per trial, the _torus_map coordinates of its window's value."""
    from pisotcoding.coding import _experiment_chunk, _torus_map
    from pisotcoding.numeration import value_of

    spec, _, _, n_digits, tol, _, _, kernel_coords = args
    entries, cells = _experiment_chunk(args)
    entries = [(b, *(value_of(spec.field, vt, n_digits),) * 2) if vu is None else (b, vt, vu)
               for b, vt, vu in entries]
    image = _torus_map(spec, tol)
    points = [image(v).coords for _, v, _ in entries[::1 + len(kernel_coords)]]
    return entries, points, cells


def searched_injectivity_report(spec, n_digits, trials, resolution, seed, orbit_cap=10 ** 6):
    """injectivity_experiment's report from experiment_trials, every nonzero
    delta classified by the float-guided search over the kernel differences
    alone (no beta^(1-n) lookup first) and no class-count check; a
    counterexample is reported, not raised."""
    from pisotcoding.coding import InjectivityReport, _cell, _entropy_sanity, kernel_values

    field = spec.field
    kern = kernel_values(spec, orbit_cap)
    diffs = {}
    for a, _ in kern:
        for b, _ in kern:
            d = a - b
            if not d.is_zero and d not in diffs:
                diffs[d] = field.float_value(d)
    kernel_coords = [a.coords for a, _ in kern if not a.is_zero]
    entries, points = experiment_trials(
        (spec, range(trials), seed, n_digits, resolution / 4, resolution, orbit_cap, kernel_coords))
    clusters = {}
    for bucket, vt, vu in entries:
        clusters.setdefault(bucket, []).append((vt, vu))
    histogram, hits, near_misses, counterexamples = {}, 0, 0, []
    log_beta = math.log(field._float_roots[0].real)
    for bucket, members in clusters.items():
        histogram[len(members)] = histogram.get(len(members), 0) + 1
        if len(members) < 2:
            continue
        members = sorted(members, key=lambda p: p[0].coords)
        vt0, vu0 = members[0]
        for vt, vu in members[1:]:
            delta = vu - vu0
            if delta.is_zero:
                hits += 1
                continue
            fd = field.float_value(delta)
            matched = False
            for kd, fkd in diffs.items():
                if fd * fkd <= 0:
                    continue
                j = round(math.log(abs(fd) / abs(fkd)) / log_beta)
                for dj in (-1, 0, 1):
                    if delta == kd * field.pow_beta(j + dj):
                        matched = True
                        break
                if matched:
                    break
            if matched:
                hits += 1
                continue
            dt = vt - vt0
            xs = [spec.xi * dt * field.pow_beta(-i) for i in range(field.m)]
            if all(x.is_rational and x.is_integral for x in xs) and not dt.is_zero:
                counterexamples.append({"bucket": list(bucket), "delta": [str(c) for c in dt.coords]})
            else:
                near_misses += 1
    mode = max(histogram, key=lambda s: (histogram[s], s), default=0)
    max_z, ok = _entropy_sanity([_cell(p) for p in points], field.m, trials)
    params = {"n_digits": n_digits, "trials": trials, "resolution": resolution, "seed": seed,
              "xi_over_xi0": [str(c) for c in spec.ratio.coords]}
    return InjectivityReport(params, histogram, mode, hits, near_misses, tuple(counterexamples), max_z, ok)


def searched_factor_witness(g):
    """Irreducibility of a monic integer polynomial by bounded factor search.

    Returns (True, None) or (False, witness) with witness a monic integer
    factor in ascending coefficients.  Exhaustive over candidate monic factor
    degrees d <= deg/2; candidate coefficients are constrained by the constant
    term dividing g(0) and by binomial height bounds on divisor coefficients.
    """
    from pisotcoding.polyops import _integer_divides, cauchy_bound, sign_at, strip

    g = [int(x) for x in strip(g)]
    m = len(g) - 1
    if g[-1] != 1:
        raise ValueError("expected a monic integer polynomial")
    if m <= 1:
        return True, None
    if g[0] == 0:
        return False, (0, 1)
    # degree-1 factors: rational root theorem
    for r in _divisors(g[0]):
        if sign_at(g, r) == 0:
            return False, (-r, 1)
    radius = cauchy_bound(g)
    r_ceil = int(radius) + 1
    for d in range(2, m // 2 + 1):
        bounds = [math.comb(d, d - i) * r_ceil ** (d - i) for i in range(d)]
        const_candidates = _divisors(g[0])
        witness = _search_factor(g, d, bounds, const_candidates)
        if witness is not None:
            return False, tuple(witness)
    return True, None


def _divisors(n):
    n = abs(n)
    out = set()
    for i in range(1, math.isqrt(n) + 1):
        if n % i == 0:
            out.update({i, n // i, -i, -(n // i)})
    return sorted(out)


def _search_factor(g, d, bounds, const_candidates):
    # candidate factor x^d + c_{d-1} x^{d-1} + ... + c_0, with c_0 | g(0)
    from pisotcoding.polyops import _integer_divides

    mids = [range(-b, b + 1) for b in bounds[1:]]

    def rec(idx, acc):
        if idx == len(mids):
            for c0 in const_candidates:
                cand = [c0] + acc + [1]
                if _integer_divides(cand, g):
                    return cand
            return None
        for v in mids[idx]:
            got = rec(idx + 1, acc + [v])
            if got is not None:
                return got
        return None

    return rec(0, [])


def bisected_root_interval(coeffs, lo, hi, width):
    """Plain rational bisection of a sign-change bracket down to the given
    width, over one denominator that doubles each step; a root probed
    exactly collapses the pair to it.  The reference for polyops'
    refinement."""
    lo, hi, width = Fraction(lo), Fraction(hi), Fraction(width)

    def sign(c, d):
        acc, dp = 0, 1
        for coef in reversed(coeffs):
            acc, dp = acc * c + coef * dp, dp * d
        return (acc > 0) - (acc < 0)

    d = math.lcm(lo.denominator, hi.denominator)
    a, b = lo.numerator * (d // lo.denominator), hi.numerator * (d // hi.denominator)
    slo = sign(a, d)
    if slo == 0:
        return lo, lo
    while (b - a) * width.denominator > width.numerator * d:
        mid, d = a + b, 2 * d
        sm = sign(mid, d)
        if sm == 0:
            return Fraction(mid, d), Fraction(mid, d)
        a, b = (mid, 2 * b) if sm == slo else (2 * a, mid)
    return Fraction(a, d), Fraction(b, d)
