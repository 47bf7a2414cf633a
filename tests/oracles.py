"""Independent reference implementations used to cross-check the library.

Everything here is written the slow, obvious way on purpose: field
arithmetic by explicit polynomial convolution and reduction, rank by
textbook elimination with explicit pivot search, approximation constants
by enumerating every candidate numerator.  None of it shares code with
the package under test.
"""

from __future__ import annotations

import itertools
import math


# ---------------------------------------------------------------------------
# Field arithmetic from scratch
# ---------------------------------------------------------------------------

class OracleField:
    """F_{p^k} on integer codes, computed per-operation (no tables).

    Codes agree with the package's convention: the element sum_i c_i x^i
    in the polynomial basis has code sum_i c_i p^i.
    """

    def __init__(self, p, k=1, modulus=None):
        self.p = p
        self.k = k
        self.q = p ** k
        if k == 1:
            self.modulus = None
        else:
            if modulus is None:
                raise ValueError("extension fields need an explicit modulus")
            self.modulus = [c % p for c in modulus]

    # -- code <-> coefficient vector --------------------------------------

    def decode(self, code):
        out = []
        for _ in range(self.k):
            out.append(code % self.p)
            code //= self.p
        return out

    def encode(self, vec):
        code = 0
        for c in reversed(vec):
            code = code * self.p + c % self.p
        return code

    # -- operations --------------------------------------------------------

    def add(self, a, b):
        if self.k == 1:
            return (a + b) % self.p
        va, vb = self.decode(a), self.decode(b)
        return self.encode([(x + y) % self.p for x, y in zip(va, vb)])

    def neg(self, a):
        if self.k == 1:
            return (-a) % self.p
        return self.encode([(-x) % self.p for x in self.decode(a)])

    def sub(self, a, b):
        return self.add(a, self.neg(b))

    def mul(self, a, b):
        if self.k == 1:
            return (a * b) % self.p
        va, vb = self.decode(a), self.decode(b)
        prod = [0] * (2 * self.k - 1)
        for i, x in enumerate(va):
            if not x:
                continue
            for j, y in enumerate(vb):
                prod[i + j] = (prod[i + j] + x * y) % self.p
        # reduce by the monic-scaled modulus
        lead_inv = pow(self.modulus[-1], self.p - 2, self.p) \
            if self.p > 2 else self.modulus[-1]
        for d in range(len(prod) - 1, self.k - 1, -1):
            c = prod[d]
            if not c:
                continue
            factor = (c * lead_inv) % self.p
            for i, m in enumerate(self.modulus):
                prod[d - self.k + i] = (prod[d - self.k + i]
                                        - factor * m) % self.p
        return self.encode(prod[:self.k])

    def inv(self, a):
        if a == 0:
            raise ZeroDivisionError
        for b in range(1, self.q):
            if self.mul(a, b) == 1:
                return b
        raise AssertionError("no inverse found")

    def div(self, a, b):
        return self.mul(a, self.inv(b))


# ---------------------------------------------------------------------------
# Polynomials as coefficient lists (low degree first)
# ---------------------------------------------------------------------------

def poly_trim(coeffs):
    out = list(coeffs)
    while out and out[-1] == 0:
        out.pop()
    return out


def poly_add(f, a, b):
    n = max(len(a), len(b))
    out = []
    for i in range(n):
        x = a[i] if i < len(a) else 0
        y = b[i] if i < len(b) else 0
        out.append(f.add(x, y))
    return poly_trim(out)


def poly_mul(f, a, b):
    a, b = poly_trim(a), poly_trim(b)
    if not a or not b:
        return []
    out = [0] * (len(a) + len(b) - 1)
    for i, x in enumerate(a):
        if not x:
            continue
        for j, y in enumerate(b):
            if y:
                out[i + j] = f.add(out[i + j], f.mul(x, y))
    return poly_trim(out)


def poly_divmod(f, a, b):
    a, b = poly_trim(a), poly_trim(b)
    if not b:
        raise ZeroDivisionError
    rem = list(a)
    db = len(b) - 1
    quot = [0] * max(0, len(rem) - db)
    inv_lead = f.inv(b[-1])
    while len(rem) > db:
        lead = rem[-1]
        if lead:
            shift = len(rem) - 1 - db
            factor = f.mul(lead, inv_lead)
            quot[shift] = factor
            for i, bc in enumerate(b):
                rem[shift + i] = f.sub(rem[shift + i], f.mul(factor, bc))
        rem.pop()
    return poly_trim(quot), poly_trim(rem)


def poly_gcd(f, a, b):
    """A greatest common divisor by Euclid (not normalized)."""
    a, b = poly_trim(a), poly_trim(b)
    while b:
        a, b = b, poly_divmod(f, a, b)[1]
    return a


def rational_recurrence_order(f, fractions):
    """Degree of the lcm of the reduced denominators of the (num, den)
    pairs: the lcm is built up as a product over gcds, each denominator
    first divided by its gcd with the numerator."""
    common = [1]
    for num, den in fractions:
        den = poly_divmod(f, den, poly_gcd(f, num, den))[0]
        common = poly_mul(f, common, poly_divmod(f, den, poly_gcd(f, common, den))[0])
    return len(common) - 1


def common_denominator_order(f, fractions, periods):
    """Degree of a common denominator of rational tails (num, den) and
    eventually periodic tails (preperiod, period): the lcm of the reduced
    denominators and of t^pre (t^per - 1), pre the largest preperiod and
    per the lcm of the periods, when any periodic tail is given."""
    fractions = list(fractions)
    if periods:
        pre = max(a for a, _ in periods)
        per = math.lcm(*(p for _, p in periods))
        fractions.append(([1], [0] * pre + [f.neg(1)] + [0] * (per - 1) + [1]))
    return rational_recurrence_order(f, fractions)


def rational_expansion(f, num, den, count):
    """Polynomial part and the first `count` tail coefficients of num/den.

    Shift-and-divide: num * t^count = q * den + r with deg r < deg den,
    so num/den = q / t^count + (something of absolute value < q^-count);
    the digits of q read off the expansion exactly.
    """
    num, den = poly_trim(num), poly_trim(den)
    if not den:
        raise ZeroDivisionError
    shifted = [0] * count + num
    q, _ = poly_divmod(f, shifted, den)
    poly = poly_trim(q[count:])
    tail = [q[count - i] if 0 <= count - i < len(q) else 0
            for i in range(1, count + 1)]
    return poly, tail


def rational_period_states(f, num, den, count):
    """(preperiod, period) of the tail of num/den and its first `count`
    digits, by long division that records every remainder until the first
    one repeats: digit i comes from remainder i - 1 times t, and remainder
    k recurring at index k + p gives preperiod k and period p."""
    num, den = poly_trim(num), poly_trim(den)
    _, rem = poly_divmod(f, num, den)
    seen = {tuple(rem): 0}
    digits, period = [], None
    while period is None or len(digits) < count:
        quot, rem = poly_divmod(f, [0] + rem, den)
        digits.append(quot[0] if quot else 0)
        if period is None:
            k = seen.setdefault(tuple(rem), len(digits))
            if k != len(digits):
                period = (k, len(digits) - k)
    return period, digits[:count]


# ---------------------------------------------------------------------------
# Dense linear algebra
# ---------------------------------------------------------------------------

def dense_rank(f, rows):
    """Row count after full textbook elimination."""
    mat = [list(r) for r in rows]
    rank = 0
    ncols = len(mat[0]) if mat else 0
    for col in range(ncols):
        pivot = None
        for r in range(rank, len(mat)):
            if mat[r][col] != 0:
                pivot = r
                break
        if pivot is None:
            continue
        mat[rank], mat[pivot] = mat[pivot], mat[rank]
        inv = f.inv(mat[rank][col])
        mat[rank] = [f.mul(inv, x) for x in mat[rank]]
        for r in range(len(mat)):
            if r != rank and mat[r][col] != 0:
                c = mat[r][col]
                mat[r] = [f.sub(x, f.mul(c, y))
                          for x, y in zip(mat[r], mat[rank])]
        rank += 1
        if rank == len(mat):
            break
    return rank


def dense_solvable(f, rows, rhs):
    """Whether the column span of `rows` contains rhs."""
    if not rows:
        return not any(rhs)
    aug = [list(r) + [v] for r, v in zip(rows, rhs)]
    return dense_rank(f, aug) == dense_rank(f, [list(r) for r in rows])


def _rref(f, rows):
    """Reduced row echelon form and pivot columns, textbook style."""
    mat = [list(r) for r in rows]
    pivots = []
    ncols = len(mat[0]) if mat else 0
    for col in range(ncols):
        sel = next((r for r in range(len(pivots), len(mat)) if mat[r][col]), None)
        if sel is None:
            continue
        top = len(pivots)
        mat[top], mat[sel] = mat[sel], mat[top]
        inv = f.inv(mat[top][col])
        mat[top] = [f.mul(inv, x) for x in mat[top]]
        for r in range(len(mat)):
            if r != top and mat[r][col]:
                c = mat[r][col]
                mat[r] = [f.sub(x, f.mul(c, y)) for x, y in zip(mat[r], mat[top])]
        pivots.append(col)
    return mat, pivots


def left_kernel_basis(f, rows, nrows):
    """A basis of the b with b^T * rows = 0: the null space of the
    transpose by the free-variable method (empty when the rows are
    independent)."""
    ncols = len(rows[0]) if rows else 0
    transpose = [[rows[r][c] for r in range(nrows)] for c in range(ncols)]
    red, pivots = _rref(f, transpose)
    basis = []
    for free in range(nrows):
        if free in pivots:
            continue
        v = [0] * nrows
        v[free] = 1
        for r, col in enumerate(pivots):
            v[col] = f.neg(red[r][free])
        basis.append(v)
    return basis


def left_null_lexmin_rref(f, rows, nrows):
    """Lex-least nonzero b with b^T * rows = 0, by the slow route: the
    left kernel basis put in RREF; the basis row with the largest pivot is
    the lex minimum.  None when the rows are independent."""
    basis = left_kernel_basis(f, rows, nrows)
    if not basis:
        return None
    red, pivots = _rref(f, basis)
    return red[max(range(len(pivots)), key=lambda r: pivots[r])]


def stacked_matrix(coeff, heights, i, j):
    """The i x j stacked matrix: block s has heights(i)[s] rows, and row r,
    column c (1-based) of block s holds coeff(s, r - 1 + c)."""
    return [[coeff(s, r - 1 + c) for c in range(1, j + 1)]
            for s, h in enumerate(heights(i)) for r in range(1, h + 1)]


def rank_walk_column_rescan(f, coeff, guarantees, heights, assign, ell,
                            stage_budget, j_cutoff, period_bound):
    """The alternating rank walk by the slow route: each stage rescans
    columns from c = 1 with a fresh dense rank per candidate matrix.

    coeff(s, n) is tail coefficient n of coordinate s (0-based); guarantees
    holds each coordinate's largest served index (None = unbounded);
    heights(i) and assign(i) describe the weight; period_bound is the index
    past which every tail repeats with a common period (None = unknown).
    Stages are (m, i, j, status, scan_width) with the status strings
    "found", "infinite_certified" and "exhausted_at_cutoff"."""
    stages = [(0, ell, 0, "found", 0)]
    cur_i = ell
    for m in range(1, stage_budget + 1):
        stops = [j_cutoff]
        for s, h in enumerate(heights(cur_i)):
            if h > 0 and guarantees[s] is not None:
                stops.append(guarantees[s] - (h - 1))
        cert_width = None if period_bound is None else period_bound + cur_i
        if cert_width is not None:
            stops.append(cert_width)
        stop = min(stops)
        j = next((c for c in range(1, stop + 1)
                  if dense_rank(f, stacked_matrix(coeff, heights, cur_i, c)) == cur_i),
                 None)
        if j is None:
            c = max(stop, 0)
            certified = cert_width is not None and c >= cert_width
            stages.append((m, cur_i, None, "infinite_certified" if certified
                           else "exhausted_at_cutoff", c))
            return stages
        i = cur_i
        while True:
            i += 1
            s = assign(i) - 1
            r = heights(i)[s]
            if guarantees[s] is not None and r - 1 + j > guarantees[s]:
                stages.append((m, None, j, "exhausted_at_cutoff", j))
                return stages
            if i - dense_rank(f, stacked_matrix(coeff, heights, i, j)) == ell:
                break
        stages.append((m, i, j, "found", j))
        cur_i = i
    return stages


def left_annihilators(f, rows):
    """All nonzero b with b . column = 0 for every column, by enumeration.

    Exponential in the row count; callers keep the matrices tiny.
    """
    n = len(rows)
    ncols = len(rows[0]) if rows else 0
    out = []
    for cand in itertools.product(range(f.q), repeat=n):
        if not any(cand):
            continue
        good = True
        for c in range(ncols):
            acc = 0
            for r in range(n):
                if cand[r] and rows[r][c]:
                    acc = f.add(acc, f.mul(cand[r], rows[r][c]))
            if acc != 0:
                good = False
                break
        if good:
            out.append(list(cand))
    return out


def annihilates_entrywise(f, tails, heights, b, width):
    """Whether b . M = 0 for the stacked matrix whose block s has heights[s]
    rows, row r holding tails[s][r:r + width] (zero past the tail), b in
    stacked order: every column summed entry by entry."""
    rows = [[tail[r + c] if r + c < len(tail) else 0 for c in range(width)]
            for tail, h in zip(tails, heights) for r in range(h)]
    for c in range(width):
        acc = 0
        for coef, row in zip(b, rows):
            acc = f.add(acc, f.mul(coef, row[c]))
        if acc:
            return False
    return True


# ---------------------------------------------------------------------------
# Approximation constants by raw enumeration
# ---------------------------------------------------------------------------

def first_mismatch(f, n_coeffs, theta_tail, gamma_tail, depth):
    """1-based index of the first tail coefficient of N*theta differing
    from gamma, or 0 if they agree through `depth`.

    theta_tail must extend at least depth + deg(N) entries so every
    convolution term is available.
    """
    n_coeffs = poly_trim(n_coeffs)
    for i in range(1, depth + 1):
        acc = 0
        for k, c in enumerate(n_coeffs):
            if c:
                t = theta_tail[i + k - 1]
                if t:
                    acc = f.add(acc, f.mul(c, t))
        if acc != (gamma_tail[i - 1] if i - 1 < len(gamma_tail) else 0):
            return i
    return 0


def brute_constant_exponent(f, theta_tails, gamma_tails, weight_eval,
                            max_deg, depth, deg_lo=0):
    """min over nonzero N with deg_lo <= deg N <= max_deg of
    max_s (g_s(deg N) - mismatch_s), or "zero" when some N matches every
    coordinate through `depth`.

    Exact only when `depth` certifies zero tails (the caller's job).
    Returns (exponent or None, witness coeff tuple or None,
    zero_witness flag).
    """
    d = len(theta_tails)
    best = None
    best_n = None
    for h in range(deg_lo, max_deg + 1):
        for body in itertools.product(range(f.q), repeat=h):
            for top in range(1, f.q):
                n = list(body) + [top]
                g = weight_eval(h)
                terms = []
                for s in range(d):
                    i0 = first_mismatch(f, n, theta_tails[s],
                                        gamma_tails[s], depth)
                    if i0:
                        terms.append(g[s] - i0)
                if len(terms) < d:
                    if not terms:
                        return None, tuple(n), True
                    # some coordinate hit exact zero; the max ignores it
                e = max(terms)
                if best is None or e < best:
                    best = e
                    best_n = tuple(n)
    return best, best_n, False


def count_hyperplane(f, b, positions, fixed, q_gap):
    """How many digit extensions land on the hyperplane b . v = -fixed.

    positions are the stacked indices the new digits occupy; enumeration
    over all q^gap assignments.
    """
    gap = len(positions)
    count = 0
    for u in itertools.product(range(f.q), repeat=gap):
        acc = fixed
        for pos, x in zip(positions, u):
            if x and b[pos]:
                acc = f.add(acc, f.mul(b[pos], x))
        if acc == 0:
            count += 1
    assert q_gap == f.q ** gap
    return count


def survivor_family(f, stages, heights):
    """Survivor families by enumeration.  stages lists (i_k, b_k) with b_k
    in stacked order; heights(i) gives the per-coordinate extents.  Stage m
    keeps every stacked block of extent heights(i_m) (coordinate-major)
    whose restriction pi_k to heights(i_k) has b_k . pi_k != 0 for every
    k <= m.  Returns (extent, set of blocks) for stage 0 (the empty block)
    and for each listed stage."""
    d = len(heights(0))
    out = [(tuple(heights(0)), {()})]
    for m, (i_m, _) in enumerate(stages):
        g = tuple(heights(i_m))
        kept = set()
        for block in itertools.product(range(f.q), repeat=sum(g)):
            for i_k, b_k in stages[:m + 1]:
                h = heights(i_k)
                pi = [c for s in range(d) for c in block[sum(g[:s]):sum(g[:s]) + h[s]]]
                acc = 0
                for x, y in zip(b_k, pi):
                    acc = f.add(acc, f.mul(x, y))
                if acc == 0:
                    break
            else:
                kept.add(block)
        out.append((g, kept))
    return out


def scan_cap(theta_period, gamma_period, theta_guarantee, gamma_guarantee,
             max_deg, prec, default_scan=64, zero_width=None):
    """Scan cap and certification flag of one coordinate, as the constant
    scans define them.  *_period is (preperiod, period) or None when the
    source declares none; *_guarantee is the last served index or None.
    Past max preperiod + lcm of the periods both tails repeat together, so
    a scan that far certifies an exact zero; a zero_width given by the
    caller (two rational tails) replaces that width."""
    if zero_width is None and theta_period is not None and gamma_period is not None:
        (a1, p1), (a2, p2) = theta_period, gamma_period
        zero_width = max(a1, a2) + p1 * p2 // math.gcd(p1, p2)
    cap = zero_width if zero_width is not None else \
        (prec if prec is not None else default_scan)
    if prec is not None:
        cap = min(cap, prec)
    if theta_guarantee is not None:
        cap = min(cap, theta_guarantee - max_deg)
    if gamma_guarantee is not None:
        cap = min(cap, gamma_guarantee)
    return cap, zero_width is not None and cap >= zero_width


def odometer_scan(f, coords, deg_lo, deg_hi, exponents):
    """The constant scan by enumerating every candidate, as the package did
    before it searched by linear algebra.

    coords lists per coordinate (theta_tail, gamma_tail, cap, certified),
    tails 0-based and theta_tail at least cap + deg_hi long.  exponents(h)
    gives per variant the per-coordinate exponents at degree h.  Every N
    with deg_lo <= deg N <= deg_hi is visited degree by degree, and within
    a degree in lexicographic order of (n_h, ..., n_0) with n_h != 0.  A
    coordinate's depth is its first mismatch (1-based) within the cap, 0
    when none.  A candidate whose uncertified coordinates all match to the
    cap is skipped unless a mismatching coordinate already decides its
    value; one matching every certified coordinate to the cap is an exact
    zero and ends the scan.  Returns per variant the first minimal
    exponent with its digits (n_0 first) and depths, the skip count of
    variant 0, and the exact-zero digits or None."""
    n_var = len(exponents(0))
    best = [None] * n_var
    best_digits = [None] * n_var
    best_depths = [None] * n_var
    skipped = 0
    for h in range(deg_lo, deg_hi + 1):
        exps = exponents(h)
        for top in range(1, f.q):
            for rest in itertools.product(range(f.q), repeat=h):
                n = list(reversed(rest)) + [top]
                depths = [first_mismatch(f, n, th, gam, cap)
                          for th, gam, cap, _ in coords]
                open_caps = [s for s, (_, _, _, cert) in enumerate(coords)
                             if depths[s] == 0 and not cert]
                for v in range(n_var):
                    e_v = exps[v]
                    terms = [e_v[s] - depths[s]
                             for s in range(len(coords)) if depths[s]]
                    if open_caps:
                        ceiling = max(e_v[s] - coords[s][2] - 1 for s in open_caps)
                        if not terms or max(terms) < ceiling:
                            skipped += v == 0
                            continue
                    if not terms:
                        return best, best_digits, best_depths, skipped, tuple(n)
                    e = max(terms)
                    if best[v] is None or e < best[v]:
                        best[v], best_digits[v], best_depths[v] = e, tuple(n), tuple(depths)
    return best, best_digits, best_depths, skipped, None
