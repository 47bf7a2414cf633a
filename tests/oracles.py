"""Independent reference implementations used to cross-check the library.

Everything here is written the slow, obvious way on purpose: field
arithmetic by explicit polynomial convolution and reduction, rank by
textbook elimination with explicit pivot search, approximation constants
by enumerating every candidate numerator.  None of it shares code with
the package under test.
"""

from __future__ import annotations

import itertools


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


def left_null_lexmin_rref(f, rows, nrows):
    """Lex-least nonzero b with b^T * rows = 0, by the slow route: a null
    space basis of the transpose (free-variable method), put in RREF; the
    basis row with the largest pivot is the lex minimum.  None when the
    rows are independent."""
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
    if not basis:
        return None
    red, pivots = _rref(f, basis)
    return red[max(range(len(pivots)), key=lambda r: pivots[r])]


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
