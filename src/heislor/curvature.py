"""Curvature of the canonical frames: U-map, connection, curvature, Ricci.

Every quantity is computed in a pseudo-orthonormal frame x_1, ..., x_n with
<x_i, x_j> = eps_i delta_ij (eps = +...+-) and bracket relations

    [x_1, x_2] = -(lam x_1 - x_n),
    [x_2, x_(n-1)] = xi (lam x_1 - x_n),
    [x_2, x_n] = lam (lam x_1 - x_n).

The relations are kept once, as sparse rows, in liealg._bracket_terms;
frame_brackets is their dense form, and the generic route and the soliton
certificate read the rows.

Curvature is exact only, over Q(sqrt3); the approx report is the exact one
rounded once.  Two independent code paths produce the component tables, and
tests require them to agree exactly: hard-coded closed forms in (lam, xi), and
a generic route driven purely by structure constants (Koszul formula; Milnor,
Adv. Math. 21, 1976).  Both routes write every table as sparse rows
{(i, j): {k: QSqrt3}} and densify them once with _linalg.exact_dense: the
closed forms as literals, a curvature operator by its columns, and the generic
route by looping over nonzero terms only, dropping an entry that cancels.
Every table is a plain object array; U and nabla are indexed [i, j, k], the x_k
coordinate of U(x_i, x_j) and of nabla_(x_i) x_j.  The Ricci spectrum is read
exactly off the characteristic polynomial of the corner block, split over
Q(sqrt3) with no float eigenvalue.

The closed forms are written once per (lam, xi), as sparse rows on the corner
x_1, x_2, x_(n-1), x_n that the middle directions x_3, ..., x_(n-2) never reach,
and each call places them at (0, 1, n-2, n-1) in a fresh array.  The spectrum
of Ric is memoized per (lam, xi) too, read off the class's sparse Ricci rows.
"""

from __future__ import annotations

from collections import Counter, defaultdict
from dataclasses import dataclass, replace
from fractions import Fraction
from functools import lru_cache

import numpy as np

from ._linalg import _subtract, exact_dense, max_abs, to_float
from .errors import EvidenceFailure
from .liealg import _bracket_terms, require_dim
from .metrics import canonical_pair, xi_exact, xi_json
from .numerics import APPROX, EXACT, QSqrt3, sub_product

HALF = QSqrt3(Fraction(1, 2))


def _exact_only(exact: bool) -> None:
    """Refuse exact=False; the keyword stays for its one remaining caller, perfbench/tables.py."""
    if not exact:
        raise ValueError("curvature is exact only; round the exact report instead")


def frame_signs(n: int) -> list[int]:
    """eps_i for the Lorentzian frame: all +1 except the last."""
    require_dim(n)
    return [1] * (n - 1) + [-1]


def frame_brackets(lam, xi, n: int) -> np.ndarray:
    """Structure constants C[i, j] = coordinates of [x_i, x_j] in the frame."""
    return exact_dense(_bracket_terms(lam, xi, n), (n, n, n))


# -- the generic route on sparse rows --------------------------------------------


def _u_terms(br: dict, eps: list[int]) -> dict:
    """2 U(x_i, x_j)_k = eps_k (eps_j C[k, i, j] + eps_i C[k, j, i]), term by term.

    A term C[k, p, q] = c enters both U(x_p, x_q)_k and U(x_q, x_p)_k with
    eps_k eps_q c / 2.
    """
    u: defaultdict[tuple[int, int], Counter] = defaultdict(Counter)
    for (k, p), row in br.items():
        for q, c in row.items():
            x = c * HALF if eps[k] == eps[q] else c * -HALF
            u[p, q][k] += x
            u[q, p][k] += x
    return {key: {k: x for k, x in row.items() if x} for key, row in u.items()}


def _nabla_terms(u: dict, br: dict) -> dict:
    """nabla_(x_i) x_j = (1/2)[x_i, x_j] + U(x_i, x_j)."""
    nabla = {key: dict(row) for key, row in u.items()}
    for key, row in br.items():
        _subtract(nabla.setdefault(key, {}), -HALF, row)
    return nabla


def _riemann_terms(nabla: dict, br: dict, n: int) -> dict:
    """R(x_i, x_j) x_k = nabla_i nabla_j x_k - nabla_j nabla_i x_k - nabla_[x_i, x_j] x_k.

    With nabla_i v = sum_l v_l nabla_i x_l, each column is a sum over the
    nonzero entries of nabla_j x_k, nabla_i x_k and [x_i, x_j] only.  Returns
    the nonzero columns as {(i, j, k): column} for i < j.

    The loops run over the support S, the indices that occur in a key of nabla
    or br, and skipping the rest is exact.  A term of the first sum needs
    nabla_j x_k and nabla_i x_l nonzero, so j, k and i lie in S; the second
    needs nabla_i x_k and nabla_j x_l, so again i, k and j; the third needs
    [x_i, x_j] and nabla_(x_l) x_k, so i, j and k.  A column with an index
    outside S is an empty sum.  S is sorted, so the columns keep the order of
    the full loop over range(n).
    """
    empty: dict = {}
    ops = {}
    support = sorted({i for key in (*nabla, *br) for i in key})
    for at, i in enumerate(support):
        for j in support[at + 1:]:
            bracket = br.get((i, j), empty)
            for k in support:
                col: dict[int, QSqrt3] = {}
                for l, f in nabla.get((j, k), empty).items():
                    _subtract(col, -f, nabla.get((i, l), empty))
                for l, f in nabla.get((i, k), empty).items():
                    _subtract(col, f, nabla.get((j, l), empty))
                for l, f in bracket.items():
                    _subtract(col, f, nabla.get((l, k), empty))
                if col:
                    ops[i, j, k] = col
    return ops


def _ricci_terms(ops: dict, eps: list[int]) -> dict:
    """Ric(x_j) = sum_i eps_i R(x_j, x_i) x_i as columns {(j,): Ric(x_j)}."""
    ric: dict = {}
    for (i, j, k), col in ops.items():
        if k == j:
            _subtract(ric.setdefault((i,), {}), -eps[j], col)
        elif k == i:  # R(x_j, x_i) = -R(x_i, x_j)
            _subtract(ric.setdefault((j,), {}), eps[i], col)
    return ric


def _operators(ops: dict, n: int) -> dict[tuple[int, int], np.ndarray]:
    """Dense R(x_i, x_j) for every i < j from the columns {(i, j, k): R(x_i, x_j) x_k}."""
    full = exact_dense(ops, (n, n, n, n))  # full[i, j, k] is column k, hence the transpose
    return {(i, j): full[i, j].T for i in range(n) for j in range(i + 1, n)}


def generic_curvature(lam, xi, n: int, exact: bool = True):
    """Full pipeline from structure constants alone; the oracle code path.

    Returns (brackets, U, nabla, {(i, j): R(x_i, x_j)}, Ric), each dense; U[i, j] and
    nabla[i, j] are the frame coordinates of U(x_i, x_j) and nabla_(x_i) x_j.
    """
    _exact_only(exact)
    br = _bracket_terms(lam, xi, n)
    brackets = exact_dense(br, (n, n, n))
    eps = frame_signs(n)
    u = _u_terms(br, eps)
    nabla = _nabla_terms(u, br)
    ops = _riemann_terms(nabla, br, n)
    return (
        brackets,
        exact_dense(u, brackets.shape),
        exact_dense(nabla, brackets.shape),
        _operators(ops, n),
        exact_dense(_ricci_terms(ops, eps), (n, n)).T,
    )


# -- closed-form component tables ---------------------------------------------


@lru_cache(maxsize=None)
def _closed_forms(lam: QSqrt3, xi: QSqrt3) -> tuple[dict, dict, dict, dict]:
    """The hard-coded U, nabla, R and Ric of the class, as sparse rows on the corner
    indices 0..3 of x_1, x_2, x_(n-1), x_n: U and nabla as {(i, j): {k: x}}, R as
    {(i, j): {(k,): R(x_i, x_j) x_k}} for i < j, and Ric as its rows {(i,): {j: x}}.

    Callers coerce lam and xi to QSqrt3 first, so that 2 and QSqrt3(2) share an entry
    and a float is refused before it can match one."""
    one, half = QSqrt3(1), HALF
    lam2, xi2 = lam * lam, xi * xi
    m = lam2 - one
    lx, hx, hp, hm = half * lam * xi, half * xi, half * (lam2 + one), half * m
    u = {
        (0, 0): {1: lam},
        (0, 1): {0: -half * lam, 2: -lx, 3: half * lam2},
        (0, 2): {1: lx},
        (0, 3): {1: hp},
        (1, 3): {0: -half, 2: -hx, 3: half * lam},
        (2, 3): {1: hx},
        (3, 3): {1: lam},
    }
    u.update({(j, i): row for (i, j), row in u.items()})  # U is symmetric
    nabla = {
        (0, 0): {1: lam},
        (0, 1): {0: -lam, 2: -lx, 3: hp},
        (0, 2): {1: lx},
        (0, 3): {1: hp},
        (1, 0): {2: -lx, 3: hm},
        (1, 2): {0: lx, 3: -hx},
        (1, 3): {0: hm, 2: -hx},
        (2, 0): {1: lx},
        (2, 1): {0: -lx, 3: hx},
        (2, 3): {1: hx},
        (3, 0): {1: hp},
        (3, 1): {0: -hp, 2: -hx, 3: lam},
        (3, 2): {1: hx},
        (3, 3): {1: lam},
    }
    # the columns R(x_i, x_j) x_k, written with hx = xi / 2 and hm = (lam^2 - 1) / 2
    quarter = half * half
    x2, xm, lxm = hx * hx, hx * hm, lam * hx * hm
    p = quarter * (lam2 * lam2 - lam2 * (xi2 - 2 * one) - 3 * one)
    q = 3 * xm
    s = lam * (m - x2)
    t = quarter * (3 * lam2 * lam2 - 2 * lam2 - xi2 - one)
    riemann = {
        (0, 1): {(0,): {1: p}, (1,): {0: -p, 2: -q, 3: s}, (2,): {1: q}, (3,): {1: s}},
        (0, 2): {(0,): {2: -lam2 * x2, 3: lxm}, (2,): {0: lam2 * x2, 3: -lam * x2},
                 (3,): {0: lxm, 2: -lam * x2}},
        (0, 3): {(0,): {2: -lxm, 3: hm * hm}, (2,): {0: lxm, 3: -xm}, (3,): {0: hm * hm, 2: -xm}},
        (1, 2): {(0,): {1: -q}, (1,): {0: q, 2: q * xi, 3: -q * lam}, (2,): {1: -q * xi},
                 (3,): {1: -q * lam}},
        (1, 3): {(0,): {1: -s}, (1,): {0: s, 2: q * lam, 3: -t}, (2,): {1: -q * lam},
                 (3,): {1: -t}},
        (2, 3): {(0,): {2: lam * x2, 3: -xm}, (2,): {0: -lam * x2, 3: x2}, (3,): {0: -xm, 2: x2}},
    }
    r = lam * (m - half * xi2)
    ric = {
        (0,): {0: -half * (lam2 * lam2 - lam2 * xi2 - one), 2: -xi * hm, 3: -r},
        (1,): {1: half * (lam2 * lam2 - lam2 * (xi2 + 2 * one) + xi2 + one)},
        (2,): {0: -xi * hm, 2: -xi2 * hm, 3: -lam * xi * hm},
        (3,): {0: r, 2: lam * xi * hm, 3: half * (lam2 * lam2 - xi2 - one)},
    }
    return u, nabla, riemann, ric


def _corner(n: int) -> list[int]:
    """The frame indices 0, 1, n-2, n-1 of x_1, x_2, x_(n-1), x_n, distinct from n = 4 on."""
    require_dim(n)
    return [0, 1, n - 2, n - 1]


def _on_corner(rows: dict, n: int) -> np.ndarray:
    """Sparse rows on the corner indices 0..3, placed at _corner(n) and densified afresh."""
    at = _corner(n)
    placed = {tuple(at[i] for i in key): {at[k]: x for k, x in row.items()}
              for key, row in rows.items()}
    return exact_dense(placed, (n,) * (len(next(iter(rows))) + 1))


def closed_form_u(lam, xi, n: int) -> np.ndarray:
    """Hard-coded symmetric U components on the corner coordinates, as u[i, j, k]."""
    return _on_corner(_closed_forms(QSqrt3.coerce(lam), QSqrt3.coerce(xi))[0], n)


def closed_form_nabla(lam, xi, n: int) -> np.ndarray:
    """Hard-coded connection components on the corner coordinates, as nabla[i, j, k]."""
    return _on_corner(_closed_forms(QSqrt3.coerce(lam), QSqrt3.coerce(xi))[1], n)


def closed_form_riemann(lam, xi, n: int) -> dict[tuple[int, int], np.ndarray]:
    """Hard-coded curvature operators on the corner coordinates."""
    at = _corner(n)
    ops = _closed_forms(QSqrt3.coerce(lam), QSqrt3.coerce(xi))[2]
    # cols[(k,)] is column k of the operator, hence the transpose
    return {(at[i], at[j]): _on_corner(cols, n).T for (i, j), cols in ops.items()}


def closed_form_ricci(lam, xi, n: int, exact: bool = True) -> np.ndarray:
    """Hard-coded Ricci operator matrix on the corner coordinates."""
    _exact_only(exact)
    return _on_corner(_closed_forms(QSqrt3.coerce(lam), QSqrt3.coerce(xi))[3], n)


# -- curvature properties --------------------------------------------------------


def is_flat(ops: dict) -> bool:
    """True when every curvature operator is exactly zero."""
    return not any(any(op.flat) for op in ops.values())


def einstein_test(ric: np.ndarray):
    """The scalar c with Ric = c * id, or None."""
    c = ric[0, 0]
    scalar = all(x == (c if i == j else 0) for (i, j), x in np.ndenumerate(ric))
    return c if scalar else None


def derivation_identity_residual(d: np.ndarray, brackets: np.ndarray) -> float:
    """Max deviation of D from the Leibniz rule on the frame brackets.

    Dense and independent of soliton_certificate's sparse defect on purpose: it is
    the check that a returned derivation satisfies the rule it was built from.
    """
    n = d.shape[0]
    worst = 0.0
    for i in range(n):
        for j in range(i + 1, n):
            # D[x_i, x_j] - [D x_i, x_j] - [x_i, D x_j]
            diff = d @ brackets[i, j] - d[:, i] @ brackets[:, j] - d[:, j] @ brackets[i]
            worst = max(worst, max_abs(diff.reshape(1, -1)))
    return worst


def soliton_certificate(lam, xi, n: int, ric: np.ndarray | None = None, exact: bool = True):
    """(c, D) with Ric = c*id + D and D a derivation of the frame algebra, or None.

    This makes the metric an algebraic Ricci soliton (Lauret, Math. Ann. 319, 2001).
    The Leibniz defect L(D)_ij = D[x_i, x_j] - [D x_i, x_j] - [x_i, D x_j] is linear
    in D, and L(id)_ij = -[x_i, x_j].  So Ric - c*id is a derivation exactly when
    L(Ric)_ij = -c [x_i, x_j] for every pair i < j.  [x_1, x_2] has x_n-coefficient
    1, which reads c = -L(Ric)_(12, n) off one entry; c is unique, as id is no
    derivation.  The defect is summed exactly over the nonzero bracket terms and
    the nonzero entries of Ric, with no linear solve.
    """
    _exact_only(exact)
    ric = closed_form_ricci(lam, xi, n) if ric is None else ric
    br = _bracket_terms(lam, xi, n)
    rows: dict[int, dict[int, QSqrt3]] = {}  # rows[a][i] = Ric[a, i]
    cols: dict[int, dict[int, QSqrt3]] = {}  # cols[k][a] = Ric[a, k], so Ric x_k
    for a, row in enumerate(ric.tolist()):
        for i, x in enumerate(row):
            if x:
                rows.setdefault(a, {})[i] = x
                cols.setdefault(i, {})[a] = x
    empty: dict = {}
    defect: dict[tuple[int, int], dict[int, QSqrt3]] = {}
    for (a, b), bracket in br.items():
        if a < b:  # Ric [x_a, x_b] = sum_k C[a, b, k] Ric x_k
            out = defect.setdefault((a, b), {})
            for k, v in bracket.items():
                _subtract(out, -v, cols.get(k, empty))
        for i, f in rows.get(a, empty).items():  # [Ric x_i, x_b] takes Ric[a, i] [x_a, x_b]
            if i < b:
                _subtract(defect.setdefault((i, b), {}), f, bracket)
        for j, f in rows.get(b, empty).items():  # [x_a, Ric x_j] takes Ric[b, j] [x_a, x_b]
            if a < j:
                _subtract(defect.setdefault((a, j), {}), f, bracket)
    c = -defect[0, 1].get(n - 1, QSqrt3(0))
    for (a, b), bracket in br.items():
        if a < b:
            _subtract(defect[a, b], -c, bracket)  # the defect plus c [x_a, x_b]
    if any(defect.values()):
        return None
    d = ric.copy()
    for i in range(n):
        d[i, i] = d[i, i] - c
    return c, d


def _charpoly(rows: list[dict[int, QSqrt3]]) -> list[QSqrt3]:
    """Monic characteristic polynomial coefficients of the matrix with these sparse rows
    {column: value}, highest degree first.

    Faddeev-LeVerrier: M_1 = A, M_k = A (M_(k-1) + c_(k-1) I) and
    c_k = -tr(M_k) / k, with every zero entry dropped, so no product with a
    zero entry is formed.
    """
    rows = [{j: x for j, x in row.items() if x} for row in rows]
    negated = [{j: -x for j, x in row.items()} for row in rows]
    coeffs = [QSqrt3(1)]
    m = rows
    for k in range(1, len(rows) + 1):
        if k > 1:
            c = coeffs[-1]
            shifted = [dict(row) for row in m]
            if c:
                for i, row in enumerate(shifted):  # row += c e_i
                    x = row.pop(i, 0) + c
                    if x:
                        row[i] = x
            m = []
            for row in negated:
                product: dict[int, QSqrt3] = {}
                for l, f in row.items():
                    _subtract(product, f, shifted[l])
                m.append(product)
        trace = sum((row[i] for i, row in enumerate(m) if i in row), QSqrt3(0))
        coeffs.append(trace / -k)
    return coeffs


def _divmod(p: list[QSqrt3], d: list[QSqrt3]) -> tuple[list[QSqrt3], list[QSqrt3]]:
    """Quotient and remainder of p by a monic d, coefficients highest degree first.

    The remainder keeps all len(d) - 1 coefficients, leading zeros included.
    """
    rem = list(p)
    k = len(d) - 1
    top = len(p) - k
    for i in range(top):
        c = rem[i]
        if c:
            for j in range(1, k + 1):
                rem[i + j] = sub_product(rem[i + j], c, d[j])
    return rem[:top], rem[top:]


def _monic(p: list[QSqrt3]) -> list[QSqrt3]:
    """p without its leading zeros, divided by its leading coefficient."""
    while p and not p[0]:
        p = p[1:]
    if not p or p[0] == 1:
        return p
    inv = QSqrt3(1) / p[0]
    return [x * inv for x in p]


def _squarefree(p: list[QSqrt3]) -> list[QSqrt3]:
    """p / gcd(p, p') for a monic p, by Euclid's algorithm over Q(sqrt3)."""
    deg = len(p) - 1
    a, b = p, _monic([c * (deg - i) for i, c in enumerate(p[:-1])])
    while b:
        a, b = b, _monic(_divmod(a, b)[1])
    return _divmod(p, a)[0]


def _split(p: list[QSqrt3]) -> list[QSqrt3] | None:
    """The roots of a monic p over Q(sqrt3) with multiplicity, or None.

    Zero roots are the trailing zero coefficients.  The rest are the roots of
    the square-free part s, solved when s has degree at most 2, each divided out
    of p as often as it goes.  The roots are returned only when those divisions
    leave the quotient 1, which certifies p = prod (x - r) exactly.
    """
    k = len(p)
    while k > 1 and not p[k - 1]:
        k -= 1
    q, roots = p[:k], [QSqrt3(0)] * (len(p) - k)
    if k == 1:
        return roots
    s = _squarefree(q)
    if len(s) == 2:
        candidates = [-s[1]]
    elif len(s) == 3:
        try:
            root = (s[1] * s[1] - 4 * s[2]).sqrt()
        except ArithmeticError:  # negative, or not a square in Q(sqrt3)
            return None
        candidates = [(root - s[1]) / 2, (-root - s[1]) / 2]
    else:
        return None
    for r in candidates:
        while len(q) > 1:
            quot, rem = _divmod(q, [QSqrt3(1), -r])
            if rem[0]:
                break
            q = quot
            roots.append(r)
    return roots if q == [1] else None


@lru_cache(maxsize=None)
def _memo_spectrum(lam: QSqrt3, xi: QSqrt3) -> tuple[tuple, tuple | None]:
    """The characteristic polynomial of the class's Ricci rows on the corner, and its
    roots descending or None, once per (lam, xi)."""
    ric = _closed_forms(lam, xi)[3]
    p = _charpoly([ric[i,] for i in range(4)])
    roots = _split(p)
    return tuple(p), None if roots is None else tuple(sorted(roots, reverse=True))


def ricci_spectrum(lam, xi, n: int, exact: bool = True):
    """Eigenvalues of the Ricci operator on the corner block, exact and descending.

    The roots are read off the block's characteristic polynomial in Q(sqrt3)
    alone (_split), with no float eigenvalue; EvidenceFailure, naming the exact
    coefficients, when the polynomial does not split over Q(sqrt3).
    """
    _exact_only(exact)
    require_dim(n)
    p, roots = _memo_spectrum(QSqrt3.coerce(lam), QSqrt3.coerce(xi))
    if roots is None:
        raise EvidenceFailure(
            f"Ricci spectrum at lam={lam}, xi={xi}, n={n}: the characteristic polynomial "
            f"[{', '.join(c.format() for c in p)}] does not split over Q(sqrt3)"
        )
    return list(roots)


@dataclass
class CurvatureReport:
    """Everything the curvature pipeline knows about one canonical class."""

    lam: int
    xi_key: str
    n: int
    backend: str
    u: np.ndarray
    nabla: np.ndarray
    riemann_ops: dict
    ric: np.ndarray
    flat: bool
    einstein: object  # scalar c or None
    soliton: tuple | None
    spectrum: list

    def to_json(self) -> dict:
        idx = _corner(self.n)

        def num(x):
            return x.format() if isinstance(x, QSqrt3) else float(x)

        def vec(v):
            return [num(x) for x in v]

        def table_entries(name, table):
            pairs = ((i, j) for i in idx for j in idx if any(table[i, j]))
            return {f"{name}[{i + 1}][{j + 1}]": vec(table[i, j]) for i, j in pairs}

        r_entries = {
            f"R[{i + 1}][{j + 1}]": [vec(op[:, k]) for k in range(self.n)]
            for (i, j), op in self.riemann_ops.items()
            if any(op.reshape(-1))
        }
        soliton = None
        if self.soliton is not None:
            c, d = self.soliton
            soliton = {"c": num(c), "D": [vec(row) for row in d]}
        return {
            "lambda": self.lam,
            "xi": xi_json(self.xi_key),
            "n": self.n,
            "backend": self.backend,
            "U": table_entries("U", self.u),
            "nabla": table_entries("nabla", self.nabla),
            "R": r_entries,
            "ric": [vec(row) for row in self.ric],
            "flat": self.flat,
            "einstein": None if self.einstein is None else num(self.einstein),
            "soliton": soliton,
            "spectrum": [num(x) for x in self.spectrum],
        }


def curvature_report(lam, xi, n: int, backend: str = EXACT) -> CurvatureReport:
    """Assemble the full report for one canonical parameter pair.

    The tables are the closed forms, built exactly.  The float report is the
    exact one with every value rounded once, so an exact zero stays +0.0.
    """
    if backend not in (EXACT, APPROX):
        raise ValueError(f"unknown backend {backend!r}")
    lam, key = canonical_pair(lam, xi)
    xi_val, lam_val = xi_exact(key), QSqrt3(lam)
    ops = closed_form_riemann(lam_val, xi_val, n)
    ric = closed_form_ricci(lam_val, xi_val, n)
    report = CurvatureReport(
        lam=lam,
        xi_key=key,
        n=n,
        backend=EXACT,
        u=closed_form_u(lam_val, xi_val, n),
        nabla=closed_form_nabla(lam_val, xi_val, n),
        riemann_ops=ops,
        ric=ric,
        flat=is_flat(ops),
        einstein=einstein_test(ric),
        soliton=soliton_certificate(lam_val, xi_val, n, ric),
        spectrum=ricci_spectrum(lam_val, xi_val, n),
    )
    if backend == EXACT:
        return report
    c_d = report.soliton
    return replace(
        report,
        backend=backend,
        u=to_float(report.u),
        nabla=to_float(report.nabla),
        riemann_ops={ij: to_float(op) for ij, op in ops.items()},
        ric=to_float(ric),
        einstein=None if report.einstein is None else float(report.einstein),
        soliton=None if c_d is None else (float(c_d[0]), to_float(c_d[1])),
        spectrum=[float(x) for x in report.spectrum],
    )
