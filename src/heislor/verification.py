"""Named end-to-end checks reproducing every published table and claim.

Each check returns a CheckResult; the CLI `verify` command and the
acceptance test suite both run them.  Tolerances are fixed here, not
configurable, because they are part of the acceptance contract.
"""

from __future__ import annotations

import time
from dataclasses import dataclass
from fractions import Fraction

import numpy as np

from ._linalg import det, exact_zeros
from .curvature import (
    closed_form_nabla,
    closed_form_ricci,
    closed_form_riemann,
    closed_form_u,
    curvature_report,
    derivation_identity_residual,
    frame_brackets,
    generic_curvature,
    ricci_spectrum,
)
from .liealg import aut_pattern, derivation_space_dim, require_dim
from .metrics import (
    CANONICAL_PAIRS,
    Metric,
    act,
    canonical_gram,
    canonical_metric,
    xi_exact,
)
from .numerics import APPROX, EXACT, SQRT3_F, QSqrt3
from .orbits import acting_group_dim, codimension, degeneration_graph, is_closed
from .reduction import (
    classify,
    lambda2_closed_form,
    restricted_signatures,
    signature_table,
    verify_witness,
)

#: check_ivt_roots' float residual bound, in eps times its terms' sizes; first order gives 7.39
ROOT_RESIDUAL_EPS = 8
#: n of the exact curvature checks: the oracle at every table n, the costlier two at 4 and 6
_ORACLE_NS, _CURVATURE_NS = tuple(range(4, 11)), (4, 6)
#: the seeded sample of t in each of the lam=2 root check's five ranges
_IVT_SAMPLES, _IVT_SEED = 100, 7


def codimension_table(n: int) -> dict[tuple[int, str], int]:
    """Codimensions of the six orbits as a function of n."""
    require_dim(n)
    return {
        (0, "0"): 0,
        (1, "0"): n - 2,
        (1, "1"): 1,
        (2, "0"): 0,
        (2, "sqrt3"): 1,
        (2, "2"): 0,
    }


#: Ricci eigenvalues on the corner block for each class
RICCI_SPECTRA: dict[tuple[int, str], tuple[Fraction, ...]] = {
    (0, "0"): (Fraction(1, 2), Fraction(1, 2), Fraction(-1, 2), Fraction(0)),
    (1, "0"): (Fraction(0),) * 4,
    (1, "1"): (Fraction(0),) * 4,
    (2, "0"): (Fraction(9, 2), Fraction(9, 2), Fraction(-9, 2), Fraction(0)),
    (2, "sqrt3"): (Fraction(0),) * 4,
    (2, "2"): (Fraction(3, 2), Fraction(-3, 2), Fraction(-3, 2), Fraction(0)),
}

#: the six direct degeneration edges
DIRECT_EDGES = {
    ((0, "0"), (1, "1")),
    ((1, "1"), (1, "0")),
    ((2, "0"), (2, "sqrt3")),
    ((2, "sqrt3"), (1, "0")),
    ((2, "2"), (1, "1")),
    ((2, "2"), (2, "sqrt3")),
}


@dataclass
class CheckResult:
    name: str
    passed: bool
    detail: str
    duration: float

    def line(self) -> str:
        status = "PASS" if self.passed else "FAIL"
        return f"{status}  {self.name}  ({self.duration:.2f}s)  {self.detail}"


def _timed(name: str, fn) -> CheckResult:
    start = time.perf_counter()
    try:
        detail = fn()
        passed, detail = True, detail or ""
    except Exception as exc:  # noqa: BLE001 - a check failure is data, not a crash
        passed, detail = False, f"{type(exc).__name__}: {exc}"
    return CheckResult(name=name, passed=passed, detail=detail, duration=time.perf_counter() - start)


# -- randomized classification (six-class agreement + witness soundness) --------


def random_group_element(n: int, rng: np.random.Generator) -> np.ndarray:
    """A well-conditioned random element of the scaled automorphism pattern."""
    mask = aut_pattern(n).mask
    while True:
        phi = np.where(mask, rng.uniform(-1.0, 1.0, (n, n)), 0.0)
        det2 = abs(phi[0, 0] * phi[1, 1] - phi[0, 1] * phi[1, 0])
        mid = phi[2 : n - 1, 2 : n - 1]
        det_mid = abs(det(mid)) if mid.size else 1.0
        if det2 > 0.05 and det_mid > 0.05 and abs(phi[n - 1, n - 1]) > 0.2:
            scale = rng.uniform(0.5, 2.0) * rng.choice([-1.0, 1.0])
            return scale * phi


def random_orbit_metric(
    pair: tuple[int, str], n: int, rng: np.random.Generator
) -> Metric:
    base = Metric(
        gram=canonical_gram(pair[0], float(xi_exact(pair[1])), n, exact=False),
        backend=APPROX,
    )
    return act(random_group_element(n, rng), base)


def run_randomized_classification(
    n_values=(4, 5, 6, 7, 8),
    samples: int = 1000,
    seed: int = 20240,
) -> tuple[CheckResult, CheckResult]:
    """Classify random orbit samples with both classifiers; verify witnesses.

    Returns the six-class agreement check and the witness soundness check.
    """
    start = time.perf_counter()
    rng = np.random.default_rng(seed)
    total = 0
    mismatches = []
    worst_residual = 0.0
    witness_failures = []
    for n in n_values:
        for pair in CANONICAL_PAIRS:
            for _ in range(samples):
                metric = random_orbit_metric(pair, n, rng)
                total += 1
                try:
                    # the invariant classifier's class, matched by the pipeline
                    form, _k, witness = classify(metric)
                except Exception as exc:  # noqa: BLE001
                    mismatches.append(f"{pair} n={n}: {type(exc).__name__}: {exc}")
                    continue
                if form.pair != pair:
                    mismatches.append(f"{pair} n={n}: classify={form.pair}")
                result = verify_witness(metric, witness)
                worst_residual = max(worst_residual, result.residual)
                if not result.ok:
                    witness_failures.append(f"{pair} n={n}: {result.detail}")
    elapsed = time.perf_counter() - start
    ok1 = not mismatches
    detail1 = (
        f"{total} classifications, zero confusion, {elapsed:.1f}s"
        if ok1
        else f"{len(mismatches)} mismatches, first: {mismatches[0]}"
    )
    crit1 = CheckResult("six-class-randomized", ok1, detail1, elapsed)
    ok9 = not witness_failures
    detail9 = (
        f"max residual {worst_residual:.2e} over {total} witnesses"
        if ok9
        else f"{len(witness_failures)} failures, first: {witness_failures[0]}"
    )
    crit9 = CheckResult("witness-soundness", ok9, detail9, elapsed)
    return crit1, crit9


# -- the remaining checks --------------------------------------------------------


def check_signature_table(n_values=tuple(range(4, 11))) -> CheckResult:
    def run():
        for n in n_values:
            expected = signature_table(n)
            for pair in CANONICAL_PAIRS:
                metric, _ = canonical_metric(pair[0], pair[1], n)
                center, derived = restricted_signatures(metric)
                if (center, derived) != expected[pair]:
                    raise AssertionError(
                        f"signatures at {pair}, n={n}: {(center, derived)} != {expected[pair]}"
                    )
        return f"all six rows exact for n in {list(n_values)}"

    return _timed("signature-table", run)


def check_curvature_oracle() -> CheckResult:
    def run():
        for n in _ORACLE_NS:
            for pair in CANONICAL_PAIRS:
                lam = QSqrt3(pair[0])
                xi = xi_exact(pair[1])
                _, u_g, nabla_g, ops_g, ric_g = generic_curvature(lam, xi, n)
                ops_c = closed_form_riemann(lam, xi, n)
                zero = exact_zeros((n, n))  # pairs touching the inert middle directions
                tables = [
                    ("U", u_g, closed_form_u(lam, xi, n)),
                    ("nabla", nabla_g, closed_form_nabla(lam, xi, n)),
                    ("ric", ric_g, closed_form_ricci(lam, xi, n)),
                    *((f"R{key}", op, ops_c.get(key, zero)) for key, op in ops_g.items()),
                ]
                for name, got, want in tables:
                    if not np.array_equal(got, want):
                        raise AssertionError(f"{name} mismatch at {pair}, n={n}")
        return f"generic pipeline equals closed forms exactly, n in {list(_ORACLE_NS)}"

    return _timed("curvature-tables-oracle", run)


def check_flat_einstein_soliton() -> CheckResult:
    def run():
        for n in _CURVATURE_NS:
            for pair in CANONICAL_PAIRS:
                report = curvature_report(pair[0], pair[1], n, backend=EXACT)
                should_be_flat = pair == (1, "0")
                if report.flat != should_be_flat:
                    raise AssertionError(f"flatness wrong at {pair}, n={n}")
                if (report.einstein is not None) != should_be_flat:
                    raise AssertionError(f"Einstein test wrong at {pair}, n={n}")
                if report.soliton is None:
                    raise AssertionError(f"no soliton certificate at {pair}, n={n}")
                _c, d = report.soliton
                # the certificate is exact by construction; D must be a derivation
                brackets = frame_brackets(QSqrt3(pair[0]), xi_exact(pair[1]), n)
                if derivation_identity_residual(d, brackets) != 0.0:
                    raise AssertionError(f"soliton D not a derivation at {pair}, n={n}")
        ns = list(_CURVATURE_NS)
        return f"flat iff (1,0); Einstein iff flat; exact soliton for all six, n in {ns}"

    return _timed("flat-einstein-soliton", run)


def check_ricci_spectra() -> CheckResult:
    def run():
        for n in _CURVATURE_NS:
            for pair, expected in RICCI_SPECTRA.items():
                spectrum = ricci_spectrum(pair[0], xi_exact(pair[1]), n)
                got = sorted(spectrum, reverse=True)
                want = [QSqrt3(f) for f in sorted(expected, reverse=True)]
                if len(got) != len(want) or any(
                    not isinstance(g, QSqrt3) or g != w for g, w in zip(got, want)
                ):
                    raise AssertionError(f"spectrum at {pair}, n={n}: {got} != {want}")
        return "all six spectra reproduced exactly"

    return _timed("ricci-spectra", run)


def check_codimension_table(n_values=tuple(range(4, 11))) -> CheckResult:
    def run():
        for n in n_values:
            expected = codimension_table(n)
            for pair in CANONICAL_PAIRS:
                got = codimension(pair[0], pair[1], n)  # asserts the rank oracle inside
                if got != expected[pair]:
                    raise AssertionError(f"codim at {pair}, n={n}: {got} != {expected[pair]}")
            dim, group_dim = derivation_space_dim(n), acting_group_dim(n)
            if dim != group_dim:
                raise AssertionError(f"derivation space dim at n={n}: {dim} != {group_dim}")
        return f"codimension table, stabilizer oracle and derivation dim for n in {list(n_values)}"

    return _timed("codimension-table", run)


def check_degeneration_graph(n_values=(4, 5, 6)) -> CheckResult:
    def run():
        for n in n_values:
            graph = degeneration_graph(n)
            if graph.direct_edges() != DIRECT_EDGES:
                raise AssertionError(f"direct edges at n={n}: {graph.direct_edges()}")
            want_pairs = {
                (s, d)
                for s in CANONICAL_PAIRS
                for d in CANONICAL_PAIRS
                if s != d
            }
            covered = set(graph.edges) | set(graph.non_edges)
            if covered != want_pairs:
                raise AssertionError(f"uncovered ordered pairs at n={n}")
            sinks = [p for p in graph.nodes if not graph.outgoing(p)]
            if sinks != [(1, "0")]:
                raise AssertionError(f"closed orbits at n={n}: {sinks}")
            if not is_closed(1, "0", n) or any(
                is_closed(p[0], p[1], n) for p in CANONICAL_PAIRS if p != (1, "0")
            ):
                raise AssertionError("is_closed disagrees with the graph")
        return f"six direct edges, obstructed non-edges, unique flat sink, n in {list(n_values)}"

    return _timed("degeneration-graph", run)


def _lambda2_squares(xi_key: str, t):
    """(d, d u^2, 3 d phi^2) of lambda2_closed_form's root, u = 3s - 4, as polynomials in t."""
    if xi_key == "0":  # u^2 = 3/(3 - t^2), phi = t u/3
        return 3 - t * t, 3, t * t
    return t * t - 3, (3 + 2 * t) ** 2, 3 * (t + 2) ** 2  # u = (3 + 2t)/r, phi = (t + 2)/r, r^2 = d


def check_ivt_roots() -> CheckResult:
    """Certify lambda2_closed_form, the lam=2 root classify runs, for every t >= 0 off sqrt3.

    With u = 3s - 4, phi(s) = sqrt((u^2 - 1)/3), so the closed form solves its root equation
    if u, phi >= 0 and 3 d phi^2 = d u^2 - d over its denominator d: degree <= 2 in t, so true
    for all t if true at three.  Its float output, read exactly, must bound u^2 d - (d u^2)
    and 3 phi^2 - (u^2 - 1) by ROOT_RESIDUAL_EPS eps times their terms' sizes.  At first order,
    eps/2 a rounding (Higham sect. 3.1): 3 - t^2 is within 2.26 eps (four roundings and sqrt3's
    dropped digits), u within 2.39 eps (2.63 on xi = 2), and 3s - 4 reads s's two roundings
    back times (4 + u)/u <= 5: 7.39 eps in the first residual.  In the second the root's error
    cancels, as 3 phi^2 - u^2 = -1, and the rest peaks at u = 1, again at 7.39 eps.
    """

    def run():
        for key, t in [(key, Fraction(t)) for key in "02" for t in (0, 1, 2)]:
            d, du2, d3phi2 = _lambda2_squares(key, t)
            if d3phi2 != du2 - d:
                raise AssertionError(f"3 phi^2 != u^2 - 1 on xi={key} at t={t}")
        if _lambda2_squares("0", 0)[:2] != (3, 3) or _lambda2_squares("2", 2)[:2] != (1, 49):
            raise AssertionError("spot roots: u^2 != 1 (s = 5/3) at t = 0 or 49 (s = 11/3) at 2")
        rng = np.random.default_rng(_IVT_SEED)
        near = 10.0 ** rng.uniform(-12.0, 0.0, (3, _IVT_SAMPLES))  # off 0, either side of sqrt3
        ts = [0.0, 2.0, *near[0], *(SQRT3_F - near[1]), *(SQRT3_F + near[2])]
        ts += [*rng.uniform(0.0, SQRT3_F, _IVT_SAMPLES), *rng.uniform(SQRT3_F, 20.0, _IVT_SAMPLES)]
        worst = Fraction(0)
        for t in ts:
            key, s, phi = lambda2_closed_form(t)
            t, u, phi = Fraction(t), 3 * Fraction(s) - 4, Fraction(phi)
            if key != ("0" if t * t < 3 else "2") or not (u > 0 and phi >= 0):
                raise AssertionError(f"t={float(t)} gave xi={key}, s={s}, phi={float(phi)}")
            d, du2, _ = _lambda2_squares(key, t)
            worst = max(worst, abs(u * u * d - du2) / (u * u * (t * t + 3) + du2),
                        abs(3 * phi**2 - u * u + 1) / (3 * phi**2 + u * u + 1))
        worst = float(worst) / np.finfo(float).eps
        bound = f"float residuals <= {ROOT_RESIDUAL_EPS} eps x terms (worst {worst:.3g})"
        if worst > ROOT_RESIDUAL_EPS:
            raise AssertionError(f"failed: {bound}")
        return f"for every t >= 0 off sqrt3: 3 phi^2 = u^2 - 1 exactly; {bound}"

    return _timed("ivt-roots", run)


def run_all(
    n_min: int = 4,
    n_max: int = 8,
    samples: int = 200,
    seed: int = 20240,
) -> list[CheckResult]:
    """The full verification suite over n in [n_min, n_max]."""
    n_values = tuple(range(n_min, n_max + 1))
    table_ns = tuple(range(n_min, max(n_max, 10) + 1))
    crit1, crit9 = run_randomized_classification(n_values, samples=samples, seed=seed)
    return [
        crit1,
        check_signature_table(table_ns),
        check_curvature_oracle(),
        check_flat_einstein_soliton(),
        check_ricci_spectra(),
        check_codimension_table(table_ns),
        check_degeneration_graph(tuple(n for n in (4, 5, 6) if n_min <= n <= max(n_max, 6))),
        check_ivt_roots(),
        crit9,
    ]
