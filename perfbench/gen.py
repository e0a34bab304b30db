"""Seeded workload inputs, built from closed forms with plain numpy.

Nothing here imports the package: an edit to the library cannot change
what the benchmark feeds it.  Every input is a Gram matrix of a canonical
class (or of a sheared form next to a classification wall) pushed forward
by a random element of the scaled automorphism block pattern.
"""

from __future__ import annotations

import math

import numpy as np

SQRT3 = math.sqrt(3.0)

#: the six classes as (lambda, xi key); xi keys follow the package's JSON schema
CLASSES = ((0, "0"), (1, "0"), (1, "1"), (2, "0"), (2, "sqrt3"), (2, "2"))
XI_VALUE = {"0": 0.0, "1": 1.0, "sqrt3": SQRT3, "2": 2.0}

N_VALUES = (4, 5, 6, 7, 8)
#: near-wall offsets from the wall, 1e-1 ... 1e-8
WALL_OFFSETS = tuple(10.0 ** -k for k in range(1, 9))
#: near-wall overall scales, 1e0 ... 1e6
SCALES = tuple(10.0 ** k for k in range(0, 7))
#: a class read off within this distance of its wall may be either neighbour
AMBIGUITY_BAND = 1e-6


def canonical_gram(lam: float, xi: float, n: int) -> np.ndarray:
    """Gram matrix of diag(1,..,1,-1) in the frame I + xi E_(1,n-1) + lam E_(1,n)."""
    sinv = np.eye(n)
    sinv[0, n - 2] = -xi
    sinv[0, n - 1] = -lam
    minkowski = np.eye(n)
    minkowski[n - 1, n - 1] = -1.0
    return sinv.T @ minkowski @ sinv


def aut_mask(n: int) -> np.ndarray:
    """Allowed entries of R x Aut(h3 + R^(n-3)), block sizes (2, n-3, 1)."""
    mask = np.zeros((n, n), dtype=bool)
    mask[0:2, 0:2] = True
    mask[2 : n - 1, 0 : n - 1] = True
    mask[n - 1, :] = True
    return mask


def group_element(n: int, rng: np.random.Generator) -> np.ndarray:
    """A well-conditioned random pattern element (the criterion-1 distribution)."""
    mask = aut_mask(n)
    while True:
        phi = np.where(mask, rng.uniform(-1.0, 1.0, (n, n)), 0.0)
        det2 = abs(phi[0, 0] * phi[1, 1] - phi[0, 1] * phi[1, 0])
        mid = phi[2 : n - 1, 2 : n - 1]
        det_mid = abs(np.linalg.det(mid)) if mid.size else 1.0
        if det2 > 0.05 and det_mid > 0.05 and abs(phi[n - 1, n - 1]) > 0.2:
            return rng.uniform(0.5, 2.0) * rng.choice([-1.0, 1.0]) * phi


def act(g: np.ndarray, gram: np.ndarray) -> np.ndarray:
    ginv = np.linalg.inv(g)
    out = ginv.T @ gram @ ginv
    return (out + out.T) / 2.0


class Case:
    """One input: its Gram matrix, the true class and the classes allowed near a wall."""

    __slots__ = ("gram", "truth", "allowed", "label")

    def __init__(self, gram, truth, allowed, label):
        self.gram = gram
        self.truth = truth
        self.allowed = allowed
        self.label = label

    @property
    def n(self) -> int:
        return self.gram.shape[0]


def _near_wall_grid() -> list[tuple]:
    """(lam, xi, scale, truth, allowed, label) for every near-wall case.

    lambda=2 puts its wall at xi = sqrt3: below it the class is (2, 0),
    above it (2, 2).  lambda=1 puts its wall at xi = 0: any xi > 0 is (1, 1).
    Inside AMBIGUITY_BAND the neighbouring classes across the wall also count
    as right answers; outside it only the true class does.
    """
    lam2_near = {(2, "0"), (2, "sqrt3"), (2, "2")}
    lam1_near = {(1, "0"), (1, "1")}
    grid = []
    for off in WALL_OFFSETS:
        near = off <= AMBIGUITY_BAND
        for lam, xi, truth, band, label in (
            (2, SQRT3 - off, (2, "0"), lam2_near, f"l2-{off:g}"),
            (2, SQRT3 + off, (2, "2"), lam2_near, f"l2+{off:g}"),
            (1, off, (1, "1"), lam1_near, f"l1+{off:g}"),
        ):
            grid.append((lam, xi, 1.0, truth, band if near else {truth}, label))
    for pair in CLASSES:
        for scale in SCALES:
            grid.append((pair[0], XI_VALUE[pair[1]], scale, pair, {pair}, f"{pair}x{scale:g}"))
    return grid


NEAR_WALL_GRID = _near_wall_grid()


def _orbit_case(spec, n: int, rng: np.random.Generator) -> Case:
    gram = act(group_element(n, rng), canonical_gram(spec[0], XI_VALUE[spec[1]], n))
    return Case(gram, spec, {spec}, f"{spec}")


def _near_wall_case(spec, n: int, rng: np.random.Generator) -> Case:
    lam, xi, scale, truth, allowed, label = spec
    gram = act(group_element(n, rng), scale * canonical_gram(lam, xi, n))
    return Case(gram, truth, allowed, label)


#: per sweep: the case specs and how an input is made from a spec, an n and the rng
SWEEPS = {
    "orbit-sweep": (CLASSES, _orbit_case),
    "near-wall": (NEAR_WALL_GRID, _near_wall_case),
}


def stream(workload: str, seed: int):
    """The endless, seed-determined input sequence of a sweep workload.

    Stratified: each cycle holds every (spec, n) once, in shuffled order, so
    the mix is the same for every seed and only the group elements and the
    order depend on it.
    """
    specs, make = SWEEPS[workload]
    strata = [(spec, n) for spec in specs for n in N_VALUES]
    rng = np.random.default_rng(seed)
    while True:
        for k in rng.permutation(len(strata)):
            spec, n = strata[k]
            yield make(spec, n, rng)


def sign_flip(case: Case, rng: np.random.Generator) -> Case:
    """The same input after a random diagonal +-1 change of basis.

    Such a matrix lies in the pattern with scale +-1, so the class, the scale
    k and the numerical difficulty are unchanged and every entry stays exact;
    only signs move, so a block repeated round after round seldom hands the
    package the same bytes twice.
    """
    signs = rng.choice([-1.0, 1.0], case.n)
    return Case(case.gram * np.outer(signs, signs), case.truth, case.allowed, case.label)
