"""Seeded random instances for property suites and the verify command."""

from __future__ import annotations

import numpy as np

from .colligation import Colligation
from .errors import InvalidInputError
from .nev2d import TwoVarNevRep
from .points import require_torus
from .representations import DiscreteMeasure01

__all__ = [
    "random_unitary",
    "random_projection",
    "random_colligation",
    "random_colligation_with_kernel",
    "random_measure",
    "random_nev_rep",
    "random_interior_point",
    "random_interior_points",
    "random_torus_point",
    "random_torus_points",
    "random_inward_direction",
    "random_inward_directions",
    "random_upper_points",
]

MAX_ATOMS = 4  # most atoms of a random_measure


def _gaussian(rng: np.random.Generator, n: int) -> np.ndarray:
    """An n x n complex Gaussian matrix, drawn as random_unitary draws it."""
    re, im = rng.normal(size=(2, n, n))
    return re + 1j * im


def _haar(Z: np.ndarray) -> np.ndarray:
    """The Haar unitary from the QR of a complex Gaussian matrix, or those
    of a stack of them from one stacked QR, each with its digits alone."""
    Q, R = np.linalg.qr(Z)
    d = np.diagonal(R, axis1=-2, axis2=-1)
    return Q * (d / np.abs(d))[..., None, :]


def random_unitary(rng: np.random.Generator, n: int) -> np.ndarray:
    """Haar-distributed unitary from the QR of a complex Gaussian matrix."""
    return _haar(_gaussian(rng, n))


def random_projection(rng: np.random.Generator, n: int) -> np.ndarray:
    return _projection(rng, n, _Unitaries())()


def random_colligation(rng: np.random.Generator, n: int) -> Colligation:
    """Random unitary colligation on a model space of dimension n."""
    return Colligation(*_colligation(rng, n, _Unitaries())())


def random_colligation_with_kernel(rng: np.random.Generator, n_model: int,
                                   kernel_dim: int, tau) -> Colligation:
    """Random unitary colligation whose operator 1 - D tau has a kernel of
    the requested dimension at the torus point tau.

    A block of the prescribed size is decoupled from the scalar channel and
    made to act as the inverse of the coordinate pencil there, then the whole
    datum is conjugated by a random unitary so the kernel sits in generic
    position.  The remaining block is resampled until it keeps 1 safely out
    of its spectrum.
    """
    return _kernel_colligation(rng, n_model, kernel_dim, tau, _Unitaries())()


def random_measure(rng: np.random.Generator) -> DiscreteMeasure01:
    n = int(rng.integers(1, MAX_ATOMS + 1))
    locations = rng.uniform(size=n)
    weights = rng.uniform(0.1, 2.0, size=n)
    return DiscreteMeasure01(tuple(zip(locations, weights)))


def random_nev_rep(rng: np.random.Generator, dim: int) -> TwoVarNevRep:
    return TwoVarNevRep(*_nev_rep(rng, dim, _Unitaries())())


# Stacked draws: a draw of n points consumes the random stream as n draws of
# one point do, in the same order, and gives the same points bit for bit.  A
# stack is a pair of coordinate arrays, as in ``points``.
#
# The instance draws ``_colligation``, ``_kernel_colligation`` and
# ``_nev_rep`` read the stream as the random_* function of their name does
# and return a function that builds the instance later.  Their unitaries wait
# in one ``_Unitaries``, so the QRs of many instances are taken in one
# stacked call per size, with the same digits.  The ``verify`` suites draw
# every instance and its points this way first, then evaluate all instances
# of one dimension as one stack of realizations, one row per point (see
# ``colligation._stack``).


class _Unitaries:
    """Haar unitaries whose QRs wait.  ``draw(rng, n)`` reads the Gaussian
    matrix of ``random_unitary(rng, n)`` from the stream at once and returns
    a handle.  Calling a handle takes the QRs of every matrix drawn and not
    yet taken, those of one size in one stacked ``np.linalg.qr``, and
    returns its unitary.  The QRs consume no random numbers, so deferring
    them leaves the stream as it was."""

    def __init__(self):
        self._drawn: list[np.ndarray] = []
        self._taken: list[np.ndarray] = []

    def draw(self, rng: np.random.Generator, n: int):
        k = len(self._drawn)
        self._drawn.append(_gaussian(rng, n))
        return lambda: self._take(k)

    def _take(self, k: int) -> np.ndarray:
        if k >= len(self._taken):
            pending = self._drawn[len(self._taken):]
            unitaries = [None] * len(pending)
            for n in dict.fromkeys(len(Z) for Z in pending):
                at = [i for i, Z in enumerate(pending) if len(Z) == n]
                for i, U in zip(at, _haar(np.array([pending[i] for i in at]))):
                    unitaries[i] = U
            self._taken += unitaries
        return self._taken[k]


def _projection(rng, n, unitaries: _Unitaries):
    """Draw what random_projection draws, in its order; return the function
    that builds the projection."""
    rank = int(rng.integers(1, n)) if n > 1 else 1
    W = unitaries.draw(rng, n)

    def build():
        w = W()
        diag = np.zeros(n)
        diag[:rank] = 1.0
        return (w * diag) @ w.conj().T
    return build


def _colligation(rng, n, unitaries: _Unitaries):
    """Draw what random_colligation draws, in its order; return the function
    that builds the colligation's fields (a, beta, gamma, D, P1)."""
    L = unitaries.draw(rng, n + 1)
    P1 = _projection(rng, n, unitaries)

    def build():
        l = L()
        return l[0, 0], l[0, 1:].conj(), l[1:, 0], l[1:, 1:], P1()
    return build


def _kernel_colligation(rng, n_model, kernel_dim, tau, unitaries: _Unitaries):
    """Draw what random_colligation_with_kernel draws, in its order; return
    the function that builds the Colligation.  The resampling loop reads its
    unitaries at once, so it takes their QRs eagerly."""
    tau = require_torus(tau)
    if n_model < 1 or kernel_dim < 1:
        raise InvalidInputError("model and kernel dimensions must be positive")
    n = n_model + kernel_dim
    for _ in range(64):
        L0 = random_unitary(rng, n_model + 1)
        P1_model = random_projection(rng, n_model)
        D0 = L0[1:, 1:]
        pencil0 = tau[0] * P1_model + tau[1] * (np.eye(n_model) - P1_model)
        s = np.linalg.svd(np.eye(n_model) - D0 @ pencil0, compute_uv=False)
        if s[-1] > 1e-3:
            break
    else:
        raise InvalidInputError("failed to draw a block with 1 outside its spectrum")
    if kernel_dim > 1:
        P1_kernel = _projection(rng, kernel_dim, unitaries)
    else:
        bit = np.array([[float(rng.integers(0, 2))]])

        def P1_kernel():
            return bit
    W = unitaries.draw(rng, n)

    def build():
        p1_kernel, w = P1_kernel(), W()
        V = np.conj(tau[0]) * p1_kernel + np.conj(tau[1]) * (np.eye(kernel_dim) - p1_kernel)
        D = np.zeros((n, n), dtype=complex)
        D[:n_model, :n_model] = D0
        D[n_model:, n_model:] = V
        P1 = np.zeros((n, n), dtype=complex)
        P1[:n_model, :n_model] = P1_model
        P1[n_model:, n_model:] = p1_kernel
        beta = np.concatenate([L0[0, 1:].conj(), np.zeros(kernel_dim)])
        gamma = np.concatenate([L0[1:, 0], np.zeros(kernel_dim)])
        return Colligation(
            a=L0[0, 0],
            beta=w @ beta,
            gamma=w @ gamma,
            D=w @ D @ w.conj().T,
            P1=w @ P1 @ w.conj().T,
        )
    return build


def _nev_rep(rng, dim, unitaries: _Unitaries):
    """Draw what random_nev_rep draws, in its order; return the function
    that builds the representation's fields (b, alpha, B, Y)."""
    re, im = rng.normal(size=(2, dim, dim))
    M = re + 1j * im
    W = unitaries.draw(rng, dim)
    y = rng.uniform(size=dim)
    re, im = rng.normal(size=(2, dim))
    alpha = re + 1j * im
    b = float(rng.normal())

    def build():
        w = W()
        Y = (w * y) @ w.conj().T
        return b, alpha, 0.5 * (M + M.conj().T), 0.5 * (Y + Y.conj().T)
    return build


def random_interior_points(rng: np.random.Generator, n: int, rmax: float = 0.9):
    """n points of the bidisc of radius rmax, uniform by area in each
    coordinate, as a stack."""
    u = rng.uniform(size=(n, 4))
    lam = rmax * np.sqrt(u[:, :2]) * np.exp(1j * (2.0 * np.pi * u[:, 2:]))
    return lam[:, 0], lam[:, 1]


def random_torus_points(rng: np.random.Generator, n: int):
    """n uniform points of the torus, as a stack."""
    lam = np.exp(1j * rng.uniform(0.0, 2.0 * np.pi, size=(n, 2)))
    return lam[:, 0], lam[:, 1]


def random_inward_directions(rng: np.random.Generator, tau, n: int):
    """n directions with Re(conj(tau_j) delta_j) > 0 and moderate aperture,
    as a stack."""
    tau = require_torus(tau)
    u = rng.uniform([0.3, 0.3, -1.0, -1.0], [1.5, 1.5, 1.0, 1.0], size=(n, 4))
    # tau_j (radial + i side) from real products: numpy's vectorized complex
    # product can round differently from the scalar one
    t = np.array(tau)[:, None]
    radial, side = u[:, :2].T, u[:, 2:].T
    delta = (t.real * radial - t.imag * side) + 1j * (t.real * side + t.imag * radial)
    return delta[0], delta[1]


def random_upper_points(rng: np.random.Generator, shape):
    """Points x + iy of the box [-3, 3) x [0.05, 3) of the upper half-plane,
    an array of the given shape, each drawn x first."""
    xy = rng.uniform([-3.0, 0.05], [3.0, 3.0], size=(*shape, 2))
    return xy[..., 0] + 1j * xy[..., 1]


# The per-point draws, which the stacked ones reproduce.


def random_interior_point(rng: np.random.Generator, rmax: float = 0.9):
    r = rmax * np.sqrt(rng.uniform(size=2))
    angle = rng.uniform(0.0, 2.0 * np.pi, size=2)
    return (r[0] * np.exp(1j * angle[0]), r[1] * np.exp(1j * angle[1]))


def random_torus_point(rng: np.random.Generator):
    angle = rng.uniform(0.0, 2.0 * np.pi, size=2)
    return (np.exp(1j * angle[0]), np.exp(1j * angle[1]))


def random_inward_direction(rng: np.random.Generator, tau):
    """Direction with Re(conj(tau_j) delta_j) > 0, moderate aperture."""
    tau = require_torus(tau)
    radial = rng.uniform(0.3, 1.5, size=2)
    side = rng.uniform(-1.0, 1.0, size=2)
    return (tau[0] * (radial[0] + 1j * side[0]), tau[1] * (radial[1] + 1j * side[1]))
