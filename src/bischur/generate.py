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


def random_unitary(rng: np.random.Generator, n: int) -> np.ndarray:
    """Haar-distributed unitary from the QR of a complex Gaussian matrix."""
    re, im = rng.normal(size=(2, n, n))
    Q, R = np.linalg.qr(re + 1j * im)
    d = R.diagonal()
    return Q * (d / np.abs(d))


def random_projection(rng: np.random.Generator, n: int) -> np.ndarray:
    rank = int(rng.integers(1, n)) if n > 1 else 1
    W = random_unitary(rng, n)
    diag = np.zeros(n)
    diag[:rank] = 1.0
    return (W * diag) @ W.conj().T


def random_colligation(rng: np.random.Generator, n: int) -> Colligation:
    """Random unitary colligation on a model space of dimension n."""
    L = random_unitary(rng, n + 1)
    return Colligation(a=L[0, 0], beta=L[0, 1:].conj(), gamma=L[1:, 0],
                       D=L[1:, 1:], P1=random_projection(rng, n))


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
    P1_kernel = random_projection(rng, kernel_dim) if kernel_dim > 1 else \
        np.array([[float(rng.integers(0, 2))]])
    V = np.conj(tau[0]) * P1_kernel + np.conj(tau[1]) * (np.eye(kernel_dim) - P1_kernel)

    D = np.zeros((n, n), dtype=complex)
    D[:n_model, :n_model] = D0
    D[n_model:, n_model:] = V
    P1 = np.zeros((n, n), dtype=complex)
    P1[:n_model, :n_model] = P1_model
    P1[n_model:, n_model:] = P1_kernel
    beta = np.concatenate([L0[0, 1:].conj(), np.zeros(kernel_dim)])
    gamma = np.concatenate([L0[1:, 0], np.zeros(kernel_dim)])

    W = random_unitary(rng, n)
    return Colligation(
        a=L0[0, 0],
        beta=W @ beta,
        gamma=W @ gamma,
        D=W @ D @ W.conj().T,
        P1=W @ P1 @ W.conj().T,
    )


def random_measure(rng: np.random.Generator) -> DiscreteMeasure01:
    n = int(rng.integers(1, MAX_ATOMS + 1))
    locations = rng.uniform(size=n)
    weights = rng.uniform(0.1, 2.0, size=n)
    return DiscreteMeasure01(tuple(zip(locations, weights)))


def random_nev_rep(rng: np.random.Generator, dim: int) -> TwoVarNevRep:
    re, im = rng.normal(size=(2, dim, dim))
    M = re + 1j * im
    B = 0.5 * (M + M.conj().T)
    W = random_unitary(rng, dim)
    Y = (W * rng.uniform(size=dim)) @ W.conj().T
    Y = 0.5 * (Y + Y.conj().T)
    re, im = rng.normal(size=(2, dim))
    alpha = re + 1j * im
    return TwoVarNevRep(b=float(rng.normal()), alpha=alpha, B=B, Y=Y)


# Stacked draws: a draw of n points consumes the random stream as n draws of
# one point do, in the same order, and gives the same points bit for bit.  A
# stack is a pair of coordinate arrays, as in ``points``.


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
