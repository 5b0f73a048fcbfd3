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
    "random_torus_point",
    "random_inward_direction",
]

MAX_ATOMS = 4  # most atoms of a random_measure


def random_unitary(rng: np.random.Generator, n: int) -> np.ndarray:
    """Haar-distributed unitary from the QR of a complex Gaussian matrix."""
    M = rng.normal(size=(n, n)) + 1j * rng.normal(size=(n, n))
    Q, R = np.linalg.qr(M)
    return Q * (np.diag(R) / np.abs(np.diag(R)))


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
    M = rng.normal(size=(dim, dim)) + 1j * rng.normal(size=(dim, dim))
    B = 0.5 * (M + M.conj().T)
    W = random_unitary(rng, dim)
    Y = (W * rng.uniform(size=dim)) @ W.conj().T
    Y = 0.5 * (Y + Y.conj().T)
    alpha = rng.normal(size=dim) + 1j * rng.normal(size=dim)
    return TwoVarNevRep(b=float(rng.normal()), alpha=alpha, B=B, Y=Y)


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
