"""Seeded random instances for property suites and the verify command."""

from __future__ import annotations

import numpy as np

from .colligation import Colligation
from .errors import InvalidInputError
from .linalg import _adjoint, _apply
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
# the smallest singular value of 1 - c D0 pencil0 must exceed this for the
# phase c that random_colligation_with_kernel gives its block
BLOCK_SIGMA_MIN = 1e-3
_PHASES = np.array([1.0, 1j, -1.0, -1j])


def _haar(Z: np.ndarray) -> np.ndarray:
    """The Haar unitaries from the QRs of a stack of complex Gaussian
    matrices, in one stacked QR, each with its digits alone."""
    Q, R = np.linalg.qr(Z)
    d = np.diagonal(R, axis1=-2, axis2=-1)
    return Q * (d / np.abs(d))[..., None, :]


# Batched draws.  Each draws a batch of instances of one dimension (or one
# shape), every array of all of them in one generator call, in the order of
# the arrays of one instance, and gives their fields as stacks, one row per
# instance; the colligations with a kernel and the measures come as lists.
# A generator call of size k reads the stream as k calls of one do, so a
# batch of one reads it as the per-instance draws of the random_* functions
# below, which are their batches of one.  The Haar unitaries of one Gaussian
# array come from one stacked QR.  No batch reads the stream according to a
# value it drew.


def _unitaries(rng, n, count):
    """count Haar unitaries of size n from one Gaussian array, each drawn
    real part first."""
    re, im = np.moveaxis(rng.normal(size=(count, 2, n, n)), 1, 0)
    return _haar(re + 1j * im)


def _projections(rng, n, count):
    """count projections of C^n, each of a rank from 1 to n - 1 (1 when
    n = 1) in a Haar basis: the ranks, then the unitaries."""
    rank = rng.integers(1, n, size=count) if n > 1 else np.ones(count, int)
    w = _unitaries(rng, n, count)
    return (w * (np.arange(n) < rank[:, None])[:, None, :]) @ _adjoint(w)


def _colligations(rng, n, count):
    """The fields (a, beta, gamma, D, P1) of count random colligations on
    C^n: L, then P1."""
    L = _unitaries(rng, n + 1, count)
    return L[:, 0, 0], L[:, 0, 1:].conj(), L[:, 1:, 0], L[:, 1:, 1:], _projections(rng, n, count)


def _kernel_colligations(rng, n_model, kernel_dim, taus) -> list[Colligation]:
    """One colligation of random_colligation_with_kernel per torus point of
    ``taus``: L0, the model projection, the kernel projection (or its 0/1
    bit when kernel_dim is 1), then W, each drawn for all of them.  The
    block phases are chosen after every draw."""
    taus = np.array([require_torus(tau) for tau in taus]).T[:, :, None, None]
    if n_model < 1 or kernel_dim < 1:
        raise InvalidInputError("model and kernel dimensions must be positive")
    count, n = taus.shape[1], n_model + kernel_dim
    l0 = _unitaries(rng, n_model + 1, count)
    p1_model = _projections(rng, n_model, count)
    p1_kernel = (_projections(rng, kernel_dim, count) if kernel_dim > 1
                 else rng.integers(0, 2, size=(count, 1, 1)).astype(float))
    w = _unitaries(rng, n, count)
    eye = np.eye(n_model)
    A = l0[:, 1:, 1:] @ (taus[0] * p1_model + taus[1] * (eye - p1_model))
    sigma_min = np.linalg.svd(eye - _PHASES[:, None, None, None] * A, compute_uv=False)[..., -1]
    turns = sigma_min > BLOCK_SIGMA_MIN
    if not turns.any(axis=0).all():
        raise InvalidInputError("no phase keeps 1 outside the block's spectrum")
    c = _PHASES[turns.argmax(axis=0)][:, None, None]
    V = np.conj(taus[0]) * p1_kernel + np.conj(taus[1]) * (np.eye(kernel_dim) - p1_kernel)
    D = np.zeros((count, n, n), dtype=complex)
    D[:, :n_model, :n_model] = c * l0[:, 1:, 1:]
    D[:, n_model:, n_model:] = V
    P1 = np.zeros((count, n, n), dtype=complex)
    P1[:, :n_model, :n_model] = p1_model
    P1[:, n_model:, n_model:] = p1_kernel
    beta = np.zeros((count, n), dtype=complex)
    beta[:, :n_model] = l0[:, 0, 1:].conj()
    gamma = np.zeros((count, n), dtype=complex)
    gamma[:, :n_model] = c[:, 0] * l0[:, 1:, 0]
    w_h = _adjoint(w)
    return [Colligation(*fields) for fields in zip(
        l0[:, 0, 0], _apply(w, beta), _apply(w, gamma), w @ D @ w_h, w @ P1 @ w_h)]


def _measures(rng, count) -> list[DiscreteMeasure01]:
    """count random measures: the numbers of atoms, then every location,
    then every weight."""
    sizes = rng.integers(1, MAX_ATOMS + 1, size=count)
    locations = rng.uniform(size=sizes.sum())
    weights = rng.uniform(0.1, 2.0, size=sizes.sum())
    cuts = np.cumsum(sizes)[:-1]
    return [DiscreteMeasure01(tuple(zip(s, w)))
            for s, w in zip(np.split(locations, cuts), np.split(weights, cuts))]


def _nev_reps(rng, dim, count):
    """The fields (b, alpha, B, Y) of count random representations of
    dimension dim: M, the unitary of Y, its eigenvalues, alpha, then b."""
    re, im = np.moveaxis(rng.normal(size=(count, 2, dim, dim)), 1, 0)
    M = re + 1j * im
    w = _unitaries(rng, dim, count)
    Y = (w * rng.uniform(size=(count, 1, dim))) @ _adjoint(w)
    re, im = np.moveaxis(rng.normal(size=(count, 2, dim)), 1, 0)
    b = rng.normal(size=count)
    return b, re + 1j * im, 0.5 * (M + _adjoint(M)), 0.5 * (Y + _adjoint(Y))


def random_unitary(rng: np.random.Generator, n: int) -> np.ndarray:
    """Haar-distributed unitary from the QR of a complex Gaussian matrix."""
    return _unitaries(rng, n, 1)[0]


def random_projection(rng: np.random.Generator, n: int) -> np.ndarray:
    return _projections(rng, n, 1)[0]


def random_colligation(rng: np.random.Generator, n: int) -> Colligation:
    """Random unitary colligation on a model space of dimension n."""
    return Colligation(*(field[0] for field in _colligations(rng, n, 1)))


def random_colligation_with_kernel(rng: np.random.Generator, n_model: int,
                                   kernel_dim: int, tau) -> Colligation:
    """Random unitary colligation whose operator 1 - D tau has a kernel of
    the requested dimension at the torus point tau.

    A block of the prescribed size is decoupled from the scalar channel and
    made to act as the inverse of the coordinate pencil there, then the whole
    datum is conjugated by a random unitary so the kernel sits in generic
    position.  The rows of the remaining block's unitary L0 below the first
    (gamma0 and D0) are multiplied by the first phase c of 1.0, 1j, -1.0,
    -1j for which 1 - c D0 pencil0 keeps its smallest singular value above
    BLOCK_SIGMA_MIN, so that 1 stays safely out of the block's spectrum.
    This keeps L0 unitary, and 1.0 leaves it as drawn.
    """
    return _kernel_colligations(rng, n_model, kernel_dim, [tau])[0]


def random_measure(rng: np.random.Generator) -> DiscreteMeasure01:
    return _measures(rng, 1)[0]


def random_nev_rep(rng: np.random.Generator, dim: int) -> TwoVarNevRep:
    return TwoVarNevRep(*(field[0] for field in _nev_reps(rng, dim, 1)))


# Stacked point draws: a draw of n points consumes the random stream as n
# draws of one point do, in the same order, and gives the same points bit
# for bit.  A stack is a pair of coordinate arrays, as in ``points``.


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
