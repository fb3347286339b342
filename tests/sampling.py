"""Seeded random-state generators used by the property tests."""

import numpy as np


def random_pure_state(rng: np.random.Generator, dim: int) -> np.ndarray:
    """Haar-like pure state: normalized vector of complex normal amplitudes."""
    v = rng.normal(size=dim) + 1j * rng.normal(size=dim)
    return v / np.linalg.norm(v)


def random_density(rng: np.random.Generator, dim: int) -> np.ndarray:
    """Full-rank random density matrix G G^dag / tr(G G^dag)."""
    g = rng.normal(size=(dim, dim)) + 1j * rng.normal(size=(dim, dim))
    m = g @ g.conj().T
    return m / m.trace().real


def random_bloch(rng: np.random.Generator) -> tuple[float, float, float]:
    """Uniform direction on the Bloch sphere."""
    while True:
        v = rng.normal(size=3)
        norm = np.linalg.norm(v)
        if norm > 1e-12:
            return tuple(v / norm)


def two_basin_states(seed: int = 7, count: int = 400) -> list[tuple[np.ndarray, float]]:
    """(rho, optimum) for Bell-diagonal states whose two best bases nearly tie, each under a random unitary on Alice.

    rho = (U x I)(I x I + sum_i t_i s_i x s_i)(U x I)^dag / 4 with |t_1| and |t_2| differing by a relative 1e-6 to
    1e-1 (log-uniform), t_3 uniform in [-1, 1] (redrawn until rho is a state) and U Haar on SU(2).  Alice's best
    bases are U's images of x and y, and the optimum is 1 - h((1 + max(|t_1|, |t_2|)) / 2) bits.
    """
    rng = np.random.default_rng(seed)
    paulis = np.array([[[0, 1], [1, 0]], [[0, -1j], [1j, 0]], [[1, 0], [0, -1]]], dtype=complex)
    out = []
    while len(out) < count:
        big = rng.uniform(0.1, 0.95)
        t = np.array([big, big * (1.0 - 10.0 ** rng.uniform(-6.0, -1.0)), rng.uniform(-1.0, 1.0)])
        t[:2] *= rng.choice([-1.0, 1.0], 2)
        if rng.uniform() < 0.5:
            t[[0, 1]] = t[[1, 0]]
        q = rng.normal(size=4)
        u = np.kron((q[0] * np.eye(2) - 1j * np.einsum("i,ijk->jk", q[1:], paulis)) / np.linalg.norm(q), np.eye(2))
        rho = (np.eye(4) + np.einsum("i,ijk,ilm->jlkm", t, paulis, paulis).reshape(4, 4)) / 4.0
        if np.linalg.eigvalsh(rho)[0] < 0.0:
            continue
        x = (1.0 + max(abs(t[0]), abs(t[1]))) / 2.0
        out.append((u @ rho @ u.conj().T, 1.0 + x * np.log2(x) + (1.0 - x) * np.log2(1.0 - x)))
    return out
