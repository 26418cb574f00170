"""Model spatial operators: prescribed eigenvalue multisets (SPD and
skew-symmetric) plus small tridiagonal/circulant matrix realizations for
cross-validating the diagonal solver path.  A problem's class follows from
its eigenvalues: SPD when they are all real, skew otherwise."""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from ._csv import write_csv

__all__ = [
    "ModelProblem",
    "make_spd_interval",
    "make_fd_diffusion",
    "make_skew_advection",
    "eigenvalues_to_csv",
    "eigenvalues_from_csv",
]

@dataclass(frozen=True)
class ModelProblem:
    """A simultaneously diagonalizable operator given by its eigenvalues.

    The eigenvalues are finite and either all real and strictly positive
    (SPD) or all purely imaginary (skew); a real spectrum is stored with +0
    imaginary parts.  `matrix`, when present, is an explicit realization
    whose spectrum matches `eigenvalues`.
    """

    eigenvalues: np.ndarray
    matrix: np.ndarray | None = None

    def __post_init__(self):
        eig = np.asarray(self.eigenvalues, dtype=complex)
        if not np.all(np.isfinite(eig)):
            raise ValueError("eigenvalues must be finite")
        if not np.any(eig.imag):
            if np.any(eig.real <= 0):
                raise ValueError("SPD eigenvalues must be real and positive")
            eig = eig.real.astype(complex)
        elif np.any(eig.real):
            raise ValueError(
                "spectrum must be real-positive or purely imaginary")
        eig.flags.writeable = False
        object.__setattr__(self, "eigenvalues", eig)
        if self.matrix is not None:
            mat = np.asarray(self.matrix, dtype=float)
            mat.flags.writeable = False
            object.__setattr__(self, "matrix", mat)

    @property
    def n_modes(self) -> int:
        return self.eigenvalues.size


def make_spd_interval(xi_max: float, n: int, include=()) -> ModelProblem:
    """Log-spaced SPD spectrum filling (0, xi_max], two decades deep.

    `include` injects extra critical eigenvalues (for example the w*/dt value
    at which a convergence bound attains its maximum) so that worst-case
    modes are guaranteed to be present.
    """
    if n < 2:
        raise ValueError("need n >= 2")
    if not xi_max > 0:
        raise ValueError(f"xi_max must be positive, got {xi_max!r}")
    if xi_max == np.inf:
        raise ValueError(f"xi_max must be finite, got {xi_max!r}")
    fill = np.geomspace(xi_max * 1e-2, xi_max, int(n))
    extra = [float(v) for v in include if 0.0 < float(v) <= xi_max]
    eig = np.sort(np.concatenate([fill, np.asarray(extra, dtype=float)]))
    return ModelProblem(eig)


def make_fd_diffusion(M: int) -> ModelProblem:
    """1D Dirichlet Laplacian, M interior points, h = 1/(M+1).

    Matrix (1/h^2) tridiag(-1, 2, -1) with eigenvalues
    (4/h^2) sin^2(j*pi*h/2), j = 1..M.
    """
    if M < 2:
        raise ValueError("need M >= 2")
    h = 1.0 / (M + 1)
    mat = (np.diag(2.0 * np.ones(M)) + np.diag(-np.ones(M - 1), 1)
           + np.diag(-np.ones(M - 1), -1)) / h ** 2
    j = np.arange(1, M + 1)
    eig = (4.0 / h ** 2) * np.sin(j * np.pi * h / 2.0) ** 2
    return ModelProblem(eig, mat)


def make_skew_advection(M: int, h_x: float) -> ModelProblem:
    """Periodic central-difference advection operator (circulant, skew).

    First row (0, 1, 0, ..., 0, -1)/(2 h_x); eigenvalues
    i*sin(2*pi*j/M)/h_x, j = 0..M-1.
    """
    if M < 3:
        raise ValueError("need M >= 3")
    if not 0.0 < abs(h_x) < np.inf:
        raise ValueError(f"h_x must be finite and nonzero, got {h_x!r}")
    first = np.zeros(M)
    first[1] = 1.0 / (2.0 * h_x)
    first[-1] = -1.0 / (2.0 * h_x)
    mat = np.empty((M, M))
    for r in range(M):
        mat[r] = np.roll(first, r)
    j = np.arange(M)
    eig = 1j * np.sin(2.0 * np.pi * j / M) / h_x
    return ModelProblem(eig, mat)


def eigenvalues_to_csv(problem: ModelProblem, fileobj, header_lines=()) -> None:
    write_csv(fileobj, header_lines, ("re", "im"),
              ((xi.real, xi.imag) for xi in problem.eigenvalues))


def eigenvalues_from_csv(fileobj) -> ModelProblem:
    """Load a user-supplied spectrum, one `re,im` line per eigenvalue."""
    vals = []
    for n, raw in enumerate(fileobj, 1):
        line = raw.strip()
        if not line or line.startswith("#") or line.lower().startswith("re,"):
            continue
        try:
            re_s, im_s = line.split(",")
            vals.append(complex(float(re_s), float(im_s)))
        except ValueError:
            raise ValueError(f"spectrum line {n}: expected re,im, "
                             f"got {line!r}") from None
    if not vals:
        raise ValueError("no eigenvalues in CSV")
    return ModelProblem(vals)
