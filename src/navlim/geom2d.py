"""2-D information-geometry primitives.

Everything operates on plain numpy arrays: vectors have shape (2,), symmetric
matrices shape (2, 2), in information units (m^-2) unless noted. Angles are
raw radians (floats), never normalized.
"""

import math
from dataclasses import dataclass

import numpy as np

HALF_PI = 0.5 * math.pi

# An eigenvalue at or below PSD_TOL * max(1, lambda_max) counts as zero, so
# `info_ellipse` refuses the matrix. The slack absorbs round-off accumulated
# over long block-elimination chains.
PSD_TOL = 1e-10

# Relative eigenvalue gap under which a 2x2 matrix counts as isotropic and the
# reported eigenvector angle defaults to 0 (keeps property tests deterministic).
EIGEN_TIE_TOL = 1e-12


def unit_vector(phi: float) -> np.ndarray:
    """Unit vector [cos(phi), sin(phi)]."""
    return np.array([math.cos(phi), math.sin(phi)])


def rotation(phi: float) -> np.ndarray:
    """Rotation matrix mapping the x-axis onto the phi direction."""
    c, s = math.cos(phi), math.sin(phi)
    return np.array([[c, -s], [s, c]])


def r_dir(phi: float) -> np.ndarray:
    """Ranging direction matrix: the rank-1 projector onto the phi direction.

    PSD with trace 1; r_dir(phi) + r_dir(phi + pi/2) is the identity.
    """
    c, s = math.cos(phi), math.sin(phi)
    return np.array([[c * c, c * s], [c * s, s * s]])


def r_cross(phi: float) -> np.ndarray:
    """Symmetric trace-free coupling matrix between phi and phi + pi/2.

    Equals (u v^T + v u^T) / 2 for u = unit_vector(phi), v = unit_vector(phi
    + pi/2): eigenvalues +1/2 and -1/2 along the phi + pi/4 and phi - pi/4
    diagonals, determinant -1/4.
    """
    s2, c2 = math.sin(2.0 * phi), math.cos(2.0 * phi)
    return 0.5 * np.array([[-s2, c2], [c2, s2]])


@dataclass(frozen=True)
class Eigen2:
    """Closed-form eigendecomposition of a symmetric 2x2 matrix.

    lambda1 >= lambda2; angle1 is the eigenvector direction of lambda1. The
    source matrix is lambda1 * r_dir(angle1) + lambda2 * r_dir(angle1 + pi/2).
    """

    lambda1: float
    lambda2: float
    angle1: float

    def reconstruct(self) -> np.ndarray:
        return self.lambda1 * r_dir(self.angle1) + self.lambda2 * r_dir(
            self.angle1 + HALF_PI
        )


def eigen2(m: np.ndarray) -> Eigen2:
    """Exact eigendecomposition of a symmetric 2x2 matrix.

    Ties (lambda1 == lambda2 within EIGEN_TIE_TOL relative) report angle 0.
    """
    a = float(m[0, 0])
    b = 0.5 * (float(m[0, 1]) + float(m[1, 0]))
    c = float(m[1, 1])
    mean = 0.5 * (a + c)
    disc = math.hypot(0.5 * (a - c), b)
    lambda1, lambda2 = mean + disc, mean - disc
    if disc <= EIGEN_TIE_TOL * max(abs(lambda1), abs(lambda2)):
        return Eigen2(lambda1, lambda2, 0.0)
    angle = 0.5 * math.atan2(2.0 * b, a - c)
    return Eigen2(lambda1, lambda2, angle)


@dataclass(frozen=True)
class Ellipse:
    """Information ellipse: semi-axes in information units (m^-1)."""

    semi_major: float
    semi_minor: float
    orientation: float


def info_ellipse(j: np.ndarray) -> Ellipse:
    """Information ellipse {p : p^T J^-1 p = 1} of a PD information matrix.

    Semi-axes are the square roots of J's eigenvalues (not of its inverse):
    strong information means a long axis. Orientation is the major-axis angle.
    """
    e = eigen2(j)
    if e.lambda2 <= PSD_TOL * max(1.0, e.lambda1):
        raise ValueError("not positive definite")
    return Ellipse(math.sqrt(e.lambda1), math.sqrt(e.lambda2), e.angle1)
