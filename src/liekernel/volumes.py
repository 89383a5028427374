"""Invariant volumes of compact groups, tori, and coset spaces."""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .rootsys import RootSystem, cartan_matrix
from .weyl import generate_weyl_group

__all__ = [
    "VolumeReport",
    "group_volume",
    "torus_volume",
    "coset_volume",
    "volume_report",
    "torus_volume_quadrature",
]


def group_volume(rs: RootSystem) -> float:
    """Invariant volume of the compact group."""
    m = cartan_matrix(rs)
    simple_half_norms = np.sqrt((rs.simple_roots**2).sum(axis=1) / 2.0)
    return float(
        rs.lam ** (rs.n / 2.0)
        * (2.0 * np.pi) ** (rs.p + rs.rank)
        * np.sqrt(np.linalg.det(m))
        / (np.prod(simple_half_norms) * np.prod(rs.positive_roots @ rs.rho))
    )


def torus_volume(rs: RootSystem) -> float:
    """Volume of the maximal torus (weight-Gram closed form)."""
    gram = rs.weights @ rs.weights.T
    return float(rs.lam ** (rs.rank / 2.0) * (2.0 * np.pi) ** rs.rank / np.sqrt(np.linalg.det(gram)))


def torus_volume_det_form(rs: RootSystem) -> float:
    """Same volume through the Cartan-matrix determinant; cross-check form."""
    m = cartan_matrix(rs)
    simple_half_norms = np.sqrt((rs.simple_roots**2).sum(axis=1) / 2.0)
    return float(
        rs.lam ** (rs.rank / 2.0)
        * (2.0 * np.pi) ** rs.rank
        * np.sqrt(np.linalg.det(m))
        / np.prod(simple_half_norms)
    )


def coset_volume(rs: RootSystem) -> float:
    """Volume of the quotient of the group by its maximal torus."""
    return float(
        (2.0 * np.pi) ** rs.p * rs.lam**rs.p / np.prod(rs.positive_roots @ rs.rho)
    )


def torus_volume_quadrature(rs: RootSystem, points_per_axis: int = 401) -> float:
    """Torus volume by direct quadrature of lambda^{r/2} 2^{n-r} w^2.

    Integrates over the coroot-coordinate box (-pi, pi]^r, which tiles the
    torus with N(W) copies of the Weyl alcove, and divides by N(W).  The
    closed forms integrate conjugacy classes once, i.e. over the alcove;
    the box form over-counts by exactly the Weyl order.
    """
    group = generate_weyl_group(rs)
    coroots = rs.coroots
    jac = abs(np.linalg.det(coroots))
    # periodic integrand: equispaced nodes without the right endpoint are spectral
    axes = [np.linspace(-np.pi, np.pi, points_per_axis, endpoint=False) for _ in range(rs.rank)]
    mesh = np.meshgrid(*axes, indexing="ij")
    coords = np.stack([m.ravel() for m in mesh], axis=-1)
    pts = coords @ coroots
    halves = pts @ rs.positive_roots.T / 2.0
    w2 = np.prod(np.sin(halves), axis=-1) ** 2
    cell = (2.0 * np.pi / points_per_axis) ** rs.rank
    box_integral = w2.sum() * cell * jac
    return float(rs.lam ** (rs.rank / 2.0) * 2.0 ** (rs.n - rs.rank) * box_integral / group.order)


@dataclass(frozen=True)
class VolumeReport:
    group: float
    torus: float
    coset: float

    @property
    def factorization_residual(self) -> float:
        return abs(self.group - self.torus * self.coset) / self.group


def volume_report(rs: RootSystem) -> VolumeReport:
    return VolumeReport(group=group_volume(rs), torus=torus_volume(rs), coset=coset_volume(rs))
