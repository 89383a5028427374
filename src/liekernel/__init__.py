"""Exact free-motion evolution kernels on classical Lie group manifolds.

The compact-group kernel is computed by two independent series, the sum over
classical paths and the spectral expansion over unitary representations,
which agree to machine precision.  Non-compact real forms split into
evolution domains with an open maximal torus; there the kernel is the path
sum over the surviving winding sublattice.
"""

from .errors import (
    ArgumentError,
    BranchPointError,
    ClassificationError,
    ConfigurationError,
    ConvergenceError,
    InternalError,
    LieKernelError,
    NotInGroupError,
    PoleError,
    ResourceError,
    SingularPointError,
    UnsupportedOperationError,
)
from .rootsys import RootSystem, build_root_system, cartan_matrix, rescale
from .weyl import (
    WeylElement,
    WeylGroup,
    casimir_eigenvalue,
    character,
    dimension,
    generate_weyl_group,
    weyl_function,
)
from .volumes import VolumeReport, coset_volume, group_volume, torus_volume, volume_report
from .lattice import (
    IMAGINARY,
    REAL,
    RadialPoint,
    WindingLattice,
    canonicalize,
    domain_sublattice,
    enumerate_points,
    winding_lattice,
)
from .kernel import (
    ConvergenceTag,
    KernelRequest,
    KernelValue,
    TimeMode,
    TimeParameter,
    compact_pathsum,
    compact_spectral,
    integrate_central_su2,
    noncompact_pathsum,
    radial_convolve,
    su2_pathsum_series,
    su2_resolvent,
    su2_resolvent_poles,
    su2_spectral_series,
    su11_kernel_d0,
    su11_resolvent_d0,
)
from .domains import (
    EvolutionDomain,
    GroupFamily,
    GroupKind,
    build_element,
    classify_element,
    domain_count,
    domain_of_radial,
    enumerate_domains,
    parse_group,
)

__version__ = "0.1.0"
