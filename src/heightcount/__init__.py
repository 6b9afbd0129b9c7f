"""Height counting on PGL_d and SL_2 over the rationals.

Submodules:

- building: lattice-class combinatorics at one prime (spheres, balls, BFS)
- dirichlet: the height Dirichlet series, its Euler product, poles, residues
- archimedean: chamber norms, radial volumes, growth fits at infinity
- adelic: global heights, the volume convolution, regularity/persistence checks
- counting: exact pi(x) for PGL_2(Q) by determinant shells, and comparison reports
- cli: the `heightcount` executable
"""

from .adelic import (
    BallVolumeSeries,
    HeightProfile,
    MeasurePair,
    PredictionReport,
    RegularityReport,
    adelic_ball_series,
    adelic_ball_volume,
    adelic_volume_callable,
    covering_number_box,
    global_height,
    persistence_check,
    pgl2_measure_pair,
    prediction_N,
    regularity_report,
    tree_ball,
)
from .archimedean import (
    FitResult,
    RootSystemA,
    archimedean_height,
    ball_volume_numeric,
    ball_volume_table,
    cartan_density,
    growth_exponent_fit,
    norm_b,
    rho_value,
    simplex_area,
)
from .building import (
    BuildingParams,
    LatticeClass,
    ball_size,
    base_class,
    building_distance,
    elementary_divisors,
    enumerate_classes,
    neighbors,
    shell_count,
    shell_ratio,
    snf_exponents,
    sphere_size,
)
from .counting import (
    CountReport,
    PiCountDetail,
    compare_report,
    entry_bound,
    pi_count,
    pi_count_detail,
)
from .dirichlet import (
    AbscissaTable,
    LSeriesValue,
    ResidueReport,
    L_closed_pgl2,
    L_closed_sl2,
    L_euler,
    L_euler_sl2,
    coeff_D,
    partial_sum,
    pole_abscissas,
    residue_estimate,
    zeta_em,
)
from .errors import BudgetError, DomainError, HeightCountError

__version__ = "0.1.0"
