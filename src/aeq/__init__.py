"""Almost-equidistant point sets: certificates, constructions, bounds, search."""

from .bounds import (
    AnchorDefectReport,
    BoundReport,
    FStatistic,
    RecentredNormBounds,
    anchor_defect_ratio,
    ball_bound,
    ball_bound_threshold,
    conjectured_diameter_max,
    diameter_bound,
    f_statistic,
    general_bound_pipeline,
    recentred_norm_bounds,
    sphere_bound,
)
from .constructions import (
    construct,
    construct_rosenfeld,
    construct_simplex,
    construct_two_simplices,
    lift_to_halfsphere,
    simplex_circumradius,
)
from .geometry import (
    DEFAULT_TOL,
    EXACT_MODE,
    FLOAT_MODE,
    GeometrySummary,
    PointSet,
    Tolerance,
    TripleCheck,
    barycenter,
    barycenter_identity_check,
    diameter,
    is_almost_equidistant,
    recenter_to_barycenter,
    squared_distance,
    squared_distance_matrix,
    summarize,
)
from .charpoly import (
    charpoly_int,
    eigen_multiplicities_exact,
    square_free_decomposition,
)
from .miniball import min_enclosing_ball
from .search import (
    ProbeResult,
    SearchConfig,
    SearchResult,
    diameter_capacity_probe,
    optimize,
    triple_penalty,
)
from .serialize import (
    dumps_report,
    load_matrix_csv,
    load_pointset,
    load_pointset_csv,
    pointset_from_dict,
    pointset_to_dict,
)
from .spectral import (
    CubicInequalityResult,
    DefectMatrix,
    PerronResult,
    SpectralCertificate,
    Spectrum,
    SpikedSpectrumReport,
    TraceIdentities,
    WeylResult,
    certify,
    cubic_inequality,
    defect_matrix,
    eigenvalues,
    gershgorin_bound,
    perron_frobenius_check,
    spiked_spectrum_check,
    trace_identities,
    weyl_check,
)
from .tdgraph import (
    Graph,
    GraphRankRecord,
    ScanResult,
    is_triangle_free,
    lambda2_rank,
    min_rank_scan,
    parse_graph_line,
    read_graph_file,
    two_distance_to_graph,
)

__version__ = "0.1.0"
