"""Tools for edge-count and spectral-radius extremal graph questions.

Builds the graph families behind small forbidden-subgraph problems, checks
containment and chromatic data exactly, certifies Perron-root comparisons in
rational arithmetic, and runs brute-force extremal searches with certificates.
"""

from .graphs import (
    Graph,
    Partition,
    adjacency_matrix,
    complete,
    complete_multipartite,
    cycle,
    disjoint_union,
    empty_graph,
    induced_subgraph,
    join,
    kelmans,
    matching,
    path,
    relabel,
    star,
    turan,
)
from .graph6 import Graph6Error, decode_graph6, encode_graph6
from .canon import canonical_form
from .patterns import (
    ForbiddenFamily,
    chromatic_number,
    contains_subgraph,
    is_free,
)
from .spectral import (
    Fold,
    RationalPoly,
    SpectralResult,
    compare_lambda_exact,
    fold_radius,
    is_equitable,
    perron_less_than,
    perron_root_interval,
    quotient_matrix,
    spectral_radius,
)
from .constructions import (
    Cx2Package,
    NamedConstruction,
    TuranPacking,
    build_named,
    cx1_family,
    cx1_pair,
    cx2_package,
    f1,
    free_trees,
    star_path_pair,
)
from .oracle import (
    ExtremalReport,
    RestrictedSpace,
    enumerate_graphs,
    ex_oracle,
    restricted_ex,
    spex_oracle,
)
from .asymptotics import (
    FitResult,
    IntegerBoundaryError,
    Thresholds,
    e_interval,
    experiment,
    fit_first_order,
    k_bound,
    thresholds,
)
from .verify import CLAIM_IDS, run_all, run_claim

__version__ = "0.1.0"
