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
    copies,
    count_walks2,
    cycle,
    disjoint_union,
    embed_in_part,
    empty_graph,
    induced_subgraph,
    join,
    kelmans,
    matching,
    path,
    path_power,
    relabel,
    star,
    total_walks2,
    transfer_vertex,
    turan,
    u_packing,
)
from .graph6 import Graph6Error, decode_graph6, encode_graph6
from .canon import canonical_form, canonical_graph, canonical_labeling
from .patterns import (
    ForbiddenFamily,
    chromatic_number,
    contains_subgraph,
    family_chi,
    is_free,
)
from .spectral import (
    RationalMatrix,
    RationalPoly,
    SpectralResult,
    compare_lambda_exact,
    is_equitable,
    perron_less_than,
    perron_root_interval,
    quotient_matrix,
    spectral_radius,
)
from .constructions import (
    Cx2Package,
    NamedConstruction,
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
    c1,
    c_of_r,
    cx1_gap,
    e_interval,
    edge_add,
    experiment,
    fit_first_order,
    k_bound,
    star_vs_path,
    threshold_expression,
    thresholds,
    transfer_shift,
)
from .verify import CLAIM_IDS, run_all, run_claim

__version__ = "0.1.0"
