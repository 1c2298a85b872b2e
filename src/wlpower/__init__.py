"""wlpower: generalized color refinement on node tuples, the two pebble
games attached to a refinement spec, and enumeration of the spec's
homomorphism-counting power over small query graphs."""

__version__ = "0.1.0"

from .errors import (
    BudgetError,
    CertificateError,
    ClosureError,
    ConfigurationError,
    DomainError,
    GraphFormatError,
)
from .graphs import (
    INFINITY,
    DistanceTable,
    Graph,
    atp,
    canonical_form,
    complete_graph,
    components_avoiding,
    cycle_graph,
    disjoint_union,
    distance_table,
    empty_graph,
    emit_graph6,
    enumerate_connected_graphs,
    graph_to_json,
    hom_count,
    homomorphisms,
    parse_graph6,
    parse_graph_json,
    path_graph,
    rooted_hom_count,
    star_graph,
    treewidth,
)
from .selectors import (
    FSelector,
    HomClosedReport,
    InvarianceReport,
    RSelector,
    check_f_equivariance,
    check_hom_closed,
    check_r_invariance,
    f_set,
    r_set,
)
from .refinement import (
    BUILTIN_SPECS,
    PRESET_SPECS,
    ColorDictionary,
    ColorMap,
    GfwlSpec,
    RefinementResult,
    SpecValidationReport,
    distinguish,
    drfwl2_spec,
    fwl_plus_spec,
    fwl_spec,
    init_colors,
    joint_graph_colors,
    local_fwl_spec,
    refine_step,
    replacements,
    stabilize,
    validate_spec,
)
from .games import (
    GameVerdict,
    cops_robber_wins,
    replay_certificate,
    spoiler_wins,
)
from .power import (
    PowerReport,
    ValidationReport,
    check_monotonicity,
    compare_to_treewidth,
    connected_classes,
    enumerate_power,
    validate_hom_closedness,
    validate_soundness,
    validate_theorem2,
    write_power_csv,
)
from .cli import cache_key, cache_lookup, cache_store, load_graph, load_spec, run
