"""wlpower: generalized color refinement on node tuples, the two pebble
games attached to a refinement spec, and enumeration of the spec's
homomorphism-counting power over small query graphs.

The package exports what its commands run: the graph toolbox, the two
selectors with their set builders and the hom-closure check, the specs
and the refinement engine (:func:`stabilize`, :func:`joint_graph_colors`,
:func:`distinguish`, :func:`validate_spec`), the two game solvers with
certificate replay, power enumeration with its validation suites, and
the CLI's entry points.  Helpers that only the package itself calls stay
in their modules."""

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
    Graph,
    atp,
    canonical_form,
    complete_graph,
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
    RSelector,
    check_hom_closed,
    f_set,
    r_set,
)
from .refinement import (
    BUILTIN_SPECS,
    PRESET_SPECS,
    GfwlSpec,
    RefinementResult,
    SpecValidationReport,
    distinguish,
    drfwl2_spec,
    fwl_plus_spec,
    fwl_spec,
    joint_graph_colors,
    local_fwl_spec,
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
