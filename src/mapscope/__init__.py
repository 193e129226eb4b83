"""mapscope: rooted non-separable planar maps, beta(1,0)-trees, and
(3142, 2-41-3)-avoiding permutations -- exact enumeration, the bijections
between the three families, restricted subclasses, generating functions,
and first-order coefficient asymptotics, all cross-checked by brute-force
oracles at desk scale (see `mapscope.verify`)."""

from .trees import (
    LabeledTree,
    TreeStats,
    count_trees,
    enumerate_trees,
    format_tree,
    is_valid_tree,
    parse_tree,
    passes,
    tree_stats,
    validate_tree,
)
from .maps import (
    CombinatorialMap,
    canonical_code,
    format_map,
    has_multiple_edges,
    internal_2face_count,
    is_nonseparable,
    parse_map,
    tree_to_map,
    validate_map,
)
from .perms import (
    MeshPattern,
    Permutation,
    avoids,
    format_perm,
    generate_av,
    in_class,
    insert_largest,
    is_primitive_perm,
    occurrence_positions,
    occurrences,
    one_step_expansions,
    parse_perm,
    perm_to_tree,
    reduce_to_primitive,
    tree_to_perm,
)
from .series import (
    EquationSpec,
    SingularityEstimate,
    asymptotic,
    b3_singularity,
    maps_with_edges,
    primitive_maps_with_edges,
    series,
    solve_equation,
    tutte_count,
)
from .verify import (
    VerificationReport,
    brute_force_av,
    naive_mesh_occurrences,
    run_suite,
)

__version__ = "0.1.0"
