"""Face enumeration toolkit: invariants of simplicial complexes and graded
posets (f/h/g, fine and flag h, toric h, cd-index, Schenzel h'), recognition
predicates backed by exact homology, an inequality auditor, and the
triangulation constructions built on bistellar moves and central
retriangulations."""

from .audit import Assertions, AuditCheck, AuditReport, audit
from .catalog import CATALOG_NAMES, CatalogEntry, catalog, realize_space, s2xs2_two_neighborly
from .complexes import (
    Coloring,
    SimplicialComplex,
    all_faces,
    connected_sum,
    face,
    from_facets,
    handle_addition,
    simplex,
)
from .constructions import (
    BistellarMove,
    Feasibility,
    MoveLog,
    S3XS3_MIN_H,
    apply_bistellar,
    feasibility,
    has_dihedral_symmetry,
    in_walkup_class,
    is_stacked_sphere,
    kuhnel_lassmann,
    realize_g_pair,
    s1xs3_fill,
    simplex_boundary,
    sphere_bundle_feasibility,
    stacked_sphere,
)
from .homology import (
    GF2,
    RATIONALS,
    BettiVector,
    FieldSpec,
    ManifoldReport,
    betti,
    euler_characteristic,
    is_eulerian,
    is_homology_ball,
    is_homology_sphere,
    is_semi_eulerian,
    manifold_report,
    sphere_euler,
)
from .posets import (
    ABPolynomial,
    CDIndex,
    GradedPoset,
    ToricPolynomial,
    ab_from_flag_h,
    bayer_billera_defects,
    boolean_lattice,
    cd_index,
    classify_poset,
    face_poset,
    flag_vectors,
    mobius,
    order_complex,
    semi_eulerian_correction,
    toric_ds_defect,
    toric_g,
    toric_h,
)
from .refit import RefitResult, two_neighborly_refit
from .trees import (
    SimpleTree,
    central_retriangulation,
    find_spanning_tree_in_link,
    tree_boundary,
    validate_simple_tree,
)
from .vectors import (
    FVector,
    FlagVector,
    FineVector,
    GVector,
    G_invariant,
    HVector,
    Phi,
    affine_span_dim,
    binomial_expansion,
    bistellar_h_effect,
    ds_defect,
    ds_defect_h,
    f_from_h,
    f_vector,
    fine_ds_defect,
    fine_f,
    fine_h,
    flag_h_from_flag_f,
    g_from_h,
    h_from_f,
    h_prime,
    h_vector,
    is_M_vector,
    macaulay_pseudopower,
    phi,
    short_h,
    short_h_recurrence_defect,
    specialize_flag,
)

__version__ = "0.1.0"
