"""Hypergraph encodings and exact removal machinery for linear systems
over prime fields, with a progression-free lower-bound construction."""

from .behrend import (
    LowerBoundInstance,
    behrend_sphere,
    build_lower_bound_instance,
    count_ap3,
    max_ap3_free,
)
from .field import PrimeField, is_prime, next_prime_above
from .hrep import (
    CoefficientTables,
    Host,
    build_coefficients,
    build_host,
    copies_for_solution,
    export_host,
    export_plans,
    iter_host_edges,
)
from .linsys import (
    LinearSystem,
    NormalizedSystem,
    ReductionResult,
    SetFamily,
    block_identity,
    format_system,
    from_integer_system,
    normalize,
    parse_system,
    reduce_degenerate,
)
from .solutions import (
    RemovalResult,
    count_system,
    epsdelta_scan,
    iter_solutions,
    min_copy_hitting_set,
    plan_removal,
    solve,
    translate_edge_deletion,
)
from .verify import (
    VerificationReport,
    check_edge_equation,
    check_representation,
    check_simple,
    enumerate_copies,
    subset_spans_copy,
)

__version__ = "0.1.0"
