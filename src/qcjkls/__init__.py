"""Exact quandle 2-cocycle state sums of braid closures.

The pipeline: build a finite quandle and a 2-cocycle on it, color the
closure of a braid word, weight each coloring by a product of cocycle
values over the crossings, and read off the state sum as an exact
group-algebra vector.  Per-crossing free energy and its behavior along
infinite braid families live in :mod:`qcjkls.invariant`,
:mod:`qcjkls.sequences` and :mod:`qcjkls.limits`.
"""

from .braid import (
    BraidSyntaxError,
    BraidWord,
    BudgetExceededError,
    DEFAULT_BUDGET,
    enumerate_colorings,
    enumerate_colorings_affine,
    is_alternating_closure,
    is_reduced_closure,
    parse_braid,
)
from .cocycle import (
    Cocycle,
    CocycleError,
    CocycleReport,
    build_s4_cocycle,
    build_trivial_cocycle,
    load_cocycle,
    save_cocycle,
    verify_cocycle,
)
from .group_algebra import (
    AbelianGroup,
    GroupAlgebraElement,
    build_cyclic_group,
)
from .invariant import (
    InvariantCache,
    InvariantRecord,
    cjkls_state_sum,
    compute_invariant,
    free_energy,
    free_energy_per_crossing,
)
from .limits import (
    Box,
    DEFAULT_TOLERANCE,
    LimitReport,
    closed_form_limit,
    distinguish_limits,
    limit_estimate,
    region_distance,
)
from .quandle import (
    AlexanderQuandleSpec,
    AxiomReport,
    MalformedTableError,
    QuandleError,
    QuandleTable,
    S4_SPEC,
    build_alexander_quandle,
    build_s4,
    load_quandle,
    make_quandle,
    save_quandle,
    verify_quandle_axioms,
)
from .sequences import (
    FamilyId,
    FamilyPoint,
    binomial_sums,
    family_braid,
    family_closed_Z,
    family_closed_f,
    family_crossing_number,
    family_point,
    parse_family_id,
)

__version__ = "0.1.0"
