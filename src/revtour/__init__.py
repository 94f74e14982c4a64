"""Tournaments built from total orders by reversing pairings and
quasi-pairings, with indecomposability and irreducibility checks and an
exhaustive verification harness for the characterization theorems."""

from .core import (
    GuardError,
    SUBSET_SCAN_LIMIT,
    Tournament,
    all_modules_bruteforce,
    canonical_form,
    delete_vertex,
    dual,
    is_indecomposable,
    is_isomorphic,
    is_module,
    module_closure,
    relabel,
    reverse_pairs,
    subtournament,
    transitive,
)
from .pairs import (
    PairFamily,
    Pairing,
    QuasiPairing,
    classify,
    components,
    is_irreducible_pairing,
    is_irreducible_partition,
    is_irreducible_quasi,
    mirrored,
)
from .comodules import (
    ComoduleFamily,
    comodular_index_total_order,
    indecomposable_implies_transversal,
    is_comodule,
    is_transversal,
    max_comodular_decomposition_bruteforce,
    minimal_comodules_bruteforce,
    minimal_comodules_total_order,
)
from .enumeration import (
    CensusRecord,
    EnumSpec,
    census,
    count_irreducible_pairings,
    enumerate_families,
    indecomposable_census,
)
from .theorems import (
    TheoremInstance,
    VerificationReport,
    check_instance,
    verify_range,
)

__version__ = "0.1.0"
