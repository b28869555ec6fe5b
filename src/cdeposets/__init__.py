"""Exact-arithmetic combinatorics of finite posets and their ideal lattices:
chain, maxchain and multichain expectations, CDE/mCDE decisions, tCDE
certificates and witnesses, rowmotion/gyration homomesy, and standard
(barely) set-valued tableau counting."""

from .cde import (
    CdeReport,
    TcdeCertificate,
    TcdeWitness,
    cde_report,
    certify_tcde,
    find_witness,
    scan_family,
)
from .distributions import (
    Distribution,
    expectation,
    is_toggle_symmetric,
    uniform,
)
from .dynamics import (
    OrbitDecomposition,
    antichain_cardinality,
    gyration_map,
    homomesy_report,
    orbit_decomposition,
    rank_permuted_rowmotion_map,
    rowmotion_map,
)
from .ideals import IdealLattice, LatticeBudgetError, build_lattice
from .posets import (
    CycleError,
    Poset,
    PosetError,
    RankInfo,
    chain,
    direct_product,
    dual,
    is_isomorphic,
    load_poset,
    rank_info,
)
from .shapes import (
    Partition,
    ShiftedShape,
    SkewShape,
    classify_shifted_balanced,
    parse_shape,
    rectangle,
    staircase,
)
from .tableaux import f_hook, g_thrall, tableau_counts

from types import ModuleType as _ModuleType

# the submodules are bound as attributes by the imports above; export only
# the names imported from them
__all__ = [
    name
    for name, value in globals().items()
    if not name.startswith("_") and not isinstance(value, _ModuleType)
]
