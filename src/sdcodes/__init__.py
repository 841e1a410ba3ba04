"""Binary self-dual codes: construction, shadows, neighbors, and equivalence."""

from .errors import DomainError, IntegrityError, ParseError, ResourceLimitError
from .gf2core import BitMatrix, BitVector, kernel, rref
from .codes import (
    LinearCode,
    ParityClass,
    ShadowParts,
    dual,
    is_self_dual,
    load_code,
    parity_class,
    permuted_code,
    save_code,
    shadow_parts,
    subtract_coordinates,
)
from .circulant import (
    CirculantPair,
    SearchRules,
    build_four_circulant,
    circulant_matrix,
    load_pairs,
    save_pairs,
    search_four_circulant,
    self_dual_condition,
)
from .wenum import (
    BalanceOutcome,
    BalanceStatus,
    FamilyParams,
    FamilyTag,
    ShadowDistribution,
    WeightDistribution,
    check_shadow_balance,
    classify_enumerator,
    codewords_of_weight,
    extremal_min_weight,
    macwilliams_check,
    min_weight,
    shadow_distribution,
    solve_shadow_balance,
    weight_distribution,
)
from .equivalence import (
    EquivalenceCertificate,
    EquivalenceClass,
    InvariantSignature,
    are_equivalent,
    classification_report,
    classify,
    signature,
    verify_certificate,
)
from .neighbors import (
    NeighborDescriptor,
    enumerate_self_dual_neighbors,
    extremal_neighbor_survey,
    load_descriptors,
    neighbor,
    neighbor_from_support,
    save_descriptors,
)

__version__ = "0.1.0"
