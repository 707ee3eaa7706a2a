"""hoq: verification toolkit for higher-order transformations of
bidirectional quantum channels."""

from .typesys import (
    Arrow,
    BistochElem,
    NetworkSpec,
    SystemRegistry,
    SystemString,
    TypeExpr,
    dehat,
    dual,
    extend,
    parse_type,
    precedes,
    print_type,
    systems_of,
    tensor,
    tensor_all,
)
from .linalg import (
    LabeledOperator,
    apply_choi,
    choi_of_kraus,
    eigh,
    is_psd,
    link_product,
    merge_factors,
    partial_trace,
    partial_transpose,
    permute_systems,
    psd_sqrt_pinv,
    tensor_op,
)
from .sectors import (
    Hierarchy,
    Pattern,
    SectorSet,
    deviation_sectors,
    dual_deviation_direct,
    identity_coeff,
    network_characterization,
    pattern_norms,
    sector_component,
    sector_project,
    tensor_deviation_direct,
)
from .membership import (
    AdmissibilityResult,
    CheckReport,
    Classification,
    classify,
    is_admissible,
    is_deterministic,
    sample_deterministic,
)
from .processes import (
    FunctionalDecomposition,
    flippable_switch_choi,
    functional_compose,
    functional_decompose,
    lc_22_process,
    lc_23_process,
    n_time_flip_choi,
    random_bistochastic_channel,
    time_flip_apply,
    time_flip_choi,
)
from .network import (
    check_bislot,
    check_bitooth,
    check_bsp,
    check_network,
    compose_network,
    decompose_network,
)

__version__ = "0.1.0"
