"""Shattering and VC dimension of translated generalized progressions.

The package has four mathematical layers and a command line front end:

- ``setsystem``: finite set systems, traces, exact VC dimension.
- ``bounds``: exact integer bound functions for shatter-function estimates.
- ``heisenberg``: the discrete Heisenberg group, word calculus, and an
  exact membership description of its two-sided progressions.
- ``freegroup``: free groups, Cayley-tree geometry, and a complete decision
  procedure for cutting subsets out of finite sets with translated
  progressions.
"""

from .bounds import (
    capital_c,
    f_bound,
    g_bound,
    km_bound,
    verify_heisenberg_fixed_threshold,
    verify_heisenberg_translate_threshold,
)
from .errors import DomainError, ResourceLimitError
from .freegroup import (
    DominatingSequence,
    FProgressionSpec,
    FWord,
    cuts_out_free,
    dist_vector,
    dominating_sequence,
    format_word,
    generator,
    generator_shatter_witness,
    identity,
    invert,
    is_shattered_free,
    leaves,
    minimal_tree,
    multiply,
    parse_word,
    path,
    power,
    progression_contains,
    progression_trace,
    sample_point_set,
    sample_word,
    search_shattered_sets,
    tripod_profile,
    TreeSlice,
    word_key,
)
from .heisenberg import (
    HPoint,
    HProgressionSpec,
    enumerate_progression,
    h_inv,
    h_mul,
    max_central,
    membership,
    witness_word,
    word_eval,
    verify_cells,
)
from .setsystem import (
    SetSystem,
    ShatterReport,
    complement_system,
    cuts_out,
    intersection_system,
    preimage_system,
    shatter_function,
    shatters,
    vc_dimension_exact,
)

__version__ = "0.1.0"
