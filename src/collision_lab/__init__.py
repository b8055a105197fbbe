"""Collision statistics of k-bit random number generation.

Stable and literal closed forms for expected collision counts and
collision probabilities, the exact collision distribution via Stirling
numbers, deterministic PRNG streams for empirical verification, and an
IEEE-754 inspection toolkit.
"""

from .analytics import (
    BucketSpace,
    CollisionPmf,
    collision_pmf_exact,
    collision_probability,
    collision_probability_naive,
    collision_probability_pbirthday,
    expected_collisions,
    expected_collisions_naive,
    min_bits_for_expected,
    probability_error_curve,
    sample_size_for_expected,
    stirling2,
)
from .empirics import (
    CollisionTrace,
    TieSummary,
    collision_positions,
    collision_summary,
    count_duplicates,
    count_ties,
    run_seeds,
    trace_collisions,
)
from .errors import BracketingError, CapacityError, DomainError
from .ieee754 import (
    FloatAnatomy,
    MachineConstants,
    compose,
    decompose,
    machine_constants,
    spacing,
)
from .prng import (
    GeneratorSpec,
    KBitStream,
    derive_seed,
    rand_int_rejection,
    sample_ints,
)
from .stable_math import (
    StableEvalReport,
    expm1_ref,
    log1p_stable,
    sum_log1p,
)

__version__ = "0.1.0"
