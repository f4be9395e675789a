"""One-way classical communication reductions for expectation-value recovery,
run as concrete Alice -> Bob simulations against pluggable estimation oracles."""

from .bits import (
    BitVector,
    DimensionError,
    InconsistentInputsError,
    SharedRandomness,
    hamming,
    hamming_via_identity,
    inner_product,
)
from .fwht import character_matrix, character_row, fwht
from .ghd import (
    DEFAULT_BIAS_C,
    DEFAULT_SLACK_D,
    GhdParams,
    decision_threshold,
    decode_bit,
    delta_from_sum_norm,
    encode_alice,
    encode_bob,
    gap_statistics,
    public_pads,
)
from .harness import ExperimentConfig, ExperimentReport, run_experiment, verify_suite, wilson95
from .messages import ProtocolMessage
from .observables import NumericError, operator_norm
from .oracle import OracleSpec, estimate
from .pauli import ObservableError, PauliMask, pauli_expectation, subset_state_expectation
from .protocols import (
    PROTOCOL_KINDS,
    BobResult,
    ConfigError,
    ProtocolConfig,
    ProtocolError,
    decompose_index,
)
from .shadows import (
    ClassicalDensityMatrix,
    ShadowPair,
    born_vector,
    reference_shadow_pair,
    to_one_way_protocol,
)
from .states import ExactState, StateError

__version__ = "0.1.0"
