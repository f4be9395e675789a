"""Dense test states built through the library's own wire path.

Imported by the test modules (pytest puts this directory on ``sys.path``);
the name does not start with ``test_``, so it is not collected itself.
"""
import numpy as np

from gapcomm.states import ExactState, dense_wire_parts, exact_sq_sum


def dense_wire(numerators) -> bytes:
    """The dense wire form of int64 ``numerators`` (a power-of-two count),
    written by ``dense_wire_parts`` with the exact sum of squares."""
    arr = np.asarray(numerators, dtype=np.int64)
    qubits = arr.shape[0].bit_length() - 1
    return b"".join(dense_wire_parts(arr, qubits, exact_sq_sum(arr)))


def dense_state(numerators) -> ExactState:
    """``numerators`` written by ``dense_wire`` and read back by
    ``ExactState.deserialize``, as Bob reads a dense message."""
    state, _ = ExactState.deserialize(dense_wire(numerators))
    return state
