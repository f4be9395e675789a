"""Per-layer spans recorded from outside the library.

The library has no spans of its own, so this module wraps its public
functions at every name they are reachable under inside the ``gapcomm``
package (``ghd.public_pads`` and ``protocols.public_pads`` alike), records
self time and call counts while a ``traced`` block is open, and puts the
originals back when it closes. A layer's self time is its span's duration
minus the time of the spans it caused; ``harness.run_trial`` is the root of
every trial, so the self times of one trial add up to its traced duration.
"""
from __future__ import annotations

import importlib
import statistics
import sys
import time
from collections import defaultdict
from contextlib import contextmanager

import numpy as np

_harness = importlib.import_module("gapcomm.harness")
_ghd = importlib.import_module("gapcomm.ghd")
_kernels = importlib.import_module("gapcomm._kernels")
_protocols = importlib.import_module("gapcomm.protocols")
_states = importlib.import_module("gapcomm.states")
_messages = importlib.import_module("gapcomm.messages")
_pauli = importlib.import_module("gapcomm.pauli")
_fwht = importlib.import_module("gapcomm.fwht")
_observables = importlib.import_module("gapcomm.observables")
_oracle = importlib.import_module("gapcomm.oracle")
_bits = importlib.import_module("gapcomm.bits")

# (layer, owner, attribute) at each function's definition site.
SPANS = (
    ("harness.run_trial", _harness, "run_trial"),
    ("harness.sample_instance", _harness, "sample_instance"),
    ("ghd.public_pads", _ghd, "public_pads"),
    ("ghd.encode_bob", _ghd, "encode_bob"),
    ("kernels.majority_rows", _kernels, "majority_rows"),
    ("protocols.encode_block_matrices", _protocols, "encode_block_matrices"),
    ("states.exact_sq_sum", _states, "exact_sq_sum"),
    ("states.serialize", _states.ExactState, "serialize"),
    ("states.deserialize", _states.ExactState, "deserialize"),
    ("messages.to_wire", _messages.ProtocolMessage, "to_wire"),
    ("messages.from_wire", _messages.ProtocolMessage, "from_wire"),
    ("pauli.subset_state_expectation", _pauli, "subset_state_expectation"),
    ("pauli.pauli_expectation", _pauli, "pauli_expectation"),
    ("fwht.fwht", _fwht, "fwht"),
    ("observables.operator_norm", _observables, "operator_norm"),
    ("oracle.estimate", _oracle, "estimate"),
)
# Every entry of these dispatch tables is one span of the named layer.
TABLE_SPANS = (
    ("protocols.alice", _protocols.ALICE),
    ("protocols.bob", _protocols.BOB),
)
# Counted, not timed: their time stays with the layer that called them.
COUNTS = (("bits.generator", _bits.SharedRandomness, "generator"),)
# Bytes the states layer writes (serialize) and reads (deserialize), from a
# span's arguments and result.
STATE_BYTES = {
    "states.serialize": lambda args, result: len(result[0]),
    "states.deserialize": lambda args, result: result[1] - (args[1] if len(args) > 1 else 0),
}

LAYERS = tuple(name for name, *_ in SPANS) + tuple(name for name, _ in TABLE_SPANS)


def _aliases(owner, attr: str):
    """Every (namespace, name) in the package that holds ``owner.attr``."""
    if isinstance(owner, type):
        return [(owner, attr)]
    target = getattr(owner, attr)
    found = []
    for mod_name, mod in list(sys.modules.items()):
        if mod is None or not (mod_name == "gapcomm" or mod_name.startswith("gapcomm.")):
            continue
        for name, value in vars(mod).items():
            if value is target:
                found.append((mod, name))
    return found


@contextmanager
def patched(replacements):
    """Swap in ``make(original)`` at each (owner, attr, make); restore on exit.

    Owners are modules, classes or dicts. On a module the replacement goes to
    every alias of the function in the package; a staticmethod stays one.
    """
    undo = []
    try:
        for owner, attr, make in replacements:
            if isinstance(owner, dict):
                undo.append((owner, attr, owner[attr]))
                owner[attr] = make(owner[attr])
                continue
            raw = owner.__dict__[attr] if isinstance(owner, type) else getattr(owner, attr)
            func = raw.__func__ if isinstance(raw, staticmethod) else raw
            new = make(func)
            if isinstance(raw, staticmethod):
                new = staticmethod(new)
            for ns, name in _aliases(owner, attr):
                undo.append((ns, name, ns.__dict__[name] if isinstance(ns, type) else getattr(ns, name)))
                setattr(ns, name, new)
        yield
    finally:
        for owner, attr, old in reversed(undo):
            if isinstance(owner, dict):
                owner[attr] = old
            else:
                setattr(owner, attr, old)


@contextmanager
def trial_timer():
    """Stamp each trial record with the CPU time of its run_trial call, in ms.

    CPU time of the calling process: in-process it matches wall time, and in
    a pool worker it leaves out the time the worker waited for a core. The
    stamp rides in the record, so it comes back from pool workers too; the
    report JSON ignores it. Pool workers get the wrapper only when they are
    forked from this process, so run.py refuses pool workloads under any
    other multiprocessing start method.
    """

    def make(run_trial):
        def timed(*args, **kwargs):
            t0 = time.process_time()
            record = run_trial(*args, **kwargs)
            record["_trial_ms"] = (time.process_time() - t0) * 1e3
            return record

        return timed

    with patched([(_harness, "run_trial", make)]):
        yield


class Tracer:
    """Self time and calls per layer, summed over every traced trial."""

    def __init__(self):
        self.self_s = defaultdict(float)
        self.calls = defaultdict(int)
        self.state_bytes = 0
        self._stack: list[float] = []

    def _span(self, name: str, func):
        tracer, stack, self_s, calls = self, self._stack, self.self_s, self.calls
        measure = STATE_BYTES.get(name)

        def wrapper(*args, **kwargs):
            stack.append(0.0)
            t0 = time.perf_counter()
            try:
                result = func(*args, **kwargs)
            finally:
                elapsed = time.perf_counter() - t0
                self_s[name] += elapsed - stack.pop()
                calls[name] += 1
                if stack:
                    stack[-1] += elapsed
            if measure is not None:
                tracer.state_bytes += measure(args, result)
            return result

        return wrapper

    def _count(self, name: str, func):
        calls = self.calls

        def wrapper(*args, **kwargs):
            calls[name] += 1
            return func(*args, **kwargs)

        return wrapper

    def _replacements(self):
        out = [
            (owner, attr, lambda f, name=name: self._span(name, f))
            for name, owner, attr in SPANS
        ]
        for name, table in TABLE_SPANS:
            out += [(table, kind, lambda f, name=name: self._span(name, f)) for kind in table]
        out += [
            (owner, attr, lambda f, name=name: self._count(name, f))
            for name, owner, attr in COUNTS
        ]
        return out

    @contextmanager
    def traced(self):
        with patched(self._replacements()):
            yield

    def _trials(self) -> int:
        trials = self.calls["harness.run_trial"]
        if trials == 0:
            raise RuntimeError("no traced trials")
        return trials

    def time_metrics(self) -> dict:
        """Self ms per trial of every layer, and their sum."""
        trials = self._trials()
        out = {f"{name}.self_ms": 1e3 * self.self_s[name] / trials for name in LAYERS}
        out["trace.trial_ms"] = 1e3 * sum(self.self_s.values()) / trials
        return out

    def count_metrics(self) -> dict:
        trials = self._trials()
        pads = self.calls["ghd.public_pads"] / trials
        return {
            "ghd.public_pads.calls_per_trial": pads,
            "ghd.pad_reuse_ratio": 1.0 / pads if pads else 0.0,
            "bits.generator.calls_per_trial": self.calls["bits.generator"] / trials,
            "kernels.majority_rows.calls_per_trial": self.calls["kernels.majority_rows"] / trials,
            "states.bytes_per_trial": self.state_bytes / trials,
        }


def _numpy_kernel(name: str):
    """The numpy path of a kernel, whether or not a compiled twin exists."""
    twin = getattr(_kernels, f"{name}_numpy", None)
    if twin is not None:
        return twin
    if _kernels.backend_name() != "numpy":
        raise RuntimeError(f"no numpy path for kernel {name}")
    return getattr(_kernels, name)


def _median_seconds(fn, reps: int = 7) -> float:
    fn()
    times = []
    for _ in range(reps):
        t0 = time.perf_counter()
        fn()
        times.append(time.perf_counter() - t0)
    return statistics.median(times)


def kernel_micro(seed: int) -> dict:
    """Numpy-path kernel timings on the inputs of benchmarks/bench_kernels.py.

    Bytes are computed, not measured: the least traffic each algorithm needs
    (an int64 transform reads and writes the vector once per butterfly stage
    plus one copy; the quadratic form reads the vector and its permutation;
    the majority reads the pad matrix and writes one byte per row).
    """
    rng = np.random.default_rng(seed)
    fwht = _numpy_kernel("fwht")
    pauli_quad = _numpy_kernel("pauli_quad")
    majority_rows = _numpy_kernel("majority_rows")

    n = 1 << 18
    vec = rng.integers(-1000, 1000, size=n).astype(np.int64)
    fwht_s = _median_seconds(lambda: fwht(vec))

    m = 1 << 17
    nums = rng.integers(-500, 500, size=m).astype(np.int64)
    z, x = int(rng.integers(0, m)), int(rng.integers(0, m))
    quad_s = _median_seconds(lambda: pauli_quad(nums, z, x))

    pads = rng.integers(0, 2, size=(720, 12), dtype=np.uint8)
    selected = np.array([0, 3, 5, 7, 9], dtype=np.int64)
    calls = 1000

    def majority_many():
        for _ in range(calls):
            majority_rows(pads, selected)

    majority_s = _median_seconds(majority_many) / calls
    return {
        "times": {
            "kernels.fwht.2p18.ms": fwht_s * 1e3,
            "kernels.pauli_quad.2p17.ms": quad_s * 1e3,
            "kernels.majority_rows.720x12.us": majority_s * 1e6,
        },
        "counts": {
            "kernels.fwht.2p18.bytes": 16 * n * (18 + 1),
            "kernels.pauli_quad.2p17.bytes": 16 * m,
            "kernels.majority_rows.720x12.bytes": pads.size + pads.shape[0],
        },
    }
