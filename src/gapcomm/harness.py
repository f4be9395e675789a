"""Monte Carlo experiment runner and its reports.

Trials are pure functions of (config, trial index): every random draw comes
from a stateless stream keyed by the root seed and the trial index, so
reports are byte-identical for any worker count and trial order.
"""
from __future__ import annotations

import json
import math
from dataclasses import dataclass, field
from operator import itemgetter

import numpy as np

from . import ghd as ghd_mod
from . import protocols as proto
from .bits import STREAM_INDEX, STREAM_INSTANCE, SharedRandomness, read_only
from .ghd import GhdParams, decision_threshold, sample_sources
from .messages import ProtocolMessage
from .oracle import OracleSpec

SAMPLING_MODES = ("odd-weight", "unrestricted")
# Desk cap on the processes of one run, whatever the host's core count.
MAX_WORKERS = 64
_WILSON_Z = 1.959963984540054  # two-sided 95%


def wilson95(successes: int, trials: int) -> tuple[float, float]:
    """Wilson score interval for a binomial proportion at 95% confidence."""
    if trials <= 0:
        return 0.0, 0.0
    if not 0 <= successes <= trials:
        raise ValueError(f"successes {successes} outside [0, {trials}]")
    z2 = _WILSON_Z * _WILSON_Z
    p = successes / trials
    denom = 1.0 + z2 / trials
    center = (p + z2 / (2 * trials)) / denom
    spread = (
        _WILSON_Z
        * math.sqrt(p * (1 - p) / trials + z2 / (4 * trials * trials))
        / denom
    )
    # at the boundaries the exact endpoints are 0 and 1; don't let float
    # rounding of the radical pull them inward
    lo = 0.0 if successes == 0 else max(0.0, center - spread)
    hi = 1.0 if successes == trials else min(1.0, center + spread)
    return lo, hi


@dataclass(frozen=True)
class ExperimentConfig:
    """One experiment, checked once when it is built.

    Construction builds the run's ``ProtocolConfig`` (``pc``) and
    ``OracleSpec`` (``oracle``), which every trial in every worker reuses;
    any error either raises comes out as ``ConfigError``, before any trial.
    A given ``oracle_accuracy`` is checked under every model, the exact one
    included, which then runs at accuracy 0; ``None`` takes the derived
    budget ``pc.oracle_accuracy``. The exact model never fails, so a
    ``failure_prob`` above 0 under it is a ``ConfigError`` too.
    """

    protocol: str
    qubits: int
    epsilon: float
    trials: int
    root_seed: int
    bias_c: float = ghd_mod.DEFAULT_BIAS_C
    slack_d: float = ghd_mod.DEFAULT_SLACK_D
    oracle_model: str = "exact"
    oracle_accuracy: float | None = None  # None -> derived budget
    failure_prob: float = 0.0
    sampling: str = "odd-weight"
    workers: int = 1
    per_trial_records: bool = False
    pc: proto.ProtocolConfig = field(init=False, compare=False, repr=False)
    oracle: OracleSpec = field(init=False, compare=False, repr=False)

    def __post_init__(self):
        if self.trials < 1:
            raise proto.ConfigError("trials must be >= 1")
        if self.sampling not in SAMPLING_MODES:
            raise proto.ConfigError(f"unknown sampling mode {self.sampling!r}")
        if not 1 <= self.workers <= MAX_WORKERS:
            raise proto.ConfigError(f"workers must be in [1, {MAX_WORKERS}]")
        try:
            ghd = GhdParams(epsilon=self.epsilon, bias_c=self.bias_c, slack_d=self.slack_d)
            pc = proto.ProtocolConfig(self.protocol, self.qubits, ghd)
            accuracy = pc.oracle_accuracy if self.oracle_accuracy is None else self.oracle_accuracy
            oracle = OracleSpec(self.oracle_model, accuracy, self.failure_prob)
        except (ValueError, ArithmeticError) as exc:
            raise proto.ConfigError(str(exc)) from exc
        if self.oracle_model == "exact":
            oracle = OracleSpec()
        object.__setattr__(self, "pc", pc)
        object.__setattr__(self, "oracle", oracle)


def sample_instance(
    sr: SharedRandomness, pc: proto.ProtocolConfig, odd_weight: bool
) -> np.ndarray:
    """Draw Alice's string from ``sr``'s stream: a flat, read-only 0/1 uint8
    array of ``pc.capacity`` entries. Odd-weight mode keeps every block's
    weight odd."""
    return read_only(sample_sources(sr, pc.alice_blocks, pc.ghd.gamma, odd_weight).reshape(-1))


def run_trial(cfg: ExperimentConfig, trial: int) -> dict:
    """One full Alice -> wire -> Bob round trip plus independent diagnostics."""
    pc = cfg.pc
    sr = SharedRandomness(cfg.root_seed).substream(trial)
    x = sample_instance(sr.substream(STREAM_INSTANCE), pc, cfg.sampling == "odd-weight")
    l = sr.substream(STREAM_INDEX).integer(1, pc.capacity + 1)

    x_l = int(x[l - 1])
    record = {"trial": trial, "l": l, "x_l": x_l}
    try:
        msg = proto.ALICE[cfg.protocol](x, pc, sr)
        msg = ProtocolMessage.from_wire(msg.to_wire())
        result = proto.BOB[cfg.protocol](msg, l, pc, sr, cfg.oracle)
    except proto.ProtocolError as exc:
        record.update(
            bit=None, success=False, error=str(exc), delta_exact=None,
            delta_estimate=None, delta_error=None, main_bits=None, side_bits=None,
        )
        return record

    # independent ground truth: the queried block goes through the per-block
    # encoder, not the all-blocks one Alice uses, so it stays a second route
    gamma = pc.ghd.gamma
    i, j = proto.decompose_index(l, gamma)
    a = ghd_mod.encode_alice(x[(j - 1) * gamma : j * gamma], pc.ghd, sr)
    delta_exact = int(np.count_nonzero(a ^ ghd_mod.encode_bob(i, pc.ghd, sr)))
    delta_estimate = float(result.delta_estimate)

    record.update(
        bit=result.bit,
        success=result.bit == x_l,
        error=None,
        delta_exact=delta_exact,
        delta_estimate=delta_estimate,
        delta_error=abs(delta_estimate - delta_exact),
        main_bits=msg.main_bits,
        side_bits=msg.side_bits,
    )
    return record


def _claim_trials(cfg: ExperimentConfig, counter) -> list[dict]:
    """Run trials, claiming one index at a time from the run's shared
    ``counter`` until none is left. ``run_trial`` is looked up at each call,
    so a patched module attribute reaches forked children too."""
    records = []
    while True:
        with counter.get_lock():
            trial = counter.value
            counter.value = trial + 1
        if trial >= cfg.trials:
            return records
        records.append(run_trial(cfg, trial))


class TrialProcessTraceback(Exception):
    """The formatted traceback of an exception raised in a forked trial
    process, attached as the cause of that exception where it is re-raised."""

    def __str__(self) -> str:
        return self.args[0]


def _child_trials(cfg: ExperimentConfig, counter, recv_end, send_end) -> None:
    """A forked child's share of a run: its records, or the exception that
    ended them and its traceback, go back to the caller through ``send_end``."""
    # a fork inherits the read end too; while it stayed open here, a send
    # larger than the pipe buffer would block forever once the caller stops
    # reading after a failure
    recv_end.close()
    try:
        result = _claim_trials(cfg, counter)
    except BaseException as exc:
        counter.value = cfg.trials  # the other processes stop after their current trial
        import pickle
        import traceback

        trace = traceback.format_exc()
        try:
            pickle.loads(pickle.dumps(exc))
        except Exception:  # the caller could not rebuild it: send its type and message
            exc = RuntimeError(f"{type(exc).__qualname__}: {exc}")
        result = (exc, trace)
    try:
        send_end.send(result)
    except BrokenPipeError:
        pass  # the caller failed first and stopped listening


def _receive(child, recv_end) -> list[dict]:
    """One child's records; an exception it sent is raised here, and a child
    that died without sending becomes a ``RuntimeError``."""
    try:
        result = recv_end.recv()
    except EOFError:
        child.join()
        raise RuntimeError(
            f"trial process {child.pid} exited with code {child.exitcode} "
            "before sending its records"
        ) from None
    if isinstance(result, tuple):
        exc, trace = result
        raise exc from TrialProcessTraceback(trace)
    return result


@dataclass
class ExperimentReport:
    config: dict
    derived: dict
    results: dict
    message: dict
    per_trial: list[dict] | None = None

    def to_json(self) -> str:
        doc = {
            "config": self.config,
            "derived": self.derived,
            "results": self.results,
            "message": self.message,
        }
        return json.dumps(doc, sort_keys=True, indent=2)

    def write_csv(self, path: str) -> None:
        import csv

        if self.per_trial is None:
            raise ValueError("per-trial records were not collected")
        fields = [
            "trial", "l", "x_l", "bit", "success", "delta_exact",
            "delta_estimate", "delta_error", "error",
        ]
        with open(path, "w", newline="") as fh:
            writer = csv.DictWriter(fh, fieldnames=fields, extrasaction="ignore")
            writer.writeheader()
            writer.writerows(self.per_trial)


def run_experiment(cfg: ExperimentConfig) -> ExperimentReport:
    """Run all trials, reduce order-independently, and assemble the report.

    A run uses no more processes than it has trials, so a one-worker or
    one-trial run stays in this process and never imports
    ``multiprocessing``. Otherwise this process starts ``workers - 1``
    children and runs trials alongside them. The children are forked
    wherever the platform offers fork, whatever its default start method,
    and started by that default elsewhere. Every process claims trial
    indices one at a time from a shared counter, so one slowed by its host
    just claims fewer; the records are sorted back into trial order. A
    trial's exception, in this process or in a child, stops the others
    after their current trial and is raised here, a child's with its
    traceback as the cause; every child is joined
    before this returns or raises. No run loads ``numpy.random``: every
    draw reads ``SharedRandomness``' SHAKE-128 stream.
    """
    pc = cfg.pc
    workers = min(cfg.workers, cfg.trials)
    if workers == 1:
        records = [run_trial(cfg, t) for t in range(cfg.trials)]
    else:
        import multiprocessing

        # a forked child starts with the package loaded; spawn and forkserver
        # would import it afresh for every pooled call
        methods = multiprocessing.get_all_start_methods()
        mp = multiprocessing.get_context("fork" if "fork" in methods else None)
        counter = mp.Value("q", 0)
        children = []
        try:
            for _ in range(workers - 1):
                recv_end, send_end = mp.Pipe(duplex=False)
                child = mp.Process(
                    target=_child_trials, args=(cfg, counter, recv_end, send_end)
                )
                child.start()
                # the child now holds the only send end, so its death is EOF here
                send_end.close()
                children.append((child, recv_end))
            records = _claim_trials(cfg, counter)
            for child, recv_end in children:
                records += _receive(child, recv_end)
        finally:
            counter.value = cfg.trials  # after a failure the children stop after their current trial
            # every read end closes before the first join: a child inherits
            # the read ends of the children forked before it, and a blocked
            # send of theirs breaks only once no process holds its read end
            for _, recv_end in children:
                recv_end.close()
            for child, _ in children:
                child.join()
        records.sort(key=itemgetter("trial"))

    successes = sum(1 for r in records if r["success"])
    errors = [r["error"] for r in records if r["error"]]
    delta_errors = [r["delta_error"] for r in records if r["delta_error"] is not None]
    main_bits = {r["main_bits"] for r in records if r["main_bits"] is not None}
    side_bits = {r["side_bits"] for r in records if r["side_bits"] is not None}
    if len(main_bits) > 1 or len(side_bits) > 1:
        raise RuntimeError("message sizes varied across trials of one config")

    report = ExperimentReport(
        config={
            "protocol": cfg.protocol,
            "qubits": cfg.qubits,
            "epsilon": cfg.epsilon,
            "trials": cfg.trials,
            "root_seed": cfg.root_seed,
            "bias_c": cfg.bias_c,
            "slack_d": cfg.slack_d,
            "oracle_model": cfg.oracle_model,
            "oracle_accuracy": cfg.oracle.accuracy,
            "failure_prob": cfg.failure_prob,
            "sampling": cfg.sampling,
        },
        derived={
            "gamma": pc.ghd.gamma,
            "amp_factor": pc.ghd.amp_factor,
            "code_len": pc.ghd.code_len,
            "block_count": pc.block_count,
            "capacity": pc.capacity,
            "pad_exponent": pc.pad_exponent,
            "decision_threshold": decision_threshold(pc.ghd),
            "derived_oracle_accuracy": pc.oracle_accuracy,
            "delta_error_budget": pc.ghd.slack_d * math.sqrt(pc.ghd.code_len),
        },
        results={
            "trials": cfg.trials,
            "successes": successes,
            "success_rate": successes / cfg.trials,
            "wilson95": list(wilson95(successes, cfg.trials)),
            "protocol_errors": len(errors),
            "error_samples": errors[:5],
            "max_delta_error": max(delta_errors) if delta_errors else None,
        },
        message={
            "main_bits": main_bits.pop() if main_bits else None,
            "side_bits": side_bits.pop() if side_bits else None,
        },
        per_trial=records if cfg.per_trial_records else None,
    )
    return report

