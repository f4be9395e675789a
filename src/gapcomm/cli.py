"""Command-line entry points.

Exit status: 0 on success, 1 on any failed check or missed floor,
2 on configuration errors. Any other exception is a fault, not a bad
config, and propagates with its traceback.
"""
from __future__ import annotations

import argparse
import json
import sys

import numpy as np

from . import ghd as ghd_mod
from .bits import SharedRandomness
from .ghd import GhdParams, gap_statistics
from .harness import SAMPLING_MODES, ExperimentConfig, run_experiment
from .oracle import MODELS
from .pauli import PauliMask
from .protocols import MAX_CODEWORD_BITS, PROTOCOL_KINDS, ConfigError

# shadows-demo's largest --copies: at 6 qubits its draw is 56 MiB of words
MAX_DEMO_COPIES = 1 << 20


def _emit(doc: dict, out_path: str | None) -> None:
    text = json.dumps(doc, sort_keys=True, indent=2)
    if out_path:
        with open(out_path, "w") as fh:
            fh.write(text + "\n")
    else:
        print(text)


def _cmd_verify(args) -> int:
    from .verify import verify_suite

    checks = verify_suite(max_qubits=args.max_qubits, instances=args.instances, seed=args.seed)
    failed = 0
    for check in checks:
        tag = "PASS" if check.passed else "FAIL"
        print(f"[{tag}] {check.name}: {check.detail}")
        failed += 0 if check.passed else 1
    print(f"{len(checks) - failed}/{len(checks)} checks passed")
    return 1 if failed else 0


def _cmd_run(args) -> int:
    cfg = ExperimentConfig(
        protocol=args.protocol,
        qubits=args.qubits,
        epsilon=args.epsilon,
        trials=args.trials,
        root_seed=args.seed,
        bias_c=args.bias_c,
        slack_d=args.slack_d,
        oracle_model=args.oracle,
        oracle_accuracy=args.oracle_accuracy,
        failure_prob=args.failure_prob,
        sampling=args.sampling,
        workers=args.workers,
        per_trial_records=args.csv is not None,
    )
    report = run_experiment(cfg)
    if args.out:
        with open(args.out, "w") as fh:
            fh.write(report.to_json() + "\n")
    else:
        print(report.to_json())
    if args.csv:
        report.write_csv(args.csv)
    rate = report.results["success_rate"]
    print(
        f"{args.protocol}: {report.results['successes']}/{cfg.trials} recovered "
        f"(rate {rate:.4f}, wilson95 {report.results['wilson95']})",
        file=sys.stderr,
    )
    if args.min_success is not None and rate < args.min_success:
        return 1
    return 0


def _cmd_ghd_gap(args) -> int:
    try:
        params = GhdParams(epsilon=args.epsilon, bias_c=args.bias_c, slack_d=args.slack_d)
    except ValueError as exc:
        raise ConfigError(str(exc)) from exc
    if args.trials < 1:
        raise ConfigError("trials must be >= 1")
    # every trial draws its whole code_len x gamma pad matrix
    pad_bits = params.code_len * params.gamma
    if pad_bits > MAX_CODEWORD_BITS:
        raise ConfigError(
            f"epsilon {params.epsilon} and bias_c {params.bias_c} give a {params.code_len} x "
            f"{params.gamma} pad matrix of {pad_bits} bits, past the desk cap of {MAX_CODEWORD_BITS}"
        )
    stats = gap_statistics(
        params,
        trials=args.trials,
        sr=SharedRandomness(args.seed),
        odd_weight=args.sampling == "odd-weight",
    )
    _emit(stats, args.out)
    ok = (
        stats["zero_event_freq"] is not None
        and stats["one_event_freq"] is not None
        and stats["zero_event_freq"] >= args.floor
        and stats["one_event_freq"] >= args.floor
    )
    print(
        f"gap events: zero-side {stats['zero_event_freq']:.4f}, "
        f"one-side {stats['one_event_freq']:.4f}, floor {args.floor}",
        file=sys.stderr,
    )
    return 0 if ok else 1


def _cmd_shadows_demo(args) -> int:
    from .shadows import reference_shadow_pair, to_one_way_protocol

    if args.qubits < 1 or args.qubits > 6:
        raise ConfigError("demo runs at 1..6 qubits")
    if args.copies < 1:
        raise ConfigError("copies must be >= 1")
    if args.copies > MAX_DEMO_COPIES:
        # measure reads copies * (n + 1) stream words
        raise ConfigError(f"copies {args.copies} past the desk cap of {MAX_DEMO_COPIES}")
    if args.observables < 0:
        raise ConfigError("observables must be >= 0")
    sr = SharedRandomness(args.seed)
    dim = 1 << args.qubits
    # complex Box-Muller on the doubles of substream 101, a pair per amplitude
    u = (sr.substream(101).words(2 * dim) >> 11).reshape(dim, 2) * 2.0**-53
    psi = np.sqrt(-2.0 * np.log1p(-u[:, 0])) * np.exp(2j * np.pi * u[:, 1])
    psi /= np.linalg.norm(psi)

    pair = reference_shadow_pair(args.copies)
    protocol = to_one_way_protocol(pair)
    msg = protocol.alice(psi, sr)

    # attempt a draws z from substream 2a of substream 102 and x from 2a + 1,
    # until z & x == 0
    picks = sr.substream(102)
    attempt = 0
    rows = []
    for _ in range(args.observables):
        while True:
            z = picks.substream(2 * attempt).integer(0, dim)
            x = picks.substream(2 * attempt + 1).integer(0, dim)
            attempt += 1
            if z & x == 0:
                break
        mask = PauliMask(z=z, x=x, qubits=args.qubits)
        dense = mask.to_dense().astype(np.complex128)
        exact = float(np.real(psi.conj() @ dense @ psi))
        est = protocol.bob(msg, mask)
        rows.append(
            {
                "z_mask": z,
                "x_mask": x,
                "exact": exact,
                "estimate": est,
                "abs_error": abs(est - exact),
            }
        )
    doc = {
        "qubits": args.qubits,
        "copies": args.copies,
        "seed": args.seed,
        "message_bits": msg.main_bits,
        "bits_per_copy": msg.main_bits / args.copies,
        "observables": rows,
    }
    _emit(doc, args.out)
    return 0


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="gapcomm",
        description="One-way communication reductions, run as simulations.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("verify", help="run the exact algebraic identity suite")
    p.add_argument("--max-qubits", type=int, default=8)
    p.add_argument("--instances", type=int, default=20)
    p.add_argument("--seed", type=int, default=715)
    p.set_defaults(func=_cmd_verify)

    p = sub.add_parser("run", help="Monte Carlo protocol experiment")
    p.add_argument("--protocol", required=True, choices=PROTOCOL_KINDS)
    p.add_argument("--qubits", type=int, required=True)
    p.add_argument("--epsilon", type=float, required=True)
    p.add_argument("--trials", type=int, required=True)
    p.add_argument("--oracle", default="exact", choices=MODELS)
    p.add_argument("--oracle-accuracy", type=float, default=None,
                   help="override the derived oracle accuracy budget")
    p.add_argument("--failure-prob", type=float, default=0.0)
    p.add_argument("--sampling", default="odd-weight", choices=SAMPLING_MODES)
    p.add_argument("--seed", type=int, required=True)
    p.add_argument("--out", default=None, help="write the JSON report here")
    p.add_argument("--csv", default=None, help="write per-trial records here")
    p.add_argument("--bias-c", type=float, default=ghd_mod.DEFAULT_BIAS_C)
    p.add_argument("--slack-d", type=float, default=ghd_mod.DEFAULT_SLACK_D)
    p.add_argument("--workers", type=int, default=1,
                   help="processes that run trials, this one included; "
                        "those beyond the trial count are not started")
    p.add_argument("--min-success", type=float, default=None,
                   help="exit 1 if the success rate falls below this floor")
    p.set_defaults(func=_cmd_run)

    p = sub.add_parser("ghd-gap", help="gap-event frequencies of the distance gadget")
    p.add_argument("--epsilon", type=float, required=True)
    p.add_argument("--trials", type=int, required=True)
    p.add_argument("--seed", type=int, required=True)
    p.add_argument("--bias-c", type=float, default=ghd_mod.DEFAULT_BIAS_C)
    p.add_argument("--slack-d", type=float, default=ghd_mod.DEFAULT_SLACK_D)
    p.add_argument("--sampling", default="odd-weight", choices=SAMPLING_MODES)
    p.add_argument("--floor", type=float, default=0.80)
    p.add_argument("--out", default=None)
    p.set_defaults(func=_cmd_ghd_gap)

    p = sub.add_parser("shadows-demo", help="measure/estimate adapter demonstration")
    p.add_argument("--qubits", type=int, default=3)
    p.add_argument("--copies", type=int, default=10_000)
    p.add_argument("--seed", type=int, required=True)
    p.add_argument("--observables", type=int, default=5)
    p.add_argument("--out", default=None)
    p.set_defaults(func=_cmd_shadows_demo)

    return parser


def main(argv=None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        return args.func(args)
    except ConfigError as exc:
        print(f"config error: {exc}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())
