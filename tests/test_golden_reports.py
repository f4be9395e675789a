"""Golden-report guard: pinned sha256 of whole reports, one per kind and setup.

Each hash covers ``ExperimentReport.to_json()`` followed by the per-trial CSV
of a small run. A speedup that changes any report byte (a reordered random
draw, a float that rounds differently) fails here even when every
statistical test still passes. Worker counts 1 and 2 must give the same
hash, as the determinism contract promises.

When a change is meant to alter report bytes, say why in CHANGES.md, then
print the new table with

    PYTHONPATH=src python tests/test_golden_reports.py

and paste it over ``GOLDEN``.
"""
import hashlib
import sys
from pathlib import Path

import pytest

from gapcomm.harness import ExperimentConfig, run_experiment

TRIALS = 30
SEED = 2024
SIZES = {
    "general-state": 8,
    "pauli-state": 8,
    "observable-general": 6,
    "observable-pauli": 64,
    "inner-product": 8,
}
# (oracle model, failure probability, sampling mode)
SETUPS = {
    "exact": ("exact", 0.0, "odd-weight"),
    "noisy": ("relative-uniform", 0.1, "unrestricted"),
}

GOLDEN = {
    ("general-state", "exact"): "8577aa6f42dec81d5e55599decd79fbbad35dc01c51df66bfecf5e789a7638ad",
    ("general-state", "noisy"): "b889ffeae0e1d43ddcd3101882ac7eee677ab49d2c88c3348a06eb3e9ec0c7f8",
    ("pauli-state", "exact"): "8a8b7d594d9c1692a13ba2d0c347620f774f0327458e7b04b29169b5403661f1",
    ("pauli-state", "noisy"): "b5c0c4f634a6069d998f416c67492b2db38979e3008fe813da4c6ab9de659e08",
    ("observable-general", "exact"): "b69a919714528c60fc69418ba3be48e7229040fe3dedf3749fb393c550d728c0",
    ("observable-general", "noisy"): "40d30c477b3bd80e968515d8eb2a03e5e845653bdd61ccfc6a6c9364e4bff5d5",
    ("observable-pauli", "exact"): "358370b3b289bff19aceb698687b13a284e076327b1fe85c5e72a9b830faa3be",
    ("observable-pauli", "noisy"): "bbe20cc53f7697356e1dc2faa3ea8697df2b5a116f663d3a751a6c4cd238c9e1",
    ("inner-product", "exact"): "a3a87bc88215e52512f0e67e7cb3a5adffa7015092debbb9d69af21627e6e521",
    ("inner-product", "noisy"): "f9bbbe8e324917e8c4fce25ae12315e67e742cfa05f7bc1d203d1f461503d64d",
}


def report_digest(kind: str, setup: str, workers: int, tmp_dir: Path) -> str:
    model, failure_prob, sampling = SETUPS[setup]
    report = run_experiment(
        ExperimentConfig(
            protocol=kind,
            qubits=SIZES[kind],
            epsilon=0.5,
            trials=TRIALS,
            root_seed=SEED,
            oracle_model=model,
            failure_prob=failure_prob,
            sampling=sampling,
            workers=workers,
            per_trial_records=True,
        )
    )
    csv_path = tmp_dir / f"{kind}-{setup}-{workers}.csv"
    report.write_csv(str(csv_path))
    return hashlib.sha256(report.to_json().encode() + csv_path.read_bytes()).hexdigest()


@pytest.mark.parametrize("workers", [1, 2])
@pytest.mark.parametrize("kind,setup", sorted(GOLDEN))
def test_report_bytes_are_pinned(kind, setup, workers, tmp_path):
    assert report_digest(kind, setup, workers, tmp_path) == GOLDEN[(kind, setup)]


if __name__ == "__main__":
    import tempfile

    with tempfile.TemporaryDirectory() as tmp:
        print("GOLDEN = {")
        for kind in SIZES:
            for setup in SETUPS:
                digest = report_digest(kind, setup, 1, Path(tmp))
                print(f'    ({kind!r}, {setup!r}): "{digest}",'.replace("'", '"'))
        print("}")
    sys.exit(0)
