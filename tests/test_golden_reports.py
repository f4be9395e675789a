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
    ("general-state", "exact"): "d5c7e84d75cfa226ac54d7d4ab294dbd7d0a1f40679f4f9e576838ed880aea7f",
    ("general-state", "noisy"): "ebcfd9a8aa578cb26e743244c1e3eb7b5e58bc3698c9c2f6fdea9bf05d58b53d",
    ("pauli-state", "exact"): "30c68b309266473d126230fe8d792ac26033c57a929136697a09599d2a029b48",
    ("pauli-state", "noisy"): "95150dc27c1aeda23d9a16ad7775e9c1deae00bebee2e5572871f3f82f16a268",
    ("observable-general", "exact"): "e8e6d9cdea0b1626136b6654fd2d0159be699390ff71aabb9e7134a6addf15c6",
    ("observable-general", "noisy"): "3fca87e8b8928352118af6866b62d1956be578b87e5eaf605a6e1cd102144ac3",
    ("observable-pauli", "exact"): "8a56674abca44c83b270086440b254736c8d2c17184311c3239620b3b2d94252",
    ("observable-pauli", "noisy"): "4834a718b3d0eaa774a96fad9968f4ef7e205e8e395daa1af09afac36bec5f7f",
    ("inner-product", "exact"): "15cce967f1fefb0ecbf7608f9a941d3e479cefeb4ece78e391862505f19cc292",
    ("inner-product", "noisy"): "08297b30a7c268105130fff135b6b95a3bd4d82b2a3345ac9d03e976ba506e03",
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
