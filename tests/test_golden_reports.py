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
    ("general-state", "exact"): "6fe507362ba52c37f5d55c0721cfe812dddf37ea949d453d6e92ea3d9eff8eb7",
    ("general-state", "noisy"): "fd25935cde0149c5712800a0f15f184aa5f6f8dfdb342fa5e2a3c0fbfdfb9d06",
    ("pauli-state", "exact"): "6b6f1a24e6821a57a770e46b0f75aa19d9210f7c2dad817b45f7676cf749a435",
    ("pauli-state", "noisy"): "082026a190c6539135a2317276851860a698cd60b5d2532ada1804a8681a19ae",
    ("observable-general", "exact"): "7d7d4fe0cc056814d458cf8e3edc0d98cd96ae449b5c3c0b7dd6d5f6caabb29f",
    ("observable-general", "noisy"): "8cd1967bf9c064653d6e77951149d9537d9f96823ded8b42778e94b9ad00067b",
    ("observable-pauli", "exact"): "3bdf126ea791853689af566bd3b86ec7da425ab1970c146882dda87316658e29",
    ("observable-pauli", "noisy"): "2d1d4e7c8679c568a8cd730b266100af18e56224273435f3f79d7a4db8e677d8",
    ("inner-product", "exact"): "fb3c30892324ee76cdc79883acc8dbd8c16b21acd8722f8a1497332eb99c5bca",
    ("inner-product", "noisy"): "5540e01dc139c9e78a594190729afc73fd98c7a227ee8d98ca575ec98bc8e0ab",
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
