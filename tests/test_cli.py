"""CLI surface: subcommands, exit codes, artifacts."""
import json

import pytest

from gapcomm.cli import build_parser, main


def test_verify_exits_zero(capsys):
    assert main(["verify", "--max-qubits", "6", "--instances", "3"]) == 0
    out = capsys.readouterr().out
    assert "[PASS]" in out and "[FAIL]" not in out


def test_run_writes_report_and_csv(tmp_path, capsys):
    out = tmp_path / "report.json"
    csv = tmp_path / "trials.csv"
    code = main(
        [
            "run", "--protocol", "pauli-state", "--qubits", "8", "--epsilon", "0.5",
            "--trials", "20", "--seed", "7", "--out", str(out), "--csv", str(csv),
        ]
    )
    assert code == 0
    doc = json.loads(out.read_text())
    assert doc["config"]["protocol"] == "pauli-state"
    assert csv.read_text().count("\n") == 21


def test_run_min_success_floor(tmp_path):
    args = [
        "run", "--protocol", "pauli-state", "--qubits", "8", "--epsilon", "0.5",
        "--trials", "20", "--seed", "7", "--out", str(tmp_path / "r.json"),
    ]
    assert main(args + ["--min-success", "0.5"]) == 0
    assert main(args + ["--min-success", "1.01"]) == 1


def test_run_rejects_invalid_epsilon(tmp_path):
    code = main(
        [
            "run", "--protocol", "general-state", "--qubits", "8", "--epsilon", "0.1",
            "--trials", "5", "--seed", "1", "--out", str(tmp_path / "r.json"),
        ]
    )
    assert code == 2


def test_run_rejects_a_pauli_state_norm_past_its_u64_field_before_any_trial(tmp_path, capsys):
    out = tmp_path / "P"
    code = main(
        [
            "run", "--protocol", "pauli-state", "--qubits", "19", "--epsilon", "0.038",
            "--trials", "1", "--seed", "1", "--out", str(out),
        ]
    )
    assert code == 2
    assert "u64 squared-norm field" in capsys.readouterr().err
    assert not out.exists()


def test_run_rejects_an_observable_pauli_z_string_past_its_cap_before_any_trial(tmp_path, capsys):
    out = tmp_path / "r.json"
    code = main(
        [
            "run", "--protocol", "observable-pauli", "--qubits", str(10**15), "--epsilon", "0.3",
            "--trials", "1", "--seed", "1", "--out", str(out),
        ]
    )
    assert code == 2
    assert "Z-string bits" in capsys.readouterr().err
    assert not out.exists()


def test_run_names_an_epsilon_too_small_for_the_code_length(tmp_path, capsys):
    out = tmp_path / "r.json"
    code = main(
        [
            "run", "--protocol", "pauli-state", "--qubits", "8", "--epsilon", "1e-200",
            "--trials", "1", "--seed", "1", "--out", str(out),
        ]
    )
    assert code == 2
    assert "epsilon 1e-200 too small: gamma = ceil(epsilon^-2) overflows a float" in capsys.readouterr().err
    assert not out.exists()


def test_ghd_gap_names_an_epsilon_whose_gamma_overflows(tmp_path, capsys):
    out = tmp_path / "gap.json"
    code = main(["ghd-gap", "--epsilon", "1e-200", "--trials", "3", "--seed", "1", "--out", str(out)])
    assert code == 2
    assert "epsilon 1e-200 too small: gamma = ceil(epsilon^-2) overflows a float" in capsys.readouterr().err
    assert not out.exists()


@pytest.mark.parametrize("option", ["--oracle-accuracy", "--failure-prob"])
def test_run_rejects_a_nan_oracle_setting(tmp_path, option):
    out = tmp_path / "r.json"
    code = main(
        [
            "run", "--protocol", "pauli-state", "--qubits", "6", "--epsilon", "0.5",
            "--trials", "20", "--seed", "3", "--oracle", "relative-uniform",
            option, "nan", "--out", str(out),
        ]
    )
    assert code == 2
    assert not out.exists()


def test_run_rejects_a_nan_accuracy_under_the_exact_oracle(tmp_path):
    out = tmp_path / "r.json"
    code = main(
        [
            "run", "--protocol", "pauli-state", "--qubits", "6", "--epsilon", "0.5",
            "--trials", "20", "--seed", "3", "--oracle", "exact",
            "--oracle-accuracy", "nan", "--out", str(out),
        ]
    )
    assert code == 2
    assert not out.exists()


def test_run_rejects_a_failure_prob_under_the_exact_oracle(tmp_path, capsys):
    out = tmp_path / "r.json"
    code = main(
        [
            "run", "--protocol", "pauli-state", "--qubits", "6", "--epsilon", "0.5",
            "--trials", "20", "--seed", "3", "--oracle", "exact",
            "--failure-prob", "0.5", "--out", str(out),
        ]
    )
    assert code == 2
    assert "exact oracle never fails" in capsys.readouterr().err
    assert not out.exists()


def test_run_has_no_budget_divisor_option():
    with pytest.raises(SystemExit) as exc:
        build_parser().parse_args(
            ["run", "--protocol", "pauli-state", "--qubits", "6", "--epsilon", "0.5",
             "--trials", "20", "--seed", "3", "--oracle-slack", "2"]
        )
    assert exc.value.code == 2


def test_ghd_gap_passes_at_default_constant(tmp_path):
    code = main(
        [
            "ghd-gap", "--epsilon", "0.3", "--trials", "300", "--seed", "11",
            "--out", str(tmp_path / "gap.json"),
        ]
    )
    assert code == 0
    doc = json.loads((tmp_path / "gap.json").read_text())
    assert doc["zero_event_freq"] >= 0.8 and doc["one_event_freq"] >= 0.8


def test_ghd_gap_flags_a_missed_floor(tmp_path):
    # the legacy bias constant 0.75 overstates the achievable majority
    # margin, so the one-sided event lands well under the 0.80 floor
    code = main(
        [
            "ghd-gap", "--epsilon", "0.3", "--trials", "300", "--seed", "11",
            "--bias-c", "0.75", "--out", str(tmp_path / "gap.json"),
        ]
    )
    assert code == 1
    doc = json.loads((tmp_path / "gap.json").read_text())
    assert doc["one_event_freq"] < 0.8 <= doc["zero_event_freq"]


def test_shadows_demo(tmp_path):
    out = tmp_path / "demo.json"
    code = main(
        [
            "shadows-demo", "--qubits", "2", "--copies", "500", "--seed", "3",
            "--observables", "3", "--out", str(out),
        ]
    )
    assert code == 0
    doc = json.loads(out.read_text())
    assert doc["message_bits"] == 500 * 3 * 2
    assert len(doc["observables"]) == 3


def test_unknown_subcommand_exits_two():
    with pytest.raises(SystemExit) as err:
        main(["frobnicate"])
    assert err.value.code == 2


def test_a_library_fault_in_a_run_propagates(tmp_path, monkeypatch, capsys):
    # a ValueError raised inside the run is a fault, not a config error: it
    # keeps its traceback instead of becoming exit 2
    import gapcomm.harness as harness

    def faulty(cfg, trial):
        raise ValueError(f"synthetic library fault in trial {trial}")

    monkeypatch.setattr(harness, "run_trial", faulty)
    out = tmp_path / "r.json"
    with pytest.raises(ValueError, match="synthetic library fault in trial 0"):
        main(
            [
                "run", "--protocol", "pauli-state", "--qubits", "6", "--epsilon", "0.5",
                "--trials", "3", "--seed", "3", "--out", str(out),
            ]
        )
    assert "config error" not in capsys.readouterr().err
    assert not out.exists()


@pytest.mark.parametrize(
    "argv, message",
    [
        (["ghd-gap", "--epsilon", "0.3", "--trials", "0", "--seed", "1"], "trials must be >= 1"),
        (["ghd-gap", "--epsilon", "0.3", "--trials", "3", "--seed", "1", "--bias-c", "0.9"], "bias_c must be in"),
        (["shadows-demo", "--copies", "0", "--seed", "1"], "copies must be >= 1"),
        (["shadows-demo", "--observables", "-1", "--seed", "1"], "observables must be >= 0"),
        # no instances or no qubits would pass every check without checking
        (["verify", "--instances", "-3"], "instances must be >= 1"),
        (["verify", "--instances", "0"], "instances must be >= 1"),
        (["verify", "--max-qubits", "0"], "max_qubits must be >= 1"),
    ],
)
def test_bad_settings_of_the_other_commands_exit_two(argv, message, capsys):
    assert main(argv) == 2
    assert f"config error: {message}" in capsys.readouterr().err
