"""Experiment runner: determinism, statistics, accounting."""
import json
import math
import multiprocessing
import os
import time

import numpy as np
import pytest

from gapcomm.bits import STREAM_INDEX, STREAM_INSTANCE, SharedRandomness
from gapcomm.ghd import encode_alice, encode_bob
from gapcomm.harness import (
    ExperimentConfig,
    run_experiment,
    run_trial,
    sample_instance,
    wilson95,
)
from gapcomm.oracle import MODELS
from gapcomm.protocols import ConfigError, decompose_index
from gapcomm.verify import verify_suite

from test_bits import run_fresh


def small_config(**overrides) -> ExperimentConfig:
    base = dict(
        protocol="pauli-state",
        qubits=8,
        epsilon=0.5,
        trials=60,
        root_seed=101,
    )
    base.update(overrides)
    return ExperimentConfig(**base)


class TestWilson:
    def test_interval_contains_the_rate(self):
        for successes, trials in [(0, 10), (5, 10), (10, 10), (80, 100), (1999, 2000)]:
            lo, hi = wilson95(successes, trials)
            assert lo <= successes / trials <= hi
            assert 0.0 <= lo <= hi <= 1.0

    def test_matches_direct_formula(self):
        z = 1.959963984540054
        successes, trials = 73, 250
        p = successes / trials
        denom = 1 + z * z / trials
        center = (p + z * z / (2 * trials)) / denom
        spread = z * math.sqrt(p * (1 - p) / trials + z * z / (4 * trials**2)) / denom
        lo, hi = wilson95(successes, trials)
        assert lo == pytest.approx(center - spread)
        assert hi == pytest.approx(center + spread)

    def test_boundary_endpoints_are_exact(self):
        assert wilson95(400, 400)[1] == 1.0
        assert wilson95(0, 400)[0] == 0.0

    def test_degenerate_and_invalid_inputs(self):
        assert wilson95(0, 0) == (0.0, 0.0)
        with pytest.raises(ValueError):
            wilson95(5, 4)


class TestDeterminism:
    def test_single_trial_repeats_exactly(self):
        cfg = small_config(trials=1)
        assert run_experiment(cfg).to_json() == run_experiment(cfg).to_json()

    def test_reports_identical_across_worker_counts(self):
        serial = run_experiment(small_config(workers=1))
        parallel = run_experiment(small_config(workers=2))
        assert serial.to_json() == parallel.to_json()

    def test_different_seeds_differ(self):
        a = run_experiment(small_config(root_seed=1, trials=40))
        b = run_experiment(small_config(root_seed=2, trials=40))
        assert a.to_json() != b.to_json()


class TestPoolScheduling:
    """Pool workers claim trials one index at a time; the report must not
    show how the trials fell between them."""

    @staticmethod
    def report_bytes(tmp_path, workers, trials):
        cfg = small_config(qubits=6, trials=trials, workers=workers, per_trial_records=True)
        report = run_experiment(cfg)
        csv_path = tmp_path / f"w{workers}-t{trials}.csv"
        report.write_csv(str(csv_path))
        assert [r["trial"] for r in report.per_trial] == list(range(trials))
        return report.to_json(), csv_path.read_bytes()

    # (4, 40): more workers than a small host has cores, so claims race; a
    # lost counter update would run some trial twice and another never
    @pytest.mark.parametrize(
        "workers, trials", [(2, 2), (2, 3), (2, 7), (3, 2), (3, 3), (3, 7), (4, 40)]
    )
    def test_reports_match_one_worker(self, tmp_path, workers, trials):
        assert self.report_bytes(tmp_path, workers, trials) == self.report_bytes(tmp_path, 1, trials)

    @pytest.mark.skipif(
        "fork" not in multiprocessing.get_all_start_methods(),
        reason="the patched trial reaches pool workers only by fork",
    )
    def test_a_failing_trial_raises_and_leaves_no_worker(self, monkeypatch):
        import gapcomm.harness as harness

        def broken(cfg, trial):
            raise ZeroDivisionError(f"synthetic failure in trial {trial}")

        monkeypatch.setattr(harness, "run_trial", broken)
        with pytest.raises(ZeroDivisionError, match="synthetic failure"):
            run_experiment(small_config(qubits=6, trials=7, workers=2))
        assert multiprocessing.active_children() == []


@pytest.mark.skipif(
    "fork" not in multiprocessing.get_all_start_methods(),
    reason="the patched trial reaches the children only by fork",
)
class TestPoolFailures:
    """The calling process runs trials alongside its forked children; a
    failure anywhere ends the run and leaves no child behind."""

    def test_a_failure_stops_every_process_after_its_current_trial(self, monkeypatch):
        import gapcomm.harness as harness

        plain = harness.run_trial
        calls = multiprocessing.get_context("fork").Value("q", 0)  # forked, so shared by every process

        def failing_first(cfg, trial):
            with calls.get_lock():
                calls.value += 1
            if trial == 0:
                raise ZeroDivisionError("synthetic failure in trial 0")
            return plain(cfg, trial)

        monkeypatch.setattr(harness, "run_trial", failing_first)
        with pytest.raises(ZeroDivisionError, match="trial 0"):
            run_experiment(small_config(qubits=6, trials=2000, workers=2))
        assert calls.value < 100
        assert multiprocessing.active_children() == []

    def test_a_child_only_exception_keeps_its_type_and_message(self, monkeypatch):
        import gapcomm.harness as harness

        plain = harness.run_trial
        caller = os.getpid()

        def child_fails(cfg, trial):
            if os.getpid() != caller:
                raise LookupError(f"child-only failure in trial {trial}")
            time.sleep(0.02)  # leave the children trials to claim
            return plain(cfg, trial)

        monkeypatch.setattr(harness, "run_trial", child_fails)
        with pytest.raises(LookupError, match=r"^child-only failure in trial \d+$") as info:
            run_experiment(small_config(qubits=6, trials=40, workers=2))
        # the child's own traceback comes along as the cause
        cause = info.value.__cause__
        assert isinstance(cause, harness.TrialProcessTraceback)
        assert "in child_fails" in str(cause) and "LookupError: child-only failure" in str(cause)
        assert multiprocessing.active_children() == []

    def test_a_child_exception_that_does_not_pickle_keeps_its_type_and_message(self, monkeypatch):
        import gapcomm.harness as harness

        plain = harness.run_trial
        caller = os.getpid()

        class Unpicklable(Exception):
            pass  # defined in a function, so pickle cannot find its class

        def child_fails(cfg, trial):
            if os.getpid() != caller:
                raise Unpicklable(f"child-only failure in trial {trial}")
            time.sleep(0.02)  # leave the children trials to claim
            return plain(cfg, trial)

        monkeypatch.setattr(harness, "run_trial", child_fails)
        with pytest.raises(RuntimeError, match=r"Unpicklable: child-only failure in trial \d+$") as info:
            run_experiment(small_config(qubits=6, trials=40, workers=2))
        assert "in child_fails" in str(info.value.__cause__)
        assert multiprocessing.active_children() == []

    def test_a_child_that_dies_mid_trial_is_a_runtime_error(self):
        run_fresh(
            "import multiprocessing, os, time\n"
            "from gapcomm import harness\n"
            "plain, caller = harness.run_trial, os.getpid()\n"
            "def dying(cfg, trial):\n"
            "    if os.getpid() != caller:\n"
            "        os._exit(3)\n"
            "    time.sleep(0.02)  # leave the child a trial to claim\n"
            "    return plain(cfg, trial)\n"
            "harness.run_trial = dying\n"
            "cfg = harness.ExperimentConfig('pauli-state', 6, 0.5, trials=20, root_seed=3, workers=2)\n"
            "try:\n"
            "    harness.run_experiment(cfg)\n"
            "except RuntimeError as exc:\n"
            "    assert 'code 3' in str(exc), exc\n"
            "else:\n"
            "    raise AssertionError('the run did not raise')\n"
            "assert multiprocessing.active_children() == []\n"
        )

    @pytest.mark.parametrize("workers", [2, 3])
    def test_a_caller_failure_does_not_wait_on_a_child_with_unsent_records(self, workers):
        # each child holds far more than a pipe buffer (64 KiB) of records
        # when the caller fails and stops reading; at workers=3 the second
        # child also holds an inherited copy of the first child's read end
        run_fresh(
            "import multiprocessing, os, time\n"
            "from gapcomm import harness\n"
            "plain, caller = harness.run_trial, os.getpid()\n"
            "def padded(cfg, trial):\n"
            "    if os.getpid() != caller:\n"
            "        return {**plain(cfg, trial), 'pad': 'x' * 10000}\n"
            "    time.sleep(0.2)  # each child runs a few trials meanwhile\n"
            "    raise ZeroDivisionError('caller failure')\n"
            "harness.run_trial = padded\n"
            f"cfg = harness.ExperimentConfig('pauli-state', 6, 0.5, trials=2000, root_seed=3, workers={workers})\n"
            "try:\n"
            "    harness.run_experiment(cfg)\n"
            "except ZeroDivisionError:\n"
            "    pass\n"
            "else:\n"
            "    raise AssertionError('the run did not raise')\n"
            "assert multiprocessing.active_children() == []\n"
        )

    def test_the_caller_runs_trials_with_at_most_workers_processes(self, monkeypatch):
        import gapcomm.harness as harness

        plain = harness.run_trial

        def stamped(cfg, trial):
            record = plain(cfg, trial)
            record["pid"] = os.getpid()
            time.sleep(0.002)  # no process can take every trial before the others start
            return record

        monkeypatch.setattr(harness, "run_trial", stamped)
        report = run_experiment(small_config(qubits=6, trials=40, workers=3, per_trial_records=True))
        pids = {r["pid"] for r in report.per_trial}
        assert os.getpid() in pids
        assert len(pids) <= 3
        assert multiprocessing.active_children() == []


@pytest.mark.skipif(
    "fork" not in multiprocessing.get_all_start_methods(),
    reason="the pool forks only where the platform offers fork",
)
def test_the_pool_forks_under_a_spawn_default():
    # the patched trial reaches a child only by fork, so every record carries
    # its stamp even though spawn is the default start method
    run_fresh(
        "import multiprocessing, os, time\n"
        "multiprocessing.set_start_method('spawn')\n"
        "from gapcomm import harness\n"
        "plain = harness.run_trial\n"
        "def stamped(cfg, trial):\n"
        "    record = plain(cfg, trial)\n"
        "    record['pid'] = os.getpid()\n"
        "    time.sleep(0.002)  # the child starts before the caller takes every trial\n"
        "    return record\n"
        "harness.run_trial = stamped\n"
        "def run(workers):\n"
        "    return harness.run_experiment(harness.ExperimentConfig(\n"
        "        'pauli-state', 6, 0.5, trials=40, root_seed=3, workers=workers, per_trial_records=True))\n"
        "pooled = run(2)\n"
        "pids = {r['pid'] for r in pooled.per_trial}\n"
        "assert len(pids) == 2 and os.getpid() in pids, pids\n"
        "assert pooled.to_json() == run(1).to_json()\n"
        "assert multiprocessing.active_children() == []\n"
    )


@pytest.mark.skipif(
    "fork" not in multiprocessing.get_all_start_methods(),
    reason="the patched trial reaches the child only by fork",
)
def test_a_pooled_run_pins_blas_to_one_thread_in_every_process():
    # numpy's OpenBLAS read directly, not through the library: inside each
    # trial, and in the caller after the run. Without the thread variables
    # it starts at the core count; two threads make the pin visible anywhere.
    run_fresh(
        "import ctypes, glob, os, sys, time\n"
        "import numpy as np\n"
        "from gapcomm import harness\n"
        "libs = os.path.join(os.path.dirname(os.path.dirname(np.__file__)), 'numpy.libs')\n"
        "paths = glob.glob(os.path.join(libs, 'libscipy_openblas64_*.so'))\n"
        "if not paths:\n"
        "    sys.exit(0)  # no OpenBLAS bundle to pin\n"
        "blas = ctypes.CDLL(paths[0])\n"
        "get, set_ = blas.scipy_openblas_get_num_threads64_, blas.scipy_openblas_set_num_threads64_\n"
        "get.argtypes, get.restype = [], ctypes.c_int\n"
        "set_.argtypes, set_.restype = [ctypes.c_int], None\n"
        "set_(2)\n"
        "assert get() == 2\n"
        "plain = harness.run_trial\n"
        "def stamped(cfg, trial):\n"
        "    record = plain(cfg, trial)\n"
        "    record['blas'] = (os.getpid(), get())\n"
        "    time.sleep(0.002)  # the child starts before the caller takes every trial\n"
        "    return record\n"
        "harness.run_trial = stamped\n"
        "def run(workers):\n"
        "    return harness.run_experiment(harness.ExperimentConfig(\n"
        "        'pauli-state', 6, 0.5, trials=40, root_seed=3, workers=workers, per_trial_records=True))\n"
        "stamps = {r['blas'] for r in run(2).per_trial}\n"
        "pids = {pid for pid, _ in stamps}\n"
        "assert len(pids) == 2 and os.getpid() in pids, stamps\n"
        "assert {threads for _, threads in stamps} == {1}, stamps\n"
        "assert get() == 2\n"
        "assert {r['blas'] for r in run(1).per_trial} == {(os.getpid(), 2)}\n",
        unset=("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"),
    )


@pytest.mark.skipif(
    "fork" not in multiprocessing.get_all_start_methods() or not os.path.exists("/proc/self/status"),
    reason="counts the caller's OS threads in /proc at each fork",
)
def test_a_pooled_run_forks_from_a_single_threaded_process():
    # two BLAS threads, woken by a matmul, leave a second OS thread parked in
    # OpenBLAS's thread server; the pool must stop it before it forks
    run_fresh(
        "import multiprocessing.process, sys, numpy as np\n"
        "from gapcomm import harness\n"
        "np.ones((512, 512)) @ np.ones((512, 512))\n"
        "if harness._openblas() is None:\n"
        "    sys.exit(0)  # no OpenBLAS bundle, so no thread server to stop\n"
        "def threads():\n"
        "    with open('/proc/self/status') as status:\n"
        "        return next(int(line.split()[1]) for line in status if line.startswith('Threads:'))\n"
        "assert threads() == 2, threads()\n"
        "seen = []\n"
        "plain = multiprocessing.process.BaseProcess.start\n"
        "def start(self):\n"
        "    seen.append(threads())\n"
        "    plain(self)\n"
        "multiprocessing.process.BaseProcess.start = start\n"
        "def run(workers):\n"
        "    return harness.run_experiment(harness.ExperimentConfig(\n"
        "        'observable-general', 6, 0.5, trials=12, root_seed=5, workers=workers, per_trial_records=True))\n"
        "pooled = run(3)\n"
        "assert seen == [1, 1], seen\n"
        "assert pooled.to_json() == run(1).to_json()\n",
        unset=("OMP_NUM_THREADS", "MKL_NUM_THREADS"),
        env={"OPENBLAS_NUM_THREADS": "2"},
    )


class TestGroundTruth:
    @pytest.mark.parametrize("sampling", ["odd-weight", "unrestricted"])
    @pytest.mark.parametrize("protocol,qubits,epsilon", [("observable-pauli", 256, 0.3), ("pauli-state", 8, 0.5)])
    def test_delta_exact_is_the_bit_vector_distance(self, protocol, qubits, epsilon, sampling):
        cfg = small_config(protocol=protocol, qubits=qubits, epsilon=epsilon, sampling=sampling)
        pc = cfg.pc
        gamma = pc.ghd.gamma
        for trial in range(40):
            record = run_trial(cfg, trial)
            # the codewords re-derived from encode_alice and encode_bob on
            # the trial's own draws
            sr = SharedRandomness(cfg.root_seed).substream(trial)
            x = sample_instance(sr.substream(STREAM_INSTANCE), pc, sampling == "odd-weight")
            l = sr.substream(STREAM_INDEX).integer(1, pc.capacity + 1)
            i, j = decompose_index(l, gamma)
            a = encode_alice(x[(j - 1) * gamma : j * gamma], pc.ghd, sr)
            b = encode_bob(i, pc.ghd, sr)
            assert record["l"] == l
            assert record["delta_exact"] == int(np.count_nonzero(a != b))

    @pytest.mark.parametrize("sampling", ["odd-weight", "unrestricted"])
    def test_instance_is_a_read_only_bit_string_of_capacity_entries(self, sampling):
        pc = small_config().pc
        x = sample_instance(SharedRandomness(7), pc, sampling == "odd-weight")
        assert x.dtype == np.uint8 and x.shape == (pc.capacity,)
        assert set(np.unique(x).tolist()) <= {0, 1}
        with pytest.raises(ValueError):
            x[0] ^= 1

    @pytest.mark.parametrize("sampling", ["odd-weight", "unrestricted"])
    def test_instance_cannot_be_made_writable_again(self, sampling):
        x = sample_instance(SharedRandomness(7), small_config().pc, sampling == "odd-weight")
        with pytest.raises(ValueError):
            x.setflags(write=True)

    @pytest.mark.parametrize("workers", [1, 2])
    def test_records_hold_python_ints_and_bools(self, workers):
        report = run_experiment(small_config(trials=6, workers=workers, per_trial_records=True))
        for record in report.per_trial:
            assert type(record["x_l"]) is int and record["x_l"] in (0, 1)
            assert type(record["success"]) is bool


class TestReports:
    def test_report_schema_fields(self):
        report = run_experiment(small_config())
        doc = json.loads(report.to_json())
        assert set(doc) == {"config", "derived", "results", "message"}
        assert doc["results"]["successes"] <= doc["results"]["trials"]
        lo, hi = doc["results"]["wilson95"]
        assert lo <= doc["results"]["success_rate"] <= hi
        assert doc["message"]["side_bits"] < doc["message"]["main_bits"]
        assert doc["derived"]["capacity"] >= 1

    def test_per_trial_csv(self, tmp_path):
        cfg = small_config(trials=10, per_trial_records=True)
        report = run_experiment(cfg)
        path = tmp_path / "trials.csv"
        report.write_csv(str(path))
        lines = path.read_text().strip().splitlines()
        assert len(lines) == 11  # header + one row per trial

    def test_csv_requires_records(self):
        report = run_experiment(small_config(trials=5))
        with pytest.raises(ValueError):
            report.write_csv("/tmp/nope.csv")


class TestOracleDegradation:
    def test_total_failure_reduces_to_chance(self):
        # out-of-band estimates big enough to bury the decision margin
        cfg = small_config(
            trials=300,
            oracle_model="relative-uniform",
            oracle_accuracy=0.5,
            failure_prob=1.0,
        )
        rate = run_experiment(cfg).results["success_rate"]
        assert abs(rate - 0.5) < 0.12

    def test_one_third_failure_respects_composition_floor(self):
        exact = run_experiment(small_config(trials=300))
        degraded = run_experiment(
            small_config(trials=300, oracle_model="relative-uniform", failure_prob=1 / 3)
        )
        p_exact = exact.results["success_rate"]
        floor = 2 / 3 * p_exact - 0.09  # 3-sigma sampling slack at 300 trials
        assert degraded.results["success_rate"] >= floor


class TestMessageAccounting:
    def test_state_payload_scales_with_dimension(self):
        bits = {}
        for n in (8, 10, 12):
            cfg = ExperimentConfig(
                protocol="pauli-state", qubits=n, epsilon=0.3, trials=2, root_seed=5
            )
            rep = run_experiment(cfg)
            bits[n] = rep.message["main_bits"]
            assert rep.message["side_bits"] < 70 + 32 * rep.derived["block_count"]
        assert bits[10] / bits[8] == pytest.approx(4.0, rel=0.10)
        assert bits[12] / bits[10] == pytest.approx(4.0, rel=0.10)

    def test_side_info_stays_sublinear_in_the_payload(self):
        # side info = 96 header bits + one 32-bit weight per block; it grows
        # with the block count (~sqrt of the dimension), far slower than the
        # 4x-per-step payload
        side, main, blocks = {}, {}, {}
        for n in (8, 10, 12):
            cfg = ExperimentConfig(
                protocol="pauli-state", qubits=n, epsilon=0.3, trials=2, root_seed=5
            )
            rep = run_experiment(cfg)
            side[n] = rep.message["side_bits"]
            main[n] = rep.message["main_bits"]
            blocks[n] = rep.derived["block_count"] - rep.derived["gamma"]
        for n in (8, 10, 12):
            assert side[n] == 96 + 32 * blocks[n]
        assert side[12] / side[8] < 0.6 * main[12] / main[8]
        assert all(side[n] < 0.01 * main[n] for n in (10, 12))


class TestNoisyEstimates:
    @pytest.mark.parametrize("accuracy", [0.05, 0.5])
    @pytest.mark.parametrize(
        "kind,qubits",
        [
            ("general-state", 8),
            ("pauli-state", 8),
            ("observable-general", 6),
            ("observable-pauli", 64),
            ("inner-product", 8),
        ],
    )
    def test_additive_noise_never_aborts_the_run(self, kind, qubits, accuracy):
        # a noisy estimate may map to a negative sum-norm; it is still a
        # distance estimate, not a config error
        report = run_experiment(
            small_config(
                protocol=kind, qubits=qubits, trials=20,
                oracle_model="additive", oracle_accuracy=accuracy,
            )
        )
        assert report.results["trials"] == 20
        assert math.isfinite(report.results["max_delta_error"])


class TestDegenerateTrials:
    def test_protocol_errors_counted_as_failures(self, monkeypatch):
        import gapcomm.protocols as proto_mod

        def degenerate(x, pc, sr):
            raise proto_mod.ProtocolError("synthetic degenerate instance")

        monkeypatch.setitem(proto_mod.ALICE, "pauli-state", degenerate)
        report = run_experiment(small_config(trials=5))
        assert report.results["successes"] == 0
        assert report.results["protocol_errors"] == 5
        assert "synthetic" in report.results["error_samples"][0]


class TestValidation:
    def test_bad_trials(self):
        with pytest.raises(ConfigError):
            small_config(trials=0)

    def test_bad_sampling_mode(self):
        with pytest.raises(ConfigError):
            small_config(sampling="even-weight")

    def test_bad_oracle_model(self):
        with pytest.raises(ConfigError):
            small_config(oracle_model="psychic")

    def test_bad_workers(self):
        with pytest.raises(ConfigError):
            small_config(workers=0)

    def test_workers_desk_cap(self):
        # config only: no run starts a process here
        from gapcomm.harness import MAX_WORKERS

        assert MAX_WORKERS >= 4  # the largest pool TestPoolScheduling runs
        assert small_config(workers=MAX_WORKERS).workers == MAX_WORKERS
        with pytest.raises(ConfigError, match=f"workers must be in \\[1, {MAX_WORKERS}\\]"):
            small_config(workers=MAX_WORKERS + 1)

    @pytest.mark.parametrize("failure_prob", [1.5, -0.1, float("nan")])
    def test_bad_failure_prob(self, failure_prob):
        with pytest.raises(ConfigError, match="failure_prob"):
            small_config(failure_prob=failure_prob)

    def test_exact_model_rejects_a_failure_prob(self):
        with pytest.raises(ConfigError, match="exact oracle never fails"):
            small_config(oracle_model="exact", failure_prob=0.5)

    @pytest.mark.parametrize("model", MODELS)
    @pytest.mark.parametrize("accuracy", [-0.1, float("inf"), float("nan")])
    def test_bad_oracle_accuracy_under_every_model(self, model, accuracy):
        # the exact model runs at accuracy 0, but a bad value is still a typo
        with pytest.raises(ConfigError, match="accuracy"):
            small_config(oracle_model=model, oracle_accuracy=accuracy)

    # an epsilon of 1e-200 would overflow gamma, and a bias_c of 1e-200 the
    # amp_factor; GhdParams rejects both first
    @pytest.mark.parametrize(
        "override",
        [dict(bias_c=0.9), dict(slack_d=0.5), dict(epsilon=float("nan")), dict(epsilon=1e-200),
         dict(bias_c=1e-200)],
    )
    def test_bad_gadget_parameters(self, override):
        with pytest.raises(ConfigError):
            small_config(**override)

    def test_codeword_cap_holds_at_any_bias_c(self):
        # code_len 15953125 stays under 2^24, but 1024 blocks of it would be
        # 1.6e10 pad entries and a 65 GB float32 row matrix
        with pytest.raises(ConfigError, match="codeword bits"):
            small_config(protocol="observable-general", qubits=10, epsilon=0.0313, bias_c=0.024)

    def test_epsilon_below_the_kind_floor(self):
        # pauli-state at n=8 needs epsilon above 2^-2
        with pytest.raises(ConfigError, match="validity interval"):
            small_config(epsilon=0.2)

    def test_oracle_accuracy_resolution(self):
        noisy = dict(oracle_model="relative-uniform", failure_prob=0.1)
        assert small_config(**noisy).oracle.accuracy == small_config(**noisy).pc.oracle_accuracy
        assert small_config(**noisy, oracle_accuracy=0.5).oracle.accuracy == 0.5
        assert small_config(oracle_accuracy=0.5).oracle.accuracy == 0.0
        # the built parts stay out of equality and hashing
        assert small_config(**noisy) == small_config(**noisy)
        assert hash(small_config(**noisy)) == hash(small_config(**noisy))

    def test_trials_build_no_config(self, monkeypatch):
        import gapcomm.harness as harness

        cfg = small_config(trials=4, oracle_model="relative-uniform", failure_prob=0.1)

        def refuse(*args, **kwargs):
            raise AssertionError("a trial rebuilt part of its config")

        for owner, name in [(harness, "GhdParams"), (harness.proto, "ProtocolConfig"), (harness, "OracleSpec")]:
            monkeypatch.setattr(owner, name, refuse)
        assert run_experiment(cfg).results["trials"] == 4


def test_verify_suite_passes_at_small_scale():
    results = verify_suite(max_qubits=6, instances=5)
    assert all(check.passed for check in results), [
        (c.name, c.detail) for c in results if not c.passed
    ]


def test_verify_suite_checks_every_protocol_target():
    from gapcomm.protocols import PROTOCOL_KINDS

    names = {check.name for check in verify_suite(max_qubits=6, instances=1)}
    for kind in PROTOCOL_KINDS:
        assert any(name.startswith(f"target-{kind}-n") for name in names), kind


def test_verify_suite_at_one_qubit_runs_core_identities_only():
    results = verify_suite(max_qubits=1, instances=2)
    assert len(results) == 3
    assert all(check.passed for check in results)


def test_verify_suite_catches_a_corrupted_transform(monkeypatch):
    # mutation sanity: a sign flip in the transform's output must fail the
    # involution check
    import gapcomm._kernels as kernels

    genuine = kernels.fwht

    def corrupted(vec, qubits=None):
        out = genuine(vec, qubits)
        out[-1] = -out[-1]
        return out

    monkeypatch.setattr(kernels, "fwht", corrupted)
    results = verify_suite(max_qubits=1, instances=1)
    involution = [c for c in results if c.name == "transform-involution"]
    assert involution and not involution[0].passed


def test_verify_suite_catches_a_norm_bound_below_the_eigenvalue(monkeypatch):
    # the norm-bounds check compares the bound Alice ships with the
    # eigensolver, so the eigenvalue rounded down to fixed point, a bound
    # that falls short of it, must fail the check
    import gapcomm.verify as verify

    assert verify._check_norm_bounds(2, 715).passed
    monkeypatch.setattr(
        verify.proto, "_norm_fp", lambda gram, dim: math.floor(verify.operator_norm(gram) * 2**32) - 1
    )
    assert not verify._check_norm_bounds(2, 715).passed


def test_verify_suite_checks_observable_pauli_against_the_subset_state(monkeypatch):
    # Bob's reader never calls subset_state_expectation; a corrupted one
    # must still fail the observable-pauli target check through verify's
    # two-hot route
    import gapcomm.verify as verify

    genuine = verify.subset_state_expectation
    monkeypatch.setattr(
        verify, "subset_state_expectation", lambda z, support, norm_sq: genuine(z, support, norm_sq) + 1
    )
    results = verify_suite(max_qubits=6, instances=1)
    check = [c for c in results if c.name.startswith("target-observable-pauli")]
    assert check and not check[0].passed

