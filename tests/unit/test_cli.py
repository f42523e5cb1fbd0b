"""Unit tests for the command-line interface."""

import pytest

from repro.cli import build_parser, exit_code_for, main
from repro.common.errors import (
    ConfigError,
    CordError,
    DegradedPathError,
    InterruptedRunError,
    PipelineError,
    StoreCorruptError,
    WorkerTimeoutError,
)
from repro.resilience import faults


class TestParser:
    def test_requires_command(self):
        with pytest.raises(SystemExit):
            build_parser().parse_args([])

    def test_run_defaults(self):
        args = build_parser().parse_args(["run", "lu"])
        args_dict = vars(args)
        assert args_dict["workload"] == "lu"
        assert args_dict["seed"] == 1
        assert args_dict["window"] == 16

    def test_unknown_workload_rejected(self):
        with pytest.raises(SystemExit):
            build_parser().parse_args(["run", "doom"])

    def test_inject_options(self):
        args = build_parser().parse_args(
            ["inject", "fft", "-n", "3", "--seed", "9"]
        )
        assert args.runs == 3
        assert args.seed == 9


class TestCommands:
    def test_list(self, capsys):
        assert main(["list"]) == 0
        out = capsys.readouterr().out
        assert "Table 1" in out
        assert "water-sp" in out

    def test_run(self, capsys):
        assert main(["run", "lu", "--scale", "0.25", "--seed", "3"]) == 0
        out = capsys.readouterr().out
        assert "races    : 0" in out
        assert "order log" in out

    def test_replay(self, capsys):
        assert main(["replay", "fft", "--scale", "0.25"]) == 0
        assert "replay verdict: replay equivalent" in \
            capsys.readouterr().out

    def test_inject(self, capsys):
        assert main(
            ["inject", "raytrace", "-n", "2", "--scale", "0.25"]
        ) == 0
        out = capsys.readouterr().out
        assert "sync instances" in out
        assert "CORD-D16" in out


class TestExitCodes:
    """Each failure domain maps to a distinct, stable exit code."""

    def test_taxonomy_mapping(self):
        assert exit_code_for(ConfigError("bad knob")) == 2
        assert exit_code_for(StoreCorruptError("torn")) == 66
        assert exit_code_for(WorkerTimeoutError("fft", 3)) == 67
        assert exit_code_for(DegradedPathError("all tiers")) == 68
        assert exit_code_for(PipelineError("fan-out")) == 69
        assert exit_code_for(CordError("generic")) == 70
        assert exit_code_for(RuntimeError("unrelated")) == 1

    def test_specific_beats_general(self):
        # WorkerTimeoutError is a PipelineError is a CordError: the most
        # specific code must win.
        exc = WorkerTimeoutError("lu", 2)
        assert isinstance(exc, PipelineError)
        assert isinstance(exc, CordError)
        assert exit_code_for(exc) == 67

    def test_interrupted_is_resumable_not_failed(self):
        # "Interrupted, resumable" (71) must beat the generic pipeline
        # failure (69) its class inherits from: a drained run did not
        # fail, and scripts branch on the distinction.
        exc = InterruptedRunError("deadbeef-0001")
        assert isinstance(exc, PipelineError)
        assert exit_code_for(exc) == 71
        assert "--resume deadbeef-0001" in str(exc)

    def test_main_maps_library_errors(self, monkeypatch, capsys):
        import repro.cli as cli_mod

        def corrupt():
            raise StoreCorruptError("cache entry failed its checksum")

        monkeypatch.setattr(cli_mod, "table1", corrupt)
        assert main(["list"]) == 66
        err = capsys.readouterr().err
        assert "error:" in err
        assert "checksum" in err

    def test_main_lets_foreign_errors_propagate(self, monkeypatch):
        import repro.cli as cli_mod

        def boom():
            raise RuntimeError("a genuine bug")

        monkeypatch.setattr(cli_mod, "table1", boom)
        with pytest.raises(RuntimeError):
            main(["list"])


class TestSweepResume:
    """The checkpointed sweep round trip, driven in-process.

    An interruption (the ``sigterm_drain`` chaos fault standing in for
    SIGTERM) must exit 71, and re-running over the same cache directory
    must complete with a report byte-identical to an uninterrupted
    run's.  The full kill-anywhere matrix (real process death at every
    journal transition) lives in
    ``tests/integration/test_checkpoint_resume.py``.
    """

    _ARGS = ["sweep", "--apps", "fft", "-n", "1", "--scale", "0.25"]

    @pytest.fixture(autouse=True)
    def _fault_hygiene(self, monkeypatch):
        for var in ("REPRO_FAULTS", "REPRO_CACHE_DIR", "REPRO_JOBS"):
            monkeypatch.delenv(var, raising=False)
        monkeypatch.setenv("REPRO_FSYNC", "0")  # tmpfs-speed tests
        faults.reset()
        yield
        faults.reset()

    def test_sweep_without_cache_runs_plain(self, capsys):
        assert main(self._ARGS) == 0
        out = capsys.readouterr().out
        assert "Sensitivity sweep over D" in out

    def test_interrupt_then_resume_is_bit_identical(
        self, tmp_path, monkeypatch, capsys
    ):
        clean_dir = tmp_path / "clean"
        assert main(self._ARGS + ["--cache", str(clean_dir)]) == 0
        clean_out = capsys.readouterr().out

        # Interrupt mid-sweep: a graceful-shutdown request injected at
        # the fourth journal transition ("recorded fft/run0"), while the
        # run's analysis is still queued.
        faulted_dir = tmp_path / "faulted"
        monkeypatch.setenv("REPRO_FAULTS", "sigterm_drain:4")
        faults.arm()
        assert main(
            self._ARGS + ["--cache", str(faulted_dir)]
        ) == 71
        captured = capsys.readouterr()
        assert "--resume" in captured.err
        run_ids = [
            line.split()[2]
            for line in captured.err.splitlines()
            if line.startswith("run id: ")
        ]
        assert len(run_ids) == 1

        # Resume (auto): completes, reports the resumed run id, and the
        # report on stdout is byte-identical to the clean run's.
        faults.arm("")
        assert main(self._ARGS + ["--cache", str(faulted_dir)]) == 0
        captured = capsys.readouterr()
        assert captured.out == clean_out
        assert "run id: %s (resumed)" % run_ids[0] in captured.err

        # Explicit --resume of the (now finished) run id also works.
        assert main(
            self._ARGS
            + ["--cache", str(faulted_dir), "--resume", run_ids[0]]
        ) == 0
        assert capsys.readouterr().out == clean_out

    def test_recording_accounting_counts_torn_entries(
        self, tmp_path, capsys
    ):
        args = ["sweep", "--apps", "fft", "-n", "2", "--scale", "0.25",
                "--cache", str(tmp_path)]

        def recording_line():
            return [
                line for line in capsys.readouterr().err.splitlines()
                if line.startswith("recording: ")
            ]

        assert main(args) == 0
        assert recording_line() == [
            "recording: 2 simulated, 0 replayed from store"
        ]
        assert main(args) == 0
        assert recording_line() == [
            "recording: 0 simulated, 2 replayed from store"
        ]
        # A torn recording still exists on disk, but the analyze stage
        # quarantines it and records the run again: a simulation.
        traces = sorted((tmp_path / "traces").glob("trace-*.pkl"))
        assert len(traces) == 2
        traces[0].write_bytes(traces[0].read_bytes()[:64])
        assert main(args) == 0
        assert recording_line() == [
            "recording: 1 simulated, 1 replayed from store"
        ]

    def test_resume_fresh_ignores_interrupted_run(
        self, tmp_path, monkeypatch, capsys
    ):
        cache = tmp_path / "cache"
        monkeypatch.setenv("REPRO_FAULTS", "sigterm_drain:4")
        faults.arm()
        assert main(self._ARGS + ["--cache", str(cache)]) == 71
        capsys.readouterr()

        faults.arm("")
        assert main(
            self._ARGS + ["--cache", str(cache), "--resume", "fresh"]
        ) == 0
        err = capsys.readouterr().err
        assert "(resumed)" not in err
