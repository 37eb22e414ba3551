"""Tests for the command-line experiment runner."""

import pytest

from repro.eval.cli import build_parser, main


class TestParser:
    def test_table1_parses(self):
        args = build_parser().parse_args(["table1"])
        assert args.command == "table1"
        assert args.preset == "small"
        assert args.no_cache is False

    def test_table1_no_cache_parses(self):
        args = build_parser().parse_args(["table1", "--no-cache"])
        assert args.no_cache is True

    def test_campaign_levels(self):
        args = build_parser().parse_args(
            ["campaign", "--task", "audio", "--fault", "additive",
             "--levels", "0", "0.1", "--runs", "3"]
        )
        assert args.levels == [0.0, 0.1]
        assert args.runs == 3

    def test_fig7_shift_choices(self):
        args = build_parser().parse_args(["fig7", "--shift", "uniform"])
        assert args.shift == "uniform"

    def test_invalid_task_rejected(self):
        with pytest.raises(SystemExit):
            build_parser().parse_args(["fig5", "--task", "protein"])

    def test_command_required(self):
        with pytest.raises(SystemExit):
            build_parser().parse_args([])

    def test_duplicate_levels_rejected(self, capsys):
        with pytest.raises(SystemExit) as exc:
            build_parser().parse_args(
                ["fig6", "--task", "co2", "--levels", "0.1", "0.1"]
            )
        assert exc.value.code == 2
        assert "--levels must be distinct" in capsys.readouterr().err

    @pytest.mark.parametrize("runs", ["0", "-3", "two"])
    def test_runs_must_be_a_positive_integer(self, runs, capsys):
        with pytest.raises(SystemExit) as exc:
            build_parser().parse_args(
                ["campaign", "--task", "co2", "--runs", runs]
            )
        assert exc.value.code == 2
        assert "--runs: expected a positive integer" in capsys.readouterr().err

    @pytest.mark.parametrize("flag", [
        "--workers=2", "--serve=2", "--mc-batched", "--no-mc-batched",
        "--scenario-batched", "--no-scenario-batched",
        "--attach-amortize", "--no-attach-amortize",
        "--executor=thread", "--executor=process",
        "--plan", "--no-plan",
        "--executor=serial", "--executor=batched",
        "--chip-limit=2", "--scenario-limit=1",
        "--plan-opt", "--no-plan-opt",
    ])
    def test_removed_engine_options_rejected(self, flag, monkeypatch):
        """A removed option neither parses nor leaves a default behind,
        whatever the environment says."""
        monkeypatch.setenv("REPRO_PLAN_OPT", "1")
        parser = build_parser()
        with pytest.raises(SystemExit):
            parser.parse_args(["campaign", "--task", "co2", flag])
        name = flag.split("=")[0].removeprefix("--").removeprefix("no-")
        args = parser.parse_args(["campaign", "--task", "co2"])
        assert not hasattr(args, name.replace("-", "_"))


class TestExecution:
    def test_campaign_runs_tiny(self, isolated_cache, capsys):
        main([
            "--preset", "tiny",
            "campaign", "--task", "audio", "--fault", "bitflip",
            "--levels", "0", "0.2", "--runs", "2",
        ])
        out = capsys.readouterr().out
        assert "audio / bitflip" in out
        assert "Proposed" in out

    @pytest.mark.parametrize("argv, use_cache", [
        (["table1"], True),
        (["table1", "--no-cache"], False),
    ])
    def test_table1_no_cache_bypasses_store(
        self, argv, use_cache, monkeypatch, capsys
    ):
        from repro.eval import cli

        asked, warmed, computed = [], [], []

        class AllPending:
            """A stand-in split: every method pending, no curves."""

            curves = {}

            def __init__(self, task, methods, **kwargs):
                asked.append(kwargs["use_cache"])
                self.task, self.methods = task, methods
                self.pending = {m: [0] for m in range(len(methods))}

            def assemble(self):
                return self

        monkeypatch.setattr(cli, "build_task", lambda name, **kwargs: name)
        monkeypatch.setattr(cli, "split_sweep", AllPending)
        monkeypatch.setattr(
            cli, "train_models", lambda jobs, *a, **kw: warmed.extend(jobs)
        )
        monkeypatch.setattr(
            cli, "compute_pending", lambda works, **kw: computed.extend(works)
        )
        main(argv)
        assert asked == [use_cache] * 4  # one store split per table row
        assert len(warmed) == 16  # one warm step, every model of the table
        assert len(computed) == 4  # one compute step, every row's cells
        assert "Topology" in capsys.readouterr().out

    @staticmethod
    def _profile_stage_labels(out: str) -> list:
        """Stage row labels of the --profile table printed in ``out``."""
        lines = out.split("per-stage wall time:", 1)[1].splitlines()
        labels = []
        for line in lines[1:]:
            if not line.startswith("  "):
                break
            label = line.strip().rsplit(None, 2)[0].rstrip("0123456789. ")
            labels.append(label.strip())
        return labels

    @pytest.mark.parametrize("argv", [
        ["--preset", "tiny", "campaign"],
        ["campaign", "--preset", "tiny", "--seed", "0"],
    ], ids=["flags-before", "flags-after"])
    def test_profile_rows_only_for_recorded_stages(
        self, argv, isolated_cache, capsys
    ):
        """--profile wherever the global flags go: a row per recorded
        stage, none for traced programs or the wire, no optimizer line."""
        main(argv + [
            "--task", "audio", "--fault", "bitflip",
            "--levels", "0", "0.2", "--runs", "2",
            "--profile",
        ])
        out = capsys.readouterr().out
        assert "per-stage wall time:" in out
        assert self._profile_stage_labels(out) == [
            "attach", "metric", "store", "total"
        ]
        assert "plan optimizer:" not in out

    @staticmethod
    def _engine_line(capsys) -> str:
        engine = [
            line for line in capsys.readouterr().out.splitlines()
            if line.startswith("engine: ")
        ]
        assert len(engine) == 1
        return engine[0]

    _CO2_PROFILE = [
        "--preset", "tiny",
        "campaign", "--task", "co2", "--fault", "bitflip",
        "--levels", "0", "0.1", "0.2", "--runs", "3",
        "--profile",
    ]

    def test_profile_counts_how_cells_ran(self, isolated_cache, monkeypatch,
                                          capsys):
        """--profile: stacked passes and per-cell cells by reason."""
        from repro.eval import cache

        monkeypatch.setattr(cache, "_usable_cpus", lambda: 1)  # in process
        main(self._CO2_PROFILE)
        # Per network: the fault-free level runs per cell; both faulty
        # levels' chips stack into one pass.  SpatialSpinDrop's LSTM is
        # SpinDrop's, so its 1 + 3 + 3 cells are shared, not run.
        assert self._engine_line(capsys) == (
            "engine: 3 stacked passes (18.0 instances/pass), "
            "3 cells run one by one (3 fault-free), "
            "7 cells shared (spatial-spindrop = spindrop)"
        )

    def test_pooled_profile_counts_every_job(self, isolated_cache,
                                            monkeypatch, capsys):
        """--profile on the compute pool: the counts do not depend on
        which worker ran which job."""
        from repro.eval import cache

        monkeypatch.setattr(cache, "_usable_cpus", lambda: 2)
        lines = []
        for _ in range(2):
            main(self._CO2_PROFILE + ["--no-cache"])
            lines.append(self._engine_line(capsys))
        # Per network: the fault-free job runs its one cell; each faulty
        # job stacks its three chips in one pass (4 MC samples per chip
        # for the two Bayesian networks).
        assert lines[0] == lines[1] == (
            "engine: 6 stacked passes (9.0 instances/pass), "
            "3 cells run one by one (3 fault-free), "
            "7 cells shared (spatial-spindrop = spindrop)"
        )


class TestServiceFlags:
    def test_client_deadline_and_retry_flags_parse(self):
        args = build_parser().parse_args(
            ["campaign", "--task", "audio", "--connect", "127.0.0.1:9",
             "--connect-timeout", "1.5", "--request-timeout", "30",
             "--retries", "4", "--fallback-local"]
        )
        assert args.connect_timeout == 1.5
        assert args.request_timeout == 30.0
        assert args.retries == 4
        assert args.fallback_local is True

    def test_client_flag_defaults(self):
        args = build_parser().parse_args(["campaign", "--task", "audio"])
        assert args.connect_timeout == 5.0
        assert args.request_timeout == 600.0
        assert args.retries == 2
        assert args.fallback_local is False

    def test_fallback_local_degrades_to_in_process(self, isolated_cache, capsys):
        import socket

        with socket.socket() as probe:
            probe.bind(("127.0.0.1", 0))
            dead_port = probe.getsockname()[1]
        main([
            "--preset", "tiny",
            "campaign", "--task", "audio", "--fault", "bitflip",
            "--levels", "0", "0.2", "--runs", "2",
            "--connect", f"127.0.0.1:{dead_port}",
            "--retries", "0", "--connect-timeout", "0.5",
            "--fallback-local",
        ])
        out = capsys.readouterr().out
        assert "falling back to the in-process engine" in out
        assert "audio / bitflip" in out  # the sweep still ran

    def test_serve_prints_the_local_tables(self, isolated_cache, capsys):
        from repro.eval.cache import ResultStore
        from repro.serve import CampaignService

        argv = ["fig6", "--task", "co2", "--preset", "tiny",
                "--levels", "0", "0.05", "0.1", "--no-cache"]
        main(argv)
        local = capsys.readouterr().out
        store = ResultStore(root=isolated_cache / "store")
        with CampaignService(store=store) as service:
            main(argv + ["--connect", "%s:%d" % service.address])
        served = capsys.readouterr().out.splitlines()
        assert sum(line.startswith("service:") for line in served) == 1
        tables = [line for line in served if not line.startswith("service:")]
        assert tables == local.splitlines()

    def test_unreachable_service_without_fallback_raises(self, monkeypatch):
        import socket

        from repro.serve import ServiceUnavailable

        with socket.socket() as probe:
            probe.bind(("127.0.0.1", 0))
            dead_port = probe.getsockname()[1]
        with pytest.raises(ServiceUnavailable):
            main([
                "--preset", "tiny",
                "campaign", "--task", "audio",
                "--levels", "0", "0.2", "--runs", "2",
                "--connect", f"127.0.0.1:{dead_port}",
                "--retries", "0", "--connect-timeout", "0.5",
            ])


class TestStoreGC:
    def test_store_gc_parses(self):
        args = build_parser().parse_args(["store-gc", "--max-entries", "100"])
        assert args.command == "store-gc"
        assert args.max_entries == 100
        assert build_parser().parse_args(["store-gc"]).max_entries is None

    def test_store_gc_reports_and_bounds_the_store(self, isolated_cache, capsys):
        import numpy as np

        from repro.eval.cache import result_store

        store = result_store()
        for i in range(4):
            store.put(f"gc-test-{i}", np.arange(3, dtype=np.float64) + i)
        assert len(store) == 4
        main(["store-gc", "--max-entries", "2"])
        out = capsys.readouterr().out
        assert "0 stale entries retired" in out
        assert "2 evicted" in out
        assert "2 remaining" in out
        assert len(store) == 2

    def test_store_gc_without_cap_only_retires(self, isolated_cache, capsys):
        import numpy as np

        from repro.eval.cache import result_store

        result_store().put("gc-keep", np.ones(2))
        main(["store-gc"])
        out = capsys.readouterr().out
        assert "0 evicted" in out
        assert "1 remaining" in out
