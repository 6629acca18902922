"""Tests for the command-line interface (repro.cli)."""

import pytest

from repro.cli import build_parser, main


class TestParser:
    def test_requires_command(self):
        with pytest.raises(SystemExit):
            build_parser().parse_args([])

    def test_table1_defaults(self):
        args = build_parser().parse_args(["table1", "fir"])
        assert args.benchmark == "fir"
        assert args.scale == "small"
        assert args.distances == [2, 3, 4, 5]

    def test_unknown_benchmark_rejected(self):
        with pytest.raises(SystemExit):
            build_parser().parse_args(["table1", "wavelet"])

    def test_extra_benchmark_accepted(self):
        args = build_parser().parse_args(["table1", "dct"])
        assert args.benchmark == "dct"


class TestCommands:
    def test_benchmarks_listing(self, capsys):
        assert main(["benchmarks"]) == 0
        out = capsys.readouterr().out
        for name in ("fir", "iir", "fft", "hevc", "squeezenet"):
            assert name in out
        assert "Nv=23" in out

    def test_figure1_small(self, capsys):
        assert main(["figure1", "--min-wl", "8", "--max-wl", "11", "--samples", "128"]) == 0
        out = capsys.readouterr().out
        assert "w_mul" in out
        assert len(out.splitlines()) == 5

    def test_figure1_bad_range(self, capsys):
        assert main(["figure1", "--min-wl", "12", "--max-wl", "8"]) == 2

    def test_table1_fir_small(self, capsys):
        assert main(["table1", "fir", "--distances", "2", "3"]) == 0
        out = capsys.readouterr().out
        assert "fir" in out
        assert "p(%)" in out

    def test_record_and_replay_roundtrip(self, tmp_path, capsys):
        path = tmp_path / "fir.json"
        assert main(["record", "fir", str(path)]) == 0
        assert path.exists()
        capsys.readouterr()
        assert main(["replay", str(path), "--distance", "3"]) == 0
        out = capsys.readouterr().out
        assert "p=" in out
        assert "mu_eps=" in out
        assert "identify fits=" in out
        assert "factor reuse" not in out


class TestServiceParser:
    def test_serve_defaults(self):
        args = build_parser().parse_args(["serve"])
        assert args.command == "serve"
        assert args.port == 7331
        assert args.snapshot_dir is None
        assert args.max_batch == 64
        assert args.max_delay_ms == 2.0

    def test_serve_ephemeral_port_and_dirs(self):
        args = build_parser().parse_args(
            ["serve", "--port", "0", "--port-file", "/tmp/p", "--snapshot-dir", "/tmp/s"]
        )
        assert args.port == 0
        assert args.port_file == "/tmp/p"
        assert args.snapshot_dir == "/tmp/s"

    def test_client_eval_parses_values(self):
        args = build_parser().parse_args(
            ["client", "--port", "9999", "eval", "mysession", "1", "2.5", "3"]
        )
        assert args.verb == "eval"
        assert args.session == "mysession"
        assert args.values == [1.0, 2.5, 3.0]

    def test_client_create_simulator_json(self):
        args = build_parser().parse_args(
            ["client", "create", "s", "--num-variables", "4", "--simulator",
             '{"kind": "quadratic"}']
        )
        assert args.verb == "create"
        assert args.num_variables == 4

    def test_client_requires_verb(self):
        with pytest.raises(SystemExit):
            build_parser().parse_args(["client"])

    def test_client_unreachable_server_fails_cleanly(self, capsys):
        # A port from the ephemeral range with (almost surely) no listener.
        assert main(["client", "--port", "1", "eval", "s", "1"]) == 1
        assert "cannot reach service" in capsys.readouterr().err

    def test_client_bad_simulator_json(self, capsys):
        import json
        import socket
        import threading

        # A throwaway listener so the connection itself succeeds.
        listener = socket.create_server(("127.0.0.1", 0))
        port = listener.getsockname()[1]

        def accept_once():
            try:
                listener.accept()
            except OSError:
                pass  # closed from the main thread before/while accepting

        thread = threading.Thread(target=accept_once, daemon=True)
        thread.start()
        try:
            code = main(
                ["client", "--port", str(port), "create", "s", "--simulator", "{bad"]
            )
        finally:
            listener.close()
        assert code == 2
        assert "not valid JSON" in capsys.readouterr().err


class TestServiceLive:
    def test_serve_and_client_roundtrip(self, tmp_path, capsys):
        """The full CLI wiring: a served session answers `repro client`."""
        import asyncio
        import json
        import threading

        from repro.service.server import KrigingService

        service = KrigingService(snapshot_dir=tmp_path)
        ready = threading.Event()

        def run():
            asyncio.run(
                service.serve(
                    "127.0.0.1", 0, on_ready=lambda host, port: ready.set()
                )
            )

        thread = threading.Thread(target=run, daemon=True)
        thread.start()
        assert ready.wait(10)
        assert service.address is not None
        port = str(service.address[1])

        assert main(
            ["client", "--port", port, "create", "live",
             "--num-variables", "2", "--simulator", '{"kind": "linear"}']
        ) == 0
        assert main(["client", "--port", port, "simulate", "live", "1", "2"]) == 0
        assert main(["client", "--port", port, "simulate", "live", "2", "2"]) == 0
        capsys.readouterr()  # drop the accumulated create/simulate output
        assert main(["client", "--port", port, "eval", "live", "1.5", "2"]) == 0
        payload = json.loads(capsys.readouterr().out)
        assert payload["interpolated"] is True
        assert main(["client", "--port", port, "snapshot", "live"]) == 0
        assert main(["client", "--port", port, "stats"]) == 0
        assert main(["client", "--port", port, "shutdown"]) == 0
        thread.join(timeout=10)
        assert not thread.is_alive()
