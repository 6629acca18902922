"""End-to-end tests of the evaluation service over real TCP connections.

Each test runs an ephemeral-port server inside ``asyncio.run``; clients
connect over loopback and speak the real wire protocol, so these cover the
full stack: framing, dispatch, per-session locking, the micro-batcher and
snapshot/restore — including the multi-client equivalence contract (the
service answers exactly like a local estimator fed the same queries).
"""

import asyncio

import numpy as np
import pytest

from repro.core.estimator import KrigingEstimator
from repro.service.client import AsyncServiceClient, ServiceClient
from repro.service.protocol import RemoteError
from repro.service.server import KrigingService

NV = 3
SIMULATOR = {"kind": "linear", "coefficients": [1.0, -2.0, 0.5], "offset": -6.0}
SESSION_KWARGS = dict(
    simulator=SIMULATOR, num_variables=NV, distance=4.0, variogram="linear"
)


def _field(config):
    return float(np.asarray(config, dtype=float) @ np.array([1.0, -2.0, 0.5]) - 6.0)


def _support(n=40, seed=0):
    rng = np.random.default_rng(seed)
    return np.unique(rng.integers(0, 6, size=(n, NV)), axis=0).astype(float)


def serve(test_body, **service_kwargs):
    """Run ``await test_body(client, service, host, port)`` against a live server."""

    async def main():
        service = KrigingService(**service_kwargs)
        server_task = asyncio.create_task(service.serve("127.0.0.1", 0))
        try:
            while service.address is None:
                await asyncio.sleep(0.005)
            host, port = service.address
            async with await AsyncServiceClient.connect(host, port) as client:
                return await test_body(client, service, host, port)
        finally:
            service.stop()
            await asyncio.wait_for(server_task, 10)

    return asyncio.run(main())


class TestBasicVerbs:
    def test_ping_and_create_and_list(self):
        async def body(client, service, host, port):
            assert (await client.ping())["protocol"] == 1
            info = await client.create_session("s1", **SESSION_KWARGS)
            assert info["session"] == "s1"
            assert info["num_variables"] == NV
            sessions = await client.list_sessions()
            assert [s["session"] for s in sessions] == ["s1"]

        serve(body)

    def test_create_duplicate_rejected_unless_replace(self):
        async def body(client, service, host, port):
            await client.create_session("dup", **SESSION_KWARGS)
            with pytest.raises(RemoteError) as err:
                await client.create_session("dup", **SESSION_KWARGS)
            assert err.value.kind == "SessionExists"
            await client.create_session("dup", replace=True, **SESSION_KWARGS)

        serve(body)

    def test_unknown_session_and_op_and_bad_name(self):
        async def body(client, service, host, port):
            with pytest.raises(RemoteError) as err:
                await client.evaluate("ghost", [1, 2, 3])
            assert err.value.kind == "UnknownSession"
            with pytest.raises(RemoteError) as err:
                await client.request("frobnicate")
            assert err.value.kind == "UnknownOp"
            with pytest.raises(RemoteError):
                await client.create_session("../evil", **SESSION_KWARGS)

        serve(body)

    def test_removed_backend_key_from_old_clients_ignored(self):
        """Clients written against the process solve backend or the factor
        cache knob still send ``backend``/``factor_cache``; the session is
        created on the one remaining path with its always-on factor cache,
        and the metrics no longer export the removed backend's counters."""

        async def body(client, service, host, port):
            info = await client.create_session(
                "old", backend="process", n_jobs=2, factor_cache=False, **SESSION_KWARGS
            )
            assert info["session"] == "old"
            await client.simulate_many("old", _support().tolist())
            assert (await client.evaluate("old", [1.5, 2.0, 3.0])).interpolated
            estimator = service.sessions["old"].estimator
            assert estimator.stats.factor.requests > 0
            assert "factor_cache" not in estimator.to_state()
            names = {f["name"] for f in (await client.request("metrics"))["families"]}
            assert "repro_pool_failures_total" not in names
            assert "repro_shm_attach_failures_total" not in names

        serve(body)

    def test_removed_n_jobs_key_from_old_clients_ignored(self):
        """Clients written against the thread-pool solve path still send
        ``n_jobs``; the session is created on the one serial path and its
        snapshot state no longer carries the key."""

        async def body(client, service, host, port):
            info = await client.create_session("jobs", n_jobs=2, **SESSION_KWARGS)
            assert info["session"] == "jobs"
            await client.simulate_many("jobs", _support().tolist())
            assert (await client.evaluate("jobs", [1.5, 2.0, 3.0])).interpolated
            assert "n_jobs" not in service.sessions["jobs"].estimator.to_state()

        serve(body)

    def test_removed_neighbor_index_key_from_old_clients_ignored(self):
        """Clients written against the neighbour indexes still send
        ``neighbor_index``; the session answers exactly like one created
        without it, and its snapshot state no longer carries the key."""

        async def body(client, service, host, port):
            queries = [[1.5, 2.0, 3.0], [2.25, 1.5, 2.5], [9.0, 9.0, 9.0]]
            answers = {}
            for name, extra in (("plain", {}), ("indexed", {"neighbor_index": "kdtree"})):
                info = await client.create_session(name, **extra, **SESSION_KWARGS)
                assert info["session"] == name
                await client.simulate_many(name, _support().tolist())
                answers[name] = [
                    (o.value, o.interpolated, o.n_neighbors)
                    for o in [await client.evaluate(name, q) for q in queries]
                ]
            assert answers["indexed"] == answers["plain"]
            assert any(interpolated for _, interpolated, _ in answers["plain"])
            state = service.sessions["indexed"].estimator.to_state()
            assert "neighbor_index" not in state

        serve(body)

    def test_malformed_json_answered_with_protocol_error(self):
        async def body(client, service, host, port):
            reader, writer = await asyncio.open_connection(host, port)
            writer.write(b"{broken\n")
            await writer.drain()
            line = await reader.readline()
            assert b"ProtocolError" in line
            writer.close()
            await writer.wait_closed()

        serve(body)

    def test_fit_and_variogram_spec_dict(self):
        async def body(client, service, host, port):
            await client.create_session(
                "fitme",
                simulator=SIMULATOR,
                num_variables=NV,
                distance=4.0,
                variogram={
                    "family": "ExponentialVariogram",
                    "params": {"sill": 4.0, "range_": 3.0, "nugget_": 0.0},
                },
            )
            await client.simulate_many("fitme", _support().tolist())
            fitted = await client.fit("fitme")
            assert fitted["model"]["family"] == "ExponentialVariogram"

        serve(body)


class TestEvaluatePolicy:
    def test_matches_local_estimator(self):
        """The remote policy is the local policy: same decisions and values."""
        support = _support()
        queries = np.vstack([support[:6] + 0.25, support[:2]])  # interp + exact hits

        local = KrigingEstimator(_field, NV, distance=4.0, variogram="linear")
        for point in support:
            local.record_measurement(point, _field(point))
        expected = local.evaluate_batch(queries)

        async def body(client, service, host, port):
            await client.create_session("mirror", **SESSION_KWARGS)
            await client.simulate_many("mirror", support.tolist())
            return await client.evaluate_many("mirror", queries.tolist())

        remote = serve(body)
        assert [o.interpolated for o in remote] == [o.interpolated for o in expected]
        assert [o.exact_hit for o in remote] == [o.exact_hit for o in expected]
        assert [o.n_neighbors for o in remote] == [o.n_neighbors for o in expected]
        np.testing.assert_allclose(
            [o.value for o in remote], [o.value for o in expected], rtol=1e-12
        )

    def test_concurrent_clients_coalesce_and_match(self):
        """Several connections at once: coalesced answers equal per-query ones."""
        support = _support(60, seed=1)
        rng = np.random.default_rng(2)
        queries = support[rng.integers(0, len(support), size=24)] + rng.uniform(
            0.1, 0.4, size=(24, NV)
        )

        local = KrigingEstimator(_field, NV, distance=4.0, variogram="linear")
        for point in support:
            local.record_measurement(point, _field(point))
        expected = [local.evaluate(q).value for q in queries]

        async def body(client, service, host, port):
            await client.create_session("shared", max_delay_ms=20.0, **SESSION_KWARGS)
            await client.simulate_many("shared", support.tolist())

            async def one_client(chunk):
                async with await AsyncServiceClient.connect(host, port) as conn:
                    return [
                        (await conn.evaluate("shared", q)).value for q in chunk.tolist()
                    ]

            chunks = np.split(queries, 4)
            values = await asyncio.gather(*(one_client(chunk) for chunk in chunks))
            stats = await client.stats("shared")
            return [v for chunk in values for v in chunk], stats

        values, stats = serve(body)
        np.testing.assert_allclose(values, expected, rtol=1e-9, atol=1e-12)
        assert stats["batcher"]["requests"] == 24
        # Four concurrent clients must have shared at least some flushes.
        assert stats["batcher"]["flushes"] < 24
        assert stats["n_simulated"] == len(support)

    def test_simulate_with_client_measured_value(self):
        async def body(client, service, host, port):
            await client.create_session("meas", **SESSION_KWARGS)
            outcome = await client.simulate("meas", [1, 2, 3], value=123.5)
            assert outcome.value == 123.5
            # The pushed value is now support: an exact revisit returns it.
            again = await client.evaluate("meas", [1, 2, 3])
            assert again.exact_hit and again.value == 123.5

        serve(body)


class TestSnapshotVerbs:
    def test_snapshot_restore_roundtrip(self, tmp_path):
        support = _support()
        probes = (support[:5] + 0.3).tolist()

        async def body(client, service, host, port):
            await client.create_session("origin", **SESSION_KWARGS)
            await client.simulate_many("origin", support.tolist())
            before = await client.evaluate_many("origin", probes)
            written = await client.snapshot("origin", path=str(tmp_path / "snap"))
            await client.restore(path=written["path"], session="copy1")
            await client.restore(path=written["path"], session="copy2")
            out1 = await client.evaluate_many("copy1", probes)
            out2 = await client.evaluate_many("copy2", probes)
            stats = await client.stats()
            return before, out1, out2, stats

        before, out1, out2, stats = serve(body)
        # Two cold restores are bit-identical; the originating session
        # agrees to the engine envelope (its factor cache is warm).
        assert [o.value for o in out1] == [o.value for o in out2]
        np.testing.assert_allclose(
            [o.value for o in before], [o.value for o in out1], rtol=1e-9, atol=1e-12
        )
        by_name = {s["session"]: s for s in stats["sessions"]}
        assert by_name["copy1"]["cache_size"] == by_name["origin"]["cache_size"]

    def test_named_snapshot_requires_dir(self, tmp_path):
        async def body(client, service, host, port):
            await client.create_session("nodir", **SESSION_KWARGS)
            with pytest.raises(RemoteError) as err:
                await client.snapshot("nodir")
            assert err.value.kind == "BadRequest"

        serve(body)

    def test_named_snapshot_with_dir(self, tmp_path):
        async def body(client, service, host, port):
            await client.create_session("named", **SESSION_KWARGS)
            await client.simulate("named", [1, 1, 1])
            written = await client.snapshot("named")
            restored = await client.restore(name="named", session="named2")
            return written, restored

        written, restored = serve(body, snapshot_dir=tmp_path)
        assert written["path"].endswith("named.npz")
        assert restored["cache_size"] == 1

    def test_restore_missing_snapshot(self, tmp_path):
        async def body(client, service, host, port):
            with pytest.raises(RemoteError) as err:
                await client.restore(path=str(tmp_path / "nope.npz"))
            assert err.value.kind == "UnknownSnapshot"

        serve(body)


class TestSyncClientAndShutdown:
    def test_sync_client_full_cycle(self):
        async def body(client, service, host, port):
            def sync_work():
                with ServiceClient(host, port) as sync_client:
                    sync_client.create_session("sync", **SESSION_KWARGS)
                    sync_client.simulate("sync", [0, 0, 0])
                    sync_client.simulate("sync", [1, 1, 1])
                    outcome = sync_client.evaluate("sync", [0.4, 0.4, 0.4])
                    stats = sync_client.stats("sync")
                    return outcome, stats

            return await asyncio.to_thread(sync_work)

        outcome, stats = serve(body)
        assert outcome.interpolated
        assert stats["cache_size"] == 2

    def test_shutdown_stops_server(self):
        async def main():
            service = KrigingService()
            server_task = asyncio.create_task(service.serve("127.0.0.1", 0))
            while service.address is None:
                await asyncio.sleep(0.005)
            host, port = service.address
            async with await AsyncServiceClient.connect(host, port) as client:
                result = await client.shutdown()
            assert result == {"stopping": True}
            await asyncio.wait_for(server_task, 10)  # exits by itself

        asyncio.run(main())


class TestFaultIsolation:
    def test_bad_config_rejected_before_batching(self):
        """A malformed config fails only its sender, never the batch."""

        async def body(client, service, host, port):
            await client.create_session("iso", max_delay_ms=20.0, **SESSION_KWARGS)
            await client.simulate_many("iso", _support().tolist())
            good = (_support()[:4] + 0.3).tolist()

            async def bad_client():
                async with await AsyncServiceClient.connect(host, port) as conn:
                    with pytest.raises(RemoteError) as err:
                        await conn.evaluate("iso", [1.0, 2.0])  # wrong dimension
                    assert err.value.kind == "BadRequest"
                    with pytest.raises(RemoteError):
                        await conn.request("evaluate", session="iso", config="nope")
                # A NaN config must be sent as a raw frame (the client's own
                # encoder rejects it): the server answers BadRequest.
                reader, writer = await asyncio.open_connection(host, port)
                writer.write(
                    b'{"id": 1, "op": "evaluate", "session": "iso", '
                    b'"config": [1.0, NaN, 2.0]}\n'
                )
                await writer.drain()
                line = await reader.readline()
                assert b"BadRequest" in line
                writer.close()
                await writer.wait_closed()

            async def good_client():
                async with await AsyncServiceClient.connect(host, port) as conn:
                    return [
                        (await conn.evaluate("iso", q)).value for q in good
                    ]

            results = await asyncio.gather(bad_client(), good_client())
            return results[1]

        values = serve(body)
        assert len(values) == 4 and all(np.isfinite(values))

    def test_unserializable_request_id_still_answered(self):
        """A NaN request id (json.loads accepts it) gets a null-id error
        response instead of a silently dropped frame."""

        async def body(client, service, host, port):
            reader, writer = await asyncio.open_connection(host, port)
            writer.write(b'{"id": NaN, "op": "ping"}\n')
            await writer.drain()
            line = await reader.readline()
            writer.close()
            await writer.wait_closed()
            return line

        line = serve(body)
        assert b'"id":null' in line
        assert b"ProtocolError" in line

    def test_oversized_line_answered_with_protocol_error(self):
        from repro.service.protocol import MAX_LINE_BYTES

        async def body(client, service, host, port):
            reader, writer = await asyncio.open_connection(host, port)
            writer.write(b"x" * (MAX_LINE_BYTES + 1024))
            await writer.drain()
            line = await asyncio.wait_for(reader.readline(), 30)
            writer.close()
            await writer.wait_closed()
            return line

        line = serve(body)
        assert b"ProtocolError" in line


class TestSimulateValidation:
    def test_simulate_rejects_nan_config_raw_frame(self):
        """simulate mutates the shared cache permanently — same door check
        as evaluate (a raw frame, since clients refuse to encode NaN)."""

        async def body(client, service, host, port):
            await client.create_session("guard", **SESSION_KWARGS)
            reader, writer = await asyncio.open_connection(host, port)
            writer.write(
                b'{"id": 5, "op": "simulate", "session": "guard", '
                b'"config": [NaN, 1.0, 1.0], "value": 5.0}\n'
            )
            await writer.drain()
            line = await reader.readline()
            writer.close()
            await writer.wait_closed()
            stats = await client.stats("guard")
            return line, stats

        line, stats = serve(body)
        assert b"BadRequest" in line
        assert stats["cache_size"] == 0  # nothing entered the shared cache

    def test_newline_in_session_name_rejected(self):
        async def body(client, service, host, port):
            with pytest.raises(RemoteError):
                await client.create_session("demo\n", **SESSION_KWARGS)

        serve(body)
