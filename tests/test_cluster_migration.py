"""Live migration: correctness of the drain → snapshot → restore → flip
choreography, bit-identical answers, byte-identical snapshots, and
behaviour under concurrent traffic."""

import asyncio

import numpy as np
import pytest

from cluster_testkit import NV, SESSION_KWARGS, run_cluster
from repro.cluster.migration import pick_target, replica_path
from repro.service.protocol import RemoteError


def _support(n=30, seed=3):
    rng = np.random.default_rng(seed)
    return np.unique(rng.integers(0, 6, size=(n, NV)), axis=0).astype(float).tolist()


class TestMigrate:
    def test_migrate_moves_session_and_preserves_answers(self, tmp_path):
        support = _support()
        queries = [[c + 0.25 for c in cfg] for cfg in support[:6]]

        async def body(client, router, services, supervisor):
            await client.request(
                "create_session", session="mover", worker="w0", **SESSION_KWARGS
            )
            # A pinned, never-migrated replica of the same session state is
            # the control: the migrated session must answer identically.
            await client.request(
                "create_session", session="control", worker="w1", **SESSION_KWARGS
            )
            for name in ("mover", "control"):
                await client.simulate_many(name, support)

            before = [
                (o.value, o.variance, o.n_neighbors)
                for o in await client.evaluate_many("mover", queries)
            ]
            result = await client.migrate("mover")
            assert result["source"] == "w0"
            assert result["target"] == "w1"
            assert result["source_deleted"] is True
            assert router.table["mover"] == "w1"
            assert "mover" in router.workers["w1"].sessions
            assert "mover" not in router.workers["w0"].sessions
            assert "mover" not in router.draining  # marker cleared

            after = [
                (o.value, o.variance, o.n_neighbors)
                for o in await client.evaluate_many("mover", queries)
            ]
            control = [
                (o.value, o.variance, o.n_neighbors)
                for o in await client.evaluate_many("control", queries)
            ]
            assert after == before  # migration changed nothing the client sees
            assert after == control  # and matches the never-migrated twin

        run_cluster(body, tmp_path=tmp_path)

    def test_migrated_snapshot_is_byte_identical_to_premigration(self, tmp_path):
        support = _support(seed=4)

        async def body(client, router, services, supervisor):
            await client.request(
                "create_session", session="s", worker="w0", **SESSION_KWARGS
            )
            await client.simulate_many("s", support)
            await client.snapshot("s", path=str(tmp_path / "before.npz"))
            await client.migrate("s", worker="w1")
            await client.snapshot("s", path=str(tmp_path / "after.npz"))
            before = (tmp_path / "before.npz").read_bytes()
            after = (tmp_path / "after.npz").read_bytes()
            assert before == after  # the move was bit-perfect

        run_cluster(body, tmp_path=tmp_path)

    def test_migration_refreshes_replica(self, tmp_path):
        async def body(client, router, services, supervisor):
            await client.request(
                "create_session", session="s", worker="w0", **SESSION_KWARGS
            )
            assert not replica_path(tmp_path, "s").exists()
            await client.migrate("s", worker="w1")
            # The migration snapshot doubles as the failover replica.
            assert replica_path(tmp_path, "s").exists()

        run_cluster(body, tmp_path=tmp_path)

    def test_migrate_errors(self, tmp_path):
        async def body(client, router, services, supervisor):
            with pytest.raises(RemoteError) as err:
                await client.migrate("ghost")
            assert err.value.kind == "UnknownSession"
            await client.request(
                "create_session", session="s", worker="w0", **SESSION_KWARGS
            )
            with pytest.raises(RemoteError) as err:
                await client.migrate("s", worker="w0")  # already there
            assert err.value.kind == "BadRequest"
            with pytest.raises(RemoteError) as err:
                await client.migrate("s", worker="nope")
            assert err.value.kind == "BadRequest"

        run_cluster(body, tmp_path=tmp_path)

    def test_concurrent_traffic_during_migration(self, tmp_path):
        """Requests racing a migration all succeed and stay correct: the
        router holds them while the session drains and releases them
        against the new owner."""
        support = _support(seed=5)
        query = [1.25, 2.25, 0.25]

        async def body(client, router, services, supervisor):
            await client.request(
                "create_session", session="busy", worker="w0", **SESSION_KWARGS
            )
            await client.simulate_many("busy", support)
            baseline = (await client.evaluate("busy", query)).value

            async def traffic():
                values = []
                for _ in range(20):
                    values.append((await client.evaluate("busy", query)).value)
                    await asyncio.sleep(0.001)
                return values

            traffic_tasks = [asyncio.create_task(traffic()) for _ in range(3)]
            await asyncio.sleep(0.01)  # let traffic start flowing
            result = await client.migrate("busy", worker="w1")
            assert result["target"] == "w1"
            all_values = sum(await asyncio.gather(*traffic_tasks), [])
            assert len(all_values) == 60  # nothing lost, nothing errored
            assert all(v == baseline for v in all_values)
            assert router.table["busy"] == "w1"

        run_cluster(body, tmp_path=tmp_path)

    def test_queued_request_is_seen_by_drain(self, tmp_path):
        """A request waiting in the admission queue already counts as in
        flight for its session, so the drain waits for it (regression:
        drain saw zero in-flight, flipped the table and deleted the
        source under the queued request, which then failed with
        UnknownSession)."""
        support = _support(seed=6)
        query = [1.25, 2.25, 0.25]

        async def body(client, router, services, supervisor):
            await client.request(
                "create_session", session="busy", worker="w0", **SESSION_KWARGS
            )
            await client.simulate_many("busy", support)
            baseline = (await client.evaluate("busy", query)).value

            # Occupy w0's only admission slot so the next evaluate queues.
            await router.admission.acquire("w0")
            task = asyncio.create_task(client.evaluate("busy", query))
            while router.admission.waiting("w0") == 0:
                await asyncio.sleep(0.005)
            assert router.workers["w0"].session_inflight.get("busy", 0) == 1

            migrate = asyncio.create_task(client.migrate("busy", worker="w1"))
            await asyncio.sleep(0.05)
            assert not migrate.done()  # the drain waits for the queued request

            router.admission.release("w0")  # let it run against the source
            out = await task
            assert out.value == baseline  # served, not UnknownSession
            result = await migrate
            assert result["target"] == "w1"
            assert router.table["busy"] == "w1"

        run_cluster(body, tmp_path=tmp_path, max_inflight=1, max_queue=8)

    def test_committed_migration_survives_source_delete_failure(self, tmp_path):
        """Once the routing entry has flipped, a failing source-side
        delete_session is reported, not raised: the client must be able
        to tell the migration succeeded."""

        async def body(client, router, services, supervisor):
            await client.request(
                "create_session", session="s", worker="w0", **SESSION_KWARGS
            )
            await client.simulate("s", [1.0, 2.0, 3.0])
            real_request = router.workers["w0"].client.request

            async def flaky(op, **fields):
                if op == "delete_session":
                    raise ConnectionError("source died right after the flip")
                return await real_request(op, **fields)

            router.workers["w0"].client.request = flaky
            result = await client.migrate("s", worker="w1")
            assert result["target"] == "w1"
            assert result["source_deleted"] is False
            assert router.table["s"] == "w1"
            assert "s" not in router.draining  # marker still cleaned up
            out = await client.evaluate("s", [1.0, 2.0, 3.0])
            assert out.exact_hit  # the target copy serves

        run_cluster(body, tmp_path=tmp_path)


class TestPickTarget:
    def test_least_loaded_wins(self, tmp_path):
        async def body(client, router, services, supervisor):
            await client.request(
                "create_session", session="a", worker="w0", **SESSION_KWARGS
            )
            await client.request(
                "create_session", session="b", worker="w1", **SESSION_KWARGS
            )
            await client.request(
                "create_session", session="c", worker="w1", **SESSION_KWARGS
            )
            # w2 has nothing: it must be the target for anything moving.
            assert pick_target(router, exclude={"w0"}) == "w2"
            assert pick_target(router, exclude=set()) == "w2"
            with pytest.raises(Exception):
                pick_target(router, exclude={"w0", "w1", "w2"})

        run_cluster(body, tmp_path=tmp_path, workers=3)


class TestWarmSourceMigration:
    def test_migration_after_reads_is_bitwise(self, tmp_path):
        """The source's factor cache is warm from earlier reads, but no
        factor state travels: the migrated session snapshots byte for byte
        as before the move, arrives with a cold cache, and answers the
        pre-migration queries bit for bit."""
        support = _support(n=40, seed=11)
        queries = [[c + 0.25 for c in cfg] for cfg in support[:8]]

        async def body(client, router, services, supervisor):
            await client.request(
                "create_session", session="warm", worker="w0", **SESSION_KWARGS
            )
            await client.simulate_many("warm", support)
            before = await client.evaluate_many("warm", queries)
            source_est = services[0].sessions["warm"].estimator
            assert len(source_est._factor_cache) > 0

            await client.snapshot("warm", path=str(tmp_path / "before.npz"))
            await client.migrate("warm", worker="w1")
            await client.snapshot("warm", path=str(tmp_path / "after.npz"))
            assert (tmp_path / "before.npz").read_bytes() == (
                tmp_path / "after.npz"
            ).read_bytes()
            target_est = services[1].sessions["warm"].estimator
            assert len(target_est._factor_cache) == 0  # arrived cold

            after = await client.evaluate_many("warm", queries)
            assert [(o.value, o.variance) for o in after] == [
                (o.value, o.variance) for o in before
            ]

        run_cluster(body, tmp_path=tmp_path)
