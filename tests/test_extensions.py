"""Tests for the extension features: tier flattening, retrying client,
BAT monitor, and the curation CLI."""

import subprocess
import sys

import pytest

from repro.analysis.tierflattening import (
    TierFlattening,
    tier_flattening,
    worst_tier_flattening,
)
from repro.core.monitor import (
    STATUS_OK,
    STATUS_TEMPLATE_DRIFT,
    STATUS_UNREACHABLE,
    BatMonitor,
)
from repro.core.retry import RetryingQueryClient, RetryPolicy
from repro.core.workflow import QueryStatus
from repro.errors import ConfigurationError, InsufficientDataError
from repro.net import ResidentialProxyPool


class TestTierFlattening:
    def test_att_flattening_detected(self, tiny_dataset):
        """AT&T sells 0.768 Mbps DSL and 300 Mbps fiber at the same $55 —
        a flattening factor in the hundreds (The Markup found 1000x)."""
        rows = tier_flattening(tiny_dataset, "new-orleans", "att")
        by_price = {row.monthly_price: row for row in rows}
        assert 55.0 in by_price
        factor = by_price[55.0].flattening_factor
        assert factor > 50.0

    def test_cox_no_flattening(self, tiny_dataset):
        """Cable tiers are one speed per price: factors stay near 1."""
        rows = tier_flattening(tiny_dataset, "new-orleans", "cox")
        for row in rows:
            assert row.flattening_factor < 5.0

    def test_worst_flattening_is_att_like(self, tiny_dataset):
        worst_att = worst_tier_flattening(tiny_dataset, "att")
        worst_cox = worst_tier_flattening(tiny_dataset, "cox")
        assert worst_att.flattening_factor > worst_cox.flattening_factor

    def test_acp_variants_excluded(self, tiny_dataset):
        rows = tier_flattening(tiny_dataset, "new-orleans", "cox")
        # ACP discounts must not create fake price points below $10+.
        assert all(row.monthly_price >= 10.0 for row in rows)

    def test_empty_dataset_raises(self):
        from repro.dataset import BroadbandDataset

        with pytest.raises(InsufficientDataError):
            tier_flattening(BroadbandDataset(()), "x", "att")

    def test_factor_requires_positive_speed(self):
        row = TierFlattening("att", "x", 55.0, 0.0, 10.0, 9)
        with pytest.raises(InsufficientDataError):
            _ = row.flattening_factor


class TestRetryingClient:
    def test_policy_validation(self):
        with pytest.raises(ConfigurationError):
            RetryPolicy(max_attempts=0)

    def test_block_triggers_ip_rotation(self, tiny_world):
        """Flood one IP into a block, then watch the client rotate out."""
        pool = ResidentialProxyPool(6, seed=99)
        feed = tiny_world.city("new-orleans").book.feed
        with RetryingQueryClient(
            tiny_world.transport, pool,
            RetryPolicy(max_attempts=3, backoff_seconds=0.0),
            seed=1, politeness_seconds=0.0,
        ) as client:
            first_ip = client.client_ip
            # Saturate the first IP's rate budget with raw concurrent
            # sessions (other tools sharing the same exit).
            from repro.core import BroadbandQueryTool

            for i in range(40):
                BroadbandQueryTool(
                    tiny_world.transport, client_ip=first_ip, seed=i,
                    politeness_seconds=0.0,
                ).query_address("cox", feed[i])
            result = client.query(
                "cox", feed[50].street_line, feed[50].zip_code
            )
            assert client.rotations >= 1
            assert client.client_ip != first_ip
            assert result.status != QueryStatus.BLOCKED

    def test_sticky_technical_error_not_retried_forever(self, tiny_world):
        pool = ResidentialProxyPool(2, seed=5)
        feed = tiny_world.city("new-orleans").book.feed
        with RetryingQueryClient(
            tiny_world.transport, pool,
            RetryPolicy(max_attempts=2, backoff_seconds=0.0),
            politeness_seconds=0.0,
        ) as client:
            flaky = None
            for entry in feed[:200]:
                result = client.query("att", entry.street_line, entry.zip_code)
                if result.status == QueryStatus.TECHNICAL_ERROR:
                    flaky = entry
                    break
            assert flaky is not None  # errors persist across the retry

    def test_close_releases_ip(self, tiny_world):
        pool = ResidentialProxyPool(1, seed=5)
        client = RetryingQueryClient(tiny_world.transport, pool)
        client.close()
        assert pool.available == 1


class TestBatMonitor:
    def test_healthy_sweep(self, tiny_world):
        monitor = BatMonitor(tiny_world.transport)
        report = monitor.sweep(("att", "cox"))
        assert report.healthy
        assert report.unhealthy_isps() == ()

    def test_canary_query_ok(self, tiny_world):
        entry = tiny_world.city("new-orleans").book.feed[0]
        monitor = BatMonitor(tiny_world.transport)
        health = monitor.check_isp(
            "cox", canary_line=entry.street_line, canary_zip=entry.zip_code
        )
        assert health.status == STATUS_OK
        assert health.canary_status is not None

    def test_unreachable_host(self, tiny_world):
        monitor = BatMonitor(tiny_world.transport)
        health = monitor.check_isp("verizon")  # not active in this world
        assert health.status == STATUS_UNREACHABLE

    def test_drift_detected(self, tiny_world):
        """A redesigned landing page must flag TEMPLATE_DRIFT."""
        from repro.net import HttpResponse, InProcessTransport, LatencyModel

        class RedesignedApp:
            hostname = tiny_world.bats["cox"].hostname

            def handle(self, request, client_ip, now):
                return HttpResponse.html("<html><body>new site!</body></html>")

        transport = InProcessTransport(latency=LatencyModel.zero())
        transport.register(RedesignedApp())
        health = BatMonitor(transport).check_isp("cox")
        assert health.status == STATUS_TEMPLATE_DRIFT


class TestCurationCli:
    def test_end_to_end(self, tmp_path, child_env):
        out = tmp_path / "release.csv"
        completed = subprocess.run(
            [
                sys.executable, "-m", "repro.dataset",
                "--out", str(out),
                "--scale", "0.03",
                "--cities", "fargo",
                "--min-samples", "5",
                "--workers", "5",
            ],
            capture_output=True,
            text=True,
            timeout=300,
            env=child_env(),
        )
        assert completed.returncode == 0, completed.stderr[-2000:]
        assert out.exists()
        from repro.dataset import read_dataset_csv

        dataset = read_dataset_csv(out)
        assert len(dataset) > 0
        assert dataset.cities() == ("fargo",)
