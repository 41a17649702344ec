"""The observer seam: one subscriber reference, many subscribers.

Covers the subscription table behind ``attach_*`` / ``capture_dispatches``
(fast-path flag, de-duplication, read-only views), the regressions the
single seam fixes, and the windowed-delta helper both samplers share:

* a flight recorder attached after another profile still gets per-window
  cost data (its own profile is subscribed, not installed only when no
  profile is attached yet);
* every CUP tree push is charged as a ``fanout_leg``, exactly like a star
  leg, so ``fanout_leg`` units equal ``UPDATE_FANOUT`` wire attempts for
  both propagators.
"""

from __future__ import annotations

import pytest

from repro.core.cloud import CacheCloud
from repro.core.config import AssignmentScheme, CloudConfig, PlacementScheme
from repro.core.fabric import MessageFabric
from repro.core.observer import ObserverFanOut, ProtocolObserver
from repro.core.placement import make_placement
from repro.faults.injector import FaultInjector
from repro.faults.plan import FaultPlan, RetryPolicy
from repro.metrics.timeseries import WindowedDelta
from repro.network.bandwidth import TrafficCategory
from repro.network.transport import Transport
from repro.observe import FlightRecorder, Telemetry, WorkProfile
from repro.observe.flight import read_flight
from repro.strategies import CUPTreeStrategy, PolicyStrategy
from repro.workload.documents import build_corpus


def _cloud(strategy_cls=None, num_caches=8):
    config = CloudConfig(
        num_caches=num_caches,
        num_rings=2,
        assignment=AssignmentScheme.DYNAMIC,
        placement=PlacementScheme.AD_HOC,
        intra_gen=100,
        cycle_length=10.0,
    )
    corpus = build_corpus(60, fixed_size=1024)
    strategy = None
    if strategy_cls is not None:
        strategy = strategy_cls(make_placement(config))
    return CacheCloud(config, corpus, strategy=strategy)


def _drive(cloud, requests=600, update_every=3):
    """Requests spread over 15 sim-minutes, an update every few requests."""
    for i in range(requests):
        now = i * 0.025
        cloud.handle_request(i % len(cloud.caches), (7 * i) % 40, now=now)
        if i % update_every == 0:
            cloud.handle_update((11 * i) % 40, now=now)


class TestSubscriptionTable:
    def test_one_object_under_two_keys_sees_each_event_once(self):
        fabric = MessageFabric(Transport())
        profile = WorkProfile()
        fabric.subscribe("profile", profile)
        fabric.subscribe("flight.profile", profile)
        assert fabric.observer is profile
        fabric.unsubscribe("flight.profile")
        assert fabric.observer is profile
        fabric.unsubscribe("profile")
        assert fabric.observer is None
        assert fabric._fast_path

    def test_several_subscribers_fan_out_in_order(self):
        fabric = MessageFabric(Transport())
        telemetry = Telemetry()
        records = fabric.capture_dispatches()
        fabric.subscribe("telemetry", telemetry)
        assert isinstance(fabric.observer, ObserverFanOut)
        assert fabric.observer.observers[1] is telemetry
        fabric.send_control(0, 1)
        assert len(records) == 1
        assert telemetry.counters["fabric.attempts.control"] == 1

    def test_cloud_mirrors_the_fabric_reference(self):
        cloud = _cloud(num_caches=4)
        assert cloud.observer is None
        records = cloud.fabric.capture_dispatches()
        assert cloud.observer is cloud.fabric.observer
        telemetry = Telemetry()
        cloud.attach_telemetry(telemetry)
        assert cloud.observer is cloud.fabric.observer
        assert cloud.telemetry is telemetry
        assert cloud.fabric.dispatch_log is records
        assert cloud.detach_telemetry() is telemetry
        cloud.fabric.stop_dispatch_capture()
        assert cloud.observer is None
        assert cloud.fabric.dispatch_log is None

    def test_views_are_read_only(self):
        fabric = MessageFabric(Transport())
        with pytest.raises(AttributeError):
            fabric.telemetry = Telemetry()

    def test_base_observer_ignores_every_event(self):
        cloud = _cloud(num_caches=4)
        cloud.fabric.subscribe("noop", ProtocolObserver())
        _drive(cloud, requests=40)
        assert cloud.requests_handled == 40


class TestFlightAttachOrder:
    """A profile attached first no longer starves the flight windows."""

    def _record(self, tmp_path, name, profile_first):
        cloud = _cloud()
        profile = WorkProfile()
        recorder = FlightRecorder(str(tmp_path / name), window=1.0)
        if profile_first:
            cloud.attach_profile(profile)
            cloud.attach_flight(recorder)
        else:
            cloud.attach_flight(recorder)
            cloud.attach_profile(profile)
        _drive(cloud)
        recorder.finish(15.0)
        return (tmp_path / name).read_bytes(), profile, recorder.profile

    def test_both_orders_write_identical_artifacts(self, tmp_path):
        first, _, _ = self._record(tmp_path, "profile-first.jsonl", True)
        second, _, _ = self._record(tmp_path, "flight-first.jsonl", False)
        assert first == second
        windows = read_flight(str(tmp_path / "profile-first.jsonl")).windows
        assert len(windows) == 15
        assert all("cost" in window for window in windows)

    @pytest.mark.parametrize("profile_first", [True, False])
    def test_both_profiles_end_with_equal_counts(self, tmp_path, profile_first):
        _, attached, owned = self._record(tmp_path, "f.jsonl", profile_first)
        assert attached is not owned
        assert attached.counts == owned.counts
        assert attached.units == owned.units
        assert attached.counts["placement"] > 0


class TestFanoutCharging:
    """``fanout_leg`` units equal ``UPDATE_FANOUT`` wire attempts."""

    @pytest.mark.parametrize("strategy_cls", [PolicyStrategy, CUPTreeStrategy])
    def test_units_match_wire_attempts(self, strategy_cls):
        cloud = _cloud(strategy_cls)
        profile = cloud.attach_profile(WorkProfile())
        _drive(cloud)
        attempts = cloud.transport.meter.messages_for(TrafficCategory.UPDATE_FANOUT)
        assert attempts > 0
        assert profile.units["fanout_leg"] == attempts

    @pytest.mark.parametrize("strategy_cls", [PolicyStrategy, CUPTreeStrategy])
    def test_units_match_under_loss_and_retries(self, strategy_cls):
        cloud = _cloud(strategy_cls)
        plan = FaultPlan(loss_rate=0.2, retry=RetryPolicy(max_attempts=3))
        cloud.attach_faults(FaultInjector(plan, cloud.transport, seed=5))
        profile = cloud.attach_profile(WorkProfile())
        _drive(cloud)
        attempts = cloud.transport.meter.messages_for(TrafficCategory.UPDATE_FANOUT)
        assert cloud.retries > 0
        assert profile.units["fanout_leg"] == attempts


class TestWindowedDelta:
    def test_deltas_since_last_take(self):
        totals = {"a": 3, "b": 1.5}
        delta = WindowedDelta(lambda: dict(totals))
        totals["a"] = 5
        assert delta.take() == {"a": 2, "b": 0.0}
        totals["b"] = 4.0
        assert delta.take() == {"a": 0, "b": 2.5}

    def test_counter_reset_inside_window_counts_post_reset_value(self):
        totals = {"a": 10}
        delta = WindowedDelta(lambda: dict(totals))
        totals["a"] = 4  # reset to zero, then four more
        assert delta.take() == {"a": 4}

    def test_rebase_and_late_keys(self):
        totals = {}
        delta = WindowedDelta(lambda: dict(totals))
        totals["a"] = 7
        delta.rebase()
        totals["a"] = 9
        totals["b"] = 2
        assert delta.take() == {"a": 2, "b": 2}

    def test_integer_counters_stay_integers(self):
        totals = {"a": 1}
        delta = WindowedDelta(lambda: dict(totals))
        totals["a"] = 4
        assert isinstance(delta.take()["a"], int)
