import hashlib
import time
from collections import Counter
from dataclasses import replace
from pathlib import Path

import pytest

import edgectx.cli
import edgectx.nn
import edgectx.sim
from edgectx.cli import _retrain_once
from edgectx.client import QUEUE_CAPACITY
from edgectx.data import Dataset, synth_still_motion
from edgectx.protocol import SensorBatch
from edgectx.server import MemoryDataSink, ModelStore
from edgectx.sim import (
    ALGORITHMS,
    LinkConfig,
    SensorNodeConfig,
    _ScenarioRunner,
    run_scenario,
)

OUTAGE_SCENARIO = Path(__file__).resolve().parent.parent / "scenarios" / "outage.json"
KIND_OF = {"ADCL": "DCL", "DCL": "DCL", "LCL": "CL", "CL": "CL"}


def one_node(n=600, seed=3, delay=100, **kwargs):
    return SensorNodeConfig("acc0", delay, synth_still_motion(n, seed), **kwargs)


def quick_scenario(link, duration=10_000, seed=11, algorithms=("ADCL",), **kwargs):
    defaults = dict(
        sync_period_ms=500,
        upload_every_ms=500,
        warmup_samples=60,
        epochs=4,
    )
    defaults.update(kwargs)
    return run_scenario(
        [one_node()], link, retrain_every_ms=1_000,
        algorithms=algorithms, duration_ms=duration, seed=seed, **defaults,
    )


class TestDeterminism:
    def test_same_seed_identical_canonical_bytes(self):
        link = LinkConfig(latency_ms=5, drop_probability=0.2)
        a = quick_scenario(link, seed=21)
        b = quick_scenario(link, seed=21)
        assert a.canonical_bytes() == b.canonical_bytes()
        assert a.ticks_csv().splitlines()[0] == b.ticks_csv().splitlines()[0]

    def test_different_seed_differs(self):
        link = LinkConfig(drop_probability=0.3)
        a = quick_scenario(link, seed=1)
        b = quick_scenario(link, seed=2)
        assert a.canonical_bytes() != b.canonical_bytes()

    def test_results_do_not_depend_on_wall_clock(self):
        # rerunning under different host load must not change the outcome
        link = LinkConfig(latency_ms=3)
        outs = {quick_scenario(link, seed=5).canonical_bytes() for _ in range(3)}
        assert len(outs) == 1


class TestHealthyLink:
    def test_client_observes_increasing_versions(self):
        result = quick_scenario(LinkConfig(), duration=10_000)
        ticks = [t for t in result.ticks if t.algorithm == "ADCL"]
        versions = [t.model_version for t in ticks]
        assert all(v is not None for v in versions)
        assert all(b >= a for a, b in zip(versions, versions[1:]))
        assert len(set(versions)) >= 10

    def test_conservation_every_reading_predicted(self):
        result = quick_scenario(LinkConfig(), algorithms=("ADCL", "LCL"))
        for algo in ("ADCL", "LCL"):
            assert (
                len([t for t in result.ticks if t.algorithm == algo])
                == result.emitted_readings
            )

    def test_uploads_all_delivered(self):
        result = quick_scenario(LinkConfig(latency_ms=2))
        assert result.server_received_distinct == result.client_sent_readings
        assert result.dropped_from_queue == 0

    def test_staleness_bounded_when_healthy(self):
        result = quick_scenario(LinkConfig(latency_ms=5), duration=8_000)
        bound = 1_000 + 500 + 5 * 2  # retrain + sync period + round trip
        late = [t for t in result.ticks if t.sim_time_ms > 2_000]
        assert late and all(t.staleness_ms <= bound for t in late)


class TestOutage:
    def test_whole_run_outage_freezes_version_but_not_predictions(self):
        link = LinkConfig(outage_windows=((0, 60_000),))
        result = quick_scenario(link, duration=10_000)
        ticks = [t for t in result.ticks if t.algorithm == "ADCL"]
        assert len(ticks) == result.emitted_readings
        assert {t.model_version for t in ticks} == {1}  # warm-start bundle only
        assert all(t.correct is not None for t in ticks)

    def test_full_queue_drops_the_oldest_readings(self):
        # 1 ms readings and a link that never delivers, drain included
        link = LinkConfig(outage_windows=((0, 10**9),))
        result = run_scenario([one_node(delay=1)], link, 1_000, ("ADCL",), 12_000, 11)
        assert result.emitted_readings == 12_000
        assert result.dropped_from_queue == result.emitted_readings - QUEUE_CAPACITY
        assert result.server_received_total == 0

    def test_reading_evicted_while_its_upload_is_in_flight_is_not_dropped(self):
        # the outage ends with the queue full; an upload in flight delivers
        # a reading that a later emit evicts from the queue
        link = LinkConfig(outage_windows=((0, 12_000),))
        result = run_scenario([one_node(delay=1)], link, 1_000, ("ADCL",), 12_500, 11)
        assert result.emitted_readings == 12_500
        assert result.server_received_distinct == 10_500
        assert result.dropped_from_queue == 2_000

    def test_staleness_grows_linearly_during_outage(self):
        link = LinkConfig(outage_windows=((2_000, 8_000),))
        result = quick_scenario(link, duration=9_000)
        stale = [
            (t.sim_time_ms, t.staleness_ms)
            for t in result.ticks
            if t.algorithm == "ADCL" and 3_000 <= t.sim_time_ms < 8_000
        ]
        diffs = {
            (t2 - t1, s2 - s1)
            for (t1, s1), (t2, s2) in zip(stale, stale[1:])
        }
        assert all(dt == ds for dt, ds in diffs)

    def test_cold_start_produces_not_ready_then_recovers(self):
        result = quick_scenario(LinkConfig(), warm_start=False, duration=6_000)
        ticks = [t for t in result.ticks if t.algorithm == "ADCL"]
        assert len(ticks) == result.emitted_readings
        assert ticks[0].model_version is None
        assert ticks[-1].model_version is not None


class TestServerSideAlgorithms:
    def test_dcl_sees_latest_version_instantly(self):
        result = quick_scenario(
            LinkConfig(outage_windows=((2_000, 10_000),)),
            algorithms=("DCL", "ADCL"), duration=10_000,
        )
        dcl = [t for t in result.ticks if t.algorithm == "DCL"]
        adcl = [t for t in result.ticks if t.algorithm == "ADCL"]
        # server model keeps advancing during the outage; client is frozen
        assert max(t.model_version for t in dcl) > max(t.model_version for t in adcl)
        assert all(t.staleness_ms == 0 for t in dcl)


class TestRetrainGuard:
    def test_worse_candidate_is_refused_and_counted(self, monkeypatch):
        train, continued = edgectx.nn.train, []

        def spoiled(params, data, cfg):
            trained, losses = train(params, data, cfg)
            if params.spec.hidden_sizes and params.trained_epochs:
                continued.append(cfg.epochs)
                if len(continued) == 2:
                    # this candidate answers class 1 (motion) for every row
                    flat = (0.0,) * (len(trained.flat) - 2) + (-5.0, 5.0)
                    return replace(trained, flat=flat), losses
            return trained, losses

        monkeypatch.setattr(edgectx.nn, "train", spoiled)
        result = quick_scenario(LinkConfig(), duration=5_000)
        assert result.refused == [(2_000, "DCL")]
        # the refusal consumes no version number
        assert result.published == [(t, "DCL", v) for t, v in
                                     ((0, 1), (1_000, 2), (3_000, 3), (4_000, 4), (5_000, 5))]
        assert b'"refused":[[2000,"DCL"]]' in result.canonical_bytes()

    def test_unchanged_rows_after_a_refusal_train_nothing(self, monkeypatch, train_calls):
        def spoiled(params, data, cfg):
            trained, losses = train(params, data, cfg)
            if params.trained_epochs:
                # every continued candidate answers class 1 (motion) for every row
                return replace(trained, flat=(0.0,) * (len(trained.flat) - 2) + (-5.0, 5.0)), losses
            return trained, losses

        train = edgectx.nn.train
        monkeypatch.setattr(edgectx.nn, "train", spoiled)
        # the last upload before the outage is sent at 1 000 and arrives after
        # that tick's retrain, so the tick at 2 000 refuses the last new rows
        # until the upload at 4 500
        result = quick_scenario(LinkConfig(outage_windows=((1_001, 4_100),)), duration=5_000)
        assert result.published == [(0, "DCL", 1)]
        # the same rows, seed and served version would train the same
        # candidate, so the ticks at 3 000 and 4 000 train nothing
        assert result.refused == [(1_000, "DCL"), (2_000, "DCL"), (5_000, "DCL")]
        assert [epochs for _, epochs, _ in train_calls] == [4, 1, 1, 1]


class TestOnePolicy:
    """The simulator's server retrains as ``serve`` does."""

    @staticmethod
    def bootstrapped(source, warmup, **options):
        runner = _ScenarioRunner([SensorNodeConfig("acc0", 100, source)], LinkConfig(), 1_000,
                                 ("ADCL", "LCL"), 1_000, 3, warmup_samples=warmup, **options)
        runner._bootstrap()
        return runner

    def test_warm_start_v1_is_serve_s_v1(self):
        runner = self.bootstrapped(synth_still_motion(600, 3), 200)
        sink, store = MemoryDataSink(), ModelStore()
        readings, labels = zip(*runner.sink.labeled_pairs())
        sink.store(SensorBatch("edge", readings, labels))

        class Args:
            min_rows = 8
            epochs = 30

        _retrain_once(store, sink, ["DCL", "CL"], Args)
        for kind in ("DCL", "CL"):
            served, published = store.get(kind), runner.store.get(kind)
            assert served.params.flat == published.params.flat
            assert (served.params, served.thresholds) == (published.params, published.thresholds)

    def test_only_the_last_2000_rows_train(self):
        source = synth_still_motion(2_001, 3)
        last = Dataset(source.samples[1:], source.feature_names, source.class_names)
        runners = [self.bootstrapped(source, 2_001, epochs=2),
                   self.bootstrapped(last, 2_000, epochs=2)]
        for kind in ("DCL", "CL"):
            a, b = (runner.store.get(kind) for runner in runners)
            assert (a.params, a.thresholds) == (b.params, b.thresholds)


class TestLossyLink:
    def test_random_drops_slow_but_do_not_stop_sync(self):
        result = quick_scenario(
            LinkConfig(drop_probability=0.5), duration=12_000, seed=10
        )
        ticks = [t for t in result.ticks if t.algorithm == "ADCL"]
        versions = [t.model_version for t in ticks]
        assert all(b >= a for a, b in zip(versions, versions[1:]))
        assert versions[-1] > 1

    def test_a_replay_after_a_lost_ack_is_held_twice(self):
        # the upload sent at 500 arrives at 505, when the ack leg is down, so
        # the upload at 1 000 sends its readings again; the sink keeps both
        # copies, as serve's does
        link = LinkConfig(latency_ms=5, outage_windows=((505, 600),))
        runner = _ScenarioRunner([one_node()], link, 1_000, ("ADCL",), 2_000, 11)
        result = runner.run()
        held = Counter(r.timestamp for r, _ in runner.sink.labeled_pairs()[runner.bootstrapped:])
        assert sorted(t for t, n in held.items() if n == 2) == [0, 100, 200, 300, 400]
        assert set(held.values()) == {1, 2}
        assert result.server_received_total == result.server_received_distinct + 5

    def test_at_least_once_uploads_may_duplicate_but_cover_everything(self):
        result = quick_scenario(
            LinkConfig(drop_probability=0.3), duration=12_000, seed=6,
            drain_ticks=500,
        )
        assert result.server_received_distinct == result.client_sent_readings
        assert result.server_received_total >= result.server_received_distinct


class TestValidation:
    def test_empty_algorithms_rejected(self):
        with pytest.raises(ValueError):
            run_scenario([one_node()], LinkConfig(), 1_000, (), 5_000, 1)

    def test_unknown_algorithm_rejected(self):
        with pytest.raises(ValueError):
            run_scenario([one_node()], LinkConfig(), 1_000, ("XGB",), 5_000, 1)

    def test_no_nodes_rejected(self):
        with pytest.raises(ValueError):
            run_scenario([], LinkConfig(), 1_000, ("ADCL",), 5_000, 1)

    @pytest.mark.parametrize("name", ["queue_capacity", "rolling_window", "min_retrain_rows",
                                      "max_train_rows", "dcl_config", "cl_config"])
    def test_constants_are_not_options(self, name):
        with pytest.raises(TypeError):
            run_scenario([one_node()], LinkConfig(), 1_000, ("ADCL",), 5_000, 1, **{name: 8})

    def test_epochs_below_one_rejected(self):
        with pytest.raises(ValueError, match="epochs"):
            run_scenario([one_node()], LinkConfig(), 1_000, ("ADCL",), 5_000, 1, epochs=0)

    def test_zero_rate_node_rejected(self):
        with pytest.raises(ValueError):
            SensorNodeConfig("x", 0, synth_still_motion(10, 1))

    def test_outage_windows_validated(self):
        with pytest.raises(ValueError):
            LinkConfig(outage_windows=((5, 5),))
        with pytest.raises(ValueError):
            LinkConfig(outage_windows=((0, 10), (5, 20)))

    def test_duty_cycle_spacing(self):
        node = SensorNodeConfig(
            "acc0", 100, synth_still_motion(50, 2),
            sleep_interval_ms=300, duty_length=2,
        )
        result = run_scenario(
            [node], LinkConfig(), retrain_every_ms=1_000,
            algorithms=("ADCL",), duration_ms=2_000, seed=4,
        )
        times = [t.sim_time_ms for t in result.ticks if t.algorithm == "ADCL"]
        # cycle: 0, 100, then sleep 300 + delay 100 -> 500, 600, 1000, ...
        assert times[:6] == [0, 100, 500, 600, 1000, 1100]


class TestSharedClientSteps:
    """The simulated client syncs and uploads through the request and reply
    steps of ``edgectx.client``, answered by ``server.handle_request``."""

    def test_the_server_answers_through_handle_request(self, monkeypatch, tmp_path):
        seen = Counter()
        handle = edgectx.sim.handle_request

        def counting(msg, store, sink):
            seen[msg["type"]] += 1
            return handle(msg, store, sink)

        monkeypatch.setattr(edgectx.sim, "handle_request", counting)
        code = edgectx.cli.main(["simulate", "--scenario", str(OUTAGE_SCENARIO),
                                 "--out-dir", str(tmp_path)])
        assert code == 0
        assert set(seen) == {"GET_PARAMS", "PUSH_DATA"}

    @staticmethod
    def failures(outage_window):
        runner = _ScenarioRunner(
            [one_node()], LinkConfig(latency_ms=5, outage_windows=(outage_window,)),
            1_000, ("ADCL", "LCL"), 9_000, 11, sync_period_ms=500, upload_every_ms=500,
            warmup_samples=60, epochs=4)
        runner.run()
        return {kind: state.consecutive_failures for kind, state in runner.client_states.items()}

    def test_a_run_ending_in_an_outage_counts_every_lost_sync(self):
        # the syncs at 4 000, 4 500, ..., 9 000 are all lost
        assert self.failures((4_000, 20_000)) == {"CL": 11, "DCL": 11}

    def test_a_sync_after_the_outage_clears_the_count(self):
        assert self.failures((4_000, 6_000)) == {"CL": 0, "DCL": 0}


class TestCsvOutputs:
    def test_csv_shapes(self):
        result = quick_scenario(LinkConfig(), duration=3_000, algorithms=("ADCL", "LCL"))
        ticks_lines = result.ticks_csv().splitlines()
        assert ticks_lines[0].startswith("sim_time_ms,algorithm,")
        assert len(ticks_lines) == 1 + len(result.ticks)
        summary_lines = result.summary_csv().splitlines()
        assert len(summary_lines) == 1 + len(result.metrics)


@pytest.fixture
def train_calls(monkeypatch):
    """Records (spec, epochs, rows) of each ``nn.train`` call made while the
    test runs."""
    calls = []
    train = edgectx.nn.train

    def counting(*args, **kwargs):
        params, data, cfg = args
        calls.append((params.spec, cfg.epochs, len(data.samples)))
        return train(*args, **kwargs)

    monkeypatch.setattr(edgectx.nn, "train", counting)
    return calls


def versions_read(result):
    return {(KIND_OF[t.algorithm], t.model_version)
            for t in result.ticks if t.correct is not None}


class TestDeferredTraining:
    def test_outage_scenario_trains_once_per_publish(self, train_calls, monkeypatch,
                                                     tmp_path):
        captured = []
        run = edgectx.cli.run_scenario

        def capture(*args, **kwargs):
            captured.append(run(*args, **kwargs))
            return captured[-1]

        monkeypatch.setattr(edgectx.cli, "run_scenario", capture)
        code = edgectx.cli.main(["simulate", "--scenario", str(OUTAGE_SCENARIO),
                                 "--out-dir", str(tmp_path)])
        assert code == 0
        (result,) = captured
        # no upload arrives in the 10-20 s outage, so its retrains publish
        # nothing; the last one before it does
        times = [t for t, _, _ in result.published]
        assert len(times) == 22 and 10_000 in times
        assert not [t for t in times if 10_000 < t <= 20_000]
        assert result.refused == []
        # v1 of each kind is fresh (30 epochs), every later version
        # continues from the one before it for 5
        assert [epochs for _, epochs, _ in train_calls] == [30] * 2 + [5] * 20
        # 195 300 updates when every version read trained fresh
        assert sum(epochs * rows for _, epochs, rows in train_calls) == 47_500
        assert hashlib.sha256(result.canonical_bytes()).hexdigest() == (
            "687119c0c64c65fddc622be76a11617f0bfb7c774dc7dcb0b9c1793b50b9990a")

    # SHA-256 of canonical_bytes(); they move whenever what a seed trains,
    # publishes or refuses moves. The link drops uploads and acks, so a
    # replay after a lost ack is held twice and trained on twice, as by serve
    PINNED = {
        (5, ALGORITHMS): "ab2fc98c5a897b3879e1758fb82eb9481f0b4ae6f7b32cf54b4cf10d36310e78",
        (17, ALGORITHMS): "c39c47d02e5b478daa7c5945dae900edeae37028914859b66f55acfe84744095",
        (5, ("ADCL", "LCL")): "567c6c9738550a771188f70ff4de218c3424f1ca9bbe8b0f5c16286e27231489",
        (17, ("ADCL", "LCL")): "b9a6cfc06175efd14287bbeb6ad1e4357f54b60904aa5fb591eee7ff61a9b440",
    }

    @pytest.mark.parametrize("seed,algorithms", list(PINNED),
                             ids=lambda v: "+".join(v) if isinstance(v, tuple) else str(v))
    def test_outputs_match_training_at_publish_time(self, seed, algorithms):
        link = LinkConfig(latency_ms=7, drop_probability=0.15,
                          outage_windows=((3_000, 6_000), (9_000, 13_000)))
        result = quick_scenario(link, duration=16_000, seed=seed, algorithms=algorithms)
        digest = hashlib.sha256(result.canonical_bytes()).hexdigest()
        assert digest == self.PINNED[seed, algorithms]

    def test_retrains_without_new_rows_publish_nothing(self, train_calls):
        # no upload arrives between 2 100 and 8 100, so the retrains at 4 000
        # to 8 000 find no rows since the last publish and train nothing
        result = quick_scenario(LinkConfig(outage_windows=((2_100, 8_100),)),
                                duration=12_000)
        assert [t for t, _, _ in result.published] == [
            0, 1_000, 2_000, 3_000, 9_000, 10_000, 11_000, 12_000]
        assert len(train_calls) == len(result.published) and result.refused == []

    def test_training_stays_out_of_the_timed_prediction(self, monkeypatch):
        train = edgectx.nn.train

        def slow_train(*args, **kwargs):
            time.sleep(0.05)
            return train(*args, **kwargs)

        monkeypatch.setattr(edgectx.nn, "train", slow_train)
        result = quick_scenario(LinkConfig(), duration=3_000, algorithms=ALGORITHMS)
        assert len(versions_read(result)) >= 4
        assert max(t.latency_us for t in result.ticks) < 50_000
