"""Every edge predictor of a synced bundle is the bundle's bound classifier.

``EdgeClient.predict``, ``SyncState.predict`` and the simulated client's and
server's predictors are one call into the function ``nn.bind_classifier``
generates, and give the labels and the errors of ``adcl_predict`` (DCL
bundles) and ``lcl_predict`` (CL bundles).
"""

from dataclasses import replace

import pytest

from edgectx.client import EdgeClient, SyncState
from edgectx.data import normalize_minmax, synth_still_motion
from edgectx.learners import (
    MODEL_KIND_CL,
    MODEL_KIND_DCL,
    ClModel,
    NeverSyncedError,
    adcl_predict,
    cl_train,
    dcl_train,
    lcl_predict,
)
from edgectx.nn import LayerSpec, TrainingConfig
from edgectx.server import MemoryDataSink, ModelStore, handle_request
from edgectx.sim import LinkConfig, SensorNodeConfig, _ScenarioRunner

ROWS = synth_still_motion(300, 5).samples
BAD_INPUTS = [
    (0.1,), (0.1, 0.2, 0.3), (), (float("nan"), 0.2), (0.1, float("inf")),
    (float("-inf"), 0.2), "ab", ("x", 0.2), 5, None, {0.1, 0.2},
]


class StoreTransport:
    def __init__(self, store):
        self.store = store

    def request(self, msg, timeout=None):
        return handle_request(msg, self.store, MemoryDataSink())[0]


def reference(bundle, features):
    """The label (or the error) ``adcl_predict`` or ``lcl_predict`` gives
    ``features`` on a copy of the bundle's network, whose classifier is
    bound apart from the bundle's."""
    params = replace(bundle.params)
    if bundle.model_kind == MODEL_KIND_CL:
        return outcome(lambda x: lcl_predict(ClModel(params, bundle.thresholds), x), features)
    return outcome(lambda x: adcl_predict(params, x), features)


def outcome(predict, features):
    try:
        return predict(features)
    except Exception as exc:  # the error is what is compared
        return type(exc), str(exc)


@pytest.fixture(scope="module")
def simulated():
    runner = _ScenarioRunner(
        [SensorNodeConfig("acc0", 100, synth_still_motion(300, 4))], LinkConfig(latency_ms=2),
        1_000, ("ADCL", "LCL", "DCL", "CL"), 3_000, 11, sync_period_ms=500,
        upload_every_ms=500, warmup_samples=60, epochs=4)
    runner.run()
    return runner


@pytest.fixture(scope="module", params=[MODEL_KIND_DCL, MODEL_KIND_CL])
def predictors(request, simulated):
    """(bundle, predict) for each edge predictor of one kind's bundle."""
    kind = request.param
    data = normalize_minmax(synth_still_motion(150, 3))
    store = ModelStore()
    if kind == MODEL_KIND_DCL:
        store.publish(kind, dcl_train(data, LayerSpec(2, (3,), 2), TrainingConfig(0.3, 20, 1)))
    else:
        model = cl_train(data, TrainingConfig(0.05, 20, 1))
        store.publish(kind, model.params, model.thresholds)
    client = EdgeClient(StoreTransport(store), kind)
    state = client.sync_tick(now_ms=0)
    sim_client, sim_server = simulated.client_states[kind], simulated.served[kind]
    return [
        (state.current_bundle, client.predict),
        (state.current_bundle, state.predict),
        (sim_client.current_bundle, sim_client.predict),
        (sim_server.current_bundle, sim_server.predict),
    ]


def test_each_predictor_is_the_generated_function(predictors):
    for bundle, predict in predictors:
        assert bundle is not None
        assert predict.__code__.co_filename.startswith("<edgectx.nn classifier ")


def test_each_predictor_labels_every_row_as_before(predictors):
    for bundle, predict in predictors:
        for sample in ROWS:
            assert predict(sample.features) == reference(bundle, sample.features)


@pytest.mark.parametrize("features", BAD_INPUTS, ids=repr)
def test_each_predictor_raises_what_it_raised(predictors, features):
    for bundle, predict in predictors:
        expected = reference(bundle, features)
        assert isinstance(expected, tuple)  # every one of these inputs is refused
        assert outcome(predict, features) == expected


def test_a_state_that_never_synced_raises_never_synced():
    with pytest.raises(NeverSyncedError):
        SyncState().predict((0.1, 0.2))
    client = EdgeClient(StoreTransport(ModelStore()), MODEL_KIND_CL)
    with pytest.raises(NeverSyncedError):
        client.predict((0.1, 0.2))
    client.sync_tick(now_ms=0)  # NOT_READY keeps it unsynced
    with pytest.raises(NeverSyncedError):
        client.predict((0.1, 0.2))


def test_a_state_binds_the_bundle_it_holds(predictors):
    (bundle, _), _, (other, _), _ = predictors
    state = SyncState(bundle, 5)
    assert SyncState().synced(bundle, 5) == state
    assert state.synced(None, 9).predict is state.predict
    assert replace(state, current_bundle=other).predict is SyncState(other).predict
    assert SyncState(other).predict is not state.predict

