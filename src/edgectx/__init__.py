"""Split context learning for sensor-driven applications.

A server trains context classifiers (CL: single-layer with thresholds,
DCL: deep backprop network) on uploaded sensor data; lightweight edge
clients (LCL, ADCL) predict in real time from periodically synced
parameter bundles and stay live on stale parameters when the link fails.

The names below are imported from their submodules on first use (PEP 562),
so ``import edgectx.server`` loads what the server needs and not, say, the
simulator.
"""

from importlib import import_module

__version__ = "0.1.0"

_SUBMODULES = ("bench", "bundle", "cli", "client", "data", "learners", "nn",
               "protocol", "rng", "server", "sim")
_NAMES = {
    "bench": "bench_execution",
    "bundle": "BundleChecksumError BundleError BundleFormatError BundleShapeError "
              "BundleVersionError ParameterBundle decode_bundle encode_bundle",
    "client": "EdgeClient SyncPolicy SyncState Uploader client_sync_tick",
    "data": "DataFormatError Dataset Sample SensorReading apply_minmax load_csv "
            "normalize_minmax stratified_split synth_still_motion",
    "learners": "MODEL_KIND_CL MODEL_KIND_DCL ClModel ContextLabel KFoldResult Metrics "
                "NeverSyncedError ThresholdVector adcl_predict calibrate_thresholds "
                "cl_train dcl_train evaluate fit kfold_cross_validate lcl_predict "
                "make_cl_trainer make_dcl_trainer",
    "nn": "DimensionError LayerSpec NetworkParameters TrainingConfig apply_update "
          "backprop forward hidden_size_default init_network sigmoid squared_error train",
    "protocol": "SensorBatch TcpTransport TransportError",
    "server": "JsonlDataSink MemoryDataSink ModelStore ParameterServer",
    "sim": "LinkConfig ScenarioResult SensorNodeConfig run_scenario",
}
# every exported name, submodules included -> the submodule that holds it
_EXPORTS = {
    **{name: module for module, names in _NAMES.items() for name in names.split()},
    **{module: module for module in _SUBMODULES},
}

__all__ = sorted(_EXPORTS)


def __getattr__(name: str):
    module_name = _EXPORTS.get(name)
    if module_name is None:
        raise AttributeError(f"module {__name__!r} has no attribute {name!r}")
    module = import_module(f".{module_name}", __name__)
    value = module if name == module_name else getattr(module, name)
    globals()[name] = value
    return value


def __dir__() -> list[str]:
    return sorted(set(globals()) | set(_EXPORTS))
