"""Split context learning for sensor-driven applications.

A server trains context classifiers (CL: single-layer with thresholds,
DCL: deep backprop network) on uploaded sensor data; lightweight edge
clients (LCL, ADCL) predict in real time from periodically synced
parameter bundles and stay live on stale parameters when the link fails.
"""

from .bundle import (
    BundleChecksumError,
    BundleError,
    BundleFormatError,
    BundleShapeError,
    BundleVersionError,
    ParameterBundle,
    decode_bundle,
    encode_bundle,
)
from .client import (
    EdgeClient,
    SyncPolicy,
    SyncState,
    Uploader,
    client_sync_tick,
)
from .data import (
    DataFormatError,
    Dataset,
    Sample,
    SensorReading,
    apply_minmax,
    load_csv,
    normalize_minmax,
    stratified_split,
    synth_still_motion,
)
from .learners import (
    MODEL_KIND_CL,
    MODEL_KIND_DCL,
    ClModel,
    ContextLabel,
    KFoldResult,
    Metrics,
    NeverSyncedError,
    ThresholdVector,
    adcl_predict,
    calibrate_thresholds,
    cl_train,
    dcl_train,
    evaluate,
    fit,
    kfold_cross_validate,
    lcl_predict,
    make_cl_trainer,
    make_dcl_trainer,
)
from .nn import (
    ActivationTrace,
    DimensionError,
    GradientSet,
    LayerSpec,
    NetworkParameters,
    TrainingConfig,
    apply_update,
    backprop,
    forward,
    hidden_size_default,
    init_network,
    sigmoid,
    squared_error,
    train,
)
from .protocol import SensorBatch, TcpTransport, TransportError
from .server import JsonlDataSink, MemoryDataSink, ModelStore, ParameterServer
from .sim import LinkConfig, ScenarioResult, SensorNodeConfig, run_scenario
from .bench import bench_execution

__version__ = "0.1.0"
