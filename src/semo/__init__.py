"""semo: battery monitoring and per-application energy attribution.

Three cooperating pieces: an inspector that classifies battery state and
warns on critical conditions, a recorder that samples battery plus
running applications into an append-only JSONL log, and an analyzer that
decomposes observed drain into per-application rates and a ranking.  A
deterministic device simulator supplies logs with known ground truth so
the attribution accuracy is measurable.
"""

import os

# One BLAS thread: a thread pool makes the analyzer's small QR several times
# slower on a busy host.  Holds only if numpy is not loaded yet; a set value wins.
os.environ.setdefault("OPENBLAS_NUM_THREADS", "1")

from .analyzer import (
    AttributionResult,
    DischargeInterval,
    GroupRate,
    Grouping,
    INSEPARABLE_FLAG,
    attribute,
    build_intervals,
    merge_identifiability_groups,
    rate_to_power,
)
from .clock import SimulatedClock, SystemClock
from .errors import (
    ChargeCounterUnavailable,
    DegenerateSystem,
    LogLocked,
    LogParseError,
    MalformedField,
    MissingField,
    NonMonotonicTimestamp,
    ScenarioInvalid,
    SemoError,
    TooFewSamples,
    UnwritableRecord,
)
from .inspector import BatteryWarning, InspectorConfig, WarningKind, describe, evaluate
from .nnls import solve_nnls
from .recorder import (
    LogRecord,
    LogWriter,
    RecorderConfig,
    load_log,
    run_loop,
    sample_once,
    write_log,
)
from .simulator import (
    NoiseModel,
    Scenario,
    ScheduleEvent,
    EventKind,
    TABLE1_APPS,
    load_scenario,
    save_scenario,
    simulate,
    table1_scenario,
)
from .sources import (
    AppSet,
    BatteryHealth,
    BatterySample,
    BatteryStatus,
    FileTreeSource,
    make_app_set,
)

__version__ = "0.1.0"
