"""Context-aware hazard triage and alert routing.

A deterministic policy core maps (hazard, context) to a graded, routed
communication; an event-loop engine adds latency budgeting, priority
scheduling, and a fallback path; a scenario harness reproduces the
canonical situations and scores effectiveness.
"""

from .clock import TICKS_PER_SECOND, VirtualClock, WallClock
from .core import (
    Channel,
    CHANNEL_ORDER,
    Character,
    CommOutput,
    ConfigurationError,
    ContextFactors,
    Criticality,
    CrowdDensity,
    EnvContext,
    Feasibility,
    HazardCategory,
    LocationType,
    MessageTuple,
    RiskScore,
    TemplateTable,
    TimeSensitivity,
    ValidationError,
    alarm_for,
    assemble_output,
    band_risk,
    character_for,
    compose_message,
    recipients_for,
    tone_for,
)
from .dispatch import (
    DeliveryRecord,
    MemorySink,
    dispatch,
    memory_registry,
)
from .engine import (
    Engine,
    EngineConfig,
    PendingQueue,
    StageTimers,
    StepResult,
    TraceRecord,
    fallback_output,
    read_trace,
    write_trace,
)
from .harness import (
    MixConfig,
    Scenario,
    SuiteReport,
    builtin_suite,
    generate,
    load_scenarios,
    run_suite,
    save_scenarios,
    sixty_run_suite,
)
from .metrics import (
    LossAccount,
    StepTruth,
    SubMetrics,
    coordination_success,
    detection_accuracy,
    effectiveness,
    latency_compliance,
    message_alignment,
    objective_loss,
)
from .oracle import Violation, oracle_verify
from .perception import (
    Backend,
    BackendError,
    BackendResponseError,
    BackendTimeout,
    BackendTransportError,
    Entity,
    FaultInjectingBackend,
    FaultProfile,
    HazardAssessment,
    InjectedFault,
    LocationBaselineBackend,
    ObjectBaselineBackend,
    Observation,
    RemoteBackend,
    RuleTable,
    ScriptedBackend,
    baseline_location_assess,
    baseline_object_assess,
    builtin_rule_table,
    scripted_assess,
)

__version__ = "0.1.0"
