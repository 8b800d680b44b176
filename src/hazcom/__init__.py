"""Context-aware hazard triage and alert routing.

A deterministic policy core maps (hazard, context) to a graded, routed
communication; an event-loop engine adds latency budgeting, priority
scheduling, and a fallback path; a scenario harness reproduces the
canonical situations and scores effectiveness.

Each public name loads its submodule when it is first read, so a process
pays only for the modules it uses: making scenarios never loads the engine.
"""

import sys
from importlib import import_module
from types import ModuleType

__version__ = "0.1.0"

# Each public name and the submodule that defines it.
_EXPORTS = {
    "clock": ("TICKS_PER_SECOND", "VirtualClock", "WallClock"),
    "core": (
        "BackendError", "BackendResponseError", "BackendTimeout", "BackendTransportError",
        "Channel", "CHANNEL_ORDER", "Character", "CommOutput", "ConfigurationError",
        "ContextFactors", "Criticality", "CrowdDensity", "EnvContext", "Feasibility",
        "HazardCategory", "InjectedFault", "LocationType", "MessageTuple", "RiskScore",
        "TemplateTable", "TimeSensitivity", "ValidationError", "alarm_for",
        "assemble_output", "band_risk", "character_for", "compose_message",
        "recipients_for", "tone_for",
    ),
    "dispatch": ("DeliveryRecord", "MemorySink", "dispatch", "memory_registry"),
    "engine": (
        "Engine", "EngineConfig", "PendingQueue", "StageTimers", "StepResult",
        "TraceRecord", "fallback_output", "read_trace", "write_trace",
    ),
    "harness": ("SuiteReport", "run_suite"),
    "metrics": (
        "LossAccount", "SubMetrics", "coordination_success", "detection_accuracy",
        "effectiveness", "latency_compliance", "message_alignment", "objective_loss",
    ),
    "oracle": ("Violation", "oracle_verify"),
    "perception": (
        "Backend", "Entity", "FaultInjectingBackend", "FaultProfile", "HazardAssessment",
        "LocationBaselineBackend", "ObjectBaselineBackend", "Observation", "RemoteBackend",
        "RuleTable", "ScriptedBackend", "baseline_location_assess", "baseline_object_assess",
        "builtin_rule_table", "scripted_assess",
    ),
    "scenarios": (
        "MixConfig", "Scenario", "StepTruth", "builtin_suite", "generate",
        "load_scenarios", "save_scenarios", "sixty_run_suite",
    ),
}
_MODULE_OF = {name: module for module, names in _EXPORTS.items() for name in names}

__all__ = list(_MODULE_OF)


def __getattr__(name: str):
    """Load a public name, or a submodule, on its first read."""
    module = _MODULE_OF.get(name)
    if module is not None:
        value = getattr(import_module(f".{module}", __name__), name)
    elif name in _EXPORTS:
        value = import_module(f".{name}", __name__)
    else:
        raise AttributeError(f"module {__name__!r} has no attribute {name!r}")
    globals()[name] = value
    return value


def __dir__() -> list[str]:
    return sorted({*globals(), *__all__, *_EXPORTS})


class _Package(ModuleType):
    """The package, whose ``dispatch`` stays the function: the import system
    binds each submodule on its package as it loads, and the ``dispatch``
    submodule would otherwise replace the function of the same name."""

    def __setattr__(self, name: str, value) -> None:
        if name == "dispatch" and isinstance(value, ModuleType):
            value = value.dispatch
        super().__setattr__(name, value)


sys.modules[__name__].__class__ = _Package
