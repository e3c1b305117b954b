"""Serving resilience: deadlines, shedding, breaker, fault injection.

The building blocks that keep the serving stack (``repro serve``)
standing under real traffic:

* :mod:`repro.resilience.deadline` — request deadlines with cooperative
  cancellation at pipeline and batch boundaries;
* :mod:`repro.resilience.admission` — a bounded admission queue that
  sheds excess load instead of queueing unboundedly;
* :mod:`repro.resilience.breaker` — a circuit breaker that fast-fails
  while the engine is unhealthy and probes its way back;
* :mod:`repro.resilience.faults` — deterministic serving-path fault
  injection, so every behaviour above is provoked on demand in tests.
"""

from repro.resilience.admission import AdmissionController, LoadShedError
from repro.resilience.breaker import CircuitBreaker
from repro.resilience.deadline import (
    Deadline,
    DeadlineExceeded,
    current_deadline,
    deadline_scope,
)
from repro.resilience.faults import InjectedServingFault, ServingFaultInjector

__all__ = [
    "AdmissionController",
    "CircuitBreaker",
    "Deadline",
    "DeadlineExceeded",
    "InjectedServingFault",
    "LoadShedError",
    "ServingFaultInjector",
    "current_deadline",
    "deadline_scope",
]
