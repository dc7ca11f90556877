"""Executable scheduling-spec conformance for the Section 4 catalogue.

The repo's differential suites prove backends agree with *each other*;
this package proves the algorithms agree with the *scheduling theory*
they implement.  Three layers:

* :mod:`repro.conformance.oracle` — fluid reference models: an
  event-driven GPS (Generalized Processor Sharing) integrator
  producing per-packet ideal finish times, and a conservative
  token-bucket level reconstruction.
* :mod:`repro.conformance.checkers` — invariant checkers (work
  conservation, per-flow FIFO, GPS-relative delay bounds, fairness
  envelopes, token-bucket conformance, priority-inversion detection,
  idle legality, TDMA slot legality) consuming a Tracer event stream
  and returning structured :class:`~repro.conformance.checkers.Violation`
  records.
* :mod:`repro.conformance.metamorphic` — semantics-preserving scenario
  transforms (rate/size scaling, flow permutation, time translation,
  backend substitution) asserting verdicts are preserved.

``python -m repro.conformance`` exposes ``check | sweep | report``;
the applicable checker set per algorithm comes from the
:class:`~repro.sched.spec.AlgorithmSpec` attached to each registry
entry.
"""

from repro._lazy import lazy_namespace

_EXPORTS = {
    "repro.conformance.checkers": ("CHECKERS", "ConformanceRun",
                                   "Violation"),
    "repro.conformance.metamorphic": ("TRANSFORMS", "apply_transform",
                                      "metamorphic_verdicts"),
    "repro.conformance.oracle": ("GpsResult", "gps_finish_times",
                                 "token_bucket_violations"),
    "repro.conformance.runner": ("CheckOutcome", "ConformanceReport",
                                 "check_algorithm", "check_trace",
                                 "run_scenario"),
    "repro.conformance.scenarios": ("SCENARIOS", "FlowSpec", "Scenario",
                                    "make_scenario"),
}

__all__, __getattr__, __dir__ = lazy_namespace(__name__, _EXPORTS)
