"""The PIEO programming framework and the paper's scheduling algorithms.

Section 4's catalogue, all expressed through the Pre-Enqueue /
Post-Dequeue / alarm programming functions:

* work conserving: DRR, WFQ, WF2Q+, SFQ (Section 4.1)
* non-work conserving: Token Bucket, RCSP (Section 4.2)
* hierarchical scheduling with logical PIEOs (Section 4.3)
* asynchronous scheduling: priority aging, network feedback (Section 4.4)
* priority scheduling: strict priority, SJF, SRTF, EDF, LSTF (Section 4.5)
"""

from repro._lazy import lazy_namespace

_EXPORTS = {
    "repro.sched.base": ("SchedulingAlgorithm", "TimeBase",
                         "TriggerModel"),
    "repro.sched.control": ("ControlPlane",),
    "repro.sched.drr": ("DeficitRoundRobin",),
    "repro.sched.feedback": ("PAUSE", "RESUME", "FeedbackChannel"),
    "repro.sched.framework": ("PieoScheduler", "SchedulerContext"),
    "repro.sched.hierarchical": ("HierarchicalScheduler",
                                 "LogicalPieoView", "SchedNode",
                                 "two_level_tree"),
    "repro.sched.mlfq": ("MultiLevelFeedbackQueue",),
    "repro.sched.priority": ("EarliestDeadlineFirst",
                             "LeastSlackTimeFirst", "ShortestJobFirst",
                             "ShortestRemainingTimeFirst",
                             "StrictPriority"),
    "repro.sched.rcsp": ("RateControlledStaticPriority",
                         "RateJitterRegulator"),
    "repro.sched.sfq": ("StochasticFairnessQueuing",),
    "repro.sched.starvation": ("AgingStrictPriority",
                               "install_aging_monitor", "starving_flows"),
    "repro.sched.tdma": ("TimeSlotted",),
    "repro.sched.token_bucket": ("TokenBucket",),
    "repro.sched.wf2q": ("WF2Qplus", "WorstCaseFairWeightedFairQueuing"),
    "repro.sched.wfq": ("WeightedFairQueuing",),
    "repro.sched.spec": ("AlgorithmSpec",),
    "repro.sched.registry": ("available_algorithms", "get_algorithm",
                             "get_spec", "make_algorithm",
                             "register_algorithm"),
}

__all__, __getattr__, __dir__ = lazy_namespace(__name__, _EXPORTS)
