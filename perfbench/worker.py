"""One run of one workload in a fresh process.

Usage (from ``run.py``; the argument is one JSON object)::

    python3 perfbench/worker.py '{"workload": "hier", "seed": 0,
        "mode": "untraced", "scale": 1.0, "src": "<checkout>/src"}'

``mode`` is ``untraced`` (end-to-end metrics), ``traced`` (span
timers, per-layer self time) or ``count`` (exact call counts).  The
worker prints one JSON line: packets, digest, simulated outputs, failed
checks and the mode's metrics.  Set-up time runs from before
``repro`` is imported to the first simulated event.
"""

import json
import os
import resource
import statistics
import sys
import time

import ladder
import workloads


#: :func:`host_speed` of the reference host (a 2-vCPU Xeon VM with no
#: other load on its cores); normalized times are times on that host.
REFERENCE_SPEED = 2.0
#: :func:`host_speed` samples taken before and after each timed run.
SPEED_SAMPLES = 3


def _per_pkt(value: float, packets: int) -> float:
    return value / packets if packets else 0.0


def _traced_metrics(spans: ladder.SpanLadder, outcome, wall_s: float):
    packets = outcome.packets
    corrected = spans.corrected_ns()
    metrics = {f"{layer}.self_ns_per_pkt": _per_pkt(corrected[layer],
                                                    packets)
               for layer in ladder.LAYERS}
    for name, layer, count in (
            ("core.ns_per_op", "core", spans.spans["core"]),
            ("sched.ns_per_call", "sched", spans.spans["sched"]),
            ("sim.events.ns_per_event", "sim.events",
             outcome.events_fired)):
        metrics[name] = corrected[layer] / count if count else 0.0
    metrics["traced_wall_s"] = wall_s
    metrics["attributed_s"] = sum(corrected.values()) / 1e9
    return metrics


def _count_metrics(counter: ladder.CallCounter, outcome, src: str):
    from repro.core.backends import available_backends, make_list
    from repro.sched.framework import PieoScheduler
    from repro.sched.hierarchical import HierarchicalScheduler
    from repro.sim.buffer import BufferManager
    from repro.sim.events import Simulator

    packets = outcome.packets
    list_ops = [getattr(type(make_list(name, capacity=64)), op)
                for name in available_backends()
                for op in ("enqueue", "dequeue", "dequeue_flow")]
    sched_calls = [getattr(cls, op)
                   for cls in (PieoScheduler, HierarchicalScheduler)
                   for op in ("schedule", "on_arrival")]
    admits = counter.of([BufferManager.admit])
    admitted = sum(buffer.admitted for buffer in outcome.buffers)
    metrics = {
        "core.ops_per_pkt": _per_pkt(counter.of(list_ops), packets),
        "sched.calls_per_pkt": _per_pkt(counter.of(sched_calls), packets),
        "sched.decisions_per_pkt": _per_pkt(
            counter.named("post_dequeue",
                          os.path.join(src, "repro", "sched")), packets),
        "sim.events.fired_per_pkt": _per_pkt(outcome.events_fired,
                                             packets),
        "sim.events.scheduled_per_pkt": _per_pkt(
            counter.of([Simulator.schedule]), packets),
        "sim.buffer.admits_per_pkt": _per_pkt(admits, packets),
        "sim.buffer.drop_frac": _per_pkt(
            sum(buffer.dropped for buffer in outcome.buffers), admits),
        "sim.buffer.evict_frac": _per_pkt(
            sum(buffer.evicted for buffer in outcome.buffers), admitted),
        "net.hops_per_pkt": outcome.hops_per_pkt,
        "obs.events_per_pkt": _per_pkt(outcome.trace_events, packets),
    }
    by_layer = counter.by_layer(src)
    metrics["py.calls_per_pkt"] = _per_pkt(sum(by_layer.values()),
                                           packets)
    for layer, calls in by_layer.items():
        metrics[f"py.calls_per_pkt.{layer}"] = _per_pkt(calls, packets)
    return metrics


def host_speed(items: int = 15_000) -> float:
    """Mitems/s of a fixed pure-Python mix: a sort through a key
    function, then dict updates keyed by strings.

    It shares no code with the simulator, so a change to the simulator
    does not move it, and it slows down with the host about as much as
    the simulator does.
    """
    state = 12345
    pairs = []
    for _ in range(items):
        state = (1103515245 * state + 12345) % 2147483648
        pairs.append((state, str(state)))
    start = time.perf_counter()
    sorted(pairs, key=lambda pair: pair[1])
    totals: dict = {}
    for value, text in pairs:
        totals[text] = totals.get(text, 0) + value
    return items / (time.perf_counter() - start) / 1e6


def _speed_samples() -> list:
    return [host_speed() for _ in range(SPEED_SAMPLES)]


def measure(workload: str, seed: int, mode: str, scale: float,
            src: str) -> dict:
    """Run ``workload`` once in this process and report on it.

    Times are normalized to :data:`REFERENCE_SPEED`: each is multiplied
    by the median :func:`host_speed` measured before set-up and as the
    run ends, over the reference.  The raw values are reported too.
    """
    timed = mode != "count"
    # Sampled before ``repro`` is imported: the samples' garbage then
    # sits in memory the run reuses, not on top of its peak RSS.
    samples = _speed_samples() if timed else []
    started = time.perf_counter()
    patches = ladder.Patches()
    marks: dict = {}
    spans = counter = None
    if mode == "traced":
        spans = ladder.SpanLadder()
        spans.calibrate()
        spans.install(patches)
    elif mode == "count":
        counter = ladder.CallCounter()

    def on_start():
        if "start" not in marks:
            marks["start"] = time.perf_counter()
        if counter is not None:
            counter.start()

    def on_end():
        if counter is not None:
            counter.stop()
        marks["end"] = time.perf_counter()
        marks["peak_rss_mb"] = resource.getrusage(
            resource.RUSAGE_SELF).ru_maxrss / 1024
        # After the peak is read: the samples allocate.
        marks["samples"] = _speed_samples() if timed else []

    ladder.stamp_runs(patches, on_start, on_end)
    try:
        outcome = workloads.run(workload, seed, scale)
    finally:
        patches.restore()
    wall_s = marks["end"] - marks["start"]
    problems = list(outcome.problems)
    loaded_from = os.path.dirname(os.path.dirname(
        sys.modules["repro"].__file__))
    if os.path.realpath(loaded_from) != os.path.realpath(src):
        problems.append(f"repro was imported from {loaded_from}, "
                        f"not {src}")
    if mode == "count":
        metrics = _count_metrics(counter, outcome, src)
    else:
        speed = statistics.median(samples + marks["samples"])
        factor = speed / REFERENCE_SPEED
        setup_s = marks["start"] - started
        if mode == "untraced":
            metrics = {"pkts_per_s": outcome.packets / wall_s / factor,
                       "setup_s": setup_s * factor,
                       "peak_rss_mb": marks["peak_rss_mb"],
                       "wall_s": wall_s * factor,
                       "raw_pkts_per_s": outcome.packets / wall_s,
                       "raw_setup_s": setup_s}
        else:
            metrics = {name: value * factor for name, value in
                       _traced_metrics(spans, outcome, wall_s).items()}
        metrics["host_speed"] = speed
    return {"packets": outcome.packets, "digest": outcome.digest,
            "outputs": outcome.outputs, "problems": problems,
            "metrics": metrics}


def main(argv) -> int:
    spec = json.loads(argv[1])
    result = measure(spec["workload"], spec["seed"], spec["mode"],
                     spec["scale"], spec["src"])
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv))
