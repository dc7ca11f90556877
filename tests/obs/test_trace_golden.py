"""Golden digests of whole JSONL traces.

Each test runs a small traced simulation and compares the sha256 of the
trace it streamed against a recorded digest.  The four runs cover the
plain tracer (hierarchy), ``port``-labelled views over a shared buffer
(incast), ``switch``-labelled views on a fabric (FCT), and the sharded
sweep whose worker lines the parent re-emits through ``absorb_jsonl``
(fig11 at ``jobs=2``).
"""

from __future__ import annotations

import hashlib
import io

from repro.experiments.fct import build_fct_fabric
from repro.experiments.fig11_rate_limit import rate_limit_table
from repro.experiments.hier_common import default_node_rates, run_hierarchy
from repro.experiments.incast import build_incast
from repro.obs import MetricsRegistry, Tracer
from repro.sim.events import Simulator
from repro.sim.packet import reset_packet_ids

# Re-recorded when the simulator stopped tracing its own event queue:
# each trace is the previous one with its ``"scope":"sim"`` timer lines
# removed.
GOLDEN = {
    "hier": "f1633795deb157b1b06f3a701435fba0264589e230d2e689a62a87e00002df24",
    "incast":
        "43719f9d91fedb23bb05bd7dd4e989f36b62dec8821ed3148ab0a094b4553903",
    "fct": "20b2440ab5a9e015cbe07fb910dff56eddd74d5ca9d5664952525b227bcf092d",
    "fig11_jobs2":
        "012057dfaa261d3aec86548dc1c802777f7de72975232b1cb10e1b3cf0f9b15d",
}


def _digest(text: str) -> str:
    return hashlib.sha256(text.encode()).hexdigest()


def _streamed(run, capacity=0) -> tuple:
    """``(jsonl, tracer)`` of ``run(tracer)`` with a streaming tracer."""
    reset_packet_ids(0)
    sink = io.StringIO()
    tracer = Tracer(capacity=capacity, sink=sink)
    run(tracer)
    return sink.getvalue(), tracer


def hier_trace(capacity=0) -> tuple:
    return _streamed(lambda tracer: run_hierarchy(
        default_node_rates(), duration=0.002, tracer=tracer,
        metrics=MetricsRegistry()), capacity)


def incast_trace() -> str:
    def run(tracer):
        sim = Simulator()
        build_incast(sim, buffer_bytes=64 * 1024, ports=4,
                     drop_policy="longest-queue", duration=0.001,
                     tracer=tracer)
        sim.run_until(0.001)
    return _streamed(run)[0]


def fct_trace() -> str:
    return _streamed(lambda tracer: build_fct_fabric(
        0.5, duration=0.0003, seed=0, tracer=tracer).sim.run())[0]


def fig11_sharded_trace() -> str:
    return _streamed(lambda tracer: rate_limit_table(
        duration=0.001, tracer=tracer, jobs=2))[0]


def test_hier_trace_matches_golden():
    text, tracer = hier_trace(capacity=None)
    assert _digest(text) == GOLDEN["hier"]
    # The retained events re-encode to the same bytes.
    assert _digest("".join(line + "\n" for line in tracer.iter_jsonl())) \
        == GOLDEN["hier"]


def test_incast_trace_matches_golden():
    text = incast_trace()
    assert '"port":"p0"' in text and '"kind":"drop"' in text
    assert _digest(text) == GOLDEN["incast"]


def test_fct_trace_matches_golden():
    text = fct_trace()
    assert '"switch":' in text
    assert _digest(text) == GOLDEN["fct"]


def test_sharded_fig11_trace_matches_golden():
    assert _digest(fig11_sharded_trace()) == GOLDEN["fig11_jobs2"]


if __name__ == "__main__":
    print({"hier": _digest(hier_trace()[0]),
           "incast": _digest(incast_trace()),
           "fct": _digest(fct_trace()),
           "fig11_jobs2": _digest(fig11_sharded_trace())})
