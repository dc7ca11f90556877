"""End-to-end fabric behavior: delivery, conservation, ECMP spread,
TTL, buffers, and error handling."""

import pytest

from repro.errors import ConfigurationError
from repro.net import Fabric, leaf_spine
from repro.net.topology import Topology
from repro.sim.generators import CbrGenerator
from repro.sim.link import gbps
from repro.sim.packet import MTU_BYTES, reset_packet_ids


def _fabric(**kwargs):
    reset_packet_ids(0)
    topo = leaf_spine(leaves=2, spines=2, hosts_per_leaf=2)
    return Fabric(topo, **kwargs)


class TestDelivery:
    def test_flow_completes_with_unit_slowdown_when_idle(self):
        fabric = _fabric(record_path=True)
        flow_id = fabric.open_flow("h0", "h3", 10 * MTU_BYTES)
        fabric.sim.run()
        record = fabric.collector.flows[flow_id]
        assert record.completed
        assert record.slowdown == pytest.approx(1.0, rel=1e-9)
        # Routed host -> leaf -> spine -> leaf -> host.
        assert record.path[0] == "h0" and record.path[-1] == "h3"
        assert len(record.path) == 5

    def test_packet_path_provenance_matches_precomputed(self):
        fabric = _fabric(record_path=True)
        fabric.open_flow("h0", "h2", 3 * MTU_BYTES)
        fabric.sim.run()
        record = next(iter(fabric.collector.flows.values()))
        assert record.path[1].startswith("l")
        assert record.path[2].startswith("sp")

    def test_same_leaf_skips_spine(self):
        fabric = _fabric(record_path=True)
        flow_id = fabric.open_flow("h0", "h1", MTU_BYTES)
        fabric.sim.run()
        assert fabric.collector.flows[flow_id].path == \
            ["h0", "l0", "h1"]

    def test_conservation_balances_across_all_nodes(self):
        fabric = _fabric()
        for src, dst in (("h0", "h3"), ("h1", "h2"), ("h2", "h0")):
            fabric.open_flow(src, dst, 20 * MTU_BYTES)
        fabric.sim.run()
        snapshot = fabric.conservation()
        assert snapshot["balanced"]
        assert snapshot["drops"] == 0
        assert snapshot["arrivals"] == snapshot["departures"]
        assert set(snapshot["nodes"]) == \
            set(fabric.hosts) | set(fabric.switches)

    def test_no_reordering(self):
        fabric = _fabric()
        for index in range(8):
            fabric.open_flow("h0", "h3", 30 * MTU_BYTES,
                             sport=index)
        fabric.sim.run()
        assert fabric.collector.reordered_total() == 0

    def test_ecmp_spreads_flows_across_spines(self):
        fabric = _fabric(record_path=True)
        for index in range(32):
            fabric.open_flow("h0", "h3", MTU_BYTES, sport=index)
        fabric.sim.run()
        spines = {record.path[2]
                  for record in fabric.collector.flows.values()}
        assert spines == {"sp0", "sp1"}

    def test_ecmp_choice_is_per_flow_constant(self):
        fabric = _fabric(record_path=True)
        flow_id = fabric.open_flow("h0", "h3", 50 * MTU_BYTES)
        fabric.sim.run()
        record = fabric.collector.flows[flow_id]
        # Every packet of the flow took the recorded path: delivered
        # in order with no residue anywhere.
        assert record.packets_delivered == 50
        assert record.reordered == 0


class TestTtl:
    def test_ttl_expiry_drops_and_counts(self):
        fabric = _fabric(ttl=2)  # expires at the second switch
        fabric.open_flow("h0", "h3", 5 * MTU_BYTES)
        fabric.sim.run()
        assert fabric.ttl_drops() == 5
        assert not next(iter(
            fabric.collector.flows.values())).completed
        # TTL drops do not unbalance conservation.
        assert fabric.conservation()["balanced"]

    def test_generous_ttl_reaches_destination(self):
        fabric = _fabric(ttl=4)  # three switch hops on this path
        flow_id = fabric.open_flow("h0", "h3", MTU_BYTES)
        fabric.sim.run()
        assert fabric.collector.flows[flow_id].completed


class TestBuffers:
    def test_shared_buffer_drops_under_incast(self):
        fabric = _fabric(buffer_bytes=4 * MTU_BYTES)
        for index, src in enumerate(("h0", "h1", "h2")):
            fabric.open_flow(src, "h3", 60 * MTU_BYTES, sport=index)
        fabric.sim.run()
        snapshot = fabric.conservation()
        assert snapshot["drops"] > 0
        assert snapshot["balanced"]

    def test_dropped_flows_never_finish(self):
        fabric = _fabric(buffer_bytes=4 * MTU_BYTES)
        ids = [fabric.open_flow(src, "h3", 60 * MTU_BYTES)
               for src in ("h0", "h1", "h2")]
        fabric.sim.run()
        incomplete = [flow_id for flow_id in ids
                      if not fabric.collector.flows[flow_id].completed]
        assert incomplete


class TestStream:
    def test_generator_driven_flow(self):
        fabric = _fabric()
        flow_id, sink = fabric.stream("h0", "h3")
        generator = CbrGenerator(fabric.sim, flow_id, sink,
                                 rate_bps=gbps(1),
                                 size_bytes=MTU_BYTES,
                                 end_time=0.001)
        generator.start(0.0)
        fabric.sim.run()
        assert fabric.hosts["h3"].received_pkts > 0
        assert fabric.conservation()["balanced"]


class TestErrors:
    def test_unknown_endpoint(self):
        fabric = _fabric()
        with pytest.raises(ConfigurationError):
            fabric.open_flow("h0", "ghost", MTU_BYTES)
        with pytest.raises(ConfigurationError):
            fabric.open_flow("l0", "h3", MTU_BYTES)

    def test_self_flow_rejected(self):
        fabric = _fabric()
        with pytest.raises(ConfigurationError):
            fabric.open_flow("h0", "h0", MTU_BYTES)

    def test_duplicate_flow_id_rejected(self):
        fabric = _fabric()
        fabric.open_flow("h0", "h3", MTU_BYTES, flow_id="dup")
        with pytest.raises(ConfigurationError):
            fabric.open_flow("h1", "h3", MTU_BYTES, flow_id="dup")

    def test_nonpositive_flow_size_rejected(self):
        fabric = _fabric()
        with pytest.raises(ConfigurationError):
            fabric.open_flow("h0", "h3", 0)

    def test_flow_ids_are_dot_free(self):
        fabric = _fabric()
        flow_id = fabric.open_flow("h0", "h3", MTU_BYTES)
        assert "." not in flow_id


class TestCustomTopologyValidation:
    def test_multi_homed_host_rejected(self):
        topo = Topology()
        topo.add_host("h0")
        topo.add_host("h1")
        topo.add_switch("a")
        topo.add_switch("b")
        topo.add_link("h0", "a", rate_bps=gbps(10))
        topo.add_link("h0", "b", rate_bps=gbps(10))
        topo.add_link("h1", "a", rate_bps=gbps(10))
        with pytest.raises(ConfigurationError):
            Fabric(topo)


class TestBufferBelowMtuRejected:
    def test_fabric_buffer_smaller_than_mtu_fails_at_build(self):
        with pytest.raises(ConfigurationError, match="smaller than one"):
            _fabric(buffer_bytes=MTU_BYTES - 1)

    def test_fabric_buffer_of_one_mtu_builds_and_delivers(self):
        fabric = _fabric(buffer_bytes=MTU_BYTES)
        flow_id = fabric.open_flow("h0", "h3", 3 * MTU_BYTES)
        fabric.sim.run()
        assert fabric.collector.flows[flow_id].completed
