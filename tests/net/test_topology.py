"""Topology container and the leaf-spine/fat-tree builders."""

import pytest

from repro.errors import ConfigurationError
from repro.net.topology import Topology, fat_tree, leaf_spine
from repro.sim.link import gbps


class TestTopology:
    def test_add_and_lookup(self):
        topo = Topology()
        topo.add_host("h0")
        topo.add_switch("s0")
        topo.add_link("h0", "s0", rate_bps=gbps(10), delay_s=2e-6)
        assert topo.link("h0", "s0").rate_bps == gbps(10)
        assert topo.link("s0", "h0").delay_s == 2e-6
        assert topo.neighbors("h0") == ["s0"]
        assert topo.nodes() == ["h0", "s0"]
        topo.validate()

    def test_duplicate_node_rejected(self):
        topo = Topology()
        topo.add_host("x")
        with pytest.raises(ConfigurationError):
            topo.add_host("x")
        with pytest.raises(ConfigurationError):
            topo.add_switch("x")

    def test_duplicate_link_rejected(self):
        topo = Topology()
        topo.add_switch("a")
        topo.add_switch("b")
        topo.add_link("a", "b", rate_bps=gbps(10))
        with pytest.raises(ConfigurationError):
            topo.add_link("a", "b", rate_bps=gbps(10))

    def test_link_between_unknown_nodes_rejected(self):
        topo = Topology()
        topo.add_switch("a")
        with pytest.raises(ConfigurationError):
            topo.add_link("a", "ghost", rate_bps=gbps(10))

    def test_missing_link_raises(self):
        topo = Topology()
        topo.add_switch("a")
        topo.add_switch("b")
        with pytest.raises(ConfigurationError):
            topo.link("a", "b")

    def test_isolated_host_fails_validation(self):
        topo = Topology()
        topo.add_host("h0")
        with pytest.raises(ConfigurationError):
            topo.validate()

    def test_bad_link_parameters(self):
        topo = Topology()
        topo.add_host("h")
        topo.add_switch("s")
        with pytest.raises(ConfigurationError):
            topo.add_link("h", "s", rate_bps=0)
        with pytest.raises(ConfigurationError):
            topo.add_link("h", "s", rate_bps=gbps(1), delay_s=-1e-6)


class TestBuilders:
    def test_leaf_spine_shape(self):
        topo = leaf_spine(leaves=3, spines=2, hosts_per_leaf=2)
        assert len(topo.hosts) == 6
        leaves = [s for s in topo.switches if s.startswith("l")]
        spines = [s for s in topo.switches if s.startswith("sp")]
        assert len(leaves) == 3 and len(spines) == 2
        # Full mesh between tiers.
        for leaf in leaves:
            for spine in spines:
                assert topo.link(leaf, spine) is not None
        # Hosts are packed onto leaves in order.
        assert "l0" in topo.neighbors("h0")
        assert "l2" in topo.neighbors("h5")

    def test_fat_tree_k4(self):
        topo = fat_tree(k=4)
        # k^3/4 hosts, k^2/4 cores, k pods x k/2 agg + k/2 edge.
        assert len(topo.hosts) == 16
        assert len([s for s in topo.switches
                    if s.startswith("c")]) == 4
        assert len(topo.switches) == 4 + 4 * 4
        topo.validate()

    def test_fat_tree_odd_k_rejected(self):
        with pytest.raises(ConfigurationError):
            fat_tree(k=3)
