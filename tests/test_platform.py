"""Unit tests for the platform model."""

import math

import pytest

from repro.errors import ConfigurationError, PlacementError, SimulationError
from repro.platform.builder import paper_testbed, single_socket_node
from repro.platform.interconnect import UpiLink
from repro.platform.topology import CorePool, Node, Socket
from repro.pmem.calibration import DEFAULT_CALIBRATION
from repro.pmem.device import OptaneDevice
from repro.sim.flow import CapacityResource, Flow, ResourceLoad, solve_flow_set
from repro.units import MB, GiB


class TestCorePool:
    def test_allocate_and_release(self):
        pool = CorePool(0, 4)
        cores = pool.allocate(3, owner="writer")
        assert cores == [0, 1, 2]
        assert pool.available == 1
        pool.release(cores)
        assert pool.available == 4

    def test_over_allocation_raises(self):
        pool = CorePool(0, 4)
        with pytest.raises(PlacementError, match="only 4"):
            pool.allocate(5)

    def test_negative_allocation_raises(self):
        with pytest.raises(PlacementError):
            CorePool(0, 4).allocate(-1)

    def test_double_release_raises(self):
        pool = CorePool(0, 4)
        cores = pool.allocate(1)
        pool.release(cores)
        with pytest.raises(PlacementError):
            pool.release(cores)

    def test_owner_tracking(self):
        pool = CorePool(0, 4)
        pool.allocate(2, owner="writer")
        assert pool.owner_of(0) == "writer"
        with pytest.raises(PlacementError):
            pool.owner_of(3)

    def test_zero_cores_rejected(self):
        with pytest.raises(ConfigurationError):
            CorePool(0, 0)

    def test_released_cores_reused_in_order(self):
        pool = CorePool(0, 4)
        first = pool.allocate(2)
        pool.release(first)
        assert pool.allocate(2) == [0, 1]


class TestNode:
    def make_node(self):
        sockets = [
            Socket(socket_id=i, n_cores=28, pmem=OptaneDevice(socket_id=i))
            for i in range(2)
        ]
        return Node(sockets, upi_bandwidth=30e9)

    def test_socket_lookup(self):
        node = self.make_node()
        assert node.socket(1).socket_id == 1

    def test_socket_out_of_range(self):
        with pytest.raises(ConfigurationError):
            self.make_node().socket(2)

    def test_misnumbered_sockets_rejected(self):
        socket = Socket(socket_id=1, n_cores=4, pmem=OptaneDevice(socket_id=1))
        with pytest.raises(ConfigurationError):
            Node([socket], upi_bandwidth=30e9)

    def test_empty_node_rejected(self):
        with pytest.raises(ConfigurationError):
            Node([], upi_bandwidth=30e9)

    def test_local_flow_path(self):
        node = self.make_node()
        path, remote = node.flow_path(0, 0)
        assert not remote
        assert len(path) == 1
        assert path[0] is node.socket(0).pmem.resource

    def test_remote_flow_path_includes_upi(self):
        node = self.make_node()
        path, remote = node.flow_path(0, 1)
        assert remote
        assert node.socket(1).pmem.resource in path
        assert node.upi(0, 1) in path

    def test_upi_symmetric(self):
        node = self.make_node()
        assert node.upi(0, 1) is node.upi(1, 0)

    def test_upi_self_link_rejected(self):
        with pytest.raises(ConfigurationError):
            self.make_node().upi(0, 0)


class TestBuilders:
    def test_paper_testbed_shape(self):
        """§V: dual socket, 28 cores each, 6 x 512 GB Optane per socket."""
        node = paper_testbed()
        assert node.n_sockets == 2
        for socket in node.sockets:
            assert socket.n_cores == 28
            assert socket.pmem.capacity_bytes == 6 * 512 * GiB

    def test_paper_testbed_uses_calibration(self):
        cal = DEFAULT_CALIBRATION.replace(local_read_peak=40e9)
        node = paper_testbed(cal=cal)
        assert node.socket(0).pmem.cal.local_read_peak == 40e9

    def test_single_socket_node(self):
        node = single_socket_node(cores=8)
        assert node.n_sockets == 1
        assert node.socket(0).n_cores == 8

    def test_upi_capacity_from_calibration(self):
        node = paper_testbed()
        from repro.sim.flow import ResourceLoad

        assert node.upi(0, 1).capacity(ResourceLoad()) == pytest.approx(
            DEFAULT_CALIBRATION.upi_bandwidth
        )


class TestUpiShare:
    """``UpiLink.share`` is a shortcut for the inherited processor-sharing
    policy: it must return the very same float."""

    @pytest.mark.parametrize("bandwidth", [20.8e9, 1.0, 3.0, math.inf])
    def test_share_matches_inherited_policy_bit_for_bit(self, bandwidth):
        link = UpiLink(0, 1, bandwidth)
        flow = Flow(nbytes=1.0, kind="read", remote=True, resources=(link,))
        values = [0.0, 1e-6, 0.25, 0.5, 1.0, 1.0 + 2**-52, 1.5, 7.3, 24.0]
        for n_read in values:
            for n_write in values:
                load = ResourceLoad(
                    n_read_local=n_read / 3,
                    n_read_remote=n_read - n_read / 3,
                    n_write_local=n_write / 7,
                    n_write_remote=n_write - n_write / 7,
                )
                fast = link.share(load, flow)
                inherited = CapacityResource.share(link, load, flow)
                assert fast.hex() == inherited.hex(), (n_read, n_write)

    def test_share_projects_no_flow_field(self):
        assert UpiLink.share_signature_fields == ()
        assert UpiLink.share_projector(object()) == ()

    @pytest.mark.parametrize("bandwidth", [-1.0, math.nan])
    def test_invalid_bandwidth_still_raises(self, bandwidth):
        link = UpiLink(0, 1, 1e9)
        flow = Flow(nbytes=1.0, kind="read", remote=True, resources=(link,))
        link.bandwidth = bandwidth
        with pytest.raises(SimulationError, match="upi"):
            link.share(ResourceLoad(n_read_remote=1.0), flow)
        with pytest.raises(SimulationError, match="upi"):
            link.capacity(ResourceLoad())


class TestUpiBinding:
    """``upi_bandwidth`` is what a pooled cross-socket read load gets.

    No paper cell drives the link into its limit, because every Table I
    configuration moves data one way.  16 readers on socket 1 reading
    ``pmem[0]`` plus 16 on socket 0 reading ``pmem[1]`` (4 MB operations)
    do: each device could serve a reader ~1.69 GB/s, but the pooled link
    splits its capacity over all 32.  MEMSYS19 puts that capacity at
    30 GB/s (decimal), so a 10 % change of the constant, or a binary
    ``30 * 2**30``, fails here.
    """

    READERS_PER_DIRECTION = 16
    MEMSYS19_UPI_BYTES_PER_SECOND = 30e9

    def _solve(self):
        node = paper_testbed()
        flows = []
        for cpu_socket, pmem_socket in ((1, 0), (0, 1)):
            path, remote = node.flow_path(cpu_socket, pmem_socket)
            for index in range(self.READERS_PER_DIRECTION):
                flows.append(
                    Flow(
                        nbytes=1e12,
                        kind="read",
                        remote=remote,
                        resources=path,
                        op_bytes=4 * MB,
                        label=f"read pmem[{pmem_socket}] from cpu[{cpu_socket}] #{index}",
                    )
                )
        return node, flows, solve_flow_set(flows)

    def test_pooled_link_rate_is_memsys19_bandwidth(self):
        _, flows, result = self._solve()
        assert result.converged
        aggregate = sum(result.rates[flow] for flow in flows)
        assert aggregate == pytest.approx(
            self.MEMSYS19_UPI_BYTES_PER_SECOND, rel=1e-9
        )
        for flow in flows:
            assert result.rates[flow] == pytest.approx(
                self.MEMSYS19_UPI_BYTES_PER_SECOND / len(flows), rel=1e-9
            )

    def test_link_not_device_binds(self):
        node, flows, result = self._solve()
        link = node.upi(0, 1)
        for flow in flows:
            device = flow.resources[0]
            device_share = device.share(result.loads[device], flow)
            link_share = link.share(result.loads[link], flow)
            assert device_share == pytest.approx(1.69e9, rel=5e-3)
            assert link_share < device_share
            assert result.rates[flow] == pytest.approx(link_share, rel=1e-9)
