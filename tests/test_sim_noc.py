"""Unit tests for the mesh NoC model."""

import pytest

from repro.sim.noc import MeshNoC, NocParams


class TestTopology:
    def test_square_for_sizes(self):
        assert MeshNoC.square_for(64).n_nodes == 64
        noc = MeshNoC.square_for(10)
        assert noc.n_nodes >= 10

    def test_coords_row_major(self):
        noc = MeshNoC(4, 4)
        assert noc.coords(0) == (0, 0)
        assert noc.coords(5) == (1, 1)
        assert noc.coords(15) == (3, 3)

    def test_hops_manhattan(self):
        noc = MeshNoC(4, 4)
        assert noc.hops(0, 0) == 0
        assert noc.hops(0, 15) == 6
        assert noc.hops(0, 3) == 3

    def test_hops_symmetric(self):
        noc = MeshNoC(5, 3)
        for s in range(noc.n_nodes):
            for d in range(noc.n_nodes):
                assert noc.hops(s, d) == noc.hops(d, s)

    def test_invalid_node_rejected(self):
        noc = MeshNoC(2, 2)
        with pytest.raises(ValueError):
            noc.coords(4)

    def test_invalid_dimensions_rejected(self):
        with pytest.raises(ValueError):
            MeshNoC(0, 4)

    def test_avg_hops_grows_with_mesh(self):
        assert MeshNoC(8, 8).avg_hops() > MeshNoC(4, 4).avg_hops()


class TestTraffic:
    def test_flits_for_bytes(self):
        noc = MeshNoC(2, 2, NocParams(flit_bytes=16))
        assert noc.flits_for_bytes(0) == 1  # header flit minimum
        assert noc.flits_for_bytes(16) == 1
        assert noc.flits_for_bytes(17) == 2
        assert noc.flits_for_bytes(64) == 4

    def test_send_accumulates_stats(self):
        noc = MeshNoC(4, 4)
        noc.send(0, 15, 64, kind="data")
        assert noc.stats.get("messages") == 1
        assert noc.stats.get("flit_hops") == 4 * 6
        assert noc.stats.get("flit_hops.data") == 24
        assert noc.total_energy_j > 0

    def test_send_latency_grows_with_distance(self):
        noc = MeshNoC(8, 8)
        near = noc.send(0, 1, 64)
        far = noc.send(0, 63, 64)
        assert far > near

    def test_local_message_still_counts_one_hop_of_flits(self):
        noc = MeshNoC(2, 2)
        noc.send(1, 1, 32)
        assert noc.stats.get("flit_hops") >= 1

    def test_traffic_kinds_partition(self):
        noc = MeshNoC(4, 4)
        noc.send(0, 5, 64, kind="data")
        noc.send(0, 5, 8, kind="coherence")
        total = noc.stats.get("flit_hops")
        parts = noc.stats.get("flit_hops.data") + noc.stats.get("flit_hops.coherence")
        assert total == pytest.approx(parts)

    def test_negative_bytes_rejected(self):
        noc = MeshNoC(2, 2)
        with pytest.raises(ValueError):
            noc.flits_for_bytes(-1)

    @pytest.mark.parametrize("src,dst,nbytes", [(4, 0, 8), (0, -1, 8), (0, 1, -1)])
    def test_send_rejects_bad_nodes_and_sizes_before_counting(self, src, dst, nbytes):
        noc = MeshNoC(2, 2)
        noc.send(0, 3, 8)
        before = noc.stats.as_dict()
        with pytest.raises(ValueError):
            noc.send(src, dst, nbytes)
        assert noc.stats.as_dict() == before

    def test_send_counters_are_ints_and_energy_adds_per_message(self):
        """Flit, flit-hop and byte counters stay ints (digests hash them),
        and energy is one float add per message, in message order."""
        noc = MeshNoC(4, 4)
        energy = 0.0
        for src, dst, nbytes in ((0, 15, 72), (5, 5, 8), (3, 12, 72), (0, 15, 72)):
            noc.send(src, dst, nbytes, kind="data")
            flit_hops = noc.flits_for_bytes(nbytes) * max(noc.hops(src, dst), 1)
            energy += flit_hops * noc.params.energy_per_flit_hop_pj * 1e-12
        for key in ("flits", "flit_hops", "flit_hops.data", "bytes"):
            assert type(noc.stats.get(key)) is int, key
        assert noc.stats.get("flit_hops") == 5 * 6 + 1 + 5 * 6 + 5 * 6
        assert noc.total_energy_j == energy
