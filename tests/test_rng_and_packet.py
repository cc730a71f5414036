"""Tests for random-stream derivation and packet bookkeeping."""

import pytest

from repro.core.low_sensing import LowSensingBackoff
from repro.sim.packet import Packet
from repro.sim.rng import RandomStreams, derive_seed


class TestDeriveSeed:
    def test_deterministic(self):
        assert derive_seed(1, "packet", 3) == derive_seed(1, "packet", 3)

    def test_sensitive_to_master_seed(self):
        assert derive_seed(1, "packet", 3) != derive_seed(2, "packet", 3)

    def test_sensitive_to_tokens(self):
        assert derive_seed(1, "packet", 3) != derive_seed(1, "packet", 4)
        assert derive_seed(1, "adversary") != derive_seed(1, "packet")

    def test_token_concatenation_is_unambiguous(self):
        assert derive_seed(1, "ab", "c") != derive_seed(1, "a", "bc")


class TestRandomStreams:
    def test_streams_are_reproducible(self):
        a = RandomStreams(7).packet_stream(0).random()
        b = RandomStreams(7).packet_stream(0).random()
        assert a == b

    def test_streams_are_independent(self):
        streams = RandomStreams(7)
        assert streams.packet_stream(0).random() != streams.packet_stream(1).random()
        assert streams.adversary_stream().random() != streams.packet_stream(0).random()

    def test_named_stream(self):
        streams = RandomStreams(7)
        assert streams.stream("workload").random() == RandomStreams(7).stream("workload").random()


class TestPacket:
    def make_packet(self, arrival: int = 0) -> Packet:
        streams = RandomStreams(0)
        return Packet(
            packet_id=1,
            arrival_slot=arrival,
            state=LowSensingBackoff().new_packet_state(),
            rng=streams.packet_stream(1),
        )

    def test_channel_accesses_sum_sends_and_listens(self):
        packet = self.make_packet()
        packet.sends = 1
        packet.listens = 2
        assert packet.sends == 1
        assert packet.listens == 2
        assert packet.channel_accesses == 3

    def test_latency_inclusive_of_arrival_and_departure_slots(self):
        packet = self.make_packet(arrival=5)
        assert packet.latency is None
        packet.mark_departed(9)
        assert packet.departed
        assert packet.latency == 5

    def test_same_slot_departure_has_latency_one(self):
        packet = self.make_packet(arrival=3)
        packet.mark_departed(3)
        assert packet.latency == 1

    def test_double_departure_rejected(self):
        packet = self.make_packet()
        packet.mark_departed(4)
        with pytest.raises(ValueError):
            packet.mark_departed(5)

    def test_departure_before_arrival_rejected(self):
        packet = self.make_packet(arrival=10)
        with pytest.raises(ValueError):
            packet.mark_departed(2)
