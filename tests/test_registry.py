"""Tests for the protocol lookup by name."""

import pytest

from repro.protocols.base import BackoffProtocol
from repro.protocols.registry import available_protocols, get_protocol


EXPECTED_BUILTINS = {
    "low-sensing",
    "binary-exponential",
    "polynomial",
    "fixed-probability",
    "slotted-aloha",
    "sawtooth",
    "full-sensing-mw",
}


class TestRegistry:
    def test_all_builtin_protocols_are_registered(self):
        assert EXPECTED_BUILTINS.issubset(set(available_protocols()))

    def test_names_are_exactly_the_builtins(self):
        # The table is constant: no name but a built-in's can appear.
        assert set(available_protocols()) == EXPECTED_BUILTINS

    def test_get_protocol_returns_matching_name(self):
        for name in EXPECTED_BUILTINS:
            protocol = get_protocol(name)
            assert isinstance(protocol, BackoffProtocol)
            assert protocol.name == name

    def test_each_lookup_builds_a_fresh_instance_with_defaults(self):
        for name in EXPECTED_BUILTINS:
            first, second = get_protocol(name), get_protocol(name)
            assert first is not second
            assert first.describe() == second.describe() == type(first)().describe()

    def test_unknown_protocol_raises_with_known_names(self):
        with pytest.raises(KeyError) as excinfo:
            get_protocol("does-not-exist")
        assert "low-sensing" in str(excinfo.value)

    def test_unknown_protocol_message_lists_every_name_in_order(self):
        with pytest.raises(KeyError) as excinfo:
            get_protocol("does-not-exist")
        known = ", ".join(sorted(EXPECTED_BUILTINS))
        assert excinfo.value.args == (
            f"unknown protocol 'does-not-exist'; known protocols: {known}",
        )

    def test_available_protocols_sorted(self):
        names = list(available_protocols())
        assert names == sorted(names)
