"""Tests for the protocol metadata."""

from ..conftest import tiny_system


def test_protocol_describe_strings():
    assert "no DRAM cache" in tiny_system("baseline").protocol.describe()
    assert "clean DRAM cache" in tiny_system("c3d").protocol.describe()
    assert "dirty DRAM cache" in tiny_system("full-dir").protocol.describe()
