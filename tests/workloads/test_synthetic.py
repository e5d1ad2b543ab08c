"""Tests for the synthetic workload generator."""

import pytest
from hypothesis import given, settings, strategies as st

from repro.workloads.synthetic import SyntheticWorkload, WorkloadSpec

MB = 2**20


def small_spec(**overrides):
    params = dict(
        name="unit",
        num_threads=4,
        private_bytes_per_thread=64 * 1024,
        hot_shared_bytes=128 * 1024,
        warm_shared_bytes=1 * MB,
        cold_shared_bytes=2 * MB,
        p_private=0.3,
        p_hot=0.2,
        p_warm=0.4,
        p_cold=0.1,
        seed=42,
    )
    params.update(overrides)
    return WorkloadSpec(**params)


def test_mix_must_sum_to_one():
    with pytest.raises(ValueError):
        small_spec(p_private=0.9)


def test_negative_probability_rejected():
    with pytest.raises(ValueError):
        small_spec(p_private=-0.1, p_hot=0.6, p_warm=0.4, p_cold=0.1)


def test_stream_is_deterministic():
    workload = SyntheticWorkload(small_spec(), accesses_per_thread=200)
    first = list(workload.stream(0))
    second = list(workload.stream(0))
    assert first == second


def test_streams_differ_across_threads():
    workload = SyntheticWorkload(small_spec(), accesses_per_thread=200)
    assert list(workload.stream(0)) != list(workload.stream(1))


def test_stream_length_and_fields():
    workload = SyntheticWorkload(small_spec(), accesses_per_thread=333)
    accesses = list(workload.stream(2))
    assert len(accesses) == 333
    assert all(access.addr >= 0 and access.gap >= 0 for access in accesses)
    assert any(access.is_write for access in accesses)
    assert any(not access.is_write for access in accesses)


def test_invalid_thread_id_rejected():
    workload = SyntheticWorkload(small_spec(), accesses_per_thread=10)
    with pytest.raises(ValueError):
        next(workload.stream(99))


def test_scaling_divides_region_sizes():
    scaled = small_spec().scaled(4)
    assert scaled.warm_shared_bytes == small_spec().warm_shared_bytes // 4
    assert scaled.hot_shared_bytes == small_spec().hot_shared_bytes // 4
    # Scaling never goes below one page.
    tiny = small_spec().scaled(1 << 30)
    assert tiny.warm_shared_bytes == 4096


def test_regions_do_not_overlap():
    workload = SyntheticWorkload(small_spec(), accesses_per_thread=10)
    regions = workload.memory_regions()
    intervals = sorted((r["base"], r["base"] + r["size"]) for r in regions)
    for (start_a, end_a), (start_b, _end_b) in zip(intervals, intervals[1:]):
        assert end_a <= start_b


def test_memory_regions_cover_private_and_shared():
    workload = SyntheticWorkload(small_spec(), accesses_per_thread=10)
    regions = workload.memory_regions()
    kinds = [region["kind"] for region in regions]
    assert kinds.count("private") == 4
    assert "warm" in kinds and "hot" in kinds and "cold" in kinds
    owners = {region["owner_thread"] for region in regions if region["kind"] == "private"}
    assert owners == {0, 1, 2, 3}


def test_serial_init_pages_cover_shared_regions():
    workload = SyntheticWorkload(small_spec(), accesses_per_thread=10)
    pages = workload.serial_init_pages()
    expected_pages = (128 * 1024 + 1 * MB + 2 * MB) // 4096
    assert len(pages) == expected_pages


def test_addresses_fall_inside_their_regions():
    workload = SyntheticWorkload(small_spec(), accesses_per_thread=500)
    regions = workload.memory_regions(thread_id=1)
    shared = workload.memory_regions()
    valid_ranges = [(r["base"], r["base"] + r["size"]) for r in regions + shared]
    for access in workload.stream(1):
        assert any(start <= access.addr < end for start, end in valid_ranges)


def test_with_threads_and_with_accesses():
    workload = SyntheticWorkload(small_spec().with_threads(8), accesses_per_thread=10)
    assert workload.num_threads == 8
    assert workload.accesses_per_thread == 10
    assert workload.total_footprint_bytes() > 0


def test_write_fraction_roughly_respected():
    spec = small_spec(
        write_fraction_private=0.5, write_fraction_hot=0.5,
        write_fraction_warm=0.5, write_fraction_cold=0.5,
    )
    workload = SyntheticWorkload(spec, accesses_per_thread=4000)
    accesses = list(workload.stream(0))
    write_fraction = sum(a.is_write for a in accesses) / len(accesses)
    assert 0.4 < write_fraction < 0.6


@settings(max_examples=20, deadline=None)
@given(st.integers(1, 16), st.integers(1, 500))
def test_any_thread_count_and_length_generates_exactly_n_accesses(threads, length):
    spec = small_spec(num_threads=threads)
    workload = SyntheticWorkload(spec, accesses_per_thread=length)
    assert len(list(workload.stream(threads - 1))) == length
