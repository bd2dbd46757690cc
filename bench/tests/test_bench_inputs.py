"""Inputs are a pure function of the seed."""

from bench import inputs
from bench.workloads import BATCH_MIX


def test_statement_stream_repeats_for_a_seed_and_changes_with_it():
    first = inputs.statements("tpcds", 50, 31)
    assert first == inputs.statements("tpcds", 50, 31)
    assert first != inputs.statements("tpcds", 50, 32)
    assert inputs.digest(first) == inputs.digest(list(first))
    assert inputs.digest(first) != inputs.digest(first[::-1])


def test_mixed_stream_keeps_its_shares_and_repeats():
    stream = inputs.mixed_statements(BATCH_MIX, 400, 5)
    assert len(stream) == 400
    assert stream == inputs.mixed_statements(BATCH_MIX, 400, 5)
    tpcds = set(inputs.statements("tpcds", 200, 5))
    assert sum(1 for sql in stream if sql in tpcds) >= 200


def test_arrival_schedule_is_seeded_sorted_and_holds_its_rate():
    offsets = inputs.arrival_offsets(60.0, 10.0, 7)
    assert offsets == inputs.arrival_offsets(60.0, 10.0, 7)
    assert offsets != inputs.arrival_offsets(60.0, 10.0, 8)
    assert len(offsets) == 600
    assert offsets == sorted(offsets)
    assert 0.0 <= offsets[0] and offsets[-1] < 10.0


def test_zipf_draws_are_seeded_and_favour_low_ranks():
    draws = inputs.zipf_indices(5000, 256, 1.1, 3)
    assert draws == inputs.zipf_indices(5000, 256, 1.1, 3)
    assert min(draws) >= 0 and max(draws) < 256
    assert draws.count(0) > draws.count(10) > draws.count(200)
