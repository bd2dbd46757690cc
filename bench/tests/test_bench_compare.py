"""Verdicts follow the bound and the spread; mismatched runs are refused."""

from bench.compare import compare, mismatches, verdict


def test_verdicts():
    steady = [10.0, 10.1, 9.9, 10.0]
    assert verdict(steady, [10.2, 10.3, 10.1, 10.2], "lower", 0.05)[0] == "within-bound"
    assert verdict(steady, [11.0, 11.1, 10.9, 11.0], "lower", 0.05)[0] == "worse"
    assert verdict(steady, [9.0, 9.1, 8.9, 9.0], "lower", 0.05)[0] == "better"
    assert verdict(steady, [9.0, 9.1, 8.9, 9.0], "higher", 0.05)[0] == "worse"
    noisy = [8.0, 12.0, 9.0, 11.0]
    assert verdict(noisy, [9.0, 13.0, 8.5, 11.5], "lower", 0.05)[0] == "unresolved"
    assert verdict(noisy, [5.0, 7.0, 6.0, 7.5], "lower", 0.05)[0] == "better"
    assert verdict([10.0], [10.2], "lower", 0.05)[0] == "within-bound"
    assert verdict([10.0], [11.0], "lower", 0.05)[0] == "worse"


def _document(digest="d1", seed=31, value=10.0):
    metric = {"value": value, "unit": "ms", "runs": [value, value * 1.01, value * 0.99]}
    return {
        "benchmark_hash": "h", "seed": seed, "seconds": 10.0, "smoke": False,
        "results": {"serve_open": {"inputs_digest": digest,
                                   "metrics": {"latency_p50_ms": metric}}},
    }


def test_refuses_other_seed_digest_or_benchmark():
    assert mismatches(_document(), _document()) == []
    assert mismatches(_document(), _document(seed=47))
    assert mismatches(_document(), _document(digest="d2"))
    other = _document()
    other["benchmark_hash"] = "h2"
    assert mismatches(_document(), other)


def test_rows_carry_base_delta_bound_and_verdict():
    spec = {
        "workloads": [{"name": "serve_open"}],
        "end_to_end": [{"name": "latency_p50_ms", "unit": "ms",
                        "better": "lower", "bound": 0.05}],
    }
    (row,) = compare(_document(), _document(value=12.0), spec)
    assert row["verdict"] == "worse"
    assert row["base"] == 10.0 and row["bound"] == 0.05
    assert abs(row["delta_share"] - 0.2) < 1e-9
