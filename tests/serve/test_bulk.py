"""Differential tests: bulk-mode serving replay vs the event engine.

:func:`repro.serve.bulk.simulate_service_bulk` promises *bit identity*
with :func:`repro.serve.simulate.simulate_service` — every ServeResult
field, the latency distribution snapshot and the full stats registry
(per-core queue metrics and engine event counts included) — or a
:class:`~repro.serve.bulk.BulkFallback` refusal, never a near miss.
"""

import pytest

from repro.obs import StatsRegistry
from repro.serve.arrivals import Request
from repro.serve.bulk import simulate_service_bulk
from repro.serve.policies import FifoPolicy, SchedulingPolicy, parse_policy
from repro.serve.service import ServiceModel
from repro.serve.simulate import build_requests, simulate_service
from repro.serve.bulk import BulkFallback

MODEL = ServiceModel("synthetic", 8, {1: 100.0, 2: 160.0, 4: 280.0})


def assert_identical(des, bulk):
    assert des.latency.to_dict() == bulk.latency.to_dict()
    assert des.stats == bulk.stats
    assert (des.completed, des.requests) == (bulk.completed, bulk.requests)
    assert des.makespan == bulk.makespan
    assert des.first_arrival == bulk.first_arrival
    assert des.achieved == bulk.achieved
    assert (des.label, des.policy, des.offered, des.cores) == \
        (bulk.label, bulk.policy, bulk.offered, bulk.cores)


def both(requests, *, policy_spec="fifo", cores=2, offered=0.0):
    des = simulate_service(requests, MODEL, policy=parse_policy(policy_spec),
                           cores=cores, offered=offered)
    bulk = simulate_service_bulk(requests, MODEL,
                                 policy=parse_policy(policy_spec),
                                 cores=cores, offered=offered)
    return des, bulk


# ---------------------------------------------------------------------------
# differential twin: policy x cores x load grid on Poisson arrivals
# ---------------------------------------------------------------------------

@pytest.mark.parametrize("policy_spec",
                         ["fifo", "size:1", "size:4", "size:16",
                          "deadline:300", "deadline:300:4"])
@pytest.mark.parametrize("cores", [1, 2, 4])
@pytest.mark.parametrize("rate", [2.0, 12.0, 40.0])
def test_poisson_grid_bit_identical(policy_spec, cores, rate):
    requests = build_requests(rate, 250, 8, clients=3, seed=9)
    des, bulk = both(requests, policy_spec=policy_spec, cores=cores,
                     offered=rate)
    assert_identical(des, bulk)


def test_single_request_stream():
    requests = build_requests(5.0, 1, 8, seed=3)
    des, bulk = both(requests, cores=1)
    assert_identical(des, bulk)


def test_deterministic_arrivals_replay_or_fall_back():
    """Evenly spaced arrivals hit exact event ties at some loads; the
    bulk path must either match the DES exactly or refuse — and the
    ``bulk=True`` wrapper must be identical to the DES either way."""
    for rate in (3.0, 10.0, 25.0):
        requests = build_requests(rate, 120, 8, arrival="deterministic")
        des = simulate_service(requests, MODEL, policy=FifoPolicy(), cores=2)
        wrapped = simulate_service(requests, MODEL, policy=FifoPolicy(),
                                   cores=2, bulk=True)
        assert_identical(des, wrapped)
        try:
            bulk = simulate_service_bulk(requests, MODEL,
                                         policy=FifoPolicy(), cores=2)
        except BulkFallback:
            continue
        assert_identical(des, bulk)


def test_bulk_flag_on_run_paths_is_bit_identical():
    requests = build_requests(18.0, 300, 8, clients=2, seed=21)
    for policy_spec in ("fifo", "size:8", "deadline:250:8"):
        des = simulate_service(requests, MODEL,
                               policy=parse_policy(policy_spec), cores=3)
        wrapped = simulate_service(requests, MODEL,
                                   policy=parse_policy(policy_spec), cores=3,
                                   bulk=True)
        assert_identical(des, wrapped)


def test_prepopulated_registry_accumulates_identically():
    requests = build_requests(9.0, 150, 8, seed=4)
    seed_a, seed_b = StatsRegistry(), StatsRegistry()
    for registry in (seed_a, seed_b):
        registry.scope("serve").counter("completed").value += 7
        registry.scope("serve").distribution("latency").record(3.5)
    des = simulate_service(requests, MODEL, policy=FifoPolicy(), cores=2,
                           registry=seed_a)
    bulk = simulate_service_bulk(requests, MODEL, policy=FifoPolicy(),
                                 cores=2, registry=seed_b)
    assert_identical(des, bulk)
    assert seed_a.to_dict() == seed_b.to_dict()


# ---------------------------------------------------------------------------
# fallback triggers
# ---------------------------------------------------------------------------

def make_requests(arrivals):
    return [Request(seq=i, client=0, arrival=t, keys=8)
            for i, t in enumerate(arrivals)]


def test_falls_back_on_unknown_policy_subclass():
    class CustomPolicy(FifoPolicy):
        pass

    with pytest.raises(BulkFallback):
        simulate_service_bulk(make_requests([10.0, 20.0]), MODEL,
                              policy=CustomPolicy(), cores=1)


def test_falls_back_on_first_emission_at_time_zero():
    with pytest.raises(BulkFallback):
        simulate_service_bulk(make_requests([0.0, 10.0]), MODEL,
                              policy=FifoPolicy(), cores=1)


def test_falls_back_on_emission_tied_with_completion():
    # First request served [10, 110); the second emission lands exactly
    # on the completion instant.
    with pytest.raises(BulkFallback):
        simulate_service_bulk(make_requests([10.0, 110.0, 500.0]), MODEL,
                              policy=FifoPolicy(), cores=1)


def test_fallback_cases_still_served_exactly_by_the_wrapper():
    streams = [[0.0, 10.0], [10.0, 110.0, 500.0]]
    for arrivals in streams:
        requests = make_requests(arrivals)
        des = simulate_service(requests, MODEL, policy=FifoPolicy(), cores=1)
        wrapped = simulate_service(requests, MODEL, policy=FifoPolicy(),
                                   cores=1, bulk=True)
        assert_identical(des, wrapped)


# ---------------------------------------------------------------------------
# resilience: bulk replays slo-only accounting and declines everything
# contended (shedding, deadlines, faults, controllers)
# ---------------------------------------------------------------------------

def test_bulk_slo_only_matches_resilient_des_bit_identical():
    from repro.serve.simulate import ResilienceConfig
    requests = build_requests(10.0, 200, 8, seed=42)
    resilience = ResilienceConfig(slo=1500.0)
    des = simulate_service(requests, MODEL, policy=FifoPolicy(), cores=2,
                           resilience=resilience)
    bulk = simulate_service_bulk(requests, MODEL, policy=FifoPolicy(),
                                 cores=2, resilience=resilience)
    assert bulk.in_slo == des.in_slo
    assert bulk.slo == des.slo == 1500.0
    assert bulk.latency.to_dict() == des.latency.to_dict()
    assert bulk.goodput == des.goodput
    assert bulk.stats == des.stats


def test_bulk_declines_shed_and_timeout_wrappers():
    requests = build_requests(10.0, 50, 8, seed=42)
    for spec in ("shed:4", "timeout:2000", "shed:8:timeout:1000:size:2"):
        with pytest.raises(BulkFallback):
            simulate_service_bulk(requests, MODEL,
                                  policy=parse_policy(spec), cores=2)


def test_bulk_declines_queue_depth_faults_and_controllers():
    from repro.serve.control import parse_controller
    from repro.serve.faults import WalkerFaultModel
    from repro.serve.simulate import ResilienceConfig
    requests = build_requests(10.0, 50, 8, seed=42)
    with pytest.raises(BulkFallback):
        simulate_service_bulk(requests, MODEL, policy=FifoPolicy(),
                              cores=2, queue_depth=4)
    fallback = ServiceModel("host", 8, {1: 300.0})
    faulted = ResilienceConfig(
        slo=1000.0,
        faults=WalkerFaultModel(seed=1, rate=4.0, walkers_per_core=2),
        fallback=fallback)
    with pytest.raises(BulkFallback):
        simulate_service_bulk(requests, MODEL, policy=FifoPolicy(),
                              cores=2, resilience=faulted)
    controlled = ResilienceConfig(slo=1000.0,
                                  controller=parse_controller("p99:1000"))
    with pytest.raises(BulkFallback):
        simulate_service_bulk(requests, MODEL, policy=FifoPolicy(),
                              cores=2, resilience=controlled)


def test_bulk_flag_with_resilience_falls_back_to_des_exactly():
    """The user-facing wrapper: --bulk plus shedding silently replays
    on the DES and the results match a non-bulk run bit-for-bit."""
    requests = build_requests(30.0, 200, 8, seed=42)
    des = simulate_service(requests, MODEL,
                           policy=parse_policy("shed:4"), cores=2)
    wrapped = simulate_service(requests, MODEL,
                               policy=parse_policy("shed:4"), cores=2,
                               bulk=True)
    assert wrapped.latency.to_dict() == des.latency.to_dict()
    assert wrapped.shed == des.shed
    assert wrapped.stats == des.stats
