"""Property-based tests for hash functions and their Widx compilation.

The central equivalence: for any key, the Python evaluation of a HashSpec
must equal what the Widx dispatcher's fused-instruction code computes —
this is what guarantees software and accelerator probe the same bucket.
"""

import numpy as np
from hypothesis import given, settings, strategies as st

from repro.db.hashfn import (ALL_HASHES, HashSpec, HashStep, MASK64)
from repro.widx.programs import _hash_body

any_key = st.integers(min_value=0, max_value=MASK64)

step_strategy = st.one_of(
    st.builds(HashStep, st.sampled_from(["xor_shl", "xor_shr", "add_shl"]),
              st.integers(min_value=1, max_value=63)),
    st.builds(HashStep, st.sampled_from(["shr", "shl"]),
              st.integers(min_value=1, max_value=63)),
    st.builds(HashStep, st.sampled_from(["and_const", "xor_const",
                                         "add_const"]),
              st.just(0),
              st.integers(min_value=1, max_value=MASK64)),
)


@settings(max_examples=100, deadline=None)
@given(key=any_key)
def test_builtin_hashes_stay_in_domain(key):
    for spec in ALL_HASHES.values():
        value = spec(key)
        assert 0 <= value <= MASK64


@settings(max_examples=100, deadline=None)
@given(key=any_key, steps=st.lists(step_strategy, min_size=1, max_size=8))
def test_random_specs_are_deterministic_and_bounded(key, steps):
    spec = HashSpec("random", tuple(steps))
    assert spec(key) == spec(key)
    assert 0 <= spec(key) <= MASK64


@settings(max_examples=50, deadline=None)
@given(key=any_key,
       bits=st.integers(min_value=1, max_value=20))
def test_bucket_of_is_masked_hash(key, bits):
    for spec in ALL_HASHES.values():
        buckets = 1 << bits
        assert spec.bucket_of(key, buckets) == spec(key) % buckets


@settings(max_examples=60, deadline=None)
@given(steps=st.lists(step_strategy, min_size=1, max_size=10))
def test_every_spec_compiles_to_widx_code(steps):
    spec = HashSpec("random", tuple(steps))
    lines, constants = _hash_body(spec.steps, "r5", "r6")
    assert len(lines) == len(steps)  # one fused instruction per step
    const_steps = [s for s in steps if s.kind.endswith("_const")]
    assert len(constants) == len(const_steps)


@settings(max_examples=200, deadline=None)
@given(keys=st.lists(any_key, min_size=1, max_size=40),
       steps=st.lists(st.one_of(step_strategy, st.builds(
           HashStep, st.just("sub_shl"), st.integers(1, 63))),
           min_size=1, max_size=8),
       bucket_bits=st.integers(min_value=0, max_value=40))
def test_vectorized_buckets_equal_scalar(keys, steps, bucket_bits):
    """``bucket_of_many`` wraps at 64 bits exactly like the scalar path."""
    spec = HashSpec("random", tuple(steps))
    buckets = 1 << bucket_bits
    got = spec.bucket_of_many(np.array(keys, dtype=np.uint64), buckets)
    assert got.tolist() == [spec.bucket_of(key, buckets) for key in keys]
