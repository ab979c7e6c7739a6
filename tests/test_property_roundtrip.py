"""Property-based printer/parser round-trip tests.

The textual round-trip doubles as the module cloner inside the
compilation pipeline, so its fidelity underpins every benchmark result:
``parse(print(m))`` must print identically and execute identically.
"""

from hypothesis import example, given, settings, strategies as st

from repro.fuzz.oracle import values_close
from repro.ir import parse_module, print_module, verify_module
from test_property_vectorizer import _inputs, _random_kernel, _run


@settings(max_examples=40, deadline=None)
@given(
    seed=st.integers(0, 100_000),
    num_lanes=st.sampled_from([2, 4]),
    float_mode=st.booleans(),
)
def test_print_parse_fixpoint(seed, num_lanes, float_mode):
    module = _random_kernel(seed, num_lanes, float_mode)
    text = print_module(module)
    parsed = parse_module(text)
    verify_module(parsed)
    assert print_module(parsed) == text


@settings(max_examples=25, deadline=None)
@given(seed=st.integers(0, 100_000), float_mode=st.booleans())
@example(seed=2649, float_mode=True)  # its output holds a NaN
def test_round_trip_preserves_execution(seed, float_mode):
    module = _random_kernel(seed, 2, float_mode)
    clone = parse_module(print_module(module))
    inputs = _inputs(seed, float_mode)
    want = _run(module, inputs)
    got = _run(clone, inputs)
    assert len(got) == len(want)
    # exact, except that NaN matches NaN (``nan != nan`` under ``==``)
    for index, (x, y) in enumerate(zip(got, want)):
        assert values_close(x, y, float_mode, max_ulps=0, abs_tol=0.0), (
            f"A[{index}]: {x!r} vs {y!r}"
        )
