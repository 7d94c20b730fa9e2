"""rationals.rat is the one door for a caller's number.

Its text grammar is an optional sign, digits and an optional /digits
(rationals.RATIONAL_TEXT); every other string is refused before any integer
is built, and floats and bools are refused by type. rat_str and rat_pair
render what rat reads back exactly.
"""

import time

import pytest

from mvmdp.rationals import Rat, rat, rat_pair, rat_str, rationalize_float


@pytest.mark.parametrize(
    "text, value",
    [("3", Rat(3)), ("-2", Rat(-2)), ("+7/4", Rat(7, 4)), ("0/5", Rat(0))],
)
def test_rat_reads_the_grammar(text, value):
    read = rat(text)
    assert read == value
    assert type(read) is Rat


@pytest.mark.parametrize("text", ["0.5", "1e5", "1_000", " 3", "3/-4", ""])
def test_rat_refuses_text_outside_the_grammar(text):
    # Fraction would read the first three, and the padded " 3".
    with pytest.raises(ValueError, match="exact rational"):
        rat(text)


def test_rat_refuses_a_zero_denominator():
    with pytest.raises(ZeroDivisionError):
        rat("1/0")


def test_rat_refuses_a_huge_exponent_before_building_it():
    # Fraction would build 10**999999999: hours and hundreds of megabytes.
    start = time.perf_counter()
    with pytest.raises(ValueError, match="exact rational"):
        rat("1e999999999")
    assert time.perf_counter() - start < 1


@pytest.mark.parametrize("render", [rat_str, rat_pair])
@pytest.mark.parametrize("value", [0.1, True], ids=["float", "bool"])
def test_renderers_refuse_floats_and_bools(render, value):
    # rat_str(0.1) would print 3602879701896397/36028797018963968.
    with pytest.raises(TypeError, match="exact rational"):
        render(value)


def test_rationalize_float_takes_no_text():
    # Text goes through rat's grammar; Fraction would read "1e5".
    assert rationalize_float(0.1) == Rat(1, 10)
    with pytest.raises(TypeError):
        rationalize_float("1e5")


try:
    from hypothesis import given, settings
    from hypothesis import strategies as st
except ImportError:  # the [test] extra is not installed

    def test_rat_reads_back_rat_str_and_rat_pair():
        pytest.skip("property tests need hypothesis (the [test] extra)")

else:

    @settings(max_examples=200, deadline=None, derandomize=True, database=None)
    @given(st.builds(Rat, st.integers(), st.integers(1, 10**9 + 7)))
    def test_rat_reads_back_rat_str_and_rat_pair(x):
        assert rat(rat_str(x)) == x
        assert rat(rat_pair(x)) == x
