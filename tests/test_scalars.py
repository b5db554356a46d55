import json
import os
import tracemalloc
from fractions import Fraction
from functools import reduce
from math import gcd, lcm
from operator import add, mul
from unittest import mock

import pytest
from hypothesis import given, settings, strategies as st

from crepant import scalars
from crepant.scalars import (
    CycNum,
    cyclotomic_polynomial,
    euler_phi,
    format_rational,
    parse_int,
    parse_rational,
    parse_scalar,
    scalar_to_json,
)
from reference import (FractionCycNum, cyclotomic_by_division, cycnum_from_json, dot, exact,
                       minimal, reduce_mod_cyclotomic, to_complex)


def test_cyclotomic_polynomials():
    assert cyclotomic_polynomial(1) == (-1, 1)
    assert cyclotomic_polynomial(2) == (1, 1)
    assert cyclotomic_polynomial(3) == (1, 1, 1)
    assert cyclotomic_polynomial(4) == (1, 0, 1)
    assert cyclotomic_polynomial(6) == (1, -1, 1)
    assert cyclotomic_polynomial(12) == (1, 0, -1, 0, 1)
    assert euler_phi(120) == 32


def test_cyclotomic_polynomial_matches_the_long_division():
    # the Moebius product of (x^d - 1)^mu(N/d) against x^N - 1 divided by
    # every lower Phi_d
    for n in range(1, 401):
        assert cyclotomic_polynomial(n) == cyclotomic_by_division(n), n
    with pytest.raises(ValueError, match="conductor must be >= 1"):
        cyclotomic_polynomial(0)


def test_basic_identities():
    z3 = CycNum.zeta(3)
    assert 1 + z3 + z3 * z3 == 0
    assert (2 + z3) * (z3 - 1) == -3
    z4 = CycNum.zeta(4)
    assert (1 + z4).inv() == (1 - z4) / 2
    assert z3.galois(-1) == CycNum.zeta(3, 2)
    r2 = CycNum.zeta(8) + CycNum.zeta(8, 7)
    assert r2 * r2 == 2


def test_float_rendering_oracle():
    val = to_complex(2 + CycNum.zeta(3))
    assert abs(val - (1.5 + 0.8660254037844386j)) < 1e-12


def test_cross_conductor_equality_and_minimal():
    assert CycNum.zeta(3) == CycNum.zeta(6, 2)
    assert CycNum.zeta(6, 3) == -1
    m = minimal(CycNum.zeta(12, 4))
    assert m.conductor == 3
    assert m == CycNum.zeta(3)


def test_conductor_cap(monkeypatch):
    monkeypatch.setenv("CREPANT_MAX_CONDUCTOR", "10")
    with pytest.raises(ValueError):
        CycNum.zeta(11)
    monkeypatch.setenv("CREPANT_MAX_CONDUCTOR", "150")
    assert CycNum.zeta(150).conductor == 150


def test_json_round_trip():
    x = CycNum(12, [Fraction(1, 2), 0, Fraction(-3), 0])
    assert cycnum_from_json(x.to_json()) == x


def test_parse_scalar():
    assert parse_scalar("-1") == Fraction(-1)
    assert parse_scalar("2/3") == Fraction(2, 3)
    assert parse_scalar("i/2") == CycNum.zeta(4) / 2
    assert parse_scalar("zeta3^2") == CycNum.zeta(3, 2)
    assert parse_scalar("1/2*zeta8") == CycNum.zeta(8) / 2
    assert parse_scalar("-zeta12^5/7*-1/2") == CycNum.zeta(12, 5) / 14
    with pytest.raises(ValueError):
        parse_scalar("0.5")


@pytest.mark.parametrize("text", ["1/2/3", "1 / 2", "1/2 * zeta8", "zeta 3", "- 1",
                                  "i/2/3", "zeta3/2/3", "1\n*2", "*", "", " 2/3 ", "2/3 ",
                                  " zeta3", "\t1"])
def test_parse_scalar_rejects_inner_space_and_second_denominator(text):
    with pytest.raises(ValueError):
        parse_scalar(text)


def test_rational_formatting():
    assert format_rational(Fraction(-3, 4)) == "-3/4"
    assert parse_rational("7") == 7


def test_parse_int_is_the_integer_half_of_the_rational_grammar():
    assert [parse_int(t) for t in ("0", "7", "-12", "007")] == [0, 7, -12, 7]
    for text in (" 1", "1 ", "+1", "1_0", "٣", "", "-", "1.0", "1/2", "1e3", 3):
        with pytest.raises(ValueError):
            parse_int(text)
    for text in ("٣", "1/٣", "-٣"):
        with pytest.raises(ValueError):
            parse_rational(text)
        with pytest.raises(ValueError):
            parse_scalar(text)


small_fraction = st.builds(Fraction,
                           st.integers(min_value=-9, max_value=9),
                           st.integers(min_value=1, max_value=9))


@st.composite
def cyc_numbers(draw, conductors=(1, 2, 3, 4, 6, 8, 12, 24)):
    n = draw(st.sampled_from(conductors))
    coeffs = draw(st.lists(small_fraction, min_size=euler_phi(n), max_size=euler_phi(n)))
    return CycNum(n, coeffs)


@settings(max_examples=60, deadline=None)
@given(cyc_numbers(), cyc_numbers(), cyc_numbers())
def test_field_axioms(a, b, c):
    assert (a + b) * c == a * c + b * c
    assert a * b == b * a
    assert a + b == b + a
    assert (a + b) + c == a + (b + c)
    assert (a * b) * c == a * (b * c)


@settings(max_examples=60, deadline=None)
@given(cyc_numbers())
def test_inverse_and_conjugation(a):
    if not a.is_zero():
        assert a * a.inv() == 1
    b = a.galois(-1).galois(-1)
    assert b == a


@settings(max_examples=40, deadline=None)
@given(cyc_numbers(conductors=(1, 2, 3, 4, 6)), cyc_numbers(conductors=(8, 12, 24)))
def test_mixed_conductor_arithmetic(a, b):
    # operations agree with doing everything in the common field
    ae = lift(a, _lcm(a.conductor, b.conductor))
    be = lift(b, _lcm(a.conductor, b.conductor))
    assert a + b == ae + be
    assert a * b == ae * be


def _lcm(a, b):
    from math import gcd
    return a * b // gcd(a, b)


@settings(max_examples=60, deadline=None)
@given(cyc_numbers(), st.one_of(small_fraction, st.integers(min_value=-9, max_value=9)))
def test_rational_operand_matches_embedded_operand(x, r):
    # a rational operand acts as the conductor-1 CycNum(1, [r]) embedded in x's field
    e = lift(CycNum(1, [r]), x.conductor)
    for got, want in ((x + r, x + e), (r + x, e + x), (x - r, x - e), (r - x, e - x),
                      (x * r, x * e), (r * x, e * x)):
        assert (got.conductor, got.coeffs) == (want.conductor, want.coeffs)
    assert (x == r) == (x == e)
    assert e == r and (x - (x - r)) == r


@settings(max_examples=60, deadline=None)
@given(cyc_numbers(), st.one_of(st.just(1), st.just(Fraction(1)), small_fraction,
                                st.integers(min_value=-9, max_value=9)))
def test_rational_divided_by_cyclotomic(x, r):
    # r / x is x.inv() * r, also for r = 1, where it is x.inv() itself
    if x.is_zero():
        return
    got, want = r / x, x.inv() * r
    assert (got.conductor, got.coeffs) == (want.conductor, want.coeffs)


# -- the residue table against the long-division reducer ---------------------

coefficient = st.one_of(small_fraction, st.integers(min_value=-9, max_value=9))


def assert_reduced(x, conductor, coeffs):
    """x is exactly the residue `coeffs` at `conductor`, Fraction by Fraction."""
    assert x.conductor == conductor
    assert x.coeffs == coeffs
    assert all(type(c) is Fraction for c in x.coeffs)


def lift(x, m):
    """x in Q(zeta_m), m a multiple of its conductor N, built by the public
    constructor of its class: x^e goes to x^(e m/N)."""
    return type(x)(m, scattered(x.coeffs, m, lambda e: e * (m // x.conductor)))


def scattered(coeffs, n, position):
    """A length-n list with coeffs[e] added at position(e) mod n."""
    out = [0] * n
    for e, c in enumerate(coeffs):
        out[position(e) % n] += c
    return out


@settings(max_examples=80, deadline=None)
@given(st.data())
def test_residue_table_matches_reference_reducer(data):
    n = data.draw(st.integers(min_value=1, max_value=120), label="conductor")
    # inputs up to twice the conductor long, so folding by x^n = 1 is covered
    raw = data.draw(st.lists(coefficient, max_size=2 * n + 2), label="coeffs")
    x = CycNum(n, raw)
    assert_reduced(x, n, reduce_mod_cyclotomic(raw, n))

    k = data.draw(st.integers(min_value=-3 * n, max_value=3 * n), label="power")
    assert_reduced(CycNum.zeta(n, k), n, reduce_mod_cyclotomic([0] * (k % n) + [1], n))

    assert_reduced(x.galois(-1), n, reduce_mod_cyclotomic(scattered(x.coeffs, n, lambda e: -e), n))

    m = n * data.draw(st.integers(min_value=1, max_value=120 // n), label="multiple")
    step = m // n
    # x + 0 at conductor m is x lifted there by the kernel
    assert_reduced(x + CycNum(m, []), m, reduce_mod_cyclotomic(
        scattered(x.coeffs, m, lambda e: e * step), m))

    n2 = data.draw(st.sampled_from([d for d in range(1, 121) if _lcm(n, d) <= 120]),
                   label="other conductor")
    y = CycNum(n2, data.draw(st.lists(coefficient, max_size=2 * n2 + 2), label="other"))
    common = _lcm(n, n2)
    xs = reduce_mod_cyclotomic(scattered(x.coeffs, common, lambda e: e * (common // n)), common)
    ys = reduce_mod_cyclotomic(scattered(y.coeffs, common, lambda e: e * (common // n2)), common)
    product = [0] * (len(xs) + len(ys))
    for i, a in enumerate(xs):
        for j, b in enumerate(ys):
            product[i + j] += a * b
    assert_reduced(x * y, common, reduce_mod_cyclotomic(product, common))


def test_zeta_checks_the_cap_before_allocating(monkeypatch):
    monkeypatch.delenv("CREPANT_MAX_CONDUCTOR", raising=False)
    tracemalloc.start()
    try:
        with pytest.raises(ValueError, match="conductor 10000000 exceeds cap 120"):
            CycNum.zeta(10**7, 10**7 - 1)
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert peak < 10**6


def test_over_cap_product_builds_no_table(monkeypatch):
    monkeypatch.delenv("CREPANT_MAX_CONDUCTOR", raising=False)
    built = []
    residues = scalars._residues

    def recording(n):
        built.append(n)
        return residues(n)

    monkeypatch.setattr(scalars, "_residues", recording)
    a, b = CycNum.zeta(119), CycNum.zeta(120)
    with pytest.raises(ValueError, match="conductor 14280 exceeds cap 120"):
        a * b
    assert built == [119, 120]


def test_arithmetic_does_not_read_the_cap(monkeypatch):
    # a result at an operand's conductor is not checked again
    z = CycNum.zeta(3)
    y = 2 + CycNum.zeta(3, 2)
    reads = []
    cap = scalars.conductor_cap

    def counting_cap():
        reads.append(1)
        return cap()

    monkeypatch.setattr(scalars, "conductor_cap", counting_cap)
    product, total, inverse = z * y, z + y, y.inv()
    assert reads == []
    monkeypatch.undo()
    assert product == 1 + 2 * z and total == 1 and inverse * y == 1
    assert product.conductor == total.conductor == inverse.conductor == 3


# -- the integer kernel against the Fraction-coefficient reference -----------

MIXED_CONDUCTORS = list(range(1, 25)) + [120]
wide_coefficient = st.one_of(st.fractions(min_value=-60, max_value=60, max_denominator=36),
                             st.integers(min_value=-60, max_value=60))


def _operations(x, y, r, m):
    """Every kernel operation on x and y (of one class), a rational r and a
    multiple m of the conductor of x."""
    out = [x + y, y + x, x - y, y - x, x * y, x + r, r + x, x - r, r - x, x * r, r * x,
           -x, x.galois(-1), lift(x, m), x * 0, x - x]
    if not x.is_zero():
        out += [x.inv(), r / x, y / x]
    if r:
        out.append(x / r)
    return out


@st.composite
def kernel_operands(draw):
    """(x, y, r, m) as CycNums and as the same FractionCycNums: unreduced
    coefficient lists at mixed conductors whose lcm is within the cap."""
    n = draw(st.sampled_from(MIXED_CONDUCTORS), label="conductor")
    n2 = draw(st.sampled_from([d for d in MIXED_CONDUCTORS if lcm(n, d) <= 120]), label="other")
    raw = draw(st.lists(wide_coefficient, max_size=euler_phi(n) + 3), label="x")
    raw2 = draw(st.lists(wide_coefficient, max_size=euler_phi(n2) + 3), label="y")
    r = draw(wide_coefficient, label="rational")
    m = n * draw(st.integers(min_value=1, max_value=120 // n), label="multiple")
    return ((CycNum(n, raw), CycNum(n2, raw2), r, m),
            (FractionCycNum(n, raw), FractionCycNum(n2, raw2), r, m))


@settings(max_examples=60, deadline=None)
@given(kernel_operands())
def test_kernel_matches_fraction_reference(operands):
    ours, reference = operands
    for got, want in zip(_operations(*ours), _operations(*reference), strict=True):
        assert (got.conductor, got.coeffs) == (want.conductor, want.coeffs)
        assert got.to_json() == want.to_json()
        assert got.as_rational() == want.as_rational()
    (x, y, r, m), (rx, ry, _, _) = ours, reference
    assert (x == y) == (rx == ry) and (x == r) == (rx == r)
    assert x == lift(x, m) and rx == lift(rx, m)


@settings(max_examples=120, deadline=None)
@given(st.data())
def test_galois_is_a_field_automorphism(data):
    # sigma_u: zeta_N -> zeta_N^u for u prime to N, over conductors 1..120;
    # y sits at a divisor of N, where sigma_u acts as sigma_(u mod M)
    n = data.draw(st.integers(min_value=1, max_value=120), label="conductor")
    m = data.draw(st.sampled_from([d for d in range(1, n + 1) if n % d == 0]), label="divisor")
    units = [u for u in range(-2 * n, 2 * n + 1) if gcd(u, n) == 1]
    u = data.draw(st.sampled_from(units), label="u")
    v = data.draw(st.sampled_from(units), label="v")
    raw = data.draw(st.lists(wide_coefficient, max_size=euler_phi(n) + 3), label="x")
    raw2 = data.draw(st.lists(wide_coefficient, max_size=euler_phi(m) + 3), label="y")
    x, y = CycNum(n, raw), CycNum(m, raw2)
    sx, sy = x.galois(u), y.galois(u)
    assert exact(sx)[:2] == (CycNum, n) and sy.conductor == m
    assert exact((x + y).galois(u)) == exact(sx + sy)
    assert exact((x - y).galois(u)) == exact(sx - sy)
    assert exact((x * y).galois(u)) == exact(sx * sy)
    if not x.is_zero():
        assert exact(x.inv().galois(u)) == exact(sx.inv())
    assert exact(x.galois(v).galois(u)) == exact(x.galois(u * v % n))
    assert exact(x.galois(u + n)) == exact(sx)
    # value, type and conductor against the Fraction-coefficient oracle
    want = FractionCycNum(n, raw).galois(u)
    assert (sx.conductor, sx.coeffs) == (want.conductor, want.coeffs)
    assert sx.to_json() == want.to_json()
    bad = [w for w in range(-2 * n, 2 * n + 1) if gcd(w, n) != 1]
    if bad:
        w = data.draw(st.sampled_from(bad), label="non-unit")
        for z in (x, FractionCycNum(n, raw)):
            with pytest.raises(ValueError, match=rf"galois\({w}\) .* conductor {n}$"):
                z.galois(w)


def assert_lowest_terms(x):
    """den > 0, gcd(den, *nums) == 1, and zero is (0, ..., 0)/1: the one
    spelling per conductor that tuple equality relies on."""
    assert x.den > 0 and gcd(x.den, *x.nums) == 1
    assert len(x.nums) == euler_phi(x.conductor)
    assert all(type(c) is int for c in (x.den, *x.nums))
    if x.is_zero():
        assert (x.nums, x.den) == ((0,) * len(x.nums), 1)


@settings(max_examples=50, deadline=None)
@given(kernel_operands())
def test_every_result_is_in_lowest_terms(operands):
    (x, y, r, m), _ = operands
    for z in (x, y, *_operations(x, y, r, m)):
        assert_lowest_terms(z)
    assert (x - x).nums == (0,) * len(x.nums) and (x * 0).den == 1


def test_unreduced_fraction_input_equals_its_reduced_spelling():
    x = CycNum(6, [Fraction(2, 4), Fraction(-3, 6)])
    assert_lowest_terms(x)
    assert (x.nums, x.den) == ((1, -1), 2)
    # zeta6^2 = zeta6 - 1 and zeta6^3 = -1 give other spellings of one number
    for spelling in ([Fraction(1, 2), Fraction(-1, 2)], [0, 0, Fraction(-2, 4)],
                     [Fraction(-3, 6), Fraction(-4, 8), 0, Fraction(-5, 5)]):
        y = CycNum(6, spelling)
        assert_lowest_terms(y)
        assert y == x and (y.nums, y.den) == (x.nums, x.den)
    for zero in (CycNum(12, [Fraction(0, 5)] * 7), CycNum(12, [])):
        assert (zero.nums, zero.den) == ((0,) * 4, 1)


def test_arithmetic_builds_no_fraction(monkeypatch):
    x, y = CycNum(12, [Fraction(1, 2), 3, Fraction(-2, 5)]), CycNum(8, [1, Fraction(1, 3)])
    r = Fraction(-1, 2)
    lifted = lift(x, 24)
    built, new = [], Fraction.__new__

    def counting(cls, *args, **kwargs):
        built.append(args)
        return new(cls, *args, **kwargs)

    monkeypatch.setattr(Fraction, "__new__", counting)
    for op in (lambda: x * y, lambda: x * r, lambda: r * x, lambda: 3 * x,
               lambda: x + y, lambda: x + r, lambda: r + x, lambda: x - y,
               lambda: r - x, lambda: x.inv(), lambda: (x * y).inv(),
               lambda: x == y, lambda: x == r, lambda: x.galois(-1), lambda: x == lifted):
        op()
    monkeypatch.undo()
    assert built == []
    assert x * r * x.inv() == r and (x + r) - r == x



@settings(max_examples=150, deadline=None)
@given(st.data())
def test_json_is_written_from_the_integers(data):
    # to_json formats each numerator over den directly; the Fraction route
    # it replaces normalises one Fraction per coefficient
    n = data.draw(st.sampled_from(MIXED_CONDUCTORS), label="conductor")
    raw = data.draw(st.lists(wide_coefficient, max_size=euler_phi(n) + 3), label="coeffs")
    x = CycNum(n, raw)
    coeffs = [format_rational(Fraction(c, x.den)) for c in x.nums]
    assert x.to_json() == {"conductor": n, "coeffs": coeffs}
    r = x.as_rational()
    assert scalar_to_json(x) == (x.to_json() if r is None else format_rational(r))


# -- dot against the term-by-term sum ----------------------------------------

def termwise(xs, ys):
    return reduce(add, map(mul, xs, ys))


def with_cap(cap, fn, *args):
    """fn(*args), or the ValueError it raises, with CREPANT_MAX_CONDUCTOR
    set to `cap` (None: unset) and the environment restored after."""
    with mock.patch.dict(os.environ):
        os.environ.pop("CREPANT_MAX_CONDUCTOR", None)
        if cap is not None:
            os.environ["CREPANT_MAX_CONDUCTOR"] = str(cap)
        try:
            return fn(*args)
        except ValueError as exc:
            return exc


def assert_same_sum(got, want):
    """The same value, type, conductor, spelling and JSON bytes, or the same
    error text."""
    assert type(got) is type(want)
    if isinstance(want, ValueError):
        assert str(got) == str(want)
        return
    assert got == want
    if isinstance(want, CycNum):
        assert (got.conductor, got.nums, got.den) == (want.conductor, want.nums, want.den)
        assert json.dumps(got.to_json()) == json.dumps(want.to_json())
        assert_lowest_terms(got)
    else:
        assert json.dumps(scalar_to_json(got)) == json.dumps(scalar_to_json(want))


@st.composite
def dot_operands(draw):
    """Two equally long lists of int, Fraction and CycNum operands, mixed on
    both sides, at conductors from MIXED_CONDUCTORS whose lcm is within the
    default cap; each CycNum also as the same FractionCycNum."""
    size = draw(st.integers(min_value=1, max_value=6), label="length")
    common, ours, reference = 1, [], []
    for _ in range(2 * size):
        kind = draw(st.sampled_from(["int", "fraction", "cycnum", "cycnum"]), label="kind")
        if kind == "int":
            v = draw(st.integers(min_value=-60, max_value=60))
            ours.append(v)
            reference.append(v)
        elif kind == "fraction":
            v = draw(st.fractions(min_value=-60, max_value=60, max_denominator=36))
            ours.append(v)
            reference.append(v)
        else:
            n = draw(st.sampled_from([d for d in MIXED_CONDUCTORS if lcm(common, d) <= 120]),
                     label="conductor")
            common = lcm(common, n)
            # an empty list is a zero CycNum, which still carries its conductor
            raw = draw(st.lists(wide_coefficient, max_size=euler_phi(n) + 3), label="coeffs")
            ours.append(CycNum(n, raw))
            reference.append(FractionCycNum(n, raw))
    return (ours[::2], ours[1::2]), (reference[::2], reference[1::2])


@settings(max_examples=150, deadline=None)
@given(dot_operands(), st.one_of(st.none(), st.integers(min_value=1, max_value=120)))
def test_dot_matches_the_term_by_term_sum(operands, cap):
    (xs, ys), (rxs, rys) = operands
    # the operands exist under the default cap; a lowered cap rejects a lift
    # to a new conductor over it, at the first running lcm that needs one
    got, want = with_cap(cap, dot, xs, ys), with_cap(cap, termwise, xs, ys)
    assert_same_sum(got, want)
    if isinstance(want, ValueError):
        return
    ref = termwise(rxs, rys)
    if isinstance(want, CycNum):
        assert (got.conductor, got.coeffs) == (ref.conductor, ref.coeffs)
        assert got.to_json() == ref.to_json()
    else:
        assert got == ref


def test_dot_keeps_the_conductor_of_a_zero_operand():
    # a sum takes the lcm of its operands' conductors, zero ones too
    zero24 = CycNum(24, [])
    for xs, ys in (([CycNum.zeta(3), zero24], [Fraction(1, 2), CycNum.zeta(8)]),
                   ([CycNum.zeta(3), 0], [Fraction(1, 2), CycNum.zeta(24)]),
                   ([zero24], [2])):
        got, want = dot(xs, ys), termwise(xs, ys)
        assert_same_sum(got, want)
        assert got.conductor == 24


def test_dot_of_rationals_keeps_the_rational_type():
    assert_same_sum(dot([1, 2, 3], [4, 5, -6]), -4)
    assert_same_sum(dot([Fraction(1, 2), 3], [2, Fraction(1, 3)]), Fraction(2))
    assert_same_sum(dot((1, Fraction(1, 3)), (Fraction(-2, 5), 6)), Fraction(8, 5))
    with pytest.raises(TypeError):
        dot([], [])


@pytest.mark.parametrize("cap", ["10", "23", "7", "+120"])
def test_dot_raises_the_cap_error_of_the_term_by_term_sum(cap):
    z3, z5, z8 = CycNum.zeta(3), CycNum.zeta(5), CycNum.zeta(8)
    z24, z120 = CycNum.zeta(24), CycNum.zeta(120)
    cases = [([z8, z3, z5], [1, 1, 1]),            # 24 before 120
             ([z8], [z3]),                          # a product lifts
             ([Fraction(1, 2), z24], [z5, z3]),     # a sum of a product lifts
             ([z120, CycNum(8, [])], [2, 3]),       # a zero operand lifts too
             ([z120, 3], [z120, Fraction(1, 2)])]   # no lift: no check
    for xs, ys in cases:
        got, want = with_cap(cap, dot, xs, ys), with_cap(cap, termwise, xs, ys)
        assert_same_sum(got, want)
    assert str(with_cap("10", dot, [z8, z3, z5], [1, 1, 1])) == (
        "conductor 24 exceeds cap 10 (set CREPANT_MAX_CONDUCTOR to raise it)")


def test_dot_sends_no_cycnum_through_fraction(monkeypatch):
    seen = []
    for name in ("__mul__", "__add__", "__rmul__", "__radd__"):
        method = getattr(Fraction, name)

        def watched(self, other, method=method, name=name):
            seen.append((name, type(other)))
            return method(self, other)
        monkeypatch.setattr(Fraction, name, watched)
    got = dot([Fraction(1, 2), CycNum.zeta(3)], [CycNum.zeta(4), Fraction(2, 3)])
    monkeypatch.undo()
    assert [call for call in seen if call[1] is CycNum] == []
    assert got == CycNum.zeta(4) / 2 + CycNum.zeta(3) * Fraction(2, 3)
