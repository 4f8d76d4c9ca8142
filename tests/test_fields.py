import itertools
from random import Random

import pytest
from hypothesis import given, settings, strategies as st

from fanoci.errors import InputError
from fanoci.fields import FieldSpec

QUADRATIC = [FieldSpec.quadratic(p) for p in (2, 3, 5)]


@pytest.mark.parametrize("field", QUADRATIC, ids=lambda f: f"GF({f.characteristic}^2)")
def test_quadratic_field_axioms(field):
    p = field.characteristic
    elements = field.elements()
    assert sorted(elements) == list(range(p * p))
    for x in elements:
        assert field.add(x, field.neg(x)) == 0
        assert field.mul(x, 1) == x
        if x:
            assert field.mul(x, field.inv(x)) == 1
            assert field.pow(x, p * p - 1) == 1
    for x, y, z in itertools.product(elements, repeat=3):
        assert field.mul(field.mul(x, y), z) == field.mul(x, field.mul(y, z))
        assert field.add(field.add(x, y), z) == field.add(x, field.add(y, z))
        assert field.mul(x, field.add(y, z)) == field.add(
            field.mul(x, y), field.mul(x, z)
        )
    # GF(p) sits inside as the residues [0, p), closed under both operations
    for a, b in itertools.product(range(p), repeat=2):
        assert field.add(a, b) == (a + b) % p
        assert field.mul(a, b) == (a * b) % p


def test_quadratic_field_is_internal():
    assert FieldSpec.quadratic(5) != FieldSpec.prime(5)
    assert not FieldSpec.quadratic(5).is_prime_field
    with pytest.raises(InputError):
        FieldSpec.quadratic(9)
    with pytest.raises(InputError):
        FieldSpec.quadratic(5).coerce(25)


@pytest.mark.parametrize(
    "tag",
    [
        None, 7, True, ["gf:7"], {"gf": 7}, "gf:4", "gf:x", "q",
        # outside the ASCII grammar gf:[0-9]+, though ``int`` reads them
        "gf:1_01", "gf: 7", "gf:+5", "gf:\u0663",
        # psi_12, a strong pseudoprime to the bases up to 37, and psi_13,
        # where the exact primality range ends
        "gf:318665857834031151167461", "gf:3317044064679887385961981",
    ],
)
def test_bad_field_tags_are_input_errors(tag):
    with pytest.raises(InputError):
        FieldSpec.from_json_tag(tag)


@pytest.mark.parametrize(
    "tag",
    ["gf:" + "7" * 5000, "gf:" + "7" * 3000, "x" * 5000, ["gf:7"] * 5000],
    ids=["5000 digits", "3000 digits", "5000 letters", "a list of 5000 tags"],
)
def test_a_huge_rejected_tag_is_shown_cut(tag):
    with pytest.raises(InputError) as info:
        FieldSpec.from_json_tag(tag)
    message = str(info.value)
    assert len(message) < 200 and "more characters)" in message


def test_a_short_rejected_tag_is_shown_whole():
    with pytest.raises(InputError, match=r"^bad field tag: 'gf:x'$"):
        FieldSpec.from_json_tag("gf:x")


@pytest.mark.parametrize("p", [32003, 2**61 - 1])
def test_prime_field_tags_are_accepted(p):
    field = FieldSpec.from_json_tag(f"gf:{p}")
    assert field == FieldSpec.prime(p) and field.json_tag == f"gf:{p}"


@pytest.mark.parametrize("p", [2, 3, 5, 101, 32003])
@pytest.mark.parametrize("seed", [0, 1, 7, 2**40 + 3])
def test_random_elements_are_the_randrange_draws(p, seed):
    # the draws are inlined, so they must stay those of ``randrange(p)`` for
    # every seeded instance, sampled form and slice to keep its value
    expected, ours = Random(seed), Random(seed)
    prime, quadratic = FieldSpec.prime(p), FieldSpec.quadratic(p)
    for _ in range(200):
        assert prime.random_element(ours) == expected.randrange(p)
        a = expected.randrange(p)
        assert quadratic.random_element(ours) == a + expected.randrange(p) * p
    assert ours.getstate() == expected.getstate()


@pytest.mark.parametrize(
    "field",
    [
        *(FieldSpec.from_json_tag(f"gf:{p}") for p in (2, 5, 101, 32003, 18446744073709551557)),
        FieldSpec.quadratic(5),
        FieldSpec.rationals(),
    ],
    ids=lambda f: f.json_tag if f.is_prime_field or f.characteristic == 0 else "GF(5^2)",
)
@pytest.mark.parametrize("seed", [0, 3, 2**40 + 3])
def test_random_elements_are_the_single_draws(field, seed):
    # the bulk draw must give what as many single draws give, and leave the
    # stream where they leave it, for any count, so that callers may switch
    expected, ours = Random(seed), Random(seed)
    for count in [0, 1, 2, 7, 64, 1000, 3]:
        single = [field.random_element(expected) for _ in range(count)]
        assert field.random_elements(ours, count) == single
        assert ours.getstate() == expected.getstate()


@pytest.mark.parametrize(
    "p", [10**5000, -(10**5000), 2**20000], ids=["10^5000", "-10^5000", "2^20000"]
)
def test_a_characteristic_past_the_digit_limit_is_an_input_error(p):
    # Python refuses to write an int of more than 4,300 digits in decimal;
    # the refusal shows its bit length instead
    with pytest.raises(InputError, match=rf"<an integer of {p.bit_length()} bits>"):
        FieldSpec.prime(p)
    with pytest.raises(InputError, match="field tag must be a string"):
        FieldSpec.from_json_tag(p)
    with pytest.raises(InputError, match="holding an integer too long to show"):
        FieldSpec.from_json_tag([p])
