"""The compiled canonical encoder against the generic walk it replaced.

``repro.cache.keys.canonical_encode`` compiles one encoder per class;
``tests.oracles.canonical_encode_walk`` picks a rule for every node.
Both must give the same tree, and so the same canonical JSON, on any
spec tree — or raise the same ``TypeError``.
"""

import dataclasses
import enum
import json

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from repro.cache.keys import canonical_encode, canonical_json
from repro.hardware.activity import CpuActivity
from repro.hardware.calibration import DEFAULT_CALIBRATION
from tests.oracles import canonical_encode_walk


class Level(enum.IntEnum):
    LOW = 1
    HIGH = 2


try:
    StrEnum = enum.StrEnum
except AttributeError:  # Python 3.10: a str-mixin enum, as StrEnum is

    class StrEnum(str, enum.Enum):
        pass


class Tier(StrEnum):
    FRONT = "fe"
    APP = "app"


class Colour(enum.Enum):
    RED = "r"
    RED_DARK = "rd"
    BLUE = (0, 1)


@dataclasses.dataclass
class Pair:
    left: object = None
    right: object = None


@dataclasses.dataclass
class LabelledPair(Pair):
    label: str = ""


class Plain:
    def __init__(self, **attrs):
        self.__dict__.update(attrs)

    def method(self):
        return 0


def walk_json(obj):
    return json.dumps(
        canonical_encode_walk(obj), sort_keys=True, separators=(",", ":")
    )


def assert_matches_walk(obj):
    tree = canonical_encode(obj)
    assert tree == canonical_encode_walk(obj)
    assert canonical_json(obj) == walk_json(obj)


# -- generated spec trees ------------------------------------------------

MEMBERS = st.sampled_from(
    list(Level) + list(Tier) + list(Colour) + list(CpuActivity)
)
TEXT = st.text(
    alphabet=st.sampled_from(list('ab Z_"\\\né☃')), max_size=6
)
LEAVES = (
    st.none()
    | st.booleans()
    | st.integers(min_value=-(2**70), max_value=2**70)
    | st.floats(allow_nan=False)
    | TEXT
    | MEMBERS
    | st.binary(max_size=4)
    | st.builds(np.float64, st.floats(allow_nan=False))
    | st.builds(np.int64, st.integers(min_value=-(2**40), max_value=2**40))
)
NAMES = st.sampled_from(["a", "b", "item", "tolist", "shape", "z_1"])


def _extend(children):
    return (
        st.lists(children, max_size=4)
        | st.lists(children, max_size=4).map(tuple)
        | st.dictionaries(TEXT | MEMBERS, children, max_size=4)
        | st.dictionaries(st.integers(-3, 3), children, max_size=3)
        | st.frozensets(TEXT | MEMBERS | st.integers(-5, 5), max_size=4)
        | st.builds(Pair, children, children)
        | st.builds(LabelledPair, children, children, TEXT)
        | st.dictionaries(NAMES, children, max_size=3).map(
            lambda attrs: Plain(**attrs)
        )
        | st.lists(st.floats(-1e3, 1e3), max_size=4).map(np.array)
    )


SPEC_TREES = st.recursive(LEAVES, _extend, max_leaves=20)


@settings(max_examples=200, deadline=None)
@given(SPEC_TREES)
def test_compiled_encoder_matches_the_walk_on_spec_trees(tree):
    assert_matches_walk(tree)


# -- every rule, explicitly ----------------------------------------------


def test_int_and_str_enum_members_encode_as_their_values():
    for member in (Level.HIGH, Tier.APP):
        assert_matches_walk(member)
        assert canonical_json(member) == json.dumps(member)


def test_plain_enum_members_encode_by_qualified_name():
    assert_matches_walk(Colour.BLUE)
    assert canonical_encode(Colour.RED)["name"] == "RED"


def test_dataclass_subclass_encodes_its_own_qualname_and_every_field():
    obj = LabelledPair(1.5, Pair("x", None), label="l")
    assert_matches_walk(obj)
    tree = canonical_encode(obj)
    assert tree["__dataclass__"].endswith("LabelledPair")
    assert set(tree["fields"]) == {"left", "right", "label"}


def test_enum_keyed_maps_sort_by_member_text():
    # RED sorts before RED_DARK only by the JSON text's closing quote.
    assert_matches_walk({Colour.RED_DARK: 1, Colour.BLUE: 2, Colour.RED: 3})
    assert_matches_walk({Level.HIGH: "h", Level.LOW: "l"})
    assert_matches_walk({Tier.FRONT: 1, Tier.APP: 2})
    assert_matches_walk(DEFAULT_CALIBRATION)


def test_str_keyed_maps_sort_by_escaped_text():
    keys = ['a', 'a b', 'a"', "a\\", 'aé', '☃', 'Z', '', '\n']
    assert_matches_walk({k: i for i, k in enumerate(keys)})
    assert_matches_walk({k: i for i, k in enumerate(reversed(keys))})


def test_mixed_key_maps_and_sets():
    assert_matches_walk({1: "i", "1": "s", Colour.RED: "e", (1, 2): "t"})
    assert_matches_walk({3, 1, "b", "a", Colour.RED, Level.LOW})
    assert_matches_walk(frozenset({'a"', "a", "a b"}))


def test_bytes_encode_as_hex():
    assert_matches_walk(b"\x00\xffab")
    assert_matches_walk(bytearray(b"xy"))


def test_numpy_scalars_and_arrays():
    for value in (
        np.float64(0.1),
        np.float32(0.25),
        np.int64(-7),
        np.bool_(True),
        np.array(2.5),
        np.array(3),
        np.arange(6).reshape(2, 3),
        np.zeros(0),
    ):
        assert_matches_walk(value)


def test_plain_object_drops_callable_attributes():
    obj = Plain(a=1, hook=lambda: 1, nested=Plain(b=(1, 2)))
    assert_matches_walk(obj)
    assert set(canonical_encode(obj)["attrs"]) == {"a", "nested"}


def test_plain_object_made_array_like_by_instance_attributes():
    assert_matches_walk(Plain(item=lambda: 5, shape=()))
    assert_matches_walk(Plain(tolist=lambda: [1], dtype="i8", shape=(1,)))
    assert_matches_walk(Plain(item=3, tolist="no"))


def test_class_objects_encode_like_the_walk():
    class Marker:
        pass

    class Tagged(Marker):
        size = 3

    # A class object is encoded by its namespace; Marker's holds the
    # ``__dict__`` descriptor, which nothing can encode.
    for encode in (canonical_encode, canonical_encode_walk):
        with pytest.raises(TypeError, match="getset_descriptor"):
            encode(Marker)
    assert_matches_walk(Tagged)
    assert canonical_encode(Tagged)["attrs"]["size"] == 3


def test_unencodable_object_still_raises():
    with pytest.raises(TypeError, match="canonically encode"):
        canonical_encode(object())
    with pytest.raises(TypeError, match="canonically encode"):
        canonical_encode([1, {"k": object()}])
