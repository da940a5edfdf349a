import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from rootrand import (
    ConfigError,
    DigitBlock,
    GeneratorConfig,
    StreamCache,
    StreamExhausted,
    bits_to_decimal,
    compare_digits,
    concat,
    digits_stream,
    generate_bits,
    operator_O,
    pair_stream,
    schedule,
)
from rootrand.generator import _entry_windows, shared_stream

# Regression anchor: the first 64 bits of the default stream, confirmed
# by two independent implementations of the pipeline. Any change here
# means the schedule, the digit windows, or the comparison drifted.
DESK_FIRST_64 = "0101111110111000110001111100110001110100100000001000100110010100"


# ---------------------------------------------------------------------------
# configuration


def test_default_config_values(desk_config):
    assert desk_config.n_pairs == 200
    assert desk_config.rounds == 4
    assert desk_config.precision_digits == 20_000
    assert desk_config.skip_digits == 50
    assert desk_config.block_index == 0
    assert desk_config.window == 19_950


def test_config_is_frozen_and_hashable(desk_config):
    with pytest.raises(AttributeError):
        desk_config.rounds = 5
    assert {desk_config: 1}[GeneratorConfig()] == 1


@pytest.mark.parametrize(
    "kwargs",
    [
        dict(n_pairs=0),
        dict(rounds=0),
        dict(n_pairs=3, rounds=4),
        dict(skip_digits=39),
        dict(skip_digits=101),
        dict(precision_digits=50, skip_digits=50),
        dict(block_index=-1),
        dict(c1=(5,)),
        dict(n_pairs=1, rounds=1, c1=(5,), c2=(17, 19)),
        dict(n_pairs=1, rounds=1, c1=(6,), c2=(17,)),
        dict(n_pairs=1, rounds=1, c1=(5,), c2=(5,)),
        dict(n_pairs=2, rounds=2, c1=(5, 7), c2=(17, 19), degrees=(3,)),
        dict(n_pairs=1, rounds=1, c1=(5,), c2=(17,), degrees=(4,)),
        dict(rounds=True),
    ],
)
def test_config_rejects_invalid(kwargs):
    with pytest.raises(ConfigError):
        GeneratorConfig(**kwargs)


def test_config_boundary_skips():
    GeneratorConfig(skip_digits=40)
    GeneratorConfig(skip_digits=100)


# ---------------------------------------------------------------------------
# schedule


def test_schedule_worked_example(worked_config):
    entries = schedule(worked_config)
    assert len(entries) == 1
    entry = entries[0]
    assert (entry.round_index, entry.pair_index) == (1, 1)
    assert (entry.left, entry.right, entry.root_degree) == (5, 17, 3)


def test_schedule_rotation_round1():
    config = GeneratorConfig(n_pairs=3, rounds=3)
    entries = schedule(config)
    # c1 = (2, 3, 5), c2 = (7, 11, 13); round 1 shifts partners by one
    round1 = [e for e in entries if e.round_index == 1]
    assert [e.left for e in round1] == [2, 3, 5]
    assert [e.right for e in round1] == [13, 7, 11]


def test_schedule_rotation_round2_place():
    config = GeneratorConfig(n_pairs=4, rounds=4)
    entries = {(e.round_index, e.pair_index): e for e in schedule(config)}
    # after rotating by 2, the first element of c2 sits at slot 3
    first_c2 = 11
    assert entries[(2, 3)].right == first_c2


def test_schedule_degrees_and_order():
    config = GeneratorConfig(n_pairs=5, rounds=4)
    entries = schedule(config)
    assert len(entries) == 20
    assert [e.root_degree for e in entries[::5]] == [2, 3, 5, 7]
    keys = [(e.round_index, e.pair_index) for e in entries]
    assert keys == sorted(keys)


def test_schedule_block_advances_primes():
    base = schedule(GeneratorConfig(n_pairs=3, rounds=2))
    shifted = schedule(GeneratorConfig(n_pairs=3, rounds=2, block_index=1))
    assert {e.left for e in shifted} == {17, 19, 23}
    assert {e.right for e in shifted} == {29, 31, 37}
    assert {e.left for e in base}.isdisjoint({e.left for e in shifted})


@given(
    n=st.integers(min_value=2, max_value=12),
    rounds=st.integers(min_value=1, max_value=8),
)
@settings(max_examples=40)
def test_schedule_pairs_distinct(n, rounds):
    rounds = min(rounds, n)
    entries = schedule(GeneratorConfig(n_pairs=n, rounds=rounds))
    assert len(entries) == n * rounds
    pairs = [(e.left, e.right) for e in entries]
    assert len(set(pairs)) == len(pairs)
    # rotation by j never pairs a slot with its natural partner while j < n
    from rootrand import prime_pair_sets

    sets = prime_pair_sets(n, 0)
    for e in entries:
        if e.round_index % n != 0:
            assert e.right != sets.c2[e.pair_index - 1]


# ---------------------------------------------------------------------------
# bit generation


def test_worked_example_bits(worked_config):
    assert generate_bits(worked_config, 3).tolist() == [0, 1, 0]
    assert generate_bits(worked_config, 1).tolist() == [0]


def test_generate_bits_validation(desk_config):
    with pytest.raises(ValueError):
        generate_bits(desk_config, 0)
    with pytest.raises(ValueError):
        generate_bits(desk_config, -5)
    with pytest.raises(ValueError):
        generate_bits(desk_config, 10, workers=0)


def test_desk_fingerprint(desk_config):
    got = "".join(map(str, generate_bits(desk_config, 64).tolist()))
    assert got == DESK_FIRST_64


def test_prefix_property(desk_config):
    long = generate_bits(desk_config, 5000)
    short = generate_bits(desk_config, 1000)
    assert np.array_equal(long[:1000], short)


def test_fresh_caches_agree(desk_config):
    a = StreamCache(desk_config).prefix(50_000)
    b = StreamCache(desk_config).prefix(50_000)
    assert np.array_equal(a, b)
    assert np.array_equal(a, generate_bits(desk_config, 50_000))


def test_workers_match_single_process(desk_config):
    single = StreamCache(desk_config).prefix(300_000)
    multi = StreamCache(desk_config).prefix(300_000, workers=2)
    assert np.array_equal(single, multi)


def test_prefix_is_read_only(desk_config):
    bits = generate_bits(desk_config, 32)
    with pytest.raises(ValueError):
        bits[0] = 1


def test_shared_stream_identity(desk_config, worked_config):
    assert shared_stream(desk_config) is shared_stream(GeneratorConfig())
    assert shared_stream(desk_config) is not shared_stream(worked_config)


def test_first_entry_yield():
    # First desk comparison: 19950 digit pairs give 17933 bits, so just
    # over 10 percent of positions tie. Both values are regression
    # anchors from two independent pipeline implementations.
    bits = operator_O(*_entry_windows((2, 2741, 2, 51, 19_950)))
    assert bits.size == 17_933
    ties = 1 - bits.size / 19_950
    assert 0.05 < ties < 0.15


@pytest.mark.parametrize("config_name, entries", [("worked_config", 1), ("desk_config", 3)])
def test_pair_stream_compares_to_bit_stream(config_name, entries, request):
    # The pair path and the bit path share one window pipeline, so
    # comparing the pairs reproduces the stream bit for bit.
    config = request.getfixturevalue(config_name)
    pairs = pair_stream(config, entries * config.window)
    bits = operator_O(pairs[:, 0], pairs[:, 1])
    assert bits.size > 0
    assert np.array_equal(bits, StreamCache(config).prefix(bits.size))
    assert np.array_equal(bits, generate_bits(config, bits.size))


def test_override_stream_exhausts(worked_config):
    cache = StreamCache(worked_config)
    with pytest.raises(StreamExhausted):
        cache.prefix(100)
    with pytest.raises(StreamExhausted):
        pair_stream(worked_config, 51)


# ---------------------------------------------------------------------------
# digit comparison primitives


def test_compare_digits_examples():
    assert compare_digits(4, 6) == 0
    assert compare_digits(9, 2) == 1
    assert compare_digits(5, 5) is None
    with pytest.raises(ValueError):
        compare_digits(10, 3)
    with pytest.raises(ValueError):
        compare_digits(3, -1)
    with pytest.raises(ValueError):
        compare_digits(3.0, 1)


def test_operator_worked_example():
    left = DigitBlock(np.array([4, 9, 2], dtype=np.uint8), offset=51)
    right = DigitBlock(np.array([6, 2, 5], dtype=np.uint8), offset=51)
    assert operator_O(left, right).tolist() == [0, 1, 0]


def test_operator_edge_cases():
    assert operator_O([7, 7, 7], [7, 7, 7]).size == 0
    assert operator_O([9, 0], [0, 9]).tolist() == [1, 0]
    with pytest.raises(ValueError):
        operator_O([1, 2], [1, 2, 3])
    with pytest.raises(ValueError):
        operator_O(
            DigitBlock(np.array([1], dtype=np.uint8), offset=1),
            DigitBlock(np.array([2], dtype=np.uint8), offset=2),
        )
    with pytest.raises(ValueError):
        operator_O([11], [3])


@given(
    pairs=st.lists(
        st.tuples(st.integers(min_value=0, max_value=9), st.integers(min_value=0, max_value=9)),
        max_size=50,
    )
)
@settings(max_examples=60)
def test_operator_matches_scalar_compare(pairs):
    left = [a for a, _ in pairs]
    right = [b for _, b in pairs]
    expected = [compare_digits(a, b) for a, b in pairs]
    expected = [v for v in expected if v is not None]
    assert operator_O(left, right).tolist() == expected


def test_concat_examples():
    first = [0, 1, 1, 1, 0, 1]
    second = [1, 1, 1, 0, 1, 0, 1, 0]
    assert concat([first, second]).tolist() == first + second
    assert concat([]).size == 0
    assert concat([[], [1], []]).tolist() == [1]
    with pytest.raises(ValueError):
        concat([[0, 2]])


@given(chunks=st.lists(st.lists(st.integers(min_value=0, max_value=1), max_size=8), max_size=6))
@settings(max_examples=40)
def test_concat_flattens(chunks):
    expected = [b for chunk in chunks for b in chunk]
    assert concat(chunks).tolist() == expected


# ---------------------------------------------------------------------------
# decimal output


def _reference_decimal(bits):
    out = []
    for i in range(0, len(bits) - len(bits) % 4, 4):
        value = bits[i] * 8 + bits[i + 1] * 4 + bits[i + 2] * 2 + bits[i + 3]
        if value <= 9:
            out.append(value)
    return out


def test_bits_to_decimal_examples():
    assert bits_to_decimal([0, 0, 0, 0, 0, 1, 0, 1, 1, 0, 0, 1]).tolist() == [0, 5, 9]
    assert bits_to_decimal([1, 0, 1, 0, 0, 0, 0, 1]).tolist() == [1]
    assert bits_to_decimal([1, 0, 1]).size == 0
    assert bits_to_decimal([]).size == 0
    with pytest.raises(ValueError):
        bits_to_decimal([0, 2, 1, 1])


@given(bits=st.lists(st.integers(min_value=0, max_value=1), max_size=120))
@settings(max_examples=60)
def test_bits_to_decimal_reference(bits):
    got = bits_to_decimal(bits)
    assert got.tolist() == _reference_decimal(bits)
    if got.size:
        assert got.max() <= 9


def test_digits_stream_consistency(desk_config):
    digits, consumed = digits_stream(desk_config, 7)
    assert consumed % 4 == 0
    decoded = bits_to_decimal(generate_bits(desk_config, consumed))
    assert decoded.tolist() == digits.tolist()
    # one group fewer must lose the final digit
    shorter = bits_to_decimal(generate_bits(desk_config, consumed - 4))
    assert shorter.tolist() == digits.tolist()[:-1]
    with pytest.raises(ValueError):
        digits_stream(desk_config, 0)


# ---------------------------------------------------------------------------
# pair stream


def test_pair_stream_worked_example(worked_config):
    pairs = pair_stream(worked_config, 3)
    assert pairs.tolist() == [[4, 6], [9, 2], [2, 5]]


def test_pair_stream_includes_ties(desk_config):
    # the very first desk comparison is a tie: digit 51 of sqrt(2) and
    # sqrt(2741) are both 8
    pairs = pair_stream(desk_config, 1)
    assert pairs.tolist() == [[8, 8]]


def test_pair_stream_shapes(desk_config):
    assert pair_stream(desk_config, 0).shape == (0, 2)
    taken = pair_stream(desk_config, 25_000)
    assert taken.shape == (25_000, 2)
    assert taken.max() <= 9
    with pytest.raises(ValueError):
        pair_stream(desk_config, -1)
