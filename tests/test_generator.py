import hashlib
import math
import sys
import threading
import tracemalloc
from dataclasses import replace
from decimal import Decimal

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import rootrand.generator as generator_mod
import rootrand.primes as primes_mod
import rootrand.roots as roots_mod
from rootrand import (
    ConfigError,
    GeneratorConfig,
    ScheduleEntry,
    StreamCache,
    StreamExhausted,
    bits_to_decimal,
    compare_digits,
    concat,
    digits_stream,
    first_n_primes,
    generate_bits,
    operator_O,
    pair_frequency_table,
    pair_stream,
    schedule,
)
from rootrand.generator import _block_values, _entries, _entry_windows, shared_stream
from rootrand.primes import is_prime

# Regression anchor: the first 64 bits of the default stream, confirmed
# by two independent implementations of the pipeline. Any change here
# means the schedule, the digit windows, or the comparison drifted.
DESK_FIRST_64 = "0101111110111000110001111100110001110100100000001000100110010100"

# Second anchor: SHA-256 of the packed first 100,000 bits of the paper's
# configuration (10,000 pairs, 10,000 rounds, 100,000 digits, 50 skipped).
PAPER_CONFIG = GeneratorConfig(n_pairs=10_000, rounds=10_000, precision_digits=100_000, skip_digits=50)
PAPER_FIRST_100K_SHA256 = "d4884804cbaa05454681afc3f19dabf39dfee0278f187b7d103ff157275b3b12"


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
        dict(n_pairs=1, rounds=1, precision_digits=100, c1=(5.9,), c2=(17,)),
        dict(n_pairs=1, rounds=1, precision_digits=100, c1=(5,), c2=("17",)),
        dict(n_pairs=1, rounds=1, precision_digits=100, c1=(5,), c2=(17,), degrees=(3.2,)),
        dict(n_pairs=2, rounds=1, c1=(5, 5), c2=(17, 19), match="c1 must not repeat primes"),
        # Above the bound, checked before the prime test sieves up to isqrt of the entry.
        dict(n_pairs=1, rounds=1, c1=(10**30 + 57,), c2=(17,), match="c1 entries must be at most 1000000000000"),
        # The first block's last rank, 2 * 200 * 15001, is past the prime table's bound.
        dict(block_index=15_000, match="block_index 15000 at n_pairs 200 needs 6000400 prime ranks; "
                                       "the prime table holds at most MAX_RANK = 6000000"),
    ],
)
def test_config_rejects_invalid(kwargs):
    kwargs = dict(kwargs)
    match = kwargs.pop("match", None)
    with pytest.raises(ConfigError, match=match):
        GeneratorConfig(**kwargs)


def test_config_boundary_skips():
    GeneratorConfig(skip_digits=40)
    GeneratorConfig(skip_digits=100)


def test_walk_past_the_rank_bound_raises():
    # The first block ends at rank MAX_RANK, so the config is valid; entry 1
    # opens the next block, and its primes are refused before any sieve runs.
    config = GeneratorConfig(n_pairs=1, rounds=1, block_index=primes_mod.MAX_RANK // 2 - 1)
    with pytest.raises(ValueError, match=rf"6000002 primes asked for; .* MAX_RANK = {primes_mod.MAX_RANK}"):
        list(_entries(config, 1, 2))


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


def test_entries_by_index_equal_the_block_walk():
    config = GeneratorConfig(n_pairs=3, rounds=2)
    walk = [e for b in range(6) for e in schedule(replace(config, block_index=b))]
    # Spans that start and end inside different blocks, and an empty one.
    for a, b in [(0, 36), (2, 9), (4, 23), (11, 13), (17, 31), (7, 7)]:
        assert list(_entries(config, a, b)) == walk[a:b]
    # Block indices are not separate streams: block 1's stream is block 0's
    # from its second block on.
    assert list(_entries(replace(config, block_index=1), 0, 20)) == list(_entries(config, 6, 26))
    # An override schedule ends with its one block.
    override = replace(config, c1=(2, 3, 5), c2=(7, 11, 13))
    assert list(_entries(override, 4, 10)) == schedule(override)[4:]
    assert list(_entries(override, 6, 9)) == []


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

    _, c2 = prime_pair_sets(n, 0)
    for e in entries:
        if e.round_index % n != 0:
            assert e.right != c2[e.pair_index - 1]


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


def test_paper_prefix_pinned(floor_backend):
    bits = generate_bits(PAPER_CONFIG, 100_000)
    assert hashlib.sha256(np.packbits(bits).tobytes()).hexdigest() == PAPER_FIRST_100K_SHA256
    # Entry 0 compares the square roots of 2 and 224737; its windows are
    # the last 99,950 digits of isqrt(p * 10**200000), read through Decimal,
    # whose str is not bound by the int-to-str digit cap.
    entry = next(_entries(PAPER_CONFIG, 0, 1))
    assert (entry.root_degree, entry.left, entry.right) == (2, 2, 224737)
    for p, window in zip((entry.left, entry.right), _entry_windows(PAPER_CONFIG, entry)):
        digits = str(Decimal(math.isqrt(p * 10**200_000)))[-PAPER_CONFIG.window:]
        assert (window + ord("0")).tobytes() == digits.encode("ascii")


def test_prefix_property(desk_config):
    long = generate_bits(desk_config, 5000)
    short = generate_bits(desk_config, 1000)
    assert np.array_equal(long[:1000], short)


def test_fresh_caches_agree(desk_config):
    a = StreamCache(desk_config).prefix(50_000)
    b = StreamCache(desk_config).prefix(50_000)
    assert np.array_equal(a, b)
    assert np.array_equal(a, generate_bits(desk_config, 50_000))


def test_fresh_cache_recomputes(monkeypatch):
    # Two fresh walks prove determinism only if the second computes its
    # roots again instead of rereading the first walk's digits. Within a
    # walk no (p, r) comes twice.
    config = GeneratorConfig(n_pairs=8, rounds=3, precision_digits=300)
    compute, calls = roots_mod._floor_root, []

    def counted(p, r, depth):
        calls.append((p, r, depth))
        return compute(p, r, depth)

    monkeypatch.setattr(roots_mod, "_floor_root", counted)
    walks = []
    for _ in range(2):
        start = len(calls)
        StreamCache(config).prefix(2000)
        walks.append(calls[start:])
    assert walks[0] == walks[1]
    assert len({(p, r) for p, r, _ in walks[0]}) == len(walks[0]) > 0


def test_threads_share_one_cache_and_one_prime_table(monkeypatch):
    # Four threads ask one 300-digit config for prefixes of different lengths,
    # for prime tables of different sizes and for a primality test that grows
    # the table, while the shared caches and the prime table start empty. Each
    # prefix equals a fresh single-thread walk's, one cache serves every
    # thread, and the prime tables agree.
    config = GeneratorConfig(n_pairs=40, rounds=4, precision_digits=300)
    lengths = (3000, 60_000, 20_000, 150_000)
    want = StreamCache(config).prefix(max(lengths))
    monkeypatch.setattr(generator_mod, "_shared", {})
    monkeypatch.setattr(primes_mod, "_table", np.zeros(0, dtype=np.int64))
    barrier, results = threading.Barrier(len(lengths)), {}

    def work(i, n):
        barrier.wait(timeout=60)
        prime = is_prime(999_999_999_989 - 2 * i)
        primes, cache = first_n_primes(5000 + 3000 * i), shared_stream(config)
        results[i] = (generate_bits(config, n), cache, primes, prime)

    threads = [threading.Thread(target=work, args=(i, n)) for i, n in enumerate(lengths)]
    interval = sys.getswitchinterval()
    sys.setswitchinterval(1e-5)
    try:
        for thread in threads:
            thread.start()
        for thread in threads:
            thread.join(timeout=120)
    finally:
        sys.setswitchinterval(interval)
    assert not any(thread.is_alive() for thread in threads)
    assert sorted(results) == list(range(len(lengths)))
    assert list(generator_mod._shared) == [config]
    table = first_n_primes(5000 + 3000 * len(lengths))
    for i, n in enumerate(lengths):
        bits, cache, primes, prime = results[i]
        assert np.array_equal(bits, want[:n])
        assert cache is generator_mod._shared[config]
        assert primes == table[: 5000 + 3000 * i]
        assert prime == (i == 0)


def test_workers_match_single_process(desk_config):
    single = StreamCache(desk_config).prefix(300_000)
    multi = StreamCache(desk_config).prefix(300_000, workers=2)
    assert np.array_equal(single, multi)


@pytest.mark.parametrize(
    "precision, n_pairs, n_entries, workers",
    [
        # 300-digit windows: 218 entries to a block, and the 1024-entry wave
        # boundary falls inside the walk, on one process and on two.
        (350, 300, 1100, 1),
        (350, 300, 1100, 2),
        # A window longer than a block's digit pairs: each block holds one entry.
        (50 + (1 << 16) + 14, 1, 2, 1),
    ],
)
def test_wave_step_matches_each_entry(precision, n_pairs, n_entries, workers):
    # The wave step's bits and pair counts equal each entry's own, from its windows.
    config = GeneratorConfig(n_pairs=n_pairs, rounds=1, precision_digits=precision)
    cache = StreamCache(config)
    cache.pair_counts(n_entries * config.window, workers)
    assert len(cache._pairs) == n_entries
    windows = [_entry_windows(config, e) for e in _entries(config, 0, n_entries)]
    assert np.array_equal(cache._bits, concat(operator_O(a, b) for a, b in windows))
    assert np.array_equal(cache._pairs, [np.bincount(a * 10 + b, minlength=100) for a, b in windows])
    assert cache._pairs.dtype == np.min_scalar_type(config.window)


def test_entry_bits_do_not_depend_on_depth():
    # A root's digits do not change with the depth they are taken to, so
    # configs that differ only in precision_digits agree on entry 0's bits
    # up to the shorter window's.
    configs = [GeneratorConfig(n_pairs=4, rounds=4, precision_digits=d) for d in (300, 2000, 20_000)]
    bits = [operator_O(*_entry_windows(c, next(_entries(c, 0, 1)))) for c in configs]
    for shorter, longer in zip(bits, bits[1:]):
        assert 0 < shorter.size < longer.size and np.array_equal(longer[: shorter.size], shorter)
    for config, entry_bits in zip(configs, bits):
        assert np.array_equal(StreamCache(config).prefix(entry_bits.size), entry_bits)


def test_withheld_configuration_recovered_from_64_bits():
    # A direct attack on a private block index and skip: by the property
    # above, a candidate's entry 0 needs its roots to only skip + 100
    # digits, whatever the precision. Among 610 candidates, 64 output bits
    # of the planted config match the planted pair alone.
    planted = GeneratorConfig(block_index=7, skip_digits=73)
    observed = StreamCache(planted).prefix(64)
    hits = []
    for block in range(10):
        for skip in range(40, 101):
            candidate = GeneratorConfig(block_index=block, skip_digits=skip, precision_digits=skip + 100)
            bits = operator_O(*_entry_windows(candidate, next(_entries(candidate, 0, 1))))
            if np.array_equal(bits[:64], observed):
                hits.append((block, skip))
    assert hits == [(7, 73)]


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
    bits = operator_O(*_entry_windows(GeneratorConfig(), ScheduleEntry(1, 1, 2, 2, 2741)))
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
    with pytest.raises(StreamExhausted):
        pair_frequency_table(worked_config, 51)


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
    # Digits 51..53 of 5**(1/3) and 17**(1/3), the worked config.
    left = np.array([4, 9, 2], dtype=np.uint8)
    right = np.array([6, 2, 5], dtype=np.uint8)
    assert operator_O(left, right).tolist() == [0, 1, 0]


def test_operator_edge_cases():
    assert operator_O([7, 7, 7], [7, 7, 7]).size == 0
    assert operator_O([9, 0], [0, 9]).tolist() == [1, 0]
    with pytest.raises(ValueError):
        operator_O([1, 2], [1, 2, 3])
    with pytest.raises(ValueError, match="one dimensional"):
        operator_O(np.zeros((2, 2), dtype=np.uint8), np.zeros((2, 2), dtype=np.uint8))
    with pytest.raises(ValueError):
        operator_O([11], [3])
    # Checked before the uint8 cast, which would wrap 261 to 5 and cut 3.9 to 3.
    with pytest.raises(ValueError):
        operator_O(np.array([261, 3]), np.array([4, 3]))
    with pytest.raises(ValueError):
        operator_O(np.array([5, 3]), np.array([4, 3.9]))
    with pytest.raises(ValueError):
        operator_O(np.array([-1, 3]), np.array([4, 3]))


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
    with pytest.raises(ValueError):
        concat([np.array([0, 257])])
    with pytest.raises(ValueError):
        concat([np.array([0.9, 1])])


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
    with pytest.raises(ValueError):
        bits_to_decimal(np.array([0, 256, 1, 1]))
    with pytest.raises(ValueError):
        bits_to_decimal([0.5, 1.0, 1, 1])


@given(bits=st.lists(st.integers(min_value=0, max_value=1), max_size=120))
@settings(max_examples=60)
def test_bits_to_decimal_reference(bits):
    got = bits_to_decimal(bits)
    assert got.tolist() == _reference_decimal(bits)
    if got.size:
        assert got.max() <= 9


@pytest.mark.parametrize("k", [2, 3, 4, 5])
def test_block_values_reference_and_memory(k):
    bits = np.random.default_rng(k).integers(0, 2, size=1_000_000, dtype=np.uint8)
    text = "".join(map(str, bits.tolist()))
    expected = [int(text[i : i + k], 2) for i in range(0, bits.size - bits.size % k, k)]
    tracemalloc.start()
    try:
        values = _block_values(bits, k)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert values.tolist() == expected
    # The decode must not widen the bits: a cast to int64 costs 8 bytes per bit.
    assert peak < 2 * bits.size


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


def test_digits_stream_walks_only_what_it_decodes(monkeypatch):
    # A first request that falls short grows by the expected shortfall, not
    # by a factor: the stream walked ends within about one entry of the bits
    # decoded. Growing by 1.8x walked 115,797 bits to decode these 64,548.
    monkeypatch.setattr(generator_mod, "_shared", {})
    config = GeneratorConfig(precision_digits=2000)
    digits, consumed = digits_stream(config, 10_000)
    assert consumed == 64_548
    assert shared_stream(config)._bits.size < consumed + 2 * config.window
    assert bits_to_decimal(generate_bits(config, consumed)).tolist() == digits.tolist()


def test_digits_stream_reads_an_exhausted_override_schedule(worked_config):
    # The worked schedule emits 47 bits, whose nibbles 4 5 10 14 4 5 6 11 6 0 6
    # decode into 8 digits: more than the first request's estimate covers.
    digits, consumed = digits_stream(worked_config, 3)
    assert (digits.tolist(), consumed) == ([4, 5, 4], 20)
    assert digits_stream(worked_config, 8)[0].tolist() == [4, 5, 4, 5, 6, 6, 0, 6]
    with pytest.raises(StreamExhausted, match="8 digits, 9 requested"):
        digits_stream(worked_config, 9)


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
