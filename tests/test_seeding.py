"""Reproducibility of the seeded random streams: uniform k of a run under a
seed is the first uniform of numpy's substream (seed, k)."""
import numpy as np
import pytest

from eigensample import TooLarge, master_rng, substream_uniforms
from eigensample import seeding
from _helpers import per_sample_uniforms

# seeds of one to four 32-bit words: with the index word, 2**127 - 1 gives
# more entropy words than SeedSequence's pool of four holds
SEEDS = (0, 1, 3, 11, 2**32 - 1, 2**32, 2**64 + 5, 10**22, 2**127 - 1)
# one to four 32-bit words, the last a 100-bit seed
STREAM_SEEDS = (0, 1, 7, 2**32 - 1, 2**32, 2**64 + 3, 2**99 + 12345)


class TestMasterRng:
    def test_same_seed_same_stream(self):
        a = master_rng(7).random(100)
        b = master_rng(7).random(100)
        assert np.array_equal(a, b)

    def test_different_seeds_differ(self):
        a = master_rng(7).random(100)
        b = master_rng(8).random(100)
        assert not np.array_equal(a, b)

    @pytest.mark.parametrize("seed", STREAM_SEEDS)
    def test_equals_numpy_default_rng(self, seed):
        # scalar and batch calls interleaved across several SUBSTREAM_CHUNK
        # boundaries; uniform k is numpy's default_rng((seed, k)).random()
        chunk = seeding.SUBSTREAM_CHUNK
        sizes = (None, 0, 5, None, 1, chunk - 3, None, None, (2, 3), None, 2 * chunk, None)
        ours = master_rng(seed)
        got = []
        for size in sizes:
            draw = ours.random(size)
            if size is None:
                assert type(draw) is float
                got.append(draw)
            else:
                assert draw.dtype == np.float64 and draw.shape == np.empty(size).shape
                got.extend(draw.reshape(-1))
        assert len(got) > 3 * chunk
        assert np.array_equal(got, per_sample_uniforms(seed, len(got)))

    def test_negative_seed_raises_numpy_message(self):
        with pytest.raises(ValueError) as numpy_error:
            np.random.default_rng(-1)
        with pytest.raises(ValueError) as ours:
            master_rng(-1)
        assert str(ours.value) == str(numpy_error.value)

    def test_small_calls_share_one_block(self, monkeypatch):
        # the exact oracles draw one uniform per call: no call of at most
        # SUBSTREAM_CHUNK uniforms runs a vectorized pass of its own
        starts = []
        first_uniforms = seeding._first_uniforms

        def spy(words, start, out):
            starts.append(start)
            return first_uniforms(words, start, out)

        monkeypatch.setattr(seeding, "_first_uniforms", spy)
        stream = master_rng(4)
        for _ in range(100):
            stream.random(), stream.random(1), stream.random((2, 2))
        assert starts == [0]

    def test_negative_size_rejected(self):
        with pytest.raises(ValueError):
            master_rng(0).random(-1)

    def test_index_limit(self, monkeypatch):
        # every index is one 32-bit entropy word: index 2**32 is refused,
        # by a batch call before it allocates, and by a scalar call
        with pytest.raises(TooLarge):
            master_rng(0).random(seeding.INDEX_LIMIT + 1)
        stream = master_rng(3)
        monkeypatch.setattr(seeding, "SUBSTREAM_CHUNK", 4)
        stream._next = seeding.INDEX_LIMIT - 2
        last = [stream.random(), stream.random()]
        with pytest.raises(TooLarge):
            stream.random()
        with pytest.raises(TooLarge):
            stream.random(1)
        monkeypatch.undo()
        assert last == [
            np.random.default_rng(np.random.SeedSequence((3, seeding.INDEX_LIMIT - k))).random()
            for k in (2, 1)
        ]

    def test_budgets_fit_the_index_words(self):
        # luae-u reads three uniforms per sample pair
        assert 3 * seeding.MAX_SAMPLES < seeding.INDEX_LIMIT == 2**32


class TestSubstream:
    """The (seed, index) keying of the substreams behind every uniform."""

    def test_reproducible_per_index(self):
        assert substream_uniforms(3, 13)[12] == substream_uniforms(3, 50)[12]

    def test_indices_are_independent_streams(self):
        draws = substream_uniforms(3, 50)
        assert len(np.unique(draws)) == 50

    def test_seed_separates_streams(self):
        assert not np.array_equal(substream_uniforms(3, 50), substream_uniforms(4, 50))

    def test_index_is_not_a_seed_alias(self):
        # (seed, index) keying must not collide with (index, seed)
        assert substream_uniforms(1, 3)[2] != substream_uniforms(2, 2)[1]


class TestSubstreamUniforms:
    @pytest.mark.parametrize("seed", SEEDS)
    def test_bit_identical_to_per_sample_generators(self, seed):
        count = seeding.SUBSTREAM_CHUNK + 3
        assert np.array_equal(
            substream_uniforms(seed, count), per_sample_uniforms(seed, count)
        )

    def test_zero_count_is_empty(self):
        out = substream_uniforms(5, 0)
        assert out.shape == (0,)
        assert out.dtype == np.float64

    def test_negative_seed_rejected(self):
        with pytest.raises(ValueError):
            substream_uniforms(-1, 3)
        with pytest.raises(ValueError):
            master_rng(-1)

    def test_negative_count_rejected(self):
        with pytest.raises(ValueError):
            substream_uniforms(0, -1)

    def test_count_cap(self):
        with pytest.raises(TooLarge):
            substream_uniforms(0, seeding.MAX_SAMPLES + 1)

    def test_prefix_and_chunk_split(self, monkeypatch):
        # a shorter run is a prefix of a longer one, and the split into
        # vectorized chunks does not change any element
        for seed in (9, 2**64 + 5):
            whole = substream_uniforms(seed, 25)
            assert np.array_equal(whole[:10], substream_uniforms(seed, 10))
            for chunk in (1, 7, 10, 25):
                monkeypatch.setattr(seeding, "SUBSTREAM_CHUNK", chunk)
                assert np.array_equal(substream_uniforms(seed, 25), whole)
            monkeypatch.undo()
