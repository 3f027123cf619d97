"""Reproducibility of the seeded random streams."""
import numpy as np
import pytest

from eigensample import TooLarge, master_rng, substream, substream_uniforms
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
        # scalar and batch calls interleaved, numpy as the reference
        ours, numpy_rng = master_rng(seed), np.random.default_rng(seed)
        for size in (None, 0, 5, None, 1, 1000, None):
            got, want = ours.random(size), numpy_rng.random(size)
            if size is None:
                assert type(got) is float
                assert got == want
            else:
                assert got.dtype == want.dtype and got.shape == want.shape
                assert np.array_equal(got, want)

    def test_negative_seed_raises_numpy_message(self):
        with pytest.raises(ValueError) as numpy_error:
            np.random.default_rng(-1)
        with pytest.raises(ValueError) as ours:
            master_rng(-1)
        assert str(ours.value) == str(numpy_error.value)


class TestSubstream:
    def test_reproducible_per_index(self):
        a = substream(3, 12).random(50)
        b = substream(3, 12).random(50)
        assert np.array_equal(a, b)

    def test_indices_are_independent_streams(self):
        draws = [substream(3, i).random(50) for i in range(5)]
        for i in range(5):
            for j in range(i + 1, 5):
                assert not np.array_equal(draws[i], draws[j])

    def test_seed_separates_streams(self):
        assert not np.array_equal(
            substream(3, 0).random(50), substream(4, 0).random(50)
        )

    def test_index_is_not_a_seed_alias(self):
        # (seed, index) keying must not collide with (index, seed)
        assert not np.array_equal(
            substream(1, 2).random(50), substream(2, 1).random(50)
        )

    def test_negative_index_rejected(self):
        with pytest.raises(ValueError):
            substream(0, -1)


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
            substream(-1, 0)

    def test_negative_count_rejected(self):
        with pytest.raises(ValueError):
            substream_uniforms(0, -1)

    def test_count_cap(self):
        assert seeding.MAX_SAMPLES <= 2**32
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
