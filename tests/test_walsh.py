import tracemalloc
from fractions import Fraction

import numpy as np
import pytest

from _oracles import walsh_eval
from corrint import _kernels
from corrint.errors import PreconditionError
from corrint.walsh import (
    _bit_reverse_permutation,
    walsh_gram,
    walsh_integer_spectrum,
    walsh_integral,
    walsh_set,
    walsh_sign_on_cell,
)


def test_eval_examples():
    for l in (0, Fraction(1, 3), Fraction(1, 2), 1):
        assert walsh_eval(0, l) == 1
    assert walsh_eval(1, Fraction(1, 4)) == 1
    assert walsh_eval(1, Fraction(3, 4)) == -1
    with pytest.raises(PreconditionError):
        walsh_eval(1, Fraction(3, 2))


def test_eval_matches_cell_sign_on_representatives():
    level = 5
    for n in (0, 1, 2, 3, 7, 12, 31):
        for cell in range(1 << level):
            mid = Fraction(2 * cell + 1, 1 << (level + 1))
            assert walsh_eval(n, mid) == walsh_sign_on_cell(n, cell, level)


def test_integral_examples():
    one = Fraction(1)
    for n in (1, 2, 3, 9):
        assert walsh_integral(n, Fraction(0), one, 5) == 0
    assert walsh_integral(0, Fraction(0), one, 5) == 1
    assert walsh_integral(1, Fraction(0), Fraction(1, 2), 3) == Fraction(1, 2)
    with pytest.raises(PreconditionError):
        walsh_integral(1, Fraction(0), Fraction(1, 3), 3)
    with pytest.raises(PreconditionError):
        walsh_integral(8, Fraction(0), one, 3)  # level too coarse


def test_walsh_set_examples():
    assert walsh_set(0, 3) == frozenset(range(8))
    assert walsh_set(1, 1) == frozenset({0})
    for level in (3, 4):
        for n in range(1, 1 << level):
            assert len(walsh_set(n, level)) == 1 << (level - 1)


def test_orthogonality_integer_exact():
    level = 6
    ncells = 1 << level
    for m in range(8):
        for n in range(8):
            acc = sum(
                walsh_sign_on_cell(m, c, level) * walsh_sign_on_cell(n, c, level)
                for c in range(ncells)
            )
            assert acc == (ncells if m == n else 0)


def test_multiplicativity_via_xor():
    rng = np.random.default_rng(11)
    for _ in range(300):
        m = int(rng.integers(0, 32))
        n = int(rng.integers(0, 32))
        l = Fraction(int(rng.integers(1, 3 ** 7)), 3 ** 7)  # non-dyadic points
        assert walsh_eval(m, l) * walsh_eval(n, l) == walsh_eval(m ^ n, l)


def test_sign_sets_generate_dyadic_partition():
    # common refinement of {E_n, complement} over n < 2^L separates all cells
    level = 4
    ncells = 1 << level
    signatures = set()
    for cell in range(ncells):
        signatures.add(
            tuple(cell in walsh_set(n, level) for n in range(1, ncells))
        )
    assert len(signatures) == ncells


def test_transform_examples():
    ones = walsh_integer_spectrum(np.ones(16, dtype=np.int64))
    assert ones[0] == 16 and not np.any(ones[1:])
    level = 2
    w3 = np.array([walsh_sign_on_cell(3, c, level) for c in range(4)])
    expect = np.zeros(4, dtype=np.int64)
    expect[3] = 4
    assert np.array_equal(walsh_integer_spectrum(w3), expect)
    with pytest.raises(PreconditionError):
        walsh_integer_spectrum(np.ones(6, dtype=np.int64))


def test_transform_roundtrip_and_parseval():
    # the sign table is symmetric with square size * I, so applying the
    # transform twice gives size * g, and the squares sum exactly
    rng = np.random.default_rng(12)
    for size in (8, 32, 256):
        g = rng.integers(-50, 51, size=size)
        spec = walsh_integer_spectrum(g)
        assert np.array_equal(walsh_integer_spectrum(spec), size * g)
        assert int(np.sum(spec ** 2)) == size * int(np.sum(g ** 2))


def test_integer_spectrum_matches_float_transform():
    # the float butterfly in the Walsh order, scaled to the coefficients <g, W_n>
    rng = np.random.default_rng(13)
    g = rng.integers(-1, 2, size=64).astype(np.int64)
    spec = walsh_integer_spectrum(g)
    coeffs = _kernels.fwht_f64(g.astype(float))[_bit_reverse_permutation(6)] / 64
    assert np.max(np.abs(spec / 64.0 - coeffs)) <= 1e-14


def test_integer_spectrum_of_a_stack_equals_its_rows():
    rng = np.random.default_rng(14)
    for shape in ((1, 1), (4, 8), (2, 3, 32)):
        g = rng.integers(-2, 3, size=shape)
        spec = walsh_integer_spectrum(g)
        assert spec.shape == shape and spec.dtype == np.int64
        for idx in np.ndindex(*shape[:-1]):
            assert np.array_equal(spec[idx], walsh_integer_spectrum(g[idx]))
    # integral floats and booleans are taken as the integers they hold
    assert np.array_equal(walsh_integer_spectrum([1.0, -2.0]), [-1, 3])
    assert np.array_equal(walsh_integer_spectrum(np.array([True, False])), [1, 1])


@pytest.mark.parametrize("bad", [
    [0.5, 1.5],
    [[1.0, 2.0], [1.0, 2.25]],  # one bad row among good ones
    [float("nan"), 0.0],
    [float("inf"), 0.0],
    [1, 1, 0],                   # not a power of two
    [],
    np.array(["a", "b"]),
])
def test_integer_spectrum_refuses_non_integral_or_malformed(bad):
    with pytest.raises(PreconditionError):
        walsh_integer_spectrum(bad)


@pytest.mark.parametrize("bad", [
    [2 ** 62] * 4,                                        # wrapped to all zeros
    [[1, 0], [2 ** 62, 2 ** 62]],                          # sum of |values| is 2**63
    [-(2 ** 62), 2 ** 62],
    np.array([-(2 ** 63), 0], dtype=np.int64),           # |int64 min| wraps in numpy
    np.array([2 ** 63, 0], dtype=np.uint64),             # wraps when cast to int64
    [float(2 ** 63), 0.0],
    [2.0 ** 62, 2.0 ** 62 - 1024.0, 1024.0, 0.0],      # exactly 2**63 as floats
])
def test_integer_spectrum_refuses_int64_overflow(bad):
    with pytest.raises(PreconditionError):
        walsh_integer_spectrum(bad)


def test_integer_spectrum_exact_just_below_overflow():
    # a row sum of 2**63 - 1 is the largest the butterfly can hold
    top = 2 ** 63 - 1
    g = np.array([2 ** 62, 2 ** 62 - 1, 0, 0], dtype=np.int64)
    assert walsh_integer_spectrum(g).tolist() == [top, top, 1, 1]
    assert walsh_integer_spectrum([-top, 0]).tolist() == [-top, -top]
    g = [2.0 ** 62, 2.0 ** 62 - 1024.0, 1023.0, 0.0]  # 2**63 - 1 as integral floats
    assert walsh_integer_spectrum(g)[0] == top


def test_integer_spectrum_equals_the_butterfly_then_bit_reversal():
    # the values are bit-reversed before the butterfly, not its output
    # after: the same integers, because the Hadamard matrix commutes with
    # the bit reversal
    rng = np.random.default_rng(15)
    for level in range(0, 9):
        perm = _bit_reverse_permutation(level)
        g = rng.integers(-9, 10, size=(3, 1 << level))
        for form in (g, g.astype(float), g.astype(np.int32), g > 0):
            before = form.copy()
            got = walsh_integer_spectrum(form)
            assert got.dtype == np.int64
            assert np.array_equal(got, _kernels.fwht_f64(form.astype(np.int64))[..., perm])
            assert np.array_equal(form, before)  # the input is left alone


@pytest.mark.parametrize("dtype", [np.int64, bool])
def test_integer_spectrum_peak_memory_is_one_half_past_its_result(dtype):
    # one int64 result and one half-size scratch array; the bool input's
    # bit-reversed copy is freed before the scratch is made
    g = (np.random.default_rng(16).integers(-5, 5, size=(65, 1024)) > 0).astype(dtype)
    walsh_integer_spectrum(g)  # the cached permutation is built outside the measurement
    tracemalloc.start()
    try:
        out = walsh_integer_spectrum(g)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak <= 1.6 * out.nbytes


def test_bit_reverse_permutation_is_cached_and_read_only():
    perm = _bit_reverse_permutation(3)
    assert perm is _bit_reverse_permutation(3)
    assert perm.tolist() == [0, 4, 2, 6, 1, 5, 3, 7]
    with pytest.raises(ValueError):
        perm[0] = 1
    assert _bit_reverse_permutation(3).tolist() == [0, 4, 2, 6, 1, 5, 3, 7]


def _gram_loop(max_index, level):
    """Triple-loop form of the orthogonality Gram matrix."""
    ncells = 1 << level
    gram = np.zeros((max_index, max_index), dtype=np.int64)
    for m in range(max_index):
        for n in range(max_index):
            for c in range(ncells):
                gram[m, n] += (walsh_sign_on_cell(m, c, level)
                               * walsh_sign_on_cell(n, c, level))
    return gram


@pytest.mark.parametrize("budget", [None, 1, 72, 200])
def test_gram_matches_triple_loop(monkeypatch, budget):
    # 72 bytes give chunks of 3 cells at max_index 3 (16 cells: a tail of
    # one), 200 bytes chunks of 5 at max_index 5 (8 cells: a tail of three)
    if budget is not None:
        monkeypatch.setattr(_kernels, "_CHUNK_BYTES", budget)
    for max_index, level in ((3, 4), (1, 0), (5, 3), (8, 3)):
        assert np.array_equal(walsh_gram(max_index, level), _gram_loop(max_index, level))
    for bad in ((5, 2), (0, 2), (1, -1)):  # level 2 resolves only indices 0..3
        with pytest.raises(PreconditionError):
            walsh_gram(*bad)
