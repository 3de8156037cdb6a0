import pytest

from dftbin import dtmf
from dftbin.algorithms import naive_bin
from dftbin.complexity import measure
from dftbin.dtmf import DEFAULT_CONFIG, DIGITS, DtmfConfig, detect, synthesize

ALL_DIGITS = [d for row in DIGITS for d in row]


def test_default_config_bins():
    assert DEFAULT_CONFIG.row_bins() == (18, 20, 22, 24)
    assert DEFAULT_CONFIG.col_bins() == (31, 34, 38, 42)
    assert len(ALL_DIGITS) == len(set(ALL_DIGITS)) == 16


def test_config_rejects_colliding_bins():
    with pytest.raises(ValueError):
        DtmfConfig(block_size=4)


def test_synthesize_five_dominant_bins():
    block = synthesize("5", amplitude=1.0, noise_rms=0.0)
    assert len(block) == 205
    powers = {k: abs(naive_bin(block, k).value) ** 2
              for k in DEFAULT_CONFIG.row_bins() + DEFAULT_CONFIG.col_bins()}
    assert max((powers[k], k) for k in DEFAULT_CONFIG.row_bins())[1] == 20
    assert max((powers[k], k) for k in DEFAULT_CONFIG.col_bins())[1] == 34
    assert powers[20] > 10 * max(powers[k] for k in (18, 22, 24))


def test_synthesize_zero_amplitude_is_silent():
    assert synthesize("1", amplitude=0.0, noise_rms=0.0) == [0.0] * 205


def test_synthesize_seeded_reproducibility():
    a = synthesize("#", amplitude=1.0, noise_rms=0.1, seed=42)
    b = synthesize("#", amplitude=1.0, noise_rms=0.1, seed=42)
    c = synthesize("#", amplitude=1.0, noise_rms=0.1, seed=43)
    assert a == b
    assert a != c


def test_synthesize_unknown_digit():
    with pytest.raises(ValueError, match="unknown DTMF digit"):
        synthesize("E")


def test_detect_round_trip_all_digits_all_algs():
    for alg in ("goertzel", "jco", "jco_goertzel"):
        for i, digit in enumerate(ALL_DIGITS):
            block = synthesize(digit, amplitude=1.0, noise_rms=0.05, seed=100 + i)
            assert detect(block, alg=alg) == digit, (alg, digit)


def test_detect_zero_block_is_none():
    assert detect([0.0] * 205) is None


def test_detect_pure_noise_seed7_is_none():
    block = synthesize("1", amplitude=0.0, noise_rms=1.0, seed=7)
    assert detect(block) is None


def test_detect_algorithm_independent():
    block = synthesize("9", amplitude=1.0, noise_rms=0.02, seed=5)
    results = {detect(block, alg=a) for a in ("goertzel", "jco", "jco_goertzel")}
    assert results == {"9"}


def test_detect_rejects_wrong_length():
    with pytest.raises(ValueError, match="205 samples"):
        detect([0.0] * 204)


def test_config_stores_tuples_and_hashes():
    rows, cols = list(DEFAULT_CONFIG.row_freqs), list(DEFAULT_CONFIG.col_freqs)
    config = DtmfConfig(row_freqs=rows, col_freqs=cols)
    assert type(config.row_freqs) is tuple and type(config.col_freqs) is tuple
    assert config == DEFAULT_CONFIG and hash(config) == hash(DEFAULT_CONFIG)
    replaced = DEFAULT_CONFIG._replace(col_freqs=cols)
    assert type(replaced) is DtmfConfig and type(replaced.col_freqs) is tuple
    with pytest.raises(ValueError, match="tone bins collide"):
        DEFAULT_CONFIG._replace(block_size=4)


@pytest.mark.parametrize("config", [DEFAULT_CONFIG, DtmfConfig(block_size=410)])
def test_repeated_detect_measures_the_config_bins(monkeypatch, config):
    # detect reads its config's bins once; every call still measures each
    # bin through dtmf.measure and returns what one measure per bin gives.
    block = synthesize("8", config, noise_rms=0.1, seed=3)
    bins = config.row_bins() + config.col_bins()
    seen = []

    def entry(k, result):
        return k, repr(result.value), result.counts

    def recorded(alg, v, k):
        result = measure(alg, v, k)
        seen.append(entry(k, result))
        return result

    monkeypatch.setattr(dtmf, "measure", recorded)
    for alg in ("goertzel", "jco", "jco_goertzel"):
        want = [entry(k, measure(alg, list(block), k)) for k in bins]
        for _ in range(3):
            seen.clear()
            assert detect(block, config, alg) == "8", alg
            assert seen == want, alg
