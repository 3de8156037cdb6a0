import json
import math
import os
import subprocess
import sys
from pathlib import Path

import pytest

import dftbin
from dftbin.cli import main, read_signal, write_signal


def _write(tmp_path, name, text):
    path = tmp_path / name
    path.write_text(text)
    return str(path)


def test_read_signal_format(tmp_path):
    path = _write(tmp_path, "sig.txt", "# header\n1\n2.5\n\n-3,4\n")
    samples = read_signal(path)
    assert samples == [1.0, 2.5, complex(-3, 4)]
    assert [type(z) for z in samples] == [float, float, complex]


def test_read_signal_errors(tmp_path):
    bad = _write(tmp_path, "bad.txt", "1\nnope\n")
    with pytest.raises(Exception, match="bad sample line"):
        read_signal(bad)
    empty = _write(tmp_path, "empty.txt", "# nothing\n")
    with pytest.raises(Exception, match="no samples"):
        read_signal(empty)
    nonfinite = _write(tmp_path, "inf.txt", "inf\n")
    with pytest.raises(Exception, match="non-finite"):
        read_signal(nonfinite)


def test_signal_roundtrip(tmp_path):
    path = str(tmp_path / "rt.txt")
    samples = [0.1234567890123, -2.0, complex(1.5, -0.25)]
    write_signal(path, samples, header="test")
    assert read_signal(path) == [complex(s) for s in samples]


def test_bin_jco_example(tmp_path, capsys):
    path = _write(tmp_path, "v.txt", "1\n2\n3\n4\n")
    assert main(["bin", "--k", "1", "--alg", "jco", "--input", path]) == 0
    assert capsys.readouterr().out == "Vk = -2 + 2j\n"


def test_bin_naive_dc(tmp_path, capsys):
    path = _write(tmp_path, "ones.txt", "1\n1\n1\n1\n")
    assert main(["bin", "--k", "0", "--alg", "naive", "--input", path]) == 0
    assert capsys.readouterr().out == "Vk = 4 + 0j\n"


def test_bin_stream_counts(tmp_path, capsys):
    import random

    rng = random.Random(1)
    path = str(tmp_path / "big.txt")
    write_signal(path, [rng.uniform(-1, 1) for _ in range(1024)])
    code = main(["bin", "--n", "1024", "--k", "128", "--alg", "stream",
                 "--input", path, "--counts"])
    assert code == 0
    out = capsys.readouterr().out.splitlines()
    assert out[0].startswith("Vk = ")
    assert out[1].startswith("mults=2 adds=")


def test_bin_agreement_across_tags(tmp_path, capsys):
    import random

    rng = random.Random(2)
    path = str(tmp_path / "sig.txt")
    write_signal(path, [rng.uniform(-1, 1) for _ in range(48)])
    values = []
    for alg in ("naive", "goertzel", "jco", "jco-goertzel", "stream"):
        assert main(["bin", "--k", "7", "--alg", alg, "--input", path]) == 0
        line = capsys.readouterr().out.strip()
        re_part, sign, im_part = line.removeprefix("Vk = ").split()
        z = complex(float(re_part), float(im_part[:-1]) * (1 if sign == "+" else -1))
        values.append(z)
    assert all(abs(z - values[0]) <= 1e-8 for z in values)


@pytest.mark.parametrize("alg", ["naive", "goertzel", "jco", "jco-goertzel", "stream"])
def test_bin_overflow_prints_inf(tmp_path, capsys, alg):
    path = _write(tmp_path, "big.txt", "1e308\n1e308\n")
    assert main(["bin", "--k", "0", "--alg", alg, "--input", path]) == 0
    assert capsys.readouterr().out == "Vk = inf + 0j\n"


def test_bin_length_mismatch_exit3(tmp_path, capsys):
    path = _write(tmp_path, "v.txt", "1\n2\n3\n4\n")
    assert main(["bin", "--n", "8", "--k", "1", "--input", path]) == 3


def test_bin_malformed_exit2(tmp_path, capsys):
    path = _write(tmp_path, "v.txt", "1\ntwo\n")
    assert main(["bin", "--k", "1", "--input", path]) == 2


def test_table_reference_rows(capsys):
    assert main(["table", "--paper", "--csv"]) == 0
    lines = capsys.readouterr().out.strip().splitlines()
    assert lines[0] == "N,k,goertzel,jco,jco_goertzel,L"
    assert len(lines) == 21
    assert lines[1] == "12,1,12,6,4,12"
    assert lines[13] == "83,1,83,162,82,83"
    assert lines[20] == "120,4,120,14,8,30"


def test_table_text_mode(capsys):
    assert main(["table", "--paper"]) == 0
    lines = capsys.readouterr().out.strip().splitlines()
    assert len(lines) == 21
    assert lines[1].split() == ["12", "1", "12", "6", "4", "12"]


def test_table_custom_spec(capsys):
    assert main(["table", "--spec", "16:1", "--csv"]) == 0
    assert capsys.readouterr().out.strip().splitlines()[1] == "16,1,16,14,8,16"
    assert main(["table", "--spec", "2:1", "--csv"]) == 0
    assert capsys.readouterr().out.strip().splitlines()[1] == "2,1,2,0,0,2"


def test_table_bad_spec_exit2(capsys):
    assert main(["table", "--spec", "16"]) == 2
    assert main(["table", "--spec", "0:1"]) == 2
    assert main(["table", "--spec", "12:x"]) == 2


def test_cyclo_output(capsys):
    assert main(["cyclo", "8"]) == 0
    assert capsys.readouterr().out == "1 0 0 0 1\nx^4 + 1\n"
    assert main(["cyclo", "1"]) == 0
    assert capsys.readouterr().out == "-1 1\nx - 1\n"
    assert main(["cyclo", "12"]) == 0
    assert capsys.readouterr().out == "1 0 -1 0 1\nx^4 - x^2 + 1\n"


def test_cyclo_rejects_bad_n(capsys):
    assert main(["cyclo", "0"]) == 2


def test_filter_json(capsys):
    assert main(["filter", "--n", "1024", "--k", "128", "--json"]) == 0
    data = json.loads(capsys.readouterr().out)
    assert data["N"] == 1024 and data["k"] == 128 and data["L"] == 8
    assert data["b"] == [1, 0, 0, 0, 1]
    s = math.sqrt(2) / 2
    expected = [(1, 0), (s, s), (0, 1), (-s, s)]
    for (re, im), (ere, eim) in zip(data["a"], expected):
        assert abs(re - ere) <= 1e-9 and abs(im - eim) <= 1e-9


def test_filter_text(capsys):
    assert main(["filter", "--n", "8", "--k", "0"]) == 0
    out = capsys.readouterr().out.splitlines()
    assert out[0] == "N = 8  k = 0  L = 1"
    assert out[1] == "a[0] = 1 + 0j"
    assert out[2] == "b = 1 -1"

    assert main(["filter", "--n", "12", "--k", "2", "--json"]) == 0
    assert json.loads(capsys.readouterr().out)["b"] == [1, -1, 1]


def test_dtmf_round_trip(tmp_path, capsys):
    path = str(tmp_path / "tones.txt")
    assert main(["dtmf", "--synth", "159D", "--out", path]) == 0
    capsys.readouterr()
    assert main(["dtmf", "--detect", path]) == 0
    assert capsys.readouterr().out == "1\n5\n9\nD\n"


def test_dtmf_noisy_round_trip(tmp_path, capsys):
    path = str(tmp_path / "noisy.txt")
    assert main(["dtmf", "--synth", "5", "--noise", "0.05", "--seed", "1",
                 "--out", path]) == 0
    capsys.readouterr()
    assert main(["dtmf", "--detect", path]) == 0
    assert capsys.readouterr().out == "5\n"


def test_dtmf_zero_file(tmp_path, capsys):
    path = str(tmp_path / "zeros.txt")
    write_signal(path, [0.0] * 205)
    assert main(["dtmf", "--detect", path]) == 0
    assert capsys.readouterr().out == "-\n"


@pytest.mark.parametrize("argv", [
    ["filter", "--n", "65537", "--k", "1"],
    ["bin", "--k", "1", "--alg", "stream", "--input", "len65537.txt"],
])
def test_arithmetic_error_exit2_without_traceback(tmp_path, argv):
    # design_filter raises ArithmeticError at (65537, 1): its residual is too large.
    write_signal(str(tmp_path / "len65537.txt"), [0.0] * 65537)
    src = str(Path(dftbin.__file__).resolve().parent.parent)
    env = dict(os.environ, PYTHONPATH=src)
    proc = subprocess.run([sys.executable, "-m", "dftbin.cli", *argv], cwd=tmp_path,
                          env=env, capture_output=True, text=True)
    assert proc.returncode == 2
    assert proc.stdout == ""
    assert proc.stderr.startswith("error: numerator design residual")
    assert "Traceback" not in proc.stderr


def test_broken_pipe_exit1_without_traceback():
    # stdout is a pipe whose reader has already gone, as under `| head -c 10`.
    read_end, write_end = os.pipe()
    os.close(read_end)
    src = str(Path(dftbin.__file__).resolve().parent.parent)
    env = dict(os.environ, PYTHONPATH=src)
    try:
        proc = subprocess.run([sys.executable, "-m", "dftbin.cli", "table", "--paper"],
                              env=env, stdout=write_end, stderr=subprocess.PIPE, text=True)
    finally:
        os.close(write_end)
    assert proc.returncode == 1
    assert "Traceback" not in proc.stderr


def test_dtmf_bad_digit_exit2(tmp_path, capsys):
    assert main(["dtmf", "--synth", "1Z", "--out", str(tmp_path / "x.txt")]) == 2


def test_dtmf_wrong_block_size_exit3(tmp_path, capsys):
    path = str(tmp_path / "short.txt")
    write_signal(path, [0.5] * 100)
    assert main(["dtmf", "--detect", path]) == 3
