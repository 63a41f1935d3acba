import csv
import multiprocessing
import os
import platform
import signal
import subprocess
import sys
import warnings
from concurrent.futures.process import BrokenProcessPool
from pathlib import Path

import numpy as np
import pytest
from scipy.io import wavfile

from bregsep import cli, solvers
from bregsep.audio import load_wav, write_wav
from bregsep.metrics import sdr
from bregsep.mixing import ProviderSpec, align_noise, mix_at_snr, provide_spectrograms
from bregsep.solvers import amplitude_mask_init, misi
from bregsep.transform import Signal, StftConfig
from test_acceptance import RATE, _harmonic_speech

HEADER_FIELDS = cli.CSV_HEADER.split(",")


def _write_tone(path, freq, length=4000, amp=0.4):
    t = np.arange(length) / RATE
    write_wav(path, Signal(amp * np.sin(2.0 * np.pi * freq * t), RATE))


def _write_noise(path, seed, length=6000, amp=0.2):
    rng = np.random.default_rng(seed)
    samples = rng.standard_normal(length)
    samples *= amp / np.max(np.abs(samples))
    write_wav(path, Signal(samples, RATE))


@pytest.fixture
def wavs(tmp_path):
    speech = tmp_path / "tone.wav"
    noise = tmp_path / "noise.wav"
    _write_tone(speech, 440.0)
    _write_noise(noise, seed=7)
    return {"speech": str(speech), "noise": str(noise), "dir": tmp_path}


def _row_fields(captured_out):
    lines = captured_out.strip().split("\n")
    assert lines[0] == cli.CSV_HEADER
    return dict(zip(HEADER_FIELDS, lines[1].split(",")))


def _separate(argv):
    return cli.main(["separate", "--win", "256", "--hop", "64"] + argv)


class TestEval:
    def test_reports_sdr(self, tmp_path, capsys):
        rng = np.random.default_rng(11)
        ref = rng.uniform(-0.5, 0.5, 2000)
        write_wav(tmp_path / "ref.wav", Signal(ref, RATE))
        write_wav(tmp_path / "est.wav", Signal(0.5 * ref, RATE))
        code = cli.main([
            "eval", "--ref", str(tmp_path / "ref.wav"),
            "--est", str(tmp_path / "est.wav"),
        ])
        assert code == 0
        out = capsys.readouterr().out.strip()
        # quantization shifts the exact 6.0206 dB by well under 0.01 dB
        assert out.startswith("sdr_db=6.0")

    def test_missing_file_fails(self, tmp_path, capsys):
        code = cli.main([
            "eval", "--ref", str(tmp_path / "nope.wav"),
            "--est", str(tmp_path / "nope.wav"),
        ])
        assert code == 2
        assert "error" in capsys.readouterr().err

    def test_sample_rate_mismatch_fails(self, tmp_path, capsys):
        # equal lengths, so only the rates differ
        samples = np.random.default_rng(12).uniform(-0.5, 0.5, 2000)
        write_wav(tmp_path / "ref.wav", Signal(samples, RATE))
        write_wav(tmp_path / "est.wav", Signal(samples, RATE // 2))
        code = cli.main([
            "eval", "--ref", str(tmp_path / "ref.wav"),
            "--est", str(tmp_path / "est.wav"),
        ])
        captured = capsys.readouterr()
        assert code == 2
        assert captured.out == ""
        assert "sample rates differ" in captured.err


class TestMix:
    def test_writes_mixture_at_requested_snr(self, wavs, capsys):
        out = wavs["dir"] / "mixture.wav"
        out_noise = wavs["dir"] / "scaled.wav"
        code = cli.main([
            "mix", "--speech", wavs["speech"], "--noise", wavs["noise"],
            "--snr", "10", "--seed", "3",
            "--out", str(out), "--out-noise", str(out_noise),
        ])
        assert code == 0
        assert "snr_db=10.000000" in capsys.readouterr().out
        speech = load_wav(wavs["speech"])
        mixture = load_wav(out)
        scaled = load_wav(out_noise)
        resum = speech.samples + scaled.samples
        # each written file rounds independently to the 16-bit grid
        assert np.max(np.abs(mixture.samples - resum)) <= 2.5 / 32768.0

    def test_missing_out_rejected(self, wavs, capsys):
        code = cli.main([
            "mix", "--speech", wavs["speech"], "--noise", wavs["noise"],
        ])
        assert code == 2
        assert "--out" in capsys.readouterr().err

    @pytest.mark.parametrize("snr", ["nan", "inf", "-inf"])
    def test_nonfinite_snr_rejected(self, wavs, capsys, snr):
        out = wavs["dir"] / "mixture.wav"
        code = cli.main([
            "mix", "--speech", wavs["speech"], "--noise", wavs["noise"],
            "--snr=" + snr, "--out", str(out),
        ])
        assert code == 2
        assert "snr_db must be finite" in capsys.readouterr().err
        assert not out.exists()

    @pytest.mark.parametrize("flag, bad, message", [
        ("--out-noise", "missing/scaled.wav", "directory 'missing' does not exist"),
        ("--out-noise", ".", "is a directory"),
        ("--out", "missing/mixture.wav", "directory 'missing' does not exist"),
    ])
    def test_unwritable_output_rejected_before_any_write(
        self, wavs, capsys, monkeypatch, flag, bad, message
    ):
        monkeypatch.chdir(wavs["dir"])
        before = set(wavs["dir"].rglob("*"))
        outputs = {"--out": "mixture.wav", "--out-noise": "scaled.wav", flag: bad}
        code = cli.main([
            "mix", "--speech", wavs["speech"], "--noise", wavs["noise"],
            *(text for pair in outputs.items() for text in pair),
        ])
        captured = capsys.readouterr()
        assert code == 2
        assert captured.out == ""
        assert "%s %r" % (flag, bad) in captured.err and message in captured.err
        assert set(wavs["dir"].rglob("*")) == before

    @pytest.mark.parametrize("outputs, message", [
        (("--out", "a.wav", "--out-noise", "a.wav"),
         "--out-noise 'a.wav' is the same file as --out"),
        (("--out", "noise.wav"), "--out 'noise.wav' is the same file as --noise"),
        (("--out", "a.wav", "--out-noise", "./sub/../tone.wav"),
         "--out-noise './sub/../tone.wav' is the same file as --speech"),
    ], ids=["out-noise is out", "out is noise", "out-noise is speech"])
    def test_output_that_is_an_input_or_another_output_rejected(
        self, wavs, capsys, monkeypatch, outputs, message
    ):
        monkeypatch.chdir(wavs["dir"])
        (wavs["dir"] / "sub").mkdir()
        before = {path: path.read_bytes() for path in wavs["dir"].glob("*.wav")}
        code = cli.main([
            "mix", "--speech", wavs["speech"], "--noise", wavs["noise"], *outputs,
        ])
        captured = capsys.readouterr()
        assert code == 2
        assert captured.out == ""
        assert captured.err == "error: %s\n" % message
        assert {path: path.read_bytes() for path in wavs["dir"].glob("*.wav")} == before

    def test_snr_whose_noise_underflows_rejected(self, wavs, capsys):
        out = wavs["dir"] / "mixture.wav"
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            code = cli.main([
                "mix", "--speech", wavs["speech"], "--noise", wavs["noise"],
                "--snr", "1e308", "--out", str(out),
            ])
        captured = capsys.readouterr()
        assert code == 2
        assert captured.out == "" and not out.exists()
        assert "snr_db 1e+308 underflows" in captured.err

    def test_snr_whose_noise_overflows_rejected(self, wavs, capsys):
        out = wavs["dir"] / "mixture.wav"
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            code = cli.main([
                "mix", "--speech", wavs["speech"], "--noise", wavs["noise"],
                "--snr", "-6200", "--out", str(out),
            ])
        captured = capsys.readouterr()
        assert code == 2
        assert captured.out == "" and not out.exists()
        assert "snr_db -6200 overflows" in captured.err


class TestSeparate:
    def test_amplitude_mask_is_its_own_baseline(self, wavs, capsys):
        code = _separate([
            "--speech", wavs["speech"], "--noise", wavs["noise"],
            "--algo", "amplitude_mask",
        ])
        assert code == 0
        row = _row_fields(capsys.readouterr().out)
        assert row["algo"] == "amplitude_mask"
        assert row["status"] == "ok"
        assert row["sdri"] == "0.000000"
        assert row["sdr"] == row["sdr_init"]

    def test_pgd_misi_cell_matches_misi(self, wavs, capsys):
        code = _separate([
            "--speech", wavs["speech"], "--noise", wavs["noise"],
            "--algo", "misi", "--iterations", "5",
        ])
        assert code == 0
        misi_row = _row_fields(capsys.readouterr().out)
        code = _separate([
            "--speech", wavs["speech"], "--noise", wavs["noise"],
            "--algo", "pgd", "--beta", "2", "--d", "1",
            "--direction", "right", "--step-size", "1", "--iterations", "5",
        ])
        assert code == 0
        pgd_row = _row_fields(capsys.readouterr().out)
        assert abs(float(pgd_row["sdr"]) - float(misi_row["sdr"])) < 1e-6
        assert abs(float(pgd_row["sdri"]) - float(misi_row["sdri"])) < 1e-6

    def test_written_sources_sum_to_mixture(self, wavs, capsys):
        # headroom matters: saturation would break the sum identity
        out_dir = wavs["dir"] / "est"
        code = _separate([
            "--speech", wavs["speech"], "--noise", wavs["noise"],
            "--snr", "10", "--algo", "misi", "--out-dir", str(out_dir),
        ])
        assert code == 0
        mixture = load_wav(out_dir / "mixture.wav")
        s0 = load_wav(out_dir / "source_0.wav")
        s1 = load_wav(out_dir / "source_1.wav")
        total = s0.samples + s1.samples
        assert np.max(np.abs(total - mixture.samples)) <= 1.0 / 32768.0 + 1e-12

    # AWKWARD_INPUTS has an --out-dir that is a file
    @pytest.mark.parametrize("case", ["under_a_file", "broken_link"])
    def test_out_dir_through_a_non_directory_rejected_before_any_run(
        self, wavs, capsys, case
    ):
        if case == "under_a_file":
            part, out_dir = wavs["speech"], Path(wavs["speech"], "sub")
        else:
            part = out_dir = wavs["dir"] / "link"
            out_dir.symlink_to(wavs["dir"] / "nowhere")
        out_csv = wavs["dir"] / "row.csv"
        code = _separate([
            "--speech", wavs["speech"], "--noise", wavs["noise"],
            "--algo", "amplitude_mask", "--out-dir", str(out_dir), "--csv", str(out_csv),
        ])
        captured = capsys.readouterr()
        assert code == 2
        assert captured.err == "error: --out-dir %r: %r is not a directory\n" % (
            str(out_dir), str(part),
        )
        assert captured.out == "" and not out_csv.exists()

    def test_grid_that_is_not_cola_rejected_before_any_input(
        self, wavs, capsys, monkeypatch
    ):
        calls = []
        original = cli.provide_spectrograms

        def counted(*args):
            calls.append(args)
            return original(*args)

        monkeypatch.setattr(cli, "provide_spectrograms", counted)
        code = cli.main([
            "separate", "--speech", wavs["speech"], "--noise", wavs["noise"],
            "--win", "1024", "--hop", "512",
        ])
        captured = capsys.readouterr()
        assert code == 2
        assert captured.err.startswith(
            "error: squared window does not overlap-add to a constant (hop 512, win 1024"
        )
        assert captured.out == "" and calls == []

    def test_diverged_run_is_reported_not_raised(self, wavs, capsys):
        code = _separate([
            "--speech", wavs["speech"], "--noise", wavs["noise"],
            "--algo", "pgd", "--beta", "2", "--d", "2",
            "--step-size", "100", "--iterations", "10",
        ])
        assert code == 0
        row = _row_fields(capsys.readouterr().out)
        assert row["status"] == "diverged"
        assert row["sdri"] == "0.000000"
        assert row["sdr"] == row["sdr_init"]

    def test_csv_file_matches_stdout_row(self, wavs, capsys):
        out_csv = wavs["dir"] / "row.csv"
        code = _separate([
            "--speech", wavs["speech"], "--noise", wavs["noise"],
            "--algo", "gl", "--iterations", "3", "--csv", str(out_csv),
            "--mixture-id", "demo",
        ])
        assert code == 0
        stdout_text = capsys.readouterr().out
        assert out_csv.read_text() == stdout_text
        row = _row_fields(stdout_text)
        assert row["mixture_id"] == "demo"

    def test_gl_rejects_power_measurements(self, wavs, capsys):
        code = _separate([
            "--speech", wavs["speech"], "--noise", wavs["noise"],
            "--algo", "gl", "--d", "2",
        ])
        assert code == 2
        assert "magnitude" in capsys.readouterr().err

    @pytest.mark.parametrize("step", ["nan", "inf"])
    def test_nonfinite_step_rejected(self, wavs, capsys, step):
        code = _separate([
            "--speech", wavs["speech"], "--noise", wavs["noise"],
            "--algo", "pgd", "--step-size", step,
        ])
        assert code == 2
        assert "finite" in capsys.readouterr().err

    @pytest.mark.parametrize("algo", ["misi", "gl", "amplitude_mask"])
    @pytest.mark.parametrize(
        "fields",
        [("--beta", "nan", "--step-size", "nan"),
         ("--beta", "-3", "--step-size", "-1"),
         ("--beta", "2.5"), ("--step-size", "-1")],
        ids=["nan", "negative", "beta", "step"],
    )
    def test_bad_row_fields_rejected_for_every_algo(
        self, wavs, capsys, algo, fields
    ):
        # the row prints beta and step size whatever the algorithm
        out = wavs["dir"] / "row.csv"
        code = _separate([
            "--speech", wavs["speech"], "--noise", wavs["noise"],
            "--algo", algo, "--csv", str(out), *fields,
        ])
        captured = capsys.readouterr()
        assert code == 2
        assert captured.out == "" and not out.exists()
        assert "error:" in captured.err

    @pytest.mark.parametrize(
        "flag, message",
        [
            ("--snr=inf", "snr_db must be finite"),
            ("--snr=1e308", "snr_db 1e+308 underflows"),
            ("--snr=-6100", "snr_db -6100 overflows"),
            ("--sigma=nan", "sigma must be finite"),
        ],
        ids=["snr", "snr_underflow", "snr_overflow", "sigma"],
    )
    def test_nonfinite_mixing_input_rejected(self, wavs, capsys, flag, message):
        code = _separate([
            "--speech", wavs["speech"], "--noise", wavs["noise"],
            "--provider", "noisy_oracle", flag,
        ])
        assert code == 2
        captured = capsys.readouterr()
        assert captured.out == ""
        assert message in captured.err

    @pytest.mark.parametrize("algo", ["amplitude_mask", "pgd"])
    def test_negative_iterations_rejected(self, wavs, capsys, algo):
        with pytest.raises(SystemExit) as err:
            _separate([
                "--speech", wavs["speech"], "--noise", wavs["noise"],
                "--algo", algo, "--iterations", "-3",
            ])
        assert err.value.code == 2
        captured = capsys.readouterr()
        assert captured.out == ""
        assert "--iterations" in captured.err

    @pytest.mark.parametrize("command", ["separate", "mix"])
    def test_negative_seed_flag_rejected(self, wavs, capsys, command):
        argv = [command, "--speech", wavs["speech"], "--noise", wavs["noise"],
                "--seed", "-1"]
        if command == "mix":
            argv += ["--out", str(wavs["dir"] / "mix.wav")]
        with pytest.raises(SystemExit) as err:
            cli.main(argv)
        assert err.value.code == 2
        captured = capsys.readouterr()
        assert captured.out == ""
        assert "--seed" in captured.err and ">= 0" in captured.err

    def test_repeated_calls_share_one_parser_and_keep_no_options(self, wavs, capsys):
        assert cli._build_parser() is cli._build_parser()
        argv = ["--speech", wavs["speech"], "--noise", wavs["noise"],
                "--iterations", "1"]
        assert _separate(argv + ["--beta", "1.5"]) == 0
        assert _row_fields(capsys.readouterr().out)["beta"] == "1.500000"
        assert _separate(argv) == 0
        assert _row_fields(capsys.readouterr().out)["beta"] == "2.000000"
        for _ in range(2):
            with pytest.raises(SystemExit) as err:
                _separate(argv + ["--no-such-option", "1"])
            assert err.value.code == 2
            assert "--no-such-option" in capsys.readouterr().err

    @pytest.mark.parametrize("mixture_id", ["a,b", "a\nb", "a\rb", 'a"b', '"a'])
    def test_mixture_id_that_breaks_csv_rejected(self, wavs, capsys, mixture_id):
        out = wavs["dir"] / "row.csv"
        code = _separate([
            "--speech", wavs["speech"], "--noise", wavs["noise"],
            "--algo", "amplitude_mask", "--mixture-id", mixture_id,
            "--csv", str(out),
        ])
        captured = capsys.readouterr()
        assert code == 2
        assert "mixture_id" in captured.err
        assert captured.out == "" and not out.exists()

    def test_speech_stem_that_breaks_csv_rejected(self, wavs, capsys):
        speech = wavs["dir"] / 'say "hi".wav'
        _write_tone(speech, 440.0)
        code = _separate([
            "--speech", str(speech), "--noise", wavs["noise"],
            "--algo", "amplitude_mask",
        ])
        assert code == 2
        assert "mixture_id" in capsys.readouterr().err

    def test_missing_noise_rejected(self, wavs, capsys):
        code = _separate(["--speech", wavs["speech"]])
        assert code == 2
        assert "--noise" in capsys.readouterr().err


class TestBadWavNamed:
    """A WAV the CLI cannot use exits 2 with a message naming the file."""

    @staticmethod
    def _write(path, fault):
        samples = {
            "nan": np.array([0.25, np.nan, 0.0], dtype=np.float32),
            "inf": np.array([0.25, np.inf, 0.0], dtype=np.float32),
            "empty": np.zeros(0, dtype=np.int16),
        }[fault]
        wavfile.write(path, RATE, samples)

    @pytest.mark.parametrize("role", ["speech", "noise"])
    @pytest.mark.parametrize("fault", ["nan", "inf", "empty"])
    def test_separate(self, wavs, capsys, role, fault):
        bad = wavs["dir"] / "bad.wav"
        self._write(bad, fault)
        files = {"speech": wavs["speech"], "noise": wavs["noise"], role: str(bad)}
        code = _separate([
            "--speech", files["speech"], "--noise", files["noise"],
            "--algo", "amplitude_mask",
        ])
        captured = capsys.readouterr()
        assert code == 2
        assert captured.out == ""
        assert str(bad) in captured.err

    @pytest.mark.parametrize("fault", ["nan", "empty"])
    def test_eval(self, wavs, capsys, fault):
        bad = wavs["dir"] / "bad.wav"
        self._write(bad, fault)
        code = cli.main(["eval", "--ref", wavs["speech"], "--est", str(bad)])
        assert code == 2
        assert str(bad) in capsys.readouterr().err


def _truncated_wav(path):
    _write_tone(path, 440.0)
    path.write_bytes(path.read_bytes()[:30])


def _cut_short_wav(path):
    # a 16 000-sample file whose data chunk ends after 5 000 samples
    _write_tone(path, 440.0, length=16000)
    path.write_bytes(path.read_bytes()[: 44 + 2 * 5000])


def _without_chunk(name):
    # a tone whose fmt or data chunk is taken out of write_wav's 44-byte header
    def write(path):
        _write_tone(path, 440.0)
        raw = path.read_bytes()
        path.write_bytes(raw[:12] + raw[36:] if name == "fmt" else raw[:36])

    return write


def _half_silent_wav(path):
    # one second whose first half is digital silence: exact-zero bins
    t = np.arange(RATE) / RATE
    samples = 0.4 * np.sin(2.0 * np.pi * 440.0 * t)
    samples[: RATE // 2] = 0.0
    write_wav(path, Signal(samples, RATE))


# how each kind of WAV in AWKWARD_INPUTS is written; "missing" writes none
_AWKWARD_WAVS = {
    "tone": lambda path: _write_tone(path, 440.0),
    "noise": lambda path: _write_noise(path, seed=7),
    "silence": lambda path: write_wav(path, Signal(np.zeros(4000), RATE)),
    "tone at 8 kHz": lambda path: write_wav(path, Signal(np.full(4000, 0.25), 8000)),
    "uint8": lambda path: wavfile.write(path, RATE, np.full(4000, 200, np.uint8)),
    "int32": lambda path: wavfile.write(path, RATE, np.full(4000, 1 << 20, np.int32)),
    "float64": lambda path: wavfile.write(path, RATE, np.full(4000, 0.25)),
    "stereo": lambda path: wavfile.write(path, RATE, np.full((4000, 2), 99, np.int16)),
    "truncated": _truncated_wav,
    "cut short": _cut_short_wav,
    "no data chunk": _without_chunk("data"),
    "no fmt chunk": _without_chunk("fmt"),
    "empty": lambda path: wavfile.write(path, RATE, np.zeros(0, np.int16)),
    "missing": lambda path: None,
    "10 samples": lambda path: _write_tone(path, 440.0, length=10),
    "1 sample": lambda path: write_wav(path, Signal(np.array([0.25]), RATE)),
    "half silent": _half_silent_wav,
    "long tone": lambda path: _write_tone(path, 440.0, length=12000),
}

# Awkward inputs through `separate` (at --win 256 --hop 64 unless a flag
# says otherwise) and the outcome each one has: (case, speech WAV, noise
# WAV, flags, exit code, outcome).  The outcome is the leading words of the
# error message, with {speech} and {noise} the files' paths, or the row's
# status.  The README's "Defined behaviour" table names the same cases.
AWKWARD_INPUTS = [
    ("zero-energy speech", "silence", "noise", (), 2,
     "cannot set an SNR with a zero-energy signal"),
    ("zero-energy noise", "tone", "silence", (), 2,
     "cannot set an SNR with a zero-energy signal"),
    ("mismatched sample rates", "tone at 8 kHz", "noise", (), 2,
     "speech and noise sample rates differ"),
    ("uint8 WAV", "uint8", "noise", (), 2, "{speech}: unsupported encoding uint8"),
    ("int32 WAV", "int32", "noise", (), 2, "{speech}: unsupported encoding int32"),
    ("float64 WAV", "float64", "noise", (), 2,
     "{speech}: unsupported encoding float64"),
    ("stereo WAV", "stereo", "noise", (), 2, "{speech} has 2 channels"),
    ("truncated WAV", "truncated", "noise", (), 2,
     "malformed or unreadable WAV file {speech}"),
    ("WAV whose data chunk is cut short", "cut short", "noise", (), 2,
     "malformed or unreadable WAV file {speech}: chunk 'data' cut short"),
    ("WAV without a data chunk", "no data chunk", "noise", (), 2,
     "malformed or unreadable WAV file {speech}: no data chunk"),
    ("WAV without a fmt chunk before its data chunk", "no fmt chunk", "noise", (), 2,
     "malformed or unreadable WAV file {speech}: no fmt chunk before the data chunk"),
    ("WAV without samples", "empty", "noise", (), 2, "{speech} holds no samples"),
    ("missing speech file", "missing", "noise", (), 2,
     "[Errno 2] No such file or directory: '{speech}'"),
    ("missing noise file", "tone", "missing", (), 2,
     "[Errno 2] No such file or directory: '{noise}'"),
    ("non-COLA hop", "tone", "noise", ("--hop", "128"), 2,
     "squared window does not overlap-add to a constant"),
    ("hop that does not divide the window", "tone", "noise", ("--hop", "100"), 2,
     "win_length must be a multiple of hop"),
    ("odd window", "tone", "noise", ("--win", "255", "--hop", "85"), 2,
     "win_length must be an even integer >= 2"),
    ("NaN beta", "tone", "noise", ("--beta", "nan"), 2, "beta must lie in [0, 2]"),
    ("comma in mixture_id", "tone", "noise", ("--mixture-id", "a,b"), 2,
     "mixture_id must be non-empty, without comma"),
    ("non-integer iteration count", "tone", "noise", ("--iterations", "1e9"), 2,
     "argument --iterations: invalid literal for int()"),
    ("measurements that overflow", "tone", "noise",
     ("--provider", "noisy_oracle", "--sigma", "800"), 2,
     "measurements must be finite"),
    ("10-sample clip", "10 samples", "noise", (), 0, "ok"),
    ("1-sample clip", "1 sample", "noise", (), 0, "ok"),
    ("2-sample window", "tone", "noise", ("--win", "2", "--hop", "1"), 0, "ok"),
    ("noise shorter than the speech", "long tone", "noise", (), 0, "ok"),
    ("half a second of digital silence", "half silent", "noise",
     ("--beta", "0", "--d", "2", "--direction", "left"), 0, "diverged"),
    ("step size 1e300", "tone", "noise", ("--step-size", "1e300"), 0, "diverged"),
    ("SNR whose noise energy underflows", "tone", "noise", ("--snr", "1e308"), 2,
     "snr_db 1e+308 underflows the scaled noise's energy"),
    ("SNR whose noise energy overflows", "tone", "noise", ("--snr", "-6100"), 2,
     "snr_db -6100 overflows the scaled noise's energy"),
    ("CSV in a missing directory", "tone", "noise", ("--csv", "missing/row.csv"), 2,
     "--csv 'missing/row.csv': directory 'missing' does not exist"),
    ("out-dir is a file", "tone", "noise",
     ("--out-dir", "noise.wav", "--csv", "row.csv"), 2,
     "--out-dir 'noise.wav': 'noise.wav' is not a directory"),
    ("CSV that is the noise WAV", "tone", "noise", ("--csv", "noise.wav"), 2,
     "--csv 'noise.wav' is the same file as --noise"),
]


@pytest.mark.parametrize(
    "speech, noise, flags, code, outcome",
    [case[1:] for case in AWKWARD_INPUTS],
    ids=[case[0] for case in AWKWARD_INPUTS],
)
def test_awkward_input_has_its_defined_outcome(
    tmp_path, capsys, monkeypatch, speech, noise, flags, code, outcome
):
    paths = {"speech": str(tmp_path / "speech.wav"), "noise": str(tmp_path / "noise.wav")}
    _AWKWARD_WAVS[speech](tmp_path / "speech.wav")
    _AWKWARD_WAVS[noise](tmp_path / "noise.wav")
    written = set(tmp_path.rglob("*"))
    # relative output paths in the flags land here
    monkeypatch.chdir(tmp_path)
    try:
        got = _separate(["--speech", paths["speech"], "--noise", paths["noise"], *flags])
    except SystemExit as exit_:
        # argparse rejects the flag
        got = exit_.code
    captured = capsys.readouterr()
    assert got == code
    if code == 0:
        assert _row_fields(captured.out)["status"] == outcome
    else:
        # an error prints no row and writes no file
        assert captured.out == ""
        assert set(tmp_path.rglob("*")) == written
        message = captured.err.strip().split("\n")[-1].split("error: ", 1)[1]
        assert message.startswith(outcome.format(**paths))


def test_readme_names_the_awkward_inputs():
    readme = (Path(__file__).parents[1] / "README.md").read_text()
    section = readme.split("### Defined behaviour\n", 1)[1].split("\n#", 1)[0]
    rows = [line for line in section.splitlines() if line.startswith("|")]
    # after the header and the separator rows, each row's first cell
    cases = [row.split("|")[1].strip() for row in rows[2:]]
    assert cases == [case[0] for case in AWKWARD_INPUTS]


class TestConfigFile:
    def test_config_supplies_values_and_flags_override(self, wavs, capsys):
        config = wavs["dir"] / "run.cfg"
        config.write_text(
            "[common]\nwin = 256\nhop = 64\nsnr = 12\n"
            "[separate]\nalgo = misi\niterations = 2\n"
        )
        code = cli.main([
            "separate", "--speech", wavs["speech"], "--noise", wavs["noise"],
            "--config", str(config), "--algo", "amplitude_mask",
        ])
        assert code == 0
        row = _row_fields(capsys.readouterr().out)
        assert row["algo"] == "amplitude_mask"
        assert row["snr_db"] == "12.000000"

    def test_unknown_key_rejected(self, wavs, capsys):
        config = wavs["dir"] / "bad.cfg"
        config.write_text("[separate]\nbogus = 1\n")
        code = cli.main([
            "separate", "--speech", wavs["speech"], "--noise", wavs["noise"],
            "--config", str(config),
        ])
        assert code == 2
        assert "bogus" in capsys.readouterr().err

    def test_negative_iterations_in_config_rejected(self, wavs, capsys):
        cfg = wavs["dir"] / "run.cfg"
        cfg.write_text("[separate]\nalgo = amplitude_mask\niterations = -3\n")
        code = cli.main([
            "separate", "--speech", wavs["speech"], "--noise", wavs["noise"],
            "--config", str(cfg),
        ])
        assert code == 2
        captured = capsys.readouterr()
        assert captured.out == ""
        assert ">= 0" in captured.err

    def test_negative_seed_in_config_rejected(self, wavs, capsys):
        cfg = wavs["dir"] / "run.cfg"
        cfg.write_text("[common]\nseed = -1\n")
        code = cli.main([
            "separate", "--speech", wavs["speech"], "--noise", wavs["noise"],
            "--algo", "amplitude_mask", "--config", str(cfg),
        ])
        assert code == 2
        captured = capsys.readouterr()
        assert captured.out == ""
        assert "config key 'seed'" in captured.err and ">= 0" in captured.err

    def test_missing_config_rejected(self, wavs, capsys):
        code = cli.main([
            "separate", "--speech", wavs["speech"], "--noise", wavs["noise"],
            "--config", str(wavs["dir"] / "nope.cfg"),
        ])
        assert code == 2
        assert "config" in capsys.readouterr().err

    @pytest.mark.parametrize("text, message", [
        ("[separate]\nalgo = foo\n",
         "config key 'algo': expected one of amplitude_mask/gl/misi/pgd, got 'foo'"),
        ("[common]\nbogus = 1\n", "unknown config key 'bogus' in [common]"),
        # no section header
        ("algo = pgd\n", "bad config file"),
    ], ids=["rejected_choice", "unknown_common_key", "malformed"])
    def test_bad_config_rejected(self, wavs, capsys, text, message):
        cfg = wavs["dir"] / "run.cfg"
        cfg.write_text(text)
        code = cli.main([
            "separate", "--speech", wavs["speech"], "--noise", wavs["noise"],
            "--config", str(cfg),
        ])
        assert code == 2
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err.startswith("error: " + message)

    @pytest.mark.parametrize("argv, message", [
        (["separate", "--speech", "s.wav", "--noise", "n.wav", "--algo", "foo"],
         "argument --algo: expected one of amplitude_mask/gl/misi/pgd, got 'foo'"),
        (["sweep", "--manifest", "m.csv", "--csv", "o.csv", "--betas", ","],
         "argument --betas: empty list"),
    ], ids=["rejected_choice", "empty_list"])
    def test_bad_flag_rejected(self, capsys, argv, message):
        with pytest.raises(SystemExit) as err:
            cli.main(argv)
        assert err.value.code == 2
        assert "error: " + message in capsys.readouterr().err


def _write_manifest(path, rows):
    lines = ["mixture_id,speech,noise,snr_db,seed,split"]
    lines += [",".join(str(v) for v in row) for row in rows]
    path.write_text("\n".join(lines) + "\n")


@pytest.fixture
def sweep_setup(tmp_path):
    _write_tone(tmp_path / "tone_a.wav", 440.0)
    _write_tone(tmp_path / "tone_b.wav", 650.0)
    _write_noise(tmp_path / "noise.wav", seed=7)
    manifest = tmp_path / "manifest.csv"
    _write_manifest(manifest, [
        ("mix_a", "tone_a.wav", "noise.wav", 0.0, 1, "validation"),
        ("mix_b", "tone_b.wav", "noise.wav", 0.0, 2, "validation"),
        ("mix_c", "tone_a.wav", "noise.wav", -5.0, 3, "test"),
    ])
    return {"dir": tmp_path, "manifest": str(manifest)}


def _record_divergence(monkeypatch):
    """Patch the sweep's solver name to record each SolverDivergedError."""
    stopped = []
    original = cli.projected_gradient

    def recorded(*args, **kwargs):
        try:
            return original(*args, **kwargs)
        except solvers.SolverDivergedError as err:
            stopped.append(err)
            raise

    monkeypatch.setattr(cli, "projected_gradient", recorded)
    return stopped


def _in_process(monkeypatch):
    """Run the sweep's groups in this process, as on one usable CPU, so
    what a test patches into cli or solvers sees every call."""
    monkeypatch.setattr(cli, "_sweep_workers", lambda groups: 1)


def _two_workers(monkeypatch):
    """Run the sweep's groups in two forked workers, whatever the CPUs."""
    monkeypatch.setattr(cli, "_sweep_workers", lambda groups: min(groups, 2))


def _sweep(setup, csv_name, extra=()):
    out = setup["dir"] / csv_name
    code = cli.main([
        "sweep", "--manifest", setup["manifest"], "--csv", str(out),
        "--win", "256", "--hop", "64", "--iterations", "2",
        "--betas", "0,2", "--step-sizes", "0.01,1",
        "--directions", "right", "--d-values", "1",
    ] + list(extra))
    return code, out


class TestSweep:
    def test_csv_layout_and_sorting(self, sweep_setup, capsys):
        code, out = _sweep(sweep_setup, "grid.csv")
        assert code == 0
        lines = out.read_text().strip().split("\n")
        assert lines[0] == cli.CSV_HEADER
        rows = [dict(zip(HEADER_FIELDS, line.split(","))) for line in lines[1:]]
        # 2 validation mixtures x 2 betas x 2 steps, test split excluded
        assert len(rows) == 8
        keys = [
            (r["mixture_id"], float(r["beta"]), float(r["step_size"]))
            for r in rows
        ]
        assert keys == sorted(keys)
        assert {r["mixture_id"] for r in rows} == {"mix_a", "mix_b"}
        assert all(r["algo"] == "pgd" for r in rows)
        summary = capsys.readouterr().out
        assert "best beta=" in summary
        assert "misi_cell mean_sdri=" in summary

    def test_repeat_runs_are_byte_identical(self, sweep_setup, capsys):
        code_a, out_a = _sweep(sweep_setup, "first.csv")
        code_b, out_b = _sweep(sweep_setup, "second.csv")
        assert code_a == 0 and code_b == 0
        assert out_a.read_bytes() == out_b.read_bytes()

    def test_misi_cell_matches_direct_run(self, sweep_setup, capsys):
        code, out = _sweep(sweep_setup, "cell.csv")
        assert code == 0
        lines = out.read_text().strip().split("\n")
        rows = [dict(zip(HEADER_FIELDS, line.split(","))) for line in lines[1:]]
        cell = [
            r for r in rows
            if r["beta"] == "2.000000" and r["step_size"] == "1.000000"
        ]
        assert len(cell) == 2
        config = StftConfig(256, 64)
        for row in cell:
            speech = load_wav(sweep_setup["dir"] / ("%s.wav" % (
                "tone_a" if row["mixture_id"] == "mix_a" else "tone_b")))
            noise = load_wav(sweep_setup["dir"] / "noise.wav")
            noise = align_noise(noise, len(speech), int(row["seed"]))
            mixture, scaled = mix_at_snr(speech, noise, float(row["snr_db"]))
            meas = provide_spectrograms(
                [speech, scaled], ProviderSpec("oracle"), 1, config
            )
            init = amplitude_mask_init(meas, mixture, config)
            res = misi(meas, mixture, 2, config, init=init)
            want = sdr(speech, res.sources[0]) - sdr(speech, init[0])
            assert abs(float(row["sdri"]) - want) < 1e-6

    def test_one_solver_call_per_cell(self, sweep_setup, capsys, monkeypatch):
        # bench/ times the sweep and records its spans through this name
        _in_process(monkeypatch)
        calls = []
        original = cli.projected_gradient

        def counted(*args, **kwargs):
            calls.append(kwargs.get("start"))
            return original(*args, **kwargs)

        monkeypatch.setattr(cli, "projected_gradient", counted)
        code, _ = _sweep(sweep_setup, "counted.csv")
        assert code == 0
        # 2 mixtures x 2 betas x 2 steps; one start per (mixture, beta)
        assert len(calls) == 8
        assert len({id(start) for start in calls[::2]}) == 4
        assert all(a is b for a, b in zip(calls[::2], calls[1::2]))

    def test_first_iteration_once_per_group(self, sweep_setup, capsys, monkeypatch):
        _in_process(monkeypatch)
        runs = []
        original = solvers._zero_mean_updates

        def counted(*args):
            runs.append(1)
            return original(*args)

        stopped_at = _record_divergence(monkeypatch)
        monkeypatch.setattr(solvers, "_zero_mean_updates", counted)
        code, out = _sweep(sweep_setup, "first.csv", ["--iterations", "3"])
        assert code == 0
        status = HEADER_FIELDS.index("status")
        lines = out.read_text().strip().split("\n")[1:]
        diverged = sum(line.split(",")[status] == "diverged" for line in lines)
        assert diverged == len(stopped_at)
        # 4 (mixture, beta) groups of 2 steps: one first iteration per
        # group, then per cell the iterations it ran after its first: 2,
        # or t for a cell that diverged at iteration t
        iterations = [err.iteration for err in stopped_at]
        assert len(runs) == 4 + (8 - diverged) * 2 + sum(iterations)

    def test_finite_blow_up_reports_diverged(self, tmp_path, capsys, monkeypatch):
        # mix_00 of the acceptance corpus, as criterion 8 sweeps it.  This
        # cell's run stays finite but blows up: before the energy bound it
        # was reported "ok" at -94.45 dB SDRi (sdr -84.82 dB).
        speech = tmp_path / "speech_00.wav"
        noise = tmp_path / "noise_0.wav"
        write_wav(speech, _harmonic_speech(0, 2 * RATE))
        samples = np.random.default_rng(900).standard_normal(int(2.5 * RATE))
        write_wav(noise, Signal(0.3 * samples / np.max(np.abs(samples)), RATE))
        manifest = tmp_path / "manifest.csv"
        _write_manifest(manifest, [
            ("mix_00", speech.name, noise.name, 0.0, 1, "validation"),
        ])
        stopped_at = _record_divergence(monkeypatch)
        out = tmp_path / "cell.csv"
        code = cli.main([
            "sweep", "--manifest", str(manifest), "--csv", str(out),
            "--provider", "noisy_oracle", "--sigma", "0.5", "--seed", "0",
            "--betas", "0", "--d-values", "1", "--directions", "right",
            "--step-sizes", "0.0001",
        ])
        assert code == 0
        lines = out.read_text().strip().split("\n")
        row = dict(zip(HEADER_FIELDS, lines[1].split(",")))
        assert row["status"] == "diverged"
        assert row["sdr"] == row["sdr_init"]
        assert row["sdri"] == "0.000000"
        assert [err.reason for err in stopped_at] == ["energy bound"]

    @pytest.mark.parametrize("run_groups", [_in_process, _two_workers])
    def test_separate_prints_the_sweep_cells_line(
        self, sweep_setup, capsys, monkeypatch, run_groups
    ):
        # with --seed 0 the sweep seeds mix_a's provider with its manifest
        # seed, 1, as separate --seed 1 does.  Step 0.1 runs second in its
        # group, from the start the step 0.01 run shared
        run_groups(monkeypatch)
        settings = [
            "--win", "256", "--hop", "64", "--iterations", "2",
            "--provider", "noisy_oracle", "--sigma", "0.5",
        ]
        out = sweep_setup["dir"] / "cells.csv"
        code = cli.main([
            "sweep", "--manifest", sweep_setup["manifest"], "--csv", str(out),
            "--seed", "0", "--betas", "0,1.5", "--step-sizes", "0.01,0.1",
            "--directions", "left", "--d-values", "1,2", *settings,
        ])
        assert code == 0
        swept = out.read_text().split("\n")
        capsys.readouterr()
        statuses = []
        for d in ("1", "2"):
            for beta in ("0", "1.5"):
                code = _separate([
                    "--speech", str(sweep_setup["dir"] / "tone_a.wav"),
                    "--noise", str(sweep_setup["dir"] / "noise.wav"),
                    "--snr", "0", "--seed", "1", "--mixture-id", "mix_a",
                    "--algo", "pgd", "--beta", beta, "--d", d,
                    "--direction", "left", "--step-size", "0.1", *settings,
                ])
                assert code == 0
                line = capsys.readouterr().out.split("\n")[1]
                assert line in swept
                statuses.append(line.split(",")[HEADER_FIELDS.index("status")])
        assert statuses == ["diverged", "ok"] * 2

    def test_zero_iterations_compute_no_first_direction(
        self, sweep_setup, capsys, monkeypatch
    ):
        _in_process(monkeypatch)
        runs = []
        original = solvers._zero_mean_updates

        def counted(*args):
            runs.append(1)
            return original(*args)

        monkeypatch.setattr(solvers, "_zero_mean_updates", counted)
        code, out = _sweep(sweep_setup, "zero.csv", ["--iterations", "0"])
        assert code == 0
        assert len(out.read_text().strip().split("\n")) == 1 + 8
        assert runs == []

    def test_csv_in_a_missing_directory_rejected_before_any_run(
        self, sweep_setup, capsys, monkeypatch
    ):
        _in_process(monkeypatch)
        calls = []
        monkeypatch.setattr(cli, "projected_gradient", lambda *a, **k: calls.append(1))
        code, out = _sweep(sweep_setup, "missing/grid.csv")
        captured = capsys.readouterr()
        assert code == 2
        assert "--csv" in captured.err and "does not exist" in captured.err
        assert captured.out == ""
        assert not out.parent.exists()
        assert calls == []

    def test_csv_that_is_the_manifest_rejected_before_any_run(
        self, sweep_setup, capsys, monkeypatch
    ):
        _in_process(monkeypatch)
        calls = []
        monkeypatch.setattr(cli, "projected_gradient", lambda *a, **k: calls.append(1))
        manifest = Path(sweep_setup["manifest"])
        text = manifest.read_text()
        code, _ = _sweep(sweep_setup, manifest.name)
        captured = capsys.readouterr()
        assert code == 2
        assert captured.out == ""
        assert captured.err == "error: --csv %r is the same file as --manifest\n" % str(
            manifest)
        assert manifest.read_text() == text
        assert calls == []

    def test_grid_that_is_not_cola_rejected_before_any_input(
        self, sweep_setup, capsys, monkeypatch
    ):
        calls = []
        original = cli._load_pair

        def counted(*args):
            calls.append(args)
            return original(*args)

        monkeypatch.setattr(cli, "_load_pair", counted)
        code, out = _sweep(sweep_setup, "grid.csv", ["--hop", "128"])
        captured = capsys.readouterr()
        assert code == 2
        assert captured.err.startswith(
            "error: squared window does not overlap-add to a constant (hop 128, win 256"
        )
        assert captured.out == "" and not out.exists() and calls == []

    def test_negative_iterations_rejected(self, sweep_setup, capsys):
        with pytest.raises(SystemExit) as err:
            _sweep(sweep_setup, "negative.csv", ["--iterations", "-1"])
        assert err.value.code == 2
        assert "--iterations" in capsys.readouterr().err

    def test_test_split_selected_by_flag(self, sweep_setup, capsys):
        code, out = _sweep(sweep_setup, "test_split.csv", ["--split", "test"])
        assert code == 0
        lines = out.read_text().strip().split("\n")
        rows = [dict(zip(HEADER_FIELDS, line.split(","))) for line in lines[1:]]
        assert {r["mixture_id"] for r in rows} == {"mix_c"}

    def test_empty_split_errors(self, tmp_path, capsys):
        _write_tone(tmp_path / "tone.wav", 300.0)
        _write_noise(tmp_path / "noise.wav", seed=1)
        manifest = tmp_path / "manifest.csv"
        _write_manifest(manifest, [
            ("only", "tone.wav", "noise.wav", 0.0, 1, "validation"),
        ])
        code = cli.main([
            "sweep", "--manifest", str(manifest),
            "--csv", str(tmp_path / "none.csv"), "--split", "test",
        ])
        assert code == 2
        assert "split" in capsys.readouterr().err

    @pytest.mark.parametrize("mixture_id", ["a,b", "a\nb", "a\rb", 'a"b', '"a'])
    def test_manifest_mixture_id_that_breaks_csv_rejected(
        self, tmp_path, capsys, mixture_id
    ):
        _write_tone(tmp_path / "tone.wav", 300.0)
        _write_noise(tmp_path / "noise.wav", seed=1)
        manifest = tmp_path / "manifest.csv"
        # quoted where needed, so the id reaches the check intact
        with open(manifest, "w", newline="") as handle:
            writer = csv.writer(handle)
            writer.writerow(["mixture_id", "speech", "noise", "snr_db", "seed", "split"])
            writer.writerow([mixture_id, "tone.wav", "noise.wav", 0.0, 1, "validation"])
        out = tmp_path / "none.csv"
        code = cli.main(["sweep", "--manifest", str(manifest), "--csv", str(out)])
        captured = capsys.readouterr()
        assert code == 2
        assert "mixture_id" in captured.err
        assert captured.out == "" and not out.exists()

    @pytest.mark.parametrize("row, message", [
        (("m", "", "noise.wav", 0.0, 1, "validation"), "empty path in manifest"),
        (("m", "tone.wav", "noise.wav", 0.0, 1, "train"),
         "manifest line 2: split must be validation or test"),
        (("m", "tone.wav", "noise.wav", "loud", 1, "validation"),
         "manifest line 2: bad snr_db or seed"),
        (("m", "tone.wav", "noise.wav", 0.0, "1.5", "validation"),
         "manifest line 2: bad snr_db or seed"),
        (None, "manifest "),
    ], ids=["empty_path", "bad_split", "bad_snr_db", "bad_seed", "no_rows"])
    def test_bad_manifest_row_rejected(self, tmp_path, capsys, row, message):
        manifest = tmp_path / "manifest.csv"
        _write_manifest(manifest, [] if row is None else [row])
        out = tmp_path / "none.csv"
        code = cli.main(["sweep", "--manifest", str(manifest), "--csv", str(out)])
        captured = capsys.readouterr()
        assert code == 2
        assert captured.err.startswith("error: " + message)
        if row is None:
            assert captured.err.rstrip().endswith("has no rows")
        assert captured.out == "" and not out.exists()

    def test_missing_input_of_a_later_row_rejected_before_any_run(
        self, tmp_path, capsys, monkeypatch
    ):
        # every row's pair is read and mixed before the first group runs
        _in_process(monkeypatch)
        calls = []
        original = cli.projected_gradient

        def counted(*args, **kwargs):
            calls.append(args)
            return original(*args, **kwargs)

        monkeypatch.setattr(cli, "projected_gradient", counted)
        _write_tone(tmp_path / "tone.wav", 300.0)
        _write_noise(tmp_path / "noise.wav", seed=1)
        manifest = tmp_path / "manifest.csv"
        _write_manifest(manifest, [
            ("good", "tone.wav", "noise.wav", 0.0, 1, "validation"),
            ("bad", "tone.wav", "missing.wav", 0.0, 2, "validation"),
        ])
        out = tmp_path / "none.csv"
        code = cli.main([
            "sweep", "--manifest", str(manifest), "--csv", str(out),
            "--win", "256", "--hop", "64", "--iterations", "1", "--betas", "2",
            "--step-sizes", "1", "--directions", "right", "--d-values", "1",
        ])
        captured = capsys.readouterr()
        assert code == 2
        assert captured.err.startswith("error: [Errno 2] No such file or directory")
        assert "missing.wav" in captured.err
        assert captured.out == "" and not out.exists() and not calls

    def test_bad_manifest_header_errors(self, tmp_path, capsys):
        manifest = tmp_path / "bad.csv"
        manifest.write_text("speech,noise\na.wav,b.wav\n")
        code = cli.main([
            "sweep", "--manifest", str(manifest),
            "--csv", str(tmp_path / "none.csv"),
        ])
        assert code == 2
        assert "manifest" in capsys.readouterr().err

    def test_nonfinite_manifest_snr_rejected_before_any_run(self, tmp_path, capsys):
        _write_tone(tmp_path / "tone.wav", 300.0)
        _write_noise(tmp_path / "noise.wav", seed=1)
        manifest = tmp_path / "manifest.csv"
        _write_manifest(manifest, [
            ("good", "tone.wav", "noise.wav", 0.0, 1, "validation"),
            ("bad", "tone.wav", "noise.wav", "inf", 2, "validation"),
        ])
        code = cli.main([
            "sweep", "--manifest", str(manifest),
            "--csv", str(tmp_path / "none.csv"),
        ])
        captured = capsys.readouterr()
        assert code == 2
        assert "manifest line 3: snr_db must be finite" in captured.err
        assert captured.out == ""

    def test_manifest_snr_whose_noise_underflows_rejected(self, tmp_path, capsys):
        _write_tone(tmp_path / "tone.wav", 300.0)
        _write_noise(tmp_path / "noise.wav", seed=1)
        manifest = tmp_path / "manifest.csv"
        _write_manifest(manifest, [
            ("far", "tone.wav", "noise.wav", 4000.0, 1, "validation"),
        ])
        out = tmp_path / "none.csv"
        code = cli.main(["sweep", "--manifest", str(manifest), "--csv", str(out)])
        captured = capsys.readouterr()
        assert code == 2
        assert "snr_db 4000 underflows" in captured.err
        assert captured.out == "" and not out.exists()

    def test_manifest_snr_whose_noise_overflows_rejected(self, tmp_path, capsys):
        _write_tone(tmp_path / "tone.wav", 300.0)
        _write_noise(tmp_path / "noise.wav", seed=1)
        manifest = tmp_path / "manifest.csv"
        _write_manifest(manifest, [
            ("loud", "tone.wav", "noise.wav", -6100.0, 1, "validation"),
        ])
        out = tmp_path / "none.csv"
        code = cli.main(["sweep", "--manifest", str(manifest), "--csv", str(out)])
        captured = capsys.readouterr()
        assert code == 2
        assert "snr_db -6100 overflows" in captured.err
        assert captured.out == "" and not out.exists()

    def test_negative_manifest_seed_rejected_before_any_run(
        self, tmp_path, capsys, monkeypatch
    ):
        _in_process(monkeypatch)
        calls = []
        monkeypatch.setattr(
            cli, "projected_gradient", lambda *args, **kwargs: calls.append(args)
        )
        _write_tone(tmp_path / "tone.wav", 300.0)
        _write_noise(tmp_path / "noise.wav", seed=1)
        manifest = tmp_path / "manifest.csv"
        _write_manifest(manifest, [
            ("good", "tone.wav", "noise.wav", 0.0, 1, "validation"),
            ("bad", "tone.wav", "noise.wav", 0.0, -2, "validation"),
        ])
        code = cli.main([
            "sweep", "--manifest", str(manifest),
            "--csv", str(tmp_path / "none.csv"),
            "--betas", "1,2", "--step-sizes", "0.1,1",
        ])
        captured = capsys.readouterr()
        assert code == 2
        assert "manifest line 3: seed must be >= 0" in captured.err
        assert captured.out == "" and not calls

    def test_nonpositive_step_rejected(self, sweep_setup, capsys):
        code, _ = _sweep(sweep_setup, "zero.csv", ["--step-sizes", "0,1"])
        assert code == 2
        assert "positive" in capsys.readouterr().err

    @pytest.mark.parametrize("step", ["nan", "inf"])
    def test_nonfinite_step_rejected(self, sweep_setup, capsys, step):
        code, _ = _sweep(sweep_setup, "nonfinite.csv", ["--step-sizes", step + ",1"])
        assert code == 2
        assert "finite" in capsys.readouterr().err

    @pytest.mark.parametrize("flag, value", [
        ("--betas", "2,2"),
        # held as the limit 1 by DivergenceSpec, so the same cells
        ("--betas", "1,0.999999999"),
        ("--step-sizes", "1,1.0"),
        ("--directions", "left,left"),
        ("--d-values", "1,1"),
    ])
    def test_repeated_grid_value_rejected(self, sweep_setup, capsys, flag, value):
        with pytest.raises(SystemExit) as err:
            _sweep(sweep_setup, "repeated.csv", [flag, value])
        assert err.value.code == 2
        message = capsys.readouterr().err
        assert flag in message and "repeated value" in message
        assert not (sweep_setup["dir"] / "repeated.csv").exists()

    @pytest.mark.parametrize("value", ["2.5", "-1e-9", "nan"])
    def test_beta_outside_0_to_2_rejected(self, sweep_setup, capsys, value):
        # checked before the limit is taken, as DivergenceSpec checks it, so
        # -1e-9 does not read 0
        with pytest.raises(SystemExit) as err:
            _sweep(sweep_setup, "range.csv", ["--betas", "1," + value])
        assert err.value.code == 2
        assert "argument --betas: beta must lie in [0, 2]" in capsys.readouterr().err
        assert not (sweep_setup["dir"] / "range.csv").exists()

    @pytest.mark.parametrize("key, value", [
        ("betas", "2,2"),
        ("betas", "0,1e-9"),
        ("step_sizes", "1,1.0"),
        ("directions", "left,left"),
        ("d_values", "1,1"),
    ])
    def test_repeated_grid_value_in_config_rejected(
        self, sweep_setup, capsys, key, value
    ):
        config = sweep_setup["dir"] / "grid.cfg"
        config.write_text("[sweep]\n%s = %s\n" % (key, value))
        out = sweep_setup["dir"] / "repeated.csv"
        code = cli.main([
            "sweep", "--manifest", sweep_setup["manifest"], "--csv", str(out),
            "--config", str(config),
        ])
        captured = capsys.readouterr()
        assert code == 2
        assert key in captured.err and "repeated value" in captured.err
        assert captured.out == "" and not out.exists()


def _oracle_sigma_options(directory, by_config):
    """--provider oracle with sigma 0.5, given by flag or by [common] config."""
    if not by_config:
        return ["--provider", "oracle", "--sigma", "0.5"]
    config = directory / "sigma.cfg"
    config.write_text("[common]\nprovider = oracle\nsigma = 0.5\n")
    return ["--config", str(config)]


@pytest.mark.parametrize("by_config", [False, True], ids=["flag", "config"])
class TestOracleSigmaRejected:
    """A nonzero sigma with the oracle provider is an error, not a row that
    reports noise its measurements never had."""

    def test_separate(self, wavs, capsys, by_config):
        out = wavs["dir"] / "row.csv"
        code = _separate([
            "--speech", wavs["speech"], "--noise", wavs["noise"],
            "--csv", str(out), *_oracle_sigma_options(wavs["dir"], by_config),
        ])
        captured = capsys.readouterr()
        assert code == 2
        assert "sigma" in captured.err
        assert captured.out == "" and not out.exists()

    def test_sweep(self, sweep_setup, capsys, by_config):
        code, out = _sweep(
            sweep_setup, "oracle.csv",
            _oracle_sigma_options(sweep_setup["dir"], by_config),
        )
        captured = capsys.readouterr()
        assert code == 2
        assert "sigma" in captured.err
        assert captured.out == "" and not out.exists()

    # the provider is checked before any input is read, so a missing WAV
    # does not hide the option's error
    def test_separate_with_a_missing_noise_file(self, wavs, capsys, by_config):
        out = wavs["dir"] / "row.csv"
        code = _separate([
            "--speech", wavs["speech"], "--noise", str(wavs["dir"] / "missing.wav"),
            "--csv", str(out), *_oracle_sigma_options(wavs["dir"], by_config),
        ])
        captured = capsys.readouterr()
        assert code == 2
        assert captured.err.startswith("error: the oracle provider takes no sigma")
        assert captured.out == "" and not out.exists()

    def test_sweep_with_a_missing_noise_file(self, sweep_setup, capsys, by_config):
        manifest = sweep_setup["dir"] / "missing.csv"
        _write_manifest(manifest, [
            ("mix_a", "tone_a.wav", "missing.wav", 0.0, 1, "validation"),
        ])
        code, out = _sweep(
            {"dir": sweep_setup["dir"], "manifest": str(manifest)}, "oracle.csv",
            _oracle_sigma_options(sweep_setup["dir"], by_config),
        )
        captured = capsys.readouterr()
        assert code == 2
        assert captured.err.startswith("error: the oracle provider takes no sigma")
        assert captured.out == "" and not out.exists()


@pytest.fixture
def parallel_setup(tmp_path):
    """Two mixtures under one repeated mixture_id, and a grid of 4 groups
    per (mixture, d) block whose beta 0 cells diverge."""
    _write_tone(tmp_path / "tone_a.wav", 440.0)
    _write_tone(tmp_path / "tone_b.wav", 650.0)
    _write_noise(tmp_path / "noise.wav", seed=7)
    manifest = tmp_path / "manifest.csv"
    _write_manifest(manifest, [
        ("mix", "tone_a.wav", "noise.wav", 0.0, 1, "validation"),
        ("mix", "tone_b.wav", "noise.wav", 5.0, 2, "validation"),
    ])
    return {"dir": tmp_path, "manifest": str(manifest)}


def _grid_sweep(setup, csv_name, betas="0,1.5"):
    out = setup["dir"] / csv_name
    code = cli.main([
        "sweep", "--manifest", setup["manifest"], "--csv", str(out),
        "--win", "256", "--hop", "64", "--iterations", "2",
        "--provider", "noisy_oracle", "--sigma", "0.5",
        "--betas", betas, "--step-sizes", "0.01,1",
        "--directions", "right,left", "--d-values", "1,2",
    ])
    return code, out


class TestParallelSweep:
    def test_same_csv_and_summary_as_in_process(
        self, parallel_setup, capsys, monkeypatch
    ):
        _in_process(monkeypatch)
        code, serial = _grid_sweep(parallel_setup, "serial.csv")
        assert code == 0
        serial_summary = capsys.readouterr().out
        _two_workers(monkeypatch)
        code, parallel = _grid_sweep(parallel_setup, "parallel.csv")
        assert code == 0
        assert capsys.readouterr().out == serial_summary
        assert parallel.read_bytes() == serial.read_bytes()
        lines = serial.read_text().strip().split("\n")[1:]
        # 2 mixtures x 2 d x 2 betas x 2 directions x 2 steps
        assert len(lines) == 32
        status = HEADER_FIELDS.index("status")
        assert any(line.split(",")[status] == "diverged" for line in lines)
        assert any(line.split(",")[status] == "ok" for line in lines)

    def test_groups_run_in_forked_workers(
        self, parallel_setup, capsys, monkeypatch
    ):
        _two_workers(monkeypatch)
        ran = parallel_setup["dir"] / "ran"
        ran.mkdir()
        original = cli._sweep_group

        def recorded(block, task):
            (ran / ("%d-%s-%s" % ((os.getpid(),) + task[:2]))).touch()
            return original(block, task)

        monkeypatch.setattr(cli, "_sweep_group", recorded)
        code, _ = _grid_sweep(parallel_setup, "grid.csv")
        assert code == 0
        names = [path.name for path in ran.iterdir()]
        # 4 groups in each of 4 (mixture, d) blocks; each block's pool
        # forks its own workers
        assert len(names) == 16
        pids = {int(name.split("-")[0]) for name in names}
        assert len(pids) >= 2
        assert os.getpid() not in pids
        assert multiprocessing.active_children() == []

    def test_worker_error_exits_2_and_leaves_no_process(
        self, parallel_setup, capsys, monkeypatch
    ):
        _two_workers(monkeypatch)

        def failing(block, task):
            raise ValueError("group %s failed" % (task[:2],))

        monkeypatch.setattr(cli, "_sweep_group", failing)
        code, out = _grid_sweep(parallel_setup, "grid.csv")
        captured = capsys.readouterr()
        assert code == 2
        # groups start by beta descending
        assert "error: group (1.5, 'right') failed" in captured.err
        assert captured.out == "" and not out.exists()
        assert multiprocessing.active_children() == []

    def test_interrupt_stops_the_workers(self, parallel_setup, capsys, monkeypatch):
        _two_workers(monkeypatch)
        parent = os.getpid()

        def interrupting(block, task):
            # once: the first group's result is what the parent waits for;
            # groups start by beta descending
            if task[:2] == (1.5, "right"):
                os.kill(parent, signal.SIGINT)
            return []

        monkeypatch.setattr(cli, "_sweep_group", interrupting)
        with pytest.raises(KeyboardInterrupt):
            _grid_sweep(parallel_setup, "grid.csv")
        assert multiprocessing.active_children() == []

    def test_interrupt_never_raises_inside_the_executor(
        self, parallel_setup, capsys, monkeypatch
    ):
        # a KeyboardInterrupt raised in the executor's own code can leave
        # one of its locks held, and the pool's shutdown then hangs
        _two_workers(monkeypatch)
        raised_inside = []

        class Interrupted(cli.ProcessPoolExecutor):
            def submit(self, *args):
                try:
                    os.kill(os.getpid(), signal.SIGINT)
                    return super().submit(*args)
                except KeyboardInterrupt:
                    raised_inside.append(args)
                    raise

        monkeypatch.setattr(cli, "ProcessPoolExecutor", Interrupted)
        monkeypatch.setattr(cli, "_sweep_group", lambda block, task: [])
        with pytest.raises(KeyboardInterrupt):
            _grid_sweep(parallel_setup, "grid.csv")
        assert raised_inside == []
        assert signal.getsignal(signal.SIGINT) is signal.default_int_handler
        assert multiprocessing.active_children() == []

    def test_killed_worker_raises_instead_of_hanging(
        self, parallel_setup, capsys, monkeypatch
    ):
        _two_workers(monkeypatch)

        def dying(block, task):
            os.kill(os.getpid(), signal.SIGKILL)

        def timed_out(signum, frame):
            pytest.fail("the sweep still waits for a dead worker")

        monkeypatch.setattr(cli, "_sweep_group", dying)
        previous = signal.signal(signal.SIGALRM, timed_out)
        signal.alarm(60)
        try:
            with pytest.raises(BrokenProcessPool):
                _grid_sweep(parallel_setup, "grid.csv")
        finally:
            signal.alarm(0)
            signal.signal(signal.SIGALRM, previous)
        assert multiprocessing.active_children() == []

    def test_worker_count_is_groups_capped_at_usable_cpus(self, monkeypatch):
        # resolves the count only: no process is started
        monkeypatch.setattr(os, "sched_getaffinity", lambda pid: set(range(64)),
                            raising=False)
        assert cli._sweep_workers(18) == 18
        assert cli._sweep_workers(100) == 64
        assert cli._sweep_workers(1) == 1
        # where the affinity mask cannot be read, every CPU counts
        monkeypatch.delattr(os, "sched_getaffinity", raising=False)
        monkeypatch.setattr(os, "cpu_count", lambda: 3)
        assert cli._sweep_workers(18) == 3
        assert cli._sweep_workers(1) == 1

    def test_no_fork_means_one_worker(self, monkeypatch):
        monkeypatch.setattr(multiprocessing, "get_all_start_methods",
                            lambda: ["spawn"])
        assert cli._sweep_workers(18) == 1


class TestDistinctSweepGroups:
    """Beta 2's loss is symmetric, so its group runs once per block and its
    Rows are written under every direction; groups start by beta
    descending."""

    def test_beta_2_runs_once_per_mixture_d_and_step(
        self, sweep_setup, capsys, monkeypatch
    ):
        _in_process(monkeypatch)
        calls = []
        original = cli.projected_gradient

        def counted(measurements, mixture, solver, *args, **kwargs):
            calls.append((solver.spec.beta, solver.spec.direction))
            return original(measurements, mixture, solver, *args, **kwargs)

        monkeypatch.setattr(cli, "projected_gradient", counted)
        code, _ = _grid_sweep(sweep_setup, "grid.csv", betas="1.5,2")
        assert code == 0
        # 2 mixtures x 2 d x 2 steps: once at beta 2, once per direction at 1.5
        assert sorted(set(calls)) == [(1.5, "left"), (1.5, "right"), (2.0, "right")]
        assert calls.count((2.0, "right")) == 8
        assert calls.count((1.5, "right")) == calls.count((1.5, "left")) == 8

    def test_beta_2_rows_of_both_directions_are_equal(self, sweep_setup, capsys):
        code, out = _grid_sweep(sweep_setup, "grid.csv", betas="1.5,2")
        assert code == 0
        rows = [
            dict(zip(HEADER_FIELDS, line.split(",")))
            for line in out.read_text().strip().split("\n")[1:]
        ]
        # 2 mixtures x 2 d x 2 betas x 2 directions x 2 steps
        assert len(rows) == 32
        by_direction = {"right": [], "left": []}
        for row in rows:
            if row["beta"] == "2.000000":
                by_direction[row.pop("direction")].append(row)
        assert len(by_direction["right"]) == 8
        assert by_direction["right"] == by_direction["left"]

    def test_groups_start_by_beta_descending(self, sweep_setup, capsys, monkeypatch):
        _in_process(monkeypatch)
        tasks = []
        original = cli._sweep_group

        def recorded(block, task):
            tasks.append(task[:2])
            return original(block, task)

        monkeypatch.setattr(cli, "_sweep_group", recorded)
        code, _ = _grid_sweep(sweep_setup, "grid.csv", betas="0,2,1.5")
        assert code == 0
        block = [(2.0, "right"), (1.5, "right"), (1.5, "left"),
                 (0.0, "right"), (0.0, "left")]
        # 2 mixtures x 2 d blocks
        assert tasks == block * 4

    def test_group_order_does_not_change_the_output(
        self, sweep_setup, capsys, monkeypatch
    ):
        code, forward = _grid_sweep(sweep_setup, "forward.csv", betas="0,1.5,2")
        assert code == 0
        forward_summary = capsys.readouterr().out
        original = cli._distinct_groups
        monkeypatch.setattr(
            cli, "_distinct_groups",
            lambda *args: dict(reversed(original(*args).items())),
        )
        code, backward = _grid_sweep(sweep_setup, "backward.csv", betas="0,1.5,2")
        assert code == 0
        assert capsys.readouterr().out == forward_summary
        assert backward.read_bytes() == forward.read_bytes()

    def test_default_grid_runs_306_problems_per_mixture(
        self, sweep_setup, capsys, monkeypatch
    ):
        _in_process(monkeypatch)
        calls = []
        original = cli.projected_gradient

        def counted(*args, **kwargs):
            calls.append(1)
            return original(*args, **kwargs)

        monkeypatch.setattr(cli, "projected_gradient", counted)
        out = sweep_setup["dir"] / "default.csv"
        # the test split's one mixture; with no iteration each run only
        # copies its start
        code = cli.main([
            "sweep", "--manifest", sweep_setup["manifest"], "--csv", str(out),
            "--split", "test", "--win", "256", "--hop", "64", "--iterations", "0",
        ])
        assert code == 0
        # 9 betas x 2 directions x 2 d x 9 steps = 324 rows from
        # (8 x 2 + 1) x 2 x 9 = 306 runs
        assert len(out.read_text().strip().split("\n")) == 1 + 324
        assert len(calls) == 306


@pytest.mark.skipif(platform.libc_ver()[0] != "glibc", reason="holds glibc's malloc")
def test_separate_reuses_its_heap(tmp_path, capsys):
    # main holds glibc's malloc thresholds; under its defaults each PGD
    # iteration faults its block arrays in afresh, thousands of pages a call
    import resource

    _write_tone(tmp_path / "tone.wav", 440.0, length=RATE)
    _write_noise(tmp_path / "noise.wav", seed=8, length=RATE)
    argv = [
        "separate", "--speech", str(tmp_path / "tone.wav"),
        "--noise", str(tmp_path / "noise.wav"), "--algo", "pgd",
    ]
    for _ in range(3):
        assert cli.main(argv) == 0
    before = resource.getrusage(resource.RUSAGE_SELF).ru_minflt
    for _ in range(20):
        assert cli.main(argv) == 0
    faults = resource.getrusage(resource.RUSAGE_SELF).ru_minflt - before
    capsys.readouterr()
    assert faults / 20 < 100


# 72 MiB freed below a block still in use, which glibc's own trimming of the
# heap top cannot reach; prints the MiB the process held before a command
# less what it holds after it
_FREED_BELOW_A_BLOCK = """
import os, sys
import numpy as np
from bregsep import cli

def resident_mib():
    with open("/proc/self/statm") as statm:
        return int(statm.read().split()[1]) * os.sysconf("SC_PAGE_SIZE") / 2**20

cli._hold_allocator()
arrays = [np.ones(3 << 20) for _ in range(3)]
block = bytearray(1 << 20)
del arrays
before = resident_mib()
code = cli.main(["eval", "--ref", sys.argv[1], "--est", sys.argv[1]])
print(code, before - resident_mib())
"""


@pytest.mark.skipif(platform.libc_ver()[0] != "glibc", reason="holds glibc's malloc")
def test_a_command_gives_back_free_heap_past_the_trim_threshold(tmp_path):
    # wherever in the heap the free memory lies, so what a process holds
    # after a command does not turn on where one small block was placed
    src = Path(cli.__file__).resolve().parents[1]
    path = os.pathsep.join(filter(None, [str(src), os.environ.get("PYTHONPATH")]))
    run = subprocess.run(
        [sys.executable, "-c", _FREED_BELOW_A_BLOCK, str(tmp_path / "missing.wav")],
        env=dict(os.environ, PYTHONPATH=path), capture_output=True, text=True, timeout=120,
    )
    assert run.returncode == 0, run.stderr
    code, released_mib = run.stdout.split()
    assert code == "2"
    assert float(released_mib) > 60
