import csv

import numpy as np
import pytest

from bregsep import cli, solvers
from bregsep.audio import load_wav, write_wav
from bregsep.metrics import sdr
from bregsep.mixing import ProviderSpec, align_noise, mix_at_snr, provide_spectrograms
from bregsep.solvers import amplitude_mask_init, misi
from bregsep.transform import Signal, StftConfig

RATE = 16000
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

    @pytest.mark.parametrize(
        "flag, message",
        [
            ("--snr=inf", "snr_db must be finite"),
            ("--sigma=nan", "sigma must be finite"),
        ],
        ids=["snr", "sigma"],
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

    def test_missing_config_rejected(self, wavs, capsys):
        code = cli.main([
            "separate", "--speech", wavs["speech"], "--noise", wavs["noise"],
            "--config", str(wavs["dir"] / "nope.cfg"),
        ])
        assert code == 2
        assert "config" in capsys.readouterr().err


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


def _harmonic_speech(k, length):
    """The acceptance corpus's speech stand-in."""
    t = np.arange(length) / RATE
    f0 = 110.0 + 35.0 * k
    tone = np.zeros(length)
    for harmonic, amp in ((1, 1.0), (2, 0.5), (3, 0.25)):
        tone += amp * np.sin(2.0 * np.pi * f0 * harmonic * t)
    tone *= 0.6 + 0.4 * np.sin(2.0 * np.pi * (1.5 + 0.3 * k) * t)
    return Signal(0.3 * tone / np.max(np.abs(tone)), RATE)


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

    def test_zero_iterations_build_no_start(self, sweep_setup, capsys, monkeypatch):
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

    def test_nonpositive_step_rejected(self, sweep_setup, capsys):
        code, _ = _sweep(sweep_setup, "zero.csv", ["--step-sizes", "0,1"])
        assert code == 2
        assert "positive" in capsys.readouterr().err

    @pytest.mark.parametrize("step", ["nan", "inf"])
    def test_nonfinite_step_rejected(self, sweep_setup, capsys, step):
        code, _ = _sweep(sweep_setup, "nonfinite.csv", ["--step-sizes", step + ",1"])
        assert code == 2
        assert "finite" in capsys.readouterr().err
