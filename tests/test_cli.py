"""End-to-end command-line checks, run in process via main(argv)."""
import json

import numpy as np
import pytest

from sinemodel import audio_io
from sinemodel.cli import main
from sinemodel.core import SampledSignal
from sinemodel.harness import MODELS, run_comparison
from sinemodel.sm import SMConfig, sm_peaks

FS = 16000.0


def _noise_wav(tmp_path, seed: int = 0, n: int = 8000):
    rng = np.random.default_rng(seed)
    path = tmp_path / "noise.wav"
    audio_io.write_wav(path, SampledSignal(samples=rng.normal(0, 0.1, n), fs=FS))
    return path


# ---------------------------------------------------------------------------
# gen
# ---------------------------------------------------------------------------

@pytest.mark.parametrize("signal", ["chirp", "amfm", "damped"])
def test_gen_writes_wav_and_truth(tmp_path, capsys, signal):
    wav = tmp_path / f"{signal}.wav"
    truth = tmp_path / f"{signal}.json"
    assert main(["gen", "--signal", signal, "--out", str(wav),
                 "--truth", str(truth)]) == 0
    out = capsys.readouterr().out
    assert f"wrote {wav}" in out
    sig = audio_io.read_wav(wav)
    assert sig.fs == FS
    assert np.max(np.abs(sig.samples)) <= 0.99 + 1.0 / 32768.0
    obj = json.loads(truth.read_text())
    if signal == "damped":
        assert obj["type"] == "edsm_frames"
        assert obj["frames"][0]["start"] == 0
    else:
        assert obj["type"] == "partial_tracks"
        assert "scale" in obj
        assert audio_io.read_tracks_json(truth)


def test_gen_env_seed_overrides_flag(tmp_path, monkeypatch):
    a = tmp_path / "a.wav"
    b = tmp_path / "b.wav"
    assert main(["gen", "--signal", "amfm", "--seed", "0", "--out", str(a)]) == 0
    monkeypatch.setenv("SINEMODEL_SEED", "0")
    assert main(["gen", "--signal", "amfm", "--seed", "7", "--out", str(b)]) == 0
    assert a.read_bytes() == b.read_bytes()


def test_gen_rejects_malformed_env_seed(tmp_path, monkeypatch, capsys):
    monkeypatch.setenv("SINEMODEL_SEED", "not-an-int")
    code = main(["gen", "--signal", "amfm", "--out", str(tmp_path / "x.wav")])
    assert code == 2
    assert "usage error" in capsys.readouterr().err


@pytest.mark.parametrize("signal", ["chirp", "amfm", "damped"])
@pytest.mark.parametrize("fs", ["nan", "inf", "-5", "0"])
def test_gen_rejects_a_sample_rate_that_is_not_positive_and_finite(tmp_path, capsys,
                                                                   signal, fs):
    wav = tmp_path / "x.wav"
    assert main(["gen", "--signal", signal, "--fs", fs, "--out", str(wav)]) == 2
    err = capsys.readouterr().err
    assert err.startswith("usage error: fs must be positive and finite")
    assert not wav.exists()


# ---------------------------------------------------------------------------
# pitch / analyze
# ---------------------------------------------------------------------------

def test_pitch_command(tone_wav, tmp_path, capsys):
    out = tmp_path / "f0.csv"
    assert main(["pitch", "--in", str(tone_wav), "--out", str(out)]) == 0
    assert "voiced" in capsys.readouterr().out
    track = audio_io.read_f0_csv(out)
    assert track.any_voiced
    assert float(np.median(track.f0[track.voiced])) == pytest.approx(150.0, abs=1.0)


def test_analyze_sm(tone_wav, tmp_path, capsys):
    params = tmp_path / "sm.json"
    resynth = tmp_path / "sm.wav"
    assert main(["analyze", "--model", "sm", "--in", str(tone_wav),
                 "--params", str(params), "--resynth", str(resynth)]) == 0
    out = capsys.readouterr().out
    assert out.startswith("model=sm srer_db=")
    assert float(out.split("=")[-1]) > 20.0
    assert json.loads(params.read_text())["type"] == "sm_analysis"
    y = audio_io.read_wav(resynth)
    assert y.samples.shape[0] == audio_io.read_wav(tone_wav).samples.shape[0]


def test_analyze_sm_dumps_the_peaks_of_sm_peaks(tone_wav, tmp_path):
    params = tmp_path / "sm.json"
    assert main(["analyze", "--model", "sm", "--in", str(tone_wav), "--params", str(params),
                 "--resynth", str(tmp_path / "sm.wav")]) == 0
    times, peaks = sm_peaks(audio_io.read_wav(tone_wav), SMConfig())
    frames = json.loads(params.read_text())["frames"]
    assert [fr["time"] for fr in frames] == times.tolist()
    assert [[(p["freq_hz"], p["amp"], p["phase"]) for p in fr["peaks"]] for fr in frames] == [
        [tuple(row[:3]) for row in rows.tolist()] for rows in peaks]


@pytest.mark.parametrize("model, flag", [("edsm", ["--hop", "5"]),
                                         ("sm", ["--max-adapt", "2"]),
                                         ("edsm", ["--window-periods", "2"])])
def test_analyze_rejects_flags_the_model_has_no_setting_for(tone_wav, tmp_path, capsys,
                                                            model, flag):
    params = tmp_path / "p.json"
    code = main(["analyze", "--model", model, "--in", str(tone_wav), *flag,
                 "--params", str(params), "--resynth", str(tmp_path / "r.wav")])
    assert code == 2
    assert f"{flag[0]} does not apply to --model {model}" in capsys.readouterr().err
    assert not params.exists()


@pytest.mark.parametrize("argv", [
    ["analyze", "--model", "sm", "--hop", "nan"],
    ["analyze", "--model", "sm", "--hop", "inf"],
    ["analyze", "--model", "sm", "--hop", "-5"],
    ["analyze", "--model", "eaqhm", "--hop", "0"],
    ["analyze", "--model", "eaqhm", "--window-periods", "nan"],
    ["analyze", "--model", "eaqhm", "--window-periods", "inf"],
    ["analyze", "--model", "edsm", "--window", "nan"],
    ["analyze", "--model", "edsm", "--window", "-5"],
    ["pitch", "--hop", "nan"],
    ["pitch", "--hop", "-1"]])
def test_hop_and_window_must_be_positive_and_finite(tone_wav, tmp_path, capsys, argv):
    out = (["--params", str(tmp_path / "p.json"), "--resynth", str(tmp_path / "r.wav")]
           if argv[0] == "analyze" else ["--out", str(tmp_path / "f0.csv")])
    assert main([*argv, "--in", str(tone_wav), *out]) == 2
    assert "usage error" in capsys.readouterr().err
    assert not any((tmp_path / name).exists() for name in ("p.json", "r.wav", "f0.csv"))


def test_analyze_rejects_f0_for_a_model_without_pitch(tone_wav, tmp_path, capsys):
    # sm tracks no pitch: --f0 is a usage error, before the file is read
    params = tmp_path / "p.json"
    code = main(["analyze", "--model", "sm", "--in", str(tone_wav),
                 "--f0", str(tmp_path / "missing_f0.csv"),
                 "--params", str(params), "--resynth", str(tmp_path / "r.wav")])
    assert code == 2
    assert "--f0 does not apply to --model sm" in capsys.readouterr().err
    assert not params.exists()


def test_analyze_edsm_with_precomputed_f0(tone_wav, tmp_path, capsys):
    f0csv = tmp_path / "f0.csv"
    assert main(["pitch", "--in", str(tone_wav), "--out", str(f0csv)]) == 0
    params = tmp_path / "ed.json"
    resynth = tmp_path / "ed.wav"
    assert main(["analyze", "--model", "edsm", "--in", str(tone_wav),
                 "--f0", str(f0csv), "--window", "10", "--partials", "1",
                 "--params", str(params), "--resynth", str(resynth)]) == 0
    out = capsys.readouterr().out
    assert float(out.rsplit("=", 1)[-1]) > 60.0
    assert json.loads(params.read_text())["type"] == "edsm_frames"


def test_analyze_eaqhm(tone_wav, tmp_path, capsys):
    params = tmp_path / "ea.json"
    resynth = tmp_path / "ea.wav"
    assert main(["analyze", "--model", "eaqhm", "--in", str(tone_wav),
                 "--max-adapt", "1", "--partials", "2",
                 "--params", str(params), "--resynth", str(resynth)]) == 0
    out = capsys.readouterr().out
    assert out.startswith("model=eaqhm srer_db=")
    dump = json.loads(params.read_text())
    assert dump["type"] == "eaqhm_analysis"
    assert dump["iterations"] <= 1
    assert float(out.rsplit("=", 1)[-1]) == round(dump["srer_history"][-1], 3)


def test_analyze_sm_long_window(tone_wav, tmp_path, capsys):
    # 200 ms is 3201 samples, beyond a 2048-point FFT
    assert main(["analyze", "--model", "sm", "--in", str(tone_wav), "--window", "200",
                 "--params", str(tmp_path / "p.json"),
                 "--resynth", str(tmp_path / "r.wav")]) == 0
    assert float(capsys.readouterr().out.rsplit("=", 1)[-1]) > 20.0


def test_analyze_reproduces_compare(tmp_path, capsys):
    t = np.arange(3200) / FS
    wav = tmp_path / "tone300.wav"
    audio_io.write_wav(wav, SampledSignal(samples=0.5 * np.cos(2 * np.pi * 300.0 * t),
                                          fs=FS))
    row = run_comparison([wav])[0]
    for model in MODELS:
        assert main(["analyze", "--model", model, "--in", str(wav),
                     "--params", str(tmp_path / f"{model}.json"),
                     "--resynth", str(tmp_path / f"{model}.wav")]) == 0
        out = capsys.readouterr().out.strip()
        assert out == f"model={model} srer_db={row.srer_db[model]:.3f}"


def test_analyze_unvoiced_input_is_analysis_error(tmp_path, capsys):
    noise = _noise_wav(tmp_path)
    code = main(["analyze", "--model", "eaqhm", "--in", str(noise),
                 "--params", str(tmp_path / "p.json"),
                 "--resynth", str(tmp_path / "r.wav")])
    assert code == 4
    assert "analysis error" in capsys.readouterr().err


def test_analyze_missing_input_is_io_error(tmp_path, capsys):
    code = main(["analyze", "--model", "sm", "--in", str(tmp_path / "nope.wav"),
                 "--params", str(tmp_path / "p.json"),
                 "--resynth", str(tmp_path / "r.wav")])
    assert code == 3
    assert "i/o error" in capsys.readouterr().err


# ---------------------------------------------------------------------------
# srer
# ---------------------------------------------------------------------------

def test_srer_identical_files_hits_ceiling(tone_wav, capsys):
    assert main(["srer", "--ref", str(tone_wav), "--test", str(tone_wav)]) == 0
    assert capsys.readouterr().out.strip() == "300.000000"


def test_srer_length_mismatch_is_usage_error(tone_wav, tmp_path, capsys):
    short = tmp_path / "short.wav"
    sig = audio_io.read_wav(tone_wav)
    audio_io.write_wav(short, SampledSignal(samples=sig.samples[:1000], fs=sig.fs))
    assert main(["srer", "--ref", str(tone_wav), "--test", str(short)]) == 2
    assert "differ in length" in capsys.readouterr().err


# ---------------------------------------------------------------------------
# sweep / compare
# ---------------------------------------------------------------------------

def test_sweep_command_writes_curve(tmp_path, capsys):
    out = tmp_path / "curve.csv"
    assert main(["sweep", "--signal", "chirp", "--models", "sm",
                 "--multiples", "1,2", "--out", str(out)]) == 0
    assert "(2 cells)" in capsys.readouterr().out
    lines = out.read_text().splitlines()
    assert lines[0] == "model,multiple,srer_db,status"
    assert len(lines) == 3
    assert all(ln.startswith("sm,") and ln.endswith(",ok") for ln in lines[1:])


def test_sweep_rejects_unknown_model(tmp_path, capsys):
    code = main(["sweep", "--signal", "chirp", "--models", "svm",
                 "--multiples", "1", "--out", str(tmp_path / "c.csv")])
    assert code == 2
    assert "unknown model" in capsys.readouterr().err


def test_compare_with_list(tmp_path, capsys):
    noise = _noise_wav(tmp_path)
    listing = tmp_path / "files.txt"
    listing.write_text(f"# corpus\n{noise}\n\n")
    out = tmp_path / "table.csv"
    assert main(["compare", "--list", str(listing), "--out", str(out)]) == 0
    lines = out.read_text().splitlines()
    assert lines[0] == "file,status"
    assert lines[1] == f"{noise},unanalyzable"


def test_compare_list_skips_indented_comments(tmp_path, capsys):
    noise = _noise_wav(tmp_path)
    listing = tmp_path / "files.txt"
    listing.write_text(f"  # a comment\n\t# another\n  {noise}  \n")
    out = tmp_path / "table.csv"
    assert main(["compare", "--list", str(listing), "--out", str(out)]) == 0
    assert out.read_text().splitlines()[1:] == [f"{noise},unanalyzable"]


@pytest.mark.parametrize("suffix", [".csv", ".json"])
def test_compare_list_of_comments_only_is_a_usage_error(tmp_path, capsys, suffix):
    listing = tmp_path / "files.txt"
    listing.write_text("# nothing yet\n\n")
    out = tmp_path / f"table{suffix}"
    assert main(["compare", "--list", str(listing), "--out", str(out)]) == 2
    assert "names no files" in capsys.readouterr().err
    assert not out.exists()


def test_compare_missing_list_is_io_error(tmp_path, capsys):
    code = main(["compare", "--list", str(tmp_path / "nope.txt"),
                 "--out", str(tmp_path / "t.csv")])
    assert code == 3
    assert "cannot read file list" in capsys.readouterr().err


def test_unknown_subcommand_exits_via_argparse():
    with pytest.raises(SystemExit) as exc:
        main(["frobnicate"])
    assert exc.value.code == 2
