"""Pinned results: fixed-seed CLI rows against a committed reference file.

`reference.csv` holds the metrics rows of a `sweep` over the first three
mixtures of the acceptance corpus on criterion 9's grid (both d, both
directions, betas 0, 1 and 2, steps 0.001, 0.1 and 1, 3 iterations, noisy
oracle at sigma 0.3, `--seed 5`), followed by one `separate` row each for
`misi`, `gl`, `amplitude_mask` and `pgd` on the first mixture.
`reference_summary.txt` holds that sweep's stdout summary, followed by the
summary of a second sweep on betas 0 and 2 and steps 0.001 and 1, which
shows every tie rule (see TIE_GRID).  The test runs the same commands
again.  Every field but the floats must match exactly, `status` included;
floats must agree within their printed precision, 1e-6.  Byte identity is
not asked for: another numpy may round the last printed digit the other
way.  A second test runs the same commands with the transform kernel
streaming 7 frames at a time (19 blocks per 2 s clip instead of one)
against the same files.

After a change that is meant to move results, regenerate the files with

    PYTHONPATH=src python tests/test_reference.py

which prints every changed field (line, field, old, new) to stderr before
it rewrites the files, and list those with the change.
"""

import contextlib
import io
import sys
import tempfile
from decimal import Decimal
from pathlib import Path

import numpy as np

from bregsep import cli, transform
from bregsep.audio import write_wav
from bregsep.transform import Signal
from test_acceptance import RATE, _harmonic_speech

REFERENCE = Path(__file__).with_name("reference.csv")
SUMMARY = Path(__file__).with_name("reference_summary.txt")
# the CSV columns and summary keys printed with six decimals; every other
# field compares exactly
FLOAT_FIELDS = (
    "beta", "step_size", "snr_db", "sigma", "sdr_init", "sdr", "sdri",
    "best_step", "mean_sdri",
)
TOLERANCE = Decimal("0.000001")
MIXTURES = 3
_COMMON_OPTIONS = (
    "--provider", "noisy_oracle", "--sigma", "0.3", "--iterations", "3",
)
REFERENCE_GRID = ("--betas", "0,1,2", "--step-sizes", "0.001,0.1,1")
# every beta-0 row diverges, so each beta-0 cell ties at 0 dB on every step
# and reads the smallest; the best cell is a beta-2 one, whose rows are
# the same under both directions, and the tie goes to the first, "left"
TIE_GRID = ("--betas", "0,2", "--step-sizes", "0.001,1")
SEPARATE_ALGOS = (
    ("misi", ()),
    ("gl", ()),
    ("amplitude_mask", ()),
    ("pgd", ("--beta", "1.5", "--direction", "left", "--step-size", "0.1")),
)


def _write_corpus(root):
    """The acceptance corpus's first MIXTURES mixtures and their manifest."""
    lines = ["mixture_id,speech,noise,snr_db,seed,split"]
    for k in range(MIXTURES):
        write_wav(root / ("speech_%02d.wav" % k), _harmonic_speech(k, 2 * RATE))
        samples = np.random.default_rng(900 + k).standard_normal(int(2.5 * RATE))
        samples *= 0.3 / np.max(np.abs(samples))
        write_wav(root / ("noise_%d.wav" % k), Signal(samples, RATE))
        lines.append("mix_%02d,speech_%02d.wav,noise_%d.wav,0.0,%d,validation"
                     % (k, k, k, k + 1))
    manifest = root / "manifest.csv"
    manifest.write_text("\n".join(lines) + "\n")
    return manifest


def _run(argv):
    """Run one command; return its stdout lines."""
    stdout = io.StringIO()
    with contextlib.redirect_stdout(stdout):
        code = cli.main(argv)
    if code != 0:
        raise RuntimeError("bregsep %s exited %d" % (argv[0], code))
    return stdout.getvalue().splitlines()


def reference_outputs(root):
    """The CSV lines, header first, that reference.csv pins and the summary
    lines that reference_summary.txt pins; root is an empty directory for
    the corpus and the commands' outputs."""
    manifest = _write_corpus(root)
    out = root / "sweep.csv"

    def sweep(grid):
        return _run([
            "sweep", "--manifest", str(manifest), "--csv", str(out), "--seed", "5",
            *grid, *_COMMON_OPTIONS,
        ])

    summary = sweep(REFERENCE_GRID)
    lines = out.read_text().splitlines()
    summary += sweep(TIE_GRID)
    for algo, options in SEPARATE_ALGOS:
        out = root / ("%s.csv" % algo)
        _run([
            "separate", "--speech", str(root / "speech_00.wav"),
            "--noise", str(root / "noise_0.wav"), "--snr", "0", "--seed", "1",
            "--mixture-id", "mix_00", "--algo", algo, "--csv", str(out),
            *_COMMON_OPTIONS, *options,
        ])
        lines += out.read_text().splitlines()[1:]
    return lines, summary


def _same(name, got, want):
    if name in FLOAT_FIELDS:
        return abs(Decimal(got) - Decimal(want)) <= TOLERANCE
    return got == want


def _mismatches(got, want):
    """(line, field, want, got) for every CSV field that differs beyond the
    tolerance; lines count from 1, the header included."""
    found = []
    for number, (got_line, want_line) in enumerate(zip(got, want), start=2):
        got_row = cli.Row(*got_line.split(","))
        want_row = cli.Row(*want_line.split(","))
        for name, got_value, want_value in zip(cli.Row._fields, got_row, want_row):
            if not _same(name, got_value, want_value):
                found.append((number, name, want_value, got_value))
    return found


def _summary_mismatches(got, want):
    """(line, field, want, got) for every summary field that differs beyond
    the tolerance; a field is a word or key=value, lines count from 1."""
    found = []
    for number, (got_line, want_line) in enumerate(zip(got, want), start=1):
        got_fields, want_fields = got_line.split(), want_line.split()
        if len(got_fields) != len(want_fields):
            found.append((number, "line", want_line, got_line))
            continue
        for got_field, want_field in zip(got_fields, want_fields):
            name, _, want_value = want_field.partition("=")
            got_name, _, got_value = got_field.partition("=")
            if got_name != name or not _same(name, got_value, want_value):
                found.append((number, name, want_field, got_field))
    return found


def _check_against_reference(root):
    want = REFERENCE.read_text().splitlines()
    want_summary = SUMMARY.read_text().splitlines()
    got, summary = reference_outputs(root)
    assert got[0] == want[0] == cli.CSV_HEADER
    assert len(got) == len(want)
    mismatches = _mismatches(got[1:], want[1:])
    assert not mismatches, "%d fields differ from %s, first: %s" % (
        len(mismatches), REFERENCE.name, mismatches[:5])
    assert len(summary) == len(want_summary)
    mismatches = _summary_mismatches(summary, want_summary)
    assert not mismatches, "%d fields differ from %s, first: %s" % (
        len(mismatches), SUMMARY.name, mismatches[:5])


def test_rows_match_the_pinned_reference(tmp_path):
    _check_against_reference(tmp_path)


def test_rows_match_the_pinned_reference_in_blocks_of_seven_frames(
    tmp_path, monkeypatch
):
    # the sweep's workers are forked, so they stream in 7-frame blocks too
    monkeypatch.setattr(transform, "_BLOCK_FRAMES", 7)
    _check_against_reference(tmp_path)


if __name__ == "__main__":
    with tempfile.TemporaryDirectory() as work:
        lines, summary = reference_outputs(Path(work))
    old = REFERENCE.read_text().splitlines()
    if len(old) != len(lines):
        print("%d rows, were %d" % (len(lines) - 1, len(old) - 1), file=sys.stderr)
    for change in _mismatches(lines[1:], old[1:]):
        print("line %d %s: %s -> %s" % change, file=sys.stderr)
    REFERENCE.write_text("\n".join(lines) + "\n")
    print("wrote %s: %d rows" % (REFERENCE, len(lines) - 1), file=sys.stderr)
    old = SUMMARY.read_text().splitlines()
    if len(old) != len(summary):
        print("%d summary lines, were %d" % (len(summary), len(old)), file=sys.stderr)
    for change in _summary_mismatches(summary, old):
        print("%s line %d %s: %s -> %s" % ((SUMMARY.name,) + change), file=sys.stderr)
    SUMMARY.write_text("\n".join(summary) + "\n")
    print("wrote %s: %d lines" % (SUMMARY, len(summary)), file=sys.stderr)
