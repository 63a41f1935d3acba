"""Rules on where things live in the library, checked on its source files.

- The floor that keeps the divergence defined at spectral zeros is one rule:
  only divergence.py reads EPS_FLOOR, so the objective, its gradient and PGD
  read it from one module.
- One transform kernel: every FFT the library runs is transform.py's, so the
  solvers, the objective and the providers stream through the same one.  No
  other module uses the whole-array analysis either: stft, istft and
  ComplexSpectrogram are kept for the public API, which __init__.py
  re-exports.
- One spectrogram layout: only transform.py names the frame-major order
  (order="F", asfortranarray) that spectra and Measurements are held in;
  the providers fill their arrays through its _float_spectrogram.
- No BLAS call anywhere: every norm is metrics._norm, and no module uses
  linalg, the @ operator or a dot-like call.  OpenBLAS threads spin in the
  sweep's forked workers (a default-grid sweep ran about threefold slower),
  and a BLAS sum's last bits move with the thread count, which moved the
  bytes of a mixture.
- The public API is what the library, the benchmark and the oracles use:
  every name in bregsep.__all__ is called in the package outside its own
  definition, used by bench/, or on a short list of oracles and types.  The
  names bench/layers.py probes stay public, and the names it patches in
  bregsep.cli stay names that cli.py calls.
- numpy is the only runtime dependency: with scipy blocked, the CLI reads,
  mixes, separates, writes and scores WAVs, and no scipy module is loaded.
"""

import ast
import json
import os
import re
import subprocess
import sys
from pathlib import Path

import bregsep
from bregsep import cli

PACKAGE = Path(__file__).resolve().parents[1] / "src" / "bregsep"
BENCH = Path(__file__).resolve().parents[1] / "bench"
WHOLE_ARRAY = {"stft", "istft", "ComplexSpectrogram"}
# public though nothing in the package calls them: the whole-array transform
# and the divergence and its objective are the acceptance tests' oracles;
# the records and the error are the types the library hands out or raises
ORACLES_AND_TYPES = {
    "stft", "istft", "ComplexSpectrogram", "bregman", "objective",
    "Measurements", "SeparationResult", "PgdStart", "NotColaError",
}


def _modules_matching(pattern):
    """Names of the package's modules whose text matches the regex."""
    return {
        path.name for path in PACKAGE.glob("*.py") if re.search(pattern, path.read_text())
    }


def test_eps_floor_only_in_divergence():
    assert _modules_matching(r"EPS_FLOOR") <= {"divergence.py"}


def test_fft_only_in_transform():
    assert _modules_matching(r"(np|numpy|scipy)[.]fft|import fft") <= {"transform.py"}


def test_spectrogram_layout_only_in_transform():
    layout = r"order\s*=\s*[\"']F[\"']|asfortranarray"
    assert _modules_matching(layout) == {"transform.py"}


def _whole_array_uses(path):
    """(line, name) of each WHOLE_ARRAY name the module's code uses: as a
    name, an attribute, an import or a definition; docstrings and other
    strings do not count.  __init__.py's import from .transform is exempt."""
    tree = ast.parse(path.read_text())
    exempt = set()
    if path.name == "__init__.py":
        exempt = {
            id(alias)
            for node in ast.walk(tree)
            if isinstance(node, ast.ImportFrom) and node.level == 1
            and node.module == "transform"
            for alias in node.names
        }
    uses = []
    for node in ast.walk(tree):
        if isinstance(node, ast.Name):
            names = {node.id}
        elif isinstance(node, ast.Attribute):
            names = {node.attr}
        elif isinstance(node, ast.alias) and id(node) not in exempt:
            names = {node.name, node.asname}
        elif isinstance(node, (ast.FunctionDef, ast.ClassDef)):
            names = {node.name}
        else:
            continue
        uses += [(getattr(node, "lineno", 0), name) for name in names & WHOLE_ARRAY]
    return uses


def test_whole_array_analysis_only_in_transform():
    uses = {
        path.name: _whole_array_uses(path)
        for path in PACKAGE.glob("*.py")
        if path.name != "transform.py"
    }
    assert not {name: found for name, found in uses.items() if found}
    # the check sees the names where they are defined
    assert len(_whole_array_uses(PACKAGE / "transform.py")) >= len(WHOLE_ARRAY)


BLAS_CALLS = {"dot", "vdot", "inner", "matmul", "tensordot"}


def _blas_uses(text):
    """(line, what) of each BLAS use in the code: a linalg name, attribute
    or import, the @ operator, or a call named in BLAS_CALLS; strings and
    decorators do not count."""
    uses = []
    for node in ast.walk(ast.parse(text)):
        if isinstance(node, ast.Name) and node.id == "linalg":
            found = "linalg"
        elif isinstance(node, ast.Attribute) and node.attr == "linalg":
            found = "linalg"
        elif isinstance(node, (ast.Import, ast.ImportFrom)) and any(
            "linalg" in name
            for name in [getattr(node, "module", "")] + [a.name for a in node.names]
            if name
        ):
            found = "linalg"
        elif isinstance(node, (ast.BinOp, ast.AugAssign)) and isinstance(
            node.op, ast.MatMult
        ):
            found = "@"
        elif isinstance(node, ast.Call) and (
            getattr(node.func, "id", None) in BLAS_CALLS
            or getattr(node.func, "attr", None) in BLAS_CALLS
        ):
            found = getattr(node.func, "id", None) or node.func.attr
        else:
            continue
        uses.append((node.lineno, found))
    return uses


def test_no_blas_in_the_package():
    uses = {path.name: _blas_uses(path.read_text()) for path in PACKAGE.glob("*.py")}
    assert not {name: found for name, found in uses.items() if found}
    # the check sees each kind of use, and not a decorator or a string
    seen = _blas_uses(
        "import numpy.linalg\n"
        "from scipy.linalg import norm\n"
        "@cache\n"
        "def f(a, b):\n"
        "    'a @ b, np.dot'\n"
        "    a @= b\n"
        "    return np.linalg.norm(a @ b) + dot(a, b) + np.vdot(a, b) + a.dot(b)"
        " + np.inner(a, b) + np.matmul(a, b) + np.tensordot(a, b)\n"
    )
    expected = ["linalg"] * 3 + ["@"] * 2 + ["dot"] * 2
    expected += ["vdot", "inner", "matmul", "tensordot"]
    assert sorted(found for _, found in seen) == sorted(expected)


def _called_names(path):
    """Names the module calls, as f(...) or x.f(...), outside the body of
    the function or class that defines the name."""
    tree = ast.parse(path.read_text())
    spans = {
        node.name: (node.lineno, node.end_lineno)
        for node in ast.walk(tree)
        if isinstance(node, (ast.FunctionDef, ast.ClassDef))
    }
    called = set()
    for node in ast.walk(tree):
        if isinstance(node, ast.Call):
            func = node.func
            name = func.id if isinstance(func, ast.Name) else getattr(func, "attr", None)
            first, last = spans.get(name, (0, -1))
            if not first <= node.lineno <= last:
                called.add(name)
    return called


def _bregsep_names(path):
    """Names the bench module takes from bregsep: imported from it, or read
    as attributes of the package under any name bound to it."""
    tree = ast.parse(path.read_text())
    package = {"bregsep"}
    for node in ast.walk(tree):
        if isinstance(node, ast.Import):
            package |= {a.asname or a.name for a in node.names if a.name == "bregsep"}
        elif (
            isinstance(node, ast.Assign) and isinstance(node.value, ast.Name)
            and node.value.id in package
        ):
            package |= {t.id for t in node.targets if isinstance(t, ast.Name)}
    names = set()
    for node in ast.walk(tree):
        if isinstance(node, ast.ImportFrom) and (node.module or "").startswith("bregsep"):
            names |= {a.name for a in node.names}
        elif (
            isinstance(node, ast.Attribute) and isinstance(node.value, ast.Name)
            and node.value.id in package
        ):
            names.add(node.attr)
    return names


def test_every_public_name_is_used():
    called = set().union(*(_called_names(path) for path in PACKAGE.glob("*.py")))
    benched = set().union(*(_bregsep_names(path) for path in BENCH.glob("*.py")))
    unused = set(bregsep.__all__) - called - benched - ORACLES_AND_TYPES
    assert not unused
    # the check sees the layers' probes and the library's calls
    assert {"grad_term", "normalization_constant"} <= benched - called
    assert {"projected_gradient", "sdr"} <= called


def test_probed_names_are_public():
    probed = _bregsep_names(BENCH / "layers.py") - {"cli"}
    assert len(probed) >= 15
    assert probed <= set(bregsep.__all__)


def _spanned():
    """The SPANNED dict of bench/layers.py, read from its source."""
    for node in ast.parse((BENCH / "layers.py").read_text()).body:
        targets = [getattr(t, "id", None) for t in getattr(node, "targets", [])]
        if targets == ["SPANNED"]:
            return ast.literal_eval(node.value)
    raise AssertionError("bench/layers.py defines no SPANNED")


def test_spanned_names_are_called_by_the_cli():
    # the traced runs patch these names in bregsep.cli, so cli.py must hold
    # them and call them by those names
    spanned = set(_spanned())
    assert "projected_gradient" in spanned
    assert all(hasattr(cli, name) for name in spanned)
    tree = ast.parse((PACKAGE / "cli.py").read_text())
    by_name = {
        node.func.id for node in ast.walk(tree)
        if isinstance(node, ast.Call) and isinstance(node.func, ast.Name)
    }
    assert spanned <= by_name


# blocks scipy, then runs mix, separate --out-dir, eval and a one-row sweep
# on WAVs that write_wav wrote; its last line is the exit codes and the scipy
# modules loaded
_WITHOUT_SCIPY = """
import json, sys
sys.modules["scipy"] = None  # any import of scipy now raises ImportError
from pathlib import Path
import numpy as np
from bregsep import cli
from bregsep.audio import write_wav
from bregsep.transform import Signal

work = Path(sys.argv[1])
speech, noise, mixture = (str(work / n) for n in ("speech.wav", "noise.wav", "mix.wav"))
t = np.arange(4000) / 16000
write_wav(speech, Signal(0.4 * np.sin(2 * np.pi * 440 * t), 16000))
write_wav(noise, Signal(np.random.default_rng(7).uniform(-0.2, 0.2, 6000), 16000))
pair = ["--speech", speech, "--noise", noise]
(work / "manifest.csv").write_text(
    "mixture_id,speech,noise,snr_db,seed,split\\nm,speech.wav,noise.wav,0,1,validation\\n"
)
codes = [
    cli.main(["mix", *pair, "--out", mixture]),
    cli.main(["separate", *pair, "--win", "256", "--hop", "64", "--out-dir", str(work / "out")]),
    cli.main(["eval", "--ref", speech, "--est", str(work / "out" / "source_0.wav")]),
    cli.main(["sweep", "--manifest", str(work / "manifest.csv"), "--csv", str(work / "sweep.csv"),
              "--win", "256", "--hop", "64", "--betas", "1.5", "--step-sizes", "0.1"]),
]
loaded = [name for name, module in sys.modules.items()
          if name.partition(".")[0] == "scipy" and module is not None]
print(json.dumps([codes, loaded]))
"""


def test_the_cli_runs_without_scipy(tmp_path):
    path = os.pathsep.join(filter(None, [str(PACKAGE.parent), os.environ.get("PYTHONPATH")]))
    run = subprocess.run(
        [sys.executable, "-c", _WITHOUT_SCIPY, str(tmp_path)],
        env=dict(os.environ, PYTHONPATH=path), capture_output=True, text=True, timeout=120,
    )
    assert run.returncode == 0, run.stderr
    assert json.loads(run.stdout.splitlines()[-1]) == [[0, 0, 0, 0], []]
    assert (tmp_path / "mix.wav").is_file() and (tmp_path / "out" / "source_1.wav").is_file()
    # 1.5 at both directions and both d, one step size
    assert len((tmp_path / "sweep.csv").read_text().splitlines()) == 1 + 4
