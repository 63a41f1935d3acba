"""Mutation gate: does tier-1 kill each hand-written mutant of the library?

Run from anywhere; it takes no options:

    python3 tools/mutants.py

CATALOGUE lists the mutants as (file, exact text, replacement, why). Each
text must occur exactly once in its file, or the run stops before any
mutant runs (exit 2). Each mutant gets its own copy of the tree, without
`.git` and caches, in a temporary directory; its one text is replaced there
and tier-1 runs in it with `-x`, without `tests/test_mutants.py`, at most
one mutant per usable CPU at a time. One line per mutant follows, in
catalogue order: `killed` with the first failing test, or `survived`. The
tool exits 1 if any mutant survived.

The whole catalogue takes about 10 minutes on 2 vCPUs. Equivalent mutants
are left out: `_COLA_TOL` (the only non-COLA grids miss by 0.375 or more),
`_BLOCK_FRAMES` (every block size gives the same bits) and the sweep's group
order (rows are sorted before they are written).
"""

import os
import re
import shutil
import subprocess
import sys
import tempfile
from collections import namedtuple
from concurrent.futures import ThreadPoolExecutor
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]
Mutant = namedtuple("Mutant", "path text replacement why")
# tier-1, stopped at its first failure.  The gate's own tests are left
# out: they test this harness, and in a mutant's tree its catalogue check
# finds the mutated text missing
TIER1 = ("-m", "pytest", "-q", "-x", "--continue-on-collection-errors",
         "-p", "no:cacheprovider", "--ignore=tests/test_mutants.py")
# a mutant whose tier-1 runs longer than this is counted as killed
TIMEOUT_S = 1200
_IGNORED = shutil.ignore_patterns(
    ".git", "__pycache__", ".pytest_cache", ".hypothesis", ".bench_out"
)

CATALOGUE = [
    # the first round: the weights, the energy bound, the sweep's summary
    Mutant("src/bregsep/transform.py", "weights[0] = weights[-1] = 1.0",
           "weights[0] = 1.0", "Nyquist weight 2"),
    Mutant("src/bregsep/divergence.py",
           "sums.append(_bregman(spec.beta, r, z, weights))",
           "sums.append(_bregman(spec.beta, r, z, "
           "weights if spec.direction == DIRECTION_RIGHT else 1.0))",
           "objective unweighted for left"),
    Mutant("src/bregsep/solvers.py", "implied = max(implied, ",
           "implied = implied + (", "energy bound summed over sources"),
    Mutant("src/bregsep/solvers.py", "ENERGY_BOUND_FACTOR = 2.0",
           "ENERGY_BOUND_FACTOR = 2.5", "energy bound factor 2.5"),
    Mutant("src/bregsep/solvers.py", "ENERGY_BOUND_FACTOR = 2.0",
           "ENERGY_BOUND_FACTOR = 1.6", "energy bound factor 1.6"),
    Mutant("src/bregsep/cli.py", "if beta == 2.0 else direction",
           "if beta >= 1.75 else direction", "beta-2 deduplication widened"),
    Mutant("src/bregsep/divergence.py",
           "_target_term(spec, np.maximum(data, EPS_FLOOR))",
           "_target_term(spec, np.maximum(data, 1e-10))", "target floor 1e-10"),
    Mutant("src/bregsep/cli.py", "_SEED_STRIDE = 1_000_003",
           "_SEED_STRIDE = 1_000_033", "another provider seed stride"),
    Mutant("src/bregsep/cli.py", 'status, value = "diverged", block.sdr_init',
           'status, value = "diverged", 0.0', "SDR 0 on diverged rows"),
    Mutant("src/bregsep/cli.py", "misi_mean = dict(misi_cell).get(1.0)",
           "misi_mean = max(mean for _, mean in misi_cell)",
           "misi_cell line at the cell's best step, not step 1"),
    Mutant("src/bregsep/cli.py", "step, mean = max(entries, ",
           "step, mean = max(entries[::-1], ", "best-step ties to the largest step"),
    Mutant("src/bregsep/cli.py", "if best is None or mean > best[0]:",
           "if best is None or mean >= best[0]:", "best-line ties to the last cell"),
    Mutant("src/bregsep/metrics.py", "dist < 1e-12 * ref_norm",
           "dist < 1e-9 * ref_norm", "SDR cap from 1e-9 relative distortion"),
    Mutant("src/bregsep/solvers.py", "_norm(s) <= bound for s in current)",
           "_norm(s) <= bound for s in current[:-1])",
           "energy bound skips the last source"),
    # the second round: mixing, WAV scale, the sweep's pool and checks
    Mutant("src/bregsep/mixing.py", "np.exp(provider.sigma * noise",
           "np.exp(-provider.sigma * noise", "noise sign in the provider"),
    Mutant("src/bregsep/cli.py", "return min(groups, cpus)", "return 1",
           "one sweep worker"),
    Mutant("src/bregsep/audio.py", "_PCM_SCALE = 32768.0", "_PCM_SCALE = 32767.0",
           "PCM scale 32767"),
    Mutant("src/bregsep/mixing.py", "integers(0, samples.size - length + 1)",
           "integers(0, max(samples.size - length, 1))",
           "align_noise never draws the last offset"),
    Mutant("src/bregsep/solvers.py",
           "    if start.config != config:\n"
           '        raise ValueError("start was built for another analysis grid")\n',
           "", "_check_start without the grid check"),
    Mutant("src/bregsep/divergence.py", "np.maximum(data, EPS_FLOOR))",
           "np.where(data > 0, data, EPS_FLOOR))",
           "target floor skipped for positive bins under it"),
    Mutant("src/bregsep/solvers.py", "ENERGY_BOUND_FACTOR = 2.0",
           "ENERGY_BOUND_FACTOR = 2.2", "energy bound factor 2.2"),
    Mutant("src/bregsep/cli.py", "np.isfinite(step) and step > 0",
           "np.isfinite(step) and step >= 0", "sweep accepts a zero step"),
    Mutant("src/bregsep/solvers.py",
           "scale = max(_norm(mixture.samples), np.sqrt(implied / config.b))",
           "scale = _norm(mixture.samples)",
           "energy bound without the measurements' scale"),
    Mutant("src/bregsep/metrics.py", "SDR_CAP_DB = 240.0", "SDR_CAP_DB = 200.0",
           "SDR cap 200 dB"),
    # the third round: input checks, each removed
    Mutant("src/bregsep/transform.py",
           "        if self.data.ndim != 2:\n"
           '            raise ValueError("measurements must be 2-D (bins x frames)")\n',
           "", "Measurements without the ndim check"),
    Mutant("src/bregsep/divergence.py",
           "    if z.min() <= 0:\n"
           '        raise ValueError("z must be strictly positive")\n',
           "", "bregman without the z > 0 check"),
    Mutant("src/bregsep/cli.py",
           '            if split not in ("validation", "test"):\n'
           "                raise ValueError(\n"
           '                    "manifest line %d: split must be validation or test" % line_no\n'
           "                )\n",
           "", "manifest without the split check"),
    # the fourth round: the set-up order's checks, each removed
    Mutant("src/bregsep/cli.py",
           "        if not part.is_dir():\n"
           "            raise ValueError(\n"
           '                "--out-dir %r: %r is not a directory" % (ns["out_dir"], str(part))\n'
           "            )\n",
           "", "--out-dir not checked before the run"),
    Mutant("src/bregsep/cli.py",
           "    stft_config.b  # a grid that is not COLA raises NotColaError here\n",
           "", "grid not checked before the inputs are read"),
    # the fifth round: the WAV reader's chunk walk
    Mutant("src/bregsep/audio.py", "offset += 8 + size + size % 2",
           "offset += 8 + size", "pad byte after an odd-sized chunk not skipped"),
    Mutant("src/bregsep/audio.py",
           "        if len(body) < size:\n"
           '            raise ValueError("chunk %r cut short: %d of %d bytes"'
           " % (name, len(body), size))\n",
           "", "chunk cut short not rejected"),
    Mutant("src/bregsep/audio.py", 'tag = struct.unpack_from("<H", fmt, 24)[0]',
           "pass", "extensible sub-format ignored"),
    # the sixth round: the kernel's second thread
    Mutant("src/bregsep/transform.py", "    for m in range(n_held):",
           "    for m in reversed(range(n_held)):",
           "seam segments added in reverse frame order"),
    Mutant("src/bregsep/transform.py", "        if seam is not None:",
           "        if False:", "seam segments not held back"),
]


def check_catalogue(root, catalogue):
    """Refuse a mutant whose text does not occur exactly once in its file."""
    for mutant in catalogue:
        count = (Path(root) / mutant.path).read_text().count(mutant.text)
        if count != 1:
            raise ValueError(
                "%s: %r occurs %d times, not once (%s)"
                % (mutant.path, mutant.text, count, mutant.why)
            )


def _first_failure(output):
    """The first failing test in pytest's short summary, or None: its whole
    id, spaces in a parameter's id included, up to pytest's " - " before
    the message."""
    found = re.search(r"^(?:FAILED|ERROR) (.+?)(?: - .*)?$", output, re.MULTILINE)
    return found.group(1) if found else None


def run_mutant(root, mutant):
    """Run tier-1 on a copy of root with the mutant applied.

    Returns:
        None if tier-1 passed (the mutant survived), else what killed it:
        the first failing test, a timeout, or pytest's exit code.
    """
    with tempfile.TemporaryDirectory(prefix="mutant-") as workdir:
        tree = Path(workdir) / "tree"
        shutil.copytree(root, tree, ignore=_IGNORED)
        path = tree / mutant.path
        path.write_text(path.read_text().replace(mutant.text, mutant.replacement))
        env = dict(os.environ, PYTHONPATH=str(tree / "src"), PYTHONDONTWRITEBYTECODE="1")
        try:
            run = subprocess.run(
                [sys.executable, *TIER1], cwd=tree, env=env, capture_output=True,
                text=True, timeout=TIMEOUT_S,
            )
        except subprocess.TimeoutExpired:
            return "timed out after %d s" % TIMEOUT_S
    if run.returncode == 0:
        return None
    return _first_failure(run.stdout) or "pytest exit %d" % run.returncode


def _usable_cpus():
    try:
        return len(os.sched_getaffinity(0))
    except AttributeError:
        return os.cpu_count() or 1


def main(root=ROOT, catalogue=CATALOGUE):
    try:
        check_catalogue(root, catalogue)
    except (OSError, ValueError) as err:
        print("error: %s" % err, file=sys.stderr)
        return 2
    workers = max(1, min(len(catalogue), _usable_cpus()))
    with ThreadPoolExecutor(workers) as pool:
        outcomes = list(pool.map(lambda m: run_mutant(root, m), catalogue))
    for mutant, killer in zip(catalogue, outcomes):
        verdict = "survived" if killer is None else "killed by %s" % killer
        print("%s: %s (%s)" % (mutant.path, mutant.why, verdict))
    survivors = outcomes.count(None)
    print("%d of %d mutants killed" % (len(catalogue) - survivors, len(catalogue)))
    return 1 if survivors else 0


if __name__ == "__main__":
    sys.exit(main())
