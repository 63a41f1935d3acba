"""The mutation gate's harness (tools/mutants.py), on a tiny fake package."""

import importlib.util
from pathlib import Path

_PATH = Path(__file__).resolve().parents[1] / "tools" / "mutants.py"
_SPEC = importlib.util.spec_from_file_location("mutants", _PATH)
mutants = importlib.util.module_from_spec(_SPEC)
_SPEC.loader.exec_module(mutants)

FAKE_MODULE = "def add(a, b):\n    return a + b\n\n\ndef scale():\n    return 3\n"
FAKE_TESTS = """from pathlib import Path

from fake import add, scale


def test_add():
    assert add(2, 3) == 5


def test_scale_is_positive():
    assert scale() > 0


def test_tree_is_copied_without_git():
    assert not (Path(__file__).resolve().parents[1] / ".git").exists()
"""
KILLED = mutants.Mutant("src/fake/__init__.py", "a + b", "a - b", "add subtracts")
SURVIVED = mutants.Mutant("src/fake/__init__.py", "return 3", "return 4", "scale 4")


def _fake_tree(root):
    (root / "src" / "fake").mkdir(parents=True)
    (root / "src" / "fake" / "__init__.py").write_text(FAKE_MODULE)
    (root / "tests").mkdir()
    (root / "tests" / "test_fake.py").write_text(FAKE_TESTS)
    (root / ".git").mkdir()
    return root


def test_one_killed_one_survived(tmp_path, capsys):
    root = _fake_tree(tmp_path / "fake")
    assert mutants.main(root, [KILLED, SURVIVED]) == 1
    lines = capsys.readouterr().out.splitlines()
    assert lines == [
        "src/fake/__init__.py: add subtracts "
        "(killed by tests/test_fake.py::test_add)",
        "src/fake/__init__.py: scale 4 (survived)",
        "1 of 2 mutants killed",
    ]
    # the mutants ran in copies
    assert (root / "src" / "fake" / "__init__.py").read_text() == FAKE_MODULE


def test_every_mutant_killed_exits_0(tmp_path, capsys):
    root = _fake_tree(tmp_path / "fake")
    assert mutants.main(root, [KILLED]) == 0
    assert capsys.readouterr().out.endswith("1 of 1 mutants killed\n")


def test_a_text_that_is_not_unique_is_refused_before_any_run(tmp_path, capsys):
    root = _fake_tree(tmp_path / "fake")
    twice = mutants.Mutant("src/fake/__init__.py", "return", "pass;", "ambiguous")
    assert mutants.main(root, [KILLED, twice]) == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert "'return' occurs 2 times, not once (ambiguous)" in captured.err


def test_the_catalogue_applies_to_this_tree():
    # each text still occurs once, so the gate runs on this tree
    mutants.check_catalogue(mutants.ROOT, mutants.CATALOGUE)


def test_a_failing_id_with_spaces_is_reported_whole():
    summary = (
        "=========================== short test summary info ===========================\n"
        "FAILED tests/test_cli.py::test_awkward_input_has_its_defined_outcome"
        "[WAV whose data chunk is cut short] - AssertionError: assert 0 == 2\n"
        "FAILED tests/test_audio.py::test_other - ValueError: x\n"
    )
    assert mutants._first_failure(summary) == (
        "tests/test_cli.py::test_awkward_input_has_its_defined_outcome"
        "[WAV whose data chunk is cut short]"
    )
    # without a message, and an error in collection
    assert mutants._first_failure("FAILED tests/a.py::test_b[x y]\n") == "tests/a.py::test_b[x y]"
    assert mutants._first_failure("ERROR tests/a.py - ImportError: no\n") == "tests/a.py"
    assert mutants._first_failure("1 passed in 0.01s\n") is None
