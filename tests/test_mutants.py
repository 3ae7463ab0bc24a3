"""The mutation list follows the code it names: each mutant's source line
occurs exactly once in its file, as tests/mutants.py needs, and each kill
test's file exists. The mutation check itself is too slow for tier-1."""
import shutil

import pytest

from mutants import KILL_TESTS, MUTANTS, ROOT, mutate


@pytest.mark.parametrize("name,file,line,replacement", MUTANTS, ids=[m[0] for m in MUTANTS])
def test_mutant_line_occurs_once(tmp_path, name, file, line, replacement):
    source = ROOT / "src" / "fedgela" / file
    (tmp_path / "fedgela").mkdir()
    shutil.copy(source, tmp_path / "fedgela" / file)
    mutate(tmp_path, file, line, replacement)   # LookupError unless found once
    assert (tmp_path / "fedgela" / file).read_bytes() != source.read_bytes()


def test_every_kill_test_file_exists():
    missing = [t for t in KILL_TESTS if not (ROOT / t.split("::")[0]).is_file()]
    assert not missing
