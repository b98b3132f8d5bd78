"""README.md names every public name the package exposes."""

import re
import types
from pathlib import Path

import revfid

README = (Path(__file__).resolve().parents[1] / "README.md").read_text()


def test_every_public_name_is_in_the_readme():
    names = [n for n, x in vars(revfid).items() if not n.startswith("_") and not isinstance(x, types.ModuleType)]
    assert len(names) > 50
    assert [n for n in names if not re.search(rf"`{n}\b", README)] == []
