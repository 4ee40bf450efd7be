"""The standing mutants of mutants.py stay applicable: each old text occurs
exactly once in its module, and each names a test that exists."""

import re

from mutants import MUTANTS, ROOT


def test_each_mutant_text_occurs_exactly_once_in_its_module():
    for module, old, new, test in MUTANTS:
        text = (ROOT / "src" / "ybelab" / f"{module}.py").read_text()
        assert old != new and text.count(old) == 1, (module, old)


def test_each_mutant_names_a_test_that_exists():
    for module, old, new, test in MUTANTS:
        path, name = test.split("::")
        name = name.split("[")[0]                # a parametrized id names its function
        assert re.search(rf"^def {name}\(", (ROOT / path).read_text(), re.M), test
