"""README's "Tests" table: each row names one test, and that test exists.

A row's test is either ``criterion N``, a test of the acceptance gate, or
one ``test_<module>.py::[Class::]test_<name>`` defined under ``tests/``.
Each row is its own test case, so a stale row fails under its own id.
"""

import ast
import pathlib
import re

import pytest

ROOT = pathlib.Path(__file__).resolve().parent.parent
HEADER = "| Behaviour | Test | Oracle |"


def table_rows() -> list[list[str]]:
    """The cells of each body row of the table under ``HEADER``."""
    lines = (ROOT / "README.md").read_text(encoding="utf-8").splitlines()
    start = lines.index(HEADER) + 2  # past the header and its rule
    rows = []
    for line in lines[start:]:
        if not line.startswith("|"):
            break
        rows.append([cell.strip() for cell in line.strip("|").split("|")])
    return rows


def is_test(test_id: str) -> bool:
    """Whether ``module.py::[Class::]test_name`` is defined under ``tests/``."""
    module, *names = test_id.split("::")
    path = ROOT / "tests" / module
    if not path.is_file():
        return False
    body = ast.parse(path.read_text(encoding="utf-8")).body
    for depth, name in enumerate(names, 1):
        kind = ast.FunctionDef if depth == len(names) else ast.ClassDef
        found = [node for node in body if isinstance(node, kind) and node.name == name]
        if not found:
            return False
        body = found[0].body
    return names[-1].startswith("test_")


ROWS = table_rows()


def test_table_has_rows():
    assert ROWS


@pytest.mark.parametrize(
    "row", ROWS, ids=[re.sub(r"[^a-z0-9]+", "-", row[0].lower()).strip("-") for row in ROWS]
)
def test_row_names_one_test_that_exists(row):
    gate = (ROOT / "tests" / "test_acceptance.py").read_text(encoding="utf-8")
    criteria = {int(n) for n in re.findall(r"^def test_criterion_(\d+)_", gate, re.M)}
    assert len(row) == 3, row
    behaviour, test, _ = row
    test_ids = re.findall(r"`([^`]*::[^`]*)`", test)
    numbers = [int(n) for n in re.findall(r"\bcriterion (\d+)\b", test)]
    assert len(test_ids) + len(numbers) == 1, f"{behaviour}: {test}"
    for test_id in test_ids:
        assert is_test(test_id), f"{behaviour}: no test {test_id}"
    for number in numbers:
        assert number in criteria, f"{behaviour}: no criterion {number}"
