"""The reference module stays independent and right on hand-computed cases.

``tests/oracle.py`` is what every two-path and star result is checked
against, so it must share no code with the program (an AST scan for any
``repro`` import) and must be right on inputs small enough to work out by
hand — otherwise a property test could pass on a wrong reference by luck.
"""

from __future__ import annotations

import ast
from pathlib import Path

import numpy as np
from oracle import star_counts, star_pairs, two_path_counts, two_path_pairs

ORACLE_PATH = Path(__file__).with_name("oracle.py")


def test_oracle_imports_nothing_from_repro():
    tree = ast.parse(ORACLE_PATH.read_text(encoding="utf-8"))
    imported = []
    for node in ast.walk(tree):
        if isinstance(node, ast.Import):
            imported.extend(alias.name for alias in node.names)
        elif isinstance(node, ast.ImportFrom):
            imported.append(node.module or "")
    assert imported, "the scan found no import at all"
    assert not [name for name in imported if name.split(".")[0] == "repro"]


def test_two_path_pairs_by_hand():
    left = [(1, 10), (2, 10), (2, 20), (3, 40)]
    right = [(5, 10), (6, 20), (7, 30)]
    # y=10: {1, 2} x {5}; y=20: {2} x {6}; 30 and 40 have no partner.
    assert two_path_pairs(left, right) == {(1, 5), (2, 5), (2, 6)}


def test_two_path_counts_by_hand():
    # (1, 10) twice: set semantics, it is one witness.
    left = [(1, 10), (1, 10), (1, 20), (-2, 20)]
    right = [(5, 10), (5, 20), (2**40, 20)]
    assert two_path_counts(left, right) == {
        (1, 5): 2, (1, 2**40): 1, (-2, 5): 1, (-2, 2**40): 1,
    }


def test_three_star_by_hand():
    r1 = [(1, 7), (2, 7), (3, 8), (3, 9)]
    r2 = [(4, 7), (5, 8)]
    r3 = [(6, 7), (6, 8), (9, 9)]
    # y=7: {1, 2} x {4} x {6}; y=8: {3} x {5} x {6}; y=9 is missing from r2.
    assert star_pairs([r1, r2, r3]) == {(1, 4, 6), (2, 4, 6), (3, 5, 6)}
    same = [(1, 7), (1, 8)]
    assert star_counts([same, same, same]) == {(1, 1, 1): 2}


def test_empty_inputs():
    rows = [(1, 2)]
    assert two_path_pairs([], rows) == set()
    assert two_path_counts(rows, np.empty((0, 2), dtype=np.int64)) == {}
    assert star_pairs([rows, []]) == set()
    assert star_counts([]) == {}
