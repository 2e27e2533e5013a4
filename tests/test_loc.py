"""tools/loc.py: the written-down rule for counting code lines of src/sftkit."""

from __future__ import annotations

import importlib.util
import textwrap
from pathlib import Path

_ROOT = Path(__file__).resolve().parent.parent
_spec = importlib.util.spec_from_file_location("loc", _ROOT / "tools" / "loc.py")
loc = importlib.util.module_from_spec(_spec)
_spec.loader.exec_module(loc)


def _count(source: str) -> tuple[int, int]:
    return loc.count(textwrap.dedent(source).lstrip("\n"))


def test_blank_lines_comments_and_docstrings_are_not_code():
    total, code = _count('''
        """Module docstring
        over two lines."""

        # a comment line
        import os  # a trailing comment does not hide the code


        class A:
            """Class docstring."""

            def f(self):
                """Method
                docstring."""
                return os.sep
        ''')
    assert (total, code) == (14, 4)


def test_strings_that_are_not_docstrings_are_code():
    # a string that is not the first statement of its body, and a multi-line
    # string value, count on every line they cover
    total, code = _count('''
        def f():
            x = 1
            """not a docstring"""
            return """one
        two
        three"""
        ''')
    assert (total, code) == (6, 6)


def test_a_statement_split_over_lines_counts_each_line():
    total, code = _count('''
        values = [
            1,

            2,  # two
        ]
        ''')
    assert (total, code) == (5, 4)


def test_a_source_without_code_has_no_code_lines():
    assert loc.count("") == (0, 0)
    assert loc.count("\n\n# only a comment\n") == (3, 0)


def test_main_sums_every_module_under_each_root(tmp_path, capsys):
    (tmp_path / "a").mkdir()
    (tmp_path / "a" / "sub").mkdir()
    (tmp_path / "b").mkdir()
    (tmp_path / "a" / "one.py").write_text('"""Doc."""\nx = 1\n')
    (tmp_path / "a" / "sub" / "two.py").write_text("# c\ny = 2\nz = 3\n")
    (tmp_path / "a" / "notes.txt").write_text("not python\n")
    (tmp_path / "b" / "three.py").write_text("\nw = 4\n")
    assert loc.main([str(tmp_path / "a"), str(tmp_path / "b")]) == 0
    assert capsys.readouterr().out == "total lines: 7\ncode lines: 4\n"


def test_main_defaults_to_the_package(capsys):
    assert loc.main([]) == 0
    default = capsys.readouterr().out
    loc.main([str(_ROOT / "src" / "sftkit")])
    assert capsys.readouterr().out == default
    total, code = (int(line.rsplit(" ", 1)[1]) for line in default.splitlines())
    assert 0 < code < total
