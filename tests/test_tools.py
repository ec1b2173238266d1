"""tools/code_lines.py: the code-line count every simplicity record quotes."""

import importlib.util
import textwrap
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]
_SPEC = importlib.util.spec_from_file_location("code_lines", ROOT / "tools" / "code_lines.py")
code_lines = importlib.util.module_from_spec(_SPEC)
_SPEC.loader.exec_module(code_lines)

FIXTURE = textwrap.dedent(
    '''\
    """Module docstring
    over two lines."""

    # A comment-only line.
    import os


    class Point:
        """Class docstring."""

        def norm(self):
            """Function docstring
            over two lines.
            """
            "a string statement that is no docstring"
            total = 0  # a trailing comment
            return total


    async def wait():
        """Async function docstring."""
        return os.sep
    '''
)


def test_docstrings_comments_and_blank_lines_are_not_counted():
    # import, class, def, the string statement, total = 0, return,
    # async def, return.
    assert code_lines.code_lines(FIXTURE) == 8


def test_a_string_statement_and_a_commented_code_line_are_counted():
    assert code_lines.code_lines('x = 1\n"not a docstring"\n') == 2
    assert code_lines.code_lines("x = 1  # why\n    # indented comment\n") == 1


def test_main_counts_every_module_of_the_package(capsys):
    code_lines.main([])
    lines = capsys.readouterr().out.splitlines()
    rows = [line.split() for line in lines]
    modules = sorted(path.name for path in code_lines.PACKAGE.glob("*.py"))
    assert [name for name, _ in rows[:-1]] == modules
    assert rows[-1][0] == "total"
    assert int(rows[-1][1]) == sum(int(count) for _, count in rows[:-1])
