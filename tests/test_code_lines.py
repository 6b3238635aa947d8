"""tools/code_lines.py, the ruler every "less code" figure is read with."""

import importlib.util
import textwrap
from pathlib import Path

TOOL = Path(__file__).resolve().parent.parent / "tools" / "code_lines.py"


def _tool():
    spec = importlib.util.spec_from_file_location("code_lines", TOOL)
    mod = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(mod)
    return mod


code_lines = _tool().code_lines


def count(source: str) -> int:
    return code_lines(textwrap.dedent(source))


def test_docstrings_comments_and_blank_lines_do_not_count():
    source = '''\
        """Module docstring,
        over two lines."""

        # A comment line.


        class A:
            """Class docstring."""

            def f(self):
                """Method docstring."""
                def g():
                    """Nested function docstring,
                    over two lines."""
                    return 1  # a trailing comment
                return g
    '''
    # class A, def f, def g, return 1, return g.
    assert count(source) == 5


def test_a_statement_over_three_lines_counts_three():
    assert count("x = (1,\n     2,\n     3)\n") == 3
    assert count("y = 1 + \\\n    2 + \\\n    3\n") == 3


def test_a_string_argument_counts():
    # Only a bare string statement is a docstring; a string that is an
    # argument or an assignment is code, over every line it spans.
    assert count('print("a")\n') == 1
    assert count('f(\n    """one\n    two""")\n') == 3
    assert count('s = """a\nb"""\n') == 2


def test_main_totals_the_files_under_a_directory(tmp_path, capsys):
    (tmp_path / "a.py").write_text('"""Doc."""\nx = 1\n')
    (tmp_path / "sub").mkdir()
    (tmp_path / "sub" / "b.py").write_text("# c\ny = 2\nz = 3\n")
    (tmp_path / "notes.txt").write_text("w = 4\n")
    assert _tool().main([str(tmp_path)]) == 0
    assert capsys.readouterr().out.splitlines()[-1].split() == ["3", "total"]
