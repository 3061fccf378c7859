import importlib.util
import os

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
spec = importlib.util.spec_from_file_location(
    "sloc", os.path.join(ROOT, "tools", "sloc.py"))
sloc = importlib.util.module_from_spec(spec)
spec.loader.exec_module(sloc)

SNIPPET = '''"""Module docstring,
two lines."""

import os  # a trailing comment keeps its line

# a comment line


class A:
    """Class docstring."""

    def f(self, x):
        """Function
        docstring."""
        s = """a string that is
        not a docstring"""
        return (x +
                1)
'''


def test_counts_code_lines_only():
    # import, class, def, the two-line string, the two-line return
    assert sloc.count_code_lines(SNIPPET) == 7


def test_total_over_a_package(tmp_path, capsys):
    (tmp_path / "a.py").write_text(SNIPPET)
    (tmp_path / "b.py").write_text("x = 1\n\n")
    (tmp_path / "notes.txt").write_text("x = 1\n")
    assert sloc.main([str(tmp_path)]) == 0
    assert capsys.readouterr().out.splitlines() == [
        "     7  a.py", "     1  b.py", "     8  total"]
