"""tools/src_lines.py on a small synthetic module."""

import textwrap

from conftest import load_tool

src_lines = load_tool("src_lines")

MODULE = textwrap.dedent('''\
    """Module docstring,
    over two lines."""

    # a comment line
    import os  # code, with a comment


    def f(x):
        """One-line docstring."""
        s = """a string
    that is code"""
        "a bare string statement"
        return (x +
                1)
    ''')


def test_counts_code_lines_without_comments_or_docstrings(tmp_path, capsys):
    path = tmp_path / "mod.py"
    path.write_text(MODULE, encoding="utf-8")
    # import, def, the two lines of s's assignment, and the return's two
    assert src_lines.code_lines(path) == {5, 8, 10, 11, 13, 14}
    assert src_lines.count([path, path]) == (28, 12)
    src_lines.main([str(path)])
    assert capsys.readouterr().out == "lines 14\ncode_lines 6\n"
