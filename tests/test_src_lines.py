"""tools/src_lines.py on small synthetic modules, and the import rule of src/vcdc."""

import ast
import textwrap
from pathlib import Path

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

# optional parameters: g's b and c, inner's x, the lambda's v and the
# method's z, 5 in all; g's required keyword-only d, the dataclass field's
# default and sorted's keyword argument are not
DEFAULTS = textwrap.dedent('''\
    from dataclasses import dataclass


    def g(a, b=1, *args, c=None, d, **kw):
        def inner(x=(1, 2)):
            return x
        return sorted(args, key=lambda v=0: v)


    @dataclass
    class C:
        field: int = 3

        async def method(self, y, *, z=2.0):
            return y + z
    ''')

# config fields: A's b, C's d and e, D's g and E's i, 5 in all; A's a,
# C's f, B's field (B is no dataclass) and the method's local are not
CONFIG = textwrap.dedent('''\
    import dataclasses
    from dataclasses import dataclass, field


    @dataclass
    class A:
        a: int
        b: int = 1


    class B:
        x: int = 2


    @dataclass(frozen=True)
    class C:
        d: list = field(default_factory=list)
        e: float = field(default=0.5, repr=False)
        f: float = field(init=False)

        def method(self):
            y: int = 3
            return y


    @dataclasses.dataclass
    class D:
        g: str = "g"


    @dataclasses.dataclass(eq=False)
    class E:
        i: bool = False
    ''')



def test_counts_code_lines_without_comments_or_docstrings(tmp_path, capsys):
    path = tmp_path / "mod.py"
    path.write_text(MODULE, encoding="utf-8")
    # import, def, the two lines of s's assignment, and the return's two
    assert src_lines.code_lines(path) == {5, 8, 10, 11, 13, 14}
    assert src_lines.count([path, path]) == (28, 12)
    src_lines.main([str(path)])
    assert capsys.readouterr().out == (
        "lines 14\ncode_lines 6\noptional_params 0\nconfig_fields 0\n")


def test_counts_parameters_with_a_default(tmp_path, capsys):
    path = tmp_path / "defaults.py"
    path.write_text(DEFAULTS, encoding="utf-8")
    assert src_lines.optional_params(path) == 5
    src_lines.main([str(path), str(path)])
    assert capsys.readouterr().out.splitlines()[2] == "optional_params 10"


def test_counts_dataclass_fields_with_a_default(tmp_path, capsys):
    path = tmp_path / "config.py"
    path.write_text(CONFIG, encoding="utf-8")
    assert src_lines.config_fields(path) == 5
    src_lines.main([str(path), str(path)])
    assert capsys.readouterr().out.splitlines()[3] == "config_fields 10"
    # the field of DEFAULTS's dataclass
    path.write_text(DEFAULTS, encoding="utf-8")
    assert src_lines.config_fields(path) == 1


def test_default_counts_every_file_of_the_package(capsys):
    # the subpackage vcdc.codes included
    package = Path(src_lines.SRC).resolve()
    files = sorted(package.rglob("*.py"))
    assert package / "codes" / "__init__.py" in files
    src_lines.main([])
    total, code = src_lines.count(files)
    optional = sum(map(src_lines.optional_params, files))
    config = sum(map(src_lines.config_fields, files))
    assert capsys.readouterr().out == (f"lines {total}\ncode_lines {code}\n"
                                       f"optional_params {optional}\n"
                                       f"config_fields {config}\n")


def test_no_module_imports_a_private_name_of_a_sibling():
    # a name with a leading underscore belongs to its module: a second
    # module that needs it means the code around it has two owners
    package = Path(src_lines.SRC).resolve()
    found = []
    for path in sorted(package.rglob("*.py")):
        for node in ast.walk(ast.parse(path.read_text(encoding="utf-8"))):
            if isinstance(node, ast.ImportFrom) and (
                    node.level or (node.module or "").split(".")[0] == package.name):
                found += [f"{path.relative_to(package)}: {alias.name}"
                          for alias in node.names if alias.name.startswith("_")]
    assert found == []
