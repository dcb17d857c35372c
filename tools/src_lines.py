#!/usr/bin/env python3
"""Count the package sources: lines, code lines, optional parameters and
config fields.

A code line holds at least one token, as ``tokenize`` reads the file, that
is neither a comment nor part of a docstring.  A docstring here is any
statement made of string literals alone.  Blank lines, comment lines and
docstring lines are not code; a line of code that ends in a comment is.
An optional parameter is one with a default value, positional or keyword
only, of any function, method or lambda.  A config field is a field with a
default value of a class decorated with ``dataclass``; a ``field(...)``
without ``default`` or ``default_factory`` gives none.

    python3 tools/src_lines.py [FILE ...]

prints ``lines N``, ``code_lines M``, ``optional_params P`` and
``config_fields F`` summed over the files given, by default every .py file
of the package, src/vcdc/**/*.py.
"""

import ast
import glob
import os
import sys
import tokenize

SRC = os.path.join(os.path.dirname(os.path.abspath(__file__)), "..", "src", "vcdc")

# tokens that carry no code of their own
LAYOUT = {tokenize.COMMENT, tokenize.NL, tokenize.NEWLINE, tokenize.INDENT, tokenize.DEDENT,
          tokenize.ENCODING, tokenize.ENDMARKER}


def code_lines(path):
    """The set of the numbers of the code lines of the Python file ``path``."""
    lines, statement = set(), []
    with open(path, "rb") as fh:
        for tok in tokenize.tokenize(fh.readline):
            if tok.type == tokenize.NEWLINE:
                # a statement of string literals alone is a docstring
                if any(t.type != tokenize.STRING for t in statement):
                    for t in statement:
                        lines.update(range(t.start[0], t.end[0] + 1))
                statement = []
            elif tok.type not in LAYOUT:
                statement.append(tok)
    return lines


def _parse(path):
    with open(path, "rb") as fh:
        return ast.parse(fh.read(), filename=str(path))


def _name(node):
    """The name a decorator or callee ``node`` ends in: ``f`` of ``f``,
    ``m.f`` and ``f(...)``."""
    if isinstance(node, ast.Call):
        node = node.func
    return node.attr if isinstance(node, ast.Attribute) else getattr(node, "id", None)


def optional_params(path):
    """The number of parameters with a default value in the Python file
    ``path``, over every function, method and lambda."""
    return sum(len(node.defaults) + sum(d is not None for d in node.kw_defaults)
               for node in ast.walk(_parse(path)) if isinstance(node, ast.arguments))


def config_fields(path):
    """The number of fields with a default value in the Python file
    ``path``, over every dataclass."""
    count = 0
    for node in ast.walk(_parse(path)):
        if isinstance(node, ast.ClassDef) and "dataclass" in map(_name, node.decorator_list):
            for stmt in node.body:
                value = stmt.value if isinstance(stmt, ast.AnnAssign) else None
                if isinstance(value, ast.Call) and _name(value) == "field":
                    count += any(k.arg in ("default", "default_factory") for k in value.keywords)
                else:
                    count += value is not None
    return count


def count(paths):
    """(all lines, code lines) summed over the files ``paths``."""
    total = code = 0
    for path in paths:
        with open(path, encoding="utf-8") as fh:
            total += len(fh.read().splitlines())
        code += len(code_lines(path))
    return total, code


def main(argv=None):
    paths = (sys.argv[1:] if argv is None else argv) or sorted(
        glob.glob(os.path.join(SRC, "**", "*.py"), recursive=True))
    total, code = count(paths)
    print(f"lines {total}")
    print(f"code_lines {code}")
    print(f"optional_params {sum(optional_params(path) for path in paths)}")
    print(f"config_fields {sum(config_fields(path) for path in paths)}")


if __name__ == "__main__":
    main()
