#!/usr/bin/env python3
"""Count the package sources: all lines, code lines and optional parameters.

A code line holds at least one token, as ``tokenize`` reads the file, that
is neither a comment nor part of a docstring.  A docstring here is any
statement made of string literals alone.  Blank lines, comment lines and
docstring lines are not code; a line of code that ends in a comment is.
An optional parameter is one with a default value, positional or keyword
only, of any function, method or lambda.

    python3 tools/src_lines.py [FILE ...]

prints ``lines N``, ``code_lines M`` and ``optional_params P`` summed over
the files given, by default every .py file of the package, src/vcdc/**/*.py.
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


def optional_params(path):
    """The number of parameters with a default value in the Python file
    ``path``, over every function, method and lambda."""
    with open(path, "rb") as fh:
        tree = ast.parse(fh.read(), filename=str(path))
    return sum(len(node.defaults) + sum(d is not None for d in node.kw_defaults)
               for node in ast.walk(tree) if isinstance(node, ast.arguments))


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


if __name__ == "__main__":
    main()
