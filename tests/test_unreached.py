"""The statement finder of ``tests/unreached.py``: which lines reach each
statement, which statements are docstrings, and which are allowed unreached."""
import ast
import pathlib

from unreached import allowed, header_lines, statements

SOURCE = '''\
"""Module docstring."""
class Group:
    """Class docstring."""

    def mul(self, a, b):
        raise NotImplementedError

    @staticmethod
    def pick(
        a,
    ):
        if (
            a
        ):
            return a


if __name__ == "__main__":
    run()
'''


def test_headers_skip_docstrings_and_allow_only_stubs_and_main():
    found = {
        node.lineno: (list(header_lines(node)), allowed(pathlib.Path("groups.py"), node, chain))
        for node, chain in statements(ast.parse(SOURCE))
    }
    assert found == {
        2: ([2], False),
        5: ([5], False),
        6: ([6], True),
        9: ([8, 9, 10, 11], False),  # from the decorator to the line before the body
        12: ([12, 13, 14], False),  # CPython reports a multi-line test at a later line
        15: ([15], False),
        18: ([18], False),
        19: ([19], True),
    }


def test_every_statement_of_a_main_module_is_allowed():
    for node, chain in statements(ast.parse("import sys\nsys.exit(1)\n")):
        assert allowed(pathlib.Path("__main__.py"), node, chain)
        assert not allowed(pathlib.Path("cli.py"), node, chain)
