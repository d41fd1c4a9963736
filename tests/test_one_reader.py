"""Every input file pricedir reads, CSV or JSON, becomes text in one place:
``ingest.read_text``.  A second reader would be a second answer to what a
byte order mark, a bad byte or an unreadable file means.  The sources are
read with ``ast``, as ``test_benchmark_names.py`` reads the benchmark's.
"""

import ast
from pathlib import Path

import pricedir

SRC = Path(pricedir.__file__).resolve().parent
# A call of one of these methods reads a file's bytes or turns bytes into text.
READS = {"decode", "read_bytes", "read_text"}


def read_calls(node: ast.AST) -> list[ast.Call]:
    return [call for call in ast.walk(node) if isinstance(call, ast.Call)
            and isinstance(call.func, ast.Attribute) and call.func.attr in READS]


def reader(tree: ast.Module) -> list[ast.FunctionDef]:
    return [node for node in tree.body
            if isinstance(node, ast.FunctionDef) and node.name == "read_text"]


def test_only_read_text_reads_and_decodes():
    """No src module calls ``.decode(``, ``.read_bytes(`` or ``.read_text(``
    outside ``ingest.read_text``."""
    found = []
    for file in sorted(SRC.glob("*.py")):
        tree = ast.parse(file.read_text("utf-8"))
        inside = {id(call) for node in reader(tree) if file.stem == "ingest"
                  for call in read_calls(node)}
        found += [f"{file.stem}:{call.lineno} .{call.func.attr}("
                  for call in read_calls(tree) if id(call) not in inside]
    assert found == []


def test_read_text_is_where_the_reads_are():
    """The check above would pass vacuously if ``read_text`` lost its reads."""
    (node,) = reader(ast.parse((SRC / "ingest.py").read_text("utf-8")))
    assert {call.func.attr for call in read_calls(node)} == {"decode", "read_bytes"}
