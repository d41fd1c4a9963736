"""Every output file pricedir writes, an artifact, a report, an ``--out``
document or a synthetic fixture, becomes a file in one place:
``ingest.write_files``.  A second writer would be a second answer to what a
FIFO or a directory in a target's place means.  The sources are read with
``ast``, as ``test_one_reader.py`` reads them.
"""

import ast
import errno
import os
from pathlib import Path

import pytest

import pricedir
from pricedir.ingest import write_files

SRC = Path(pricedir.__file__).resolve().parent
# A call of one of these methods, or of the builtin ``open``, writes a file.
WRITES = {"write_text", "write_bytes", "open"}


def write_calls(node: ast.AST) -> list[ast.Call]:
    """``.write_text(``, ``.write_bytes(``, ``.open(``, ``open(`` and ``os.replace(`` calls."""
    def writes(func: ast.expr) -> bool:
        if isinstance(func, ast.Name):
            return func.id == "open"
        return isinstance(func, ast.Attribute) and (func.attr in WRITES or (
            func.attr == "replace" and isinstance(func.value, ast.Name) and func.value.id == "os"))
    return [call for call in ast.walk(node) if isinstance(call, ast.Call) and writes(call.func)]


def writer(tree: ast.Module) -> list[ast.FunctionDef]:
    return [node for node in tree.body
            if isinstance(node, ast.FunctionDef) and node.name == "write_files"]


def test_only_write_files_writes():
    """No src module writes, opens or renames a file outside ``ingest.write_files``."""
    found = []
    for file in sorted(SRC.glob("*.py")):
        tree = ast.parse(file.read_text("utf-8"))
        inside = {id(call) for node in writer(tree) if file.stem == "ingest"
                  for call in write_calls(node)}
        found += [f"{file.stem}:{call.lineno} {ast.unparse(call.func)}("
                  for call in write_calls(tree) if id(call) not in inside]
    assert found == []


def test_write_files_is_where_the_writes_are():
    """The check above would pass vacuously if ``write_files`` lost its writes."""
    (node,) = writer(ast.parse((SRC / "ingest.py").read_text("utf-8")))
    assert sorted(ast.unparse(call.func) for call in write_calls(node)) == [
        "os.replace", "temp.write_bytes"]


def test_directory_in_place_of_the_last_name_writes_nothing(tmp_path):
    """The refusal comes before the first write and before the first directory."""
    out = tmp_path / "out"
    (out / "last.json").mkdir(parents=True)
    with pytest.raises(FileExistsError) as caught:
        write_files(out, {"a/first.csv": "1\n", "b/second.csv": "2\n", "last.json": "{}\n"})
    assert (caught.value.filename, caught.value.strerror) == (
        str(out / "last.json"), "exists and is not a regular file")
    assert [f.name for f in out.iterdir()] == ["last.json"]
    assert (out / "last.json").is_dir()


def test_failed_write_names_the_target_and_leaves_no_temp_file(tmp_path, monkeypatch):
    """A rename that fails keeps the old file, removes the temp file and
    raises an OSError whose filename is the target, not the temp."""
    target = tmp_path / "sub" / "report.txt"
    target.parent.mkdir()
    target.write_text("old", "utf-8")

    def replace(src, dst):
        raise OSError(errno.EXDEV, os.strerror(errno.EXDEV), str(src), str(dst))

    monkeypatch.setattr(os, "replace", replace)
    with pytest.raises(OSError) as caught:
        write_files(tmp_path, {"sub/report.txt": "new\n"})
    assert (caught.value.errno, caught.value.filename) == (errno.EXDEV, str(target))
    assert [f.name for f in target.parent.iterdir()] == ["report.txt"]
    assert target.read_text("utf-8") == "old"
