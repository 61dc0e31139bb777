"""Every SearchConfig field is read by some code path: a field that only its
own class reads (to validate or echo it) changes no work and belongs in no
artifact."""

import ast
import dataclasses
from pathlib import Path

import sumsetlab
from sumsetlab.search import SearchConfig

SRC = Path(sumsetlab.__file__).parent


def attributes_read_outside(trees: list[ast.AST], cls_name: str) -> set[str]:
    """Names read as `x.name` in these trees outside the body of the class
    cls_name.  Reads off `args` are left out: the CLI's argparse namespace
    shares the config's option names without reading any config."""
    read = set()

    def visit(node: ast.AST) -> None:
        if isinstance(node, ast.ClassDef) and node.name == cls_name:
            return
        if (isinstance(node, ast.Attribute) and isinstance(node.ctx, ast.Load)
                and not (isinstance(node.value, ast.Name) and node.value.id == "args")):
            read.add(node.attr)
        for child in ast.iter_child_nodes(node):
            visit(child)

    for tree in trees:
        visit(tree)
    return read


def unread_fields(cls: type, trees: list[ast.AST]) -> list[str]:
    read = attributes_read_outside(trees, cls.__name__)
    return [f.name for f in dataclasses.fields(cls) if f.name not in read]


def library_trees() -> list[ast.AST]:
    return [ast.parse(path.read_text(), filename=str(path)) for path in sorted(SRC.glob("*.py"))]


def test_every_search_config_field_is_read():
    assert unread_fields(SearchConfig, library_trees()) == []


def test_guard_reports_an_unread_field():
    # a field read only by its own class, or only off the argparse
    # namespace, is reported; one read off any other object is not
    source = """
class Cfg:
    def echo(self):
        return self.own, self.cli_only, self.used

def main(args, cfg):
    return args.cli_only, cfg.used
"""
    Cfg = dataclasses.make_dataclass("Cfg", ["own", "cli_only", "used"])
    assert unread_fields(Cfg, [ast.parse(source)]) == ["own", "cli_only"]
