"""Every public definition in certlab is used by certlab.

A function that only tests call either becomes an oracle in tests/ or
goes.  This check parses src/certlab/*.py and requires each public
top-level `def` or `class`, and each public method or property of a
public class (dunders excluded), to be named (as a bare name or an
attribute) somewhere in the package outside its own definition.  KEEP
lists the exceptions, each with its reason; an entry that the package
starts to use, or that is deleted, fails too, so the list stays exact.
"""

import ast
from collections import defaultdict
from pathlib import Path

PACKAGE = Path(__file__).resolve().parents[1] / "src" / "certlab"

KEEP = {
    "coefficient_at": "looked up by the benchmark's tracer (perfbench TARGETS)",
    "challenge_function": "regenerates a challenge from its key, for the "
                          "transcript verifier still to come",
    "hamming_balance_rate": "the concentration statistic gate 3 measures",
}


def owned_nodes(stmt):
    """(owner, node) for every node of a top-level statement: the owner is
    `Class.method` inside a method, else the statement's own name (None
    for a statement that defines nothing)."""
    name = getattr(stmt, "name", None)
    inner = {}
    if isinstance(stmt, ast.ClassDef):
        for item in stmt.body:
            if isinstance(item, ast.FunctionDef):
                for node in ast.walk(item):
                    inner[id(node)] = f"{name}.{item.name}"
    for node in ast.walk(stmt):
        yield inner.get(id(node), name), node


def definitions_and_uses():
    """({definition: module} of public top-level defs and of public
    members of public classes, keyed `Class.member`; set of those named
    somewhere outside their own definition)."""
    defined = {}
    uses = defaultdict(list)  # name -> [(module, owner)]
    for path in sorted(PACKAGE.glob("*.py")):
        module = path.stem
        for stmt in ast.parse(path.read_text()).body:
            if (isinstance(stmt, (ast.FunctionDef, ast.ClassDef))
                    and not stmt.name.startswith("_")):
                defined[stmt.name] = module
                if isinstance(stmt, ast.ClassDef):
                    for item in stmt.body:
                        if (isinstance(item, ast.FunctionDef)
                                and not item.name.startswith("_")):
                            defined[f"{stmt.name}.{item.name}"] = module
            for owner, node in owned_nodes(stmt):
                if isinstance(node, ast.Name):
                    uses[node.id].append((module, owner))
                elif isinstance(node, ast.Attribute):
                    uses[node.attr].append((module, owner))

    def inside(owner, key):
        return owner is not None and (owner == key or owner.startswith(key + "."))

    used = {key for key, module in defined.items()
            if any(not (m == module and inside(owner, key))
                   for m, owner in uses[key.rsplit(".", 1)[-1]])}
    return defined, used


def test_every_public_definition_is_used_by_the_package():
    defined, used = definitions_and_uses()
    unused = sorted(name for name in defined if name not in used)
    # a KEEP entry that is now used, or no longer defined, shows up here too
    assert unused == sorted(KEEP)
