"""Every public top-level function and class in certlab is used by certlab.

A function that only tests call either becomes an oracle in tests/ or
goes.  This check parses src/certlab/*.py and requires each public
top-level `def` or `class` to be named (as a bare name or an attribute)
somewhere in the package outside its own definition.  KEEP lists the
exceptions, each with its reason; an entry that the package starts to
use, or that is deleted, fails too, so the list stays exact.
"""

import ast
from pathlib import Path

PACKAGE = Path(__file__).resolve().parents[1] / "src" / "certlab"

KEEP = {
    "coefficient_at": "looked up by the benchmark's tracer (perfbench TARGETS)",
    "challenge_function": "regenerates a challenge from its key, for the "
                          "transcript verifier still to come",
    "hamming_balance_rate": "the concentration statistic gate 3 measures",
}


def definitions_and_uses():
    """({name: module} of public top-level defs, set of names used outside
    their own definition)."""
    defined = {}
    uses = []  # (name, module, top-level name it sits in, or None)
    for path in sorted(PACKAGE.glob("*.py")):
        module = path.stem
        for stmt in ast.parse(path.read_text()).body:
            owner = None
            if isinstance(stmt, (ast.FunctionDef, ast.ClassDef)):
                owner = stmt.name
                if not owner.startswith("_"):
                    defined[owner] = module
            for node in ast.walk(stmt):
                if isinstance(node, ast.Name):
                    uses.append((node.id, module, owner))
                elif isinstance(node, ast.Attribute):
                    uses.append((node.attr, module, owner))
    used = {name for name, module, owner in uses
            if not (owner == name and defined.get(name) == module)}
    return defined, used


def test_every_public_definition_is_used_by_the_package():
    defined, used = definitions_and_uses()
    unused = sorted(name for name in defined if name not in used)
    # a KEEP entry that is now used, or no longer defined, shows up here too
    assert unused == sorted(KEEP)
