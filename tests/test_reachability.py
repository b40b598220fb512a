"""Every public definition in certlab is used by certlab, every
defaulted parameter is passed by it, and every name a module imports is
read by that module.

A function that only tests call either becomes an oracle in tests/ or
goes.  This check parses src/certlab/*.py and requires each public
top-level `def` or `class`, and each public method or property of a
public class (dunders excluded), to be read (as a bare name or an
attribute, in load context) somewhere in the package outside its own
definition; a name that is only assigned, such as a dataclass field of
the same name, is no use.  Likewise
a parameter with a default that no call in the package passes is a knob
only tests turn: it goes.  KEEP and KEEP_PARAMS list the exceptions, each
with its reason; an entry that the package starts to use, or that is
deleted, fails too, so the lists stay exact.
"""

import ast
from collections import defaultdict
from pathlib import Path

PACKAGE = Path(__file__).resolve().parents[1] / "src" / "certlab"

KEEP = {
    "coefficient_at": "looked up by the benchmark's tracer (perfbench TARGETS)",
}

KEEP_PARAMS = {
    "cli.main.argv": "the entry point perfbench and the tests call with argv; "
                     "the console script passes none",
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
    members of public classes, keyed `Class.member`; set of those read
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
                if not isinstance(getattr(node, "ctx", None), ast.Load):
                    continue  # a field or variable assigned, not a use
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


def defaulted_parameters():
    """{`module.function.param` or `module.Class.method.param`: (callee,
    param, position)} for each defaulted parameter of a public function,
    of a public method of a public class, or of such a class's __init__.
    The callee is the name a call uses (the class, for __init__); the
    position counts after self or cls, and is None for a keyword-only
    parameter."""
    params = {}
    for path in sorted(PACKAGE.glob("*.py")):
        for stmt in ast.parse(path.read_text()).body:
            if (not isinstance(stmt, (ast.FunctionDef, ast.ClassDef))
                    or stmt.name.startswith("_")):
                continue
            if isinstance(stmt, ast.FunctionDef):
                funcs = [(stmt.name, stmt.name, stmt, False)]
            else:
                funcs = [(f"{stmt.name}.{item.name}",
                          stmt.name if item.name == "__init__" else item.name,
                          item,
                          not any(getattr(d, "id", None) == "staticmethod"
                                  for d in item.decorator_list))
                         for item in stmt.body
                         if isinstance(item, ast.FunctionDef)
                         and (item.name == "__init__"
                              or not item.name.startswith("_"))]
            for key, callee, fn, bound in funcs:
                a = fn.args
                pos = (a.posonlyargs + a.args)[1 if bound else 0:]
                first = len(pos) - len(a.defaults)
                for i, arg in enumerate(pos[first:], first):
                    params[f"{path.stem}.{key}.{arg.arg}"] = (callee, arg.arg, i)
                for arg, default in zip(a.kwonlyargs, a.kw_defaults):
                    if default is not None:
                        params[f"{path.stem}.{key}.{arg.arg}"] = (
                            callee, arg.arg, None)
    return params


def calls_by_name():
    """Every call in the package, keyed by the bare name or attribute it
    calls."""
    calls = defaultdict(list)
    for path in sorted(PACKAGE.glob("*.py")):
        for node in ast.walk(ast.parse(path.read_text())):
            if isinstance(node, ast.Call):
                name = getattr(node.func, "id", getattr(node.func, "attr", None))
                calls[name].append(node)
    return calls


def passes(call, param, position):
    """Whether the call passes the parameter by keyword or by position; a
    **mapping or a *sequence may pass anything."""
    if any(k.arg in (param, None) for k in call.keywords):
        return True
    return position is not None and (
        len(call.args) > position
        or any(isinstance(x, ast.Starred) for x in call.args))


def test_every_defaulted_parameter_is_passed_by_the_package():
    calls = calls_by_name()
    unpassed = sorted(key for key, (callee, param, position)
                      in defaulted_parameters().items()
                      if not any(passes(c, param, position)
                                 for c in calls[callee]))
    # a KEEP_PARAMS entry that is now passed, or no longer defined, shows
    # up here too
    assert unpassed == sorted(KEEP_PARAMS)


def test_every_imported_name_is_read_by_its_module():
    # an import its module never reads is dead: it goes
    unread = []
    for path in sorted(PACKAGE.glob("*.py")):
        tree = ast.parse(path.read_text())
        imported = set()
        for node in ast.walk(tree):
            if isinstance(node, ast.Import):
                imported |= {(a.asname or a.name).split(".")[0]
                             for a in node.names}
            elif isinstance(node, ast.ImportFrom) and node.module != "__future__":
                imported |= {a.asname or a.name for a in node.names}
        read = {node.id for node in ast.walk(tree)
                if isinstance(node, ast.Name) and isinstance(node.ctx, ast.Load)}
        unread += [f"{path.stem}.{name}" for name in sorted(imported - read)]
    assert unread == []


def test_only_the_devices_choose_who_answers():
    # the honest sampler and the partial-transform sampler are reached
    # through the honest device alone; the drivers that answer sign tables
    # hand them to the device whole, without transforming them first; and
    # the replay asks the device for its tallies without asking its kind
    trees = {path.stem: ast.parse(path.read_text())
             for path in sorted(PACKAGE.glob("*.py"))}

    def naming(tree, names):
        return any(getattr(node, field, None) in names
                   for node in ast.walk(tree) for field in ("id", "attr", "name"))

    for names in (("honest_sampler", "HonestSampler"), ("fourier_tables",)):
        assert sorted(m for m, tree in trees.items()
                      if naming(tree, names)) == ["devices", "fouriersample"]
    drivers = {"fouriersample": "pgpb_counts", "rejection": "rhog_values",
               "llqsv": "llqsv_instance"}
    for module, name in drivers.items():
        (fn,) = [s for s in trees[module].body
                 if isinstance(s, ast.FunctionDef) and s.name == name]
        assert naming(fn, ("answer_tables",))
        assert not naming(fn, ("wht_rows", "sample_rows"))
    assert not any(isinstance(node, ast.Attribute) and node.attr == "kind"
                   for node in ast.walk(trees["entropy"]))
