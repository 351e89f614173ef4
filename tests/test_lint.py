"""Static checks of the package source with the stdlib ast module: every
imported name is used, every private module-level function or constant is
used somewhere in the package, domains are compared by identity, no
``assert`` statement is left, square-and-multiply, the joining of
printed terms, subtraction and the inner map are each written once, the
oracle compares classes and shifts them in one place each, and no module
imports re."""

import ast
from pathlib import Path

import tmodext

PACKAGE = Path(tmodext.__file__).parent


def _trees():
    return {path.name: ast.parse(path.read_text(), str(path))
            for path in sorted(PACKAGE.glob("*.py"))}


def _loaded_names(tree):
    """The names a module reads: bare names and attribute names."""
    return ({node.id for node in ast.walk(tree)
             if isinstance(node, ast.Name)
             and not isinstance(node.ctx, ast.Store)}
            | {node.attr for node in ast.walk(tree)
               if isinstance(node, ast.Attribute)})


def _imported(tree):
    """(bound name, line) for each name a module imports, __future__
    features aside."""
    for node in ast.walk(tree):
        if isinstance(node, ast.ImportFrom) and node.module == "__future__":
            continue
        if isinstance(node, (ast.Import, ast.ImportFrom)):
            for alias in node.names:
                name = alias.asname or alias.name.split(".")[0]
                yield name, node.lineno


def test_every_imported_name_is_used():
    """The package root re-exports what it imports, so only the other
    modules are checked."""
    unused = []
    for module, tree in _trees().items():
        if module != "__init__.py":
            loaded = _loaded_names(tree)
            unused += [f"{module}:{line} {name}"
                       for name, line in _imported(tree) if name not in loaded]
    assert unused == []


def _top_modules(node):
    """The top-level modules an absolute import statement names."""
    if isinstance(node, ast.Import):
        return {alias.name.split(".")[0] for alias in node.names}
    if isinstance(node, ast.ImportFrom) and not node.level:
        return {node.module.split(".")[0]}
    return set()


def test_no_module_imports_re():
    """The parsers share one hand-written scanner (_scan), so no module
    imports re, whose import costs a cold start more than the parsing."""
    importers = [f"{module}:{node.lineno}"
                 for module, tree in _trees().items()
                 for node in ast.walk(tree) if "re" in _top_modules(node)]
    assert importers == []


def _private_definitions(tree):
    """(name, line) of each private module-level function or constant."""
    for node in tree.body:
        if isinstance(node, ast.FunctionDef):
            names = [node.name]
        elif isinstance(node, (ast.Assign, ast.AnnAssign)):
            targets = node.targets if isinstance(node, ast.Assign) \
                else [node.target]
            names = [t.id for t in targets if isinstance(t, ast.Name)]
        else:
            continue
        for name in names:
            if name.startswith("_") and not name.startswith("__"):
                yield name, node.lineno


def test_every_private_helper_is_used_in_the_package():
    trees = _trees()
    used = set().union(*(_loaded_names(tree) for tree in trees.values()))
    used |= {name for tree in trees.values() for name, _ in _imported(tree)}
    dead = [f"{module}:{line} {name}"
            for module, tree in trees.items()
            for name, line in _private_definitions(tree)
            if name not in used]
    assert dead == []


def _names_spec(node):
    """Whether node is the name ``spec`` or an attribute ``.spec``."""
    return (isinstance(node, ast.Name) and node.id == "spec") or \
        (isinstance(node, ast.Attribute) and node.attr == "spec")


def test_domains_are_compared_by_identity():
    """A coefficient domain is one object, so no ``==`` or ``!=`` has a
    spec on either side; such a comparison would hide a second object."""
    compared = [f"{module}:{node.lineno}"
                for module, tree in _trees().items()
                for node in ast.walk(tree)
                if isinstance(node, ast.Compare)
                and any(isinstance(op, (ast.Eq, ast.NotEq)) for op in node.ops)
                and any(map(_names_spec, [node.left, *node.comparators]))]
    assert compared == []


def test_no_assert_statements():
    """Invariants are exceptions, which ``python -O`` keeps."""
    asserts = [f"{module}:{node.lineno}"
               for module, tree in _trees().items()
               for node in ast.walk(tree) if isinstance(node, ast.Assert)]
    assert asserts == []


def _halves_in_a_loop(func):
    """Whether a ``while`` loop in func holds ``n >>= 1``."""
    return any(isinstance(node, ast.AugAssign)
               and isinstance(node.op, ast.RShift)
               and isinstance(node.value, ast.Constant)
               and node.value.value == 1
               for loop in ast.walk(func) if isinstance(loop, ast.While)
               for node in ast.walk(loop))


def test_one_square_and_multiply():
    """Square-and-multiply is written once: element, code, polynomial,
    matrix and th^e mod b powers all call coefficients._power."""
    halving = [f"{module[:-3]}.{node.name}"
               for module, tree in _trees().items()
               for node in ast.walk(tree)
               if isinstance(node, ast.FunctionDef) and _halves_in_a_loop(node)]
    assert halving == ["coefficients._power"]


def _joins_terms(func):
    """Whether func calls ``.join`` on a string holding "+", or on sep."""
    return any(isinstance(node, ast.Call)
               and isinstance(node.func, ast.Attribute)
               and node.func.attr == "join"
               and ((isinstance(node.func.value, ast.Constant)
                     and "+" in str(node.func.value.value))
                    or (isinstance(node.func.value, ast.Name)
                        and node.func.value.id == "sep"))
               for node in ast.walk(func))


def test_one_term_printer():
    """Every printed sum (elements of each domain, the modulus in a header,
    twisted polynomials) is joined by coefficients._render_terms."""
    joining = [f"{module[:-3]}.{node.name}"
               for module, tree in _trees().items()
               for node in ast.walk(tree)
               if isinstance(node, ast.FunctionDef) and _joins_terms(node)]
    assert joining == ["coefficients._render_terms"]


def test_subtraction_is_written_once():
    """a - b is a + (-b) for every value type: only coefficients._Additive
    defines __sub__ or __rsub__, and no class that defines add (a field's
    ops object) defines sub beside it."""
    classes = [(f"{module[:-3]}.{node.name}",
                {item.name for item in node.body
                 if isinstance(item, ast.FunctionDef)})
               for module, tree in _trees().items()
               for node in ast.walk(tree) if isinstance(node, ast.ClassDef)]
    assert [name for name, methods in classes
            if methods & {"__sub__", "__rsub__"}] == ["coefficients._Additive"]
    assert [name for name, methods in classes
            if {"add", "sub"} <= methods] == []


def test_one_inner_map():
    """delta^(U) and the residual of a candidate morphism are one map:
    modules_t.inner_matrix is its only definition, and morphism_residual
    calls it."""
    trees = _trees()
    defined = [module[:-3] for module, tree in trees.items()
               for node in ast.walk(tree)
               if isinstance(node, ast.FunctionDef)
               and node.name == "inner_matrix"]
    assert defined == ["modules_t"]
    residual = next(node for node in ast.walk(trees["modules_t.py"])
                    if isinstance(node, ast.FunctionDef)
                    and node.name == "morphism_residual")
    assert any(isinstance(node, ast.Call) and isinstance(node.func, ast.Name)
               and node.func.id == "inner_matrix"
               for node in ast.walk(residual))


def _adds_an_inner_map(func):
    """Whether func adds the result of an inner_matrix call to something."""
    return any(isinstance(node, ast.BinOp) and isinstance(node.op, ast.Add)
               and any(isinstance(side, ast.Call)
                       and isinstance(side.func, ast.Name)
                       and side.func.id == "inner_matrix"
                       for side in (node.left, node.right))
               for node in ast.walk(func))


def test_one_class_equality_seam():
    """The oracle compares classes through homological.class_of and
    ExtStructure.coords_of, so it never names reduce_canonical, and
    oracle._shifted is the one place that adds an inner biderivation to a
    class."""
    tree = _trees()["oracle.py"]
    named = _loaded_names(tree) | {name for name, _ in _imported(tree)}
    assert "reduce_canonical" not in named
    adding = [node.name for node in ast.walk(tree)
              if isinstance(node, ast.FunctionDef) and _adds_an_inner_map(node)]
    assert adding == ["_shifted"]


def _calls(node, name):
    """The calls under node of the function called name."""
    return [call for call in ast.walk(node) if isinstance(call, ast.Call)
            and name in (getattr(call.func, "id", None),
                         getattr(call.func, "attr", None))]


def test_the_dispatcher_reads_the_field_header_once():
    """cli._run is the one reader of --field: cli.py calls parse_field
    once, there, and every cmd_* handler takes (args, spec)."""
    tree = _trees()["cli.py"]
    functions = {node.name: node for node in ast.walk(tree)
                 if isinstance(node, ast.FunctionDef)}
    assert len(_calls(tree, "parse_field")) == 1
    assert len(_calls(functions["_run"], "parse_field")) == 1
    handlers = {name: [arg.arg for arg in node.args.args]
                for name, node in functions.items()
                if name.startswith("cmd_")}
    assert list(handlers.values()) == [["args", "spec"]] * 18
