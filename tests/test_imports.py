"""The package's module graph, read from the source with ast, and the
names the benchmark's tracer looks up in it.

Imports inside functions count: a lazy import is still a dependency.
"""

import ast
import importlib
import importlib.util
import inspect
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src" / "k3glue"


def import_graph():
    """Module name -> set of package modules it imports ("" is __init__)."""
    modules = {p.stem: p for p in SRC.glob("*.py")}
    graph = {}
    for name, path in modules.items():
        deps = set()
        for node in ast.walk(ast.parse(path.read_text(), str(path))):
            if isinstance(node, ast.ImportFrom):
                if node.level == 1:
                    base = node.module
                elif node.module == "k3glue" or (node.module or "").startswith("k3glue."):
                    base = node.module.partition(".")[2]
                else:
                    continue
                if base:
                    deps.add(base)
                else:  # `from . import x` names modules or the package itself
                    deps.update(a.name if a.name in modules else "__init__" for a in node.names)
            elif isinstance(node, ast.Import):
                for alias in node.names:
                    if alias.name == "k3glue" or alias.name.startswith("k3glue."):
                        deps.add(alias.name.partition(".")[2] or "__init__")
        deps.discard(name)
        graph[name] = {d.split(".")[0] for d in deps}
    return graph


def test_import_graph_is_acyclic():
    graph = import_graph()
    assert {"salem", "certify", "matrices", "__init__"} <= graph.keys()
    done, active = set(), []

    def visit(name):
        if name in active:
            raise AssertionError("import cycle: " + " -> ".join(active + [name]))
        if name in done:
            return
        active.append(name)
        for dep in sorted(graph[name]):
            visit(dep)
        active.pop()
        done.add(name)

    for name in sorted(graph):
        visit(name)


def test_salem_does_not_depend_on_certify():
    assert "certify" not in import_graph()["salem"]


def traced_layers():
    """perfbench/layers.py, loaded without importing perfbench."""
    spec = importlib.util.spec_from_file_location("perfbench_layers", ROOT / "perfbench" / "layers.py")
    layers = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(layers)
    return layers


def test_every_traced_layer_resolves_to_a_function():
    # perfbench/tracer.py wraps each LAYERS entry through getattr on
    # k3glue.<module>; a deleted or renamed function would break it
    layers = traced_layers()
    assert layers.LAYERS
    for mod, names in layers.LAYERS.items():
        module = importlib.import_module(f"k3glue.{mod}")
        for name in names:
            assert inspect.isfunction(getattr(module, name, None)), f"k3glue.{mod}.{name}"
    # tracer._size reads the glue order of the scalar search as args[2]
    # or kwargs["order"]
    assert layers.SCAN == "gluing.anti_isometry_scalars"
    gluing = importlib.import_module("k3glue.gluing")
    params = list(inspect.signature(gluing.anti_isometry_scalars).parameters)
    assert params[2] == "order"


def test_package_attributes_are_its_submodules():
    # the package root binds no name over a submodule of the same name
    import k3glue
    import k3glue.certify as certify_module

    assert inspect.ismodule(certify_module)
    for path in SRC.glob("*.py"):
        if path.stem in ("__init__", "__main__"):
            continue
        module = importlib.import_module(f"k3glue.{path.stem}")
        assert inspect.ismodule(module) and getattr(k3glue, path.stem) is module
    assert certify_module is importlib.import_module("k3glue.certify")


def test_every_module_level_name_has_a_caller():
    # a top-level def or class is referenced by the package outside its
    # own body, not only by tests; perfbench's traced layers are exempt
    exempt = {(mod, fn) for mod, fns in traced_layers().LAYERS.items() for fn in fns}
    trees = {p.stem: ast.parse(p.read_text(), str(p)) for p in SRC.glob("*.py") if p.stem != "__init__"}
    refs = []  # (module, name, line)
    for mod, tree in trees.items():
        for node in ast.walk(tree):
            if isinstance(node, ast.Name):
                refs.append((mod, node.id, node.lineno))
            elif isinstance(node, ast.Attribute):
                refs.append((mod, node.attr, node.lineno))
            elif isinstance(node, ast.alias):
                refs.append((mod, node.name, node.lineno))
    unused = []
    for mod, tree in trees.items():
        if mod == "__main__":
            continue
        for node in tree.body:
            if not isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)):
                continue
            if (mod, node.name) in exempt:
                continue
            if not any(
                name == node.name and (m != mod or not node.lineno <= line <= node.end_lineno)
                for m, name, line in refs
            ):
                unused.append(f"{mod}.{node.name}")
    assert not unused, f"referenced only by tests: {unused}"
