"""Layering rules that no behavioural test would notice breaking.

Each check reads the source tree, not a run: an import pointing the
wrong way, a function-scope import hiding one, an atom value read from
the SAT model, or a blocking call on the service's event loop works on
every test input until the day it does not.
"""

import ast
from pathlib import Path

REPO_SRC = Path(__file__).resolve().parents[1] / "src"


def _imported_modules(path: Path, package: str):
    """Absolute dotted names of everything ``path`` imports, with the
    line of each import and whether it sits below module level."""
    tree = ast.parse(path.read_text())
    top_level = set(map(id, tree.body))
    parts = package.split(".")
    for node in ast.walk(tree):
        if isinstance(node, ast.Import):
            names = [alias.name for alias in node.names]
        elif isinstance(node, ast.ImportFrom):
            base = parts[:len(parts) - node.level + 1] if node.level else []
            stem = ".".join(base + ([node.module] if node.module else []))
            # ``from ..portfolio import sharing`` names a module too.
            names = [stem] + [f"{stem}.{alias.name}" for alias in node.names]
        else:
            continue
        for name in names:
            yield name, node.lineno, id(node) not in top_level


def test_imports_point_one_way():
    # core.solve is the paper's algorithm: nothing below the schedulers
    # imports them.  repro.portfolio and repro.service sit on top; the
    # solver stack (sat, smt, api, core) knows neither, and the shared
    # runtime knows no scheduler.
    forbidden = {
        "repro.portfolio": ("sat", "smt", "api", "core", "runtime", "service"),
        "repro.service": ("sat", "smt", "api", "core", "runtime"),
    }
    offenders = []
    for upper, lower_packages in forbidden.items():
        for lower in lower_packages:
            root = REPO_SRC / "repro" / lower
            for path in sorted(root.rglob("*.py")):
                relative = path.relative_to(REPO_SRC).with_suffix("")
                package = ".".join(relative.parts[:-1])
                for name, line, _nested in _imported_modules(path, package):
                    if name == upper or name.startswith(upper + "."):
                        offenders.append(f"{path}:{line} imports {name}")
    assert not offenders, "\n".join(offenders)


def test_synthesizer_imports_at_module_top_only():
    # A function-scope import is how an upward dependency hides from
    # the import graph (and from the check above, on a bad day).
    path = REPO_SRC / "repro" / "core" / "synthesizer.py"
    nested = [f"line {line}: {name}"
              for name, line, below in _imported_modules(path, "repro.core")
              if below]
    assert not nested, "\n".join(nested)


def test_no_atom_value_is_read_from_the_sat_model():
    # A sat answer may leave theory atoms undecided (relevancy-filtered
    # decisions), so the SAT model has no value for them: atoms are
    # evaluated from the theory's reals (``Model.eval_bool``).  The only
    # reader of ``SatSolver.model_value`` is the engine's one
    # comprehension over the converter's ``bool_vars``; nothing else
    # reaches into ``_model``.
    readers = {}
    for path in sorted((REPO_SRC / "repro").rglob("*.py")):
        tree = ast.parse(path.read_text())
        for node in ast.walk(tree):
            if not isinstance(node, ast.Attribute):
                continue
            relative = str(path.relative_to(REPO_SRC / "repro"))
            if node.attr == "model_value" and isinstance(node.ctx, ast.Load):
                readers.setdefault(relative, []).append(node.lineno)
            owner = node.value
            if (node.attr == "_model" and isinstance(owner, ast.Attribute)
                    and owner.attr == "_sat"):
                readers.setdefault(relative, []).append(node.lineno)
    assert sorted(readers) == ["smt/solver.py"], readers
    assert len(readers["smt/solver.py"]) == 1, readers

    engine = ast.parse((REPO_SRC / "repro" / "smt" / "solver.py").read_text())
    sources = [ast.unparse(generator.iter)
               for node in ast.walk(engine)
               if isinstance(node, ast.DictComp)
               and "model_value" in ast.unparse(node.value)
               for generator in node.generators]
    assert sources == ["self._cnf.bool_vars.items()"], sources


def _blocking_call(call: ast.Call):
    """The name of a call that blocks its thread, or None."""
    func = call.func
    if isinstance(func, ast.Name) and func.id == "open":
        return "open()"
    if isinstance(func, ast.Attribute):
        if (func.attr == "sleep" and isinstance(func.value, ast.Name)
                and func.value.id == "time"):
            return "time.sleep()"
        if func.attr in ("recv", "poll"):
            return f".{func.attr}()"
    return None


def test_no_blocking_call_on_the_event_loop():
    # The server is one asyncio loop in front of every client: a blocking
    # call in a coroutine stalls every request, heartbeat and deadline at
    # once.  Sleeps, pipe reads and file I/O belong on an executor.  A
    # plain ``def`` nested in a coroutine runs wherever it is called
    # (here: the executor), so its body is not the loop's.
    offenders = []
    for path in sorted((REPO_SRC / "repro" / "service").rglob("*.py")):
        tree = ast.parse(path.read_text())
        for coroutine in ast.walk(tree):
            if not isinstance(coroutine, ast.AsyncFunctionDef):
                continue
            stack = list(ast.iter_child_nodes(coroutine))
            while stack:
                node = stack.pop()
                if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef)):
                    continue
                stack.extend(ast.iter_child_nodes(node))
                if isinstance(node, ast.Call) and _blocking_call(node):
                    offenders.append(f"{path}:{node.lineno}: "
                                     f"{_blocking_call(node)} in async def "
                                     f"{coroutine.name}")
    assert not offenders, "\n".join(offenders)
