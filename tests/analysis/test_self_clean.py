"""The toolkit's own gate: the shipped tree has zero unsuppressed findings.

This is the test-shaped twin of CI's ``analysis`` job — if a PR
introduces a finding, it fails here first, with the rendered findings
in the assertion message.
"""

import ast
from pathlib import Path

from repro.analysis import analyze
from repro.analysis.checkers import default_checkers

REPO_SRC = Path(__file__).resolve().parents[2] / "src"


def test_src_tree_is_clean():
    report = analyze([REPO_SRC], default_checkers())
    rendered = "\n".join(f.render() for f in report.unsuppressed)
    assert report.ok, f"unsuppressed findings:\n{rendered}"
    assert report.files_checked > 70


def test_no_stale_pragmas():
    # Every suppression pragma in the tree must still suppress at least
    # one finding — the dataflow rewrite deleted the pragmas it
    # obsoleted, and this keeps the remainder honest.
    report = analyze([REPO_SRC], default_checkers(), check_pragmas=True)
    stale = [f.render() for f in report.findings
             if f.rule == "unused-pragma"]
    assert not stale, "stale pragmas:\n" + "\n".join(stale)


def test_every_rule_is_exercised_by_a_suppression_or_scope():
    # The tree's suppression inventory should stay tracked: if a rule's
    # annotated sites disappear, this inventory check prompts a doc and
    # baseline update rather than silent drift.
    report = analyze([REPO_SRC], default_checkers())
    suppressed_rules = {f.rule for f in report.findings if f.suppressed}
    assert suppressed_rules == {
        "frame-drift",       # fault-injection frame forgery fixture
        "frame-protocol",    # worker error-result after a broken send
        "resource-hygiene",  # unstarted Process on the OSError path
        "async-blocking",    # executor-bound sleep in the server
    }


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
        "repro.service": ("sat", "smt", "api", "core"),
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
    # readers of ``SatSolver.model_value`` are the pure-SAT DIMACS layer
    # (no atoms exist there) and the engine's one comprehension over the
    # converter's ``bool_vars``; nothing else reaches into ``_model``.
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
    assert sorted(readers) == ["sat/dimacs.py", "smt/solver.py"], readers
    assert len(readers["smt/solver.py"]) == 1, readers

    engine = ast.parse((REPO_SRC / "repro" / "smt" / "solver.py").read_text())
    sources = [ast.unparse(generator.iter)
               for node in ast.walk(engine)
               if isinstance(node, ast.DictComp)
               and "model_value" in ast.unparse(node.value)
               for generator in node.generators]
    assert sources == ["self._cnf.bool_vars.items()"], sources
