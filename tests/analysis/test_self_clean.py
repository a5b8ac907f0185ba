"""The toolkit's own gate: the shipped tree has zero unsuppressed findings.

This is the test-shaped twin of CI's ``analysis`` job — if a PR
introduces a finding, it fails here first, with the rendered findings
in the assertion message.
"""

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
