"""Per-checker fixture proof: each rule fires, stays quiet, suppresses.

Every checker gets (at least) the trio the analysis PR promises: a
violating snippet with golden finding output, a clean snippet, and a
suppressed snippet.  Checkers are instantiated with open scopes (or
fixture-keyed contracts) so the tmp-dir fixture modules are in scope.
"""

import textwrap

from repro.analysis import analyze
from repro.analysis.checkers.async_blocking import AsyncBlockingChecker
from repro.analysis.checkers.determinism import DeterminismChecker
from repro.analysis.checkers.exact_arith import ExactArithChecker
from repro.analysis.checkers.frame_drift import FrameDriftChecker
from repro.analysis.checkers.frame_protocol import FrameProtocolChecker
from repro.analysis.checkers.resource_hygiene import ResourceHygieneChecker
from repro.analysis.checkers.trail_discipline import TrailDisciplineChecker


def run(tmp_path, checker, source, name="snippet.py"):
    (tmp_path / name).write_text(textwrap.dedent(source))
    return analyze([tmp_path], [checker])


def golden(report):
    return [(f.line, f.message, f.suppressed) for f in report.findings]


class TestExactArith:
    def test_violations_golden(self, tmp_path):
        report = run(tmp_path, ExactArithChecker(scope=()), """\
            import time

            SLOP = 2.5 * 2

            class Engine:
                def poke(self):
                    g = time.monotonic()
                    h = g
                    self._deadline = h

                def widen(self, eps):
                    self._bounds[0] /= eps

                def export(self):
                    return float(self._best)
            """)
        assert golden(report) == [
            (3, "constant binding carries float taint: "
                "float literal 2.5 (line 3)", False),
            (9, "float-tainted value stored into solver state "
                "`self._deadline`: time.monotonic() wall-clock value "
                "(line 7)", False),
            (12, "in-place true division on solver state `self._bounds` "
                 "(use `//`, behind the scale step or gcd that makes it "
                 "exact)", False),
            (15, "float-tainted value returned from exact module: "
                 "float() cast (line 15)", False),
        ]

    def test_laundered_leak_invisible_to_syntax(self, tmp_path):
        # The flagged line has no float literal, cast, `/`, or time call
        # on it — PR 9's lexical rule provably cannot fire here.
        source = textwrap.dedent("""\
            import time

            class Engine:
                def poke(self):
                    g = time.monotonic()
                    h = g
                    self._deadline = h
            """)
        (tmp_path / "snippet.py").write_text(source)
        report = analyze([tmp_path], [ExactArithChecker(scope=())])
        [(line, message, suppressed)] = golden(report)
        assert line == 7
        flagged = source.splitlines()[line - 1]
        assert "float" not in flagged
        assert "/" not in flagged
        assert "time" not in flagged
        assert not suppressed
        assert message == (
            "float-tainted value stored into solver state "
            "`self._deadline`: time.monotonic() wall-clock value (line 5)")

    def test_tainted_constructor_argument(self, tmp_path):
        report = run(tmp_path, ExactArithChecker(scope=()), """\
            from fractions import Fraction

            def lift(x):
                approx = float(x)
                return Fraction(approx)
            """)
        assert golden(report) == [
            (5, "float-tainted argument to Fraction(): "
                "float() cast (line 4)", False),
        ]

    def test_clean(self, tmp_path):
        report = run(tmp_path, ExactArithChecker(scope=()), """\
            from fractions import Fraction

            _F1 = Fraction(1)

            class Engine:
                def tighten(self, a):
                    inv = _F1 / a
                    self._scale = inv
                    return Fraction(inv)

                def verdict(self, x):
                    m = float(x)
                    return m > int(x)
            """)
        assert report.findings == []

    def test_suppressed(self, tmp_path):
        report = run(tmp_path, ExactArithChecker(scope=()), """\
            import time

            class Engine:
                def poke(self):
                    g = time.monotonic()
                    # repro: allow[exact-arith] advisory deadline only
                    self._deadline = g
            """)
        assert [f.suppressed for f in report.findings] == [True]
        assert report.ok

    def test_region_pragma_covers_mirror_block(self, tmp_path):
        report = run(tmp_path, ExactArithChecker(scope=()), """\
            class Engine:
                # repro: allow[exact-arith]:begin advisory mirror block
                def resync(self):
                    self._mirror = 0.5
                    self._guard = 1e-06
                # repro: allow[exact-arith]:end
            """)
        assert [f.suppressed for f in report.findings] == [True, True]
        assert report.ok

    def test_default_scope_excludes_other_modules(self, tmp_path):
        report = run(tmp_path, ExactArithChecker(), "x = 1.5\n")
        assert report.findings == []


class TestFrameDrift:
    def test_bare_literal_and_unknown_kind(self, tmp_path):
        report = run(tmp_path, FrameDriftChecker(scope=()), """\
            from repro.runtime.frames import KIND_RESULT

            def emit(conn):
                conn.send({"kind": "result", "payload": 1})

            def emit2(conn):
                conn.send({"kind": UNKNOWN_KIND, "payload": 1})

            def pump(msg):
                return msg.get("kind") == KIND_RESULT
            """)
        messages = [f.message for f in report.unsuppressed]
        assert ("frame kind constructed as bare literal 'result'; use the "
                "repro.runtime.frames constant") in messages
        assert ("frame kind constructed from an expression the registry "
                "cannot resolve") in messages

    def test_constructed_without_consumer_is_drift(self, tmp_path):
        report = run(tmp_path, FrameDriftChecker(scope=()), """\
            from repro.runtime.frames import KIND_HEARTBEAT

            def emit(conn):
                conn.send({"kind": KIND_HEARTBEAT})
            """)
        assert [f.message for f in report.findings] == [
            "frame kind 'heartbeat' is constructed but no consumer "
            "dispatches on it"]

    def test_consumed_without_producer_is_drift(self, tmp_path):
        report = run(tmp_path, FrameDriftChecker(scope=()), """\
            from repro.runtime.frames import KIND_SHUTDOWN

            def pump(msg):
                return msg.get("kind") == KIND_SHUTDOWN
            """)
        assert [f.message for f in report.findings] == [
            "consumer dispatches on frame kind 'shutdown' but nothing "
            "constructs it"]

    def test_off_registry_dispatch(self, tmp_path):
        report = run(tmp_path, FrameDriftChecker(scope=()), """\
            def pump(msg):
                kind = msg.get("kind")
                return kind == "never-registered"
            """)
        assert any("not in the frames registry" in f.message
                   for f in report.findings)

    def test_clean_pair_and_membership_dispatch(self, tmp_path):
        report = run(tmp_path, FrameDriftChecker(scope=()), """\
            from repro.runtime.frames import (ARTIFACT_CLAUSES,
                                                ARTIFACT_KINDS,
                                                ARTIFACT_PREFIX,
                                                ARTIFACT_VETO)

            def emit(conn):
                conn.send({"kind": ARTIFACT_CLAUSES})
                conn.send({"kind": ARTIFACT_VETO})
                conn.send({"kind": ARTIFACT_PREFIX})

            def absorb(artifact):
                return artifact.get("kind") in ARTIFACT_KINDS
            """)
        assert report.findings == []

    def test_suppressed_forged_kind(self, tmp_path):
        report = run(tmp_path, FrameDriftChecker(scope=()), """\
            def forge(frame):
                # repro: allow[frame-drift] deliberate corruption fixture
                frame["kind"] = "forged"
                return frame
            """)
        assert report.findings and report.ok

    def test_cross_file_pairing(self, tmp_path):
        (tmp_path / "producer.py").write_text(textwrap.dedent("""\
            from repro.runtime.frames import KIND_REQUEST

            def ask(conn):
                conn.send({"kind": KIND_REQUEST})
            """))
        (tmp_path / "consumer.py").write_text(textwrap.dedent("""\
            def serve(msg):
                return msg.get("kind") == "request"
            """))
        report = analyze([tmp_path], [FrameDriftChecker(scope=())])
        assert report.findings == []


class TestResourceHygiene:
    def test_never_closed(self, tmp_path):
        report = run(tmp_path, ResourceHygieneChecker(scope=()), """\
            import multiprocessing as mp

            def leak():
                parent, child = mp.Pipe()
                parent.send(1)
            """)
        assert sorted(f.message for f in report.findings) == [
            "connection 'child' is created here but never closed, joined "
            "or handed off",
            "connection 'parent' is created here but never closed, joined "
            "or handed off",
        ]

    def test_conditional_only_cleanup(self, tmp_path):
        report = run(tmp_path, ResourceHygieneChecker(scope=()), """\
            import multiprocessing as mp

            def racy(flag):
                parent, child = mp.Pipe()
                child.close()
                if flag:
                    parent.close()
            """)
        assert [f.message for f in report.findings] == [
            "connection 'parent' is not released on every path from here; "
            "move a cleanup into a finally block or the unconditional path"]

    def test_exception_path_only_cleanup(self, tmp_path):
        report = run(tmp_path, ResourceHygieneChecker(scope=()), """\
            import multiprocessing as mp

            def on_error_only():
                proc = mp.Process(target=print)
                try:
                    proc.start()
                except OSError:
                    proc.terminate()
            """)
        assert [f.message for f in report.findings] == [
            "process 'proc' is not released on every path from here; "
            "move a cleanup into a finally block or the unconditional path"]

    def test_early_return_leak_v1_missed(self, tmp_path):
        # Both closes sit on the unconditional tail, so PR 9's lexical
        # rule ("at least one cleanup outside an if arm") passed this;
        # the early return still leaks both ends of the pipe.
        report = run(tmp_path, ResourceHygieneChecker(scope=()), """\
            import multiprocessing as mp

            def early_exit(flag):
                parent, child = mp.Pipe()
                if flag:
                    return None
                parent.close()
                child.close()
            """)
        assert sorted(f.message for f in report.findings) == [
            "connection 'child' is not released on every path from here; "
            "move a cleanup into a finally block or the unconditional path",
            "connection 'parent' is not released on every path from here; "
            "move a cleanup into a finally block or the unconditional path",
        ]

    def test_with_closing_is_cleanup(self, tmp_path):
        # Regression: v1 flagged with-managed resources because it only
        # recognised literal cleanup-method calls.
        report = run(tmp_path, ResourceHygieneChecker(scope=()), """\
            from contextlib import closing
            import multiprocessing as mp

            def managed():
                parent, child = mp.Pipe()
                with closing(parent), closing(child):
                    parent.send(1)

            def direct():
                parent, child = mp.Pipe()
                with child:
                    parent.send(1)
                parent.close()
            """)
        assert report.findings == []

    def test_clean_finally_and_escape(self, tmp_path):
        report = run(tmp_path, ResourceHygieneChecker(scope=()), """\
            import multiprocessing as mp

            def finally_cleanup():
                parent, child = mp.Pipe()
                try:
                    parent.send(1)
                finally:
                    parent.close()
                    child.close()

            def ownership_transfer(registry):
                parent, child = mp.Pipe()
                registry.adopt(parent)
                return child
            """)
        assert report.findings == []

    def test_suppressed(self, tmp_path):
        report = run(tmp_path, ResourceHygieneChecker(scope=()), """\
            import multiprocessing as mp

            def leak():
                # repro: allow[resource-hygiene] fixture leaks on purpose
                parent, child = mp.Pipe()
                parent.send(child)
            """)
        assert report.findings and report.ok


class TestFrameProtocol:
    def test_send_after_result_golden(self, tmp_path):
        report = run(tmp_path, FrameProtocolChecker(scope=()), """\
            from repro.runtime.frames import KIND_HEARTBEAT, KIND_RESULT

            def finish(conn):
                conn.send({"kind": KIND_RESULT, "payload": 1})
                conn.send({"kind": KIND_HEARTBEAT})
            """)
        assert golden(report) == [
            (5, "'heartbeat' frame sent on `conn` which may be in state "
                "done here — consumers stop reading after the first "
                "result frame", False),
        ]

    def test_send_after_close(self, tmp_path):
        report = run(tmp_path, FrameProtocolChecker(scope=()), """\
            from repro.runtime.frames import KIND_RESULT

            def reopen(conn):
                conn.close()
                conn.send({"kind": KIND_RESULT, "payload": 1})
            """)
        assert golden(report) == [
            (5, "'result' frame sent on `conn` which may be in state "
                "closed here — the connection is already closed or "
                "shut down", False),
        ]

    def test_conditional_result_is_may_flagged(self, tmp_path):
        # Path-sensitive: only one branch sends the result, so the
        # trailing heartbeat is illegal on *some* path.
        report = run(tmp_path, FrameProtocolChecker(scope=()), """\
            from repro.runtime.frames import KIND_HEARTBEAT, KIND_RESULT

            def maybe(conn, flag):
                if flag:
                    conn.send({"kind": KIND_RESULT, "payload": 1})
                conn.send({"kind": KIND_HEARTBEAT})
            """)
        assert golden(report) == [
            (6, "'heartbeat' frame sent on `conn` which may be in state "
                "done here — consumers stop reading after the first "
                "result frame", False),
        ]

    def test_double_request(self, tmp_path):
        report = run(tmp_path, FrameProtocolChecker(scope=()), """\
            from repro.runtime.frames import KIND_REQUEST

            def ask_twice(conn):
                conn.send({"kind": KIND_REQUEST})
                conn.send({"kind": KIND_REQUEST})
            """)
        assert golden(report) == [
            (5, "'request' frame sent on `conn` which may be in state "
                "await here — the previous request has not been "
                "answered yet", False),
        ]

    def test_constructor_and_variable_resolution(self, tmp_path):
        report = run(tmp_path, FrameProtocolChecker(scope=()), """\
            from repro.runtime.frames import KIND_HEARTBEAT, KIND_RESULT

            def result_frame(payload):
                return {"kind": KIND_RESULT, "payload": payload}

            def emit(conn):
                conn.send(result_frame(1))
                frame = {"kind": KIND_HEARTBEAT}
                conn.send(frame)
            """)
        assert golden(report) == [
            (9, "'heartbeat' frame sent on `conn` which may be in state "
                "done here — consumers stop reading after the first "
                "result frame", False),
        ]

    def test_clean_stream_and_request_reply(self, tmp_path):
        report = run(tmp_path, FrameProtocolChecker(scope=()), """\
            from repro.runtime.frames import (KIND_ARTIFACT,
                                                KIND_HEARTBEAT,
                                                KIND_RESULT,
                                                KIND_SHUTDOWN)

            def stream(conn, artifacts):
                conn.send({"kind": KIND_HEARTBEAT})
                for art in artifacts:
                    conn.send({"kind": KIND_ARTIFACT, "artifact": art})
                conn.send({"kind": KIND_RESULT, "payload": 0})
                conn.send({"kind": KIND_SHUTDOWN})
                conn.close()

            def serve(conn):
                while True:
                    msg = conn.recv()
                    conn.send({"kind": KIND_RESULT, "payload": msg})
            """)
        assert report.findings == []

    def test_unresolvable_send_is_skipped(self, tmp_path):
        report = run(tmp_path, FrameProtocolChecker(scope=()), """\
            def forward(conn, frame):
                conn.send(frame)
                conn.send(frame)
            """)
        assert report.findings == []

    def test_suppressed(self, tmp_path):
        report = run(tmp_path, FrameProtocolChecker(scope=()), """\
            from repro.runtime.frames import KIND_RESULT

            def replay(conn):
                conn.send({"kind": KIND_RESULT, "payload": 1})
                # repro: allow[frame-protocol] error replay fixture
                conn.send({"kind": KIND_RESULT, "payload": 2})
            """)
        assert report.findings and report.ok

    def test_artifact_only_module(self, tmp_path):
        (tmp_path / "repro").mkdir()
        (tmp_path / "repro" / "__init__.py").write_text("")
        # Both artifact-only modules, by dotted name: the service cache
        # and the knowledge module both schedulers share.
        for package, module in (("service", "cache"),
                                ("runtime", "knowledge")):
            pkg = tmp_path / "repro" / package
            pkg.mkdir()
            (pkg / "__init__.py").write_text("")
            (pkg / f"{module}.py").write_text(textwrap.dedent("""\
                from repro.runtime.frames import ARTIFACT_CLAUSES, KIND_RESULT

                def entry(payload):
                    return {"kind": ARTIFACT_CLAUSES, "payload": payload}

                def smuggle(payload):
                    return {"kind": KIND_RESULT, "payload": payload}
                """))
        report = analyze([tmp_path], [FrameProtocolChecker(scope=())])
        assert [f.message for f in report.findings] == [
            "'result' frame constructed in an artifact-only module — "
            "cache entries and sharing payloads carry ARTIFACT_* kinds "
            "only"] * 2


class TestAsyncBlocking:
    def test_blocking_calls_in_coroutine(self, tmp_path):
        report = run(tmp_path, AsyncBlockingChecker(scope=()), """\
            import time

            async def handler(conn):
                time.sleep(1)
                frame = conn.recv()
                with open("log.txt") as fh:
                    return fh, frame
            """)
        messages = sorted(f.message for f in report.findings)
        assert messages == [
            ".recv() inside async def can block the event loop; bridge "
            "the Connection through an executor",
            "sync open() inside async def blocks the event loop; do file "
            "I/O on an executor",
            "time.sleep inside async def blocks the event loop; use "
            "await asyncio.sleep",
        ]

    def test_module_level_sleep_near_coroutines(self, tmp_path):
        report = run(tmp_path, AsyncBlockingChecker(scope=()), """\
            import time

            async def serve():
                return 1

            def backoff_helper():
                time.sleep(0.1)
            """)
        assert [f.message for f in report.findings] == [
            "time.sleep in a module with async entry points; verify it "
            "only runs on an executor thread and annotate it"]

    def test_clean_async_sleep_and_pure_sync_module(self, tmp_path):
        report = run(tmp_path, AsyncBlockingChecker(scope=()), """\
            import asyncio

            async def handler():
                await asyncio.sleep(1)
            """)
        assert report.findings == []
        report = run(tmp_path, AsyncBlockingChecker(scope=()), """\
            import time

            def sync_only():
                time.sleep(1)
            """, name="sync_mod.py")
        assert [f.path for f in report.findings if "sync_mod" in f.path] == []

    def test_nested_sync_def_is_executor_bound(self, tmp_path):
        report = run(tmp_path, AsyncBlockingChecker(scope=()), """\
            import time

            async def handler(loop):
                def blocking_work():
                    data = compute()
                    return data
                return await loop.run_in_executor(None, blocking_work)
            """)
        assert report.findings == []

    def test_suppressed(self, tmp_path):
        report = run(tmp_path, AsyncBlockingChecker(scope=()), """\
            import time

            async def serve():
                return 1

            def backoff_helper():
                # repro: allow[async-blocking] runs on the executor
                time.sleep(0.1)
            """)
        assert report.findings and report.ok


class TestTrailDiscipline:
    CONTRACTS = {"snippet": ({"_trail", "_bounds"}, {"__init__", "record",
                                                     "undo_to"})}

    def test_rogue_mutations(self, tmp_path):
        checker = TrailDisciplineChecker(contracts=self.CONTRACTS)
        report = run(tmp_path, checker, """\
            class Engine:
                def __init__(self):
                    self._trail = []
                    self._bounds = {}

                def record(self, entry):
                    self._trail.append(entry)

                def rogue(self, var, bound):
                    self._bounds[var] = bound
                    self._trail.pop()
                    del self._bounds[var]
            """)
        assert [(f.line, f.message) for f in report.findings] == [
            (10, "trail-backed self._bounds mutated in rogue(), which is "
                 "not a registered trail-recording helper"),
            (11, "trail-backed self._trail.pop() called in rogue(), which "
                 "is not a registered trail-recording helper"),
            (12, "trail-backed self._bounds mutated in rogue(), which is "
                 "not a registered trail-recording helper"),
        ]

    def test_reads_are_fine(self, tmp_path):
        checker = TrailDisciplineChecker(contracts=self.CONTRACTS)
        report = run(tmp_path, checker, """\
            class Engine:
                def __init__(self):
                    self._trail = []

                def depth(self):
                    return len(self._trail)

                def peek(self):
                    return self._trail[-1]
            """)
        assert report.findings == []

    def test_suppressed(self, tmp_path):
        checker = TrailDisciplineChecker(contracts=self.CONTRACTS)
        report = run(tmp_path, checker, """\
            class Engine:
                def __init__(self):
                    self._trail = []

                def replay(self):
                    self._trail.clear()  # repro: allow[trail-discipline]
            """)
        assert report.findings and report.ok


class TestDeterminism:
    def test_violations(self, tmp_path):
        report = run(tmp_path, DeterminismChecker(scope=()), """\
            import random
            import time

            def jitter():
                return random.random() + random.Random().random()

            def stamp():
                return time.time()

            def walk(items):
                for item in set(items):
                    yield item
                return [x for x in set(items) & set(items)]
            """)
        messages = [f.message for f in report.findings]
        assert sum("unseeded randomness" in m or "process-global" in m
                   for m in messages) >= 2
        assert any("wall clock" in m for m in messages)
        assert sum("unordered set expression" in m for m in messages) == 2

    def test_clean(self, tmp_path):
        report = run(tmp_path, DeterminismChecker(scope=()), """\
            import random
            import time

            def jitter(seed):
                rng = random.Random(seed)
                return rng.random()

            def elapsed(t0):
                return time.perf_counter() - t0

            def walk(items):
                for item in sorted(set(items)):
                    yield item
            """)
        assert report.findings == []

    def test_suppressed(self, tmp_path):
        report = run(tmp_path, DeterminismChecker(scope=()), """\
            import time

            def stamp():
                return time.time()  # repro: allow[determinism] log only
            """)
        assert report.findings and report.ok
