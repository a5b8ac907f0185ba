"""repro.fieldcheck: one field check, read off the dataclass annotations."""

from dataclasses import dataclass, field, fields
from fractions import Fraction
from typing import Dict, List, Optional, Tuple

import pytest

from repro import fieldcheck
from repro.core import ControlApplication, StrategySignature, SynthesisOptions
from repro.errors import EncodingError
from repro.fieldcheck import MAX_SIZE, check_fields
from repro.network.frames import Flow
from repro.network.timing import DelayModel
from repro.runtime.supervision import SupervisionPolicy
from repro.service import ServicePolicy


@dataclass
class Sample:
    text: str = "x"
    count: int = field(default=1, metadata={"ge": 1})
    flag: bool = False
    seconds: float = field(default=0.5, metadata={"gt": 0})
    ratio: Fraction = Fraction(1, 2)
    limit: Optional[int] = None
    pairs: Tuple[Tuple[str, int], ...] = ()
    anything: Tuple = ()
    names: List[str] = field(default_factory=list)
    table: Dict[str, int] = field(default_factory=dict)
    mode: str = field(default="a", metadata={"in": ("a", "b")})


@pytest.mark.parametrize("name,value", [
    ("text", 7),
    ("count", True), ("count", 1.0), ("count", 0), ("count", MAX_SIZE + 1),
    ("flag", 1), ("flag", "no"),
    ("seconds", float("nan")), ("seconds", float("inf")), ("seconds", True),
    ("seconds", 0), ("seconds", "5"),
    ("ratio", 0.5), ("ratio", 1),
    ("limit", True), ("limit", "3"),
    ("pairs", [("a", 1)]), ("pairs", (("a", True),)), ("pairs", (("a",),)),
    ("anything", []),
    ("names", ("a",)), ("names", ["a", 1]),
    ("table", {"a": "1"}), ("table", {1: 1}),
    ("mode", "c"),
])
def test_each_annotation_refuses_what_it_does_not_name(name, value):
    with pytest.raises(ValueError, match=f"Sample.{name}="):
        check_fields(Sample(**{name: value}))


@pytest.mark.parametrize("name,value", [
    ("count", MAX_SIZE), ("seconds", 3), ("limit", None), ("limit", -5),
    ("pairs", (("a", 1), ("b", -1))), ("anything", ((1,), "x")),
    ("table", {"a": 0}), ("mode", "b"),
])
def test_each_annotation_admits_what_it_names(name, value):
    check_fields(Sample(**{name: value}))


def test_one_constant_bounds_string_length_and_integer_size(monkeypatch):
    monkeypatch.setattr(fieldcheck, "MAX_SIZE", 4)
    check_fields(Sample(text="abcd", count=4))
    with pytest.raises(ValueError, match="Sample.text="):
        check_fields(Sample(text="abcde"))
    with pytest.raises(ValueError, match="Sample.count="):
        check_fields(Sample(count=5))


def test_the_caller_names_the_error():
    with pytest.raises(EncodingError, match="Sample.count=0 is not int >= 1"):
        check_fields(Sample(count=0), EncodingError)


def test_options_and_signature_declare_the_same_bounds():
    options = {f.name: f for f in fields(SynthesisOptions)}
    for f in fields(StrategySignature):
        assert (options[f.name].type, dict(options[f.name].metadata)) == (
            f.type, dict(f.metadata)), f.name


@pytest.mark.parametrize("build", [
    lambda: SynthesisOptions(path_cutoff=0),
    lambda: SynthesisOptions(routes=True),
    lambda: SynthesisOptions(repair=1),
    lambda: SynthesisOptions(max_conflicts=0),
    lambda: SynthesisOptions(mode="bogus"),
    lambda: SynthesisOptions(seed_knowledge=[]),
    lambda: ControlApplication("a", "S0", "C0", Fraction(1, 100),
                               frame_bytes=0),
    lambda: ControlApplication(7, "S0", "C0", Fraction(1, 100)),
    lambda: Flow("a", "S0", "C0", Fraction(1, 100), frame_bytes=True),
    lambda: DelayModel(sd=Fraction(-1), ld=Fraction(1)),
    lambda: DelayModel(sd=Fraction(0), ld=Fraction(0)),
    lambda: DelayModel(sd=0, ld=Fraction(1)),
], ids=["path_cutoff-0", "routes-true", "repair-int", "max_conflicts-0",
        "mode-bogus", "seed-list", "frame_bytes-0", "name-int",
        "flow-frame_bytes-true", "sd-negative", "ld-zero", "sd-int"])
def test_problem_and_option_constructors_raise_encoding_error(build):
    with pytest.raises(EncodingError):
        build()


@pytest.mark.parametrize("build", [
    lambda: ServicePolicy(workers=0),
    lambda: ServicePolicy(workers=True),
    lambda: ServicePolicy(max_queue=0),
    lambda: ServicePolicy(worker_mode="thread"),
    lambda: ServicePolicy(supervision=None),
    lambda: SupervisionPolicy(heartbeat_interval=-1),
    lambda: SupervisionPolicy(stall_timeout=0),
    lambda: SupervisionPolicy(backoff_cap=float("nan")),
    lambda: SupervisionPolicy(kill_grace="1"),
    lambda: StrategySignature("stability", None, 1, 0, False),
], ids=["workers-0", "workers-true", "max_queue-0", "worker_mode",
        "supervision-none", "heartbeat-negative", "stall-0", "backoff-nan",
        "kill_grace-str", "signature-path_cutoff-0"])
def test_policy_and_signature_constructors_raise_value_error(build):
    with pytest.raises(ValueError):
        build()
