"""The library's records: immutable values that compare and hash by
field, except the two mutable verify records.

Nine records are frozen: assignment raises ``AttributeError`` and equal
fields give equal hashes (``curve.local_deltas`` keys a dict by
``link.braid``).  ``MarkedLink`` leaves its ``components`` out of both.
``CheckResult`` and ``VerificationReport`` stay mutable and unhashable.
"""

import pytest

from alexpoly.braid import BraidWord, Factorization
from alexpoly.curve import AffineCounts, CurveComponent, CurveData, Singularity
from alexpoly.group import AbelMap, Presentation, Word
from alexpoly.linkpoly import MarkedLink
from alexpoly.verify import CheckResult, VerificationReport


class _Colours(dict):
    """A hashable colour map, so that records holding a link can hash."""

    def __hash__(self):
        return hash(frozenset(self.items()))


def _link(degree=1, components=None):
    return MarkedLink(BraidWord(2, (1, 1)), _Colours({0: 0, 1: 1}), marked=0,
                      degree=degree, components=components)


def _curve(name="C"):
    return CurveData((CurveComponent("L", 1, 0), CurveComponent(name, 1, 0)),
                     (Singularity(_link(), True),))


#: (record, fields, a factory of equal records, a record that differs in
#: one field, frozen)
RECORDS = [
    ("BraidWord", ("strands", "letters"),
     lambda: BraidWord(3, (1, 2, 1)), BraidWord(3, (2, 1, 2)), True),
    ("Factorization", ("strands", "factors", "projective"),
     lambda: Factorization(2, (BraidWord(2, (1, 1)),)),
     Factorization(2, (BraidWord(2, (1, 1)),), projective=True), True),
    ("Presentation", ("generators", "relators"),
     lambda: Presentation(("a", "b"), (Word([(0, 1), (1, -1)]),)),
     Presentation(("a", "c"), (Word([(0, 1), (1, -1)]),)), True),
    ("AbelMap", ("rank", "images"),
     lambda: AbelMap(1, ((1,), (1,))), AbelMap(1, ((1,), (2,))), True),
    ("MarkedLink", ("braid", "colours", "marked", "degree", "components"),
     _link, _link(degree=2), True),
    ("CurveComponent", ("name", "degree", "genus"),
     lambda: CurveComponent("C", 2, 0), CurveComponent("C", 2, 1), True),
    ("Singularity", ("link", "on_L"),
     lambda: Singularity(_link(), True), Singularity(_link(), False), True),
    ("CurveData", ("components", "singularities"),
     _curve, _curve("D"), True),
    ("AffineCounts", ("s_aff", "ell", "chi_ns"),
     lambda: AffineCounts(1, 2, 3), AffineCounts(1, 2, 4), True),
    ("CheckResult",
     ("name", "status", "detail", "left", "right", "witness", "ledger"),
     lambda: CheckResult("local", "pass", "ok", left="t - 1"),
     CheckResult("local", "fail", "ok", left="t - 1"), False),
    ("VerificationReport", ("checks",),
     lambda: VerificationReport([CheckResult("local", "pass", "ok")]),
     VerificationReport([]), False),
]


@pytest.mark.parametrize("fields, make, other, frozen",
                         [r[1:] for r in RECORDS], ids=[r[0] for r in RECORDS])
def test_records_compare_by_field(fields, make, other, frozen):
    a, b = make(), make()
    assert a is not b
    assert a == b and not a != b
    assert a != other and a != object()
    if frozen:
        assert hash(a) == hash(b)
        for name in fields:
            with pytest.raises(AttributeError):
                setattr(a, name, getattr(other, name))
        assert a == b
    else:
        with pytest.raises(TypeError):
            hash(a)
        for name in fields:
            setattr(a, name, getattr(other, name))
        assert a == other


def test_marked_link_leaves_components_out():
    a, b = _link(), _link(components=[(1,), (0,)])
    assert a.components != b.components
    assert a == b and hash(a) == hash(b)
    # a plain dict of colours is not hashable, and neither is the link
    with pytest.raises(TypeError):
        hash(MarkedLink(BraidWord(2, (1, 1)), {0: 1, 1: 1}))


def test_each_check_result_has_its_own_ledger():
    a, b = CheckResult("local", "pass", "ok"), CheckResult("local", "pass", "ok")
    assert a.ledger == [] and a.ledger is not b.ledger
    a.ledger.append("entry")
    assert b.ledger == []
